"""Convex enclosures of a point's reachable positions and pair distance bounds.

For a scanner-frame return l and an angle box, the reachable set
{R(angles) @ l} lies on the sphere of radius ||l||. Its convex enclosure is
the interval box K from the rotation enclosure, intersected with sphere
tangent cuts (from above) and the box secant of the norm equality (from
below). Pair bounds over the box follow from polytope-to-polytope distances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloud import Cloud
from .reduce import PairSet
from .rotation import AngleBox, rotation_interval
from .spatial import gjk_min_sq_dist, max_vertex_sq_dist

# All containment checks carry this absolute slack (meters); exported bounds
# are widened by it so pruning stays conservative. Single-vertex (degenerate)
# polytopes are exact up to rounding and get a much smaller widening.
CONTAIN_SLACK = 1e-6
POINT_SLACK = 1e-9

_VERTEX_DEDUP = 1e-9
_FEAS_TOL = 5e-10


@dataclass(frozen=True)
class ReachBox:
    """Componentwise interval enclosure of R(angles) @ l over an angle box."""

    lo: np.ndarray
    hi: np.ndarray

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        p = np.atleast_2d(points)
        return np.all((p >= self.lo - tol) & (p <= self.hi + tol), axis=1)

    def corners(self) -> np.ndarray:
        c = np.array(list(itertools.product(*zip(self.lo, self.hi))), dtype=float)
        return c


def reach_box(l: np.ndarray, box: AngleBox) -> ReachBox:
    """Interval matrix-vector product of the rotation enclosure with l."""
    l = np.asarray(l, dtype=float)
    ri = rotation_interval(box)
    prod_lo = np.minimum(ri.lo * l, ri.hi * l)
    prod_hi = np.maximum(ri.lo * l, ri.hi * l)
    return ReachBox(lo=prod_lo.sum(axis=1), hi=prod_hi.sum(axis=1))


@dataclass(frozen=True)
class UncertaintyPolytope:
    """Vertex + halfspace form of the convex enclosure of {R @ l} over a box.

    Halfspace normals are unit length; a point x is inside iff
    normals @ x <= offsets (within slack). center/radius give the enclosing
    ball of the vertices, used for cheap distance prescreens.
    """

    normals: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray
    l_norm_sq: float
    center: np.ndarray
    radius: float

    @property
    def is_point(self) -> bool:
        return self.vertices.shape[0] == 1

    def contains(self, points: np.ndarray, tol: float = CONTAIN_SLACK) -> np.ndarray:
        p = np.atleast_2d(points)
        if self.normals.shape[0] == 0:
            d = p - self.vertices[0]
            return np.einsum("ij,ij->i", d, d) <= tol * tol
        return np.all(p @ self.normals.T <= self.offsets + tol, axis=1)


def _enumerate_vertices(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Exact vertex enumeration of {x : normals @ x <= offsets} in 3D.

    Intersects every triple of bounding planes and keeps the feasible
    solutions; cheap and robust for the <= ~16 halfspaces built here.
    """
    m = normals.shape[0]
    combos = np.array(list(itertools.combinations(range(m), 3)), dtype=int)
    A3 = normals[combos]
    b3 = offsets[combos]
    dets = np.linalg.det(A3)
    ok = np.abs(dets) > 1e-10
    if not ok.any():
        return np.empty((0, 3))
    pts = np.linalg.solve(A3[ok], b3[ok][..., None])[..., 0]
    feas = np.all(pts @ normals.T <= offsets + _FEAS_TOL, axis=1)
    pts = pts[feas]
    if pts.shape[0] == 0:
        return pts
    # deduplicate within tolerance, deterministic order
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    pts = pts[order]
    kept: list[np.ndarray] = []
    for p in pts:
        if all(np.sum((p - q) ** 2) > _VERTEX_DEDUP**2 for q in kept):
            kept.append(p)
    return np.array(kept)


def build_polytope(l: np.ndarray, box: AngleBox) -> UncertaintyPolytope:
    """Convex enclosure of the reachable positions of l over the angle box."""
    l = np.asarray(l, dtype=float)
    lsq = float(l @ l)
    if lsq == 0.0:
        v = np.zeros((1, 3))
        return UncertaintyPolytope(
            normals=np.empty((0, 3)), offsets=np.empty(0), vertices=v,
            l_norm_sq=0.0, center=np.zeros(3), radius=0.0,
        )
    lnorm = math.sqrt(lsq)
    k = reach_box(l, box)

    normals: list[np.ndarray] = []
    offsets: list[float] = []
    eye = np.eye(3)
    for e in range(3):
        normals.append(eye[e])
        offsets.append(float(k.hi[e]))
        normals.append(-eye[e])
        offsets.append(float(-k.lo[e]))

    # secant (concave envelope of the norm equality over K), pointing inward
    n_sec = -(k.lo + k.hi)
    b_sec = -lsq - float(k.lo @ k.hi)
    nrm = float(np.linalg.norm(n_sec))
    if nrm > 1e-12:
        normals.append(n_sec / nrm)
        offsets.append(b_sec / nrm)

    # tangent cuts at radial projections of the K center and of K corners
    # outside the sphere: unit normal d gives d @ x <= ||l||
    def add_tangent(x: np.ndarray) -> None:
        nx = float(np.linalg.norm(x))
        if nx > 1e-12 * lnorm:
            normals.append(x / nx)
            offsets.append(lnorm)

    add_tangent(0.5 * (k.lo + k.hi))
    for corner in k.corners():
        if float(np.linalg.norm(corner)) > lnorm:
            add_tangent(corner)

    A = np.array(normals)
    b = np.array(offsets)
    vertices = _enumerate_vertices(A, b)
    if vertices.shape[0] == 0:
        # numerically over-tight cuts; fall back to the box alone (still a
        # valid enclosure)
        A = A[:6]
        b = b[:6]
        vertices = _enumerate_vertices(A, b)
        if vertices.shape[0] == 0:
            vertices = np.atleast_2d(0.5 * (k.lo + k.hi))
    center = vertices.mean(axis=0)
    radius = float(np.sqrt(np.max(np.sum((vertices - center) ** 2, axis=1))))
    return UncertaintyPolytope(
        normals=A, offsets=b, vertices=vertices,
        l_norm_sq=lsq, center=center, radius=radius,
    )


def transform_polytope(p: UncertaintyPolytope, s: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Vertices of the enclosure after the rigid INS transform: {s + R v}."""
    return np.asarray(s, dtype=float) + p.vertices @ np.asarray(R, dtype=float).T


def _pair_slack(a: UncertaintyPolytope, b: UncertaintyPolytope) -> float:
    return POINT_SLACK if (a.is_point and b.is_point) else CONTAIN_SLACK


def compute_pair_set(
    hat: Cloud,
    bar: Cloud,
    box: AngleBox,
    pairs: PairSet | None = None,
    f_upper: float = np.inf,
) -> PairSet:
    """Bounds over the box for every candidate pair, vectorized.

    Cheap enclosing-ball bounds are computed for all pairs; exact
    polytope-distance bounds are then computed only where they could change a
    reduction decision. Passing an existing PairSet restricts the candidates
    and intersects the new bounds with the old ones, which keeps bounds
    monotone for nested boxes.
    """
    if pairs is None:
        pairs = PairSet.dense(len(hat), len(bar))
    i_arr, j_arr = pairs.i, pairs.j
    prev_lo, prev_hi = pairs.c_lo, pairs.c_hi

    hat_ids = np.unique(i_arr)
    bar_ids = np.unique(j_arr)
    hat_polys = {int(i): build_polytope(hat.l[i], box) for i in hat_ids}
    bar_polys = {int(j): build_polytope(bar.l[j], box) for j in bar_ids}

    def world_geometry(cloud, polys, ids):
        kmax = max(polys[int(i)].vertices.shape[0] for i in ids)
        centers = np.empty((len(cloud), 3))
        radii = np.empty(len(cloud))
        verts = np.zeros((len(cloud), kmax, 3))
        for i in ids:
            p = polys[int(i)]
            c = cloud.s[i] + cloud.ins_rotation[i] @ p.center
            centers[i] = c
            radii[i] = p.radius
            vw = cloud.s[i] + p.vertices @ cloud.ins_rotation[i].T
            verts[i, : vw.shape[0]] = vw - c  # padded slots stay at the center
        return centers, radii, verts

    hc, hr, hv = world_geometry(hat, hat_polys, hat_ids)
    bc, br, bv = world_geometry(bar, bar_polys, bar_ids)

    delta = bc[j_arr] - hc[i_arr]
    d = np.linalg.norm(delta, axis=1)
    rr = hr[i_arr] + br[j_arr]
    c_lo = np.maximum(0.0, d - rr) ** 2
    c_hi = (d + rr) ** 2
    # tighter lower bound from directional extents along the center line:
    # separation >= center distance minus each polytope's support toward the
    # other (exact for the projection onto that direction)
    pos = d > 1e-12
    if pos.any():
        u = delta[pos] / d[pos, None]
        ext_h = np.einsum("pkd,pd->pk", hv[i_arr[pos]], u).max(axis=1)
        ext_b = np.einsum("pkd,pd->pk", bv[j_arr[pos]], -u).max(axis=1)
        sep = d[pos] - ext_h - ext_b
        c_lo[pos] = np.maximum(c_lo[pos], np.maximum(0.0, sep) ** 2)
    c_lo = np.maximum(c_lo, prev_lo)
    c_hi = np.minimum(c_hi, prev_hi)
    c_lo = np.minimum(c_lo, c_hi)

    m = np.full(pairs.n_hat, np.inf)
    np.minimum.at(m, i_arr, c_hi)
    mask = (c_lo <= f_upper) & (c_lo <= m[i_arr]) & (c_hi - c_lo > POINT_SLACK)
    hat_world: dict[int, np.ndarray] = {}
    bar_world: dict[int, np.ndarray] = {}
    for idx in np.flatnonzero(mask):
        i, j = int(i_arr[idx]), int(j_arr[idx])
        vh = hat_world.get(i)
        if vh is None:
            vh = transform_polytope(hat_polys[i], hat.s[i], hat.ins_rotation[i])
            hat_world[i] = vh
        vb = bar_world.get(j)
        if vb is None:
            vb = transform_polytope(bar_polys[j], bar.s[j], bar.ins_rotation[j])
            bar_world[j] = vb
        slack = _pair_slack(hat_polys[i], bar_polys[j])
        lo = max(0.0, gjk_min_sq_dist(vh, vb) - slack)
        hi = max_vertex_sq_dist(vh, vb) + slack
        c_lo[idx] = max(c_lo[idx], lo)
        c_hi[idx] = min(c_hi[idx], hi)
        if c_lo[idx] > c_hi[idx]:
            c_lo[idx] = c_hi[idx]

    return PairSet(n_hat=pairs.n_hat, i=i_arr.copy(), j=j_arr.copy(), c_lo=c_lo, c_hi=c_hi)
