"""Convex enclosures of a point's reachable positions and pair distance bounds.

For a scanner-frame return l and an angle box, the reachable set
{R(angles) @ l} lies on the sphere of radius ||l||. Its convex enclosure is
the interval box K from the rotation enclosure, intersected with sphere
tangent cuts (from above) and the box secant of the norm equality (from
below).

compute_pair_set bounds every pair of a box from the pair's linearised model;
where those bounds could still change a reduction decision, the distance
between the two points' polytopes (GJK) raises the lower bound. It works per
box, in vectorised passes over fixed chunks of points and pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .cloud import Cloud
from .reduce import PairSet
from .rotation import (AngleBox, RotationInterval, rotation_from_angles, rotation_interval,
                       rotation_jacobian)
from .spatial import _clipped_solve, _cross, hull_min_sq_dist
# single-pair bounds re-exported under this module, where bench/tracer.py wraps them
from .spatial import gjk_min_sq_dist as gjk_min_sq_dist, max_vertex_sq_dist as max_vertex_sq_dist

# All containment checks carry this absolute slack (meters); polytope bounds
# are widened by it so pruning stays conservative. The pair model is exact up
# to rounding on a single angle and gets a much smaller widening.
CONTAIN_SLACK = 1e-6
POINT_SLACK = 1e-9
# Georeferenced pair offsets are off by at most 2 sqrt(3) ulps of max|s| (1.0
# measured at UTM northings): the pair model's rounding slack allows this many.
GEOREF_ULPS = 4
# Points per polytope pass and pairs per lockstep GJK batch: fixed chunks bound
# peak memory (512/1024 pairs add 1.8/2.9 MB of peak RSS; on 30x60 scenes, 2-vCPU
# VM, 64 points add 3.5 MB for about 8% less nsBB time).
POINT_CHUNK = 16
PAIR_CHUNK = 256
# Pairs per pass of the pair model: on a 100x250 root box (2-vCPU VM) 1024
# took 52 ms where PAIR_CHUNK took 70, for 0.2 MB more peak memory.
MODEL_CHUNK = 1024

_FEAS_TOL = 5e-10
# plane triples of an m-plane system; box corners in itertools.product order
_TRIPLES = {m: np.array(list(itertools.combinations(range(m), 3))) for m in range(3, 17)}
_CORNERS = np.array(list(itertools.product((False, True), repeat=3)))
_BOX_NORMALS = np.stack([np.eye(3), -np.eye(3)], axis=1).reshape(6, 3)  # +x, -x, +y, ...


def _chunks(n: int, size: int) -> list[slice]:
    return [slice(k, k + size) for k in range(0, n, size)]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis, rounded as a @ b rounds for one row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _reach_bounds(ri: RotationInterval, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval matrix products of the rotation enclosure with every row of L (n, 3)."""
    lo, hi = ri.lo * L[:, None, :], ri.hi * L[:, None, :]
    return np.minimum(lo, hi).sum(axis=2), np.maximum(lo, hi).sum(axis=2)


@dataclass(frozen=True)
class UncertaintyPolytope:
    """Vertex + halfspace form of the convex enclosure of {R @ l} over a box.

    Halfspace normals are unit length; a point x is inside iff
    normals @ x <= offsets (within slack). Every vertex of the hull is listed,
    some possibly more than once (a zero l has 8 copies of the origin).
    """

    normals: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray

    def contains(self, points: np.ndarray, tol: float = CONTAIN_SLACK) -> np.ndarray:
        return np.all(np.atleast_2d(points) @ self.normals.T <= self.offsets + tol, axis=1)


def _halfspaces(L: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Bounding planes of every point's enclosure, valid ones first.

    Per point: the six faces of its reach box K, the secant of the norm
    equality over K (pointing inward), and sphere tangents d @ x <= ||l|| at
    the radial projections of the K centre and of the K corners outside the
    sphere. Returns unit normals (n, 16, 3), offsets (n, 16) and the number
    of valid planes (n,); a zero l gets its box faces only.
    """
    lsq = _dot(L, L)
    lnorm = np.sqrt(lsq)[:, None]
    # cut directions: the secant's, then the tangent points (K centre, corners)
    cut = np.concatenate([-(lo + hi)[:, None], 0.5 * (lo + hi)[:, None],
                          np.where(_CORNERS, hi[:, None], lo[:, None])], axis=1)
    norm = np.sqrt(_dot(cut, cut))
    floor = np.concatenate([np.full_like(lnorm, 1e-12), 1e-12 * lnorm, np.repeat(lnorm, 8, 1)], 1)
    valid = np.concatenate([np.ones((len(L), 6), dtype=bool), norm > floor], 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        normals = np.concatenate([np.broadcast_to(_BOX_NORMALS, (len(L), 6, 3)),
                                  cut / norm[..., None]], axis=1)
        offsets = np.concatenate([np.stack([hi, -lo], axis=2).reshape(-1, 6),
                                  (-lsq[:, None] - _dot(lo, hi)[:, None]) / norm[:, :1],
                                  np.repeat(lnorm, 9, axis=1)], axis=1)
    order = np.argsort(~valid, axis=1, kind="stable")
    return (np.take_along_axis(normals, order[..., None], axis=1),
            np.take_along_axis(offsets, order, axis=1), valid.sum(axis=1))


def _vertices(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of {x : A[r] @ x <= b[r]} for a batch of systems of m planes.

    Intersects every plane triple with |det| > 1e-10 by Cramer's rule and
    keeps the feasible solutions. A vertex on more than three planes comes
    once per triple through it: GJK's hull distance is the same with the
    copies. Returns each vertex's row and the vertices, ordered by row and
    then lexicographically.

    For the triple (i, j, k), Cramer's rule x = (b_i a_j x a_k + b_j a_k x a_i
    + b_k a_i x a_j) / det is written relative to the middle plane: with
    d_i = a_i - a_j, d_k = a_k - a_j,
    x = (b_j d_k x d_i + (b_k - b_j) d_i x a_j + (b_i - b_j) a_j x d_k) / det
    and det = a_j . d_k x d_i. Nearly parallel sphere tangents share their
    offset and come last in a system, so their differences are exact and
    nothing large cancels. On a +-0.002 degree box with 30 m ranges the
    vertices were off by at most 4e-10 m from exact rational solutions,
    against 8e-7 m for np.linalg.solve and 2e-5 m for the form above.
    """
    combos = _TRIPLES[A.shape[1]]
    A3, b3 = A[:, combos], b[:, combos]
    aj = A3[..., 1, :]
    di, dk = A3[..., 0, :] - aj, A3[..., 2, :] - aj
    c = _cross(dk, di)
    det = _dot(aj, c)
    ok = np.abs(det) > 1e-10
    bj = b3[..., 1, None]
    X = (bj * c + (b3[..., 2, None] - bj) * _cross(di, aj)
         + (b3[..., 0, None] - bj) * _cross(aj, dk)) / np.where(ok, det, 1.0)[..., None]
    ok &= np.all(X @ A.transpose(0, 2, 1) <= b[:, None, :] + _FEAS_TOL, axis=2)
    row, pts = np.nonzero(ok)[0], X[ok]
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], row))
    return row[order], pts[order]


def _polytopes(L: np.ndarray, ri: RotationInterval):
    """Enclosures of the reachable positions of every row of L over one box:
    planes (normals, offsets, counts), vertices (n, K, 3) padded with the
    centre, vertex counts and centres. Points with the same number of planes
    go through _vertices together, in chunks."""
    lo, hi = _reach_bounds(ri, L)
    A, b, m = _halfspaces(L, lo, hi)
    rows, pts = [np.zeros(0, dtype=int)], [np.zeros((0, 3))]
    for mm in np.unique(m):
        idx = np.flatnonzero(m == mm)
        for s in _chunks(idx.size, POINT_CHUNK):
            r, p = _vertices(A[idx[s], :mm], b[idx[s], :mm])
            rows.append(idx[s][r])
            pts.append(p)
    # numerically over-tight cuts leave no vertex: fall back to the box alone,
    # still a valid enclosure, whose 8 corners always pass
    empty = np.flatnonzero(np.bincount(np.concatenate(rows), minlength=len(L)) == 0)
    if empty.size:
        m[empty] = 6
        r, p = _vertices(A[empty, :6], b[empty, :6])
        rows.append(empty[r])
        pts.append(p)
    row = np.concatenate(rows)
    order = np.argsort(row, kind="stable")
    row, nv = row[order], np.bincount(row, minlength=len(L))
    V = np.zeros((len(L), nv.max(initial=0), 3))
    V[row, np.arange(row.size) - (np.cumsum(nv) - nv)[row]] = np.concatenate(pts)[order]
    center = V.sum(axis=1) / nv[:, None]
    V = np.where((np.arange(V.shape[1]) < nv[:, None])[..., None], V, center[:, None])
    return A, b, m, V, nv, center


def build_polytope(l: np.ndarray, box: AngleBox) -> UncertaintyPolytope:
    """Convex enclosure of the reachable positions of l over the angle box."""
    A, b, m, V, nv, _ = _polytopes(np.asarray(l, dtype=float)[None], rotation_interval(box))
    return UncertaintyPolytope(A[0, : m[0]], b[0, : m[0]], V[0, : nv[0]])


def _world_polytopes(cloud: Cloud, ids: np.ndarray, ri: RotationInterval):
    """Polytopes of the listed points placed by their INS pose: world centres
    and vertices relative to the centre (padding sits at the centre)."""
    _, _, _, V, _, c = _polytopes(cloud.l[ids], ri)
    R = cloud.ins_rotation[ids]
    return (cloud.s[ids] + np.einsum("nij,nj->ni", R, c),
            np.einsum("nij,nkj->nki", R, V - c[:, None]))


def _pair_model(hat: Cloud, bar: Cloud, i: np.ndarray, j: np.ndarray,
                box: AngleBox) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The offsets g_ij(c + d) = b + A d + e of pairs (i, j) around the box
    midpoint c: b (3m,), A (3m, 3) and the bounds rho (m,) on ||e||.

    vec([R(c), dR/dalpha, dR/dbeta, dR/dgamma]) times the difference of the
    pairs' placement columns is added to the s-difference, formed first so
    that UTM-scale positions cancel exactly. Every second partial of R
    applied to l has norm at most ||l||, so ||e|| <= (sum_k hw_k)^2
    (||l_i|| + ||l_j||) / 2, widened for rounding by POINT_SLACK or, at large
    coordinates, GEOREF_ULPS ulps of max|s|.
    """
    mid = box.midpoint()
    V = np.concatenate([rotation_from_angles(mid)[None], rotation_jacobian(mid)]).reshape(4, 9)
    dK = hat.placement.reshape(9, -1, 3)[:, i] - bar.placement.reshape(9, -1, 3)[:, j]
    g = V @ dK.reshape(9, -1)
    b = (hat.s[i] - bar.s[j]).reshape(-1) + g[0]
    slack = max(POINT_SLACK, GEOREF_ULPS * np.spacing(max(np.abs(hat.s).max(), np.abs(bar.s).max())))
    rho = (0.5 * (0.5 * box.widths()).sum() ** 2
           * (np.linalg.norm(hat.l[i], axis=1) + np.linalg.norm(bar.l[j], axis=1)) + slack)
    return b, g[1:].T, rho


def _model_c_lo(b: np.ndarray, A: np.ndarray, rho: np.ndarray, box: AngleBox) -> np.ndarray:
    """Lower bounds on every pair's squared distance over the box from its
    model (_pair_model): (max(||g0|| - sum_k ||J_k|| hw_k, sqrt(cut)) - rho)_+^2,
    the cut being the larger convexity cut of ||g0 + J d||^2 at d = 0 and at
    -J^-1 g0 clipped into the box (any d gives a valid cut, so a singular J may)."""
    hw = 0.5 * box.widths()
    g0, J = b.reshape(-1, 3), A.reshape(-1, 3, 3)
    d = np.stack([np.zeros_like(g0), _clipped_solve(J, -g0, hw)])
    r = g0 + (J @ d[..., None])[..., 0]
    grad = 2.0 * (r[..., None, :] @ J)[..., 0, :]
    q = np.max(_dot(r, r) - _dot(grad, d) - np.abs(grad) @ hw, axis=0)
    norm_form = np.sqrt(_dot(g0, g0)) - np.linalg.norm(J, axis=1) @ hw
    return np.maximum(0.0, np.maximum(norm_form, np.sqrt(np.maximum(q, 0.0))) - rho) ** 2


def _model_c_hi(b: np.ndarray, A: np.ndarray, rho: np.ndarray, box: AngleBox) -> np.ndarray:
    """Upper bounds on every pair's squared distance over the box from its
    model: (max over the 8 box corners of ||g0 + J d|| + rho)^2, the norm
    being convex in d."""
    corners = np.where(_CORNERS, 0.5, -0.5) * box.widths()
    r = b.reshape(-1, 3, 1) + A.reshape(-1, 3, 3) @ corners.T
    return (np.sqrt(np.max(np.sum(r * r, axis=1), axis=1)) + rho) ** 2


def compute_pair_set(
    hat: Cloud,
    bar: Cloud,
    box: AngleBox,
    pairs: PairSet | None = None,
    f_upper: float = np.inf,
) -> PairSet:
    """Bounds over the box for every candidate pair, vectorized.

    One pass bounds every pair from its pair model (_model_c_lo, _model_c_hi),
    in chunks of MODEL_CHUNK pairs: all pairs without a PairSet (the root box),
    else the given candidates, whose old bounds are intersected with the new
    ones, which keeps bounds monotone for nested boxes. The root returns with
    those bounds, and so does a box that they prune (sum_i min_j c_lo >
    f_upper). Any other box raises c_lo, never c_hi, to the GJK distance
    between the pair's two polytopes less CONTAIN_SLACK, on the pairs that
    could still change a reduction decision: c_lo <= f_upper and
    c_lo <= min_k c_hi_ik.
    """
    root = pairs is None
    out = (PairSet.dense(len(hat), len(bar)) if root
           else replace(pairs, c_lo=pairs.c_lo.copy(), c_hi=pairs.c_hi.copy()))
    for s in _chunks(out.size, MODEL_CHUNK):
        model = _pair_model(hat, bar, out.i[s], out.j[s], box)
        out.c_hi[s] = np.minimum(out.c_hi[s], _model_c_hi(*model, box))
        out.c_lo[s] = np.minimum(np.maximum(out.c_lo[s], _model_c_lo(*model, box)), out.c_hi[s])
    if root or out.min_c_lo_per_i().sum() > f_upper:
        return out
    refine = np.flatnonzero((out.c_lo <= f_upper) & (out.c_lo <= out.min_c_hi_per_i()[out.i]))
    ri = rotation_interval(box)
    hat_ids, i_arr = np.unique(out.i[refine], return_inverse=True)  # i_arr, j_arr index the ids
    bar_ids, j_arr = np.unique(out.j[refine], return_inverse=True)
    hc, hv = _world_polytopes(hat, hat_ids, ri)
    bc, bv = _world_polytopes(bar, bar_ids, ri)
    for s in _chunks(refine.size, PAIR_CHUNK):
        p, i, j = refine[s], i_arr[s], j_arr[s]
        # both hulls relative to the hat polytope's centre
        lo = hull_min_sq_dist(hv[i], bv[j] + (bc[j] - hc[i])[:, None])
        out.c_lo[p] = np.minimum(np.maximum(out.c_lo[p], lo - CONTAIN_SLACK), out.c_hi[p])
    return out
