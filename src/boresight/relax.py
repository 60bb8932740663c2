"""Pair distance bounds over an angle box, and a convex enclosure library.

_pair_model linearises every pair's offset around the box midpoint. Every
bound a solve uses comes from it: the per-pair bounds (compute_pair_set), the
per-point bound, the coupled bound and the ellipsoid cut.

The rest, which no solve calls, encloses the reachable set {R(angles) @ l} of
a scanner-frame return l, on the sphere of radius ||l||: the interval box K of
the rotation enclosure, cut by sphere tangents (from above) and by the box
secant of the norm equality (from below). It stays while bench/tracer.py wraps
build_polytope, rotation_interval, gjk_min_sq_dist and max_vertex_sq_dist here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloud import Cloud
from .reduce import PairSet
from .rotation import (AngleBox, RotationInterval, rotation_from_angles, rotation_interval,
                       rotation_jacobian)
from .spatial import _cross
# single-pair bounds re-exported under this module, where bench/tracer.py wraps them
from .spatial import gjk_min_sq_dist as gjk_min_sq_dist, max_vertex_sq_dist as max_vertex_sq_dist

# All containment checks carry this absolute slack (meters). The pair model is
# exact up to rounding on a single angle and gets a much smaller widening.
CONTAIN_SLACK = 1e-6
POINT_SLACK = 1e-9
# Georeferenced pair offsets are off by at most 2 sqrt(3) ulps of max|s| (1.0
# measured at UTM northings): the pair model's rounding slack allows this many.
GEOREF_ULPS = 4
# Points per polytope pass: a fixed chunk bounds the peak memory of _polytopes,
# which only build_polytope (one point) and the tests call.
POINT_CHUNK = 16
# Pairs per pass of the pair model: on a 100x250 root box (2-vCPU VM) 1024
# took 52 ms where 256 took 70, for 0.2 MB more peak memory.
MODEL_CHUNK = 1024
# The cut's squared radius and half-widths are widened by this factor and
# then this much (radians^2, radians) for rounding.
CUT_REL_SLACK = 1e-6
CUT_ABS_SLACK = 1e-12
# H = A^T A counts as near-singular, and makes no cut, when det H is at most
# this share of the product of its diagonal (Hadamard: that product bounds det H).
CUT_MIN_DET = 1e-9
# every axis free (0), at its lower (1) or at its upper bound (2): the active
# sets of a 3-variable box-constrained problem
_ACTIVE_SETS = np.array(list(itertools.product(range(3), repeat=3)))

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


def _clipped_solve(M: np.ndarray, rhs: np.ndarray, hw: np.ndarray) -> np.ndarray:
    """Solutions of the 3x3 systems M[c] x = rhs[c] by Cramer's rule, clipped
    into |x_k| <= hw_k; where det M[c] = 0, the clipped numerator instead."""
    c12, c20, c01 = _cross(M[:, 1], M[:, 2]), _cross(M[:, 2], M[:, 0]), _cross(M[:, 0], M[:, 1])
    det = np.einsum("ck,ck->c", M[:, 0], c12)
    x = rhs[:, :1] * c12 + rhs[:, 1:2] * c20 + rhs[:, 2:] * c01
    return np.clip(x / np.where(det != 0, det, 1.0)[:, None], -hw, hw)


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
) -> PairSet:
    """Bounds over the box for every candidate pair, vectorized.

    One pass bounds every pair from its pair model (_model_c_lo, _model_c_hi),
    in chunks of MODEL_CHUNK pairs: all pairs without a PairSet (the root box),
    else the given candidates, whose old bounds are intersected with the new
    ones, which keeps bounds monotone for nested boxes. No polytope is built.
    """
    out = (PairSet.dense(len(hat), len(bar)) if pairs is None
           else PairSet.unchecked(pairs.n_hat, pairs.i, pairs.j, pairs.c_lo.copy(),
                                  pairs.c_hi.copy()))
    for s in _chunks(out.size, MODEL_CHUNK):
        model = _pair_model(hat, bar, out.i[s], out.j[s], box)
        out.c_hi[s] = np.minimum(out.c_hi[s], _model_c_hi(*model, box))
        out.c_lo[s] = np.minimum(np.maximum(out.c_lo[s], _model_c_lo(*model, box)), out.c_hi[s])
    return out


def builtin_lower_bound(pairs: PairSet) -> float:
    """Valid lower bound: every hat point must match one of its retained
    candidates, and c_lo bounds that pair's squared distance over the box."""
    return float(pairs.min_c_lo_per_i().sum())


def _box_qp_candidates(H: np.ndarray, g: np.ndarray, hw: np.ndarray) -> np.ndarray:
    """Candidate minimisers of d @ H @ d + 2 g @ d over |d_k| <= hw_k, one per
    active set, shape (27, 3), all inside the box.

    For each active set the fixed axes sit at their bound and the free ones
    solve their rows of the stationarity condition H d = -g (Cramer's rule);
    the result is clipped into the box. With H positive definite on the free
    axes, the candidate of the optimum's active set is the optimum.
    """
    free = _ACTIVE_SETS == 0
    M = np.where(free[:, :, None], H, np.eye(3))
    rhs = np.where(free, -g, np.where(_ACTIVE_SETS == 1, -hw, hw))
    return _clipped_solve(M, rhs, hw)


def single_partner_model(pairs: PairSet, box: AngleBox, hat: Cloud, bar: Cloud):
    """(M, model): M = sum over the hat points with several surviving
    partners of min_j c_lo, and the pair model (b, A, rho) of _pair_model on
    the pairs of the points with exactly one, None when there are none."""
    counts = np.bincount(pairs.i, minlength=pairs.n_hat)
    multi = float(pairs.min_c_lo_per_i()[counts != 1].sum())
    single = counts[pairs.i] == 1
    if not single.any():
        return multi, None
    return multi, _pair_model(hat, bar, pairs.i[single], pairs.j[single], box)


def coupled_lower_bound(model, box: AngleBox) -> float:
    """Lower bound that shares one rotation among the points with a single
    surviving partner.

    After reduction, a hat point i with exactly one candidate j has j as its
    nearest partner wherever the objective is at or below the upper bound the
    set was reduced with. Over those angles the objective is at least
    sum_single ||g_ij(c + d)||^2 + M, with M = sum_multi min_j c_lo_ij and
    g_ij the pair's offset at the box midpoint c shifted by d, within rho_ij
    of its linearisation g0 + J d (_pair_model). With Q the minimum of
    sum ||g0 + J d||^2 over the box, the bound is (sqrt(Q) - ||rho||)_+^2 + M
    (Minkowski). Q is certified from a candidate minimiser by the convexity
    cut, so its accuracy does not matter. model is single_partner_model of
    the reduced pairs over the box.
    """
    multi, single = model
    if single is None:
        return multi
    hw = 0.5 * box.widths()
    b, A, rho = single
    cands = _box_qp_candidates(A.T @ A, A.T @ b, hw)
    res = A @ cands.T + b[:, None]
    k = np.argmin(np.einsum("rc,rc->c", res, res))
    d, r = cands[k], res[:, k]
    grad = 2.0 * (A.T @ r)
    q = max(0.0, float(r @ r - grad @ d - np.abs(grad) @ hw))
    return max(0.0, math.sqrt(q) - math.sqrt(float(rho @ rho))) ** 2 + multi


def ellipsoid_cut(box: AngleBox, multi: float, single, f_upper: float):
    """The box cut to the bounding box of the coupled bound's ellipsoid, as
    (lows, highs): some low lies above its high when no angle of the box can
    have f <= f_upper. None when no cut is made: fewer than 3 single-partner
    points, or a near-singular H (CUT_MIN_DET).

    (multi, single) is single_partner_model of reduced pairs over the box, at
    an upper bound of at least f_upper. By coupled_lower_bound's argument,
    every c + d in the box with f(c + d) <= f_upper has M <= f_upper and
    Q(d) = ||b + A d||^2 <= r^2, with r = sqrt(f_upper - M) + ||rho||. With
    H = A^T A and d* = -H^-1 A^T b, Q(d) = Q(d*) + (d - d*)^T H (d - d*), so
    |d_k - d*_k| <= sqrt((r^2 - Q(d*)) (H^-1)_kk). H^-1 is the adjugate over
    the determinant. d* is refined by one step from the residual's gradient,
    whose share of Q(d*) is taken off exactly; r^2 and the half-widths are
    widened for rounding (CUT_REL_SLACK, CUT_ABS_SLACK).
    """
    lows, highs = box.lows(), box.highs()
    if multi > f_upper:
        return highs, lows
    if single is None or single[2].size < 3:
        return None
    b, A, rho = single
    H = A.T @ A
    adj = _cross(H[[1, 2, 0]], H[[2, 0, 1]])  # rows H1 x H2, H2 x H0, H0 x H1
    det = float(H[0] @ adj[0])
    if not det > CUT_MIN_DET * np.prod(np.diag(H)):
        return None
    inv = adj / det
    d = -inv @ (A.T @ b)
    res = b + A @ d
    g = A.T @ res  # zero but for rounding; the minimiser is d - inv @ g
    q = float(res @ res - g @ inv @ g)
    r = math.sqrt(f_upper - multi) + math.sqrt(float(rho @ rho))
    slack = r * r * (1.0 + CUT_REL_SLACK) + CUT_ABS_SLACK - q
    if slack < 0.0:
        return highs, lows
    half = np.sqrt(slack * np.diag(inv)) * (1.0 + CUT_REL_SLACK) + CUT_ABS_SLACK
    centre = 0.5 * (lows + highs) + d - inv @ g
    return np.maximum(lows, centre - half), np.minimum(highs, centre + half)
