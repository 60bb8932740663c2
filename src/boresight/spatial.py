"""Geometric kernels: exact nearest-neighbor queries and convex-polytope distances."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree


def _as_vertex_set(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise ValueError(f"vertex set must be a non-empty (n, 3) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("vertex set contains non-finite coordinates")
    return pts


class NnIndex:
    """Exact nearest-neighbor index over a fixed set of 3D points.

    Equidistant neighbors are not ordered: on a tie any nearest point may be
    returned. Immutable after construction; concurrent queries are safe.
    """

    def __init__(self, points):
        pts = _as_vertex_set(points)
        self._points = pts
        # Sliding-midpoint splits without node shrinking: 2000x5000 aGS takes 31% less time.
        # aGS time at leafsize 16 / 32 / 64 / 128 (n_d=10, min of 6 or 3 alternations,
        # 2-vCPU VM): 30x60 5 rounds 0/-1/-2/+1%, 100x250 5 rounds 0/-5/-9/-6%, 500x5000
        # 2 rounds 0/-6/-14/-16%.
        self._tree = cKDTree(pts, leafsize=64, balanced_tree=False, compact_nodes=False)

    def query_many(self, Q) -> tuple[np.ndarray, np.ndarray]:
        """Batch nearest neighbors: (indices, squared distances). No tie-break guarantee."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        dist, j = self._tree.query(Q)
        diffs = self._points[j] - Q
        return j, np.einsum("ij,ij->i", diffs, diffs)

    def query_ball(self, Q, r, cap: float = np.inf) -> tuple[np.ndarray, np.ndarray | None]:
        """Points within r[i] of Q[i] as flat arrays: (counts, indices), row i's indices
        ascending in its slice. Past cap it only counts: indices is None when the
        counts sum above cap, so cap=-1 is a count-only query."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        counts = self._tree.query_ball_point(Q, r, return_length=True)
        if counts.sum() > cap:
            return counts, None
        lists = self._tree.query_ball_point(Q, r, return_sorted=True)
        return counts, np.fromiter(itertools.chain.from_iterable(lists), np.intp, counts.sum())


def max_vertex_sq_dist(a, b) -> float:
    """Max squared distance between conv(a) and conv(b); attained at vertices."""
    d = _as_vertex_set(a)[:, None] - _as_vertex_set(b)[None]
    return float(np.einsum("ijk,ijk->ij", d, d).max())


def gjk_min_sq_dist(a, b) -> float:
    """Min squared distance between conv(a) and conv(b); 0 when the hulls intersect."""
    return float(hull_min_sq_dist(_as_vertex_set(a)[None], _as_vertex_set(b)[None])[0])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products over the last axis (as np.cross, with less overhead)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


# The faces of a simplex of up to 4 points that contain its slot 0, the
# newest support point: the vertex, 3 edges, 3 triangles and the
# tetrahedron, in that order; _FACE_IDX (zero-padded) lists their slots.
_FACES = [(0,) + c for r in range(4) for c in itertools.combinations(range(1, 4), r)]
_FACE_IDX = np.array([list(f) + [0] * (4 - len(f)) for f in _FACES])
_FACE_SIZE = np.array([len(f) for f in _FACES])
_FACE_TOP = _FACE_IDX.max(axis=1)
_TRI_EDGES = np.array(list(itertools.combinations(range(3), 2))).T  # edge vectors of faces 4-6
_GJK_TOL, _GJK_MAX_ITER = 1e-9, 200


def _closest_on_simplex(S: np.ndarray, n: np.ndarray):
    """Closest point to the origin of conv(S[p, :n[p]]) for a stack of
    simplices whose newest point S[p, 0] was just added to a simplex that the
    termination test did not accept.

    Then the closest point lies on a face that contains S[p, 0] (moving from
    the old closest point v toward the new point w decreases the norm, since
    v . w < v . v), so only those 8 faces are candidates. The point of a
    face's affine hull nearest the origin counts when its barycentric weights
    are nonnegative, and the nearest candidate wins, the first in face order
    on ties. With edge vectors e_k = S[p, k] - S[p, 0], the vertex needs no
    solve; the edges and triangles solve the normal equations (e_k . e_l) mu
    = -(e_k . w) in closed form from one Gram matrix, and the tetrahedron
    solves for the origin directly by Cramer's rule. A degenerate face gives
    an infinite or undefined weight and drops out, since one of its own
    faces holds its closest point. Returns the points (P, 3), the supporting
    faces' points moved to the front of the slots (P, 4, 3) and their sizes
    (P,).
    """
    w = S[:, 0]
    E = S[:, 1:] - w[:, None]
    G = E @ E.transpose(0, 2, 1)
    r = -(E @ w[:, :, None])[..., 0]
    mu = np.zeros((len(S), len(_FACES), 3))  # mu[p, f, k]: weight of e_(k+1) in face f
    k, l = _TRI_EDGES
    with np.errstate(divide="ignore", invalid="ignore"):
        mu[:, [1, 2, 3], [0, 1, 2]] = r / G[:, [0, 1, 2], [0, 1, 2]]
        det = G[:, k, k] * G[:, l, l] - G[:, k, l] ** 2
        mu[:, [4, 5, 6], k] = (r[:, k] * G[:, l, l] - G[:, k, l] * r[:, l]) / det
        mu[:, [4, 5, 6], l] = (G[:, k, k] * r[:, l] - r[:, k] * G[:, k, l]) / det
        # rows e2 x e3, e3 x e1, e1 x e2: Cramer's rule for E^T mu = -w
        C = _cross(E[:, [1, 2, 0]], E[:, [2, 0, 1]])
        mu[:, 7] = -(C @ w[:, :, None])[..., 0] / np.sum(E[:, 0] * C[:, 0], axis=1)[:, None]
        x = w[:, None] + mu @ E
        nn = np.sum(x * x, axis=2)
        ok = (np.all(mu >= -1e-12, axis=2) & (mu.sum(axis=2) <= 1.0 + 1e-12)
              & (_FACE_TOP < n[:, None]))
    best = np.argmin(np.where(ok, nn, np.inf), axis=1)
    rows = np.arange(S.shape[0])
    return x[rows, best], S[rows[:, None], _FACE_IDX[best]], _FACE_SIZE[best]


def hull_min_sq_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Min squared distance between conv(A[p]) and conv(B[p]) for each p.

    A (P, Ka, 3) and B (P, Kb, 3) are stacks of vertex sets; a ragged set is
    padded with a point of its own hull (such as its centroid), which changes
    no distance. It is the distance variant of the Gilbert-Johnson-Keerthi
    iteration over the Minkowski difference, run on all P pairs in lockstep:
    every iteration takes one support point w per pair along -v, v the
    closest point so far, puts it in slot 0 of the simplex and steps to the
    closest point over the faces that contain it (see _closest_on_simplex).
    A pair leaves the batch when it terminates: with 0 when the hulls touch
    or intersect, with ||v||^2 when v . w certifies v to tolerance. A pair
    that leaves without that certificate (the step stalls, w repeats a
    simplex point, or the iteration cap is hit) gets its best support-plane
    bound max(0, v . w)^2 / ||v||^2 over the iterations, which never exceeds
    the true squared distance.
    """
    lo, live = np.empty(len(A)), np.arange(len(A))
    v = A[:, 0] - B[:, 0]
    S, n = np.zeros((len(A), 4, 3)), np.zeros(len(A), dtype=int)
    prev = np.full(len(A), np.inf)  # ||v||^2 one closest-point step back (the seed v is none)
    best = np.zeros(len(A))

    for it in range(_GJK_MAX_ITER):
        vv = np.einsum("pd,pd->p", v, v)
        rows = np.arange(live.size)
        # support of the Minkowski difference along -v
        w = (A[rows, np.argmax(np.einsum("pkd,pd->pk", A, -v), axis=1)]
             - B[rows, np.argmax(np.einsum("pkd,pd->pk", B, v), axis=1)])
        vw = np.einsum("pd,pd->p", v, w)
        inside = (vv <= _GJK_TOL**2) | (n == 4)  # the hulls touch or intersect
        best = np.maximum(best, np.maximum(vw, 0.0) ** 2 / np.where(inside, 1.0, vv))
        converged = vv - vw <= _GJK_TOL * vv
        repeated = np.any(np.all(S == w[:, None], axis=2) & (np.arange(4) < n[:, None]), axis=1)
        stalled = vv >= prev * (1.0 - 1e-14)
        done = inside | converged | repeated | stalled
        lo[live[done]] = np.where(inside, 0.0, np.where(converged, vv, best))[done]
        keep = ~done
        live, A, B, S, n, w, best = (x[keep] for x in (live, A, B, S, n, w, best))
        if not live.size:
            return lo
        prev = vv[keep] if it else prev[keep]
        S = np.concatenate([w[:, None], S[:, :3]], axis=1)
        v, S, n = _closest_on_simplex(S, n + 1)
    lo[live] = best
    return lo
