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
        self._tree = cKDTree(pts)

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._points

    def query_many(self, Q) -> tuple[np.ndarray, np.ndarray]:
        """Batch nearest neighbors: (indices, squared distances). No tie-break guarantee."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        dist, j = self._tree.query(Q)
        diffs = self._points[j] - Q
        return j, np.einsum("ij,ij->i", diffs, diffs)


def max_vertex_sq_dist(a, b) -> float:
    """Max squared distance between conv(a) and conv(b); attained at vertices."""
    return float(hull_sq_dist_bounds(_as_vertex_set(a)[None], _as_vertex_set(b)[None])[1][0])


def gjk_min_sq_dist(a, b) -> float:
    """Min squared distance between conv(a) and conv(b); 0 when the hulls intersect."""
    return float(hull_sq_dist_bounds(_as_vertex_set(a)[None], _as_vertex_set(b)[None])[0][0])


# The faces of a simplex of up to 4 points, one index array per face size,
# each in itertools.combinations order; _FACE_IDX (zero-padded) and
# _FACE_SIZE list all 15 in that order.
_FACES = [np.array(list(itertools.combinations(range(4), r))) for r in range(1, 5)]
_FACE_IDX = np.array([list(f) + [0] * (4 - len(f)) for fs in _FACES for f in fs])
_FACE_SIZE = np.array([len(f) for fs in _FACES for f in fs])
_GJK_TOL, _GJK_MAX_ITER = 1e-9, 200


def _closest_on_simplex(S: np.ndarray, n: np.ndarray):
    """Closest point to the origin of conv(S[p, :n[p]]) for a stack of simplices.

    Every face is a candidate: the point of its affine hull nearest the
    origin counts when its barycentric weights are nonnegative, and the
    nearest candidate wins, the first in face order on ties. The weights come
    from the normal equations of the face's edge vectors in closed form (the
    tetrahedron solves for the origin directly); a degenerate face gives an
    infinite or undefined weight and drops out, since one of its own faces
    holds its closest point. Returns the points (P, 3), the supporting faces'
    points moved to the front of the slots (P, 4, 3) and their sizes (P,).
    """
    xs, nns = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for face in _FACES:
            Y = S[:, face]
            y0 = Y[:, :, 0]
            E = Y[:, :, 1:] - y0[:, :, None]
            k = face.shape[1] - 1
            if k == 3:
                # rows e2 x e3, e3 x e1, e1 x e2: Cramer's rule for E^T mu = -y0
                a, b = E[:, :, [1, 2, 0]], E[:, :, [2, 0, 1]]
                C = a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]
                mu = -np.einsum("pfid,pfd->pfi", C, y0) / np.einsum(
                    "pfd,pfd->pf", E[:, :, 0], C[:, :, 0])[..., None]
            else:
                N = np.einsum("pfid,pfjd->pfij", E, E)
                r = -np.einsum("pfid,pfd->pfi", E, y0)
                if k < 2:  # a vertex (no weights to solve for) or an edge
                    mu = r / np.diagonal(N, axis1=2, axis2=3)
                else:
                    det = N[..., 0, 0] * N[..., 1, 1] - N[..., 0, 1] * N[..., 1, 0]
                    mu = np.stack([r[..., 0] * N[..., 1, 1] - N[..., 0, 1] * r[..., 1],
                                   N[..., 0, 0] * r[..., 1] - r[..., 0] * N[..., 1, 0]], axis=2)
                    mu /= det[..., None]
            x = y0 + np.einsum("pfi,pfid->pfd", mu, E)
            nn = np.einsum("pfd,pfd->pf", x, x)
            ok = (np.all(mu >= -1e-12, axis=2) & (1.0 - mu.sum(axis=2) >= -1e-12)
                  & (face.max(axis=1) < n[:, None]))
            xs.append(x)
            nns.append(np.where(ok, nn, np.inf))
    best = np.argmin(np.concatenate(nns, axis=1), axis=1)
    rows = np.arange(S.shape[0])
    v = np.concatenate(xs, axis=1)[rows, best]
    return v, S[rows[:, None], _FACE_IDX[best]], _FACE_SIZE[best]


def hull_sq_dist_bounds(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min and max squared distance between conv(A[p]) and conv(B[p]) for each p.

    A (P, Ka, 3) and B (P, Kb, 3) are stacks of vertex sets; a ragged set is
    padded with a point of its own hull (such as its centroid), which changes
    neither distance. The max is attained at a vertex pair. The min is the
    distance variant of the Gilbert-Johnson-Keerthi iteration over the
    Minkowski difference, run on all P pairs in lockstep: every iteration
    takes one support point per pair and one closest-point step over all
    faces of each pair's simplex, and a pair leaves the batch when it
    terminates. The min is exact to tolerance, and 0 when the hulls intersect.
    """
    hi = np.zeros(len(A))
    for a in A.transpose(1, 0, 2):  # one vertex of every A[p] at a time: O(P * Kb) memory
        d = a[:, None] - B
        hi = np.maximum(hi, np.einsum("pld,pld->pl", d, d).max(axis=1))
    lo, live = np.empty(len(A)), np.arange(len(A))
    v = A[:, 0] - B[:, 0]
    S, n = np.zeros((len(A), 4, 3)), np.zeros(len(A), dtype=int)
    prev = np.full(len(A), np.inf)  # simplex updates are non-increasing once seeded

    def retire(done, value):
        nonlocal live, A, B, v, S, n, prev
        lo[live[done]] = value[done]
        keep = ~done
        live, A, B, v, S, n, prev = (x[keep] for x in (live, A, B, v, S, n, prev))
        return keep

    for it in range(_GJK_MAX_ITER):
        if not live.size:
            return lo, hi
        vv = np.einsum("pd,pd->p", v, v)
        rows = np.arange(live.size)
        # support of the Minkowski difference along -v
        w = (A[rows, np.argmax(np.einsum("pkd,pd->pk", A, -v), axis=1)]
             - B[rows, np.argmax(np.einsum("pkd,pd->pk", B, v), axis=1)])
        touching = vv <= _GJK_TOL**2
        repeated = np.any(np.all(S == w[:, None], axis=2) & (np.arange(4) < n[:, None]), axis=1)
        keep = retire(touching | (vv - np.einsum("pd,pd->p", v, w) <= _GJK_TOL * vv) | repeated,
                      np.where(touching, 0.0, vv))
        w = w[keep]
        S[np.arange(live.size), n] = w
        v, S, n = _closest_on_simplex(S, n + 1)
        nn = np.einsum("pd,pd->p", v, v)
        inside = (n == 4) | (nn <= _GJK_TOL**2)
        stalled = (it > 0) & (nn >= prev * (1.0 - 1e-14))
        prev = nn
        retire(inside | stalled, np.where(inside, 0.0, nn))
    lo[live] = np.einsum("pd,pd->p", v, v)
    return lo, hi
