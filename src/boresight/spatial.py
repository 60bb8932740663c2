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
    a = _as_vertex_set(a)
    b = _as_vertex_set(b)
    d = a[:, None, :] - b[None, :, :]
    return float(np.einsum("ijk,ijk->ij", d, d).max())


_SUBSETS = {
    m: [s for r in range(1, m + 1) for s in itertools.combinations(range(m), r)]
    for m in range(1, 5)
}


def _solve_affine_weights(G: list[list[float]], subset: tuple[int, ...]) -> list[float] | None:
    """Barycentric weights minimizing the quadratic form over an affine hull.

    Solves the stationarity system (2 G_sub lam + mu 1 = 0, sum lam = 1) by
    Gauss-Jordan elimination with partial pivoting; returns None when the
    subset is affinely degenerate.
    """
    k = len(subset)
    n = k + 1
    M = [[0.0] * (n + 1) for _ in range(n)]
    for r, a in enumerate(subset):
        row = M[r]
        Ga = G[a]
        for c, b in enumerate(subset):
            row[c] = 2.0 * Ga[b]
        row[k] = 1.0
    last = M[k]
    for c in range(k):
        last[c] = 1.0
    last[n] = 1.0
    for col in range(n):
        piv = col
        pmax = abs(M[col][col])
        for r in range(col + 1, n):
            v = abs(M[r][col])
            if v > pmax:
                piv, pmax = r, v
        if pmax < 1e-300:
            return None
        M[col], M[piv] = M[piv], M[col]
        prow = M[col]
        pv = prow[col]
        for r in range(n):
            if r != col:
                f = M[r][col] / pv
                if f != 0.0:
                    row = M[r]
                    for c2 in range(col, n + 1):
                        row[c2] -= f * prow[c2]
    return [M[r][n] / M[r][r] for r in range(k)]


def _closest_on_simplex(pts: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Closest point of conv(pts) to the origin and a minimal supporting subset.

    Enumerates the faces of the (at most 3-) simplex: for each vertex subset,
    solves the affine minimization and keeps nonnegative-coefficient
    candidates. Robust to degenerate (collinear/coplanar) simplices. All
    inner-product arithmetic runs on the Gram matrix in plain floats, which
    keeps the per-call cost low for the many tiny systems involved.
    """
    m = len(pts)
    G = [[float(pts[a] @ pts[b]) for b in range(m)] for a in range(m)]
    best: tuple[float, list[float], tuple[int, ...]] | None = None
    for subset in _SUBSETS[m]:
        if len(subset) == 1:
            a = subset[0]
            nn = G[a][a]
            if best is None or nn < best[0] - 1e-30:
                best = (nn, [1.0], subset)
            continue
        lam = _solve_affine_weights(G, subset)
        if lam is None or any(w < -1e-12 for w in lam):
            continue
        nn = 0.0
        for r, a in enumerate(subset):
            Ga = G[a]
            for c, b in enumerate(subset):
                nn += lam[r] * lam[c] * Ga[b]
        if best is None or nn < best[0] - 1e-30:
            best = (nn, lam, subset)
    assert best is not None
    _, lam, subset = best
    point = lam[0] * pts[subset[0]]
    for r in range(1, len(subset)):
        point = point + lam[r] * pts[subset[r]]
    return point, [pts[a] for a in subset]


def gjk_min_sq_dist(a, b, tol: float = 1e-9, max_iter: int = 200) -> float:
    """Exact (to tolerance) min squared distance between conv(a) and conv(b).

    Distance variant of the Gilbert-Johnson-Keerthi iteration over the
    Minkowski difference, with face enumeration as the distance sub-algorithm.
    Returns 0 when the hulls intersect.
    """
    a = _as_vertex_set(a)
    b = _as_vertex_set(b)
    v = a[0] - b[0]
    simplex: list[np.ndarray] = []
    prev = np.inf  # simplex updates are non-increasing once the simplex is seeded
    for it in range(max_iter):
        vv = float(v @ v)
        if vv <= tol * tol:
            return 0.0
        # support of the Minkowski difference along -v
        w = a[int(np.argmax(a @ (-v)))] - b[int(np.argmax(b @ v))]
        if vv - float(v @ w) <= tol * vv:
            break
        wt = (w[0], w[1], w[2])
        if any(wt == (s[0], s[1], s[2]) for s in simplex):
            break
        simplex.append(w)
        v, simplex = _closest_on_simplex(simplex)
        nn = float(v @ v)
        if len(simplex) == 4 or nn <= tol * tol:
            return 0.0
        if it > 0 and nn >= prev * (1.0 - 1e-14):
            break
        prev = nn
    return float(v @ v)
