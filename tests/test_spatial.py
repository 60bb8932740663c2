"""Nearest-neighbor index and convex-polytope distance kernels."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boresight import relax, spatial
from boresight.relax import CONTAIN_SLACK, PAIR_CHUNK
from boresight.rotation import AngleBox, rotation_interval
from boresight.spatial import NnIndex, gjk_min_sq_dist, hull_min_sq_dist, max_vertex_sq_dist


def linear_scan_nn(points: np.ndarray, q: np.ndarray) -> tuple[int, float]:
    """Independent oracle: brute-force argmin (first index on ties)."""
    d2 = np.einsum("ij,ij->i", points - q, points - q)
    j = int(np.argmin(d2))
    return j, float(d2[j])


def cube(center, half=0.5):
    c = np.asarray(center, dtype=float)
    corners = np.array(
        [[sx, sy, sz] for sx in (-half, half) for sy in (-half, half) for sz in (-half, half)]
    )
    return c + corners


class TestNnIndex:
    def test_single_point(self):
        j, d2 = NnIndex([[1.0, 2.0, 3.0]]).query_many([0.0, 0.0, 0.0])
        assert j[0] == 0 and d2[0] == pytest.approx(14.0)

    def test_exact_hit_gives_zero(self):
        j, d2 = NnIndex([[1, 0, 0], [0, 2, 0]]).query_many([0, 2, 0])
        assert j[0] == 1 and d2[0] == 0.0

    def test_documented_example(self):
        j, d2 = NnIndex([[1, 0, 0], [0, 2, 0]]).query_many([0, 0, 0])
        assert j[0] == 0 and d2[0] == pytest.approx(1.0)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(1000, 3))
        qs = rng.normal(size=(100, 3))
        js, d2s = NnIndex(pts).query_many(qs)
        for k, q in enumerate(qs):
            oj, od2 = linear_scan_nn(pts, q)
            assert js[k] == oj and d2s[k] == pytest.approx(od2, abs=1e-12)

    def test_query_many_matches_single(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 3))
        qs = rng.normal(size=(50, 3))
        idx = NnIndex(pts)
        js, d2s = idx.query_many(qs)
        for k, q in enumerate(qs):
            j1, d21 = idx.query_many(q)
            _, od2 = linear_scan_nn(pts, q)
            assert j1[0] == js[k] and d21[0] == d2s[k]
            assert d2s[k] == pytest.approx(od2, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NnIndex(np.zeros((0, 3)))

    @pytest.mark.parametrize("n_points", [1, 2, 300])
    def test_query_ball_matches_linear_scan(self, n_points):
        """Flat (counts, indices) equal a scan's ascending in-ball indices, on
        radii from empty balls to balls that hold every point."""
        rng = np.random.default_rng(n_points)
        pts = rng.random((n_points, 3))
        qs = rng.random((60, 3))
        idx = NnIndex(pts)
        for scale in (0.0, 0.05, 0.3, 3.0):
            r = rng.random(len(qs)) * scale
            inside = [np.flatnonzero(np.einsum("ij,ij->i", pts - q, pts - q) <= rq * rq)
                      for q, rq in zip(qs, r)]
            counts, j = idx.query_ball(qs, r)
            assert counts.tolist() == [len(x) for x in inside]
            assert np.array_equal(j, np.concatenate(inside).astype(np.intp))

    def test_query_ball_counts_only_past_cap(self):
        pts = np.random.default_rng(5).random((100, 3))
        idx = NnIndex(pts)
        counts, j = idx.query_ball(pts, 0.2)
        assert j is not None and len(j) == counts.sum()
        capped, none = idx.query_ball(pts, 0.2, cap=counts.sum() - 1)
        assert none is None and np.array_equal(capped, counts)
        assert idx.query_ball(pts, 0.2, cap=counts.sum())[1] is not None
        assert idx.query_ball(pts, 0.0, cap=-1)[1] is None  # count-only, even with empty balls


class TestNnIndexLeafSize:
    """Around the KD-tree's leaf size (one leaf, one split) and on many leaves, every
    nearest squared distance is a brute-force scan's minimum and its index one of
    the scan's equidistant minimisers."""

    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_matches_brute_force_with_duplicates(self, extra):
        leaf = NnIndex(np.zeros((1, 3)))._tree.leafsize
        n = 5000 if extra is None else leaf + extra
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 3))
        pts[n // 2:n // 2 + n // 5] = pts[:n // 5]  # every 5th point is also another's twin
        qs = np.vstack([rng.normal(size=(100, 3)), pts[:30], pts[:30] + 1e-6])
        js, d2s = NnIndex(pts).query_many(qs)
        for q, j, d2 in zip(qs, js, d2s):
            scan = np.einsum("ij,ij->i", pts - q, pts - q)
            assert d2 == scan.min() and scan[j] == d2


class TestGjk:
    def test_identical_singletons(self):
        assert gjk_min_sq_dist([[1, 2, 3]], [[1, 2, 3]]) == 0.0

    def test_unit_cubes_face_gap(self):
        assert gjk_min_sq_dist(cube([0, 0, 0]), cube([3, 0, 0])) == pytest.approx(4.0, abs=1e-9)

    def test_overlapping_hulls_give_zero(self):
        assert gjk_min_sq_dist(cube([0, 0, 0]), cube([0.5, 0.5, 0.0])) == 0.0

    def test_point_to_segment(self):
        # closest point is interior to the segment, not a vertex
        d2 = gjk_min_sq_dist([[0, 1, 0]], [[-5, 0, 0], [5, 0, 0]])
        assert d2 == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_flat_sets(self):
        # coplanar quad vs point above its interior
        quad = [[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]]
        assert gjk_min_sq_dist([[0, 0, 2]], quad) == pytest.approx(4.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(5, 3))
            b = rng.normal(size=(6, 3)) + 2.0
            assert gjk_min_sq_dist(a, b) == pytest.approx(gjk_min_sq_dist(b, a), abs=1e-9)

    def test_matches_qp_oracle(self, qp_min_sq_dist):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.normal(size=(int(rng.integers(1, 9)), 3)) + rng.normal(scale=2, size=3)
            b = rng.normal(size=(int(rng.integers(1, 9)), 3)) + rng.normal(scale=2, size=3)
            # tolerance dominated by the QP solver's own accuracy
            assert gjk_min_sq_dist(a, b) == pytest.approx(qp_min_sq_dist(a, b), abs=1e-6)

    def test_sampled_hull_points_never_closer(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(5, 3))
            b = rng.normal(size=(5, 3)) + np.array([4.0, 0, 0])
            d2 = gjk_min_sq_dist(a, b)
            wa = rng.dirichlet(np.ones(5), size=200)
            wb = rng.dirichlet(np.ones(5), size=200)
            diffs = wa @ a - wb @ b
            assert np.einsum("ij,ij->i", diffs, diffs).min() >= d2 - 1e-9


class TestMaxVertexSqDist:
    def test_singletons(self):
        assert max_vertex_sq_dist([[0, 0, 0]], [[1, 2, 2]]) == pytest.approx(9.0)

    def test_unit_cubes_opposite_corners(self):
        assert max_vertex_sq_dist(cube([0, 0, 0]), cube([3, 0, 0])) == pytest.approx(18.0)

    def test_at_least_min(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(7, 3))
            assert max_vertex_sq_dist(a, b) >= gjk_min_sq_dist(a, b) - 1e-12

    def test_sampled_hull_points_never_farther(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(6, 3)) + 3.0
        hi = max_vertex_sq_dist(a, b)
        wa = rng.dirichlet(np.ones(5), size=500)
        wb = rng.dirichlet(np.ones(6), size=500)
        diffs = wa @ a - wb @ b
        assert np.einsum("ij,ij->i", diffs, diffs).max() <= hi + 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_property_sandwich(seed):
    """Any sampled hull-point pair distance lies between the two bounds."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(int(rng.integers(1, 7)), 3))
    b = rng.normal(size=(int(rng.integers(1, 7)), 3)) + rng.normal(scale=3, size=3)
    lo = gjk_min_sq_dist(a, b)
    hi = max_vertex_sq_dist(a, b)
    wa = rng.dirichlet(np.ones(a.shape[0]), size=100)
    wb = rng.dirichlet(np.ones(b.shape[0]), size=100)
    diffs = wa @ a - wb @ b
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    assert d2.min() >= lo - 1e-9
    assert d2.max() <= hi + 1e-9


def padded(sets):
    """Stack ragged vertex sets into (P, K, 3), padding each with its centroid."""
    k = max(len(s) for s in sets)
    out = np.empty((len(sets), k, 3))
    for p, s in enumerate(sets):
        out[p, : len(s)] = s
        out[p, len(s):] = s.mean(axis=0)
    return out


class TestLockstepBounds:
    def test_ragged_stack_matches_oracles(self, qp_min_sq_dist):
        """More pairs than one pair-set chunk, mixing random sets, singletons,
        coplanar sets and overlapping hulls, in one lockstep batch."""
        rng = np.random.default_rng(21)
        sets_a, sets_b = [], []
        for p in range(PAIR_CHUNK + 24):
            a = rng.normal(size=(int(rng.integers(1, 9)), 3))
            b = rng.normal(size=(int(rng.integers(1, 9)), 3)) + rng.normal(scale=3, size=3)
            kind = p % 4
            if kind == 1:
                a = a[:1]
            elif kind == 2:
                a[:, 2] = 0.0
                b = b[:3] + [0.0, 0.0, 2.0]
            elif kind == 3:
                b = a + rng.normal(scale=0.05, size=a.shape)
                b[0] = a.mean(axis=0)  # b holds a point of conv(a): the hulls overlap
            sets_a.append(a)
            sets_b.append(b)
        lo = hull_min_sq_dist(padded(sets_a), padded(sets_b))
        for p, (a, b) in enumerate(zip(sets_a, sets_b)):
            if p % 4 == 3:
                assert lo[p] == 0.0
            else:
                assert lo[p] == pytest.approx(qp_min_sq_dist(a, b), abs=1e-6)
            d = a[:, None] - b[None]
            assert max_vertex_sq_dist(a, b) == np.einsum("ijk,ijk->ij", d, d).max()
            assert lo[p] == pytest.approx(gjk_min_sq_dist(a, b), rel=1e-12, abs=1e-15)

    def test_padding_with_a_hull_point_changes_nothing(self):
        rng = np.random.default_rng(22)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3)) + 3.0
        pad_a = np.vstack([a, a.mean(axis=0), a[:3].mean(axis=0)])
        lo = hull_min_sq_dist(np.stack([a, a]), np.stack([b, b]))
        lo_p = hull_min_sq_dist(pad_a[None], b[None])
        assert lo_p[0] == pytest.approx(lo[0], rel=1e-12)
        assert max_vertex_sq_dist(pad_a, b) == max_vertex_sq_dist(a, b)


def all_faces_closest(S, n):
    """Reference closest-point step: every nonempty face of each simplex (all
    15 of a tetrahedron) is a candidate, its affine-hull point nearest the
    origin solved with np.linalg.lstsq and kept when its barycentric weights
    are nonnegative; the nearest kept candidate wins. Same contract as
    spatial._closest_on_simplex, in any slot order."""
    v, out, size = np.zeros((len(S), 3)), S.copy(), np.zeros(len(S), dtype=int)
    for p in range(len(S)):
        best = np.inf
        for r in range(1, n[p] + 1):
            for face in itertools.combinations(range(n[p]), r):
                Y = S[p, list(face)]
                E = (Y[1:] - Y[0]).T
                mu = np.linalg.lstsq(E, -Y[0], rcond=None)[0] if r > 1 else np.zeros(0)
                x = Y[0] + E @ mu
                if np.all(mu >= -1e-12) and mu.sum() <= 1.0 + 1e-12 and x @ x < best:
                    best = x @ x
                    v[p], size[p] = x, r
                    out[p, :r] = Y
    return v, out, size


def gjk_stacks(rng):
    """Vertex-set pairs of the degenerate kinds the GJK step must handle."""
    line = np.array([1.0, 2.0, -0.5])
    pairs = []
    for _ in range(6):
        a = rng.normal(size=(int(rng.integers(2, 7)), 3))
        # coincident: shared and repeated points
        pairs.append((np.vstack([a, a[:2]]), np.vstack([a[1:2], rng.normal(size=(3, 3)) + 2.0])))
        # collinear: both sets on one line, apart and interleaved
        t = rng.uniform(-1, 1, size=(2, 4))
        pairs.append((np.outer(t[0], line), np.outer(t[1] + 3.0, line) + [0.0, 0.0, 0.5]))
        pairs.append((np.outer(t[0], line), np.outer(t[1], line)))
        # coplanar: every point in z = 0, and a point above the plane
        flat = a.copy()
        flat[:, 2] = 0.0
        pairs.append((flat, flat[::-1] + [3.0, 0.0, 0.0]))
        pairs.append((flat, [[0.1, 0.2, 1.5]]))
        # touching: cubes sharing a face, an edge, a corner
        c = rng.normal(size=3)
        pairs.append((cube(c), cube(c + [1.0, 0.0, 0.0])))
        pairs.append((cube(c), cube(c + [1.0, 1.0, 0.0])))
        pairs.append((cube(c), cube(c + [1.0, 1.0, 1.0])))
        # overlapping and separated random sets
        b = rng.normal(size=(int(rng.integers(1, 8)), 3))
        pairs.append((a, b + rng.normal(scale=0.3, size=3)))
        pairs.append((a, b + rng.normal(scale=4.0, size=3)))
    return pairs


class TestNewestFaceStep:
    def test_matches_all_faces_reference(self, qp_min_sq_dist, monkeypatch):
        """Stepping over the newest point's faces gives the all-faces result,
        and never exceeds the QP minimum beyond the pair-bound slack."""
        pairs = gjk_stacks(np.random.default_rng(41))
        A = padded([np.asarray(a, dtype=float) for a, _ in pairs])
        B = padded([np.asarray(b, dtype=float) for _, b in pairs])
        lo = hull_min_sq_dist(A, B)
        monkeypatch.setattr(spatial, "_closest_on_simplex", all_faces_closest)
        lo_ref = hull_min_sq_dist(A, B)
        np.testing.assert_allclose(lo, lo_ref, rtol=5e-9, atol=1e-12)
        qp = np.array([qp_min_sq_dist(a, b) for a, b in pairs])
        assert np.all(lo <= qp + CONTAIN_SLACK)
        assert np.all(lo[qp <= 1e-12] == 0.0)

    def test_exit_without_certificate_is_a_lower_bound(self, qp_min_sq_dist, monkeypatch):
        """A pair cut off by the iteration cap returns its support-plane
        bound, not the squared norm of an uncertified closest point."""
        rng = np.random.default_rng(42)
        pairs = gjk_stacks(rng) + [(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)) + 3.0)
                                   for _ in range(20)]
        A = padded([np.asarray(a, dtype=float) for a, _ in pairs])
        B = padded([np.asarray(b, dtype=float) for _, b in pairs])
        converged = hull_min_sq_dist(A, B)
        monkeypatch.setattr(spatial, "_GJK_MAX_ITER", 1)
        capped = hull_min_sq_dist(A, B)
        qp = np.array([qp_min_sq_dist(a, b) for a, b in pairs])
        assert np.all(capped >= 0.0)
        assert np.all(capped <= qp + 1e-12)
        assert np.all(capped <= converged + 1e-12)
        assert np.any(capped < converged - 1e-3)  # the cap did cut some pairs short


class TestRepeatedVertices:
    """GJK reads a vertex list as its convex hull, which a repeated vertex
    does not change: the polytope pass hands it vertex lists that may hold
    one vertex several times, as often as plane triples meet there."""

    @staticmethod
    def stacks():
        """gjk_stacks' degenerate pairs, and a pair of enclosure polytopes of
        one narrow box (their vertices cluster within nanometres)."""
        pairs = gjk_stacks(np.random.default_rng(43))
        A = padded([np.asarray(a, dtype=float) for a, _ in pairs])
        B = padded([np.asarray(b, dtype=float) for _, b in pairs])
        L = np.random.default_rng(44).normal(scale=30.0, size=(2, 3))
        box = AngleBox.from_arrays(np.full(3, -1e-6), np.full(3, 1e-6))
        V = relax._polytopes(L, rotation_interval(box))[3]
        A2, B2 = V[:1], V[1:] + (L[0] - L[1] + 0.05)  # 9 cm apart
        return pairs + list(zip(A2, B2)), [A, A2], [B, B2]

    @pytest.mark.parametrize("copies", ["repeated", "appended"])
    def test_exact_copies_give_bitwise_equal_distances(self, copies):
        def with_copies(V):
            return np.repeat(V, 2, axis=1) if copies == "repeated" else np.concatenate(
                [V, V[:, ::-1], V[:, :2]], axis=1)

        _, As, Bs = self.stacks()
        for A, B in zip(As, Bs):
            assert np.array_equal(hull_min_sq_dist(with_copies(A), with_copies(B)),
                                  hull_min_sq_dist(A, B))

    def test_near_duplicates_stay_within_the_oracle(self, qp_min_sq_dist):
        """Every vertex gets a twin at most 1e-9 m away."""
        rng = np.random.default_rng(45)
        pairs, As, Bs = self.stacks()

        def with_twins(V):
            step = rng.normal(size=V.shape)
            step *= rng.uniform(0.0, 1e-9, V.shape[:2] + (1,)) / np.linalg.norm(step, axis=2,
                                                                                  keepdims=True)
            return np.concatenate([V, V + step], axis=1)

        lo = np.concatenate([hull_min_sq_dist(with_twins(A), with_twins(B))
                             for A, B in zip(As, Bs)])
        qp = np.array([qp_min_sq_dist(a, b) for a, b in pairs])
        assert np.abs(lo - qp).max() <= 1e-6
