"""Reachable-set enclosures and certified per-pair distance bounds."""

import itertools
import math

import numpy as np
import pytest

from boresight import relax
from boresight.cloud import Cloud, georeference, synth_generate
from boresight.gopt import nsbb_solve
from boresight.reduce import PairSet, reduce_pairs
from boresight.relax import (
    MODEL_CHUNK,
    PAIR_CHUNK,
    POINT_CHUNK,
    CONTAIN_SLACK,
    build_polytope,
    compute_pair_set,
)
from boresight.rotation import (
    AngleBox,
    EulerAngles,
    rotation_from_angles,
    rotation_interval,
    rotation_matrices,
)
from boresight.search import evaluate_ub

PLANTED = EulerAngles.from_degrees(1.0, -0.5, 0.25)


def sample_rotated(l: np.ndarray, box: AngleBox, n: int, seed: int = 0) -> np.ndarray:
    """Oracle: dense sampling of R(angles) @ l over the box, shape (n, 3)."""
    rng = np.random.default_rng(seed)
    samples = box.sample(rng, n)
    # include the corners: extreme rotations often attain the enclosure faces
    corners = np.array(np.meshgrid(*zip(box.lows(), box.highs()))).T.reshape(-1, 3)
    samples = np.vstack([samples, corners])
    Rs = rotation_matrices(samples[:, 0], samples[:, 1], samples[:, 2])
    return Rs @ np.asarray(l, dtype=float)


def degenerate_box(a: EulerAngles) -> AngleBox:
    return AngleBox(a.alpha, a.alpha, a.beta, a.beta, a.gamma, a.gamma)


def reach(l, box: AngleBox) -> tuple[np.ndarray, np.ndarray]:
    """The reach box of one point: _reach_bounds on a one-row L."""
    lo, hi = relax._reach_bounds(rotation_interval(box), np.asarray(l, dtype=float)[None])
    return lo[0], hi[0]


class TestReachBox:
    def test_degenerate_box_at_zero(self):
        lo, hi = reach([1.0, -2.0, 0.5], degenerate_box(EulerAngles(0, 0, 0)))
        assert np.allclose(lo, [1, -2, 0.5]) and np.allclose(hi, [1, -2, 0.5])

    def test_sampling_soundness(self):
        box = AngleBox.symmetric_deg(2.0)
        for l in ([1.0, 0.0, 0.0], [10.0, -20.0, 5.0], [0.0, 0.0, -30.0]):
            lo, hi = reach(l, box)
            pts = sample_rotated(l, box, 10_000)
            assert np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12))

    def test_inclusion_monotone_when_halved(self):
        box = AngleBox.symmetric_deg(2.0)
        half = AngleBox.symmetric_deg(1.0)
        lo_full, hi_full = reach([3.0, -1.0, 2.0], box)
        lo_half, hi_half = reach([3.0, -1.0, 2.0], half)
        assert np.all(lo_half >= lo_full - 1e-15)
        assert np.all(hi_half <= hi_full + 1e-15)
        assert np.all(hi_half - lo_half <= hi_full - lo_full + 1e-15)


class TestBuildPolytope:
    def test_degenerate_angle_box_single_vertex(self):
        """Every vertex, and so the hull, lies at the one reachable point R @ l."""
        a = EulerAngles(0.01, -0.02, 0.005)
        l = np.array([5.0, 1.0, -2.0])
        poly = build_polytope(l, degenerate_box(a))
        assert np.abs(poly.vertices - rotation_from_angles(a) @ l).max() <= 1e-9

    def test_zero_vector_gives_origin(self):
        """A zero l keeps its reach box alone: six faces through the origin,
        whose eight corners all sit there."""
        poly = build_polytope(np.zeros(3), AngleBox.symmetric_deg(2.0))
        assert poly.normals.shape == (6, 3) and poly.vertices.shape == (8, 3)
        assert np.all(poly.vertices == 0.0)
        assert poly.contains(np.zeros(3), tol=0.0).all()
        assert not poly.contains(np.eye(3) * 2 * CONTAIN_SLACK).any()

    def test_vertices_satisfy_halfspaces(self):
        poly = build_polytope([10.0, -20.0, 5.0], AngleBox.symmetric_deg(2.0))
        assert poly.contains(poly.vertices, tol=1e-8).all()

    def test_contains_sampled_reachable_points(self):
        box = AngleBox.symmetric_deg(2.0)
        for l in ([1.0, 0.0, 0.0], [10.0, -20.0, 5.0], [-3.0, 7.0, 25.0]):
            poly = build_polytope(l, box)
            pts = sample_rotated(l, box, 10_000)
            assert poly.contains(pts, tol=CONTAIN_SLACK).all()

    def test_vertex_norms_bracket_point_norm(self):
        # tangent cuts bound vertices from above near ||l||; the secant keeps
        # them from collapsing far inside the sphere
        l = np.array([10.0, -20.0, 5.0])
        lnorm = float(np.linalg.norm(l))
        poly = build_polytope(l, AngleBox.symmetric_deg(2.0))
        norms = np.linalg.norm(poly.vertices, axis=1)
        assert norms.max() <= lnorm * 1.01
        assert norms.min() >= lnorm * 0.99


def scene_pair_samples(hat, bar, i, j, box, n=1000, seed=0):
    """Oracle: exact squared pair distance at n sampled angles in the box."""
    rng = np.random.default_rng(seed)
    angles = box.sample(rng, n)
    Rs = rotation_matrices(angles[:, 0], angles[:, 1], angles[:, 2])
    p_hat = hat.s[i] + np.einsum("ij,njk,k->ni", hat.ins_rotation[i], Rs, hat.l[i])
    p_bar = bar.s[j] + np.einsum("ij,njk,k->ni", bar.ins_rotation[j], Rs, bar.l[j])
    d = p_hat - p_bar
    return np.einsum("ni,ni->n", d, d)


def grid_sq_dists(hat, bar, i, j, box, n):
    """Oracle: georeferenced squared distances of pairs (i, j) at every point
    of an n^3 grid of the box, shape (n^3, pairs)."""
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(box.lows(), box.highs())]
    grid = np.array(list(itertools.product(*axes)))
    d = georeference(hat, grid)[:, i] - georeference(bar, grid)[:, j]
    return np.einsum("gpc,gpc->gp", d, d)


def assert_brackets_the_grid(ps, hat, bar, box, n=7):
    d2 = grid_sq_dists(hat, bar, ps.i, ps.j, box, n)
    assert np.all(ps.c_lo <= d2.min(axis=0))
    assert np.all(ps.c_hi >= d2.max(axis=0))


def recording(monkeypatch, name, arg):
    """Replace relax.<name> by a wrapper that records the length of its
    positional argument arg (the pairs of the call) on every call."""
    sizes, kernel = [], getattr(relax, name)

    def wrapper(*args):
        sizes.append(len(args[arg]))
        return kernel(*args)

    monkeypatch.setattr(relax, name, wrapper)
    return sizes


def pair_set_for(hat, bar, box, keys):
    """compute_pair_set over the given distinct (i, j) pairs only."""
    n = len(keys)
    pairs = PairSet(n_hat=len(hat), i=[k[0] for k in keys], j=[k[1] for k in keys],
                    c_lo=np.zeros(n), c_hi=np.full(n, np.inf))
    return compute_pair_set(hat, bar, box, pairs)


class TestPairBounds:
    def test_degenerate_box_is_exact(self, tiny_scene):
        hat, bar, _ = tiny_scene
        theta = EulerAngles.from_degrees(0.5, -0.25, 0.1)
        box = degenerate_box(theta)
        exact = scene_pair_samples(hat, bar, 0, 3, box, n=1)[0]
        ps = pair_set_for(hat, bar, box, [(0, 3)])
        assert ps.c_lo[0] <= exact + 1e-6 and exact <= ps.c_hi[0] + 1e-6
        assert ps.c_hi[0] - ps.c_lo[0] <= 1e-6

    def test_sampling_soundness_random_pairs(self, tiny_scene):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(2.0)
        rng = np.random.default_rng(4)
        keys = list(dict.fromkeys(
            (int(rng.integers(len(hat))), int(rng.integers(len(bar)))) for _ in range(30)
        ))
        ps = pair_set_for(hat, bar, box, keys)
        for k, (i, j) in enumerate(keys):
            d2 = scene_pair_samples(hat, bar, i, j, box, n=1000, seed=i * 100 + j)
            assert d2.min() >= ps.c_lo[k] - 1e-6
            assert d2.max() <= ps.c_hi[k] + 1e-6

    def test_shrinking_box_converges(self, tiny_scene):
        hat, bar, _ = tiny_scene
        theta = PLANTED
        gaps = []
        for half_deg in (2.0, 0.5, 0.1, 0.01):
            h = math.radians(half_deg)
            box = AngleBox(
                theta.alpha - h, theta.alpha + h,
                theta.beta - h, theta.beta + h,
                theta.gamma - h, theta.gamma + h,
            )
            ps = pair_set_for(hat, bar, box, [(1, 5)])
            gaps.append(ps.c_hi[0] - ps.c_lo[0])
        assert gaps[-1] <= 0.01 * gaps[0] + 1e-5
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))


class TestComputePairSet:
    def test_matches_exact_pair_bounds(self, tiny_scene):
        # pair-model bounds, with GJK's polytope distance raising the refined
        # pairs' c_lo: never tighter than the exact distances on a grid
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(2.0)
        ps = compute_pair_set(hat, bar, box, PairSet.dense(len(hat), len(bar)))
        assert_brackets_the_grid(ps, hat, bar, box)

    def test_monotone_for_nested_boxes(self, tiny_scene):
        hat, bar, _ = tiny_scene
        parent_box = AngleBox.symmetric_deg(2.0)
        child_box = AngleBox.symmetric_deg(1.0)
        parent = compute_pair_set(hat, bar, parent_box)
        child = compute_pair_set(hat, bar, child_box, pairs=parent)
        assert np.all(child.c_lo >= parent.c_lo - 1e-15)
        assert np.all(child.c_hi <= parent.c_hi + 1e-15)

    def test_sampling_soundness_full_set(self, tiny_scene):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(2.0)
        ps = compute_pair_set(hat, bar, box)
        rng = np.random.default_rng(9)
        angles = box.sample(rng, 50)
        Rs = rotation_matrices(angles[:, 0], angles[:, 1], angles[:, 2])
        lo = ps.c_lo.reshape(len(hat), len(bar))
        hi = ps.c_hi.reshape(len(hat), len(bar))
        for R in Rs:
            p_hat = hat.s + np.einsum("nij,jk,nk->ni", hat.ins_rotation, R, hat.l)
            p_bar = bar.s + np.einsum("nij,jk,nk->ni", bar.ins_rotation, R, bar.l)
            d = p_hat[:, None, :] - p_bar[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", d, d)
            assert np.all(d2 >= lo - 1e-6)
            assert np.all(d2 <= hi + 1e-6)

    @pytest.mark.parametrize("root", [True, False], ids=["model_root", "polytope"])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_degenerate_boxes_bracket_the_georeferenced_distance(self, seed, root):
        """On a single angle, every pair's bounds hold its georeferenced squared
        distance, though the bounds' positions round differently."""
        hat, bar, _ = synth_generate(10, 20, PLANTED, 0.02, seed=seed)
        pairs = None if root else PairSet.dense(len(hat), len(bar))
        for angles in np.random.default_rng(seed).uniform(-0.035, 0.035, size=(5, 3)):
            ps = compute_pair_set(hat, bar, degenerate_box(EulerAngles(*angles)), pairs)
            d = georeference(hat, angles[None])[0, ps.i] - georeference(bar, angles[None])[0, ps.j]
            d2 = np.einsum("pc,pc->p", d, d)
            assert np.all((ps.c_lo <= d2) & (d2 <= ps.c_hi))


class TestPairModelBounds:
    """Grid oracle for the pair model's lower bounds, on every (i, j) of the
    noisy scene: no c_lo exceeds the least georeferenced squared distance of
    its pair over a 7^3 grid of the box, also at a southern UTM northing."""

    OFF_CENTRE = PLANTED.as_array() + np.radians([0.05, -0.03, 0.04])
    BOXES = {
        "off_centre": AngleBox.from_arrays(OFF_CENTRE - math.radians(0.02),
                                           OFF_CENTRE + math.radians(0.02)),
        "wide": AngleBox.symmetric_deg(2.0),
        "narrow": AngleBox.from_arrays(PLANTED.as_array() - math.radians(0.005),
                                       PLANTED.as_array() + math.radians(0.005)),
        "degenerate": degenerate_box(EulerAngles(*OFF_CENTRE)),
    }

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (5e5, 9.9e6, 0.0)],
                             ids=["plain", "utm_south"])
    @pytest.mark.parametrize("name", list(BOXES))
    def test_never_exceeds_grid_minimum(self, noisy_scene, offset, name):
        hat, bar = (Cloud(c.l, c.ins_rotation, c.s + np.asarray(offset)) for c in noisy_scene)
        box = self.BOXES[name]
        i = np.repeat(np.arange(len(hat)), len(bar))
        j = np.tile(np.arange(len(bar)), len(hat))
        c_lo = relax._model_c_lo(*relax._pair_model(hat, bar, i, j, box), box)
        assert c_lo.max() > 0.0
        assert np.all(c_lo <= grid_sq_dists(hat, bar, i, j, box, 7).min(axis=0))


class TestRootModelBounds:
    """Grid oracle for compute_pair_set on every (i, j) of a noisy 10x20 and a
    noisy 30x60 scene, also at a southern UTM northing: c_lo is at most and
    c_hi at least the georeferenced squared distance at every point of a grid
    of the box. The root's bounds come from the pair model alone; a child
    box's start from them and GJK raises c_lo."""

    CENTRE = PLANTED.as_array()
    BOXES = {
        "wide": AngleBox.symmetric_deg(2.0),
        "off_centre": TestPairModelBounds.BOXES["off_centre"],
        "tiny": AngleBox.from_arrays(CENTRE - math.radians(0.001), CENTRE + math.radians(0.001)),
        "degenerate": TestPairModelBounds.BOXES["degenerate"],
    }
    CHILD_BOXES = {name: TestPairModelBounds.BOXES[name]
                   for name in ("off_centre", "narrow", "degenerate")}

    @pytest.fixture(scope="class", params=[(10, 20, 3), (30, 60, 4)], ids=["10x20", "30x60"])
    def scene(self, request):
        hat, bar, _ = synth_generate(*request.param[:2], PLANTED, 0.02, seed=request.param[2])
        return hat, bar

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (5e5, 9.9e6, 0.0)],
                             ids=["plain", "utm_south"])
    @pytest.mark.parametrize("name", list(BOXES))
    def test_brackets_the_grid(self, scene, offset, name):
        hat, bar = (Cloud(c.l, c.ins_rotation, c.s + np.asarray(offset)) for c in scene)
        box = self.BOXES[name]
        ps = compute_pair_set(hat, bar, box)
        assert ps.size == len(hat) * len(bar)
        assert_brackets_the_grid(ps, hat, bar, box, 9)

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (5e5, 9.9e6, 0.0)],
                             ids=["plain", "utm_south"])
    @pytest.mark.parametrize("name", list(CHILD_BOXES))
    def test_child_brackets_the_grid(self, scene, offset, name, monkeypatch):
        """A child box inherits the ±2° root set, reduced at the objective of
        the child's midpoint: that box cannot be pruned, so it reaches GJK."""
        hat, bar = (Cloud(c.l, c.ins_rotation, c.s + np.asarray(offset)) for c in scene)
        box = self.CHILD_BOXES[name]
        f_upper = evaluate_ub(hat, bar, box.midpoint()).objective
        parent = reduce_pairs(compute_pair_set(hat, bar, AngleBox.symmetric_deg(2.0)), f_upper)
        refined = recording(monkeypatch, "hull_min_sq_dist", 0)
        ps = compute_pair_set(hat, bar, box, parent.pairs, f_upper)
        assert sum(refined) > 0
        assert_brackets_the_grid(ps, hat, bar, box)


class TestBatchedPolytopes:
    def test_mixed_batch_properties(self):
        """One batch, more rows than one point chunk, holding l = 0 and points
        whose enclosures have different plane counts; every row passes the
        single-polytope checks."""
        box = AngleBox.symmetric_deg(2.0)
        rng = np.random.default_rng(31)
        L = np.vstack([np.zeros(3), rng.normal(scale=20.0, size=(40, 3)), [[0.0, 0.0, -30.0]]])
        assert len(L) > POINT_CHUNK
        A, b, m, V, nv, center = relax._polytopes(L, rotation_interval(box))
        assert m[0] == 6 and nv[0] == 8 and np.all(V[0] == 0.0)
        assert len(set(m[1:].tolist())) > 1
        for k in range(len(L)):
            verts = V[k, : nv[k]]
            assert np.all(verts @ A[k, : m[k]].T <= b[k, : m[k]] + 1e-8)
            assert np.all(V[k, nv[k]:] == center[k])  # padding sits at the centre
            single = build_polytope(L[k], box)
            assert np.array_equal(single.vertices, verts)
            assert np.array_equal(single.normals, A[k, : m[k]])
            pts = sample_rotated(L[k], box, 2000, seed=k)
            assert single.contains(pts, tol=CONTAIN_SLACK).all()

    def test_degenerate_box_batch_is_exact(self):
        """Every vertex, the padding and the centre of each row lie at R @ l."""
        a = EulerAngles(0.01, -0.02, 0.005)
        L = np.array([[5.0, 1.0, -2.0], [0.0, 0.0, 0.0], [-40.0, 3.0, 12.0]])
        _, _, _, V, nv, center = relax._polytopes(L, rotation_interval(degenerate_box(a)))
        exact = L @ rotation_from_angles(a).T
        assert np.all(nv >= 1)
        assert np.abs(V - exact[:, None]).max() <= 1e-9
        assert np.abs(center - exact).max() <= 1e-9

    def test_vertex_pass_never_gets_an_empty_batch(self, small_scene, monkeypatch):
        """Only systems that have rows reach _vertices: the box-only fallback
        runs just when some point's cuts left no vertex."""
        hat, bar, _ = small_scene
        batches = []
        kernel = relax._vertices

        def recording(A, b):
            batches.append(len(A))
            return kernel(A, b)

        monkeypatch.setattr(relax, "_vertices", recording)
        for half in (2.0, 0.1, 0.0):
            box = AngleBox.from_arrays(PLANTED.as_array() - math.radians(half),
                                       PLANTED.as_array() + math.radians(half))
            compute_pair_set(hat, bar, box, PairSet.dense(len(hat), len(bar)))
        assert batches and min(batches) > 0

    def test_points_left_without_vertices_fall_back_to_the_box(self, monkeypatch):
        box = AngleBox.symmetric_deg(2.0)
        L = np.array([[5.0, 1.0, -20.0], [-30.0, 3.0, 12.0]])
        kernel = relax._vertices

        def over_tight(A, b):
            row, pts = kernel(A, b)
            keep = A.shape[1] == 6  # only the box-only systems keep their vertices
            return row[:len(row) * keep], pts[:len(pts) * keep]

        monkeypatch.setattr(relax, "_vertices", over_tight)
        A, b, m, V, nv, _ = relax._polytopes(L, rotation_interval(box))
        lo, hi = relax._reach_bounds(rotation_interval(box), L)
        assert np.all(m == 6) and np.all(nv == 8)
        for k in range(len(L)):
            corners = np.where(relax._CORNERS, hi[k], lo[k])
            d = np.linalg.norm(V[k][:, None] - corners[None], axis=2)
            assert d.min(axis=0).max() <= 1e-9 and d.min(axis=1).max() <= 1e-9


def lu_vertices(A, b):
    """Oracle: every plane triple with |det| > 1e-10 solved by LU
    (np.linalg.det, np.linalg.solve), the same feasibility test, then
    lexicographic order, row by row."""
    combos = relax._TRIPLES[A.shape[1]]
    A3, b3 = A[:, combos], b[:, combos]
    ok = np.abs(np.linalg.det(A3)) > 1e-10
    X = np.full(b3.shape, np.nan)
    X[ok] = np.linalg.solve(A3[ok], b3[ok][..., None])[..., 0]
    ok &= np.all(X @ A.transpose(0, 2, 1) <= b[:, None, :] + relax._FEAS_TOL, axis=2)
    rows = []
    for x, k in zip(X, ok):
        pts = x[k][np.lexsort((x[k][:, 2], x[k][:, 1], x[k][:, 0]))]
        rows.append(pts)
    return rows


def cube_planes(extra_normals, extra_offsets):
    """The cube |x|, |y|, |z| <= 1 in _halfspaces order, plus extra planes."""
    A = np.vstack([relax._BOX_NORMALS, extra_normals])
    return A, np.concatenate([np.ones(6), extra_offsets])


class TestClosedFormVertices:
    def assert_matches_lu(self, A, b):
        row, pts = relax._vertices(A, b)
        expected = lu_vertices(A, b)
        assert np.array_equal(np.bincount(row, minlength=len(A)), [len(e) for e in expected])
        for r, e in enumerate(expected):
            got = pts[row == r]
            if len(e):
                d = np.sqrt(np.sum((got[:, None] - e[None]) ** 2, axis=2))
                assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= 1e-8

    def test_determinant_threshold(self):
        """The cube with its top tilted by slope s about the edge x = 0: the
        new vertices (0, +-1, 1) come only from triples with |det| = s."""
        systems = [cube_planes([[s, 0.0, 1.0]], [1.0])
                   for s in (1.01e-10, 0.99e-10, 2e-10, 5e-11, -1.01e-10, 1e-3)]
        A, b = (np.stack(x) for x in zip(*systems))
        row, pts = relax._vertices(A, b)
        ridge = np.all(np.isclose(pts, [0.0, 1.0, 1.0], atol=1e-12), axis=1)
        assert np.array_equal(np.unique(row[ridge]), [0, 2, 4, 5])
        self.assert_matches_lu(A, b)

    def test_parallel_and_coincident_planes(self):
        x = np.array([1.0, 0.0, 0.0])
        systems = [cube_planes([x, x], [1.0, 1.0]), cube_planes([x, -x], [0.5, 0.5]),
                   cube_planes([x, x], [0.25, 2.0])]
        self.assert_matches_lu(*(np.stack(v) for v in zip(*systems)))

    def test_four_or_more_planes_per_vertex(self):
        """An octahedron (four planes at each vertex) and a square pyramid
        (four distinct planes at the apex, each given twice), cut by the cube:
        a vertex comes once per triple through it, at one point within 1e-9."""
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        octa = cube_planes(signs / np.sqrt(3.0), np.full(8, 1.0 / np.sqrt(3.0)))
        sides = np.array([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]) / np.sqrt(2.0)
        pyramid = cube_planes(np.vstack([sides, sides]), np.full(8, 0.5 / np.sqrt(2.0)))
        A, b = (np.stack(v) for v in zip(octa, pyramid))
        row, pts = relax._vertices(A, b)
        near = np.linalg.norm(pts[:, None] - pts[None], axis=2) <= 1e-9
        first = ~np.any(np.tril(near & (row[:, None] == row[None]), k=-1), axis=1)
        assert np.array_equal(np.bincount(row[first]), [6, 9])
        assert np.all(np.bincount(row) > [6, 9])
        self.assert_matches_lu(A, b)

    @pytest.mark.parametrize("half_deg", [2.0, 0.1, 0.01])
    def test_enclosure_planes(self, half_deg):
        """The planes of real enclosures, down to narrow boxes where sphere
        tangents are nearly parallel (narrower still, the LU oracle's own
        rounding exceeds the 1e-8 m tolerance)."""
        rng = np.random.default_rng(int(half_deg * 1000))
        L = rng.normal(scale=30.0, size=(96, 3))
        box = AngleBox.from_arrays(PLANTED.as_array() - math.radians(half_deg),
                                   PLANTED.as_array() + math.radians(half_deg))
        lo, hi = relax._reach_bounds(rotation_interval(box), L)
        A, b, m = relax._halfspaces(L, lo, hi)
        for mm in np.unique(m):
            self.assert_matches_lu(A[m == mm, :mm], b[m == mm, :mm])


class TestChunkedPairSet:
    def test_refinement_over_several_chunks_matches_oracle(self, small_scene, monkeypatch):
        hat, bar, _ = small_scene
        box = AngleBox.symmetric_deg(2.0)
        batches = recording(monkeypatch, "hull_min_sq_dist", 0)
        ps = compute_pair_set(hat, bar, box, PairSet.dense(len(hat), len(bar)))
        chunked = len(batches)
        assert sum(batches) > PAIR_CHUNK and chunked >= 2
        # chunking changes no bound: one chunk for all points and pairs agrees
        monkeypatch.setattr(relax, "POINT_CHUNK", 10**6)
        monkeypatch.setattr(relax, "PAIR_CHUNK", 10**6)
        whole = compute_pair_set(hat, bar, box, PairSet.dense(len(hat), len(bar)))
        assert len(batches) == chunked + 1
        np.testing.assert_allclose(ps.c_lo, whole.c_lo, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(ps.c_hi, whole.c_hi, rtol=1e-12, atol=1e-15)
        assert_brackets_the_grid(ps, hat, bar, box)

    def test_child_model_pass_is_chunked(self, small_scene, monkeypatch):
        """A child box that inherits more than MODEL_CHUNK pairs forms their
        model in chunks of at most MODEL_CHUNK, with the bounds of one chunk."""
        hat, bar, _ = small_scene
        parent = compute_pair_set(hat, bar, AngleBox.symmetric_deg(2.0))
        box = AngleBox.from_arrays(np.zeros(3), np.full(3, math.radians(2.0)))  # an octant
        assert parent.size > MODEL_CHUNK
        sizes = recording(monkeypatch, "_pair_model", 2)
        ps = compute_pair_set(hat, bar, box, parent)
        assert max(sizes) <= MODEL_CHUNK and len(sizes) >= 2 and sum(sizes) == parent.size
        monkeypatch.setattr(relax, "MODEL_CHUNK", 10**6)
        whole = compute_pair_set(hat, bar, box, parent)
        assert sizes[-1] == parent.size
        assert np.array_equal(ps.c_lo, whole.c_lo) and np.array_equal(ps.c_hi, whole.c_hi)


class TestUtmOffsetInvariance:
    """Moving both clouds by a UTM-scale offset moves nothing: bounds agree
    within CONTAIN_SLACK (the widening every polytope bound carries), the
    solve's bounds within relative 1e-6 and its incumbent exactly."""

    OFFSET = np.array([5e5, 5e6, 0.0])

    def shifted(self, cloud):
        return Cloud(cloud.l, cloud.ins_rotation, cloud.s + self.OFFSET)

    def test_pair_bounds(self, tiny_scene):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(2.0)
        a = compute_pair_set(hat, bar, box)
        b = compute_pair_set(self.shifted(hat), self.shifted(bar), box)
        assert np.abs(a.c_lo - b.c_lo).max() <= CONTAIN_SLACK
        assert np.abs(a.c_hi - b.c_hi).max() <= CONTAIN_SLACK

    def test_tiny_solve(self, planted_angles):
        hat, bar, _ = synth_generate(10, 20, planted_angles, 0.02, seed=3)
        kwargs = dict(eps_abs=1e-6, eps_rel=1e-3, max_nodes=4)
        box = AngleBox.symmetric_deg(0.5)
        a = nsbb_solve(hat, bar, box, **kwargs)
        b = nsbb_solve(self.shifted(hat), self.shifted(bar), box, **kwargs)
        assert a.nodes_explored == b.nodes_explored > 0
        assert b.f_lower == pytest.approx(a.f_lower, rel=1e-6)
        assert b.f_upper == pytest.approx(a.f_upper, rel=1e-6)
        assert np.array_equal(a.incumbent.angles.as_array(), b.incumbent.angles.as_array())
