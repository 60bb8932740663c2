"""Branch-and-bound driver: branching, node lower bounds and the solve loop."""

import itertools
import math
import time

import numpy as np
import pytest

from boresight import gopt, relax
from boresight.cloud import Cloud, georeference, synth_generate
from boresight.gopt import (
    Node,
    branch,
    builtin_lower_bound,
    coupled_lower_bound,
    node_lower_bound,
    nsbb_solve,
    relative_gap,
)
from boresight.miqcqp import SolverError
from boresight.reduce import PairSet, reduce_pairs
from boresight.relax import compute_pair_set
from boresight.rotation import AngleBox, EulerAngles
from boresight.search import AgsConfig, ags_run, evaluate_many, evaluate_ub

PLANTED = EulerAngles.from_degrees(1.0, -0.5, 0.25)


def make_node(hat, bar, box, f_upper=np.inf):
    pairs = compute_pair_set(hat, bar, box, f_upper=f_upper)
    red = reduce_pairs(pairs, f_upper)
    assert not red.infeasible
    return Node(box=box, pairs=red.pairs, lower=0.0)


class TestBranch:
    def test_full_box_gives_eight_children(self):
        children = branch(AngleBox.symmetric_deg(2.0))
        assert len(children) == 8
        assert all(np.allclose(c.widths(), math.radians(2.0)) for c in children)

    def test_children_partition_parent(self):
        box = AngleBox(-0.1, 0.3, 0.0, 0.2, -0.5, -0.1)
        children = branch(box)
        assert sum(c.volume() for c in children) == pytest.approx(box.volume())
        rng = np.random.default_rng(0)
        for angles in box.sample(rng, 200):
            e = EulerAngles(*angles)
            assert sum(c.contains(e) for c in children) >= 1

    def test_degenerate_axis_gives_four_children(self):
        box = AngleBox(-0.1, 0.1, 0.05, 0.05, -0.1, 0.1)
        assert len(branch(box)) == 4

    def test_all_axes_narrow_raises(self):
        w = 1e-9
        box = AngleBox(0, w, 0, w, 0, w)
        with pytest.raises(ValueError):
            branch(box)


class TestLowerBound:
    def test_zero_when_every_i_has_free_pair(self):
        ps = PairSet(n_hat=2, i=[0, 0, 1], j=[0, 1, 0],
                     c_lo=[0.0, 2.0, 0.0], c_hi=[1.0, 3.0, 1.0])
        assert builtin_lower_bound(ps) == 0.0

    def test_sums_per_i_minima(self):
        ps = PairSet(n_hat=2, i=[0, 0, 1], j=[0, 1, 0],
                     c_lo=[1.5, 2.0, 0.5], c_hi=[3.0, 3.0, 1.0])
        assert builtin_lower_bound(ps) == pytest.approx(2.0)

    def test_degenerate_box_consistent_with_objective(self, tiny_scene):
        hat, bar, _ = tiny_scene
        theta = EulerAngles.from_degrees(0.3, -0.2, 0.1)
        box = AngleBox(theta.alpha, theta.alpha, theta.beta, theta.beta,
                       theta.gamma, theta.gamma)
        node = make_node(hat, bar, box)
        lb = node_lower_bound(node, hat, bar)
        f = evaluate_ub(hat, bar, theta).objective
        assert lb <= f + 1e-6
        assert lb >= f - 1e-6 * (1 + len(hat))

    def test_never_exceeds_grid_minimum(self, tiny_scene):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(0.5)
        node = make_node(hat, bar, box)
        lb = node_lower_bound(node, hat, bar)
        rng = np.random.default_rng(1)
        best = min(
            evaluate_ub(hat, bar, EulerAngles(*t)).objective for t in box.sample(rng, 200)
        )
        assert lb <= best + 1e-9

    def test_monotone_in_parent(self, tiny_scene):
        hat, bar, _ = tiny_scene
        ps = PairSet(n_hat=1, i=[0], j=[0], c_lo=[0.5], c_hi=[1.0])
        node = Node(box=AngleBox.symmetric_deg(1.0), pairs=ps, lower=0.9)
        assert node_lower_bound(node, hat, bar) == pytest.approx(0.9)


def box_around(center: np.ndarray, half_deg: float) -> AngleBox:
    h = math.radians(half_deg)
    return AngleBox.from_arrays(center - h, center + h)


def grid_min(hat, bar, box: AngleBox, n: int = 7) -> float:
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(box.lows(), box.highs())]
    return min(evaluate_ub(hat, bar, EulerAngles(a, b, g)).objective
               for a in axes[0] for b in axes[1] for g in axes[2])


class TestCoupledLowerBound:
    """Grid oracle: wherever the box holds an angle whose objective is at or
    below the upper bound the pairs were reduced with, the coupled bound is
    at most the objective there."""

    OFF_CENTRE = PLANTED.as_array() + np.radians([0.05, -0.03, 0.04])

    def reduced(self, hat, bar, box):
        f_upper = evaluate_ub(hat, bar, box.midpoint()).objective
        red = reduce_pairs(compute_pair_set(hat, bar, box, f_upper=f_upper), f_upper)
        assert not red.infeasible
        return red.pairs, f_upper

    @pytest.mark.parametrize("scene", ["tiny", "noisy"])
    @pytest.mark.parametrize("centre,half_deg", [
        ("planted", 0.005), ("planted", 0.02), ("planted", 0.1), ("planted", 0.5),
        ("off", 0.005), ("off", 0.02), ("off", 0.1), ("off", 0.5),
    ])
    def test_never_exceeds_grid_minimum(self, scene, centre, half_deg, tiny_scene,
                                        noisy_scene):
        hat, bar = tiny_scene[:2] if scene == "tiny" else noisy_scene
        box = box_around(PLANTED.as_array() if centre == "planted" else self.OFF_CENTRE,
                         half_deg)
        pairs, f_upper = self.reduced(hat, bar, box)
        lb = coupled_lower_bound(pairs, box, hat, bar)
        assert min(f_upper, lb) <= grid_min(hat, bar, box) + 1e-12

    def test_tighter_than_per_point_bound_on_narrow_boxes(self, noisy_scene):
        hat, bar = noisy_scene
        box = box_around(PLANTED.as_array(), 0.005)
        pairs, _ = self.reduced(hat, bar, box)
        assert coupled_lower_bound(pairs, box, hat, bar) > builtin_lower_bound(pairs) > 0.0

    def test_degenerate_box_matches_objective(self, tiny_scene):
        hat, bar, _ = tiny_scene
        theta = EulerAngles.from_degrees(0.3, -0.2, 0.1)
        box = AngleBox(theta.alpha, theta.alpha, theta.beta, theta.beta,
                       theta.gamma, theta.gamma)
        pairs = make_node(hat, bar, box).pairs
        lb = coupled_lower_bound(pairs, box, hat, bar)
        f = evaluate_ub(hat, bar, theta).objective
        assert abs(lb - f) <= 1e-6 * (1 + len(hat))

    def test_no_single_partner_point_gives_the_per_point_sum(self, tiny_scene):
        hat, bar, _ = tiny_scene
        ps = PairSet(n_hat=2, i=[0, 0, 1, 1], j=[0, 1, 2, 3],
                     c_lo=[0.5, 0.25, 1.0, 2.0], c_hi=[3.0, 3.0, 4.0, 4.0])
        box = AngleBox.symmetric_deg(0.01)
        assert coupled_lower_bound(ps, box, hat, bar) == builtin_lower_bound(ps) == 1.25

    def test_utm_offset_invariance(self, noisy_scene, monkeypatch):
        """Adding (5e5, 5e6, 0) rounds s by up to 4.7e-10 m. With the model's
        rounding slack held at POINT_SLACK, the bound on the shifted clouds
        equals the bound on clouds carrying that same rounding, and differs
        from the unshifted one only by what the rounding moves. The slack that
        grows with |s| (GEOREF_ULPS) only lowers it, by < 1e-6 relative."""
        hat, bar = noisy_scene
        offset = np.array([5e5, 5e6, 0.0])

        def moved(cloud, back):
            return Cloud(cloud.l, cloud.ins_rotation, cloud.s + offset - back)

        for box in (box_around(PLANTED.as_array(), 0.005), box_around(self.OFF_CENTRE, 0.02),
                    box_around(PLANTED.as_array(), 0.1)):
            pairs, _ = self.reduced(hat, bar, box)
            plain = coupled_lower_bound(pairs, box, hat, bar)
            widened = coupled_lower_bound(pairs, box, moved(hat, 0.0), moved(bar, 0.0))
            with monkeypatch.context() as m:
                m.setattr(relax, "GEOREF_ULPS", 0)
                shifted = coupled_lower_bound(pairs, box, moved(hat, 0.0), moved(bar, 0.0))
                rounded = coupled_lower_bound(pairs, box, moved(hat, offset), moved(bar, offset))
            assert plain > 0.0
            assert shifted == pytest.approx(rounded, rel=1e-9)
            assert shifted == pytest.approx(plain, rel=1e-8)
            assert widened <= shifted and widened == pytest.approx(plain, rel=1e-6)

    @pytest.mark.parametrize("offset, slack",
                             [((0.0, 0.0, 0.0), 1e-9), ((5e5, 5e6, 0.0), 1e-9),
                              ((5e5, 9.9e6, 0.0), relax.GEOREF_ULPS * np.spacing(9.9e6))],
                             ids=["plain", "utm", "utm_south"])
    def test_model_remainder_within_rho(self, noisy_scene, offset, slack):
        """Oracle for the pair model under the coupled bound, on every (i, j):
        at the box midpoint, b is within 1e-9 m of the georeferenced pair
        offset on every box (at the southern-hemisphere northing 9.9e6 m,
        where an ulp is 1.9e-9 m, within the model's rounding slack of
        GEOREF_ULPS ulps); at the corners and at sampled d, the offset is
        within rho of b + A d."""
        hat, bar = (Cloud(c.l, c.ins_rotation, c.s + np.asarray(offset)) for c in noisy_scene)
        i = np.repeat(np.arange(len(hat)), len(bar))
        j = np.tile(np.arange(len(bar)), len(hat))
        p = PLANTED
        rng = np.random.default_rng(0)
        for box in (box_around(self.OFF_CENTRE, 0.02), AngleBox.symmetric_deg(0.5),
                    AngleBox.symmetric_deg(2.0),
                    AngleBox(p.alpha, p.alpha, p.beta, p.beta, p.gamma, p.gamma)):
            b, A, rho = relax._pair_model(hat, bar, i, j, box)
            corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
            d = np.concatenate([corners, rng.uniform(-1.0, 1.0, (24, 3))]) * 0.5 * box.widths()
            angles = box.midpoint().as_array() + np.concatenate([np.zeros((1, 3)), d])
            g = georeference(hat, angles)[:, i] - georeference(bar, angles)[:, j]
            assert np.all(np.linalg.norm(g[0] - b.reshape(-1, 3), axis=1) <= slack)
            model = b.reshape(-1, 3) + (d @ A.T).reshape(len(d), -1, 3)
            assert np.all(np.linalg.norm(g[1:] - model, axis=2) <= rho)


class TestNsbbSolve:
    def test_identical_clouds_converge_at_root(self, tiny_scene):
        hat, _, _ = tiny_scene
        rep = nsbb_solve(hat, hat, AngleBox.symmetric_deg(2.0))
        assert rep.f_upper == 0.0
        assert rep.converged_by == "gap_abs"
        assert rep.gap_abs == 0.0
        assert rep.nodes_explored == 0

    def test_incumbent_within_eps_abs_returns_before_root_pairs(self, tiny_scene, monkeypatch):
        hat, bar, _ = tiny_scene
        warm = evaluate_ub(hat, bar, PLANTED)  # noise-free scene: objective ~0

        def no_pair_set(*args, **kwargs):
            raise AssertionError("root pair set built")

        monkeypatch.setattr(gopt, "compute_pair_set", no_pair_set)
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(2.0), eps_abs=0.1, f_upper_init=warm)
        assert rep.converged_by == "gap_abs"
        assert rep.f_lower == 0.0 and rep.f_upper == warm.objective <= 0.1
        assert rep.pairs_root == 0 and rep.nodes_explored == 0
        assert rep.bound_log == [(0.0, rep.f_upper)]

    def test_spent_time_limit_returns_before_root_pairs(self, tiny_scene, monkeypatch):
        hat, bar, _ = tiny_scene

        def no_pair_set(*args, **kwargs):
            raise AssertionError("root pair set built")

        monkeypatch.setattr(gopt, "compute_pair_set", no_pair_set)
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(2.0), eps_abs=1e-6, time_limit=0.0)
        assert rep.converged_by == "time_limit"
        assert rep.f_lower == 0.0 and rep.f_upper > 1e-6
        assert rep.pairs_root == 0 and rep.nodes_explored == 0
        assert rep.bound_log == [(0.0, rep.f_upper)]

    def test_time_limit_checked_between_child_boxes(self, noisy_scene, monkeypatch):
        """Child pair sets that take 0.1 s each: the solve ends within the limit
        plus one child, and the children left unbounded keep a valid bound."""
        hat, bar = noisy_scene
        real, pause, limit = gopt.compute_pair_set, 0.1, 0.25

        def slow_pair_set(*args, **kwargs):
            time.sleep(pause)
            return real(*args, **kwargs)

        monkeypatch.setattr(gopt, "compute_pair_set", slow_pair_set)
        t0 = time.monotonic()
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(2.0), eps_rel=1e-9, eps_abs=1e-12,
                         time_limit=limit)
        elapsed = time.monotonic() - t0
        assert elapsed < limit + pause + 0.1
        assert rep.converged_by == "time_limit" and rep.nodes_explored == 1
        assert rep.f_lower <= evaluate_ub(hat, bar, PLANTED).objective

    def test_huge_tolerance_returns_root_bounds(self, tiny_scene):
        hat, bar, _ = tiny_scene
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(2.0), eps_abs=1e9)
        assert rep.converged_by == "gap_abs"
        assert rep.nodes_explored == 0
        assert rep.f_lower <= rep.f_upper

    def test_bound_sandwich_and_monotone_logs(self, tiny_scene):
        hat, bar, _ = tiny_scene
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(0.5),
                         eps_abs=1e-4, eps_rel=1e-4, max_nodes=25)
        lowers = [e[0] for e in rep.bound_log]
        uppers = [e[1] for e in rep.bound_log]
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))  # non-decreasing
        assert all(b <= a + 1e-15 for a, b in zip(uppers, uppers[1:]))  # non-increasing
        assert all(lo <= up + 1e-12 for lo, up in rep.bound_log)
        assert rep.f_lower <= rep.f_upper
        final = evaluate_ub(hat, bar, rep.incumbent.angles).objective
        assert rep.f_lower - 1e-12 <= final <= rep.f_upper + 1e-12

    def test_terminal_gap_criteria(self, tiny_scene):
        hat, bar, _ = tiny_scene
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(2.0),
                         eps_rel=0.01, eps_abs=0.1)
        assert rep.gap_abs <= 0.1 or rep.gap_rel <= 0.01
        assert rep.converged_by in ("gap_abs", "gap_rel")

    def test_pruning_safety_grid_audit(self, tiny_scene):
        """No pruned box may contain angles beating the final upper bound."""
        hat, bar, _ = tiny_scene
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(0.5),
                         eps_abs=1e-4, eps_rel=1e-4, max_nodes=20)
        rng = np.random.default_rng(0)
        checked = 0
        for box, _lb in rep.prune_log:
            for angles in box.sample(rng, 20):
                f = evaluate_ub(hat, bar, EulerAngles(*angles)).objective
                assert f >= rep.f_upper - 1e-9
                checked += 1
        assert rep.nodes_pruned_bound + rep.nodes_pruned_infeasible == len(rep.prune_log)

    def test_certifies_planted_optimum_small_instance(self, small_scene):
        hat, bar, _ = small_scene
        warm = evaluate_ub(hat, bar, EulerAngles.from_degrees(0.98, -0.52, 0.27))
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(2.0), eps_rel=0.01,
                         f_upper_init=warm)
        assert rep.converged_by in ("gap_abs", "gap_rel", "exhausted")
        err = np.degrees(np.abs(rep.incumbent.angles.as_array() - PLANTED.as_array()))
        assert np.all(err <= 0.1)

    def test_deterministic_replay(self, tiny_scene):
        hat, bar, _ = tiny_scene
        kwargs = dict(eps_abs=1e-3, eps_rel=1e-3, max_nodes=10)
        a = nsbb_solve(hat, bar, AngleBox.symmetric_deg(0.5), **kwargs)
        b = nsbb_solve(hat, bar, AngleBox.symmetric_deg(0.5), **kwargs)
        assert a.f_upper == b.f_upper and a.f_lower == b.f_lower
        assert a.nodes_explored == b.nodes_explored
        assert a.bound_log == b.bound_log

    def test_unsplittable_box_keeps_its_bound(self):
        """A box narrower than MIN_BOX_WIDTH on every axis is finalized with its
        bound: the exhausted queue leaves the gap open instead of closing it."""
        hat, bar, _ = synth_generate(10, 20, PLANTED, 0.02, seed=600)
        centre = PLANTED.as_array() + 1e-4
        box = AngleBox.from_arrays(centre - 4e-8, centre + 4e-8)
        rep = nsbb_solve(hat, bar, box, eps_rel=1e-12, eps_abs=1e-15)
        assert rep.nodes_finalized == 1 and rep.converged_by == "exhausted"
        assert rep.gap_rel > 0.0
        assert rep.f_lower <= grid_min(hat, bar, box, n=9)
        lowers = [lo for lo, _ in rep.bound_log]
        assert all(a <= b for a, b in zip(lowers, lowers[1:]))

    def test_rejects_bad_tolerances(self, tiny_scene):
        hat, bar, _ = tiny_scene
        with pytest.raises(SolverError):
            nsbb_solve(hat, bar, AngleBox.symmetric_deg(1.0), eps_rel=0.0)


    def test_library_call_sites_go_through_module_globals(self, tiny_scene, monkeypatch):
        """The driver calls these four through gopt's globals, where the
        benchmark tracer wraps them; children get the parent's pair set."""
        hat, bar, _ = tiny_scene
        calls = {name: [] for name in
                 ("compute_pair_set", "reduce_pairs", "evaluate_ub", "node_lower_bound")}

        def counting(name):
            fn = getattr(gopt, name)

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name].append((args, kwargs, result))
                return result

            return wrapper

        for name in calls:
            monkeypatch.setattr(gopt, name, counting(name))
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(0.5),
                         eps_abs=1e-4, eps_rel=1e-4, max_nodes=1)
        assert rep.nodes_explored == 1
        assert all(calls.values())
        pairs_in = [args[3] if len(args) > 3 else kwargs.get("pairs")
                    for args, kwargs, _ in calls["compute_pair_set"]]
        root_pairs = calls["reduce_pairs"][0][2].pairs
        assert pairs_in[0] is None
        assert len(pairs_in) == 9  # the root and its 8 children
        assert all(p is root_pairs for p in pairs_in[1:])


def test_relative_gap_denominator_floor():
    assert relative_gap(0.0, 0.0) == 0.0
    assert relative_gap(1.0, 0.5) == pytest.approx(0.5)
    assert relative_gap(1e-12, 0.0) == pytest.approx(1e-12 / 1e-9)


class TestModelPruneStage:
    """compute_pair_set returns a child box after its pair-model pass, without
    polytopes, when those bounds alone prune it. It prunes only with valid
    bounds: no box it returns early holds an angle at or below the f_upper it
    was given, and the polytope pass over the same box and parent set keeps
    it above that f_upper."""

    SOLVES = {"30x60_6_nodes": (30, 60, 4, 6, 1e-4), "W3": (10, 20, 600, None, 1e-6)}

    @pytest.fixture(scope="class", params=list(SOLVES))
    def solves(self, request):
        n_hat, n_bar, seed, max_nodes, eps_abs = self.SOLVES[request.param]
        hat, bar, _ = synth_generate(n_hat, n_bar, PLANTED, 0.02, seed=seed)
        box = AngleBox.symmetric_deg(2.0)
        warm = ags_run(hat, bar, AgsConfig(n_d=10, t_max=120.0, box=box, max_rounds=5)).best
        polytopes, pair_set, calls, early = relax._world_polytopes, gopt.compute_pair_set, [], []

        def counting(*args):
            calls.append(None)
            return polytopes(*args)

        def recording(hat, bar, box, pairs, f_upper):
            before = len(calls)
            out = pair_set(hat, bar, box, pairs, f_upper=f_upper)
            if pairs is not None and len(calls) == before:
                early.append((box, pairs, f_upper))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relax, "_world_polytopes", counting)
            mp.setattr(gopt, "compute_pair_set", recording)
            report = nsbb_solve(hat, bar, box, eps_rel=0.01, eps_abs=eps_abs,
                                f_upper_init=warm, max_nodes=max_nodes)
        assert len(early) > 0 and len(calls) > 0 and report.nodes_explored > 0
        return hat, bar, early

    def test_polytope_pass_also_prunes(self, solves):
        """The polytope pass runs on every box at f_upper = inf, and only
        raises c_lo: reduced at the recorded f_upper, the box stays pruned."""
        hat, bar, early = solves
        for box, pairs, f_upper in early:
            red = reduce_pairs(compute_pair_set(hat, bar, box, pairs), f_upper)
            assert red.infeasible or builtin_lower_bound(red.pairs) > f_upper

    def test_early_boxes_exceed_f_upper_on_a_grid(self, solves):
        hat, bar, early = solves
        for box, _, f_upper in early:
            axes = [np.linspace(lo, hi, 7) for lo, hi in zip(box.lows(), box.highs())]
            # evaluate_ub's values, row for row (its one-row case)
            objectives, _ = evaluate_many(hat, bar, np.array(list(itertools.product(*axes))))
            assert objectives.min() > f_upper


@pytest.mark.parametrize("name", list(TestModelPruneStage.SOLVES))
def test_model_root_set_leaves_these_searches_unchanged(name, monkeypatch):
    """Without pairs, the root box keeps its pair-model bounds; an explicit
    dense set takes the polytope pass too, which can only raise c_lo. An
    equal search is therefore not guaranteed; on these two solves the root
    on the polytope pass explores and bounds the same boxes."""
    n_hat, n_bar, seed, max_nodes, eps_abs = TestModelPruneStage.SOLVES[name]
    hat, bar, _ = synth_generate(n_hat, n_bar, PLANTED, 0.02, seed=seed)
    box = AngleBox.symmetric_deg(2.0)
    warm = ags_run(hat, bar, AgsConfig(n_d=10, t_max=120.0, box=box, max_rounds=5)).best
    kwargs = dict(eps_rel=0.01, eps_abs=eps_abs, f_upper_init=warm, max_nodes=max_nodes)
    model = nsbb_solve(hat, bar, box, **kwargs)
    pair_set, roots = gopt.compute_pair_set, []

    def polytope_root(hat, bar, box, pairs, f_upper):
        if pairs is None:
            roots.append(box)
            pairs = PairSet.dense(len(hat), len(bar))
        return pair_set(hat, bar, box, pairs, f_upper=f_upper)

    monkeypatch.setattr(gopt, "compute_pair_set", polytope_root)
    polytope = nsbb_solve(hat, bar, box, **kwargs)
    assert roots == [box]
    assert model.nodes_explored == polytope.nodes_explored > 0
    assert model.f_lower == polytope.f_lower and model.f_upper == polytope.f_upper
    assert model.bound_log == polytope.bound_log
