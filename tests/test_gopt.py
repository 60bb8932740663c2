"""Branch-and-bound solver, quadratic model construction, and model export."""

import math
import stat
import tempfile

import numpy as np
import pytest

from boresight import gopt
from boresight.cloud import georeference
from boresight.gopt import (
    MiqcqpModel,
    Node,
    SolverError,
    branch,
    build_miqcqp,
    builtin_lower_bound,
    export_model,
    node_lower_bound,
    nsbb_solve,
    parse_model,
    relative_gap,
)
from boresight.reduce import PairSet, reduce_pairs
from boresight.relax import compute_pair_set
from boresight.rotation import AngleBox, EulerAngles
from boresight.search import evaluate_ub

PLANTED = EulerAngles.from_degrees(1.0, -0.5, 0.25)


def make_node(hat, bar, box, f_upper=np.inf):
    pairs = compute_pair_set(hat, bar, box, f_upper=f_upper)
    red = reduce_pairs(pairs, f_upper)
    assert not red.infeasible
    return Node(box=box, pairs=red.pairs, lower=0.0, depth=0, id=0)


def model_point(hat, bar, pairs, angles, assignment):
    """Variable values satisfying the model at fixed angles and 0/1 assignment."""
    a, b, g = angles.alpha, angles.beta, angles.gamma
    x = {
        "u_alpha": math.cos(a), "v_alpha": math.sin(a),
        "u_beta": math.cos(b), "v_beta": math.sin(b),
        "u_gamma": math.cos(g), "v_gamma": math.sin(g),
        "w_gb": math.cos(g) * math.sin(b), "w_bg": math.sin(b) * math.sin(g),
    }
    p_hat = georeference(hat, angles)
    p_bar = georeference(bar, angles)
    for i in np.unique(pairs.i):
        for e in range(3):
            x[f"ph_{i}_{e}"] = float(p_hat[i, e])
    for j in np.unique(pairs.j):
        for e in range(3):
            x[f"pb_{j}_{e}"] = float(p_bar[j, e])
    for i, j in zip(pairs.i, pairs.j):
        x[f"b_{i}_{j}"] = 1.0 if assignment[int(i)] == int(j) else 0.0
    for i in np.unique(pairs.i):
        j = assignment[int(i)]
        for e in range(3):
            x[f"p_{i}_{e}"] = float(p_bar[j, e])
    return x


class TestBranch:
    def test_full_box_gives_eight_children(self):
        node = Node(box=AngleBox.symmetric_deg(2.0), pairs=PairSet.dense(1, 1),
                    lower=0.0, depth=0, id=0)
        children = branch(node)
        assert len(children) == 8
        assert all(np.allclose(c.box.widths(), math.radians(2.0)) for c in children)
        assert all(c.depth == 1 for c in children)

    def test_children_partition_parent(self):
        box = AngleBox(-0.1, 0.3, 0.0, 0.2, -0.5, -0.1)
        node = Node(box=box, pairs=PairSet.dense(1, 1), lower=0.0, depth=0, id=0)
        children = branch(node)
        assert sum(c.box.volume() for c in children) == pytest.approx(box.volume())
        rng = np.random.default_rng(0)
        for angles in box.sample(rng, 200):
            e = EulerAngles(*angles)
            assert sum(c.box.contains(e) for c in children) >= 1

    def test_degenerate_axis_gives_four_children(self):
        box = AngleBox(-0.1, 0.1, 0.05, 0.05, -0.1, 0.1)
        node = Node(box=box, pairs=PairSet.dense(1, 1), lower=0.0, depth=0, id=0)
        assert len(branch(node)) == 4

    def test_all_axes_narrow_raises(self):
        w = 1e-9
        box = AngleBox(0, w, 0, w, 0, w)
        node = Node(box=box, pairs=PairSet.dense(1, 1), lower=0.0, depth=0, id=0)
        with pytest.raises(ValueError):
            branch(node)


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
        lb = node_lower_bound(node)
        f = evaluate_ub(hat, bar, theta).objective
        assert lb <= f + 1e-6
        assert lb >= f - 1e-6 * (1 + len(hat))

    def test_never_exceeds_grid_minimum(self, tiny_scene):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(0.5)
        node = make_node(hat, bar, box)
        lb = node_lower_bound(node)
        rng = np.random.default_rng(1)
        best = min(
            evaluate_ub(hat, bar, EulerAngles(*t)).objective for t in box.sample(rng, 200)
        )
        assert lb <= best + 1e-9

    def test_monotone_in_parent(self):
        ps = PairSet(n_hat=1, i=[0], j=[0], c_lo=[0.5], c_hi=[1.0])
        node = Node(box=AngleBox.symmetric_deg(1.0), pairs=ps, lower=0.0, depth=1, id=0)
        assert node_lower_bound(node, parent_lower=0.9) == pytest.approx(0.9)

    def test_unknown_mode_rejected(self):
        node = Node(box=AngleBox.symmetric_deg(1.0), pairs=PairSet.dense(1, 1),
                    lower=0.0, depth=0, id=0)
        with pytest.raises(ValueError):
            node_lower_bound(node, mode="quantum")


class TestExternalAdapter:
    def write_script(self, tmp_path, body):
        path = tmp_path / "fake_solver.sh"
        path.write_text("#!/bin/sh\n" + body + "\n")
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return str(path)

    def test_external_bound_used_when_larger(self, tiny_scene, tmp_path):
        # builtin bound ~17.8 < LOWER 20 < midpoint objective ~25.0
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(0.1)
        node = make_node(hat, bar, box)
        node_upper = evaluate_ub(hat, bar, box.midpoint()).objective
        cmd = self.write_script(tmp_path, 'echo "LOWER 20.0"')
        lb = node_lower_bound(node, mode="external", hat=hat, bar=bar, solver_cmd=cmd,
                              node_upper=node_upper)
        assert lb == pytest.approx(20.0)

    def test_failing_adapter_falls_back_to_builtin(self, tiny_scene, tmp_path):
        hat, bar, _ = tiny_scene
        node = make_node(hat, bar, AngleBox.symmetric_deg(0.1))
        builtin = node_lower_bound(node, mode="builtin")
        cmd = self.write_script(tmp_path, "exit 3")
        lb = node_lower_bound(node, mode="external", hat=hat, bar=bar, solver_cmd=cmd)
        assert lb == pytest.approx(builtin)

    def test_garbage_output_falls_back(self, tiny_scene, tmp_path):
        hat, bar, _ = tiny_scene
        node = make_node(hat, bar, AngleBox.symmetric_deg(0.1))
        builtin = node_lower_bound(node, mode="builtin")
        cmd = self.write_script(tmp_path, 'echo "no bound here"')
        lb = node_lower_bound(node, mode="external", hat=hat, bar=bar, solver_cmd=cmd)
        assert lb == pytest.approx(builtin)

    @pytest.mark.parametrize("value", ["inf", "nan", "1e300"])
    def test_invalid_lower_falls_back_without_leaking(self, tiny_scene, tmp_path,
                                                      monkeypatch, caplog, value):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(0.1)
        node = make_node(hat, bar, box)
        builtin = node_lower_bound(node, mode="builtin")
        node_upper = evaluate_ub(hat, bar, box.midpoint()).objective
        cmd = self.write_script(tmp_path, f'echo "LOWER {value}"')
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(model_dir))
        lb = node_lower_bound(node, mode="external", hat=hat, bar=bar, solver_cmd=cmd,
                              node_upper=node_upper)
        assert lb == builtin
        assert "LOWER" in caplog.text
        assert list(model_dir.iterdir()) == []

    def test_solver_ignores_bound_above_node_objective(self, tiny_scene, tmp_path):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(0.5)
        kwargs = dict(eps_abs=1e-4, eps_rel=1e-4, max_nodes=2)
        ref = nsbb_solve(hat, bar, box, **kwargs)
        cmd = self.write_script(tmp_path, 'echo "LOWER 1e300"')
        rep = nsbb_solve(hat, bar, box, lb_mode="external", solver_cmd=cmd, **kwargs)
        assert rep.converged_by == ref.converged_by == "node_limit"
        assert (rep.f_lower, rep.f_upper) == (ref.f_lower, ref.f_upper)

    def test_missing_adapter_uses_builtin(self, tiny_scene):
        hat, bar, _ = tiny_scene
        node = make_node(hat, bar, AngleBox.symmetric_deg(0.1))
        builtin = node_lower_bound(node, mode="builtin")
        lb = node_lower_bound(node, mode="external", hat=hat, bar=bar, solver_cmd=None)
        assert lb == pytest.approx(builtin)


class TestBuildMiqcqp:
    def test_counts_single_hat_point(self, tiny_scene):
        hat, bar, _ = tiny_scene
        hat1 = hat.subset(np.array([0]))
        bar2 = bar.subset(np.array([0, 1]))
        box = AngleBox.symmetric_deg(2.0)
        pairs = compute_pair_set(hat1, bar2, box)
        model = build_miqcqp(hat1, bar2, pairs, box)
        assert len(model.binaries()) == 2
        assign_rows = [c for c in model.constraints if not c.quad and c.sense == "="]
        assert len(assign_rows) == 1
        rotation_vars = [v for v in model.variables
                         if v.name.startswith(("u_", "v_", "w_"))]
        assert len(rotation_vars) == 8

    def test_true_point_feasible_and_matches_objective(self, tiny_scene):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(2.0)
        pairs = compute_pair_set(hat, bar, box)
        model = build_miqcqp(hat, bar, pairs, box)
        ev = evaluate_ub(hat, bar, PLANTED)
        x = model_point(hat, bar, pairs, PLANTED, ev.assignment)
        assert model.max_violation(x) <= 1e-9
        assert model.objective_value(x) == pytest.approx(ev.objective, abs=1e-9)

    def test_objective_identity_random_assignments(self, tiny_scene):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(2.0)
        pairs = compute_pair_set(hat, bar, box)
        model = build_miqcqp(hat, bar, pairs, box)
        rng = np.random.default_rng(0)
        for _ in range(5):
            angles = EulerAngles(*box.sample(rng, 1)[0])
            assignment = {int(i): int(rng.choice(pairs.candidates_for(int(i))))
                          for i in np.unique(pairs.i)}
            x = model_point(hat, bar, pairs, angles, assignment)
            p_hat = georeference(hat, angles)
            p_bar = georeference(bar, angles)
            expect = sum(
                float(np.sum((p_hat[i] - p_bar[assignment[i]]) ** 2))
                for i in assignment
            )
            assert model.objective_value(x) == pytest.approx(expect, abs=1e-9)
            assert model.max_violation(x) <= 1e-9

    def test_rejects_uncovered_hat_point(self, tiny_scene):
        hat, bar, _ = tiny_scene
        ps = PairSet(n_hat=len(hat), i=[0], j=[0], c_lo=[0.0], c_hi=[1.0])
        with pytest.raises(SolverError):
            build_miqcqp(hat, bar, ps, AngleBox.symmetric_deg(2.0))


class TestModelExport:
    def build_small_model(self, tiny_scene):
        hat, bar, _ = tiny_scene
        hat3 = hat.subset(np.arange(3))
        bar5 = bar.subset(np.arange(5))
        box = AngleBox.symmetric_deg(2.0)
        pairs = compute_pair_set(hat3, bar5, box)
        return build_miqcqp(hat3, bar5, pairs, box)

    def test_round_trip_exact(self, tiny_scene, tmp_path):
        model = self.build_small_model(tiny_scene)
        path = str(tmp_path / "m.miqcqp")
        export_model(model, path)
        back = parse_model(path)
        assert back.variables == model.variables
        assert back.objective_quad == model.objective_quad
        assert back.objective_lin == model.objective_lin
        assert back.objective_const == model.objective_const
        assert len(back.constraints) == len(model.constraints)
        for a, b in zip(back.constraints, model.constraints):
            assert (a.sense, a.rhs, a.quad, a.lin) == (b.sense, b.rhs, b.quad, b.lin)

    def test_header_counts_match(self, tiny_scene, tmp_path):
        model = self.build_small_model(tiny_scene)
        path = str(tmp_path / "m.miqcqp")
        export_model(model, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "MIQCQP v1"
        assert lines[1] == f"VARS {len(model.variables)}"
        constr_line = next(ln for ln in lines if ln.startswith("CONSTR"))
        assert constr_line == f"CONSTR {len(model.constraints)}"

    def test_no_binaries_rejected(self, tmp_path):
        model = MiqcqpModel(variables=[], constraints=[], objective_quad=[],
                            objective_lin=[], objective_const=0.0)
        with pytest.raises(SolverError):
            export_model(model, str(tmp_path / "m.miqcqp"))


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

    def test_rejects_bad_tolerances(self, tiny_scene):
        hat, bar, _ = tiny_scene
        with pytest.raises(SolverError):
            nsbb_solve(hat, bar, AngleBox.symmetric_deg(1.0), eps_rel=0.0)

    def test_numeric_warm_start_tightens_pruning(self, tiny_scene):
        hat, bar, _ = tiny_scene
        f_true = evaluate_ub(hat, bar, PLANTED).objective + 1e-6
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(2.0),
                         f_upper_init=f_true, eps_abs=1e9)
        assert rep.f_upper <= f_true + 1e-12


def test_relative_gap_denominator_floor():
    assert relative_gap(0.0, 0.0) == 0.0
    assert relative_gap(1.0, 0.5) == pytest.approx(0.5)
    assert relative_gap(1e-12, 0.0) == pytest.approx(1e-12 / 1e-9)
