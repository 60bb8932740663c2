"""MIQCQP model: construction, the v1 text format and the external
lower-bound adapter."""

import math
import stat
import tempfile

import numpy as np
import pytest

from boresight import miqcqp
from boresight.cloud import georeference
from boresight.gopt import Node, node_lower_bound, nsbb_solve
from boresight.miqcqp import MiqcqpModel, SolverError, build_miqcqp, export_model, parse_model
from boresight.reduce import PairSet, reduce_pairs
from boresight.relax import _reach_bounds, compute_pair_set
from boresight.rotation import AngleBox, EulerAngles, rotation_interval
from boresight.search import evaluate_ub

PLANTED = EulerAngles.from_degrees(1.0, -0.5, 0.25)


def make_node(hat, bar, box, f_upper=np.inf):
    pairs = compute_pair_set(hat, bar, box, f_upper=f_upper)
    red = reduce_pairs(pairs, f_upper)
    assert not red.infeasible
    return Node(box=box, pairs=red.pairs, lower=0.0)


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

    def test_world_bounds_one_enclosure_per_box(self, tiny_scene, monkeypatch):
        """Point bounds come from one batched rotation enclosure and equal
        the per-point reach boxes placed by the INS pose."""
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(1.0)
        pairs = reduce_pairs(compute_pair_set(hat, bar, box, f_upper=50.0), 50.0).pairs
        calls = []
        interval = miqcqp.rotation_interval

        def counted(b):
            calls.append(b)
            return interval(b)

        monkeypatch.setattr(miqcqp, "rotation_interval", counted)
        model = build_miqcqp(hat, bar, pairs, box)
        assert 1 <= len(calls) <= 2
        bounds = {v.name: (v.lo, v.hi) for v in model.variables}

        def reference(cloud, k):
            lo, hi = _reach_bounds(rotation_interval(box), cloud.l[k][None])
            R = cloud.ins_rotation[k]
            wc = cloud.s[k] + R @ (0.5 * (lo[0] + hi[0]))
            wh = np.abs(R) @ (0.5 * (hi[0] - lo[0]))
            return wc - wh, wc + wh

        ref = {}
        for prefix, cloud, ids in (("ph", hat, np.unique(pairs.i)), ("pb", bar, np.unique(pairs.j))):
            for k in ids:
                ref[prefix, int(k)] = reference(cloud, int(k))
        for i in np.unique(pairs.i):
            cand = [ref["pb", int(j)] for j in pairs.candidates_for(int(i))]
            ref["p", int(i)] = (np.min([lo for lo, _ in cand], axis=0),
                                np.max([hi for _, hi in cand], axis=0))
        got, want = [], []
        for (prefix, k), (lo, hi) in ref.items():
            for e in range(3):
                got.append(bounds[f"{prefix}_{k}_{e}"])
                want.append((lo[e], hi[e]))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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

    @pytest.mark.parametrize("text, line", [
        ("MIQCQP v1\n", 2),  # empty body
        ("MIQCQP v1\nVARS 2\nx 0.0 1.0 C\n", 4),  # one of two variable rows
        ("MIQCQP v1\nVARS 1\nx 0.0 1.0 C\nOBJ\nQ 1.0 x x\nC 0.0\n", 7),  # no CONSTR line
        ("MIQCQP v1\nVARS 1\nx 0.0 1.0\nOBJ\nC 0.0\nCONSTR 0\n", 3),  # 3-field variable row
        ("MIQCQP v1\nVARS 1\nx 0.0 1.0 Z\nOBJ\nC 0.0\nCONSTR 0\n", 3),  # unknown kind
        ("MIQCQP v1\nVARS 1\nx 0.0 1.0 C\nOBJ\nC 0.0\nCONSTR 1\n>= 5.0 L 1.0 x\n", 7),  # sense
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.miqcqp"
        path.write_text(text)
        with pytest.raises(SolverError, match=f"^{path}:{line}: "):
            parse_model(str(path))


class TestExternalAdapter:
    def write_script(self, tmp_path, body):
        path = tmp_path / "fake_solver.sh"
        path.write_text("#!/bin/sh\n" + body + "\n")
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return str(path)

    def test_external_bound_used_when_larger(self, tiny_scene, tmp_path):
        # internal bound ~18.5 < LOWER 20 < midpoint objective ~25.0
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(0.1)
        node = make_node(hat, bar, box)
        node_upper = evaluate_ub(hat, bar, box.midpoint()).objective
        cmd = self.write_script(tmp_path, 'echo "LOWER 20.0"')
        lb = node_lower_bound(node, hat=hat, bar=bar, solver_cmd=cmd,
                              node_upper=node_upper)
        assert lb == pytest.approx(20.0)

    def test_failing_adapter_falls_back_to_builtin(self, tiny_scene, tmp_path):
        hat, bar, _ = tiny_scene
        node = make_node(hat, bar, AngleBox.symmetric_deg(0.1))
        builtin = node_lower_bound(node, hat, bar)
        cmd = self.write_script(tmp_path, "exit 3")
        lb = node_lower_bound(node, hat=hat, bar=bar, solver_cmd=cmd)
        assert lb == pytest.approx(builtin)

    def test_garbage_output_falls_back(self, tiny_scene, tmp_path):
        hat, bar, _ = tiny_scene
        node = make_node(hat, bar, AngleBox.symmetric_deg(0.1))
        builtin = node_lower_bound(node, hat, bar)
        cmd = self.write_script(tmp_path, 'echo "no bound here"')
        lb = node_lower_bound(node, hat=hat, bar=bar, solver_cmd=cmd)
        assert lb == pytest.approx(builtin)

    @pytest.mark.parametrize("value", ["inf", "nan", "1e300"])
    def test_invalid_lower_falls_back_without_leaking(self, tiny_scene, tmp_path,
                                                      monkeypatch, caplog, value):
        hat, bar, _ = tiny_scene
        box = AngleBox.symmetric_deg(0.1)
        node = make_node(hat, bar, box)
        builtin = node_lower_bound(node, hat, bar)
        node_upper = evaluate_ub(hat, bar, box.midpoint()).objective
        cmd = self.write_script(tmp_path, f'echo "LOWER {value}"')
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(model_dir))
        lb = node_lower_bound(node, hat=hat, bar=bar, solver_cmd=cmd,
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
        rep = nsbb_solve(hat, bar, box, solver_cmd=cmd, **kwargs)
        assert rep.converged_by == ref.converged_by == "node_limit"
        assert (rep.f_lower, rep.f_upper) == (ref.f_lower, ref.f_upper)

    def test_missing_adapter_uses_builtin(self, tiny_scene):
        hat, bar, _ = tiny_scene
        node = make_node(hat, bar, AngleBox.symmetric_deg(0.1))
        builtin = node_lower_bound(node, hat, bar)
        lb = node_lower_bound(node, hat=hat, bar=bar, solver_cmd=None)
        assert lb == pytest.approx(builtin)
