"""Smoke test of the benchmark harness at toy sizes.

Run from the repository root: python3 -m pytest -q bench
"""

import dataclasses
import math

import run
from tracer import TARGETS, Tracer

TOY = run.Workload("toy", "toy scene for the smoke test", n_hat=8, n_bar=16, n_d=2,
                   ags_rounds=2, probe="calls", eps_abs=1e-4, max_nodes=1)


def test_untraced_run_reports_every_end_to_end_metric():
    record = run.run_workload(TOY, seed=3, seconds=0.0, trace=False)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TOY.scenes
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(run.END_TO_END)
    for name, unit in run.END_TO_END + run.RECORD_ONLY:
        m = record["end_to_end"][name]
        assert m["unit"] == unit and math.isfinite(m["value"])
    assert record["end_to_end"]["fail_frac"]["value"] == 0.0
    assert record["context"]["seed"] == 3


def test_traced_run_reports_every_layer_metric_and_self_times_sum_to_root():
    record = run.run_workload(TOY, seed=3, seconds=0.0, trace=True)
    assert record["result"]["correct"]
    expected = {name: unit for name, unit, *_ in run.PER_LAYER}
    expected[run.OVERHEAD[0]] = run.OVERHEAD[1]
    metrics = record["result"]["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == expected
    assert all(m["value"] is not None for m in metrics.values())
    assert record["missing"] == []
    trace = record["trace"]
    assert math.isclose(trace["self_sum_s"], trace["root_s"], rel_tol=1e-9)
    assert metrics["gopt.nodes_explored"]["value"] == 1
    assert metrics["spatial.gjk.calls"]["value"] > 0


def test_missing_call_site_is_reported_not_zero():
    targets = [(m, "gjk_renamed" if name == "spatial.gjk" else path, name)
               for m, path, name in TARGETS]
    hat, bar, _ = run.synth_generate(TOY.n_hat, TOY.n_bar, run.PLANTED, run.NOISE_SIGMA, 3)
    tracer = Tracer(targets)
    solve = run.traced_solve(TOY, hat, bar, tracer)
    assert tracer.missing == ["spatial.gjk"]
    assert solve.layers["spatial.gjk.calls"] is None
    assert solve.layers["relax.refine_ratio"] is None
    assert solve.layers["relax.build_polytope.calls"] > 0


def test_checks_flag_a_broken_certificate():
    hat, bar, _ = run.synth_generate(TOY.n_hat, TOY.n_bar, run.PLANTED, run.NOISE_SIGMA, 3)
    solve = run.solve(TOY, hat, bar)
    assert run.check(solve, hat, bar) == []
    r = solve.report
    solve.report = dataclasses.replace(r, f_lower=r.f_upper * 2 + 1.0, converged_by="time_limit")
    problems = run.check(solve, hat, bar)
    assert any("f_lower" in p and "f_upper" in p for p in problems)
    assert any("planted" in p for p in problems)
    assert any("converged_by" in p for p in problems)


def test_fingerprint_differing_from_baseline_fails_the_solve(tmp_path, monkeypatch):
    first = run.run_workload(TOY, seed=3, seconds=0.0, trace=False)
    assert first["result"]["correct"]
    fps = first["fingerprints"]
    assert set(fps) == {str(s) for s in first["scene_seeds"]}
    ctx = first["context"]
    baseline = {"fingerprints": {**{k: ctx[k] for k in ("library_sha256", "python", "numpy",
                                                            "scipy")},
                                 "workloads": {"toy": fps}}}
    monkeypatch.setattr(run, "BASELINE", tmp_path / "baseline.json")
    run.BASELINE.write_text(run.json.dumps(baseline))
    again = run.run_workload(TOY, seed=3, seconds=0.0, trace=False)
    assert again["result"]["correct"]
    assert again["baseline_fingerprints_checked"] == sorted(fps)

    scene = first["scene_seeds"][1]
    fps[str(scene)]["nodes_explored"] += 1
    run.BASELINE.write_text(run.json.dumps(baseline))
    broken = run.run_workload(TOY, seed=3, seconds=0.0, trace=False)
    assert not broken["result"]["correct"]
    assert all("nodes_explored" in line and "baseline.json" in line
               for line in broken["failures"])
