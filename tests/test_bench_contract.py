"""The library call sites that the benchmark's span tracer (bench/tracer.py)
wraps. A target that stops resolving reads null on the traced result line, so
a refactor that moves one must fail here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

from boresight.cloud import synth_generate
from boresight.gopt import nsbb_solve
from boresight.rotation import AngleBox, EulerAngles
from boresight.search import AgsConfig, ags_run

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    """bench/tracer.py loaded by path (its dataclasses need it in sys.modules)."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    unresolved = [name for module, path, name in tracer.TARGETS
                  if tracer._resolve(module, path) is None]
    assert unresolved == []


def test_one_node_solve_leaves_no_missing_layer(tracer):
    hat, bar, _ = synth_generate(10, 20, EulerAngles.from_degrees(1.0, -0.5, 0.25), 0.02, seed=600)
    t = tracer.Tracer()
    with t.installed(), t.span("solve"):
        rep = nsbb_solve(hat, bar, AngleBox.symmetric_deg(2.0), eps_abs=1e-6, max_nodes=1)
    assert rep.nodes_explored == 1
    assert t.missing == []
    # the root, its 8 children and one pair-set pass per cut of a child box
    assert rep.cut_passes > 0
    assert t.counters["relax.boxes"] == 9 + rep.cut_passes
    assert t.counters["gopt.child_boxes"] == 8 + rep.cut_passes
    # every box is evaluated at its midpoint; every feasible one is bounded
    layers = t.summarize().layers
    assert layers["gopt.evaluate_ub"].calls == 9
    assert layers["gopt.node_lower_bound"].calls == 9 - rep.nodes_pruned_infeasible


def test_traced_grid_search_records_every_evaluation(tracer):
    """aGS evaluates in batches, and every KD-tree it builds and queries goes
    through the wrapped call sites: here each round's 27 cells share one tree,
    since the candidate lists average 6 and 3 of the 20 bar points per hat point."""
    hat, bar, _ = synth_generate(10, 20, EulerAngles.from_degrees(1.0, -0.5, 0.25), 0.02, seed=600)
    t = tracer.Tracer()
    with t.installed(), t.span("solve"):
        res = ags_run(hat, bar, AgsConfig(n_d=3, t_max=60.0, box=AngleBox.symmetric_deg(2.0),
                                          max_rounds=2))
    assert res.n_evals == 54
    assert t.missing == []
    layers = t.summarize().layers
    assert layers["spatial.kdtree_build"].calls == res.rounds == 2
    assert layers["spatial.kdtree_query"].calls == res.rounds
    assert layers["cloud.georeference"].calls >= 1


def test_traced_screened_grid_search_records_both_passes(tracer):
    """On a 100-point hat a round first screens every cell on a hat sample, then
    evaluates in full the cells that can still win. Both passes build and query
    their KD-trees through the wrapped call sites: here one per cell and pass,
    since the ±2° grid of 64 cells is too wide to share a tree."""
    hat, bar, _ = synth_generate(100, 250, EulerAngles.from_degrees(1.0, -0.5, 0.25), 0.02,
                                 seed=600)
    t = tracer.Tracer()
    with t.installed(), t.span("solve"):
        res = ags_run(hat, bar, AgsConfig(n_d=4, t_max=60.0, box=AngleBox.symmetric_deg(2.0),
                                          max_rounds=1))
    assert res.n_screened > 0 and res.n_evals + res.n_screened == 64
    assert t.missing == []
    layers = t.summarize().layers
    assert layers["spatial.kdtree_build"].calls == 64 + res.n_evals
    assert layers["spatial.kdtree_query"].calls == 64 + res.n_evals
