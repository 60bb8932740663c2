#!/usr/bin/env python3
"""Benchmark of the boresight solver: end-to-end runs and a traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py --workload root-dense --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each run generates three synthetic scenes (four on root-dense) from ``--seed``,
writes each to fused files and reads it back (the CLI input path), then runs
whole solves (aGS warm start, then nsBB where the workload has it) one at a
time, rotating through the scenes, until ``--seconds`` have passed. Closed loop, one process, serial
library defaults. The set-up is repeated between solves, off the solve clock,
so that its median covers the whole run. Times are in reference seconds: wall
times scaled by a speed probe run around and during each timed call (see
SpeedClock). Output checks and the determinism checks run after the timed
loop. ``--workload all`` runs each workload in a child process of its own, so
that each reports its own peak memory.

With ``--trace 0`` the result reports the end-to-end metrics; with ``--trace 1``
untraced and traced solves alternate, and the result reports the per-layer
metrics of the traced solves plus the tracing overhead. The last line of
standard output is one JSON object; the full record, with the run context, goes
to ``bench_results/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

from boresight import (  # noqa: E402
    AgsConfig, AngleBox, EulerAngles, evaluate_ub, load_fused, nsbb_solve, save_fused,
    synth_generate,
)
from boresight.search import ags_run  # noqa: E402
from tracer import Tracer  # noqa: E402

PLANTED_DEG = (1.0, -0.5, 0.25)
PLANTED = EulerAngles.from_degrees(*PLANTED_DEG)
NOISE_SIGMA = 0.02  # metres
BOX_HALF_WIDTH_DEG = 2.0
BOX = AngleBox.symmetric_deg(BOX_HALF_WIDTH_DEG)
EPS_REL = 0.01
AGS_T_MAX = 1e9  # aGS stops on max_rounds only
# The set-up runs for SETUP_MIN_S before the first solve and again for
# SETUP_SLICE_S after every solve, so that its median is taken over the whole
# run: the host's speed changes within seconds, and samples taken only at the
# start of a run showed quartile spreads of up to 0.52 across runs.
SETUP_MIN_S = 1.0
SETUP_SLICE_S = 0.3
# converged_by values a budgeted run may end with: the node budget or a gap
ALLOWED_REASONS = ("node_limit", "gap_abs", "gap_rel", "exhausted")
REL_TOL = 1e-9
# Probe time (see SpeedClock) that defines the reference speed, per kind:
# about the probe's time on an idle 2-vCPU VM, so reference seconds are close
# to wall seconds there.
PROBE_REF_S = {"tree": 0.006, "calls": 0.006}
BASELINE = Path(__file__).resolve().parent / "baseline.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_hat: int
    n_bar: int
    n_d: int
    ags_rounds: int
    probe: str  # SpeedClock probe kind
    eps_abs: float | None = None  # None: aGS only, no nsBB
    max_nodes: int | None = None
    # Each run solves this many scenes drawn from its seed, in rotation, and
    # reports the mean over scenes of each scene's median: the solver's work
    # differs from scene to scene, and one scene per run would put that
    # difference into every run-to-run comparison.
    scenes: int = 3


# root-dense solves four scenes per run: its nsBB time differs by 11% (standard
# deviation) from scene to scene, and with three scenes that alone gave a
# quartile spread of 0.09 across runs. branch-noisy's node budget: on these
# scenes f_lower first rises above 0 after 3 to 5 nodes, so at 6 nodes
# gap_rel (about 0.93) moves with the bounds in either direction.
WORKLOADS = {
    w.name: w for w in [
        Workload("ags-large",
                 "aGS alone on a 2000x5000 scene: KD-tree build/query and "
                 "georeferencing dominate; the bounding layers do not run",
                 n_hat=2000, n_bar=5000, n_d=10, ags_rounds=1, probe="tree"),
        Workload("root-dense",
                 "nsBB root only on a 100x250 scene: many pairs, one box; "
                 "GJK refinement over the dense pair set dominates",
                 n_hat=100, n_bar=250, n_d=10, ags_rounds=5, probe="calls",
                 eps_abs=0.1, max_nodes=0, scenes=4),
        Workload("branch-noisy",
                 "nsBB branching on a noisy 30x60 scene: few pairs, many boxes; "
                 "polytope construction per child box dominates",
                 n_hat=30, n_bar=60, n_d=10, ags_rounds=5, probe="calls",
                 eps_abs=1e-4, max_nodes=6),
    ]
}

# End-to-end metrics, measured with tracing off: (name, unit). The result line
# carries END_TO_END; the record and the table also carry RECORD_ONLY, which no
# bound can hold: nsBB does not run on ags-large, angle_err_deg varies across
# seeds by a factor of 8, and fail_frac is 0.
END_TO_END = [
    ("setup_s", "s"),
    ("ags_s", "s"),
    ("solve_s", "s"),
    ("gap_rel", "ratio"),
    ("peak_rss_mb", "MB"),
]
RECORD_ONLY = [
    ("nsbb_s", "s"),
    ("angle_err_deg", "deg"),
    ("fail_frac", "ratio"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class LayerView:
    """Values of one traced solve that the per-layer metrics are built from."""

    def __init__(self, summary, report, n_evals):
        self.summary = summary
        self.report = report
        self.n_evals = n_evals

    def calls(self, name):
        t = self.summary.layers.get(name)
        return t.calls if t else 0

    def self_s(self, name):
        t = self.summary.layers.get(name)
        return t.self_s if t else 0.0

    def total_s(self, name):
        t = self.summary.layers.get(name)
        return t.total_s if t else 0.0

    def count(self, key):
        return self.summary.counters.get(key, 0)

    def field(self, name):
        # nsBB does not run on aGS-only workloads: its counts are zero there;
        # a report field that no longer exists reads as missing
        return 0 if self.report is None else getattr(self.report, name, None)


CPS = "relax.compute_pair_set"
CPS_COUNTS = CPS + ":counts"
RED_COUNTS = "reduce.reduce_pairs:counts"

# Per-layer metrics of the traced run: (name, unit, spans or counters it is
# built from, value, end-to-end metric @ workload it should move). The
# dependencies let a metric read "missing" when the tracer could not wrap its
# call site.
PER_LAYER = [
    ("spatial.kdtree_build.s", "s", ["spatial.kdtree_build"],
     lambda v: v.self_s("spatial.kdtree_build"), "ags_s @ ags-large (and the small workloads)"),
    ("spatial.kdtree_query.s", "s", ["spatial.kdtree_query"],
     lambda v: v.self_s("spatial.kdtree_query"), "ags_s @ ags-large (and the small workloads)"),
    ("cloud.georeference.s", "s", ["cloud.georeference"],
     lambda v: v.self_s("cloud.georeference"), "ags_s @ ags-large (and the small workloads)"),
    ("search.evaluate_ub.calls", "count", ["search.evaluate_ub"],
     lambda v: v.calls("search.evaluate_ub"), "ags_s @ ags-large (and the small workloads)"),
    ("search.evals_per_s", "1/s", [],
     lambda v: _ratio(v.n_evals, v.total_s("search.ags_run")),
     "ags_s @ ags-large (and the small workloads)"),
    ("spatial.gjk.calls", "count", ["spatial.gjk"],
     lambda v: v.calls("spatial.gjk"), "solve_s @ root-dense, then branch-noisy"),
    ("spatial.gjk.s", "s", ["spatial.gjk"],
     lambda v: v.self_s("spatial.gjk"), "solve_s @ root-dense, then branch-noisy"),
    ("spatial.gjk.us_per_call", "us", ["spatial.gjk"],
     lambda v: 1e6 * _ratio(v.total_s("spatial.gjk"), v.calls("spatial.gjk")),
     "solve_s @ root-dense, then branch-noisy"),
    ("spatial.max_vertex.s", "s", ["spatial.max_vertex"],
     lambda v: v.self_s("spatial.max_vertex"), "solve_s @ root-dense, then branch-noisy"),
    ("relax.refine_ratio", "ratio", ["spatial.gjk", CPS, CPS_COUNTS],
     lambda v: _ratio(v.calls("spatial.gjk"), v.count("relax.pairs_in")),
     "solve_s @ root-dense, then branch-noisy"),
    ("relax.build_polytope.calls", "count", ["relax.build_polytope"],
     lambda v: v.calls("relax.build_polytope"), "solve_s @ branch-noisy"),
    ("relax.build_polytope.self_s", "s", ["relax.build_polytope"],
     lambda v: v.self_s("relax.build_polytope"), "solve_s @ branch-noisy"),
    ("relax.build_polytope.us_per_call", "us", ["relax.build_polytope"],
     lambda v: 1e6 * _ratio(v.total_s("relax.build_polytope"), v.calls("relax.build_polytope")),
     "solve_s @ branch-noisy"),
    ("rotation.interval.calls", "count", ["rotation.interval"],
     lambda v: v.calls("rotation.interval"), "solve_s @ branch-noisy"),
    ("rotation.interval.calls_per_box", "count", ["rotation.interval", CPS, CPS_COUNTS],
     lambda v: _ratio(v.calls("rotation.interval"), v.count("relax.boxes")),
     "solve_s @ branch-noisy"),
    ("rotation.interval.s", "s", ["rotation.interval"],
     lambda v: v.self_s("rotation.interval"), "solve_s @ branch-noisy"),
    ("relax.compute_pair_set.calls", "count", [CPS],
     lambda v: v.calls(CPS), "solve_s @ root-dense"),
    ("relax.compute_pair_set.self_s", "s", [CPS],
     lambda v: v.self_s(CPS), "solve_s @ root-dense"),
    ("relax.pairs_in", "count", [CPS, CPS_COUNTS],
     lambda v: v.count("relax.pairs_in"), "solve_s and peak_rss_mb @ root-dense"),
    ("reduce.reduce_pairs.s", "s", ["reduce.reduce_pairs"],
     lambda v: v.self_s("reduce.reduce_pairs"), "solve_s and gap_rel @ branch-noisy"),
    ("reduce.survival", "ratio", ["reduce.reduce_pairs", RED_COUNTS],
     lambda v: _ratio(v.count("reduce.pairs_out"), v.count("reduce.pairs_in")),
     "solve_s and gap_rel @ branch-noisy"),
    ("gopt.pairs_root", "count", [],
     lambda v: v.field("pairs_root"), "solve_s and gap_rel @ branch-noisy"),
    ("gopt.pairs_per_box", "count", [CPS, CPS_COUNTS],
     lambda v: _ratio(v.count("relax.pairs_in"), v.count("relax.boxes")),
     "solve_s and gap_rel @ branch-noisy"),
    ("gopt.nodes_explored", "count", [],
     lambda v: v.field("nodes_explored"), "gap_rel and solve_s @ branch-noisy"),
    ("gopt.child_boxes", "count", [CPS, CPS_COUNTS],
     lambda v: v.count("gopt.child_boxes"), "gap_rel and solve_s @ branch-noisy"),
    ("gopt.boxes_per_s", "1/s", [CPS, CPS_COUNTS],
     lambda v: _ratio(v.count("gopt.child_boxes"), v.total_s("gopt.nsbb_solve")),
     "gap_rel and solve_s @ branch-noisy"),
    ("gopt.pruned_bound", "count", [],
     lambda v: v.field("nodes_pruned_bound"), "gap_rel and solve_s @ branch-noisy"),
    ("gopt.pruned_infeasible", "count", [],
     lambda v: v.field("nodes_pruned_infeasible"), "gap_rel and solve_s @ branch-noisy"),
    ("gopt.node_lower_bound.s", "s", ["gopt.node_lower_bound"],
     lambda v: v.self_s("gopt.node_lower_bound"), "gap_rel and solve_s @ branch-noisy"),
    ("gopt.driver.self_s", "s", [],
     lambda v: v.self_s("gopt.nsbb_solve"), "gap_rel and solve_s @ branch-noisy"),
]
OVERHEAD = ("trace.overhead_frac", "ratio")

# Counts that must repeat exactly between traced solves of one scene.
DETERMINISTIC_LAYER_METRICS = [
    "gopt.nodes_explored", "gopt.pairs_root", "reduce.survival", "spatial.gjk.calls",
    "relax.build_polytope.calls", "rotation.interval.calls", "relax.pairs_in",
]


class SpeedClock:
    """Times calls in reference seconds: seconds at the host speed at which a
    fixed kernel that belongs to the benchmark (the probe) takes
    PROBE_REF_S[kind]. No library change alters the probe's cost, so its time
    follows only the host's momentary speed.

    On a shared host that speed changes by up to 1.9x in phases of one to a few
    seconds (measured on a shared 2-vCPU VM). The clock runs the probe before
    and after each timed call and, during the call, every SAMPLE_S seconds from
    a SIGALRM handler. Each stretch of the call between two probes is scaled by
    PROBE_REF_S[kind] over the mean of those two probe times; the probe time
    itself is left out.

    Code slows by different factors when the host is busy, so the kernel
    mimics the workload: "tree" builds and queries KD-trees over thousands of
    points (aGS on large clouds); "calls" mixes pure-Python arithmetic, small
    numpy calls and KD-trees over a few hundred points (the per-call overhead
    that dominates solves on small scenes)."""

    SAMPLE_S = 0.25

    def __init__(self, kind: str):
        if kind not in PROBE_REF_S:
            raise ValueError(f"unknown probe kind {kind!r}")
        rng = np.random.default_rng(0)
        self.kind = kind
        self.probe_s: list[float] = []  # every probe time, for the record
        self._points, self._queries = rng.random((3000, 3)), rng.random((1500, 3))
        self._l, self._rot = rng.random((250, 3)), rng.random((250, 3, 3))
        self._small_queries, self._v8 = rng.random((100, 3)), rng.random((8, 3))

    def probe(self) -> float:
        t0 = time.perf_counter()
        if self.kind == "tree":
            for _ in range(3):
                cKDTree(self._points).query(self._queries)
        else:
            acc = 0.0
            for k in range(35000):
                acc += k * 0.5
            x = np.ones(3)
            for _ in range(450):
                x = np.maximum(x * 1.0001, 0.5)
                int(np.argmax(self._v8 @ x))
            for _ in range(17):
                w = np.einsum("nij,nj->ni", self._rot, self._l)
                cKDTree(w).query(self._small_queries)
        t = time.perf_counter() - t0
        self.probe_s.append(t)
        return t

    def time(self, fn, sample: bool = True):
        """(fn(), wall seconds, reference seconds), probes excluded from both.
        sample=False probes only before and after the call."""
        probes = [self.probe()]
        work: list[float] = []
        mark = time.perf_counter()
        busy = False

        def on_alarm(_signum, _frame):
            nonlocal mark, busy
            if busy:
                return
            busy = True
            t = time.perf_counter()
            work.append(t - mark)
            probes.append(self.probe())
            mark = time.perf_counter()
            busy = False

        if sample:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        try:
            result = fn()
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            work.append(time.perf_counter() - mark)
        probes.append(self.probe())
        ref = 2.0 * PROBE_REF_S[self.kind]
        return result, sum(work), sum(w * ref / (a + b)
                                      for w, a, b in zip(work, probes, probes[1:]))


@dataclass
class Solve:
    scene: int = 0
    ags_s: float | None = None  # wall seconds
    nsbb_s: float | None = None
    ags_ref_s: float | None = None  # reference seconds (see SpeedClock)
    nsbb_ref_s: float | None = None
    ags_best: object = None
    report: object = None
    n_evals: int = 0
    layers: dict | None = None  # per-layer metrics, traced solves only
    error: str | None = None


def setup(wl: Workload, seed: int, workdir: Path):
    """Generate the scene and round-trip both clouds through fused files."""
    hat, bar, _ = synth_generate(wl.n_hat, wl.n_bar, PLANTED, NOISE_SIGMA, seed)
    paths = workdir / "hat.txt", workdir / "bar.txt"
    save_fused(hat, str(paths[0]))
    save_fused(bar, str(paths[1]))
    return load_fused(str(paths[0]), "hat"), load_fused(str(paths[1]), "bar")


def _wall_timer(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0, None


def solve(wl: Workload, hat, bar, timer=_wall_timer, tracer: Tracer | None = None) -> Solve:
    """One closed-loop solve. timer(fn) runs one library call and returns
    (result, wall seconds, reference seconds or None)."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    cfg = AgsConfig(n_d=wl.n_d, t_max=AGS_T_MAX, box=BOX, max_rounds=wl.ags_rounds)
    out = Solve()

    def run_ags():
        with span("search.ags_run"):
            return ags_run(hat, bar, cfg)

    res, out.ags_s, out.ags_ref_s = timer(run_ags)
    out.ags_best, out.n_evals = res.best, res.n_evals
    if wl.eps_abs is not None:
        def run_nsbb():
            with span("gopt.nsbb_solve"):
                return nsbb_solve(hat, bar, BOX, eps_rel=EPS_REL, eps_abs=wl.eps_abs,
                                  f_upper_init=res.best, max_nodes=wl.max_nodes)

        out.report, out.nsbb_s, out.nsbb_ref_s = timer(run_nsbb)
    return out


def ref_ags_s(s: Solve) -> float:
    return s.ags_ref_s


def ref_nsbb_s(s: Solve) -> float | None:
    return s.nsbb_ref_s


def ref_solve_s(s: Solve) -> float:
    """Time to the result: aGS plus nsBB, in reference seconds."""
    return ref_ags_s(s) + (ref_nsbb_s(s) or 0.0)


def traced_solve(wl: Workload, hat, bar, tracer: Tracer) -> Solve:
    tracer.reset()
    with tracer.installed():
        with tracer.span("solve"):
            out = solve(wl, hat, bar, tracer=tracer)
    summary = tracer.summarize()
    view = LayerView(summary, out.report, out.n_evals)
    out.layers = {}
    for name, _unit, deps, value, _moves in PER_LAYER:
        v = None if any(d in summary.missing for d in deps) else value(view)
        out.layers[name] = None if v is None else float(v)
    return out


def angle_err_deg(s: Solve) -> float:
    angles = (s.report.incumbent if s.report is not None else s.ags_best).angles
    return float(np.degrees(np.abs(angles.as_array() - PLANTED.as_array())).max())


def gap_rel(s: Solve) -> float:
    # aGS alone proves no lower bound beyond the objective's trivial 0, so
    # its relative gap is 1
    return float(s.report.gap_rel) if s.report is not None else 1.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def check(s: Solve, hat, bar) -> list[str]:
    """Output checks of one solve; an empty list means it passed."""
    problems = []
    best = s.ags_best
    if not _close(evaluate_ub(hat, bar, best.angles).objective, best.objective):
        problems.append("aGS objective differs from its recomputation")
    if not BOX.contains(best.angles):
        problems.append("aGS incumbent outside the box")
    r = s.report
    if r is None:
        return problems
    if not r.f_lower <= r.f_upper:
        problems.append(f"f_lower {r.f_lower!r} > f_upper {r.f_upper!r}")
    if not _close(evaluate_ub(hat, bar, r.incumbent.angles).objective, r.f_upper):
        problems.append("f_upper differs from evaluate_ub at the incumbent")
    f_planted = evaluate_ub(hat, bar, PLANTED).objective
    if not r.f_lower <= f_planted * (1.0 + REL_TOL):
        problems.append(f"f_lower {r.f_lower!r} above the planted objective {f_planted!r}")
    if not BOX.contains(r.incumbent.angles):
        problems.append("nsBB incumbent outside the box")
    if r.converged_by not in ALLOWED_REASONS:
        problems.append(f"converged_by={r.converged_by!r}")
    return problems


def fingerprint(s: Solve) -> dict:
    """Outputs that must repeat exactly between solves of one scene."""
    fp = {"ags_objective": s.ags_best.objective, "gap_rel": gap_rel(s),
          "angle_err_deg": angle_err_deg(s)}
    if s.report is not None:
        fp.update(nodes_explored=s.report.nodes_explored, pairs_root=s.report.pairs_root,
                  f_lower=s.report.f_lower, f_upper=s.report.f_upper)
    if s.layers is not None:
        fp.update({k: s.layers[k] for k in DETERMINISTIC_LAYER_METRICS})
    return fp


def same_across_processes(a, b) -> bool:
    # Counts must be equal. Floats may differ in the last bits between
    # processes whose numpy picked other SIMD kernels; a real difference in
    # the search shows in the counts or far above REL_TOL.
    if isinstance(a, float) and isinstance(b, float):
        return _close(a, b)
    return a == b


def library_digest() -> str:
    """SHA-256 of the library sources: names the code that a fingerprint in
    baseline.json belongs to, also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "boresight").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def baseline_fingerprints(wl: Workload, ctx: dict) -> dict:
    """Fingerprints per scene seed that baseline.json holds for this workload,
    if they were taken from the same library sources and Python, numpy and
    scipy versions as this run; otherwise none."""
    try:
        fps = json.loads(BASELINE.read_text())["fingerprints"]
    except (OSError, ValueError, KeyError):
        return {}
    if any(fps.get(k) != ctx[k] for k in ("library_sha256", "python", "numpy", "scipy")):
        return {}
    return fps.get("workloads", {}).get(wl.name, {})


def _scene_mean(solves: list[Solve], value):
    """Mean over scenes of the median of value(solve) over each scene's solves."""
    per_scene: dict[int, list] = {}
    for s in solves:
        v = value(s)
        if v is not None:
            per_scene.setdefault(s.scene, []).append(v)
    if not per_scene:
        return None
    return statistics.fmean(statistics.median(v) for v in per_scene.values())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def context(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "library_sha256": library_digest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": asdict(wl),
        "planted_deg": PLANTED_DEG,
        "noise_sigma_m": NOISE_SIGMA,
        "box_half_width_deg": BOX_HALF_WIDTH_DEG,
        "eps_rel": EPS_REL,
    }


def _run_solve(fn) -> Solve:
    try:
        return fn()
    except Exception:  # noqa: BLE001 - a solve that raises counts as failed
        return Solve(error=traceback.format_exc())


def _scale(s: Solve) -> float:
    """Reference seconds per wall second over a solve."""
    return ref_solve_s(s) / (s.ags_s + (s.nsbb_s or 0.0))


def _scaled(value, unit: str, scale: float):
    if value is None or unit not in ("s", "us", "1/s"):
        return value
    return value / scale if unit == "1/s" else value * scale


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (result line under "result")."""
    ctx = context(wl, seed, seconds, trace)
    clock = SpeedClock(wl.probe)
    # the set-up is pure-Python loops over points on every workload
    setup_clock = SpeedClock("calls")
    seeds = [seed * wl.scenes + k for k in range(wl.scenes)]
    scenes = [None] * wl.scenes
    setup_walls: list[float] = []
    setup_samples: list[float] = []  # reference seconds

    def set_up(min_s: float, tmp: Path) -> None:
        """Repeat the set-up, rotating through the scenes, until every scene
        exists and min_s has passed."""
        start = time.perf_counter()
        while time.perf_counter() - start < min_s or None in scenes:
            k = len(setup_walls) % wl.scenes
            loaded, wall, ref = setup_clock.time(lambda: setup(wl, seeds[k], tmp),
                                                 sample=False)
            setup_walls.append(wall)
            setup_samples.append(ref)
            if scenes[k] is None:
                scenes[k] = loaded

    def timed(fn, scene: int) -> Solve:
        s = _run_solve(lambda: fn(scene))
        s.scene = scene
        return s

    def plain_solve(scene: int) -> Solve:
        return solve(wl, *scenes[scene], timer=clock.time)

    def traced_timed_solve(scene: int) -> Solve:
        # probes inside a traced solve would land in some layer's self time,
        # so the clock probes only around the whole solve
        s, wall, ref = clock.time(lambda: traced_solve(wl, *scenes[scene], tracer),
                                  sample=False)
        s.ags_ref_s = s.ags_s * ref / wall
        if s.nsbb_s is not None:
            s.nsbb_ref_s = s.nsbb_s * ref / wall
        return s

    tracer = Tracer()
    plain: list[Solve] = []
    traced: list[Solve] = []
    summary = None
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        set_up(SETUP_MIN_S, Path(tmp))
        deadline = time.perf_counter() + seconds
        # every scene is solved at least once per kind of solve, also when the
        # host is so slow that the deadline passes first
        while (time.perf_counter() < deadline or len(plain) < wl.scenes
               or (trace and len(traced) < wl.scenes)):
            scene = len(plain) % wl.scenes
            plain.append(timed(plain_solve, scene))
            set_up(SETUP_SLICE_S, Path(tmp))
            if trace:
                traced.append(timed(traced_timed_solve, scene))
                set_up(SETUP_SLICE_S, Path(tmp))
                if summary is None and traced[-1].error is None:
                    summary = tracer.summarize()
                    spans = list(tracer.spans)

    # Checks and determinism comparisons run outside the timed loop: between
    # solves of one scene in this run (exact), and against the fingerprints
    # that baseline.json holds for the same scene seed and library sources
    # (another process).
    failures: list[str] = []
    failed = 0
    reference = {}  # each value as the first solve of the scene that has it gave it
    baseline = baseline_fingerprints(wl, ctx)
    for k, s in enumerate(plain + traced):
        kind = "traced" if k >= len(plain) else "plain"
        if s.error is not None:
            problems = ["raised: " + s.error.strip().splitlines()[-1]]
        else:
            problems = check(s, *scenes[s.scene])
            base = baseline.get(str(seeds[s.scene]), {})
            for key, value in fingerprint(s).items():
                ref = reference.setdefault((s.scene, key), value)
                if value != ref:
                    problems.append(f"nondeterministic {key}: {value!r} != {ref!r}")
                if key in base and not same_across_processes(value, base[key]):
                    problems.append(f"{key} {value!r} differs from baseline.json {base[key]!r}")
        if problems:
            failed += 1
            failures.append(f"{kind} solve {k}: " + "; ".join(problems))
    attempted = len(plain) + len(traced)
    ok = [s for s in plain if s.error is None]
    fingerprints: dict[str, dict] = {}
    for s in ok + [s for s in traced if s.error is None]:
        fingerprints.setdefault(str(seeds[s.scene]), {}).update(fingerprint(s))

    e2e = {
        "setup_s": statistics.median(setup_samples),
        # aGS does the same work on every scene of a workload (n_d and the
        # rounds fix the evaluations, the cloud sizes fix their cost), so a
        # median over all solves, which one mis-scaled solve cannot move, is
        # taken instead of the mean over scenes
        "ags_s": statistics.median(ref_ags_s(s) for s in ok) if ok else None,
        "solve_s": _scene_mean(ok, ref_solve_s),
        "gap_rel": _scene_mean(ok, gap_rel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nsbb_s": _scene_mean(ok, ref_nsbb_s),
        "angle_err_deg": _scene_mean(ok, angle_err_deg),
        "fail_frac": failed / attempted,
    }
    units = dict(END_TO_END + RECORD_ONLY)
    record = {
        "context": ctx,
        "end_to_end": {k: {"value": e2e[k], "unit": units[k]} for k in units},
        "scene_seeds": seeds,
        "solve_scenes": [s.scene for s in ok],
        "fingerprints": fingerprints,
        "baseline_fingerprints_checked": sorted(set(baseline) & set(fingerprints)),
        "wall_samples": {
            "setup_s": setup_walls,
            "ags_s": [s.ags_s for s in ok],
            "nsbb_s": [s.nsbb_s for s in ok],
        },
        "reference_samples": {
            "probe_ref_s": PROBE_REF_S[wl.probe],
            "setup_s": setup_samples,
            "ags_s": [s.ags_ref_s for s in ok],
            "nsbb_s": [s.nsbb_ref_s for s in ok],
            "probe_s": clock.probe_s,
            "setup_probe_s": setup_clock.probe_s,
        },
        "failures": failures,
    }
    if trace:
        ok_traced = [s for s in traced if s.error is None]
        layers = {}
        for name, unit, _deps, _value, moves in PER_LAYER:
            value = _scene_mean(ok_traced, lambda s: _scaled(s.layers[name], unit, _scale(s)))
            layers[name] = {"value": value, "unit": unit, "moves": moves}
        t_plain = e2e["solve_s"]
        t_traced = _scene_mean(ok_traced, ref_solve_s)
        overhead = t_traced / t_plain - 1.0 if t_plain and t_traced else None
        layers[OVERHEAD[0]] = {"value": overhead,
                               "unit": OVERHEAD[1], "moves": "none (tracing cost)"}
        record["per_layer"] = layers
        record["missing"] = tracer.missing
        if summary is not None:
            record["trace"] = {
                "root_s": summary.root_s,
                "self_sum_s": summary.self_sum_s(),
                "layers": {n: asdict(t) for n, t in sorted(summary.layers.items())},
                "counters": summary.counters,
            }
            record["spans_file"] = _write_spans(wl, seed, spans)
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    record["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                        "metrics": metrics}
    return record


def _results_dir() -> Path:
    d = ROOT / "bench_results"
    d.mkdir(exist_ok=True)
    return d


def _write_spans(wl: Workload, seed: int, spans: list) -> str:
    """Write the spans of the first traced solve; returns the file name."""
    path = _results_dir() / f"SPANS_{wl.name}_seed{seed}.json.gz"
    t0 = spans[0][1] if spans else 0.0
    rows = [[name, start - t0, end - t0, parent] for name, start, end, parent in spans]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
    return str(path.relative_to(ROOT))


def print_table(wl_name: str, record: dict) -> None:
    print(f"# workload {wl_name}, seed {record['context']['seed']}, "
          f"{record['result']['attempted']} solves, {record['result']['failed']} failed")
    for section in ("end_to_end", "per_layer"):
        for name, m in record.get(section, {}).items():
            value = "missing" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:36s} {value:>14s} {m['unit']}")
    if "trace" in record:
        t = record["trace"]
        print(f"# layer self times sum to {t['self_sum_s']:.6g} s; traced solve {t['root_s']:.6g} s")
    for line in record["failures"]:
        print("# FAILED " + line)
    for name in record.get("missing", []):
        print("# MISSING " + name)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if args.workload != "all":
        record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
        path = _results_dir() / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print_table(args.workload, record)
        print(json.dumps(record["result"]))
        return 0

    # One child process per workload: peak_rss_mb is the peak over a process's
    # life, so a workload run after ags-large in the same process would report
    # ags-large's peak.
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"# workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
