"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Criteria 1-7, 9 and 10 run on synthetic data at desk scale. Criterion 8 (reproduction on
the released survey datasets) needs external files and is skipped unless the
BORESIGHT_DATASET_DIR environment variable is set; see
scripts/reproduce_full_scale.py for the out-of-CI procedure.
"""

import math
import os
import time

import numpy as np
import pytest

from boresight.cloud import synth_generate
from boresight.gopt import nsbb_solve
from boresight.reduce import PairSet, reduce_pairs
from boresight.relax import _reach_bounds, compute_pair_set
from boresight.rotation import (
    AngleBox,
    EulerAngles,
    rotation_from_angles,
    rotation_from_quad,
    rotation_interval,
    rotation_matrices,
)
from boresight.search import AgsConfig, ags_run, evaluate_ub
from boresight.spatial import gjk_min_sq_dist, max_vertex_sq_dist

PLANTED = EulerAngles.from_degrees(1.0, -0.5, 0.25)


def announce(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_criterion_1_rotation_correctness(capsys):
    """10^4 random triples: orthonormality/determinant and quadratic-form
    agreement within 1e-12, in under a second."""
    rng = np.random.default_rng(100)
    t0 = time.monotonic()
    triples = rng.uniform(-3.0, 3.0, size=(10_000, 3))
    Rs = rotation_matrices(triples[:, 0], triples[:, 1], triples[:, 2])
    ortho = np.abs(np.einsum("nji,njk->nik", Rs, Rs) - np.eye(3)).max()
    det = np.abs(np.linalg.det(Rs) - 1.0).max()
    quad_err = 0.0
    for a, b, g in triples[:1000]:
        Rq = rotation_from_quad(
            math.cos(a), math.sin(a), math.cos(b), math.sin(b),
            math.cos(g), math.sin(g),
            math.cos(g) * math.sin(b), math.sin(b) * math.sin(g),
        )
        quad_err = max(quad_err, np.abs(Rq - rotation_from_angles(EulerAngles(a, b, g))).max())
    elapsed = time.monotonic() - t0
    ok = ortho <= 1e-12 and det <= 1e-12 and quad_err <= 1e-12 and elapsed < 1.0
    announce(capsys, 1, ok,
             f"ortho {ortho:.2e}, det {det:.2e}, quad {quad_err:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_enclosure_soundness(capsys):
    """100 random angle boxes x 10^4 samples: every rotation entry and every
    rotated point inside its interval enclosure; zero violations, < 30 s."""
    rng = np.random.default_rng(200)
    t0 = time.monotonic()
    violations = 0
    for _ in range(100):
        lows = rng.uniform(-1.5, 1.4, size=3)
        highs = lows + rng.uniform(0.0, 1.5, size=3)
        box = AngleBox.from_arrays(lows, highs)
        ri = rotation_interval(box)
        samples = box.sample(rng, 10_000)
        Rs = rotation_matrices(samples[:, 0], samples[:, 1], samples[:, 2])
        violations += int(np.sum(Rs < ri.lo - 1e-12) + np.sum(Rs > ri.hi + 1e-12))
        l = rng.normal(scale=10.0, size=3)
        k_lo, k_hi = _reach_bounds(ri, l[None])
        pts = Rs @ l
        violations += int(np.sum(pts < k_lo - 1e-9) + np.sum(pts > k_hi + 1e-9))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 30.0
    announce(capsys, 2, ok, f"{violations} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_3_pair_bound_soundness(capsys):
    """200 random pairs over the +-2 degree box, 10^3 sampled angles each:
    sampled squared distance within [c_lo - 1e-6, c_hi + 1e-6]; < 2 min."""
    hat, bar, _ = synth_generate(60, 150, PLANTED, 0.0, seed=300)
    box = AngleBox.symmetric_deg(2.0)
    rng = np.random.default_rng(301)
    t0 = time.monotonic()
    samples = []
    for _ in range(200):
        i = int(rng.integers(len(hat)))
        j = int(rng.integers(len(bar)))
        samples.append((i, j, box.sample(rng, 1000)))
    keys = list(dict.fromkeys((i, j) for i, j, _ in samples))  # PairSet rejects repeats
    n = len(keys)
    pairs = PairSet(n_hat=len(hat), i=[k[0] for k in keys], j=[k[1] for k in keys],
                    c_lo=np.zeros(n), c_hi=np.full(n, np.inf))
    ps = compute_pair_set(hat, bar, box, pairs)
    row = {key: k for k, key in enumerate(keys)}
    violations = 0
    for i, j, angles in samples:
        k = row[(i, j)]
        Rs = rotation_matrices(angles[:, 0], angles[:, 1], angles[:, 2])
        p_hat = hat.s[i] + np.einsum("ij,njk,k->ni", hat.ins_rotation[i], Rs, hat.l[i])
        p_bar = bar.s[j] + np.einsum("ij,njk,k->ni", bar.ins_rotation[j], Rs, bar.l[j])
        d2 = np.einsum("ni,ni->n", p_hat - p_bar, p_hat - p_bar)
        violations += int(np.sum(d2 < ps.c_lo[k] - 1e-6) + np.sum(d2 > ps.c_hi[k] + 1e-6))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 120.0
    announce(capsys, 3, ok, f"{violations} violations over {n} distinct pairs, {elapsed:.1f}s")
    assert ok


def test_criterion_4_gjk_exactness(capsys, qp_min_sq_dist):
    """100 random polytope pairs vs an independent QP oracle within 1e-6,
    plus the exact axis-aligned cube cases (4 and 18); < 30 s."""

    def cube(center, half=0.5):
        c = np.asarray(center, dtype=float)
        corners = np.array([[sx, sy, sz] for sx in (-half, half)
                            for sy in (-half, half) for sz in (-half, half)])
        return c + corners

    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(400)
    for _ in range(100):
        a = rng.normal(size=(int(rng.integers(1, 9)), 3)) + rng.normal(scale=2, size=3)
        b = rng.normal(size=(int(rng.integers(1, 9)), 3)) + rng.normal(scale=2, size=3)
        worst = max(worst, abs(gjk_min_sq_dist(a, b) - qp_min_sq_dist(a, b)))
    cube_min = gjk_min_sq_dist(cube([0, 0, 0]), cube([3, 0, 0]))
    cube_max = max_vertex_sq_dist(cube([0, 0, 0]), cube([3, 0, 0]))
    elapsed = time.monotonic() - t0
    ok = (worst <= 1e-6 and abs(cube_min - 4.0) <= 1e-9
          and abs(cube_max - 18.0) <= 1e-9 and elapsed < 30.0)
    announce(capsys, 4, ok,
             f"worst |delta| {worst:.2e}, cubes ({cube_min:.9f}, {cube_max:.9f}), {elapsed:.1f}s")
    assert ok


def test_criterion_5_reduction_safety(capsys):
    """20 random brute-forceable instances, 0.01-degree grid: wherever the
    objective is at or below the valid upper bound, the optimal assignment
    uses only retained pairs; zero violations, < 10 min."""
    t0 = time.monotonic()
    violations = 0
    grid_points = 0
    box = AngleBox.symmetric_deg(2.0)
    offsets = np.radians(np.arange(-0.06, 0.0601, 0.01))
    grid = np.stack(np.meshgrid(offsets, offsets, offsets), axis=-1).reshape(-1, 3)
    for seed in range(20):
        hat, bar, _ = synth_generate(20, 40, PLANTED, 0.0, seed=500 + seed)
        f_upper = evaluate_ub(hat, bar, PLANTED).objective + 1e-9
        red = reduce_pairs(compute_pair_set(hat, bar, box), f_upper)
        assert not red.infeasible
        kept = set(zip(red.pairs.i.tolist(), red.pairs.j.tolist()))
        angles = grid + PLANTED.as_array()
        Rs = rotation_matrices(angles[:, 0], angles[:, 1], angles[:, 2])
        p_hat = hat.s + np.einsum("nij,gjk,nk->gni", hat.ins_rotation, Rs, hat.l)
        p_bar = bar.s + np.einsum("nij,gjk,nk->gni", bar.ins_rotation, Rs, bar.l)
        d = p_hat[:, :, None, :] - p_bar[:, None, :, :]
        d2 = np.einsum("gijk,gijk->gij", d, d)
        f = d2.min(axis=2).sum(axis=1)
        argmin = d2.argmin(axis=2)
        for g in np.flatnonzero(f <= f_upper):
            grid_points += 1
            for i, j in enumerate(argmin[g]):
                if (i, int(j)) not in kept:
                    violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and grid_points > 0 and elapsed < 600.0
    announce(capsys, 5, ok,
             f"{violations} violations over {grid_points} admissible grid angles, {elapsed:.1f}s")
    assert ok


@pytest.fixture(scope="module")
def recovery_run():
    """Shared aGS + nsBB run at the stated scale (criteria 6 and 7)."""
    hat, bar, _ = synth_generate(200, 500, PLANTED, 0.0, seed=600)
    box = AngleBox.symmetric_deg(2.0)
    t0 = time.monotonic()
    best = ags_run(hat, bar, AgsConfig(n_d=10, t_max=120.0, box=box, max_rounds=5)).best
    t_ags = time.monotonic() - t0
    t0 = time.monotonic()
    report = nsbb_solve(hat, bar, box, eps_rel=0.01, eps_abs=0.1,
                        f_upper_init=best, time_limit=850.0)
    t_nsbb = time.monotonic() - t0
    return hat, bar, best, t_ags, report, t_nsbb


def test_criterion_6_synthetic_global_recovery(capsys, recovery_run):
    """Planted (1, -0.5, 0.25) degrees at |hat|=200, |bar|=500: aGS within
    0.05 degrees/axis, nsBB certifies within 0.1 degrees/axis of a
    0.005-degree grid-oracle optimum, objective drops by >= 50x."""
    hat, bar, best, t_ags, report, t_nsbb = recovery_run
    ags_err = np.degrees(np.abs(best.angles.as_array() - PLANTED.as_array()))

    # grid oracle: 0.005-degree steps over the neighborhood that contains
    # every angle with objective at or below the certified upper bound
    offsets = np.radians(np.arange(-0.05, 0.0501, 0.005))
    grid = (np.stack(np.meshgrid(offsets, offsets, offsets), axis=-1).reshape(-1, 3)
            + PLANTED.as_array())
    values = [evaluate_ub(hat, bar, EulerAngles(*g)).objective for g in grid]
    oracle_angles = grid[int(np.argmin(values))]
    nsbb_err = np.degrees(np.abs(report.incumbent.angles.as_array() - oracle_angles))

    f_init = evaluate_ub(hat, bar, EulerAngles(0, 0, 0)).objective
    ratio = f_init / max(report.f_upper, 1e-30)
    certified = report.converged_by in ("gap_abs", "gap_rel", "exhausted")

    ok = (np.all(ags_err <= 0.05) and np.all(nsbb_err <= 0.1) and certified
          and ratio >= 50.0 and t_ags < 120.0 and t_nsbb < 900.0)
    announce(capsys, 6, ok,
             f"aGS err {ags_err.max():.4f} deg in {t_ags:.0f}s, "
             f"nsBB err {nsbb_err.max():.4f} deg in {t_nsbb:.0f}s "
             f"({report.converged_by}), objective ratio {ratio:.0f}x")
    assert ok


def test_criterion_7_bound_discipline(capsys, recovery_run):
    """Logged (f_lower, f_upper) sequences are monotone, sandwich the final
    objective, and the terminal gap meets the configured tolerances."""
    hat, bar, _, _, report, _ = recovery_run
    lowers = [e[0] for e in report.bound_log]
    uppers = [e[1] for e in report.bound_log]
    monotone = (all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))
                and all(b <= a + 1e-15 for a, b in zip(uppers, uppers[1:])))
    final = evaluate_ub(hat, bar, report.incumbent.angles).objective
    sandwich = (all(lo <= up + 1e-12 for lo, up in report.bound_log)
                and report.f_lower - 1e-12 <= final <= report.f_upper + 1e-12)
    gap_ok = report.gap_rel <= 0.01 or report.gap_abs <= 0.1
    ok = monotone and sandwich and gap_ok
    announce(capsys, 7, ok,
             f"monotone={monotone}, sandwich={sandwich}, "
             f"gap_abs={report.gap_abs:.3g}, gap_rel={report.gap_rel:.3g}")
    assert ok


@pytest.mark.skipif("BORESIGHT_DATASET_DIR" not in os.environ,
                    reason="released survey datasets not available; "
                           "see scripts/reproduce_full_scale.py")
def test_criterion_8_full_scale_reproduction(capsys):
    """Out-of-CI reproduction on released datasets (fused-format files named
    <name>_hat.txt / <name>_bar.txt under BORESIGHT_DATASET_DIR)."""
    import subprocess
    import sys

    base = os.environ["BORESIGHT_DATASET_DIR"]
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "..",
                                      "scripts", "reproduce_full_scale.py"), base],
        capture_output=True, text=True,
    )
    ok = proc.returncode == 0
    announce(capsys, 8, ok, "reproduction script " + ("succeeded" if ok else "failed"))
    assert ok, proc.stdout + proc.stderr


def test_criterion_9_noisy_branching_certificate(capsys):
    """A noisy 8x16 scene over a +-0.5 degree box around the planted angles
    must branch and close at eps_rel = 0.2: f_lower at or below the minimum of
    a 25^3 grid of the box, f_upper within the tolerance of it, and the
    incumbent an evaluated point of the box; < 2 min."""
    hat, bar, _ = synth_generate(8, 16, PLANTED, 0.02, seed=3)
    half = math.radians(0.5)
    box = AngleBox.from_arrays(PLANTED.as_array() - half, PLANTED.as_array() + half)
    eps_rel = 0.2
    t0 = time.monotonic()
    report = nsbb_solve(hat, bar, box, eps_rel=eps_rel, eps_abs=1e-6)
    t_nsbb = time.monotonic() - t0
    axes = [np.linspace(lo, hi, 25) for lo, hi in zip(box.lows(), box.highs())]
    grid_min = min(evaluate_ub(hat, bar, EulerAngles(a, b, g)).objective
                   for a in axes[0] for b in axes[1] for g in axes[2])
    inc = report.incumbent.angles.as_array()
    ok = (report.nodes_explored > 0
          and report.converged_by in ("gap_rel", "gap_abs", "exhausted")
          and report.f_lower <= grid_min
          and report.f_upper <= grid_min / (1.0 - eps_rel)
          and report.f_upper == evaluate_ub(hat, bar, report.incumbent.angles).objective
          and bool(np.all((box.lows() <= inc) & (inc <= box.highs())))
          and t_nsbb < 120.0)
    announce(capsys, 9, ok,
             f"{report.nodes_explored} nodes ({report.converged_by}) in {t_nsbb:.1f}s, "
             f"f_lower {report.f_lower:.6g} <= grid min {grid_min:.6g}, "
             f"f_upper {report.f_upper:.6g}")
    assert ok


def test_criterion_10_w3_certificate_at_one_percent(capsys):
    """W3, the noisy 10x20 scene over the +-2 degree box with an aGS warm
    start, certified at eps_rel = 0.01: f_lower at or below the minimum of a
    25^3 grid of the box and of an 11^3 grid of +-0.02 degrees around the
    incumbent, f_upper within the tolerance of the latter, and the incumbent
    an evaluated point of the box; < 5 s."""
    hat, bar, _ = synth_generate(10, 20, PLANTED, 0.02, seed=600)
    box = AngleBox.symmetric_deg(2.0)
    eps_rel = 0.01
    best = ags_run(hat, bar, AgsConfig(n_d=10, t_max=120.0, box=box, max_rounds=5)).best
    t0 = time.monotonic()
    report = nsbb_solve(hat, bar, box, eps_rel=eps_rel, eps_abs=1e-6, f_upper_init=best)
    t_nsbb = time.monotonic() - t0

    def grid_min(centre, half, n):
        axes = [np.linspace(c - half, c + half, n) for c in centre]
        return min(evaluate_ub(hat, bar, EulerAngles(a, b, g)).objective
                   for a in axes[0] for b in axes[1] for g in axes[2])

    inc = report.incumbent.angles.as_array()
    box_min = grid_min(np.zeros(3), math.radians(2.0), 25)
    sharp_min = grid_min(inc, math.radians(0.02), 11)
    ok = (report.nodes_explored > 0
          and report.converged_by in ("gap_rel", "gap_abs", "exhausted")
          and report.f_lower <= box_min
          and report.f_lower <= sharp_min
          and report.f_upper <= sharp_min / (1.0 - eps_rel)
          and report.f_upper == evaluate_ub(hat, bar, report.incumbent.angles).objective
          and bool(np.all((box.lows() <= inc) & (inc <= box.highs())))
          and t_nsbb < 5.0)
    announce(capsys, 10, ok,
             f"{report.nodes_explored} nodes ({report.converged_by}) in {t_nsbb:.1f}s, "
             f"f_lower {report.f_lower:.6g} <= sharp grid min {sharp_min:.6g}, "
             f"f_upper {report.f_upper:.6g}, gap_rel {report.gap_rel:.3g}")
    assert ok
