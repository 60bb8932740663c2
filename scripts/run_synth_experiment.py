#!/usr/bin/env python3
"""End-to-end synthetic experiment: generate a scene with planted boresight
angles, run the adaptive grid search, then certify the optimum with the
spatial branch-and-bound solver, and report recovery errors.

Example:
    python3 scripts/run_synth_experiment.py --n 200,500 --angles 1,-0.5,0.25 \
        --eps-rel 0.01
"""

import argparse
import sys
import time

import numpy as np

from boresight.cloud import synth_generate
from boresight.gopt import nsbb_solve
from boresight.rotation import AngleBox, EulerAngles
from boresight.search import AgsConfig, ags_run, evaluate_ub


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n", default="200,500", help="hat,bar point counts")
    p.add_argument("--angles", default="1,-0.5,0.25", help="planted angles, degrees")
    p.add_argument("--noise", type=float, default=0.0, help="ranging noise sigma, metres")
    p.add_argument("--bounds", type=float, default=2.0, help="box half-width, degrees")
    p.add_argument("--nd", type=int, default=10, help="grid subdivisions per axis")
    p.add_argument("--rounds", type=int, default=5, help="grid-search rounds")
    p.add_argument("--eps-rel", type=float, default=0.01)
    p.add_argument("--eps-abs", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    n_hat, n_bar = (int(v) for v in args.n.split(","))
    truth = EulerAngles.from_degrees(*(float(v) for v in args.angles.split(",")))
    hat, bar, _ = synth_generate(n_hat, n_bar, truth, args.noise, seed=args.seed)
    box = AngleBox.symmetric_deg(args.bounds)
    print(f"scene: |hat|={n_hat} |bar|={n_bar} noise={args.noise} seed={args.seed}")
    print(f"planted angles (deg): {truth.to_degrees()}")
    print(f"objective at zero angles: {evaluate_ub(hat, bar, EulerAngles(0, 0, 0)).objective:.6g}")

    t0 = time.monotonic()
    best = ags_run(hat, bar, AgsConfig(n_d=args.nd, t_max=120.0, box=box,
                                       max_rounds=args.rounds, seed=args.seed)).best
    t_ags = time.monotonic() - t0
    err = np.degrees(np.abs(best.angles.as_array() - truth.as_array()))
    print(f"\naGS: objective={best.objective:.6g} in {t_ags:.1f}s")
    print(f"aGS angles (deg): {tuple(round(v, 6) for v in best.angles.to_degrees())}")
    print(f"aGS per-axis error (deg): {np.array2string(err, precision=4)}")

    t0 = time.monotonic()
    rep = nsbb_solve(hat, bar, box, eps_rel=args.eps_rel, eps_abs=args.eps_abs,
                     f_upper_init=best)
    t_nsbb = time.monotonic() - t0
    err = np.degrees(np.abs(rep.incumbent.angles.as_array() - truth.as_array()))
    print(f"\nnsBB: f_lower={rep.f_lower:.6g} f_upper={rep.f_upper:.6g} "
          f"({rep.converged_by}) in {t_nsbb:.1f}s")
    print(f"nsBB nodes explored={rep.nodes_explored} "
          f"pruned(bound)={rep.nodes_pruned_bound} pruned(infeasible)={rep.nodes_pruned_infeasible}")
    print(f"nsBB angles (deg): {tuple(round(v, 6) for v in rep.incumbent.angles.to_degrees())}")
    print(f"nsBB per-axis error (deg): {np.array2string(err, precision=4)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
