#!/usr/bin/env python3
"""Full-scale calibration runs on released survey datasets (out of CI).

Expects a directory of fused-format files named <name>_hat.txt / <name>_bar.txt
(e.g. car_hat.txt, car_bar.txt, tent_..., truck_...). For each dataset it runs
the adaptive grid search (n_d=30, 100 s budget) to seed the upper bound, then
the branch-and-bound solver with eps_rel=0.01 / eps_abs=0.1 over the
+-2 degree box.

Reference result for the car dataset: objective at zero angles about 873.5,
grid-search objective about 12.4, certified optimum about 11.9 at angles
near (-1.434, 0.940, -0.282) degrees.

Usage:
    python3 scripts/reproduce_full_scale.py /path/to/datasets [name ...]
"""

import sys
import time
from pathlib import Path

from boresight.cloud import load_fused
from boresight.gopt import nsbb_solve
from boresight.rotation import AngleBox, EulerAngles
from boresight.search import AgsConfig, ags_run, evaluate_ub


def run_dataset(base: Path, name: str) -> None:
    hat = load_fused(str(base / f"{name}_hat.txt"))
    bar = load_fused(str(base / f"{name}_bar.txt"))
    box = AngleBox.symmetric_deg(2.0)
    print(f"== {name}: |hat|={len(hat)} |bar|={len(bar)} ==")
    print(f"objective at zero angles: "
          f"{evaluate_ub(hat, bar, EulerAngles(0, 0, 0)).objective:.4f}")

    t0 = time.monotonic()
    best = ags_run(hat, bar, AgsConfig(n_d=30, t_max=100.0, box=box)).best
    print(f"aGS objective: {best.objective:.4f} in {time.monotonic() - t0:.1f}s")

    t0 = time.monotonic()
    rep = nsbb_solve(hat, bar, box, eps_rel=0.01, eps_abs=0.1, f_upper_init=best)
    angles = tuple(round(v, 3) for v in rep.incumbent.angles.to_degrees())
    print(f"nsBB f_upper: {rep.f_upper:.4f} f_lower: {rep.f_lower:.4f} "
          f"({rep.converged_by}) in {time.monotonic() - t0:.1f}s")
    print(f"angles (deg): {angles}\n")


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    base = Path(argv[0])
    names = argv[1:] or sorted(
        p.name.removesuffix("_hat.txt") for p in base.glob("*_hat.txt")
    )
    if not names:
        print(f"no *_hat.txt files found under {base}", file=sys.stderr)
        return 1
    for name in names:
        run_dataset(base, name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
