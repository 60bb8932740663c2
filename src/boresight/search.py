"""Objective evaluation at fixed angles and the adaptive grid search heuristic."""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .cloud import Cloud, georeference
from .rotation import AngleBox, EulerAngles
from .spatial import NnIndex

_MIN_BOX_WIDTH = 1e-6  # radians; below this the grid restarts with jitter


@dataclass(frozen=True)
class Evaluation:
    """Objective value at fixed angles with the nearest-point assignment."""

    angles: EulerAngles
    objective: float
    assignment: np.ndarray  # matched bar index per hat point


@dataclass(frozen=True)
class AgsConfig:
    n_d: int
    t_max: float
    box: AngleBox
    shrink: float = 0.10
    seed: int = 0
    max_rounds: int | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.n_d < 1:
            raise ValueError("n_d must be >= 1")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must be in (0, 1)")
        if self.t_max <= 0:
            raise ValueError("t_max must be > 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class AgsResult:
    best: Evaluation
    rounds: int
    n_evals: int


def evaluate_ub(hat: Cloud, bar: Cloud, angles: EulerAngles) -> Evaluation:
    """Feasible objective: sum over hat points of the exact nearest squared
    distance to the georeferenced bar cloud. Any such value is a valid global
    upper bound."""
    if len(hat) == 0 or len(bar) == 0:
        raise ValueError("clouds must be non-empty")
    p_hat = georeference(hat, angles)
    p_bar = georeference(bar, angles)
    index = NnIndex(p_bar)
    j, d2 = index.query_many(p_hat)
    return Evaluation(angles=angles, objective=float(d2.sum()), assignment=j)


def _cell_centers(box: AngleBox, n_d: int, jitter: np.ndarray | None,
                  clip_box: AngleBox) -> np.ndarray:
    lows, widths = box.lows(), box.widths()
    cell = widths / n_d
    axes = [lows[a] + cell[a] * (np.arange(n_d) + 0.5) for a in range(3)]
    centers = np.array(list(itertools.product(*axes)), dtype=float)
    if jitter is not None:
        centers = centers + jitter
    return np.clip(centers, clip_box.lows(), clip_box.highs())


def ags_run(hat: Cloud, bar: Cloud, cfg: AgsConfig) -> AgsResult:
    """Adaptive grid search: evaluate the n_d^3 cell centers of the current
    box, recenter a shrunken box on the incumbent, repeat until the time (or
    round) budget runs out. The search never leaves the original box. t_max is
    checked after every batch of cfg.threads evaluations, mid-round too."""
    box0 = cfg.box
    box = box0
    rng = np.random.default_rng(cfg.seed)
    best: Evaluation | None = None
    rounds = 0
    n_evals = 0
    jitter: np.ndarray | None = None
    t0 = time.monotonic()

    def eval_at(c):
        return evaluate_ub(hat, bar, EulerAngles(c[0], c[1], c[2]))

    def out_of_time() -> bool:
        return time.monotonic() - t0 >= cfg.t_max

    with ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        while True:
            rounds += 1
            centers = _cell_centers(box, cfg.n_d, jitter, box0)
            jitter = None
            evals: list[Evaluation] = []
            for k in range(0, len(centers), cfg.threads):
                evals.extend(run(eval_at, centers[k:k + cfg.threads]))
                if out_of_time():
                    break
            n_evals += len(evals)

            # the incumbent, then the lowest linear cell index, wins ties
            best = min(evals if best is None else [best, *evals], key=lambda e: e.objective)

            if (cfg.max_rounds is not None and rounds >= cfg.max_rounds) or out_of_time():
                break

            # shrink around the incumbent (clipped into the original box); on a
            # stall we shrink anyway, and once the box collapses we restart from
            # the full box with a seeded jitter, keeping the incumbent
            widths = box.widths()
            if np.all(widths < _MIN_BOX_WIDTH):
                box = box0
                jitter = rng.uniform(-0.5, 0.5, size=3) * (box0.widths() / cfg.n_d)
                continue
            center = best.angles.as_array()
            half = cfg.shrink * widths
            lows = np.maximum(box0.lows(), center - half)
            highs = np.minimum(box0.highs(), center + half)
            box = AngleBox.from_arrays(lows, highs)

    assert best is not None
    return AgsResult(best=best, rounds=rounds, n_evals=n_evals)


def ags(hat: Cloud, bar: Cloud, cfg: AgsConfig) -> Evaluation:
    """Best evaluation found by the adaptive grid search."""
    return ags_run(hat, bar, cfg).best
