"""Objective evaluation at fixed angles and the adaptive grid search heuristic."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .cloud import Cloud, georeference
from .rotation import AngleBox, EulerAngles
from .spatial import NnIndex

_MIN_BOX_WIDTH = 1e-6  # radians; below this the grid restarts with jitter
# Georeferenced points (24 bytes each, both clouds) that one aGS batch holds
BATCH_BYTES = 1 << 18


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

    def __post_init__(self) -> None:
        if self.n_d < 1:
            raise ValueError("n_d must be >= 1")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must be in (0, 1)")
        if self.t_max <= 0:
            raise ValueError("t_max must be > 0")


@dataclass
class AgsResult:
    best: Evaluation
    rounds: int
    n_evals: int


def evaluate_many(hat: Cloud, bar: Cloud, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (m, 3) angle array, the sum over hat points of the exact nearest
    squared distance to the georeferenced bar cloud (a valid global upper bound)
    and the nearest bar indices: (m,) and (m, n_hat), each row the same for any m."""
    p_hat = georeference(hat, angles)
    p_bar = georeference(bar, angles)
    objectives = np.empty(len(p_hat))
    assignments = np.empty((len(p_hat), len(hat)), dtype=np.intp)
    for k in range(len(p_hat)):
        assignments[k], d2 = NnIndex(p_bar[k]).query_many(p_hat[k])
        objectives[k] = d2.sum()
    return objectives, assignments


def evaluate_ub(hat: Cloud, bar: Cloud, angles: EulerAngles) -> Evaluation:
    """Feasible objective at one set of angles (evaluate_many's one-row case)."""
    objectives, assignments = evaluate_many(hat, bar, angles.as_array()[None])
    return Evaluation(angles=angles, objective=float(objectives[0]), assignment=assignments[0])


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
    checked after every batch of cells (BATCH_BYTES of points), mid-round too."""
    box0 = cfg.box
    box = box0
    rng = np.random.default_rng(cfg.seed)
    batch = max(1, BATCH_BYTES // (24 * (len(hat) + len(bar))))
    best: Evaluation | None = None
    rounds = 0
    n_evals = 0
    jitter: np.ndarray | None = None
    t0 = time.monotonic()

    def out_of_time() -> bool:
        return time.monotonic() - t0 >= cfg.t_max

    while True:
        rounds += 1
        centers = _cell_centers(box, cfg.n_d, jitter, box0)
        jitter = None
        for k in range(0, len(centers), batch):
            angles = centers[k:k + batch]
            objectives, assignments = evaluate_many(hat, bar, angles)
            n_evals += len(angles)
            # the incumbent, then the lowest linear cell index, wins ties
            b = int(np.argmin(objectives))
            if best is None or objectives[b] < best.objective:
                best = Evaluation(EulerAngles(*angles[b]), float(objectives[b]), assignments[b])
            if out_of_time():
                break

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
