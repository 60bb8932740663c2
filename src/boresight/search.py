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
# Nearest-point candidates per hat point above which a batch of angles builds one
# KD-tree per angle instead of sharing one (evaluate_many). aGS time against a tree
# per angle for 8 / 16 / 32 (n_d=10, 5 rounds, median of 11 alternations, 2-vCPU
# VM): 30x60 -50/-55/-51%, 100x250 -35/-44/-37%, 500x1250 +1/-9/-7%.
_CANDIDATES_PER_POINT = 16


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
    and the nearest bar indices: (m,) and (m, n_hat), each row the same for any m.
    The batch shares the middle row's KD-tree when _candidates certifies short
    candidate lists, and builds one per row otherwise."""
    p_hat = georeference(hat, angles)
    p_bar = georeference(bar, angles)
    m, n = len(p_hat), len(hat)
    r = m // 2
    ref = NnIndex(p_bar[r])
    j_r, d2_r = ref.query_many(p_hat[r])
    objectives = np.empty(m)
    assignments = np.empty((m, n), dtype=np.intp)
    cand = _candidates(ref, p_hat, p_bar, r, d2_r) if m > 1 else None
    if cand is None:
        for k in range(m):
            assignments[k], d2 = (j_r, d2_r) if k == r else NnIndex(p_bar[k]).query_many(p_hat[k])
            objectives[k] = d2.sum()
        return objectives, assignments
    counts, j = cand
    starts, pos = np.cumsum(counts) - counts, np.arange(len(j))
    rows = np.repeat(np.arange(n), counts)
    chunk = max(1, BATCH_BYTES // (24 * len(j)))
    for k0 in range(0, m, chunk):
        # query_many's formula (p[j] - q, summed over the coordinates, then over
        # the hat points), so each row is bitwise what a per-angle tree gives
        diffs = p_bar[k0:k0 + chunk, j]
        diffs -= p_hat[k0:k0 + chunk, rows]
        d2 = np.einsum("ktc,ktc->kt", diffs, diffs)
        low = np.repeat(np.minimum.reduceat(d2, starts, axis=1), counts, axis=1)
        first = np.minimum.reduceat(np.where(d2 == low, pos, len(j)), starts, axis=1)
        assignments[k0:k0 + chunk] = j[first]  # each list's first minimiser
        objectives[k0:k0 + chunk] = np.take_along_axis(d2, first, axis=1).sum(axis=1)
    return objectives, assignments


def _candidates(ref: NnIndex, p_hat: np.ndarray, p_bar: np.ndarray, r: int,
                d2_r: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Flat (counts, indices) of the bar points that can be a hat point's nearest at
    some row, or None past _CANDIDATES_PER_POINT per hat point. ref is row r's tree
    and d2_r the squared nearest distances d_i^2 there. With delta the largest move
    of a hat point plus that of a bar point away from row r, the triangle inequality
    puts i's nearest point at any row within d_i + 2 delta of i at row r."""
    delta = 0.0
    for p in (p_hat, p_bar):
        moves = p - p[r]
        delta += np.sqrt(np.einsum("kic,kic->ki", moves, moves).max())
    radius = np.sqrt(d2_r) + 2.0 * delta
    radius += 1e-12 * (radius.max() + np.abs(p_bar[r]).max())  # rounding, UTM-scale included
    # every C-th hat point first: a cheap count that turns wide batches away
    sample = slice(None, None, _CANDIDATES_PER_POINT)
    counts, _ = ref.query_ball(p_hat[r][sample], radius[sample], cap=-1)
    if counts.sum() > _CANDIDATES_PER_POINT * len(counts):
        return None
    counts, j = ref.query_ball(p_hat[r], radius, cap=_CANDIDATES_PER_POINT * len(radius))
    return None if j is None else (counts, j)


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
