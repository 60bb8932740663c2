"""Objective evaluation at fixed angles and the adaptive grid search heuristic."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .cloud import POSE_ORTHO_TOL, Cloud, decimate, georeference
from .relax import GEOREF_ULPS, POINT_SLACK
from .rotation import AngleBox, EulerAngles, rotation_matrices
from .spatial import NnIndex

_MIN_BOX_WIDTH = 1e-6  # radians; below this the grid restarts with jitter
# Georeferenced points (24 bytes each, both clouds) that one aGS batch holds
BATCH_BYTES = 1 << 18
# Nearest-point candidates per hat point above which a batch of angles builds one
# KD-tree per angle instead of sharing one (_nearest_many). aGS time against a tree per
# angle for 16 / 24 / 32 (leaf size 64, n_d=10, 5 rounds, min of 5, 2-vCPU VM): 30x60
# -60/-65/-67%, 100x250 -62/-61/-62%, 500x1250 (min of 3) -11/-5/+2%.
_CANDIDATES_PER_POINT = 16
# Each aGS round first screens its cells on every _SCREEN_STRIDE-th hat point, a
# lower bound on their objectives, when that sample holds _SCREEN_MIN_POINTS or more.
# aGS time against no screen for strides 2 / 3 / 4 / 6 / 8 / 16 (n_d=10, median
# ratio of alternating pairs, 2-vCPU VM): 2000x5000 1 round -28/-37/-40/-/-42/-41%,
# 500x1250 3 rounds -/-26/-21/-/-13/-%, 200x500 5 rounds -/-10/-9/-1/-/-%, 100x250
# 5 rounds -/-10/-7/-5/-/-%. At stride 4, screening 30x60 took +4% and 64x160 -6%:
# the 16-point minimum screens n_hat >= 61.
_SCREEN_STRIDE = 4
_SCREEN_MIN_POINTS = 16
# Relative slack on the screen's bound. Its terms are bitwise terms of the full sum,
# so only rounding in the two sums differs: at most 2 n 2^-53, 2.2e-10 for 1e6 points.
_SCREEN_MARGIN = 1e-9
# Cells per block edge in _block_bounds. 2000x5000 aGS, 1 round of n_d=10 (seeds 1-3, min of
# 3, 2-vCPU VM, leaf size 64): 0.46-0.50 s at 2, 0.81-0.89 at 3, 1.05-1.14 at 4, 1.21-1.23 without.
_BLOCK_EDGE = 2


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
        if not self.t_max > 0:
            raise ValueError("t_max must be > 0")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class AgsResult:
    best: Evaluation
    rounds: int
    n_evals: int  # full evaluations
    n_screened: int  # cells not evaluated in full, their bound above the round's last incumbent


def evaluate_many(hat: Cloud, bar: Cloud, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (m, 3) angle array, the sum of _nearest_many's squared distances
    (a valid global upper bound) and its nearest bar indices: (m,) and (m, n_hat)."""
    d2, assignments = _nearest_many(hat, bar, angles)
    return d2.sum(axis=1), assignments


def _nearest_many(hat: Cloud, bar: Cloud, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (m, 3) angle array, each hat point's exact nearest squared
    distance to the georeferenced bar cloud and nearest bar index: (m, n_hat) each,
    each row the same for any m. The batch shares the middle row's KD-tree when
    _candidates certifies short candidate lists, and builds one per row otherwise."""
    p_hat, p_bar = georeference(hat, angles), georeference(bar, angles)
    m, n, r = len(p_hat), len(hat), len(p_hat) // 2
    ref = NnIndex(p_bar[r])
    j_r, d2_r = ref.query_many(p_hat[r])
    d2, nearest = np.empty((m, n)), np.empty((m, n), dtype=np.intp)
    cand = _candidates(ref, p_hat, p_bar, r, d2_r) if m > 1 else None
    if cand is None:
        for k in range(m):
            nearest[k], d2[k] = (j_r, d2_r) if k == r else NnIndex(p_bar[k]).query_many(p_hat[k])
        return d2, nearest
    counts, j = cand
    starts, pos = np.cumsum(counts) - counts, np.arange(len(j))
    rows = np.repeat(np.arange(n), counts)
    chunk = max(1, BATCH_BYTES // (24 * len(j)))
    for k0 in range(0, m, chunk):
        # query_many's formula (p[j] - q, summed over the coordinates), so each
        # distance is bitwise what a per-angle tree gives
        diffs = p_bar[k0:k0 + chunk, j]
        diffs -= p_hat[k0:k0 + chunk, rows]
        e = np.einsum("ktc,ktc->kt", diffs, diffs)
        d2[k0:k0 + chunk] = low = np.minimum.reduceat(e, starts, axis=1)
        first = np.minimum.reduceat(np.where(e == np.repeat(low, counts, axis=1), pos, len(j)),
                                    starts, axis=1)
        nearest[k0:k0 + chunk] = j[first]  # each list's first minimiser
    return d2, nearest


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


def _block_bounds(sample: Cloud, bar: Cloud, centers: np.ndarray, n_d: int,
                  deadline: float = np.inf) -> np.ndarray:
    """Lower bounds on the cells' sampled objectives (centers in _cell_centers' order)
    from nearest distances at the mean angle of each block of up to _BLOCK_EDGE^3 cells.
    Between that angle and a cell's, every point moves at most m ||l|| (INS poses are
    orthonormal to POSE_ORTHO_TOL), m = ||R(cell) - R(mean)||_F / sqrt(2) = 2 sin(phi/2),
    the spectral norm for rotations phi apart. So d_i at the mean angle falls by at
    most m (||l_i|| + max_j ||l_j||) plus the rounding of two georeferenced offsets.
    Blocks not reached by the deadline (checked between _nearest_many batches) keep bound 0."""
    reach = (1.0 + 2.0 * POSE_ORTHO_TOL) * (np.linalg.norm(sample.l, axis=1)
                                            + np.linalg.norm(bar.l, axis=1).max())
    scale = max(np.abs(sample.s).max(), np.abs(bar.s).max())
    slack = max(POINT_SLACK, 2 * GEOREF_ULPS * np.spacing(scale))
    axis, edges = np.arange(n_d) // _BLOCK_EDGE, -(-n_d // _BLOCK_EDGE)
    block = ((axis[:, None, None] * edges + axis[:, None]) * edges + axis).ravel()
    # sums in cell order, as each block's mean does
    theta = np.transpose([np.bincount(block, c) for c in centers.T]) / np.bincount(block)[:, None]
    R = rotation_matrices(*centers.T) - rotation_matrices(*theta.T)[block]
    m = np.zeros(len(theta))
    np.maximum.at(m, block, np.einsum("kab,kab->k", R, R))
    m = np.sqrt(m / 2.0)[:, None]
    bounds = np.zeros(len(theta))
    size = max(1, BATCH_BYTES // (24 * (len(sample) + len(bar))))
    for b in range(0, len(theta), size):
        if time.monotonic() >= deadline:
            break
        d = np.sqrt(_nearest_many(sample, bar, theta[b:b + size])[0])
        bounds[b:b + size] = (np.maximum(0.0, d - m[b:b + size] * reach - slack) ** 2).sum(axis=1)
    return bounds[block]


def _pays(ruled_out: np.ndarray, passed_on: np.ndarray) -> bool:
    """A bound level stays on while it rules out more cells than it passes on (masks)."""
    return ruled_out.sum() > passed_on.sum()


def ags_run(hat: Cloud, bar: Cloud, cfg: AgsConfig) -> AgsResult:
    """Adaptive grid search: evaluate the n_d^3 cell centers of the current
    box, recenter a shrunken box on the incumbent, repeat until the time (or
    round) budget runs out. The search never leaves the original box.

    A round refines its cells best first. A cell's bound rises through up to
    three levels, each a lower bound on its objective until the last: the
    block bound (_block_bounds, one ball bound per 2x2x2 block of cells, for
    every cell at the round's start), the screen (exact nearest squared
    distances summed over a strided sample of the hat points) and the full
    objective. A cell is live while it is not evaluated in full and its bound
    can still win: at most the limit, the incumbent lowered by the round's
    best. Each step orders the live cells by (bound, index) and refines a
    batch (BATCH_BYTES of points) of those whose next level is the least
    cell's. So the winner is the one a full round finds: the least objective,
    then the lowest cell index; it replaces the incumbent only if strictly
    lower. n_screened counts the cells a round ends with below full and a
    bound above the limit. After any round but a run's first, a level stays
    on only while it pays (_pays); once off, it is skipped until the grid
    restarts from the full box. t_max is checked before every batch, the
    block stage's too: once it has passed, the round ends, after a run
    without an incumbent evaluates its least live cell in full."""
    box0 = box = cfg.box
    rng = np.random.default_rng(cfg.seed)
    sample = decimate(hat, _SCREEN_STRIDE)
    screen = len(sample) >= _SCREEN_MIN_POINTS
    on = np.array([True, screen, screen, True])  # levels: none, block, screen, full
    size = [0, 0, max(1, BATCH_BYTES // (24 * (len(sample) + len(bar)))),
            max(1, BATCH_BYTES // (24 * (len(hat) + len(bar))))]  # cells per batch
    best: Evaluation | None = None
    limit = np.inf  # the incumbent's objective, lowered by each round's best
    rounds = n_evals = n_screened = 0
    jitter: np.ndarray | None = None
    deadline = time.monotonic() + cfg.t_max
    while True:
        rounds += 1
        centers = _cell_centers(box, cfg.n_d, jitter, box0)
        jitter = None
        win = (np.inf, 0, None)  # the round's (objective, cell, assignment) minimum
        level = np.full(len(centers), int(on[1]))  # block, or none with bound 0
        bound = _block_bounds(sample, bar, centers, cfg.n_d, deadline) if on[1] else 0.0 * level
        up = np.array([k + 1 + np.argmax(on[k + 1:]) for k in range(3)])  # next level
        while True:
            live = np.flatnonzero((level < 3) & (bound <= limit * (1.0 + _SCREEN_MARGIN)))
            if not len(live):
                break
            live = live[np.argsort(bound[live], kind="stable")]
            to = up[level[live]]
            if time.monotonic() >= deadline:
                if limit < np.inf:
                    break
                live, to = live[:1], np.array([3])  # no incumbent yet: the least cell in full
            cells = live[to == to[0]][:size[to[0]]]
            level[cells] = to[0]
            if to[0] == 2:
                bound[cells] = evaluate_many(sample, bar, centers[cells])[0]
                continue
            objectives, assignments = evaluate_many(hat, bar, centers[cells])
            n_evals += len(cells)
            b = np.lexsort((cells, objectives))[0]
            if (objectives[b], cells[b]) < win[:2]:
                win = (objectives[b], cells[b], assignments[b])
                limit = min(limit, float(objectives[b]))
        ruled_out = (level < 3) & (bound > limit)
        n_screened += int(ruled_out.sum())
        if rounds > 1:  # a first round, with no incumbent, may evaluate every cell
            on[1:3] = [on[k] and _pays(ruled_out & (level == k), level > k) for k in (1, 2)]
        if best is None or win[0] < best.objective:
            best = Evaluation(EulerAngles(*centers[win[1]]), float(win[0]), win[2])

        if (cfg.max_rounds is not None and rounds >= cfg.max_rounds
                or time.monotonic() >= deadline):
            break

        # shrink around the incumbent (clipped into the original box); on a
        # stall we shrink anyway, and once the box collapses we restart from
        # the full box with a seeded jitter and every level, keeping the incumbent
        widths = box.widths()
        if np.all(widths < _MIN_BOX_WIDTH):
            box = box0
            jitter = rng.uniform(-0.5, 0.5, size=3) * (box0.widths() / cfg.n_d)
            on[1:3] = screen
            continue
        center, half = best.angles.as_array(), cfg.shrink * widths
        box = AngleBox.from_arrays(np.maximum(box0.lows(), center - half),
                                   np.minimum(box0.highs(), center + half))

    assert best is not None
    return AgsResult(best=best, rounds=rounds, n_evals=n_evals, n_screened=n_screened)
