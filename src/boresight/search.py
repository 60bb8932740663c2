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
# KD-tree per angle instead of sharing one (evaluate_many). aGS time against a tree
# per angle for 8 / 16 / 32 (n_d=10, 5 rounds, median of 11 alternations, 2-vCPU
# VM): 30x60 -50/-55/-51%, 100x250 -35/-44/-37%, 500x1250 +1/-9/-7%.
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
# Cells per block edge in _block_bounds. 2000x5000 aGS, 1 round of n_d=10 (seeds 1-3,
# min of 3, 2-vCPU VM): 0.52-0.58 s at 2, 0.95-1.09 at 3, 1.73-2.25 at 5, 1.34-1.40 without.
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
        if self.t_max <= 0:
            raise ValueError("t_max must be > 0")


@dataclass
class AgsResult:
    best: Evaluation
    rounds: int
    n_evals: int  # full evaluations
    n_screened: int  # cells ruled out by their block or sampled lower bound


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


def _block_bounds(sample: Cloud, bar: Cloud, centers: np.ndarray, n_d: int) -> np.ndarray:
    """Lower bounds on the cells' sampled objectives (centers in _cell_centers'
    order), from one bar KD-tree per block of up to _BLOCK_EDGE^3 cells, built at the
    block's mean angle. Between that angle and a cell's, every point moves at most
    m ||l|| (INS poses are orthonormal to POSE_ORTHO_TOL), m = ||R(cell) - R(mean)||_F
    / sqrt(2) = 2 sin(phi/2) being the spectral norm for rotations phi apart. So a
    nearest distance d_i at the mean angle falls by at most m (||l_i|| + max_j ||l_j||)
    plus the rounding of two georeferenced offsets."""
    reach = (1.0 + 2.0 * POSE_ORTHO_TOL) * (np.linalg.norm(sample.l, axis=1)
                                            + np.linalg.norm(bar.l, axis=1).max())
    scale = max(np.abs(sample.s).max(), np.abs(bar.s).max())
    slack = max(POINT_SLACK, 2 * GEOREF_ULPS * np.spacing(scale))
    index, e = np.arange(len(centers)).reshape(n_d, n_d, n_d), _BLOCK_EDGE
    bounds = np.empty(len(centers))
    for a, b, g in itertools.product(range(0, n_d, e), repeat=3):
        cells = index[a:a + e, b:b + e, g:g + e].ravel()
        theta = centers[cells].mean(axis=0)
        R = rotation_matrices(*np.vstack([theta, centers[cells]]).T)
        m = np.sqrt(np.einsum("kab,kab->k", R[1:] - R[0], R[1:] - R[0]).max() / 2.0)
        d2 = NnIndex(georeference(bar, theta[None])[0]).query_many(
            georeference(sample, theta[None])[0])[1]
        bounds[cells] = (np.maximum(0.0, np.sqrt(d2) - m * reach - slack) ** 2).sum()
    return bounds


def ags_run(hat: Cloud, bar: Cloud, cfg: AgsConfig) -> AgsResult:
    """Adaptive grid search: evaluate the n_d^3 cell centers of the current
    box, recenter a shrunken box on the incumbent, repeat until the time (or
    round) budget runs out. The search never leaves the original box.

    Two lower bounds on a cell's objective spare full evaluations: one from a
    KD-tree per 2x2x2 block of cells (_block_bounds), and the screen, a sum of
    exact nearest squared distances over a strided sample of the hat points.
    The first round screens cells in ascending block bound, evaluates each
    screen batch's lowest cell in full if it can still win, and stops at the
    first block bound above the round's best. Later rounds rule out the cells
    whose block bound exceeds the incumbent and screen the rest in index
    order; once no bound screened in the round exceeds the incumbent, the
    rest go unscreened, with bound 0. Blocks are skipped after a round where
    they rule nothing out, until the grid restarts from the full box. Then
    cells are evaluated in full in ascending order of the bound, up to the
    first bound above the round's best (or the incumbent, if lower), so the
    winner is the one a full round finds: the least objective, then the
    lowest cell index; it replaces the incumbent only if strictly lower.
    n_screened counts the cells either bound rules out. t_max is checked
    after every batch of cells (BATCH_BYTES of points) of either pass; time
    running out during the screen ends the round there."""
    box0 = cfg.box
    box = box0
    rng = np.random.default_rng(cfg.seed)
    sample = decimate(hat, _SCREEN_STRIDE)
    screen = blocks = len(sample) >= _SCREEN_MIN_POINTS
    batch = max(1, BATCH_BYTES // (24 * (len(hat) + len(bar))))
    screen_batch = max(1, BATCH_BYTES // (24 * (len(sample) + len(bar))))
    best: Evaluation | None = None
    rounds = n_evals = n_screened = 0
    jitter: np.ndarray | None = None
    t0 = time.monotonic()

    def out_of_time() -> bool:
        return time.monotonic() - t0 >= cfg.t_max

    def can_win(bounds: np.ndarray) -> np.ndarray:
        return bounds <= limit * (1.0 + _SCREEN_MARGIN)

    def evaluate(cells: np.ndarray) -> None:  # in full; the least may update win and limit
        nonlocal win, limit, n_evals
        objectives, assignments = evaluate_many(hat, bar, centers[cells])
        n_evals += len(cells)
        done[cells] = True
        b = np.lexsort((cells, objectives))[0]
        if win is None or (objectives[b], cells[b]) < win[:2]:
            win = (objectives[b], cells[b], assignments[b])
            limit = min(limit, float(objectives[b]))

    while True:
        rounds += 1
        centers = _cell_centers(box, cfg.n_d, jitter, box0)
        jitter = None
        first = best is None
        limit = np.inf if first else best.objective
        win: tuple | None = None  # the round's (objective, cell, assignment) minimum
        low = np.zeros(len(centers))  # bound 0 for unscreened cells: always evaluated
        done = np.zeros(len(centers), dtype=bool)  # evaluated in full
        queue = np.arange(len(centers) if screen else 0)  # cells to screen, in order
        if blocks:  # bound inf: ruled out (in the first round, until screened)
            block = _block_bounds(sample, bar, centers, cfg.n_d)
            low[first | ~can_win(block)] = np.inf
            queue = np.argsort(block, kind="stable") if first else np.flatnonzero(can_win(block))
        k = 0
        timed_out = False
        while k < len(queue):
            cells = queue[k:k + screen_batch]
            if first:  # block bounds ascend: stop at the first that cannot win
                cells = cells[can_win(block[cells])]
                if not len(cells):
                    break
            low[cells] = evaluate_many(sample, bar, centers[cells])[0]
            k += len(cells)
            if first:  # an early incumbent tightens the limit for the rest
                c = cells[np.argmin(low[cells])]
                if can_win(low[c]):
                    evaluate(np.array([c]))
            timed_out = out_of_time()
            if timed_out:
                break
            if not first and np.all(can_win(low[queue[:k]])):
                break  # the screen rules out nothing so far: skip the rest
        if blocks:
            blocks = bool(np.isinf(low).any())

        order = np.argsort(low, kind="stable")
        order = order[~done[order]][:0 if timed_out else None]
        for k in range(0, len(order), batch):
            cells = order[k:k + batch]
            keep = cells[can_win(low[cells])]
            if len(keep):
                evaluate(keep)
            if len(keep) < len(cells):  # bounds ascend: every later cell is out too
                n_screened += len(order) - k - len(keep)
                break
            if out_of_time():
                break
        if win is not None and (best is None or win[0] < best.objective):
            best = Evaluation(EulerAngles(*centers[win[1]]), float(win[0]), win[2])

        if (cfg.max_rounds is not None and rounds >= cfg.max_rounds) or out_of_time():
            break

        # shrink around the incumbent (clipped into the original box); on a
        # stall we shrink anyway, and once the box collapses we restart from
        # the full box with a seeded jitter and blocks, keeping the incumbent
        widths = box.widths()
        if np.all(widths < _MIN_BOX_WIDTH):
            box = box0
            jitter = rng.uniform(-0.5, 0.5, size=3) * (box0.widths() / cfg.n_d)
            blocks = screen
            continue
        center = best.angles.as_array()
        half = cfg.shrink * widths
        lows = np.maximum(box0.lows(), center - half)
        highs = np.minimum(box0.highs(), center + half)
        box = AngleBox.from_arrays(lows, highs)

    assert best is not None
    return AgsResult(best=best, rounds=rounds, n_evals=n_evals, n_screened=n_screened)
