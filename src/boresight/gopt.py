"""Global solver: the nested spatial branch-and-bound driver over the angle box.
Every bound it uses comes from relax."""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .cloud import Cloud
from .miqcqp import SolverError, external_lower_bound
from .reduce import PairSet, reduce_pairs
from .relax import (builtin_lower_bound, compute_pair_set, coupled_lower_bound, ellipsoid_cut,
                    single_partner_model)
from .rotation import AngleBox
from .search import Evaluation, evaluate_ub

MIN_BOX_WIDTH = 1e-7  # radians; axes narrower than this are not split
GAP_DENOM_EPS = 1e-9
# A child box's contraction ends with the first cut that shrinks no axis by
# more than this share of its width.
CUT_MIN_SHRINK = 0.1


@dataclass
class Node:
    box: AngleBox
    pairs: PairSet
    lower: float  # the box's lower bound; inf when reduction left it infeasible


def branch(box: AngleBox) -> list[AngleBox]:
    """Bisect the box on every axis wider than MIN_BOX_WIDTH: up to 8 children
    that partition it."""
    lows, highs = box.lows(), box.highs()
    split = highs - lows > MIN_BOX_WIDTH
    if not split.any():
        raise ValueError("no axis wider than the minimum width; node must be finalized")
    mids = 0.5 * (lows + highs)
    per_axis = [[(lo, mid), (mid, hi)] if s else [(lo, hi)]
                for lo, mid, hi, s in zip(lows, mids, highs, split)]
    return [AngleBox(a[0], a[1], b[0], b[1], g[0], g[1])
            for a, b, g in itertools.product(*per_axis)]


def node_lower_bound(
    node: Node,
    hat: Cloud,
    bar: Cloud,
    model,
    solver_cmd: str | None = None,
    t_max: float = 30.0,
    node_upper: float = np.inf,
) -> float:
    """Lower bound for the node's box: the largest of node.lower (the parent's
    bound, so bounds are monotone by construction), the per-point and the
    coupled bound (model: single_partner_model of the node's pairs and box).

    With solver_cmd, the external solver's bound on the node's MIQCQP model
    is used where it is larger. An external bound above node_upper is
    rejected. node_upper is the objective at some angle in the node box, or
    at least the incumbent f_upper: the solver passes the objective at the
    midpoint of the box before contraction, which the incumbent does not
    exceed. A box that still holds an angle with f <= f_upper has its minimum
    at or below it, so no valid lower bound exceeds it; a box that holds none
    is pruned whatever its bound.
    """
    value = max(node.lower, builtin_lower_bound(node.pairs),
                coupled_lower_bound(model, node.box))
    if solver_cmd is not None:
        external = external_lower_bound(hat, bar, node.pairs, node.box, solver_cmd,
                                        t_max, node_upper)
        if external is not None:
            value = max(value, external)
    return value


@dataclass
class SolveReport:
    incumbent: Evaluation
    f_lower: float = 0.0  # the objective is a sum of squares
    f_upper: float = np.inf
    gap_abs: float = np.inf
    gap_rel: float = np.inf
    converged_by: str = ""
    nodes_explored: int = 0
    nodes_pruned_bound: int = 0
    # boxes where no angle can be at or below f_upper: reduction left a hat
    # point without partners, or a cut emptied them (boxes_emptied of them)
    nodes_pruned_infeasible: int = 0
    nodes_finalized: int = 0
    pairs_root: int = 0
    pairs_eliminated: int = 0
    cut_passes: int = 0  # pair-set passes over a cut child box
    boxes_emptied: int = 0
    cut_volume_frac: float = 0.0  # share of the child boxes' volume that cuts removed
    bound_log: list[tuple[float, float]] = field(default_factory=list)
    prune_log: list[tuple[AngleBox, float]] = field(default_factory=list)
    wall_time: float = 0.0


def relative_gap(f_upper: float, f_lower: float) -> float:
    return (f_upper - f_lower) / max(abs(f_upper), GAP_DENOM_EPS)


def nsbb_solve(
    hat: Cloud,
    bar: Cloud,
    box: AngleBox,
    eps_rel: float = 0.01,
    eps_abs: float = 0.1,
    node_time: float = 30.0,
    f_upper_init: Evaluation | None = None,
    solver_cmd: str | None = None,
    max_nodes: int | None = None,
    time_limit: float | None = None,
) -> SolveReport:
    """Best-first spatial branch-and-bound on the three boresight angles.

    Every box, the root included, is bounded the same way: evaluate its
    midpoint (incumbent update), re-tighten and reduce the parent's pair set,
    compute a lower bound (with solver_cmd, also the external solver's, see
    node_lower_bound), then prune or enqueue it. A child box is contracted
    before its bound: cut to the bounding box of the coupled bound's
    ellipsoid (ellipsoid_cut), its pairs re-tightened and reduced over the cut
    box, and cut again, until a cut shrinks no axis by more than
    CUT_MIN_SHRINK of its width; that last cut is not applied, so the bound
    shares its pair set and single-partner model. The cuts drop only angles
    whose objective exceeds the incumbent. A box that a cut empties is pruned.
    A popped node is bisected into up to 8 children, all evaluated before any
    is pruned. Terminates when the relative or absolute bound gap closes, the
    queue empties, or a node/time budget (checked before the root box and
    each child box) is hit.
    """
    if len(hat) == 0 or len(bar) == 0:
        raise SolverError("clouds must be non-empty")
    if eps_rel <= 0 or eps_abs <= 0:
        raise SolverError("tolerances must be positive")
    t0 = time.monotonic()
    rep = SolveReport(incumbent=f_upper_init,
                      f_upper=np.inf if f_upper_init is None else f_upper_init.objective)
    queue: list[tuple[float, float, int, Node]] = []  # keyed on (lower, -volume, push count)
    pushes = itertools.count()
    closed_lower = np.inf  # min lower bound among finalized (unbranchable) nodes
    child_volume = cut_volume = 0.0  # of the bounded child boxes, and what cuts removed

    def evaluate_midpoint(box: AngleBox) -> Evaluation:
        """The objective at the box midpoint; it replaces the incumbent if lower."""
        ev = evaluate_ub(hat, bar, box.midpoint())
        if ev.objective < rep.f_upper:
            rep.incumbent, rep.f_upper = ev, ev.objective
        return ev

    def tighten(box: AngleBox, pairs: PairSet | None):
        """The pairs (None: the dense root set) re-tightened over the box, and reduced."""
        tight = compute_pair_set(hat, bar, box, pairs)
        red = reduce_pairs(tight, rep.f_upper)
        rep.pairs_eliminated += red.removed_total
        return tight, red

    def bound(box: AngleBox, ev: Evaluation, pairs: PairSet | None, lower: float) -> Node:
        """Re-tighten and reduce the parent's pairs (None: the dense root set)
        over the box, contract a child box, and bound it, from at least the
        parent's bound `lower`."""
        nonlocal child_volume, cut_volume
        tight, red = tighten(box, pairs)
        root, empty, volume = pairs is None, False, box.volume()
        while not red.infeasible:
            model = single_partner_model(red.pairs, box, hat, bar)
            cut = None if root else ellipsoid_cut(box, *model, rep.f_upper)
            if cut is None:
                break
            lows, highs = cut
            empty = bool(np.any(lows > highs))
            widths = box.widths()
            if empty or not np.any(widths - (highs - lows) > CUT_MIN_SHRINK * widths):
                break
            box = AngleBox.from_arrays(lows, highs)
            rep.cut_passes += 1
            red = tighten(box, red.pairs)[1]
        if root:
            rep.pairs_root = tight.size
        else:
            rep.boxes_emptied += empty
            child_volume += volume
            cut_volume += volume - (0.0 if empty else box.volume())
        node = Node(box=box, pairs=red.pairs, lower=lower)
        node.lower = np.inf if red.infeasible or empty else node_lower_bound(
            node, hat, bar, model, solver_cmd, node_time, node_upper=ev.objective)
        return node

    def push_or_prune(node: Node) -> None:
        """Enqueue the node unless its bound exceeds the incumbent (inf: infeasible)."""
        if node.lower > rep.f_upper:
            rep.prune_log.append((node.box, node.lower))
            if node.lower == np.inf:
                rep.nodes_pruned_infeasible += 1
            else:
                rep.nodes_pruned_bound += 1
        else:
            heapq.heappush(queue, (node.lower, -node.box.volume(), next(pushes), node))

    def raise_f_lower() -> str | None:
        """Lift rep.f_lower to the least bound still in play (the heap top,
        the finalized nodes, the incumbent) and say whether the gap closed."""
        open_lower = queue[0][0] if queue else np.inf
        rep.f_lower = max(rep.f_lower, min(open_lower, closed_lower, rep.f_upper))
        if rep.f_upper - rep.f_lower <= eps_abs:
            return "gap_abs"
        if relative_gap(rep.f_upper, rep.f_lower) <= eps_rel:
            return "gap_rel"
        return None

    def out_of_time() -> bool:
        return time_limit is not None and time.monotonic() - t0 >= time_limit

    root_eval = evaluate_midpoint(box)
    reason = None
    if rep.f_upper <= eps_abs:  # the trivial bound 0 closes the gap: no pair set needed
        reason = "gap_abs"
    elif out_of_time():  # the root pair set is not interruptible: do not start it
        reason = "time_limit"
    else:
        push_or_prune(bound(box, root_eval, None, 0.0))
        reason = raise_f_lower()
        rep.bound_log.append((rep.f_lower, rep.f_upper))

    while reason is None and queue:
        if max_nodes is not None and rep.nodes_explored >= max_nodes:
            reason = "node_limit"
            break
        if out_of_time():
            reason = "time_limit"
            break
        node = heapq.heappop(queue)[-1]
        if node.lower > rep.f_upper:  # the incumbent improved since it was queued
            push_or_prune(node)
            reason = raise_f_lower()
            continue
        if not (node.box.widths() > MIN_BOX_WIDTH).any():
            rep.nodes_finalized += 1
            closed_lower = min(closed_lower, node.lower)
            reason = raise_f_lower()
            continue
        rep.nodes_explored += 1
        # every child updates the incumbent before any is pruned; once time is up the
        # rest are queued with the parent's pairs and bound (valid: each lies inside it)
        children = [Node(b, node.pairs, node.lower) if out_of_time()
                    else bound(b, evaluate_midpoint(b), node.pairs, node.lower)
                    for b in branch(node.box)]
        for child in children:
            push_or_prune(child)
        reason = raise_f_lower()
        rep.bound_log.append((rep.f_lower, rep.f_upper))

    if reason is None:  # queue exhausted: what is left open are the finalized boxes
        reason = "exhausted"
    rep.bound_log.append((rep.f_lower, rep.f_upper))
    rep.converged_by = reason
    rep.gap_abs = rep.f_upper - rep.f_lower
    rep.gap_rel = relative_gap(rep.f_upper, rep.f_lower)
    rep.cut_volume_frac = cut_volume / child_volume if child_volume > 0 else 0.0
    rep.wall_time = time.monotonic() - t0
    return rep
