"""Global solver: nested spatial branch-and-bound over the angle box, plus
quadratic model construction and a text export for external solvers."""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cloud import Cloud
from .reduce import PairSet, reduce_pairs
from .relax import compute_pair_set, reach_box
from .rotation import AngleBox, trig_bounds
from .search import Evaluation, evaluate_ub

log = logging.getLogger(__name__)

MIN_BOX_WIDTH = 1e-7  # radians; axes narrower than this are not split
GAP_DENOM_EPS = 1e-9


class SolverError(RuntimeError):
    """Unrecoverable global-solver failure (bad inputs, broken adapter contract)."""


@dataclass
class Node:
    box: AngleBox
    pairs: PairSet
    lower: float
    depth: int
    id: int


def branch(node: Node, min_width: float = MIN_BOX_WIDTH) -> list[Node]:
    """Bisect the node box on every axis wider than min_width (up to 8 children).

    Children partition the parent box and inherit the parent's pair set;
    their bounds are re-tightened afterwards by the solver.
    """
    lows, highs = node.box.lows(), node.box.highs()
    widths = highs - lows
    split = widths > min_width
    if not split.any():
        raise ValueError("no axis wider than the minimum width; node must be finalized")
    mids = 0.5 * (lows + highs)
    per_axis = []
    for a in range(3):
        if split[a]:
            per_axis.append([(lows[a], mids[a]), (mids[a], highs[a])])
        else:
            per_axis.append([(lows[a], highs[a])])
    children = []
    for combo in itertools.product(*per_axis):
        box = AngleBox(combo[0][0], combo[0][1], combo[1][0], combo[1][1],
                       combo[2][0], combo[2][1])
        children.append(Node(box=box, pairs=node.pairs, lower=node.lower,
                             depth=node.depth + 1, id=-1))
    return children


def builtin_lower_bound(pairs: PairSet) -> float:
    """Valid lower bound: every hat point must match one of its retained
    candidates, and c_lo bounds that pair's squared distance over the box."""
    per_i = np.full(pairs.n_hat, np.inf)
    np.minimum.at(per_i, pairs.i, pairs.c_lo)
    return float(per_i.sum())


def node_lower_bound(
    node: Node,
    mode: str = "builtin",
    hat: Cloud | None = None,
    bar: Cloud | None = None,
    solver_cmd: str | None = None,
    t_max: float = 30.0,
    parent_lower: float = 0.0,
    node_upper: float = np.inf,
) -> float:
    """Lower bound for the node; never below the parent's (monotone by construction).

    node_upper is the objective at some angle in the node box (the solver
    passes the box midpoint's), so no valid lower bound exceeds it; an
    external bound above it is rejected.
    """
    builtin = builtin_lower_bound(node.pairs)
    value = max(builtin, parent_lower)
    if mode == "external":
        external = _external_lower_bound(node, hat, bar, solver_cmd, t_max, node_upper)
        if external is not None:
            value = max(value, external)
    elif mode != "builtin":
        raise ValueError(f"unknown lower-bound mode {mode!r}")
    return value


def _external_lower_bound(node, hat, bar, solver_cmd, t_max, node_upper) -> float | None:
    if solver_cmd is None or hat is None or bar is None:
        log.warning("external lower bound requested without adapter/clouds; using builtin")
        return None
    path = None
    try:
        model = build_miqcqp(hat, bar, node.pairs, node.box)
        with tempfile.NamedTemporaryFile("w", suffix=".miqcqp", delete=False) as fh:
            path = fh.name
        export_model(model, path)
        proc = subprocess.run(
            shlex.split(solver_cmd) + [path],
            capture_output=True, text=True, timeout=t_max,
        )
        for line in reversed(proc.stdout.splitlines()):
            parts = line.split()
            if len(parts) == 2 and parts[0] == "LOWER":
                value = float(parts[1])
                if not math.isfinite(value) or value > node_upper:
                    log.warning("external solver returned LOWER %r (node objective %r); "
                                "using builtin bound", value, node_upper)
                    return None
                return value
        log.warning("external solver produced no LOWER line; using builtin bound")
        return None
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        log.warning("external lower bound failed (%s); using builtin bound", exc)
        return None
    finally:
        if path is not None:
            Path(path).unlink(missing_ok=True)


# --- MIQCQP model construction and text export ---

@dataclass(frozen=True)
class Variable:
    name: str
    lo: float
    hi: float
    kind: str  # "C" continuous, "B" binary


@dataclass
class Constraint:
    sense: str  # "=" or "<="
    rhs: float
    quad: list[tuple[float, str, str]] = field(default_factory=list)
    lin: list[tuple[float, str]] = field(default_factory=list)


@dataclass
class MiqcqpModel:
    variables: list[Variable]
    constraints: list[Constraint]
    objective_quad: list[tuple[float, str, str]]
    objective_lin: list[tuple[float, str]]
    objective_const: float

    def binaries(self) -> list[Variable]:
        return [v for v in self.variables if v.kind == "B"]

    def objective_value(self, x: dict[str, float]) -> float:
        val = self.objective_const
        for c, v1, v2 in self.objective_quad:
            val += c * x[v1] * x[v2]
        for c, v in self.objective_lin:
            val += c * x[v]
        return val

    def max_violation(self, x: dict[str, float]) -> float:
        worst = 0.0
        for var in self.variables:
            worst = max(worst, x[var.name] - var.hi, var.lo - x[var.name])
        for con in self.constraints:
            lhs = sum(c * x[v1] * x[v2] for c, v1, v2 in con.quad)
            lhs += sum(c * x[v] for c, v in con.lin)
            gap = lhs - con.rhs
            worst = max(worst, abs(gap) if con.sense == "=" else gap)
        return worst


# rotation matrix entries as sums of monomials in the 8 rotation variables;
# each term is (coefficient, variable names)
_ROT_ENTRIES: list[list[tuple[float, tuple[str, ...]]]] = [
    [(1.0, ("u_beta", "u_gamma"))],
    [(-1.0, ("u_beta", "v_gamma"))],
    [(1.0, ("v_beta",))],
    [(1.0, ("u_alpha", "v_gamma")), (1.0, ("v_alpha", "w_gb"))],
    [(1.0, ("u_alpha", "u_gamma")), (-1.0, ("v_alpha", "w_bg"))],
    [(-1.0, ("u_beta", "v_alpha"))],
    [(1.0, ("v_alpha", "v_gamma")), (-1.0, ("u_alpha", "w_gb"))],
    [(1.0, ("v_alpha", "u_gamma")), (1.0, ("u_alpha", "w_bg"))],
    [(1.0, ("u_alpha", "u_beta"))],
]


def build_miqcqp(hat: Cloud, bar: Cloud, pairs: PairSet, box: AngleBox) -> MiqcqpModel:
    """Quadratically constrained model of the alignment problem on the
    retained pairs, with variable bounds tightened to the angle box."""
    if pairs.size == 0 or not pairs.covers_all_i():
        raise SolverError("pair set leaves some hat point without candidates")
    tb = trig_bounds(box)
    variables: list[Variable] = []
    for axis, name in enumerate(("alpha", "beta", "gamma")):
        variables.append(Variable(f"u_{name}", float(tb.u[axis, 0]), float(tb.u[axis, 1]), "C"))
        variables.append(Variable(f"v_{name}", float(tb.v[axis, 0]), float(tb.v[axis, 1]), "C"))
    variables.append(Variable("w_gb", tb.w_gb[0], tb.w_gb[1], "C"))
    variables.append(Variable("w_bg", tb.w_bg[0], tb.w_bg[1], "C"))

    hat_ids = np.unique(pairs.i)
    bar_ids = np.unique(pairs.j)

    def world_bounds(cloud, idx):
        k = reach_box(cloud.l[idx], box)
        center = 0.5 * (k.lo + k.hi)
        half = 0.5 * (k.hi - k.lo)
        R = cloud.ins_rotation[idx]
        wc = cloud.s[idx] + R @ center
        wh = np.abs(R) @ half
        return wc - wh, wc + wh

    ph_bounds = {int(i): world_bounds(hat, int(i)) for i in hat_ids}
    pb_bounds = {int(j): world_bounds(bar, int(j)) for j in bar_ids}
    for i in hat_ids:
        lo, hi = ph_bounds[int(i)]
        for e in range(3):
            variables.append(Variable(f"ph_{i}_{e}", float(lo[e]), float(hi[e]), "C"))
    for j in bar_ids:
        lo, hi = pb_bounds[int(j)]
        for e in range(3):
            variables.append(Variable(f"pb_{j}_{e}", float(lo[e]), float(hi[e]), "C"))
    for i in hat_ids:
        cand = pairs.candidates_for(int(i))
        lo = np.min([pb_bounds[int(j)][0] for j in cand], axis=0)
        hi = np.max([pb_bounds[int(j)][1] for j in cand], axis=0)
        for e in range(3):
            variables.append(Variable(f"p_{i}_{e}", float(lo[e]), float(hi[e]), "C"))
    for i, j in zip(pairs.i, pairs.j):
        variables.append(Variable(f"b_{i}_{j}", 0.0, 1.0, "B"))

    constraints: list[Constraint] = []
    for name in ("alpha", "beta", "gamma"):
        constraints.append(Constraint(
            sense="=", rhs=1.0,
            quad=[(1.0, f"u_{name}", f"u_{name}"), (1.0, f"v_{name}", f"v_{name}")],
        ))
    constraints.append(Constraint(
        sense="=", rhs=0.0,
        quad=[(1.0, "u_gamma", "v_beta")], lin=[(-1.0, "w_gb")],
    ))
    constraints.append(Constraint(
        sense="=", rhs=0.0,
        quad=[(1.0, "v_beta", "v_gamma")], lin=[(-1.0, "w_bg")],
    ))

    def georef_constraints(cloud, idx, prefix):
        # p_e - [s + R_ins R(u,v,w) l]_e = 0
        R_ins = cloud.ins_rotation[idx]
        l = cloud.l[idx]
        s = cloud.s[idx]
        for e in range(3):
            quad: dict[tuple[str, str], float] = {}
            lin: dict[str, float] = {f"{prefix}_{idx}_{e}": 1.0}
            for r in range(3):
                for c in range(3):
                    coef0 = -R_ins[e, r] * l[c]
                    if coef0 == 0.0:
                        continue
                    for term_coef, names in _ROT_ENTRIES[3 * r + c]:
                        coef = coef0 * term_coef
                        if len(names) == 2:
                            key = tuple(sorted(names))
                            quad[key] = quad.get(key, 0.0) + coef
                        else:
                            lin[names[0]] = lin.get(names[0], 0.0) + coef
            constraints.append(Constraint(
                sense="=", rhs=float(s[e]),
                quad=[(v, k[0], k[1]) for k, v in quad.items() if v != 0.0],
                lin=[(v, k) for k, v in lin.items() if v != 0.0],
            ))

    for i in hat_ids:
        georef_constraints(hat, int(i), "ph")
    for j in bar_ids:
        georef_constraints(bar, int(j), "pb")

    for i in hat_ids:
        cand = pairs.candidates_for(int(i))
        for e in range(3):
            constraints.append(Constraint(
                sense="=", rhs=0.0,
                quad=[(-1.0, f"pb_{j}_{e}", f"b_{i}_{j}") for j in cand],
                lin=[(1.0, f"p_{i}_{e}")],
            ))
        constraints.append(Constraint(
            sense="=", rhs=1.0,
            lin=[(1.0, f"b_{i}_{j}") for j in cand],
        ))

    objective_quad: list[tuple[float, str, str]] = []
    for i in hat_ids:
        for e in range(3):
            ph, p = f"ph_{i}_{e}", f"p_{i}_{e}"
            objective_quad.append((1.0, ph, ph))
            objective_quad.append((-2.0, ph, p))
            objective_quad.append((1.0, p, p))

    return MiqcqpModel(
        variables=variables,
        constraints=constraints,
        objective_quad=objective_quad,
        objective_lin=[],
        objective_const=0.0,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def export_model(model: MiqcqpModel, path: str) -> None:
    """Write the model in the plain-text MIQCQP v1 format (see README)."""
    if not model.binaries():
        raise SolverError("model has no binary selection variables; nothing to export")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("MIQCQP v1\n")
        fh.write(f"VARS {len(model.variables)}\n")
        for v in model.variables:
            fh.write(f"{v.name} {_fmt(v.lo)} {_fmt(v.hi)} {v.kind}\n")
        fh.write("OBJ\n")
        for c, v1, v2 in model.objective_quad:
            fh.write(f"Q {_fmt(c)} {v1} {v2}\n")
        for c, v in model.objective_lin:
            fh.write(f"L {_fmt(c)} {v}\n")
        fh.write(f"C {_fmt(model.objective_const)}\n")
        fh.write(f"CONSTR {len(model.constraints)}\n")
        for con in model.constraints:
            parts = [con.sense, _fmt(con.rhs)]
            for c, v1, v2 in con.quad:
                parts += ["Q", _fmt(c), v1, v2]
            for c, v in con.lin:
                parts += ["L", _fmt(c), v]
            fh.write(" ".join(parts) + "\n")


def parse_model(path: str) -> MiqcqpModel:
    """Load a model written by export_model (exact round trip)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    it = iter(lines)
    if next(it) != "MIQCQP v1":
        raise SolverError(f"{path}: not a MIQCQP v1 file")
    head = next(it).split()
    if head[0] != "VARS":
        raise SolverError(f"{path}: expected VARS section")
    variables = []
    for _ in range(int(head[1])):
        name, lo, hi, kind = next(it).split()
        variables.append(Variable(name, float(lo), float(hi), kind))
    if next(it) != "OBJ":
        raise SolverError(f"{path}: expected OBJ section")
    obj_quad: list[tuple[float, str, str]] = []
    obj_lin: list[tuple[float, str]] = []
    obj_const = 0.0
    line = next(it)
    while not line.startswith("CONSTR"):
        parts = line.split()
        if parts[0] == "Q":
            obj_quad.append((float(parts[1]), parts[2], parts[3]))
        elif parts[0] == "L":
            obj_lin.append((float(parts[1]), parts[2]))
        elif parts[0] == "C":
            obj_const = float(parts[1])
        else:
            raise SolverError(f"{path}: bad objective line {line!r}")
        line = next(it)
    n_con = int(line.split()[1])
    constraints = []
    for _ in range(n_con):
        tokens = next(it).split()
        sense, rhs = tokens[0], float(tokens[1])
        quad: list[tuple[float, str, str]] = []
        lin: list[tuple[float, str]] = []
        k = 2
        while k < len(tokens):
            if tokens[k] == "Q":
                quad.append((float(tokens[k + 1]), tokens[k + 2], tokens[k + 3]))
                k += 4
            elif tokens[k] == "L":
                lin.append((float(tokens[k + 1]), tokens[k + 2]))
                k += 3
            else:
                raise SolverError(f"{path}: bad constraint token {tokens[k]!r}")
        constraints.append(Constraint(sense=sense, rhs=rhs, quad=quad, lin=lin))
    return MiqcqpModel(
        variables=variables, constraints=constraints,
        objective_quad=obj_quad, objective_lin=obj_lin, objective_const=obj_const,
    )


# --- the branch-and-bound driver ---

@dataclass
class SolveReport:
    incumbent: Evaluation
    f_lower: float
    f_upper: float
    gap_abs: float
    gap_rel: float
    converged_by: str
    nodes_explored: int
    nodes_pruned_bound: int
    nodes_pruned_infeasible: int
    nodes_finalized: int
    pairs_root: int
    pairs_eliminated: int
    bound_log: list[tuple[float, float]]
    prune_log: list[tuple[AngleBox, float]]
    wall_time: float


def relative_gap(f_upper: float, f_lower: float) -> float:
    return (f_upper - f_lower) / max(abs(f_upper), GAP_DENOM_EPS)


def nsbb_solve(
    hat: Cloud,
    bar: Cloud,
    box: AngleBox,
    eps_rel: float = 0.01,
    eps_abs: float = 0.1,
    node_time: float = 30.0,
    f_upper_init: Evaluation | float | None = None,
    lb_mode: str = "builtin",
    solver_cmd: str | None = None,
    min_width: float = MIN_BOX_WIDTH,
    max_nodes: int | None = None,
    time_limit: float | None = None,
) -> SolveReport:
    """Best-first spatial branch-and-bound on the three boresight angles.

    Per popped node: bisect into up to 8 children; for each child evaluate a
    feasible point at the box midpoint (incumbent update), re-tighten and
    reduce the inherited pair set, compute a lower bound, then prune or
    enqueue. Terminates when the relative or absolute bound gap closes, the
    queue empties, or a node/time budget is hit.
    """
    if len(hat) == 0 or len(bar) == 0:
        raise SolverError("clouds must be non-empty")
    if eps_rel <= 0 or eps_abs <= 0:
        raise SolverError("tolerances must be positive")
    t0 = time.monotonic()

    incumbent: Evaluation
    f_upper = np.inf
    if isinstance(f_upper_init, Evaluation):
        incumbent = f_upper_init
        f_upper = f_upper_init.objective
    mid_eval = evaluate_ub(hat, bar, box.midpoint())
    if mid_eval.objective < f_upper:
        incumbent = mid_eval
        f_upper = mid_eval.objective
    if isinstance(f_upper_init, (int, float)) and f_upper_init < f_upper:
        # a bare numeric bound tightens pruning but carries no angles
        f_upper = float(f_upper_init)

    state = {
        "f_upper": f_upper,
        "incumbent": incumbent,
        "pruned_bound": 0,
        "pruned_infeasible": 0,
        "finalized": 0,
        "explored": 0,
        "eliminated": 0,
    }
    bound_log: list[tuple[float, float]] = []
    prune_log: list[tuple[AngleBox, float]] = []
    if f_upper <= eps_abs:  # the trivial bound 0 closes the gap: no pair set needed
        return _final_report(state, 0.0, "gap_abs", [(0.0, f_upper)], prune_log, 0, t0)
    closed_lower = np.inf  # min lower bound among finalized (unbranchable) nodes
    next_id = itertools.count()

    root_pairs_full = compute_pair_set(hat, bar, box, None, f_upper=state["f_upper"])
    root_red = reduce_pairs(root_pairs_full, state["f_upper"])
    state["eliminated"] += root_red.removed_total
    pairs_root = root_pairs_full.size
    root = Node(box=box, pairs=root_red.pairs, lower=0.0, depth=0, id=next(next_id))
    if root_red.infeasible:
        # cannot happen with a sound upper bound; close immediately on it
        f_l = state["f_upper"]
        bound_log.append((f_l, state["f_upper"]))
        return _final_report(state, f_l, "exhausted", bound_log, prune_log,
                             pairs_root, t0)
    root.lower = min(
        node_lower_bound(root, lb_mode, hat, bar, solver_cmd, node_time, 0.0,
                         node_upper=mid_eval.objective),
        state["f_upper"],
    )

    queue: list[tuple[float, float, int, Node]] = []
    heapq.heappush(queue, (root.lower, -root.box.volume(), root.id, root))
    bound_log.append((root.lower, state["f_upper"]))

    f_lower_best = -np.inf  # proven lower bounds only ever improve

    def current_f_lower() -> float:
        nonlocal f_lower_best
        # the heap is keyed on the lower bound, so its top is the open minimum
        open_lower = queue[0][0] if queue else np.inf
        value = min(open_lower, closed_lower, state["f_upper"])
        f_lower_best = max(f_lower_best, value)
        return f_lower_best

    def converged(f_l: float) -> str | None:
        g_a = state["f_upper"] - f_l
        if g_a <= eps_abs:
            return "gap_abs"
        if relative_gap(state["f_upper"], f_l) <= eps_rel:
            return "gap_rel"
        return None

    reason = converged(current_f_lower())

    def process_child(child: Node, parent: Node):
        ev = evaluate_ub(hat, bar, child.box.midpoint())
        if ev.objective < state["f_upper"]:
            state["f_upper"] = ev.objective
            state["incumbent"] = ev
        f_u = state["f_upper"]
        tight = compute_pair_set(hat, bar, child.box, parent.pairs, f_upper=f_u)
        red = reduce_pairs(tight, f_u)
        state["eliminated"] += red.removed_total
        if red.infeasible:
            return ("infeasible", child, None)
        child.pairs = red.pairs
        lb = node_lower_bound(child, lb_mode, hat, bar, solver_cmd, node_time,
                              parent_lower=parent.lower, node_upper=ev.objective)
        child.lower = lb
        return ("open", child, lb)

    while reason is None and queue:
        if max_nodes is not None and state["explored"] >= max_nodes:
            reason = "node_limit"
            break
        if time_limit is not None and time.monotonic() - t0 >= time_limit:
            reason = "time_limit"
            break
        _, _, _, node = heapq.heappop(queue)
        if node.lower > state["f_upper"]:
            state["pruned_bound"] += 1
            prune_log.append((node.box, node.lower))
            reason = converged(current_f_lower())
            continue
        if not (node.box.widths() > min_width).any():
            state["finalized"] += 1
            closed_lower = min(closed_lower, node.lower)
            reason = converged(current_f_lower())
            continue
        children = branch(node, min_width)
        state["explored"] += 1
        # every child updates the incumbent before any of them is pruned
        results = [process_child(ch, node) for ch in children]
        for status, child, lb in results:
            if status == "infeasible":
                state["pruned_infeasible"] += 1
                prune_log.append((child.box, np.inf))
                continue
            if lb > state["f_upper"]:
                state["pruned_bound"] += 1
                prune_log.append((child.box, lb))
                continue
            child.id = next(next_id)
            heapq.heappush(queue, (child.lower, -child.box.volume(), child.id, child))
        f_l = current_f_lower()
        bound_log.append((f_l, state["f_upper"]))
        reason = converged(f_l)

    if reason is None:
        # queue exhausted: every region is certified
        reason = "exhausted"
        f_l = state["f_upper"]
    else:
        f_l = current_f_lower()
    bound_log.append((f_l, state["f_upper"]))
    return _final_report(state, f_l, reason, bound_log, prune_log, pairs_root, t0)


def _final_report(state, f_lower, reason, bound_log, prune_log, pairs_root, t0) -> SolveReport:
    f_upper = state["f_upper"]
    return SolveReport(
        incumbent=state["incumbent"],
        f_lower=f_lower,
        f_upper=f_upper,
        gap_abs=f_upper - f_lower,
        gap_rel=relative_gap(f_upper, f_lower),
        converged_by=reason,
        nodes_explored=state["explored"],
        nodes_pruned_bound=state["pruned_bound"],
        nodes_pruned_infeasible=state["pruned_infeasible"],
        nodes_finalized=state["finalized"],
        pairs_root=pairs_root,
        pairs_eliminated=state["eliminated"],
        bound_log=bound_log,
        prune_log=prune_log,
        wall_time=time.monotonic() - t0,
    )
