"""The MIQCQP formulation of the alignment problem over an angle box: model
construction, the plain-text MIQCQP v1 format (see README) and the adapter
that runs an external solver on it for a node's lower bound."""

from __future__ import annotations

import logging
import math
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cloud import Cloud
from .reduce import PairSet
from .relax import _reach_bounds
from .rotation import ROTATION_MONOMIALS, AngleBox, rotation_interval, trig_bounds

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    """Unrecoverable global-solver failure (bad inputs, broken adapter contract)."""


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


def build_miqcqp(hat: Cloud, bar: Cloud, pairs: PairSet, box: AngleBox) -> MiqcqpModel:
    """Quadratically constrained model of the alignment problem on the
    retained pairs, with variable bounds tightened to the angle box."""
    if pairs.size == 0 or not pairs.covers_all_i():
        raise SolverError("pair set leaves some hat point without candidates")
    variables = [Variable(name, lo, hi, "C") for name, (lo, hi) in trig_bounds(box).items()]

    hat_ids = np.unique(pairs.i)
    bar_ids = np.unique(pairs.j)
    ri = rotation_interval(box)

    def world_bounds(cloud, ids):
        # reach boxes of all listed points, placed by their INS pose
        lo, hi = _reach_bounds(ri, cloud.l[ids])
        R = cloud.ins_rotation[ids]
        wc = cloud.s[ids] + np.einsum("nij,nj->ni", R, 0.5 * (lo + hi))
        wh = np.einsum("nij,nj->ni", np.abs(R), 0.5 * (hi - lo))
        return wc - wh, wc + wh

    ph_lo, ph_hi = world_bounds(hat, hat_ids)
    pb_lo, pb_hi = world_bounds(bar, bar_ids)
    for prefix, ids, los, his in (("ph", hat_ids, ph_lo, ph_hi), ("pb", bar_ids, pb_lo, pb_hi)):
        for k, lo, hi in zip(ids, los, his):
            for e in range(3):
                variables.append(Variable(f"{prefix}_{k}_{e}", float(lo[e]), float(hi[e]), "C"))
    for i in hat_ids:
        rows = np.searchsorted(bar_ids, pairs.candidates_for(int(i)))
        lo, hi = pb_lo[rows].min(axis=0), pb_hi[rows].max(axis=0)
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
        # p_e - [s + R_ins R(u,v,w) l]_e = 0, where [R_ins R l]_e is vec(R)
        # times placement column (idx, e); each monomial of R is in one entry
        for e in range(3):
            terms = [(-k * coef, names)
                     for k, entry in zip(cloud.placement[:, 3 * idx + e], ROTATION_MONOMIALS)
                     if k != 0.0 for coef, names in entry]
            constraints.append(Constraint(
                sense="=", rhs=float(cloud.s[idx, e]),
                quad=[(c, *names) for c, names in terms if len(names) == 2],
                lin=[(1.0, f"{prefix}_{idx}_{e}")] + [(c, *names) for c, names in terms
                                                      if len(names) == 1],
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
    """Load a model written by export_model (exact round trip). A malformed
    file raises SolverError naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n = 0  # lines read so far; the current line's number

    def error(what: str) -> SolverError:
        return SolverError(f"{path}:{n}: {what}")

    def take() -> str:
        nonlocal n
        n += 1
        if n > len(lines):
            raise error("unexpected end of file")
        return lines[n - 1]

    try:
        if take() != "MIQCQP v1":
            raise error("not a MIQCQP v1 file")
        head = take().split()
        if head[0] != "VARS":
            raise error("expected VARS section")
        variables = []
        for _ in range(int(head[1])):
            name, lo, hi, kind = take().split()
            if kind not in ("C", "B"):
                raise error(f"unknown variable kind {kind!r}")
            variables.append(Variable(name, float(lo), float(hi), kind))
        if take() != "OBJ":
            raise error("expected OBJ section")
        obj_quad: list[tuple[float, str, str]] = []
        obj_lin: list[tuple[float, str]] = []
        obj_const = 0.0
        line = take()
        while not line.startswith("CONSTR"):
            parts = line.split()
            if parts[0] == "Q":
                obj_quad.append((float(parts[1]), parts[2], parts[3]))
            elif parts[0] == "L":
                obj_lin.append((float(parts[1]), parts[2]))
            elif parts[0] == "C":
                obj_const = float(parts[1])
            else:
                raise error(f"bad objective line {line!r}")
            line = take()
        constraints = []
        for _ in range(int(line.split()[1])):
            tokens = take().split()
            sense, rhs = tokens[0], float(tokens[1])
            if sense not in ("=", "<="):
                raise error(f"unknown constraint sense {sense!r}")
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
                    raise error(f"bad constraint token {tokens[k]!r}")
            constraints.append(Constraint(sense=sense, rhs=rhs, quad=quad, lin=lin))
    except (IndexError, ValueError) as exc:  # missing fields, bad numbers
        raise error(f"malformed line ({exc})") from exc
    return MiqcqpModel(
        variables=variables, constraints=constraints,
        objective_quad=obj_quad, objective_lin=obj_lin, objective_const=obj_const,
    )


def external_lower_bound(
    hat: Cloud,
    bar: Cloud,
    pairs: PairSet,
    box: AngleBox,
    solver_cmd: str,
    t_max: float,
    node_upper: float,
) -> float | None:
    """Run `solver_cmd model_path` on the node's model and return the value of
    its last `LOWER <value>` stdout line. None, with a warning, when the call
    fails or times out, prints no such line, or the value is not finite or
    exceeds node_upper (the objective at an angle in the box)."""
    path = None
    try:
        model = build_miqcqp(hat, bar, pairs, box)
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
