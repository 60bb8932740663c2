"""Command-line surface: synthesis, cropping, heuristics, the global solver,
georeferencing and model export, with reproducible key=value reports.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver error.
Report grammar: lines are either `key=value` or `#`-prefixed comments.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .cloud import (CloudFormatError, CropBox, EmptySelectionError, crop,
                    decimate, georeference, load_fused, save_fused,
                    save_ground_truth, synth_generate)
from .gopt import nsbb_solve
from .miqcqp import SolverError, build_miqcqp, export_model
from .reduce import reduce_pairs
from .relax import compute_pair_set
from .rotation import AngleBox, EulerAngles
from .search import AgsConfig, ags_run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data errors
        raise UsageError(message)


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"{what}: expected {n} comma-separated values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _angles_arg(text: str) -> EulerAngles:
    a, b, g = _parse_floats(text, 3, "--angles")
    return EulerAngles.from_degrees(a, b, g)


def _box_arg(bounds_deg: float) -> AngleBox:
    if not 0 < bounds_deg < 90:
        raise UsageError("--bounds must be in (0, 90) degrees")
    return AngleBox.symmetric_deg(bounds_deg)


def _checked(make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except ValueError as exc:  # a setting out of range: an argument, not data
        raise UsageError(str(exc)) from exc


def _write_report(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_kv(pairs: list[tuple[str, object]]) -> list[str]:
    lines = []
    for key, value in pairs:
        if isinstance(value, float):
            value = f"{value:.9g}" if key.endswith("_s") else repr(value)
        lines.append(f"{key}={value}")
    return lines


def _angles_report(angles: EulerAngles) -> list[tuple[str, object]]:
    deg = angles.to_degrees()
    return [(f"{name}_deg", f"{v:.6f}") for name, v in zip(("alpha", "beta", "gamma"), deg)]


def _human_table(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(k) for k, _ in rows)
    return ["#", "# " + "-" * (width + 24)] + [f"# {k.ljust(width)}  {v}" for k, v in rows]


def _build_parser() -> _Parser:
    p = _Parser(prog="boresight", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    # the inputs of the four solver commands
    clouds = argparse.ArgumentParser(add_help=False)
    clouds.add_argument("--hat", required=True)
    clouds.add_argument("--bar", required=True)
    clouds.add_argument("--bounds", type=float, default=2.0, help="angle box half-width (deg)")

    sp = sub.add_parser("synth", help="generate a synthetic two-flight-line scene")
    sp.add_argument("--n", required=True, help="hat,bar point counts, e.g. 1000,2000")
    sp.add_argument("--angles", required=True, help="true boresight in degrees: a,b,g")
    sp.add_argument("--noise", type=float, default=0.0, help="scanner-frame noise sigma (m)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--object-fraction", type=float, default=0.6)
    sp.add_argument("--out", required=True, help="output path prefix (three files written)")

    cp = sub.add_parser("crop", help="crop a fused file to a mapping-frame box")
    cp.add_argument("--in", dest="infile", required=True)
    cp.add_argument("--box", required=True, help="x0,y0,z0,x1,y1,z1 (m)")
    cp.add_argument("--angles", default="0,0,0", help="boresight guess in degrees")
    cp.add_argument("--decimate", type=int, default=1, help="keep every k-th point")
    cp.add_argument("--out", required=True)

    ap = sub.add_parser("ags", parents=[clouds], help="adaptive grid search heuristic")
    ap.add_argument("--nd", type=int, default=10)
    ap.add_argument("--tmax", type=float, default=100.0)
    ap.add_argument("--shrink", type=float, default=0.10)
    ap.add_argument("--rounds", type=int, default=None, help="round cap (deterministic)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)

    npb = sub.add_parser("nsbb", parents=[clouds],
                         help="certified global solve via branch-and-bound")
    npb.add_argument("--eps-rel", type=float, default=0.01)
    npb.add_argument("--eps-abs", type=float, default=0.1)
    npb.add_argument("--node-time", type=float, default=30.0)
    npb.add_argument("--solver-cmd", default=None,
                     help="external lower-bound solver, run as CMD model_path per node")
    npb.add_argument("--max-nodes", type=int, default=None)
    npb.add_argument("--time-limit", type=float, default=None)
    npb.add_argument("--no-ags-init", action="store_true",
                     help="skip the grid-search warm start for the upper bound")
    npb.add_argument("--ags-nd", type=int, default=8)
    npb.add_argument("--ags-rounds", type=int, default=4)
    npb.add_argument("--seed", type=int, default=0)
    npb.add_argument("--out", default=None)

    app = sub.add_parser("apply", help="georeference a fused file at fixed angles")
    app.add_argument("--in", dest="infile", required=True)
    app.add_argument("--angles", required=True)
    app.add_argument("--out", required=True)

    ep = sub.add_parser("export-model", parents=[clouds],
                        help="write the MIQCQP text model for a box")
    ep.add_argument("--f-upper", type=float, default=np.inf,
                    help="valid upper bound used to reduce pairs before export")
    ep.add_argument("--out", required=True)

    rp = sub.add_parser("reduce-stats", parents=[clouds],
                        help="pair-elimination statistics over a box")
    rp.add_argument("--f-upper", type=float, default=np.inf)
    rp.add_argument("--out", default=None)
    return p


def _cmd_synth(args) -> int:
    counts = _parse_floats(args.n, 2, "--n")
    n_hat, n_bar = int(counts[0]), int(counts[1])
    angles = _angles_arg(args.angles)
    hat, bar, gt = _checked(synth_generate, n_hat, n_bar, angles, args.noise, args.seed,
                            object_fraction=args.object_fraction)
    save_fused(hat, args.out + "_hat.txt")
    save_fused(bar, args.out + "_bar.txt")
    save_ground_truth(gt, args.out + "_truth.txt")
    _write_report(_report_kv([
        ("command", "synth"),
        ("hat_file", args.out + "_hat.txt"),
        ("bar_file", args.out + "_bar.txt"),
        ("truth_file", args.out + "_truth.txt"),
        ("n_hat", n_hat),
        ("n_bar", n_bar),
        ("seed", args.seed),
    ]), None)
    return EXIT_OK


def _cmd_crop(args) -> int:
    vals = _parse_floats(args.box, 6, "--box")
    box = _checked(CropBox, np.array(vals[:3]), np.array(vals[3:]))
    angles = _angles_arg(args.angles)
    if args.decimate < 1:
        raise UsageError("--decimate must be >= 1")
    c = decimate(crop(load_fused(args.infile), box, angles), args.decimate)
    save_fused(c, args.out)
    _write_report(_report_kv([
        ("command", "crop"),
        ("in", args.infile),
        ("out", args.out),
        ("n_points", len(c)),
    ]), None)
    return EXIT_OK


def _cmd_ags(args) -> int:
    cfg = _checked(AgsConfig, n_d=args.nd, t_max=args.tmax, box=_box_arg(args.bounds),
                   shrink=args.shrink, seed=args.seed, max_rounds=args.rounds)
    hat = load_fused(args.hat, label="hat")
    bar = load_fused(args.bar, label="bar")
    t0 = time.monotonic()
    result = ags_run(hat, bar, cfg)
    wall = time.monotonic() - t0
    kv = [
        ("command", "ags"),
        ("hat", args.hat), ("bar", args.bar),
        ("nd", args.nd), ("tmax", args.tmax), ("shrink", args.shrink),
        ("bounds_deg", args.bounds), ("seed", args.seed),
        ("rounds", result.rounds), ("evaluations", result.n_evals),
        ("screened", result.n_screened),
        ("objective", repr(result.best.objective)),
    ] + _angles_report(result.best.angles) + [("wall_time_s", wall)]
    lines = _report_kv(kv) + _human_table([
        ("objective", f"{result.best.objective:.6g}"),
        ("angles (deg)", "  ".join(f"{v:.6f}" for v in result.best.angles.to_degrees())),
        ("rounds", str(result.rounds)),
    ])
    _write_report(lines, args.out)
    return EXIT_OK


def _cmd_nsbb(args) -> int:
    box = _box_arg(args.bounds)
    if args.time_limit is not None and not args.time_limit > 0:
        raise UsageError("--time-limit must be positive seconds")
    if not (args.eps_rel > 0 and args.eps_abs > 0):
        raise UsageError("--eps-rel and --eps-abs must be positive")
    if not args.node_time > 0:
        raise UsageError("--node-time must be positive seconds")
    if args.max_nodes is not None and args.max_nodes < 0:
        raise UsageError("--max-nodes must be >= 0")
    cfg = None if args.no_ags_init else _checked(
        AgsConfig, n_d=args.ags_nd, t_max=args.time_limit or 1e9, box=box, seed=args.seed,
        max_rounds=args.ags_rounds)
    hat = load_fused(args.hat, label="hat")
    bar = load_fused(args.bar, label="bar")
    init = None
    ags_objective = None
    # --time-limit is one budget: the warm start spends from it, nsBB gets the rest
    time_left = args.time_limit
    t_ags = 0.0
    if cfg is not None:
        t0 = time.monotonic()
        init = ags_run(hat, bar, cfg).best
        t_ags = time.monotonic() - t0
        ags_objective = init.objective
        if time_left is not None:
            time_left = max(0.0, time_left - t_ags)
    report = nsbb_solve(
        hat, bar, box,
        eps_rel=args.eps_rel, eps_abs=args.eps_abs, node_time=args.node_time,
        f_upper_init=init, solver_cmd=args.solver_cmd,
        max_nodes=args.max_nodes, time_limit=time_left,
    )
    kv = [
        ("command", "nsbb"),
        ("hat", args.hat), ("bar", args.bar),
        ("eps_rel", args.eps_rel), ("eps_abs", args.eps_abs),
        ("bounds_deg", args.bounds), ("seed", args.seed),
        ("lb_mode", "builtin" if args.solver_cmd is None else "external"),
    ]
    if ags_objective is not None:
        kv.append(("ags_objective", repr(ags_objective)))
    kv += [
        ("objective", repr(report.f_upper)),
        ("f_lower", repr(report.f_lower)),
        ("f_upper", repr(report.f_upper)),
        ("gap_abs", repr(report.gap_abs)),
        ("gap_rel", repr(report.gap_rel)),
        ("converged_by", report.converged_by),
        ("nodes_explored", report.nodes_explored),
        ("nodes_pruned_bound", report.nodes_pruned_bound),
        ("nodes_pruned_infeasible", report.nodes_pruned_infeasible),
        ("nodes_finalized", report.nodes_finalized),
        ("pairs_root", report.pairs_root),
        ("pairs_eliminated", report.pairs_eliminated),
    ] + _angles_report(report.incumbent.angles) + [
        ("ags_time_s", t_ags),
        ("nsbb_time_s", report.wall_time),
        ("wall_time_s", t_ags + report.wall_time),
    ]
    lines = _report_kv(kv) + _human_table([
        ("objective", f"{report.f_upper:.6g}"),
        ("bounds", f"[{report.f_lower:.6g}, {report.f_upper:.6g}]"),
        ("gap (abs/rel)", f"{report.gap_abs:.3g} / {report.gap_rel:.3g}"),
        ("angles (deg)", "  ".join(f"{v:.6f}" for v in report.incumbent.angles.to_degrees())),
        ("nodes", str(report.nodes_explored)),
    ])
    _write_report(lines, args.out)
    return EXIT_OK


def _cmd_apply(args) -> int:
    c = load_fused(args.infile)
    p = georeference(c, _angles_arg(args.angles))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,y,z\n")
        for row in p:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    _write_report(_report_kv([
        ("command", "apply"),
        ("in", args.infile), ("out", args.out), ("n_points", len(c)),
    ]), None)
    return EXIT_OK


def _root_pairs(args):
    """Clouds, box, --f-upper (default inf) and the box's pairs before and after reduction."""
    box, f_upper = _box_arg(args.bounds), args.f_upper
    if not f_upper >= 0:
        raise UsageError("--f-upper must be >= 0")
    hat = load_fused(args.hat, label="hat")
    bar = load_fused(args.bar, label="bar")
    pairs = compute_pair_set(hat, bar, box, f_upper=f_upper)
    return hat, bar, box, f_upper, pairs, reduce_pairs(pairs, f_upper)


def _cmd_export_model(args) -> int:
    hat, bar, box, _, _, red = _root_pairs(args)
    if red.infeasible:
        raise SolverError("pair reduction left some point without candidates")
    model = build_miqcqp(hat, bar, red.pairs, box)
    export_model(model, args.out)
    _write_report(_report_kv([
        ("command", "export-model"),
        ("out", args.out),
        ("n_vars", len(model.variables)),
        ("n_binaries", len(model.binaries())),
        ("n_constraints", len(model.constraints)),
    ]), None)
    return EXIT_OK


def _cmd_reduce_stats(args) -> int:
    _, _, _, f_upper, pairs, red = _root_pairs(args)
    lines = _report_kv([
        ("command", "reduce-stats"),
        ("bounds_deg", args.bounds),
        ("f_upper", repr(f_upper)),
        ("pairs_before", pairs.size),
        ("pairs_after", red.pairs.size),
        ("removed_objective_rule", red.removed_objective),
        ("removed_closest_rule", red.removed_closest),
        ("infeasible", int(red.infeasible)),
    ])
    _write_report(lines, args.out)
    return EXIT_OK


_HANDLERS = {
    "synth": _cmd_synth,
    "crop": _cmd_crop,
    "ags": _cmd_ags,
    "nsbb": _cmd_nsbb,
    "apply": _cmd_apply,
    "export-model": _cmd_export_model,
    "reduce-stats": _cmd_reduce_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (CloudFormatError, EmptySelectionError, OSError, ValueError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
