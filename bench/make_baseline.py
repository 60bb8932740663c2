#!/usr/bin/env python3
"""Write bench/baseline.json from the benchmark's records in bench_results/.

Usage (from the repository root, after the runs):

    python3 bench/make_baseline.py --sets 1-10 11-20 --traced-seed 1

Each set is a range of run seeds whose ``--trace 0`` records exist for every
workload; ``--traced-seed`` names the ``--trace 1`` records whose per-layer
metrics are kept. Prints, per workload and result-line metric, each set's
quartile spread (q3 - q1) / median and how much worse the last set's median
is than the first's, against the metric's bound in BENCHMARK.json.

The baseline also keeps every scene's fingerprint (see run.fingerprint); a run
of the same library sources on the same scene seed checks its own against it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _load(name: str, seed: int, trace: int) -> dict:
    path = run.ROOT / "bench_results" / f"BENCH_{name}_seed{seed}_trace{trace}.json"
    return json.loads(path.read_text())


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", nargs="+", required=True, type=_seed_range)
    p.add_argument("--traced-seed", type=int, required=True)
    args = p.parse_args(argv)

    bounds = {m["name"]: m for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())
              ["end_to_end"]}
    units = dict(run.END_TO_END + run.RECORD_ONLY)
    out = {"workloads": {}}
    fingerprints: dict[str, dict] = {}
    context = None
    for wl in run.WORKLOADS.values():
        traced = _load(wl.name, args.traced_seed, 1)
        sets = []
        records = [traced]
        for seeds in args.sets:
            recs = [_load(wl.name, s, 0) for s in seeds]
            records += recs
            sets.append({"seeds": [seeds[0], seeds[-1]], "end_to_end": {
                name: {**_stats([r["end_to_end"][name]["value"] for r in recs]), "unit": unit}
                for name, unit in units.items()
                if all(r["end_to_end"][name]["value"] is not None for r in recs)}})
        scene_fps = fingerprints.setdefault(wl.name, {})
        for r in records:
            ctx = {k: r["context"][k] for k in ("library_sha256", "python", "numpy", "scipy")}
            if context is None:
                context = ctx
                out["host"] = {k: r["context"][k] for k in ("nproc", "python", "numpy", "scipy")}
                out["commit"] = r["context"]["commit"]
            if ctx != context or not r["result"]["correct"]:
                sys.exit(f"{wl.name} seed {r['context']['seed']}: other library or versions, "
                         "or a failed run")
            for scene, fp in r["fingerprints"].items():
                known = scene_fps.setdefault(scene, {})
                for key, value in fp.items():
                    if not run.same_across_processes(known.setdefault(key, value), value):
                        sys.exit(f"{wl.name} scene {scene}: {key} differs between records")
        out["workloads"][wl.name] = {
            "budget": {k: v for k, v in traced["context"]["workload"].items()
                       if k not in ("name", "why")},
            "sets": sets,
            "per_layer_seed": args.traced_seed,
            "per_layer": {k: {"value": m["value"], "unit": m["unit"]}
                          for k, m in traced["per_layer"].items()},
            "trace_root_s": traced["trace"]["root_s"],
            "trace_self_sum_s": traced["trace"]["self_sum_s"],
        }
        for name, _unit in run.END_TO_END:
            first, last = sets[0]["end_to_end"][name], sets[-1]["end_to_end"][name]
            sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
            drift = sign * (last["median"] / first["median"] - 1.0)
            print(f"{wl.name:13s} {name:12s} spreads "
                  + " / ".join(f"{s['end_to_end'][name]['spread']:.3f}" for s in sets)
                  + f"  worse by {drift:+.3f}  bound {bounds[name]['bound']}")
    out["fingerprints"] = {**context, "workloads": fingerprints}
    path = run.BASELINE
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
