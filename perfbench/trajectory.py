#!/usr/bin/env python3
"""Record and compare benchmark trajectory points (``BENCH_<n>.json``).

    python3 perfbench/trajectory.py record --out perfbench/results/BENCH_<n>.json \
        [--workloads ingest shapes grid] [--seeds 10] [--first-seed 1]
    python3 perfbench/trajectory.py compare OLD.json NEW.json

``record`` runs ``perfbench/run.py`` once per (workload, seed) untraced and
twice per workload traced (same seed, so the two count sets must match).
It stores every run's last-line metrics, the spread of each end-to-end
metric as (Q3 - Q1) / median over the seeds, and the environment stamp.
``compare`` refuses two points whose CPU count or numba presence differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMPARABLE = ("nproc", "numba")
TRACED_RUNS = 2  # per workload, same seed, so their counts must match


def _run(workload: str, seed: int, trace: int, details: Path) -> dict:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace), "--out", str(details)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not last["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed")
    record = json.loads(details.read_text())
    print(f"{workload:<7} seed {seed:>3} trace {trace}: " + ", ".join(
        f"{k}={v['value']:.4g}" for k, v in list(last["metrics"].items())[:6]), flush=True)
    return {"seed": seed, **last, "table": record.get("table", {}),
            "failed_exit_codes": record.get("failed_exit_codes", {}),
            "env": record["env"]}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values)}


def record(args) -> int:
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    point = {"benchmark": SPEC, "workloads": {}}
    envs = []
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        runs = [_run(workload, s, 0, outdir / f"{workload}-{s}-0.json") for s in seeds]
        traced = [_run(workload, seeds[0], 1, outdir / f"{workload}-{seeds[0]}-1-{k}.json")
                  for k in range(TRACED_RUNS)]
        envs += [r.pop("env") for r in runs + traced]
        e2e = {
            m["name"]: spread([r["metrics"][m["name"]]["value"] for r in runs])
            for m in SPEC["end_to_end"]
        }
        for m in SPEC["end_to_end"]:
            e2e[m["name"]]["bound"] = m["bound"]
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] in ("count", "B")} for t in traced]
        point["workloads"][workload] = {
            "end_to_end": e2e,
            "stages": _pooled_stages(runs),
            "per_layer": {k: statistics.median(t["metrics"][k]["value"] for t in traced)
                          for k in traced[0]["metrics"]} if traced else {},
            "traced_counts_identical": all(c == counts[0] for c in counts),
            "runs": runs,
            "traced_runs": traced,
        }
    stamp = {k: envs[0][k] for k in envs[0]}
    if any({k: e[k] for k in COMPARABLE} != {k: stamp[k] for k in COMPARABLE} for e in envs):
        raise SystemExit("runs disagree on CPU count or numba presence")
    point["env"] = stamp
    Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    for workload, entry in point["workloads"].items():
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- wide"
            print(f"{workload:<7} {name:<12} median {s['median']:.4g}  "
                  f"spread {s['spread']:.3f} (bound {s['bound']}){flag}")
        if not entry["traced_counts_identical"]:
            print(f"{workload:<7} traced counts differ between runs  <-- error")
    return 0


def _pooled_stages(runs: list[dict]) -> dict:
    """Per-stage medians over runs, with the per-run sample counts summed."""
    out = {}
    for name in runs[0]["table"]:
        medians = [r["table"][name]["median"] for r in runs if name in r["table"]]
        out[name] = {"median_of_run_medians": statistics.median(medians),
                     "samples": sum(r["table"][name]["n"] for r in runs if name in r["table"])}
    return out


def compare(args) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
    for key in COMPARABLE:
        if old["env"][key] != new["env"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({old['env'][key]!r} vs {new['env'][key]!r})", file=sys.stderr)
            return 2
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        a = old["workloads"][workload]["end_to_end"]
        b = new["workloads"][workload]["end_to_end"]
        for name in a:
            if name in b:
                ratio = b[name]["median"] / a[name]["median"]
                print(f"{workload:<7} {name:<12} {a[name]['median']:>10.4g} -> "
                      f"{b[name]['median']:<10.4g} x{ratio:.3f}  "
                      f"(old spread {a[name]['spread']:.3f}, bound {a[name]['bound']})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("record")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.set_defaults(func=record)
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
