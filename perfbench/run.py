#!/usr/bin/env python3
"""Outside-in benchmark of the annodist CLI pipeline.

    python3 perfbench/run.py --workload {ingest,shapes,grid} --seed N \
        --seconds S --trace {0,1} [--out result.json]

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` runs each CLI command in a child process and
reports the end-to-end metrics.  ``--trace 1`` calls ``annodist.cli.main``
in-process with ``--jobs 1``, once plain and once with every layer's public
functions wrapped by the tracer, and reports per-layer metrics plus the
tracing overhead.  The last line of stdout is one JSON object; the exit
code is non-zero when any output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import platform
import signal
import statistics
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from tracer import FAILED, Tracer, patched
from workloads import HANDLED_FAILURES, WORKLOADS, Op, OpResult, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 150.0
# Typical wall time of calibration_kernel() on the reference machine (2-vCPU
# Intel Xeon, Python 3.11, NumPy 2.4).  End-to-end times are reported in
# reference seconds: each child's measured seconds x CAL_REF_S / the mean
# kernel time over the CAL_WINDOW children before and after it.
CAL_REF_S = 0.048
CAL_REPEATS = 3  # kernel runs after each child
CAL_WINDOW = 3

# Metric names, units and order come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
# Per-layer metrics that must repeat exactly between traced passes.
DETERMINISTIC_UNITS = ("count", "B")


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": _commit(),
        "src_sha256": digest(sorted((SRC / "annodist").glob("*.py")))[:16],
    }


# ---------------------------------------------------------------------------
# Running CLI operations
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ANNODIST_OUT_ROOT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


# A small, fresh launcher forks each command and reaps it with os.wait4.
# Linux carries a process's pre-exec peak RSS into the exec'd program, so a
# child spawned straight from this (large) process would report our own peak.
_LAUNCHER = r"""
import json, os, sys, time
out, err, *cmd = sys.argv[1:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
    os.dup2(os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
    try:
        os.execv(cmd[0], cmd)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(json.dumps([time.perf_counter() - start, os.waitstatus_to_exitcode(status),
                  usage.ru_maxrss]))
"""


def spawn(cmd: list[str], env: dict, workdir: Path, timeout: float = OP_TIMEOUT_S):
    """Run ``cmd`` to completion; (seconds, exit code, peak RSS MB, out, err).

    A command that outlives ``timeout`` is killed with its process group and
    reported with exit code -9.
    """
    out_path, err_path = workdir / "op.stdout", workdir / "op.stderr"
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", "-c", _LAUNCHER, str(out_path), str(err_path), *cmd],
        stdout=subprocess.PIPE, env=env, start_new_session=True, text=True,
    )
    try:
        report, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return timeout, -9, 0.0, "", f"killed after {timeout} s"
    finally:
        _kill_group(proc.pid)  # stray grandchildren, if any
    seconds, rc, maxrss_kb = json.loads(report)
    return (seconds, rc, maxrss_kb / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


class Runner:
    """Runs workload operations in a child process or in-process."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.machine_s: list[float] = []  # calibration kernel times, in order
        self._calibrate()

    def _calibrate(self) -> None:
        self.machine_s += [calibration_kernel() for _ in range(CAL_REPEATS)]

    def ref_seconds(self, r: OpResult) -> float:
        """``r.seconds`` at the reference machine speed.

        The speed is the mean kernel time over the CAL_WINDOW children
        before and after the child, so call this once the run is over.
        """
        span = CAL_REPEATS * CAL_WINDOW
        window = self.machine_s[max(0, r.mark - span): r.mark + span]
        return r.seconds * CAL_REF_S / statistics.fmean(window)

    def _spawn(self, op: Op, cmd: list[str]) -> OpResult:
        """Run one child, then time the calibration kernel after it."""
        seconds, rc, rss, out, err = spawn(cmd, self.env, self.workdir)
        mark = len(self.machine_s)
        self._calibrate()
        return OpResult(op, seconds, rc, rss, out, err, mark)

    def subprocess(self, op: Op) -> OpResult:
        return self._spawn(op, [sys.executable, "-m", "annodist.cli", *op.argv])

    def startup(self) -> OpResult:
        r = self._spawn(Op("startup_s", ()), [sys.executable, "-c", "import annodist.cli"])
        if r.rc != 0:
            raise SystemExit(f"perfbench: cannot import annodist.cli from {SRC}:\n{r.stderr}")
        return r

    @staticmethod
    def inprocess(op):
        from annodist import cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except Exception:  # an escaped exception is a traceback for the user
            rc = -1
            err.write(traceback.format_exc())
        return OpResult(op, time.perf_counter() - start, rc, None,
                        out.getvalue(), err.getvalue())


def op_errors(results) -> list[str]:
    """Every operation exits 0, or 2/3 where a handled failure is allowed,
    and never prints a Python traceback."""
    errors = []
    for r in results:
        allowed = (0,) + (HANDLED_FAILURES if r.op.may_fail else ())
        if r.rc not in allowed:
            errors.append(f"{r.op.argv[0]} exited {r.rc}: {r.stderr.strip()[-400:]}")
        if "Traceback (most recent call last)" in r.stderr:
            errors.append(f"{r.op.argv[0]} printed a traceback")
    return errors


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def high_percentile(samples) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples above."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def summarize(samples) -> dict:
    out = {"median": statistics.median(samples), "n": len(samples)}
    hi = high_percentile(samples)
    if hi is not None:
        out["p_hi"], out["p_hi_value"] = hi
    return out


# ---------------------------------------------------------------------------
# Tracing targets
# ---------------------------------------------------------------------------


def _elements(n_args):
    def count(counts, name, args, kwargs, result):
        counts[f"{name}.elements"] += np.broadcast(*args[:n_args]).size
    return count


def _rows(counts, name, args, kwargs, result):
    if result is FAILED:
        return
    if name == "pipeline.read_dataset":
        counts[f"{name}.rows"] += len(result[0])
    else:
        counts[f"{name}.rows"] += sum(item.timestamps.size for item in result)


def _bytes(counts, name, args, kwargs, result):
    if result is not FAILED:
        counts[f"{name}.bytes"] += os.path.getsize(args[0])


def _epochs(counts, name, args, kwargs, result):
    if result is not FAILED:
        counts["nn.train.epochs"] += result.n_epochs
        counts["nn.train.epochs_after_best"] += result.n_epochs - result.best_epoch


def _cells(counts, name, args, kwargs, result):
    if result is not FAILED:
        counts["experiments.cells"] += len(result.cells)
        counts["experiments.cells_failed"] += len(result.failures())


def trace_targets() -> list[tuple]:
    from annodist import cli, consensus, experiments, metrics, nn, pipeline, special, synthetic

    return [
        ("special.inv_reg_inc_beta", special, "inv_reg_inc_beta", _elements(3)),
        ("special.log_beta", special, "log_beta", None),
        ("special.digamma", special, "digamma", _elements(1)),
        ("consensus.descriptors_arrays", consensus, "descriptors_arrays", _elements(2)),
        ("consensus.consensus_moments", consensus, "consensus_moments", None),
        ("pipeline.read_feature_csv", pipeline, "read_feature_csv", _rows),
        ("pipeline.read_annotation_csv", pipeline, "read_annotation_csv", _rows),
        ("pipeline.window_features", pipeline, "window_features", None),
        ("pipeline.window_consensus", pipeline, "window_consensus", None),
        ("pipeline.build_dataset", pipeline, "build_dataset", None),
        ("pipeline.write_dataset", pipeline, "write_dataset", None),
        ("pipeline.write_feature_csv", pipeline, "write_feature_csv", _bytes),
        ("pipeline.write_annotation_csv", pipeline, "write_annotation_csv", None),
        ("pipeline.read_dataset", pipeline, "read_dataset", _rows),
        ("synthetic.generate", synthetic, "generate", None),
        ("nn.train", nn, "train", _epochs),
        ("nn.backward_and_step", nn, "backward_and_step", None),
        ("nn.gradients", nn, "gradients", None),
        ("nn.adam_step", nn, "adam_step", None),
        ("nn.forward", nn, "forward", None),
        ("metrics.kl_beta_arrays", metrics, "kl_beta_arrays", _elements(4)),
        ("metrics.ccc", metrics, "ccc", None),
        ("metrics.wilcoxon_signed_rank", metrics, "wilcoxon_signed_rank", None),
        ("experiments.DatasetArrays.from_samples", experiments.DatasetArrays,
         "from_samples", None),
        ("experiments.run_grid", experiments, "run_grid", _cells),
        ("experiments.write_report", experiments, "write_report", None),
        ("experiments.emit_density_data", experiments, "emit_density_data", None),
        ("cli.synth", cli, "_cmd_synth", None),
        ("cli.build", cli, "_cmd_build", None),
        ("cli.fit", cli, "_cmd_fit", None),
        ("cli.run", cli, "_cmd_run", None),
        ("cli.report", cli, "_cmd_report", None),
    ]


def layer_metrics(tracer, overhead_frac: float, startup_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed like ``PER_LAYER``."""
    self_s, incl_s = tracer.totals()
    counts = tracer.counts
    derived = {
        "special.inv_reg_inc_beta.us_per_element": 1e6 * self_s.get(
            "special.inv_reg_inc_beta", 0.0
        ) / max(counts["special.inv_reg_inc_beta.elements"], 1),
        "nn.us_per_step": 1e6 * incl_s.get("nn.backward_and_step", 0.0)
        / max(counts["nn.backward_and_step.calls"], 1),
        "nn.train.epochs_after_best_frac": counts["nn.train.epochs_after_best"]
        / max(counts["nn.train.epochs"], 1),
        "cli.startup_s": startup_s,
        "trace_overhead_frac": overhead_frac,
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = float(derived[name])
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            out[name] = float(counts[name])
    return out


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def set_up(wl, runner: Runner):
    """Set up SETUP_REPEATS times.

    Each repeat is one CLI start-up (``import annodist.cli``) plus the
    workload's set-up, of which only the CLI commands (``grid``: ``synth``
    and ``build``) are program work.  Returns, per repeat, the list of
    those child results, and any errors.
    """
    repeats, errors, digests = [], [], set()
    for i in range(SETUP_REPEATS):
        startup = runner.startup()
        results = wl.setup(i, runner.subprocess)
        repeats.append([startup, *results])
        errors += op_errors(results)
        if not errors:
            digests.add(wl.setup_digest())
    if len(digests) > 1:
        errors.append("set-up inputs differ between repeats of one seed")
    return repeats, errors


def calibration_kernel() -> float:
    """Fixed work mixing the program's kinds of work; returns wall seconds.

    A scalar float loop with libm calls (the special-function kernels), small
    dense NumPy steps (network training) and float formatting into CSV rows
    (file I/O).  The shared machine's speed drifts by up to a third, over
    seconds and over minutes; timing this kernel after every child process
    samples that drift all through a run.
    """
    rng = np.random.default_rng(0)
    x, w = rng.random((128, 24)), rng.random((24, 18)) * 0.1
    start = time.perf_counter()
    h = 1.0
    for m in range(1, 30001):
        aa = m * (3.5 - m) * 0.3 / ((2.0 + 2 * m) * (4.0 + 2 * m))
        h *= 1.0 + aa / (1.0 + math.log1p(aa * aa))
    for _ in range(1000):
        z = np.maximum(x @ w, 0.0)
        w = w - 1e-6 * (x.T @ z)
    writer = csv.writer(io.StringIO())
    for i in range(3600):
        writer.writerow([repr(i * 0.1), repr(h + i), repr(float(w[0, 0]))])
    return time.perf_counter() - start


def _another(start: float, done: int, seconds: float) -> bool:
    """Start another iteration unless it would end more than half an
    iteration past ``seconds``, so a run measures about ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def measure_plain(wl, runner: Runner, seconds: float, setups: list[list[OpResult]]) -> dict:
    errors, iterations = [], []
    start = time.perf_counter()
    while True:
        results = [runner.subprocess(op) for op in wl.ops(traced=False)]
        errors += op_errors(results)
        if not errors:
            errors += wl.check(results, traced=False)
        iterations.append(results)
        if errors or not _another(start, len(iterations), seconds):
            break

    ops = [r for it in iterations for r in it]
    stage: dict[str, list[float]] = {}
    for r in ops:
        stage.setdefault(r.op.metric, []).append(r.seconds)

    def per_iteration(metric=None, ref=True):
        return [sum(runner.ref_seconds(r) if ref else r.seconds for r in it
                    if metric in (None, r.op.metric)) for it in iterations]

    setup_s = [sum(r.seconds for r in rs) for rs in setups]
    setup_ref_s = [sum(runner.ref_seconds(r) for r in rs) for rs in setups]
    samples = {
        "iter_s": per_iteration(ref=False), "iter_ref_s": per_iteration(),
        "work_ref_s": per_iteration(wl.work_metric), "aux_ref_s": per_iteration(wl.aux_metric),
        "setup_s": setup_s, "setup_ref_s": setup_ref_s,
    }
    peak = [max(r.rss_mb for r in it) for it in iterations]
    failed = [r for r in ops if r.rc != 0]

    table = {"setup_s": summarize(setup_s)}
    table.update({name: summarize(v) for name, v in stage.items()})
    table[wl.rate_name] = summarize(
        [wl.work_units() / s for s in per_iteration(wl.work_metric, ref=False)])
    table["peak_rss_mb"] = summarize(peak)
    table["failed_frac"] = {"median": len(failed) / len(ops), "n": len(ops)}
    table["machine_speed"] = summarize([CAL_REF_S / c for c in runner.machine_s])
    for name, value in wl.quality.items():
        table[name] = {"median": value, "n": 1}
    metrics = {
        "setup_s": statistics.median(setup_ref_s),
        "work_s": statistics.median(samples["work_ref_s"]),
        "aux_s": statistics.median(samples["aux_ref_s"]),
        "iter_s": statistics.median(samples["iter_ref_s"]),
        "peak_rss_mb": statistics.median(peak),
    }
    exit_codes: dict[str, int] = {}
    for r in failed:
        exit_codes[str(r.rc)] = exit_codes.get(str(r.rc), 0) + 1
    return {
        "errors": errors, "attempted": len(ops), "failed": len(failed),
        "failed_exit_codes": exit_codes, "iterations": len(iterations),
        "table": table, "metrics": metrics,
        "samples": {**samples, "machine_s": runner.machine_s, **stage},
    }


def measure_traced(wl, runner: Runner, seconds: float, setups: list[list[OpResult]]) -> dict:
    errors, passes = [], []
    startup_s = statistics.median(rs[0].seconds for rs in setups)
    counts0 = None
    # One untimed plain pass first, so first-call costs land in neither side.
    warm = [runner.inprocess(op) for op in wl.ops(traced=True)]
    attempted, failed = len(warm), sum(r.rc != 0 for r in warm)
    errors += op_errors(warm) or wl.check(warm, traced=True)
    start = time.perf_counter()
    while not errors:
        # Alternate which pass goes first so warm-up does not bias the overhead.
        tracer = Tracer()
        for traced_pass in (len(passes) % 2 == 1, len(passes) % 2 == 0):
            if traced_pass:
                with patched(tracer, trace_targets()):
                    traced = [runner.inprocess(op) for op in wl.ops(traced=True)]
            else:
                plain = [runner.inprocess(op) for op in wl.ops(traced=True)]
        for results in (plain, traced):
            attempted += len(results)
            failed += sum(r.rc != 0 for r in results)
            errors += op_errors(results)
            if not errors:
                errors += wl.check(results, traced=True)
        plain_s = sum(r.seconds for r in plain)
        overhead = (sum(r.seconds for r in traced) - plain_s) / plain_s
        values = layer_metrics(tracer, overhead, startup_s)
        counts = {n: values[n] for n, unit in PER_LAYER if unit in DETERMINISTIC_UNITS}
        if counts0 is None:
            counts0 = counts
        elif counts != counts0:
            diff = sorted(k for k in counts if counts[k] != counts0[k])
            errors.append(f"per-layer counts differ between traced passes: {diff}")
        passes.append(values)
        if errors or not _another(start, len(passes), seconds):
            break
    metrics = {
        name: statistics.median(p[name] for p in passes) for name, _ in PER_LAYER
    } if passes else {}
    return {"errors": errors, "attempted": attempted, "failed": failed,
            "iterations": len(passes), "metrics": metrics}


def print_table(wl, result: dict, trace: bool) -> None:
    print(f"workload {wl.name}  seed {wl.seed}  iterations {result['iterations']}  "
          f"(closed loop, 1 client, jobs <= {wl.nproc})")
    if not result["iterations"]:
        pass
    elif trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<48} {result['metrics'][name]:>14.6g} {unit}")
    else:
        units = {"peak_rss_mb": "MB", "failed_frac": "frac", "cells_per_s": "1/s",
                 "machine_speed": "x",
                 "fit_windows_per_s": "1/s", "ccc_mu": "1", "kl_truth_pred": "nat"}
        print(f"  {'metric':<20} {'median':>12} {'p_hi':>14} {'n':>5}  unit")
        for name, row in result["table"].items():
            hi = (f"{row['p_hi_value']:.4g}@p{row['p_hi']:.0f}" if "p_hi" in row
                  else "n/a (n<11)")
            print(f"  {name:<20} {row['median']:>12.6g} {hi:>14} {row['n']:>5}  "
                  f"{units.get(name, 's')}")
        if result["failed"]:
            print(f"  failed operations: {result['failed']} of {result['attempted']}, "
                  f"exit codes {result['failed_exit_codes']}")
    if getattr(wl, "shares", None):
        total = sum(wl.shares.values()) or 1
        print("  fitted windows by shape: " + ", ".join(
            f"{k} {v} ({v / total:.0%})" for k, v in wl.shares.items()))
    for e in result["errors"]:
        print(f"  CHECK FAILED: {e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "shapes", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "annodist" / "cli.py").is_file():
        print(f"perfbench: no annodist sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if importlib.util.find_spec("scipy") is None:
        print("perfbench: scipy (the output oracle) is not installed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ANNODIST_OUT_ROOT", None)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work)
        nproc = len(os.sched_getaffinity(0))
        wl = WORKLOADS[args.workload](work, args.seed, nproc)
        setups, setup_errors = set_up(wl, runner)
        if setup_errors:
            result = {"errors": setup_errors, "attempted": 1, "failed": 1,
                      "iterations": 0, "metrics": {}, "table": {}}
        elif args.trace:
            result = measure_traced(wl, runner, args.seconds, setups)
        else:
            result = measure_plain(wl, runner, args.seconds, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    correct = not result["errors"]
    print_table(wl, result, bool(args.trace))
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
        for name, unit in names
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment(), "correct": correct,
                  **{k: v for k, v in result.items() if k != "metrics"},
                  "metrics": metrics}
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
