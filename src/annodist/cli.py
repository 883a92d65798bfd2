"""Command-line entry point: synth, build, fit, run, report.

Configuration comes from an optional JSON file plus flag overrides
(flags > file > defaults).  Each parameter key is one row of ``_PARAMS``;
its default and range check belong to the one config ``_OWNERS`` names
(:class:`~annodist.config.SyntheticConfig`, :class:`~annodist.config.WindowConfig`,
:class:`~annodist.config.TrainConfig`, :class:`~annodist.config.ExperimentConfig`,
or :class:`CliConfig` for the keys only the CLI has, ``jobs`` among them).
``run`` has no ``epsilon`` key: it takes the one ``build`` recorded.
Every value is type-, finiteness- and range-checked before anything is
written, so a rejected invocation exits 2 naming its key and leaves no
output.  An accepted ``build``, ``fit`` or ``run`` reads its input files and
does its work before it writes, so a malformed file or a data error found
while computing leaves no output (nor changes an earlier run's) either.  Then
it writes a ``manifest.json`` into its output directory (``synth`` writes it
first), recording the input paths, resolved parameters, master seed, tool
version, NumPy and BLAS builds and the BLAS thread variables, and then its
outputs; a run is reproducible from its manifest alone.
``ANNODIST_OUT_ROOT`` prefixes relative output paths.

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric/training error.

At module level this imports only the standard library, :mod:`errors` and
:mod:`config`, so parsing, checking and ``report`` load no NumPy.  Each
command imports the modules it runs once its parameters are accepted, and
calls them through their module attributes: ``synth`` loads ``synthetic``,
``build`` and ``fit`` load ``pipeline`` and ``consensus``, and ``run`` loads
``experiments`` and with it ``nn`` and ``metrics``.

A process started as ``python -m annodist.cli`` or as the ``annodist``
console script runs :func:`entry`.  Before :func:`main` loads NumPy, it sets
``OPENBLAS_NUM_THREADS=1`` unless one of ``BLAS_THREAD_VARS``
(``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``, ``OMP_NUM_THREADS``) is
already set, so a CLI process and every child ``run --jobs`` forks from it
run BLAS on one thread: ``--jobs`` is the parallelism, and NumPy loads without
starting a BLAS thread pool.  A thread count set by the caller is kept.  It
also restores the default ``SIGPIPE`` action: a process whose stdout closes
early (``annodist synth ... | head -0``) writes its files and is then killed
by the signal, as other writers to a pipe are, with nothing on stderr.  Once
:func:`main` has returned, :func:`entry` freezes the garbage collector and
exits with its code.  The interpreter's final collections then skip the
objects NumPy and annodist left loaded (the OS frees that memory), which
saves most of the process's teardown.  Nothing else of the exit is skipped:
``atexit`` hooks run and the standard streams are flushed; every output file
is already closed by its ``with`` block.  ``run --jobs n`` trains in this
process and ``n - 1`` forked children, heaviest stacks first and never more
processes than stacks, with results that do not depend on ``n``; every child
is reaped before :func:`main` returns.  A caller of :func:`main` keeps a
working collector and an unchanged ``os.environ``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NoReturn

from . import __version__
from .config import (
    CCC_POOLINGS,
    DESCRIPTOR_NAMES,
    MOMENT_KINDS,
    ExperimentConfig,
    SyntheticConfig,
    TrainConfig,
    WindowConfig,
    read_json,
    write_json,
)
from .errors import (
    DataError,
    EmptyDatasetError,
    NumericError,
    TrainingError,
    at_least,
    check_fields,
)

OUT_ROOT_ENV = "ANNODIST_OUT_ROOT"
# The variables OpenBLAS reads its thread count from, in the order it reads
# them; the manifest records each.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class CliConfig:
    """The parameters no library config owns, with their defaults and ranges."""

    modalities: tuple[str, ...] | None = None
    jobs: int = 0  # 0 = one process per usable core (at most one per stack)
    density_windows: int = 8
    significance_level: float = 0.05

    def __post_init__(self):
        check_fields(
            self, modalities=(lambda m: m is None or 0 < len(set(m)) == len(m),
                              "null or a non-empty list free of repeats"),
            jobs=at_least(0), density_windows=at_least(0),
            significance_level=(lambda v: 0.0 < v < 1.0, "in (0, 1)"),
        )


# One row per parameter key: its help text and argparse extras.  The flag is
# --key-name unless the row names one; its type follows the key's default.
_PARAMS = {
    "n_subjects": {"help": "subjects to generate"},
    "duration": {"help": "seconds per subject"},
    "frame_rate": {"help": "feature frames per second"},
    "n_annotators": {"help": "annotators per subject"},
    "feature_dim": {"help": "feature columns"},
    "latent_dim": {"help": "nuisance latents mixed into the features"},
    "noise_std": {"help": "standard deviation of the feature noise"},
    "seed": {"help": "generator seed"},
    "annotation_rate": {"help": "annotation marks per second"},
    "annotator_bias_std": {"help": "standard deviation of each annotator's bias"},
    "identity_features": {"help": "features are the latents themselves"},
    "window_len": {"help": "window length in seconds"},
    "stride": {"help": "window shift in seconds"},
    "label_range": {"help": "annotation scale, mapped onto [0, 1]", "nargs": 2,
                    "metavar": ("LO", "HI")},
    "epsilon": {"help": "margin of the Beta validity clamp"},
    "modalities": {"help": "feature modalities to join, in order (default: all)",
                   "nargs": "+"},
    "k_folds": {"help": "subject folds"},
    "n_seeds": {"help": "seeds per model and fold"},
    "master_seed": {"help": "first seed; also seeds the fold assignment"},
    "variants": {"help": "moment network variants", "nargs": "+",
                 "choices": MOMENT_KINDS},
    "baselines": {"help": "descriptor targets of the point baselines", "nargs": "*",
                  "choices": DESCRIPTOR_NAMES},
    "learning_rate": {"help": "Adam learning rate"},
    "batch_size": {"help": "training batch size"},
    "max_epochs": {"help": "epoch limit per network"},
    "patience": {"help": "epochs without validation gain before a member stops"},
    "ccc_pooling": {"help": "CCC over all test windows or averaged per subject",
                    "choices": CCC_POOLINGS},
    "include_oracle": {"help": "add an oracle model fed the true targets",
                       "flag": "--oracle"},
    "jobs": {"help": "training processes, this one included; 0 means one per core "
                     "this process may use"},
    "density_windows": {"help": "test windows written to density_data.csv"},
    "significance_level": {"help": "level of the paired Wilcoxon tests"},
}


def _keys(owner, *skip) -> tuple:
    return tuple(f.name for f in fields(owner) if f.name not in skip)


# Each subcommand's keys in flag order, grouped by the config that owns them:
# its field default is the key's default and its __post_init__ the key's
# range check.
_OWNERS = {
    "synth": ((SyntheticConfig, _keys(SyntheticConfig)),
              (WindowConfig, _keys(WindowConfig, "label_range", "epsilon"))),
    "build": ((WindowConfig, _keys(WindowConfig)), (CliConfig, ("modalities",))),
    "fit": ((WindowConfig, _keys(WindowConfig)),),
    "run": ((ExperimentConfig, _keys(ExperimentConfig)),
            (TrainConfig, _keys(TrainConfig)),
            (CliConfig, ("jobs", "density_windows", "significance_level"))),
}


def _defaults(subcommand: str) -> dict:
    return {f.name: f.default for owner, keys in _OWNERS[subcommand]
            for f in fields(owner) if f.name in keys}


def _flag(key: str) -> str:
    return _PARAMS[key].get("flag", "--" + key.replace("_", "-"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _out_dir(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


_KINDS = {bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
          float: ("a finite number", "finite numbers"), str: ("a string", "strings")}


def _check_type(source: str, key: str, value, default) -> None:
    """Reject a value whose JSON type is not its default's.

    A bool is not a number, an int also passes for a float, a float must be
    finite, a list takes items of its default's item type, and the ``None``
    default of ``modalities`` takes null or a list of strings.
    """
    def fits(v, kind):
        if kind is float:
            return type(v) in (int, float) and abs(v) <= sys.float_info.max
        return type(v) is kind

    if default is None or isinstance(default, tuple):
        kind = type(default[0]) if default else str
        ok = (value is None and default is None) or (
            isinstance(value, list) and all(fits(v, kind) for v in value))
        what = "null or " * (default is None) + f"a list of {_KINDS[kind][1]}"
    else:
        ok, what = fits(value, type(default)), _KINDS[type(default)][0]
    if not ok:
        raise DataError(f"{source}: key {key!r} must be {what}, got {json.dumps(value)}")


def _resolve(args: argparse.Namespace) -> tuple[dict, list]:
    """Merge defaults <- config file <- explicit flags, type-check each value
    given and build the subcommand's configs (which check the ranges), all
    before anything is written.

    Returns the parameters for the manifest and the configs in ``_OWNERS``
    order; lists become tuples in the configs.
    """
    params = _defaults(args.subcommand)
    file_cfg = read_json(args.config) if args.config else {}
    unknown = set(file_cfg) - set(params)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    given = [(args.config, key, value) for key, value in file_cfg.items()]
    given += [(f"flag {_flag(key)}", key, value) for key in params
              if (value := getattr(args, key)) is not None]
    for source, key, value in given:
        _check_type(source, key, value, params[key])
    params.update((key, value) for _, key, value in given)
    configs = [owner(**{k: tuple(params[k]) if isinstance(params[k], list)
                        else params[k] for k in keys})
               for owner, keys in _OWNERS[args.subcommand]]
    return params, configs


def _write_manifest(args, params: dict) -> Path:
    """Create the output directory and record the input paths, ``params``,
    the NumPy and BLAS builds and the BLAS thread variables (a value or
    None each) in it; returns it.  The command has already loaded NumPy."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    outdir = _out_dir(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "annodist",
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "config_file": args.config,
        "inputs": {flag: getattr(args, flag[2:]) for flag in args.inputs},
        "parameters": params,
        "master_seed": params.get("seed", params.get("master_seed")),
        "output_dir": str(outdir),
        "environment": {"numpy": np.__version__, "blas": {
            **{k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}},
    }
    write_json(outdir / "manifest.json", manifest)
    return outdir


# ---------------------------------------------------------------------------
# synth, build, fit, run, report
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    params, (cfg, window_cfg) = _resolve(args)
    from . import synthetic

    outdir = _write_manifest(args, params)
    paths, rows = synthetic.write_dataset_csvs(cfg, outdir, window_cfg)
    for name, path in paths.items():
        print(f"{name}: {path} ({rows[name]} rows)")
    return 0


def _cmd_build(args) -> int:
    params, (cfg, opts) = _resolve(args)
    from . import pipeline

    features = pipeline.read_feature_csv(args.features)
    traces = pipeline.read_annotation_csv(args.annotations)
    table, report = pipeline.build_dataset(features, traces, cfg, opts.modalities)
    outdir = _write_manifest(args, params)
    path = pipeline.write_dataset(outdir, table, report, cfg)
    print(f"dataset: {path}")
    print(
        f"samples: {report.n_samples} "
        f"(skipped empty: {report.windows_skipped_empty}, "
        f"dropped <2 annotators: {report.windows_dropped_few_annotators}, "
        f"unmatched: {report.windows_unmatched})"
    )
    return 0


def _cmd_fit(args) -> int:
    params, (cfg,) = _resolve(args)
    from . import pipeline

    traces = pipeline.read_annotation_csv(args.annotations)
    table, _ = pipeline.window_consensus(traces, cfg)
    if not len(table):
        raise EmptyDatasetError("fit: no valid windows found")
    outdir = _write_manifest(args, params)
    path = pipeline.write_beta_fits(outdir, table, cfg.epsilon)
    print(f"beta fits: {path} ({len(table)} windows)")
    return 0


def _usable_cores() -> int:
    """The cores this process may run on (its CPU affinity where the OS has
    one): the number of processes ``--jobs 0`` trains in."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_run(args) -> int:
    params, (cfg, train, opts) = _resolve(args)
    from . import experiments, pipeline

    table, epsilon = pipeline.read_dataset(args.dataset)
    report = experiments.run_grid(table, cfg, train, jobs=opts.jobs or _usable_cores(),
                                  epsilon=epsilon)
    outdir = _write_manifest(args, params)
    paths = experiments.write_report(report, outdir, opts.significance_level,
                                     density_windows=opts.density_windows)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    failures = report.failures()
    if failures:
        print(f"{len(failures)} grid cells failed:", file=sys.stderr)
        for model, fold, seed, error in failures:
            print(f"  {model} fold={fold} seed={seed}: {error}", file=sys.stderr)
        return 3
    print(f"grid complete: {len(report.cells)} cells")
    return 0


def _report_lines(rundir: Path, summary: dict):
    """The lines ``report`` prints for the run in ``rundir``; a key that
    :func:`~annodist.experiments.write_report` always writes must be there."""
    level = summary["significance_level"]
    yield f"run: {rundir}"
    grid = summary["grid"]
    yield (
        f"grid: {grid['cells']} cells, "
        f"{grid['k_folds']} folds x {grid['n_seeds']} seeds, "
        f"master seed {grid['master_seed']}"
    )
    if grid["failures"]:
        yield f"failures: {len(grid['failures'])}"
    per_model = grid["k_folds"] * grid["n_seeds"]

    def failed(count: int) -> str:
        return f"  ({count} of {per_model} cells failed)" if count else ""

    kl_means = summary["kl_means"]
    if kl_means:
        yield "mean per-window KL over trained cells (truth||pred | truth||uniform | windows better)"
        for model, row in sorted(kl_means.items()):
            count = sum(f["model"] == model for f in grid["failures"])
            yield (f"    {model:<24} {row['vs_truth_beta']:8.3f} "
                   f"{row['vs_uniform']:8.3f} "
                   f"{row['windows_better_than_uniform']:8.1%}{failed(count)}")
    yield (f"significance level: {level} (paired Wilcoxon, * best, = on par, "
           "? untested: too few pairs or failed cells, r reference (oracle), untested)")
    for metric, entries in sorted(summary["significance"].items()):
        yield f"\n{metric}"
        for model in sorted(entries, key=lambda m: -entries[m]["mean"]):
            row = entries[model]
            if row.get("reference"):
                mark = "r"
            elif row["best"]:
                mark = "*"
            elif row.get("indistinguishable_from_best"):
                mark = "="
            elif row.get("inconclusive"):
                mark = "?"
            else:
                mark = " "
            yield (f"  {mark} {model:<24} {row['mean']:+.4f} +/- {row['std']:.4f}"
                   f"{failed(row.get('failed_cells', 0))}")


def _cmd_report(args) -> int:
    rundir = _out_dir(args.run)
    summary_path = rundir / "summary.json"
    if not summary_path.exists():
        raise DataError(f"report: no summary.json under {rundir}")
    summary = read_json(summary_path)
    try:
        lines = list(_report_lines(rundir, summary))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{summary_path}: not a run summary "
                        f"({type(exc).__name__}: {exc})") from None
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------


def _build_parser(command: str | None = None) -> _Parser:
    """The CLI's parser.  Given a ``command``, only that subcommand gets its
    arguments; every subcommand keeps its name and help text."""
    parser = _Parser(prog="annodist", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    features = ("--features", "feature CSV")
    annotations = ("--annotations", "annotation CSV")
    commands = {
        "synth": ("generate a synthetic multi-annotator dataset", _cmd_synth, ()),
        "build": ("window features and annotations into a dataset", _cmd_build,
                  (features, annotations)),
        "fit": ("fit per-window Beta parameters and descriptors", _cmd_fit,
                (annotations,)),
        "run": ("run the cross-validation experiment grid", _cmd_run,
                (("--dataset", "built dataset dir or CSV"),)),
    }
    for name, (help_text, func, inputs) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, inputs=[flag for flag, _ in inputs])
        if command not in (None, name):
            continue
        for flag, input_help in inputs:
            p.add_argument(flag, required=True, help=input_help)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file")
        for key, default in _defaults(name).items():
            extra = {k: v for k, v in _PARAMS[key].items() if k != "flag"}
            kind = type(default[0] if isinstance(default, tuple) else default)
            if kind is bool:
                extra.update(action="store_const", const=True)
            elif kind in (int, float):
                extra["type"] = kind
            p.add_argument(_flag(key), dest=key, default=None, **extra)

    p = sub.add_parser("report", help="print summary tables for a finished run")
    p.add_argument("--run", required=True, help="run output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The first word that is not an option names the subcommand.
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"annodist: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, TrainingError) as exc:
        print(f"annodist: numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"annodist: i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` as the whole process, with BLAS on one
    thread unless the caller set a thread count and the default ``SIGPIPE``
    action, and exit with its code, skipping only the final collection over
    what is still loaded."""
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
