"""Command-line entry point: synth, build, fit, run, report.

Configuration comes from an optional JSON file plus flag overrides
(flags > file > defaults).  Every subcommand writes a ``manifest.json`` into
its output directory before computing anything, recording the resolved
parameters, master seed and tool version; a run is reproducible from its
manifest alone.  ``ANNODIST_OUT_ROOT`` prefixes relative output paths.

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric/training error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, experiments, nn, pipeline, synthetic
from .consensus import DESCRIPTOR_NAMES, fit_beta_arrays
from .errors import DataError, InsufficientDataError, NumericError, TrainingError

OUT_ROOT_ENV = "ANNODIST_OUT_ROOT"


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


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    return cfg


_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _check_type(path: str, key: str, value, default) -> None:
    """Reject a config-file value whose JSON type is not its default's.

    A bool is not a number, an int also passes for a float, a list takes
    items of its default's item type, and the ``None`` default of
    ``modalities`` takes null or a list of strings.
    """
    def fits(v, kind):
        return type(v) is kind or (kind is float and type(v) is int)

    if default is None or isinstance(default, list):
        kind = type(default[0]) if default else str
        ok = (value is None and default is None) or (
            isinstance(value, list) and all(fits(v, kind) for v in value))
        what = "null or " * (default is None) + f"a list of {_KINDS[kind]}s"
    else:
        ok, what = fits(value, type(default)), f"of type {_KINDS[type(default)]}"
    if not ok:
        raise DataError(f"{path}: key {key!r} must be {what}, got {json.dumps(value)}")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults <- config file <- explicit CLI flags."""
    resolved = dict(defaults)
    path = getattr(args, "config", None)
    file_cfg = _load_config(path)
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    for key, value in file_cfg.items():
        _check_type(path, key, value, defaults[key])
    resolved.update(file_cfg)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _write_manifest(outdir: Path, subcommand: str, args, params: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "annodist",
        "tool_version": __version__,
        "subcommand": subcommand,
        "config_file": getattr(args, "config", None),
        "parameters": params,
        "master_seed": params.get("seed", params.get("master_seed")),
        "output_dir": str(outdir),
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _window_config(params: dict) -> pipeline.WindowConfig:
    return pipeline.WindowConfig(
        window_len=params["window_len"],
        stride=params["stride"],
        label_range=tuple(params["label_range"]),
    )


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

_SYNTH_DEFAULTS = {
    "n_subjects": 20,
    "duration": 150.0,
    "frame_rate": 25.0,
    "n_annotators": 6,
    "feature_dim": 24,
    "latent_dim": 4,
    "noise_std": 0.02,
    "seed": 0,
    "annotation_rate": 5.0,
    "annotator_bias_std": 0.0,
    "identity_features": False,
    "window_len": 3.0,
    "stride": 0.4,
}


def _cmd_synth(args) -> int:
    params = _resolve(args, _SYNTH_DEFAULTS)
    outdir = _out_dir(args.out)
    _write_manifest(outdir, "synth", args, params)
    cfg = synthetic.SyntheticConfig(
        **{k: params[k] for k in _SYNTH_DEFAULTS if k not in ("window_len", "stride")}
    )
    window_cfg = pipeline.WindowConfig(params["window_len"], params["stride"])
    paths = synthetic.write_dataset_csvs(cfg, outdir, window_cfg)
    for name, path in paths.items():
        with open(path, "r", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        print(f"{name}: {path} ({rows} rows)")
    return 0


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

_BUILD_DEFAULTS = {
    "window_len": 3.0,
    "stride": 0.4,
    "label_range": [0.0, 1.0],
    "epsilon": 1e-4,
    "modalities": None,
}


def _cmd_build(args) -> int:
    params = _resolve(args, _BUILD_DEFAULTS)
    outdir = _out_dir(args.out)
    _write_manifest(outdir, "build", args, params)
    cfg = _window_config(params)
    features = pipeline.read_feature_csv(args.features)
    traces = [
        pipeline.rescale_annotations(tr, cfg.label_range)
        for tr in pipeline.read_annotation_csv(args.annotations)
    ]
    if len(traces) < 2:
        raise InsufficientDataError(
            f"build: need annotation traces from >= 2 annotators, "
            f"got {len(traces)} in {args.annotations}"
        )
    table, report = pipeline.build_dataset(
        features, traces, cfg, params["modalities"], params["epsilon"]
    )
    path = pipeline.write_dataset(outdir, table, report, cfg)
    print(f"dataset: {path}")
    print(
        f"samples: {report.n_samples} "
        f"(skipped empty: {report.windows_skipped_empty}, "
        f"dropped <2 annotators: {report.windows_dropped_few_annotators}, "
        f"unmatched: {report.windows_unmatched})"
    )
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

_FIT_DEFAULTS = {
    "window_len": 3.0,
    "stride": 0.4,
    "label_range": [0.0, 1.0],
    "epsilon": 1e-4,
}


def _cmd_fit(args) -> int:
    params = _resolve(args, _FIT_DEFAULTS)
    outdir = _out_dir(args.out)
    _write_manifest(outdir, "fit", args, params)
    cfg = _window_config(params)
    eps = params["epsilon"]
    traces = [
        pipeline.rescale_annotations(tr, cfg.label_range)
        for tr in pipeline.read_annotation_csv(args.annotations)
    ]
    table, _ = pipeline.window_consensus(traces, cfg, eps)
    if not len(table):
        raise DataError("fit: no valid windows found")
    mu, sigma = table.mu, table.sigma
    alpha, beta, desc = fit_beta_arrays(mu, sigma, eps)
    degenerate = sigma**2 <= eps * mu * (1.0 - mu) * (1.0 + 1e-9)

    described = ("mean", "std", "median", "q25", "q75", "skew", "kurt")
    numbers = [map(pipeline.fmt_float, col)
               for col in (mu, sigma, alpha, beta, *(desc[k] for k in described))]
    out_path = pipeline.write_csv(outdir / "beta_fits.csv", [
        "subject_id", "window_start", "n_annotators", "mu", "sigma", "alpha",
        "beta", *described, "degenerate",
    ], zip(table.subjects.tolist(), map(pipeline.fmt_float, table.starts),
           table.n_annotators.tolist(), *numbers, degenerate.astype(int).tolist()))
    print(f"beta fits: {out_path} ({len(table)} windows)")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

_RUN_DEFAULTS = {
    "k_folds": 5,
    "n_seeds": 10,
    "master_seed": 0,
    "variants": list(nn.MOMENT_KINDS),
    "baselines": list(DESCRIPTOR_NAMES),
    "learning_rate": 1e-3,
    "batch_size": 128,
    "max_epochs": 50,
    "patience": 5,
    "epsilon": 1e-4,
    "kl_direction": "truth_first",
    "ccc_pooling": "pooled",
    "include_oracle": False,
    "jobs": 0,  # 0 = one worker per available core (at most one per stack)
    "density_windows": 8,
    "significance_level": 0.05,
}


def _cmd_run(args) -> int:
    params = _resolve(args, _RUN_DEFAULTS)
    outdir = _out_dir(args.out)
    _write_manifest(outdir, "run", args, params)
    jobs = params["jobs"] if params["jobs"] > 0 else (os.cpu_count() or 1)
    cfg = experiments.ExperimentConfig(
        k_folds=params["k_folds"],
        n_seeds=params["n_seeds"],
        master_seed=params["master_seed"],
        variants=tuple(params["variants"]),
        baselines=tuple(params["baselines"]),
        learning_rate=params["learning_rate"],
        batch_size=params["batch_size"],
        max_epochs=params["max_epochs"],
        patience=params["patience"],
        epsilon=params["epsilon"],
        kl_direction=params["kl_direction"],
        ccc_pooling=params["ccc_pooling"],
        include_oracle=params["include_oracle"],
        jobs=jobs,
    )
    table, _ = pipeline.read_dataset(args.dataset)
    report = experiments.run_grid(table, cfg)
    paths = experiments.write_report(report, outdir, params["significance_level"])

    pred = report.reference_predictions
    if params["density_windows"] > 0 and pred is not None:
        # The grid's own variants[0] / fold-0 / master-seed member.
        test_idx = report.folds[0].test
        pick = np.linspace(
            0, test_idx.size - 1, min(params["density_windows"], test_idx.size)
        ).astype(int)
        paths["density"] = experiments.emit_density_data(
            report.data, pred[pick, 0], pred[pick, 1], test_idx[pick],
            outdir / "density_data.csv", epsilon=cfg.epsilon,
        )

    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    failures = report.failures()
    if failures:
        print(f"{len(failures)} grid cells failed:", file=sys.stderr)
        for c in failures:
            print(f"  {c.model} fold={c.fold} seed={c.seed}: {c.failed}",
                  file=sys.stderr)
        return 3
    print(f"grid complete: {len(report.cells)} cells")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args) -> int:
    rundir = _out_dir(args.run)
    summary_path = rundir / "summary.json"
    if not summary_path.exists():
        raise DataError(f"report: no summary.json under {rundir}")
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    level = summary.get("significance_level", 0.05)
    print(f"run: {rundir}")
    grid = summary.get("grid", {})
    print(
        f"grid: {grid.get('cells', '?')} cells, "
        f"{grid.get('k_folds', '?')} folds x {grid.get('n_seeds', '?')} seeds, "
        f"master seed {grid.get('master_seed', '?')}"
    )
    if grid.get("failures"):
        print(f"failures: {len(grid['failures'])}")
    print(f"KL direction: {summary.get('kl_direction')}")
    kl_means = summary.get("kl_means", {})
    if kl_means:
        print("mean per-window KL (vs truth Beta | vs uniform | windows better)")
        for model, row in sorted(kl_means.items()):
            print(f"    {model:<24} {row['vs_truth_beta']:8.3f} "
                  f"{row['vs_uniform']:8.3f} "
                  f"{row['windows_better_than_uniform']:8.1%}")
    print(f"significance level: {level} (paired Wilcoxon, * best, = on par)")
    for metric, entries in sorted(summary.get("significance", {}).items()):
        print(f"\n{metric}")
        for model in sorted(entries, key=lambda m: -entries[m]["mean"]):
            row = entries[model]
            if row.get("best"):
                mark = "*"
            elif row.get("indistinguishable_from_best"):
                mark = "="
            elif row.get("inconclusive"):
                mark = "?"
            else:
                mark = " "
            print(f"  {mark} {model:<24} {row['mean']:+.4f} +/- {row['std']:.4f}")
    return 0


# ---------------------------------------------------------------------------


def _add_override(parser, name, kind, help_text=""):
    parser.add_argument(name, type=kind, default=None, help=help_text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="annodist", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic multi-annotator dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    _add_override(p, "--n-subjects", int)
    _add_override(p, "--duration", float)
    _add_override(p, "--frame-rate", float)
    _add_override(p, "--n-annotators", int)
    _add_override(p, "--feature-dim", int)
    _add_override(p, "--latent-dim", int)
    _add_override(p, "--noise-std", float)
    _add_override(p, "--seed", int)
    _add_override(p, "--annotation-rate", float)
    _add_override(p, "--annotator-bias-std", float)
    p.add_argument("--identity-features", action="store_const", const=True,
                   default=None)
    _add_override(p, "--window-len", float)
    _add_override(p, "--stride", float)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build", help="window features and annotations into a dataset")
    p.add_argument("--features", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file")
    _add_override(p, "--window-len", float)
    _add_override(p, "--stride", float)
    p.add_argument("--label-range", nargs=2, type=float, default=None,
                   metavar=("LO", "HI"))
    _add_override(p, "--epsilon", float)
    p.add_argument("--modalities", nargs="+", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("fit", help="fit per-window Beta parameters and descriptors")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file")
    _add_override(p, "--window-len", float)
    _add_override(p, "--stride", float)
    p.add_argument("--label-range", nargs=2, type=float, default=None,
                   metavar=("LO", "HI"))
    _add_override(p, "--epsilon", float)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("run", help="run the cross-validation experiment grid")
    p.add_argument("--dataset", required=True, help="built dataset dir or CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file")
    _add_override(p, "--k-folds", int)
    _add_override(p, "--n-seeds", int)
    _add_override(p, "--master-seed", int)
    p.add_argument("--variants", nargs="+", default=None,
                   choices=list(nn.MOMENT_KINDS))
    p.add_argument("--baselines", nargs="*", default=None,
                   choices=list(DESCRIPTOR_NAMES))
    _add_override(p, "--learning-rate", float)
    _add_override(p, "--batch-size", int)
    _add_override(p, "--max-epochs", int)
    _add_override(p, "--patience", int)
    _add_override(p, "--epsilon", float)
    p.add_argument("--kl-direction", choices=list(experiments.KL_DIRECTIONS),
                   default=None)
    p.add_argument("--ccc-pooling", choices=list(experiments.CCC_POOLINGS),
                   default=None)
    p.add_argument("--oracle", dest="include_oracle", action="store_const",
                   const=True, default=None,
                   help="add an oracle model fed the true targets")
    _add_override(p, "--jobs", int)
    _add_override(p, "--density-windows", int)
    _add_override(p, "--significance-level", float)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="print summary tables for a finished run")
    p.add_argument("--run", required=True, help="run output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
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


if __name__ == "__main__":
    sys.exit(main())
