"""Subject-independent cross-validation grid over variants and seeds.

Folds partition subjects: fold i is the test set, fold (i+1) mod k the
validation set, the rest trains.  A (model, fold, seed) cell is one trained
network, evaluated on the held-out windows:

* concordance of predicted vs empirical window moments (mu, sigma);
* concordance of Beta-derived descriptors against the descriptors of the
  ground-truth Beta fits, next to per-descriptor point-regressor baselines
  trained on identical windows;
* per-window KL divergence of the ground-truth Beta against the predicted
  Beta and against the uniform Beta(1,1) reference (both KL directions are
  recorded; the configured one is reported first).

The unit of work is a (network kind, fold) stack, trained in one
:func:`nn.train` call: each moment variant stacks its ``n_seeds`` seeds, and
``point`` stacks every baseline target x seed (they share architecture, init
and shuffle and differ only in the target column).  Seeds are
master_seed + {0..n_seeds-1}; a member's init and shuffle come from its seed
alone, and each member early-stops on its own.  A member whose training
turns non-finite fails only its own cell.  ``jobs`` runs stacks in parallel
worker processes, which only train and predict; the grid is deterministic
and does not depend on ``jobs``.

The parent process scores every cell.  All moment cells, the oracle's
included, are scored by one Beta fit (:func:`fit_beta_arrays`, non-strict)
and one KL pass per direction over their concatenated test windows, then
sliced per cell for concordance and the KL means.  Quantiles and KL terms
are computed element by element, so each cell gets the bits it would get
alone; if the batched fit raises, every cell is fitted alone, so a bad one
fails by itself with its own message.

Each fold's window split and training-fold z-score statistics are computed
once, before any stack trains (:class:`Fold`), and the report keeps them for
reproducibility.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
# KL_DIRECTIONS and CCC_POOLINGS are imported for callers that take them from here.
from .config import (
    CCC_POOLINGS,
    DEFAULT_EPSILON,
    DESCRIPTOR_NAMES,
    KL_DIRECTIONS,
    ORACLE_MODEL,
    ExperimentConfig,
    write_json,
)
from .consensus import (
    beta_pdf_arrays,
    clamp_moments_arrays,
    fit_beta_arrays,
    moment_match_arrays,
)
from .errors import AnnodistError, DomainError, InsufficientDataError
from .metrics import PairedSeries, ccc, kl_beta_arrays, wilcoxon_signed_rank
from .pipeline import WindowTable, fmt_float, write_csv


@dataclass(frozen=True)
class FoldPlan:
    """Subject-to-fold assignment with disjoint train/val/test per fold."""

    k: int
    assignments: dict[str, int]

    def fold_subjects(self, i: int) -> list[str]:
        return sorted(s for s, f in self.assignments.items() if f == i)

    def test_subjects(self, i: int) -> list[str]:
        return self.fold_subjects(i)

    def val_subjects(self, i: int) -> list[str]:
        return self.fold_subjects((i + 1) % self.k)

    def train_subjects(self, i: int) -> list[str]:
        held = {i, (i + 1) % self.k}
        return sorted(
            s for s, f in self.assignments.items() if f not in held
        )


def make_folds(subjects: list[str], k: int = 5, seed: int = 0) -> FoldPlan:
    """Seeded shuffle plus round-robin assignment of subjects to k folds."""
    uniq = sorted(set(subjects))
    if len(uniq) < k:
        raise InsufficientDataError(
            f"make_folds: need >= {k} subjects for {k} folds, got {len(uniq)}"
        )
    if k < 2:
        raise DomainError("make_folds: k must be >= 2")
    order = np.random.default_rng(seed).permutation(len(uniq))
    return FoldPlan(k, {uniq[j]: i % k for i, j in enumerate(order)})


@dataclass(frozen=True)
class DatasetArrays(WindowTable):
    """A window table plus the ground-truth Beta fits of its windows."""

    truth_alpha: np.ndarray
    truth_beta: np.ndarray
    truth_desc: dict[str, np.ndarray]

    @staticmethod
    def from_samples(table: WindowTable,
                     epsilon: float = DEFAULT_EPSILON) -> "DatasetArrays":
        """Take a :class:`WindowTable` and add the Beta fits of its
        (re-clamped) moments; the name is kept for existing callers."""
        if not len(table):
            raise InsufficientDataError("DatasetArrays: empty window table")
        alpha, beta, desc = fit_beta_arrays(table.mu, table.sigma, epsilon)
        return DatasetArrays(**vars(table), truth_alpha=alpha, truth_beta=beta,
                             truth_desc=desc)


@dataclass(frozen=True)
class Fold:
    """One fold's subject-disjoint train/val/test window indices and the
    z-score statistics of its training features."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    mean: np.ndarray
    std: np.ndarray


@dataclass
class CellResult:
    model: str
    fold: int
    seed: int
    scores: dict[str, float] = field(default_factory=dict)
    failed: str | None = None


@dataclass
class ExperimentReport:
    """Grid results.  ``folds`` are the folds the grid ran on, ``data`` its
    dataset, and ``reference_predictions`` the ``(n_test, 2)`` moment
    predictions of the ``variants[0]`` / fold-0 / master-seed member on fold
    0's test windows (None without variants, or when that cell failed)."""

    config: ExperimentConfig
    fold_plan: FoldPlan
    cells: list[CellResult]
    folds: list[Fold]
    data: DatasetArrays | None = None
    reference_predictions: np.ndarray | None = None

    def score_vectors(self, metric: str) -> dict[str, np.ndarray]:
        """Per-model score arrays aligned by (fold, seed); NaN for failures."""
        out: dict[str, np.ndarray] = {}
        order = {}
        for c in self.cells:
            order.setdefault(c.model, []).append(c)
        for model, cells in order.items():
            cells.sort(key=lambda c: (c.fold, c.seed))
            vals = [c.scores.get(metric, np.nan) for c in cells]
            if not all(np.isnan(vals)):
                out[model] = np.array(vals, dtype=np.float64)
        return out

    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if c.failed is not None]


def _score_ccc(pred, target, subjects, pooling: str) -> float:
    """Concordance either over pooled windows or averaged per subject."""
    if pooling == "pooled":
        return ccc(PairedSeries(pred, target))
    values = [
        ccc(PairedSeries(pred[subjects == s], target[subjects == s]))
        for s in np.unique(subjects)
        if np.count_nonzero(subjects == s) >= 2
    ]
    return float(np.mean(values))


def _fit_and_kl(data: DatasetArrays, mu_hat, sigma_hat, test_idx, epsilon: float):
    """Predicted descriptors and the per-window KL arrays (truth-pred,
    pred-truth, truth-uniform) of moment predictions on ``test_idx``."""
    # Non-strict quantiles: badly clamped predictions (sigma_hat above the
    # validity cap) yield near-degenerate Betas whose quartiles collapse to
    # the interval ends; scoring them beats losing the whole grid cell, and
    # keeps both descriptor paths evaluated on identical windows.
    pred_alpha, pred_beta, pred_desc = fit_beta_arrays(
        mu_hat, sigma_hat, epsilon, strict=False
    )
    t_alpha = data.truth_alpha[test_idx]
    t_beta = data.truth_beta[test_idx]
    ones = np.ones_like(t_alpha)
    return (
        pred_desc,
        kl_beta_arrays(t_alpha, t_beta, pred_alpha, pred_beta),
        kl_beta_arrays(pred_alpha, pred_beta, t_alpha, t_beta),
        kl_beta_arrays(t_alpha, t_beta, ones, ones),
    )


def _evaluate_moment_model(
    data: DatasetArrays, mu_hat: np.ndarray, sigma_hat: np.ndarray,
    test_idx: np.ndarray, epsilon: float, pooling: str = "pooled",
    fitted: tuple | None = None,
) -> dict[str, float]:
    """One moment cell's scores; ``fitted`` is its slice of a batched
    :func:`_fit_and_kl`, computed here when not given."""
    subjects = data.subjects[test_idx]
    scores = {
        "ccc_mu": _score_ccc(mu_hat, data.mu[test_idx], subjects, pooling),
        "ccc_sigma": _score_ccc(sigma_hat, data.sigma[test_idx], subjects, pooling),
    }
    if fitted is None:
        fitted = _fit_and_kl(data, mu_hat, sigma_hat, test_idx, epsilon)
    pred_desc, kl_tp, kl_pt, kl_tu = fitted
    for name in DESCRIPTOR_NAMES:
        scores[f"ccc_{name}"] = _score_ccc(
            pred_desc[name], data.truth_desc[name][test_idx], subjects, pooling
        )
    scores["kl_truth_pred"] = float(kl_tp.mean())
    scores["kl_pred_truth"] = float(kl_pt.mean())
    scores["kl_truth_uniform"] = float(kl_tu.mean())
    scores["kl_frac_better"] = float(np.mean(kl_tp < kl_tu))
    return scores


def _score_moment_cells(data: DatasetArrays, batch: list, epsilon: float,
                        pooling: str) -> None:
    """Score ``(cells, mu_hat, sigma_hat, test_idx)`` entries, every cell of
    an entry alike, with one Beta fit and KL pass over all their windows.

    Each window's quantiles and KL terms are computed element by element,
    so a cell's slice holds the bits it would get alone.  If the batched fit
    raises, every entry is fitted alone, so a bad one fails by itself and
    with its own message.
    """
    _, mu_hat, sigma_hat, test_idx = zip(*batch)
    try:
        fitted = _fit_and_kl(data, np.concatenate(mu_hat), np.concatenate(sigma_hat),
                             np.concatenate(test_idx), epsilon)
    except (AnnodistError, FloatingPointError):
        fitted = None
    hi = 0
    for cells, mu_hat, sigma_hat, test_idx in batch:
        lo, hi = hi, hi + test_idx.size
        mine = None if fitted is None else (
            {k: v[lo:hi] for k, v in fitted[0].items()},
            *(kl[lo:hi] for kl in fitted[1:]),
        )
        try:
            scores = _evaluate_moment_model(data, mu_hat, sigma_hat, test_idx,
                                            epsilon, pooling, mine)
        except (AnnodistError, FloatingPointError) as exc:
            for cell in cells:
                cell.failed = _failure(exc)
            continue
        for cell in cells:
            cell.scores = dict(scores)


# Worker-global payload for parallel grids (fork start method).
_GRID_PAYLOAD: dict = {}


def _init_grid_worker(payload: dict) -> None:
    _GRID_PAYLOAD.update(payload)


def _fold(data: DatasetArrays, plan: FoldPlan, fold: int) -> Fold:
    train = np.isin(data.subjects, plan.train_subjects(fold))
    val = np.isin(data.subjects, plan.val_subjects(fold))
    test = np.isin(data.subjects, plan.test_subjects(fold))
    if not (train.any() and val.any() and test.any()):
        raise InsufficientDataError(f"fold {fold}: a split has no windows")
    # Subject-disjointness is a hard protocol invariant; assert, not assume.
    assert not ((train & val).any() or (train & test).any() or (val & test).any())
    train = np.where(train)[0]
    x = data.x[train]
    std = x.std(axis=0)
    return Fold(train, np.where(val)[0], np.where(test)[0], x.mean(axis=0),
                np.where(std > 0, std, 1.0))


def _work_units(cfg: ExperimentConfig) -> list[tuple[str, int]]:
    """The grid's (network kind, fold) stacks; the oracle is one more kind."""
    kinds = list(cfg.variants) + ["point"] * bool(cfg.baselines)
    if cfg.include_oracle:
        kinds.append(ORACLE_MODEL)
    return [(kind, fold) for kind in kinds for fold in range(cfg.k_folds)]


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _members(cfg: ExperimentConfig, kind: str) -> list[tuple[str, str | None, int]]:
    """(model, point target, seed) of each member of a ``kind`` stack."""
    seeds = [cfg.master_seed + s for s in range(cfg.n_seeds)]
    if kind == "point":
        return [(f"point[{b}]", b, seed) for b in cfg.baselines for seed in seeds]
    return [(kind, None, seed) for seed in seeds]


def _run_stack(
    data: DatasetArrays,
    cfg: ExperimentConfig,
    kind: str,
    fold: int,
    split: Fold,
) -> tuple[list[CellResult], np.ndarray | None]:
    """Train one (kind, fold) stack on that fold's ``split`` and predict its
    test windows.

    Returns its cells, in member order, with failed members marked, and the
    members' test predictions: ``(M, n_test)`` for ``point``, ``(M, n_test,
    2)`` moments otherwise, the oracle's one member being the true moments.
    The predictions are None when the whole stack failed.
    """
    members = _members(cfg, kind)
    cells = [CellResult(model=model, fold=fold, seed=seed)
             for model, _, seed in members]
    train_idx, val_idx, test_idx = split.train, split.val, split.test
    if kind == ORACLE_MODEL:
        return cells, np.column_stack([data.mu[test_idx], data.sigma[test_idx]])[None]
    try:
        x = (data.x - split.mean) / split.std
        if kind == "point":
            y = np.stack([data.truth_desc[b] for _, b, _ in members])
            y_train, y_val = y[:, train_idx], y[:, val_idx]
        else:
            y = np.column_stack([data.mu, data.sigma])
            y_train, y_val = y[train_idx], y[val_idx]
        net = nn.build(nn.NetworkVariant(kind, data.x.shape[1]),
                       [seed for _, _, seed in members])
        history = nn.train(net, x[train_idx], y_train, x[val_idx], y_val,
                           cfg.train_config())
        pred = nn.predict(net, x[test_idx])
    except (AnnodistError, FloatingPointError) as exc:
        for cell in cells:
            cell.failed = _failure(exc)
        return cells, None
    for cell, member in zip(cells, history.members):
        if member.error is not None:
            cell.failed = _failure(member.error)
    return cells, pred


def _run_stack_task(unit: tuple[str, int]):
    kind, fold = unit
    return _run_stack(_GRID_PAYLOAD["data"], _GRID_PAYLOAD["cfg"], kind, fold,
                      _GRID_PAYLOAD["folds"][fold])


def _score(data: DatasetArrays, cfg: ExperimentConfig, folds: list[Fold],
           units: list[tuple[str, int]], results: list) -> None:
    """Score every cell that trained: one concordance per point cell, and
    every moment cell, the oracle's included, in one batched Beta fit."""
    batch = []
    for (kind, fold), (cells, pred) in zip(units, results):
        if pred is None:
            continue
        test_idx = folds[fold].test
        if kind == ORACLE_MODEL:
            batch.append((cells, pred[0, :, 0], pred[0, :, 1], test_idx))
            continue
        subjects = data.subjects[test_idx]
        for m, (cell, (_, target, _)) in enumerate(zip(cells, _members(cfg, kind))):
            if cell.failed is not None:
                continue
            if kind != "point":
                batch.append(([cell], pred[m, :, 0], pred[m, :, 1], test_idx))
                continue
            try:
                cell.scores = {f"ccc_{target}": _score_ccc(
                    pred[m], data.truth_desc[target][test_idx], subjects,
                    cfg.ccc_pooling,
                )}
            except (AnnodistError, FloatingPointError) as exc:
                cell.failed = _failure(exc)
    if batch:
        _score_moment_cells(data, batch, cfg.epsilon, cfg.ccc_pooling)


def run_grid(
    table: WindowTable,
    cfg: ExperimentConfig,
) -> ExperimentReport:
    """Train and evaluate every (model, fold, seed) cell of the grid.

    Each fold's split and normalisation are computed once, up front, so a
    fold with an empty split raises before anything trains.  Stacks train
    and predict on at most ``cfg.jobs`` worker processes, never more than
    there are stacks; this process then scores every cell.  Cell failures
    are recorded in the report and do not stop the grid.
    """
    data = DatasetArrays.from_samples(table, cfg.epsilon)
    plan = make_folds(sorted(set(data.subjects.tolist())), cfg.k_folds,
                      cfg.master_seed)
    folds = [_fold(data, plan, i) for i in range(cfg.k_folds)]
    units = _work_units(cfg)
    workers = min(cfg.jobs, len(units))
    if workers > 1:
        # Imported here so that no other command pays for loading them.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        payload = {"data": data, "cfg": cfg, "folds": folds}
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context("fork"),
            initializer=_init_grid_worker,
            initargs=(payload,),
        ) as pool:
            results = list(pool.map(_run_stack_task, units))
    else:
        results = [_run_stack(data, cfg, kind, fold, folds[fold])
                   for kind, fold in units]
    _score(data, cfg, folds, units, results)
    by_key = {(c.model, c.fold, c.seed): c for cells, _ in results for c in cells}
    cells = [
        by_key[(model, fold, cfg.master_seed + s)]
        for model in cfg.model_names()
        for fold in range(cfg.k_folds)
        for s in range(cfg.n_seeds)
    ]
    # With variants, units[0] is (variants[0], fold 0): the reference stack,
    # whose master-seed member is its first cell.
    reference = None
    if cfg.variants and results[0][0][0].failed is None:
        reference = results[0][1][0]
    return ExperimentReport(cfg, plan, cells, folds, data, reference)


def significance(
    report: ExperimentReport, level: float = 0.05
) -> dict[str, dict[str, dict]]:
    """Per-metric pairwise Wilcoxon comparison against the best model.

    Marks the best model and every model not significantly different from it
    at the given level; comparisons without enough paired scores are marked
    inconclusive.
    """
    metrics = ["ccc_mu", "ccc_sigma"] + [f"ccc_{n}" for n in DESCRIPTOR_NAMES]
    out: dict[str, dict[str, dict]] = {}
    for metric in metrics:
        vectors = report.score_vectors(metric)
        vectors = {
            m: v for m, v in vectors.items() if not np.any(np.isnan(v))
        }
        if not vectors:
            continue
        means = {m: float(v.mean()) for m, v in vectors.items()}
        best = max(means, key=means.get)
        entry: dict[str, dict] = {}
        for model, vec in vectors.items():
            row = {
                "mean": means[model],
                "std": float(vec.std()),
                "best": model == best,
            }
            if model != best:
                try:
                    _, p = wilcoxon_signed_rank(vectors[best], vec)
                    row["p_vs_best"] = p
                    row["indistinguishable_from_best"] = p >= level
                except InsufficientDataError:
                    row["inconclusive"] = True
            entry[model] = row
        out[metric] = entry
    return out


def emit_density_data(
    data: DatasetArrays,
    mu_hat: np.ndarray,
    sigma_hat: np.ndarray,
    indices: np.ndarray,
    path,
    n_points: int = 512,
    epsilon: float = DEFAULT_EPSILON,
) -> Path:
    """Write true/predicted Beta densities for selected windows as tidy CSV.

    Densities are sampled at ``n_points`` midpoints of (0, 1); columns carry
    the window key, both Beta parameter pairs, x and the two densities.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise DomainError("emit_density_data: empty window selection")
    if np.any(indices < 0) or np.any(indices >= data.x.shape[0]):
        raise DomainError("emit_density_data: window index out of range")
    if np.asarray(mu_hat).shape != indices.shape:
        raise DomainError("emit_density_data: predictions must align with indices")
    grid = (np.arange(n_points) + 0.5) / n_points
    pmu, psigma = clamp_moments_arrays(mu_hat, sigma_hat, epsilon)
    pred_alpha, pred_beta = moment_match_arrays(pmu, psigma)
    true_alpha, true_beta = data.truth_alpha[indices], data.truth_beta[indices]
    keys = zip(data.subjects[indices].tolist(), *(
        [fmt_float(v) for v in col]
        for col in (data.starts[indices], true_alpha, true_beta, pred_alpha, pred_beta)))
    xs = [fmt_float(x) for x in grid]
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["subject_id", "window_start", "alpha_true",
                                 "beta_true", "alpha_pred", "beta_pred", "x",
                                 "pdf_true", "pdf_pred"])
        for key, a_true, b_true, a_pred, b_pred in zip(
                keys, true_alpha, true_beta, pred_alpha, pred_beta):
            # The csv module quotes a window's key cells once.  Numbers need
            # no quoting, so each of its rows joins them with "," and "\r\n"
            # as the csv module would, one window at a time.
            line = io.StringIO()
            csv.writer(line, lineterminator=",").writerow(key)
            prefix = line.getvalue()
            fh.write("".join(
                f"{prefix}{x},{p},{q}\r\n" for x, p, q in zip(
                    xs, map(fmt_float, beta_pdf_arrays(grid, a_true, b_true)),
                    map(fmt_float, beta_pdf_arrays(grid, a_pred, b_pred)))))
    return path


# Wide per-cell score tables: key in the returned paths -> (file, score keys).
_SCORE_TABLES = {
    "moments": ("moments_ccc.csv", ["ccc_mu", "ccc_sigma"]),
    "kl": ("kl.csv", ["kl_truth_pred", "kl_pred_truth", "kl_truth_uniform",
                      "kl_frac_better"]),
}


def write_report(
    report: ExperimentReport, outdir, level: float = 0.05
) -> dict[str, Path]:
    """Write the per-table CSVs and the JSON summary; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cells = sorted(report.cells, key=lambda c: (c.model, c.fold, c.seed))

    paths = {
        name: write_csv(outdir / file, ["model", "fold", "seed"] + keys, (
            [c.model, c.fold, c.seed] + [fmt_float(c.scores[k]) for k in keys]
            for c in cells if keys[0] in c.scores
        ))
        for name, (file, keys) in _SCORE_TABLES.items()
    }
    paths["descriptors"] = write_csv(
        outdir / "descriptors_ccc.csv", ["model", "fold", "seed", "descriptor", "ccc"],
        ([c.model, c.fold, c.seed, name, fmt_float(c.scores[f"ccc_{name}"])]
         for c in cells for name in DESCRIPTOR_NAMES if f"ccc_{name}" in c.scores),
    )
    paths["summary"] = outdir / "summary.json"

    # The reported KL column follows the configured direction; the raw CSV
    # always carries both directions plus the uniform reference.
    kl_key = ("kl_truth_pred" if report.config.kl_direction == "truth_first"
              else "kl_pred_truth")
    vs_uniform = report.score_vectors("kl_truth_uniform")
    better = report.score_vectors("kl_frac_better")
    kl_means = {
        model: {
            "vs_truth_beta": float(np.nanmean(vec)),
            "vs_uniform": float(np.nanmean(vs_uniform[model])),
            "windows_better_than_uniform": float(np.nanmean(better[model])),
        }
        for model, vec in report.score_vectors(kl_key).items()
    }
    summary = {
        "grid": {
            "models": report.config.model_names(),
            "k_folds": report.config.k_folds,
            "n_seeds": report.config.n_seeds,
            "master_seed": report.config.master_seed,
            "cells": len(report.cells),
            "failures": [
                {"model": c.model, "fold": c.fold, "seed": c.seed, "error": c.failed}
                for c in report.failures()
            ],
        },
        "kl_direction": report.config.kl_direction,
        "kl_means": kl_means,
        "ccc_pooling": report.config.ccc_pooling,
        "fold_assignments": report.fold_plan.assignments,
        "fold_normalization": [
            {"mean": f.mean.tolist(), "std": f.std.tolist()} for f in report.folds
        ],
        "significance_level": level,
        "significance": significance(report, level),
    }
    write_json(paths["summary"], summary)
    return paths
