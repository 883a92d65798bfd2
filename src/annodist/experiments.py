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

The grid is planned once, in this process, by :func:`_stacks`, which
creates every cell.  The unit of work is a (network kind, fold) stack,
trained in one :func:`nn.train` call: each moment variant stacks its
``n_seeds`` seeds, and ``point`` stacks every baseline target x seed (they
share architecture, init and shuffle and differ only in the target
column).  Seeds are master_seed + {0..n_seeds-1}; a member's init and
shuffle come from its seed alone, and each member early-stops on its own.
A member whose training turns non-finite, or whose test predictions are not
finite, fails only its own cell.  Every network trains under the
:class:`TrainConfig` given to :func:`run_grid`, in at most ``jobs`` worker
processes, which only train and predict; the grid does not depend on
``jobs``.  The oracle trains nothing: its cells score the true moments.

The parent process scores every cell.  All moment cells, the oracle's
included, are scored by one Beta fit (:func:`fit_beta_arrays`, non-strict)
and one KL pass per direction over their concatenated test windows, then
sliced per cell for concordance and the KL means.  Quantiles and KL terms
are computed element by element, so each cell gets the bits it would get
alone.  Per-subject CCC averages over the test subjects with at least 2
windows; a cell with no such subject fails.

Each fold's window split and training-fold z-score statistics are computed
once, before any stack trains (:class:`Fold`), and the report keeps them for
reproducibility.  :func:`write_report` picks the ``density_data.csv`` windows:
evenly spaced fold-0 test windows, predicted by the reference member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
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
    TrainConfig,
    write_json,
)
from .consensus import (
    beta_pdf_arrays,
    clamp_moments_arrays,
    fit_beta_arrays,
    moment_match_arrays,
)
from .errors import (AnnodistError, DataError, DomainError, InsufficientDataError,
                     TrainingError, at_least, check)
from .metrics import PairedSeries, ccc, kl_beta_arrays, wilcoxon_signed_rank
from .pipeline import WindowTable, write_table

# Density curves are sampled at this many midpoints of (0, 1).
DENSITY_POINTS = 512


@dataclass(frozen=True)
class FoldPlan:
    """Subject-to-fold assignment; :func:`_fold` cuts each fold's splits."""

    k: int
    assignments: dict[str, int]


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
    """Grid results.  ``cells`` run model by model, then by fold and seed;
    ``folds`` are the folds the grid ran on, ``data`` its dataset, and
    ``reference_predictions`` the ``(n_test, 2)`` moment predictions of the
    ``variants[0]`` / fold-0 / master-seed member on fold 0's test windows
    (None without variants, or when that cell failed)."""

    config: ExperimentConfig
    fold_plan: FoldPlan
    cells: list[CellResult]
    folds: list[Fold]
    data: DatasetArrays | None = None
    reference_predictions: np.ndarray | None = None

    def score_vectors(self, metric: str) -> dict[str, np.ndarray]:
        """Per-model score arrays in cell order, so aligned by (fold, seed);
        NaN for failures."""
        vals: dict[str, list] = {}
        for c in self.cells:
            vals.setdefault(c.model, []).append(c.scores.get(metric, np.nan))
        return {model: np.array(v, dtype=np.float64)
                for model, v in vals.items() if not all(np.isnan(v))}

    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if c.failed is not None]


def _score_ccc(pred, target, subjects, pooling: str) -> float:
    """Concordance either over pooled windows or averaged over the test
    subjects that have at least 2 windows."""
    if pooling == "pooled":
        return ccc(PairedSeries(pred, target))
    values = [
        ccc(PairedSeries(pred[subjects == s], target[subjects == s]))
        for s in np.unique(subjects)
        if np.count_nonzero(subjects == s) >= 2
    ]
    if not values:
        raise InsufficientDataError(
            "per-subject CCC: no test subject has at least 2 windows")
    return float(np.mean(values))


def _score_moment_cells(data: DatasetArrays, batch: list, epsilon: float,
                        pooling: str) -> None:
    """Score ``(cells, mu_hat, sigma_hat, test_idx)`` entries, every cell of
    an entry alike: one Beta fit and one KL pass per direction over all their
    windows, then one slice per entry.  The predictions are finite
    (:func:`_run_stack` fails a member whose are not); over finite moments the
    fit and KL are total and elementwise, so a slice holds the bits its entry
    would get alone.
    """
    _, mu_hat, sigma_hat, test_idx = zip(*batch)
    test_idx = np.concatenate(test_idx)
    # Non-strict quantiles: badly clamped predictions (sigma_hat above the
    # validity cap) yield near-degenerate Betas whose quartiles collapse to
    # the interval ends; scoring them beats losing the whole grid cell, and
    # keeps both descriptor paths evaluated on identical windows.
    *pred, pred_desc = fit_beta_arrays(np.concatenate(mu_hat),
                                       np.concatenate(sigma_hat), epsilon, strict=False)
    truth = data.truth_alpha[test_idx], data.truth_beta[test_idx]
    uniform = (np.ones_like(truth[0]),) * 2
    kl_tp = kl_beta_arrays(*truth, *pred)
    kl_pt = kl_beta_arrays(*pred, *truth)
    kl_tu = kl_beta_arrays(*truth, *uniform)
    targets = {**data.truth_desc, "mu": data.mu, "sigma": data.sigma}
    hi = 0
    for cells, mu_hat, sigma_hat, idx in batch:
        lo, hi = hi, hi + idx.size
        subjects = data.subjects[idx]
        preds = {"mu": mu_hat, "sigma": sigma_hat,
                 **{name: pred_desc[name][lo:hi] for name in DESCRIPTOR_NAMES}}
        try:
            scores = {f"ccc_{name}": _score_ccc(p, targets[name][idx], subjects, pooling)
                      for name, p in preds.items()}
        except (AnnodistError, FloatingPointError) as exc:
            for cell in cells:
                cell.failed = _failure(exc)
            continue
        tp, tu = kl_tp[lo:hi], kl_tu[lo:hi]
        scores.update(kl_truth_pred=float(tp.mean()),
                      kl_pred_truth=float(kl_pt[lo:hi].mean()),
                      kl_truth_uniform=float(tu.mean()),
                      kl_frac_better=float(np.mean(tp < tu)))
        for cell in cells:
            cell.scores = dict(scores)


# Worker-global payload for parallel grids (fork start method).
_GRID_PAYLOAD: dict = {}


def _fold(data: DatasetArrays, plan: FoldPlan, fold: int) -> Fold:
    """Fold ``fold``'s windows: its subjects test, the next fold's validate
    and the rest train, so the splits are disjoint by construction."""
    subjects, inverse = np.unique(data.subjects, return_inverse=True)
    window_fold = np.array([plan.assignments[s] for s in subjects.tolist()])[inverse]
    held_out = (window_fold - fold) % plan.k  # 0: test, 1: validation
    train, val, test = (np.flatnonzero(held_out >= 2), np.flatnonzero(held_out == 1),
                        np.flatnonzero(held_out == 0))
    if not (train.size and val.size and test.size):
        raise InsufficientDataError(f"fold {fold}: a split has no windows")
    x = data.x[train]
    std = x.std(axis=0)
    return Fold(train, val, test, x.mean(axis=0), np.where(std > 0, std, 1.0))


def _stacks(cfg: ExperimentConfig) -> list[tuple[str, int, list]]:
    """The grid's ``(kind, fold, members)`` stacks in training order: kind by
    kind, the oracle's last, and fold by fold.  A member is its cell and its
    point target (None for a moment network); seeds run in order."""
    seeds = [cfg.master_seed + s for s in range(cfg.n_seeds)]
    kinds = [(kind, [(kind, None)]) for kind in cfg.variants]
    if cfg.baselines:
        kinds.append(("point", [(f"point[{b}]", b) for b in cfg.baselines]))
    if cfg.include_oracle:
        kinds.append((ORACLE_MODEL, [(ORACLE_MODEL, None)]))
    return [(kind, fold, [(CellResult(model, fold, seed), target)
                          for model, target in models for seed in seeds])
            for kind, models in kinds for fold in range(cfg.k_folds)]


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_stack(data: DatasetArrays, train: TrainConfig, kind: str, split: Fold,
               members: list[tuple[str | None, int]]) -> tuple[list, np.ndarray | None]:
    """Train one ``kind`` stack of ``(point target, seed)`` members under
    ``train`` on a fold's ``split`` and predict its test windows.

    Returns each member's failure, or None, and the members' test
    predictions: ``(M, n_test)`` for ``point``, ``(M, n_test, 2)`` moments
    otherwise.  The predictions are None when the whole stack failed.
    """
    train_idx, val_idx, test_idx = split.train, split.val, split.test
    try:
        x = (data.x - split.mean) / split.std
        if kind == "point":
            y = np.stack([data.truth_desc[b] for b, _ in members])
            y_train, y_val = y[:, train_idx], y[:, val_idx]
        else:
            y = np.column_stack([data.mu, data.sigma])
            y_train, y_val = y[train_idx], y[val_idx]
        net = nn.build(nn.NetworkVariant(kind, data.x.shape[1]),
                       [seed for _, seed in members])
        history = nn.train(net, x[train_idx], y_train, x[val_idx], y_val, train)
        pred = nn.predict(net, x[test_idx])
    except (AnnodistError, FloatingPointError) as exc:
        return [_failure(exc)] * len(members), None
    # Scoring only ever sees finite predictions: a member without them fails here.
    return [_failure(member.error) if member.error is not None
            else None if np.isfinite(member_pred).all()
            else _failure(TrainingError("non-finite test predictions"))
            for member, member_pred in zip(history.members, pred)], pred


def _run_stack_task(task: tuple[str, int, list]):
    kind, fold, members = task
    return _run_stack(_GRID_PAYLOAD["data"], _GRID_PAYLOAD["train"], kind,
                      _GRID_PAYLOAD["folds"][fold], members)


def _score(data: DatasetArrays, cfg: ExperimentConfig, folds: list[Fold],
           stacks: list, results: list) -> None:
    """Mark each member's failure and score every cell that trained: one
    concordance per point cell, and every moment cell, the oracle's on the
    true moments, in one batched Beta fit.  ``results`` are the trained
    stacks'; the oracle's stacks come last and pair with none."""
    batch = []
    for (kind, fold, members), (failures, pred) in zip_longest(
            stacks, results, fillvalue=(None, None)):
        test_idx = folds[fold].test
        if kind == ORACLE_MODEL:
            batch.append(([cell for cell, _ in members], data.mu[test_idx],
                          data.sigma[test_idx], test_idx))
            continue
        subjects = data.subjects[test_idx]
        for m, ((cell, target), failure) in enumerate(zip(members, failures)):
            cell.failed = failure
            if failure is not None:
                continue
            if target is None:
                batch.append(([cell], pred[m, :, 0], pred[m, :, 1], test_idx))
                continue
            try:
                cell.scores = {f"ccc_{target}": _score_ccc(
                    pred[m], data.truth_desc[target][test_idx], subjects, cfg.ccc_pooling)}
            except (AnnodistError, FloatingPointError) as exc:
                cell.failed = _failure(exc)
    if batch:
        _score_moment_cells(data, batch, cfg.epsilon, cfg.ccc_pooling)


def run_grid(table: WindowTable, cfg: ExperimentConfig,
             train: TrainConfig = TrainConfig(), jobs: int = 1) -> ExperimentReport:
    """Train the grid's networks under ``train`` and evaluate every cell.

    ``jobs`` below 1, a table without features and a fold with an empty
    split raise: each fold's split and normalisation are computed once, up
    front, before anything trains.  Stacks train and predict on at most
    ``jobs`` worker processes, never more than there are stacks; this
    process then scores every cell.  Cell failures are recorded in the
    report and do not stop the grid.
    """
    check("run_grid", "jobs", jobs, at_least(1))
    if not table.x.shape[1]:
        raise DataError("run_grid: the dataset has no feature column")
    data = DatasetArrays.from_samples(table, cfg.epsilon)
    plan = make_folds(sorted(set(data.subjects.tolist())), cfg.k_folds,
                      cfg.master_seed)
    folds = [_fold(data, plan, i) for i in range(cfg.k_folds)]
    stacks = _stacks(cfg)
    tasks = [(kind, fold, [(target, cell.seed) for cell, target in members])
             for kind, fold, members in stacks if kind != ORACLE_MODEL]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here so that no other command pays for loading them.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        payload = {"data": data, "train": train, "folds": folds}
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                                 initializer=_GRID_PAYLOAD.update,
                                 initargs=(payload,)) as pool:
            results = list(pool.map(_run_stack_task, tasks))
    else:
        results = [_run_stack(data, train, kind, folds[fold], members)
                   for kind, fold, members in tasks]
    _score(data, cfg, folds, stacks, results)
    # Stacks run kind by kind, fold by fold, seeds in order: ranking each
    # model by its first cell gives the model -> fold -> seed order.
    cells = [cell for _, _, members in stacks for cell, _ in members]
    rank = {model: i for i, model in enumerate(dict.fromkeys(c.model for c in cells))}
    cells.sort(key=lambda c: rank[c.model])
    # With variants, the first stack is (variants[0], fold 0): the reference
    # stack, whose master-seed member is the first cell.
    reference = results[0][1][0] if cfg.variants and cells[0].failed is None else None
    return ExperimentReport(cfg, plan, cells, folds, data, reference)


def significance(
    report: ExperimentReport, level: float
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
    epsilon: float = DEFAULT_EPSILON,
) -> Path:
    """Write true/predicted Beta densities for selected windows as tidy CSV.

    Densities are sampled at ``DENSITY_POINTS`` midpoints of (0, 1); columns
    carry the window key, both Beta parameter pairs, x and the two densities.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise DomainError("emit_density_data: empty window selection")
    if np.any(indices < 0) or np.any(indices >= data.x.shape[0]):
        raise DomainError("emit_density_data: window index out of range")
    if any(np.shape(p) != indices.shape for p in (mu_hat, sigma_hat)):
        raise DomainError("emit_density_data: predictions must align with indices")
    grid = (np.arange(DENSITY_POINTS) + 0.5) / DENSITY_POINTS
    pmu, psigma, _ = clamp_moments_arrays(mu_hat, sigma_hat, epsilon)
    pred_alpha, pred_beta = moment_match_arrays(pmu, psigma)
    true_alpha, true_beta = data.truth_alpha[indices], data.truth_beta[indices]
    keys = zip(data.subjects[indices].tolist(), *(
        col.tolist()
        for col in (data.starts[indices], true_alpha, true_beta, pred_alpha, pred_beta)))
    return write_table(path, ["subject_id", "window_start", "alpha_true", "beta_true",
                              "alpha_pred", "beta_pred", "x", "pdf_true", "pdf_pred"], (
        (key, [grid, beta_pdf_arrays(grid, *key[2:4]), beta_pdf_arrays(grid, *key[4:])])
        for key in keys
    ))


# Wide per-cell score tables: key in the returned paths -> (file, score keys).
_SCORE_TABLES = {
    "moments": ("moments_ccc.csv", ["ccc_mu", "ccc_sigma"]),
    "kl": ("kl.csv", ["kl_truth_pred", "kl_pred_truth", "kl_truth_uniform",
                      "kl_frac_better"]),
}


def write_report(report: ExperimentReport, outdir, level: float, *,
                 density_windows: int) -> dict[str, Path]:
    """Write the per-table CSVs, the JSON summary and, for a reference
    member that trained, the densities of up to ``density_windows`` of fold
    0's test windows; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cells = sorted(report.cells, key=lambda c: (c.model, c.fold, c.seed))

    # One block per row: its key cells, then one column per score.
    paths = {
        name: write_table(outdir / file, ["model", "fold", "seed"] + keys, (
            ((c.model, c.fold, c.seed), np.array([[c.scores[k]] for k in keys], float))
            for c in cells if keys[0] in c.scores
        ))
        for name, (file, keys) in _SCORE_TABLES.items()
    }
    paths["descriptors"] = write_table(
        outdir / "descriptors_ccc.csv", ["model", "fold", "seed", "descriptor", "ccc"],
        (((c.model, c.fold, c.seed, name), np.array([[c.scores[f"ccc_{name}"]]], float))
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
            "models": list(dict.fromkeys(c.model for c in report.cells)),
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

    pred = report.reference_predictions
    if density_windows > 0 and pred is not None:
        test_idx = report.folds[0].test
        pick = np.linspace(0, test_idx.size - 1,
                           min(density_windows, test_idx.size)).astype(int)
        paths["density"] = emit_density_data(
            report.data, pred[pick, 0], pred[pick, 1], test_idx[pick],
            outdir / "density_data.csv", epsilon=report.config.epsilon,
        )
    return paths
