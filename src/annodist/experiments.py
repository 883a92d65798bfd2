"""Subject-independent cross-validation grid over variants and seeds.

Folds partition subjects: fold i is the test set, fold (i+1) mod k the
validation set, the rest trains.  A (model, fold, seed) cell is one trained
network, evaluated on the held-out windows:

* concordance of predicted vs empirical window moments (mu, sigma);
* concordance of Beta-derived descriptors against the descriptors of the
  ground-truth Beta fits, next to per-descriptor point-regressor baselines
  trained on identical windows;
* per-window KL divergence of the ground-truth Beta against the predicted
  Beta and against the uniform Beta(1,1) reference (the summary reports
  KL(truth||pred), with the mean of KL(pred||truth) beside it).

The report holds each metric as one (model, fold, seed) array, and the
failures as one parallel array of messages (:class:`ExperimentReport`).

One plan, made once in this process by :func:`_stacks`, lists the models
(config order, the oracle last) and the stacks that train; the oracle is a
model without a stack, whose cells score the true moments.  A stack is one
network kind on one fold, trained in one :func:`nn.train` call: a moment
variant stacks its ``n_seeds`` seeds, ``point`` every baseline target x seed
(same architecture, init and shuffle; only the target column differs).  A
member is (model index, seed index, point target) from the plan to
:func:`_run_stack`.  Seeds are master_seed + {0..n_seeds-1}; a member's init
and shuffle come from its seed alone, and each member early-stops on its own.
A member whose training turns non-finite, or whose test predictions are not
finite, fails only its own cell.  ``jobs = n`` trains the stacks in this process and
``n - 1`` forked children, heaviest stacks (most members) first, never more
processes than stacks; a child only trains and predicts, and the grid does
not depend on ``n``.

The parent process scores every cell in one pass (:func:`_score`).  The
moment cells, the oracle's included, share one Beta fit
(:func:`fit_beta_arrays`, as ``fit`` and the truth are, at the ground truth's
clamp margin ``epsilon``) and one KL pass per direction over their
concatenated test windows, sliced per cell.  Quantiles and KL terms are
computed element by element, so each cell gets the bits it would get alone.
Then one loop scores every cell, point and moment alike, each CCC over the
cell's pooled test windows, in one failure path: a cell with fewer than 2
test windows fails, with no KL means.

Each fold's window split and training-fold z-score statistics are computed
once, before any stack trains (:class:`Fold`), and the report keeps them for
reproducibility.  :func:`write_report` picks the ``density_data.csv`` windows:
evenly spaced fold-0 test windows, predicted by the reference member.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .config import (
    DEFAULT_EPSILON,
    DESCRIPTOR_NAMES,
    MIN_FOLDS,
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

# The per-cell metrics: the concordances, then the KL means of kl.csv.
CCC_METRICS = ("ccc_mu", "ccc_sigma", *(f"ccc_{name}" for name in DESCRIPTOR_NAMES))
KL_METRICS = ("kl_truth_pred", "kl_pred_truth", "kl_truth_uniform", "kl_frac_better")
METRICS = CCC_METRICS + KL_METRICS


@dataclass(frozen=True)
class FoldPlan:
    """Subject-to-fold assignment; :func:`_fold` cuts each fold's splits."""

    k: int
    assignments: dict[str, int]


def make_folds(subjects: list[str], k: int = 5, seed: int = 0) -> FoldPlan:
    """Seeded shuffle plus round-robin assignment of subjects to k >= 3 folds."""
    check("make_folds", "k", k, at_least(MIN_FOLDS))
    uniq = sorted(set(subjects))
    if len(uniq) < k:
        raise InsufficientDataError(
            f"make_folds: need >= {k} subjects for {k} folds, got {len(uniq)}"
        )
    order = np.random.default_rng(seed).permutation(len(uniq))
    return FoldPlan(k, {uniq[j]: i % k for i, j in enumerate(order)})


@dataclass(frozen=True)
class DatasetArrays(WindowTable):
    """A window table plus its ground-truth Beta fits and their clamp margin."""

    truth_alpha: np.ndarray
    truth_beta: np.ndarray
    truth_desc: dict[str, np.ndarray]
    epsilon: float

    @staticmethod
    def from_samples(table: WindowTable,
                     epsilon: float = DEFAULT_EPSILON) -> "DatasetArrays":
        """Take a :class:`WindowTable` and add the Beta fits of its
        (re-clamped) moments; the name is kept for existing callers."""
        if not len(table):
            raise InsufficientDataError("DatasetArrays: empty window table")
        alpha, beta, desc = fit_beta_arrays(table.mu, table.sigma, epsilon)
        return DatasetArrays(**vars(table), truth_alpha=alpha, truth_beta=beta,
                             truth_desc=desc, epsilon=epsilon)


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
class ExperimentReport:
    """Grid results.  ``scores`` maps each metric of :data:`METRICS` to a
    float64 array shaped (model, fold, seed), ``models`` in config order,
    NaN where the cell failed or has no such metric; ``errors`` is the
    parallel object array of failure messages, None where the cell trained.
    ``folds`` are the folds the grid ran on, ``data`` its dataset, and
    ``reference_predictions`` the ``(n_test, 2)`` moment predictions of the
    ``variants[0]`` / fold-0 / master-seed member on fold 0's test windows
    (None without variants, or when that cell failed)."""

    config: ExperimentConfig
    fold_plan: FoldPlan
    models: list[str]
    scores: dict[str, np.ndarray]
    errors: np.ndarray
    folds: list[Fold]
    data: DatasetArrays | None = None
    reference_predictions: np.ndarray | None = None

    @property
    def cells(self) -> list[tuple[str, int, int]]:
        """Each cell's ``(model, fold, seed)``, in the arrays' element order."""
        return [(self.models[m], fold, self.config.master_seed + s)
                for m, fold, s in np.ndindex(self.errors.shape)]

    def failures(self) -> list[tuple[str, int, int, str]]:
        """``(model, fold, seed, message)`` of each failed cell, in cell order."""
        return [(*c, e) for c, e in zip(self.cells, self.errors.flat) if e is not None]


def _fold(data: DatasetArrays, plan: FoldPlan, fold: int) -> Fold:
    """Fold ``fold``'s windows: its subjects test, the next fold's validate
    and the rest train, so the splits are disjoint by construction."""
    subjects, inverse = np.unique(data.subjects, return_inverse=True)
    window_fold = np.array([plan.assignments[s] for s in subjects.tolist()])[inverse]
    held_out = (window_fold - fold) % plan.k  # 0: test, 1: validation
    train, val, test = (np.flatnonzero(held_out >= 2), np.flatnonzero(held_out == 1),
                        np.flatnonzero(held_out == 0))
    x = data.x[train]
    std = x.std(axis=0)
    return Fold(train, val, test, x.mean(axis=0), np.where(std > 0, std, 1.0))


def _stacks(cfg: ExperimentConfig) -> tuple[list[str], list[tuple[str, int, list]]]:
    """The grid's models in config order, the oracle (which has no stack)
    last, and its ``(kind, fold, members)`` stacks, kind by kind and fold by
    fold.  A member is its model's index, its seed's index and its point
    target (None for a moment network); seeds run in order."""
    kinds = [(kind, [(kind, None)]) for kind in cfg.variants]
    if cfg.baselines:
        kinds.append(("point", [(f"point[{b}]", b) for b in cfg.baselines]))
    models = [model for _, members in kinds for model, _ in members]
    return models + [ORACLE_MODEL] * cfg.include_oracle, [
        (kind, fold, [(models.index(model), s, target)
                      for model, target in members for s in range(cfg.n_seeds)])
        for kind, members in kinds for fold in range(cfg.k_folds)]


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_stack(data: DatasetArrays, train: TrainConfig, folds: list[Fold],
               master_seed: int, stack: tuple[str, int, list]) -> tuple[list, np.ndarray | None]:
    """Train one planned ``(kind, fold, members)`` stack under ``train`` on
    its fold's split and predict the fold's test windows.

    Returns each member's failure, or None, and the members' test
    predictions: ``(M, n_test)`` for ``point``, ``(M, n_test, 2)`` moments
    otherwise.  The predictions are None when the whole stack failed.
    """
    kind, fold, members = stack
    split = folds[fold]
    train_idx, val_idx, test_idx = split.train, split.val, split.test
    try:
        x = (data.x - split.mean) / split.std
        if kind == "point":
            y = np.stack([data.truth_desc[target] for *_, target in members])
            y_train, y_val = y[:, train_idx], y[:, val_idx]
        else:
            y = np.column_stack([data.mu, data.sigma])
            y_train, y_val = y[train_idx], y[val_idx]
        net = nn.build(nn.NetworkVariant(kind, data.x.shape[1]),
                       [master_seed + s for _, s, _ in members])
        history = nn.train(net, x[train_idx], y_train, x[val_idx], y_val, train)
        pred = nn.predict(net, x[test_idx])
    except (AnnodistError, FloatingPointError) as exc:
        return [_failure(exc)] * len(members), None
    # Scoring only ever sees finite predictions: a member without them fails here.
    return [_failure(member.error) if member.error is not None
            else None if np.isfinite(member_pred).all()
            else _failure(TrainingError("non-finite test predictions"))
            for member, member_pred in zip(history.members, pred)], pred


# The work queue is a pipe of fixed-width stack indices, all written before
# any process reads, so each read of one record is atomic; they must fit the
# pipe's 64 KiB buffer.
_RECORD = 4
_QUEUE_RECORDS = 65536 // _RECORD


def _claims(queue: int):
    """The stack indices this process pulls from the queue until it is empty."""
    while record := os.read(queue, _RECORD):
        yield int.from_bytes(record, "little")


def _train_stacks(run, stacks: list, workers: int) -> list:
    """``run(stack)`` for every stack, returned in plan order.

    This process and ``workers - 1`` children forked from it pull stack
    indices from one queue, the stacks with the most members first, then in
    plan order.  A child pickles its ``(index, result)`` pairs, or the
    exception it met, back through its own pipe and leaves with
    :func:`os._exit`.  A child's exception is raised here, and so is a
    :class:`RuntimeError` naming the exit status or signal of a child that
    left without sending its results.  No child outlives this call.  With
    one worker, this process trains the stacks in plan order and forks nothing.
    """
    if workers <= 1:
        return [run(stack) for stack in stacks]
    # Imported here, so that a run that forks nothing does not load them.
    import signal
    import traceback

    order = sorted(range(len(stacks)), key=lambda i: -len(stacks[i][2]))
    queue, end = os.pipe()
    with open(end, "wb") as fh:
        fh.write(b"".join(i.to_bytes(_RECORD, "little") for i in order))
    results, children = [None] * len(stacks), {}  # pid -> read end of its pipe
    try:
        for stream in (sys.stdout, sys.stderr):  # so no child repeats their buffers
            stream.flush()
        for _ in range(workers - 1):
            out, end = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    try:
                        sent = [(i, run(stacks[i])) for i in _claims(queue)], None
                    except Exception as exc:
                        sent = [], (exc, traceback.format_exc())
                    # Pickled whole first, so a failure sends nothing, not a part.
                    with open(end, "wb") as fh:
                        fh.write(pickle.dumps(sent, pickle.HIGHEST_PROTOCOL))
                    code = 0
                finally:
                    os._exit(code)
            os.close(end)
            children[pid] = out
        for i in _claims(queue):
            results[i] = run(stacks[i])
        for pid, out in list(children.items()):
            with open(out, "rb", closefd=False) as fh:
                sent = fh.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            if not sent:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(
                    f"run_grid: worker process {pid} " + (
                        f"exited with status {code}" if code >= 0
                        else f"was killed by {signal.Signals(-code).name}")
                    + " before sending its results")
            done, failure = pickle.loads(sent)
            if failure is not None:
                exc, trace = failure
                raise exc from RuntimeError(f"in worker process {pid}:\n{trace}")
            for i, result in done:
                results[i] = result
    finally:
        os.close(queue)
        for pid, out in children.items():
            os.close(out)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _score(data: DatasetArrays, cfg: ExperimentConfig, folds: list[Fold],
           n_models: int, stacks: list, results: list) -> tuple[dict, np.ndarray]:
    """The grid's score and error arrays, from ``results`` paired with
    ``stacks``: each member's failure, then every trained cell scored in one
    loop.  A cell is its array index, its test windows, its predictions by
    target and its per-window KL terms (None for a point cell); the oracle,
    the last model, has one cell per fold, on the true moments, that fills
    every seed.  The moment cells' KL terms and descriptors are slices of one
    Beta fit and one KL pass per direction over all their windows; the
    predictions are finite (:func:`_run_stack` fails a member whose are not),
    and over finite moments the fit and KL are total and elementwise."""
    shape = n_models, cfg.k_folds, cfg.n_seeds
    scores = {metric: np.full(shape, np.nan) for metric in METRICS}
    errors = np.full(shape, None, dtype=object)
    cells, moments = [], []  # moments: (where, test windows, mu_hat, sigma_hat)
    for (_, fold, members), (failures, pred) in zip(stacks, results):
        test_idx = folds[fold].test
        for i, ((m, s, target), failure) in enumerate(zip(members, failures)):
            errors[m, fold, s] = failure
            if failure is None and target is None:
                moments.append(((m, fold, s), test_idx, pred[i, :, 0], pred[i, :, 1]))
            elif failure is None:
                cells.append(((m, fold, s), test_idx, {target: pred[i]}, None))
    if cfg.include_oracle:
        moments += [((n_models - 1, fold, slice(None)), split.test, data.mu[split.test],
                     data.sigma[split.test]) for fold, split in enumerate(folds)]
    if moments:
        _, *columns = zip(*moments)
        test_idx, mu_hat, sigma_hat = map(np.concatenate, columns)
        *pred, pred_desc = fit_beta_arrays(mu_hat, sigma_hat, data.epsilon)
        truth = data.truth_alpha[test_idx], data.truth_beta[test_idx]
        uniform = (np.ones_like(truth[0]),) * 2
        kl_pass = (kl_beta_arrays(*truth, *pred), kl_beta_arrays(*pred, *truth),
                   kl_beta_arrays(*truth, *uniform))
        hi = 0
        for where, idx, mu, sigma in moments:
            lo, hi = hi, hi + idx.size
            cells.append((where, idx, {"mu": mu, "sigma": sigma, **{
                name: pred_desc[name][lo:hi] for name in DESCRIPTOR_NAMES}},
                [terms[lo:hi] for terms in kl_pass]))
    targets = {**data.truth_desc, "mu": data.mu, "sigma": data.sigma}
    for where, idx, preds, kl in cells:
        try:
            values = {f"ccc_{name}": ccc(PairedSeries(p, targets[name][idx]))
                      for name, p in preds.items()}
        except (AnnodistError, FloatingPointError) as exc:
            errors[where] = _failure(exc)
            continue
        if kl is not None:
            tp, pt, tu = kl
            values.update(kl_truth_pred=tp.mean(), kl_pred_truth=pt.mean(),
                          kl_truth_uniform=tu.mean(), kl_frac_better=np.mean(tp < tu))
        for metric, value in values.items():
            scores[metric][where] = value
    return scores, errors


def run_grid(table: WindowTable, cfg: ExperimentConfig, train: TrainConfig = TrainConfig(),
             jobs: int = 1, epsilon: float = DEFAULT_EPSILON) -> ExperimentReport:
    """Train the grid's networks under ``train`` and evaluate every cell; the
    truth and the predictions are clamped with ``epsilon``.

    ``jobs`` below 1, a parallel plan longer than the work queue holds and a
    table without features raise before anything trains.  Each fold's split
    and normalisation are computed once, up front; with ``k_folds >= 3`` every
    split has a subject.  Stacks train and predict in this process and
    ``jobs - 1`` forked children, never more processes than stacks
    (:func:`_train_stacks`); this process then scores every cell.  Failures
    stay in their cells.
    """
    check("run_grid", "jobs", jobs, at_least(1))
    models, stacks = _stacks(cfg)
    workers = min(jobs, len(stacks))
    if workers > 1 and len(stacks) > _QUEUE_RECORDS:
        raise DomainError(f"run_grid: at most {_QUEUE_RECORDS} stacks train in "
                          f"parallel, got {len(stacks)}; use jobs=1")
    if not table.x.shape[1]:
        raise DataError("run_grid: the dataset has no feature column")
    data = DatasetArrays.from_samples(table, epsilon)
    plan = make_folds(sorted(set(data.subjects.tolist())), cfg.k_folds,
                      cfg.master_seed)
    folds = [_fold(data, plan, i) for i in range(cfg.k_folds)]
    payload = {"data": data, "train": train, "folds": folds, "master_seed": cfg.master_seed}
    results = _train_stacks(lambda stack: _run_stack(**payload, stack=stack), stacks,
                            workers)
    scores, errors = _score(data, cfg, folds, len(models), stacks, results)
    # With variants, the first stack is (variants[0], fold 0): the reference
    # stack, whose master-seed member is cell (0, 0, 0).
    reference = results[0][1][0] if cfg.variants and errors[0, 0, 0] is None else None
    return ExperimentReport(cfg, plan, models, scores, errors, folds, data, reference)


def significance(
    report: ExperimentReport, level: float
) -> dict[str, dict[str, dict]]:
    """Per-metric pairwise Wilcoxon comparison against the best model.

    Marks the best model and every model not significantly different from it
    at the given level; comparisons without enough paired scores are marked
    inconclusive.  A model with some failed cells is marked inconclusive with
    its ``failed_cells`` count and its trained cells' mean and std, untested.
    The oracle's row is a ``reference``: never best, never tested.
    """
    out: dict[str, dict[str, dict]] = {}
    for metric in CCC_METRICS:
        # Each model's trained cells in (fold, seed) order, paired where all trained.
        vectors = {model: v[~np.isnan(v)] for model, v in zip(report.models, report.scores[metric])
                   if not np.isnan(v).all()}
        if not vectors:
            continue
        failed = {m: report.errors[0].size - v.size for m, v in vectors.items()}
        best = max((m for m in vectors if not failed[m] and m != ORACLE_MODEL),
                   key=lambda m: vectors[m].mean(), default=None)
        entry: dict[str, dict] = {}
        for model, vec in vectors.items():
            row = {
                "mean": float(vec.mean()),
                "std": float(vec.std()),
                "best": model == best,
            }
            if failed[model]:
                row["failed_cells"] = failed[model]
            if model == ORACLE_MODEL:
                row["reference"] = True
            elif failed[model]:
                row["inconclusive"] = True
            elif model != best:
                try:
                    _, p = wilcoxon_signed_rank(vectors[best], vec)
                    row["p_vs_best"] = p
                    row["indistinguishable_from_best"] = p >= level
                except InsufficientDataError:
                    row["inconclusive"] = True
            entry[model] = row
        out[metric] = entry
    return out


def emit_density_data(data: DatasetArrays, mu_hat: np.ndarray, sigma_hat: np.ndarray,
                      indices: np.ndarray, path) -> Path:
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
    pmu, psigma, _ = clamp_moments_arrays(mu_hat, sigma_hat, data.epsilon)
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


# Wide per-cell score tables: key in the returned paths -> (file, metrics).
_SCORE_TABLES = {
    "moments": ("moments_ccc.csv", ["ccc_mu", "ccc_sigma"]),
    "kl": ("kl.csv", list(KL_METRICS)),
}


def write_report(report: ExperimentReport, outdir, level: float, *,
                 density_windows: int) -> dict[str, Path]:
    """Write the per-table CSVs, the JSON summary and, for a reference
    member that trained, the densities of up to ``density_windows`` of fold
    0's test windows, removing a ``density_data.csv`` left in ``outdir``
    when it writes none; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scores = report.scores
    # Each cell's key and array index, by model name, then fold and seed.
    cells = sorted(zip(report.cells, np.ndindex(report.errors.shape)))

    # One block per row: its key cells, then one column per score.
    paths = {
        name: write_table(outdir / file, ["model", "fold", "seed"] + keys, (
            (key, np.array([[scores[k][at]] for k in keys]))
            for key, at in cells if not np.isnan(scores[keys[0]][at])
        ))
        for name, (file, keys) in _SCORE_TABLES.items()
    }
    paths["descriptors"] = write_table(
        outdir / "descriptors_ccc.csv", ["model", "fold", "seed", "descriptor", "ccc"],
        (((*key, name), np.array([[scores[f"ccc_{name}"][at]]]))
         for key, at in cells for name in DESCRIPTOR_NAMES
         if not np.isnan(scores[f"ccc_{name}"][at])),
    )
    paths["summary"] = outdir / "summary.json"

    # Each model's mean of each kl.csv column over its trained cells.
    kl_means = {
        model: {key: float(np.nanmean(scores[metric][m])) for key, metric in zip(
            ("vs_truth_beta", "vs_truth_beta_pred_first", "vs_uniform",
             "windows_better_than_uniform"), KL_METRICS)}
        for m, model in enumerate(report.models) if not np.isnan(scores[KL_METRICS[0]][m]).all()
    }
    summary = {
        "grid": {
            "models": report.models,
            "k_folds": report.config.k_folds,
            "n_seeds": report.config.n_seeds,
            "master_seed": report.config.master_seed,
            "cells": report.errors.size,
            "failures": [
                {"model": model, "fold": fold, "seed": seed, "error": error}
                for model, fold, seed, error in report.failures()
            ],
        },
        "kl_means": kl_means,
        "fold_assignments": report.fold_plan.assignments,
        "fold_normalization": [
            {"mean": f.mean.tolist(), "std": f.std.tolist()} for f in report.folds
        ],
        "significance_level": level,
        "significance": significance(report, level),
    }
    write_json(paths["summary"], summary)

    pred, density = report.reference_predictions, outdir / "density_data.csv"
    if density_windows > 0 and pred is not None:
        test_idx = report.folds[0].test
        pick = np.linspace(0, test_idx.size - 1,
                           min(density_windows, test_idx.size)).astype(int)
        paths["density"] = emit_density_data(
            report.data, pred[pick, 0], pred[pick, 1], test_idx[pick], density)
    else:
        density.unlink(missing_ok=True)
    return paths
