"""Fold construction, grid execution, significance marking, density output."""

import csv
import dataclasses
import json
import os
import re
import select
import signal
import time
import types

import numpy as np
import pytest

from annodist import experiments, nn, special
from annodist.config import TrainConfig
from annodist.consensus import fit_beta_arrays
from annodist.errors import DomainError, InsufficientDataError
from annodist.experiments import (
    ORACLE_MODEL,
    DatasetArrays,
    ExperimentConfig,
    ExperimentReport,
    emit_density_data,
    make_folds,
    run_grid,
    significance,
    write_report,
)
from annodist.metrics import PairedSeries, ccc
from annodist.pipeline import WindowConfig, build_dataset
from annodist.synthetic import SyntheticConfig, generate
import csv_reference

TINY_SYNTH = SyntheticConfig(
    n_subjects=6, duration=24.0, frame_rate=10.0, n_annotators=4,
    feature_dim=8, latent_dim=2, seed=5,
)
TINY_GRID = ExperimentConfig(
    k_folds=3, n_seeds=2, master_seed=1, variants=("fully_shared",),
    baselines=("median",), include_oracle=True,
)
TINY_TRAIN = TrainConfig(max_epochs=15)


@pytest.fixture(scope="module")
def tiny_table():
    feats, annots, _ = generate(TINY_SYNTH, WindowConfig())
    table, _ = build_dataset(feats, annots, WindowConfig())
    return table


@pytest.fixture(scope="module")
def tiny_report(tiny_table):
    return run_grid(tiny_table, TINY_GRID, TINY_TRAIN)


@pytest.fixture(scope="module")
def poisoned_report(tiny_table):
    """The tiny grid with a NaN in the test predictions of one moment member
    and one point member of fold 0's stacks."""
    predict, poisoned = nn.predict, set()

    def poisoning_predict(net, x):
        pred = predict(net, x)
        if net.kind not in poisoned:
            poisoned.add(net.kind)
            pred[1 if net.kind == "fully_shared" else 0, 3] = np.nan
        return pred

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "predict", poisoning_predict)
        report = run_grid(tiny_table, TINY_GRID, TINY_TRAIN)
    assert poisoned == {"fully_shared", "point"}
    return report


def model_scores(report, metric, model):
    """``model``'s (fold, seed) block of ``metric``."""
    return report.scores[metric][report.models.index(model)]


def failed_cells(report):
    # A failure message is truthy and None is not.
    return report.errors.astype(bool)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_scores(got, want):
    """Equal (model, fold, seed) score arrays, NaN where ``want`` has NaN."""
    assert set(got) == set(want) == set(experiments.METRICS)
    for metric in experiments.METRICS:
        np.testing.assert_array_equal(got[metric], want[metric])


# (config, field, bad value): each range error names its field and the value.
BAD_CONFIG_FIELDS = [
    (ExperimentConfig, "n_seeds", 0), (ExperimentConfig, "k_folds", 1),
    (ExperimentConfig, "k_folds", 2), (ExperimentConfig, "master_seed", -1),
    (WindowConfig, "epsilon", 0.5), (WindowConfig, "epsilon", 1e-13),
    (ExperimentConfig, "variants", ("bogus",)),
    (ExperimentConfig, "baselines", ("mean",)),
    (ExperimentConfig, "variants", ("fully_shared", "independent", "fully_shared")),
    (ExperimentConfig, "baselines", ("median", "median")),
    (SyntheticConfig, "n_subjects", 0), (SyntheticConfig, "n_annotators", 1),
    (SyntheticConfig, "duration", 0.0), (SyntheticConfig, "frame_rate", -1.0),
    (SyntheticConfig, "annotation_rate", float("nan")),
    (SyntheticConfig, "feature_dim", 0), (SyntheticConfig, "latent_dim", -1),
    (SyntheticConfig, "noise_std", -0.1), (SyntheticConfig, "seed", -1),
    (WindowConfig, "window_len", 0.0), (WindowConfig, "stride", 0.0),
    (WindowConfig, "stride", 5.0), (WindowConfig, "label_range", (1.0, 0.0)),
]


class TestConfigChecks:
    @pytest.mark.parametrize("owner,field,value", BAD_CONFIG_FIELDS)
    def test_range_error_names_field_and_value(self, owner, field, value):
        with pytest.raises(DomainError, match=re.escape(f"{owner.__name__}: {field} ")):
            owner(**{field: value})
        with pytest.raises(DomainError, match=re.escape(repr(value))):
            owner(**{field: value})

    def test_grid_without_models_rejected(self):
        with pytest.raises(DomainError, match="variants and baselines are both empty"):
            ExperimentConfig(variants=(), baselines=())

    def test_duration_too_short_for_one_mark(self):
        with pytest.raises(DomainError, match="duration 0.1 is too short"):
            SyntheticConfig(duration=0.1)


class TestFolds:
    def test_balanced_assignment(self):
        plan = make_folds([f"s{i}" for i in range(10)], k=5, seed=0)
        assert sorted(plan.assignments) == [f"s{i}" for i in range(10)]
        assert np.bincount(list(plan.assignments.values())).tolist() == [2, 2, 2, 2, 2]

    def test_subject_disjointness(self):
        plan = make_folds([f"s{i}" for i in range(11)], k=5, seed=3)
        # Three windows per subject, in shuffled order.
        subjects = np.random.default_rng(3).permutation(np.repeat(sorted(plan.assignments), 3))
        data = types.SimpleNamespace(subjects=subjects, x=np.zeros((subjects.size, 1)))
        for i in range(5):
            fold = experiments._fold(data, plan, i)
            train, val, test = (set(subjects[idx].tolist())
                                for idx in (fold.train, fold.val, fold.test))
            assert not (train & val) and not (train & test) and not (val & test)
            assert train | val | test == set(plan.assignments)
            assert test == {s for s, f in plan.assignments.items() if f == i}
            assert val == {s for s, f in plan.assignments.items() if f == (i + 1) % 5}
            np.testing.assert_array_equal(
                np.sort(np.concatenate([fold.train, fold.val, fold.test])),
                np.arange(subjects.size))

    def test_deterministic(self):
        subjects = [f"s{i}" for i in range(9)]
        assert make_folds(subjects, 4, 7) == make_folds(subjects, 4, 7)

    def test_too_few_subjects(self):
        with pytest.raises(InsufficientDataError):
            make_folds(["a", "b", "c"], k=5, seed=0)

    def test_two_folds_rejected(self):
        # Fold i tests and fold i+1 validates, so with k = 2 no window trains.
        with pytest.raises(DomainError, match="make_folds: k must be >= 3, got 2"):
            make_folds(["a", "b", "c", "d"], k=2)


class TestRunGrid:
    def test_grid_is_complete(self, tiny_report):
        models = ["fully_shared", "point[median]", "oracle"]
        assert tiny_report.models == models
        assert len(tiny_report.cells) == len(models) * 3 * 2
        assert len(set(tiny_report.cells)) == len(tiny_report.cells)
        assert not tiny_report.failures()

    def test_oracle_rows_are_perfect(self, tiny_report):
        def oracle(metric):
            return model_scores(tiny_report, metric, "oracle")

        assert oracle("ccc_mu") == pytest.approx(1.0)
        assert oracle("ccc_sigma") == pytest.approx(1.0)
        assert np.all(oracle("kl_truth_pred") <= 1e-10)
        assert np.all(oracle("kl_frac_better") == 1.0)

    def test_baseline_cells_score_their_descriptor(self, tiny_report):
        for metric in experiments.METRICS:
            scores = model_scores(tiny_report, metric, "point[median]")
            assert (np.isfinite(scores) if metric == "ccc_median" else np.isnan(scores)).all()

    def test_determinism(self, tiny_table, tiny_report):
        again = run_grid(tiny_table, TINY_GRID, TINY_TRAIN)
        assert again.cells == tiny_report.cells
        assert_same_scores(again.scores, tiny_report.scores)

    def test_parallel_jobs_match_sequential(self, tiny_table, tiny_report, monkeypatch):
        forks, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        # The tiny grid has 6 stacks: 7 jobs start 6 processes.
        for jobs, children in ((2, 1), (3, 2), (7, 5)):
            forks.clear()
            parallel = run_grid(tiny_table, TINY_GRID, TINY_TRAIN, jobs=jobs)
            assert len(forks) == children
            assert parallel.cells == tiny_report.cells
            assert_same_scores(parallel.scores, tiny_report.scores)
            np.testing.assert_array_equal(parallel.reference_predictions,
                                          tiny_report.reference_predictions)
            assert_no_child_left()

    def test_jobs_below_one_rejected(self, tiny_table):
        with pytest.raises(DomainError, match="run_grid: jobs must be >= 1, got 0"):
            run_grid(tiny_table, TINY_GRID, jobs=0)

    def test_a_parallel_plan_longer_than_the_queue_rejected(self, tiny_table):
        # 4 kinds x 4097 folds: 16388 stacks, over the 16384 the queue holds.
        cfg = ExperimentConfig(k_folds=4097, n_seeds=1, baselines=("median",))
        with pytest.raises(DomainError, match="run_grid: at most 16384 stacks train "
                           "in parallel, got 16388; use jobs=1"):
            run_grid(tiny_table, cfg, jobs=2)
        with pytest.raises(InsufficientDataError, match="need >= 4097 subjects"):
            run_grid(tiny_table, cfg, jobs=1)

    def test_point_cells_do_not_depend_on_other_baselines(self, tiny_table):
        # All baselines train as one stack; a cell must not see its siblings.
        base = dict(k_folds=3, n_seeds=2, master_seed=1, variants=())
        alone = run_grid(tiny_table, ExperimentConfig(**base, baselines=("median",)),
                         TINY_TRAIN)
        every = run_grid(tiny_table, ExperimentConfig(**base), TINY_TRAIN)
        assert len(every.cells) == 5 * len(alone.cells)
        m = every.models.index("point[median]")
        assert_same_scores({k: v[m] for k, v in every.scores.items()},
                           {k: v[0] for k, v in alone.scores.items()})

    def test_master_seed_cells_do_not_depend_on_n_seeds(self, tiny_table,
                                                        tiny_report):
        single = run_grid(tiny_table, ExperimentConfig(**{
            **TINY_GRID.__dict__, "n_seeds": 1,
        }), TINY_TRAIN)
        # The master seed is seed index 0.
        assert_same_scores(single.scores,
                           {k: v[:, :, :1] for k, v in tiny_report.scores.items()})

    def test_cell_failures_recorded_and_grid_continues(self, tiny_table):
        # An absurd learning rate overflows the parameters and trips the
        # non-finite gradient guard; those cells must be marked failed while
        # the rest of the grid keeps running.
        cfg = ExperimentConfig(
            k_folds=3, n_seeds=1, master_seed=0, variants=("fully_shared",),
            baselines=("median",),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_grid(tiny_table, cfg, TrainConfig(learning_rate=1e200,
                                                           max_epochs=3))
        assert len(report.cells) == 2 * 3
        failed = {model for model, *_ in report.failures()}
        assert failed == {"fully_shared", "point[median]"}
        for *_, error in report.failures():
            assert "TrainingError" in error

    @pytest.mark.parametrize("grid,learning_rate", [
        (dict(variants=("independent", "fully_shared"), baselines=()), 1e-3),
        (dict(variants=(), baselines=("skew", "median")), 1e-3),
        (dict(variants=("shared_first", "fully_shared"), baselines=("q75", "median"),
              include_oracle=True), 1e-3),
        (dict(n_seeds=1), 1e-3),
        (dict(baselines=("median",), include_oracle=True), 1e200),
    ], ids=["variants", "baselines", "both-and-oracle", "one-seed", "failing"])
    def test_cells_run_model_fold_seed_in_config_order(self, tiny_table, tmp_path,
                                                        grid, learning_rate):
        cfg = ExperimentConfig(**{"k_folds": 3, "n_seeds": 2, "master_seed": 4,
                                  "variants": ("fully_shared",), **grid})
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_grid(tiny_table, cfg, TrainConfig(learning_rate, max_epochs=2))
        models = [*cfg.variants, *(f"point[{b}]" for b in cfg.baselines),
                  *["oracle"] * cfg.include_oracle]
        assert report.cells == [
            (model, fold, cfg.master_seed + s)
            for model in models for fold in range(3) for s in range(cfg.n_seeds)]
        assert bool(report.failures()) == (learning_rate == 1e200)
        summary = json.loads(write_report(report, tmp_path, 0.05, density_windows=0)
                             ["summary"].read_text())
        assert summary["grid"]["models"] == models

    def test_folds_are_the_plan_splits(self, tiny_report):
        data, plan, k = tiny_report.data, tiny_report.fold_plan, TINY_GRID.k_folds
        assert len(tiny_report.folds) == k
        window_fold = np.array([plan.assignments[s] for s in data.subjects.tolist()])
        for i, fold in enumerate(tiny_report.folds):
            val_fold = (i + 1) % k
            for idx, held in ((fold.train, (window_fold != i) & (window_fold != val_fold)),
                              (fold.val, window_fold == val_fold),
                              (fold.test, window_fold == i)):
                np.testing.assert_array_equal(idx, np.flatnonzero(held))
            np.testing.assert_array_equal(fold.mean, data.x[fold.train].mean(axis=0))

    def test_constant_feature_is_not_scaled(self, tiny_table):
        x = tiny_table.x.copy()
        x[:, 0] = 3.0
        data = DatasetArrays.from_samples(dataclasses.replace(tiny_table, x=x))
        plan = make_folds(sorted(set(data.subjects.tolist())), 3, 0)
        fold = experiments._fold(data, plan, 0)
        assert fold.mean[0] == 3.0 and fold.std[0] == 1.0
        assert np.all(fold.std[1:] > 0)

    def test_a_scoring_failure_fails_every_kind_of_cell_on_its_fold(self, tiny_table):
        # Without the last subject, fold 2 tests one subject, kept to its first
        # window: a CCC needs 2 pairs, so every fold-2 cell fails while scoring,
        # point, moment and the oracle at every seed, with no score and no KL.
        subjects = sorted(set(tiny_table.subjects.tolist()))[:-1]
        plan = make_folds(subjects, TINY_GRID.k_folds, TINY_GRID.master_seed)
        assert [s for s in subjects if plan.assignments[s] == 2] == ["s001"]
        first = np.zeros(len(tiny_table), dtype=bool)
        first[np.unique(tiny_table.subjects, return_index=True)[1]] = True
        keep = (np.isin(tiny_table.subjects, subjects)
                & (first | (tiny_table.subjects != "s001")))
        table = type(tiny_table)(**{k: v[keep] for k, v in vars(tiny_table).items()})
        report = run_grid(table, TINY_GRID, TINY_TRAIN)
        assert report.models == ["fully_shared", "point[median]", "oracle"]
        assert report.fold_plan == plan
        assert report.errors[:, 2].tolist() == [[
            "InsufficientDataError: PairedSeries: need at least 2 pairs"] * 2] * 3
        assert not failed_cells(report)[:, [0, 1]].any()
        for metric, scores in report.scores.items():
            assert np.isnan(scores[:, 2]).all()
        for model, metric in (("fully_shared", "kl_truth_pred"), ("oracle", "ccc_mu"),
                              ("point[median]", "ccc_median")):
            assert np.isfinite(model_scores(report, metric, model)[[0, 1]]).all()

    def test_degenerate_predictions_scored_not_failed(self, tiny_table):
        # A frozen network keeps sigma_hat near softplus(0) ~ 0.69, above the
        # validity cap; the clamp collapses it to a near-two-point Beta whose
        # quartiles sit at the interval ends.  The cell still gets scores.
        cfg = ExperimentConfig(
            k_folds=3, n_seeds=1, master_seed=0, variants=("fully_shared",),
            baselines=(),
        )
        report = run_grid(tiny_table, cfg, TrainConfig(learning_rate=1e-30, max_epochs=1))
        assert not report.failures()
        assert np.isfinite(report.scores["ccc_median"]).all()
        assert np.isfinite(report.scores["kl_truth_pred"]).all()


class TestPlan:
    def test_stacks_plan_each_trained_cell_once_and_no_oracle_stack(self):
        models, stacks = experiments._stacks(TINY_GRID)
        assert models == ["fully_shared", "point[median]", "oracle"]
        assert [(kind, fold) for kind, fold, _ in stacks] == [
            (kind, fold) for kind in ("fully_shared", "point") for fold in range(3)]
        for kind, fold, members in stacks:
            m, target = (0, None) if kind == "fully_shared" else (1, "median")
            assert members == [(m, s, target) for s in range(TINY_GRID.n_seeds)]

    def test_run_grid_trains_the_planned_stacks(self, tiny_table, monkeypatch):
        run_stack, calls = experiments._run_stack, []

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return run_stack(*args, **kwargs)

        monkeypatch.setattr(experiments, "_run_stack", recording)
        report = run_grid(tiny_table, TINY_GRID, TrainConfig(max_epochs=1), jobs=1)
        assert [call["stack"] for call in calls] == experiments._stacks(TINY_GRID)[1]
        for call in calls:
            assert call["master_seed"] == TINY_GRID.master_seed
            assert call["folds"] is report.folds


@pytest.fixture
def took_a_stack():
    """``(took, wait)``: a child calls ``took()`` as it takes a stack, and
    the parent's ``wait()`` returns once one has, so that both train; a
    run that hangs fails after 60 s."""
    readable, writable = os.pipe()

    def timeout(*_):
        raise TimeoutError("run_grid did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield (lambda: os.write(writable, b"x"),
               lambda: select.select([readable], [], [], 30))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(readable)
        os.close(writable)
    assert_no_child_left()


class TestScheduler:
    """``run_grid`` at ``jobs=2``: this process and one forked child."""

    @pytest.mark.parametrize("where", ["parent", "child"])
    def test_an_unexpected_exception_is_raised_with_its_message(
            self, tiny_table, monkeypatch, took_a_stack, where):
        took, wait = took_a_stack
        parent, run_stack = os.getpid(), experiments._run_stack

        def failing(*args, stack, **kwargs):
            in_parent = os.getpid() == parent
            if in_parent:
                wait()
            else:
                took()
            if in_parent == (where == "parent"):
                raise RuntimeError(f"{stack[0]} fold {stack[1]} broke")
            if not in_parent:
                time.sleep(30)  # the child is killed once this process fails
            return run_stack(*args, stack=stack, **kwargs)

        monkeypatch.setattr(experiments, "_run_stack", failing)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"^\w+ fold \d broke$") as raised:
            run_grid(tiny_table, TINY_GRID, TrainConfig(max_epochs=1), jobs=2)
        assert time.monotonic() - start < 20
        cause = str(raised.value.__cause__)
        assert (where == "child") == cause.startswith("in worker process")
        if where == "child":
            assert "RuntimeError:" in cause and "broke" in cause

    @pytest.mark.parametrize("leave, message", [
        (lambda: os._exit(7), "exited with status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by SIGKILL"),
    ], ids=["exit", "signal"])
    def test_a_child_that_leaves_without_results_is_named(
            self, tiny_table, monkeypatch, took_a_stack, leave, message):
        took, wait = took_a_stack
        parent, run_stack = os.getpid(), experiments._run_stack

        def leaving(*args, **kwargs):
            if os.getpid() != parent:
                took()
                leave()
            wait()
            return run_stack(*args, **kwargs)

        monkeypatch.setattr(experiments, "_run_stack", leaving)
        pattern = rf"run_grid: worker process \d+ {message} before sending its results"
        with pytest.raises(RuntimeError, match=pattern):
            run_grid(tiny_table, TINY_GRID, TrainConfig(max_epochs=1), jobs=2)

    def test_each_process_takes_the_heaviest_stack_left(self):
        # Stacks of 1 to 4 members, not in order of size.
        stacks = [("kind", i, [None] * (1 + i * 5 % 4)) for i in range(12)]

        def run(stack):
            time.sleep(0.002)
            return os.getpid(), time.monotonic_ns(), len(stack[2])

        serial = experiments._train_stacks(run, stacks, 1)
        assert {pid for pid, *_ in serial} == {os.getpid()}
        assert [at for _, at, _ in serial] == sorted(at for _, at, _ in serial)
        for workers in (2, 3, 12):
            results = experiments._train_stacks(run, stacks, workers)
            assert [size for *_, size in results] == [len(s[2]) for s in stacks]
            taken = {}
            for pid, _, size in sorted(results, key=lambda r: r[1]):
                taken.setdefault(pid, []).append(size)
            assert len(taken) <= workers
            for sizes in taken.values():
                assert sizes == sorted(sizes, reverse=True)
            assert_no_child_left()


class TestBatchedScoring:
    # A made-up plan on the tiny grid's folds, one single-member moment stack
    # per given cell: two models (fully_shared, oracle) x 3 folds x 2 seeds.

    def _score(self, report, cells, oracle=False):
        """``_score`` on ``(model, fold, seed, mu_hat, sigma_hat)`` cells."""
        cfg = ExperimentConfig(k_folds=3, n_seeds=2, variants=("fully_shared",),
                               baselines=(), include_oracle=oracle)
        stacks = [("fully_shared", fold, [(m, s, None)]) for m, fold, s, *_ in cells]
        results = [([None], np.stack([mu, sigma], axis=-1)[None]) for *_, mu, sigma in cells]
        return experiments._score(report.data, cfg, report.folds, 2, stacks, results)

    def _cells(self, report, rng):
        # Two cells with random predictions, some sigma_hat above the
        # validity cap, on different folds.
        return [(0, i, 0, rng.uniform(0.05, 0.95, fold.test.size),
                 rng.uniform(0.01, 0.6, fold.test.size))
                for i, fold in enumerate(report.folds[:2])]

    def _alone(self, report, cell):
        # One cell scored as the only one of its plan.
        scores, errors = self._score(report, [cell])
        assert not errors.astype(bool).any()
        return {metric: v[cell[:3]] for metric, v in scores.items()}

    def test_batched_cells_match_cells_scored_alone(self, tiny_report, monkeypatch):
        data = tiny_report.data
        cells = self._cells(tiny_report, np.random.default_rng(32))
        calls = []
        inverse = special.inv_reg_inc_beta
        monkeypatch.setattr(special, "inv_reg_inc_beta",
                            lambda *a, **k: calls.append(1) or inverse(*a, **k))
        scores, errors = self._score(tiny_report, cells, oracle=True)
        assert len(calls) == 1
        assert not errors.astype(bool).any()
        for metric in experiments.METRICS:
            # Two single cells and the oracle's 3 folds x 2 seeds; the rest stay NaN.
            assert np.count_nonzero(np.isfinite(scores[metric])) == 8
        # An oracle cell scores as a moment cell that predicts the true moments.
        oracle = [(1, i, 0, data.mu[fold.test], data.sigma[fold.test])
                  for i, fold in enumerate(tiny_report.folds)]
        for cell in cells + oracle:
            m, fold, s = cell[:3]
            seeds = slice(None) if m else s  # the oracle fills every seed
            for metric, value in self._alone(tiny_report, cell).items():
                assert np.isfinite(value)
                np.testing.assert_array_equal(scores[metric][m, fold, seeds], value)

    def test_each_ccc_is_taken_over_the_pooled_test_windows(self, tiny_report):
        # Each test fold holds several subjects; a cell's CCC is one
        # concordance over all its test windows, with no per-subject averaging.
        data = tiny_report.data
        cells = self._cells(tiny_report, np.random.default_rng(35))
        scores, errors = self._score(tiny_report, cells)
        assert not errors.astype(bool).any()
        targets = {**data.truth_desc, "mu": data.mu, "sigma": data.sigma}
        for m, fold, s, mu_hat, sigma_hat in cells:
            test = tiny_report.folds[fold].test
            assert np.unique(data.subjects[test]).size >= 2
            *_, desc = fit_beta_arrays(mu_hat, sigma_hat, data.epsilon)
            for name, pred in (("mu", mu_hat), ("sigma", sigma_hat),
                               ("median", desc["median"])):
                assert scores[f"ccc_{name}"][m, fold, s] == ccc(
                    PairedSeries(pred, targets[name][test]))

    def test_any_finite_predictions_score(self, tiny_report):
        # Moments far outside the validity region, the extremes included,
        # fit and score without a warning (warnings are errors here).  The
        # raw sigma_hat also enters ccc_sigma.
        rng = np.random.default_rng(34)
        mu_x, sigma_x = (v.ravel() for v in np.meshgrid(
            [0.0, 1.0, -3.0, 7.5], [0.0, 5e-324, 1e300, -1e300]))
        cells = []
        for i, fold in enumerate(tiny_report.folds):
            n = fold.test.size
            mu_hat = rng.uniform(-2.0, 3.0, n)
            sigma_hat = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320, 300, n)
            mu_hat[:mu_x.size], sigma_hat[:mu_x.size] = mu_x, sigma_x
            cells.append((0, i, 0, mu_hat, sigma_hat))
        scores, errors = self._score(tiny_report, cells)
        assert not errors.astype(bool).any()
        for metric in experiments.METRICS:
            assert np.isfinite(scores[metric][0, :, 0]).all()

    def test_extreme_moments_fit_to_bounded_shapes(self):
        mu, sigma = (v.ravel() for v in np.meshgrid(
            [0.0, 1.0, 0.5, -3.0], [0.0, 5e-324, 1e150, 1e300, -1e300, 0.3]))
        alpha, beta, desc = experiments.fit_beta_arrays(mu, sigma, 1e-4)
        for shape in (alpha, beta):
            assert np.all((shape >= 1e-8) & (shape <= 1e4))
        assert all(np.all(np.isfinite(v)) for v in desc.values())
        assert np.all(np.isfinite(experiments.kl_beta_arrays(alpha, beta, 1.0, 1.0)))

    def test_a_member_with_non_finite_predictions_fails_alone(
            self, tiny_report, poisoned_report):
        assert poisoned_report.failures() == [
            ("fully_shared", 0, 2, "TrainingError: non-finite test predictions"),
            ("point[median]", 0, 1, "TrainingError: non-finite test predictions"),
        ]
        assert poisoned_report.cells == tiny_report.cells
        trained = ~failed_cells(poisoned_report)
        for metric, scores in poisoned_report.scores.items():
            np.testing.assert_array_equal(scores[trained],
                                          tiny_report.scores[metric][trained])


class TestScoreArrays:
    @pytest.mark.parametrize("name", ["tiny_report", "poisoned_report"])
    def test_one_array_per_metric_shaped_model_fold_seed(self, name, request):
        report = request.getfixturevalue(name)
        shape = (len(report.models), TINY_GRID.k_folds, TINY_GRID.n_seeds)
        assert set(report.scores) == set(experiments.METRICS)
        assert report.errors.shape == shape
        for scores in report.scores.values():
            assert scores.shape == shape and scores.dtype == np.float64
        failed = failed_cells(report)
        for m, fold, s in np.ndindex(shape):
            model, error = report.models[m], report.errors[m, fold, s]
            finite = {metric for metric, scores in report.scores.items()
                      if np.isfinite(scores[m, fold, s])}
            if failed[m, fold, s]:
                assert finite == set() and error.startswith("TrainingError: ")
            elif model.startswith("point["):
                assert error is None and finite == {f"ccc_{model[6:-1]}"}
            else:
                assert error is None and finite == set(experiments.METRICS)
        assert failed.any() == (name == "poisoned_report")

    def test_significance_marks_a_partly_failed_model_inconclusive(
            self, tiny_report, poisoned_report):
        models = {metric: set(rows) for metric, rows
                  in significance(tiny_report, 0.05).items()}
        assert models["ccc_median"] == {"fully_shared", "point[median]", "oracle"}
        assert models["ccc_mu"] == {"fully_shared", "oracle"}
        result = significance(poisoned_report, 0.05)
        assert {metric: set(rows) for metric, rows in result.items()} == models
        # fully_shared and point[median] each failed 1 of their 6 cells.
        for metric, model in [("ccc_mu", "fully_shared"), ("ccc_median", "fully_shared"),
                              ("ccc_median", "point[median]")]:
            scores = model_scores(poisoned_report, metric, model)
            assert result[metric][model] == {
                "mean": float(np.nanmean(scores)), "std": float(np.nanstd(scores)),
                "best": False, "inconclusive": True, "failed_cells": 1}
            assert result[metric]["oracle"] == {
                "mean": 1.0, "std": 0.0, "best": False, "reference": True}

    def test_report_counts_a_partly_failed_models_cells(self, tiny_report,
                                                        poisoned_report, tmp_path, capsys):
        from annodist import cli

        printed = {}
        for name, report in (("tiny", tiny_report), ("poisoned", poisoned_report)):
            write_report(report, tmp_path / name, 0.05, density_windows=0)
            capsys.readouterr()
            assert cli.main(["report", "--run", str(tmp_path / name)]) == 0
            printed[name] = capsys.readouterr().out.splitlines()
        lines = printed["poisoned"]
        assert lines[lines.index("failures: 2") + 4].endswith(
            "(paired Wilcoxon, * best, = on par, ? untested: too few pairs or failed cells, "
            "r reference (oracle), untested)")
        # The KL row of fully_shared: the mean covers its 5 trained cells.
        kl = next(line for line in lines if line.startswith("    fully_shared"))
        assert kl.endswith("  (1 of 6 cells failed)")
        assert not next(line for line in lines if line.startswith("    oracle")).endswith(")")
        mu = lines[lines.index("ccc_mu") + 2]
        row = poisoned_report.scores["ccc_mu"][0]
        assert mu == (f"  ? fully_shared             {np.nanmean(row):+.4f} +/- "
                      f"{np.nanstd(row):.4f}  (1 of 6 cells failed)")
        median = lines[lines.index("ccc_median") + 1:lines.index("ccc_median") + 4]
        assert [line.endswith("  (1 of 6 cells failed)") for line in median] == [
            False, True, True]
        # A grid without failures prints no count.
        assert not any("failed)" in line for line in printed["tiny"])


def _fake_report(score_map):
    # One fold; each model's scores are its seeds.
    models = list(score_map)
    shape = (len(models), 1, len(score_map[models[0]]))
    scores = {metric: np.full(shape, np.nan) for metric in experiments.METRICS}
    scores["ccc_mu"][:, 0] = list(score_map.values())
    cfg = ExperimentConfig(k_folds=3, n_seeds=shape[2],
                           variants=("fully_shared",), baselines=())
    plan = make_folds([f"s{i}" for i in range(4)], 3, 0)
    return ExperimentReport(cfg, plan, models, scores, np.full(shape, None, dtype=object),
                            [])


class TestSignificance:
    def test_identical_scores_not_significant(self):
        scores = list(np.linspace(0.1, 0.9, 10))
        report = _fake_report({"a": scores, "b": scores})
        result = significance(report, 0.05)["ccc_mu"]
        best = [m for m, row in result.items() if row.get("best")]
        other = [m for m in result if m not in best][0]
        assert result[other]["p_vs_best"] == 1.0
        assert result[other]["indistinguishable_from_best"]

    def test_disjoint_ranges_significant(self):
        rng = np.random.default_rng(30)
        high = list(rng.uniform(0.8, 0.9, 10))
        low = list(rng.uniform(0.1, 0.2, 10))
        result = significance(_fake_report({"good": high, "bad": low}), 0.05)["ccc_mu"]
        assert result["good"]["best"]
        assert result["bad"]["p_vs_best"] == pytest.approx(2.0 / 2.0**10)
        assert not result["bad"]["indistinguishable_from_best"]

    def test_single_seed_inconclusive(self):
        result = significance(_fake_report({"a": [0.5], "b": [0.4]}), 0.05)["ccc_mu"]
        assert result["b"].get("inconclusive")

    def test_a_partly_failed_model_is_never_best(self):
        result = significance(_fake_report({
            "partly": [0.9, np.nan, 0.8], "whole": [0.5, 0.4, 0.3],
            "failed": [np.nan] * 3}), 0.05)["ccc_mu"]
        assert set(result) == {"partly", "whole"}
        assert result["whole"]["best"] and not result["partly"]["best"]
        assert result["partly"] == {"mean": pytest.approx(0.85), "std": pytest.approx(0.05),
                                    "best": False, "inconclusive": True, "failed_cells": 1}
        only_partly = significance(_fake_report({"a": [0.9, np.nan], "b": [np.nan, 0.1]}),
                                   0.05)["ccc_mu"]
        assert not any(row["best"] for row in only_partly.values())
        assert all(row["inconclusive"] for row in only_partly.values())

    @pytest.mark.parametrize("oracle", [[1.0] * 10, [1.0] * 9 + [np.nan]],
                             ids=["whole", "partly-failed"])
    def test_the_oracle_is_an_untested_reference(self, oracle):
        rng = np.random.default_rng(32)
        trained = {"good": list(rng.uniform(0.6, 0.9, 10)),
                   "close": list(rng.uniform(0.55, 0.85, 10)),
                   "bad": list(rng.uniform(0.1, 0.2, 10))}
        without = significance(_fake_report(trained), 0.05)["ccc_mu"]
        with_oracle = significance(_fake_report({**trained, ORACLE_MODEL: oracle}),
                                   0.05)["ccc_mu"]
        # Every trained model's row is what it is without the oracle.
        reference = with_oracle.pop(ORACLE_MODEL)
        assert with_oracle == without
        assert without["good"]["best"]
        failed = {"failed_cells": 1} if np.isnan(oracle).any() else {}
        assert reference == {"mean": 1.0, "std": 0.0, "best": False, "reference": True,
                             **failed}

    def test_an_oracle_alone_has_no_best(self):
        result = significance(_fake_report({ORACLE_MODEL: [1.0, 0.5]}), 0.05)["ccc_mu"]
        assert result == {ORACLE_MODEL: {"mean": 0.75, "std": 0.25, "best": False,
                                         "reference": True}}


class TestDensityData:
    def _data(self):
        rng = np.random.default_rng(31)
        n = 6
        mu = rng.uniform(0.3, 0.7, n)
        sigma = rng.uniform(0.05, 0.15, n)
        from annodist.consensus import clamp_moments_arrays, moment_match_arrays, descriptors_arrays
        cmu, csig, _ = clamp_moments_arrays(mu, sigma)
        alpha, beta = moment_match_arrays(cmu, csig)
        return DatasetArrays(
            x=rng.normal(size=(n, 3)), mu=mu, sigma=sigma,
            subjects=np.array([f"s{i}" for i in range(n)]),
            starts=np.arange(n) * 0.4, n_annotators=np.full(n, 2),
            truth_alpha=alpha, truth_beta=beta,
            truth_desc=descriptors_arrays(alpha, beta), epsilon=1e-4,
        )

    def test_identical_predictions_give_identical_columns(self, tmp_path):
        data = self._data()
        idx = np.array([0, 2])
        path = emit_density_data(
            data, data.mu[idx], data.sigma[idx], idx, tmp_path / "d.csv")
        rows = path.read_text().strip().splitlines()[1:]
        assert len(rows) == 2 * 512
        for row in rows:
            fields = row.split(",")
            assert fields[7] == fields[8]

    def test_uniform_truth_density_is_one(self, tmp_path):
        data = self._data()
        variance_uniform = 1.0 / 12.0
        data.mu[0] = 0.5
        data.sigma[0] = np.sqrt(variance_uniform)
        data.truth_alpha[0] = 1.0
        data.truth_beta[0] = 1.0
        idx = np.array([0])
        path = emit_density_data(
            data, data.mu[idx], data.sigma[idx], idx, tmp_path / "d.csv")
        rows = [r.split(",") for r in path.read_text().strip().splitlines()[1:]]
        assert all(float(r[7]) == pytest.approx(1.0) for r in rows)

    def test_densities_integrate_to_one(self, tmp_path):
        data = self._data()
        idx = np.arange(3)
        path = emit_density_data(
            data, data.mu[idx], data.sigma[idx], idx, tmp_path / "d.csv")
        rows = [r.split(",") for r in path.read_text().strip().splitlines()[1:]]
        for lo in range(0, len(rows), 512):
            chunk = rows[lo : lo + 512]
            x = np.array([float(r[6]) for r in chunk])
            for col in (7, 8):
                pdf = np.array([float(r[col]) for r in chunk])
                assert np.trapezoid(pdf, x) == pytest.approx(1.0, abs=1e-3)

    def test_bytes_match_the_csv_module(self, tmp_path):
        # The table writer joins the numbers by hand after the key cells go
        # through the csv module; the file must be what csv.writer makes of
        # the same cells, also for subject ids that need quoting.
        data = dataclasses.replace(self._data(), subjects=np.array(
            ["s0", "a,b", 'say "hi"', "two\nlines", "s4", "s5"]))
        idx = np.array([3, 2, 1, 0])
        mu_hat, sigma_hat = data.mu[idx] * 0.9, data.sigma[idx]
        path = emit_density_data(data, mu_hat, sigma_hat, idx, tmp_path / "d.csv")
        from annodist.consensus import (beta_pdf_arrays, clamp_moments_arrays,
                                        moment_match_arrays)
        grid = (np.arange(512) + 0.5) / 512
        alpha, beta = moment_match_arrays(*clamp_moments_arrays(mu_hat, sigma_hat)[:2])
        rows = [
            [data.subjects[i], data.starts[i], data.truth_alpha[i], data.truth_beta[i],
             a, b, x, beta_pdf_arrays(grid, data.truth_alpha[i], data.truth_beta[i])[k],
             beta_pdf_arrays(grid, a, b)[k]]
            for i, a, b in zip(idx, alpha, beta) for k, x in enumerate(grid)
        ]
        want = csv_reference.write(tmp_path / "want.csv", [
            "subject_id", "window_start", "alpha_true", "beta_true", "alpha_pred",
            "beta_pred", "x", "pdf_true", "pdf_pred"], rows)
        assert path.read_bytes() == want.read_bytes()

    def test_invalid_window_rejected(self, tmp_path):
        data = self._data()
        with pytest.raises(DomainError):
            emit_density_data(data, data.mu[:1], data.sigma[:1],
                              np.array([99]), tmp_path / "d.csv")
        # A sigma_hat that does not align with the indices is not broadcast.
        with pytest.raises(DomainError, match="must align with indices"):
            emit_density_data(data, data.mu[:3], data.sigma[:1],
                              np.arange(3), tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()


class TestWriteReport:
    def test_files_and_determinism(self, tiny_report, tmp_path):
        paths1 = write_report(tiny_report, tmp_path / "one", 0.05, density_windows=0)
        paths2 = write_report(tiny_report, tmp_path / "two", 0.05, density_windows=0)
        for key in ("moments", "descriptors", "kl", "summary"):
            assert paths1[key].exists()
            assert paths1[key].read_bytes() == paths2[key].read_bytes()

    def test_score_tables_match_the_csv_module(self, tiny_report, tmp_path):
        paths = write_report(tiny_report, tmp_path / "got", 0.05, density_windows=0)
        # Rows by model name, then fold and seed; a cell without the metric
        # (NaN) has no row.
        models = tiny_report.models
        cells = [(model, fold, TINY_GRID.master_seed + s, (models.index(model), fold, s))
                 for model in sorted(models) for fold in range(TINY_GRID.k_folds)
                 for s in range(TINY_GRID.n_seeds)]

        def score(metric, at):
            return tiny_report.scores[metric][at]

        tables = {"moments": ["ccc_mu", "ccc_sigma"],
                  "kl": ["kl_truth_pred", "kl_pred_truth", "kl_truth_uniform",
                         "kl_frac_better"]}
        for name, keys in tables.items():
            want = csv_reference.write(tmp_path / "want.csv", ["model", "fold", "seed", *keys], [
                [model, fold, seed, *(score(k, at) for k in keys)]
                for model, fold, seed, at in cells if not np.isnan(score(keys[0], at))])
            assert paths[name].read_bytes() == want.read_bytes()
        want = csv_reference.write(
            tmp_path / "want.csv", ["model", "fold", "seed", "descriptor", "ccc"],
            [[model, fold, seed, d, score(f"ccc_{d}", at)] for model, fold, seed, at in cells
             for d in experiments.DESCRIPTOR_NAMES if not np.isnan(score(f"ccc_{d}", at))])
        assert paths["descriptors"].read_bytes() == want.read_bytes()

    def test_moments_rows_cover_moment_models(self, tiny_report, tmp_path):
        paths = write_report(tiny_report, tmp_path, 0.05, density_windows=0)
        rows = paths["moments"].read_text().strip().splitlines()[1:]
        # fully_shared and oracle cells carry moment scores; 3 folds x 2 seeds.
        assert len(rows) == 2 * 3 * 2

    @pytest.mark.parametrize("name", ["tiny_report", "poisoned_report"])
    def test_kl_means_are_the_means_of_the_kl_table(self, name, request, tmp_path):
        report = request.getfixturevalue(name)
        paths = write_report(report, tmp_path, 0.05, density_windows=0)
        rows = {}
        with open(paths["kl"], newline="") as fh:
            for row in csv.DictReader(fh):
                rows.setdefault(row["model"], []).append(row)
        keys = {"vs_truth_beta": "kl_truth_pred", "vs_truth_beta_pred_first": "kl_pred_truth",
                "vs_uniform": "kl_truth_uniform",
                "windows_better_than_uniform": "kl_frac_better"}
        want = {model: {key: float(np.mean([float(row[column]) for row in model_rows]))
                        for key, column in keys.items()}
                for model, model_rows in rows.items()}
        assert json.loads(paths["summary"].read_text())["kl_means"] == want

    def test_report_prints_a_summary_without_the_pred_first_means(
            self, tiny_report, tmp_path, capsys):
        # A summary as written before the means of KL(pred||truth) were kept,
        # when it named the direction of its KL column.
        from annodist import cli

        printed = []
        for name in ("new", "old"):
            path = write_report(tiny_report, tmp_path / name, 0.05,
                                density_windows=0)["summary"]
            if name == "old":
                summary = json.loads(path.read_text())
                for row in summary["kl_means"].values():
                    del row["vs_truth_beta_pred_first"]
                path.write_text(json.dumps({**summary, "kl_direction": "truth_first"}))
            capsys.readouterr()
            assert cli.main(["report", "--run", str(tmp_path / name)]) == 0
            printed.append(capsys.readouterr().out.splitlines()[1:])
        assert printed[0] == printed[1]
        assert "    oracle" in "\n".join(printed[0])

    def test_report_marks_the_oracle_as_reference(self, tiny_report, tmp_path, capsys):
        from annodist import cli

        write_report(tiny_report, tmp_path, 0.05, density_windows=0)
        capsys.readouterr()
        assert cli.main(["report", "--run", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == ("mean per-window KL over trained cells "
                            "(truth||pred | truth||uniform | windows better)")
        for metric in ("ccc_mu", "ccc_sigma", "ccc_median"):
            assert lines[lines.index(metric) + 1] == f"  r {'oracle':<24} +1.0000 +/- 0.0000"
        assert not any(line.startswith("  * oracle") for line in lines)

    def test_summary_tracks_normalization(self, tiny_report, tmp_path):
        paths = write_report(tiny_report, tmp_path, 0.05, density_windows=0)
        summary = json.loads(paths["summary"].read_text())
        assert len(summary["fold_normalization"]) == 3
        assert summary["grid"]["cells"] == len(tiny_report.cells)
        assert set(summary) == {"grid", "kl_means", "fold_assignments", "fold_normalization",
                                "significance_level", "significance"}
        kl = summary["kl_means"]
        assert set(kl) == {"fully_shared", "oracle"}
        assert kl["oracle"]["vs_truth_beta"] <= 1e-10
        assert kl["oracle"]["windows_better_than_uniform"] == 1.0
