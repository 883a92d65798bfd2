"""Fold construction, grid execution, significance marking, density output."""

import dataclasses
import json
import re
import types

import numpy as np
import pytest

from annodist import experiments, nn, special
from annodist.config import TrainConfig
from annodist.errors import DomainError, InsufficientDataError
from annodist.experiments import (
    CellResult,
    DatasetArrays,
    ExperimentConfig,
    ExperimentReport,
    emit_density_data,
    make_folds,
    run_grid,
    significance,
    write_report,
)
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


# (config, field, bad value): each range error names its field and the value.
BAD_CONFIG_FIELDS = [
    (ExperimentConfig, "n_seeds", 0), (ExperimentConfig, "k_folds", 1),
    (ExperimentConfig, "master_seed", -1),
    (ExperimentConfig, "epsilon", 0.5), (ExperimentConfig, "variants", ("bogus",)),
    (ExperimentConfig, "baselines", ("mean",)),
    (ExperimentConfig, "variants", ("fully_shared", "independent", "fully_shared")),
    (ExperimentConfig, "baselines", ("median", "median")),
    (ExperimentConfig, "kl_direction", "both"), (ExperimentConfig, "ccc_pooling", "none"),
    (SyntheticConfig, "n_subjects", 0), (SyntheticConfig, "n_annotators", 1),
    (SyntheticConfig, "duration", 0.0), (SyntheticConfig, "frame_rate", -1.0),
    (SyntheticConfig, "annotation_rate", float("nan")),
    (SyntheticConfig, "feature_dim", 0), (SyntheticConfig, "latent_dim", -1),
    (SyntheticConfig, "noise_std", -0.1), (SyntheticConfig, "annotator_bias_std", -1.0),
    (SyntheticConfig, "seed", -1),
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


class TestRunGrid:
    def test_grid_is_complete(self, tiny_report):
        models = ["fully_shared", "point[median]", "oracle"]
        assert len(tiny_report.cells) == len(models) * 3 * 2
        seen = {(c.model, c.fold, c.seed) for c in tiny_report.cells}
        assert len(seen) == len(tiny_report.cells)
        assert not tiny_report.failures()

    def test_oracle_rows_are_perfect(self, tiny_report):
        for c in tiny_report.cells:
            if c.model == "oracle":
                assert c.scores["ccc_mu"] == pytest.approx(1.0)
                assert c.scores["ccc_sigma"] == pytest.approx(1.0)
                assert c.scores["kl_truth_pred"] <= 1e-10
                assert c.scores["kl_frac_better"] == 1.0

    def test_baseline_cells_score_their_descriptor(self, tiny_report):
        for c in tiny_report.cells:
            if c.model == "point[median]":
                assert set(c.scores) == {"ccc_median"}

    def test_determinism(self, tiny_table, tiny_report):
        again = run_grid(tiny_table, TINY_GRID, TINY_TRAIN)
        for a, b in zip(tiny_report.cells, again.cells):
            assert (a.model, a.fold, a.seed) == (b.model, b.fold, b.seed)
            assert a.scores == b.scores

    def test_parallel_jobs_match_sequential(self, tiny_table, tiny_report):
        parallel = run_grid(tiny_table, TINY_GRID, TINY_TRAIN, jobs=2)
        for a, b in zip(tiny_report.cells, parallel.cells, strict=True):
            assert (a.model, a.fold, a.seed) == (b.model, b.fold, b.seed)
            assert a.scores == b.scores
        np.testing.assert_array_equal(parallel.reference_predictions,
                                      tiny_report.reference_predictions)

    def test_jobs_below_one_rejected(self, tiny_table):
        with pytest.raises(DomainError, match="run_grid: jobs must be >= 1, got 0"):
            run_grid(tiny_table, TINY_GRID, jobs=0)

    def test_point_cells_do_not_depend_on_other_baselines(self, tiny_table):
        # All baselines train as one stack; a cell must not see its siblings.
        base = dict(k_folds=3, n_seeds=2, master_seed=1, variants=())
        alone = run_grid(tiny_table, ExperimentConfig(**base, baselines=("median",)),
                         TINY_TRAIN)
        every = run_grid(tiny_table, ExperimentConfig(**base), TINY_TRAIN)
        assert len(every.cells) == 5 * len(alone.cells)

        def median_scores(report):
            return {(c.fold, c.seed): c.scores
                    for c in report.cells if c.model == "point[median]"}

        assert median_scores(alone) == median_scores(every)

    def test_master_seed_cells_do_not_depend_on_n_seeds(self, tiny_table,
                                                        tiny_report):
        single = run_grid(tiny_table, ExperimentConfig(**{
            **TINY_GRID.__dict__, "n_seeds": 1,
        }), TINY_TRAIN)
        assert {(c.model, c.fold): c.scores for c in single.cells} == {
            (c.model, c.fold): c.scores for c in tiny_report.cells
            if c.seed == TINY_GRID.master_seed
        }

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
        failed = {c.model for c in report.failures()}
        assert failed == {"fully_shared", "point[median]"}
        for c in report.failures():
            assert "TrainingError" in c.failed

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
        assert [(c.model, c.fold, c.seed) for c in report.cells] == [
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

    def test_empty_split_raises_before_any_stack(self, tiny_table, monkeypatch):
        # With 2 folds every subject is held out, so no fold has a train split.
        def no_stack(*args, **kwargs):
            raise AssertionError("a stack ran despite an empty split")

        monkeypatch.setattr(experiments, "_run_stack", no_stack)
        cfg = ExperimentConfig(k_folds=2, n_seeds=1, variants=("fully_shared",),
                               baselines=())
        with pytest.raises(InsufficientDataError, match="fold 0: a split has no"):
            run_grid(tiny_table, cfg)

    def test_per_subject_ccc_pooling(self, tiny_table, tiny_report):
        cfg = ExperimentConfig(**{
            **TINY_GRID.__dict__, "ccc_pooling": "per_subject",
        })
        per_subject = run_grid(tiny_table, cfg, TINY_TRAIN)
        pooled_mu = tiny_report.score_vectors("ccc_mu")["fully_shared"]
        split_mu = per_subject.score_vectors("ccc_mu")["fully_shared"]
        assert split_mu.shape == pooled_mu.shape
        assert not np.allclose(split_mu, pooled_mu)
        # The oracle predicts the targets exactly, so both poolings give 1.
        assert np.allclose(per_subject.score_vectors("ccc_mu")["oracle"], 1.0)

    def test_per_subject_ccc_needs_a_subject_with_two_windows(self):
        pred, target = np.array([0.1, 0.2]), np.array([0.3, 0.1])
        subjects = np.array(["a", "b"])
        with pytest.raises(InsufficientDataError,
                           match="no test subject has at least 2 windows"):
            experiments._score_ccc(pred, target, subjects, "per_subject")
        pooled = experiments._score_ccc(pred, target, subjects, "pooled")
        assert pooled == pytest.approx(-2 / 3)

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
        for c in report.cells:
            assert np.isfinite(c.scores["ccc_median"])
            assert np.isfinite(c.scores["kl_truth_pred"])


class TestBatchedScoring:
    def _batch(self, report, rng):
        # Two cells with random predictions, some sigma_hat above the
        # validity cap, on different folds, and a two-seed oracle entry.
        data, folds = report.data, report.folds
        batch = []
        for fold in folds[:2]:
            n = fold.test.size
            batch.append(([CellResult("fully_shared", 0, 1)],
                          rng.uniform(0.05, 0.95, n), rng.uniform(0.01, 0.6, n),
                          fold.test))
        test = folds[2].test
        batch.append(([CellResult("oracle", 2, s) for s in (1, 2)],
                      data.mu[test], data.sigma[test], test))
        return batch

    @staticmethod
    def _alone(data, entry, pooling):
        # The same entry scored as a one-entry batch, on fresh cells.
        cells, mu_hat, sigma_hat, test_idx = entry
        fresh = [CellResult(c.model, c.fold, c.seed) for c in cells]
        experiments._score_moment_cells(data, [(fresh, mu_hat, sigma_hat, test_idx)],
                                        1e-4, pooling)
        assert all(c.failed is None for c in fresh)
        return fresh[0].scores

    @pytest.mark.parametrize("pooling", experiments.CCC_POOLINGS)
    def test_batched_cells_match_cells_scored_alone(self, tiny_report, pooling,
                                                    monkeypatch):
        data = tiny_report.data
        batch = self._batch(tiny_report, np.random.default_rng(32))
        calls = []
        inverse = special.inv_reg_inc_beta
        monkeypatch.setattr(special, "inv_reg_inc_beta",
                            lambda *a, **k: calls.append(1) or inverse(*a, **k))
        experiments._score_moment_cells(data, batch, 1e-4, pooling)
        assert len(calls) == 1
        for entry in batch:
            alone = self._alone(data, entry, pooling)
            for cell in entry[0]:
                assert cell.failed is None
                assert cell.scores == alone

    def test_any_finite_predictions_score(self, tiny_report):
        # Moments far outside the validity region, the extremes included,
        # fit and score without a warning (warnings are errors here).  The
        # raw sigma_hat also enters ccc_sigma.
        data, folds = tiny_report.data, tiny_report.folds
        rng = np.random.default_rng(34)
        mu_x, sigma_x = (v.ravel() for v in np.meshgrid(
            [0.0, 1.0, -3.0, 7.5], [0.0, 5e-324, 1e300, -1e300]))
        batch = []
        for fold in folds:
            n = fold.test.size
            mu_hat = rng.uniform(-2.0, 3.0, n)
            sigma_hat = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320, 300, n)
            mu_hat[:mu_x.size], sigma_hat[:mu_x.size] = mu_x, sigma_x
            batch.append(([CellResult("fully_shared", 0, 1)], mu_hat, sigma_hat,
                          fold.test))
        experiments._score_moment_cells(data, batch, 1e-4, "pooled")
        for cells, *_ in batch:
            assert cells[0].failed is None
            assert all(np.isfinite(v) for v in cells[0].scores.values())

    def test_extreme_moments_fit_to_bounded_shapes(self):
        mu, sigma = (v.ravel() for v in np.meshgrid(
            [0.0, 1.0, 0.5, -3.0], [0.0, 5e-324, 1e150, 1e300, -1e300, 0.3]))
        alpha, beta, desc = experiments.fit_beta_arrays(mu, sigma, 1e-4, strict=False)
        for shape in (alpha, beta):
            assert np.all((shape >= 1e-8) & (shape <= 1e4))
        assert all(np.all(np.isfinite(v)) for v in desc.values())
        assert np.all(np.isfinite(experiments.kl_beta_arrays(alpha, beta, 1.0, 1.0)))

    def test_a_member_with_non_finite_predictions_fails_alone(
            self, tiny_table, tiny_report, monkeypatch):
        # Poison one moment member and one point member of fold 0's stacks.
        predict, poisoned = nn.predict, set()

        def poisoning_predict(net, x):
            pred = predict(net, x)
            if net.kind not in poisoned:
                poisoned.add(net.kind)
                pred[1 if net.kind == "fully_shared" else 0, 3] = np.nan
            return pred

        monkeypatch.setattr(nn, "predict", poisoning_predict)
        report = run_grid(tiny_table, TINY_GRID, TINY_TRAIN)
        assert poisoned == {"fully_shared", "point"}
        assert {(c.model, c.fold, c.seed): c.failed for c in report.failures()} == {
            ("fully_shared", 0, 2): "TrainingError: non-finite test predictions",
            ("point[median]", 0, 1): "TrainingError: non-finite test predictions",
        }
        for a, b in zip(tiny_report.cells, report.cells):
            assert (a.model, a.fold, a.seed) == (b.model, b.fold, b.seed)
            if b.failed is None:
                assert a.scores == b.scores


def _fake_report(score_map, n_folds=1):
    cells = []
    for model, scores in score_map.items():
        for i, s in enumerate(scores):
            cells.append(CellResult(model, i % n_folds, i, {"ccc_mu": s}))
    cfg = ExperimentConfig(k_folds=2, n_seeds=len(next(iter(score_map.values()))),
                           variants=("fully_shared",), baselines=())
    plan = make_folds([f"s{i}" for i in range(4)], 2, 0)
    return ExperimentReport(cfg, plan, cells, [])


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
            truth_desc=descriptors_arrays(alpha, beta),
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
        cells = sorted(tiny_report.cells, key=lambda c: (c.model, c.fold, c.seed))
        tables = {"moments": ["ccc_mu", "ccc_sigma"],
                  "kl": ["kl_truth_pred", "kl_pred_truth", "kl_truth_uniform",
                         "kl_frac_better"]}
        for name, keys in tables.items():
            want = csv_reference.write(tmp_path / "want.csv", ["model", "fold", "seed", *keys], [
                [c.model, c.fold, c.seed, *(c.scores[k] for k in keys)]
                for c in cells if keys[0] in c.scores])
            assert paths[name].read_bytes() == want.read_bytes()
        want = csv_reference.write(
            tmp_path / "want.csv", ["model", "fold", "seed", "descriptor", "ccc"],
            [[c.model, c.fold, c.seed, d, c.scores[f"ccc_{d}"]] for c in cells
             for d in experiments.DESCRIPTOR_NAMES if f"ccc_{d}" in c.scores])
        assert paths["descriptors"].read_bytes() == want.read_bytes()

    def test_moments_rows_cover_moment_models(self, tiny_report, tmp_path):
        paths = write_report(tiny_report, tmp_path, 0.05, density_windows=0)
        rows = paths["moments"].read_text().strip().splitlines()[1:]
        # fully_shared and oracle cells carry moment scores; 3 folds x 2 seeds.
        assert len(rows) == 2 * 3 * 2

    def test_summary_tracks_normalization(self, tiny_report, tmp_path):
        paths = write_report(tiny_report, tmp_path, 0.05, density_windows=0)
        summary = json.loads(paths["summary"].read_text())
        assert len(summary["fold_normalization"]) == 3
        assert summary["kl_direction"] == "truth_first"
        assert summary["grid"]["cells"] == len(tiny_report.cells)
        assert summary["ccc_pooling"] == "pooled"
        kl = summary["kl_means"]
        assert set(kl) == {"fully_shared", "oracle"}
        assert kl["oracle"]["vs_truth_beta"] <= 1e-10
        assert kl["oracle"]["windows_better_than_uniform"] == 1.0
