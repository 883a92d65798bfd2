"""End-to-end CLI: subcommands, manifests, exit codes, reproducibility."""

import argparse
import codecs
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from annodist import cli, experiments
from annodist.cli import main
from annodist.config import ExperimentConfig, TrainConfig
from annodist.consensus import clamp_moments_arrays, moment_match_arrays
from annodist.pipeline import read_dataset


def run_cli(*args):
    return main([str(a) for a in args])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SYNTH_ARGS = [
    "--n-subjects", 6, "--duration", 24, "--frame-rate", 10,
    "--n-annotators", 4, "--feature-dim", 8, "--latent-dim", 2, "--seed", 5,
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run_cli("synth", "--out", out, *SYNTH_ARGS) == 0
    return out


@pytest.fixture(scope="module")
def built_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("built")
    code = run_cli(
        "build", "--features", synth_dir / "features.csv",
        "--annotations", synth_dir / "annotations.csv", "--out", out,
    )
    assert code == 0
    return out


class TestSynth:
    def test_outputs_and_row_counts(self, synth_dir):
        rows = synth_dir.joinpath("features.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 6 * 24 * 10  # subjects x duration x frame rate
        rows = synth_dir.joinpath("annotations.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 6 * 24 * 5 * 4  # x annotation rate x annotators
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["parameters"]["seed"] == 5
        assert manifest["master_seed"] == 5

    def test_same_seed_identical_hashes(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert run_cli("synth", "--out", again, *SYNTH_ARGS) == 0
        for name in ("features.csv", "annotations.csv", "ground_truth.csv"):
            assert sha(synth_dir / name) == sha(again / name)

    def test_unwritable_out_dir_is_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = blocker / "nested"
        assert run_cli("synth", "--out", out, *SYNTH_ARGS) == 2
        assert not out.exists()


class TestBuild:
    def test_sample_count_matches_window_oracle(self, synth_dir, built_dir):
        # 24 s at 5 Hz annotation marks: last mark 23.8; starts k*0.4 with
        # k*0.4 + 3.0 <= 23.8 -> 53 windows per subject.
        per_subject = 0
        while per_subject * 0.4 + 3.0 <= 23.8 + 1e-9:
            per_subject += 1
        rows = built_dir.joinpath("dataset.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 6 * per_subject

    def test_manifest_written(self, built_dir):
        manifest = json.loads((built_dir / "dataset_manifest.json").read_text())
        assert manifest["modality_dims"] == {"synth": 8}
        assert len(manifest["subjects"]) == 6

    def test_malformed_header_exit_2(self, tmp_path, synth_dir, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject,annotator_id,timestamp,value\n")
        code = run_cli(
            "build", "--features", synth_dir / "features.csv",
            "--annotations", bad, "--out", tmp_path / "out",
        )
        assert code == 2
        assert "subject_id" in capsys.readouterr().err

    def test_headers_only_annotations_exit_2(self, tmp_path, synth_dir, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("subject_id,annotator_id,timestamp,value\n")
        code = run_cli(
            "build", "--features", synth_dir / "features.csv",
            "--annotations", empty, "--out", tmp_path / "out",
        )
        assert code == 2
        assert "annotat" in capsys.readouterr().err

    def test_one_annotator_exit_2_names_the_subject(self, tmp_path, synth_dir, capsys):
        one = tmp_path / "one.csv"
        one.write_text("subject_id,annotator_id,timestamp,value\n"
                       + "".join(f"s003,a00,{t}.0,0.5\n" for t in range(10)))
        code = run_cli(
            "build", "--features", synth_dir / "features.csv",
            "--annotations", one, "--out", tmp_path / "out",
        )
        assert code == 2
        assert "'s003'" in capsys.readouterr().err


class TestFit:
    def test_constant_pair_fits_reference_shapes(self, tmp_path):
        path = tmp_path / "annotations.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "annotator_id", "timestamp", "value"])
            for t in range(40):
                writer.writerow(["s1", "a1", t * 0.25, 0.4])
                writer.writerow(["s1", "a2", t * 0.25, 0.6])
        out = tmp_path / "fit"
        assert run_cli("fit", "--annotations", path, "--out", out) == 0
        rows = csv_rows(out / "beta_fits.csv")
        assert rows
        for row in rows:
            # mu=0.5, sigma=0.1 -> phi=24 -> alpha=beta=12
            assert float(row["alpha"]) == pytest.approx(12.0, rel=1e-9)
            assert float(row["beta"]) == pytest.approx(12.0, rel=1e-9)
            assert row["clamped"] == "0"

    def test_unanimous_annotators_flagged(self, tmp_path):
        path = tmp_path / "annotations.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "annotator_id", "timestamp", "value"])
            for t in range(40):
                for a in ("a1", "a2", "a3"):
                    writer.writerow(["s1", a, t * 0.25, 0.2])
        out = tmp_path / "fit"
        assert run_cli("fit", "--annotations", path, "--out", out) == 0
        rows = csv_rows(out / "beta_fits.csv")
        assert all(row["clamped"] == "2" for row in rows)

    def test_clamped_records_the_bound_hit(self, tmp_path):
        # One 1 s window per subject: an exact 0/1 split clamps at the
        # variance cap (4), a unanimous pair at the floor (2).
        path = tmp_path / "annotations.csv"
        path.write_text("subject_id,annotator_id,timestamp,value\n" + "".join(
            f"{subject},{a},{t},{v}\n"
            for subject, values in (("split", (0, 1)), ("same", (0.3, 0.3)))
            for a, v in zip("ab", values) for t in (0, 1)))
        out = tmp_path / "fit"
        assert run_cli("fit", "--annotations", path, "--window-len", 1, "--stride", 1,
                       "--out", out) == 0
        rows = csv_rows(out / "beta_fits.csv")
        assert list(rows[0])[-1] == "clamped" and len(rows) == 2
        assert {(row["subject_id"], row["clamped"]) for row in rows} == {
            ("split", "4"), ("same", "2")}

    def test_uniform_spread_has_near_zero_skew(self, tmp_path):
        path = tmp_path / "annotations.csv"
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "annotator_id", "timestamp", "value"])
            for t in range(40):
                for i, v in enumerate(values):
                    writer.writerow(["s1", f"a{i}", t * 0.25, v])
        out = tmp_path / "fit"
        assert run_cli("fit", "--annotations", path, "--out", out) == 0
        rows = csv_rows(out / "beta_fits.csv")
        assert all(abs(float(row["skew"])) < 1e-9 for row in rows)

    def test_exact_zero_one_split_fits(self, tmp_path):
        # Raters at 0 and 100 clamp to alpha = beta ~ 5e-5, whose outer
        # quartiles underflow to 0 and round to 1.
        from scipy import stats

        path = tmp_path / "annotations.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "annotator_id", "timestamp", "value"])
            for t in range(40):
                writer.writerow(["s1", "a1", t * 0.25, 0])
                writer.writerow(["s1", "a2", t * 0.25, 100])
        out = tmp_path / "fit"
        assert run_cli("fit", "--annotations", path, "--label-range", 0, 100,
                       "--out", out) == 0
        rows = csv_rows(out / "beta_fits.csv")
        assert rows
        for row in rows:
            a, b = float(row["alpha"]), float(row["beta"])
            assert a == pytest.approx(5e-5, rel=1e-3) and a == b
            for name, prob in (("q25", 0.25), ("median", 0.5), ("q75", 0.75)):
                ref = stats.beta.ppf(prob, a, b)
                assert abs(float(row[name]) - ref) <= 1e-12 + 1e-6 * abs(ref)


class TestRun:
    RUN_ARGS = [
        "--k-folds", 3, "--n-seeds", 2, "--master-seed", 1,
        "--variants", "fully_shared", "--baselines", "median",
        "--max-epochs", 8, "--density-windows", 4,
    ]

    def test_smoke_run_completes(self, built_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", built_dir, "--out", out,
                       *self.RUN_ARGS) == 0
        for name in ("moments_ccc.csv", "descriptors_ccc.csv", "kl.csv",
                     "summary.json", "density_data.csv", "manifest.json"):
            assert (out / name).exists()

    def test_oracle_rows_have_perfect_ccc(self, built_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", built_dir, "--out", out,
                       "--k-folds", 3, "--n-seeds", 1, "--max-epochs", 2,
                       "--variants", "fully_shared", "--baselines",
                       "--oracle", "--density-windows", 0) == 0
        rows = csv_rows(out / "moments_ccc.csv")
        oracle_rows = [r for r in rows if r["model"] == "oracle"]
        assert oracle_rows
        for r in oracle_rows:
            assert float(r["ccc_mu"]) == pytest.approx(1.0)
            assert float(r["ccc_sigma"]) == pytest.approx(1.0)

    def test_rerun_identical_hashes(self, built_dir, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert run_cli("run", "--dataset", built_dir, "--out", out,
                           *self.RUN_ARGS) == 0
            outs.append(out)
        for name in ("moments_ccc.csv", "descriptors_ccc.csv", "kl.csv",
                     "density_data.csv"):
            assert sha(outs[0] / name) == sha(outs[1] / name)

    def test_jobs_do_not_change_report_bytes(self, built_dir, tmp_path):
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run_cli("run", "--dataset", built_dir, "--out", out,
                           *self.RUN_ARGS, "--jobs", jobs) == 0
            outs.append(out)
        for name in ("moments_ccc.csv", "descriptors_ccc.csv", "kl.csv",
                     "summary.json", "density_data.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("affinity, workers", [({0}, 1), (None, 3)])
    def test_jobs_0_counts_the_cores_this_process_may_use(
            self, built_dir, tmp_path, monkeypatch, affinity, workers):
        # Pinned to one core of four, --jobs 0 starts one worker; without an
        # affinity call it falls back to the core count.
        monkeypatch.setattr(os, "cpu_count", lambda: 3 if affinity is None else 4)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        asked, run_grid = [], experiments.run_grid

        def serial_run_grid(table, cfg, train, *, jobs, epsilon):
            asked.append(jobs)
            return run_grid(table, cfg, train, jobs=1, epsilon=epsilon)

        monkeypatch.setattr(experiments, "run_grid", serial_run_grid)
        assert run_cli("run", "--dataset", built_dir, "--out", tmp_path / "run",
                       "--k-folds", 3, "--n-seeds", 1, "--max-epochs", 2,
                       "--variants", "fully_shared", "--baselines",
                       "--density-windows", 0, "--jobs", 0) == 0
        assert asked == [workers]

    def test_failing_grid_exits_3_listing_each_failed_cell(self, tmp_path, capsys):
        # An absurd learning rate fails every network: the three default
        # variants and point[median] fail all their 24 cells, and the oracle,
        # which trains nothing, scores its 6.
        assert run_cli("synth", "--out", tmp_path / "s", "--n-subjects", 6,
                       "--duration", 10) == 0
        assert run_cli("build", "--features", tmp_path / "s" / "features.csv",
                       "--annotations", tmp_path / "s" / "annotations.csv",
                       "--out", tmp_path / "b") == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", tmp_path / "b", "--out", out,
                       "--k-folds", 3, "--n-seeds", 2, "--max-epochs", 2,
                       "--learning-rate", 1e200, "--oracle", "--baselines", "median") == 3
        head, *lines = capsys.readouterr().err.splitlines()
        assert head == "24 grid cells failed:"
        grid = json.loads((out / "summary.json").read_text())["grid"]
        assert grid["cells"] == 30
        # Model by model in config order, then fold and seed.
        assert [(f["model"], f["fold"], f["seed"]) for f in grid["failures"]] == [
            (model, fold, seed) for model in (*ExperimentConfig().variants, "point[median]")
            for fold in range(3) for seed in range(2)]
        assert lines == [f"  {f['model']} fold={f['fold']} seed={f['seed']}: {f['error']}"
                         for f in grid["failures"]]
        assert run_cli("report", "--run", out) == 0
        assert "failures: 24" in capsys.readouterr().out.splitlines()

    def test_density_file_window_count(self, built_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", built_dir, "--out", out,
                       *self.RUN_ARGS) == 0
        rows = out.joinpath("density_data.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 4 * 512

    @pytest.mark.parametrize("windows", [0, 3, 10**6])
    def test_density_windows_come_from_the_reference_member(self, built_dir, tmp_path,
                                                            windows):
        table, epsilon = read_dataset(built_dir)
        cfg = ExperimentConfig(k_folds=3, n_seeds=2, master_seed=1,
                               variants=("fully_shared",), baselines=())
        report = experiments.run_grid(table, cfg, TrainConfig(max_epochs=2),
                                      epsilon=epsilon)
        paths = experiments.write_report(report, tmp_path, 0.05, density_windows=windows)
        test_idx, pred = report.folds[0].test, report.reference_predictions
        assert windows < test_idx.size or windows == 10**6
        if not windows:
            assert "density" not in paths and not (tmp_path / "density_data.csv").exists()
            return
        pick = np.linspace(0, test_idx.size - 1, min(windows, test_idx.size)).astype(int)
        assert pick.size == (3 if windows == 3 else test_idx.size)
        alpha, beta = moment_match_arrays(*clamp_moments_arrays(
            pred[pick, 0], pred[pick, 1], epsilon)[:2])
        rows = csv_rows(paths["density"])
        assert len(rows) == pick.size * experiments.DENSITY_POINTS
        per_window = [rows[i] for i in range(0, len(rows), experiments.DENSITY_POINTS)]
        assert [(r["subject_id"], float(r["window_start"]), float(r["alpha_pred"]),
                 float(r["beta_pred"])) for r in per_window] == list(zip(
            report.data.subjects[test_idx[pick]].tolist(),
            report.data.starts[test_idx[pick]].tolist(), alpha.tolist(), beta.tolist()))

    def test_one_feature_dataset_runs(self, tmp_path):
        # hidden_dims(1) is (1, 1), so every network of the grid trains.
        synth_args = ["--n-subjects", 6, "--duration", 24, "--frame-rate", 10,
                      "--n-annotators", 4, "--feature-dim", 1, "--seed", 5]
        assert run_cli("synth", "--out", tmp_path / "s", *synth_args) == 0
        assert run_cli("build", "--features", tmp_path / "s" / "features.csv",
                       "--annotations", tmp_path / "s" / "annotations.csv",
                       "--out", tmp_path / "b") == 0
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", tmp_path / "b", "--out", out, "--k-folds", 3,
                       "--n-seeds", 1, "--max-epochs", 2) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid"]["cells"] == (3 + 5) * 3
        assert summary["grid"]["failures"] == []

    def test_dataset_without_features_exit_2_before_any_stack(
            self, built_dir, tmp_path, capsys, monkeypatch):
        from annodist import experiments

        def no_stack(*args, **kwargs):
            raise AssertionError("a stack ran on a dataset without features")

        monkeypatch.setattr(experiments, "_run_stack", no_stack)
        with open(built_dir / "dataset.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        bare = tmp_path / "bare"
        bare.mkdir()
        with open(bare / "dataset.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(row[:5] for row in rows)
        assert run_cli("run", "--dataset", bare, "--out", tmp_path / "run",
                       "--k-folds", 3, "--n-seeds", 1) == 2
        err = capsys.readouterr().err
        assert f"{bare / 'dataset.csv'}:1: expected at least one feature column" in err


class TestEpsilonFromDataset:
    """build records its clamp margin in dataset_manifest.json, and run takes
    it from there: run has no epsilon key of its own."""

    RUN_ARGS = ["--k-folds", 3, "--n-seeds", 1, "--master-seed", 2, "--max-epochs", 2,
                "--variants", "fully_shared", "--baselines", "median",
                "--density-windows", 4, "--jobs", 1]
    FILES = ("kl.csv", "descriptors_ccc.csv", "density_data.csv", "summary.json")

    @pytest.fixture(scope="class")
    def built_02(self, tmp_path_factory, synth_dir):
        out = tmp_path_factory.mktemp("built_02")
        assert run_cli("build", "--features", synth_dir / "features.csv",
                       "--annotations", synth_dir / "annotations.csv",
                       "--epsilon", 0.2, "--out", out) == 0
        return out

    def _run(self, dataset, out):
        assert run_cli("run", "--dataset", dataset, "--out", out, *self.RUN_ARGS) == 0
        return {name: (out / name).read_bytes() for name in self.FILES}

    def test_run_scores_with_the_recorded_epsilon(self, built_02, tmp_path):
        manifest = json.loads((built_02 / "dataset_manifest.json").read_text())
        assert manifest["epsilon"] == 0.2
        got = self._run(built_02, tmp_path / "cli")
        table, epsilon = read_dataset(built_02)
        assert epsilon == 0.2
        cfg = ExperimentConfig(k_folds=3, n_seeds=1, master_seed=2,
                               variants=("fully_shared",), baselines=("median",))
        report = experiments.run_grid(table, cfg, TrainConfig(max_epochs=2), epsilon=0.2)
        assert report.data.epsilon == 0.2
        experiments.write_report(report, tmp_path / "lib", 0.05, density_windows=4)
        for name in self.FILES:
            assert got[name] == (tmp_path / "lib" / name).read_bytes(), name
        # The same dataset.csv without its manifest scores at the default.
        (tmp_path / "bare").mkdir()
        shutil.copy(built_02 / "dataset.csv", tmp_path / "bare")
        bare = self._run(tmp_path / "bare", tmp_path / "bare_run")
        for name in self.FILES:
            assert got[name] != bare[name], name

    def test_manifest_without_epsilon_reads_as_the_default(self, built_dir, tmp_path):
        manifest = json.loads((built_dir / "dataset_manifest.json").read_text())
        assert manifest.pop("epsilon") == 1e-4
        (tmp_path / "old").mkdir()
        shutil.copy(built_dir / "dataset.csv", tmp_path / "old")
        (tmp_path / "old" / "dataset_manifest.json").write_text(json.dumps(manifest))
        assert read_dataset(tmp_path / "old")[1] == 1e-4
        assert (self._run(tmp_path / "old", tmp_path / "old_run")
                == self._run(built_dir, tmp_path / "new_run"))

    def test_run_takes_no_epsilon_flag_or_key(self, built_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--dataset", built_dir, "--epsilon", 1e-3,
                       "--out", out) == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-3}))
        capsys.readouterr()
        assert run_cli("run", "--dataset", built_dir, "--config", cfg,
                       "--out", out) == 2
        assert "unknown config keys: ['epsilon']" in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_prints_summary_tables(self, built_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", built_dir, "--out", out,
                       "--k-folds", 3, "--n-seeds", 2, "--max-epochs", 4,
                       "--variants", "fully_shared", "--baselines", "median",
                       "--density-windows", 0) == 0
        capsys.readouterr()
        assert run_cli("report", "--run", out) == 0
        text = capsys.readouterr().out
        assert "ccc_mu" in text and "fully_shared" in text

    def test_missing_run_dir_exit_2(self, tmp_path):
        assert run_cli("report", "--run", tmp_path / "nope") == 2

    @pytest.mark.parametrize("summary", [
        '{}',
        '{"significance_level": 0.05, "grid": {}}',
        '{"grid": []}',
        '{"kl_means": {"m": {}}}',
        '{"significance": {"ccc_mu": {"m": {"mean": "x"}}}}',
    ])
    def test_malformed_summary_exit_2(self, summary, tmp_path, capsys):
        bad = tmp_path / "run" / "summary.json"
        bad.parent.mkdir()
        bad.write_text(summary)
        assert run_cli("report", "--run", bad.parent) == 2
        out, err = capsys.readouterr()
        assert f"{bad}: not a run summary" in err
        assert "Traceback" not in err
        assert out == ""


def _set_cell(i, value):
    def edit(row):
        cells = row.rstrip("\n").split(",")
        cells[i] = value
        return ",".join(cells) + "\n"
    return edit


def _drop_last_cell(row):
    return row.rstrip("\n").rsplit(",", 1)[0] + "\n"


def _add_cell(row):
    return row.rstrip("\n") + ",0.5\n"


def _repeat(row):
    return row + row


# (subcommand, input file, line edited, edit, line the error must name)
MALFORMED = {
    "run-n_annotators-not-integer": ("run", "dataset.csv", 3, _set_cell(2, "2.5"), 3),
    "run-n_annotators-out-of-range":
        ("run", "dataset.csv", 3, _set_cell(2, "100000000000000000000"), 3),
    "run-short-row": ("run", "dataset.csv", 4, _drop_last_cell, 4),
    "run-long-row": ("run", "dataset.csv", 4, _add_cell, 4),
    "run-nan-feature": ("run", "dataset.csv", 5, _set_cell(6, "nan"), 5),
    "run-nan-mu": ("run", "dataset.csv", 6, _set_cell(3, "nan"), 6),
    "run-inf-sigma": ("run", "dataset.csv", 7, _set_cell(4, "inf"), 7),
    "run-negative-sigma": ("run", "dataset.csv", 7, _set_cell(4, "-0.1"), 7),
    "build-feature-dimension": ("build", "features.csv", 5, _drop_last_cell, 5),
    "build-feature-duplicate-timestamp": ("build", "features.csv", 5, _repeat, 6),
    "build-annotation-duplicate-timestamp":
        ("build", "annotations.csv", 5, _repeat, 6),
    "fit-annotation-duplicate-timestamp": ("fit", "annotations.csv", 5, _repeat, 6),
    "build-feature-nan-timestamp": ("build", "features.csv", 5, _set_cell(2, "nan"), 5),
    "build-feature-inf-timestamp": ("build", "features.csv", 6, _set_cell(2, "inf"), 6),
    "build-annotation-nan-timestamp":
        ("build", "annotations.csv", 5, _set_cell(2, "nan"), 5),
    "build-annotation-inf-timestamp":
        ("build", "annotations.csv", 6, _set_cell(2, "inf"), 6),
    "fit-annotation-nan-timestamp": ("fit", "annotations.csv", 5, _set_cell(2, "nan"), 5),
    "fit-annotation-inf-timestamp": ("fit", "annotations.csv", 6, _set_cell(2, "inf"), 6),
    "fit-annotation-nan-value": ("fit", "annotations.csv", 7, _set_cell(3, "nan"), 7),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_2_with_file_and_line(self, case, synth_dir, built_dir, tmp_path,
                                       capsys):
        sub, name, line, edit, bad_line = MALFORMED[case]
        inputs = {"features.csv": synth_dir / "features.csv",
                  "annotations.csv": synth_dir / "annotations.csv",
                  "dataset.csv": built_dir / "dataset.csv"}
        lines = inputs[name].read_text().splitlines(keepends=True)
        lines[line - 1] = edit(lines[line - 1])
        bad = tmp_path / name
        bad.write_text("".join(lines))
        inputs[name] = bad
        args = {
            "build": ["--features", inputs["features.csv"],
                      "--annotations", inputs["annotations.csv"]],
            "fit": ["--annotations", inputs["annotations.csv"]],
            "run": ["--dataset", bad, "--k-folds", 3, "--n-seeds", 1,
                    "--max-epochs", 1, "--variants", "fully_shared",
                    "--baselines", "--density-windows", 0],
        }[sub]
        code = run_cli(sub, *args, "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{bad}:{bad_line}:" in err
        assert "Traceback" not in err
        if "n_annotators" in case:
            assert "'n_annotators'" in err


def _featureless(lines):
    return [",".join(line.rstrip("\n").split(",")[:5]) + "\n" for line in lines]


def _edit_line(i, edit):
    return lambda lines: [edit(line) if k == i else line for k, line in enumerate(lines)]


def _first_subjects(n):
    def edit(lines):
        keep = sorted({line.split(",", 1)[0] for line in lines[1:]})[:n]
        return lines[:1] + [line for line in lines[1:] if line.split(",", 1)[0] in keep]
    return edit


def _first_second(lines):
    # Frames up to 1 s: too short for one 3 s window, so none joins.
    return lines[:1] + [line for line in lines[1:] if float(line.split(",")[2]) <= 1.0]


def _apart(lines):
    # Two annotators whose marks lie 9 s apart: no 3 s window holds both.
    return [lines[0], "s,a,0,0.5\n", "s,a,1,0.5\n", "s,b,10,0.5\n", "s,b,11,0.5\n"]


# (subcommand, input file, edit of its lines, extra flags, what the error
# names, "{bad}" standing for the edited file).  The first three fail while
# their input is read, the last its parameter check, the others while the
# command computes.
BAD_INPUTS = {
    "build-malformed-features": ("build", "features.csv", _edit_line(4, _drop_last_cell),
                                 [], "{bad}:5:"),
    "fit-malformed-annotations": ("fit", "annotations.csv",
                                  _edit_line(6, _set_cell(3, "nan")), [], "{bad}:7:"),
    "run-featureless-dataset": ("run", "dataset.csv", _featureless, [], "{bad}:1:"),
    "fit-outside-label-range": ("fit", "annotations.csv", list, ["--label-range", 0, 0.5],
                                "outside [0.0, 0.5]"),
    "fit-no-shared-window": ("fit", "annotations.csv", _apart, [],
                             "fit: no valid windows found"),
    "run-more-folds-than-subjects": ("run", "dataset.csv", _first_subjects(3),
                                     ["--k-folds", 5], "need >= 5 subjects for 5 folds, got 3"),
    "build-no-joined-window": ("build", "features.csv", _first_second, [],
                               "build_dataset: no window has both features and annotations"),
    "fit-epsilon-below-the-floor": ("fit", "annotations.csv", list, ["--epsilon", 1e-20],
                                    "epsilon must be in [1e-12, 0.5), got 1e-20"),
}


@pytest.mark.parametrize("key, flag", [
    ("kl_direction", ["--kl-direction", "pred_first"]),
    ("ccc_pooling", ["--ccc-pooling", "pooled"]),
], ids=["kl_direction", "ccc_pooling"])
def test_run_takes_no_removed_flag_or_key(key, flag, built_dir, tmp_path, capsys):
    # The summary reports KL(truth||pred) and the mean of KL(pred||truth) beside
    # it, and every CCC is taken over a cell's pooled test windows.
    out = tmp_path / "out"
    assert run_cli("run", "--dataset", built_dir, *flag, "--out", out) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: flag[1]}))
    capsys.readouterr()
    assert run_cli("run", "--dataset", built_dir, "--config", cfg, "--out", out) == 2
    assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, flag", [
    ("identity_features", ["--identity-features"]),
    ("annotator_bias_std", ["--annotator-bias-std", 0.1]),
], ids=["identity_features", "annotator_bias_std"])
def test_synth_takes_no_removed_generator_flag_or_key(key, flag, tmp_path, capsys):
    # Every annotator value is a Beta(mu*, sigma*) quantile, as ground_truth.csv
    # says, and the feature map is always the seeded random one.
    out = tmp_path / "out"
    assert run_cli("synth", *flag, "--out", out) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 0.1}))
    capsys.readouterr()
    assert run_cli("synth", "--config", cfg, "--out", out) == 2
    assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_2_leaves_no_out_dir(case, synth_dir, built_dir, tmp_path, capsys):
    # The inputs are read and the work is done before the manifest is written.
    sub, name, edit, flags, names = BAD_INPUTS[case]
    source = (built_dir if name == "dataset.csv" else synth_dir) / name
    bad = tmp_path / name
    bad.write_text("".join(edit(source.read_text().splitlines(keepends=True))))
    args = {"build": ["--features", bad, "--annotations", synth_dir / "annotations.csv"],
            "fit": ["--annotations", bad], "run": ["--dataset", bad]}[sub]
    out = tmp_path / "out"
    code = run_cli(sub, *args, *flags, "--out", out)
    err = capsys.readouterr().err
    assert code == 2, err
    assert names.format(bad=bad) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_failed_rerun_leaves_a_finished_run_as_it_was(built_dir, tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", built_dir, "--out", out, "--k-folds", 3,
                   "--n-seeds", 1, "--max-epochs", 2, "--variants", "fully_shared",
                   "--baselines", "--density-windows", 2) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert run_cli("run", "--dataset", built_dir, "--out", out, "--k-folds", 30) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("rerun, code", [(("--density-windows", 0), 0),
                                          (("--learning-rate", 1e200), 3)],
                         ids=["no-density-windows", "reference-member-failed"])
def test_a_rerun_writing_no_densities_removes_the_old_file(built_dir, tmp_path,
                                                          rerun, code):
    out = tmp_path / "run"
    args = ["run", "--dataset", built_dir, "--out", out, "--k-folds", 3, "--n-seeds", 1,
            "--max-epochs", 2, "--variants", "fully_shared", "--baselines"]
    assert run_cli(*args, "--density-windows", 2) == 0
    assert (out / "density_data.csv").exists()
    assert run_cli(*args, *rerun) == code
    assert not (out / "density_data.csv").exists()


class TestByteOrderMark:
    def test_fit_reads_annotations_after_a_bom(self, synth_dir, tmp_path):
        bom = tmp_path / "annotations.csv"
        bom.write_bytes(codecs.BOM_UTF8 + (synth_dir / "annotations.csv").read_bytes())
        assert run_cli("fit", "--annotations", synth_dir / "annotations.csv",
                       "--out", tmp_path / "plain") == 0
        assert run_cli("fit", "--annotations", bom, "--out", tmp_path / "bom") == 0
        assert sha(tmp_path / "bom" / "beta_fits.csv") == sha(
            tmp_path / "plain" / "beta_fits.csv")

    def test_config_file_after_a_bom(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(codecs.BOM_UTF8 + json.dumps(
            {"n_subjects": 3, "duration": 20.0, "frame_rate": 10.0}).encode())
        assert run_cli("synth", "--out", tmp_path / "out", "--config", cfg) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["parameters"]["n_subjects"] == 3


# JSON files that are malformed, not an object or not UTF-8: (contents, line
# the error must name).
BAD_JSON = {
    "malformed": (b'{\n  "n_subjects": 3,\n  "duration":\n}\n', 4),
    "array": (b"\n\n[1, 2]\n", 3),
    "number": (b"3", 1),
    "not-utf8": (b'{\n  "modalities": "\xff"\n}\n', 2),
}


class TestBadJson:
    @pytest.mark.parametrize("role", ["config", "manifest", "summary"])
    @pytest.mark.parametrize("case", sorted(BAD_JSON))
    def test_exit_2_with_file_and_line(self, role, case, built_dir, tmp_path, capsys):
        # A config file for synth, a dataset manifest for run (which takes
        # its epsilon) and a run's summary for report.
        contents, line = BAD_JSON[case]
        out = tmp_path / "out"
        if role == "config":
            bad = tmp_path / "cfg.json"
            args = ["synth", "--config", bad, "--out", out]
        elif role == "manifest":
            bad = tmp_path / "dataset" / "dataset_manifest.json"
            bad.parent.mkdir()
            shutil.copy(built_dir / "dataset.csv", bad.parent)
            args = ["run", "--dataset", bad.parent, "--out", out, "--max-epochs", 1]
        else:
            bad = tmp_path / "run" / "summary.json"
            bad.parent.mkdir()
            args = ["report", "--run", bad.parent]
        bad.write_bytes(contents)
        code = run_cli(*args)
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{bad}:{line}:" in err
        assert "Traceback" not in err
        if role == "config":
            assert not out.exists()


@pytest.mark.parametrize("value", ['"0.2"', "true", "null", "NaN", "0", "0.5", "-0.1",
                                   "1e-13", "[0.2]"])
def test_bad_manifest_epsilon_exit_2_naming_the_manifest(value, built_dir, tmp_path,
                                                         capsys):
    bad = tmp_path / "dataset" / "dataset_manifest.json"
    bad.parent.mkdir()
    shutil.copy(built_dir / "dataset.csv", bad.parent)
    bad.write_text(f'{{"epsilon": {value}}}')
    out = tmp_path / "out"
    code = run_cli("run", "--dataset", bad.parent, "--out", out, "--max-epochs", 1)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{bad}: key 'epsilon' must be a number in [1e-12, 0.5)" in err
    assert "Traceback" not in err
    assert not out.exists()


# (subcommand, config key, bad value): JSON types the key's default rejects.
BAD_CONFIG_TYPES = [
    ("synth", "n_subjects", "three"),
    ("fit", "window_len", "3"),
    ("run", "n_seeds", 2.5),
    ("run", "variants", "fully_shared"),
    ("run", "include_oracle", 1),
    ("run", "k_folds", True),
    ("build", "modalities", ["synth", 1]),
]


class TestConfigTypes:
    @pytest.mark.parametrize("sub,key,value", BAD_CONFIG_TYPES)
    def test_wrong_json_type_exit_2(self, sub, key, value, synth_dir, built_dir,
                                    tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args = {
            "synth": [],
            "fit": ["--annotations", synth_dir / "annotations.csv"],
            "build": ["--features", synth_dir / "features.csv",
                      "--annotations", synth_dir / "annotations.csv"],
            "run": ["--dataset", built_dir, "--max-epochs", 1],
        }[sub]
        code = run_cli(sub, *args, "--config", cfg, "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{cfg}: key {key!r}" in err
        assert "Traceback" not in err

    def test_ints_for_floats_and_null_modalities_accepted(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_len": 3, "label_range": [0, 1],
                                   "modalities": None}))
        assert run_cli("build", "--features", synth_dir / "features.csv",
                       "--annotations", synth_dir / "annotations.csv",
                       "--config", cfg, "--out", tmp_path / "out") == 0


# (subcommand, flag, value, field the error must name)
BAD_FIELDS = [
    ("run", "--batch-size", 0, "batch_size"),
    ("run", "--max-epochs", 0, "max_epochs"),
    ("run", "--patience", 0, "patience"),
    ("run", "--learning-rate", 0, "learning_rate"),
    ("run", "--learning-rate", -0.001, "learning_rate"),
    ("run", "--master-seed", -1, "master_seed"),
    ("synth", "--seed", -1, "seed"),
    ("run", "--jobs", -4, "jobs"),
    ("run", "--significance-level", 5, "significance_level"),
    ("run", "--significance-level", -1, "significance_level"),
    ("run", "--significance-level", "nan", "significance_level"),
    ("run", "--density-windows", -1, "density_windows"),
    ("run", "--n-seeds", 0, "n_seeds"),
    ("run", "--k-folds", 1, "k_folds"),
    ("fit", "--epsilon", 0.5, "epsilon"),
    ("synth", "--n-annotators", 1, "n_annotators"),
    ("synth", "--stride", 0, "stride"),
    ("synth", "--duration", "nan", "duration"),
    ("synth", "--frame-rate", "nan", "frame_rate"),
    ("synth", "--annotation-rate", "nan", "annotation_rate"),
    ("synth", "--noise-std", "nan", "noise_std"),
    ("build", "--window-len", "inf", "window_len"),
    ("fit", "--window-len", "inf", "window_len"),
    ("build", "--epsilon", 0, "epsilon"),
    ("run", "--variants", ("fully_shared", "fully_shared"), "variants"),
    ("run", "--baselines", ("median", "median"), "baselines"),
]

# (subcommand, config file contents, field the error must name)
BAD_CONFIG_FIELDS = [
    ("run", {"master_seed": -1}, "master_seed"),
    ("run", {"k_folds": 2}, "k_folds"),
    ("run", {"jobs": -4}, "jobs"),
    ("run", {"significance_level": float("inf")}, "significance_level"),
    ("synth", {"duration": float("nan")}, "duration"),
    ("synth", {"noise_std": float("nan")}, "noise_std"),
    ("build", {"modalities": []}, "modalities"),
    ("fit", {"label_range": [0, float("-inf")]}, "label_range"),
    ("run", {"variants": [], "baselines": []}, "variants"),
    ("run", {"baselines": ["q25", "skew", "q25"]}, "baselines"),
]


def _inputs(sub, synth_dir, built_dir):
    """The required input flags of ``sub``."""
    return {
        "synth": list(SYNTH_ARGS),
        "build": ["--features", synth_dir / "features.csv",
                  "--annotations", synth_dir / "annotations.csv"],
        "fit": ["--annotations", synth_dir / "annotations.csv"],
        "run": ["--dataset", built_dir],
    }[sub]


class TestFieldChecks:
    @pytest.mark.parametrize("sub,flag,value,field", BAD_FIELDS)
    def test_bad_field_exit_2_before_any_work(self, sub, flag, value, field,
                                              synth_dir, built_dir, tmp_path, capsys):
        out = tmp_path / "out"
        values = value if isinstance(value, tuple) else (value,)
        code = run_cli(sub, *_inputs(sub, synth_dir, built_dir), flag, *values,
                       "--out", out)
        err = capsys.readouterr().err
        assert code == 2, err
        assert field in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sub,values,field", BAD_CONFIG_FIELDS,
        ids=[f"{sub}-{field}" for sub, _, field in BAD_CONFIG_FIELDS])
    def test_bad_config_value_exit_2_before_any_work(self, sub, values, field,
                                                     synth_dir, built_dir, tmp_path,
                                                     capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(values))
        code = run_cli(sub, *_inputs(sub, synth_dir, built_dir), "--config", cfg,
                       "--out", out)
        err = capsys.readouterr().err
        assert code == 2, err
        assert field in err and "Traceback" not in err
        assert not out.exists()


# Each subcommand's flags as (option, dest, type, nargs, choices, const),
# recorded before the parameter table replaced the hand-written parser.
FLAG_SURFACE = {
    "build": [
        ("--features", "features", None, None, None, None),
        ("--annotations", "annotations", None, None, None, None),
        ("--out", "out", None, None, None, None),
        ("--config", "config", None, None, None, None),
        ("--window-len", "window_len", "float", None, None, None),
        ("--stride", "stride", "float", None, None, None),
        ("--label-range", "label_range", "float", 2, None, None),
        ("--epsilon", "epsilon", "float", None, None, None),
        ("--modalities", "modalities", None, "+", None, None),
    ],
    "fit": [
        ("--annotations", "annotations", None, None, None, None),
        ("--out", "out", None, None, None, None),
        ("--config", "config", None, None, None, None),
        ("--window-len", "window_len", "float", None, None, None),
        ("--stride", "stride", "float", None, None, None),
        ("--label-range", "label_range", "float", 2, None, None),
        ("--epsilon", "epsilon", "float", None, None, None),
    ],
    "report": [("--run", "run", None, None, None, None)],
    "run": [
        ("--dataset", "dataset", None, None, None, None),
        ("--out", "out", None, None, None, None),
        ("--config", "config", None, None, None, None),
        ("--k-folds", "k_folds", "int", None, None, None),
        ("--n-seeds", "n_seeds", "int", None, None, None),
        ("--master-seed", "master_seed", "int", None, None, None),
        ("--variants", "variants", None, "+",
         ("independent", "shared_first", "fully_shared"), None),
        ("--baselines", "baselines", None, "*",
         ("median", "q25", "q75", "skew", "kurt"), None),
        ("--oracle", "include_oracle", None, 0, None, True),
        ("--learning-rate", "learning_rate", "float", None, None, None),
        ("--batch-size", "batch_size", "int", None, None, None),
        ("--max-epochs", "max_epochs", "int", None, None, None),
        ("--patience", "patience", "int", None, None, None),
        ("--jobs", "jobs", "int", None, None, None),
        ("--density-windows", "density_windows", "int", None, None, None),
        ("--significance-level", "significance_level", "float", None, None, None),
    ],
    "synth": [
        ("--out", "out", None, None, None, None),
        ("--config", "config", None, None, None, None),
        ("--n-subjects", "n_subjects", "int", None, None, None),
        ("--duration", "duration", "float", None, None, None),
        ("--frame-rate", "frame_rate", "float", None, None, None),
        ("--n-annotators", "n_annotators", "int", None, None, None),
        ("--feature-dim", "feature_dim", "int", None, None, None),
        ("--latent-dim", "latent_dim", "int", None, None, None),
        ("--noise-std", "noise_std", "float", None, None, None),
        ("--seed", "seed", "int", None, None, None),
        ("--annotation-rate", "annotation_rate", "float", None, None, None),
        ("--window-len", "window_len", "float", None, None, None),
        ("--stride", "stride", "float", None, None, None),
    ],
}

# Each subcommand's parameters with no config file and no flags, as recorded
# in its manifest.
RESOLVED_DEFAULTS = {
    "synth": {
        "n_subjects": 20, "duration": 150.0, "frame_rate": 25.0, "n_annotators": 6,
        "feature_dim": 24, "latent_dim": 4, "noise_std": 0.02, "seed": 0,
        "annotation_rate": 5.0, "window_len": 3.0, "stride": 0.4,
    },
    "build": {"window_len": 3.0, "stride": 0.4, "label_range": [0.0, 1.0],
              "epsilon": 0.0001, "modalities": None},
    "fit": {"window_len": 3.0, "stride": 0.4, "label_range": [0.0, 1.0],
            "epsilon": 0.0001},
    "run": {
        "k_folds": 5, "n_seeds": 10, "master_seed": 0,
        "variants": ["independent", "shared_first", "fully_shared"],
        "baselines": ["median", "q25", "q75", "skew", "kurt"],
        "learning_rate": 0.001, "batch_size": 128, "max_epochs": 50, "patience": 5,
        "include_oracle": False, "jobs": 0, "density_windows": 8, "significance_level": 0.05,
    },
}
REQUIRED_INPUTS = {"synth": [], "build": ["--features", "f", "--annotations", "a"],
                   "fit": ["--annotations", "a"], "run": ["--dataset", "d"]}


class TestParameterTable:
    def test_flag_surface_is_unchanged(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: [(" ".join(a.option_strings), a.dest,
                    a.type.__name__ if a.type else None, a.nargs,
                    tuple(a.choices) if a.choices else None, a.const)
                   for a in parser._actions if not isinstance(a, argparse._HelpAction)]
            for name, parser in sub.choices.items()
        }
        assert surface == FLAG_SURFACE

    @pytest.mark.parametrize("sub", sorted(RESOLVED_DEFAULTS))
    def test_resolved_defaults(self, sub):
        args = cli._build_parser().parse_args([sub, "--out", "o", *REQUIRED_INPUTS[sub]])
        params, _ = cli._resolve(args)
        # Dumped, so that 150 and 150.0 or a tuple and a list would differ.
        assert (json.dumps(params, sort_keys=True)
                == json.dumps(RESOLVED_DEFAULTS[sub], sort_keys=True))


# Values each key's range check rejects.  Keys in CONFIG_ONLY take them only
# from a config file: argparse's choices and nargs already refuse the flag form.
OUT_OF_RANGE = {
    "n_subjects": [0], "duration": [0, -1.5, 0.01], "frame_rate": [0.0],
    "n_annotators": [1], "feature_dim": [0], "latent_dim": [-1], "noise_std": [-0.1],
    "seed": [-1], "annotation_rate": [-2.0],
    "window_len": [0, -3.0], "stride": [0, 100.0], "label_range": [[1, 0], [0.5, 0.5]],
    "epsilon": [0, 0.5, -1e-4], "modalities": [[], ["synth", "synth"]],
    "k_folds": [0, 1, 2], "n_seeds": [0],
    "master_seed": [-3], "variants": [["bogus"]], "baselines": [["mean"]],
    "learning_rate": [0, -1.0], "batch_size": [0], "max_epochs": [-1], "patience": [0],
    "include_oracle": [],
    "jobs": [-1, -4], "density_windows": [-1], "significance_level": [0, 1, 5, -1],
}
CONFIG_ONLY = {"modalities", "variants", "baselines"}
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
# JSON values of the wrong type, by the type of the key's default.
WRONG_TYPES = {
    int: ["3", 2.5, True, None], float: ["3.0", True, None, [1.0]],
    bool: [1, "yes", None],
    "list": ["x", [1, "2"], [True]], type(None): ["synth", [1]],
}


@st.composite
def bad_invocations(draw):
    """(subcommand, key, bad value, whether to give it as a flag)."""
    sub = draw(st.sampled_from(sorted(RESOLVED_DEFAULTS)))
    key = draw(st.sampled_from(sorted(RESOLVED_DEFAULTS[sub])))
    default = RESOLVED_DEFAULTS[sub][key]
    flag_ok = key not in CONFIG_ONLY
    bad = [(v, flag_ok) for v in OUT_OF_RANGE[key]]
    if type(default) is float or key == "label_range":
        bad += [([0.0, v] if key == "label_range" else v, flag_ok) for v in NON_FINITE]
    kind = "list" if isinstance(default, list) else type(default)
    bad += [(v, False) for v in WRONG_TYPES[kind]]
    value, flag_ok = draw(st.sampled_from(bad))
    return sub, key, value, flag_ok and draw(st.booleans())


class TestBadValues:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(bad_invocations())
    def test_exit_2_naming_the_key_with_no_output(self, synth_dir, built_dir,
                                                  tmp_path_factory, case):
        sub, key, value, as_flag = case
        base = tmp_path_factory.mktemp("bad")
        out = base / "out"
        if not as_flag:
            (base / "cfg.json").write_text(json.dumps({key: value}))
            given = ["--config", base / "cfg.json"]
        elif value is True:
            given = [cli._flag(key)]
        elif isinstance(value, list):
            texts = [repr(float(v)) for v in value]
            assume(not any(t.startswith("-") for t in texts))  # read as options
            given = [cli._flag(key), *texts]
        else:
            given = [f"{cli._flag(key)}={value!r}"]
        inputs = [] if sub == "synth" else _inputs(sub, synth_dir, built_dir)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(sub, *inputs, *given, "--out", out)
        err = err.getvalue()
        assert code == 2, err
        assert key in err
        assert "Traceback" not in err
        assert not out.exists()


class TestUsageAndEnvironment:
    @pytest.mark.parametrize("sub", ["synth", "build", "fit", "run"])
    def test_manifest_records_numpy_and_blas(self, sub, synth_dir, built_dir, tmp_path):
        out = {"synth": synth_dir, "build": built_dir}.get(sub, tmp_path / "out")
        if sub == "fit":
            assert run_cli("fit", "--annotations", synth_dir / "annotations.csv",
                           "--out", out) == 0
        elif sub == "run":
            assert run_cli("run", "--dataset", built_dir, "--out", out, "--k-folds", 3,
                           "--n-seeds", 1, "--max-epochs", 1, "--variants", "fully_shared",
                           "--baselines", "--density-windows", 0) == 0
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {"numpy": np.__version__, "blas": {
            "name": blas["name"], "version": blas["version"],
            "openblas configuration": blas.get("openblas configuration"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "GOTO_NUM_THREADS": os.environ.get("GOTO_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}}

    @pytest.mark.parametrize("given", [{}, {"OMP_NUM_THREADS": "2"},
                                       {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": ""}])
    def test_manifest_records_the_blas_thread_variables(self, given, synth_dir, tmp_path,
                                                        monkeypatch):
        for var in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in given.items():
            monkeypatch.setenv(var, value)
        assert run_cli("fit", "--annotations", synth_dir / "annotations.csv",
                       "--out", tmp_path) == 0
        blas = json.loads((tmp_path / "manifest.json").read_text())["environment"]["blas"]
        assert {k: blas[k] for k in cli.BLAS_THREAD_VARS} == {
            var: given.get(var) for var in cli.BLAS_THREAD_VARS}

    def test_manifest_records_the_input_paths_as_given(self, synth_dir, built_dir,
                                                       tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        synth = os.path.relpath(synth_dir)
        given = {
            "build": {"--features": os.path.join(synth, "features.csv"),
                      "--annotations": os.path.join(synth, "annotations.csv")},
            "fit": {"--annotations": os.path.join(synth, "annotations.csv")},
            "run": {"--dataset": os.path.relpath(built_dir)},
        }
        extra = {"build": [], "fit": [],
                 "run": ["--k-folds", 3, "--n-seeds", 1, "--max-epochs", 1,
                         "--variants", "fully_shared", "--baselines",
                         "--density-windows", 0]}
        for sub, inputs in given.items():
            args = [item for pair in inputs.items() for item in pair]
            assert run_cli(sub, *args, *extra[sub], "--out", sub) == 0
            assert json.loads((tmp_path / sub / "manifest.json").read_text())[
                "inputs"] == inputs
        assert json.loads((synth_dir / "manifest.json").read_text())["inputs"] == {}

    def test_unknown_flag_exit_1(self, synth_dir, capsys):
        assert run_cli("synth", "--out", "x", "--bogus-flag", "1") == 1

    def test_missing_subcommand_exit_1(self):
        assert run_cli() == 1

    @pytest.mark.parametrize("argv", [["--help"]] + [
        [sub, "--help"] for sub in ("synth", "build", "fit", "run", "report")])
    def test_help_matches_the_full_parser(self, argv, capsys):
        # main builds the arguments of the subcommand argv names alone.
        assert run_cli(*argv) == 0
        got = capsys.readouterr()
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(argv)
        assert got == capsys.readouterr()

    def test_misspelled_flag_message_matches_the_full_parser(self, capsys):
        argv = ["synth", "--out", "x", "--n-subjcts", "3"]
        assert run_cli(*argv) == 1
        got = capsys.readouterr().err
        assert got.endswith("error: unrecognized arguments: --n-subjcts 3\n")
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(argv)
        assert got == capsys.readouterr().err

    def test_only_the_named_subcommand_gets_arguments(self):
        sub = next(a for a in cli._build_parser("fit")._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: [a.dest for a in parser._actions
                        if not isinstance(a, argparse._HelpAction)]
                 for name, parser in sub.choices.items()}
        assert flags["fit"][:3] == ["annotations", "out", "config"]
        assert flags["synth"] == flags["build"] == flags["run"] == []

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANNODIST_OUT_ROOT", str(tmp_path))
        assert run_cli("synth", "--out", "rooted", *SYNTH_ARGS) == 0
        assert (tmp_path / "rooted" / "features.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_subjects": 3, "duration": 20.0,
                                   "frame_rate": 10.0, "n_annotators": 4,
                                   "feature_dim": 8, "latent_dim": 2}))
        out = tmp_path / "out"
        assert run_cli("synth", "--out", out, "--config", cfg,
                       "--n-subjects", 4) == 0
        rows = out.joinpath("features.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 4 * 20 * 10  # flag overrides file
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["n_subjects"] == 4
        assert manifest["parameters"]["duration"] == 20.0

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        assert run_cli("synth", "--out", tmp_path / "o", "--config", cfg) == 2
