"""End-to-end CLI: subcommands, manifests, exit codes, reproducibility."""

import csv
import hashlib
import json

import numpy as np
import pytest

from annodist.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        rows = list(csv.DictReader(open(out / "beta_fits.csv")))
        assert rows
        for row in rows:
            # mu=0.5, sigma=0.1 -> phi=24 -> alpha=beta=12
            assert float(row["alpha"]) == pytest.approx(12.0, rel=1e-9)
            assert float(row["beta"]) == pytest.approx(12.0, rel=1e-9)
            assert row["degenerate"] == "0"

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
        rows = list(csv.DictReader(open(out / "beta_fits.csv")))
        assert all(row["degenerate"] == "1" for row in rows)

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
        rows = list(csv.DictReader(open(out / "beta_fits.csv")))
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
        rows = list(csv.DictReader(open(out / "beta_fits.csv")))
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
        rows = list(csv.DictReader(open(out / "moments_ccc.csv")))
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

    def test_density_file_window_count(self, built_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", built_dir, "--out", out,
                       *self.RUN_ARGS) == 0
        rows = out.joinpath("density_data.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 4 * 512


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


# (subcommand, config key, bad value): JSON types the key's default rejects.
BAD_CONFIG_TYPES = [
    ("synth", "n_subjects", "three"),
    ("fit", "window_len", "3"),
    ("run", "n_seeds", 2.5),
    ("run", "variants", "fully_shared"),
    ("synth", "identity_features", 1),
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
]


class TestFieldChecks:
    @pytest.mark.parametrize("sub,flag,value,field", BAD_FIELDS)
    def test_bad_field_exit_2_before_any_work(self, sub, flag, value, field,
                                              built_dir, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--dataset", built_dir] if sub == "run" else list(SYNTH_ARGS)
        code = run_cli(sub, *args, flag, value, "--out", out)
        err = capsys.readouterr().err
        assert code == 2, err
        assert field in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_negative_master_seed_in_config_exit_2(self, built_dir, tmp_path,
                                                   capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"master_seed": -1}))
        code = run_cli("run", "--dataset", built_dir, "--config", cfg,
                       "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2, err
        assert "master_seed" in err and "Traceback" not in err


class TestUsageAndEnvironment:
    def test_unknown_flag_exit_1(self, synth_dir, capsys):
        assert run_cli("synth", "--out", "x", "--bogus-flag", "1") == 1

    def test_missing_subcommand_exit_1(self):
        assert run_cli() == 1

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
