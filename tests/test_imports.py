"""Each command loads only the modules it runs.

Every check runs the CLI in a fresh interpreter and reads ``sys.modules``
afterwards: parsing, a rejected invocation and ``report`` load no NumPy, and
``build``/``fit`` load none of the training or scoring modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import annodist
from annodist import cli, config, consensus, experiments, nn, pipeline, synthetic

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv through ``main`` and prints, as one JSON line, the exit
# codes with their stdout/stderr and the names in ``sys.modules``.
_SCRIPT = """
import contextlib, io, json, sys
if {block_numpy}:
    sys.modules["numpy"] = None  # any import of numpy raises ImportError
from annodist.cli import main
results = []
for argv in {invocations!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results.append((main(argv), out.getvalue(), err.getvalue()))
print(json.dumps([results, sorted(sys.modules)]))
"""

TRAINING_MODULES = {"annodist.nn", "annodist.experiments", "annodist.metrics",
                    "annodist.synthetic"}


def _fresh(*invocations, block_numpy=False):
    """The (exit code, stdout, stderr) of each invocation, run in order in one
    new interpreter, and the set of modules loaded at the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = _SCRIPT.format(block_numpy=block_numpy,
                            invocations=[[str(a) for a in argv] for argv in invocations])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    results, modules = json.loads(proc.stdout.splitlines()[-1])
    return results, set(modules)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny synthetic panel and a finished run on it."""
    root = tmp_path_factory.mktemp("imports")
    synth = config.SyntheticConfig(n_subjects=3, duration=12.0, frame_rate=5.0,
                                   n_annotators=3, feature_dim=4, latent_dim=1, seed=3)
    paths, _ = synthetic.write_dataset_csvs(synth, root / "synth")
    assert cli.main(["build", "--features", str(paths["features"]),
                     "--annotations", str(paths["annotations"]),
                     "--out", str(root / "built")]) == 0
    assert cli.main(["run", "--dataset", str(root / "built"), "--out", str(root / "run"),
                     "--k-folds", "3", "--n-seeds", "1", "--max-epochs", "2",
                     "--variants", "fully_shared", "--baselines",
                     "--density-windows", "0"]) == 0
    return paths, root


def test_parsing_and_rejection_load_no_numpy(tmp_path):
    results, modules = _fresh(
        ["--help"], ["--version"],
        ["fit", "--annotations", tmp_path / "absent.csv", "--out", tmp_path / "out",
         "--window-len", "0"],
    )
    assert [rc for rc, _, _ in results] == [0, 0, 2]
    assert results[1][1].strip() == annodist.__version__
    assert "window_len must be positive" in results[2][2]
    assert not (tmp_path / "out").exists()
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("annodist")} == {
        "annodist", "annodist.cli", "annodist.config", "annodist.errors"}


def test_build_and_fit_load_no_training_modules(inputs, tmp_path):
    paths, _ = inputs
    results, modules = _fresh(
        ["build", "--features", paths["features"], "--annotations",
         paths["annotations"], "--out", tmp_path / "built"],
        ["fit", "--annotations", paths["annotations"], "--out", tmp_path / "fit"],
    )
    assert [rc for rc, _, _ in results] == [0, 0], results
    assert "annodist.pipeline" in modules and "annodist.consensus" in modules
    assert not modules & TRAINING_MODULES
    assert "logging" not in modules  # loaded only for a warning; none is due here


def test_report_runs_without_numpy(inputs, capsys):
    _, root = inputs
    capsys.readouterr()
    assert cli.main(["report", "--run", str(root / "run")]) == 0
    expected = capsys.readouterr().out
    [(rc, out, err)], modules = _fresh(["report", "--run", root / "run"],
                                       block_numpy=True)
    assert (rc, out, err) == (0, expected, "")
    assert "grid: 3 cells" in out


def test_synth_prints_the_rows_it_wrote(tmp_path):
    [(rc, out, _)], modules = _fresh(
        ["synth", "--out", tmp_path, "--n-subjects", "2", "--duration", "8",
         "--frame-rate", "5", "--feature-dim", "3", "--latent-dim", "1"])
    assert rc == 0
    for line in out.splitlines():
        name, rest = line.split(": ", 1)
        path, rows = rest.split(" (")
        with open(path, encoding="utf-8") as fh:
            assert rows == f"{sum(1 for _ in fh) - 1} rows)", name
    assert not modules & (TRAINING_MODULES - {"annodist.synthetic"})


def test_package_exports_resolve_lazily():
    from annodist import ccc  # noqa: F401  (resolved through __getattr__)

    assert set(annodist.__all__) <= set(dir(annodist))
    with pytest.raises(AttributeError, match="no_such_name"):
        annodist.no_such_name  # noqa: B018
    assert annodist.WindowConfig is pipeline.WindowConfig is config.WindowConfig


@pytest.mark.parametrize("module, name", [
    (consensus, "DEFAULT_EPSILON"), (consensus, "DESCRIPTOR_NAMES"),
    (consensus, "EPSILON_RANGE"),
    (experiments, "ExperimentConfig"), (experiments, "ORACLE_MODEL"),
    (nn, "TrainConfig"), (nn, "KINDS"), (nn, "MOMENT_KINDS"),
    (pipeline, "WindowConfig"), (pipeline, "read_json"), (pipeline, "write_json"),
    (synthetic, "SyntheticConfig"),
])
def test_config_names_keep_their_old_paths(module, name):
    assert getattr(module, name) is getattr(config, name)
