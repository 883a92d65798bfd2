"""A CLI process ends without the interpreter's final garbage collection.

``python -m annodist.cli`` and the ``annodist`` console script both run
``cli.entry``, which freezes the collector once ``main`` has returned.  Each
check runs a fresh interpreter: the freeze is in place when ``atexit`` hooks
run, an in-process ``main`` leaves the collector alone, and a command run as
a process prints, writes and returns exactly what the same command run
in-process does.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from annodist import cli, config, synthetic

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The console script is what pip generates for pyproject.toml's
# [project.scripts] entry: import the named object and exit with its result.
_SCRIPT_TARGET = re.search(r'^\[project\.scripts\]\nannodist = "([\w.]+):(\w+)"$',
                           (ROOT / "pyproject.toml").read_text(), re.M).groups()
_LAUNCH = {
    "module": 'runpy.run_module("annodist.cli", run_name="__main__", alter_sys=True)',
    "console_script": "from {} import {} as target\nsys.exit(target())".format(
        *_SCRIPT_TARGET),
}

# Starts one entry point on ``argv`` with an atexit hook registered first; the
# hook prints the collector's state as the last line of stdout.
_AT_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("at exit:", gc.get_freeze_count() > 0, gc.isenabled()))
sys.argv = ["annodist", *{argv!r}]
{launch}
"""

# Runs ``main`` in-process and prints the collector's state afterwards.
_IN_PROCESS = """
import gc
from annodist.cli import main
code = main({argv!r})
print("after main:", code, gc.get_freeze_count(), gc.isenabled())
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """A tiny synthetic panel's annotations and its built dataset."""
    root = tmp_path_factory.mktemp("exit")
    synth = config.SyntheticConfig(n_subjects=3, duration=12.0, frame_rate=5.0,
                                   n_annotators=3, feature_dim=4, latent_dim=1, seed=3)
    paths, _ = synthetic.write_dataset_csvs(synth, root / "synth")
    assert cli.main(["build", "--features", str(paths["features"]),
                     "--annotations", str(paths["annotations"]),
                     "--out", str(root / "built")]) == 0
    return paths["annotations"], root / "built"


@pytest.mark.parametrize("entry_point", sorted(_LAUNCH))
def test_entry_points_exit_with_a_frozen_collector(panel, tmp_path, entry_point):
    annotations, _ = panel
    out = tmp_path / "fit"
    argv = ["fit", "--annotations", str(annotations), "--out", str(out)]
    proc = _python("-c", _AT_EXIT.format(argv=argv, launch=_LAUNCH[entry_point]))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"beta fits: {out / 'beta_fits.csv'} (")
    assert lines[-1] == "at exit: True True"
    assert proc.stderr == ""


def test_in_process_main_keeps_the_collector(panel, tmp_path):
    annotations, _ = panel
    argv = ["fit", "--annotations", str(annotations), "--out", str(tmp_path / "fit")]
    proc = _python("-c", _IN_PROCESS.format(argv=argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "after main: 0 0 True"


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_process_output_equals_in_process_output(panel, tmp_path, capsys):
    annotations, built = panel
    run = tmp_path / "run"
    invocations = [
        ["fit", "--annotations", annotations, "--out", tmp_path / "fit"],
        ["run", "--dataset", built, "--out", run, "--k-folds", "3", "--n-seeds", "1",
         "--max-epochs", "2", "--variants", "fully_shared", "--baselines",
         "--density-windows", "2", "--jobs", "2"],
        ["report", "--run", run],
        ["fit", "--annotations", annotations, "--out", tmp_path / "bad",
         "--window-len", "0"],
    ]
    codes = []
    for argv in ([str(a) for a in argv] for argv in invocations):
        capsys.readouterr()
        codes.append(cli.main(argv))
        in_process = (codes[-1], *capsys.readouterr())
        written = _files(tmp_path)
        proc = _python("-m", "annodist.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process, argv[0]
        assert _files(tmp_path) == written, argv[0]
    assert codes == [0, 0, 0, 2]
    assert not (tmp_path / "bad").exists()
