"""A CLI process runs BLAS on one thread, ends on a closed stdout as other
writers to a pipe do, and ends without the interpreter's final garbage
collection.

``python -m annodist.cli`` and the ``annodist`` console script both run
``cli.entry``, which sets ``OPENBLAS_NUM_THREADS=1`` before ``main`` loads
NumPy unless the caller set a BLAS thread count, restores the default
``SIGPIPE`` action, and freezes the collector once ``main`` has returned.
Each check runs a fresh interpreter: the thread setting and the freeze are in
place when ``atexit`` hooks run, a caller's thread count is kept, an
in-process ``main`` leaves the collector and ``os.environ`` alone, a command
run as a process prints, writes and returns exactly what the same command run
in-process does, and one whose stdout is closed writes every file and is
killed by ``SIGPIPE`` with nothing on stderr.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
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
# hook prints, as the last line of stdout, the collector's state, the BLAS
# thread variables and the process's thread count (None where the OS has no
# /proc/self/status).
_AT_EXIT = """
import atexit, gc, json, os, runpy, sys
def report():
    threads = None
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status") as fh:
            threads = int(next(l for l in fh if l.startswith("Threads:")).split()[1])
    print("at exit:", json.dumps({{
        "frozen": gc.get_freeze_count() > 0, "enabled": gc.isenabled(),
        "variables": {{v: os.environ.get(v) for v in {variables!r}}},
        "threads": threads}}))
atexit.register(report)
sys.argv = ["annodist", *{argv!r}]
{launch}
"""

# Runs ``main`` in-process and prints the collector's state afterwards, and
# whether ``os.environ`` is what it was before.
_IN_PROCESS = """
import gc, os
from annodist.cli import main
before = dict(os.environ)
code = main({argv!r})
print("after main:", code, gc.get_freeze_count(), gc.isenabled(), dict(os.environ) == before)
"""

# Where OpenBLAS starts its pthreads pool as NumPy loads, the pool's threads
# show in /proc/self/status (an OpenMP build starts its threads later).
_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
_POOL_COUNTED = (sys.platform == "linux" and "openblas" in _BLAS["name"].lower()
                 and "USE_OPENMP" not in (_BLAS.get("openblas configuration") or ""))


def _python(*args, blas_env=None):
    """Run a fresh interpreter on ``args``.  Given ``blas_env``, its BLAS
    thread variables are those of ``blas_env`` alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if blas_env is not None:
        for var in cli.BLAS_THREAD_VARS:
            env.pop(var, None)
        env.update(blas_env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def _at_exit(entry_point, argv, blas_env):
    """Run ``argv`` through ``entry_point``; the process and what its atexit
    hook saw."""
    proc = _python("-c", _AT_EXIT.format(argv=[str(a) for a in argv],
                                         launch=_LAUNCH[entry_point],
                                         variables=cli.BLAS_THREAD_VARS),
                   blas_env=blas_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("at exit: ")
    return proc, json.loads(last[len("at exit: "):])


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
    argv = ["fit", "--annotations", annotations, "--out", out]
    proc, seen = _at_exit(entry_point, argv, blas_env=None)
    assert proc.stdout.splitlines()[0].startswith(f"beta fits: {out / 'beta_fits.csv'} (")
    assert (seen["frozen"], seen["enabled"]) == (True, True)


# A caller's BLAS thread variables, those the process then runs with, and
# the threads OpenBLAS then starts.
_THREAD_CASES = {
    "unset": ({}, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    "openblas_2": ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}, 2),
    "omp_2": ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}, 2),
}


@pytest.mark.parametrize("entry_point", sorted(_LAUNCH))
@pytest.mark.parametrize("case", sorted(_THREAD_CASES))
def test_entry_points_run_blas_on_one_thread_unless_told(panel, tmp_path, entry_point,
                                                         case):
    given, kept, threads = _THREAD_CASES[case]
    annotations, _ = panel
    out = tmp_path / "fit"
    _, seen = _at_exit(entry_point, ["fit", "--annotations", annotations, "--out", out],
                       blas_env=given)
    expected = {var: kept.get(var) for var in cli.BLAS_THREAD_VARS}
    assert seen["variables"] == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert {var: manifest["environment"]["blas"][var] for var in expected} == expected
    if _POOL_COUNTED and cli._usable_cores() >= threads:
        assert seen["threads"] == threads


def test_in_process_main_keeps_the_collector(panel, tmp_path):
    annotations, _ = panel
    argv = ["fit", "--annotations", str(annotations), "--out", str(tmp_path / "fit")]
    proc = _python("-c", _IN_PROCESS.format(argv=argv), blas_env={})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "after main: 0 0 True True"


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_process_output_equals_in_process_output(panel, tmp_path, capsys, monkeypatch):
    annotations, built = panel
    # The process sets OPENBLAS_NUM_THREADS=1 itself; in-process, main finds it
    # set, so both manifests record the same variables.
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
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
        proc = _python("-m", "annodist.cli", *argv, blas_env={})
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process, argv[0]
        assert _files(tmp_path) == written, argv[0]
    assert codes == [0, 0, 0, 2]
    assert not (tmp_path / "bad").exists()


def test_a_closed_stdout_ends_the_process_by_sigpipe(panel, tmp_path):
    """``annodist synth ... | head -0``: the command writes every file, then
    ends as head's other writers do, killed by SIGPIPE with nothing on stderr,
    whether stdout is buffered or not."""
    _, built = panel
    synth = ["synth", "--n-subjects", "2", "--duration", "4", "--out"]
    run = tmp_path / "run"
    assert cli.main(["run", "--dataset", str(built), "--out", str(run), "--k-folds", "3",
                     "--n-seeds", "1", "--max-epochs", "2", "--variants", "fully_shared",
                     "--baselines", "--density-windows", "0", "--jobs", "1"]) == 0
    assert cli.main([*synth, str(tmp_path / "want")]) == 0

    def written(root):  # every file but the manifest, which must be there
        files = _files(root)
        files.pop(Path("manifest.json"))
        return files

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for unbuffered in (False, True):
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        got = tmp_path / f"got_{unbuffered}"
        for argv in ([*synth, got], ["report", "--run", run]):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run([sys.executable, "-m", "annodist.cli",
                                       *map(str, argv)], stdout=write,
                                      stderr=subprocess.PIPE, text=True, env=env)
            finally:
                os.close(write)
            assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, ""), argv[0]
        assert written(got) == written(tmp_path / "want")
