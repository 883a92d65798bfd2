"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, patched  # noqa: E402


def test_self_time_subtracts_union_of_child_intervals():
    tracer = Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],  # overlaps b: the union [1, 6] is covered once
        ["d", 2.0, 3.0, 1],  # grandchild: counts against b, not a
        ["e", 9.0, 12.0, 0],  # runs past its parent: clipped to [9, 10]
    ]
    assert tracer.self_times() == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    self_s, incl_s = tracer.totals()
    assert self_s["a"] == pytest.approx(4.0) and incl_s["a"] == pytest.approx(10.0)


def test_wrapped_calls_nest_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    self_s, _ = tracer.totals()
    assert self_s == {"outer": 3.0, "inner": 2.0}
    assert tracer.counts["inner.calls"] == 2


def _annodist_modules():
    return [m for n, m in sys.modules.items() if n == "annodist" or n.startswith("annodist.")]


def test_patched_replaces_every_alias_and_restores_originals():
    import annodist
    from annodist import cli, consensus, experiments, pipeline, special, synthetic

    targets = run.trace_targets()
    originals = {id(owner.__dict__[attr]): owner.__dict__[attr]
                 for _, owner, attr, _ in targets}
    before = {(m.__name__, k): v for m in _annodist_modules() for k, v in vars(m).items()}
    tracer = Tracer()
    with patched(tracer, targets):
        for mod in _annodist_modules():
            for name, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{name} left unwrapped"
        assert cli.descriptors_arrays is experiments.descriptors_arrays
        assert cli.descriptors_arrays is consensus.descriptors_arrays
        assert synthetic.write_feature_csv is pipeline.write_feature_csv
        assert annodist.inv_reg_inc_beta is special.inv_reg_inc_beta
        assert isinstance(experiments.DatasetArrays.__dict__["from_samples"], staticmethod)
        cli.descriptors_arrays(np.array([2.0, 3.0]), np.array([5.0, 4.0]))
    assert tracer.counts["consensus.descriptors_arrays.calls"] == 1
    assert tracer.counts["consensus.descriptors_arrays.elements"] == 2
    assert tracer.counts["special.inv_reg_inc_beta.calls"] == 3
    after = {(m.__name__, k): v for m in _annodist_modules() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_patched_restores_after_an_exception():
    from annodist import consensus

    original = consensus.descriptors_arrays
    with pytest.raises(RuntimeError):
        with patched(Tracer(), run.trace_targets()):
            assert consensus.descriptors_arrays is not original
            raise RuntimeError("boom")
    assert consensus.descriptors_arrays is original


def test_errors_are_counted_and_reraised():
    from annodist import special
    from annodist.errors import DomainError

    tracer = Tracer()
    with patched(tracer, run.trace_targets()):
        with pytest.raises(DomainError):
            special.inv_reg_inc_beta(2.0, 1.0, 1.0)
    assert tracer.counts["special.inv_reg_inc_beta.errors"] == 1
    assert tracer.spans[0][2] is not None


def test_shapes_generator_is_deterministic(tmp_path):
    def make(name, seed):
        wl = workloads.Shapes(tmp_path / name, seed, nproc=1)
        wl.setup(0, run=None)
        return wl.setup_digest(), wl.windows

    a, b, c = make("a", 7), make("b", 7), make("c", 8)
    assert a[0] == b[0] and list(a[1].values()) == list(b[1].values())
    assert a[0] != c[0]


def test_program_generated_inputs_repeat_for_a_seed(tmp_path):
    runner = run.Runner(tmp_path)
    wl = workloads.Grid(tmp_path, 3, nproc=1, n_subjects=5, duration="6")
    digests = set()
    for i in range(2):
        results = wl.setup(i, runner.subprocess)
        assert run.op_errors(results) == []
        digests.add(wl.setup_digest())
    assert len(digests) == 1


def _small(name, work, seed):
    if name == "ingest":
        return workloads.Ingest(work, seed, 1, n_subjects=1, duration="12")
    if name == "shapes":
        return workloads.Shapes(work, seed, 1, n_subjects=2, segments=2)
    return workloads.Grid(work, seed, 1, n_subjects=5, duration="9", n_seeds=1)


@pytest.mark.parametrize("name", ["ingest", "shapes", "grid"])
def test_plain_run_reports_every_end_to_end_metric(tmp_path, name):
    runner = run.Runner(tmp_path)
    wl = _small(name, tmp_path, seed=5)
    setups, errors = run.set_up(wl, runner)
    assert errors == []
    result = run.measure_plain(wl, runner, seconds=0.0, setups=setups)
    assert result["errors"] == []
    assert result["failed"] == (1 if name == "shapes" else 0)  # the 0/1 split
    values = result["metrics"]
    assert list(values) == [n for n, _ in run.END_TO_END]
    assert all(v > 0 for v in values.values())
    assert values["work_s"] + values["aux_s"] <= values["iter_s"] * (1 + 1e-12)


@pytest.mark.parametrize("name", ["ingest", "shapes", "grid"])
def test_two_traced_runs_give_identical_counts(tmp_path, name):
    counted = [n for n, unit in run.PER_LAYER if unit in run.DETERMINISTIC_UNITS]
    seen = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        runner = run.Runner(work)
        wl = _small(name, work, seed=5)
        setups, errors = run.set_up(wl, runner)
        assert errors == []
        result = run.measure_traced(wl, runner, seconds=0.0, setups=setups)
        assert result["errors"] == []
        seen.append({n: result["metrics"][n] for n in counted})
    assert seen[0] == seen[1]
    assert sum(seen[0].values()) > 0


def test_window_count_oracle_matches_a_direct_enumeration():
    for last in ("149.8", "149.96", "2.9", "3", "59.75"):
        t = Fraction(last)
        direct = sum(1 for k in range(1000)
                     if k * workloads.STRIDE + workloads.WINDOW_LEN <= t)
        assert workloads.window_count(t) == direct
    assert workloads.window_count(Fraction("149.8")) == 368


def test_high_percentile_keeps_ten_samples_above():
    assert run.high_percentile(list(range(10))) is None
    pct, value = run.high_percentile(list(range(1, 21)))
    assert (pct, value) == (50.0, 10)
    pct, value = run.high_percentile(list(range(100)))
    assert pct == 90.0 and sum(v > value for v in range(100)) == 10


def test_benchmark_json_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
