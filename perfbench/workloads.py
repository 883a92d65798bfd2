"""The benchmark's workloads: seeded inputs, CLI operations and output checks.

Every workload is a closed loop with one client: it runs one ``annodist``
command at a time and waits for it.  Inputs come only from ``--seed``; the
program sees nothing but the generated files and flags.

* ``ingest``  synth -> build -> fit on the README quickstart panel shrunk
  from 20 to 2 subjects (150 s, 6 annotators, 736 windows).  No ``nn``
  work, and ``build`` makes no ``special`` calls, so it is the control for
  training and special-function changes.
* ``shapes``  ``fit`` on benchmark-written annotations whose windows are
  unanimous, near-polarised or moderate, plus one subject with an exact
  0/1 split (the known ``NumericError`` defect, counted, not hidden), and
  ``fit`` on a moderate-only control file.
* ``grid``    ``run`` with ``--jobs 1`` and ``--jobs nproc`` plus ``report``
  on an 8-subject dataset built during set-up; the only workload with
  ``nn``, ``metrics``, ``experiments`` and the process pool.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# Window grid shared by every workload (the CLI defaults).
WINDOW_LEN = Fraction("3")
STRIDE = Fraction("0.4")

# Exit codes the CLI may use for a handled failure (data / numeric error).
HANDLED_FAILURES = (2, 3)

QUANTILES = (("q25", 0.25), ("median", 0.5), ("q75", 0.75))
FIT_SAMPLE = 32  # windows per beta_fits.csv checked against scipy


@dataclass(frozen=True)
class Op:
    """One CLI command of an iteration; ``metric`` names its timing."""

    metric: str
    argv: tuple[str, ...]
    may_fail: bool = False  # a handled failure is counted, not an error


@dataclass
class OpResult:
    op: Op
    seconds: float
    rc: int
    rss_mb: float | None
    stdout: str
    stderr: str
    mark: int = 0  # Runner.machine_s index of the calibration just after it


def window_count(last_timestamp: Fraction) -> int:
    """Oracle for the window grid: k >= 0 with k*stride + len <= last."""
    if last_timestamp < WINDOW_LEN:
        return 0
    return int((last_timestamp - WINDOW_LEN) // STRIDE) + 1


def csv_rows(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def check_beta_fits(path: Path, seed: int, expected_rows: int | None) -> list[str]:
    """Row count, moment matching and scipy quantile oracle for beta_fits.csv."""
    from scipy import stats  # test-time oracle only

    rows = csv_rows(path)
    header, body = rows[0], rows[1:]
    errors = []
    if expected_rows is not None and len(body) != expected_rows:
        errors.append(f"{path.name}: {len(body)} rows, oracle says {expected_rows}")
    if not body:
        return errors + [f"{path.name}: no windows"]
    col = {name: i for i, name in enumerate(header)}
    pick = np.random.default_rng(seed).choice(
        len(body), size=min(FIT_SAMPLE, len(body)), replace=False
    )
    for i in sorted(pick):
        row = body[i]
        mu, sigma = float(row[col["mu"]]), float(row[col["sigma"]])
        a, b = float(row[col["alpha"]]), float(row[col["beta"]])
        phi = mu * (1.0 - mu) / sigma**2 - 1.0
        if not (np.isclose(a, mu * phi, rtol=1e-9) and np.isclose(b, (1 - mu) * phi, rtol=1e-9)):
            errors.append(f"{path.name}:{i + 2}: alpha/beta do not moment-match mu/sigma")
        for name, p in QUANTILES:
            x = float(row[col[name]])
            ref = float(stats.beta.ppf(p, a, b))
            close = abs(x - ref) <= 1e-12 + 1e-6 * abs(ref)
            if not (close or abs(float(stats.beta.cdf(x, a, b)) - p) <= 1e-8):
                errors.append(
                    f"{path.name}:{i + 2}: {name}={x!r}, scipy ppf={ref!r} "
                    f"(alpha={a!r}, beta={b!r})"
                )
    return errors


def classify_shapes(path: Path) -> dict[str, int]:
    """Window counts per shape regime of a beta_fits.csv."""
    rows = csv_rows(path)
    col = {name: i for i, name in enumerate(rows[0])}
    out = {"unanimous": 0, "polarised": 0, "moderate": 0}
    for row in rows[1:]:
        a, b = float(row[col["alpha"]]), float(row[col["beta"]])
        if a + b > 5e3:
            out["unanimous"] += 1
        elif max(a, b) < 0.1:
            out["polarised"] += 1
        else:
            out["moderate"] += 1
    return out


class Workload:
    """Base class: set-up directory handling and the per-iteration contract."""

    name = ""
    work_metric = "fit_s"  # the main command: gated as work_s, gives the rate
    aux_metric = ""  # the second command: gated as aux_s
    rate_name = "fit_windows_per_s"

    def __init__(self, work: Path, seed: int, nproc: int):
        self.work = Path(work)
        self.seed = seed
        self.nproc = nproc
        self.inputs: Path | None = None
        self.digests: dict[str, str] = {}
        self.quality: dict[str, float] = {}

    def setup(self, index: int, run) -> list[OpResult]:
        """Make the inputs in a fresh directory; ``run(op)`` runs a CLI op."""
        self.inputs = self.work / f"setup{index}"
        self.inputs.mkdir(parents=True, exist_ok=True)
        return []

    def setup_digest(self) -> str:
        return ""

    def ops(self, traced: bool) -> list[Op]:
        raise NotImplementedError

    def work_units(self) -> int:
        """Windows fitted (ingest, shapes) or grid cells run (grid)."""
        raise NotImplementedError

    def check(self, results: list[OpResult], traced: bool) -> list[str]:
        raise NotImplementedError

    def same_as_before(self, key: str, value: str) -> list[str]:
        """Outputs of a repeat with the same seed must be byte-identical."""
        previous = self.digests.setdefault(key, value)
        return [] if previous == value else [f"{key}: output differs from an earlier repeat"]


class Ingest(Workload):
    name = "ingest"
    aux_metric = "build_s"
    N_ANNOTATORS = 6
    FRAME_RATE = 25  # the ``synth`` defaults the row oracle relies on
    ANNOTATION_RATE = 5

    def __init__(self, work, seed, nproc, n_subjects=2, duration="150"):
        super().__init__(work, seed, nproc)
        self.n_subjects = n_subjects
        self.duration = Fraction(duration)
        self.n_frames = int(self.duration * self.FRAME_RATE)
        self.n_marks = int(self.duration * self.ANNOTATION_RATE)
        marks_windows = window_count(Fraction(self.n_marks - 1, self.ANNOTATION_RATE))
        frames_windows = window_count(Fraction(self.n_frames - 1, self.FRAME_RATE))
        self.truth_windows = n_subjects * marks_windows
        self.windows = n_subjects * min(marks_windows, frames_windows)

    def ops(self, traced):
        d, data = self.work, self.work / "data"
        return [
            Op("synth_s", ("synth", "--out", str(data), "--n-subjects", str(self.n_subjects),
                           "--duration", str(float(self.duration)),
                           "--n-annotators", str(self.N_ANNOTATORS), "--seed", str(self.seed))),
            Op("build_s", ("build", "--features", str(data / "features.csv"),
                           "--annotations", str(data / "annotations.csv"),
                           "--out", str(d / "built"))),
            Op("fit_s", ("fit", "--annotations", str(data / "annotations.csv"),
                         "--out", str(d / "fits"))),
        ]

    def work_units(self):
        return self.windows

    def check(self, results, traced):
        if any(r.rc != 0 for r in results):
            return ["ingest: an operation failed"]
        data, built, fits = self.work / "data", self.work / "built", self.work / "fits"
        expect = {
            data / "features.csv": self.n_subjects * self.n_frames,
            data / "annotations.csv": self.n_subjects * self.N_ANNOTATORS * self.n_marks,
            data / "ground_truth.csv": self.truth_windows,
            built / "dataset.csv": self.windows,
        }
        errors = []
        for path, n in expect.items():
            got = len(csv_rows(path)) - 1
            if got != n:
                errors.append(f"{path.name}: {got} rows, oracle says {n}")
        outputs = [built / "dataset.csv", fits / "beta_fits.csv"]
        first = "outputs" not in self.digests
        errors += self.same_as_before("outputs", digest(outputs))
        if first:
            # Full oracle checks once per run; later repeats must match bytes.
            errors += check_beta_fits(fits / "beta_fits.csv", self.seed, self.windows)
            ds = [r[3:5] for r in csv_rows(built / "dataset.csv")[1:]]
            bf = [r[3:5] for r in csv_rows(fits / "beta_fits.csv")[1:]]
            if ds != bf:
                errors.append("dataset.csv and beta_fits.csv disagree on (mu, sigma)")
        return errors


class Shapes(Workload):
    """Piecewise-constant integer traces (0-100) from 3 annotators.

    Each subject is a run of 6 s segments: 40% unanimous (all three raters
    on one value), 30% near-polarised (raters 1 and 99, the third silent,
    alpha = beta ~ 0.02) and 30% moderate (three distinct mid-range values).
    Windows that straddle two segments mix the regimes.  The last subject
    has one extra segment with an exact 0/100 split, which today makes
    ``annodist fit`` exit 3.  The fits of these files are ``work_s``.  The
    control file (subject 0) has only moderate segments, 4 times as many;
    its fit is ``aux_s``, so a change that speeds up only the extreme
    regimes moves ``work_s`` and leaves ``aux_s`` alone.
    """

    name = "shapes"
    aux_metric = "control_fit_s"
    RATE = 4  # samples per second
    SEGMENT = 6  # seconds
    REGIMES = ("unanimous",) * 4 + ("polarised",) * 3 + ("moderate",) * 3
    # The control file is this many times longer, so that its fit is mostly
    # quantile work rather than CLI start-up.
    CONTROL_SCALE = 4
    CONTROL = "subject00"

    def __init__(self, work, seed, nproc, n_subjects=5, segments=10):
        super().__init__(work, seed, nproc)
        self.n_subjects = n_subjects
        self.segments = segments
        self.shares: dict[str, int] = {}

    def subject_segments(self, s: int) -> list[str]:
        if s == 0:  # the control file
            return ["moderate"] * (self.CONTROL_SCALE * self.segments)
        rng = np.random.default_rng([self.seed, s])
        regimes = [self.REGIMES[i % len(self.REGIMES)] for i in range(self.segments)]
        order = [regimes[i] for i in rng.permutation(len(regimes))]
        if s == self.n_subjects:  # the 0/1-split subject
            order.insert(len(order) // 2, "split")
        return order

    def write_subject(self, path: Path, s: int) -> int:
        """Write one subject's CSV; returns its number of windows."""
        rng = np.random.default_rng([self.seed, s, 1])
        per_seg = self.SEGMENT * self.RATE
        rows = []
        segments = self.subject_segments(s)
        for k, regime in enumerate(segments):
            if regime == "unanimous":
                values = [int(rng.integers(5, 96))] * 3
            elif regime == "polarised":
                values = [1, 99, None]
            elif regime == "split":
                values = [0, 100, None]
            else:
                centre = int(rng.integers(30, 71))
                values = [centre - int(rng.integers(8, 20)), centre,
                          centre + int(rng.integers(8, 20))]
            for j in range(per_seg):
                t = Fraction(k * per_seg + j, self.RATE)
                for a, v in enumerate(values):
                    if v is not None:
                        rows.append((a, t, v))
        rows.sort(key=lambda r: (r[0], r[1]))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["subject_id", "annotator_id", "timestamp", "value"])
            for a, t, v in rows:
                writer.writerow([f"x{s:02d}", f"r{a}", repr(float(t)), v])
        return window_count(Fraction(len(segments) * per_seg - 1, self.RATE))

    def setup(self, index, run):
        super().setup(index, run)
        self.windows = {}
        for s in range(self.n_subjects + 1):
            path = self.inputs / f"subject{s:02d}.csv"
            self.windows[path] = self.write_subject(path, s)
        return []

    def setup_digest(self):
        return digest(sorted(self.windows))

    def ops(self, traced):
        return [
            Op(self.aux_metric if path.stem == self.CONTROL else self.work_metric,
               ("fit", "--annotations", str(path), "--label-range", "0", "100",
                "--out", str(self.work / f"fits_{path.stem}")), may_fail=True)
            for path in sorted(self.windows)
        ]

    def work_units(self):
        return sum(n for path, n in self.windows.items() if path.stem != self.CONTROL)

    def check(self, results, traced):
        errors = []
        shares = {"unanimous": 0, "polarised": 0, "moderate": 0}
        for r, path in zip(results, sorted(self.windows)):
            fits = self.work / f"fits_{path.stem}" / "beta_fits.csv"
            key = f"fit {path.name}"
            if r.rc != 0:
                errors += self.same_as_before(key, f"rc={r.rc}")
                continue
            first = key not in self.digests
            errors += self.same_as_before(key, digest([fits]))
            if first:
                errors += check_beta_fits(fits, self.seed, self.windows[path])
            if path.stem == self.CONTROL:
                continue  # not part of the stated mix
            for regime, n in classify_shapes(fits).items():
                shares[regime] += n
        self.shares = shares
        return errors


class Grid(Workload):
    name = "grid"
    work_metric = "run_s"
    aux_metric = "run_par_s"
    rate_name = "cells_per_s"
    MODELS = 3 + 5  # moment variants + point baselines (the CLI defaults)
    N_ANNOTATORS = 3
    K_FOLDS = 5

    def __init__(self, work, seed, nproc, n_subjects=8, duration="10", n_seeds=2):
        super().__init__(work, seed, nproc)
        self.n_subjects = n_subjects
        self.duration = duration
        self.n_seeds = n_seeds

    def setup(self, index, run):
        super().setup(index, run)
        data = self.inputs / "data"
        results = [
            run(Op("synth", ("synth", "--out", str(data), "--n-subjects", str(self.n_subjects),
                             "--duration", self.duration, "--n-annotators",
                             str(self.N_ANNOTATORS), "--seed", str(self.seed)))),
            run(Op("build", ("build", "--features", str(data / "features.csv"),
                             "--annotations", str(data / "annotations.csv"),
                             "--out", str(self.inputs / "built")))),
        ]
        return results

    def setup_digest(self):
        return digest([self.inputs / "built" / "dataset.csv"])

    def _run(self, out: str, jobs: int, metric: str) -> Op:
        return Op(metric, ("run", "--dataset", str(self.inputs / "built"),
                           "--out", str(self.work / out), "--k-folds", str(self.K_FOLDS),
                           "--n-seeds", str(self.n_seeds), "--master-seed", str(self.seed),
                           "--jobs", str(jobs)))

    def ops(self, traced):
        ops = [self._run("run_serial", 1, self.work_metric)]
        if not traced:
            ops.append(self._run("run_par", self.nproc, self.aux_metric))
        ops.append(Op("report_s", ("report", "--run", str(self.work / "run_serial"))))
        return ops

    def work_units(self):
        return self.MODELS * self.K_FOLDS * self.n_seeds

    def report_files(self, out: str) -> list[Path]:
        d = self.work / out
        return sorted(p for p in d.iterdir() if p.name != "manifest.json")

    def check(self, results, traced):
        if any(r.rc != 0 for r in results):
            return ["grid: an operation failed: " + "; ".join(
                f"{r.op.metric} rc={r.rc} {r.stderr.strip()[-300:]}" for r in results if r.rc)]
        errors = []
        serial = self.report_files("run_serial")
        names = [p.name for p in serial]
        if "density_data.csv" not in names or "summary.json" not in names:
            errors.append(f"grid: report files missing, got {names}")
        errors += self.same_as_before("report", digest(serial))
        if not traced:
            par = self.report_files("run_par")
            if [p.name for p in par] != names or digest(par) != digest(serial):
                errors.append("grid: --jobs 1 and --jobs nproc reports differ")
        summary = json.loads((self.work / "run_serial" / "summary.json").read_text())
        if summary["grid"]["failures"]:
            return errors + [f"grid: {len(summary['grid']['failures'])} failed cells"]
        if summary["grid"]["cells"] != self.work_units():
            errors.append(f"grid: {summary['grid']['cells']} cells, expected {self.work_units()}")
        if f"grid: {self.work_units()} cells" not in results[-1].stdout:
            errors.append("grid: report does not show the grid")
        variant = summary["grid"]["models"][0]
        self.quality = {
            "ccc_mu": summary["significance"]["ccc_mu"][variant]["mean"],
            "kl_truth_pred": summary["kl_means"][variant]["vs_truth_beta"],
        }
        if not (-1.0 <= self.quality["ccc_mu"] <= 1.0 and self.quality["kl_truth_pred"] >= 0.0):
            errors.append(f"grid: quality guards out of range: {self.quality}")
        return errors


WORKLOADS = {w.name: w for w in (Ingest, Shapes, Grid)}
