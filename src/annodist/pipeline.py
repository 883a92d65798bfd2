"""Ingestion and preprocessing: windowing, aggregation, consensus targets.

Frame-level features and annotation traces are cut into half-open windows
``[start, start + window_len)`` on a shared stride grid (start = k * stride,
requiring full coverage: start + window_len <= duration), all windows of a
stream at once.  Features are averaged per window and concatenated across
modalities; annotations are averaged per annotator within the window and
reduced to clamped consensus moments across annotators.  The windows travel
as one columnar :class:`WindowTable`, from :func:`build_dataset` through
:func:`write_dataset`/:func:`read_dataset` to the experiment grid.

CSV interfaces
--------------
* features:     header ``subject_id,modality,timestamp,f0,...,fK``; rows
  have at least one feature cell, empty cells are ignored, and NaN features
  are allowed (NaN frames are dropped at windowing).
* annotations:  header ``subject_id,annotator_id,timestamp,value``, exactly
  4 columns, finite values.
* built dataset: ``subject_id,window_start,n_annotators,mu,sigma,f0,...`` plus
  a JSON manifest (label range, modality dims, window config, subjects).
  Rows must be as wide as the header, with an integer ``n_annotators``,
  finite numbers and ``sigma >= 0``.

Timestamps are finite seconds as decimals.  Files are UTF-8: a CSV or
JSON file that is not raises a :class:`~annodist.errors.SchemaError`
naming its file and the line of its first bad byte.  Every CSV is read
through :func:`_csv_rows` (header check, blank rows skipped),
:func:`_check_width` and :func:`_parse_numbers`, and written through
:func:`write_csv`; the annotation reader parses its two numeric columns
with NumPy and checks row by row only when that fails.  A malformed row
raises a :class:`~annodist.errors.SchemaError` naming its file and line.
Every JSON file (config, manifest, run summary) is read through
:func:`read_json` and written through :func:`write_json`.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .consensus import DEFAULT_EPSILON, clamp_moments_arrays
from .errors import (
    POSITIVE,
    DataError,
    DomainError,
    EmptyDatasetError,
    InsufficientDataError,
    SchemaError,
    check_fields,
)

log = logging.getLogger(__name__)

_TIME_TOL = 1e-9
# Rows the annotation reader holds as strings at once; bounds its memory.
_CHUNK_ROWS = 512

_FEATURE_COLUMNS = ["subject_id", "modality", "timestamp"]
_ANNOTATION_COLUMNS = ["subject_id", "annotator_id", "timestamp", "value"]
_DATASET_COLUMNS = ["subject_id", "window_start", "n_annotators", "mu", "sigma"]


def fmt_float(x) -> str:
    """Shortest exact decimal form; keeps CSV output byte-reproducible."""
    return repr(float(x))


@dataclass(frozen=True)
class WindowConfig:
    """Windowing parameters: 3 s windows shifted by 400 ms by default."""

    window_len: float = 3.0
    stride: float = 0.4
    label_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        check_fields(
            self, window_len=POSITIVE,
            stride=(lambda v: 0.0 < v <= self.window_len,
                    f"in (0, window_len={self.window_len!r}]"),
            label_range=(lambda r: len(r) == 2 and r[1] > r[0], "(lo, hi) with hi > lo"),
        )


@dataclass(frozen=True)
class FrameSeries:
    """One modality's frame-level feature stream for one subject."""

    subject_id: str
    timestamps: np.ndarray
    features: np.ndarray
    modality: str

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or ts.ndim != 1 or feats.shape[0] != ts.size:
            raise DomainError("FrameSeries: features must be (n_frames, dim)")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise DomainError(
                f"FrameSeries[{self.subject_id}/{self.modality}]: "
                "timestamps must be strictly increasing"
            )
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "features", feats)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class AnnotationTrace:
    """One annotator's continuous trace for one subject."""

    subject_id: str
    annotator_id: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if ts.ndim != 1 or vals.ndim != 1 or ts.size != vals.size:
            raise DomainError("AnnotationTrace: timestamps/values must align")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise DomainError(
                f"AnnotationTrace[{self.subject_id}/{self.annotator_id}]: "
                "timestamps must be strictly increasing"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError(
                f"AnnotationTrace[{self.subject_id}/{self.annotator_id}]: "
                "values must be finite"
            )
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class WindowTable:
    """Columnar windowed dataset, one row per (subject, window): clamped
    consensus moments and ``(n, dim)`` feature means (``dim`` 0 if none)."""

    subjects: np.ndarray
    starts: np.ndarray
    n_annotators: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    x: np.ndarray

    def __len__(self) -> int:
        return self.starts.size


@dataclass
class BuildReport:
    """Counts and provenance gathered while building a windowed dataset."""

    n_samples: int = 0
    windows_skipped_empty: int = 0
    windows_dropped_few_annotators: int = 0
    windows_unmatched: int = 0
    subjects: list[str] = field(default_factory=list)
    modality_dims: dict[str, int] = field(default_factory=dict)


def window_starts(duration: float, cfg: WindowConfig) -> np.ndarray:
    """All window starts k * stride with k*stride + window_len <= duration."""
    count = int(np.floor((duration - cfg.window_len + _TIME_TOL) / cfg.stride)) + 1
    if count <= 0:
        return np.empty(0, dtype=np.float64)
    return np.arange(count, dtype=np.float64) * cfg.stride


def _window_means(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``values[lo[i]:hi[i]].mean(axis=0)`` for every window i; NaN if empty.

    Equal-count windows are averaged as gathered ``(windows, count[, dim])``
    blocks of at most 32 windows (bounding the temporary) along axis 1, which
    sums in the slice's own order: the bits match (``np.add.reduceat``'s not).
    """
    counts = hi - lo
    out = np.full(lo.shape + values.shape[1:], np.nan)
    for count in set(counts.tolist()) - {0}:
        same = np.flatnonzero(counts == count)
        for at in range(0, same.size, 32):
            rows = same[at:at + 32]
            out[rows] = values[lo[rows, None] + np.arange(count)].mean(axis=1)
    return out


def window_features(
    series: FrameSeries, cfg: WindowConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-window mean feature vectors; returns (starts, means, skipped_starts).

    ``means`` is ``(len(starts), dim)``.  Frames containing NaN are dropped
    before averaging; a window with no remaining frames is skipped and
    reported.
    """
    if series.timestamps.size == 0:
        log.warning(
            "window_features: empty series %s/%s", series.subject_id, series.modality
        )
        return np.empty(0), np.empty((0, series.dim)), np.empty(0)
    keep = ~np.any(np.isnan(series.features), axis=1)
    ts = series.timestamps[keep]
    starts = window_starts(float(series.timestamps[-1]), cfg)
    lo = np.searchsorted(ts, starts, side="left")
    hi = np.searchsorted(ts, starts + cfg.window_len, side="left")
    full = hi > lo
    skipped = starts[~full]
    if skipped.size:
        log.warning(
            "window_features: %s/%s skipped %d empty windows",
            series.subject_id, series.modality, skipped.size,
        )
    means = _window_means(series.features[keep], lo[full], hi[full])
    return starts[full], means, skipped


def rescale_annotations(
    trace: AnnotationTrace, label_range: tuple[float, float]
) -> AnnotationTrace:
    """Linearly map values from [lo, hi] onto [0, 1]; order preserving."""
    lo, hi = label_range
    if not hi > lo:
        raise DomainError("rescale_annotations: label range must satisfy hi > lo")
    bad = (trace.values < lo) | (trace.values > hi)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(
            f"rescale_annotations: value {trace.values[i]!r} outside "
            f"[{lo}, {hi}] for annotator {trace.annotator_id!r} "
            f"at t={trace.timestamps[i]!r}"
        )
    return AnnotationTrace(
        trace.subject_id,
        trace.annotator_id,
        trace.timestamps,
        (trace.values - lo) / (hi - lo),
    )


def window_consensus(
    traces: list[AnnotationTrace],
    cfg: WindowConfig,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[WindowTable, dict[str, np.ndarray]]:
    """Clamped consensus moments per window, for every subject in ``traces``.

    Returns a consensus-only :class:`WindowTable` ordered by subject and start,
    and each subject's dropped window starts.  Each annotator's in-window
    values are averaged to one scalar first, so sigma measures pure
    inter-annotator disagreement.  Annotators without a sample in a window
    are excluded; windows with fewer than two of them are dropped.
    """
    by_subject: dict[str, list[AnnotationTrace]] = {}
    for tr in traces:
        if np.any(tr.values < 0.0) or np.any(tr.values > 1.0):
            raise DomainError(
                f"window_consensus: annotator {tr.annotator_id!r} has values "
                "outside [0, 1]; rescale first"
            )
        group = by_subject.setdefault(tr.subject_id, [])
        if any(t.annotator_id == tr.annotator_id for t in group):
            raise DomainError(
                f"window_consensus: duplicate trace for subject "
                f"{tr.subject_id!r} annotator {tr.annotator_id!r}"
            )
        group.append(tr)
    groups = sorted(by_subject.items())
    grids = [
        window_starts(
            max(float(tr.timestamps[-1]) for tr in group if tr.timestamps.size), cfg
        )
        for _, group in groups
    ]
    sizes = [grid.size for grid in grids]
    # Per-annotator window means of every subject, NaN where an annotator has
    # no sample (or the subject has fewer annotators than the widest one).
    means = np.full((sum(sizes), max(map(len, by_subject.values()), default=0)),
                     np.nan)
    at = 0
    for (subject, group), grid in zip(groups, grids):
        if len(group) < 2:
            raise InsufficientDataError(
                f"window_consensus: subject {subject!r} needs >= 2 annotation "
                f"traces, got {len(group)}"
            )
        for j, tr in enumerate(group):
            lo = np.searchsorted(tr.timestamps, grid, side="left")
            hi = np.searchsorted(tr.timestamps, grid + cfg.window_len, side="left")
            means[at:at + grid.size, j] = _window_means(tr.values, lo, hi)
        at += grid.size
    present = ~np.isnan(means)
    count = present.sum(axis=1)
    mu, sigma = np.empty(count.size), np.empty(count.size)
    for k in set(count.tolist()) - {0, 1}:
        rows = np.flatnonzero(count == k)
        # Each window's contributing annotators, in trace order.
        block = means[rows][present[rows]].reshape(rows.size, k)
        mu[rows], sigma[rows] = block.mean(axis=1), block.std(axis=1)
    subjects = np.repeat(np.array([s for s, _ in groups], dtype=str), sizes)
    starts = np.concatenate([np.empty(0)] + grids)  # valid without traces too
    kept = count >= 2
    mu, sigma = clamp_moments_arrays(mu[kept], sigma[kept], epsilon)
    table = WindowTable(subjects[kept], starts[kept], count[kept], mu, sigma,
                        np.empty((mu.size, 0)))
    return table, {s: starts[~kept & (subjects == s)] for s, _ in groups}


def build_dataset(
    features: list[FrameSeries],
    annotations: list[AnnotationTrace],
    cfg: WindowConfig,
    modalities: list[str] | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[WindowTable, BuildReport]:
    """Join windowed features with consensus targets on (subject, window).

    Feature vectors are concatenated across the selected modalities in the
    given order (sorted set of all modalities when unspecified).  Windows
    present on only one side are dropped and counted.
    """
    by_key: dict[tuple[str, str], FrameSeries] = {}
    for fs in features:
        key = (fs.subject_id, fs.modality)
        if key in by_key:
            raise DomainError(f"build_dataset: duplicate feature series {key}")
        by_key[key] = fs
    if modalities is None:
        modalities = sorted({fs.modality for fs in features})
    else:
        known = {fs.modality for fs in features}
        missing = [m for m in modalities if m not in known]
        if missing:
            raise DomainError(f"build_dataset: unknown modalities {missing}")

    feat_subjects = {
        s for s in {fs.subject_id for fs in features}
        if all((s, m) in by_key for m in modalities)
    }
    subjects = sorted(feat_subjects & {tr.subject_id for tr in annotations})
    if not subjects:
        raise EmptyDatasetError(
            "build_dataset: no subjects with both features and annotations"
        )

    report = BuildReport(subjects=subjects, modality_dims={
        m: by_key[(subjects[0], m)].dim for m in modalities
    })
    targets, dropped = window_consensus(
        [tr for tr in annotations if tr.subject_id in subjects], cfg, epsilon
    )
    report.windows_dropped_few_annotators = sum(d.size for d in dropped.values())
    target_ks = np.rint(targets.starts / cfg.stride).astype(np.int64)
    rows, xs = [], []
    for subject in subjects:
        ks, means = [], []
        for m in modalities:
            fs = by_key[(subject, m)]
            if fs.dim != report.modality_dims[m]:
                raise DomainError(
                    f"build_dataset: modality {m!r} dim mismatch for "
                    f"subject {subject!r}"
                )
            starts, mean, skipped = window_features(fs, cfg)
            report.windows_skipped_empty += skipped.size
            ks.append(np.rint(starts / cfg.stride).astype(np.int64))
            means.append(mean)
        feat_ks = set.intersection(*(set(k.tolist()) for k in ks))
        mine = np.flatnonzero(targets.subjects == subject)
        target_set = set(target_ks[mine].tolist())
        common = np.array(sorted(feat_ks & target_set), dtype=np.int64)
        report.windows_unmatched += len(feat_ks | target_set) - common.size
        rows.append(mine[np.searchsorted(target_ks[mine], common)])
        xs.append(np.hstack([f[np.searchsorted(k, common)] for k, f in zip(ks, means)]))
    rows = np.concatenate(rows)
    table = WindowTable(targets.subjects[rows], targets.starts[rows],
                        targets.n_annotators[rows], targets.mu[rows],
                        targets.sigma[rows], np.concatenate(xs))
    report.n_samples = len(table)
    return table, report


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def _decode_utf8(path, raw: bytes) -> str:
    """``raw``, the whole content of the file at ``path``, as UTF-8 text; a
    :class:`SchemaError` names the line of the first byte that is not."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise SchemaError(f"{path}:{line}: not UTF-8 text") from None


def _csv_rows(path, prefix: list[str]):
    """Yield ``(line_no, row)`` for the header (line 1) and then every
    non-blank row of a UTF-8 CSV whose header must start with ``prefix``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:len(prefix)] != prefix:
                raise SchemaError(
                    f"{path}:1: expected header starting with {','.join(prefix)!r}, "
                    f"got {','.join(header) if header else '<empty>'!r}"
                )
            yield 1, header
            for line_no, row in enumerate(reader, start=2):
                if row:
                    yield line_no, row
    except UnicodeDecodeError:
        # The text layer decodes in chunks, so the error's offset is
        # relative to one chunk: find the line in the whole file.
        _decode_utf8(path, Path(path).read_bytes())
        raise


def _check_width(path, line_no: int, row: list[str], width: int,
                 at_least: bool = False) -> None:
    if len(row) != width and not (at_least and len(row) > width):
        raise SchemaError(
            f"{path}:{line_no}: expected {'at least ' * at_least}{width} "
            f"columns, got {len(row)}"
        )


def _parse_numbers(path, line_no: int, cells: list[str], n_finite: int,
                   names) -> list[float]:
    """``cells`` as floats, the first ``n_finite`` of them finite.

    The row is parsed with one ``map``; only when that fails are the cells
    walked, to name the bad one from ``names()``, their column names.
    """
    try:
        values = list(map(float, cells))
        if all(map(math.isfinite, values[:n_finite])):
            return values
    except ValueError:
        pass
    for i, (name, text) in enumerate(zip(names(), cells)):
        try:
            value = float(text)
        except ValueError:
            value = None
        if value is None or (i < n_finite and not math.isfinite(value)):
            raise SchemaError(
                f"{path}:{line_no}: column {name!r} is not "
                f"{'a number' if value is None else 'finite'}: {text!r}"
            )


def write_csv(path, header: list[str], rows) -> Path:
    """Write ``header`` and then ``rows`` (cells already formatted) as UTF-8."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def read_json(path) -> dict:
    """The JSON object in a UTF-8 file.

    A file that is not UTF-8, not valid JSON, or whose top level is not an
    object raises a :class:`DataError` naming its file and line.
    """
    text = _decode_utf8(path, Path(path).read_bytes())
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        line, what = exc.lineno, f"invalid JSON: {exc.msg} (column {exc.colno})"
    else:
        if isinstance(obj, dict):
            return obj
        line = text[: len(text) - len(text.lstrip())].count("\n") + 1
        what = "the top level is not a JSON object"
    raise DataError(f"{path}:{line}: {what}")


def write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON, indented by 2 with sorted keys and a
    final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sorted_series(path, groups: dict, noun: str):
    """Yield ``(ids, timestamps, values)`` for each ``ids -> [(t, line,
    values)]`` group of a series CSV, sorted by ids and then by time; raise
    on a repeated timestamp."""
    for ids, rows in sorted(groups.items()):
        rows.sort(key=lambda r: r[0])
        ts = np.array([r[0] for r in rows])
        dup = np.flatnonzero(np.diff(ts) <= 0)
        if dup.size:
            first, again = rows[dup[0]], rows[dup[0] + 1]
            raise SchemaError(
                f"{path}:{again[1]}: duplicate timestamp {again[0]!r} in {noun} "
                f"{ids[0]}/{ids[1]} (first on line {first[1]})"
            )
        yield ids, ts, np.array([r[2] for r in rows])


def read_feature_csv(path) -> list[FrameSeries]:
    """Read a feature CSV into one FrameSeries per (subject, modality)."""
    path = Path(path)
    groups: dict[tuple[str, str], list[tuple[float, int, list[float]]]] = {}
    rows = _csv_rows(path, _FEATURE_COLUMNS)
    next(rows)
    for line_no, row in rows:
        _check_width(path, line_no, row, 4, at_least=True)
        cells = row[2:]
        if "" in cells:  # empty feature cells are ignored
            cells = [v for i, v in enumerate(cells) if v or not i]
        values = _parse_numbers(path, line_no, cells, 1, lambda: ["timestamp"] + [
            f"f{i}" for i, v in enumerate(row[3:]) if v])
        group = groups.setdefault((row[0], row[1]), [])
        if group and len(values) != len(group[0][2]) + 1:
            raise SchemaError(
                f"{path}:{line_no}: feature dimension differs from line "
                f"{group[0][1]} ({len(group[0][2])}) in series {row[0]}/{row[1]}"
            )
        group.append((values[0], line_no, values[1:]))
    series = _sorted_series(path, groups, "series")
    return [FrameSeries(subject, ts, x, modality)
            for (subject, modality), ts, x in series]


def read_annotation_csv(path) -> list[AnnotationTrace]:
    """Read an annotation CSV into one AnnotationTrace per (subject, annotator).

    Rows are taken in chunks; each chunk's timestamp and value columns are
    parsed by NumPy, one call each, and the series are split by one stable
    sort.  Only when a row is malformed or a series repeats a timestamp is
    the file walked row by row, to name the first bad row with its line.
    """
    path = Path(path)
    rows = _csv_rows(path, _ANNOTATION_COLUMNS)
    _check_width(path, *next(rows), 4)
    code: dict[tuple[str, str], int] = {}
    chunks = []
    while chunk := [row for _, row in itertools.islice(rows, _CHUNK_ROWS)]:
        columns = _annotation_columns(chunk, code)
        if columns is None:
            return _walk_annotation_rows(path)
        chunks.append(columns)
    if not chunks:
        return []
    ids = sorted(code)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[[code[key] for key in ids]] = np.arange(len(ids))
    ts, values, codes = (np.concatenate(c) for c in zip(*chunks))
    codes = rank[codes]
    # Stable: a series' rows keep file order among equal timestamps.
    order = np.lexsort((ts, codes))
    ts, values, codes = ts[order], values[order], codes[order]
    if np.any((np.diff(ts) <= 0) & (np.diff(codes) == 0)):
        return _walk_annotation_rows(path)
    bounds = np.searchsorted(codes, np.arange(len(ids) + 1))
    return [AnnotationTrace(subject, annotator, ts[lo:hi], values[lo:hi])
            for (subject, annotator), lo, hi in zip(ids, bounds, bounds[1:])]


def _annotation_columns(rows: list[list[str]], code: dict):
    """(timestamps, values, series codes) of well-formed annotation rows,
    adding new (subject, annotator) pairs to ``code``; None if any row is
    malformed."""
    if set(map(len, rows)) != {4}:
        return None
    subjects, annotators, t, v = zip(*rows)
    try:
        ts, values = np.array(t, dtype=np.float64), np.array(v, dtype=np.float64)
    except ValueError:
        return None
    if not (np.isfinite(ts).all() and np.isfinite(values).all()):
        return None
    for key in set(zip(subjects, annotators)) - code.keys():
        code[key] = len(code)
    return ts, values, np.fromiter(map(code.__getitem__, zip(subjects, annotators)),
                                   np.intp, len(t))


def _walk_annotation_rows(path) -> list[AnnotationTrace]:
    """:func:`read_annotation_csv` row by row; raises at the first malformed
    row or repeated timestamp."""
    groups: dict[tuple[str, str], list[tuple[float, int, float]]] = {}
    names = lambda: _ANNOTATION_COLUMNS[2:]  # noqa: E731
    rows = _csv_rows(path, _ANNOTATION_COLUMNS)
    next(rows)
    for line_no, row in rows:
        _check_width(path, line_no, row, 4)
        t, v = _parse_numbers(path, line_no, row[2:], 2, names)
        groups.setdefault((row[0], row[1]), []).append((t, line_no, v))
    traces = _sorted_series(path, groups, "trace")
    return [AnnotationTrace(subject, annotator, ts, values)
            for (subject, annotator), ts, values in traces]


def write_feature_csv(path, series: list[FrameSeries]) -> None:
    max_dim = max((fs.dim for fs in series), default=0)
    write_csv(path, _FEATURE_COLUMNS + [f"f{i}" for i in range(max_dim)], (
        [fs.subject_id, fs.modality, fmt_float(t)] + [fmt_float(v) for v in vec]
        for fs in series for t, vec in zip(fs.timestamps, fs.features)
    ))


def write_annotation_csv(path, traces: list[AnnotationTrace]) -> None:
    write_csv(path, _ANNOTATION_COLUMNS, (
        [tr.subject_id, tr.annotator_id, fmt_float(t), fmt_float(v)]
        for tr in traces for t, v in zip(tr.timestamps, tr.values)
    ))


def write_dataset(
    outdir, table: WindowTable, report: BuildReport, cfg: WindowConfig
) -> Path:
    """Write the window table plus its provenance manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    dim = table.x.shape[1] if len(table) else 0
    path = write_csv(outdir / "dataset.csv", _DATASET_COLUMNS + [
        f"f{i}" for i in range(dim)
    ], zip(table.subjects.tolist(), map(fmt_float, table.starts),
           table.n_annotators.tolist(),
           *(map(fmt_float, col) for col in (table.mu, table.sigma, *table.x.T))))
    manifest = {
        "label_range": list(cfg.label_range),
        "window": {"window_len": cfg.window_len, "stride": cfg.stride},
        "modality_dims": report.modality_dims,
        "subjects": report.subjects,
        "counts": {
            "samples": report.n_samples,
            "windows_skipped_empty": report.windows_skipped_empty,
            "windows_dropped_few_annotators": report.windows_dropped_few_annotators,
            "windows_unmatched": report.windows_unmatched,
        },
    }
    write_json(outdir / "dataset_manifest.json", manifest)
    return path


def read_dataset(path) -> tuple[WindowTable, dict]:
    """Read a built dataset table (and its manifest when present).

    Each row is checked as it loads, and the first bad one raises a
    :class:`SchemaError` naming its file and line: the row must be as wide
    as the header, ``n_annotators`` an integer, ``window_start``, ``mu``,
    ``sigma`` and every feature finite, and ``sigma`` non-negative.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "dataset.csv"
    subjects, n_annot, numbers = [], [], []
    rows = _csv_rows(path, _DATASET_COLUMNS)
    _, header = next(rows)
    names = lambda: header[1:]  # noqa: E731
    for line_no, row in rows:
        _check_width(path, line_no, row, len(header))
        try:
            n_annot.append(int(row[2]))
        except ValueError:
            raise SchemaError(
                f"{path}:{line_no}: column 'n_annotators' is not an "
                f"integer: {row[2]!r}"
            ) from None
        # window_start, n_annotators, mu, sigma, f*
        values = _parse_numbers(path, line_no, row[1:], len(row) - 1, names)
        if values[3] < 0.0:
            raise SchemaError(
                f"{path}:{line_no}: column 'sigma' is negative: {row[4]!r}"
            )
        subjects.append(row[0])
        numbers.append(values)
    numbers = np.array(numbers, dtype=np.float64).reshape(-1, len(header) - 1)
    table = WindowTable(np.array(subjects, dtype=str), numbers[:, 0].copy(),
                        np.array(n_annot, dtype=np.int64), numbers[:, 2].copy(),
                        numbers[:, 3].copy(), numbers[:, 4:].copy())
    manifest_path = path.parent / "dataset_manifest.json"
    manifest = read_json(manifest_path) if manifest_path.exists() else {}
    return table, manifest
