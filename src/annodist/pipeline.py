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

Timestamps are finite seconds as decimals.  Files are UTF-8, a leading
byte-order mark allowed: a CSV or JSON file that is not raises a
:class:`~annodist.errors.SchemaError` naming its file and the line of its
first bad byte.  Every CSV is read by :func:`_read_table` under the rules its
:class:`_Table` declares, and written through :func:`write_csv`.  A malformed
row raises a SchemaError naming its file and the physical line it starts on;
series errors (a repeated timestamp, a changed feature dimension) come after.
Every JSON file (config, manifest, run summary) is read through
:func:`~annodist.config.read_json` and written through
:func:`~annodist.config.write_json`.
"""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_EPSILON, WindowConfig, _decode_utf8, read_json, write_json
from .consensus import clamp_moments_arrays
from .errors import DomainError, EmptyDatasetError, InsufficientDataError, SchemaError

log = logging.getLogger(__name__)

_TIME_TOL = 1e-9
# Rows a CSV reader holds as strings at once; bounds its memory.
_CHUNK_ROWS = 512


def fmt_float(x) -> str:
    """Shortest exact decimal form; keeps CSV output byte-reproducible."""
    return repr(float(x))


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
    """All window starts k * stride with k*stride + window_len <= duration; a
    :class:`DomainError` if there are too many to hold."""
    count = int(np.floor((duration - cfg.window_len + _TIME_TOL) / cfg.stride)) + 1
    try:
        return np.arange(max(count, 0), dtype=np.float64) * cfg.stride
    except (ValueError, MemoryError):
        raise DomainError(f"window_starts: {count} windows in {duration!r} s") from None


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


def _parse(texts, kind: str):
    """The cells ``texts`` as one array of ``kind`` ("number", "finite",
    "non-negative" or "integer", one that fits 64 bits), or what is wrong
    with them: the cell's own problem when ``texts`` is one cell."""
    try:
        values = np.array(texts, np.int64 if kind == "integer" else np.float64)
    except ValueError:
        return "is not an integer" if kind == "integer" else "is not a number"
    except OverflowError:
        return "is out of range"
    if kind in ("finite", "non-negative") and not np.isfinite(values).all():
        return "is not finite"
    if kind == "non-negative" and (values < 0.0).any():
        return "is negative"
    return values


class _Table(NamedTuple):
    """The rules of a CSV table: its leading ``columns`` (name -> kind, None
    for a string key) and then extra columns of kind ``extra`` (none when
    None).  Rows are as wide as the header, except in a ``ragged`` table:
    each row has at least one extra cell, and empty extra cells are ignored."""

    columns: dict
    extra: str | None = None
    ragged: bool = False


_FEATURES = _Table({"subject_id": None, "modality": None, "timestamp": "finite"},
                   "number", ragged=True)
_ANNOTATIONS = _Table({"subject_id": None, "annotator_id": None,
                       "timestamp": "finite", "value": "finite"})
_DATASET = _Table({"subject_id": None, "window_start": "finite",
                   "n_annotators": "integer", "mu": "finite",
                   "sigma": "non-negative"}, "finite")


def _read_table(path, table: _Table):
    """``(header, lines, *columns)`` of the CSV at ``path`` under ``table``'s
    rules: the physical line each non-blank row starts on, and what
    :func:`_columns` makes of them, ``_CHUNK_ROWS`` rows at a time."""
    path, names = Path(path), list(table.columns)
    chunks = [(np.empty(0, np.intp), *_columns(table, [], 0))]
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header[:len(names)] != names:
                raise SchemaError(
                    f"{path}:1: expected header starting with {','.join(names)!r}, "
                    f"got {','.join(header) if header else '<empty>'!r}"
                )
            width = len(header) if table.extra else len(names)
            if len(header) != width:
                raise SchemaError(f"{path}:1: expected {width} columns, got {len(header)}")
            end = reader.line_num
            while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
                lines = np.arange(end + 1, reader.line_num + 1)
                if lines.size > len(rows):  # a quoted cell holds a line break
                    lines = end + 1 + np.cumsum([0] + [1 + sum(
                        c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)
                        for row in rows[:-1]])
                end = reader.line_num
                if [] in rows:  # blank rows are skipped
                    lines = lines[np.fromiter(map(bool, rows), bool, len(rows))]
                    rows = [row for row in rows if row]
                if (columns := _columns(table, rows, width)) is None:
                    _check_rows(path, table, header, rows, lines)  # raises
                chunks.append((lines, *columns))
    except UnicodeDecodeError:
        # The text layer decodes in chunks, so the error's offset is
        # relative to one chunk: find the line in the whole file.
        _decode_utf8(path, path.read_bytes())
        raise
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    lines, keys, numbers, extra, dims = zip(*chunks)
    return (header, np.concatenate(lines),
            [list(itertools.chain.from_iterable(c)) for c in zip(*keys)],
            [np.concatenate(c) for c in zip(*numbers)], np.concatenate(extra),
            np.concatenate(dims))


def _columns(table: _Table, rows, width: int):
    """``(keys, numbers, extra, dims)`` of ``rows``: the key and the numeric
    columns, and every extra value, row after row, with each row's count of
    them.  None if a row has the wrong width or a column fails its kind;
    each numeric column is parsed with one NumPy call."""
    n = len(table.columns)
    dims = np.fromiter(map(len, rows), np.intp, len(rows)) - n
    if ((dims <= 0) if table.ragged else (dims != width - n)).any():
        return None
    head = list(itertools.islice(zip(*rows), n)) or [()] * n
    numbers = [_parse(col, kind) for col, kind in zip(head, table.columns.values()) if kind]
    cells = list(itertools.chain.from_iterable(row[n:] for row in rows)) if table.extra else []
    if table.ragged and "" in cells:  # empty extra cells are ignored
        cells = list(filter(None, cells))
        dims = np.fromiter((len(row) - n - row[n:].count("") for row in rows), np.intp)
    extra = _parse(cells, table.extra or "number")
    if any(isinstance(values, str) for values in (*numbers, extra)):
        return None
    keys = [col for col, kind in zip(head, table.columns.values()) if not kind]
    return keys, numbers, extra, dims


def _check_rows(path, table: _Table, header: list[str], rows, lines) -> None:
    """Raise a :class:`SchemaError` at the first of ``rows`` of the wrong
    width or with a cell that :func:`_parse` rejects on its own."""
    n = len(table.columns)
    width = n + 1 if table.ragged else len(header)
    for row, line in zip(rows, lines):
        if len(row) < width or (len(row) > width and not table.ragged):
            raise SchemaError(f"{path}:{line}: expected {'at least ' * table.ragged}"
                              f"{width} columns, got {len(row)}")
        names = [*table.columns, *(f"f{i}" for i in range(len(row) - n))]
        kinds = [*table.columns.values(), *[table.extra] * (len(row) - n)]
        for i, (name, kind, text) in enumerate(zip(names if table.ragged else header,
                                                   kinds, row)):
            if (kind and (text or i < n or not table.ragged)
                    and isinstance(problem := _parse([text], kind), str)):
                raise SchemaError(f"{path}:{line}: column {name!r} {problem}: {text!r}")


def _series(path, noun: str, lines, keys, ts, dims):
    """Yield ``(key, indices)`` for each series in key order, its rows in time
    order; the earliest row whose count of extra values differs from its
    series' first row, or that repeats a timestamp, raises a SchemaError."""
    code = np.zeros(ts.size, np.intp)  # each row's rank of key
    for col in keys:
        rank = {key: i for i, key in enumerate(sorted(set(col)))}
        code = code * len(rank) + np.fromiter(map(rank.__getitem__, col), np.intp, ts.size)
    _, first, series, counts = np.unique(code, return_index=True, return_inverse=True,
                                         return_counts=True)
    # Stable: a series' rows keep file order among equal timestamps.
    order = np.lexsort((ts, series))
    firsts = first[series[order]]  # the first row of each row's series
    wider = dims[order] != dims[firsts]
    again = ((np.diff(series[order], prepend=-1) == 0)
             & (np.diff(ts[order], prepend=np.nan) == 0))
    if (bad := np.flatnonzero(wider | again)).size:
        k = bad[np.argmin(order[bad])]
        key = "/".join(col[order[k]] for col in keys)
        raise SchemaError(f"{Path(path)}:{lines[order[k]]}: " + (
            f"feature dimension differs from line {lines[firsts[k]]} "
            f"({dims[firsts[k]]}) in series {key}" if wider[k] else
            f"duplicate timestamp {float(ts[order[k]])!r} in {noun} {key} "
            f"(first on line {lines[order[k - 1]]})"))
    bounds = np.cumsum([0, *counts])
    for lo, hi in zip(bounds, bounds[1:]):
        yield tuple(col[order[lo]] for col in keys), order[lo:hi]


def write_csv(path, header: list[str], rows) -> Path:
    """Write ``header`` and then ``rows`` (cells already formatted) as UTF-8."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def read_feature_csv(path) -> list[FrameSeries]:
    """Read a feature CSV into one FrameSeries per (subject, modality)."""
    _, lines, keys, (ts,), extra, dims = _read_table(path, _FEATURES)
    starts = np.cumsum(dims) - dims
    return [FrameSeries(subject, ts[at], extra[starts[at, None] + np.arange(dims[at[0]])],
                        modality)
            for (subject, modality), at in _series(path, "series", lines, keys, ts, dims)]


def read_annotation_csv(path) -> list[AnnotationTrace]:
    """Read an annotation CSV into one AnnotationTrace per (subject, annotator)."""
    _, lines, keys, (ts, values), _, dims = _read_table(path, _ANNOTATIONS)
    return [AnnotationTrace(subject, annotator, ts[at], values[at])
            for (subject, annotator), at in _series(path, "trace", lines, keys, ts, dims)]


def write_feature_csv(path, series: list[FrameSeries]) -> None:
    max_dim = max((fs.dim for fs in series), default=0)
    write_csv(path, [*_FEATURES.columns] + [f"f{i}" for i in range(max_dim)], (
        [fs.subject_id, fs.modality, fmt_float(t)] + [fmt_float(v) for v in vec]
        for fs in series for t, vec in zip(fs.timestamps, fs.features)
    ))


def write_annotation_csv(path, traces: list[AnnotationTrace]) -> None:
    write_csv(path, [*_ANNOTATIONS.columns], (
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
    path = write_csv(outdir / "dataset.csv", [*_DATASET.columns] + [
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

    The first bad row raises a :class:`SchemaError` naming its file and
    line: the row must be as wide as the header, ``n_annotators`` a 64-bit
    integer, ``window_start``, ``mu``, ``sigma`` and every feature finite,
    and ``sigma`` non-negative.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "dataset.csv"
    header, _, (subjects,), numbers, extra, _ = _read_table(path, _DATASET)
    table = WindowTable(np.array(subjects, dtype=str), *numbers,
                        extra.reshape(len(subjects), len(header) - 5))
    manifest_path = path.parent / "dataset_manifest.json"
    manifest = read_json(manifest_path) if manifest_path.exists() else {}
    return table, manifest
