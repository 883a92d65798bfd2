"""Ingestion and preprocessing: windowing, aggregation, consensus targets.

Frame-level features and annotation traces are cut into half-open windows
``[start, start + window_len)`` on a shared stride grid (start = k * stride,
requiring full coverage: start + window_len <= duration), all windows of a
stream at once.  :func:`_window_means` is the one place where a stream is cut
into windows: features, each annotator's trace and the synthetic truth all
go through it, so a window's start has the same bits in every stream.
Features are averaged per window and concatenated across modalities;
annotations are mapped from the label range onto [0, 1], averaged per
annotator within the window and reduced to raw consensus moments across
annotators, which :func:`build_dataset` clamps for the rows it keeps and
:func:`write_beta_fits` in its Beta fit.  The windows travel as one columnar
:class:`WindowTable`, from :func:`build_dataset` through
:func:`write_dataset`/:func:`read_dataset` to the experiment grid, and the
clamp margin ``WindowConfig.epsilon`` with them, in the dataset's manifest.

CSV interfaces
--------------
* features:     header ``subject_id,modality,timestamp,f0,...,fK``; rows
  have at least one feature cell, empty cells are ignored, and NaN features
  are allowed (NaN frames are dropped at windowing).
* annotations:  header ``subject_id,annotator_id,timestamp,value``, exactly
  4 columns, finite values; :func:`window_consensus` takes them as they are
  read and rejects a value outside the label range.
* built dataset: ``subject_id,window_start,n_annotators,mu,sigma,f0,...`` plus
  a JSON manifest (label range, epsilon, modality dims, window, subjects).
  The header names at least one feature column.  Rows must be as wide as
  the header, with an integer ``n_annotators``, finite numbers and
  ``sigma >= 0``.

Timestamps are finite seconds as decimals.  Files are UTF-8, a leading
byte-order mark allowed: a CSV or JSON file that is not raises a
:class:`~annodist.errors.SchemaError` naming its file and the line of its
first bad byte.  Every CSV is read by :func:`_read_table` under the rules its
:class:`_Table` declares, and written through :func:`write_table`.  A malformed
row raises a SchemaError naming its file and the physical line it starts on;
series errors (a repeated timestamp, a changed feature dimension) come after.
Every JSON file (config, manifest, run summary) is read through
:func:`~annodist.config.read_json` and written through
:func:`~annodist.config.write_json`.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import (DEFAULT_EPSILON, EPSILON_RANGE, WindowConfig, _decode_utf8,
                     read_json, write_json)
from .consensus import clamp_moments_arrays, fit_beta_arrays
from .errors import DomainError, EmptyDatasetError, InsufficientDataError, SchemaError

_TIME_TOL = 1e-9
# Rows a CSV reader or writer holds as strings at once; bounds its memory.
_CHUNK_ROWS = 512


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
    """Columnar windowed dataset, one row per (subject, window): consensus
    moments (raw from :func:`window_consensus`, clamped from
    :func:`build_dataset`) and ``(n, dim)`` feature means (``dim`` 0 if none)."""

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


def _window_means(ts: np.ndarray, values: np.ndarray, end: float, cfg: WindowConfig):
    """``(starts, counts, means)`` for every window of ``window_starts(end,
    cfg)``: how many of the sorted ``ts`` fall in it, and the mean of their
    rows of ``values`` (NaN when none do).

    Equal-count windows are averaged as gathered ``(windows, count[, dim])``
    blocks of at most 32 windows (bounding the temporary) along axis 1, which
    sums in the slice's own order: the bits match (``np.add.reduceat``'s not).
    """
    starts = window_starts(end, cfg)
    lo = np.searchsorted(ts, starts, side="left")
    counts = np.searchsorted(ts, starts + cfg.window_len, side="left") - lo
    means = np.full(starts.shape + values.shape[1:], np.nan)
    for count in set(counts.tolist()) - {0}:
        same = np.flatnonzero(counts == count)
        for at in range(0, same.size, 32):
            rows = same[at:at + 32]
            means[rows] = values[lo[rows, None] + np.arange(count)].mean(axis=1)
    return starts, counts, means


def _warn(message: str, *args) -> None:
    import logging  # only when there is something to report: it costs ms to load

    logging.getLogger(__name__).warning(message, *args)


def window_features(
    series: FrameSeries, cfg: WindowConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-window mean feature vectors; returns (starts, means, skipped_starts).

    ``means`` is ``(len(starts), dim)``.  Frames containing NaN are dropped
    before averaging; a window with no remaining frames is skipped and
    reported.
    """
    if series.timestamps.size == 0:
        _warn("window_features: empty series %s/%s", series.subject_id, series.modality)
        return np.empty(0), np.empty((0, series.dim)), np.empty(0)
    keep = ~np.any(np.isnan(series.features), axis=1)
    starts, counts, means = _window_means(series.timestamps[keep], series.features[keep],
                                          float(series.timestamps[-1]), cfg)
    full = counts > 0
    skipped = starts[~full]
    if skipped.size:
        _warn(
            "window_features: %s/%s skipped %d empty windows",
            series.subject_id, series.modality, skipped.size,
        )
    return starts[full], means[full], skipped


def window_consensus(
    traces: list[AnnotationTrace], cfg: WindowConfig
) -> tuple[WindowTable, dict[str, np.ndarray]]:
    """Raw consensus moments per window, for every subject in ``traces``.

    Returns a consensus-only :class:`WindowTable` ordered by subject and start,
    and each subject's dropped window starts.  Each annotator's in-window
    values are averaged to one scalar first, so sigma measures pure
    inter-annotator disagreement.  Annotators without a sample in a window
    are excluded; windows with fewer than two of them are dropped.  Values
    must lie in ``cfg.label_range`` ``(lo, hi)``, which is mapped onto [0, 1]
    as ``(v - lo) / (hi - lo)`` before windowing (the default (0, 1) keeps
    every bit).  The moments are not clamped: a unanimous window has sigma 0.
    """
    lo, hi = cfg.label_range
    by_subject: dict[str, list[AnnotationTrace]] = {}
    for tr in traces:
        bad = (tr.values < lo) | (tr.values > hi)
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"window_consensus: value {float(tr.values[i])!r} outside "
                f"[{lo}, {hi}] for subject {tr.subject_id!r} annotator "
                f"{tr.annotator_id!r} at t={float(tr.timestamps[i])!r}"
            )
        group = by_subject.setdefault(tr.subject_id, [])
        if any(t.annotator_id == tr.annotator_id for t in group):
            raise DomainError(
                f"window_consensus: duplicate trace for subject "
                f"{tr.subject_id!r} annotator {tr.annotator_id!r}"
            )
        group.append(tr)
    # Each subject's kept windows as (subjects, starts, count, mu, sigma),
    # after an empty first entry: the columns are valid without windows too.
    columns, dropped = [(np.empty(0, str), np.empty(0), np.empty(0, np.intp),
                         np.empty(0), np.empty(0))], {}
    for subject, group in sorted(by_subject.items()):
        if len(group) < 2:
            raise InsufficientDataError(
                f"window_consensus: subject {subject!r} needs >= 2 annotation "
                f"traces, got {len(group)}"
            )
        ends = [float(tr.timestamps[-1]) for tr in group if tr.timestamps.size]
        if not ends:  # no samples, so no windows
            dropped[subject] = np.empty(0)
            continue
        # One column per annotator: its sample count and mean in each window.
        grids, counts, means = zip(*(
            _window_means(tr.timestamps, (tr.values - lo) / (hi - lo), max(ends), cfg)
            for tr in group))
        present, means = np.column_stack(counts) > 0, np.column_stack(means)
        count = present.sum(axis=1)
        kept = count >= 2
        mu, sigma = np.empty(count.size), np.empty(count.size)
        for k in set(count[kept].tolist()):
            rows = np.flatnonzero(count == k)
            # Each window's contributing annotators, in trace order.
            block = means[rows][present[rows]].reshape(rows.size, k)
            mu[rows], sigma[rows] = block.mean(axis=1), block.std(axis=1)
        dropped[subject] = grids[0][~kept]
        columns.append((np.full(np.count_nonzero(kept), subject), grids[0][kept],
                        count[kept], mu[kept], sigma[kept]))
    subjects, starts, count, mu, sigma = map(np.concatenate, zip(*columns))
    return WindowTable(subjects, starts, count, mu, sigma, np.empty((mu.size, 0))), dropped


def build_dataset(
    features: list[FrameSeries],
    annotations: list[AnnotationTrace],
    cfg: WindowConfig,
    modalities: list[str] | None = None,
) -> tuple[WindowTable, BuildReport]:
    """Join windowed features with consensus targets on (subject, window).

    Feature vectors are concatenated across the selected modalities in the
    given order (sorted set of all modalities when unspecified).  Windows
    present on only one side are dropped and counted; a join that keeps no
    window raises :class:`EmptyDatasetError`.  Annotation values are
    on ``cfg.label_range``, as :func:`window_consensus` takes them, and the
    consensus moments of the rows kept are clamped with ``cfg.epsilon``.
    """
    by_key: dict[tuple[str, str], FrameSeries] = {}
    for fs in features:
        key = (fs.subject_id, fs.modality)
        if key in by_key:
            raise DomainError(f"build_dataset: duplicate feature series {key}")
        by_key[key] = fs
    if modalities is None:
        modalities = sorted({fs.modality for fs in features})
    elif len(set(modalities)) < len(modalities):
        raise DomainError(f"build_dataset: modalities must be free of repeats, "
                          f"got {modalities!r}")
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
        [tr for tr in annotations if tr.subject_id in subjects], cfg
    )
    report.windows_dropped_few_annotators = sum(d.size for d in dropped.values())
    rows, xs = [], []
    for subject in subjects:
        grids, means = [], []
        for m in modalities:
            fs = by_key[(subject, m)]
            if fs.dim != report.modality_dims[m]:
                raise DomainError(
                    f"build_dataset: modality {m!r} dim mismatch for "
                    f"subject {subject!r}"
                )
            starts, mean, skipped = window_features(fs, cfg)
            report.windows_skipped_empty += skipped.size
            grids.append(starts)
            means.append(mean)
        # Every start is k * stride from the one window_starts, so a window
        # has the same bits in every stream: the sorted starts join as they are.
        feat = grids[0]
        for grid in grids[1:]:
            feat = np.intersect1d(feat, grid, assume_unique=True)
        mine = np.flatnonzero(targets.subjects == subject)
        common = np.intersect1d(feat, targets.starts[mine], assume_unique=True)
        report.windows_unmatched += feat.size + mine.size - 2 * common.size
        rows.append(mine[np.searchsorted(targets.starts[mine], common)])
        xs.append(np.hstack([f[np.searchsorted(g, common)] for g, f in zip(grids, means)]))
    rows = np.concatenate(rows)
    if not rows.size:
        raise EmptyDatasetError("build_dataset: no window has both features and annotations")
    mu, sigma, _ = clamp_moments_arrays(targets.mu[rows], targets.sigma[rows], cfg.epsilon)
    table = WindowTable(targets.subjects[rows], targets.starts[rows],
                        targets.n_annotators[rows], mu, sigma, np.concatenate(xs))
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


def write_table(path, header: list[str], blocks) -> Path:
    """Write ``header`` and then, for each ``(key, columns)`` of ``blocks``,
    one row per element of the equal-length NumPy ``columns``, as UTF-8.

    A row is the ``key`` cells as the csv module writes them, formatted once
    per block, then that element of each column as Python writes the number:
    ``repr``, the shortest round-trip form of a float, an int in plain
    decimal.  Numbers need no quoting, so the rows are joined as the csv
    module would join them, ``_CHUNK_ROWS`` at a time.
    """
    path = Path(path)
    cells = io.StringIO()
    # The csv module quotes a cell holding a character of its line
    # terminator, so the key cells are written with the file's "\r\n".
    keys = csv.writer(cells)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for key, columns in blocks:
            cells.seek(0)
            cells.truncate()
            keys.writerow([*key, ""])  # the key cells, "," and "\r\n"
            prefix = cells.getvalue()[:-2]
            for lo in range(0, len(columns[0]), _CHUNK_ROWS):
                fh.write("".join(prefix + ",".join(map(repr, row)) + "\r\n" for row in zip(
                    *(col[lo:lo + _CHUNK_ROWS].tolist() for col in columns))))
    return path


def key_runs(keys: np.ndarray, columns):
    """The blocks of :func:`write_table` for a table keyed by the one column
    ``keys``: one per run of equal keys, with its slice of each column."""
    ends = [*(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), keys.size]
    return (((keys[lo],), [col[lo:hi] for col in columns])
            for lo, hi in zip([0, *ends], ends) if hi > lo)


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
    for fs in series:
        # Its rows would have no feature cell to read back, or there would be
        # no row, so the reader would not see the series at all.
        if not fs.dim or not fs.timestamps.size:
            what = "feature column" if fs.timestamps.size else "frames"
            raise DomainError(f"write_feature_csv: series {fs.subject_id}/{fs.modality} "
                              f"has no {what}")
    max_dim = max((fs.dim for fs in series), default=0)
    write_table(path, [*_FEATURES.columns] + [f"f{i}" for i in range(max_dim)], (
        ((fs.subject_id, fs.modality), [fs.timestamps, *fs.features.T]) for fs in series
    ))


def write_annotation_csv(path, traces: list[AnnotationTrace]) -> None:
    write_table(path, [*_ANNOTATIONS.columns], (
        ((tr.subject_id, tr.annotator_id), [tr.timestamps, tr.values]) for tr in traces
    ))


def write_dataset(
    outdir, table: WindowTable, report: BuildReport, cfg: WindowConfig
) -> Path:
    """Write the window table plus its provenance manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = write_table(outdir / "dataset.csv", [*_DATASET.columns] + [
        f"f{i}" for i in range(table.x.shape[1])
    ], key_runs(table.subjects, [table.starts, table.n_annotators, table.mu,
                                 table.sigma, *table.x.T]))
    manifest = {
        "label_range": list(cfg.label_range),
        "epsilon": cfg.epsilon,
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


def write_beta_fits(outdir, table: WindowTable, epsilon: float) -> Path:
    """Write ``beta_fits.csv``: each window's key, then the Beta fit of its raw
    moments (:func:`fit_beta_arrays`), ``mu``/``sigma`` 4th-5th, ``clamped`` last."""
    alpha, beta, fits = fit_beta_arrays(table.mu, table.sigma, epsilon)
    fits.update(window_start=table.starts, n_annotators=table.n_annotators,
                alpha=alpha, beta=beta)
    names = ["window_start", "n_annotators", "mu", "sigma", "alpha", "beta", "mean",
             "std", "median", "q25", "q75", "skew", "kurt", "clamped"]
    return write_table(Path(outdir) / "beta_fits.csv", ["subject_id", *names],
                       key_runs(table.subjects, [fits[k] for k in names]))


def read_dataset(path) -> tuple[WindowTable, float]:
    """Read a built dataset table and the ``epsilon`` its manifest records
    (``DEFAULT_EPSILON`` without a manifest or without that key).

    The first bad row raises a :class:`SchemaError` naming its file and
    line: the row must be as wide as the header, ``n_annotators`` a 64-bit
    integer, ``window_start``, ``mu``, ``sigma`` and every feature finite,
    and ``sigma`` non-negative.  Then a header without a feature column
    raises one naming line 1, and an ``epsilon`` outside ``EPSILON_RANGE`` one
    naming the manifest.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "dataset.csv"
    header, _, (subjects,), numbers, extra, _ = _read_table(path, _DATASET)
    width = len(header) - len(_DATASET.columns)
    if not width:
        raise SchemaError(f"{path}:1: expected at least one feature column after 'sigma'")
    table = WindowTable(np.array(subjects, dtype=str), *numbers,
                        extra.reshape(len(subjects), width))
    meta = path.parent / "dataset_manifest.json"
    epsilon = (read_json(meta) if meta.exists() else {}).get("epsilon", DEFAULT_EPSILON)
    if type(epsilon) is not float or not EPSILON_RANGE[0](epsilon):
        raise SchemaError(f"{meta}: key 'epsilon' must be a number "
                          f"{EPSILON_RANGE[1]}, got {epsilon!r}")
    return table, epsilon
