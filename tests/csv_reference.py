"""A row-by-row reference for annodist's three CSV readers and its writer.

It is written with the ``csv`` module and Python's ``int``/``float`` alone,
one record at a time, so that the chunked readers and the table writer in
``annodist.pipeline`` can be checked against it: for any file, :func:`read`
returns the same arrays as the reader of that table, or raises the same
SchemaError, and :func:`write` makes the bytes the writer must make.
"""

import codecs
import csv
import io
import math
from pathlib import Path

import numpy as np

from annodist.errors import SchemaError

# table -> (leading columns as (name, kind), kind of extra columns, ragged).
# A kind of None is a string key; extra None means no extra columns.
TABLES = {
    "features": ([("subject_id", None), ("modality", None), ("timestamp", "finite")],
                 "number", True),
    "annotations": ([("subject_id", None), ("annotator_id", None),
                     ("timestamp", "finite"), ("value", "finite")], None, False),
    "dataset": ([("subject_id", None), ("window_start", "finite"),
                 ("n_annotators", "integer"), ("mu", "finite"),
                 ("sigma", "non-negative")], "finite", False),
}


def cell_value(text, kind):
    """``(value, None)`` for a good cell, ``(None, problem)`` for a bad one."""
    if kind == "integer":
        try:
            value = int(text)
        except ValueError:
            return None, "is not an integer"
        return (value, None) if -2**63 <= value < 2**63 else (None, "is out of range")
    try:
        value = float(text)
    except ValueError:
        return None, "is not a number"
    if kind != "number" and not math.isfinite(value):
        return None, "is not finite"
    if kind == "non-negative" and value < 0.0:
        return None, "is negative"
    return value, None


def records(path):
    """Yield ``(first physical line, row)`` for every record of the file."""
    raw = Path(path).read_bytes()
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8):]
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise SchemaError(f"{path}:{line}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    end = 0
    try:
        for row in reader:
            yield end + 1, row
            end = reader.line_num
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


def checked_rows(path, table):
    """The header and ``(line, values)`` of every non-blank row: key cells as
    text, numbers as ``int``/``float``, empty ragged cells dropped."""
    columns, extra, ragged = TABLES[table]
    names = [name for name, _ in columns]
    rows = records(path)
    _, header = next(rows, (1, []))
    if header[:len(names)] != names:
        got = ",".join(header) if header else "<empty>"
        raise SchemaError(f"{path}:1: expected header starting with "
                          f"{','.join(names)!r}, got {got!r}")
    if extra is None and len(header) != len(names):
        raise SchemaError(f"{path}:1: expected {len(names)} columns, got {len(header)}")
    good = []
    for line, row in rows:
        if not row:
            continue
        if ragged and len(row) <= len(names):
            raise SchemaError(f"{path}:{line}: expected at least {len(names) + 1} "
                              f"columns, got {len(row)}")
        if not ragged and len(row) != len(header):
            raise SchemaError(f"{path}:{line}: expected {len(header)} columns, "
                              f"got {len(row)}")
        values = []
        for i, text in enumerate(row):
            if i < len(names):
                name, kind = columns[i]
            else:
                name = f"f{i - len(names)}" if ragged else header[i]
                kind = extra
                if ragged and text == "":
                    continue
            if kind is None:
                values.append(text)
                continue
            value, problem = cell_value(text, kind)
            if problem:
                raise SchemaError(f"{path}:{line}: column {name!r} {problem}: {text!r}")
            values.append(value)
        good.append((line, values))
    return header, good


def read(path, table):
    """What the reader of ``table`` returns, as plain tuples: for a series
    table ``[((id, id), timestamps, values), ...]`` in id order, for the
    dataset ``(subjects, starts, n_annotators, mu, sigma, x)``."""
    header, good = checked_rows(path, table)
    if table == "dataset":
        cols = list(zip(*[values for _, values in good])) or [()] * 5
        return (np.array(cols[0], dtype=str), np.array(cols[1], dtype=float),
                np.array(cols[2], dtype=np.int64), np.array(cols[3], dtype=float),
                np.array(cols[4], dtype=float),
                np.array(cols[5:], dtype=float).T.reshape(len(good), len(header) - 5))
    noun = "series" if table == "features" else "trace"
    groups = {}
    for line, values in good:
        groups.setdefault(tuple(values[:2]), []).append((values[2], line, values[3:]))
    errors, series = [], []
    for key, rows in sorted(groups.items()):
        first = rows[0]
        for t, line, payload in rows:
            if len(payload) != len(first[2]):
                errors.append((line, f"feature dimension differs from line {first[1]} "
                                     f"({len(first[2])}) in series {key[0]}/{key[1]}"))
        timed = sorted(rows, key=lambda r: r[0])
        for before, again in zip(timed, timed[1:]):
            if before[0] == again[0]:
                errors.append((again[1], f"duplicate timestamp {again[0]!r} in {noun} "
                                         f"{key[0]}/{key[1]} (first on line {before[1]})"))
        series.append((key, timed))
    if errors:
        line, what = min(errors, key=lambda error: error[0])
        raise SchemaError(f"{path}:{line}: {what}")
    return [(key, np.array([t for t, _, _ in timed]),
             np.array([payload for _, _, payload in timed], dtype=float).reshape(
                 len(timed), len(timed[0][2]))[:, 0 if table == "annotations" else slice(None)])
            for key, timed in series]


def write(path, header, rows):
    """Write ``header`` and ``rows`` with ``csv.writer``: a string cell as it
    is, an integer as ``repr(int(x))`` and any other number as
    ``repr(float(x))``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else
                             repr(int(cell)) if isinstance(cell, (int, np.integer)) else
                             repr(float(cell)) for cell in row])
    return Path(path)
