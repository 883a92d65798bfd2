"""The table writer against the csv module: every CSV that annodist writes is
what ``csv.writer`` makes of its cells, numbers as ``repr`` of a Python
``float`` or ``int``, and a table that has a reader reads back unchanged."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annodist.cli import main
from annodist.errors import DomainError, SchemaError
from annodist.pipeline import (
    AnnotationTrace,
    BuildReport,
    FrameSeries,
    WindowConfig,
    WindowTable,
    key_runs,
    read_annotation_csv,
    read_dataset,
    read_feature_csv,
    write_annotation_csv,
    write_dataset,
    write_feature_csv,
    write_table,
)
from annodist.synthetic import GroundTruth, write_ground_truth_csv
import csv_reference

# Key cells: empty, or holding a comma, a quote, CR/LF, non-ASCII text or
# leading spaces, alone and mixed.
KEYS = st.sampled_from(["", "s0", "a,b", 'say "hi"', "two\nlines", "cr\r", "crlf\r\n",
                        "naïve ☃", "  lead", " "]) | st.text(
    st.sampled_from(list('a,"\r\n é☃ ')), max_size=5)
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 0.1, 1 / 3,
               1.7976931348623157e308, -2.5]
# Any float, the edge cases above among them.  A NaN's sign and payload do
# not survive the text form, so NaNs are the canonical one.
FLOATS = (st.sampled_from(EDGE_FLOATS + [np.inf, -np.inf, np.nan])
          | st.floats()).map(lambda x: float(repr(x)))
FINITE = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
INTS = st.sampled_from([0, 1, 2, -1, 2**63 - 1, -2**63]) | st.integers(-2**63, 2**63 - 1)

writer_settings = settings(max_examples=150, deadline=None, derandomize=True)


def same(got, want):
    """Equal bit for bit: -0.0 is not 0.0, and NaN is NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def increasing(n):
    """``n`` strictly increasing finite floats."""
    return st.lists(FINITE, min_size=n, max_size=n, unique=True).map(sorted)


@st.composite
def blocks(draw):
    """Key cells (strings and numbers) and equal-length float and int columns."""
    n = draw(st.integers(0, 4))
    key = draw(st.lists(KEYS | INTS | FLOATS, min_size=1, max_size=3))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    columns = [np.array(draw(st.lists(INTS if is_int else FLOATS, min_size=n, max_size=n)),
                        np.int64 if is_int else np.float64) for is_int in kinds]
    return tuple(key), columns


def rows_of(drawn):
    """The rows of ``write_table`` blocks, each a list of cells."""
    return [[*key, *(col[i] for col in columns)]
            for key, columns in drawn for i in range(len(columns[0]))]


@writer_settings
@given(st.lists(blocks(), max_size=4))
def test_write_table_matches_the_csv_module(tmp_path_factory, drawn):
    tmp = tmp_path_factory.mktemp("w")
    header = ["key", "a", "b"]
    got = write_table(tmp / "got.csv", header, drawn)
    want = csv_reference.write(tmp / "want.csv", header, rows_of(drawn))
    assert got.read_bytes() == want.read_bytes()


@writer_settings
@given(keys=st.lists(st.sampled_from(["", "a,b", "s0", "naïve"]), max_size=8),
       data=st.data())
def test_key_runs_write_a_row_keyed_table(tmp_path_factory, keys, data):
    # As `fit` writes beta_fits.csv: one key column, then floats and ints.
    n = len(keys)
    floats = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)), float)
    ints = np.array(data.draw(st.lists(INTS, min_size=n, max_size=n)), np.int64)
    subjects = np.array(keys, dtype=str)
    tmp = tmp_path_factory.mktemp("w")
    header = ["subject_id", "window_start", "n_annotators", "clamped"]
    got = write_table(tmp / "got.csv", header,
                      key_runs(subjects, [floats, ints, ints % 2]))
    want = csv_reference.write(tmp / "want.csv", header, [
        [s, x, k, k % 2] for s, x, k in zip(keys, floats, ints)])
    assert got.read_bytes() == want.read_bytes()


@st.composite
def feature_series(draw):
    ids = draw(st.lists(st.tuples(KEYS, KEYS), min_size=1, max_size=3, unique=True))
    series = []
    for subject, modality in ids:
        n, dim = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        feats = draw(st.lists(FLOATS, min_size=n * dim, max_size=n * dim))
        series.append(FrameSeries(subject, draw(increasing(n)),
                                  np.array(feats, float).reshape(n, dim), modality))
    return series


@writer_settings
@given(feature_series())
def test_feature_csv(tmp_path_factory, series):
    tmp = tmp_path_factory.mktemp("w")
    got = tmp / "f.csv"
    empty = [fs for fs in series if not fs.timestamps.size]
    if empty:  # it would write no row, so it could not be read back
        with pytest.raises(DomainError, match="has no frames") as info:
            write_feature_csv(got, series)
        assert f"{empty[0].subject_id}/{empty[0].modality}" in str(info.value)
        assert not got.exists()
        return
    write_feature_csv(got, series)
    width = max(fs.dim for fs in series)
    want = csv_reference.write(tmp / "want.csv", [
        "subject_id", "modality", "timestamp", *(f"f{i}" for i in range(width))], [
        [fs.subject_id, fs.modality, t, *vec]
        for fs in series for t, vec in zip(fs.timestamps, fs.features)])
    assert got.read_bytes() == want.read_bytes()
    back = {(fs.subject_id, fs.modality): fs for fs in read_feature_csv(got)}
    assert sorted(back) == sorted((fs.subject_id, fs.modality) for fs in series)
    for fs in series:
        same(back[fs.subject_id, fs.modality].timestamps, fs.timestamps)
        same(back[fs.subject_id, fs.modality].features, fs.features)


@writer_settings
@given(ids=st.lists(st.tuples(KEYS, KEYS), min_size=1, max_size=3, unique=True),
       data=st.data())
def test_annotation_csv(tmp_path_factory, ids, data):
    traces = []
    for subject, annotator in ids:
        n = data.draw(st.integers(1, 3))
        traces.append(AnnotationTrace(subject, annotator, data.draw(increasing(n)),
                                      data.draw(st.lists(FINITE, min_size=n, max_size=n))))
    tmp = tmp_path_factory.mktemp("w")
    got = tmp / "a.csv"
    write_annotation_csv(got, traces)
    want = csv_reference.write(tmp / "want.csv", [
        "subject_id", "annotator_id", "timestamp", "value"], [
        [tr.subject_id, tr.annotator_id, t, v]
        for tr in traces for t, v in zip(tr.timestamps, tr.values)])
    assert got.read_bytes() == want.read_bytes()
    back = {(tr.subject_id, tr.annotator_id): tr for tr in read_annotation_csv(got)}
    assert sorted(back) == sorted(ids)
    for tr in traces:
        same(back[tr.subject_id, tr.annotator_id].timestamps, tr.timestamps)
        same(back[tr.subject_id, tr.annotator_id].values, tr.values)


@writer_settings
@given(keys=st.lists(KEYS, max_size=6), dim=st.integers(0, 2), data=st.data())
def test_dataset_csv(tmp_path_factory, keys, dim, data):
    n = len(keys)

    def column(values, dtype=float, size=n):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype)

    table = WindowTable(np.array(keys, dtype=str), column(FINITE), column(INTS, np.int64),
                        column(FINITE), np.abs(column(FINITE)),
                        column(FINITE, size=n * dim).reshape(n, dim))
    tmp = tmp_path_factory.mktemp("w")
    got = write_dataset(tmp / "built", table, BuildReport(), WindowConfig())
    want = csv_reference.write(tmp / "want.csv", [
        "subject_id", "window_start", "n_annotators", "mu", "sigma",
        *(f"f{i}" for i in range(dim))], [
        [s, start, k, mu, sigma, *x] for s, start, k, mu, sigma, x in zip(
            keys, table.starts, table.n_annotators, table.mu, table.sigma, table.x)])
    assert got.read_bytes() == want.read_bytes()
    if not dim:  # a table without features is rejected at its header
        with pytest.raises(SchemaError, match=r"dataset\.csv:1: expected at least one "
                                              r"feature column after 'sigma'"):
            read_dataset(got)
        return
    back, _ = read_dataset(got)
    for name in ("subjects", "starts", "n_annotators", "mu", "sigma", "x"):
        same(getattr(back, name), getattr(table, name))


@writer_settings
@given(st.lists(st.tuples(st.sampled_from(["", "a,b", "s0"]), FLOATS, FLOATS, FLOATS),
                max_size=6))
def test_ground_truth_csv(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("w")
    got = tmp / "g.csv"
    write_ground_truth_csv(got, GroundTruth(
        np.array([row[0] for row in rows], dtype=str),
        *(np.array([row[i] for row in rows], dtype=float) for i in (1, 2, 3))))
    want = csv_reference.write(tmp / "want.csv", [
        "subject_id", "window_start", "mu_true", "sigma_true"], rows)
    assert got.read_bytes() == want.read_bytes()


def test_fit_writes_an_empty_subject_id_unquoted(tmp_path):
    # A key cell is quoted only as the csv module quotes it within a row:
    # an empty subject_id leads its row with a bare ",", not with '""'.
    path = tmp_path / "a.csv"
    path.write_text("subject_id,annotator_id,timestamp,value\n"
                    + "".join(f'{s},{a},{t},0.{t + 2}\n' for s in ('', '"a,b"')
                              for a in ("r0", "r1") for t in range(4)))
    assert main(["fit", "--annotations", str(path), "--out", str(tmp_path / "fits")]) == 0
    lines = (tmp_path / "fits" / "beta_fits.csv").read_text().splitlines()
    assert lines[1].startswith(",0.0,2,")
    assert lines[2].startswith('"a,b",0.0,2,')
