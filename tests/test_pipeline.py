"""Windowing, rescaling, consensus targets, dataset joins and CSV formats."""

import codecs
import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annodist import pipeline
from annodist.cli import main
from annodist.consensus import clamp_moments_arrays, consensus_moments
from annodist.errors import (
    DomainError,
    EmptyDatasetError,
    InsufficientDataError,
    SchemaError,
)
from annodist.pipeline import (
    AnnotationTrace,
    FrameSeries,
    WindowConfig,
    build_dataset,
    fmt_float,
    read_annotation_csv,
    read_dataset,
    read_feature_csv,
    rescale_annotations,
    window_consensus,
    window_features,
    window_starts,
    write_annotation_csv,
    write_dataset,
    write_feature_csv,
)
from annodist.synthetic import SyntheticConfig, write_dataset_csvs
from csv_reference import read as read_reference


def enumerate_starts_oracle(duration, window_len, stride):
    starts = []
    k = 0
    while k * stride + window_len <= duration + 1e-9:
        starts.append(k * stride)
        k += 1
    return starts


def make_series(duration=10.0, fps=25.0, dim=3, subject="s1", modality="m",
                fill=None):
    n = int(round(duration * fps))
    t = np.arange(n) / fps
    if fill is None:
        feats = np.tile(np.arange(dim, dtype=float), (n, 1)) + t[:, None]
    else:
        feats = np.full((n, dim), fill, dtype=float)
    return FrameSeries(subject, t, feats, modality)


def constant_trace(value, subject="s1", annotator="a", duration=10.0, rate=5.0):
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    return AnnotationTrace(subject, annotator, t, np.full(n, value))


class TestWindowStarts:
    def test_reference_case(self):
        cfg = WindowConfig(3.0, 0.4)
        starts = window_starts(10.0, cfg)
        # 18 window starts: 0.0, 0.4, ..., 6.8 (half-open full-coverage rule).
        assert len(starts) == 18
        assert starts[0] == 0.0
        assert starts[-1] == pytest.approx(6.8)

    def test_exact_boundary_included(self):
        starts = window_starts(10.0, WindowConfig(3.0, 0.5))
        assert starts[-1] == pytest.approx(7.0)

    @pytest.mark.parametrize("duration", [1e15, 1e20])
    def test_grid_too_large_to_hold_rejected(self, duration):
        with pytest.raises(DomainError, match="windows in"):
            window_starts(duration, WindowConfig(3.0, 0.4))

    def test_short_series_gives_nothing(self):
        assert window_starts(2.0, WindowConfig(3.0, 0.4)).size == 0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            window_len = rng.uniform(0.5, 5.0)
            stride = rng.uniform(0.1, window_len)
            duration = rng.uniform(0.0, 40.0)
            cfg = WindowConfig(window_len, stride)
            got = window_starts(duration, cfg)
            expected = enumerate_starts_oracle(duration, window_len, stride)
            assert len(got) == len(expected)
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestWindowFeatures:
    def test_constant_stream(self):
        starts, means, skipped = window_features(make_series(fill=0.7), WindowConfig())
        assert len(starts) == 18 and not skipped.size
        for vec in means:
            np.testing.assert_allclose(vec, 0.7)

    def test_linear_ramp_mean(self):
        series = make_series(duration=10.0, fps=25.0, dim=1)
        starts, means, _ = window_features(series, WindowConfig())
        for start, vec in zip(starts, means):
            # Exact: the mean of a linear ramp equals the ramp at the mean
            # frame time; close to the window midpoint under uniform sampling.
            in_window = series.timestamps[
                (series.timestamps >= start) & (series.timestamps < start + 3.0)
            ]
            assert vec[0] == pytest.approx(in_window.mean(), abs=1e-12)
            assert vec[0] == pytest.approx(start + 1.5, abs=0.03)

    def test_nan_frames_dropped(self):
        series = make_series(fill=1.0)
        feats = series.features.copy()
        feats[10, 0] = np.nan
        series = FrameSeries(series.subject_id, series.timestamps, feats, "m")
        _, means, skipped = window_features(series, WindowConfig())
        assert not skipped.size
        for vec in means:
            np.testing.assert_allclose(vec, 1.0)

    def test_empty_windows_reported(self):
        # A 1.2 s hole in a sparse 0.2 Hz-ish stream leaves some windows empty.
        t = np.array([0.0, 0.1, 0.2, 5.0, 5.1, 9.9])
        series = FrameSeries("s1", t, np.ones((6, 2)), "m")
        starts, _, skipped = window_features(series, WindowConfig(1.0, 1.0))
        assert skipped.size
        assert set(skipped).isdisjoint(starts)
        assert len(starts) + len(skipped) == len(window_starts(9.9, WindowConfig(1.0, 1.0)))

    def test_empty_series(self):
        series = FrameSeries("s1", np.empty(0), np.empty((0, 2)), "m")
        starts, means, skipped = window_features(series, WindowConfig())
        assert starts.size == skipped.size == 0
        assert means.shape == (0, 2)

    def test_aggregation_permutation_invariant(self):
        # The window mean depends only on the multiset of in-window frames,
        # not on their order along the timeline.
        rng = np.random.default_rng(24)
        t = np.arange(50) / 5.0
        feats = rng.normal(size=(50, 3))
        base = FrameSeries("s1", t, feats, "m")
        cfg = WindowConfig(2.0, 2.0)
        shuffled = feats.copy()
        for start in window_starts(t[-1], cfg):
            mask = (t >= start) & (t < start + 2.0)
            idx = np.where(mask)[0]
            shuffled[idx] = shuffled[rng.permutation(idx)]
        starts_a, means_a, _ = window_features(base, cfg)
        starts_b, means_b, _ = window_features(FrameSeries("s1", t, shuffled, "m"), cfg)
        np.testing.assert_array_equal(starts_a, starts_b)
        for va, vb in zip(means_a, means_b):
            np.testing.assert_allclose(va, vb, atol=1e-12)

    def test_aggregation_linear_in_features(self):
        rng = np.random.default_rng(25)
        t = np.arange(40) / 4.0
        fx = rng.normal(size=(40, 2))
        fy = rng.normal(size=(40, 2))
        cfg = WindowConfig(3.0, 1.0)
        a, b = 2.5, -0.75
        _, combo, _ = window_features(FrameSeries("s", t, a * fx + b * fy, "m"), cfg)
        _, wx, _ = window_features(FrameSeries("s", t, fx, "m"), cfg)
        _, wy, _ = window_features(FrameSeries("s", t, fy, "m"), cfg)
        for vc, vx, vy in zip(combo, wx, wy):
            np.testing.assert_allclose(vc, a * vx + b * vy, atol=1e-12)


class TestRescale:
    def test_midpoint(self):
        tr = AnnotationTrace("s", "a", np.array([0.0]), np.array([0.0]))
        assert rescale_annotations(tr, (-1.0, 1.0)).values[0] == pytest.approx(0.5)

    def test_low_boundary(self):
        tr = AnnotationTrace("s", "a", np.array([0.0]), np.array([-1.0]))
        assert rescale_annotations(tr, (-1.0, 1.0)).values[0] == 0.0

    def test_percent_scale(self):
        tr = AnnotationTrace("s", "a", np.array([0.0]), np.array([37.0]))
        assert rescale_annotations(tr, (0.0, 100.0)).values[0] == pytest.approx(0.37)

    def test_round_trip(self):
        rng = np.random.default_rng(22)
        values = rng.uniform(-4.0, 3.0, 100)
        tr = AnnotationTrace("s", "a", np.arange(100.0), values)
        lo, hi = -4.0, 3.0
        scaled = rescale_annotations(tr, (lo, hi))
        np.testing.assert_allclose(scaled.values * (hi - lo) + lo, values, atol=1e-12)

    def test_out_of_range_names_context(self):
        tr = AnnotationTrace("s", "rater7", np.array([1.5]), np.array([2.0]))
        with pytest.raises(DomainError, match="rater7"):
            rescale_annotations(tr, (-1.0, 1.0))


class TestWindowConsensus:
    def test_two_constant_annotators(self):
        traces = [constant_trace(0.4, annotator="a1"),
                  constant_trace(0.6, annotator="a2")]
        table, dropped = window_consensus(traces, WindowConfig())
        assert len(table) and not dropped["s1"].size
        for mu, sigma, n in zip(table.mu, table.sigma, table.n_annotators):
            assert n == 2
            assert mu == pytest.approx(0.5)
            assert sigma == pytest.approx(0.1)

    def test_unanimous_sigma_clamped_up(self):
        traces = [constant_trace(0.2, annotator=f"a{i}") for i in range(3)]
        table, _ = window_consensus(traces, WindowConfig(), epsilon=1e-4)
        for mu, sigma in zip(table.mu, table.sigma):
            assert mu == pytest.approx(0.2)
            assert sigma**2 == pytest.approx(1e-4 * 0.2 * 0.8)

    def test_window_without_second_annotator_dropped(self):
        full = constant_trace(0.4, annotator="a1", duration=10.0)
        # Second annotator stops at t=4.8; windows past that have one rater.
        partial = constant_trace(0.6, annotator="a2", duration=5.0)
        table, dropped = window_consensus([full, partial], WindowConfig())
        dropped = dropped["s1"]
        assert dropped.size
        starts = table.starts
        last_partial_sample = partial.timestamps[-1]
        assert max(starts) <= last_partial_sample + 1e-9
        assert min(dropped) > last_partial_sample - 1e-9

    def test_single_trace_rejected(self):
        with pytest.raises(InsufficientDataError):
            window_consensus([constant_trace(0.5)], WindowConfig())

    def test_unrescaled_values_rejected(self):
        bad = AnnotationTrace("s1", "a1", np.array([0.0, 1.0]), np.array([0.5, 1.4]))
        ok = constant_trace(0.5, annotator="a2")
        with pytest.raises(DomainError):
            window_consensus([bad, ok], WindowConfig(1.0, 1.0))


class TestBuildDataset:
    def _annotations(self, subject="s1", duration=10.0):
        return [constant_trace(0.4, subject, "a1", duration),
                constant_trace(0.6, subject, "a2", duration)]

    def test_single_modality_dim(self):
        table, report = build_dataset(
            [make_series(dim=5)], self._annotations(), WindowConfig()
        )
        assert len(table) and table.x.shape == (len(table), 5)
        assert report.n_samples == len(table)

    def test_fusion_concatenates_dims(self):
        feats = [make_series(dim=40, modality="audio"),
                 make_series(dim=130, modality="visual")]
        table, report = build_dataset(feats, self._annotations(), WindowConfig())
        assert table.x.shape == (len(table), 170)
        assert report.modality_dims == {"audio": 40, "visual": 130}

    def test_modality_selection_order(self):
        feats = [make_series(dim=2, modality="b", fill=2.0),
                 make_series(dim=1, modality="a", fill=1.0)]
        table, _ = build_dataset(feats, self._annotations(), WindowConfig(),
                                 modalities=["b", "a"])
        np.testing.assert_allclose(table.x[0], [2.0, 2.0, 1.0])

    def test_disjoint_subjects_rejected(self):
        with pytest.raises(EmptyDatasetError):
            build_dataset([make_series(subject="sA")],
                          self._annotations(subject="sB"), WindowConfig())

    def test_targets_always_strictly_valid(self):
        rng = np.random.default_rng(23)
        traces = []
        for i in range(4):
            n = 50
            t = np.arange(n) / 5.0
            traces.append(AnnotationTrace("s1", f"a{i}", t, rng.uniform(0, 1, n)))
        table, _ = build_dataset([make_series()], traces, WindowConfig())
        assert len(table)
        cap = table.mu * (1 - table.mu)
        assert np.all((0 < table.mu) & (table.mu < 1))
        assert np.all((0 < table.sigma**2) & (table.sigma**2 < cap))

    def test_unmatched_windows_counted(self):
        # Features stop at 6 s, annotations run 10 s.
        table, report = build_dataset(
            [make_series(duration=6.0)], self._annotations(duration=10.0),
            WindowConfig(),
        )
        assert report.windows_unmatched > 0
        assert report.n_samples == len(table)


class TestCsvRoundTrips:
    def test_feature_csv(self, tmp_path):
        series = [make_series(dim=3, subject="s1"),
                  make_series(dim=3, subject="s2", fill=0.25)]
        path = tmp_path / "features.csv"
        write_feature_csv(path, series)
        back = read_feature_csv(path)
        assert len(back) == 2
        for orig, got in zip(sorted(series, key=lambda f: f.subject_id), back):
            np.testing.assert_allclose(got.timestamps, orig.timestamps)
            np.testing.assert_allclose(got.features, orig.features)

    def test_annotation_csv(self, tmp_path):
        traces = [constant_trace(0.4, annotator="a1"),
                  constant_trace(0.6, annotator="a2")]
        path = tmp_path / "annotations.csv"
        write_annotation_csv(path, traces)
        back = read_annotation_csv(path)
        assert [tr.annotator_id for tr in back] == ["a1", "a2"]
        np.testing.assert_allclose(back[0].values, 0.4)

    def test_malformed_feature_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,modality,timestamp,f0\nx,m,0.0,1.0\n")
        with pytest.raises(SchemaError, match="subject_id"):
            read_feature_csv(path)

    def test_malformed_annotation_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,annotator_id,timestamp\ns,a,0.0\n")
        with pytest.raises(SchemaError, match="value"):
            read_annotation_csv(path)

    def test_feature_empty_cells_ignored_nan_allowed(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("subject_id,modality,timestamp\n"
                        "s,m,0.0,1.0,,nan\ns,m,0.5,,-inf,2.0\n")
        (fs,) = read_feature_csv(path)
        np.testing.assert_array_equal(fs.features, [[1.0, np.nan], [-np.inf, 2.0]])
        path.write_text("subject_id,modality,timestamp\ns,m,0.0,,oops,1.0\n")
        with pytest.raises(SchemaError, match="f.csv:2: column 'f1' is not a number"):
            read_feature_csv(path)

    @pytest.mark.parametrize("text,error", [
        ("subject_id,annotator_id,timestamp,value,x\ns,a,0.0,0.5\n",
         ":1: expected 4 columns, got 5"),
        ("subject_id,annotator_id,timestamp,value\ns,a,0.0,0.5,1\n",
         ":2: expected 4 columns, got 5"),
        ("subject_id,annotator_id,timestamp,value\n\ns,a,0.0,0.5\ns,a,1.0,inf\n",
         ":4: column 'value' is not finite: 'inf'"),
        ("subject_id,annotator_id,timestamp,value\ns,a,,0.5\n",
         ":2: column 'timestamp' is not a number: ''"),
    ])
    def test_annotation_rows_checked(self, tmp_path, text, error):
        path = tmp_path / "a.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=f"a.csv{error}"):
            read_annotation_csv(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,annotator_id,timestamp,value\ns,a,0.0,0.5\ns,a,oops,0.5\n"
        )
        with pytest.raises(SchemaError, match=":3"):
            read_annotation_csv(path)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,annotator_id,timestamp,value\n"
            "s,a,1.0,0.5\ns,a,1.0,0.6\n"
        )
        with pytest.raises(SchemaError, match=r"bad.csv:3: duplicate"):
            read_annotation_csv(path)

    def test_dataset_round_trip(self, tmp_path):
        table, report = build_dataset(
            [make_series(dim=4)],
            [constant_trace(0.4, annotator="a1"),
             constant_trace(0.6, annotator="a2")],
            WindowConfig(),
        )
        first = write_dataset(tmp_path / "one", table, report, WindowConfig())
        back, manifest = read_dataset(tmp_path / "one")
        assert len(back) == len(table)
        assert manifest["window"] == {"window_len": 3.0, "stride": 0.4}
        assert manifest["subjects"] == ["s1"]
        for name in ("subjects", "starts", "n_annotators", "mu", "sigma", "x"):
            np.testing.assert_array_equal(getattr(back, name), getattr(table, name))
        second = write_dataset(tmp_path / "two", back, report, WindowConfig())
        assert second.read_bytes() == first.read_bytes()

    def test_feature_csv_round_trip(self, tmp_path):
        # Two modalities of different widths, with NaN cells.
        features, _ = ragged_inputs(0)
        write_feature_csv(tmp_path / "one.csv", features)
        back = read_feature_csv(tmp_path / "one.csv")
        assert [(fs.subject_id, fs.modality) for fs in back] == [
            (fs.subject_id, fs.modality) for fs in features]
        for got, ref in zip(back, features):
            np.testing.assert_array_equal(got.timestamps, ref.timestamps)
            np.testing.assert_array_equal(got.features, ref.features)
        write_feature_csv(tmp_path / "two.csv", back)
        assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_annotation_csv_round_trip(self, tmp_path):
        _, traces = ragged_inputs(0)
        write_annotation_csv(tmp_path / "one.csv", traces)
        back = read_annotation_csv(tmp_path / "one.csv")
        assert [(tr.subject_id, tr.annotator_id) for tr in back] == [
            (tr.subject_id, tr.annotator_id) for tr in traces]
        for got, ref in zip(back, traces):
            np.testing.assert_array_equal(got.timestamps, ref.timestamps)
            np.testing.assert_array_equal(got.values, ref.values)
        write_annotation_csv(tmp_path / "two.csv", back)
        assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.fixture(scope="module")
def written_csvs(tmp_path_factory):
    """The synthetic features and annotations of a small panel, and the
    dataset built from them, each written as a CSV."""
    out = tmp_path_factory.mktemp("csvs")
    cfg = SyntheticConfig(n_subjects=4, duration=40.0, frame_rate=10.0,
                          n_annotators=3, feature_dim=6, latent_dim=2, seed=2)
    paths, _ = write_dataset_csvs(cfg, out)
    table, report = build_dataset(read_feature_csv(paths["features"]),
                                  read_annotation_csv(paths["annotations"]),
                                  WindowConfig())
    paths["dataset"] = write_dataset(out / "built", table, report, WindowConfig())
    return paths


READERS = {"features": read_feature_csv, "annotations": read_annotation_csv,
           "dataset": read_dataset}


def read_plain(path, table):
    """The reader of ``table`` on ``path``, in the form :func:`read_reference` gives."""
    if table == "features":
        return [((fs.subject_id, fs.modality), fs.timestamps, fs.features)
                for fs in read_feature_csv(path)]
    if table == "annotations":
        return [((tr.subject_id, tr.annotator_id), tr.timestamps, tr.values)
                for tr in read_annotation_csv(path)]
    got, _ = read_dataset(path)
    return got.subjects, got.starts, got.n_annotators, got.mu, got.sigma, got.x


def assert_same(got, want, table):
    """Two results of :func:`read_plain` (or of the reference) hold the same
    ids and the same arrays, shapes and dtypes included."""
    if table == "dataset":
        got, want = [(None, *got)], [(None, *want)]
    assert [key for key, *_ in got] == [key for key, *_ in want]
    for (_, *arrays), (_, *ref_arrays) in zip(got, want):
        for a, b in zip(arrays, ref_arrays):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)


def assert_matches_reference(path, table):
    """The reader and the row-by-row reference agree on ``path``: the same
    arrays, or the same error.  Returns the error, if any."""
    try:
        want = read_reference(path, table)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as info:
            read_plain(path, table)
        assert str(info.value) == str(exc)
        return str(exc)
    assert_same(read_plain(path, table), want, table)
    return None


class TestNotUtf8:
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_first_bad_byte_names_its_line(self, kind, written_csvs, tmp_path):
        lines = written_csvs[kind].read_bytes().splitlines(keepends=True)
        bad_line = len(lines) * 3 // 4
        # The text layer decodes 8 KB at a time; past the first chunk its
        # error offset no longer counts from the start of the file.
        assert len(b"".join(lines[:bad_line - 1])) > 8192
        lines[bad_line - 1] = lines[bad_line - 1].replace(b",", b"\xff,", 1)
        bad = tmp_path / written_csvs[kind].name
        for bom in (b"", codecs.BOM_UTF8):  # a byte-order mark moves no line
            bad.write_bytes(bom + b"".join(lines))
            with pytest.raises(SchemaError) as info:
                READERS[kind](bad)
            assert str(info.value) == f"{bad}:{bad_line}: not UTF-8 text"

    def test_json_after_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(codecs.BOM_UTF8 + b'{\n  "seed": 3\n}\n')
        assert pipeline.read_json(path) == {"seed": 3}
        path.write_bytes(codecs.BOM_UTF8 + b'{\n  "seed": "\xff"\n}\n')
        with pytest.raises(SchemaError, match="cfg.json:2: not UTF-8 text"):
            pipeline.read_json(path)


class TestCsvRules:
    ANNOTATIONS = "subject_id,annotator_id,timestamp,value\n"

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_byte_order_mark_accepted(self, kind, written_csvs, tmp_path):
        path = tmp_path / written_csvs[kind].name
        path.write_bytes(codecs.BOM_UTF8 + written_csvs[kind].read_bytes())
        assert_same(read_plain(path, kind), read_plain(written_csvs[kind], kind), kind)

    @pytest.mark.parametrize("row,line", [
        ('"s\n1",a,0.0,oops\n', 2),   # a bad cell in the two-line row
        ('"s\n1",a,0.0,0.5\n', 8),    # a bad cell after it
    ])
    def test_lines_are_physical(self, tmp_path, row, line):
        # Line 2 opens a quoted subject and line 3 closes it; 'oops' is the
        # value on line 8.
        path = tmp_path / "ml.csv"
        good = "".join(f"s,a,{t}.0,0.5\n" for t in range(1, 5))
        path.write_text(self.ANNOTATIONS + row + good + "s,a,9.0,oops\n")
        with pytest.raises(SchemaError, match=f"ml.csv:{line}: column 'value' is "
                                              "not a number: 'oops'"):
            read_annotation_csv(path)

    def test_series_errors_name_physical_lines(self, tmp_path):
        path = tmp_path / "ml.csv"
        path.write_text(self.ANNOTATIONS + '"s\n1",a,0.0,0.5\n"s\n1",a,0.0,0.6\n')
        with pytest.raises(SchemaError, match=r"ml.csv:4: duplicate timestamp 0.0 "
                                              r"in trace s\n1/a \(first on line 2\)"):
            read_annotation_csv(path)

    def test_row_errors_come_before_series_errors(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(self.ANNOTATIONS + "s,a,1.0,0.5\ns,a,1.0,0.6\ns,a,oops,0.5\n")
        with pytest.raises(SchemaError, match="a.csv:4: column 'timestamp'"):
            read_annotation_csv(path)

    @pytest.mark.parametrize("rows,error", [
        # A changed dimension on line 3 and a repeated timestamp on line 4.
        (["0.0,1.0,2.0", "0.5,1.0", "0.0,1.0,2.0"], ":3: feature dimension differs "
                                                     r"from line 2 \(2\)"),
        # The repeated timestamp comes first.
        (["0.0,1.0,2.0", "0.0,1.0,2.0", "0.5,1.0"], ":3: duplicate timestamp 0.0 "
                                                     r"in series s/m \(first on line 2\)"),
        # One row with both faults is named for its dimension.
        (["0.0,1.0,2.0", "0.0,1.0"], r":3: feature dimension differs from line 2 \(2\)"),
    ])
    def test_series_errors_in_file_order(self, tmp_path, rows, error):
        path = tmp_path / "f.csv"
        path.write_text("subject_id,modality,timestamp\n"
                        + "".join(f"s,m,{row}\n" for row in rows))
        with pytest.raises(SchemaError, match=f"f.csv{error}"):
            read_feature_csv(path)

    @pytest.mark.parametrize("cell,problem", [("2.5", "is not an integer"),
                                              ("100000000000000000000", "is out of range")])
    def test_n_annotators_is_a_64_bit_integer(self, tmp_path, cell, problem):
        path = tmp_path / "dataset.csv"
        path.write_text("subject_id,window_start,n_annotators,mu,sigma\n"
                        f"s,0.0,3,0.5,0.1\ns,0.4,{cell},0.5,0.1\n")
        with pytest.raises(SchemaError, match=f"dataset.csv:3: column 'n_annotators' "
                                              f"{problem}: '{cell}'"):
            read_dataset(path)

    def test_csv_error_names_its_line(self, tmp_path):
        # An unclosed quote swallows the rest of the file into one field.
        path = tmp_path / "a.csv"
        path.write_text(self.ANNOTATIONS + "s,a,0.0,0.5\n\"" + "x" * 200_000 + "\n")
        with pytest.raises(SchemaError, match="a.csv:3: field larger than field limit"):
            read_annotation_csv(path)


def fuzz_base(table):
    """The rows, header first, of a small valid file of ``table``: cells as
    raw CSV text."""
    times = [fmt_float(0.5 * k) for k in range(9)]
    if table == "features":
        return [["subject_id", "modality", "timestamp", "f0", "f1"]] + [
            [s, m, t] + [fmt_float(0.1 * k + d) for d in range(dim)]
            for s in ("s0", "s1") for m, dim in (("a", 2), ("b", 1))
            for k, t in enumerate(times)]
    if table == "annotations":
        return [["subject_id", "annotator_id", "timestamp", "value"]] + [
            [s, a, t, fmt_float((k % 4 + j) / 8.0)] for s in ("s0", "s1")
            for j, a in enumerate(("r0", "r1", "r2")) for k, t in enumerate(times)]
    return [["subject_id", "window_start", "n_annotators", "mu", "sigma", "f0", "f1"]] + [
        [s, fmt_float(0.4 * k), "3", fmt_float(0.3 + 0.1 * k), "0.05",
         fmt_float(k - i), fmt_float(0.5 * i)]
        for i, s in enumerate(("s0", "s1", "s2", "s3", "s4", "s5")) for k in range(3)]


# Cells the fuzzer writes in place of a good one.
FUZZ_CELLS = ["nan", "inf", "-inf", "", "oops", "1e400", "-0.5", "2.5", "0",
              "100000000000000000000", "\"0.5\"", "\"s\n1\"", "1\"5"]


def fuzz_edit(rows, op, i, j, cell):
    """Apply one edit to the ``rows`` of a file, in place (a "byte" edit is
    made to the file's bytes)."""
    row = rows[i % len(rows)]
    at = j % max(len(row), 1)
    text = row[at] if row else ""
    if op == "shuffle":
        body = rows[1:]
        np.random.default_rng(i).shuffle(body)
        rows[1:] = body
    elif op == "blank":
        rows.insert(i % len(rows) + 1, [])
    elif op == "repeat-row":
        rows.insert(i % len(rows), list(row))
    elif not row:
        return
    elif op == "drop":
        del row[at]
    elif op == "repeat":
        row.insert(at, text)
    elif op == "swap":
        row[at], row[(at + 1) % len(row)] = row[(at + 1) % len(row)], text
    elif op == "set":
        row[at] = cell
    elif op == "quote":
        row[at] = f'"{text}"'
    elif op == "newline":
        row[at] = f'"{text[:i % (len(text) + 1)]}\n{text[i % (len(text) + 1):]}"'
    elif op == "stray-quote":
        row[at] = text[:i % (len(text) + 1)] + '"' + text[i % (len(text) + 1):]


FUZZ_OPS = ["drop", "repeat", "swap", "set", "quote", "newline", "stray-quote",
            "blank", "repeat-row", "shuffle", "byte"]


@pytest.fixture(scope="module")
def fuzz_annotations(tmp_path_factory):
    """A valid annotation file for ``build`` runs on fuzzed features."""
    path = tmp_path_factory.mktemp("fuzz") / "annotations.csv"
    path.write_text("".join(",".join(row) + "\n" for row in fuzz_base("annotations")))
    return path


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(table=st.sampled_from(sorted(READERS)),
           edits=st.lists(st.tuples(st.sampled_from(FUZZ_OPS), st.integers(0, 999),
                                    st.integers(0, 999), st.sampled_from(FUZZ_CELLS)),
                          max_size=3),
           bom=st.booleans(), crlf=st.booleans(), final_newline=st.booleans())
    def test_reader_matches_reference_and_cli_exits_cleanly(
            self, tmp_path_factory, fuzz_annotations, table, edits, bom, crlf,
            final_newline):
        rows = fuzz_base(table)
        for edit in edits:
            fuzz_edit(rows, *edit)
        text = "\n".join(",".join(row) for row in rows) + "\n" * final_newline
        raw = text.replace("\n", "\r\n" if crlf else "\n").encode()
        for op, i, _, _ in edits:
            if op == "byte":  # not UTF-8
                raw = raw[:i * 7 % (len(raw) + 1)] + b"\xff" + raw[i * 7 % (len(raw) + 1):]
        base = tmp_path_factory.mktemp("fuzz")
        path = base / f"{table}.csv"
        path.write_bytes(codecs.BOM_UTF8 * bom + raw)
        error = assert_matches_reference(path, table)

        args = {
            "features": ["build", "--features", path, "--annotations", fuzz_annotations],
            "annotations": ["fit", "--annotations", path],
            "dataset": ["run", "--dataset", path, "--k-folds", 3, "--n-seeds", 1,
                        "--max-epochs", 1, "--variants", "fully_shared", "--baselines",
                        "--density-windows", 0],
        }[table]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([str(a) for a in [*args, "--out", base / "out"]])
        assert code in (0, 2), err.getvalue()
        if error:
            assert code == 2 and error in err.getvalue()


# ---------------------------------------------------------------------------
# Loop-form reference: the per-window loops the columnar windowing replaced.
# The array code must reproduce them exactly (same summation order).
# ---------------------------------------------------------------------------


def loop_window_features(series, cfg):
    keep = ~np.any(np.isnan(series.features), axis=1)
    ts, feats = series.timestamps[keep], series.features[keep]
    out, skipped = [], []
    if series.timestamps.size == 0:
        return out, skipped
    for start in window_starts(float(series.timestamps[-1]), cfg):
        lo = np.searchsorted(ts, start, side="left")
        hi = np.searchsorted(ts, start + cfg.window_len, side="left")
        if hi <= lo:
            skipped.append(float(start))
            continue
        out.append((float(start), feats[lo:hi].mean(axis=0)))
    return out, skipped


def loop_window_consensus(traces, cfg, epsilon):
    """One subject's windows as (start, (mu, sigma), n_annotators), plus drops."""
    duration = max(float(tr.timestamps[-1]) for tr in traces if tr.timestamps.size)
    out, dropped = [], []
    for start in window_starts(duration, cfg):
        per_annotator = []
        for tr in traces:
            lo = np.searchsorted(tr.timestamps, start, side="left")
            hi = np.searchsorted(tr.timestamps, start + cfg.window_len, side="left")
            if hi > lo:
                per_annotator.append(float(tr.values[lo:hi].mean()))
        if len(per_annotator) < 2:
            dropped.append(float(start))
            continue
        target = tuple(map(float, clamp_moments_arrays(
            *consensus_moments(per_annotator), epsilon)))
        out.append((float(start), target, len(per_annotator)))
    return out, dropped


def loop_build_dataset(features, annotations, cfg, epsilon):
    """Rows (subject, start, vector, (mu, sigma), n) and report counts."""
    modalities = sorted({fs.modality for fs in features})
    subjects = sorted({fs.subject_id for fs in features}
                      & {tr.subject_id for tr in annotations})
    rows, counts = [], {"skipped": 0, "dropped": 0, "unmatched": 0}
    for subject in subjects:
        per_modality = []
        for m in modalities:
            fs = next(f for f in features
                      if f.subject_id == subject and f.modality == m)
            wins, skipped = loop_window_features(fs, cfg)
            counts["skipped"] += len(skipped)
            per_modality.append({int(round(s / cfg.stride)): v for s, v in wins})
        consensus, dropped = loop_window_consensus(
            [tr for tr in annotations if tr.subject_id == subject], cfg, epsilon
        )
        counts["dropped"] += len(dropped)
        targets = {int(round(s / cfg.stride)): (s, t, n) for s, t, n in consensus}
        feat_ks = set.intersection(*(set(d) for d in per_modality))
        common = sorted(feat_ks & set(targets))
        counts["unmatched"] += len(feat_ks | set(targets)) - len(common)
        for k in common:
            start, target, n = targets[k]
            vec = np.concatenate([d[k] for d in per_modality])
            rows.append((subject, start, vec, target, n))
    return rows, counts


def ragged_inputs(seed):
    """Odd frame and mark rates with dropped frames and marks, NaN frames,
    a feature gap (empty windows), and annotators who stop early."""
    rng = np.random.default_rng(seed)
    features, traces = [], []
    for s, subject in enumerate(("s0", "s1", "s2")):
        for modality, dim, fps in (("audio", 3, 29.97), ("video", 1, 7.3)):
            t = np.arange(int(30 * fps)) / fps
            keep = rng.random(t.size) > 0.15
            if subject == "s1" and modality == "audio":
                keep &= (t < 9.0) | (t > 14.5)
            feats = rng.normal(size=(int(keep.sum()), dim))
            feats[rng.random(feats.shape) < 0.03] = np.nan
            features.append(FrameSeries(subject, t[keep], feats, modality))
        for a in range(4):
            t = np.arange(int(31 * 7.3)) / 7.3
            keep = rng.random(t.size) > 0.25
            if a >= 1:
                keep &= t < 12.0 + 4.0 * s + 2.0 * a
            traces.append(AnnotationTrace(subject, f"r{a}", t[keep],
                                          rng.uniform(0.0, 1.0, int(keep.sum()))))
    return features, traces


class TestLoopReference:
    CFG = WindowConfig(3.0, 0.4)

    @pytest.mark.parametrize("chunk", [1, 7, 512])
    def test_annotation_reader_matches_row_walk(self, tmp_path, monkeypatch, chunk):
        # Every table, its rows shuffled so that series interleave over many
        # chunks (features of two widths, with NaN cells), against the
        # row-by-row reference; then one bad row in a late chunk, which must
        # still be named by its line.
        monkeypatch.setattr(pipeline, "_CHUNK_ROWS", chunk)
        features, traces = ragged_inputs(1)
        write_feature_csv(tmp_path / "features.csv", features)
        write_annotation_csv(tmp_path / "annotations.csv", traces)
        table, report = build_dataset(features, traces, self.CFG)
        cases = [("features", tmp_path / "features.csv", 2, "nan", "'timestamp' is not finite"),
                 ("annotations", tmp_path / "annotations.csv", 3, "nan", "'value' is not finite"),
                 ("dataset", write_dataset(tmp_path / "built", table, report, self.CFG),
                  4, "-0.5", "'sigma' is negative")]
        for kind, path, cell, bad, problem in cases:
            header, *rows = path.read_text().splitlines(keepends=True)
            np.random.default_rng(4).shuffle(rows)
            path.write_text(header + "".join(rows))
            assert assert_matches_reference(path, kind) is None
            cells = rows[-3].split(",")
            cells[cell] = bad + "\n" * (cell == len(cells) - 1)
            rows[-3] = ",".join(cells)
            path.write_text(header + "".join(rows))
            assert assert_matches_reference(path, kind) == (
                f"{path}:{len(rows) - 1}: column {problem}: '{bad}'")


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_features_match_loop(self, seed):
        features, _ = ragged_inputs(seed)
        # A regular 60 s stream puts > 32 windows on one frame count.
        features.append(make_series(duration=60.0, fps=25.0, dim=2))
        for fs in features:
            starts, means, skipped = window_features(fs, self.CFG)
            wins, ref_skipped = loop_window_features(fs, self.CFG)
            assert starts.tolist() == [s for s, _ in wins]
            assert means.shape == (len(wins), fs.dim)
            for got, (_, ref) in zip(means, wins):
                np.testing.assert_array_equal(got, ref)
            assert skipped.tolist() == ref_skipped

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_consensus_matches_loop(self, seed):
        _, traces = ragged_inputs(seed)
        table, dropped = window_consensus(traces, self.CFG, 1e-4)
        at = 0
        for subject in ("s0", "s1", "s2"):
            ref, ref_dropped = loop_window_consensus(
                [tr for tr in traces if tr.subject_id == subject], self.CFG, 1e-4
            )
            rows = slice(at, at + len(ref))
            at += len(ref)
            assert table.subjects[rows].tolist() == [subject] * len(ref)
            assert table.starts[rows].tolist() == [s for s, _, _ in ref]
            assert table.n_annotators[rows].tolist() == [n for _, _, n in ref]
            assert table.mu[rows].tolist() == [t[0] for _, t, _ in ref]
            assert table.sigma[rows].tolist() == [t[1] for _, t, _ in ref]
            assert dropped[subject].tolist() == ref_dropped
        assert at == len(table)
        assert sum(d.size for d in dropped.values()) > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_build_dataset_matches_loop(self, seed):
        features, traces = ragged_inputs(seed)
        table, report = build_dataset(features, traces, self.CFG)
        rows, counts = loop_build_dataset(features, traces, self.CFG, 1e-4)
        assert len(table) == report.n_samples == len(rows)
        assert table.subjects.tolist() == [r[0] for r in rows]
        assert table.starts.tolist() == [r[1] for r in rows]
        assert table.n_annotators.tolist() == [r[4] for r in rows]
        assert table.mu.tolist() == [r[3][0] for r in rows]
        assert table.sigma.tolist() == [r[3][1] for r in rows]
        np.testing.assert_array_equal(table.x, np.stack([r[2] for r in rows]))
        assert (report.windows_skipped_empty, report.windows_dropped_few_annotators,
                report.windows_unmatched) == (
            counts["skipped"], counts["dropped"], counts["unmatched"])
        assert counts["skipped"] and counts["dropped"] and counts["unmatched"]
