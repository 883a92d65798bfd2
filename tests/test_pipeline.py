"""Windowing, rescaling, consensus targets, dataset joins and CSV formats."""

import numpy as np
import pytest

from annodist import pipeline
from annodist.consensus import clamp_moments, consensus_moments
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
    """One subject's windows as (start, MomentPair, n_annotators), plus drops."""
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
        target = clamp_moments(consensus_moments(per_annotator), epsilon)
        out.append((float(start), target, len(per_annotator)))
    return out, dropped


def loop_build_dataset(features, annotations, cfg, epsilon):
    """Rows (subject, start, vector, MomentPair, n) and report counts."""
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
        # Interleaved, unsorted series over many chunks; then one bad row in
        # a late chunk, which must still be named by its line.
        monkeypatch.setattr(pipeline, "_CHUNK_ROWS", chunk)
        _, traces = ragged_inputs(1)
        rows = [f"{tr.subject_id},{tr.annotator_id},{fmt_float(t)},{fmt_float(v)}"
                for tr in traces for t, v in zip(tr.timestamps, tr.values)]
        np.random.default_rng(4).shuffle(rows)
        path = tmp_path / "a.csv"
        header = "subject_id,annotator_id,timestamp,value\n"
        path.write_text(header + "\n".join(rows) + "\n")
        read, walked = read_annotation_csv(path), pipeline._walk_annotation_rows(path)
        assert [(tr.subject_id, tr.annotator_id) for tr in read] == [
            (tr.subject_id, tr.annotator_id) for tr in walked]
        for got, ref in zip(read, walked):
            np.testing.assert_array_equal(got.timestamps, ref.timestamps)
            np.testing.assert_array_equal(got.values, ref.values)
        rows[-3] = rows[-3].rsplit(",", 1)[0] + ",nan"
        path.write_text(header + "\n".join(rows) + "\n")
        with pytest.raises(SchemaError, match=f"a.csv:{len(rows) - 1}: column "
                                              "'value' is not finite"):
            read_annotation_csv(path)

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
            assert table.mu[rows].tolist() == [t.mu for _, t, _ in ref]
            assert table.sigma[rows].tolist() == [t.sigma for _, t, _ in ref]
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
        assert table.mu.tolist() == [r[3].mu for r in rows]
        assert table.sigma.tolist() == [r[3].sigma for r in rows]
        np.testing.assert_array_equal(table.x, np.stack([r[2] for r in rows]))
        assert (report.windows_skipped_empty, report.windows_dropped_few_annotators,
                report.windows_unmatched) == (
            counts["skipped"], counts["dropped"], counts["unmatched"])
        assert counts["skipped"] and counts["dropped"] and counts["unmatched"]
