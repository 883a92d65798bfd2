"""Synthetic generator: determinism, validity, convergence, revelation."""

import csv
import hashlib
import math

import numpy as np
import pytest

from annodist.errors import DomainError
from annodist.metrics import PairedSeries, ccc
from annodist.pipeline import WindowConfig, build_dataset, window_consensus, window_starts
from annodist.synthetic import (
    SyntheticConfig,
    _subject_latents,
    generate,
    write_dataset_csvs,
)

SMALL = SyntheticConfig(n_subjects=3, duration=20.0, frame_rate=10.0,
                        n_annotators=4, feature_dim=8, latent_dim=2, seed=42)


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDeterminism:
    def test_same_seed_same_arrays(self):
        f1, a1, t1 = generate(SMALL)
        f2, a2, t2 = generate(SMALL)
        for x, y in zip(f1, f2):
            np.testing.assert_array_equal(x.features, y.features)
            np.testing.assert_array_equal(x.timestamps, y.timestamps)
        for x, y in zip(a1, a2):
            np.testing.assert_array_equal(x.values, y.values)
        for name in ("subjects", "starts", "mu", "sigma"):
            assert getattr(t1, name).tolist() == getattr(t2, name).tolist()

    def test_different_seed_differs(self):
        _, a1, _ = generate(SMALL)
        cfg2 = SyntheticConfig(**{**SMALL.__dict__, "seed": 43})
        _, a2, _ = generate(cfg2)
        assert not np.array_equal(a1[0].values, a2[0].values)

    def test_csv_bytes_identical(self, tmp_path):
        p1, _ = write_dataset_csvs(SMALL, tmp_path / "one")
        p2, _ = write_dataset_csvs(SMALL, tmp_path / "two")
        for key in p1:
            assert file_hash(p1[key]) == file_hash(p2[key])


class TestValidity:
    def test_annotator_values_in_unit_interval(self):
        _, annots, _ = generate(SMALL)
        for tr in annots:
            assert np.all(tr.values >= 0.0) and np.all(tr.values <= 1.0)

    def test_truth_satisfies_validity_conditions(self):
        _, _, truth = generate(SMALL)
        mu, sigma = truth.mu, truth.sigma
        assert mu.size and np.all((0.0 < mu) & (mu < 1.0))
        assert np.all((0.0 < sigma**2) & (sigma**2 < mu * (1.0 - mu)))

    def test_biased_annotators_stay_in_range(self):
        cfg = SyntheticConfig(**{**SMALL.__dict__, "annotator_bias_std": 0.2})
        _, annots, _ = generate(cfg)
        for tr in annots:
            assert np.all(tr.values >= 0.0) and np.all(tr.values <= 1.0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SyntheticConfig(n_annotators=1)
        with pytest.raises(DomainError):
            SyntheticConfig(noise_std=-0.1)
        with pytest.raises(DomainError):
            SyntheticConfig(identity_features=True, feature_dim=5, latent_dim=2)


class TestConvergence:
    def test_large_panel_moments_approach_truth(self):
        # Empirical window moments from a 200-rater panel track the latent
        # trajectories to within 0.02.
        cfg = SyntheticConfig(n_subjects=2, duration=30.0, n_annotators=200,
                              feature_dim=6, latent_dim=2, seed=7)
        wcfg = WindowConfig()
        _, annots, truth = generate(cfg, wcfg)
        table, _ = window_consensus(annots, wcfg)
        assert len(table)
        ref = dict(zip(zip(truth.subjects.tolist(), truth.starts.tolist()),
                       zip(truth.mu, truth.sigma)))
        for subject, start, mu, sigma in zip(table.subjects.tolist(),
                                             table.starts.tolist(),
                                             table.mu, table.sigma):
            ref_mu, ref_sigma = ref[(subject, start)]
            assert abs(mu - ref_mu) < 0.02
            assert abs(sigma - ref_sigma) < 0.02


class TestConsensusBias:
    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    def test_sigma_reads_low_by_the_population_convention(self, n):
        # consensus_moments divides by N, so the consensus sigma reads low
        # against sigma*, by about sqrt((N - 1) / N).  The medians of this
        # panel are 0.801, 0.853, 0.932 and 0.942.
        wcfg = WindowConfig()
        cfg = SyntheticConfig(n_subjects=6, duration=60.0, n_annotators=n, seed=3)
        _, annots, truth = generate(cfg, wcfg)
        table, _ = window_consensus(annots, wcfg)
        star = dict(zip(zip(truth.subjects.tolist(), truth.starts.tolist()), truth.sigma))
        ratio = table.sigma / np.array(
            [star[key] for key in zip(table.subjects.tolist(), table.starts.tolist())])
        assert ratio.size
        assert math.sqrt((n - 1) / n) - 0.05 < np.median(ratio) < 1.0


class TestRevelation:
    def test_identity_noiseless_features_reveal_latents(self):
        cfg = SyntheticConfig(
            n_subjects=4, duration=40.0, frame_rate=10.0, n_annotators=6,
            feature_dim=4, latent_dim=2, noise_std=0.0, seed=3,
            identity_features=True,
        )
        wcfg = WindowConfig()
        feats, annots, truth = generate(cfg, wcfg)
        table, _ = build_dataset(feats, annots, wcfg)
        x = table.x
        ref = dict(zip(zip(truth.subjects.tolist(), truth.starts.tolist()), truth.mu))
        truth_mu = np.array(
            [ref[key] for key in zip(table.subjects.tolist(), table.starts.tolist())]
        )
        # Column 0 of the identity map is the latent mean trajectory itself.
        assert ccc(PairedSeries(x[:, 0], truth_mu)) > 0.99
        design = np.column_stack([x, np.ones(len(x))])
        coef, *_ = np.linalg.lstsq(design, truth_mu, rcond=None)
        assert ccc(PairedSeries(design @ coef, truth_mu)) > 0.99


class TestGroundTruthWindows:
    def test_truth_rows_match_loop(self):
        # Loop-form reference: each window's latent means, one slice at a time.
        cfg = SyntheticConfig(n_subjects=2, duration=40.0, frame_rate=29.97,
                              annotation_rate=7.3, n_annotators=3, feature_dim=4,
                              latent_dim=1, seed=9)
        wcfg = WindowConfig(3.0, 0.4)
        _, _, truth = generate(cfg, wcfg)
        n_marks = int(round(cfg.duration * cfg.annotation_rate))
        t_marks = np.arange(n_marks) / cfg.annotation_rate
        expected = []
        for s in range(cfg.n_subjects):
            mu, sigma, _ = _subject_latents(cfg, s, t_marks)
            for start in window_starts(float(t_marks[-1]), wcfg):
                lo = np.searchsorted(t_marks, start, side="left")
                hi = np.searchsorted(t_marks, start + wcfg.window_len, side="left")
                expected.append((f"s{s:03d}", float(start),
                                 float(mu[lo:hi].mean()), float(sigma[lo:hi].mean())))
        assert truth.subjects.tolist() == [row[0] for row in expected]
        assert truth.starts.tolist() == [row[1] for row in expected]
        assert truth.mu.tolist() == [row[2] for row in expected]
        assert truth.sigma.tolist() == [row[3] for row in expected]


class TestGroundTruthCsv:
    def test_round_trip(self, tmp_path):
        paths, _ = write_dataset_csvs(SMALL, tmp_path)
        with open(paths["ground_truth"], newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        _, _, expected = generate(SMALL)
        assert header == ["subject_id", "window_start", "mu_true", "sigma_true"]
        assert [row[0] for row in rows] == expected.subjects.tolist()
        for i, name in enumerate(("starts", "mu", "sigma"), 1):
            assert [float(row[i]) for row in rows] == getattr(expected, name).tolist()
