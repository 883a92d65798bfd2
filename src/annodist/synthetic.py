"""Seeded multi-annotator dataset generator with known per-window truth.

Each subject carries smooth latent trajectories (mu*(t), sigma*(t)) built
from low-frequency sinusoids and kept strictly inside the Beta validity
region.  Annotators are modelled as slowly drifting quantile levels
u_i(t) = frac(u_i0 + d_i * t): u_i(t) is exactly uniform at every instant,
so the cross-annotator value distribution at time t is exactly the Beta
with mean mu*(t) and standard deviation sigma*(t), while each annotator's
deviation is persistent within a window.  That persistence is what makes
the empirical cross-annotator moments of per-annotator window means converge
to (mu*, sigma*) as the panel grows; frame-wise independent draws would
average the disagreement away inside each window.

Features are a fixed random linear map of [mu*, sigma*, nuisance latents]
plus Gaussian observation noise.  All randomness flows from
``numpy.random.SeedSequence(cfg.seed, spawn_key=...)`` so generation is
deterministic and per-subject parallel-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import special
from .config import SyntheticConfig, WindowConfig
from .consensus import moment_match_arrays
from .errors import DomainError
from .pipeline import (
    AnnotationTrace,
    FrameSeries,
    _window_means,
    key_runs,
    write_annotation_csv,
    write_feature_csv,
    write_table,
)

_N_HARMONICS = 3


@dataclass(frozen=True)
class GroundTruth:
    """Per-window latent (mu*, sigma*), one element per (subject, window) in
    each column: the oracle for synthetic data."""

    subjects: np.ndarray
    starts: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _harmonic_sum(rng: np.random.Generator, t: np.ndarray, amplitude: float,
                  freq_range: tuple[float, float]) -> np.ndarray:
    """Sum of random low-frequency sinusoids with total swing <= amplitude."""
    weights = rng.uniform(0.5, 1.0, _N_HARMONICS)
    weights *= amplitude / weights.sum()
    freqs = rng.uniform(*freq_range, _N_HARMONICS)
    phases = rng.uniform(0.0, 2.0 * np.pi, _N_HARMONICS)
    out = np.zeros_like(t)
    for w, f, ph in zip(weights, freqs, phases):
        out += w * np.sin(2.0 * np.pi * f * t + ph)
    return out


def _subject_latents(cfg: SyntheticConfig, subject_idx: int, t: np.ndarray):
    rng = _rng(cfg.seed, 0, subject_idx)
    mu = 0.5 + _harmonic_sum(rng, t, rng.uniform(0.20, 0.27), (0.01, 0.06))
    sigma = rng.uniform(0.09, 0.16) + _harmonic_sum(
        rng, t, rng.uniform(0.04, 0.07), (0.01, 0.06)
    )
    nuisance = np.stack(
        [_harmonic_sum(rng, t, 0.3, (0.01, 0.08)) for _ in range(cfg.latent_dim)],
        axis=1,
    ) if cfg.latent_dim else np.zeros((t.size, 0))
    cap = mu * (1.0 - mu)
    if np.any(mu <= 0.0) or np.any(mu >= 1.0) or np.any(sigma**2 >= cap):
        raise DomainError("synthetic latents left the validity region")
    return mu, sigma, nuisance


def _subject_id(idx: int) -> str:
    return f"s{idx:03d}"


def generate(
    cfg: SyntheticConfig, window_cfg: WindowConfig | None = None
) -> tuple[list[FrameSeries], list[AnnotationTrace], GroundTruth]:
    """Generate feature series, annotation traces and the per-window oracle."""
    window_cfg = window_cfg or WindowConfig()
    n_frames = int(round(cfg.duration * cfg.frame_rate))
    n_marks = int(round(cfg.duration * cfg.annotation_rate))
    t_frames = np.arange(n_frames) / cfg.frame_rate
    t_marks = np.arange(n_marks) / cfg.annotation_rate

    n_latent = 2 + cfg.latent_dim
    feature_map = _rng(cfg.seed, 1).normal(
        0.0, 1.0 / np.sqrt(n_latent), (cfg.feature_dim, n_latent)
    )

    features: list[FrameSeries] = []
    annotations: list[AnnotationTrace] = []
    truth: list[tuple[np.ndarray, np.ndarray]] = []
    for s in range(cfg.n_subjects):
        subject = _subject_id(s)
        mu_f, sigma_f, nuisance_f = _subject_latents(cfg, s, t_frames)
        latents = np.column_stack([mu_f, sigma_f, nuisance_f])
        obs = latents @ feature_map.T
        if cfg.noise_std > 0:
            obs = obs + _rng(cfg.seed, 2, s).normal(
                0.0, cfg.noise_std, obs.shape
            )
        features.append(FrameSeries(subject, t_frames, obs, "synth"))

        mu_a, sigma_a, _ = _subject_latents(cfg, s, t_marks)
        alpha_a, beta_a = moment_match_arrays(mu_a, sigma_a)
        # The panel shares a slowly rotating base level; annotator i sits at
        # a stratified offset (i + 0.5)/n with a small personal wander.  The
        # uniform random start makes every annotator's level exactly uniform
        # at each instant (so values are exactly Beta distributed), and levels
        # are near-constant within one window (disagreement survives window
        # averaging).  The consensus sigma of N annotators divides by N, so it
        # reads low: its median over sigma* lies in (sqrt((N-1)/N) - 0.05, 1).
        prng = _rng(cfg.seed, 4, s)
        base = prng.random() + prng.uniform(0.03, 0.08) * np.sin(
            2.0 * np.pi * prng.uniform(0.02, 0.05) * t_marks
            + prng.uniform(0.0, 2.0 * np.pi)
        )
        # Each annotator draws from its own stream: the amplitude, frequency
        # and phase of its wander.
        arngs = [_rng(cfg.seed, 3, s, i) for i in range(cfg.n_annotators)]
        wander = np.array([[arng.uniform(0.015, 0.045), arng.uniform(0.02, 0.06),
                            arng.uniform(0.0, 2.0 * np.pi)] for arng in arngs])
        amp, freq, phase = (col[:, None] for col in wander.T)
        levels = np.mod(
            base
            + (np.arange(cfg.n_annotators)[:, None] + 0.5) / cfg.n_annotators
            + amp * np.sin(2.0 * np.pi * freq * t_marks + phase),
            1.0,
        )
        # One quantile call for the whole panel: the kernel is elementwise.
        panel = special.inv_reg_inc_beta(levels, alpha_a, beta_a)
        annotations += [AnnotationTrace(subject, f"a{i:02d}", t_marks, values)
                        for i, values in enumerate(panel)]

        # One call per latent, so that each is averaged in 1-D slices.
        starts, _, mu_w = _window_means(t_marks, mu_a, t_marks[-1], window_cfg)
        truth.append((mu_w, _window_means(t_marks, sigma_a, t_marks[-1], window_cfg)[2]))
    mu, sigma = map(np.concatenate, zip(*truth))
    subjects = np.repeat([_subject_id(s) for s in range(cfg.n_subjects)], starts.size)
    return features, annotations, GroundTruth(
        subjects, np.tile(starts, cfg.n_subjects), mu, sigma)


_GROUND_TRUTH_COLUMNS = ["subject_id", "window_start", "mu_true", "sigma_true"]


def write_ground_truth_csv(path, truth: GroundTruth) -> None:
    write_table(path, _GROUND_TRUTH_COLUMNS,
                key_runs(truth.subjects, [truth.starts, truth.mu, truth.sigma]))


def write_dataset_csvs(
    cfg: SyntheticConfig, outdir, window_cfg: WindowConfig | None = None
) -> tuple[dict[str, Path], dict[str, int]]:
    """Generate and write features/annotations/ground-truth CSV files.

    Returns each file's path and its number of data rows, by table name.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    features, annotations, truth = generate(cfg, window_cfg)
    paths = {
        "features": outdir / "features.csv",
        "annotations": outdir / "annotations.csv",
        "ground_truth": outdir / "ground_truth.csv",
    }
    write_feature_csv(paths["features"], features)
    write_annotation_csv(paths["annotations"], annotations)
    write_ground_truth_csv(paths["ground_truth"], truth)
    rows = {
        "features": sum(fs.timestamps.size for fs in features),
        "annotations": sum(tr.timestamps.size for tr in annotations),
        "ground_truth": truth.starts.size,
    }
    return paths, rows
