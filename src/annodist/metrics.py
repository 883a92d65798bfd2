"""Evaluation metrics: concordance, Beta-Beta KL divergence, Wilcoxon.

CCC compares a :class:`PairedSeries` of predictions and targets; the KL
divergence works elementwise on arrays of Beta shapes.  All statistics use
the population (divide-by-N) convention, matching the consensus module.
The Wilcoxon signed-rank test drops zero differences, ranks ties by average
rank, enumerates the exact null distribution when the effective sample is
small and otherwise uses the normal approximation with tie and continuity
corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import special
from .errors import DomainError, InsufficientDataError

EXACT_WILCOXON_MAX_N = 20


@dataclass(frozen=True)
class PairedSeries:
    """Aligned prediction/target series of equal length >= 2."""

    predictions: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        pred = np.asarray(self.predictions, dtype=np.float64)
        targ = np.asarray(self.targets, dtype=np.float64)
        if pred.ndim != 1 or targ.ndim != 1 or pred.size != targ.size:
            raise DomainError("PairedSeries: series must be 1-D and equal length")
        if pred.size < 2:
            raise InsufficientDataError("PairedSeries: need at least 2 pairs")
        if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(targ))):
            raise DomainError("PairedSeries: values must be finite")
        object.__setattr__(self, "predictions", pred)
        object.__setattr__(self, "targets", targ)


def ccc(s: PairedSeries) -> float:
    """Concordance Correlation Coefficient: 2*cov / (var_x + var_y + dmean^2).

    Penalises both decorrelation and location/scale shift; population
    statistics throughout.  Returns 0 for the degenerate constant-equal case.
    Both series are first divided by the power of two at their common max
    |value|: an exact scale, after which no square of a finite series can
    overflow.
    """
    _, e = math.frexp(max(np.max(np.abs(s.predictions)), np.max(np.abs(s.targets))))
    x = np.ldexp(s.predictions, -e)
    y = np.ldexp(s.targets, -e)
    mx = x.mean()
    my = y.mean()
    cov = ((x - mx) * (y - my)).mean()
    d = mx - my  # d * d is correctly rounded; d ** 2 calls libm pow, which need not be
    denom = x.var() + y.var() + d * d
    if denom == 0.0:
        return 0.0
    return float(2.0 * cov / denom)


def kl_beta_arrays(alpha_p, beta_p, alpha_q, beta_q):
    """Closed-form KL(p || q) between Beta(alpha_p, beta_p) and
    Beta(alpha_q, beta_q), elementwise over shape arrays; >= 0."""
    ap = np.asarray(alpha_p, dtype=np.float64)
    bp = np.asarray(beta_p, dtype=np.float64)
    aq = np.asarray(alpha_q, dtype=np.float64)
    bq = np.asarray(beta_q, dtype=np.float64)
    if np.any(ap <= 0) or np.any(bp <= 0) or np.any(aq <= 0) or np.any(bq <= 0):
        raise DomainError("kl_beta_arrays: shape parameters must be positive")
    kl = (
        special.log_beta(aq, bq)
        - special.log_beta(ap, bp)
        + (ap - aq) * special.digamma(ap)
        + (bp - bq) * special.digamma(bp)
        + (aq - ap + bq - bp) * special.digamma(ap + bp)
    )
    # KL is provably non-negative; clear sub-1e-10 roundoff from near-equal pairs.
    return np.where((kl < 0.0) & (kl > -1e-10), 0.0, kl)


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # A tie group of c values that ends at rank r shares rank r - (c - 1) / 2.
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def _exact_cdf_at(doubled_ranks: np.ndarray, doubled_w: int) -> float:
    # Null distribution of W+ by polynomial product of (1 + z^(2r)) over the
    # doubled ranks (average ranks are half-integers, so 2r is integral).
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled_ranks:
        r = int(r)
        counts[r:] = counts[r:] + counts[:-r]
    return float(counts[: doubled_w + 1].sum() / counts.sum())


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a, b, mode: str = "auto") -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are dropped (Wilcoxon's convention); ties receive
    average ranks.  ``mode`` selects ``"exact"`` enumeration, the ``"approx"``
    normal approximation, or ``"auto"`` (exact when the effective n <= 20).
    Returns ``(statistic, p_value)`` with statistic = min(W+, W-).
    """
    if mode not in ("auto", "exact", "approx"):
        raise DomainError(f"wilcoxon_signed_rank: unknown mode {mode!r}")
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("wilcoxon_signed_rank: inputs must be equal-length 1-D")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("wilcoxon_signed_rank: inputs must be finite")
    diffs = x - y
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return WilcoxonResult(0.0, 1.0)
    if n < 6:
        raise InsufficientDataError(
            f"wilcoxon_signed_rank: need >= 6 non-zero differences, got {n}"
        )
    abs_d = np.abs(diffs)
    ranks = _average_ranks(abs_d)
    w_plus = float(ranks[diffs > 0.0].sum())
    w_total = float(ranks.sum())
    w_minus = w_total - w_plus
    statistic = min(w_plus, w_minus)

    use_exact = mode == "exact" or (mode == "auto" and n <= EXACT_WILCOXON_MAX_N)
    if use_exact:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        doubled_w = int(round(2.0 * statistic))
        p = min(1.0, 2.0 * _exact_cdf_at(doubled, doubled_w))
        return WilcoxonResult(statistic, p)

    mean_w = n * (n + 1) / 4.0
    var_w = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(abs_d, return_counts=True)
    var_w -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    num = w_plus - mean_w
    num -= 0.5 * math.copysign(1.0, num) if num != 0.0 else 0.0
    z = num / math.sqrt(var_w)
    p = min(1.0, 2.0 * _normal_sf(abs(z)))
    return WilcoxonResult(statistic, p)
