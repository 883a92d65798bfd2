"""Beta consensus modelling: moment matching and closed-form descriptors.

A window's annotator values are summarised by their empirical mean and
standard deviation (:class:`MomentPair`), clamped into the validity region

    0 < mu < 1,   0 < sigma^2 < mu * (1 - mu),

and mapped to Beta shape parameters by moment matching

    phi = mu * (1 - mu) / sigma^2 - 1,   alpha = mu * phi,   beta = (1 - mu) * phi.

From the fitted :class:`BetaParams` the higher-order descriptors (skewness,
excess kurtosis, median and quartiles) follow in closed form.

Scalar operations work on the frozen dataclasses below; the ``*_arrays``
variants operate on NumPy arrays for the batched paths (dataset building,
experiment evaluation) and assume already-clamped inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import special
from .errors import DomainError, InsufficientDataError, ValidityError, check

DEFAULT_EPSILON = 1e-4
EPSILON_RANGE = (lambda e: 0.0 < e < 0.5, "in (0, 0.5)")

#: Report order for the derived higher-order descriptors.
DESCRIPTOR_NAMES = ("median", "q25", "q75", "skew", "kurt")


@dataclass(frozen=True)
class MomentPair:
    """Empirical annotator mean and standard deviation for one window."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma)):
            raise DomainError("MomentPair: mu and sigma must be finite")
        if self.sigma < 0.0:
            raise DomainError("MomentPair: sigma must be non-negative")

    @property
    def variance(self) -> float:
        return self.sigma * self.sigma


@dataclass(frozen=True)
class BetaParams:
    """Shape pair (alpha, beta) of a Beta distribution; both strictly positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise DomainError("BetaParams: shapes must be finite")
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise DomainError("BetaParams: shapes must be positive")

    @property
    def concentration(self) -> float:
        """Total concentration alpha + beta (the phi of the moment map)."""
        return self.alpha + self.beta


@dataclass(frozen=True)
class DescriptorSet:
    """Closed-form summary statistics of a fitted Beta distribution."""

    mean: float
    std: float
    skew: float
    kurt_ex: float
    median: float
    q25: float
    q75: float

    def as_dict(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "std": self.std,
            "median": self.median,
            "q25": self.q25,
            "q75": self.q75,
            "skew": self.skew,
            "kurt": self.kurt_ex,
        }


def consensus_moments(annotations, ddof: int = 0) -> MomentPair:
    """Empirical mean and standard deviation of one window's annotator values.

    Uses the population convention (``ddof=0``) by default: the annotator set
    is treated as the full population of interest.
    """
    values = np.asarray(annotations, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise InsufficientDataError(
            f"consensus_moments: need at least 2 annotations, got {values.size}"
        )
    if not np.all(np.isfinite(values)):
        raise DomainError("consensus_moments: annotations must be finite")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise DomainError("consensus_moments: annotations must lie in [0, 1]")
    return MomentPair(float(values.mean()), float(values.std(ddof=ddof)))


def clamp_moments(raw: MomentPair, epsilon: float = DEFAULT_EPSILON) -> MomentPair:
    """Clip a raw moment pair into the strict interior of the validity region.

    ``mu`` is clipped into [epsilon, 1-epsilon] and ``sigma^2`` into
    [epsilon * mu(1-mu), (1-epsilon) * mu(1-mu)].  Total on its domain: the
    output always satisfies the validity conditions strictly.
    """
    mu, sigma = clamp_moments_arrays(
        np.asarray(raw.mu), np.asarray(raw.sigma), epsilon
    )
    return MomentPair(float(mu), float(sigma))


def clamp_moments_arrays(mu, sigma, epsilon: float = DEFAULT_EPSILON):
    """Vectorised :func:`clamp_moments` on arrays of raw moments."""
    check("clamp_moments", "epsilon", epsilon, EPSILON_RANGE)
    mu = np.clip(np.asarray(mu, dtype=np.float64), epsilon, 1.0 - epsilon)
    cap = mu * (1.0 - mu)
    var = np.clip(np.square(np.asarray(sigma, dtype=np.float64)),
                  epsilon * cap, (1.0 - epsilon) * cap)
    return mu, np.sqrt(var)


def moment_match(m: MomentPair) -> BetaParams:
    """Map a valid moment pair to Beta shapes; exact mean/variance round trip."""
    var = m.variance
    if not 0.0 < m.mu < 1.0:
        raise ValidityError(
            f"moment_match: need 0 < mu < 1, got mu={m.mu!r}"
        )
    cap = m.mu * (1.0 - m.mu)
    if not 0.0 < var < cap:
        raise ValidityError(
            f"moment_match: need 0 < sigma^2 < mu*(1-mu)={cap!r}, got sigma^2={var!r}"
        )
    alpha, beta = moment_match_arrays(np.asarray(m.mu), np.asarray(m.sigma))
    return BetaParams(float(alpha), float(beta))


def moment_match_arrays(mu, sigma):
    """Vectorised moment matching; inputs must already satisfy validity."""
    mu = np.asarray(mu, dtype=np.float64)
    var = np.square(np.asarray(sigma, dtype=np.float64))
    phi = mu * (1.0 - mu) / var - 1.0
    return mu * phi, (1.0 - mu) * phi


def beta_mean_std(p: BetaParams) -> tuple[float, float]:
    """Analytic mean and standard deviation of Beta(alpha, beta)."""
    mean, std = beta_mean_std_arrays(np.asarray(p.alpha), np.asarray(p.beta))
    return float(mean), float(std)


def beta_mean_std_arrays(alpha, beta):
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    total = alpha + beta
    mean = alpha / total
    std = np.sqrt(alpha * beta / (total * total * (total + 1.0)))
    return mean, std


def beta_skewness(p: BetaParams) -> float:
    """Closed-form skewness; sign follows sign(beta - alpha)."""
    return float(beta_skewness_arrays(np.asarray(p.alpha), np.asarray(p.beta)))


def beta_skewness_arrays(alpha, beta):
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    total = alpha + beta
    return 2.0 * (beta - alpha) * np.sqrt(total + 1.0) / (
        (total + 2.0) * np.sqrt(alpha * beta)
    )


def beta_excess_kurtosis(p: BetaParams) -> float:
    """Closed-form excess kurtosis (the uniform Beta(1,1) gives -1.2)."""
    return float(beta_excess_kurtosis_arrays(np.asarray(p.alpha), np.asarray(p.beta)))


def beta_excess_kurtosis_arrays(alpha, beta):
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    total = alpha + beta
    num = 6.0 * ((alpha - beta) ** 2 * (total + 1.0) - alpha * beta * (total + 2.0))
    return num / (alpha * beta * (total + 2.0) * (total + 3.0))


def beta_quantile(p: BetaParams, prob: float) -> float:
    """Exact quantile via inversion of the regularised incomplete Beta."""
    return special.inv_reg_inc_beta(prob, p.alpha, p.beta)


def beta_median_approx(p: BetaParams) -> float:
    """Closed-form median approximation (alpha - 1/3) / (alpha + beta - 2/3).

    Only valid for alpha > 1 and beta > 1; kept distinct from the exact
    ``beta_quantile(p, 0.5)`` inversion.
    """
    if p.alpha <= 1.0 or p.beta <= 1.0:
        raise DomainError(
            "beta_median_approx: approximation requires alpha > 1 and beta > 1"
        )
    return (p.alpha - 1.0 / 3.0) / (p.alpha + p.beta - 2.0 / 3.0)


def beta_pdf(p: BetaParams, x) -> float | np.ndarray:
    """Beta density at ``x``; integrates to 1 over (0, 1).

    Boundary values are allowed only where the density stays finite: x = 0
    with alpha < 1 (or x = 1 with beta < 1) raises a domain error.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("beta_pdf: x must lie in [0, 1]")
    if p.alpha < 1.0 and np.any(arr == 0.0):
        raise DomainError("beta_pdf: density diverges at x=0 for alpha < 1")
    if p.beta < 1.0 and np.any(arr == 1.0):
        raise DomainError("beta_pdf: density diverges at x=1 for beta < 1")
    out = beta_pdf_arrays(arr, p.alpha, p.beta)
    return float(out[0]) if scalar else out


def beta_pdf_arrays(x, alpha, beta):
    """Vectorised density; boundary points get their finite limit value."""
    x = np.asarray(x, dtype=np.float64)
    alpha = float(alpha)
    beta = float(beta)
    ln_norm = special.log_beta(alpha, beta)
    out = np.zeros_like(x)
    interior = (x > 0.0) & (x < 1.0)
    xi = x[interior]
    out[interior] = np.exp(
        (alpha - 1.0) * np.log(xi) + (beta - 1.0) * np.log1p(-xi) - ln_norm
    )
    # Finite boundary limits: shape == 1 contributes the constant factor, a
    # shape > 1 drives the density to zero.
    if alpha == 1.0:
        out[x == 0.0] = np.exp(-ln_norm)
    if beta == 1.0:
        out[x == 1.0] = np.exp(-ln_norm)
    return out


def descriptors(p: BetaParams) -> DescriptorSet:
    """Bundle all closed-form descriptors, with exact quantile inversion."""
    mean, std = beta_mean_std(p)
    return DescriptorSet(
        mean=mean,
        std=std,
        skew=beta_skewness(p),
        kurt_ex=beta_excess_kurtosis(p),
        median=beta_quantile(p, 0.5),
        q25=beta_quantile(p, 0.25),
        q75=beta_quantile(p, 0.75),
    )


def fit_beta_arrays(mu, sigma, epsilon: float = DEFAULT_EPSILON, strict: bool = True):
    """Clamp raw moments, moment-match them and derive their descriptors.

    Returns ``(alpha, beta, descriptors)``; ``strict`` as in
    :func:`descriptors_arrays`.
    """
    alpha, beta = moment_match_arrays(*clamp_moments_arrays(mu, sigma, epsilon))
    return alpha, beta, descriptors_arrays(alpha, beta, strict=strict)


def descriptors_arrays(alpha, beta, strict: bool = True) -> dict[str, np.ndarray]:
    """Per-element descriptors for arrays of shapes, keyed like ``DESCRIPTOR_NAMES``.

    Also carries ``mean``/``std`` for convenience.  ``strict=False`` keeps
    quantiles total on near-degenerate shapes (see
    :func:`annodist.special.inv_reg_inc_beta`).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    mean, std = beta_mean_std_arrays(alpha, beta)
    # One inversion call for all three quantiles of every element.
    ndim = np.broadcast(alpha, beta).ndim
    probs = np.array([0.25, 0.5, 0.75]).reshape((3,) + (1,) * ndim)
    q25, median, q75 = special.inv_reg_inc_beta(probs, alpha, beta, strict=strict)

    return {
        "mean": mean,
        "std": std,
        "median": median,
        "q25": q25,
        "q75": q75,
        "skew": beta_skewness_arrays(alpha, beta),
        "kurt": beta_excess_kurtosis_arrays(alpha, beta),
    }
