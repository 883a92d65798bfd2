"""Beta consensus modelling: moment matching and closed-form descriptors.

A window's annotator values are summarised by their empirical mean and
standard deviation (:func:`consensus_moments`), clamped into the validity
region (:func:`clamp_moments_arrays`)

    0 < mu < 1,   0 < sigma^2 < mu * (1 - mu),

and mapped to Beta shape parameters by moment matching

    phi = mu * (1 - mu) / sigma^2 - 1,   alpha = mu * phi,   beta = (1 - mu) * phi.

From the shapes the higher-order descriptors (skewness, excess kurtosis,
median and quartiles) follow in closed form.  :func:`fit_beta_arrays` runs
the whole chain from raw moments to descriptors.

The functions after :func:`consensus_moments` work elementwise on NumPy
arrays and take Python scalars as 0-d inputs; :func:`beta_pdf_arrays`
evaluates one shape pair at an array of points.
"""

from __future__ import annotations

import numpy as np

from . import special
# DESCRIPTOR_NAMES is imported for callers that take it from here.
from .config import DEFAULT_EPSILON, DESCRIPTOR_NAMES, EPSILON_RANGE
from .errors import DomainError, InsufficientDataError, check


def consensus_moments(annotations) -> tuple[float, float]:
    """Empirical ``(mu, sigma)`` of one window's annotator values.

    Uses the population convention (divide by N): the annotator set is
    treated as the full population of interest.
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
    return float(values.mean()), float(values.std())


def clamp_moments_arrays(mu, sigma, epsilon: float = DEFAULT_EPSILON):
    """Clip raw moments into the strict interior of the validity region.

    ``mu`` is clipped into [epsilon, 1-epsilon] and ``sigma^2`` into
    [epsilon * mu(1-mu), (1-epsilon) * mu(1-mu)].  Total on its domain: the
    output always satisfies the validity conditions strictly.

    Returns ``(mu, sigma, clamped)``: ``clamped`` adds 1 where mu moved, 2
    where sigma rose to the floor and 4 where it fell to the cap, a sigma bit
    only where the sigma returned differs from the input.  So clamped moments
    clamp to the same bits (``sqrt(fl(s * s)) == s``) and record 0.
    """
    check("clamp_moments_arrays", "epsilon", epsilon, EPSILON_RANGE)
    raw_mu, sigma = np.asarray(mu, dtype=np.float64), np.asarray(sigma, dtype=np.float64)
    mu = np.clip(raw_mu, epsilon, 1.0 - epsilon)
    spread = mu * (1.0 - mu)
    floor, cap = epsilon * spread, (1.0 - epsilon) * spread
    # The variance cap is below 0.25, so clipping sigma into [-1, 1] first
    # moves no result and keeps a huge sigma from overflowing its square.
    var = np.square(np.clip(sigma, -1.0, 1.0))
    out = np.sqrt(np.clip(var, floor, cap))
    return mu, out, (mu != raw_mu) + (out != sigma) * (2 * (var < floor) + 4 * (var > cap))


def moment_match_arrays(mu, sigma):
    """Beta shapes ``(alpha, beta)`` with mean ``mu`` and standard deviation
    ``sigma``; the moments must already satisfy validity."""
    mu = np.asarray(mu, dtype=np.float64)
    var = np.square(np.asarray(sigma, dtype=np.float64))
    phi = mu * (1.0 - mu) / var - 1.0
    return mu * phi, (1.0 - mu) * phi


def beta_mean_std_arrays(alpha, beta):
    """Analytic mean and standard deviation of Beta(alpha, beta)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    total = alpha + beta
    mean = alpha / total
    std = np.sqrt(alpha * beta / (total * total * (total + 1.0)))
    return mean, std


def beta_skewness_arrays(alpha, beta):
    """Closed-form skewness; sign follows sign(beta - alpha)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    total = alpha + beta
    return 2.0 * (beta - alpha) * np.sqrt(total + 1.0) / (
        (total + 2.0) * np.sqrt(alpha * beta)
    )


def beta_excess_kurtosis_arrays(alpha, beta):
    """Closed-form excess kurtosis (the uniform Beta(1,1) gives -1.2)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    total = alpha + beta
    num = 6.0 * ((alpha - beta) ** 2 * (total + 1.0) - alpha * beta * (total + 2.0))
    return num / (alpha * beta * (total + 2.0) * (total + 3.0))


def beta_pdf_arrays(x, alpha, beta):
    """Density of Beta(alpha, beta), for scalar shapes, at the points ``x``."""
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
    # Boundary limits: a shape below 1 makes the density diverge, a shape of
    # 1 leaves the constant factor, and a shape above 1 drives it to zero.
    for edge, shape in ((0.0, alpha), (1.0, beta)):
        if shape <= 1.0:
            out[x == edge] = np.inf if shape < 1.0 else np.exp(-ln_norm)
    return out


def fit_beta_arrays(mu, sigma, epsilon: float = DEFAULT_EPSILON):
    """Clamp raw moments, moment-match them and derive their descriptors.

    Returns ``(alpha, beta, descriptors)``, the descriptors with the clamp's
    ``mu``, ``sigma`` and ``clamped``.
    """
    mu, sigma, clamped = clamp_moments_arrays(mu, sigma, epsilon)
    alpha, beta = moment_match_arrays(mu, sigma)
    return alpha, beta, {**descriptors_arrays(alpha, beta),
                         "mu": mu, "sigma": sigma, "clamped": clamped}


def descriptors_arrays(alpha, beta) -> dict[str, np.ndarray]:
    """Per-element descriptors for arrays of shapes, keyed like ``DESCRIPTOR_NAMES``.

    Also carries ``mean``/``std`` for convenience.  The quantiles are checked
    as :func:`annodist.special.inv_reg_inc_beta` checks them.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    mean, std = beta_mean_std_arrays(alpha, beta)
    # One inversion call for all three quantiles of every element.
    ndim = np.broadcast(alpha, beta).ndim
    probs = np.array([0.25, 0.5, 0.75]).reshape((3,) + (1,) * ndim)
    q25, median, q75 = special.inv_reg_inc_beta(probs, alpha, beta)

    return {
        "mean": mean,
        "std": std,
        "median": median,
        "q25": q25,
        "q75": q75,
        "skew": beta_skewness_arrays(alpha, beta),
        "kurt": beta_excess_kurtosis_arrays(alpha, beta),
    }
