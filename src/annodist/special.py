"""Numerically robust special functions for Beta-distribution work.

One NumPy backend: every kernel (log-gamma, digamma, regularised incomplete
Beta and its inverse) runs over whole arrays at once.  Public wrappers
validate domains, accept scalars or arrays, and raise
:class:`~annodist.errors.DomainError` / :class:`~annodist.errors.NumericError`
instead of returning NaN.

The incomplete Beta uses the modified Lentz continued fraction (Numerical
Recipes §6.4) with the tail switched through the symmetry
I_x(a,b) = 1 - I_{1-x}(b,a) whenever x > (a+1)/(a+b+2); each iteration works
only on the elements that have not yet converged.

The inverse starts from the Numerical Recipes first guess (a normal
approximation when both shapes are at least 1, power-law tails otherwise,
taken in log space with the exact log B(a,b)), keeps a bracket per element
and refines with Newton steps, using the Beta density as the derivative.  A
step that leaves the bracket or does not halve the step before last is
replaced by bisection, which is geometric in x or 1-x when the bracket spans
many binades at that end.  A quantile that underflows to 0 or rounds to 1 is
returned as that endpoint.  log B(a,b) is computed once per element per call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

_CF_MAX_ITER = 300
_CF_EPS = 1e-14
_FPMIN = 1e-300

_INV_MAX_ITER = 200
_INV_TOL = 1e-12  # target |I(x) - p|
_CONTRACT_TOL = 1e-9  # |I(x) - p| promised wherever a double can meet it

_TINY = 5e-324  # smallest positive double
_ULP_BELOW_ONE = 2.0**-53  # spacing of the doubles just below 1
# Power-law tail roots below these logs round to x = 0 (resp. to 1 - x = 0)
# with a factor e to spare, which covers the (1-x)^(b-1) correction.
_LOG_ROUNDS_TO_ZERO = -1075.0 * math.log(2.0) - 1.0
_LOG_ROUNDS_TO_ONE = -54.0 * math.log(2.0) - 1.0


def _log_gamma(x):
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(math.lgamma, x.flat), np.float64, x.size).reshape(x.shape)


def _log_beta(a, b):
    return _log_gamma(a) + _log_gamma(b) - _log_gamma(a + b)


def _digamma(x):
    # Recurrence psi(x) = psi(x+1) - 1/x up to x >= 10, then the asymptotic
    # series; truncation error at x=10 is ~2e-14, well under the 1e-10 contract.
    x = np.array(x, dtype=np.float64)
    acc = np.zeros_like(x)
    while (small := x < 10.0).any():
        acc -= np.where(small, 1.0 / x, 0.0)
        x += small
    t = 1.0 / (x * x)
    series = t * (
        1.0 / 12.0
        - t * (1.0 / 120.0 - t * (1.0 / 252.0 - t * (1.0 / 240.0 - t / 132.0)))
    )
    return acc + np.log(x) - 0.5 / x - series


def _floor(v):
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _beta_cf(a, b, x):
    # Modified Lentz evaluation of the continued fraction for I_x(a,b).
    out = np.empty_like(x)
    live = np.arange(x.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _floor(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _floor(1.0 + aa * d)
        c = _floor(1.0 + aa / c)
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _floor(1.0 + aa * d)
        c = _floor(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live = live[keep]
            if live.size == 0:
                return out
            a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (a, b, x, qab, qap, qam, c, d, h)
            )
    out[live] = h
    return out


def _cdf(x, a, b, lbeta):
    # I_x(a,b) for 1-D arrays, given lbeta = log B(a,b).
    out = (x >= 1.0).astype(np.float64)
    inner = np.nonzero((x > 0.0) & (x < 1.0))[0]
    if inner.size:
        x, a, b = x[inner], a[inner], b[inner]
        front = np.exp(a * np.log(x) + b * np.log1p(-x) - lbeta[inner])
        swap = x >= (a + 1.0) / (a + b + 2.0)
        cf = _beta_cf(np.where(swap, b, a), np.where(swap, a, b),
                      np.where(swap, 1.0 - x, x))
        out[inner] = np.where(swap, 1.0 - front * cf / b, front * cf / a)
    return out


def _start(p, a, b, lbeta):
    """Start point and bracket ``(x, lo, hi)`` of each quantile search."""
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Power-law tails: I_x ~ x^a / (a B) near 0, 1 - I_x ~ (1-x)^b / (b B)
        # near 1.
        log_x = (np.log(p) + np.log(a) + lbeta) / a
        log_y = (np.log(q) + np.log(b) + lbeta) / b
        # Numerical Recipes takes the lower tail when p < t/(t+u), with
        # t = (a/(a+b))^a / a and u = (b/(a+b))^b / b.
        log_t = a * np.log(a / (a + b)) - np.log(a)
        log_u = b * np.log(b / (a + b)) - np.log(b)
        lower = p * (1.0 + np.exp(log_u - log_t)) < 1.0
        tails = np.where(lower, np.exp(log_x), -np.expm1(log_y))
        # Normal approximation (Abramowitz & Stegun 26.5.22).
        z = np.sqrt(-2.0 * np.log(np.minimum(p, q)))
        z = (2.30753 + z * 0.27061) / (1.0 + z * (0.99229 + z * 0.04481)) - z
        z = np.where(p < 0.5, -z, z)
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = z * np.sqrt(al + h) / h - (
            1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)
        ) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
        normal = a / (a + b * np.exp(2.0 * w))
    x = np.where((a >= 1.0) & (b >= 1.0), normal, tails)
    x = np.where(np.isfinite(x), np.clip(x, 0.0, 1.0), 0.5)
    # A quantile that rounds to 0 or 1 starts there, already bracketed by
    # adjacent doubles.
    zero = log_x < _LOG_ROUNDS_TO_ZERO
    one = (log_y < _LOG_ROUNDS_TO_ONE) & ~zero
    x = np.where(zero, 0.0, np.where(one, 1.0, x))
    lo = np.where(one, 1.0 - _ULP_BELOW_ONE, 0.0)
    hi = np.where(zero, _TINY, 1.0)
    return x, lo, hi


def _bisect(lo, hi):
    # Arithmetic midpoint, or the geometric one in x (resp. 1-x) while the
    # bracket spans more than a factor 4 at the 0 (resp. 1) end.
    mid = 0.5 * (lo + hi)
    near_zero = (hi <= 0.5) & (hi > 4.0 * lo)
    near_one = (lo >= 0.5) & (1.0 - lo > 4.0 * (1.0 - hi))
    geo_zero = np.sqrt(np.maximum(lo, _TINY)) * np.sqrt(hi)
    geo_one = 1.0 - np.sqrt(1.0 - lo) * np.sqrt(np.maximum(1.0 - hi, _ULP_BELOW_ONE))
    mid = np.where(near_zero, geo_zero, np.where(near_one, geo_one, mid))
    inside = (mid > lo) & (mid < hi)
    return np.where(inside, mid, 0.5 * (lo + hi))


def _quantiles(p, a, b):
    """Array-wide inverse of I_x(a,b) in x for 1-D arrays.

    Returns ``(x, |I(x)-p|, lo, hi)`` per element, where ``[lo, hi]`` is the
    last bracket of the root (``lo == hi == x`` at p = 0 or 1).
    """
    x_out = np.where(p >= 1.0, 1.0, 0.0)
    err_out = np.zeros(p.size)
    lo_out = x_out.copy()
    hi_out = x_out.copy()
    live = np.nonzero((p > 0.0) & (p < 1.0))[0]
    p, a, b = p[live], a[live], b[live]
    lbeta = _log_beta(a, b)
    x, lo, hi = _start(p, a, b, lbeta)
    best_x = x.copy()
    best_err = np.full_like(x, np.inf)
    step = np.ones_like(x)
    step_before = np.ones_like(x)
    for _ in range(_INV_MAX_ITER):
        if live.size == 0:
            break
        f = _cdf(x, a, b, lbeta) - p
        err = np.abs(f)
        better = err < best_err
        best_x = np.where(better, x, best_x)
        best_err = np.where(better, err, best_err)
        above = f > 0.0
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        done = (err <= _INV_TOL) | (np.nextafter(lo, 1.0) >= hi)
        if done.any():
            idx = live[done]
            x_out[idx], err_out[idx] = best_x[done], best_err[done]
            lo_out[idx], hi_out[idx] = lo[done], hi[done]
            keep = ~done
            live, p, a, b, lbeta, x, f, lo, hi, best_x, best_err, step, step_before = (
                v[keep] for v in (live, p, a, b, lbeta, x, f, lo, hi, best_x,
                                  best_err, step, step_before)
            )
        # Newton on the Beta density; at x = 0 or 1 the density is 0, inf or
        # nan, and a density that underflows sends the step towards inf, so
        # the step fails the bracket test and bisection takes over.
        with np.errstate(all="ignore"):
            pdf = np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - lbeta)
            newton = x - f / pdf
            ok = (newton > lo) & (newton < hi) & (2.0 * np.abs(newton - x) <= step_before)
        x_new = np.where(ok, newton, _bisect(lo, hi))
        step_before, step = step, np.abs(x_new - x)
        x = x_new
    x_out[live], err_out[live] = best_x, best_err
    lo_out[live], hi_out[live] = lo, hi
    return x_out, err_out, lo_out, hi_out


def _as_float_array(x, name: str, fn: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{fn}: {name} must be finite")
    return arr, arr.ndim == 0


def _check_shapes(alpha: np.ndarray, beta: np.ndarray, fn: str) -> None:
    if np.any(alpha <= 0.0) or np.any(beta <= 0.0):
        raise DomainError(f"{fn}: shape parameters must be positive")


def log_gamma(x):
    """Natural log of the Gamma function for positive real ``x``.

    Accepts a scalar or array; relative error is at the level of the libm
    ``lgamma`` (well under 1e-12 on [1e-6, 1e6]).
    """
    arr, scalar = _as_float_array(x, "x", "log_gamma")
    if np.any(arr <= 0.0):
        raise DomainError("log_gamma: x must be positive")
    out = _log_gamma(arr)
    return float(out) if scalar else out


def digamma(x):
    """Digamma function psi(x) for positive real ``x`` (scalar or array)."""
    arr, scalar = _as_float_array(x, "x", "digamma")
    if np.any(arr <= 0.0):
        raise DomainError("digamma: x must be positive")
    out = _digamma(arr)
    return float(out) if scalar else out


def log_beta(alpha, beta):
    """log B(alpha, beta) = lnGamma(a) + lnGamma(b) - lnGamma(a+b)."""
    return log_gamma(alpha) + log_gamma(beta) - log_gamma(np.asarray(alpha) + np.asarray(beta))


def reg_inc_beta(x, alpha, beta):
    """Regularised incomplete Beta function I_x(alpha, beta), the Beta CDF.

    Monotone non-decreasing in ``x`` with I_0 = 0 and I_1 = 1.  Broadcasts
    over array arguments.
    """
    xa, x_scalar = _as_float_array(x, "x", "reg_inc_beta")
    aa, a_scalar = _as_float_array(alpha, "alpha", "reg_inc_beta")
    ba, b_scalar = _as_float_array(beta, "beta", "reg_inc_beta")
    if np.any(xa < 0.0) or np.any(xa > 1.0):
        raise DomainError("reg_inc_beta: x must lie in [0, 1]")
    _check_shapes(aa, ba, "reg_inc_beta")
    xa, aa, ba = np.broadcast_arrays(xa, aa, ba)
    out = _cdf(xa.ravel(), aa.ravel(), ba.ravel(), _log_beta(aa.ravel(), ba.ravel()))
    if x_scalar and a_scalar and b_scalar:
        return float(out[0])
    return out.reshape(xa.shape)


def inv_reg_inc_beta(p, alpha, beta):
    """Inverse of ``reg_inc_beta`` in ``x``: the Beta quantile function.

    Returns an x with ``|reg_inc_beta(x, alpha, beta) - p|`` within 1e-9
    wherever double precision can represent such an x; maps p=0 to 0 and
    p=1 to 1.

    For extreme shapes the CDF can jump by more than the tolerance between
    adjacent doubles; the returned x is then pinned to adjacent doubles of
    the root even though the residual exceeds 1e-9 (a quantile that
    underflows is returned as 0, one that rounds to 1 as 1).  A root that
    the refinement failed to pin down to adjacent doubles raises
    :class:`NumericError` naming its residual and last bracket.
    """
    pa, p_scalar = _as_float_array(p, "p", "inv_reg_inc_beta")
    aa, a_scalar = _as_float_array(alpha, "alpha", "inv_reg_inc_beta")
    ba, b_scalar = _as_float_array(beta, "beta", "inv_reg_inc_beta")
    if np.any(pa < 0.0) or np.any(pa > 1.0):
        raise DomainError("inv_reg_inc_beta: p must lie in [0, 1]")
    _check_shapes(aa, ba, "inv_reg_inc_beta")
    pa, aa, ba = np.broadcast_arrays(pa, aa, ba)
    out, errs, lo, hi = _quantiles(pa.ravel(), aa.ravel(), ba.ravel())
    failed = np.nonzero((errs > _CONTRACT_TOL) & (np.nextafter(lo, np.inf) < hi))[0]
    if failed.size:
        i = failed[0]
        raise NumericError(
            f"inv_reg_inc_beta: no convergence after {_INV_MAX_ITER} iterations "
            f"(|I(x)-p|={errs[i]:.3e}, bracket [{float(lo[i])!r}, {float(hi[i])!r}])")
    if p_scalar and a_scalar and b_scalar:
        return float(out[0])
    return out.reshape(pa.shape)
