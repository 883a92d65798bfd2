"""Special-function contracts: examples, domain errors, and invariants.

Expected values marked as oracle-derived were computed with scipy and
adaptive quadrature, which stay in the tests as the independent reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special
from scipy.integrate import quad

from annodist import special
from annodist.errors import DomainError, NumericError
from annodist.special import digamma, inv_reg_inc_beta, log_gamma, reg_inc_beta

EULER_GAMMA = 0.5772156649015329


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_five_is_log_24(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_gamma_half_is_log_sqrt_pi(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    def test_matches_scipy_over_wide_range(self):
        x = np.random.default_rng(0).uniform(1e-6, 1e6, 20000)
        ours = log_gamma(x)
        ref = scipy_special.gammaln(x)
        rel = np.abs(ours - ref) / np.maximum(np.abs(ref), 1e-12)
        assert rel.max() < 1e-12

    def test_recurrence(self):
        x = np.random.default_rng(1).uniform(0.01, 1000.0, 5000)
        lhs = log_gamma(x + 1.0) - log_gamma(x)
        assert np.abs(lhs - np.log(x)).max() < 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestDigamma:
    def test_at_one_is_negative_euler_gamma(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_at_two_via_recurrence_identity(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            digamma(0.0)

    def test_recurrence(self):
        x = np.random.default_rng(2).uniform(0.01, 1000.0, 5000)
        assert np.abs(digamma(x + 1.0) - digamma(x) - 1.0 / x).max() < 1e-10

    def test_matches_scipy(self):
        x = np.random.default_rng(3).uniform(1e-4, 1e6, 20000)
        assert np.abs(digamma(x) - scipy_special.digamma(x)).max() < 1e-10


class TestRegIncBeta:
    def test_uniform_is_identity(self):
        p = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(reg_inc_beta(p, 1.0, 1.0), p, atol=1e-14)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_against_quadrature(self):
        # I_0.3(2, 5) equals the integral of the Beta(2,5) density on [0, 0.3].
        def density(x):
            return x * (1.0 - x) ** 4 / scipy_special.beta(2.0, 5.0)

        expected, err = quad(density, 0.0, 0.3)
        assert err < 1e-10
        assert reg_inc_beta(0.3, 2.0, 5.0) == pytest.approx(expected, abs=1e-8)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3.0, 7.0) == 0.0
        assert reg_inc_beta(1.0, 3.0, 7.0) == 1.0

    def test_symmetry_relation(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, 3000)
        a = rng.uniform(0.1, 100.0, 3000)
        b = rng.uniform(0.1, 100.0, 3000)
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert np.abs(total - 1.0).max() < 1e-10

    def test_monotone_in_x(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(0.1, 50.0, 2)
            x = np.sort(rng.uniform(0.0, 1.0, 50))
            values = reg_inc_beta(x, a, b)
            assert np.all(np.diff(values) >= -1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 2.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 2.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 2.0, -1.0)


class TestInvRegIncBeta:
    def test_uniform_quantile(self):
        assert inv_reg_inc_beta(0.25, 1.0, 1.0) == pytest.approx(0.25, abs=1e-10)

    def test_symmetric_median(self):
        assert inv_reg_inc_beta(0.5, 3.0, 3.0) == pytest.approx(0.5, abs=1e-10)

    def test_endpoints(self):
        assert inv_reg_inc_beta(0.0, 2.0, 8.0) == 0.0
        assert inv_reg_inc_beta(1.0, 2.0, 8.0) == 1.0

    def test_against_quadrature_cdf(self):
        # The returned x must put 0.9 probability mass to its left.
        x = inv_reg_inc_beta(0.9, 2.0, 8.0)

        def density(t):
            return t * (1.0 - t) ** 7 / scipy_special.beta(2.0, 8.0)

        mass, err = quad(density, 0.0, x)
        assert err < 1e-10
        assert mass == pytest.approx(0.9, abs=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.0, 1.0, 3000)
        a = rng.uniform(0.1, 100.0, 3000)
        b = rng.uniform(0.1, 100.0, 3000)
        x = inv_reg_inc_beta(p, a, b)
        assert np.abs(reg_inc_beta(x, a, b) - p).max() < 1e-8

    def test_matches_scipy_ppf(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.01, 0.99, 2000)
        a = rng.uniform(0.2, 50.0, 2000)
        b = rng.uniform(0.2, 50.0, 2000)
        ours = inv_reg_inc_beta(p, a, b)
        ref = scipy_special.betaincinv(a, b, p)
        assert np.abs(ours - ref).max() < 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            inv_reg_inc_beta(-0.01, 2.0, 2.0)
        with pytest.raises(DomainError):
            inv_reg_inc_beta(0.5, -2.0, 2.0)

    def test_a_root_it_cannot_pin_raises(self, monkeypatch):
        # One iteration leaves the root unpinned: the check names the
        # residual and the last bracket.
        monkeypatch.setattr(special, "_INV_MAX_ITER", 1)
        with pytest.raises(NumericError, match=r"no convergence after 1 iterations "
                                               r"\(\|I\(x\)-p\|=\S+, bracket \[0\.\d+, 0\.\d+\]\)"):
            inv_reg_inc_beta([0.5, 0.3], 2.0, 3.0)


def scalar_digamma(x):
    """Per-element loop form of the digamma kernel, kept as the reference."""
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    series = t * (
        1.0 / 12.0
        - t * (1.0 / 120.0 - t * (1.0 / 252.0 - t * (1.0 / 240.0 - t / 132.0)))
    )
    return acc + math.log(x) - 0.5 / x - series


def scalar_reg_inc_beta(x, a, b):
    """Per-element loop form of the Lentz continued fraction (reference)."""

    def cf(a, b, x):
        def floor(v):
            return 1e-300 if abs(v) < 1e-300 else v

        c, d = 1.0, 1.0 / floor(1.0 - (a + b) * x / (a + 1.0))
        h = d
        for m in range(1, 301):
            aa = m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m))
            d = 1.0 / floor(1.0 + aa * d)
            c = floor(1.0 + aa / c)
            h *= d * c
            aa = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))
            d = 1.0 / floor(1.0 + aa * d)
            c = floor(1.0 + aa / c)
            h *= d * c
            if abs(d * c - 1.0) < 1e-14:
                break
        return h

    if x <= 0.0 or x >= 1.0:
        return float(x >= 1.0)
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - ln_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * cf(a, b, x) / a
    return 1.0 - front * cf(b, a, 1.0 - x) / b


class TestArrayKernelsMatchLoops:
    # Same arithmetic in the same order; only NumPy's exp/log may differ from
    # libm's in the last bit, so a few ulps of the result are allowed.
    def test_digamma(self):
        x = np.exp(np.random.default_rng(8).uniform(-10.0, 14.0, 3000))
        ref = np.array([scalar_digamma(v) for v in x])
        np.testing.assert_allclose(digamma(x), ref, rtol=1e-14, atol=1e-14)

    def test_reg_inc_beta(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, 3000)
        a = np.exp(rng.uniform(math.log(5e-5), math.log(100.0), 3000))
        b = np.exp(rng.uniform(math.log(5e-5), math.log(100.0), 3000))
        ref = np.array([scalar_reg_inc_beta(*v) for v in zip(x, a, b)])
        np.testing.assert_allclose(reg_inc_beta(x, a, b), ref, rtol=0, atol=1e-14)


# Every shape the epsilon = 1e-4 clamp can produce, drawn log-uniformly:
# alpha, beta in about [1e-8, 1e4].  The low end is epsilon^2 / (1 - epsilon),
# the smaller shape at mu = epsilon with sigma at the variance cap.
shapes = st.floats(math.log(1e-8), math.log(1e4)).map(math.exp)
probabilities = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestProperties:
    # scipy's betainc loses accuracy at subnormal x, so x stays normal here.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1.0, allow_subnormal=False), shapes, shapes)
    def test_reg_inc_beta_matches_scipy(self, x, a, b):
        assert reg_inc_beta(x, a, b) == pytest.approx(
            scipy_special.betainc(a, b, x), abs=1e-10
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(probabilities, shapes, shapes)
    def test_quantile_is_total_and_optimal(self, p, a, b):
        # It must not raise; the result either meets the residual contract
        # or no neighbouring double brackets the root more tightly.
        x = inv_reg_inc_beta(p, a, b)
        assert 0.0 <= x <= 1.0
        if abs(reg_inc_beta(x, a, b) - p) > 1e-9:
            assert reg_inc_beta(np.nextafter(x, 0.0), a, b) <= p
            assert reg_inc_beta(np.nextafter(x, 1.0), a, b) >= p

    def test_exact_split_quartiles_round_to_the_ends(self):
        # Annotators split evenly between 0 and 1 give alpha = beta = 5e-5;
        # the outer quartiles are about 10^-6020 from the ends.
        x = inv_reg_inc_beta([0.25, 0.5, 0.75], 5e-5, 5e-5)
        np.testing.assert_allclose(
            x, scipy_special.betaincinv(5e-5, 5e-5, [0.25, 0.5, 0.75]),
            rtol=1e-6, atol=1e-12,
        )
        assert x[0] == 0.0 and x[2] == 1.0
