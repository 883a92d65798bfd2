"""Moment matching and closed-form descriptor contracts.

Quadrature oracles (scipy.integrate.quad over the density) provide the
independent reference for skewness, kurtosis, quantiles and normalisation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from annodist.consensus import (
    beta_excess_kurtosis_arrays,
    beta_mean_std_arrays,
    beta_pdf_arrays,
    beta_skewness_arrays,
    clamp_moments_arrays,
    consensus_moments,
    descriptors_arrays,
    fit_beta_arrays,
    moment_match_arrays,
)
from annodist.errors import DomainError, InsufficientDataError
from annodist.special import inv_reg_inc_beta


def quadrature_central_moment(alpha: float, beta: float, order: int) -> float:
    mean = alpha / (alpha + beta)

    def integrand(x):
        return (x - mean) ** order * stats.beta.pdf(x, alpha, beta)

    value, err = quad(integrand, 0.0, 1.0, limit=200)
    assert err < 1e-10
    return value


class TestConsensusMoments:
    def test_symmetric_pair(self):
        mu, sigma = consensus_moments([0.4, 0.6])
        assert mu == pytest.approx(0.5)
        assert sigma == pytest.approx(0.1)

    def test_unanimous(self):
        mu, sigma = consensus_moments([0.2, 0.2, 0.2])
        assert mu == pytest.approx(0.2)
        assert sigma == pytest.approx(0.0, abs=1e-15)

    def test_three_spread(self):
        mu, sigma = consensus_moments([0.1, 0.5, 0.9])
        assert mu == pytest.approx(0.5)
        assert sigma == pytest.approx(math.sqrt(0.32 / 3.0))

    def test_too_few(self):
        with pytest.raises(InsufficientDataError):
            consensus_moments([0.5])

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            consensus_moments([0.5, 1.2])


class TestClampMoments:
    def test_zero_sigma_lifted(self):
        mu, sigma, _ = clamp_moments_arrays(0.5, 0.0, epsilon=1e-4)
        assert mu == 0.5
        assert sigma == pytest.approx(math.sqrt(1e-4 * 0.25))

    def test_boundary_mu_pulled_in(self):
        mu, sigma, _ = clamp_moments_arrays(0.0, 0.1, epsilon=1e-4)
        assert mu == pytest.approx(1e-4)
        cap = mu * (1 - mu)
        assert sigma**2 == pytest.approx((1 - 1e-4) * cap)

    def test_valid_input_untouched(self):
        assert clamp_moments_arrays(0.3, 0.1) == (0.3, 0.1, 0)

    def test_huge_sigma_capped_without_overflow(self):
        mu = np.array([0.3, 0.3, 0.9])
        cmu, csigma, _ = clamp_moments_arrays(mu, np.array([1e300, -1e300, 1e300]), 1e-4)
        assert np.array_equal(cmu, mu)
        assert csigma**2 == pytest.approx((1 - 1e-4) * mu * (1 - mu), rel=1e-15)
        assert np.array_equal(csigma, clamp_moments_arrays(mu, np.ones(3), 1e-4)[1])

    def test_fuzz_output_always_valid(self):
        rng = np.random.default_rng(8)
        mu = np.concatenate([rng.uniform(0, 1, 5000), [0.0, 1.0, 0.0, 1.0]])
        sigma = np.concatenate([rng.uniform(0, 1, 5000), [0.0, 0.0, 0.7, 0.7]])
        cmu, csigma, _ = clamp_moments_arrays(mu, sigma, 1e-4)
        cap = cmu * (1 - cmu)
        assert np.all(cmu > 0) and np.all(cmu < 1)
        assert np.all(csigma**2 > 0) and np.all(csigma**2 < cap)

    # The default, the floor of EPSILON_RANGE and a margin near its top.
    @pytest.mark.parametrize("epsilon", [1e-4, 1e-12, 0.4999])
    def test_fit_is_total_over_the_clamp_region(self, epsilon):
        # mu geometric from epsilon towards 1/2 and mirrored; sigma^2 the same
        # fractions of mu(1 - mu), so floor and cap are both included.  Then
        # the raw extremes, which the clamp moves onto the region's edges.
        half = np.geomspace(epsilon, 0.5, 32)
        frac = np.concatenate([half, 1.0 - half])
        mu, var = (v.ravel() for v in np.meshgrid(frac, frac))
        raw_mu, raw_sigma = (v.ravel() for v in np.meshgrid(
            [0.0, 1.0, 0.5, -3.0], [0.0, 5e-324, 1e150, 1e300, -1e300, 0.3]))
        _, _, desc = fit_beta_arrays(np.concatenate([mu, raw_mu]),
                                     np.concatenate([np.sqrt(var * mu * (1.0 - mu)),
                                                     raw_sigma]), epsilon)
        assert all(np.isfinite(v).all() for v in desc.values())


def record_reference(mu, sigma, epsilon):
    """The clamp record of one window from its raw moments (sigma >= 0): 1 if
    mu lies outside [epsilon, 1-epsilon], 2 if sigma lies below the root of
    the variance floor, 4 if above the root of the cap."""
    m = min(max(mu, epsilon), 1.0 - epsilon)
    spread = m * (1.0 - m)
    return ((m != mu) + 2 * (sigma < math.sqrt(epsilon * spread))
            + 4 * (sigma > math.sqrt((1.0 - epsilon) * spread)))


@st.composite
def raw_moments(draw):
    """An epsilon and up to 40 windows' raw moments, many of them on a bound
    of the clamp or a few ulps from one."""
    eps = draw(st.sampled_from([1e-4, 1e-3, 0.05, 0.3]) | st.floats(1e-4, 0.3))
    mus, sigmas = [], []
    for _ in range(draw(st.integers(1, 40))):
        mu = draw(st.sampled_from([0.0, 1.0, eps, 1.0 - eps, 0.5]) | st.floats(0.0, 1.0))
        m = min(max(mu, eps), 1.0 - eps)
        root = math.sqrt(draw(st.sampled_from([eps, 1.0 - eps])) * (m * (1.0 - m)))
        mus.append(mu)
        sigmas.append(draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.5)
                           | st.integers(-3, 3).map(lambda k: root + k * math.ulp(root))))
    return eps, np.array(mus), np.array(sigmas)


class TestClampRecord:
    """``clamp_moments_arrays`` records what its clip moved: 1 for mu, 2 for
    sigma raised to the floor, 4 for sigma lowered to the cap."""

    @pytest.mark.parametrize("mu, sigma, record", [
        (0.3, 0.1, 0), (0.2, 0.0, 2), (0.5, 0.5, 4), (0.0, 0.0, 3), (1.0, 0.0, 3),
        (0.0, 0.1, 5),
    ], ids=["interior", "unanimous", "zero-one-split", "mu-0", "mu-1", "mu-0-spread"])
    def test_table(self, mu, sigma, record):
        assert clamp_moments_arrays(mu, sigma, 1e-4)[2] == record
        assert fit_beta_arrays(mu, sigma, 1e-4)[2]["clamped"] == record

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(raw_moments())
    def test_record_matches_reference_and_clamp_is_idempotent(self, drawn):
        eps, mu, sigma = drawn
        cmu, csigma, record = clamp_moments_arrays(mu, sigma, eps)
        assert record.tolist() == [record_reference(m, s, eps)
                                   for m, s in zip(mu.tolist(), sigma.tolist())]
        again = clamp_moments_arrays(cmu, csigma, eps)
        assert again[0].tobytes() == cmu.tobytes()
        assert again[1].tobytes() == csigma.tobytes()
        assert not again[2].any()

    def test_floor_roots_whose_square_rounds_low_record_0(self):
        # A floor-clamped sigma is the root of the floor; its square often
        # rounds below the floor, and a plain square test would flag it again.
        rng = np.random.default_rng(12)
        mu, sigma, record = clamp_moments_arrays(rng.uniform(0.01, 0.99, 10**5), 0.0, 1e-4)
        assert np.all(record == 2)
        floor = 1e-4 * (mu * (1.0 - mu))
        assert np.mean(np.square(sigma) < floor) > 0.1
        again = clamp_moments_arrays(mu, sigma, 1e-4)
        assert again[1].tobytes() == sigma.tobytes() and not again[2].any()


class TestMomentMatch:
    def test_uniform_case(self):
        alpha, beta = moment_match_arrays(0.5, math.sqrt(1.0 / 12.0))
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_worked_case(self):
        alpha, beta = moment_match_arrays(0.3, 0.1)
        assert alpha == pytest.approx(6.0, abs=1e-12)
        assert beta == pytest.approx(14.0, abs=1e-12)

    def test_round_trip_mean_std(self):
        rng = np.random.default_rng(9)
        mu, sigma, _ = clamp_moments_arrays(
            rng.uniform(0, 1, 20000), rng.uniform(0, 0.6, 20000)
        )
        alpha, beta = moment_match_arrays(mu, sigma)
        total = alpha + beta
        np.testing.assert_allclose(alpha / total, mu, atol=1e-10)
        np.testing.assert_allclose(
            np.sqrt(alpha * beta / (total**2 * (total + 1))), sigma, atol=1e-10
        )


class TestClosedFormDescriptors:
    def test_mean_std_examples(self):
        assert beta_mean_std_arrays(1, 1) == (
            pytest.approx(0.5), pytest.approx(math.sqrt(1 / 12)))
        assert beta_mean_std_arrays(6, 14) == (
            pytest.approx(0.3), pytest.approx(0.1))
        assert beta_mean_std_arrays(2, 2) == (
            pytest.approx(0.5), pytest.approx(math.sqrt(4 / 80)))

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 7.5, 40.0])
    def test_skew_zero_for_symmetric(self, k):
        assert beta_skewness_arrays(k, k) == pytest.approx(0.0, abs=1e-14)

    def test_skew_worked_case_vs_quadrature(self):
        # 2*6*sqrt(11) / (12*4) from the closed form; quadrature cross-check.
        expected = 12.0 * math.sqrt(11.0) / 48.0
        assert expected == pytest.approx(0.8292, abs=5e-5)
        got = beta_skewness_arrays(2, 8)
        assert got == pytest.approx(expected, rel=1e-12)
        m2 = quadrature_central_moment(2, 8, 2)
        m3 = quadrature_central_moment(2, 8, 3)
        assert got == pytest.approx(m3 / m2**1.5, abs=1e-9)

    def test_skew_antisymmetry(self):
        assert beta_skewness_arrays(8, 2) == pytest.approx(
            -beta_skewness_arrays(2, 8), abs=1e-14)

    def test_uniform_excess_kurtosis(self):
        assert beta_excess_kurtosis_arrays(1, 1) == pytest.approx(-1.2)

    def test_kurtosis_vs_quadrature(self):
        # Beta(2,2): fourth-moment quadrature gives -6/7.
        got = beta_excess_kurtosis_arrays(2, 2)
        m2 = quadrature_central_moment(2, 2, 2)
        m4 = quadrature_central_moment(2, 2, 4)
        assert got == pytest.approx(m4 / m2**2 - 3.0, abs=1e-9)
        assert got == pytest.approx(-6.0 / 7.0, rel=1e-12)

    def test_kurtosis_symmetric_under_swap(self):
        assert beta_excess_kurtosis_arrays(3, 11) == pytest.approx(
            beta_excess_kurtosis_arrays(11, 3), abs=1e-14)

    def test_quantiles(self):
        assert inv_reg_inc_beta(0.75, 1, 1) == pytest.approx(0.75, abs=1e-9)
        assert inv_reg_inc_beta(0.5, 3, 3) == pytest.approx(0.5, abs=1e-9)
        assert inv_reg_inc_beta(0.5, 6, 14) == pytest.approx(
            stats.beta(6, 14).ppf(0.5), abs=1e-8)

    def test_quantile_ordering(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            d = descriptors_arrays(*rng.uniform(0.1, 60.0, 2))
            assert d["q25"] <= d["median"] <= d["q75"]
            assert 0.0 <= d["q25"] and d["q75"] <= 1.0


class TestBetaPdf:
    def test_uniform_density(self):
        x = np.linspace(0, 1, 11)
        np.testing.assert_allclose(beta_pdf_arrays(x, 1, 1), 1.0)

    def test_worked_value(self):
        assert beta_pdf_arrays(0.5, 2, 2) == pytest.approx(1.5, rel=1e-12)

    def test_symmetry(self):
        x = np.linspace(0.05, 0.45, 9)
        np.testing.assert_allclose(beta_pdf_arrays(x, 2, 2),
                                   beta_pdf_arrays(1.0 - x, 2, 2), rtol=1e-12)

    @pytest.mark.parametrize("a,b", [(2, 5), (0.7, 0.9), (6, 14), (1, 3)])
    def test_normalisation_by_quadrature(self, a, b):
        total, err = quad(lambda x: beta_pdf_arrays(x, a, b), 0.0, 1.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_finite_boundary_values(self):
        # Shape exactly 1 leaves a finite limit; shape > 1 drives it to zero.
        assert beta_pdf_arrays(0.0, 1, 3) == pytest.approx(3.0)
        assert beta_pdf_arrays(0.0, 2, 2) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.5])
    def test_boundary_values_match_scipy(self, a, b):
        # A shape below 1 makes the density diverge at its end of [0, 1].
        want = stats.beta.pdf([0.0, 1.0], a, b)
        np.testing.assert_allclose(beta_pdf_arrays([0.0, 1.0], a, b), want, rtol=1e-12)


class TestDescriptorBundle:
    def test_uniform_bundle(self):
        d = descriptors_arrays(1, 1)
        assert d["mean"] == pytest.approx(0.5)
        assert d["std"] == pytest.approx(math.sqrt(1 / 12))
        assert d["skew"] == pytest.approx(0.0, abs=1e-14)
        assert d["kurt"] == pytest.approx(-1.2)
        assert d["median"] == pytest.approx(0.5, abs=1e-9)
        assert d["q25"] == pytest.approx(0.25, abs=1e-9)
        assert d["q75"] == pytest.approx(0.75, abs=1e-9)

    def test_worked_case_against_oracles(self):
        d = descriptors_arrays(6, 14)
        m2 = quadrature_central_moment(6, 14, 2)
        assert d["mean"] == pytest.approx(0.3, abs=1e-12)
        assert d["std"] == pytest.approx(math.sqrt(m2), abs=1e-9)
        assert d["skew"] == pytest.approx(
            quadrature_central_moment(6, 14, 3) / m2**1.5, abs=1e-6)
        assert d["kurt"] == pytest.approx(
            quadrature_central_moment(6, 14, 4) / m2**2 - 3.0, abs=1e-6)
        for name, prob in (("median", 0.5), ("q25", 0.25), ("q75", 0.75)):
            assert d[name] == pytest.approx(stats.beta(6, 14).ppf(prob), abs=1e-6)

    def test_symmetric_means_align(self):
        d = descriptors_arrays(4, 4)
        assert d["median"] == pytest.approx(0.5, abs=1e-9)
        assert d["mean"] == pytest.approx(0.5)
        assert d["skew"] == pytest.approx(0.0, abs=1e-14)
