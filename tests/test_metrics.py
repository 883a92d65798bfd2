"""Metric contracts: CCC, Beta-Beta KL, Wilcoxon signed-rank."""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from annodist.errors import DomainError, InsufficientDataError
from annodist.metrics import PairedSeries, ccc, kl_beta_arrays, wilcoxon_signed_rank


def kl_by_quadrature(p, q) -> float:
    """KL(Beta(*p) || Beta(*q)) by adaptive quadrature."""
    def integrand(x):
        return stats.beta.pdf(x, *p) * (
            stats.beta.logpdf(x, *p) - stats.beta.logpdf(x, *q)
        )

    value, err = quad(integrand, 0.0, 1.0, limit=400)
    assert err < 1e-6 * max(1.0, abs(value))
    return value


class TestPairedSeries:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            PairedSeries(np.array([1.0, 2.0]), np.array([1.0]))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            PairedSeries(np.array([1.0]), np.array([1.0]))

    def test_non_finite(self):
        with pytest.raises(DomainError):
            PairedSeries(np.array([1.0, np.nan]), np.array([1.0, 2.0]))


class TestCcc:
    def test_perfect_agreement(self):
        x = np.array([0.1, 0.4, 0.9, 0.3])
        assert ccc(PairedSeries(x, x)) == pytest.approx(1.0)

    def test_constant_predictions(self):
        s = PairedSeries(np.full(5, 0.3), np.linspace(0, 1, 5))
        assert ccc(s) == pytest.approx(0.0, abs=1e-15)

    def test_worked_case_matches_formula(self):
        # Oracle: direct evaluation of 2cov / (var_x + var_y + dmean^2).
        x = np.array([0.1, 0.2, 0.3])
        y = np.array([0.3, 0.2, 0.1])
        cov = ((x - x.mean()) * (y - y.mean())).mean()
        expected = 2 * cov / (x.var() + y.var() + (x.mean() - y.mean()) ** 2)
        assert ccc(PairedSeries(x, y)) == pytest.approx(expected)
        assert expected == pytest.approx(-1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(2, 100))
        assert ccc(PairedSeries(x, y)) == pytest.approx(
            ccc(PairedSeries(y, x)), abs=1e-15)

    def test_attenuation_vs_pearson(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.normal(size=50)
            y = 0.5 * x + rng.normal(scale=rng.uniform(0.1, 2.0), size=50)
            rho = stats.pearsonr(x, y).statistic
            assert abs(ccc(PairedSeries(x, y))) <= abs(rho) + 1e-12

    def test_degenerate_flag(self):
        # Equal constants are the 0/0 case; unequal constants have a zero
        # covariance over a non-zero denominator.  Both score 0.
        assert ccc(PairedSeries(np.full(4, 0.5), np.full(4, 0.5))) == 0.0
        assert ccc(PairedSeries(np.full(4, 0.4), np.full(4, 0.6))) == 0.0


class TestKlBeta:
    def test_identity_is_zero(self):
        for a, b in [(1, 1), (2, 5), (40, 3), (0.3, 0.7)]:
            assert kl_beta_arrays(a, b, a, b) <= 1e-12

    def test_worked_case_vs_quadrature(self):
        p, q = (6, 14), (1, 1)
        assert kl_beta_arrays(*p, *q) == pytest.approx(kl_by_quadrature(p, q),
                                                       abs=1e-6)

    def test_non_negative_random_pairs(self):
        rng = np.random.default_rng(14)
        ap, bp, aq, bq = rng.uniform(0.1, 80.0, (4, 10000))
        kl = kl_beta_arrays(ap, bp, aq, bq)
        assert np.all(kl >= 0.0)

    def test_quadrature_agreement_sampled(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            p = rng.uniform(0.5, 50.0, 2)
            q = rng.uniform(0.5, 50.0, 2)
            oracle = kl_by_quadrature(p, q)
            assert kl_beta_arrays(*p, *q) == pytest.approx(
                oracle, abs=max(1e-6, 1e-9 * abs(oracle)))

    def test_positive_unless_equal(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            p = rng.uniform(0.2, 60.0, 2)
            q = rng.uniform(0.2, 60.0, 2)
            if np.any(np.abs(p - q) > 1e-6):
                assert kl_beta_arrays(*p, *q) > 1e-9

    def test_invalid_shapes(self):
        with pytest.raises(DomainError):
            kl_beta_arrays(1.0, 1.0, 0.0, 1.0)


class TestWilcoxon:
    def test_all_zero_differences(self):
        a = np.arange(8.0)
        assert wilcoxon_signed_rank(a, a) == (0.0, 1.0)

    def test_all_positive_n10_exact(self):
        a = np.arange(1.0, 11.0)
        stat, p = wilcoxon_signed_rank(a, a - 1.0)
        assert stat == 0.0
        assert p == pytest.approx(2.0 / 2.0**10)

    def test_too_few_nonzero_differences(self):
        a = np.arange(8.0)
        b = a.copy()
        b[:3] += 1.0
        with pytest.raises(InsufficientDataError):
            wilcoxon_signed_rank(a, b)

    def test_matches_scipy_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.integers(6, 21)
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.8, size=n)
            ours = wilcoxon_signed_rank(a, b, mode="exact")
            ref = stats.wilcoxon(a, b, mode="exact")
            assert ours.statistic == pytest.approx(ref.statistic)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_matches_scipy_approx_with_ties(self):
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 100:
            a = rng.integers(0, 6, 30).astype(float)
            b = rng.integers(0, 6, 30).astype(float)
            if np.count_nonzero(a - b) < 6:
                continue
            ours = wilcoxon_signed_rank(a, b, mode="approx")
            ref = stats.wilcoxon(a, b, mode="approx", correction=True)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-9)
            checked += 1

    def test_branches_agree_at_boundary(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(200):
            a = rng.normal(size=20)
            b = a + rng.normal(scale=0.7, size=20)
            exact = wilcoxon_signed_rank(a, b, mode="exact").p_value
            approx = wilcoxon_signed_rank(a, b, mode="approx").p_value
            worst = max(worst, abs(exact - approx))
        assert worst <= 0.01

    def test_auto_switches_on_effective_n(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=20)
        b = a + rng.normal(scale=0.5, size=20)
        auto = wilcoxon_signed_rank(a, b, mode="auto")
        assert auto == wilcoxon_signed_rank(a, b, mode="exact")
        a = rng.normal(size=40)
        b = a + rng.normal(scale=0.5, size=40)
        auto = wilcoxon_signed_rank(a, b, mode="auto")
        assert auto == wilcoxon_signed_rank(a, b, mode="approx")

    @staticmethod
    def _pair_with_w_minus(n: int, w_minus: int):
        # Differences with |d| ranks 1..n where the ranks summing to w_minus
        # (greedy, descending) carry the negative sign.
        signs = np.ones(n)
        need = w_minus
        for r in range(n, 0, -1):
            if need >= r:
                signs[r - 1] = -1.0
                need -= r
        assert need == 0
        return signs * np.arange(1.0, n + 1), np.zeros(n)

    def test_published_critical_values_sample(self):
        # Two-sided 0.05 critical values from standard signed-rank tables:
        # the largest W with p <= 0.05; W = crit + 1 must not reject.
        critical = {6: 0, 8: 3, 10: 8, 15: 25, 20: 52}
        for n, crit in critical.items():
            a, b = self._pair_with_w_minus(n, crit)
            stat, p = wilcoxon_signed_rank(a, b, mode="exact")
            assert stat == crit
            assert p <= 0.05
            a, b = self._pair_with_w_minus(n, crit + 1)
            _, p_above = wilcoxon_signed_rank(a, b, mode="exact")
            assert p_above > 0.05
