"""Acceptance gates for the whole package, one test per criterion.

Every test prints an ``ACCEPTANCE <n> <name>: PASS`` line on success (visible
with ``pytest -s tests/test_acceptance.py``).  Tolerances are pinned here;
oracles are scipy special functions, adaptive quadrature, explicit
enumeration and published statistical tables.
"""

import hashlib
import time

import numpy as np
import pytest
from scipy import special as scipy_special
from scipy.integrate import quad

from annodist import experiments, nn
from annodist.cli import main as cli_main
from annodist.consensus import (
    beta_excess_kurtosis_arrays,
    beta_skewness_arrays,
    clamp_moments_arrays,
    moment_match_arrays,
)
from annodist.metrics import kl_beta_arrays, wilcoxon_signed_rank
from annodist.pipeline import WindowConfig, build_dataset, window_starts
from annodist.special import inv_reg_inc_beta, reg_inc_beta
from annodist.synthetic import SyntheticConfig, generate
from gradcheck import kink_safe_problem, relative_gradient_error


def report_pass(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def default_synthetic_table():
    """The default synthetic dataset: 20 subjects, 6 annotators, small noise."""
    cfg = SyntheticConfig()
    wcfg = WindowConfig()
    feats, annots, truth = generate(cfg, wcfg)
    table, report = build_dataset(feats, annots, wcfg)
    return table, report, truth


@pytest.fixture(scope="module")
def trained_grid(default_synthetic_table):
    """Full 5-fold x 10-seed grid for the fully shared moment net plus the
    point-regressor median baseline, under the pinned training protocol."""
    table, _, _ = default_synthetic_table
    cfg = experiments.ExperimentConfig(
        k_folds=5,
        n_seeds=10,
        master_seed=0,
        variants=("fully_shared",),
        baselines=("median",),
    )
    start = time.perf_counter()
    report = experiments.run_grid(table, cfg)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_01_moment_matching_exactness():
    rng = np.random.default_rng(101)
    n = 10**5
    start = time.perf_counter()
    mu, sigma, _ = clamp_moments_arrays(
        rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n), 1e-4
    )
    alpha, beta = moment_match_arrays(mu, sigma)
    total = alpha + beta
    mean = alpha / total
    std = np.sqrt(alpha * beta / (total**2 * (total + 1.0)))
    elapsed = time.perf_counter() - start
    worst_mean = np.abs(mean - mu).max()
    worst_std = np.abs(std - sigma).max()
    assert worst_mean <= 1e-10
    assert worst_std <= 1e-10
    assert elapsed < 5.0
    report_pass(1, "moment matching exactness",
                f"n={n}, worst mean err {worst_mean:.2e}, "
                f"worst std err {worst_std:.2e}, {elapsed:.2f}s")


def _bisect_quantile_scipy(prob, alpha, beta, iters=60):
    """Independent quantile oracle: bisection on scipy's incomplete Beta."""
    lo = np.zeros_like(alpha)
    hi = np.ones_like(alpha)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        above = scipy_special.betainc(alpha, beta, mid) > prob
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def test_02_descriptor_oracle_equivalence():
    rng = np.random.default_rng(102)
    n = 1000
    start = time.perf_counter()
    alpha = rng.uniform(0.5, 50.0, n)
    beta = rng.uniform(0.5, 50.0, n)

    skew = beta_skewness_arrays(alpha, beta)
    kurt = beta_excess_kurtosis_arrays(alpha, beta)
    worst_skew = worst_kurt = 0.0
    for a, b, s, k in zip(alpha, beta, skew, kurt):
        mean = a / (a + b)

        def central(order):
            # Tight tolerances: standardising divides by sigma^3 (~1e-4 for
            # concentrated shapes), which amplifies absolute oracle error.
            val, _ = quad(
                lambda x: (x - mean) ** order
                * np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
                         - scipy_special.betaln(a, b)),
                0.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-12,
            )
            return val

        m2 = central(2)
        worst_skew = max(worst_skew, abs(s - central(3) / m2**1.5))
        worst_kurt = max(worst_kurt, abs(k - (central(4) / m2**2 - 3.0)))
    assert worst_skew <= 1e-6
    assert worst_kurt <= 1e-6

    worst_q = 0.0
    for prob in (0.25, 0.5, 0.75):
        ours = inv_reg_inc_beta(np.full(n, prob), alpha, beta)
        oracle = _bisect_quantile_scipy(prob, alpha, beta)
        worst_q = max(worst_q, np.abs(ours - oracle).max())
    assert worst_q <= 1e-6

    # Pinned reference cases.
    assert beta_excess_kurtosis_arrays(1.0, 1.0) == pytest.approx(-1.2, abs=1e-12)
    assert beta_skewness_arrays(2.0, 8.0) == pytest.approx(0.8292, abs=5e-5)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_pass(2, "descriptor oracle equivalence",
                f"n={n}, worst skew {worst_skew:.2e}, kurt {worst_kurt:.2e}, "
                f"quantile {worst_q:.2e}, {elapsed:.1f}s")


def test_03_quantile_round_trip_and_median_approx():
    rng = np.random.default_rng(103)
    n = 10**4
    p = rng.uniform(0.0, 1.0, n)
    alpha = rng.uniform(0.1, 100.0, n)
    beta = rng.uniform(0.1, 100.0, n)
    x = inv_reg_inc_beta(p, alpha, beta)
    errors = np.abs(reg_inc_beta(x, alpha, beta) - p)
    # Rare extreme-shape draws put the quantile where the double-precision
    # CDF jumps by more than the tolerance between adjacent floats; prove
    # for each such draw that no representable x can do better.
    over = np.nonzero(errors > 1e-8)[0]
    assert over.size <= 5
    for i in over:
        below = reg_inc_beta(np.nextafter(x[i], 0.0), alpha[i], beta[i]) - p[i]
        above = reg_inc_beta(np.nextafter(x[i], 1.0), alpha[i], beta[i]) - p[i]
        assert below <= 0.0 <= above
    worst_rt = errors[errors <= 1e-8].max() if over.size else errors.max()
    assert worst_rt <= 1e-8

    a2 = rng.uniform(1.1, 50.0, 2000)
    b2 = rng.uniform(1.1, 50.0, 2000)
    a2 = np.concatenate([a2, [1.1, 1.1, 50.0, 2.2]])
    b2 = np.concatenate([b2, [1.1, 50.0, 1.1, 1.1]])
    approx = (a2 - 1.0 / 3.0) / (a2 + b2 - 2.0 / 3.0)
    exact = inv_reg_inc_beta(np.full_like(a2, 0.5), a2, b2)
    worst_med = np.abs(approx - exact).max()
    assert worst_med <= 0.01
    report_pass(3, "quantile inversion round trip",
                f"n={n}, worst |I(inv(p))-p| {worst_rt:.2e} "
                f"({over.size} float64-pinched draws verified optimal); "
                f"median approx worst {worst_med:.4f}")


def test_04_kl_correctness(trained_grid):
    rng = np.random.default_rng(104)
    n = 1000
    ap = rng.uniform(0.5, 50.0, n)
    bp = rng.uniform(0.5, 50.0, n)
    aq = rng.uniform(0.5, 50.0, n)
    bq = rng.uniform(0.5, 50.0, n)
    closed = kl_beta_arrays(ap, bp, aq, bq)
    worst = 0.0
    for i in range(n):
        def integrand(x):
            lp = ((ap[i] - 1) * np.log(x) + (bp[i] - 1) * np.log1p(-x)
                  - scipy_special.betaln(ap[i], bp[i]))
            lq = ((aq[i] - 1) * np.log(x) + (bq[i] - 1) * np.log1p(-x)
                  - scipy_special.betaln(aq[i], bq[i]))
            return np.exp(lp) * (lp - lq)

        oracle, _ = quad(integrand, 0.0, 1.0, limit=300)
        worst = max(worst, abs(closed[i] - oracle) / max(1.0, abs(oracle)))
    assert worst <= 1e-6

    same = kl_beta_arrays(ap, bp, ap, bp)
    assert np.abs(same).max() <= 1e-12

    report, _ = trained_grid
    # The (fold, seed) block of fully_shared; its first cell is fold 0, seed 0.
    fracs = report.scores["kl_frac_better"][report.models.index("fully_shared")]
    first_cell = fracs[0, 0]
    assert first_cell >= 0.95
    assert fracs.mean() >= 0.95
    report_pass(4, "KL correctness",
                f"quadrature worst rel {worst:.2e}; self-KL <= 1e-12; "
                f"trained windows better than uniform: cell {first_cell:.3f}, "
                f"grid mean {fracs.mean():.3f}")


def test_05_gradient_fidelity():
    rng = np.random.default_rng(105)
    kinds = ("independent", "shared_first", "fully_shared")
    worst = 0.0
    for trial in range(100):
        kind = kinds[trial % 3]
        dim = int(rng.integers(3, 9))
        net, x, y = kink_safe_problem(rng, kind, dim)
        worst = max(worst, relative_gradient_error(net, x, y, h=1e-5))
    # The path that trains: a point stack whose members have distinct targets.
    net, x, y = kink_safe_problem(rng, "point", int(rng.integers(3, 9)), members=3)
    worst = max(worst, relative_gradient_error(net, x, y, h=1e-5))
    assert worst <= 1e-4
    report_pass(5, "gradient fidelity",
                f"100 instances over three variants and a 3-member point "
                f"stack, worst rel err {worst:.2e}")


def test_06_parameter_count_band():
    dims = {"audio": 40, "visual": 130, "physio": 116, "fusion": 286}
    for kind in nn.KINDS:
        for dim in dims.values():
            net = nn.build(nn.NetworkVariant(kind, dim), 0)
            assert sum(v.size for v in net.params.values()) == nn.count_params(kind, dim)

    counts = {
        (kind, name): nn.count_params(kind, dim)
        for kind in nn.KINDS
        for name, dim in dims.items()
    }
    smallest = min(counts.values())
    # The band's ends correspond to the single-trunk nets at the smallest and
    # largest unimodal dims: ~1.8k at 40 inputs, ~19.3k at 130 inputs.
    assert smallest == counts[("point", "audio")] == 1871
    assert abs(smallest - 1800) / 1800 <= 0.05
    assert counts[("fully_shared", "audio")] == 1892
    largest_unimodal = counts[("point", "visual")]
    assert largest_unimodal == 19339
    assert abs(largest_unimodal - 19300) / 19300 <= 0.01
    assert counts[("fully_shared", "visual")] == 19405
    report_pass(6, "parameter count band",
                f"smallest {smallest} ~ 1.8k, largest unimodal "
                f"{largest_unimodal} ~ 19.3k, exact formula verified")


def test_07_synthetic_end_to_end(trained_grid):
    report, elapsed = trained_grid
    assert not report.failures()
    beta, point = report.models.index("fully_shared"), report.models.index("point[median]")
    ccc_mu = report.scores["ccc_mu"][beta]
    ccc_sigma = report.scores["ccc_sigma"][beta]
    beta_median = report.scores["ccc_median"][beta]
    point_median = report.scores["ccc_median"][point]
    assert ccc_mu.mean() >= 0.9
    assert ccc_sigma.mean() >= 0.6
    assert beta_median.mean() >= point_median.mean() - 0.05
    assert elapsed <= 15 * 60
    report_pass(7, "synthetic end-to-end",
                f"CCC(mu) {ccc_mu.mean():.3f}, CCC(sigma) {ccc_sigma.mean():.3f}, "
                f"median beta {beta_median.mean():.3f} vs point "
                f"{point_median.mean():.3f}, grid {elapsed:.0f}s")


def test_08_protocol_determinism(tmp_path):
    synth_args = ["synth", "--out", str(tmp_path / "data"),
                  "--n-subjects", "10", "--duration", "40", "--seed", "11"]
    assert cli_main(synth_args) == 0
    build_args = ["build", "--features", str(tmp_path / "data" / "features.csv"),
                  "--annotations", str(tmp_path / "data" / "annotations.csv"),
                  "--out", str(tmp_path / "built")]
    assert cli_main(build_args) == 0
    hashes = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main([
            "run", "--dataset", str(tmp_path / "built"), "--out", str(out),
            "--k-folds", "5", "--n-seeds", "3", "--master-seed", "7",
            "--variants", "fully_shared", "--baselines", "median",
            "--density-windows", "4",
        ]) == 0
        digest = {}
        for f in ("moments_ccc.csv", "descriptors_ccc.csv", "kl.csv",
                  "summary.json", "density_data.csv"):
            digest[f] = hashlib.sha256((out / f).read_bytes()).hexdigest()
        hashes.append(digest)
    assert hashes[0] == hashes[1]
    report_pass(8, "protocol determinism",
                f"{len(hashes[0])} report files byte-identical across reruns")


def test_09_wilcoxon_calibration():
    # Published two-sided 0.05 critical values for the signed-rank statistic.
    published = {6: 0, 7: 2, 8: 3, 9: 5, 10: 8, 11: 10, 12: 13, 13: 17,
                 14: 21, 15: 25, 16: 29, 17: 34, 18: 40, 19: 46, 20: 52}

    def pair_with_w_minus(n, w_minus):
        signs = np.ones(n)
        need = w_minus
        for r in range(n, 0, -1):
            if need >= r:
                signs[r - 1] = -1.0
                need -= r
        assert need == 0
        return signs * np.arange(1.0, n + 1), np.zeros(n)

    for n, crit in published.items():
        a, b = pair_with_w_minus(n, crit)
        stat, p = wilcoxon_signed_rank(a, b, mode="exact")
        assert stat == crit and p <= 0.05
        a, b = pair_with_w_minus(n, crit + 1)
        _, p_above = wilcoxon_signed_rank(a, b, mode="exact")
        assert p_above > 0.05

    a = np.arange(1.0, 11.0)
    _, p_all_positive = wilcoxon_signed_rank(a, a - 1.0)
    assert p_all_positive == pytest.approx(2.0 / 2.0**10)

    rng = np.random.default_rng(109)
    trials = 5000
    rejections = 0
    for _ in range(trials):
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        _, p = wilcoxon_signed_rank(x, y)
        rejections += p < 0.05
    rate = rejections / trials
    assert 0.03 <= rate <= 0.07
    report_pass(9, "wilcoxon calibration",
                f"critical values n=6..20 reproduced; "
                f"null rejection rate {rate:.3f}")


def test_10_window_counts_and_target_validity(default_synthetic_table):
    rng = np.random.default_rng(110)
    for _ in range(100):
        window_len = rng.uniform(0.5, 5.0)
        stride = rng.uniform(0.1, window_len)
        duration = rng.uniform(0.0, 60.0)
        got = window_starts(duration, WindowConfig(window_len, stride)).size
        expected = 0
        while expected * stride + window_len <= duration + 1e-9:
            expected += 1
        assert got == expected

    table, report, _ = default_synthetic_table
    assert report.n_samples == len(table)
    cap = table.mu * (1.0 - table.mu)
    assert np.all((0.0 < table.mu) & (table.mu < 1.0))
    assert np.all((0.0 < table.sigma**2) & (table.sigma**2 < cap))
    report_pass(10, "window counts and target validity",
                f"100 configs match enumeration; {len(table)} targets "
                "strictly inside the validity region")
