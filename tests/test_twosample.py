import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

import seblocks
from seblocks.nulldist import (
    EmpiricalNull,
    NormalNull,
    Pmf,
    empty_block_pmf,
    enumerate_frequency_vectors,
    linear_rank_null,
)
from seblocks.partition import BlockFrequencies, Sample, TieError
from seblocks.twosample import (
    RejectionRule,
    ScoreFamily,
    ScoreVector,
    build_indicator_vector,
    build_rejection_rule,
    dixon_c2_test,
    empty_block_test,
    expected_normal_order_scores,
    frequencies_from_indicator,
    linear_rank_test,
    make_scores,
    mann_whitney_u,
    maximal_block_test,
    precedence_test,
    randomized_decision,
    runs_statistic,
    runs_test,
)

# the worked example's frequency vectors and indicator vectors
FREQS_NULL = BlockFrequencies((1, 2, 1, 0, 3, 1, 0), m=8, n=6)
FREQS_ALT = BlockFrequencies((4, 4, 0, 0, 0, 0, 0), m=8, n=6)
Z_NULL = (1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0)
Z_ALT = (1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0)


class TestScores:
    def test_wilcoxon_is_ranks(self):
        assert make_scores("wilcoxon", 8, 6).scores.tolist() == list(range(1, 15))

    def test_van_der_waerden_antisymmetric(self):
        a = make_scores("van_der_waerden", 7, 6).scores
        assert np.allclose(a, -a[::-1])

    def test_terry_hoeffding_sums_to_zero(self):
        a = make_scores("terry_hoeffding", 8, 6).scores
        assert abs(a.sum()) < 1e-8

    def test_terry_hoeffding_tabled_values(self):
        # expected normal order statistics for a sample of 14
        a = np.array(expected_normal_order_scores(14))
        assert a[-1] == pytest.approx(1.7034, abs=5e-5)
        assert a[0] == pytest.approx(-1.7034, abs=5e-5)
        assert a[-2] == pytest.approx(1.2079, abs=5e-5)

    def test_mood_and_klotz(self):
        mood = make_scores("mood", 3, 2).scores
        assert mood.tolist() == [(i - 3.0) ** 2 for i in range(1, 6)]
        klotz = make_scores("klotz", 3, 2).scores
        vdw = make_scores("van_der_waerden", 3, 2).scores
        assert np.allclose(klotz, vdw**2)

    def test_siegel_tukey_folding(self):
        assert make_scores("siegel_tukey", 3, 2).scores.tolist() == [1, 4, 5, 3, 2]
        assert make_scores("siegel_tukey", 5, 5).scores.tolist() == [
            1, 4, 5, 8, 9, 10, 7, 6, 3, 2,
        ]

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_scores("magic", 3, 3)

    def test_custom_requires_explicit_scores(self):
        with pytest.raises(ValueError):
            make_scores(ScoreFamily.CUSTOM, 3, 3)


def quadrature_score(size: int, i: int) -> float:
    """Oracle: the i-th expected normal order statistic of a sample of
    ``size`` by adaptive quadrature over the real line, in log space."""
    c = math.lgamma(size + 1) - math.lgamma(i) - math.lgamma(size - i + 1)

    def integrand(x: float) -> float:
        return x * math.exp(
            c + (i - 1) * norm.logcdf(x) + (size - i) * norm.logsf(x) + norm.logpdf(x)
        )

    value, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-11, limit=200)
    return value


def mpmath_score(size: int, i: int) -> float:
    """30-digit reference for the i-th expected normal order statistic,
    integrated piecewise around the approximate mode."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        c = mp.loggamma(size + 1) - mp.loggamma(i) - mp.loggamma(size - i + 1)

        def integrand(x):
            return x * mp.exp(
                c + (i - 1) * mp.log(mp.ncdf(x)) + (size - i) * mp.log(mp.ncdf(-x))
                - x * x / 2 - mp.log(2 * mp.pi) / 2
            )

        mode = float(norm.ppf((i - 0.375) / (size + 0.25)))
        points = [-12.0] + [mode + 0.05 * k for k in range(-20, 21)] + [12.0]
        return float(mp.quad(integrand, points))


class TestTerryHoeffdingGrid:
    @pytest.mark.parametrize("size", [2, 3, 10, 57, 100, 200])
    def test_matches_quadrature_oracle(self, size):
        grid = expected_normal_order_scores(size)
        oracle = [quadrature_score(size, i) for i in range(1, size // 2 + 1)]
        assert np.abs(np.array(grid[: size // 2]) - oracle).max() <= 1e-10

    def test_large_sample_entries(self):
        size = 20_000
        grid = expected_normal_order_scores(size)
        for i in (1, 5_000, 10_000):
            assert grid[i - 1] == pytest.approx(quadrature_score(size, i), abs=1e-10)
        # adaptive quadrature over the real line misses the narrow
        # density at i = 100 (it returns about 0), so these entries are
        # checked against the 30-digit reference instead
        for i in (1, 2, 100):
            assert grid[i - 1] == pytest.approx(mpmath_score(size, i), abs=1e-10)

    def test_antisymmetric_with_zero_middle(self):
        a = expected_normal_order_scores(7)
        assert a == tuple(-v for v in reversed(a))
        assert a[3] == 0.0
        assert expected_normal_order_scores(1) == (0.0,)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            expected_normal_order_scores(0)


class TestNormalFormsWithoutScipyStats:
    @pytest.mark.parametrize("m,n", [(3, 2), (8, 6), (100, 101)])
    def test_van_der_waerden_and_klotz_bit_equal(self, m, n):
        q = np.arange(1, m + n + 1) / (m + n + 1)
        vdw = make_scores("van_der_waerden", m, n).scores
        assert vdw.tobytes() == norm.ppf(q).tobytes()
        klotz = make_scores("klotz", m, n).scores
        assert klotz.tobytes() == (norm.ppf(q) ** 2).tobytes()

    def test_normal_null_pvalues_bit_equal(self):
        null = NormalNull(mean=52.5, variance=122.5, m=8, n=6, statistic="linear_rank")
        scale = math.sqrt(null.variance)
        for t in (0, 17, 40, 52.5, 53, 61.25, 88, 200, -1e3):
            assert null.p_lower(t) == float(norm.cdf(t, loc=null.mean, scale=scale))
            assert null.p_upper(t) == float(norm.sf(t, loc=null.mean, scale=scale))

    def test_cli_import_loads_no_scipy_stats_or_integrate(self):
        src = str(Path(seblocks.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = (
            "import sys, seblocks.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestIndicatorVector:
    def test_worked_null_example(self):
        assert build_indicator_vector(FREQS_NULL).z.tolist() == list(Z_NULL)

    def test_worked_alternative_example(self):
        assert build_indicator_vector(FREQS_ALT).z.tolist() == list(Z_ALT)

    def test_empty_comparison_sample(self):
        z = build_indicator_vector(BlockFrequencies((0, 0, 0, 0), m=0, n=3))
        assert z.z.tolist() == [0, 0, 0]

    def test_round_trip_bijection(self):
        for m in range(0, 7):
            for n in range(1, 13 - m):
                for vec in enumerate_frequency_vectors(max(m, 1), n).vectors:
                    if m == 0:
                        continue
                    freq = BlockFrequencies(vec, m=max(m, 1), n=n)
                    back = frequencies_from_indicator(build_indicator_vector(freq))
                    assert back.counts == freq.counts

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            frequencies_from_indicator([0, 2, 1])


class TestLinearRankTests:
    def test_rank_sum_worked_examples(self):
        w = make_scores("wilcoxon", 8, 6)
        null = linear_rank_test(FREQS_NULL, w)
        alt = linear_rank_test(FREQS_ALT, w)
        assert null.statistic == 57 and alt.statistic == 40
        assert null.p_two_sided == pytest.approx(0.7546, abs=5e-4)
        assert alt.p_two_sided == pytest.approx(0.00799, abs=5e-5)

    def test_normal_scores_worked_examples(self):
        th = make_scores("terry_hoeffding", 8, 6)
        assert linear_rank_test(FREQS_NULL, th).statistic == pytest.approx(-0.9410, abs=5e-4)
        assert linear_rank_test(FREQS_ALT, th).statistic == pytest.approx(-4.474, abs=5e-3)
        vdw = make_scores("van_der_waerden", 8, 6)
        assert linear_rank_test(FREQS_NULL, vdw).statistic == pytest.approx(-0.8012, abs=5e-5)
        assert linear_rank_test(FREQS_ALT, vdw).statistic == pytest.approx(-4.0764, abs=5e-5)

    def test_normal_approximation_pvalues(self):
        vdw = make_scores("van_der_waerden", 8, 6)
        res = linear_rank_test(FREQS_NULL, vdw, method="normal")
        assert res.p_two_sided == pytest.approx(0.616, abs=2e-3)
        res = linear_rank_test(FREQS_ALT, vdw, method="normal")
        assert res.p_two_sided == pytest.approx(0.0107, abs=5e-4)

    def test_rank_sum_block_identity(self):
        rng = np.random.default_rng(2)
        w = None
        for _ in range(50):
            n = int(rng.integers(1, 10))
            m = int(rng.integers(1, 12))
            bars = rng.choice(m + n, size=n, replace=False)
            vec = frequencies_from_indicator(
                np.isin(np.arange(m + n), bars, invert=True).astype(int)
            )
            w = make_scores("wilcoxon", m, n)
            res = linear_rank_test(vec, w)
            assert res.statistic == m * (m + 1) // 2 + sum(
                i * r for i, r in enumerate(vec.counts)
            )

    def test_monte_carlo_method(self):
        w = make_scores("van_der_waerden", 8, 6)
        res = linear_rank_test(FREQS_NULL, w, method="monte_carlo", n_draws=5000, seed=4)
        assert isinstance(res.null_reference, EmpiricalNull)
        assert 0 <= res.p_two_sided <= 1

    def test_score_length_checked(self):
        with pytest.raises(ValueError):
            linear_rank_test(FREQS_NULL, make_scores("wilcoxon", 5, 5))


class TestMannWhitney:
    def test_worked_example(self):
        assert mann_whitney_u(FREQS_NULL) == 21
        w = linear_rank_test(FREQS_NULL, make_scores("wilcoxon", 8, 6))
        assert mann_whitney_u(FREQS_NULL) == w.statistic - 8 * 9 // 2

    def test_extremes(self):
        assert mann_whitney_u(BlockFrequencies((5, 0, 0, 0), m=5, n=3)) == 0
        assert mann_whitney_u(BlockFrequencies((0, 0, 0, 5), m=5, n=3)) == 15

    def test_moving_one_point_up_a_block_adds_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            vec = list(rng.multinomial(10, np.ones(n + 1) / (n + 1)))
            i = int(rng.integers(0, n))
            if vec[i] == 0:
                continue
            base = mann_whitney_u(BlockFrequencies(tuple(vec), m=10, n=n))
            vec[i] -= 1
            vec[i + 1] += 1
            bumped = mann_whitney_u(BlockFrequencies(tuple(vec), m=10, n=n))
            assert bumped == base + 1


class TestBlockSummaryTests:
    def test_precedence_worked_example(self):
        res = precedence_test(FREQS_ALT, j=3, alternative="upper")
        assert res.statistic == 8
        assert res.p_upper == pytest.approx(float(Fraction(15, 1001)))

    def test_precedence_all_in_residual(self):
        freqs = BlockFrequencies((0, 0, 0, 0, 0, 0, 8), m=8, n=6)
        res = precedence_test(freqs, j=3, alternative="lower")
        assert res.statistic == 0
        assert res.p_lower == pytest.approx(float(Fraction(5, 91)))

    def test_precedence_two_point_case(self):
        for counts in [(1, 0), (0, 1)]:
            res = precedence_test(BlockFrequencies(counts, m=1, n=1), j=1)
            assert res.p_two_sided == 1.0

    def test_precedence_default_j(self):
        res = precedence_test(FREQS_NULL)
        assert res.metadata["j"] == 3

    def test_maximal_block_worked_examples(self):
        res = maximal_block_test(FREQS_ALT, j=7)
        assert res.statistic == 4
        assert res.p_upper == pytest.approx(float(Fraction(69, 143)))
        res = maximal_block_test(FREQS_NULL, j=7)
        assert res.statistic == 3
        assert res.p_upper == pytest.approx(float(Fraction(126, 143)))

    def test_empty_block_worked_examples(self):
        res = empty_block_test(FREQS_ALT)
        assert res.statistic == 5
        assert res.p_upper == pytest.approx(float(Fraction(2, 39)))
        assert empty_block_test(FREQS_NULL).statistic == 2

    def test_empty_block_all_occupied(self):
        res = empty_block_test(BlockFrequencies((2, 1, 1), m=4, n=2))
        assert res.statistic == 0 and res.p_upper == 1.0

    def test_dixon_exact(self):
        freqs = BlockFrequencies((2, 0), m=2, n=1)
        res = dixon_c2_test(freqs)
        assert res.statistic == Fraction(1, 2)
        assert res.p_upper == pytest.approx(2 / 3)

    def test_dixon_monte_carlo_path(self):
        res = dixon_c2_test(FREQS_NULL, method="monte_carlo", n_draws=5000, seed=1)
        assert 0 <= res.p_upper <= 1


class TestRuns:
    def test_mixed_cauchy_example(self):
        x = Sample([-4.62, -1.56, -0.21, 0.13, 0.27])
        y = Sample([-0.36, 0.00, 0.75, 3.32])
        res = runs_test(x, y)
        assert res.statistic == 6
        assert res.p_lower == pytest.approx(0.7857, abs=5e-4)

    def test_separated_cauchy_example(self):
        x = Sample([-1.89, 1.77, 2.25, 1.23, -0.94])
        y = Sample([9.53, 11.43, 5.91, 9.70])
        res = runs_test(x, y)
        assert res.statistic == 2
        assert res.p_lower == pytest.approx(float(Fraction(2, 126)))

    def test_perfect_interleaving(self):
        x = Sample([1.0, 3.0, 5.0])
        y = Sample([2.0, 4.0, 6.0])
        assert runs_statistic(x, y) == 6

    def test_cross_sample_tie(self):
        with pytest.raises(TieError):
            runs_statistic(Sample([1.0, 2.0]), Sample([2.0, 3.0]))

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError):
            runs_test(Sample([[1.0, 2.0]]), Sample([[0.0, 1.0]]))


class TestRandomizedDecision:
    def test_empty_block_rule_has_exact_size(self):
        pmf = empty_block_pmf(5, 5)
        rule = build_rejection_rule(pmf, 0.05, "upper")
        assert rule.size(pmf) == Fraction(0.05)
        assert abs(float(rule.size(pmf)) - 0.05) < 1e-12

    def test_two_sided_rule_has_exact_size(self):
        for alpha in (0.05, 0.01, 0.3):
            pmf = linear_rank_null(5, 4, np.arange(1.0, 10.0), "exact")
            rule = build_rejection_rule(pmf, alpha, "two-sided")
            assert rule.size(pmf) == Fraction(alpha)

    def test_achievable_level_needs_no_randomization(self):
        pmf = Pmf((0, 1, 2), (Fraction(1, 8), Fraction(3, 8), Fraction(4, 8)), 1, 1, "toy")
        rule = build_rejection_rule(pmf, 0.125, "lower")
        assert rule.lower_gamma == 0
        assert rule.lower_critical == 1

    def test_degenerate_null_gamma_is_alpha(self):
        pmf = Pmf((3,), (Fraction(1),), 1, 1, "point")
        rule = build_rejection_rule(pmf, 0.05, "two-sided")
        assert rule.gamma_at(3) == Fraction(0.05)
        assert rule.size(pmf) == Fraction(0.05)

    def test_decision_uses_seed(self):
        res = empty_block_test(FREQS_ALT)
        # boundary atom: S0 = 5 is the critical value at this level
        d1 = randomized_decision(res, 0.05, seed=1)
        d2 = randomized_decision(res, 0.05, seed=1)
        assert d1.reject == d2.reject and d1.uniform == d2.uniform
        assert 0 < d1.gamma < 1

    def test_rejects_non_discrete_null(self):
        res = linear_rank_test(FREQS_NULL, make_scores("wilcoxon", 8, 6), method="normal")
        with pytest.raises(ValueError):
            randomized_decision(res, 0.05)

    def test_empirical_null_decision(self):
        res = linear_rank_test(
            FREQS_NULL, make_scores("van_der_waerden", 8, 6),
            method="monte_carlo", n_draws=2000, seed=5,
        )
        d = randomized_decision(res, 0.05, seed=0)
        assert isinstance(d.reject, bool)


class TestSuperUniformity:
    @pytest.mark.parametrize("m,n", [(5, 4), (4, 5), (6, 4)])
    def test_exact_pvalues_super_uniform(self, m, n):
        wil = make_scores("wilcoxon", m, n)
        cases = {
            "wilcoxon": lambda f: linear_rank_test(f, wil).p_two_sided,
            "precedence": lambda f: precedence_test(f, j=2).p_two_sided,
            "empty_block": lambda f: empty_block_test(f).p_upper,
            "maximal_block": lambda f: maximal_block_test(f).p_upper,
            "dixon_c2": lambda f: dixon_c2_test(f).p_upper,
        }
        enum = enumerate_frequency_vectors(m, n)
        for name, pval in cases.items():
            ps = sorted(pval(BlockFrequencies(v, m=m, n=n)) for v in enum.vectors)
            k = len(ps)
            for alpha in sorted(set(ps)):
                share = sum(1 for p in ps if p <= alpha) / k
                assert share <= alpha + 1e-12, (name, alpha, share)


class TestResultShape:
    def test_json_payload(self):
        res = empty_block_test(FREQS_NULL)
        payload = res.to_json_dict()
        for key in ("statistic", "p_lower", "p_upper", "p_two_sided", "alternative", "method", "m", "n"):
            assert key in payload

    def test_two_sided_cap(self):
        res = precedence_test(BlockFrequencies((1, 0), m=1, n=1), j=1)
        assert res.p_two_sided <= 1.0

    def test_alternative_spellings(self):
        res = empty_block_test(FREQS_NULL, alternative="TWO_SIDED")
        assert res.alternative == "two-sided"
        with pytest.raises(ValueError):
            empty_block_test(FREQS_NULL, alternative="sideways")
