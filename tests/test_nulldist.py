import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from seblocks import nulldist
from seblocks.nulldist import (
    CapacityError,
    EmpiricalNull,
    NormalNull,
    Pmf,
    dixon_c2_null,
    dixon_statistic,
    empty_block_pmf,
    enumerate_frequency_vectors,
    enumeration_cap,
    interior_exterior_empty_pmf,
    joint_block_pmf,
    linear_rank_null,
    maximal_block_pmf,
    precedence_pmf,
    runs_pmf,
)
from seblocks.partition import BlockFrequencies
from seblocks.twosample import dixon_c2_test, linear_rank_test, make_scores

HALF = Fraction(1, 2)


def brute_tally(m, n, stat):
    """Exact distribution of a statistic over all frequency vectors."""
    enum = enumerate_frequency_vectors(m, n)
    tally = {}
    for vec in enum.vectors:
        key = stat(vec)
        tally[key] = tally.get(key, 0) + 1
    return {k: Fraction(v, enum.count) for k, v in tally.items()}


def pmf_as_dict(pmf):
    return {v: p for v, p in zip(pmf.support, pmf.probs) if p}


class TestEnumeration:
    def test_minimal_case(self):
        enum = enumerate_frequency_vectors(1, 1)
        assert enum.vectors == ((0, 1), (1, 0))
        assert enum.probability == HALF

    def test_count_and_uniqueness(self):
        enum = enumerate_frequency_vectors(5, 5)
        assert enum.count == 252 == math.comb(10, 5)
        assert len(set(enum.vectors)) == 252
        assert all(sum(v) == 5 and len(v) == 6 for v in enum.vectors)

    def test_lexicographic_order(self):
        enum = enumerate_frequency_vectors(4, 3)
        assert list(enum.vectors) == sorted(enum.vectors)
        assert all(joint_block_pmf(4, 3, v) == Fraction(1, 35) for v in enum.vectors)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_frequency_vectors(100, 100)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("SEBLOCKS_ENUM_CAP", "3")
        assert enumeration_cap() == 3
        with pytest.raises(CapacityError):
            enumerate_frequency_vectors(3, 3)

    @pytest.mark.parametrize("value", ["abc", "1e6", "-5"])
    def test_a_malformed_cap_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("SEBLOCKS_ENUM_CAP", value)
        with pytest.raises(ValueError, match=f"SEBLOCKS_ENUM_CAP must be a non-negative integer, got '{value}'"):
            enumeration_cap()

    def test_a_zero_cap_enumerates_nothing(self, monkeypatch):
        monkeypatch.setenv("SEBLOCKS_ENUM_CAP", "0")
        assert enumeration_cap() == 0
        with pytest.raises(CapacityError):
            enumerate_frequency_vectors(1, 1)


class TestPrecedence:
    def test_two_point_symmetry(self):
        pmf = precedence_pmf(1, 1, 1)
        assert pmf_as_dict(pmf) == {0: HALF, 1: HALF}

    def test_matches_enumeration(self):
        expected = brute_tally(5, 5, lambda v: sum(v[:2]))
        assert pmf_as_dict(precedence_pmf(5, 5, 2)) == expected

    def test_sums_to_one(self):
        for m, n, j in [(3, 7, 1), (9, 2, 2), (12, 12, 6)]:
            assert sum(precedence_pmf(m, n, j).probs, Fraction(0)) == 1

    def test_j_bounds(self):
        with pytest.raises(ValueError):
            precedence_pmf(4, 4, 0)
        with pytest.raises(ValueError):
            precedence_pmf(4, 4, 5)


class TestEmptyBlock:
    def test_matches_enumeration(self):
        expected = brute_tally(5, 4, lambda v: sum(1 for c in v if c == 0))
        assert pmf_as_dict(empty_block_pmf(5, 4)) == expected

    def test_one_of_two_blocks_always_empty(self):
        assert pmf_as_dict(empty_block_pmf(1, 1)) == {1: Fraction(1)}

    def test_pigeonhole_support(self):
        pmf = empty_block_pmf(3, 5)
        assert pmf.support[0] == 3


class TestJointBlock:
    def test_full_vector(self):
        assert joint_block_pmf(4, 3, (4, 0, 0, 0)) == Fraction(1, 35)
        assert joint_block_pmf(4, 3, (3, 0, 0, 0)) == 0

    def test_single_block(self):
        assert joint_block_pmf(4, 3, (2,)) == Fraction(6, 35)

    def test_marginal_matches_precedence(self):
        # one named block's count is the j=1 precedence statistic
        pmf = precedence_pmf(6, 4, 1)
        for t in range(7):
            assert joint_block_pmf(6, 4, (t,)) == pmf.p(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_block_pmf(4, 3, (5,))
        with pytest.raises(ValueError):
            joint_block_pmf(4, 3, (-1,))
        with pytest.raises(ValueError):
            joint_block_pmf(4, 3, ())


class TestMaximalBlock:
    def test_two_points_one_cut(self):
        pmf = maximal_block_pmf(2, 1, 2)
        assert pmf_as_dict(pmf) == {1: Fraction(1, 3), 2: Fraction(2, 3)}

    def test_matches_enumeration_all_blocks(self):
        expected = brute_tally(6, 4, lambda v: max(v))
        assert pmf_as_dict(maximal_block_pmf(6, 4, 5)) == expected

    def test_matches_enumeration_prefix(self):
        expected = brute_tally(6, 4, lambda v: max(v[:2]))
        assert pmf_as_dict(maximal_block_pmf(6, 4, 2)) == expected

    def test_sums_to_one_on_grid(self):
        for m, n in [(3, 3), (7, 2), (2, 7), (10, 10)]:
            for j in (1, n, n + 1):
                assert sum(maximal_block_pmf(m, n, j).probs, Fraction(0)) == 1

    def test_all_in_one_block_probability(self):
        for m, n in [(4, 3), (6, 6), (9, 2)]:
            pmf = maximal_block_pmf(m, n, n + 1)
            assert pmf.p(m) == Fraction(n + 1, math.comb(m + n, n))


class TestRuns:
    def test_small_values(self):
        pmf = runs_pmf(5, 4)
        assert pmf.p(2) == Fraction(2, 126)
        assert pmf.support == tuple(range(2, 10))

    def test_degenerate(self):
        assert pmf_as_dict(runs_pmf(1, 1)) == {2: Fraction(1)}

    def test_sums_to_one(self):
        for m in range(1, 11):
            for n in range(1, 11):
                assert sum(runs_pmf(m, n).probs, Fraction(0)) == 1

    def test_symmetry_in_sample_sizes(self):
        for m in range(1, 11):
            for n in range(1, 11):
                a, b = runs_pmf(m, n), runs_pmf(n, m)
                assert a.support == b.support and a.probs == b.probs


class TestInteriorExterior:
    def test_marginal_total_empties(self):
        for m in range(1, 9):
            for n in range(2, 9):
                joint = interior_exterior_empty_pmf(m, n)
                eb = empty_block_pmf(m, n)
                for s in eb.support:
                    total = sum(
                        (pr for (i, e), pr in joint.atoms if i + e == s), Fraction(0)
                    )
                    assert total == eb.p(s)

    def test_requires_interior_blocks(self):
        with pytest.raises(ValueError):
            interior_exterior_empty_pmf(4, 1)

    def test_matches_enumeration(self):
        expected = brute_tally(
            4, 5,
            lambda v: (sum(1 for c in v[1:-1] if c == 0), (v[0] == 0) + (v[-1] == 0)),
        )
        joint = interior_exterior_empty_pmf(4, 5)
        assert dict(joint.atoms) == expected


class TestRunsBlockIdentities:
    def test_even_and_odd_identities(self):
        for n in range(2, 11):
            for m in range(1, 11):
                runs = runs_pmf(m, n)
                joint = interior_exterior_empty_pmf(m, n)
                for u in runs.support:
                    if u % 2 == 0:
                        assert runs.p(u) == joint.p(((2 * n - u) // 2, 1))
                    else:
                        both = joint.p(((2 * n - u - 1) // 2, 2))
                        none = joint.p(((2 * n - u + 1) // 2, 0))
                        assert runs.p(u) == both + none


class TestLinearRankNull:
    def test_wilcoxon_counting_matches_enumeration(self):
        m, n = 4, 3
        scores = np.arange(1.0, m + n + 1)
        pmf = linear_rank_null(m, n, scores, "exact")
        tally = {}
        for ones in itertools.combinations(range(m + n), m):
            w = sum(i + 1 for i in ones)
            tally[w] = tally.get(w, 0) + 1
        expected = {w: Fraction(c, math.comb(m + n, n)) for w, c in tally.items()}
        assert pmf_as_dict(pmf) == expected

    def test_wilcoxon_large_sizes_normalize(self):
        pmf = linear_rank_null(60, 60, np.arange(1.0, 121.0), "exact")
        assert sum(pmf.probs, Fraction(0)) == 1
        assert pmf.support[0] == 60 * 61 // 2

    @pytest.mark.parametrize("m, n", [(3, 4), (7, 9), (12, 6)])
    def test_siegel_tukey_counted_equals_enumerated(self, m, n):
        scores = make_scores("siegel_tukey", m, n).scores
        counted = linear_rank_null(m, n, scores, "exact")
        enumerated = nulldist._arrangement_law(
            lambda bars: nulldist._rank_sum_at(bars, scores), m, n, "exact", 1, 0, "linear_rank"
        )
        assert (counted.support, counted.counts, counted.total, counted.statistic) == (
            enumerated.support, enumerated.counts, enumerated.total, enumerated.statistic
        )
        assert all(type(v) is float for v in counted.support)

    def test_siegel_tukey_is_exact_above_the_cap(self, monkeypatch):
        # C(16, 8) = 12,870 arrangements, far past a cap of 10
        monkeypatch.setenv("SEBLOCKS_ENUM_CAP", "10")
        law = linear_rank_null(8, 8, make_scores("siegel_tukey", 8, 8).scores, "exact")
        ranks = linear_rank_null(8, 8, np.arange(1.0, 17.0), "exact")
        assert type(law) is Pmf and law.statistic == "linear_rank"
        assert law.support == tuple(map(float, ranks.support))
        assert law.counts == ranks.counts and law.total == math.comb(16, 8)

    def test_general_scores_enumerated(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(7)
        pmf = linear_rank_null(4, 3, scores, "exact")
        assert sum(pmf.probs, Fraction(0)) == 1
        total = math.comb(7, 3)
        assert all(p.denominator <= total for p in pmf.probs)

    def test_capacity_error_suggests_monte_carlo(self):
        with pytest.raises(CapacityError, match="monte_carlo"):
            linear_rank_null(40, 40, np.random.default_rng(1).standard_normal(80), "exact")

    def test_normal_moments_for_rank_scores(self):
        for m, n in [(8, 6), (20, 30)]:
            null = linear_rank_null(m, n, np.arange(1.0, m + n + 1), "normal")
            assert null.mean == pytest.approx(m * (m + n + 1) / 2)
            assert null.variance == pytest.approx(m * n * (m + n + 1) / 12)

    def test_constant_scores_degenerate(self):
        null = linear_rank_null(3, 4, np.full(7, 2.5), "normal")
        assert null.mean == pytest.approx(7.5)
        assert null.variance == pytest.approx(0.0)
        assert null.p_lower(7.5) == 1.0 and null.p_upper(7.5) == 1.0

    def test_scores_equal_up_to_rounding_degenerate(self):
        # the two Klotz scores at N = 2 differ in the last bit, and the
        # moment formula rounds to a negative variance; for three equal
        # scores of 0.3 it rounds to a positive one, and for scores
        # eight ulps apart (spread, as far as floats tell) below 0
        near = np.full(20, 0.5056378869683275)
        near[0] *= 1 + 8 * np.finfo(float).eps
        cases = ((make_scores("klotz", 1, 1), 1, 1), (np.full(3, 0.3), 1, 2), (near, 1, 19))
        for scores, m, n in cases:
            for k in range(n + 1):
                freqs = BlockFrequencies(tuple(int(i == k) for i in range(n + 1)), m, n)
                res = linear_rank_test(freqs, scores, method="normal")
                assert res.null_reference.variance == 0.0
                assert res.p_lower == res.p_upper == res.p_two_sided == 1.0

    def test_monte_carlo_reproducible_and_close_to_exact(self):
        m, n = 6, 6
        scores = np.arange(1.0, 13.0)
        a = linear_rank_null(m, n, scores, "monte_carlo", n_draws=20_000, seed=42)
        b = linear_rank_null(m, n, scores, "monte_carlo", n_draws=20_000, seed=42)
        assert a.support == b.support and a.counts == b.counts
        assert a.n_draws == a.total == 20_000 and a.seed == 42
        exact = linear_rank_null(m, n, scores, "exact")
        t = 30
        se = math.sqrt(0.25 / 20_000)
        assert abs(a.p_lower(t) - float(exact.cdf(t))) < 4 * se

    def test_empirical_to_pmf(self):
        null = linear_rank_null(3, 3, np.arange(1.0, 7.0), "monte_carlo", n_draws=500, seed=9)
        pmf = null.to_pmf()
        assert pmf is null and isinstance(null, Pmf) and not hasattr(null, "values")
        assert sum(pmf.probs, Fraction(0)) == 1


class TestDixon:
    def test_hand_enumeration(self):
        pmf = dixon_c2_null(2, 1, "exact")
        assert pmf_as_dict(pmf) == {
            Fraction(0): Fraction(1, 3),
            Fraction(1, 2): Fraction(2, 3),
        }

    def test_statistic_extremes(self):
        n = 4
        m = 6
        balanced = dixon_statistic((2, 1, 1, 1, 1), m, n)
        lopsided = dixon_statistic((6, 0, 0, 0, 0), m, n)
        assert lopsided > balanced
        expected_max = Fraction((m - (n + 1) * m) ** 2 + n * m * m, (m * (n + 1)) ** 2)
        assert lopsided == expected_max

    def test_exact_and_monte_carlo_agree(self):
        m = n = 5
        exact = dixon_c2_null(m, n, "exact")
        mc = dixon_c2_null(m, n, "monte_carlo", n_draws=100_000, seed=3)
        for q in (0.2, 0.08):
            # compare upper-tail probabilities at an exact atom
            cut = None
            run = Fraction(0)
            for v, p in zip(reversed(exact.support), reversed(exact.probs)):
                run += p
                if run >= q:
                    cut = v
                    break
            exact_tail = float(exact.sf(cut))
            mc_tail = mc.p_upper(float(cut.numerator / cut.denominator))
            se = math.sqrt(exact_tail * (1 - exact_tail) / 100_000)
            assert abs(mc_tail - exact_tail) < 3 * se

    def test_a_statistic_past_int64_is_summed_exactly(self):
        # m^2 n (n+1) passes 2^63 - 1 near m = n = 55,000
        m = n = 60_000
        freqs = BlockFrequencies((m,) + (0,) * n, m, n)
        result = dixon_c2_test(freqs, method="monte_carlo", n_draws=5, seed=1)
        assert result.statistic == dixon_statistic(freqs.counts, m, n) == Fraction(n, n + 1)
        null = result.null_reference
        assert all(0 < v < result.statistic for v in null.support)
        assert null.p_upper(result.statistic) == 0.0


# the laws the counting recursion does not give: every other score family
# and Dixon, at every m, n <= 8 and three sizes beyond
EXACT_FAMILIES = ("van_der_waerden", "terry_hoeffding", "mood", "klotz", "siegel_tukey", "dixon_c2")
EXACT_GRID = (*itertools.product(range(1, 9), repeat=2), (7, 9), (10, 8), (12, 6))
# the first 16 hex digits of the SHA-256 of repr((m, n, support, counts,
# total)) of each exact law over EXACT_GRID in order, recorded with the
# enumeration that tallied count matrices into a dict
EXACT_PINS = {
    "van_der_waerden": "4aa8772cf644b0f0",
    "terry_hoeffding": "4fe4fb2ba1f81005",
    "mood": "6a1ec41b3090df5e",
    "klotz": "51b41b9df0d17262",
    "siegel_tukey": "2ff0d6c63cfc2f95",
    "dixon_c2": "5e2e5dee4848569e",
}


@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_every_enumerated_exact_law_is_pinned(family):
    digest = hashlib.sha256()
    for m, n in EXACT_GRID:
        if family == "dixon_c2":
            law = dixon_c2_null(m, n, "exact")
        else:
            law = linear_rank_null(m, n, make_scores(family, m, n).scores, "exact")
        digest.update(repr((m, n, law.support, law.counts, law.total)).encode())
    assert digest.hexdigest()[:16] == EXACT_PINS[family]


MC_FAMILIES = (
    "wilcoxon", "van_der_waerden", "terry_hoeffding", "mood", "klotz", "siegel_tukey", "dixon_c2",
)
# the first 16 hex digits of the SHA-256 of each Monte Carlo null's sorted
# values (3,000 draws), recorded with the argpartition sampler that preceded packed keys;
# per (m, n): the digests for seed 0, then for seed (1, 714025, 3, m, n), in
# the order of MC_FAMILIES
MC_PINS = {
    (1, 1): (
        (
            "c03896a20b3fdb0a", "e95543fade224e48", "a867c1995443b6db", "cc81d7d75a282dbf",
            "c2e451620b96dc93", "c03896a20b3fdb0a", "1ad7d6d3dc99e97c",
        ),
        (
            "0b576256b0742356", "60118dd94b923777", "20375ef14cf71c1c", "cc81d7d75a282dbf",
            "42fffb197b28d39d", "0b576256b0742356", "1ad7d6d3dc99e97c",
        ),
    ),
    (1, 5): (
        (
            "4f8dbb93587c2a75", "18d5c95caef3e3f8", "22f1bdb6aa93bc4d", "a3a34ce75b2df3ff",
            "5d3d19fdaa539ea5", "5abb24232f1c3ab0", "31882a907a7c969b",
        ),
        (
            "084650be1b230564", "1d2b5646dbe3c95b", "7139fd39bf6de6cc", "b73a6bd64e56bbbc",
            "f482c9125d1c087f", "f6f2e7ee80f87eff", "31882a907a7c969b",
        ),
    ),
    (5, 1): (
        (
            "1b2c27c956797493", "826e95375490e1c1", "8c58c3486c79c062", "9561455cce5aac95",
            "ffa6403d079dfdc7", "c69d7f0212117e83", "8c8b2f2c245f4037",
        ),
        (
            "1ff0822a2246a0d2", "18bb3faa0fb1ab01", "18c8bf2d3beb09d4", "e8e3b6006044763a",
            "ada33c29e15917b4", "691ec27f0adbf0f7", "e9a8f202661de5f7",
        ),
    ),
    (9, 7): (
        (
            "cf7558eefbe6c639", "c8c216c3d5d58417", "b2a9b1b9fb498710", "1d6381ca0153370d",
            "b420eb331c844c9a", "2e99f8ad1ccb634c", "daa489aa38f73611",
        ),
        (
            "dc9457687fc47cc5", "2e4e29a2aef5b956", "04fd0c1538dc5460", "f9a7b1646d5a81e0",
            "f950291dda6d0a74", "e1ba0d9993a27efc", "581678fb42b16972",
        ),
    ),
    (30, 170): (
        (
            "5cdd3de6a3272435", "3f71f055484f25d1", "2d25f5721ef84d38", "8aaa3a22697c1554",
            "a6e9c480f5a56033", "e18569096c2dadfc", "ac2ca66c68ceff65",
        ),
        (
            "6a759f46d00dcdd5", "eb9fae821a69d97a", "1cd17f7d471ea576", "7c2074462cb1f625",
            "7d93136e9d487e35", "c0f223d399af7b73", "8a4ae92a43a04b5c",
        ),
    ),
    (100, 100): (
        (
            "0f088ab676bfb9d2", "18a0eae2e765d3f6", "126546f2ac801f1f", "cf723eb95ccdc4ea",
            "a65331b2f27fa71f", "73712cdb4b69b55a", "d77840ad53aedde2",
        ),
        (
            "72dbec95772d970f", "8bd451281dd471e7", "ffe325a8509c28e6", "bc5df77b2457661e",
            "f0721c6d681cc7a5", "f31d5986bf7d60e9", "f8e0a703fe2614aa",
        ),
    ),
}


class _KeyRows:
    """A stand-in generator whose ``random(out=...)`` fills ``out`` with
    the next rows of ``keys``."""

    def __init__(self, keys):
        self.keys, self.done = keys, 0

    def random(self, out):
        out[...] = self.keys[self.done : self.done + len(out)]
        self.done += len(out)
        return out


def _sampled_positions(m, n, keys):
    return np.concatenate(list(nulldist._sample_arrangements(m, n, len(keys), _KeyRows(keys))))


def _n_smallest(keys, n):
    """Ascending positions of the n smallest keys of each row, equal
    keys taken in position order."""
    return np.sort(np.argsort(keys, axis=1, kind="stable")[:, :n], axis=1)


class TestArrangementSampler:
    @pytest.mark.parametrize("m, n", list(MC_PINS))
    @pytest.mark.parametrize("seed_kind", [0, 1])
    def test_every_monte_carlo_null_is_pinned(self, m, n, seed_kind):
        seed = 0 if seed_kind == 0 else (1, 714025, 3, m, n)
        digests = []
        for family in MC_FAMILIES:
            if family == "dixon_c2":
                null = dixon_c2_null(m, n, "monte_carlo", n_draws=3000, seed=seed)
            else:
                scores = make_scores(family, m, n).scores
                null = linear_rank_null(m, n, scores, "monte_carlo", n_draws=3000, seed=seed)
            # the draws in ascending order, as floats
            draws = np.repeat([float(v) for v in null.support], null.counts)
            digests.append(hashlib.sha256(draws.tobytes()).hexdigest()[:16])
        assert tuple(digests) == MC_PINS[m, n][seed_kind]

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 6), (6, 1), (9, 7), (150, 250)])
    def test_packed_selection_is_the_n_smallest_keys(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        # drawn keys, then keys on a coarse grid (many ties at the cut);
        # every key is a multiple of 2^-53, as the generator's are
        cases = [rng.random((700, m + n)), rng.integers(0, 4, (700, m + n)) / 4]
        for keys in cases:
            bars = _sampled_positions(m, n, keys)
            assert bars.dtype == np.int64 and bars.shape == (700, n)
            assert np.array_equal(bars, _n_smallest(keys, n))

    def test_above_1024_positions_the_key_loses_its_low_bits(self):
        m, n = 1500, 700
        rng = np.random.default_rng(5)
        # s = 12 position bits, so 2 low key bits go: keys that differ only
        # there tie, and the lower position goes first
        whole = rng.integers(0, 2**51, (40, m + n))
        whole[:, ::2] = whole[:, 1::2]
        keys = (whole * 4 + rng.integers(0, 4, whole.shape)) / 2.0**53
        bars = _sampled_positions(m, n, keys)
        assert np.array_equal(bars, _n_smallest(whole, n))

    def test_the_generator_stream_is_read_in_draw_order(self):
        # 1,400 draws at m + n = 100 fill two chunks of 655 rows and 90
        # rows of a third
        m, n, draws = 60, 40, 1400
        bars = np.concatenate(list(
            nulldist._sample_arrangements(m, n, draws, np.random.default_rng(8))
        ))
        keys = np.random.default_rng(8).random((draws, m + n))
        assert np.array_equal(bars, _n_smallest(keys, n))


class TestPmfContainer:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Pmf((0, 1), (3, 2), 6, 1, 1, "bad")

    def test_support_must_ascend(self):
        with pytest.raises(ValueError):
            Pmf((1, 0), (1, 1), 2, 1, 1, "bad")

    def test_tail_probabilities(self):
        pmf = empty_block_pmf(4, 4)
        for s in pmf.support:
            assert pmf.cdf(s) + pmf.sf(s) - pmf.p(s) == 1

    def test_csv_rows(self):
        rows = list(runs_pmf(3, 2).csv_rows())
        assert all(len(r) == 4 for r in rows)
        assert sum(Fraction(num, den) for _, num, den, _ in rows) == 1
