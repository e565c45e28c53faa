"""Pmfs as integer counts over one denominator, checked against the
Fraction arithmetic they replaced: the pure-Python Wilcoxon counting
recursion, Fraction tail sums and the Fraction rejection-rule scan are
kept here as oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seblocks import nulldist, twosample
from seblocks.nulldist import Pmf
from seblocks.twosample import build_rejection_rule, make_scores


def wilcoxon_counts_loop(m, n):
    """Coefficients of the Gaussian binomial, one coefficient at a time."""
    top = m * n
    coeff = [0] * (top + 1)
    coeff[0] = 1
    for i in range(1, m + 1):
        step = n + i
        for s in range(top, step - 1, -1):
            coeff[s] -= coeff[s - step]
        for s in range(i, top + 1):
            coeff[s] += coeff[s - i]
    return tuple(coeff)


def cdf_oracle(pmf, value):
    return sum((pr for v, pr in zip(pmf.support, pmf.probs) if v <= value), Fraction(0))


def sf_oracle(pmf, value):
    return sum((pr for v, pr in zip(pmf.support, pmf.probs) if v >= value), Fraction(0))


def tail_critical_oracle(pmf, alpha, tail):
    pairs = list(zip(pmf.support, pmf.probs))
    if tail == "upper":
        pairs = pairs[::-1]
    cum = Fraction(0)
    for v, pr in pairs:
        if pr == 0:
            continue
        if cum + pr <= alpha:
            cum += pr
            continue
        return v, (alpha - cum) / pr
    raise ValueError("level must be below the total probability")


def rule_oracle(pmf, alpha, alternative):
    a = Fraction(alpha)
    share = a / 2 if alternative == "two-sided" else a
    tails = {}
    if alternative != "upper":
        tails["lower_critical"], tails["lower_gamma"] = tail_critical_oracle(pmf, share, "lower")
    if alternative != "lower":
        tails["upper_critical"], tails["upper_gamma"] = tail_critical_oracle(pmf, share, "upper")
    return twosample.RejectionRule(alternative, a, **tails)


def size_oracle(rule, pmf):
    total = Fraction(0)
    for v, pr in zip(pmf.support, pmf.probs):
        if rule.lower_critical is not None and v < rule.lower_critical:
            total += pr
        elif rule.upper_critical is not None and v > rule.upper_critical:
            total += pr
        else:
            total += rule.gamma_at(v) * pr
    return total


def wilcoxon_pmf(m, n):
    return nulldist.linear_rank_null(m, n, np.arange(1.0, m + n + 1), "exact")


@pytest.mark.parametrize("m", range(1, 26))
def test_wilcoxon_counts_match_the_loop_for_small_sizes(m):
    for n in range(1, 26):
        pmf = wilcoxon_pmf(m, n)
        assert pmf.counts == wilcoxon_counts_loop(m, n), (m, n)
        assert pmf.total == math.comb(m + n, n)


@pytest.mark.parametrize("m, n", [(1, 200), (200, 1), (57, 143), (200, 200)])
def test_wilcoxon_counts_match_the_loop_for_large_sizes(m, n):
    pmf = wilcoxon_pmf(m, n)
    assert pmf.counts == wilcoxon_counts_loop(m, n)
    assert pmf.support == tuple(range(m * (m + 1) // 2, m * (m + 1) // 2 + m * n + 1))


# one pmf of every producer: closed forms, the counting recursion,
# enumerated tallies and Monte Carlo nulls (exact and float atoms)
FAMILIES = {
    "precedence": lambda: nulldist.precedence_pmf(9, 7, 3),
    "empty_block": lambda: nulldist.empty_block_pmf(12, 9),
    "maximal_block": lambda: nulldist.maximal_block_pmf(10, 6, 7),
    "maximal_block_prefix": lambda: nulldist.maximal_block_pmf(10, 6, 2),
    "runs": lambda: nulldist.runs_pmf(11, 8),
    "dixon_c2": lambda: nulldist.dixon_c2_null(6, 5),
    "wilcoxon": lambda: wilcoxon_pmf(30, 20),
    "wilcoxon_100": lambda: wilcoxon_pmf(100, 100),
    "van_der_waerden": lambda: nulldist.linear_rank_null(
        7, 6, make_scores("van_der_waerden", 7, 6).scores
    ),
    "mood": lambda: nulldist.linear_rank_null(7, 6, make_scores("mood", 7, 6).scores),
    "terry_hoeffding_mc": lambda: nulldist.linear_rank_null(
        30, 30, make_scores("terry_hoeffding", 30, 30).scores, "monte_carlo",
        n_draws=20_000, seed=4,
    ),
    "dixon_mc": lambda: nulldist.dixon_c2_null(
        20, 20, "monte_carlo", n_draws=5_000, seed=2
    ),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_rules_match_the_fraction_scan(family):
    pmf = FAMILIES[family]()
    for alpha in (0.01, 0.05, 0.1, 1 / 3):
        for alternative in ("lower", "upper", "two-sided"):
            rule = build_rejection_rule(pmf, alpha, alternative)
            assert rule == rule_oracle(pmf, alpha, alternative), (alpha, alternative)
            assert rule.size(pmf) == size_oracle(rule, pmf) == Fraction(alpha)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_tail_probabilities_bit_equal_the_fraction_sums(family):
    pmf = FAMILIES[family]()
    atoms = list(pmf.support)
    # every atom of a small law; the ends and a spread of a large one
    picks = atoms if len(atoms) <= 200 else atoms[:8] + atoms[:: len(atoms) // 8] + atoms[-8:]
    gaps = [(a + b) / 2 for a, b in zip(picks, picks[1:]) if a < b]
    for value in picks + gaps + [atoms[0] - 1, atoms[-1] + 1]:
        lower, upper = cdf_oracle(pmf, value), sf_oracle(pmf, value)
        assert pmf.cdf(value) == lower and pmf.sf(value) == upper
        assert pmf.p_lower(value) == float(lower) and pmf.p_upper(value) == float(upper)


count_vectors = st.lists(
    st.one_of(st.integers(0, 5), st.integers(0, 10**30)), min_size=1, max_size=30
).filter(any)
alphas = st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(999_999, 10**6))


@settings(max_examples=300, deadline=None)
@given(count_vectors, alphas, st.sampled_from(["lower", "upper"]), st.integers(-2, 32))
def test_integer_scan_matches_the_fraction_scan(counts, alpha, tail, value):
    pmf = Pmf(tuple(range(len(counts))), tuple(counts), sum(counts), 1, 1, "random")
    assert twosample._tail_critical(pmf, alpha, tail) == tail_critical_oracle(pmf, alpha, tail)
    assert pmf.p_lower(value) == float(cdf_oracle(pmf, value))
    assert pmf.p_upper(value) == float(sf_oracle(pmf, value))
    assert pmf.p(value) == dict(zip(pmf.support, pmf.probs)).get(value, 0)


def test_level_at_the_total_is_rejected():
    pmf = Pmf((0, 1), (0, 3), 3, 1, 1, "toy")
    for tail in ("lower", "upper"):
        with pytest.raises(ValueError, match="below the total"):
            twosample._tail_critical(pmf, Fraction(1), tail)


def test_to_pmf_and_rule_build_no_fraction_per_atom():
    """The memory the old path spent on one Fraction per atom: a
    200,000-draw Terry-Hoeffding null has about 200,000 atoms.  The
    measured build counts the draws into the law and builds the rule."""
    draws = 200_000
    scores = make_scores("terry_hoeffding", 50, 50).scores

    def counted_law():
        return nulldist.linear_rank_null(50, 50, scores, "monte_carlo", n_draws=draws, seed=3)

    counts = counted_law().counts
    assert len(counts) > 0.9 * draws

    tracemalloc.start()
    try:
        fractions = tuple(Fraction(c, draws) for c in counts)
        fraction_bytes = tracemalloc.get_traced_memory()[0]
        del fractions
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build_rejection_rule(counted_law(), 0.05, "two-sided")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < fraction_bytes, (peak, fraction_bytes)


def test_a_counted_law_build_holds_little_beyond_the_law():
    """A 200,000-draw Terry-Hoeffding law peaks at about 1.33 times the
    memory it keeps; a list of its atoms held while the law builds its
    prefix sums took that to 1.5."""
    scores = make_scores("terry_hoeffding", 50, 50).scores
    tracemalloc.start()
    try:
        law = nulldist.linear_rank_null(50, 50, scores, "monte_carlo", n_draws=200_000, seed=3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(law.support) > 180_000
    assert peak < 1.4 * kept, (peak, kept)
