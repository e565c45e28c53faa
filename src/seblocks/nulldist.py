"""Exact null distributions of block-frequency statistics.

Under identical continuous populations every vector of block frequencies
(r_1, ..., r_{n+1}) with nonnegative entries summing to m is equally
likely, with probability 1 / C(m+n, n).  Every distribution here follows
from that single fact, and each closed form has a brute-force witness in
``enumerate_frequency_vectors``.

So every exact law is held as integer counts over C(m+n, n) (a Monte
Carlo law: over the number of draws); tail probabilities and rejection
rules come from their prefix sums, and ``Fraction`` probabilities are
derived only on request.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "CapacityError",
    "Pmf",
    "JointPmf",
    "FrequencyEnumeration",
    "EmpiricalNull",
    "NormalNull",
    "enumeration_cap",
    "enumerate_frequency_vectors",
    "precedence_pmf",
    "empty_block_pmf",
    "joint_block_pmf",
    "maximal_block_pmf",
    "runs_pmf",
    "interior_exterior_empty_pmf",
    "linear_rank_null",
    "dixon_c2_null",
    "dixon_statistic",
]

DEFAULT_ENUM_CAP = 10_000_000
# the number of Monte Carlo null draws when a caller names none
DEFAULT_DRAWS = 200_000
ENUM_CAP_ENV = "SEBLOCKS_ENUM_CAP"


class CapacityError(ValueError):
    """Exact enumeration would exceed the configured cap."""


def enumeration_cap() -> int:
    """The enumeration cap: the SEBLOCKS_ENUM_CAP environment variable,
    else the default.  A value that is not an integer in [0, 2^63) is
    refused (ranks are int64); 0 enumerates nothing."""
    env = os.environ.get(ENUM_CAP_ENV)
    if not env:
        return DEFAULT_ENUM_CAP
    if not env.isdecimal():
        raise ValueError(f"{ENUM_CAP_ENV} must be a non-negative integer, got {env!r}")
    if len(env.lstrip("0")) > 19 or int(env) > np.iinfo(np.int64).max:  # int() refuses 4,300+ digits
        raise ValueError(f"{ENUM_CAP_ENV} must be below 2^63, got {env!r}")
    return int(env)


def _choose(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 off the triangle, so the
    closed forms below hold on boundary support points without case
    analysis."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def _validate_sizes(m: int, n: int):
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


@dataclass(frozen=True)
class _CountedLaw:
    """A discrete law: atom ``support[i]`` (strictly ascending) has
    probability counts[i] / total, with ``total`` C(m+n, n) for an exact
    null and the number of draws for a Monte Carlo one.  ``cum_counts``
    holds the prefix sums of the counts (int64 when ``total`` fits)."""

    support: tuple
    counts: tuple[int, ...]
    total: int
    m: int
    n: int
    statistic: str
    cum_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.counts or len(self.support) != len(self.counts) or min(self.counts) < 0:
            raise ValueError("need one nonnegative count per atom of the support")
        dtype = np.int64 if self.total <= np.iinfo(np.int64).max else object
        cum = np.array(self.counts, dtype=dtype)
        np.cumsum(cum, out=cum)
        if int(cum[-1]) != self.total or self.total < 1:
            raise ValueError(f"counts sum to {int(cum[-1])}, not the positive total {self.total}")
        if not all(map(operator.lt, self.support, itertools.islice(self.support, 1, None))):
            raise ValueError("support must be strictly ascending")
        cum.flags.writeable = False
        object.__setattr__(self, "cum_counts", cum)

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        """Exact probabilities, reduced: the law at the API edge."""
        return tuple(Fraction(c, self.total) for c in self.counts)

    def p(self, value) -> Fraction:
        """Exact point mass at ``value`` (0 if not in the support)."""
        i = bisect.bisect_left(self.support, value)
        if i < len(self.support) and self.support[i] == value:
            return Fraction(self.counts[i], self.total)
        return Fraction(0)

    def csv_rows(self):
        """Rows (value, numerator, denominator, probability) for export;
        a pair value (joint law) takes two fields."""
        for v, pr in zip(self.support, self.probs):
            yield *(v if isinstance(v, tuple) else (v,)), pr.numerator, pr.denominator, float(pr)


class Pmf(_CountedLaw):
    """A distribution of a scalar statistic with exact rational
    probabilities.  Support values may be ints, Fractions, or floats
    depending on the statistic."""

    def _count_below(self, value, inclusive: bool) -> int:
        """Total count of the atoms < ``value`` (<= when ``inclusive``)."""
        k = (bisect.bisect_right if inclusive else bisect.bisect_left)(self.support, value)
        return int(self.cum_counts[k - 1]) if k else 0

    def cdf(self, value) -> Fraction:
        """Exact P(T <= value)."""
        return Fraction(self._count_below(value, True), self.total)

    def sf(self, value) -> Fraction:
        """Exact P(T >= value)."""
        return Fraction(self.total - self._count_below(value, False), self.total)

    # integer division rounds correctly, so these equal float(cdf) and float(sf)
    def p_lower(self, value) -> float:
        return self._count_below(value, True) / self.total

    def p_upper(self, value) -> float:
        return (self.total - self._count_below(value, False)) / self.total


class JointPmf(_CountedLaw):
    """A joint distribution over integer pairs (the support, ascending
    in lexicographic order) with exact probabilities."""

    @property
    def atoms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        return tuple(zip(self.support, self.probs))

    def p(self, pair) -> Fraction:
        return super().p(tuple(pair))


@dataclass(frozen=True, eq=False)
class FrequencyEnumeration:
    """All C(m+n, n) block-frequency vectors, each equally likely."""

    m: int
    n: int
    vectors: tuple[tuple[int, ...], ...]

    @property
    def probability(self) -> Fraction:
        return Fraction(1, math.comb(self.m + self.n, self.n))

    @property
    def count(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class EmpiricalNull(Pmf):
    """A seeded Monte Carlo stand-in for an exact null: the law of the
    statistic over ``total`` drawn arrangements, counted when drawn."""

    seed: object

    @property
    def n_draws(self) -> int:
        return self.total

    def to_pmf(self) -> Pmf:
        """The law itself: the draws are counted when they are made."""
        return self


@dataclass(frozen=True)
class NormalNull:
    """Normal approximation (mean, variance) to a linear rank null."""

    mean: float
    variance: float
    m: int
    n: int
    statistic: str

    def _ndtr(self, sign: int, t) -> float:
        """Phi(sign * z) at the standardized statistic z."""
        from scipy.special import ndtr

        return float(ndtr(sign * ((t - self.mean) / math.sqrt(self.variance))))

    def _on_mean(self, t) -> bool:
        # without spread, a statistic summed from the scores is the mean up to rounding
        return math.isclose(t, self.mean, rel_tol=1e-9)

    def p_lower(self, t) -> float:
        if self.variance == 0:
            return 1.0 if t >= self.mean or self._on_mean(t) else 0.0
        return self._ndtr(1, t)

    def p_upper(self, t) -> float:
        if self.variance == 0:
            return 1.0 if t <= self.mean or self._on_mean(t) else 0.0
        return self._ndtr(-1, t)


# matrix cells per chunk of arrangements: 512 KB of keys, small enough
# to stay in cache (on a 2-core x86 machine, chunks of 4M cells made a
# Monte Carlo null at m = n = 50 about 30% slower); each row's keys
# are drawn in stream order and its positions chosen from that row
# alone, so the chunk size changes no value
_CHUNK_CELLS = 1 << 16


def _counts_from_bars(bars: np.ndarray, size: int) -> np.ndarray:
    """Frequency vectors of arrangements given by the ascending
    positions of their reference points (rows of ``bars``): the gaps
    between successive positions, with -1 and ``size`` as end posts."""
    return np.diff(bars, axis=1, prepend=-1, append=size) - 1


def _reference_positions(counts: np.ndarray) -> np.ndarray:
    """0-based positions of the reference points in the pooled
    arrangement of each frequency vector (last axis): cumulative count
    through block k, plus k - 1."""
    n = counts.shape[-1] - 1
    return np.cumsum(counts[..., :n], axis=-1) + np.arange(n)


@lru_cache(maxsize=16)
def _lexicographic_table(m: int, n: int) -> np.ndarray:
    """The combinatorial number system of the arrangements (Knuth, TAOCP
    4A, 7.2.1.3), read-only int64: with S_k = r_1 + ... + r_{k+1}, the
    vectors that agree with a frequency vector in r_1..r_k and exceed it
    in r_{k+1} number entry [k, S_k] = C(n-1-k+m-S_k, n-k), strictly
    decreasing along each row.  No entry passes C(m+n, n)."""
    table = np.array([[math.comb(n - 1 - k + m - s, n - k) for s in range(m + 1)]
                      for k in range(n)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _lexicographic_rank(counts: np.ndarray, m: int, n: int) -> np.ndarray:
    """The int64 position of each frequency vector (a row of n+1 counts
    summing to m) among all C(m+n, n) in lexicographic order: the last,
    C(m+n, n) - 1, less the table entries at its S_k (the later ones)."""
    later = _lexicographic_table(m, n)[np.arange(n), np.cumsum(counts[:, :n], axis=1)]
    return math.comb(m + n, n) - 1 - later.sum(axis=1)


def _lexicographic_unrank(ranks, m: int, n: int) -> np.ndarray:
    """Ascending reference positions S_k + k of the arrangements at
    ``ranks``: part by part, S_k is the first s whose entry does not
    pass the count of later vectors left to place."""
    table, bars = _lexicographic_table(m, n), np.empty((len(ranks), n), dtype=np.int64)
    later = math.comb(m + n, n) - 1 - np.asarray(ranks, dtype=np.int64)
    for k in range(n):
        cum = m + 1 - np.searchsorted(table[k, ::-1], later, side="right")
        later -= table[k, cum]
        bars[:, k] = cum + k
    return bars


def _arrangement_chunks(m: int, n: int):
    """Every arrangement, in lexicographic order, as (rows, n) matrices
    of ascending reference positions of bounded size."""
    _validate_sizes(m, n)
    total, limit = math.comb(m + n, n), enumeration_cap()
    if total > limit:
        raise CapacityError(
            f"C({m + n}, {n}) = {total} arrangements exceed the enumeration cap {limit}; "
            f"raise {ENUM_CAP_ENV} or use method='monte_carlo'"
        )
    rows = max(1, _CHUNK_CELLS // (m + n))
    for start in range(0, total, rows):
        yield _lexicographic_unrank(np.arange(start, min(start + rows, total)), m, n)


def _sample_arrangements(m: int, n: int, n_draws: int, rng: np.random.Generator):
    """Seeded uniformly random arrangements as (rows, n) matrices of
    ascending reference positions, ``n_draws`` rows in all: the
    positions of the n smallest of m + n uniform keys are a uniform
    n-subset of the pooled positions.

    Each key is a multiple of 2^-53, so key * 2^63 is an integer below
    2^63 whose 10 low bits are 0.  With its low s bits replaced by the
    position (s bits hold every position) it becomes one distinct int64
    per cell, ordered by (key, position), and one partition of those
    picks the n smallest.  So equal keys at the cut (probability below
    1e-11 per draw at m + n = 400) go to the lower position; above 1024
    positions (s > 10) the key loses its s - 10 low bits first."""
    size = m + n
    shift = max(1, (size - 1).bit_length())
    position_bits = (1 << shift) - 1
    positions = np.arange(size, dtype=np.int64)
    rows = max(1, min(n_draws, _CHUNK_CELLS // size))
    # the two chunk buffers are reused, so memory stays bounded
    keys = np.empty((rows, size))
    packed = np.empty((rows, size), dtype=np.int64)
    for done in range(0, n_draws, rows):
        drawn = rng.random(out=keys[: min(rows, n_draws - done)])
        cells = packed[: drawn.shape[0]]
        # an integer below 2^63, so the cast is exact (and fast: numpy's
        # casts of floats at or above 2^63 to uint64 take a slow path)
        np.multiply(drawn, 2.0**63, out=cells, casting="unsafe")
        if shift > 10:
            cells &= ~position_bits
        cells |= positions
        cells.partition(n - 1, axis=1)
        bars = cells[:, :n] & position_bits
        bars.sort(axis=1)
        yield bars


def _arrangement_law(statistic, m: int, n: int, method: str, n_draws: int, seed, name: str,
                     atom=None) -> Pmf:
    """Counted law of ``statistic``, a map from an (R, n) matrix of
    reference positions to R values (or R rows of values, taken as
    tuples): over all C(m+n, n) equally likely arrangements for
    ``exact`` (a ``Pmf``), over ``n_draws`` seeded uniformly random ones
    for ``monte_carlo`` (an ``EmpiricalNull``).  ``atom`` maps each
    value to its atom, in the same order."""
    if method == "exact":
        chunks, total = _arrangement_chunks(m, n), math.comb(m + n, n)
    else:
        if n_draws < 1:
            raise ValueError(f"n_draws must be >= 1, got {n_draws}")
        chunks, total = _sample_arrangements(m, n, n_draws, np.random.default_rng(seed)), n_draws
    # map() lets go of each chunk before it makes the next
    values = np.concatenate(list(map(statistic, chunks)))
    values, counts = np.unique(values, axis=0 if values.ndim > 1 else None, return_counts=True)
    support = values.tolist() if values.ndim == 1 else map(tuple, values.tolist())
    # rebinding frees the list before the law builds its prefix sums
    support = tuple(support if atom is None else map(atom, support))
    law = (support, tuple(counts.tolist()), total, m, n, name)
    return Pmf(*law) if method == "exact" else EmpiricalNull(*law, seed)


def enumerate_frequency_vectors(m: int, n: int) -> FrequencyEnumeration:
    """List every frequency vector in lexicographic order.

    The i-th gap between successive bar positions in a stars-and-bars
    layout of m stars and n bars gives r_i.
    """
    vectors = tuple(
        tuple(row)
        for bars in _arrangement_chunks(m, n)
        for row in _counts_from_bars(bars, m + n).tolist()
    )
    return FrequencyEnumeration(m, n, vectors)


def _exact_law(cls, pairs, m: int, n: int, statistic: str):
    """A ``cls`` law over all C(m+n, n) arrangements from (value, count)
    pairs in ascending order of value; atoms with no count are left out."""
    support, counts = zip(*((v, c) for v, c in pairs if c))
    return cls(support, counts, math.comb(m + n, n), m, n, statistic)


def precedence_pmf(m: int, n: int, j: int) -> Pmf:
    """Distribution of the count of comparison points in the first j
    blocks: P(T = t) = C(t+j-1, t) C(m-t+n-j, m-t) / C(m+n, n), the
    negative hypergeometric law."""
    _validate_sizes(m, n)
    if not 1 <= j <= n:
        raise ValueError(f"j must be in [1, {n}], got {j}")
    pairs = ((t, _choose(t + j - 1, t) * _choose(m - t + n - j, m - t)) for t in range(m + 1))
    return _exact_law(Pmf, pairs, m, n, f"precedence(j={j})")


def empty_block_pmf(m: int, n: int) -> Pmf:
    """Distribution of the number of empty blocks:
    P(S0 = s) = C(n+1, s) C(m-1, n-s) / C(m+n, n)."""
    _validate_sizes(m, n)
    pairs = ((s, _choose(n + 1, s) * _choose(m - 1, n - s)) for s in range(n + 1))
    return _exact_law(Pmf, pairs, m, n, "empty_block")


def joint_block_pmf(m: int, n: int, r: Sequence[int]) -> Fraction:
    """Exact joint probability that j named blocks hold the given counts:
    C(m + n - sum(r) - j, n - j) / C(m+n, n).  With all n+1 blocks named
    the probability is 1 / C(m+n, n) when the counts use up the sample."""
    _validate_sizes(m, n)
    r = tuple(int(v) for v in r)
    j = len(r)
    if not 1 <= j <= n + 1:
        raise ValueError(f"need between 1 and {n + 1} block counts, got {j}")
    if any(v < 0 for v in r):
        raise ValueError("block counts must be nonnegative")
    total = sum(r)
    if total > m:
        raise ValueError(f"block counts sum to {total} > m = {m}")
    denom = math.comb(m + n, n)
    if j == n + 1:
        return Fraction(1, denom) if total == m else Fraction(0)
    return Fraction(_choose(m + n - total - j, n - j), denom)


def _bounded_compositions(j: int, s: int, r: int) -> int:
    """Number of ordered j-tuples of integers in [0, r] summing to s,
    by inclusion-exclusion over which entries overflow r."""
    if s < 0 or s > j * r:
        return 0
    total = 0
    for k in range(0, min(j, s // (r + 1)) + 1):
        term = _choose(j, k) * _choose(s - k * (r + 1) + j - 1, j - 1)
        total += term if k % 2 == 0 else -term
    return total


def maximal_block_pmf(m: int, n: int, j: int) -> Pmf:
    """Distribution of the largest count among the first j blocks.

    Computed through the cumulative form P(max <= r) = sum over s of
    (number of j-tuples bounded by r summing to s) times the joint
    probability of any j blocks holding total s; with j = n + 1 the
    total is pinned at m.  Avoids the exponential sum over all tuples.
    """
    _validate_sizes(m, n)
    if not 1 <= j <= n + 1:
        raise ValueError(f"j must be in [1, {n + 1}], got {j}")

    def at_most(r: int) -> int:
        """Arrangements with the maximum at most r."""
        if j == n + 1:
            return _bounded_compositions(j, m, r)
        return sum(
            _bounded_compositions(j, s, r) * _choose(m + n - s - j, n - j)
            for s in range(0, min(m, j * r) + 1)
        )

    cum = [0] + [at_most(r) for r in range(m + 1)]
    pairs = ((r, cum[r + 1] - cum[r]) for r in range(m + 1))
    return _exact_law(Pmf, pairs, m, n, f"maximal_block(j={j})")


def runs_pmf(m: int, n: int) -> Pmf:
    """Distribution of the number of runs in the sorted pooled sample."""
    _validate_sizes(m, n)

    def count(u: int) -> int:
        if u % 2 == 0:
            half = u // 2
            return 2 * _choose(m - 1, half - 1) * _choose(n - 1, half - 1)
        return _choose(m - 1, (u - 1) // 2) * _choose(n - 1, (u - 3) // 2) + _choose(
            m - 1, (u - 3) // 2
        ) * _choose(n - 1, (u - 1) // 2)

    hi = min(2 * n + 1, 2 * m + 1, m + n)
    return _exact_law(Pmf, ((u, count(u)) for u in range(2, hi + 1)), m, n, "runs")


def interior_exterior_empty_pmf(m: int, n: int) -> JointPmf:
    """Joint distribution of empty interior and empty exterior blocks.

    The two unbounded univariate blocks are exterior; the n - 1 bounded
    ones are interior.  P = C(2, e) C(n-1, i) C(m-1, n-i-e) / C(m+n, n).
    """
    _validate_sizes(m, n)
    if n < 2:
        raise ValueError(f"interior blocks require n >= 2, got n={n}")
    pairs = (
        ((i, e), _choose(2, e) * _choose(n - 1, i) * _choose(m - 1, n - i - e))
        for i in range(0, n)
        for e in range(0, 3)
        if max(0, n + 1 - m) <= i + e <= n
    )
    return _exact_law(JointPmf, pairs, m, n, "interior_exterior_empty")


@lru_cache(maxsize=64)
def _wilcoxon_rank_sum_pmf(m: int, n: int) -> Pmf:
    """Exact rank-sum distribution over all C(m+n, n) arrangements: the
    counts are the coefficients of the Gaussian binomial
    prod_{i<=k} (1 - q^(K+i)) / (1 - q^i), k = min(m, n), K = max(m, n),
    applied factor by factor to the whole array of exact Python ints (a
    shifted subtraction, then a prefix sum down the columns of an
    (rows, i) view).  Each step reads only lower coefficients, and they
    are palindromic, so only the lower half is computed."""
    k, big = min(m, n), max(m, n)
    top = m * n
    size = top // 2 + 1
    # k spare cells let every (rows, i) view run past the lower half;
    # what lands there never flows back into it
    coeff = np.zeros(size + k, dtype=object)
    coeff[0] = 1
    for i in range(1, k + 1):
        # numpy buffers overlapping operands, so this reads the old values
        coeff[big + i : size] -= coeff[: max(0, size - big - i)]
        rows = -(-size // i)
        view = coeff[: rows * i].reshape(rows, i)
        np.add.accumulate(view, axis=0, out=view)
    lower = coeff[:size].tolist()
    counts = tuple(lower + lower[: top + 1 - size][::-1])
    shift = m * (m + 1) // 2
    support = tuple(range(shift, shift + top + 1))
    return Pmf(support, counts, math.comb(m + n, n), m, n, "wilcoxon_rank_sum")


def _is_ranks(scores: np.ndarray) -> bool:
    """Whether the scores are the ranks 1..m+n (the counted null)."""
    return np.array_equal(scores, np.arange(1, scores.size + 1, dtype=float))


def _rank_sum_at(bars: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Linear rank statistic of each arrangement given by its reference
    positions (last axis): the total score minus the scores there.
    Observed statistics and both nulls sum in this one order, so a float
    statistic equals its null atom bit for bit."""
    return scores.sum() - scores[bars].sum(axis=-1)


def linear_rank_null(
    m: int,
    n: int,
    scores,
    method: str = "exact",
    *,
    n_draws: int = DEFAULT_DRAWS,
    seed=0,
):
    """Null reference for a linear rank statistic (sum of scores at the
    comparison-sample positions of the pooled arrangement).

    ``exact`` returns the statistic's distribution over all C(m+n, n)
    equally likely arrangements: the scores 1..m+n in any order go
    through the counting recursion at any size, other scores are
    enumerated under the cap.  ``monte_carlo`` returns the counted law
    of seeded draws; ``normal`` returns the moment pair
    E[T] = m * sum(a) / (m+n) and
    Var[T] = mn [(m+n) sum(a^2) - (sum a)^2] / [(m+n)^2 (m+n-1)].
    """
    _validate_sizes(m, n)
    a = np.asarray(scores, dtype=float).reshape(-1)
    if a.shape[0] != m + n:
        raise ValueError(f"need {m + n} scores, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValueError("scores must be finite")
    method = method.lower()

    if method == "exact" and _is_ranks(a):
        return _wilcoxon_rank_sum_pmf(m, n)
    if method == "exact" and _is_ranks(np.sort(a)):
        # a permutation of the ranks (Siegel-Tukey) has the rank-sum law
        law = _wilcoxon_rank_sum_pmf(m, n)
        return Pmf(tuple(map(float, law.support)), law.counts, law.total, m, n, "linear_rank")
    if method in ("exact", "monte_carlo"):
        return _arrangement_law(lambda b: _rank_sum_at(b, a), m, n, method, n_draws, seed,
                                "linear_rank")

    if method == "normal":
        total = float(a.sum())
        sumsq = float((a**2).sum())
        N = m + n
        mean = m * total / N
        variance = m * n * (N * sumsq - total**2) / (N**2 * (N - 1))
        # no spread in scores equal up to rounding (Klotz at N = 2); never below 0
        flat = np.ptp(a) <= 4 * np.finfo(float).eps * np.abs(a).max()
        variance = 0.0 if flat else max(variance, 0.0)
        return NormalNull(mean, variance, m, n, "linear_rank")

    raise ValueError(f"method must be exact, monte_carlo, or normal, got {method!r}")


def _dixon_rows(counts: np.ndarray, m: int, n: int) -> np.ndarray:
    """(m (n+1))^2 times the Dixon statistic of each frequency vector
    (last axis): sum_i (m - (n+1) R_i)^2, an integer.  Its largest
    value, m^2 n (n+1) (every point in one block), passes int64 near
    m = n = 55,000; from there the sum is taken in Python integers."""
    if m * m * n * (n + 1) > np.iinfo(np.int64).max:
        counts = counts.astype(object)
    return ((m - (n + 1) * counts) ** 2).sum(axis=-1)


def dixon_statistic(counts: Sequence[int], m: int, n: int) -> Fraction:
    """Sum of squared deviations of block shares from 1/(n+1), exactly:
    sum_i (1/(n+1) - R_i/m)^2 = sum_i (m - (n+1) R_i)^2 / (m (n+1))^2."""
    scaled = _dixon_rows(np.asarray(counts, dtype=object), m, n)  # Python ints: no overflow
    return Fraction(int(scaled), (m * (n + 1)) ** 2)


def dixon_c2_null(
    m: int,
    n: int,
    method: str = "exact",
    *,
    n_draws: int = DEFAULT_DRAWS,
    seed=0,
):
    """Null reference for the squared-deviation statistic over uniform
    frequency vectors: exact (enumeration under the cap) or the counted
    law of seeded uniformly random arrangements."""
    _validate_sizes(m, n)
    method = method.lower()
    scale = (m * (n + 1)) ** 2

    if method in ("exact", "monte_carlo"):
        return _arrangement_law(
            lambda b: _dixon_rows(_counts_from_bars(b, m + n), m, n),
            m, n, method, n_draws, seed, "dixon_c2", lambda s: Fraction(s, scale),
        )

    raise ValueError(f"method must be exact or monte_carlo, got {method!r}")
