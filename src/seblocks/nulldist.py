"""Exact null distributions of block-frequency statistics.

Under identical continuous populations every vector of block frequencies
(r_1, ..., r_{n+1}) with nonnegative entries summing to m is equally
likely, with probability 1 / C(m+n, n).  Every distribution here follows
from that single fact, and each closed form has a brute-force witness in
``enumerate_frequency_vectors``.

Probabilities are held as exact ``fractions.Fraction`` values over
arbitrary-precision integers and rendered to floats only on request.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import ndtr

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
ENUM_CAP_ENV = "SEBLOCKS_ENUM_CAP"


class CapacityError(ValueError):
    """Exact enumeration would exceed the configured cap."""


def enumeration_cap(cap: int | None = None) -> int:
    """Resolve the enumeration cap: explicit argument, then the
    SEBLOCKS_ENUM_CAP environment variable, then the default."""
    if cap is not None:
        return int(cap)
    env = os.environ.get(ENUM_CAP_ENV)
    return int(env) if env else DEFAULT_ENUM_CAP


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
class Pmf:
    """A discrete distribution with exact rational probabilities.

    Support values are ascending and may be ints, Fractions, or floats
    depending on the statistic.
    """

    support: tuple
    probs: tuple[Fraction, ...]
    m: int
    n: int
    statistic: str

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise ValueError("support and probabilities must align")
        if any(p < 0 or p > 1 for p in self.probs):
            raise ValueError("probabilities must lie in [0, 1]")
        total = sum(self.probs, Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected exactly 1")
        if any(self.support[i] >= self.support[i + 1] for i in range(len(self.support) - 1)):
            raise ValueError("support must be strictly ascending")

    def p(self, value) -> Fraction:
        """Exact point mass at ``value`` (0 if not in the support)."""
        for v, pr in zip(self.support, self.probs):
            if v == value:
                return pr
        return Fraction(0)

    def cdf(self, value) -> Fraction:
        """Exact P(T <= value)."""
        return sum((pr for v, pr in zip(self.support, self.probs) if v <= value), Fraction(0))

    def sf(self, value) -> Fraction:
        """Exact P(T >= value)."""
        return sum((pr for v, pr in zip(self.support, self.probs) if v >= value), Fraction(0))

    def p_lower(self, value) -> float:
        return float(self.cdf(value))

    def p_upper(self, value) -> float:
        return float(self.sf(value))

    def probabilities_float(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs])

    def mean(self) -> float:
        return float(sum(Fraction(v) * p for v, p in zip(self.support, self.probs)))

    def csv_rows(self):
        """Rows (value, numerator, denominator, probability) for export."""
        for v, pr in zip(self.support, self.probs):
            yield v, pr.numerator, pr.denominator, float(pr)


@dataclass(frozen=True)
class JointPmf:
    """A joint distribution over integer pairs with exact probabilities."""

    atoms: tuple[tuple[tuple[int, int], Fraction], ...]
    m: int
    n: int
    statistic: str

    def __post_init__(self):
        total = sum((pr for _, pr in self.atoms), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected exactly 1")

    def p(self, pair) -> Fraction:
        key = tuple(pair)
        for atom, pr in self.atoms:
            if atom == key:
                return pr
        return Fraction(0)

    def csv_rows(self):
        for (a, b), pr in self.atoms:
            yield a, b, pr.numerator, pr.denominator, float(pr)


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


@dataclass(frozen=True, eq=False)
class EmpiricalNull:
    """A seeded Monte Carlo stand-in for an exact null distribution."""

    values: np.ndarray  # sorted
    m: int
    n: int
    statistic: str
    seed: object
    n_draws: int

    def p_lower(self, t) -> float:
        return float(np.searchsorted(self.values, t, side="right")) / self.n_draws

    def p_upper(self, t) -> float:
        return 1.0 - float(np.searchsorted(self.values, t, side="left")) / self.n_draws

    def to_pmf(self) -> Pmf:
        """Collapse the draws to an exact pmf of the empirical law."""
        uniq, counts = np.unique(self.values, return_counts=True)
        probs = tuple(Fraction(int(c), self.n_draws) for c in counts)
        return Pmf(tuple(uniq.tolist()), probs, self.m, self.n, self.statistic + "(mc)")


@dataclass(frozen=True)
class NormalNull:
    """Normal approximation (mean, variance) to a linear rank null."""

    mean: float
    variance: float
    m: int
    n: int
    statistic: str

    def _z(self, t) -> float:
        return (t - self.mean) / math.sqrt(self.variance)

    def p_lower(self, t) -> float:
        if self.variance == 0:
            return 1.0 if t >= self.mean else 0.0
        return float(ndtr(self._z(t)))

    def p_upper(self, t) -> float:
        if self.variance == 0:
            return 1.0 if t <= self.mean else 0.0
        return float(ndtr(-self._z(t)))


def enumerate_frequency_vectors(m: int, n: int, cap: int | None = None) -> FrequencyEnumeration:
    """List every frequency vector in lexicographic order.

    The i-th gap between successive bar positions in a stars-and-bars
    layout of m stars and n bars gives r_i.
    """
    _validate_sizes(m, n)
    total = math.comb(m + n, n)
    limit = enumeration_cap(cap)
    if total > limit:
        raise CapacityError(
            f"C({m + n}, {n}) = {total} vectors exceeds the enumeration cap {limit}; "
            "raise the cap or use a Monte Carlo method"
        )
    vectors = []
    for bars in itertools.combinations(range(m + n), n):
        prev = -1
        vec = []
        for b in bars:
            vec.append(b - prev - 1)
            prev = b
        vec.append(m + n - 1 - prev)
        vectors.append(tuple(vec))
    return FrequencyEnumeration(m, n, tuple(vectors))


def precedence_pmf(m: int, n: int, j: int) -> Pmf:
    """Distribution of the count of comparison points in the first j
    blocks: P(T = t) = C(t+j-1, t) C(m-t+n-j, m-t) / C(m+n, n), the
    negative hypergeometric law."""
    _validate_sizes(m, n)
    if not 1 <= j <= n:
        raise ValueError(f"j must be in [1, {n}], got {j}")
    denom = math.comb(m + n, n)
    support = tuple(range(m + 1))
    probs = tuple(
        Fraction(_choose(t + j - 1, t) * _choose(m - t + n - j, m - t), denom)
        for t in support
    )
    return Pmf(support, probs, m, n, f"precedence(j={j})")


def empty_block_pmf(m: int, n: int) -> Pmf:
    """Distribution of the number of empty blocks:
    P(S0 = s) = C(n+1, s) C(m-1, n-s) / C(m+n, n)."""
    _validate_sizes(m, n)
    denom = math.comb(m + n, n)
    support = tuple(range(max(0, n + 1 - m), n + 1))
    probs = tuple(
        Fraction(_choose(n + 1, s) * _choose(m - 1, n - s), denom) for s in support
    )
    return Pmf(support, probs, m, n, "empty_block")


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
    denom = math.comb(m + n, n)

    def cum(r: int) -> Fraction:
        if r < 0:
            return Fraction(0)
        if j == n + 1:
            return Fraction(_bounded_compositions(j, m, r), denom)
        num = sum(
            _bounded_compositions(j, s, r) * _choose(m + n - s - j, n - j)
            for s in range(0, min(m, j * r) + 1)
        )
        return Fraction(num, denom)

    support = []
    probs = []
    prev = Fraction(0)
    for r in range(0, m + 1):
        cur = cum(r)
        mass = cur - prev
        prev = cur
        if mass != 0:
            support.append(r)
            probs.append(mass)
    return Pmf(tuple(support), tuple(probs), m, n, f"maximal_block(j={j})")


def runs_pmf(m: int, n: int) -> Pmf:
    """Distribution of the number of runs in the sorted pooled sample."""
    _validate_sizes(m, n)
    denom = math.comb(m + n, n)
    hi = min(2 * n + 1, 2 * m + 1, m + n)
    support = []
    probs = []
    for u in range(2, hi + 1):
        if u % 2 == 0:
            half = u // 2
            num = 2 * _choose(m - 1, half - 1) * _choose(n - 1, half - 1)
        else:
            num = _choose(m - 1, (u - 1) // 2) * _choose(n - 1, (u - 3) // 2) + _choose(
                m - 1, (u - 3) // 2
            ) * _choose(n - 1, (u - 1) // 2)
        if num:
            support.append(u)
            probs.append(Fraction(num, denom))
    return Pmf(tuple(support), tuple(probs), m, n, "runs")


def interior_exterior_empty_pmf(m: int, n: int) -> JointPmf:
    """Joint distribution of empty interior and empty exterior blocks.

    The two unbounded univariate blocks are exterior; the n - 1 bounded
    ones are interior.  P = C(2, e) C(n-1, i) C(m-1, n-i-e) / C(m+n, n).
    """
    _validate_sizes(m, n)
    if n < 2:
        raise ValueError(f"interior blocks require n >= 2, got n={n}")
    denom = math.comb(m + n, n)
    atoms = []
    for i in range(0, n):
        for e in range(0, 3):
            if not max(0, n + 1 - m) <= i + e <= n:
                continue
            num = _choose(2, e) * _choose(n - 1, i) * _choose(m - 1, n - i - e)
            if num:
                atoms.append(((i, e), Fraction(num, denom)))
    return JointPmf(tuple(atoms), m, n, "interior_exterior_empty")


@lru_cache(maxsize=64)
def _wilcoxon_rank_sum_pmf(m: int, n: int) -> Pmf:
    """Exact rank-sum distribution over all C(m+n, n) arrangements.

    Counts of arrangements with shifted sum u come from the coefficient
    array of the Gaussian binomial, built in O(m * mn) exact integer
    operations, so no arrangement enumeration is needed at any size.
    """
    top = m * n
    coeff = [0] * (top + 1)
    coeff[0] = 1
    for i in range(1, m + 1):
        step = n + i
        for s in range(top, step - 1, -1):
            coeff[s] -= coeff[s - step]
        for s in range(i, top + 1):
            coeff[s] += coeff[s - i]
    denom = math.comb(m + n, n)
    shift = m * (m + 1) // 2
    support = tuple(range(shift, shift + top + 1))
    probs = tuple(Fraction(c, denom) for c in coeff)
    return Pmf(support, probs, m, n, "wilcoxon_rank_sum")


def _mc_arrangement_stats(
    scores: np.ndarray, m: int, n: int, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Statistics of seeded random arrangements: total score minus the
    scores at the n reference positions of each draw."""
    total = scores.sum()
    out = np.empty(n_draws)
    chunk = max(1, min(n_draws, 4_000_000 // (m + n)))
    done = 0
    while done < n_draws:
        size = min(chunk, n_draws - done)
        keys = rng.random((size, m + n))
        # sorted so the per-draw summation order matches the observed
        # statistic's, keeping atom equality exact
        zero_pos = np.sort(np.argpartition(keys, n - 1, axis=1)[:, :n], axis=1)
        out[done : done + size] = total - scores[zero_pos].sum(axis=1)
        done += size
    return out


def linear_rank_null(
    m: int,
    n: int,
    scores,
    method: str = "exact",
    *,
    n_draws: int = 200_000,
    seed=0,
    cap: int | None = None,
):
    """Null reference for a linear rank statistic (sum of scores at the
    comparison-sample positions of the pooled arrangement).

    ``exact`` returns the statistic's distribution over all C(m+n, n)
    equally likely arrangements: consecutive-integer scores go through
    the counting recursion at any size, other scores are enumerated
    under the cap.  ``monte_carlo`` returns a seeded empirical sample;
    ``normal`` returns the moment pair E[T] = m * sum(a) / (m+n) and
    Var[T] = mn [(m+n) sum(a^2) - (sum a)^2] / [(m+n)^2 (m+n-1)].
    """
    _validate_sizes(m, n)
    a = np.asarray(scores, dtype=float).reshape(-1)
    if a.shape[0] != m + n:
        raise ValueError(f"need {m + n} scores, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValueError("scores must be finite")
    method = method.lower()

    if method == "exact":
        if np.array_equal(a, np.arange(1, m + n + 1, dtype=float)):
            return _wilcoxon_rank_sum_pmf(m, n)
        total_arr = math.comb(m + n, n)
        limit = enumeration_cap(cap)
        if total_arr > limit:
            raise CapacityError(
                f"exact null needs C({m + n}, {n}) = {total_arr} arrangements, over the "
                f"cap {limit}; use method='monte_carlo'"
            )
        total = a.sum()
        tally: dict[float, int] = {}
        for zero_pos in itertools.combinations(range(m + n), n):
            t = float(total - a[list(zero_pos)].sum())
            tally[t] = tally.get(t, 0) + 1
        support = tuple(sorted(tally))
        probs = tuple(Fraction(tally[v], total_arr) for v in support)
        return Pmf(support, probs, m, n, "linear_rank")

    if method == "monte_carlo":
        if n_draws < 1:
            raise ValueError(f"n_draws must be >= 1, got {n_draws}")
        rng = np.random.default_rng(seed)
        values = np.sort(_mc_arrangement_stats(a, m, n, n_draws, rng))
        values.flags.writeable = False
        return EmpiricalNull(values, m, n, "linear_rank", seed, n_draws)

    if method == "normal":
        total = float(a.sum())
        sumsq = float((a**2).sum())
        N = m + n
        mean = m * total / N
        variance = m * n * (N * sumsq - total**2) / (N**2 * (N - 1))
        return NormalNull(mean, variance, m, n, "linear_rank")

    raise ValueError(f"method must be exact, monte_carlo, or normal, got {method!r}")


def dixon_statistic(counts: Sequence[int], m: int, n: int) -> Fraction:
    """Sum of squared deviations of block shares from 1/(n+1), exactly:
    sum_i (1/(n+1) - R_i/m)^2 = sum_i (m - (n+1) R_i)^2 / (m (n+1))^2."""
    scaled = sum((m - (n + 1) * int(r)) ** 2 for r in counts)
    return Fraction(scaled, (m * (n + 1)) ** 2)


def dixon_c2_null(
    m: int,
    n: int,
    method: str = "exact",
    *,
    n_draws: int = 200_000,
    seed=0,
    cap: int | None = None,
):
    """Null reference for the squared-deviation statistic over uniform
    frequency vectors: exact (enumeration under the cap) or a seeded
    Monte Carlo sample of uniformly random arrangements."""
    _validate_sizes(m, n)
    method = method.lower()
    scale = (m * (n + 1)) ** 2

    if method == "exact":
        try:
            enum = enumerate_frequency_vectors(m, n, cap)
        except CapacityError as exc:
            raise CapacityError(f"{exc}; use method='monte_carlo'") from None
        tally: dict[int, int] = {}
        for vec in enum.vectors:
            scaled = sum((m - (n + 1) * r) ** 2 for r in vec)
            tally[scaled] = tally.get(scaled, 0) + 1
        denom = enum.count
        support = tuple(Fraction(s, scale) for s in sorted(tally))
        probs = tuple(Fraction(tally[s], denom) for s in sorted(tally))
        return Pmf(support, probs, m, n, "dixon_c2")

    if method == "monte_carlo":
        if n_draws < 1:
            raise ValueError(f"n_draws must be >= 1, got {n_draws}")
        rng = np.random.default_rng(seed)
        values = np.empty(n_draws)
        chunk = max(1, min(n_draws, 4_000_000 // (m + n)))
        done = 0
        while done < n_draws:
            size = min(chunk, n_draws - done)
            keys = rng.random((size, m + n))
            # positions of the n smallest keys are a uniform n-subset:
            # the reference positions of a random arrangement
            bars = np.sort(np.argpartition(keys, n - 1, axis=1)[:, :n], axis=1)
            edges = np.concatenate(
                [
                    np.full((size, 1), -1, dtype=bars.dtype),
                    bars,
                    np.full((size, 1), m + n, dtype=bars.dtype),
                ],
                axis=1,
            )
            counts = np.diff(edges, axis=1) - 1
            scaled = ((m - (n + 1) * counts) ** 2).sum(axis=1)
            values[done : done + size] = scaled / scale
            done += size
        values = np.sort(values)
        values.flags.writeable = False
        return EmpiricalNull(values, m, n, "dixon_c2", seed, n_draws)

    raise ValueError(f"method must be exact or monte_carlo, got {method!r}")
