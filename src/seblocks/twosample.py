"""Two-sample test statistics, p-values, and randomized decisions.

Every block-based statistic here is a function of the frequency vector
(R_1, ..., R_{n+1}) alone, so its null law is the corresponding exact
distribution from :mod:`seblocks.nulldist` for any continuous generating
distribution in any dimension.  Discrete statistics reach the nominal
level exactly through randomization at the critical atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtri

from .partition import BlockFrequencies, TieError, _as_points
from . import nulldist
from .nulldist import EmpiricalNull, Pmf

__all__ = [
    "ScoreFamily",
    "ScoreVector",
    "IndicatorVector",
    "TestResult",
    "RejectionRule",
    "RandomizedDecision",
    "make_scores",
    "expected_normal_order_scores",
    "build_indicator_vector",
    "frequencies_from_indicator",
    "mann_whitney_u",
    "linear_rank_test",
    "precedence_test",
    "maximal_block_test",
    "empty_block_test",
    "dixon_c2_test",
    "runs_statistic",
    "runs_test",
    "build_rejection_rule",
    "randomized_decision",
    "default_precedence_j",
    "default_maximal_block_j",
]


class ScoreFamily(Enum):
    WILCOXON = "wilcoxon"
    VAN_DER_WAERDEN = "van_der_waerden"
    TERRY_HOEFFDING = "terry_hoeffding"
    MOOD = "mood"
    KLOTZ = "klotz"
    SIEGEL_TUKEY = "siegel_tukey"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Scores a_1, ..., a_{m+n} applied to the pooled arrangement."""

    scores: np.ndarray
    family: ScoreFamily = ScoreFamily.CUSTOM

    def __post_init__(self):
        a = np.asarray(self.scores, dtype=float).reshape(-1)
        if a.size < 2:
            raise ValueError("need at least two scores")
        if not np.isfinite(a).all():
            raise ValueError("scores must be finite")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "scores", a)

    def __len__(self) -> int:
        return self.scores.size


# Terry-Hoeffding grid: outside [-10, 10] the order-statistic densities
# of samples up to about 10^6 are below 1e-16, and at most 64 rows of
# the integrand are held at once
_TH_HALF_WIDTH = 10.0
_TH_BLOCK_ROWS = 64


@lru_cache(maxsize=32)
def expected_normal_order_scores(size: int) -> tuple[float, ...]:
    """Expected values of the standard normal order statistics of a
    sample of ``size`` (Terry-Hoeffding scores).

    The i-th score is the integral of x times the density of the i-th
    order statistic, exp(c_i + (i-1) log Phi(x) + (size-i) log Phi(-x)
    + log phi(x)), computed in log space by one trapezoid rule over a
    fixed grid on [-10, 10] (cf. Royston 1982, AS 177).  The integrand
    is smooth and decays fast, so the trapezoid rule converges
    geometrically once the step resolves the narrowest density, whose
    width shrinks like 1/sqrt(size); the step is therefore
    min(0.01, 1/sqrt(size)).  The scores agree with adaptive quadrature
    (the test suite's oracle) to 1e-10 for sizes up to 200, and with a
    30-digit reference to 2e-11 at size 2*10^4 and 4e-10 at size 10^5.
    At large sizes the error is a relative 1e-10 or less, set by the
    rounding of the gammaln terms (each near size * log(size)) in c_i.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    steps = math.ceil(2 * _TH_HALF_WIDTH / min(0.01, 1 / math.sqrt(size)))
    x = np.linspace(-_TH_HALF_WIDTH, _TH_HALF_WIDTH, steps + 1)
    weights = np.full(x.size, 2 * _TH_HALF_WIDTH / steps)
    weights[[0, -1]] /= 2
    weighted_x = weights * x
    log_cdf = log_ndtr(x)
    log_sf = log_ndtr(-x)
    log_pdf = -0.5 * x * x - 0.5 * math.log(2 * math.pi)
    half = np.empty(size // 2)
    for start in range(0, half.size, _TH_BLOCK_ROWS):
        i = np.arange(start + 1, min(start + _TH_BLOCK_ROWS, half.size) + 1, dtype=float)[:, None]
        c = gammaln(size + 1) - gammaln(i) - gammaln(size - i + 1)
        log_density = c + (i - 1) * log_cdf + (size - i) * log_sf + log_pdf
        half[start : start + i.shape[0]] = np.exp(log_density) @ weighted_x
    # antisymmetry pins the upper half and zeroes the middle score
    return tuple(np.concatenate([half, np.zeros(size % 2), -half[::-1]]).tolist())


def _siegel_tukey_scores(size: int) -> np.ndarray:
    """Alternating extreme-rank relabeling: 1 to the lowest value, 2 and
    3 to the two highest, 4 and 5 to the next two lowest, and so on."""
    scores = np.zeros(size)
    lo, hi = 0, size - 1
    rank = 1
    scores[lo] = rank
    rank += 1
    lo += 1
    from_top = True
    while lo <= hi:
        if from_top:
            scores[hi] = rank
            rank += 1
            hi -= 1
            if lo <= hi:
                scores[hi] = rank
                rank += 1
                hi -= 1
        else:
            scores[lo] = rank
            rank += 1
            lo += 1
            if lo <= hi:
                scores[lo] = rank
                rank += 1
                lo += 1
        from_top = not from_top
    return scores


def make_scores(family: ScoreFamily | str, m: int, n: int) -> ScoreVector:
    """Standard score vectors of length m + n for the named family."""
    if isinstance(family, str):
        family = ScoreFamily(family.lower())
    size = m + n
    if size < 2:
        raise ValueError("need m + n >= 2")
    ranks = np.arange(1, size + 1, dtype=float)
    if family is ScoreFamily.WILCOXON:
        a = ranks
    elif family is ScoreFamily.VAN_DER_WAERDEN:
        a = ndtri(ranks / (size + 1))
    elif family is ScoreFamily.TERRY_HOEFFDING:
        a = np.array(expected_normal_order_scores(size))
    elif family is ScoreFamily.MOOD:
        a = (ranks - (size + 1) / 2) ** 2
    elif family is ScoreFamily.KLOTZ:
        a = ndtri(ranks / (size + 1)) ** 2
    elif family is ScoreFamily.SIEGEL_TUKEY:
        a = _siegel_tukey_scores(size)
    else:
        raise ValueError(f"no default scores for family {family!r}")
    return ScoreVector(a, family)


@dataclass(frozen=True, eq=False)
class IndicatorVector:
    """Binary membership vector of the pooled arrangement: 1 marks a
    comparison-sample position, 0 a reference-sample position."""

    z: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.int8)
        if z.ndim != 1 or z.size != self.m + self.n:
            raise ValueError(f"indicator vector must have length {self.m + self.n}")
        if int((z == 1).sum()) != self.m or int((z == 0).sum()) != self.n:
            raise ValueError(f"need exactly {self.m} ones and {self.n} zeros")
        z = z.copy()
        z.flags.writeable = False
        object.__setattr__(self, "z", z)


def _zero_positions(counts: Sequence[int]) -> np.ndarray:
    """0-based positions of the reference points in the pooled
    arrangement: cumulative count through block k, plus k - 1."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size - 1
    return np.cumsum(counts[:n]) + np.arange(n)


def build_indicator_vector(freqs: BlockFrequencies) -> IndicatorVector:
    """Reconstruct the pooled arrangement from block frequencies: the
    j-th reference point sits right after the comparison points of the
    first j blocks."""
    z = np.ones(freqs.m + freqs.n, dtype=np.int8)
    if freqs.n:
        z[_zero_positions(freqs.counts)] = 0
    return IndicatorVector(z, freqs.m, freqs.n)


def frequencies_from_indicator(z) -> BlockFrequencies:
    """Invert ``build_indicator_vector``: gaps between the zeros are the
    block frequencies."""
    arr = z.z if isinstance(z, IndicatorVector) else np.asarray(z, dtype=np.int8)
    if arr.ndim != 1 or not np.isin(arr, (0, 1)).all():
        raise ValueError("indicator vector must be a flat 0/1 array")
    zero_pos = np.flatnonzero(arr == 0)
    n = zero_pos.size
    m = arr.size - n
    edges = np.concatenate([[-1], zero_pos, [arr.size]])
    counts = np.diff(edges) - 1
    return BlockFrequencies(tuple(int(c) for c in counts), m, n)


@dataclass
class TestResult:
    """Outcome of one test: statistic, null reference, and p-values.

    ``p_two_sided`` doubles the smaller inclusive tail (capped at 1);
    the observed value is included in both of its tails, which keeps the
    exact p-values super-uniform under the null.
    """

    statistic: object
    statistic_name: str
    null_reference: object
    p_lower: float
    p_upper: float
    p_two_sided: float
    alternative: str
    method: str
    metadata: dict = field(default_factory=dict)
    randomization_gamma: float | None = None

    @property
    def p_value(self) -> float:
        if self.alternative == "lower":
            return self.p_lower
        if self.alternative == "upper":
            return self.p_upper
        return self.p_two_sided

    def to_json_dict(self) -> dict:
        stat = self.statistic
        out = {
            "statistic": int(stat) if isinstance(stat, (int, np.integer)) else float(stat),
            "statistic_name": self.statistic_name,
            "p_lower": self.p_lower,
            "p_upper": self.p_upper,
            "p_two_sided": self.p_two_sided,
            "p_value": self.p_value,
            "alternative": self.alternative,
            "method": self.method,
        }
        if self.randomization_gamma is not None:
            out["gamma"] = self.randomization_gamma
        out.update(self.metadata)
        return out


_ALTERNATIVES = ("lower", "upper", "two-sided")


def _check_alternative(alternative: str) -> str:
    alt = alternative.lower().replace("_", "-")
    if alt == "two.sided":
        alt = "two-sided"
    if alt not in _ALTERNATIVES:
        raise ValueError(f"alternative must be one of {_ALTERNATIVES}, got {alternative!r}")
    return alt


def _result(statistic, name, null, alternative, method, metadata) -> TestResult:
    lo = null.p_lower(statistic)
    hi = null.p_upper(statistic)
    two = min(1.0, 2.0 * min(lo, hi))
    return TestResult(statistic, name, null, lo, hi, two, alternative, method, metadata)


def mann_whitney_u(freqs: BlockFrequencies) -> int:
    """Placement-sum statistic from block frequencies:
    U = sum over blocks of (block index - 1) * count."""
    return int(sum(i * r for i, r in enumerate(freqs.counts)))


def linear_rank_test(
    freqs: BlockFrequencies,
    scores: ScoreVector | Sequence[float],
    alternative: str = "two-sided",
    method: str = "exact",
    *,
    n_draws: int = 200_000,
    seed=0,
    cap: int | None = None,
) -> TestResult:
    """Linear rank test T = sum of scores at comparison positions of the
    arrangement rebuilt from block frequencies.

    With rank scores 1..(m+n) the statistic is the rank sum, which also
    equals m(m+1)/2 plus the placement sum ``mann_whitney_u``.
    """
    alternative = _check_alternative(alternative)
    sv = scores if isinstance(scores, ScoreVector) else ScoreVector(np.asarray(scores))
    a = sv.scores
    m, n = freqs.m, freqs.n
    if a.size != m + n:
        raise ValueError(f"need {m + n} scores, got {a.size}")
    stat = float(a.sum() - a[_zero_positions(freqs.counts)].sum()) if n else float(a.sum())
    null = nulldist.linear_rank_null(
        m, n, a, method, n_draws=n_draws, seed=seed, cap=cap
    )
    if sv.family is ScoreFamily.WILCOXON:
        stat = int(round(stat))
    name = f"linear_rank[{sv.family.value}]"
    meta = {"m": m, "n": n, "scores": sv.family.value}
    return _result(stat, name, null, alternative, method, meta)


def default_precedence_j(n: int) -> int:
    """Rule-of-thumb block count: about half the blocks, rounded down."""
    return max(1, (n + 1) // 2)


def default_maximal_block_j(n: int) -> int:
    """Without censoring, use every block."""
    return n + 1


def precedence_test(
    freqs: BlockFrequencies,
    j: int | None = None,
    alternative: str = "two-sided",
) -> TestResult:
    """Count of comparison points in the first j blocks, against its
    exact negative hypergeometric null."""
    alternative = _check_alternative(alternative)
    m, n = freqs.m, freqs.n
    if j is None:
        j = default_precedence_j(n)
    if not 1 <= j <= n:
        raise ValueError(f"j must be in [1, {n}], got {j}")
    stat = int(sum(freqs.counts[:j]))
    null = nulldist.precedence_pmf(m, n, j)
    meta = {"m": m, "n": n, "j": j}
    return _result(stat, f"precedence(j={j})", null, alternative, "exact", meta)


def maximal_block_test(
    freqs: BlockFrequencies,
    j: int | None = None,
    alternative: str = "upper",
) -> TestResult:
    """Largest count among the first j blocks (all blocks by default);
    concentration shows up as a large maximum, so the upper tail is the
    natural rejection region."""
    alternative = _check_alternative(alternative)
    m, n = freqs.m, freqs.n
    if j is None:
        j = default_maximal_block_j(n)
    if not 1 <= j <= n + 1:
        raise ValueError(f"j must be in [1, {n + 1}], got {j}")
    stat = int(max(freqs.counts[:j]))
    null = nulldist.maximal_block_pmf(m, n, j)
    meta = {"m": m, "n": n, "j": j}
    return _result(stat, f"maximal_block(j={j})", null, alternative, "exact", meta)


def empty_block_test(freqs: BlockFrequencies, alternative: str = "upper") -> TestResult:
    """Number of empty blocks; identical populations rarely leave many
    blocks empty, so large values reject."""
    alternative = _check_alternative(alternative)
    stat = int(sum(1 for c in freqs.counts if c == 0))
    null = nulldist.empty_block_pmf(freqs.m, freqs.n)
    meta = {"m": freqs.m, "n": freqs.n}
    return _result(stat, "empty_block", null, alternative, "exact", meta)


def dixon_c2_test(
    freqs: BlockFrequencies,
    method: str = "exact",
    alternative: str = "upper",
    *,
    n_draws: int = 200_000,
    seed=0,
    cap: int | None = None,
) -> TestResult:
    """Sum of squared deviations of block shares from 1/(n+1); heavy
    concentration in a few blocks inflates it."""
    alternative = _check_alternative(alternative)
    m, n = freqs.m, freqs.n
    exact_stat = nulldist.dixon_statistic(freqs.counts, m, n)
    null = nulldist.dixon_c2_null(m, n, method, n_draws=n_draws, seed=seed, cap=cap)
    # the Monte Carlo null holds floats; mirror its arithmetic exactly
    stat = exact_stat if isinstance(null, Pmf) else exact_stat.numerator / exact_stat.denominator
    meta = {"m": m, "n": n}
    return _result(stat, "dixon_c2", null, alternative, method, meta)


def runs_statistic(x, y) -> int:
    """Number of maximal same-sample runs in the sorted pooled sample.

    Univariate only; a value shared by both samples has no unambiguous
    ordering, so cross-sample ties raise.
    """
    xp = _as_points(x)
    yp = _as_points(y)
    if xp.shape[1] != 1 or yp.shape[1] != 1:
        raise ValueError("runs test is univariate only")
    xv = xp.reshape(-1)
    yv = yp.reshape(-1)
    if np.intersect1d(xv, yv).size:
        raise TieError("cross-sample tied values; the runs count is undefined")
    pooled = np.concatenate([xv, yv])
    labels = np.concatenate([np.ones(xv.size, dtype=np.int8), np.zeros(yv.size, dtype=np.int8)])
    order = np.argsort(pooled, kind="stable")
    lab = labels[order]
    return int(1 + (lab[1:] != lab[:-1]).sum())


def runs_test(x, y, alternative: str = "lower") -> TestResult:
    """Classical univariate runs test; few runs mean poorly mixed
    samples, so the lower tail rejects."""
    alternative = _check_alternative(alternative)
    stat = runs_statistic(x, y)
    xv = _as_points(x)
    yv = _as_points(y)
    m, n = xv.shape[0], yv.shape[0]
    null = nulldist.runs_pmf(m, n)
    meta = {"m": m, "n": n}
    return _result(stat, "runs", null, alternative, "exact", meta)


# --- randomized decisions -------------------------------------------------


@dataclass(frozen=True)
class RejectionRule:
    """A size-exact randomized rejection region for a discrete null.

    Values beyond the critical atoms reject outright; a statistic equal
    to a critical atom rejects with that atom's gamma.  Two-sided rules
    split the level evenly between the tails.
    """

    alternative: str
    alpha: Fraction
    lower_critical: object = None
    lower_gamma: Fraction = Fraction(0)
    upper_critical: object = None
    upper_gamma: Fraction = Fraction(0)

    def gamma_at(self, statistic) -> Fraction:
        g = Fraction(0)
        if self.lower_critical is not None and statistic == self.lower_critical:
            g += self.lower_gamma
        if self.upper_critical is not None and statistic == self.upper_critical:
            g += self.upper_gamma
        return g

    def decide(self, statistic, uniform: float) -> bool:
        if self.lower_critical is not None and statistic < self.lower_critical:
            return True
        if self.upper_critical is not None and statistic > self.upper_critical:
            return True
        g = self.gamma_at(statistic)
        return g > 0 and uniform < float(g)

    def size(self, pmf: Pmf) -> Fraction:
        """Exact rejection probability under ``pmf``; equals alpha when
        the rule was built from that pmf."""
        total = Fraction(0)
        for v, pr in zip(pmf.support, pmf.probs):
            if self.lower_critical is not None and v < self.lower_critical:
                total += pr
            elif self.upper_critical is not None and v > self.upper_critical:
                total += pr
            else:
                total += self.gamma_at(v) * pr
        return total


def _tail_critical(pmf: Pmf, alpha: Fraction, tail: str):
    """Critical atom and gamma so that the strict tail plus the
    randomized atom carries exactly ``alpha``."""
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


def build_rejection_rule(pmf: Pmf, alpha: float, alternative: str) -> RejectionRule:
    """Construct the randomized rule of exact size ``alpha`` for the
    given discrete null."""
    alternative = _check_alternative(alternative)
    a = Fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if alternative == "lower":
        crit, gamma = _tail_critical(pmf, a, "lower")
        return RejectionRule(alternative, a, lower_critical=crit, lower_gamma=gamma)
    if alternative == "upper":
        crit, gamma = _tail_critical(pmf, a, "upper")
        return RejectionRule(alternative, a, upper_critical=crit, upper_gamma=gamma)
    lo_crit, lo_gamma = _tail_critical(pmf, a / 2, "lower")
    up_crit, up_gamma = _tail_critical(pmf, a / 2, "upper")
    return RejectionRule(
        alternative,
        a,
        lower_critical=lo_crit,
        lower_gamma=lo_gamma,
        upper_critical=up_crit,
        upper_gamma=up_gamma,
    )


@dataclass(frozen=True)
class RandomizedDecision:
    reject: bool
    gamma: float
    alpha: float
    uniform: float
    rule: RejectionRule


def _discrete_null(null) -> Pmf:
    if isinstance(null, Pmf):
        return null
    if isinstance(null, EmpiricalNull):
        return null.to_pmf()
    raise ValueError(
        "randomized decisions need a discrete null reference; "
        f"got {type(null).__name__}"
    )


def randomized_decision(result: TestResult, alpha: float, seed=None) -> RandomizedDecision:
    """Accept or reject at exact level ``alpha``.

    The statistic rejects outright beyond the critical atom and with
    probability gamma on it, so the rejection probability under the null
    is exactly ``alpha`` rather than the nearest achievable tail.
    """
    pmf = _discrete_null(result.null_reference)
    rule = build_rejection_rule(pmf, alpha, result.alternative)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u = float(rng.random())
    reject = rule.decide(result.statistic, u)
    gamma = float(rule.gamma_at(result.statistic))
    result.randomization_gamma = gamma
    return RandomizedDecision(reject, gamma, float(alpha), u, rule)
