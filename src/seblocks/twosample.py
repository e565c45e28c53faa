"""Two-sample test statistics, p-values, and randomized decisions.

Every block-based statistic is a function of the frequency vector
(R_1, ..., R_{n+1}) alone, so its null law is the corresponding exact
distribution from :mod:`seblocks.nulldist` for any continuous generating
distribution in any dimension.  ``STATISTICS`` holds each statistic
once, with its null, default alternative and parameters; the test
functions, the CLI and the power harness read it.  Discrete statistics
reach the nominal level exactly through randomization at the critical
atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .partition import BlockFrequencies, TieError
from . import nulldist, partition
from .nulldist import Pmf

__all__ = [
    "ScoreFamily",
    "ScoreVector",
    "IndicatorVector",
    "BlockStatistic",
    "STATISTICS",
    "SCORE_TESTS",
    "KNOWN_TESTS",
    "TestResult",
    "RejectionRule",
    "RandomizedDecision",
    "make_scores",
    "expected_normal_order_scores",
    "build_indicator_vector",
    "frequencies_from_indicator",
    "mann_whitney_u",
    "canonical_test",
    "statistic_entry",
    "resolve_statistic",
    "null_method",
    "block_test",
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
    from scipy.special import gammaln, log_ndtr

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
    # one block and one term buffer serve every block of rows, so the
    # grid's temporaries do not grow the heap
    block = np.empty((min(_TH_BLOCK_ROWS, half.size), x.size))
    term = np.empty_like(block)
    for start in range(0, half.size, _TH_BLOCK_ROWS):
        i = np.arange(start + 1, min(start + _TH_BLOCK_ROWS, half.size) + 1, dtype=float)[:, None]
        c = gammaln(size + 1) - gammaln(i) - gammaln(size - i + 1)
        # c + (i-1) log_cdf + (size-i) log_sf + log_pdf, added in that order
        density, extra = block[: i.shape[0]], term[: i.shape[0]]
        np.multiply(i - 1, log_cdf, out=density)
        np.add(c, density, out=density)
        density += np.multiply(size - i, log_sf, out=extra)
        density += log_pdf
        half[start : start + i.shape[0]] = np.exp(density, out=density) @ weighted_x
    # antisymmetry pins the upper half and zeroes the middle score
    return tuple(np.concatenate([half, np.zeros(size % 2), -half[::-1]]).tolist())


def _siegel_tukey_scores(size: int) -> np.ndarray:
    """Alternating extreme-rank relabeling: 1 to the lowest value, 2 and
    3 to the two highest, 4 and 5 to the next two lowest, and so on.

    So the k-th rank handed out (from 0) goes to the low end when k % 4
    is 0 or 3 and to the high end otherwise; the low end fills from the
    bottom and the high end from the top."""
    k = np.arange(size)
    low = np.isin(k % 4, (0, 3))
    return np.concatenate([k[low], k[~low][::-1]]) + 1.0


def make_scores(family: ScoreFamily | str, m: int, n: int) -> ScoreVector:
    """Standard score vectors of length m + n for the named family."""
    if isinstance(family, str):
        try:
            family = ScoreFamily(family.lower())
        except ValueError:
            known = " ".join(f.value for f in ScoreFamily if f is not ScoreFamily.CUSTOM)
            raise ValueError(f"unknown score family {family!r}; known: {known}") from None
    size = m + n
    if size < 2:
        raise ValueError("need m + n >= 2")
    ranks = np.arange(1, size + 1, dtype=float)
    if family is ScoreFamily.WILCOXON:
        a = ranks
    elif family in (ScoreFamily.VAN_DER_WAERDEN, ScoreFamily.KLOTZ):
        from scipy.special import ndtri

        a = ndtri(ranks / (size + 1))
        a = a**2 if family is ScoreFamily.KLOTZ else a
    elif family is ScoreFamily.TERRY_HOEFFDING:
        a = np.array(expected_normal_order_scores(size))
    elif family is ScoreFamily.MOOD:
        a = (ranks - (size + 1) / 2) ** 2
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


def build_indicator_vector(freqs: BlockFrequencies) -> IndicatorVector:
    """Reconstruct the pooled arrangement from block frequencies: the
    j-th reference point sits right after the comparison points of the
    first j blocks."""
    z = np.ones(freqs.m + freqs.n, dtype=np.int8)
    if freqs.n:
        z[nulldist._reference_positions(np.asarray(freqs.counts))] = 0
    return IndicatorVector(z, freqs.m, freqs.n)


def frequencies_from_indicator(z) -> BlockFrequencies:
    """Invert ``build_indicator_vector``: gaps between the zeros are the
    block frequencies."""
    arr = z.z if isinstance(z, IndicatorVector) else np.asarray(z, dtype=np.int8)
    if arr.ndim != 1 or not np.isin(arr, (0, 1)).all():
        raise ValueError("indicator vector must be a flat 0/1 array")
    zero_pos = np.flatnonzero(arr == 0)
    counts = nulldist._counts_from_bars(zero_pos[None], arr.size)[0]
    return BlockFrequencies(tuple(counts.tolist()), arr.size - zero_pos.size, zero_pos.size)


@dataclass(frozen=True)
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
        out.update(self.metadata)
        return out


_ALTERNATIVES = ("lower", "upper", "two-sided")


def _check_alternative(alternative: str) -> str:
    if not isinstance(alternative, str):
        raise ValueError(f"alternative must be a string, got {alternative!r}")
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


def default_precedence_j(n: int) -> int:
    """Rule-of-thumb block count: about half the blocks, rounded down."""
    return max(1, (n + 1) // 2)


def default_maximal_block_j(n: int) -> int:
    """Without censoring, use every block."""
    return n + 1


# --- the statistic table ------------------------------------------------------


# the parameter resolvers refuse a j or scores their statistic does not take
_NO_J = "j applies only to precedence and maximal_block"
_NO_SCORES = "scores apply only to the linear rank tests"


def _no_params(m: int, n: int, j, scores) -> None:
    if j is not None or scores is not None:
        raise ValueError(_NO_J if j is not None else _NO_SCORES)


def _j_param(default, top_offset: int):
    """Block count j: ``default(n)`` when unset, checked against
    [1, n + top_offset]."""

    def resolve(m: int, n: int, j, scores) -> int:
        if scores is not None:
            raise ValueError(_NO_SCORES)
        j = default(n) if j is None else j
        if not 1 <= j <= n + top_offset:
            raise ValueError(f"j must be in [1, {n + top_offset}], got {j}")
        return j

    return resolve


def _score_params(m: int, n: int, j, scores) -> ScoreVector:
    """A family name (Wilcoxon when unset), a ScoreVector, or raw
    scores, checked to have length m + n."""
    if j is not None:
        raise ValueError(_NO_J)
    if scores is None or isinstance(scores, (str, ScoreFamily)):
        sv = make_scores(scores or ScoreFamily.WILCOXON, m, n)
    else:
        sv = scores if isinstance(scores, ScoreVector) else ScoreVector(np.asarray(scores))
    if len(sv) != m + n:
        raise ValueError(f"need {m + n} scores, got {len(sv)}")
    return sv


def _rank_value(v, m: int, n: int, sv: ScoreVector):
    return int(round(float(v))) if sv.family is ScoreFamily.WILCOXON else float(v)


def _dixon_value(v, m: int, n: int, params):
    return Fraction(int(v), (m * (n + 1)) ** 2)


def _dixon_raw_atom(atom: Fraction, m: int, n: int, params) -> int:
    """The integer ``_dixon_rows`` value of the atom s / (m (n+1))^2,
    whose reduced denominator divides the scale."""
    return atom.numerator * ((m * (n + 1)) ** 2 // atom.denominator)


def _block_runs(c, m: int, n: int, params):
    """Runs of the pooled arrangement: one per nonempty block, plus the
    runs of reference points, which nonempty inner blocks separate."""
    return (c > 0).sum(axis=-1) + (c[..., 1:-1] > 0).sum(axis=-1) + 1


def _interior_exterior(c, m: int, n: int, params):
    """Empty interior blocks and empty exterior (first and last) blocks."""
    return np.stack(
        [(c[..., 1:-1] == 0).sum(axis=-1), (c[..., [0, -1]] == 0).sum(axis=-1)], axis=-1
    )


@dataclass(frozen=True)
class BlockStatistic:
    """One statistic of the block-frequency vector and what a test of
    it needs.

    ``statistic(counts, m, n, params)`` maps frequency vectors (the last
    axis of ``counts``, one row or an (R, n+1) matrix) to raw values;
    ``value(v, m, n, params)`` turns one raw value into the reported
    statistic, typed like the atoms of the null, and ``raw_atom(atom,
    m, n, params)`` maps an atom of the null back to the raw value it
    stands for, so raw values compare with atoms exactly as the
    reported statistics do.  ``null(m, n, params,
    method=, n_draws=, seed=)`` builds the null reference; entries
    without ``methods`` ignore the keywords, their closed forms are
    always exact.  ``params(m, n, j, scores)`` applies the parameter
    defaults and range checks, and refuses a parameter the statistic
    does not take.  ``alternative`` is the default
    alternative; None marks a joint law that has no test.
    """

    name: str
    statistic: Callable
    null: Callable
    alternative: str | None
    params: Callable = _no_params
    value: Callable = lambda v, m, n, params: int(v)
    raw_atom: Callable = lambda atom, m, n, params: atom
    methods: bool = False

    def describe(self, params) -> tuple[str, dict]:
        """Statistic name and the metadata the parameters add."""
        if isinstance(params, ScoreVector):
            return f"{self.name}[{params.family.value}]", {"scores": params.family.value}
        return (self.name, {}) if params is None else (f"{self.name}(j={params})", {"j": params})

    def observe(self, m: int, n: int, params, counts: np.ndarray):
        """The reported statistic of one frequency vector."""
        return self.value(self.raw(m, n, params, counts), m, n, params)

    def raw(self, m: int, n: int, params, counts: np.ndarray):
        """The raw values of the frequency vectors on the last axis of
        ``counts``."""
        return self.statistic(counts, m, n, params)

    def bind_raw(self, m: int, n: int, params) -> Callable:
        """``raw`` with everything but the counts fixed; it pickles, as
        the entry does."""
        return partial(self.raw, m, n, params)

    def __reduce__(self):
        # the entries hold lambdas; a pickle names the entry instead
        return statistic_entry, (self.name,)


# To add a statistic of the frequency vector, add its entry here; the
# test functions, the CLI and the power harness all read this table.
STATISTICS = {
    entry.name: entry
    for entry in (
        BlockStatistic(
            "precedence",
            lambda c, m, n, j: c[..., :j].sum(axis=-1),
            lambda m, n, j, **_: nulldist.precedence_pmf(m, n, j),
            "two-sided",
            _j_param(default_precedence_j, 0),
        ),
        BlockStatistic(
            "empty_block",
            lambda c, m, n, _: (c == 0).sum(axis=-1),
            lambda m, n, p, **_: nulldist.empty_block_pmf(m, n),
            "upper",
        ),
        BlockStatistic(
            "maximal_block",
            lambda c, m, n, j: c[..., :j].max(axis=-1),
            lambda m, n, j, **_: nulldist.maximal_block_pmf(m, n, j),
            "upper",
            _j_param(default_maximal_block_j, 1),
        ),
        BlockStatistic(
            "runs",
            _block_runs,
            lambda m, n, p, **_: nulldist.runs_pmf(m, n),
            "lower",
        ),
        BlockStatistic(
            "interior_exterior",
            _interior_exterior,
            lambda m, n, p, **_: nulldist.interior_exterior_empty_pmf(m, n),
            None,
            value=lambda v, m, n, params: tuple(int(x) for x in v),
        ),
        BlockStatistic(
            "dixon_c2",
            lambda c, m, n, _: nulldist._dixon_rows(c, m, n),
            lambda m, n, p, method, **kw: nulldist.dixon_c2_null(m, n, method, **kw),
            "upper",
            value=_dixon_value,
            raw_atom=_dixon_raw_atom,
            methods=True,
        ),
        BlockStatistic(
            "linear_rank",
            lambda c, m, n, sv: nulldist._rank_sum_at(nulldist._reference_positions(c), sv.scores),
            lambda m, n, sv, method, **kw: nulldist.linear_rank_null(
                m, n, sv.scores, method, **kw
            ),
            "two-sided",
            _score_params,
            _rank_value,
            lambda atom, m, n, sv: float(atom),
            methods=True,
        ),
    )
}

# a score-test name is the linear rank statistic with that family's scores
SCORE_TESTS = ("wilcoxon", "van_der_waerden", "terry_hoeffding", "mood", "klotz", "siegel_tukey")
KNOWN_TESTS = SCORE_TESTS + ("precedence", "maximal_block", "empty_block", "dixon_c2", "runs")

_TEST_ALIASES = {
    "rs": "wilcoxon",
    "rank_sum": "wilcoxon",
    "vdw": "van_der_waerden",
    "th": "terry_hoeffding",
    "prec": "precedence",
    "mb": "maximal_block",
    "eb": "empty_block",
}


def canonical_test(name: str) -> str:
    """The test called ``name`` (any case, aliases resolved)."""
    if not isinstance(name, str):
        raise ValueError(f"test must be a string, got {name!r}")
    test = _TEST_ALIASES.get(name.lower(), name.lower())
    if test not in KNOWN_TESTS:
        raise ValueError(f"unknown test {name!r}; known: {KNOWN_TESTS}")
    return test


def statistic_entry(test: str) -> BlockStatistic:
    """Table entry of a table name or a test name."""
    name = "linear_rank" if test in SCORE_TESTS else test
    if name not in STATISTICS:
        raise ValueError(f"unknown statistic {test!r}; known: {tuple(STATISTICS)}")
    return STATISTICS[name]


def resolve_statistic(test: str, m: int, n: int, j=None, scores=None):
    """(table entry, checked parameters) of a table name or a test name;
    a score test uses its own family unless ``scores`` overrides it."""
    if test in SCORE_TESTS and scores is None:
        scores = test
    entry = statistic_entry(test)
    return entry, entry.params(m, n, j, scores)


# m * n * min(m, n), the rank-sum count's cost, at which it takes as long as
# 200,000 Monte Carlo draws (m = n near 340 on a 2-core x86 machine)
_RANK_COUNT_LIMIT = 40_000_000


def null_method(
    entry: BlockStatistic, m: int, n: int, params, method: str = "auto",
    *, enumerate_scores: bool = True,
) -> str:
    """The null a test of ``entry`` builds: ``exact`` for the closed
    forms, which take no method, else ``method`` unless it is ``auto``.

    Under ``auto`` the null of the rank scores 1..m+n is exact while
    m * n * min(m, n) is at most ``_RANK_COUNT_LIMIT``, any other while
    C(m+n, n) fits the enumeration cap, and Monte Carlo beyond these.
    ``enumerate_scores=False`` (the power harness) draws the other score
    families by Monte Carlo at every size.
    """
    if not entry.methods:
        return "exact"
    if method != "auto":
        return method
    if isinstance(params, ScoreVector):
        if nulldist._is_ranks(params.scores) and m * n * min(m, n) <= _RANK_COUNT_LIMIT:
            return "exact"
        if not enumerate_scores:
            return "monte_carlo"
    return "exact" if math.comb(m + n, n) <= nulldist.enumeration_cap() else "monte_carlo"


def block_test(
    test: str,
    freqs: BlockFrequencies,
    alternative: str | None = None,
    method: str = "exact",
    *,
    j: int | None = None,
    scores=None,
    n_draws: int = nulldist.DEFAULT_DRAWS,
    seed=0,
) -> TestResult:
    """Test a statistic of the block frequencies against its null.

    ``test`` is a name of ``STATISTICS`` or a score-test name; ``j`` and
    ``scores`` go to the entries that take them, and ``method`` (resolved
    by ``null_method``), ``n_draws`` and ``seed`` to the nulls that are
    not closed forms.  The alternative defaults to the entry's.
    """
    m, n = freqs.m, freqs.n
    entry, params = resolve_statistic(test, m, n, j, scores)
    if entry.alternative is None:
        raise ValueError(f"{entry.name} is a joint distribution without a test")
    alternative = _check_alternative(alternative or entry.alternative)
    method = null_method(entry, m, n, params, method)
    null = entry.null(m, n, params, method=method, n_draws=n_draws, seed=seed)
    stat = entry.observe(m, n, params, np.asarray(freqs.counts))
    name, meta = entry.describe(params)
    return _result(stat, name, null, alternative, method, {"m": m, "n": n, **meta})


def linear_rank_test(
    freqs: BlockFrequencies,
    scores: ScoreVector | Sequence[float],
    alternative: str | None = None,
    method: str = "exact",
    *,
    n_draws: int = nulldist.DEFAULT_DRAWS,
    seed=0,
) -> TestResult:
    """Linear rank test T = sum of scores at comparison positions of the
    arrangement rebuilt from block frequencies.

    With rank scores 1..(m+n) the statistic is the rank sum, which also
    equals m(m+1)/2 plus the placement sum ``mann_whitney_u``.
    """
    kw = dict(scores=scores, n_draws=n_draws, seed=seed)
    return block_test("linear_rank", freqs, alternative, method, **kw)


def precedence_test(
    freqs: BlockFrequencies, j: int | None = None, alternative: str | None = None
) -> TestResult:
    """Count of comparison points in the first j blocks, against its
    exact negative hypergeometric null."""
    return block_test("precedence", freqs, alternative, j=j)


def maximal_block_test(
    freqs: BlockFrequencies, j: int | None = None, alternative: str | None = None
) -> TestResult:
    """Largest count among the first j blocks (all blocks by default);
    concentration shows up as a large maximum, so the upper tail is the
    natural rejection region."""
    return block_test("maximal_block", freqs, alternative, j=j)


def empty_block_test(freqs: BlockFrequencies, alternative: str | None = None) -> TestResult:
    """Number of empty blocks; identical populations rarely leave many
    blocks empty, so large values reject."""
    return block_test("empty_block", freqs, alternative)


def dixon_c2_test(
    freqs: BlockFrequencies,
    method: str = "exact",
    alternative: str | None = None,
    *,
    n_draws: int = nulldist.DEFAULT_DRAWS,
    seed=0,
) -> TestResult:
    """Sum of squared deviations of block shares from 1/(n+1); heavy
    concentration in a few blocks inflates it."""
    return block_test("dixon_c2", freqs, alternative, method, n_draws=n_draws, seed=seed)


def _univariate_frequencies(x, y, on_ties: str = "error", seed=None) -> BlockFrequencies:
    """Frequencies of univariate x in the ascending blocks of y, whose
    order is that of the sorted pooled sample.  Ties within y go to
    ``fit_partition``; a value shared by both samples has no unambiguous
    place in that order and raises."""
    xp, yp = partition._as_points(x), partition._as_points(y)
    if xp.shape[1] != 1 or yp.shape[1] != 1:
        raise ValueError("runs test is univariate only")
    plan = partition.make_univariate_plan(yp.shape[0])
    freqs = partition.block_frequencies(partition.fit_partition(plan, yp, on_ties, seed), xp)
    if freqs.boundary_ties:
        raise TieError("cross-sample tied values; the runs count is undefined")
    return freqs


def runs_statistic(x, y) -> int:
    """Number of maximal same-sample runs in the sorted pooled sample,
    the table's ``runs`` statistic of the univariate blocks of y."""
    freqs = _univariate_frequencies(x, y)
    return STATISTICS["runs"].observe(freqs.m, freqs.n, None, np.asarray(freqs.counts))


def runs_test(x, y, alternative: str | None = None, *, on_ties="error", seed=None) -> TestResult:
    """Classical univariate runs test on the raw samples, through their
    univariate blocks; few runs mean poorly mixed samples, so the lower
    tail rejects.  ``on_ties`` and ``seed`` go to ``fit_partition``."""
    return block_test("runs", _univariate_frequencies(x, y, on_ties, seed), alternative)


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
        the rule was built from that pmf.  Each tail is its critical atom's
        tail less the share 1 - gamma of that atom (the critical atoms of
        a built rule never cross, so no atom counts twice)."""
        lo, hi = self.lower_critical, self.upper_critical
        total = Fraction(0)
        if lo is not None:
            total += pmf.cdf(lo) - (1 - self.lower_gamma) * pmf.p(lo)
        if hi is not None:
            total += pmf.sf(hi) - (1 - self.upper_gamma) * pmf.p(hi)
        return total


def _tail_critical(pmf: Pmf, alpha: Fraction, tail: str):
    """Critical atom and gamma so that the strict tail plus the
    randomized atom carries exactly ``alpha`` = a/b.  In integers: the
    tail through an atom fits while its count is at most ``room`` =
    floor(a * total / b); the critical atom is the first one past that."""
    a, b, total, cum = alpha.numerator, alpha.denominator, pmf.total, pmf.cum_counts
    room = a * total // b
    if room >= total:
        raise ValueError("level must be below the total probability")
    if tail == "lower":
        k = int(np.searchsorted(cum, room, side="right"))
        beyond = int(cum[k - 1]) if k else 0
    else:
        # the upper tail through atom k holds total - cum[k - 1]
        k = int(np.searchsorted(cum, total - room, side="left"))
        beyond = total - int(cum[k])
    return pmf.support[k], Fraction(a * total - b * beyond, b * pmf.counts[k])


def build_rejection_rule(pmf: Pmf, alpha: float, alternative: str) -> RejectionRule:
    """Construct the randomized rule of exact size ``alpha`` for the
    given discrete null."""
    alternative = _check_alternative(alternative)
    a = Fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    # a two-sided rule splits the level evenly between the tails
    share = a / 2 if alternative == "two-sided" else a
    tails = {}
    if alternative != "upper":
        tails["lower_critical"], tails["lower_gamma"] = _tail_critical(pmf, share, "lower")
    if alternative != "lower":
        tails["upper_critical"], tails["upper_gamma"] = _tail_critical(pmf, share, "upper")
    return RejectionRule(alternative, a, **tails)


@dataclass(frozen=True)
class RandomizedDecision:
    reject: bool
    gamma: float
    alpha: float
    uniform: float
    rule: RejectionRule


def randomized_decision(result: TestResult, alpha: float, seed=None) -> RandomizedDecision:
    """Accept or reject at exact level ``alpha``.

    The statistic rejects outright beyond the critical atom and with
    probability gamma on it, so the rejection probability under the null
    is exactly ``alpha`` rather than the nearest achievable tail.
    """
    pmf = result.null_reference
    if not isinstance(pmf, Pmf):
        raise ValueError(
            f"randomized decisions need a discrete null reference; got {type(pmf).__name__}"
        )
    rule = build_rejection_rule(pmf, alpha, result.alternative)
    rng = np.random.default_rng(seed)
    u = float(rng.random())
    reject = rule.decide(result.statistic, u)
    gamma = float(rule.gamma_at(result.statistic))
    return RandomizedDecision(reject, gamma, float(alpha), u, rule)
