"""Scenario generators and a deterministic Monte Carlo power harness.

Replicate r of a study draws everything it needs from the substream
seeded by (base_seed, r, attempt), so results are bit-identical for any
worker count and chunking.  Null references for the decision rules are
seeded separately from the base seed and are shared across replicates.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from . import nulldist, twosample
from .partition import (
    CutRule,
    Direction,
    PartitionPlan,
    TieError,
    fit_partition,
    block_frequencies,
    canonical_plan,
    make_plan,
)
from .twosample import KNOWN_TESTS, SCORE_TESTS, RejectionRule, build_rejection_rule
from .twosample import make_scores  # noqa: F401  (a module attribute perfbench/tracer.py wraps)

__all__ = [
    "NULL_CASE",
    "ScenarioSpec",
    "TestConfig",
    "PowerEstimate",
    "CoverageDiagnostic",
    "UniformityReport",
    "ar_covariance",
    "generate_scenario",
    "run_power_study",
    "coverage_diagnostic",
    "frequency_uniformity_check",
    "SCORE_TESTS",
    "KNOWN_TESTS",
]

NULL_CASE = 0


def ar_covariance(p: int, rho: float = 0.35) -> np.ndarray:
    """Covariance with entries rho^|i-j|."""
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the simulation design.

    Scenario 0 is the null case (both samples from the same correlated
    trivariate-style normal); scenarios 1-6 are the mixture, scale, and
    over-concentration alternatives, with severity ``c``.
    """

    scenario: int = NULL_CASE
    c: float = 0.0
    p: int = 3
    m: int = 200
    n: int = 200

    def __post_init__(self):
        if self.scenario not in (0, 1, 2, 3, 4, 5, 6):
            raise ValueError(f"scenario must be 0 (null) through 6, got {self.scenario}")
        if self.p < 1 or self.m < 1 or self.n < 1:
            raise ValueError("p, m, n must all be >= 1")
        if self.scenario in (1, 2) and self.c < 0:
            raise ValueError(f"shift size c must be >= 0, got {self.c}")
        if self.scenario in (3, 4) and not self.c > 0:
            raise ValueError(f"scale factor c must be > 0, got {self.c}")
        if self.scenario in (5, 6) and not 0 <= self.c <= 1:
            raise ValueError(f"mixture weight c must be in [0, 1], got {self.c}")

    @cached_property
    def sigma(self) -> np.ndarray:
        return ar_covariance(self.p)

    @cached_property
    def _chol(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise ValueError("scenario covariance is not positive definite") from exc


def generate_scenario(spec: ScenarioSpec, rng_or_seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, y) arrays of shape (m, p) and (n, p) for the scenario.

    N is the normal law with covariance ``spec.sigma`` and C the
    elliptical Cauchy law: N divided by the magnitude of an independent
    standard normal (t with one degree of freedom).  ``x`` follows the
    base law.  In a mixture each point of ``y`` follows the other law
    with probability ``weight`` and the base law otherwise; both laws
    are drawn for every point, so the stream advances by a fixed amount.

    ========  ====  =====================================  ======
    scenario  base  y                                      weight
    ========  ====  =====================================  ======
    0         N     N
    1         C     mixed with C + (0, c, c, ...)          0.1
    2         N     mixed with N + (0, c, c, ...)          0.1
    3         N     N with covariance c * sigma
    4         N     mixed with C, covariance c * sigma     0.1
    5         C     mixed with uniform on [0.45, 0.55]^p   c
    6         N     mixed with uniform on [0.45, 0.55]^p   c
    ========  ====  =====================================  ======

    The shift leaves the first coordinate in place, except at p = 1,
    where it is (c).
    """
    rng = np.random.default_rng(rng_or_seed)
    s, c, p, n = spec.scenario, spec.c, spec.p, spec.n

    def normal(k: int, scale: float = 1.0) -> np.ndarray:
        return rng.standard_normal((k, p)) @ (spec._chol.T * math.sqrt(scale))

    def cauchy(k: int, scale: float = 1.0) -> np.ndarray:
        return normal(k, scale) / np.abs(rng.standard_normal((k, 1)))

    base = cauchy if s in (1, 5) else normal
    x = base(spec.m)
    if s in (NULL_CASE, 3):
        return x, normal(n, c if s == 3 else 1.0)
    pick = rng.random(n) < (c if s in (5, 6) else 0.1)
    y = base(n)
    if s in (1, 2):
        shift = np.full(p, c)
        if p > 1:
            shift[0] = 0.0
        other = base(n) + shift
    elif s == 4:
        other = cauchy(n, c)
    else:
        other = rng.uniform(0.45, 0.55, (n, p))
    return x, np.where(pick[:, None], other, y)


# --- test configurations ---------------------------------------------------

@dataclass(frozen=True)
class TestConfig:
    """One test to run per replicate: a statistic plus a cut schedule.

    ``j`` applies to precedence and maximal-block tests only (defaults:
    half the blocks, and all blocks, respectively).  Score tests default to
    two-sided alternatives; concentration statistics are one-sided.
    ``plan`` is any label ``make_plan`` accepts, kept as written for the
    estimates; an alias runs exactly as the plan it names.
    """

    __test__ = False  # not a pytest collectible

    test: str
    plan: str = "spiral"
    j: int | None = None
    alternative: str | None = None

    def __post_init__(self):
        name = twosample.canonical_test(self.test)
        object.__setattr__(self, "test", name)
        canonical_plan(self.plan)  # an unknown plan is refused here
        alt = self.alternative or twosample.statistic_entry(name).alternative
        object.__setattr__(self, "alternative", twosample._check_alternative(alt))

    @property
    def label(self) -> str:
        return f"{self.test}[{self.plan}]"

    @property
    def fitted_plan(self) -> str:
        """The canonical name of the plan the blocks come from: the
        label's, but runs counts the runs of the sorted pooled sample,
        whose order univariate blocks keep."""
        return "univariate" if self.test == "runs" else canonical_plan(self.plan)


@dataclass(frozen=True)
class PowerEstimate:
    test: str
    plan: str
    scenario: int
    c: float
    alpha: float
    replicates: int
    rejections: int
    seed: int
    tie_retries: int = 0

    @property
    def rejection_rate(self) -> float:
        return self.rejections / self.replicates

    @property
    def std_error(self) -> float:
        r = self.rejection_rate
        return math.sqrt(r * (1.0 - r) / self.replicates)


# --- decision-rule construction ---------------------------------------------

_NULL_SEED_TAG = 714_025  # fixed tag separating null-reference streams


@lru_cache(maxsize=256)
def _cached_rule(
    test: str, m: int, n: int, j: int | None, alternative: str,
    alpha: float, method: str, n_draws: int, seed_key: tuple,
) -> RejectionRule:
    entry, params = twosample.resolve_statistic(test, m, n, j)
    null = entry.null(m, n, params, method=method, n_draws=n_draws, seed=seed_key)
    return build_rejection_rule(null, alpha, alternative)


# --- the replicate loop ------------------------------------------------------

# tied reference samples in a row that a power replicate or the
# uniformity check redraws before it raises TieError
_MAX_TIED = 100


@lru_cache(maxsize=64)
def _oriented_plan(name: str, p: int, n: int, descending: bool) -> PartitionPlan:
    """The plan ``name``; the spiral and stair-step are mirrored, every
    cut's direction flipped, when ``descending``, as the published
    construction treats up and down symmetrically, exactly as it treats
    the coordinate labels."""
    plan = make_plan(name, p, n)
    if descending and name in ("spiral", "stairstep"):
        flipped = {Direction.MIN: Direction.MAX, Direction.MAX: Direction.MIN}
        cuts = tuple(CutRule(rule.component, flipped[rule.direction]) for rule in plan.cuts)
        plan = PartitionPlan(p, n, cuts, plan.label)
    return plan


def _draw_replicate(spec: ScenarioSpec, base_seed: int, r: int, attempt: int, k_tests: int):
    """Replicate r's draw from the substream (base_seed, r, attempt): the
    samples, a role swap, one coordinate permutation for both, the
    direction coin and a decision uniform per test, in that order.
    Returns ``x, y, descending, uniforms``; ``y`` partitions."""
    rng = np.random.default_rng((base_seed, r, attempt))
    x, y = generate_scenario(spec, rng)
    if rng.random() < 0.5:
        x, y = y, x
    perm = rng.permutation(spec.p)
    descending = rng.random() < 0.5
    return x[:, perm], y[:, perm], descending, rng.random(k_tests)


@dataclass(frozen=True)
class _ChunkRule:
    """A ``RejectionRule`` in the raw domain of its statistic, applied
    to a chunk of replicates at once.

    ``RejectionRule.decide`` rejects a statistic beyond a critical atom,
    and one on it when the uniform is below float(gamma), the two gammas
    summed where the atoms coincide.  So a raw value v rejects when
    v < lower or v > upper, or when v equals an atom and its uniform is
    below that atom's gamma.  A tail the rule lacks is None."""

    lower: object
    upper: object
    lower_gamma: float
    upper_gamma: float

    @classmethod
    def of(cls, rule: RejectionRule, raw_atom: Callable) -> "_ChunkRule":
        """``rule`` with its atoms mapped into the raw domain by ``raw_atom``."""
        lo, hi = rule.lower_critical, rule.upper_critical
        gammas = float(rule.lower_gamma), float(rule.upper_gamma)
        if lo is not None and lo == hi:
            gammas = (float(rule.lower_gamma + rule.upper_gamma),) * 2
        return cls(*(None if a is None else raw_atom(a) for a in (lo, hi)), *gammas)

    def rejects(self, values: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Whether each raw value rejects with the uniform beside it."""
        out = np.zeros(uniforms.shape, dtype=bool)
        if self.lower is not None:
            out |= (values < self.lower) | (values == self.lower) & (uniforms < self.lower_gamma)
        if self.upper is not None:
            out |= (values > self.upper) | (values == self.upper) & (uniforms < self.upper_gamma)
        return out


@dataclass(frozen=True)
class _StudyContext:
    spec: ScenarioSpec
    tests: tuple[TestConfig, ...]
    plan_names: tuple[str, ...]
    # per reference size: the distinct statistics, each bound to raw
    # values, and per column (its statistic's index, its plan's row, its
    # rejection rule in the raw domain)
    statistics: dict
    columns: dict
    base_seed: int


# replicates whose statistics are evaluated together: one call per
# distinct statistic on their stacked block counts
_STATISTIC_CHUNK = 256


def _run_replicates(ctx: _StudyContext, start: int, stop: int) -> tuple[np.ndarray, int]:
    spec = ctx.spec
    k_tests, k_plans = len(ctx.tests), len(ctx.plan_names)
    rejections = np.zeros(k_tests, dtype=np.int64)
    retries = 0
    # per reference size: the block counts of each plan, replicate after
    # replicate, and each replicate's decision uniforms
    pending = {n: ([], []) for n in ctx.statistics}

    def decide_pending(n: int):
        rows, uniforms = pending[n]
        if not uniforms:
            return
        # (replicates, plans) raw values per statistic, (replicates,
        # tests) uniforms: one comparison per column decides the chunk
        counts, u = np.stack(rows), np.stack(uniforms)
        values = [raw(counts).reshape(len(uniforms), k_plans) for raw in ctx.statistics[n]]
        for i, (s, row, rule) in enumerate(ctx.columns[n]):
            rejections[i] += np.count_nonzero(rule.rejects(values[s][:, row], u[:, i]))
        rows.clear()
        uniforms.clear()

    for r in range(start, stop):
        for attempt in range(_MAX_TIED + 1):
            x, y, descending, uniforms = _draw_replicate(spec, ctx.base_seed, r, attempt, k_tests)
            n = y.shape[0]
            fits = [
                fit_partition(_oriented_plan(name, spec.p, n, descending), y[None])
                for name in ctx.plan_names
            ]
            if any(fit.tied[0] for fit in fits):
                retries += 1
                continue
            rows, chunk = pending[n]
            rows.extend(block_frequencies(fit, x[None]).counts[0] for fit in fits)
            chunk.append(uniforms)
            if len(chunk) == _STATISTIC_CHUNK:
                decide_pending(n)
            break
        else:
            raise TieError(
                f"replicate {r} drew a reference sample with tied values "
                f"{_MAX_TIED + 1} times in a row"
            )
    for n in pending:
        decide_pending(n)
    return rejections, retries


def run_power_study(
    spec: ScenarioSpec,
    tests: Sequence[TestConfig],
    alpha: float,
    n_replicates: int,
    base_seed: int,
    *,
    workers: int = 1,
    n_null_draws: int = nulldist.DEFAULT_DRAWS,
) -> list[PowerEstimate]:
    """Estimate rejection rates for each configured test.

    Per replicate (``_draw_replicate``) the two samples are generated,
    randomly assigned the partitioning role, their coordinates permuted
    by one shared random permutation, the spiral / stair-step
    orientation flipped by a fair coin, and every test decided with
    randomization at exact level ``alpha``.  None of these
    symmetrizations touches the null law; they make the estimates
    invariant to coordinate labeling and to the up/down convention of
    the cut schedules.  Replicates that generate tied values are redrawn
    from a fresh substream and counted in ``tie_retries``; more than 100
    in a row raise ``TieError``.

    Block counts and decision uniforms pend in chunks of up to 256
    replicates per reference size.  Each distinct statistic is evaluated
    once on a chunk's stacked counts, in its raw domain, and each column
    decides the whole chunk with array comparisons against its rule's
    critical atoms mapped into that domain; these are the comparisons
    ``RejectionRule.decide`` makes, so every decision is the same.
    """
    if n_replicates < 1:
        raise ValueError(f"n_replicates must be >= 1, got {n_replicates}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    tests = tuple(tests)
    if not tests:
        raise ValueError("need at least one test configuration")

    plan_names = tuple(sorted({cfg.fitted_plan for cfg in tests}))

    # per reference size (one when m = n), each distinct statistic bound
    # once to raw values with its sizes, parameters and scores, and
    # evaluated on every plan's row; each rule's atoms mapped to raw values
    statistics, columns = {}, {}
    for m_eff, n_eff in dict.fromkeys([(spec.m, spec.n), (spec.n, spec.m)]):
        index, bound, cols = {}, [], []
        for i, cfg in enumerate(tests):
            seed_key = (base_seed, _NULL_SEED_TAG, i, m_eff, n_eff)
            entry, params = twosample.resolve_statistic(cfg.test, m_eff, n_eff, cfg.j)
            method = twosample.null_method(entry, m_eff, n_eff, params, enumerate_scores=False)
            rule = _cached_rule(
                cfg.test, m_eff, n_eff, cfg.j, cfg.alternative, alpha, method, n_null_draws,
                seed_key,
            )
            if (cfg.test, cfg.j) not in index:
                index[(cfg.test, cfg.j)] = len(bound)
                bound.append(entry.bind_raw(m_eff, n_eff, params))
            raw_rule = _ChunkRule.of(rule, lambda a: entry.raw_atom(a, m_eff, n_eff, params))
            cols.append((index[(cfg.test, cfg.j)], plan_names.index(cfg.fitted_plan), raw_rule))
        statistics[n_eff], columns[n_eff] = tuple(bound), tuple(cols)

    ctx = _StudyContext(spec, tests, plan_names, statistics, columns, base_seed)

    if workers == 1:
        rejections, retries = _run_replicates(ctx, 0, n_replicates)
    else:
        n_chunks = min(n_replicates, workers * 4)
        bounds = np.linspace(0, n_replicates, n_chunks + 1, dtype=int).tolist()
        rejections = np.zeros(len(tests), dtype=np.int64)
        retries = 0
        # under fork the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
            for rej, ret in pool.map(_run_replicates, repeat(ctx), bounds[:-1], bounds[1:]):
                rejections += rej
                retries += ret

    return [
        PowerEstimate(
            test=cfg.test,
            plan=cfg.plan,
            scenario=spec.scenario,
            c=spec.c,
            alpha=alpha,
            replicates=n_replicates,
            rejections=int(rejections[i]),
            seed=base_seed,
            tie_retries=retries,
        )
        for i, cfg in enumerate(tests)
    ]


# --- diagnostics -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverageDiagnostic:
    """Monte Carlo estimates of each block's probability content."""

    coverages: np.ndarray
    std_errors: np.ndarray
    draws: int

    def __post_init__(self):
        total = float(self.coverages.sum())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"coverage estimates sum to {total}, expected 1")


def coverage_diagnostic(fitted, generator: Callable, draws: int, seed=None) -> CoverageDiagnostic:
    """Estimate fitted-block coverages under the distribution that
    produced the reference sample.

    ``generator(k, rng)`` must return k fresh points from that same
    distribution; the estimates are the block shares of ``draws`` such
    points.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = np.random.default_rng(seed)
    pts = np.asarray(generator(draws, rng), dtype=float)
    counts = np.asarray(block_frequencies(fitted, pts).counts, dtype=float)
    q = counts / draws
    se = np.sqrt(q * (1.0 - q) / draws)
    return CoverageDiagnostic(q, se, draws)


@dataclass(frozen=True, eq=False)
class UniformityReport:
    """Observed frequency-vector counts against the uniform law."""

    m: int
    n: int
    replicates: int
    counts: dict
    n_possible: int

    @property
    def expected_probability(self) -> float:
        return 1.0 / self.n_possible

    @property
    def max_se_deviation(self) -> float:
        """Largest |observed - expected| share in standard-error units,
        across all achievable vectors: a vector never seen deviates by
        exactly u / se."""
        u = self.expected_probability
        se = math.sqrt(u * (1.0 - u) / self.replicates)
        seen = [abs(c / self.replicates - u) / se for c in self.counts.values()]
        return max(seen + [u / se] * (len(self.counts) < self.n_possible))


@lru_cache(maxsize=16)
def _all_vectors(m: int, n: int) -> tuple:
    return nulldist.enumerate_frequency_vectors(m, n).vectors


def _standard_generator(name: str):
    name = name.lower()
    if name == "normal":
        return lambda k, p, rng: rng.standard_normal((k, p))
    if name == "cauchy":
        return lambda k, p, rng: rng.standard_normal((k, p)) / np.abs(
            rng.standard_normal((k, 1))
        )
    raise ValueError(f"generator must be 'normal' or 'cauchy', got {name!r}")


# points per kernel call of the uniformity check: bounds the stacked
# samples at about 4 MB for p = 8 (4.7 MB of Cauchy draws)
_UNIFORMITY_BATCH_POINTS = 1 << 16


def frequency_uniformity_check(
    m: int,
    n: int,
    p: int,
    plan_label: str,
    replicates: int,
    seed: int = 0,
    generator: str | Callable = "normal",
) -> UniformityReport:
    """Simulate paired samples from one continuous distribution and
    tabulate the block-frequency vectors, which should be uniform over
    all C(m+n, n) possibilities whatever the generating distribution.

    Each replicate draws ``generator(m, p, rng)`` then ``generator(n,
    p, rng)`` from one stream, and a pair whose reference sample has
    tied values is replaced by the next pair of the stream.  Pairs are
    stacked and fitted and counted a batch at a time, each vector tallied
    by its lexicographic rank; the tally equals that of one pair at a
    time.  Raises ``TieError`` when more than 100 reference samples in a
    row tie.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    n_possible = math.comb(m + n, n)
    if n_possible > nulldist.enumeration_cap():
        raise nulldist.CapacityError(
            f"C({m + n}, {n}) = {n_possible} vectors cannot be tabulated"
        )
    draw_pairs = _pair_drawer(generator, m, n, p)
    plan = _oriented_plan(canonical_plan(plan_label), p, n, False)
    vectors = _all_vectors(m, n)  # lexicographic; the report's keys
    rank = _lexicographic_rank(m, n)
    rng = np.random.default_rng(seed)
    counts: dict[tuple, int] = {}
    remaining, tied_run = replicates, 0
    while remaining:
        size = min(remaining, max(1, _UNIFORMITY_BATCH_POINTS // (m + n)))
        xs, ys = draw_pairs(size, rng)
        fitted = fit_partition(plan, ys)
        rows = block_frequencies(fitted, xs).counts[~fitted.tied]
        # runs of tied samples between untied ones, the first carried
        # over from the batch before
        untied = np.flatnonzero(~fitted.tied)
        runs = np.diff(untied, prepend=-1 - tied_run, append=size) - 1
        if runs.max() > _MAX_TIED:
            raise TieError(
                f"{runs.max()} reference samples in a row have tied values; "
                "the generator must draw from a continuous law"
            )
        tied_run = int(runs[-1])
        for i, k in zip(*(a.tolist() for a in np.unique(rank(rows), return_counts=True))):
            counts[vectors[i]] = counts.get(vectors[i], 0) + k
        remaining -= rows.shape[0]
    return UniformityReport(m, n, replicates, counts, n_possible)


def _lexicographic_rank(m: int, n: int) -> Callable:
    """``rank(rows)``: the position of each frequency vector (a row of
    n+1 counts summing to m) in the lexicographic order of all
    C(m+n, n), as int64.

    With S_k = r_1 + ... + r_{k+1}, the vectors that agree with a vector
    in r_1..r_k and exceed it in r_{k+1} number C(n-1-k+m-S_k, n-k), so
    its rank is C(m+n, n) - 1 minus the sum of those n binomials (Knuth,
    TAOCP 4A, 7.2.1.3).  They are looked up in one (n, m+1) table, none
    of whose entries passes C(m+n, n).
    """
    weights = np.array(
        [[math.comb(n - 1 - k + m - s, n - k) for s in range(m + 1)] for k in range(n)],
        dtype=np.int64,
    )
    parts, last = np.arange(n), math.comb(m + n, n) - 1

    def rank(rows):
        return last - weights[parts, np.cumsum(rows[:, :n], axis=1)].sum(axis=1)

    return rank


def _pair_drawer(generator: str | Callable, m: int, n: int, p: int) -> Callable:
    """``draw(size, rng) -> (xs, ys)``: the next ``size`` pairs of the
    stream, stacked as (size, m, p) and (size, n, p).

    A named law draws them with one ``standard_normal`` call whose row i
    holds pair i's values in the order ``_standard_generator`` draws
    them: per sample, its k·p coordinates, then, for the Cauchy law, its
    k denominators.  A callable draws one sample at a time.
    """
    if isinstance(generator, str):
        _standard_generator(generator)  # refuses a name it does not know
        width = p + (generator.lower() == "cauchy")  # a Cauchy point adds its denominator

        def draw(size, rng):
            z = rng.standard_normal((size, (m + n) * width))
            samples = []
            for k, vals in ((m, z[:, : m * width]), (n, z[:, m * width :])):
                pts = vals[:, : k * p].reshape(size, k, p)
                if width > p:
                    pts /= np.abs(vals[:, k * p :, None])
                samples.append(pts)
            return samples

        return draw
    if not callable(generator):
        raise ValueError(f"generator must be 'normal', 'cauchy' or a callable, got {generator!r}")

    def draw(size, rng):
        xs, ys = np.empty((size, m, p)), np.empty((size, n, p))
        for i in range(size):
            xs[i] = _draw_points(generator, m, p, rng)
            ys[i] = _draw_points(generator, n, p, rng)
        return xs, ys

    return draw


def _draw_points(draw: Callable, k: int, p: int, rng) -> np.ndarray:
    pts = np.asarray(draw(k, p, rng), dtype=float)
    if p == 1 and pts.ndim == 1:  # univariate data, as in ``Sample``
        pts = pts.reshape(-1, 1)
    if pts.shape != (k, p):
        raise ValueError(f"generator returned shape {pts.shape}, expected ({k}, {p})")
    return pts
