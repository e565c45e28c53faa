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
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from . import nulldist, twosample
from .partition import (
    Direction,
    PartitionPlan,
    TieError,
    fit_partition,
    block_frequencies,
    figure_axes,
    make_plan,
    make_spiral_plan,
    make_stairstep_plan,
)
from .twosample import RejectionRule, build_rejection_rule, make_scores

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


def _shift_vector(p: int, c: float) -> np.ndarray:
    """Location shift (0, c, c, ...): the first coordinate stays put."""
    shift = np.full(p, c)
    if p > 1:
        shift[0] = 0.0
    return shift


def _normal(spec: ScenarioSpec, k: int, rng, scale: float = 1.0, shift=None) -> np.ndarray:
    pts = rng.standard_normal((k, spec.p)) @ (spec._chol.T * math.sqrt(scale))
    if shift is not None:
        pts = pts + shift
    return pts


def _cauchy(spec: ScenarioSpec, k: int, rng, scale: float = 1.0, shift=None) -> np.ndarray:
    """Elliptical Cauchy: a correlated normal divided by the magnitude
    of an independent standard normal (t with one degree of freedom)."""
    z = _normal(spec, k, rng, scale)
    w = np.abs(rng.standard_normal((k, 1)))
    pts = z / w
    if shift is not None:
        pts = pts + shift
    return pts


def _cube(spec: ScenarioSpec, k: int, rng) -> np.ndarray:
    return rng.uniform(0.45, 0.55, (k, spec.p))


def _mixture(k: int, rng, weight_alt: float, draw_base, draw_alt) -> np.ndarray:
    """Per-observation component selection.  Both components are drawn
    for every observation so the stream advances by a fixed amount."""
    pick_alt = rng.random(k) < weight_alt
    base = draw_base(k)
    alt = draw_alt(k)
    return np.where(pick_alt[:, None], alt, base)


def generate_scenario(spec: ScenarioSpec, rng_or_seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, y) arrays of shape (m, p) and (n, p) for the scenario."""
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, np.random.Generator)
        else np.random.default_rng(rng_or_seed)
    )
    s, c, m, n = spec.scenario, spec.c, spec.m, spec.n
    if s == NULL_CASE:
        return _normal(spec, m, rng), _normal(spec, n, rng)
    if s == 1:
        x = _cauchy(spec, m, rng)
        shift = _shift_vector(spec.p, c)
        y = _mixture(
            n, rng, 0.1,
            lambda k: _cauchy(spec, k, rng),
            lambda k: _cauchy(spec, k, rng, shift=shift),
        )
        return x, y
    if s == 2:
        x = _normal(spec, m, rng)
        shift = _shift_vector(spec.p, c)
        y = _mixture(
            n, rng, 0.1,
            lambda k: _normal(spec, k, rng),
            lambda k: _normal(spec, k, rng, shift=shift),
        )
        return x, y
    if s == 3:
        return _normal(spec, m, rng), _normal(spec, n, rng, scale=c)
    if s == 4:
        x = _normal(spec, m, rng)
        y = _mixture(
            n, rng, 0.1,
            lambda k: _normal(spec, k, rng),
            lambda k: _cauchy(spec, k, rng, scale=c),
        )
        return x, y
    if s == 5:
        x = _cauchy(spec, m, rng)
        y = _mixture(
            n, rng, c,
            lambda k: _cauchy(spec, k, rng),
            lambda k: _cube(spec, k, rng),
        )
        return x, y
    # scenario 6
    x = _normal(spec, m, rng)
    y = _mixture(
        n, rng, c,
        lambda k: _normal(spec, k, rng),
        lambda k: _cube(spec, k, rng),
    )
    return x, y


# --- test configurations ---------------------------------------------------

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

_DEFAULT_ALTERNATIVES = {
    "precedence": "two-sided",
    "maximal_block": "upper",
    "empty_block": "upper",
    "dixon_c2": "upper",
    "runs": "lower",
}


@dataclass(frozen=True)
class TestConfig:
    """One test to run per replicate: a statistic plus a cut schedule.

    ``j`` applies to precedence and maximal-block tests (defaults: half
    the blocks, and all blocks, respectively).  Score tests default to
    two-sided alternatives; concentration statistics are one-sided.
    """

    __test__ = False  # not a pytest collectible

    test: str
    plan: str = "spiral"
    j: int | None = None
    alternative: str | None = None

    def __post_init__(self):
        name = _TEST_ALIASES.get(self.test.lower(), self.test.lower())
        if name not in KNOWN_TESTS:
            raise ValueError(f"unknown test {self.test!r}; known: {KNOWN_TESTS}")
        object.__setattr__(self, "test", name)
        alt = self.alternative or _DEFAULT_ALTERNATIVES.get(name, "two-sided")
        object.__setattr__(self, "alternative", twosample._check_alternative(alt))

    @property
    def label(self) -> str:
        return f"{self.test}[{self.plan}]"


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
    alpha: float, n_draws: int, seed_key: tuple,
) -> RejectionRule:
    if test in SCORE_TESTS:
        scores = make_scores(test, m, n).scores
        if test == "wilcoxon":
            null = nulldist.linear_rank_null(m, n, scores, "exact")
        else:
            null = nulldist.linear_rank_null(
                m, n, scores, "monte_carlo", n_draws=n_draws, seed=seed_key
            ).to_pmf()
    elif test == "precedence":
        null = nulldist.precedence_pmf(m, n, j)
    elif test == "maximal_block":
        null = nulldist.maximal_block_pmf(m, n, j)
    elif test == "empty_block":
        null = nulldist.empty_block_pmf(m, n)
    elif test == "dixon_c2":
        if math.comb(m + n, n) <= nulldist.enumeration_cap():
            null = nulldist.dixon_c2_null(m, n, "exact")
        else:
            null = nulldist.dixon_c2_null(
                m, n, "monte_carlo", n_draws=n_draws, seed=seed_key
            ).to_pmf()
    elif test == "runs":
        null = nulldist.runs_pmf(m, n)
    else:  # pragma: no cover
        raise ValueError(f"unknown test {test!r}")
    return build_rejection_rule(null, alpha, alternative)


def _rule_for(cfg: TestConfig, m: int, n: int, alpha: float, n_draws: int, base_seed: int,
              idx: int) -> tuple[RejectionRule, int | None]:
    """Build (rule, effective j) for a test applied with a size-n
    reference sample and m tested points."""
    j = cfg.j
    if cfg.test == "precedence":
        j = j if j is not None else twosample.default_precedence_j(n)
    elif cfg.test == "maximal_block":
        j = j if j is not None else twosample.default_maximal_block_j(n)
    else:
        j = None
    seed_key = (base_seed, _NULL_SEED_TAG, idx, m, n)
    rule = _cached_rule(cfg.test, m, n, j, cfg.alternative, alpha, n_draws, seed_key)
    return rule, j


# --- the replicate loop ------------------------------------------------------

# plan labels whose ascending/descending orientation the harness redraws
# per replicate: the published construction treats up and down
# symmetrically, exactly as it treats the coordinate labels
_DIRECTION_RANDOMIZED = {"spiral", "stairstep"}


def _oriented_plan(name: str, p: int, n: int, descending: bool) -> PartitionPlan:
    if name not in _DIRECTION_RANDOMIZED or not descending:
        return make_plan(name, p, n)
    if name == "spiral":
        return make_spiral_plan(p, n, axes=figure_axes(p), start=Direction.MAX)
    return make_stairstep_plan(p, n, direction=Direction.MAX, axes=figure_axes(p))


@dataclass(frozen=True)
class _StudyContext:
    spec: ScenarioSpec
    tests: tuple[TestConfig, ...]
    plans: dict
    rules: dict
    js: dict
    scores: dict
    alpha: float
    base_seed: int
    randomize_roles: bool
    permute_columns: bool
    randomize_directions: bool
    max_tie_retries: int
    dixon_scale: dict


def _statistic(cfg: TestConfig, ctx: _StudyContext, key, freqs_counts: np.ndarray,
               m: int, n: int):
    test = cfg.test
    if test in SCORE_TESTS:
        a = ctx.scores[(test, m, n)]
        zero_pos = np.cumsum(freqs_counts[:n]) + np.arange(n)
        stat = float(a.sum() - a[zero_pos].sum())
        return int(round(stat)) if test == "wilcoxon" else stat
    if test == "precedence":
        return int(freqs_counts[: ctx.js[key]].sum())
    if test == "maximal_block":
        return int(freqs_counts[: ctx.js[key]].max())
    if test == "empty_block":
        return int((freqs_counts == 0).sum())
    if test == "dixon_c2":
        scaled = int(((m - (n + 1) * freqs_counts) ** 2).sum())
        denom = (m * (n + 1)) ** 2
        exact = ctx.dixon_scale[(m, n)]
        return Fraction(scaled, denom) if exact else scaled / denom
    raise ValueError(f"unexpected test {test!r}")  # pragma: no cover


def _run_replicates(ctx: _StudyContext, start: int, stop: int) -> tuple[np.ndarray, int]:
    spec = ctx.spec
    k_tests = len(ctx.tests)
    rejections = np.zeros(k_tests, dtype=np.int64)
    retries = 0
    plan_names = sorted({cfg.plan for cfg in ctx.tests if cfg.test != "runs"})
    for r in range(start, stop):
        for attempt in range(ctx.max_tie_retries + 1):
            rng = np.random.default_rng((ctx.base_seed, r, attempt))
            x, y = generate_scenario(spec, rng)
            swapped = False
            if ctx.randomize_roles and rng.random() < 0.5:
                x, y = y, x
                swapped = True
            if ctx.permute_columns:
                perm = rng.permutation(spec.p)
                x = x[:, perm]
                y = y[:, perm]
            descending = ctx.randomize_directions and rng.random() < 0.5
            uniforms = rng.random(k_tests)
            m_eff = x.shape[0]
            n_eff = y.shape[0]
            try:
                freqs = {}
                for name in plan_names:
                    down = descending and name in _DIRECTION_RANDOMIZED
                    fitted = fit_partition(ctx.plans[(name, n_eff, down)], y)
                    freqs[name] = np.asarray(
                        block_frequencies(fitted, x).counts, dtype=np.int64
                    )
                run_stats = {}
                if any(cfg.test == "runs" for cfg in ctx.tests):
                    run_stats["runs"] = twosample.runs_statistic(x, y)
            except TieError:
                retries += 1
                continue
            for i, cfg in enumerate(ctx.tests):
                key = (i, swapped)
                if cfg.test == "runs":
                    stat = run_stats["runs"]
                else:
                    stat = _statistic(cfg, ctx, key, freqs[cfg.plan], m_eff, n_eff)
                if ctx.rules[key].decide(stat, uniforms[i]):
                    rejections[i] += 1
            break
        else:
            raise RuntimeError(
                f"replicate {r} kept producing tied values after "
                f"{ctx.max_tie_retries} retries"
            )
    return rejections, retries


def _run_chunk(args) -> tuple[np.ndarray, int]:
    ctx, start, stop = args
    return _run_replicates(ctx, start, stop)


def run_power_study(
    spec: ScenarioSpec,
    tests: Sequence[TestConfig],
    alpha: float,
    n_replicates: int,
    base_seed: int,
    *,
    workers: int = 1,
    n_null_draws: int = 200_000,
    randomize_roles: bool = True,
    permute_columns: bool = True,
    randomize_directions: bool = True,
    max_tie_retries: int = 100,
) -> list[PowerEstimate]:
    """Estimate rejection rates for each configured test.

    Per replicate the two samples are generated, randomly assigned the
    partitioning role, their coordinates permuted by one shared random
    permutation, the spiral / stair-step orientation flipped by a fair
    coin, and every test decided with randomization at exact level
    ``alpha``.  None of these symmetrizations touches the null law; they
    make the estimates invariant to coordinate labeling and to the
    up/down convention of the cut schedules.  Replicates that generate
    tied values are redrawn from a fresh substream and counted in
    ``tie_retries``.
    """
    if n_replicates < 1:
        raise ValueError(f"n_replicates must be >= 1, got {n_replicates}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    tests = tuple(tests)
    if not tests:
        raise ValueError("need at least one test configuration")
    for cfg in tests:
        if cfg.test == "runs" and spec.p != 1:
            raise ValueError("the runs test is univariate; use p=1")

    # size pairs seen by the tests: (tested, reference) for both role
    # assignments
    orientations = {(spec.m, spec.n)}
    if randomize_roles:
        orientations.add((spec.n, spec.m))

    plans = {}
    for cfg in tests:
        if cfg.test == "runs":
            continue
        for _, n_eff in orientations:
            directions = (False, True) if (
                randomize_directions and cfg.plan in _DIRECTION_RANDOMIZED
            ) else (False,)
            for down in directions:
                key = (cfg.plan, n_eff, down)
                if key not in plans:
                    plans[key] = _oriented_plan(cfg.plan, spec.p, n_eff, down)

    rules, js, scores, dixon_scale = {}, {}, {}, {}
    for i, cfg in enumerate(tests):
        for m_eff, n_eff in orientations:
            swapped = (m_eff, n_eff) != (spec.m, spec.n)
            rule, j = _rule_for(cfg, m_eff, n_eff, alpha, n_null_draws, base_seed, i)
            rules[(i, swapped)] = rule
            js[(i, swapped)] = j
            if cfg.test in SCORE_TESTS and (cfg.test, m_eff, n_eff) not in scores:
                scores[(cfg.test, m_eff, n_eff)] = make_scores(cfg.test, m_eff, n_eff).scores
            if cfg.test == "dixon_c2":
                dixon_scale[(m_eff, n_eff)] = (
                    math.comb(m_eff + n_eff, n_eff) <= nulldist.enumeration_cap()
                )
    if spec.m == spec.n and randomize_roles:
        # same sizes either way; both orientations share the rules
        for i in range(len(tests)):
            rules[(i, True)] = rules[(i, False)]
            js[(i, True)] = js[(i, False)]

    ctx = _StudyContext(
        spec=spec,
        tests=tests,
        plans=plans,
        rules=rules,
        js=js,
        scores=scores,
        alpha=alpha,
        base_seed=base_seed,
        randomize_roles=randomize_roles,
        permute_columns=permute_columns,
        randomize_directions=randomize_directions,
        max_tie_retries=max_tie_retries,
        dixon_scale=dixon_scale,
    )

    if workers <= 1:
        rejections, retries = _run_replicates(ctx, 0, n_replicates)
    else:
        n_chunks = min(n_replicates, workers * 4)
        bounds = np.linspace(0, n_replicates, n_chunks + 1, dtype=int)
        tasks = [(ctx, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        rejections = np.zeros(len(tests), dtype=np.int64)
        retries = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rej, ret in pool.map(_run_chunk, tasks):
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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
        across all achievable vectors (missing ones count as zero)."""
        u = self.expected_probability
        se = math.sqrt(u * (1.0 - u) / self.replicates)
        seen = [self.counts.get(v, 0) for v in _all_vectors(self.m, self.n)]
        return max(abs(c / self.replicates - u) / se for c in seen)


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
    all C(m+n, n) possibilities whatever the generating distribution."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    n_possible = math.comb(m + n, n)
    if n_possible > nulldist.enumeration_cap():
        raise nulldist.CapacityError(
            f"C({m + n}, {n}) = {n_possible} vectors cannot be tabulated"
        )
    draw = _standard_generator(generator) if isinstance(generator, str) else generator
    plan = make_plan(plan_label, p, n)
    rng = np.random.default_rng(seed)
    counts: dict[tuple, int] = {}
    for _ in range(replicates):
        while True:
            x = np.asarray(draw(m, p, rng), dtype=float)
            y = np.asarray(draw(n, p, rng), dtype=float)
            try:
                fitted = fit_partition(plan, y)
            except TieError:
                continue
            break
        vec = block_frequencies(fitted, x).counts
        counts[vec] = counts.get(vec, 0) + 1
    return UniformityReport(m, n, replicates, counts, n_possible)
