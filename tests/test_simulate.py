import copy
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from seblocks import nulldist, simulate, twosample
from seblocks.cli import _ALL_TESTS
from seblocks.nulldist import CapacityError, enumerate_frequency_vectors
from seblocks.partition import (
    Direction,
    Sample,
    TieError,
    block_frequencies,
    figure_axes,
    fit_partition,
    make_plan,
    make_spiral_plan,
)
from seblocks.simulate import (
    NULL_CASE,
    ScenarioSpec,
    TestConfig,
    ar_covariance,
    coverage_diagnostic,
    frequency_uniformity_check,
    generate_scenario,
    run_power_study,
)


class TestScenarioSpec:
    def test_covariance_structure(self):
        sig = ar_covariance(3)
        assert sig[0, 0] == 1.0
        assert sig[0, 1] == pytest.approx(0.35)
        assert sig[0, 2] == pytest.approx(0.1225)
        np.linalg.cholesky(sig)  # positive definite

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(scenario=7, c=1.0)
        with pytest.raises(ValueError):
            ScenarioSpec(scenario=3, c=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(scenario=5, c=1.5)

    def test_mixture_weight_boundaries_allowed(self):
        ScenarioSpec(scenario=5, c=1.0, m=10, n=10)
        ScenarioSpec(scenario=2, c=0.0, m=10, n=10)


class TestGenerators:
    def test_shapes_and_determinism(self):
        spec = ScenarioSpec(scenario=1, c=5.0, p=3, m=40, n=30)
        x1, y1 = generate_scenario(spec, 123)
        x2, y2 = generate_scenario(spec, 123)
        assert x1.shape == (40, 3) and y1.shape == (30, 3)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_null_case_moments(self):
        spec = ScenarioSpec(p=3, m=60_000, n=10)
        x, _ = generate_scenario(spec, 7)
        cov = np.cov(x.T)
        assert np.abs(cov - ar_covariance(3)).max() < 0.03
        assert np.abs(x.mean(axis=0)).max() < 0.02

    def test_scale_alternative_inflates_covariance(self):
        spec = ScenarioSpec(scenario=3, c=2.0, p=3, m=10, n=60_000)
        _, y = generate_scenario(spec, 11)
        assert np.abs(np.cov(y.T) - 2.0 * ar_covariance(3)).max() < 0.06

    def test_shift_spares_first_coordinate(self):
        spec = ScenarioSpec(scenario=2, c=50.0, p=3, m=10, n=50_000)
        _, y = generate_scenario(spec, 3)
        means = y.mean(axis=0)
        assert abs(means[0]) < 0.05
        assert means[1] == pytest.approx(5.0, abs=0.2)  # 10% of the mass shifted by 50
        assert means[2] == pytest.approx(5.0, abs=0.2)

    def test_full_cube_mixture(self):
        spec = ScenarioSpec(scenario=5, c=1.0, p=3, m=10, n=5000)
        _, y = generate_scenario(spec, 9)
        assert y.min() >= 0.45 and y.max() <= 0.55

    def test_cauchy_tails_present(self):
        spec = ScenarioSpec(scenario=1, c=5.0, p=3, m=20_000, n=10)
        x, _ = generate_scenario(spec, 21)
        assert np.abs(x).max() > 50  # heavy tails

    def test_scale_one_is_null(self):
        spec = ScenarioSpec(scenario=3, c=1.0, p=2, m=30, n=30)
        null = ScenarioSpec(p=2, m=30, n=30)
        x1, y1 = generate_scenario(spec, 5)
        x2, y2 = generate_scenario(null, 5)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    # SHA-256 of x.tobytes() + y.tobytes(), and the stream's next random(),
    # recorded from the generator with one helper per law.  At seed 2096
    # every mixture picks both of its components among its n = 5 points.
    @pytest.mark.parametrize("scenario, c, p, digest, next_u", [
        (0, 0.0, 1, "b7a2a788b0fa850b0f542ca414c5198ce39982377e2c8a2abbb1d3d1fff00522", 0.18623378873484553),
        (0, 0.0, 3, "500e9f531b7e728136e508ffca14d2076550c07e2bc409435f0725a18eeec862", 0.9016318474421834),
        (1, 1.5, 1, "40c3b79a9851177264abefb08ea1157f85ad25a582f670bc32d1ab9a83297c99", 0.21674640509791954),
        (1, 1.5, 3, "ae95e45ce55da20618f9ef1cd4915859ed297f6c64942d4f89fde4cc3c439b20", 0.035039699455787776),
        (2, 1.5, 1, "21e562e4146d84f0371b65f193e35c73ba352064f61b573e489db699a82b5c6d", 0.9279578455645214),
        (2, 1.5, 3, "3d974db1372b54a6d929f9671fe6bbdc0f0c38c3888f65ff2ee33856fad13a88", 0.19967843464966595),
        (3, 2.0, 1, "04a470a975fb0ef4bcd65e0c7c6f77dfaff1eaf2243a42562a8fc86b93f6b163", 0.18623378873484553),
        (3, 2.0, 3, "efda0579809a05ae539a9670536c47ecb5f09da2b57fa283f7f76e9c3de1f507", 0.9016318474421834),
        (4, 2.0, 1, "e4236b45bf4d1ec816593879f3d1c671d477974bbc79163ea6758171d857e833", 0.2678046124996596),
        (4, 2.0, 3, "8cb986d25183ea4b85b6f73faa2ed8ca767f8deeb25eb3d32424e3f51a971a0a", 0.32234434317071914),
        (5, 0.5, 1, "3e9882bfd58173a7129f9ad2fb31e3e0e27201ffd5c283e00ca67cdef3496cba", 0.9244742122638056),
        (5, 0.5, 3, "0aea57f7c299442198b86ce4b6d7c2f92f338c0e8f866b4bed76a763ab3d3acb", 0.7497330562806922),
        (6, 0.5, 1, "8d447da1220f409514e6e8616be86d4495f3131d6ea6699006ed12904f3bc87a", 0.9279578455645214),
        (6, 0.5, 3, "b0338184f23f4e83f216bb540ec9a6b801b36416c38a878a79e58d641d805eb4", 0.19967843464966595),
    ])
    def test_every_scenario_draw_is_pinned(self, scenario, c, p, digest, next_u):
        rng = np.random.default_rng(2096)
        x, y = generate_scenario(ScenarioSpec(scenario=scenario, c=c, p=p, m=7, n=5), rng)
        assert hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest() == digest
        assert rng.random() == next_u


class TestPowerStudy:
    def test_worker_count_does_not_change_results(self):
        spec = ScenarioSpec(scenario=2, c=2.0, p=3, m=20, n=20)
        tests = [TestConfig("wilcoxon", "spiral"), TestConfig("empty_block", "stairstep")]
        serial = run_power_study(spec, tests, 0.05, 60, 99, workers=1, n_null_draws=2000)
        parallel = run_power_study(spec, tests, 0.05, 60, 99, workers=3, n_null_draws=2000)
        assert [e.rejections for e in serial] == [e.rejections for e in parallel]
        assert [e.tie_retries for e in serial] == [e.tie_retries for e in parallel]

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_statistic_chunks_do_not_change_results(self, monkeypatch, chunk):
        # unequal sizes, so swapped and unswapped replicates pend apart
        spec = ScenarioSpec(scenario=2, c=1.5, p=3, m=14, n=9)
        tests = [
            TestConfig(test, plan)
            for plan in ("spiral", "stairstep")
            for test in ("wilcoxon", "terry_hoeffding", "mood", "precedence",
                         "maximal_block", "empty_block", "dixon_c2")
        ]
        default = run_power_study(spec, tests, 0.1, 40, 3, n_null_draws=2000)
        monkeypatch.setattr(simulate, "_STATISTIC_CHUNK", chunk)
        chunked = run_power_study(spec, tests, 0.1, 40, 3, n_null_draws=2000)
        assert [e.rejections for e in chunked] == [e.rejections for e in default]

    def test_null_rejection_rate_near_alpha(self):
        spec = ScenarioSpec(p=2, m=25, n=25)
        tests = [TestConfig("empty_block", "spiral"), TestConfig("wilcoxon", "spiral")]
        ests = run_power_study(spec, tests, 0.1, 800, 7, workers=2, n_null_draws=2000)
        for est in ests:
            assert abs(est.rejection_rate - 0.1) < 4 * math.sqrt(0.1 * 0.9 / 800)

    def test_degenerate_mixture_weight_is_null(self):
        spec = ScenarioSpec(scenario=2, c=0.0, p=2, m=25, n=25)
        est = run_power_study(
            spec, [TestConfig("wilcoxon", "spiral")], 0.1, 600, 13, n_null_draws=2000
        )[0]
        assert abs(est.rejection_rate - 0.1) < 4 * math.sqrt(0.1 * 0.9 / 600)

    def test_a_replicate_that_keeps_tying_raises_tie_error(self, monkeypatch):
        draws = []

        def constant(spec, rng):
            draws.append(rng)
            return np.zeros((spec.m, spec.p)), np.zeros((spec.n, spec.p))

        monkeypatch.setattr(simulate, "generate_scenario", constant)
        with pytest.raises(TieError, match="replicate 0 .* 101 times in a row"):
            run_power_study(ScenarioSpec(p=2, m=8, n=6), [TestConfig("empty_block")], 0.1, 5, 1)
        assert len(draws) == 101

    def test_a_tie_that_only_one_plan_sees_redraws_the_replicate(self, monkeypatch):
        # spiral cuts on the first two coordinates and spiral_cycle_all on
        # all three, so a tie that lands on the third reaches one plan only
        spec = ScenarioSpec(scenario=3, c=2.0, p=3, m=12, n=9)
        tests = [TestConfig("wilcoxon", "spiral"), TestConfig("wilcoxon", "spiral_cycle_all")]
        generate = simulate.generate_scenario

        def study(position: int):
            def tie_first_attempts(spec, rng):
                x, y = generate(spec, rng)
                if rng.bit_generator.seed_seq.entropy[2] == 0:
                    ahead = copy.deepcopy(rng)
                    ahead.random()  # the role swap
                    col = ahead.permutation(spec.p)[position]  # lands at `position`
                    x[1, col], y[1, col] = x[0, col], y[0, col]
                return x, y

            monkeypatch.setattr(simulate, "generate_scenario", tie_first_attempts)
            return run_power_study(spec, tests, 0.1, 30, 5, n_null_draws=2000)

        one_plan, both_plans = study(2), study(0)
        assert [e.tie_retries for e in one_plan + both_plans] == [30] * 4
        # either way every replicate is decided on its second draw
        assert [e.rejections for e in one_plan] == [e.rejections for e in both_plans]

    def test_a_worker_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_power_study(ScenarioSpec(p=2, m=8, n=6), [TestConfig("empty_block")], 0.1, 5, 1,
                            workers=0)

    @pytest.mark.parametrize("draws", [0, -5])
    def test_a_null_draw_count_below_one_is_refused(self, draws):
        # refused even when every column's null is exact and draws nothing
        with pytest.raises(ValueError, match=f"^n_null_draws must be >= 1, got {draws}$"):
            run_power_study(ScenarioSpec(p=2, m=8, n=6), [TestConfig("empty_block")], 0.1, 5, 1,
                            n_null_draws=draws)

    def test_estimate_fields(self):
        spec = ScenarioSpec(scenario=4, c=2.0, p=3, m=15, n=15)
        est = run_power_study(
            spec, [TestConfig("precedence", "stairstep", j=4)], 0.05, 50, 5,
            n_null_draws=1000,
        )[0]
        assert est.replicates == 50 and est.seed == 5
        assert est.std_error == pytest.approx(
            math.sqrt(est.rejection_rate * (1 - est.rejection_rate) / 50)
        )

    def test_runs_test_needs_univariate(self):
        spec = ScenarioSpec(p=3, m=10, n=10)
        with pytest.raises(ValueError):
            run_power_study(spec, [TestConfig("runs")], 0.05, 10, 1)

    def test_runs_test_in_univariate_study(self):
        spec = ScenarioSpec(p=1, m=15, n=15)
        est = run_power_study(spec, [TestConfig("runs")], 0.1, 400, 3)[0]
        assert abs(est.rejection_rate - 0.1) < 4 * math.sqrt(0.1 * 0.9 / 400)

    def test_dixon_exact_null_path_holds_size(self):
        # small sizes keep the squared-deviation statistic on its exact
        # rational pmf inside the harness
        spec = ScenarioSpec(p=2, m=8, n=8)
        est = run_power_study(spec, [TestConfig("dixon_c2", "spiral")], 0.1, 500, 3)[0]
        assert abs(est.rejection_rate - 0.1) < 4 * math.sqrt(0.1 * 0.9 / 500)

    def test_unknown_test_rejected(self):
        with pytest.raises(ValueError):
            TestConfig("energy")

    @pytest.mark.parametrize("args, message", [
        ((5,), "test must be a string, got 5"),
        ((None,), "test must be a string, got None"),
        (("wilcoxon", "spiral", None, 3), "alternative must be a string, got 3"),
    ])
    def test_a_name_that_is_not_a_string_is_refused(self, args, message):
        with pytest.raises(ValueError, match=message):
            TestConfig(*args)

    def test_config_aliases(self):
        assert TestConfig("RS").test == "wilcoxon"
        assert TestConfig("eb").test == "empty_block"
        assert TestConfig("eb").alternative == "upper"

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown plan label 'zigzag'"):
            TestConfig("wilcoxon", "zigzag")

    def test_plan_aliases_run_as_the_plan_they_name(self):
        # an alias shares its plan's row and direction coin; only the
        # estimate's label keeps the spelling
        spec = ScenarioSpec(scenario=3, c=2.0, p=3, m=30, n=20)
        aliased = run_power_study(
            spec,
            [TestConfig("wilcoxon", "spiral"), TestConfig("wilcoxon", "sp"),
             TestConfig("empty_block", "Stair-Step"), TestConfig("empty_block", "ss")],
            0.05, 200, 3, n_null_draws=2000,
        )
        canonical = run_power_study(
            spec,
            [TestConfig("wilcoxon", "spiral"), TestConfig("wilcoxon", "spiral"),
             TestConfig("empty_block", "stairstep"), TestConfig("empty_block", "stairstep")],
            0.05, 200, 3, n_null_draws=2000,
        )
        assert [e.rejections for e in aliased] == [e.rejections for e in canonical]
        assert [e.plan for e in aliased] == ["spiral", "sp", "Stair-Step", "ss"]

    def test_scaling_invariance_end_to_end(self):
        # multiplying one coordinate of both samples by a constant
        # leaves every decision unchanged
        from seblocks import simulate as sim

        spec = ScenarioSpec(scenario=6, c=0.2, p=2, m=20, n=20)
        tests = [TestConfig("wilcoxon", "spiral"), TestConfig("maximal_block", "stairstep")]
        base = run_power_study(spec, tests, 0.05, 80, 17, n_null_draws=1000)

        orig = sim.generate_scenario
        scale = np.array([1000.0, 1.0])

        def scaled(spec_, rng):
            x, y = orig(spec_, rng)
            return x * scale, y * scale

        sim.generate_scenario = scaled
        try:
            rescaled = run_power_study(spec, tests, 0.05, 80, 17, n_null_draws=1000)
        finally:
            sim.generate_scenario = orig
        assert [e.rejections for e in base] == [e.rejections for e in rescaled]

    def test_the_pool_forks_no_more_workers_than_chunks(self, monkeypatch):
        # a stand-in executor that records its size and maps inline, so no
        # process starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        spec = ScenarioSpec(scenario=3, c=2.0, p=2, m=12, n=12)
        tests = [TestConfig("wilcoxon", "spiral"), TestConfig("empty_block", "stairstep")]
        serial = run_power_study(spec, tests, 0.05, 3, 5, n_null_draws=500)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        pooled = run_power_study(spec, tests, 0.05, 3, 5, workers=64, n_null_draws=500)
        assert sizes == [3]
        assert pooled == serial
        run_power_study(spec, tests, 0.05, 40, 5, workers=2, n_null_draws=500)
        assert sizes == [3, 2]


def _replayed_study(spec, tests, alpha, n_replicates, base_seed, n_null_draws):
    """Rejections and tie retries of ``run_power_study``, one replicate
    at a time through the public R = 1 API: the replicate's draw, one fit
    and one count per plan, each column's null at the harness's method
    and seed key, and ``RejectionRule.decide``."""
    rejections, retries, rules = [0] * len(tests), 0, {}
    for r in range(n_replicates):
        for attempt in range(simulate._MAX_TIED + 1):
            x, y, descending, u = simulate._draw_replicate(
                spec, base_seed, r, attempt, len(tests)
            )
            (m, _), (n, _) = x.shape, y.shape
            try:
                fits = {
                    name: fit_partition(simulate._oriented_plan(name, spec.p, n, descending), y)
                    for name in {cfg.fitted_plan for cfg in tests}
                }
            except TieError:
                retries += 1
                continue
            break
        for i, cfg in enumerate(tests):
            entry, params = twosample.resolve_statistic(cfg.test, m, n, cfg.j)
            if (i, n) not in rules:
                method = twosample.null_method(entry, m, n, params, enumerate_scores=False)
                seed_key = (base_seed, simulate._NULL_SEED_TAG, i, m, n)
                null = entry.null(m, n, params, method=method, n_draws=n_null_draws, seed=seed_key)
                rules[i, n] = twosample.build_rejection_rule(null, alpha, cfg.alternative)
            counts = np.asarray(block_frequencies(fits[cfg.fitted_plan], x).counts)
            rejections[i] += int(rules[i, n].decide(entry.observe(m, n, params, counts), u[i]))
    return rejections, retries


_SIZE_SWEEP = ("wilcoxon", "van_der_waerden", "terry_hoeffding", "mood", "klotz",
               "siegel_tukey", "precedence", "maximal_block", "empty_block", "dixon_c2")


@pytest.mark.parametrize("spec, tests", [
    # the twelve ALL columns
    (ScenarioSpec(scenario=3, c=2.0, p=3, m=30, n=30), [TestConfig(**t) for t in _ALL_TESTS]),
    # the size sweep under the null with unequal sizes: role swaps, so
    # two reference sizes, two null seeds per column and two chunks pending
    (ScenarioSpec(p=3, m=25, n=18),
     [TestConfig(t, ("spiral", "stairstep")[k % 2]) for k, t in enumerate(_SIZE_SWEEP)]),
    (ScenarioSpec(scenario=3, c=2.0, p=1, m=12, n=9),
     [TestConfig("runs"), TestConfig("wilcoxon", "univariate")]),
])
def test_the_harness_decides_as_the_public_api_replayed(monkeypatch, spec, tests):
    # chunks of 8 make the 60 replicates flush many times, the last
    # chunk of each reference size short
    monkeypatch.setattr(simulate, "_STATISTIC_CHUNK", 8)
    ests = run_power_study(spec, tests, 0.1, 60, 11, n_null_draws=500)
    rejections, retries = _replayed_study(spec, tests, 0.1, 60, 11, 500)
    assert [e.rejections for e in ests] == rejections
    assert {e.tie_retries for e in ests} == {retries}


def _decide_by_definition(rule, statistic, uniform):
    """The randomized rule's decision of one reported statistic: beyond
    a critical atom it rejects, on one when the uniform is below the
    atom's gamma."""
    if rule.lower_critical is not None and statistic < rule.lower_critical:
        return True
    if rule.upper_critical is not None and statistic > rule.upper_critical:
        return True
    g = rule.gamma_at(statistic)
    return g > 0 and uniform < float(g)


def _harness_rule(test, m, n, alternative, alpha, method, n_draws, seed):
    """The rule the harness builds for a column, with raw critical
    atoms, and the same rule over the reported statistics."""
    entry, params = twosample.resolve_statistic(test, m, n)
    null = entry.null(m, n, params, method=method, n_draws=n_draws, seed=seed)
    rule = twosample.build_rejection_rule(null, alpha, alternative)
    raw_rule = simulate._cached_rule(test, m, n, None, alternative, alpha, method, n_draws, seed)
    return rule, raw_rule


def _assert_decides_as_the_rule(rule, raw_rule, entry, m, n, params, raw_values):
    """``raw_rule.rejects`` rejects ``raw_values`` of ``entry`` exactly
    where the definition rejects their reported values under ``rule``,
    and so does ``rule.decide``, for uniforms at, just below and away
    from every gamma the rule can use."""
    gammas = {float(rule.lower_gamma), float(rule.upper_gamma),
              float(rule.lower_gamma + rule.upper_gamma)}
    uniforms = sorted({0.0, 0.5, np.nextafter(1.0, 0.0)} | gammas
                      | {float(np.nextafter(g, 0.0)) for g in gammas if g > 0})
    values = np.repeat(raw_values, len(uniforms))
    u = np.tile(uniforms, len(raw_values))
    rejects = raw_rule.rejects(values, u)
    assert rejects.dtype == bool
    reported = [entry.value(v, m, n, params) for v in values]
    expected = [_decide_by_definition(rule, s, x) for s, x in zip(reported, u.tolist())]
    assert rejects.tolist() == expected
    assert [rule.decide(s, x) for s, x in zip(reported, u.tolist())] == expected


@pytest.mark.parametrize("test", _SIZE_SWEEP)
def test_the_chunk_decision_is_the_rule_decision_value_by_value(test):
    m, n = 9, 7
    entry, params = twosample.resolve_statistic(test, m, n)
    method = twosample.null_method(entry, m, n, params, enumerate_scores=False)
    null = entry.null(m, n, params, method=method, n_draws=300, seed=4)
    atoms = sorted(entry.raw_atom(a, m, n, params) for a in null.support)
    if isinstance(atoms[0], float) and test != "wilcoxon":
        between = [(a + b) / 2 for a, b in zip(atoms, atoms[1:])] + [atoms[0] - 1, atoms[-1] + 1]
    else:  # integer raw values: one either side of every atom
        between = [a + d for a in atoms for d in (-1, 1)]
    raw_values = np.array(sorted(set(atoms + between)), dtype=type(atoms[0]))
    for alpha in (0.05, 0.3):
        for alternative in ("lower", "upper", "two-sided"):
            rules = _harness_rule(test, m, n, alternative, alpha, method, 300, 4)
            _assert_decides_as_the_rule(*rules, entry, m, n, params, raw_values)


def test_the_chunk_decision_sums_the_gammas_of_coinciding_atoms():
    entry = twosample.STATISTICS["empty_block"]
    rule, raw_rule = _harness_rule("empty_block", 1, 1, "two-sided", 0.9, "exact", 300, 0)
    assert rule.lower_critical == rule.upper_critical == 1
    # the atom rejects below the summed gamma, not below either one
    both = float(rule.lower_gamma + rule.upper_gamma)
    for r in (rule, raw_rule):
        assert r.rejects(1, np.nextafter(both, 0.0)) and not r.rejects(1, both)
    _assert_decides_as_the_rule(rule, raw_rule, entry, 1, 1, None, np.array([0, 1, 2]))


def test_the_chunk_decision_compares_dixon_past_int64_exactly():
    # m^2 n (n+1) passes int64, so the raw values are Python integers
    m = n = 60_000
    entry = twosample.STATISTICS["dixon_c2"]
    null = entry.null(m, n, None, method="monte_carlo", n_draws=20, seed=3)
    counts = np.zeros((2, n + 1), dtype=np.int64)
    counts[0, 0] = m  # every point in one block
    counts[1, 1:] = 1  # one point per block but the first
    raw = entry.bind_raw(m, n, None)(counts)
    assert raw.dtype == object and raw[0] > np.iinfo(np.int64).max
    atoms = [entry.raw_atom(a, m, n, None) for a in null.support]
    raw_values = np.array(sorted({*raw.tolist(), *atoms, *(a + d for a in atoms for d in (-1, 1))}),
                          dtype=object)
    for alternative in ("lower", "upper", "two-sided"):
        rules = _harness_rule("dixon_c2", m, n, alternative, 0.3, "monte_carlo", 20, 3)
        _assert_decides_as_the_rule(*rules, entry, m, n, None, raw_values)


def test_a_scalar_statistic_is_decided_as_a_0d_array():
    # Dixon's reported statistics are Fractions, compared in Python
    entry = twosample.STATISTICS["dixon_c2"]
    null = entry.null(9, 7, None, method="exact")
    for alternative in ("lower", "upper", "two-sided"):
        rule = twosample.build_rejection_rule(null, 0.3, alternative)
        gammas = {float(rule.lower_gamma), float(rule.upper_gamma)}
        for atom in null.support:
            assert isinstance(atom, Fraction)
            for u in sorted(gammas | {0.0, 0.5} | {float(np.nextafter(g, 0.0)) for g in gammas}):
                rejects = rule.rejects(atom, u)
                assert rejects.shape == () and rejects.dtype == bool
                assert bool(rejects) == _decide_by_definition(rule, atom, u)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 5, 9, 40])
def test_a_descending_plan_is_the_mirrored_plan(p, n):
    spiral = simulate._oriented_plan("spiral", p, n, True)
    assert spiral == make_spiral_plan(p, n, axes=figure_axes(p), start=Direction.MAX)
    assert simulate._oriented_plan("stairstep", p, n, True) == make_plan("stairstep_max", p, n)
    for name in ("spiral", "stairstep", "spiral_paired", "univariate"):
        if p == 1 or not name.startswith("univariate"):
            assert simulate._oriented_plan(name, p, n, False) == make_plan(name, p, n)


class TestDiagnostics:
    def test_coverage_matches_block_count(self):
        rng = np.random.default_rng(2)
        plan = make_plan("spiral", 2, 9)
        fitted = fit_partition(plan, rng.standard_normal((9, 2)))
        diag = coverage_diagnostic(
            fitted, lambda k, r: r.standard_normal((k, 2)), draws=20_000, seed=3
        )
        assert diag.coverages.shape == (10,)
        assert diag.coverages.sum() == pytest.approx(1.0)

    def test_mean_coverage_over_refits(self):
        # each block's coverage averages 1/(n+1) over refitted partitions
        rng = np.random.default_rng(4)
        n = 9
        plan = make_plan("spiral", 3, n)
        total = np.zeros(n + 1)
        refits = 150
        for i in range(refits):
            fitted = fit_partition(plan, rng.standard_normal((n, 3)))
            diag = coverage_diagnostic(
                fitted, lambda k, r: r.standard_normal((k, 3)), draws=800, seed=rng
            )
            total += diag.coverages
        mean = total / refits
        # Var of a single coverage is n/((n+1)^2 (n+2)) under the flat law
        se = math.sqrt(n / ((n + 1) ** 2 * (n + 2)) / refits)
        assert np.abs(mean - 1 / (n + 1)).max() < 4 * se + 0.01

    def test_first_blocks_cumulative_coverage(self):
        rng = np.random.default_rng(14)
        n, k = 9, 4
        plan = make_plan("stairstep", 2, n)
        acc = 0.0
        refits = 150
        for _ in range(refits):
            fitted = fit_partition(plan, rng.standard_normal((n, 2)))
            diag = coverage_diagnostic(
                fitted, lambda kk, r: r.standard_normal((kk, 2)), draws=800, seed=rng
            )
            acc += diag.coverages[:k].sum()
        # combined coverage of k blocks averages k/(n+1)
        var = k * (n + 1 - k) / ((n + 1) ** 2 * (n + 2))
        assert abs(acc / refits - k / (n + 1)) < 4 * math.sqrt(var / refits) + 0.01

    def test_uniformity_check_small(self):
        report = frequency_uniformity_check(2, 2, 2, "spiral", 30_000, seed=6)
        assert report.n_possible == 6
        assert report.max_se_deviation < 4.0
        assert sum(report.counts.values()) == 30_000

    def test_uniformity_distribution_free(self):
        a = frequency_uniformity_check(2, 2, 2, "spiral", 20_000, seed=8, generator="normal")
        b = frequency_uniformity_check(2, 2, 2, "spiral", 20_000, seed=8, generator="cauchy")
        assert a.max_se_deviation < 4.0 and b.max_se_deviation < 4.0


def _tally_one_pair_at_a_time(m, n, p, label, replicates, seed, draw):
    """The uniformity tally by its definition: one pair per replicate,
    a pair with a tied reference sample redrawn from the same stream."""
    plan = make_plan(label, p, n)
    rng = np.random.default_rng(seed)
    counts = {}
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
    return counts


def _shifted_laplace(k, p, rng):
    return rng.laplace(size=(k, p)) + 3.0


def _rounded_normal(k, p, rng):
    # one decimal: about one reference sample in four has a tie
    return np.round(rng.standard_normal((k, p)), 1)


class TestBatchedUniformity:
    @pytest.mark.parametrize("generator, replicates, batch_points", [
        ("normal", 3000, None),
        ("cauchy", 3000, None),
        (_shifted_laplace, 3000, None),
        (_rounded_normal, 5000, None),
        (_rounded_normal, 500, 60),  # 10 pairs per kernel call, many shortfall rounds
    ])
    def test_tally_equals_the_one_pair_loop(self, monkeypatch, generator, replicates, batch_points):
        if batch_points:
            monkeypatch.setattr(simulate, "_UNIFORMITY_BATCH_POINTS", batch_points)
        draw = simulate._standard_generator(generator) if isinstance(generator, str) else generator
        report = frequency_uniformity_check(3, 3, 2, "spiral", replicates, seed=41, generator=generator)
        assert report.counts == _tally_one_pair_at_a_time(3, 3, 2, "spiral", replicates, 41, draw)
        # two calls share their key objects, not equal copies
        again = frequency_uniformity_check(3, 3, 2, "spiral", replicates, seed=41, generator=generator)
        assert list(again.counts.items()) == list(report.counts.items())
        assert all(a is b for a, b in zip(again.counts, report.counts))

    @pytest.mark.parametrize("generator", ["normal", "Normal", "cauchy", "CAUCHY"])
    @pytest.mark.parametrize("p, label", [(1, "univariate"), (2, "spiral"), (3, "spiral")])
    def test_a_named_law_gives_the_one_pair_tally(self, monkeypatch, generator, p, label):
        draw = simulate._standard_generator(generator)
        for batch_points in (None, 60):  # 60: many rounds, as few as 7 pairs each
            if batch_points:
                monkeypatch.setattr(simulate, "_UNIFORMITY_BATCH_POINTS", batch_points)
            for m, n in [(1, 1), (3, 3), (2, 5), (6, 2)]:
                report = frequency_uniformity_check(m, n, p, label, 300, seed=17, generator=generator)
                expected = _tally_one_pair_at_a_time(m, n, p, label, 300, 17, draw)
                assert report.counts == expected, (batch_points, m, n)

    @pytest.mark.parametrize("generator", [5, None, np.zeros((3, 2))])
    def test_a_generator_neither_named_nor_callable_is_refused(self, generator):
        with pytest.raises(ValueError, match="generator must be 'normal', 'cauchy' or a callable"):
            frequency_uniformity_check(3, 3, 2, "spiral", 10, generator=generator)

    @pytest.mark.parametrize("m, n, replicates, all_seen", [
        (3, 3, 12, False), (4, 2, 5, False), (2, 2, 3000, True), (1, 4, 2000, True),
    ])
    def test_max_se_deviation_equals_the_walk_over_every_vector(self, m, n, replicates, all_seen):
        report = frequency_uniformity_check(m, n, 2, "spiral", replicates, seed=3)
        assert (len(report.counts) == report.n_possible) == all_seen
        u = 1.0 / report.n_possible
        se = math.sqrt(u * (1.0 - u) / replicates)
        walk = max(
            abs(report.counts.get(v, 0) / replicates - u) / se
            for v in enumerate_frequency_vectors(m, n).vectors
        )
        assert report.max_se_deviation == walk

    def test_a_check_above_the_enumeration_cap_is_refused(self, monkeypatch):
        monkeypatch.delenv("SEBLOCKS_ENUM_CAP", raising=False)
        with pytest.raises(CapacityError) as caught:
            frequency_uniformity_check(13, 13, 2, "spiral", 10)
        assert str(caught.value) == "C(26, 13) = 10400600 vectors cannot be tabulated"
        # the cap itself is allowed: C(6, 3) = 20
        monkeypatch.setenv("SEBLOCKS_ENUM_CAP", "19")
        with pytest.raises(CapacityError, match=r"^C\(6, 3\) = 20 vectors cannot be tabulated$"):
            frequency_uniformity_check(3, 3, 2, "spiral", 10)
        monkeypatch.setenv("SEBLOCKS_ENUM_CAP", "20")
        assert frequency_uniformity_check(3, 3, 2, "spiral", 10).n_possible == 20

    def test_a_cap_past_the_int64_ranks_is_refused(self, monkeypatch):
        monkeypatch.setenv("SEBLOCKS_ENUM_CAP", str(10**26))
        with pytest.raises(ValueError, match=r"^SEBLOCKS_ENUM_CAP must be below 2\^63"):
            frequency_uniformity_check(40, 40, 2, "spiral", 10)

    @pytest.mark.parametrize("label, p, match", [
        ("no_such_plan", 2, "unknown plan label"),
        ("univariate", 2, "univariate plan requires 1-dimensional data"),
    ])
    def test_a_plan_the_check_cannot_build_is_refused(self, label, p, match):
        for _ in range(2):  # a refusal is not cached away
            with pytest.raises(ValueError, match=match):
                frequency_uniformity_check(3, 3, p, label, 10)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 7), (7, 1), (2, 5), (5, 5), (12, 1), (3, 9)])
    def test_the_rank_is_the_position_in_the_enumeration(self, m, n):
        vectors = enumerate_frequency_vectors(m, n).vectors
        ranks = nulldist._lexicographic_rank(np.array(vectors), m, n)
        assert ranks.dtype == np.int64
        assert ranks.tolist() == list(range(len(vectors)))

    def test_a_batch_of_only_tied_pairs_tallies_nothing(self):
        # three pairs per kernel call: the first 30 reference samples tie,
        # so the first ten calls count no pair
        calls = []

        def draw(k, p, rng):
            calls.append(k)
            tied = len(calls) % 2 == 0 and len(calls) <= 60
            return np.zeros((k, p)) if tied else rng.standard_normal((k, p))

        report = frequency_uniformity_check(3, 3, 2, "spiral", 3, seed=2, generator=draw)
        calls.clear()
        assert report.counts == _tally_one_pair_at_a_time(3, 3, 2, "spiral", 3, 2, draw)
        assert sum(report.counts.values()) == 3

    def test_a_flat_univariate_draw_is_one_coordinate(self):
        def flat(k, p, rng):
            return rng.standard_normal(k)

        def column(k, p, rng):
            return rng.standard_normal((k, 1))

        a = frequency_uniformity_check(3, 3, 1, "univariate", 500, seed=5, generator=flat)
        b = frequency_uniformity_check(3, 3, 1, "univariate", 500, seed=5, generator=column)
        assert a.counts == b.counts
        assert sum(a.counts.values()) == 500

    @pytest.mark.parametrize("replicates", [1, 5000])
    def test_a_generator_that_always_ties_is_refused(self, replicates):
        with pytest.raises(TieError, match="in a row"):
            frequency_uniformity_check(
                3, 3, 2, "spiral", replicates, generator=lambda k, p, rng: np.zeros((k, p))
            )

    def test_the_tie_bound_counts_ties_across_batches(self):
        # three replicates are three pairs per kernel call, so a run of
        # 101 ties spans 34 calls; 100 ties and then an untied pair pass

        def ties_first(run):
            calls = []

            def draw(k, p, rng):
                calls.append(k)
                tied = len(calls) % 2 == 0 and len(calls) <= 2 * run
                return np.zeros((k, p)) if tied else rng.standard_normal((k, p))

            return draw

        report = frequency_uniformity_check(3, 3, 2, "spiral", 3, generator=ties_first(100))
        assert sum(report.counts.values()) == 3
        with pytest.raises(TieError, match="101 reference samples in a row"):
            frequency_uniformity_check(3, 3, 2, "spiral", 3, generator=ties_first(101))

    @pytest.mark.parametrize("shape", [lambda k, p: (k + 1, p), lambda k, p: (k, p + 1),
                                       lambda k, p: (k,), lambda k, p: (1, p)])
    def test_a_generator_of_the_wrong_shape_is_rejected(self, shape):
        def draw(k, p, rng):
            return rng.standard_normal(shape(k, p))

        with pytest.raises(ValueError, match=r"generator returned shape .* expected \(3, 2\)"):
            frequency_uniformity_check(3, 3, 2, "spiral", 10, generator=draw)
