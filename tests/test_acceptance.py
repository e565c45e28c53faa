"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a PASS line with the
measured quantities so a run doubles as a verification report.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from seblocks import cli
from seblocks.nulldist import (
    empty_block_pmf,
    enumerate_frequency_vectors,
    interior_exterior_empty_pmf,
    joint_block_pmf,
    maximal_block_pmf,
    precedence_pmf,
    runs_pmf,
)
from seblocks.partition import BlockFrequencies, Sample, block_frequencies, fit_partition, make_plan
from seblocks.simulate import (
    ScenarioSpec,
    TestConfig,
    frequency_uniformity_check,
    run_power_study,
)
from seblocks.twosample import (
    build_rejection_rule,
    dixon_c2_test,
    empty_block_test,
    frequencies_from_indicator,
    linear_rank_test,
    make_scores,
    maximal_block_test,
    precedence_test,
    randomized_decision,
    runs_test,
)

Z_NULL = (1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0)
Z_ALT = (1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0)


def test_01_closed_forms_match_enumeration_everywhere():
    """Every exact pmf equals the brute-force law over all equally
    likely frequency vectors, for every size pair with m + n <= 12."""
    t0 = time.monotonic()
    pairs = 0
    for total in range(2, 13):
        for m in range(1, total):
            n = total - m
            enum = enumerate_frequency_vectors(m, n)
            count = enum.count
            prec: dict = {j: {} for j in range(1, n + 1)}
            maxb: dict = {j: {} for j in range(1, n + 2)}
            empties: dict = {}
            inex: dict = {}
            runs: dict = {}
            singles: dict = {}
            pairs2: dict = {}
            for vec in enum.vectors:
                cum = 0
                pref = 0
                for j in range(1, n + 2):
                    cum += vec[j - 1]
                    pref = max(pref, vec[j - 1])
                    if j <= n:
                        prec[j][cum] = prec[j].get(cum, 0) + 1
                    maxb[j][pref] = maxb[j].get(pref, 0) + 1
                s0 = sum(1 for c in vec if c == 0)
                empties[s0] = empties.get(s0, 0) + 1
                if n >= 2:
                    key = (sum(1 for c in vec[1:-1] if c == 0), (vec[0] == 0) + (vec[-1] == 0))
                    inex[key] = inex.get(key, 0) + 1
                # runs of the pooled arrangement the vector encodes
                u = 1
                prev = 1 if vec[0] else 0
                for k in range(n):
                    if prev != 0:
                        u += 1
                    prev = 0
                    if vec[k + 1]:
                        u += 1
                        prev = 1
                if m and n:
                    runs[u] = runs.get(u, 0) + 1
                singles[vec[0]] = singles.get(vec[0], 0) + 1
                if n >= 1:
                    key2 = (vec[0], vec[1])
                    pairs2[key2] = pairs2.get(key2, 0) + 1

            for j in range(1, n + 1):
                pmf = precedence_pmf(m, n, j)
                assert {v: p for v, p in zip(pmf.support, pmf.probs) if p} == {
                    k: Fraction(v, count) for k, v in prec[j].items()
                }
            for j in range(1, n + 2):
                pmf = maximal_block_pmf(m, n, j)
                assert {v: p for v, p in zip(pmf.support, pmf.probs) if p} == {
                    k: Fraction(v, count) for k, v in maxb[j].items()
                }
            pmf = empty_block_pmf(m, n)
            assert {v: p for v, p in zip(pmf.support, pmf.probs) if p} == {
                k: Fraction(v, count) for k, v in empties.items()
            }
            pmf = runs_pmf(m, n)
            assert {v: p for v, p in zip(pmf.support, pmf.probs) if p} == {
                k: Fraction(v, count) for k, v in runs.items()
            }
            if n >= 2:
                joint = interior_exterior_empty_pmf(m, n)
                assert dict(joint.atoms) == {
                    k: Fraction(v, count) for k, v in inex.items()
                }
            for t in range(m + 1):
                assert joint_block_pmf(m, n, (t,)) == Fraction(singles.get(t, 0), count)
            for a in range(m + 1):
                for b in range(m + 1 - a):
                    assert joint_block_pmf(m, n, (a, b)) == Fraction(
                        pairs2.get((a, b), 0), count
                    )
            pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nPASS 01 oracle equivalence: {pairs} size pairs, exact rational match, {elapsed:.1f}s")


def test_02_runs_and_empty_block_identities():
    """The runs law coincides with the interior/exterior empty-block law
    through the even/odd correspondences, as exact rationals."""
    checked = 0
    for n in range(2, 11):
        for m in range(1, 11):
            runs = runs_pmf(m, n)
            joint = interior_exterior_empty_pmf(m, n)
            for u in runs.support:
                if u % 2 == 0:
                    assert runs.p(u) == joint.p(((2 * n - u) // 2, 1))
                else:
                    assert runs.p(u) == joint.p(((2 * n - u - 1) // 2, 2)) + joint.p(
                        ((2 * n - u + 1) // 2, 0)
                    )
                checked += 1
    print(f"\nPASS 02 runs identities: {checked} exact equalities over 90 size pairs")


def test_03_published_worked_example_statistics():
    """Rank statistics and p-values from the published indicator
    vectors of the bivariate worked example."""
    f_null = frequencies_from_indicator(np.array(Z_NULL))
    f_alt = frequencies_from_indicator(np.array(Z_ALT))
    assert (f_null.m, f_null.n) == (8, 6)

    wil = make_scores("wilcoxon", 8, 6)
    r_null = linear_rank_test(f_null, wil)
    r_alt = linear_rank_test(f_alt, wil)
    assert r_null.statistic == 57 and r_alt.statistic == 40
    assert abs(r_null.p_two_sided - 0.755) <= 0.02
    assert abs(r_alt.p_two_sided - 0.008) <= 0.02

    th = make_scores("terry_hoeffding", 8, 6)
    t_null = linear_rank_test(f_null, th).statistic
    t_alt = linear_rank_test(f_alt, th).statistic
    assert abs(t_null - (-0.9410)) <= 0.005
    assert abs(t_alt - (-4.474)) <= 0.005

    vdw = make_scores("van_der_waerden", 8, 6)
    v_null = linear_rank_test(f_null, vdw).statistic
    v_alt = linear_rank_test(f_alt, vdw).statistic
    assert abs(v_null - (-0.8012)) <= 0.005
    assert abs(v_alt - (-4.0764)) <= 0.005
    print(
        f"\nPASS 03 worked example: W=57/40, p2={r_null.p_two_sided:.4f}/{r_alt.p_two_sided:.5f}, "
        f"TH={t_null:.4f}/{t_alt:.4f}, VdW={v_null:.4f}/{v_alt:.4f}"
    )


def test_04_univariate_runs_examples():
    """The two univariate illustrations: well-mixed data keeps the null,
    separated data rejects at the 5% level."""
    mixed_x = Sample([-4.62, -1.56, -0.21, 0.13, 0.27])
    mixed_y = Sample([-0.36, 0.00, 0.75, 3.32])
    res = runs_test(mixed_x, mixed_y)
    assert res.statistic == 6
    dec = randomized_decision(res, 0.05, seed=0)
    assert not dec.reject and dec.gamma == 0.0

    apart_x = Sample([-1.89, 1.77, 2.25, 1.23, -0.94])
    apart_y = Sample([9.53, 11.43, 5.91, 9.70])
    res2 = runs_test(apart_x, apart_y)
    assert res2.statistic == 2
    for seed in range(3):
        assert randomized_decision(res2, 0.05, seed=seed).reject
    print(f"\nPASS 04 runs examples: U=6 retained (p={res.p_lower:.3f}), U=2 rejected (p={res2.p_lower:.4f})")


def _size_sweep(p, seed, include_runs):
    tests = [TestConfig(t, "spiral") for t in (
        "wilcoxon", "van_der_waerden", "terry_hoeffding", "mood", "klotz",
        "siegel_tukey", "precedence", "maximal_block", "empty_block", "dixon_c2",
    )]
    if p == 3:
        tests += [TestConfig(t, "stairstep") for t in (
            "wilcoxon", "van_der_waerden", "terry_hoeffding", "mood", "klotz",
            "siegel_tukey", "precedence", "maximal_block", "empty_block", "dixon_c2",
        )]
    if include_runs:
        tests.append(TestConfig("runs"))
    spec = ScenarioSpec(p=p, m=50, n=50)
    return run_power_study(spec, tests, 0.05, 10_000, seed, workers=4)


@pytest.mark.slow
def test_05_randomized_tests_hold_exact_size_in_any_dimension():
    """Under identical populations every shipped test rejects at the
    nominal 5% rate (within 3 binomial standard errors of 10,000
    replicates) whatever the dimension."""
    t0 = time.monotonic()
    worst = 0.0
    cells = 0
    for p in (1, 3, 5):
        for est in _size_sweep(p, seed=20260805, include_runs=(p == 1)):
            dev = abs(est.rejection_rate - 0.05)
            worst = max(worst, dev)
            cells += 1
            assert dev <= 0.0065, (p, est.test, est.plan, est.rejection_rate)
    elapsed = time.monotonic() - t0
    print(
        f"\nPASS 05 exact size: {cells} test/plan/dimension cells at m=n=50, "
        f"max |rate-0.05| = {worst:.4f} <= 0.0065, {elapsed:.0f}s"
    )


@pytest.mark.slow
def test_06_power_spot_checks_match_published_tables():
    """Five published power values at m=n=200, p=3, alpha=0.05,
    re-estimated with 1,000 replicates."""
    t0 = time.monotonic()
    cells = [
        (3, 2.5, TestConfig("wilcoxon", "spiral"), 1.0000, None),
        (3, 2.0, TestConfig("empty_block", "spiral"), 0.5421, 0.06),
        (1, 10.0, TestConfig("maximal_block", "spiral"), 0.3604, 0.06),
        (5, 0.3, TestConfig("wilcoxon", "spiral"), 0.9640, 0.05),
        (2, 2.5, TestConfig("terry_hoeffding", "stairstep"), 0.3280, 0.06),
    ]
    got = []
    for scenario, c, cfg, published, tol in cells:
        spec = ScenarioSpec(scenario=scenario, c=c, p=3, m=200, n=200)
        est = run_power_study(spec, [cfg], 0.05, 1000, 20260809, workers=4)[0]
        got.append(est.rejection_rate)
        if tol is None:
            assert est.rejection_rate >= 0.99, (cfg.label, est.rejection_rate)
        else:
            assert abs(est.rejection_rate - published) <= tol, (
                cfg.label, est.rejection_rate, published,
            )
    elapsed = time.monotonic() - t0
    print(
        "\nPASS 06 power spot checks: "
        + ", ".join(f"{r:.3f}" for r in got)
        + f" vs published 1.000, 0.542, 0.360, 0.964, 0.328; {elapsed:.0f}s"
    )


def _random_monotone_transform(rng, p):
    """A strictly increasing map drawn independently per coordinate."""
    funcs = []
    for _ in range(p):
        kind = rng.integers(0, 4)
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-4.0, 4.0))
        s = float(rng.uniform(0.4, 1.2))
        if kind == 0:
            funcs.append(lambda v, a=a, b=b: a * v + b)
        elif kind == 1:
            funcs.append(lambda v, a=a, b=b: a * v**3 + (abs(b) + 0.2) * v)
        elif kind == 2:
            funcs.append(lambda v, s=s: np.exp(s * v))
        else:
            funcs.append(lambda v, a=a, b=b: a * np.arcsinh(v) + b)
    def apply(pts):
        out = np.empty_like(pts)
        for col, fn in enumerate(funcs):
            out[:, col] = fn(pts[:, col])
        return out
    return apply


def _invariance_snapshot(x, y, seed):
    results = {}
    score_tests = ("wilcoxon", "van_der_waerden", "terry_hoeffding", "mood", "klotz", "siegel_tukey")
    for pi, plan_name in enumerate(("spiral", "stairstep")):
        plan = make_plan(plan_name, x.shape[1], y.shape[0])
        freqs = block_frequencies(fit_partition(plan, y), x)
        m, n = freqs.m, freqs.n
        runners = [
            (name, lambda f, nm=name: linear_rank_test(
                f, make_scores(nm, m, n),
                method="exact" if nm == "wilcoxon" else "monte_carlo",
                n_draws=2000, seed=7,
            ))
            for name in score_tests
        ] + [
            ("precedence", lambda f: precedence_test(f)),
            ("maximal_block", lambda f: maximal_block_test(f)),
            ("empty_block", lambda f: empty_block_test(f)),
            ("dixon_c2", lambda f: dixon_c2_test(f)),
        ]
        for ti, (name, runner) in enumerate(runners):
            res = runner(freqs)
            dec = randomized_decision(res, 0.05, seed=(seed, pi, ti))
            results[(plan_name, name)] = (
                res.statistic, res.p_lower, res.p_upper, res.p_two_sided, dec.reject,
            )
    return results


def test_07_monotone_rescaling_leaves_all_decisions_identical():
    """100 random strictly increasing per-coordinate maps applied to
    both samples leave statistics, p-values, and decisions bit-equal."""
    rng = np.random.default_rng(20260801)
    x = rng.standard_normal((8, 3))
    y = rng.standard_normal((7, 3))
    baseline = _invariance_snapshot(x, y, seed=55)

    xr = rng.standard_normal((9, 1))
    yr = rng.standard_normal((6, 1))
    runs_base = runs_test(xr, yr)
    runs_dec = randomized_decision(runs_base, 0.05, seed=3).reject

    for k in range(100):
        warp = _random_monotone_transform(rng, 3)
        assert _invariance_snapshot(warp(x), warp(y), seed=55) == baseline, k
        warp1 = _random_monotone_transform(rng, 1)
        res = runs_test(warp1(xr), warp1(yr))
        assert res.statistic == runs_base.statistic
        assert res.p_lower == runs_base.p_lower
        assert randomized_decision(res, 0.05, seed=3).reject == runs_dec
    print("\nPASS 07 invariance: 100 random monotone rescalings, all outputs bit-identical")


@pytest.mark.slow
def test_08_frequency_vectors_are_uniform_under_the_null():
    """With both samples from one continuous distribution, all 20
    frequency vectors at m=n=3 appear with probability 1/20 (within 4
    standard errors of 200,000 replicates), for normal and Cauchy data."""
    t0 = time.monotonic()
    devs = []
    for generator in ("normal", "cauchy"):
        report = frequency_uniformity_check(
            3, 3, 2, "spiral", 200_000, seed=20260803, generator=generator
        )
        assert report.n_possible == 20
        assert len(report.counts) == 20
        devs.append(report.max_se_deviation)
        assert report.max_se_deviation <= 4.0, (generator, report.max_se_deviation)
    elapsed = time.monotonic() - t0
    print(
        f"\nPASS 08 uniform frequency law: max deviations {devs[0]:.2f} / {devs[1]:.2f} SE "
        f"(normal / cauchy), {elapsed:.0f}s"
    )


def test_09_precedence_pmf_equals_beta_mixed_binomial():
    """The closed-form precedence law equals the beta-mixture binomial
    integral to 1e-10, computed by adaptive quadrature."""
    grid = [
        (1, 1, 1), (2, 3, 2), (3, 2, 1), (4, 4, 2), (5, 5, 2), (5, 5, 4),
        (6, 3, 3), (7, 2, 2), (8, 6, 3), (8, 6, 6), (9, 4, 1), (10, 10, 5),
        (11, 5, 4), (12, 8, 7), (13, 6, 2), (14, 3, 1), (15, 10, 9),
        (16, 7, 5), (18, 9, 4), (20, 12, 6),
    ]
    assert len(grid) == 20
    worst = 0.0
    for m, n, j in grid:
        pmf = precedence_pmf(m, n, j)
        beta_const = math.exp(math.lgamma(j) + math.lgamma(n + 1 - j) - math.lgamma(n + 1))
        for t in range(m + 1):
            coef = math.comb(m, t) / beta_const

            def integrand(q, t=t, coef=coef):
                return coef * q ** (t + j - 1) * (1.0 - q) ** (m - t + n - j)

            value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, limit=200)
            worst = max(worst, abs(value - float(pmf.p(t))))
    assert worst <= 1e-10
    print(f"\nPASS 09 beta-binomial identity: 20 parameter triples, max |diff| = {worst:.2e}")


def test_10_power_study_output_is_worker_count_invariant(tmp_path):
    """The power command writes byte-identical results for the same seed
    under 1, 4, and 8 workers, run twice each."""
    cfg = {
        "m": 20, "n": 20, "p": 3, "alpha": 0.05, "replicates": 240,
        "seed": 606, "null_draws": 20_000,
        "runs": [
            {"scenario": 3, "c": 2.0, "tests": [
                {"test": "wilcoxon", "plan": "spiral"},
                {"test": "van_der_waerden", "plan": "stairstep"},
                {"test": "empty_block", "plan": "spiral"},
            ]},
        ],
    }
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for workers in (1, 4, 8):
        for rep in (0, 1):
            prefix = tmp_path / f"out_w{workers}_r{rep}"
            code = cli.main([
                "power", "--config", str(cfg_path), "--workers", str(workers),
                "--out", str(prefix),
            ])
            assert code == 0
            outputs.append(
                ((prefix.with_suffix(".csv")).read_bytes(), (prefix.with_suffix(".json")).read_bytes())
            )
    assert all(o == outputs[0] for o in outputs[1:])
    print("\nPASS 10 determinism: 6 runs (2 each at 1/4/8 workers) byte-identical")
