"""The statistic table: outputs pinned before the table replaced the
per-test code paths, the CLI against the library for every test name,
and exact atom matching between observed statistics and Monte Carlo
nulls."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from seblocks import cli, nulldist, simulate, twosample
from seblocks.partition import (
    BlockFrequencies, Sample, block_frequencies, fit_partition, make_plan,
)
from seblocks.simulate import KNOWN_TESTS, SCORE_TESTS, ScenarioSpec, TestConfig, run_power_study

Y_TOY = [
    [1.28, 0.87], [-0.79, -0.96], [0.70, 0.65],
    [-1.23, 1.58], [-0.24, -0.68], [-0.40, 1.36],
]
X_ALT = [
    [-0.25, -1.79], [-2.21, -0.26], [0.11, -1.66], [-1.45, -1.42],
    [0.64, -1.66], [0.81, -1.88], [-3.18, -2.01], [-2.18, -0.61],
]
X_UNI = [[-4.62], [-1.56], [-0.21], [0.13], [0.27]]
Y_UNI = [[-0.36], [0.00], [0.75], [3.32]]

# Recorded from the per-test code paths the table replaced.
PINNED_REJECTIONS = {
    "A": [8, 8, 8, 5, 7, 5, 11, 5, 8, 8, 5, 9],
    "B": [11, 17],
    "C": [4, 3],
}

PINNED_PAYLOADS = {
    "wilcoxon": (2, {
        "statistic": 40, "statistic_name": "linear_rank[wilcoxon]",
        "p_lower": 0.003996003996003996, "p_upper": 0.9976689976689976,
        "p_two_sided": 0.007992007992007992, "p_value": 0.007992007992007992,
        "alternative": "two-sided", "method": "exact", "m": 8, "n": 6, "scores": "wilcoxon",
        "p": 2, "seed": 0, "plan": "spiral", "null": "exact", "null_atoms": 49, "alpha": 0.05,
        "reject": True, "gamma": 0.0,
    }),
    "van_der_waerden": (2, {
        "statistic": -4.076404519463812, "statistic_name": "linear_rank[van_der_waerden]",
        "p_lower": 0.00333000333000333, "p_upper": 0.9976689976689976,
        "p_two_sided": 0.00666000666000666, "p_value": 0.00666000666000666,
        "alternative": "two-sided", "method": "exact", "m": 8, "n": 6,
        "scores": "van_der_waerden", "p": 2, "seed": 0, "plan": "spiral", "null": "exact",
        "null_atoms": 1797, "alpha": 0.05, "reject": True, "gamma": 0.0,
    }),
    "van_der_waerden:monte_carlo": (2, {
        "statistic": -4.076404519463812, "statistic_name": "linear_rank[van_der_waerden]",
        "p_lower": 0.0025, "p_upper": 0.998, "p_two_sided": 0.005, "p_value": 0.005,
        "alternative": "two-sided", "method": "monte_carlo", "m": 8, "n": 6,
        "scores": "van_der_waerden", "p": 2, "seed": 0, "plan": "spiral", "null": "monte_carlo",
        "null_draws": 2000, "alpha": 0.05, "reject": True, "gamma": 0.0,
    }),
    "terry_hoeffding": (2, {
        "statistic": -4.474174236904593, "statistic_name": "linear_rank[terry_hoeffding]",
        "p_lower": 0.00333000333000333, "p_upper": 0.9976689976689976,
        "p_two_sided": 0.00666000666000666, "p_value": 0.00666000666000666,
        "alternative": "two-sided", "method": "exact", "m": 8, "n": 6,
        "scores": "terry_hoeffding", "p": 2, "seed": 0, "plan": "spiral", "null": "exact",
        "null_atoms": 1220, "alpha": 0.05, "reject": True, "gamma": 0.0,
    }),
    "mood": (0, {
        "statistic": 110.0, "statistic_name": "linear_rank[mood]",
        "p_lower": 0.25274725274725274, "p_upper": 0.7712287712287712,
        "p_two_sided": 0.5054945054945055, "p_value": 0.5054945054945055,
        "alternative": "two-sided", "method": "exact", "m": 8, "n": 6, "scores": "mood", "p": 2,
        "seed": 0, "plan": "spiral", "null": "exact", "null_atoms": 77, "alpha": 0.05,
        "reject": False, "gamma": 0.0,
    }),
    "klotz": (0, {
        "statistic": 4.725800093680327, "statistic_name": "linear_rank[klotz]",
        "p_lower": 0.2913752913752914, "p_upper": 0.7119547119547119,
        "p_two_sided": 0.5827505827505828, "p_value": 0.5827505827505828,
        "alternative": "two-sided", "method": "exact", "m": 8, "n": 6, "scores": "klotz",
        "p": 2, "seed": 0, "plan": "spiral", "null": "exact", "null_atoms": 527, "alpha": 0.05,
        "reject": False, "gamma": 0.0,
    }),
    "siegel_tukey": (0, {
        "statistic": 68.0, "statistic_name": "linear_rank[siegel_tukey]",
        "p_lower": 0.8588078588078588, "p_upper": 0.17249417249417248,
        "p_two_sided": 0.34498834498834496, "p_value": 0.34498834498834496,
        "alternative": "two-sided", "method": "exact", "m": 8, "n": 6, "scores": "siegel_tukey",
        "p": 2, "seed": 0, "plan": "spiral", "null": "exact", "null_atoms": 49, "alpha": 0.05,
        "reject": False, "gamma": 0.0,
    }),
    "precedence": (2, {
        "statistic": 8, "statistic_name": "precedence(j=3)", "p_lower": 1.0,
        "p_upper": 0.014985014985014986, "p_two_sided": 0.029970029970029972,
        "p_value": 0.029970029970029972, "alternative": "two-sided", "method": "exact", "m": 8,
        "n": 6, "j": 3, "p": 2, "seed": 0, "plan": "spiral", "null": "exact", "null_atoms": 9,
        "alpha": 0.05, "reject": True, "gamma": 0.0,
    }),
    "maximal_block": (0, {
        "statistic": 4, "statistic_name": "maximal_block(j=7)", "p_lower": 0.8041958041958042,
        "p_upper": 0.4825174825174825, "p_two_sided": 0.965034965034965,
        "p_value": 0.4825174825174825, "alternative": "upper", "method": "exact", "m": 8,
        "n": 6, "j": 7, "p": 2, "seed": 0, "plan": "spiral", "null": "exact", "null_atoms": 7,
        "alpha": 0.05, "reject": False, "gamma": 0.0,
    }),
    "empty_block": (2, {
        "statistic": 5, "statistic_name": "empty_block", "p_lower": 0.9976689976689976,
        "p_upper": 0.05128205128205128, "p_two_sided": 0.10256410256410256,
        "p_value": 0.05128205128205128, "alternative": "upper", "method": "exact", "m": 8,
        "n": 6, "p": 2, "seed": 0, "plan": "spiral", "null": "exact", "null_atoms": 7,
        "alpha": 0.05, "reject": True, "gamma": 0.9738095238095239,
    }),
    "dixon_c2": (0, {
        "statistic": 0.35714285714285715, "statistic_name": "dixon_c2",
        "p_lower": 0.9207459207459208, "p_upper": 0.08624708624708624,
        "p_two_sided": 0.17249417249417248, "p_value": 0.08624708624708624,
        "alternative": "upper", "method": "exact", "m": 8, "n": 6, "p": 2, "seed": 0,
        "plan": "spiral", "null": "exact", "null_atoms": 17, "alpha": 0.05, "reject": False,
        "gamma": 0.0,
    }),
    "dixon_c2:monte_carlo": (0, {
        "statistic": 0.35714285714285715, "statistic_name": "dixon_c2", "p_lower": 0.929,
        "p_upper": 0.079, "p_two_sided": 0.158,
        "p_value": 0.079, "alternative": "upper", "method": "monte_carlo", "m": 8,
        "n": 6, "p": 2, "seed": 0, "plan": "spiral", "null": "monte_carlo", "null_draws": 2000,
        "alpha": 0.05, "reject": False, "gamma": 0.0,
    }),
    "runs": (0, {
        "statistic": 6, "statistic_name": "runs", "p_lower": 0.7857142857142857, "p_upper": 0.5,
        "p_two_sided": 1.0, "p_value": 0.7857142857142857, "alternative": "lower",
        "method": "exact", "m": 5, "n": 4, "p": 1, "seed": 0, "null": "exact", "null_atoms": 8,
        "alpha": 0.05, "reject": False, "gamma": 0.0,
    }),
    # Cold-call sizes on the seeded null samples of ``files``, recorded
    # before pmfs held integer counts: the exact Wilcoxon null at m = n =
    # 200 (40,001 atoms) and a 200,000-draw Terry-Hoeffding null at m = n = 50.
    "wilcoxon:exact:200": (0, {
        "statistic": 40523, "statistic_name": "linear_rank[wilcoxon]",
        "p_lower": 0.6427838395365749, "p_upper": 0.35753861539908255,
        "p_two_sided": 0.7150772307981651, "p_value": 0.7150772307981651,
        "alternative": "two-sided", "method": "exact", "m": 200, "n": 200,
        "scores": "wilcoxon", "p": 3, "seed": 0, "plan": "spiral", "null": "exact",
        "null_atoms": 40001, "alpha": 0.05, "reject": False, "gamma": 0.0,
    }),
    # --method auto: the rank-sum null is counted exactly at this size, so
    # this is the payload of --method exact above
    "wilcoxon::200": (0, {
        "statistic": 40523, "statistic_name": "linear_rank[wilcoxon]",
        "p_lower": 0.6427838395365749, "p_upper": 0.35753861539908255,
        "p_two_sided": 0.7150772307981651, "p_value": 0.7150772307981651,
        "alternative": "two-sided", "method": "exact", "m": 200, "n": 200,
        "scores": "wilcoxon", "p": 3, "seed": 0, "plan": "spiral", "null": "exact",
        "null_atoms": 40001, "alpha": 0.05, "reject": False, "gamma": 0.0,
    }),
    "terry_hoeffding:monte_carlo:50": (0, {
        "statistic": 4.839253069217892, "statistic_name": "linear_rank[terry_hoeffding]",
        "p_lower": 0.83431, "p_upper": 0.16569, "p_two_sided": 0.33138, "p_value": 0.33138,
        "alternative": "two-sided", "method": "monte_carlo", "m": 50, "n": 50,
        "scores": "terry_hoeffding", "p": 3, "seed": 0, "plan": "spiral",
        "null": "monte_carlo", "null_draws": 200000, "alpha": 0.05, "reject": False,
        "gamma": 0.0,
    }),
}


def _studies():
    """Power studies over every test name: the block tests at p = 3
    with Dixon under the enumeration cap (9/7, C(16, 7) arrangements)
    and over it (20/20), and runs at p = 1."""
    block = [TestConfig(t, "spiral") for t in KNOWN_TESTS if t != "runs"]
    block += [
        TestConfig("dixon_c2", "stairstep"), TestConfig("precedence", "stairstep", 2, "upper"),
    ]
    yield "A", ScenarioSpec(scenario=3, c=2.0, p=3, m=9, n=7), block
    yield "B", ScenarioSpec(scenario=3, c=2.0, p=3, m=20, n=20), [
        TestConfig("dixon_c2", "spiral"), TestConfig("mood", "stairstep"),
    ]
    yield "C", ScenarioSpec(scenario=3, c=2.0, p=1, m=10, n=8), [
        TestConfig("runs", "univariate"), TestConfig("wilcoxon", "univariate"),
    ]


# The null method each caller chose under auto before one policy made
# the choice: (the CLI's, the harness's), recorded from the two functions
# that made it; a closed form builds its exact law whatever it is asked.
PINNED_METHODS = {
    ("wilcoxon", 9, 7): ("exact", "exact"),
    ("wilcoxon", 20, 20): ("monte_carlo", "exact"),
    ("wilcoxon", 200, 200): ("monte_carlo", "exact"),
    ("wilcoxon", 500, 500): ("monte_carlo", "exact"),
    ("wilcoxon", 1000, 100): ("monte_carlo", "exact"),
    ("van_der_waerden", 9, 7): ("exact", "monte_carlo"),
    ("van_der_waerden", 20, 20): ("monte_carlo", "monte_carlo"),
    ("van_der_waerden", 200, 200): ("monte_carlo", "monte_carlo"),
    ("dixon_c2", 9, 7): ("exact", "exact"),
    ("dixon_c2", 20, 20): ("monte_carlo", "monte_carlo"),
    ("dixon_c2", 200, 200): ("monte_carlo", "monte_carlo"),
    ("empty_block", 9, 7): ("exact", "exact"),
    ("empty_block", 20, 20): ("exact", "exact"),
    ("empty_block", 200, 200): ("exact", "exact"),
}
# the changes: the CLI counts the rank-sum null exactly above the cap,
# while m * n * min(m, n) is at most 4e7, and both callers draw it by
# Monte Carlo above that, where counting takes longer than the draws
CLI_METHOD_CHANGES = {
    ("wilcoxon", 20, 20): "exact", ("wilcoxon", 200, 200): "exact", ("wilcoxon", 1000, 100): "exact",
}
HARNESS_METHOD_CHANGES = {("wilcoxon", 500, 500): "monte_carlo"}


@pytest.mark.parametrize("test, m, n", list(PINNED_METHODS))
def test_one_policy_makes_both_callers_choices(test, m, n):
    entry, params = twosample.resolve_statistic(test, m, n)
    cli_method, harness_method = PINNED_METHODS[test, m, n]
    assert twosample.null_method(entry, m, n, params) == CLI_METHOD_CHANGES.get(
        (test, m, n), cli_method
    )
    assert _harness_method(test, m, n) == HARNESS_METHOD_CHANGES.get((test, m, n), harness_method)


def test_rank_count_limit_is_on_the_cube_of_the_sizes():
    entry, params = twosample.resolve_statistic("wilcoxon", 341, 341)
    assert 341**3 <= twosample._RANK_COUNT_LIMIT < 342**3
    assert twosample.null_method(entry, 341, 341, params) == "exact"
    entry, params = twosample.resolve_statistic("wilcoxon", 342, 342)
    assert twosample.null_method(entry, 342, 342, params) == "monte_carlo"
    assert twosample.null_method(entry, 342, 342, params, "exact") == "exact"


def test_policy_reads_the_scores_and_passes_a_named_method():
    entry, params = twosample.resolve_statistic("wilcoxon", 200, 200, scores="van_der_waerden")
    assert twosample.null_method(entry, 200, 200, params) == "monte_carlo"
    entry, params = twosample.resolve_statistic("linear_rank", 200, 200, scores=np.arange(400) + 1)
    assert twosample.null_method(entry, 200, 200, params) == "exact"
    assert twosample.null_method(entry, 200, 200, params, "normal") == "normal"
    entry, params = twosample.resolve_statistic("precedence", 9, 7)
    assert twosample.null_method(entry, 9, 7, params, "monte_carlo") == "exact"


def _harness_method(test, m, n):
    """The harness's null method, from the one policy."""
    entry, params = twosample.resolve_statistic(test, m, n)
    return twosample.null_method(entry, m, n, params, enumerate_scores=False)


def test_power_rejections_are_pinned():
    assert _harness_method("dixon_c2", 9, 7) == "exact"
    assert _harness_method("dixon_c2", 20, 20) == "monte_carlo"
    for key, spec, tests in _studies():
        est = run_power_study(spec, tests, 0.05, 80, 5, n_null_draws=2000)
        assert [e.rejections for e in est] == PINNED_REJECTIONS[key], key
        assert est[0].tie_retries == 0


# Rejections and labels of runs columns at p = 1, recorded when the
# harness still counted runs by sorting the pooled raw sample.
PINNED_RUNS_COLUMNS = [
    (ScenarioSpec(scenario=3, c=3.0, p=1, m=15, n=12), 0.1, [46, 46, 45]),
    (ScenarioSpec(scenario=1, c=1.0, p=1, m=12, n=9), 0.1, [27, 28, 27]),
    (ScenarioSpec(scenario=0, p=1, m=9, n=11), 0.2, [43, 43, 42]),
]


@pytest.mark.parametrize("spec, alpha, rejections", PINNED_RUNS_COLUMNS)
def test_runs_columns_keep_their_label_and_rejections(spec, alpha, rejections):
    tests = [TestConfig("runs"), TestConfig("runs", "stairstep"), TestConfig("runs", "univariate")]
    est = run_power_study(spec, tests, alpha, 200, 3, n_null_draws=2000)
    assert [(e.rejections, e.plan) for e in est] == list(
        zip(rejections, ["spiral", "stairstep", "univariate"])
    )


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


@pytest.fixture
def files(tmp_path):
    out = {
        "block": (_write(tmp_path / "x.csv", X_ALT), _write(tmp_path / "y.csv", Y_TOY)),
        "runs": (_write(tmp_path / "xu.csv", X_UNI), _write(tmp_path / "yu.csv", Y_UNI)),
    }
    for size in (200, 50):
        spec = ScenarioSpec(scenario=0, p=3, m=size, n=size)
        x, y = simulate.generate_scenario(spec, np.random.default_rng((7, size)))
        paths = [str(tmp_path / f"{name}{size}.csv") for name in "xy"]
        for path, arr in zip(paths, (x, y)):
            cli.write_sample_csv(path, Sample(arr))
        out[str(size)] = tuple(paths)
    return out


def _cli_test(files, test, *extra, sample=None):
    x, y = files[sample or ("runs" if test == "runs" else "block")]
    return cli.main(["test", "--x", x, "--y", y, "--test", test, *extra])


@pytest.mark.parametrize("label", list(PINNED_PAYLOADS))
def test_cli_test_json_is_pinned(label, files, capsys):
    test, _, rest = label.partition(":")
    method, _, size = rest.partition(":")
    draws = "200000" if size else "2000"
    extra = ["--method", method, "--draws", draws] if method else []
    code = _cli_test(files, test, "--decide", *extra, sample=size or None)
    want_code, payload = PINNED_PAYLOADS[label]
    assert code == want_code
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def _library(test, freqs):
    """The named public test function for a CLI test name."""
    if test in SCORE_TESTS:
        return twosample.linear_rank_test(freqs, twosample.make_scores(test, freqs.m, freqs.n))
    if test == "runs":
        return twosample.runs_test(X_UNI, Y_UNI)
    return getattr(twosample, f"{test}_test")(freqs)


@pytest.mark.parametrize("test", KNOWN_TESTS)
def test_cli_and_library_agree(test, files, capsys):
    assert _cli_test(files, test, "--method", "exact") == 0
    payload = json.loads(capsys.readouterr().out)
    freqs = block_frequencies(fit_partition(make_plan("spiral", 2, 6), Y_TOY), X_ALT)
    expected = _library(test, freqs).to_json_dict()
    for key in ("statistic", "statistic_name", "p_lower", "p_upper", "p_two_sided",
                "alternative", "method"):
        assert payload[key] == expected[key], key


@pytest.mark.parametrize("test, extra, message", [
    ("empty_block", ["--j", "5"], twosample._NO_J),
    ("precedence", ["--scores", "mood"], twosample._NO_SCORES),
    ("wilcoxon", ["--j", "3"], twosample._NO_J),
    ("runs", ["--j", "3"], twosample._NO_J),
    ("runs", ["--scores", "klotz"], twosample._NO_SCORES),
])
def test_cli_test_refuses_a_parameter_its_statistic_does_not_take(test, extra, message, files,
                                                                  capsys):
    assert _cli_test(files, test, *extra) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_dist_refuses_a_parameter_its_statistic_does_not_take(capsys):
    argv = ["dist", "--statistic", "empty_block", "--m", "3", "--n", "3"]
    assert cli.main([*argv, "--j", "2", "--scores", "klotz"]) == 1
    assert capsys.readouterr().err == f"error: {twosample._NO_J}\n"
    assert cli.main([*argv, "--scores", "klotz"]) == 1
    assert capsys.readouterr().err == f"error: {twosample._NO_SCORES}\n"


def test_library_and_harness_refuse_a_parameter_the_statistic_does_not_take():
    freqs = block_frequencies(fit_partition(make_plan("spiral", 2, 6), Y_TOY), X_ALT)
    with pytest.raises(ValueError, match=twosample._NO_J):
        twosample.block_test("dixon_c2", freqs, j=2)
    with pytest.raises(ValueError, match=twosample._NO_SCORES):
        twosample.block_test("maximal_block", freqs, scores="mood")
    spec = ScenarioSpec(p=2, m=8, n=6)
    with pytest.raises(ValueError, match=twosample._NO_J):
        run_power_study(spec, [TestConfig("wilcoxon", j=3)], 0.1, 5, 1)


def test_every_test_name_has_a_table_entry():
    tables = {twosample.statistic_entry(t).name for t in KNOWN_TESTS}
    assert tables | {"interior_exterior"} == set(twosample.STATISTICS)
    assert {t: TestConfig(t).alternative for t in KNOWN_TESTS} == {
        **{t: "two-sided" for t in SCORE_TESTS},
        "precedence": "two-sided", "maximal_block": "upper", "empty_block": "upper",
        "dixon_c2": "upper", "runs": "lower",
    }
    with pytest.raises(ValueError, match="joint distribution"):
        twosample.block_test("interior_exterior", BlockFrequencies((1, 0, 1), 2, 2))


@pytest.mark.parametrize("test, m, n", [
    *[(t, m, n) for t in SCORE_TESTS[1:] for m, n in ((9, 7), (40, 35))],
    ("dixon_c2", 20, 20),
])
def test_observed_statistics_are_atoms_of_the_monte_carlo_null(test, m, n):
    """The arrangements a Monte Carlo null was drawn from, pushed
    through the observed-statistic paths, land exactly on its atoms."""
    entry, params = twosample.resolve_statistic(test, m, n)
    null = entry.null(m, n, params, method="monte_carlo", n_draws=400, seed=9)
    atoms = set(null.support)
    rng = np.random.default_rng(9)
    bars = np.concatenate(list(nulldist._sample_arrangements(m, n, 400, rng)))
    counts = nulldist._counts_from_bars(bars, m + n)
    assert all(entry.observe(m, n, params, row) in atoms for row in counts)
    # and the raw values of the stacked rows are the atoms' raw values
    raw_atoms = {entry.raw_atom(a, m, n, params) for a in atoms}
    assert all(v in raw_atoms for v in entry.bind_raw(m, n, params)(counts).tolist())
    for row in counts[:50]:
        freqs = BlockFrequencies(tuple(row.tolist()), m, n)
        res = twosample.block_test(test, freqs, method="monte_carlo", n_draws=400, seed=9)
        assert res.statistic in atoms


@pytest.mark.parametrize("name", sorted(twosample.STATISTICS))
def test_a_count_matrix_observes_row_by_row(name):
    m, n = 9, 7
    entry = twosample.STATISTICS[name]
    params = entry.params(m, n, None, None)
    bars = np.concatenate(list(nulldist._sample_arrangements(m, n, 60, np.random.default_rng(2))))
    counts = nulldist._counts_from_bars(bars, m + n)
    raw = entry.bind_raw(m, n, params)(counts)
    assert len(raw) == len(counts)
    for row, v in zip(counts, raw):
        assert entry.value(v, m, n, params) == entry.observe(m, n, params, row)


def test_result_is_immutable_and_the_decision_carries_gamma():
    res = twosample.empty_block_test(BlockFrequencies((0, 3, 0, 1), 4, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.statistic = 0
    before = res.to_json_dict()
    decision = twosample.randomized_decision(res, 0.3, seed=1)
    assert res.to_json_dict() == before and "gamma" not in before
    assert 0 < decision.gamma < 1
