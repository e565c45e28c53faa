import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seblocks.partition import (
    BlockFrequencies,
    CutRule,
    Direction,
    PartitionPlan,
    PlanLabel,
    Sample,
    TieError,
    assign_block,
    block_frequencies,
    figure_axes,
    fit_partition,
    make_plan,
    make_spiral_plan,
    make_stairstep_plan,
    make_univariate_plan,
)
from seblocks.partition import _separate_duplicates

# the bivariate illustration dataset and its two comparison samples
Y_TOY = [
    [1.28, 0.87], [-0.79, -0.96], [0.70, 0.65],
    [-1.23, 1.58], [-0.24, -0.68], [-0.40, 1.36],
]
X_NULL = [
    [-0.69, -0.18], [-1.13, 0.33], [-0.92, -0.87], [2.21, 0.67],
    [1.02, -2.14], [-1.57, -1.04], [1.20, -1.42], [0.22, 0.34],
]
X_ALT = [
    [-0.25, -1.79], [-2.21, -0.26], [0.11, -1.66], [-1.45, -1.42],
    [0.64, -1.66], [0.81, -1.88], [-3.18, -2.01], [-2.18, -0.61],
]


class TestSample:
    def test_univariate_coercion(self):
        s = Sample([1.0, 2.0, 3.0])
        assert s.p == 1 and s.size == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Sample([[1.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sample(np.empty((0, 2)))

    def test_points_read_only(self):
        s = Sample([[1.0, 2.0]])
        with pytest.raises(ValueError):
            s.points[0, 0] = 5.0


class TestPlans:
    def test_univariate_ascending(self):
        plan = make_univariate_plan(6, ascending=True)
        assert plan.p == 1 and plan.n == 6
        assert all(c.component == 1 and c.direction is Direction.MIN for c in plan.cuts)
        assert plan.label is PlanLabel.UNIVARIATE_ASC

    def test_univariate_single_cut(self):
        plan = make_univariate_plan(1)
        fitted = fit_partition(plan, Sample([2.5]))
        assert fitted.thresholds == (2.5,)
        assert assign_block(fitted, [2.5]) == 1
        assert assign_block(fitted, [2.6]) == 2

    def test_univariate_descending_first_block_above_max(self):
        plan = make_univariate_plan(3, ascending=False)
        fitted = fit_partition(plan, Sample([0.3, -1.2, 2.0]))
        assert fitted.thresholds[0] == 2.0
        assert assign_block(fitted, [2.4]) == 1
        assert assign_block(fitted, [0.0]) == 3
        assert assign_block(fitted, [-5.0]) == 4

    def test_univariate_invalid_n(self):
        with pytest.raises(ValueError):
            make_univariate_plan(0)

    def test_stairstep_cycles_components(self):
        plan = make_stairstep_plan(2, 6)
        assert [c.component for c in plan.cuts] == [1, 2, 1, 2, 1, 2]
        assert all(c.direction is Direction.MIN for c in plan.cuts)

    def test_stairstep_boustrophedon(self):
        plan = make_stairstep_plan(3, 7, Direction.MIN, boustrophedon=True)
        assert [c.component for c in plan.cuts] == [1, 2, 3, 3, 2, 1, 1]

    def test_stairstep_p1_matches_univariate(self):
        assert make_stairstep_plan(1, 4).cuts == make_univariate_plan(4, True).cuts

    def test_stairstep_invalid_args(self):
        with pytest.raises(ValueError):
            make_stairstep_plan(0, 4)
        with pytest.raises(ValueError):
            make_stairstep_plan(2, 0)

    def test_spiral_illustrated_direction_pattern(self):
        # the illustrated bivariate spiral: first two blocks and the last
        # cut by minima, the middle two by maxima
        plan = make_spiral_plan(2, 5)
        dirs = [c.direction for c in plan.cuts]
        assert dirs == [Direction.MIN, Direction.MIN, Direction.MAX, Direction.MAX, Direction.MIN]
        assert [c.component for c in plan.cuts] == [1, 2, 1, 2, 1]

    def test_spiral_paired(self):
        plan = make_spiral_plan(2, 4, paired=True)
        assert [(c.component, c.direction) for c in plan.cuts] == [
            (1, Direction.MIN), (1, Direction.MAX), (2, Direction.MIN), (2, Direction.MAX),
        ]

    def test_spiral_univariate_alternates(self):
        plan = make_spiral_plan(1, 3)
        assert [c.direction for c in plan.cuts] == [Direction.MIN, Direction.MAX, Direction.MIN]

    def test_named_plans_use_two_alternating_axes(self):
        # the published constructions project onto two axes regardless of p
        plan = make_plan("spiral", 5, 8)
        assert {c.component for c in plan.cuts} == {1, 2}
        plan = make_plan("stairstep_cycle_all", 5, 8)
        assert {c.component for c in plan.cuts} == {1, 2, 3, 4, 5}
        assert figure_axes(1) == (1,)

    def test_plan_requires_exact_cut_count(self):
        with pytest.raises(ValueError):
            PartitionPlan(2, 3, (CutRule(1, Direction.MIN),))

    def test_plan_component_bounds(self):
        with pytest.raises(ValueError):
            PartitionPlan(2, 1, (CutRule(3, Direction.MIN),))

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            make_plan("zigzag", 2, 3)


class TestFitPartition:
    def test_single_axis_thresholds_are_sorted_projections(self):
        plan = PartitionPlan(2, 6, tuple(CutRule(2, Direction.MIN) for _ in range(6)))
        fitted = fit_partition(plan, Sample(Y_TOY))
        assert fitted.thresholds == (-0.96, -0.68, 0.65, 0.87, 1.36, 1.58)

    def test_cut_points_are_a_permutation(self):
        fitted = fit_partition(make_plan("spiral", 2, 6), Sample(Y_TOY))
        assert sorted(fitted.cut_point_indices) == list(range(6))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            fit_partition(make_univariate_plan(3), Sample([1.0, 2.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fit_partition(make_plan("spiral", 2, 3), Sample([1.0, 2.0, 3.0]))

    def test_tie_error(self):
        plan = make_univariate_plan(3)
        with pytest.raises(TieError):
            fit_partition(plan, Sample([1.0, 1.0, 2.0]))

    def test_tie_perturbation_is_deterministic(self):
        plan = make_univariate_plan(4)
        y = Sample([1.0, 1.0, 1.0, 2.0])
        a = fit_partition(plan, y, on_ties="perturb", seed=7)
        b = fit_partition(plan, y, on_ties="perturb", seed=7)
        assert a.thresholds == b.thresholds
        assert len(set(a.thresholds)) == 4

    def test_tie_perturbation_pushes_past_an_ulp_neighbour(self):
        # bumping the second 1.0 by one ulp meets the third value, which
        # must move up too rather than leave a tie
        plan = make_univariate_plan(3)
        y = Sample([1.0, 1.0, np.nextafter(1.0, 2.0)])
        for seed in range(10):
            th = fit_partition(plan, y, on_ties="perturb", seed=seed).thresholds
            assert th == (1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0))

    def test_tie_perturbation_raises_when_values_cannot_separate(self):
        top = np.finfo(float).max
        with pytest.raises(TieError):
            fit_partition(make_univariate_plan(2), Sample([top, top]), on_ties="perturb")

    def test_ignores_ties_on_uncut_components(self):
        plan = PartitionPlan(2, 3, tuple(CutRule(1, Direction.MIN) for _ in range(3)))
        y = Sample([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        fitted = fit_partition(plan, y)
        assert fitted.thresholds == (1.0, 2.0, 3.0)

    def test_order_of_reference_rows_is_irrelevant(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((9, 3))
        plan = make_plan("spiral", 3, 9)
        base = fit_partition(plan, y)
        for _ in range(5):
            shuffled = y[rng.permutation(9)]
            assert fit_partition(plan, shuffled).thresholds == base.thresholds


class TestAssignAndCount:
    def test_univariate_interval_blocks(self):
        # reference values whose ascending blocks are
        # (-inf,-.36], (-.36,0], (0,.75], (.75,3.32], (3.32,inf)
        fitted = fit_partition(make_univariate_plan(4), Sample([-0.36, 0.00, 0.75, 3.32]))
        assert assign_block(fitted, [-1.89]) == 1
        assert assign_block(fitted, [0.13]) == 3
        assert assign_block(fitted, [9.53]) == 5

    def test_threshold_equality_closes_block(self):
        fitted = fit_partition(make_univariate_plan(2), Sample([1.0, 2.0]))
        assert assign_block(fitted, [1.0]) == 1
        assert assign_block(fitted, [2.0]) == 2

    def test_dominating_point_lands_in_residual(self):
        fitted = fit_partition(make_univariate_plan(3), Sample([1.0, 2.0, 3.0]))
        assert assign_block(fitted, [99.0]) == 4

    def test_illustrated_block_frequencies(self):
        fitted = fit_partition(make_plan("spiral", 2, 6), Sample(Y_TOY))
        assert block_frequencies(fitted, Sample(X_NULL)).counts == (1, 2, 1, 0, 3, 1, 0)
        assert block_frequencies(fitted, Sample(X_ALT)).counts == (4, 4, 0, 0, 0, 0, 0)

    def test_single_point_counts(self):
        fitted = fit_partition(make_plan("spiral", 2, 6), Sample(Y_TOY))
        freqs = block_frequencies(fitted, Sample([[0.0, 0.0]]))
        assert sum(freqs.counts) == 1 and sorted(freqs.counts)[-1] == 1

    def test_boundary_tie_flagged(self):
        fitted = fit_partition(make_univariate_plan(2), Sample([1.0, 2.0]))
        freqs = block_frequencies(fitted, Sample([1.0, 0.5]))
        assert freqs.boundary_ties == 1
        assert freqs.counts == (2, 0, 0)

    def test_counts_validate(self):
        with pytest.raises(ValueError):
            BlockFrequencies((1, 2), m=3, n=2)
        with pytest.raises(ValueError):
            BlockFrequencies((1, -1, 3), m=3, n=2)


class TestPartitionProperties:
    def test_totality_and_disjointness(self):
        rng = np.random.default_rng(11)
        for label in ("spiral", "stairstep", "spiral_cycle_all"):
            plan = make_plan(label, 3, 12)
            fitted = fit_partition(plan, rng.standard_normal((12, 3)))
            pts = rng.standard_normal((1000, 3)) * 3
            blocks = np.array([assign_block(fitted, x) for x in pts])
            assert blocks.min() >= 1 and blocks.max() <= 13
            counts = block_frequencies(fitted, pts)
            assert np.bincount(blocks, minlength=14)[1:].tolist() == list(counts.counts)

    def test_frequencies_sum_to_m(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, m, p = rng.integers(1, 12), rng.integers(0, 15), rng.integers(1, 4)
            plan = make_plan("spiral", int(p), int(n))
            fitted = fit_partition(plan, rng.standard_normal((int(n), int(p))))
            x = rng.standard_normal((int(m), int(p))) if m else np.empty((0, int(p)))
            if m == 0:
                continue
            assert sum(block_frequencies(fitted, x).counts) == m

    def test_monotone_rescaling_leaves_everything_unchanged(self):
        rng = np.random.default_rng(19)
        y = rng.standard_normal((10, 3))
        x = rng.standard_normal((14, 3))
        plan = make_plan("stairstep", 3, 10)
        base = block_frequencies(fit_partition(plan, y), x).counts

        def warp(pts):
            out = pts.copy()
            out[:, 0] = np.exp(0.7 * out[:, 0])
            out[:, 1] = out[:, 1] ** 3 + 2.0 * out[:, 1]
            out[:, 2] = 0.001 * out[:, 2] - 40.0
            return out

        warped = block_frequencies(fit_partition(plan, warp(y)), warp(x)).counts
        assert warped == base


def _bump_groups(values, seed):
    """The earlier tie perturbation: shuffle each group of equal values
    and bump every member after the first one ulp above its predecessor,
    with no look at the values that follow the group."""
    rng = np.random.default_rng(seed)
    out = values.copy()
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    start = 0
    while start < len(sorted_vals):
        stop = start
        while stop + 1 < len(sorted_vals) and sorted_vals[stop + 1] == sorted_vals[start]:
            stop += 1
        if stop > start:
            group = order[start : stop + 1]
            rng.shuffle(group)
            current = values[group[0]]
            for row in group[1:]:
                current = np.nextafter(current, np.inf)
                out[row] = current
        start = stop + 1
    return out


def _ulps_above(base: float, k: int) -> float:
    for _ in range(k):
        base = np.nextafter(base, np.inf)
    return base


# columns built from a few bases plus 0-3 ulps, so duplicates and
# ulp-adjacent neighbours are common
tie_prone_columns = st.lists(
    st.builds(_ulps_above, st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1e300]), st.integers(0, 3)),
    min_size=2,
    max_size=12,
).map(np.array)


@settings(max_examples=300, deadline=None)
@given(tie_prone_columns, st.integers(0, 2**32 - 1))
def test_tie_perturbation_separates_every_value_in_order(column, seed):
    out = _separate_duplicates(column[:, None], [0], np.random.default_rng(seed))[:, 0]
    assert np.unique(out).size == column.size
    assert (out >= column).all()
    # distinct values keep their order
    lower = column[:, None] < column[None, :]
    assert (out[:, None] < out[None, :])[lower].all()
    # inputs the group-by-group bump already separated keep that output
    before = _bump_groups(column, seed)
    if np.unique(before).size == column.size:
        assert out.tobytes() == before.tobytes()
    again = _separate_duplicates(column[:, None], [0], np.random.default_rng(seed))[:, 0]
    assert out.tobytes() == again.tobytes()
