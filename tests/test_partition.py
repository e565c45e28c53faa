import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seblocks import partition
from seblocks.partition import (
    PLAN_NAMES,
    BlockFrequencies,
    CutRule,
    Direction,
    FittedBatch,
    FittedPartition,
    FrequencyBatch,
    PartitionPlan,
    PlanLabel,
    Sample,
    TieError,
    assign_block,
    block_frequencies,
    canonical_plan,
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
        with pytest.raises(ValueError, match="unknown plan label 'zigzag'"):
            canonical_plan("zigzag")
        assert all(canonical_plan(name) == name for name in PLAN_NAMES)

    @pytest.mark.parametrize(
        "label, name",
        [("sp", "spiral"), ("SPIRAL", "spiral"), ("ss", "stairstep"), ("Stair-Step", "stairstep"),
         ("univariate_asc", "univariate"), (PlanLabel.UNIVARIATE_DESC, "univariate_desc")],
    )
    def test_aliases_name_one_plan(self, label, name):
        p = 1 if name.startswith("univariate") else 3
        assert canonical_plan(label) == name
        assert make_plan(label, p, 9) == make_plan(name, p, 9)

    def test_a_plan_name_takes_no_builder_keywords(self):
        with pytest.raises(TypeError):
            make_plan("spiral", 2, 5, start=Direction.MAX)

    def test_pair_table_of_the_illustrated_spiral(self):
        # cuts: 1 min, 2 min, 1 max, 2 max, 1 min, 2 min, 1 max; the
        # sorted pairs are (0, max), (0, min), (1, max), (1, min)
        layout = make_plan("spiral", 3, 7)._pair_table
        assert layout.columns.tolist() == [0, 0, 1, 1]
        assert layout.signs.tolist() == [-1.0, 1.0, -1.0, 1.0]
        assert layout.slots == (1, 3, 0, 2, 1, 3, 0)
        assert layout.cut_columns.tolist() == [0, 1, 0, 1, 0, 1, 0]
        assert layout.cut_signs.tolist() == [1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0]
        assert layout.used_columns == [0, 1]
        assert layout.table.tolist() == [[2, 6, 7], [0, 4, 7], [3, 7, 7], [1, 5, 7]]


# the grid over which every cut schedule is pinned: each plan name, and
# each builder with every option, at p = 1..6 and these reference sizes
_PIN_SIZES = (*range(1, 30), 100, 200)


def _axes_choices(p):
    return (None, (1,), figure_axes(p), tuple(range(p, 0, -1)), (1, p, 1))


def _schedule_lines():
    def line(build, *args, **kwargs):
        try:
            plan = build(*args, **kwargs)
        except ValueError as exc:
            return f"{args} {kwargs} {type(exc).__name__}: {exc}"
        cuts = " ".join(f"{c.component}{c.direction.value}" for c in plan.cuts)
        return f"{plan.p} {plan.n} {plan.label.value} {cuts}"

    for p in range(1, 7):
        for n in _PIN_SIZES:
            yield from (line(make_plan, name, p, n) for name in PLAN_NAMES)
            for axes in _axes_choices(p):
                for flag in (False, True):
                    for way in Direction:
                        yield line(make_stairstep_plan, p, n, way, boustrophedon=flag, axes=axes)
                        yield line(make_spiral_plan, p, n, paired=flag, axes=axes, start=way)
    for n in _PIN_SIZES:
        yield from (line(make_univariate_plan, n, ascending=way) for way in (True, False))


def test_every_cut_schedule_is_pinned():
    lines = list(_schedule_lines())
    assert len(lines) == 9176
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d7042092fb24c5a736e1a58f3b0b82b17de68f4e2f5522c564771b3445a8ff28"


@pytest.mark.parametrize("build, args, kwargs, message", [
    (make_univariate_plan, (0,), {}, "n must be >= 1, got 0"),
    (make_stairstep_plan, (0, 4), {}, "dimension must be >= 1, got 0"),
    (make_stairstep_plan, (0, 0), {"direction": "min"}, "dimension must be >= 1, got 0"),
    (make_stairstep_plan, (2, 0), {"direction": "min"}, "n must be >= 1, got 0"),
    (make_stairstep_plan, (2, 3), {"direction": "min", "axes": ()},
     "direction must be a Direction, got 'min'"),
    (make_stairstep_plan, (2, 3), {"axes": ()},
     "axes must be nonempty components in [1, 2], got ()"),
    (make_stairstep_plan, (2, 3), {"axes": (0, 1)},
     "axes must be nonempty components in [1, 2], got (0, 1)"),
    (make_stairstep_plan, (2, 3), {"axes": ["a"]},
     "invalid literal for int() with base 10: 'a'"),
    (make_spiral_plan, (0, 4), {"start": "max"}, "dimension must be >= 1, got 0"),
    (make_spiral_plan, (3, 0), {}, "n must be >= 1, got 0"),
    (make_spiral_plan, (2, 3), {"start": "max", "axes": (5,)},
     "start must be a Direction, got 'max'"),
    (make_spiral_plan, (2, 3), {"paired": True, "axes": (1, 3)},
     "axes must be nonempty components in [1, 2], got (1, 3)"),
    (make_plan, ("univariate", 2, 0), {}, "univariate plan requires 1-dimensional data"),
    (make_plan, ("univariate_desc", 1, 0), {}, "n must be >= 1, got 0"),
    (make_plan, ("spiral", 0, 3), {}, "dimension must be >= 1, got 0"),
    (make_plan, ("stairstep_max", 2, -1), {}, "n must be >= 1, got -1"),
    (make_plan, ("zigzag", 2, 3), {}, "unknown plan label 'zigzag'"),
])
def test_every_builder_refusal_is_pinned(build, args, kwargs, message):
    with pytest.raises(ValueError) as caught:
        build(*args, **kwargs)
    assert type(caught.value) is ValueError and str(caught.value) == message


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

    def test_non_finite_raw_reference_is_rejected(self):
        plan = make_plan("univariate", 1, 3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                fit_partition(plan, np.array([bad, 1.0, 2.0]))
        with pytest.raises(ValueError, match="non-finite"):
            fit_partition(plan, np.array([np.nan, np.nan, 2.0]), on_ties="perturb")

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

    def test_non_finite_raw_comparison_points_are_rejected(self):
        fitted = fit_partition(make_univariate_plan(3), Sample([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="non-finite"):
            block_frequencies(fitted, np.array([np.nan, 0.5]))
        with pytest.raises(ValueError, match="non-finite"):
            assign_block(fitted, [np.nan])

    @pytest.mark.parametrize("name, delta", [("spiral", -1.0), ("stairstep_max", 1.0)])
    def test_a_partition_no_reference_sample_gives_is_refused(self, name, delta):
        # cuts 0 and 4 share one (column, direction) pair; its second
        # threshold moves below the first (above it, for a MAX pair)
        plan = make_plan(name, 2, 6)
        fitted = fit_partition(plan, Sample(Y_TOY))
        assert FittedPartition(plan, fitted.thresholds, fitted.cut_point_indices) == fitted
        thresholds = list(fitted.thresholds)
        thresholds[4] = thresholds[0] + delta
        with pytest.raises(ValueError, match=r"\(column, direction\) pair must not fall"):
            FittedPartition(plan, tuple(thresholds), fitted.cut_point_indices)
        # a NaN compares false either way, so order alone would pass it
        between = list(fitted.thresholds)
        between[4] = np.nan
        with pytest.raises(ValueError, match="thresholds must be finite"):
            FittedPartition(plan, tuple(between), fitted.cut_point_indices)
        # row 1 of a batch, tied rows included, where row 0 is valid
        batch = fit_partition(plan, np.array([Y_TOY, Y_TOY[:1] * 6]))
        assert batch.tied.tolist() == [False, True]
        rows = batch.thresholds.copy()
        rows[1] = thresholds
        with pytest.raises(ValueError, match="must not fall"):
            FittedBatch(plan, rows, batch.cut_point_indices, batch.tied)
        rows[1] = between
        with pytest.raises(ValueError, match="must be finite"):
            FittedBatch(plan, rows, batch.cut_point_indices, batch.tied)

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


def _blocks_by_definition(plan, y, x):
    """Thresholds, cut rows, block counts and boundary ties, cut by cut
    in plain Python: each cut takes the first extreme of the remaining
    reference projections, and a comparison point belongs to the first
    cut whose closing inequality it meets."""
    cuts = [(rule.component - 1, rule.direction is Direction.MIN) for rule in plan.cuts]
    alive = list(range(len(y)))
    thresholds, rows = [], []
    for col, is_min in cuts:
        pick = (min if is_min else max)(alive, key=lambda i: float(y[i][col]))
        thresholds.append(float(y[pick][col]))
        rows.append(pick)
        alive.remove(pick)
    counts, ties = [0] * (len(cuts) + 1), 0
    for point in x:
        for k, (col, is_min) in enumerate(cuts):
            v = float(point[col])
            if (v <= thresholds[k]) if is_min else (v >= thresholds[k]):
                counts[k] += 1
                ties += v == thresholds[k]
                break
        else:
            counts[-1] += 1
    return tuple(thresholds), tuple(rows), tuple(counts), ties


@pytest.mark.parametrize("p", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
def test_batched_kernel_matches_the_definition_row_by_row(p, n):
    rng = np.random.default_rng(1000 * p + n)
    names = [name for name in PLAN_NAMES if (p == 1) == name.startswith("univariate")]
    for name, r_count in [(name, r) for name in names for r in (1, 7)]:
        plan = make_plan(name, p, n)
        ys = rng.standard_normal((r_count, n, p))
        xs = rng.standard_normal((r_count, 2 * n + 3, p))
        # boundary ties: comparison points on reference values, and one
        # row with a reference sample tied on every coordinate
        xs[:, : n, :] = np.where(rng.random((r_count, n, p)) < 0.5, ys, xs[:, : n, :])
        if n > 1:
            ys[-1, 1] = ys[-1, 0]
        fitted = fit_partition(plan, ys)
        freqs = block_frequencies(fitted, xs)
        assert isinstance(fitted, FittedBatch) and isinstance(freqs, FrequencyBatch)
        assert fitted.tied.tolist() == [n > 1 and r == r_count - 1 for r in range(r_count)]
        assert freqs.counts.shape == (r_count, n + 1)
        for r in range(r_count):
            want = _blocks_by_definition(plan, ys[r], xs[r])
            assert tuple(fitted.thresholds[r].tolist()) == want[0], (name, r)
            assert tuple(fitted.cut_point_indices[r].tolist()) == want[1], (name, r)
            assert tuple(freqs.counts[r].tolist()) == want[2], (name, r)
            assert int(freqs.boundary_ties[r]) == want[3], (name, r)
            if fitted.tied[r]:
                with pytest.raises(TieError):
                    fit_partition(plan, ys[r])
                continue
            single = fit_partition(plan, ys[r])
            assert (single.thresholds, single.cut_point_indices) == want[:2]
            one = block_frequencies(single, xs[r])
            assert (one.counts, one.boundary_ties) == want[2:]


@pytest.mark.parametrize("cells", [1, 100])
def test_chunked_assignment_matches_the_definition(monkeypatch, cells):
    # one comparison point per chunk, and two to eight points per chunk
    monkeypatch.setattr(partition, "_ASSIGN_CHUNK_CELLS", cells)
    rng = np.random.default_rng(cells)
    for name, r_count in [("spiral", 1), ("stairstep_reversing", 3), ("spiral_paired", 2)]:
        plan = make_plan(name, 3, 11)
        ys = rng.standard_normal((r_count, 11, 3))
        xs = rng.standard_normal((r_count, 25, 3))
        xs[:, :11] = np.where(rng.random((r_count, 11, 3)) < 0.5, ys, xs[:, :11])
        freqs = block_frequencies(fit_partition(plan, ys), xs)
        for r in range(r_count):
            want = _blocks_by_definition(plan, ys[r], xs[r])
            assert tuple(freqs.counts[r].tolist()) == want[2], (name, r)
            assert int(freqs.boundary_ties[r]) == want[3], (name, r)


class TestBatchArguments:
    def test_tied_batch_is_flagged_not_raised(self):
        plan = make_univariate_plan(3)
        ys = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 2.0]])[:, :, None]
        assert fit_partition(plan, ys).tied.tolist() == [False, True]

    def test_perturbation_takes_one_sample(self):
        plan = make_univariate_plan(3)
        with pytest.raises(ValueError, match="not a stacked batch"):
            fit_partition(plan, np.zeros((2, 3, 1)), on_ties="perturb")
        for on_ties in ("flag", "ignore"):
            with pytest.raises(ValueError, match="on_ties must be 'error' or 'perturb'"):
                fit_partition(plan, [1.0, 2.0, 3.0], on_ties=on_ties)

    def test_batch_shapes_must_agree(self):
        plan = make_plan("spiral", 2, 3)
        fitted = fit_partition(plan, np.random.default_rng(0).standard_normal((4, 3, 2)))
        with pytest.raises(ValueError, match="stacked"):
            block_frequencies(fitted, np.zeros((3, 5, 2)))
        with pytest.raises(ValueError, match="stacked"):
            block_frequencies(fitted, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="one fit"):
            block_frequencies(fit_partition(plan, np.arange(6.0).reshape(3, 2)), np.zeros((4, 5, 2)))


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
