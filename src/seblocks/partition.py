"""Statistically equivalent block partitions of p-dimensional space.

A reference sample of n points induces a partition of R^p into n + 1
blocks through a fixed schedule of axis-projection cuts: at each step the
minimum (or maximum) of the remaining projected values closes off one
block and the realizing point is excluded.  Because only coordinate
comparisons enter, the construction is invariant to strictly increasing
per-coordinate rescaling, and under identical continuous populations the
block frequencies of a second sample are uniform over all arrangements.

The cut schedule (a ``PartitionPlan``) is built from the dimension and
sample size alone.  Data enters only in ``fit_partition``; choosing the
schedule after looking at the data voids the distributional guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Direction",
    "PlanLabel",
    "TieError",
    "Sample",
    "CutRule",
    "PartitionPlan",
    "FittedPartition",
    "FittedBatch",
    "BlockFrequencies",
    "FrequencyBatch",
    "make_univariate_plan",
    "make_stairstep_plan",
    "make_spiral_plan",
    "make_plan",
    "PLAN_NAMES",
    "canonical_plan",
    "figure_axes",
    "fit_partition",
    "assign_block",
    "block_frequencies",
]


class TieError(ValueError):
    """Tied projected values where the construction assumes continuity."""


class Direction(Enum):
    MIN = "min"
    MAX = "max"


class PlanLabel(Enum):
    STAIRSTEP = "stairstep"
    SPIRAL = "spiral"
    UNIVARIATE_ASC = "univariate_asc"
    UNIVARIATE_DESC = "univariate_desc"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class Sample:
    """An ordered collection of p-dimensional observations.

    ``points`` is coerced to a read-only float array of shape
    (size, p); a 1-D input is treated as univariate data.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError(f"points must be 1-D or 2-D, got ndim={pts.ndim}")
        if pts.shape[0] < 1:
            raise ValueError("a sample needs at least one observation")
        if pts.shape[1] < 1:
            raise ValueError("a sample needs at least one coordinate")
        if not np.isfinite(pts).all():
            raise ValueError("sample contains non-finite coordinates")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def p(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class CutRule:
    """One step of a cut schedule: which axis to project onto, and
    whether the minimum or maximum of the remaining values cuts."""

    component: int  # 1-based coordinate index
    direction: Direction

    def __post_init__(self):
        if not isinstance(self.component, (int, np.integer)) or self.component < 1:
            raise ValueError(f"component must be a positive integer, got {self.component}")


class _PairTable(NamedTuple):
    """How a plan's cuts use the distinct (column, direction) pairs.

    The pairs are (column, is_min) in sorted order; ``columns`` and
    ``signs`` give each pair's 0-based column and sign (-1 for MAX,
    whose values are negated).  Per cut: ``slots`` its pair's index,
    ``cut_columns`` its column and ``cut_signs`` its sign.
    ``used_columns`` are the sorted columns the cuts project on.  Row j
    of the (pairs, width + 1) ``table`` lists pair j's cuts in order,
    padded with n: entry c is the first of pair j's cuts that closes a
    point with c of the pair's signed thresholds strictly below its
    signed value, or n when none of them closes it.
    """

    columns: np.ndarray
    signs: np.ndarray
    slots: tuple[int, ...]
    cut_columns: np.ndarray
    cut_signs: np.ndarray
    used_columns: list[int]
    table: np.ndarray


@dataclass(frozen=True)
class PartitionPlan:
    """A data-independent schedule of n cuts for p-dimensional data.

    Plans are built from (p, n) and flags only, never from observations.
    """

    p: int
    n: int
    cuts: tuple[CutRule, ...]
    label: PlanLabel = PlanLabel.CUSTOM

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"dimension must be >= 1, got {self.p}")
        if self.n < 1:
            raise ValueError(f"reference size must be >= 1, got {self.n}")
        cuts = tuple(self.cuts)
        if len(cuts) != self.n:
            raise ValueError(f"plan needs exactly {self.n} cuts, got {len(cuts)}")
        for rule in cuts:
            if rule.component > self.p:
                raise ValueError(
                    f"cut component {rule.component} exceeds dimension {self.p}"
                )
        object.__setattr__(self, "cuts", cuts)

    @property
    def n_blocks(self) -> int:
        return self.n + 1

    @cached_property
    def _pair_table(self) -> _PairTable:
        keys = [(rule.component - 1, rule.direction is Direction.MIN) for rule in self.cuts]
        pairs = sorted(set(keys))
        slots = tuple(pairs.index(key) for key in keys)
        members = [[k for k, s in enumerate(slots) if s == j] for j in range(len(pairs))]
        table = np.full((len(pairs), max(map(len, members)) + 1), self.n, dtype=np.intp)
        for row, cuts in zip(table, members):
            row[: len(cuts)] = cuts
        signs = np.array([1.0 if is_min else -1.0 for _, is_min in pairs])
        return _PairTable(
            columns=np.array([col for col, _ in pairs], dtype=np.intp),
            signs=signs,
            slots=slots,
            cut_columns=np.array([col for col, _ in keys], dtype=np.intp),
            cut_signs=signs[list(slots)],
            used_columns=sorted({col for col, _ in pairs}),
            table=table,
        )

    def _signed_pair_thresholds(self, thresholds: np.ndarray) -> np.ndarray:
        """(R, pairs, width) signed thresholds of each pair's cuts in
        order, from (R, n) ``thresholds``; the padding reads +inf."""
        layout = self._pair_table
        signed = np.empty((thresholds.shape[0], self.n + 1))
        np.multiply(thresholds, layout.cut_signs, out=signed[:, : self.n])
        signed[:, self.n] = np.inf
        return signed[:, layout.table[:, :-1]]


def _cycle_plan(
    p: int, n: int, sequence: tuple[int, ...], first: Direction, alternate: bool, label: PlanLabel
) -> PartitionPlan:
    """The one cut-schedule generator: cut k projects on ``sequence[k %
    len(sequence)]`` and takes ``first``, or with ``alternate`` each
    component alternates from ``first`` on its successive visits."""
    other = Direction.MAX if first is Direction.MIN else Direction.MIN
    visits = dict.fromkeys(sequence, 0)
    cuts = []
    for k in range(n):
        comp = sequence[k % len(sequence)]
        cuts.append(CutRule(comp, other if alternate and visits[comp] % 2 else first))
        visits[comp] += 1
    return PartitionPlan(p, n, tuple(cuts), label)


def _check_schedule(p: int, n: int, name: str, direction, axes=None) -> tuple[int, ...]:
    """Refuse bad (p, n), ``name``d direction or axes; return the axes (default: all p)."""
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isinstance(direction, Direction):
        raise ValueError(f"{name} must be a Direction, got {direction!r}")
    if axes is None:
        return tuple(range(1, p + 1))
    axes = tuple(int(a) for a in axes)
    if not axes or any(a < 1 or a > p for a in axes):
        raise ValueError(f"axes must be nonempty components in [1, {p}], got {axes}")
    return axes


def make_univariate_plan(n: int, ascending: bool = True) -> PartitionPlan:
    """Plan the classical univariate blocks.

    Ascending order cuts at the successive minima, so block k is the
    half-open interval between the (k-1)-th and k-th order statistics.
    Descending order peels from the maximum instead.
    """
    direction = Direction.MIN if ascending else Direction.MAX
    axes = _check_schedule(1, n, "direction", direction)
    label = PlanLabel.UNIVARIATE_ASC if ascending else PlanLabel.UNIVARIATE_DESC
    return _cycle_plan(1, n, axes, direction, False, label)


def figure_axes(p: int) -> tuple[int, ...]:
    """The two alternating projection axes of the illustrated
    constructions (just the one axis when the data is univariate)."""
    return (1,) if p == 1 else (1, 2)


def make_stairstep_plan(
    p: int,
    n: int,
    direction: Direction = Direction.MIN,
    boustrophedon: bool = False,
    axes: Sequence[int] | None = None,
) -> PartitionPlan:
    """Plan stair-step cuts: cycle through coordinates with a fixed
    direction.

    ``axes`` selects which coordinates the schedule cycles over (all of
    them by default); with ``boustrophedon`` the order reverses on every
    other sweep (1,...,p,p,...,1,1,...).
    """
    axes = _check_schedule(p, n, "direction", direction, axes)
    sequence = axes + axes[::-1] if boustrophedon else axes
    return _cycle_plan(p, n, sequence, direction, False, PlanLabel.STAIRSTEP)


def make_spiral_plan(
    p: int,
    n: int,
    paired: bool = False,
    axes: Sequence[int] | None = None,
    start: Direction = Direction.MIN,
) -> PartitionPlan:
    """Plan spiral cuts that peel blocks inward from the data's extremes.

    Coordinates cycle as in the stair-step plan (over ``axes``, all
    coordinates by default).  Each coordinate alternates between its two
    extremes on successive visits, beginning with ``start``.  With
    ``paired`` each coordinate is cut at both extremes before the
    schedule advances.
    """
    axes = _check_schedule(p, n, "start", start, axes)
    sequence = tuple(a for a in axes for _ in range(1 + paired))
    return _cycle_plan(p, n, sequence, start, True, PlanLabel.SPIRAL)


def _univariate_builder(ascending: bool):
    def build(p: int, n: int) -> PartitionPlan:
        if p != 1:
            raise ValueError("univariate plan requires 1-dimensional data")
        return make_univariate_plan(n, ascending=ascending)

    return build


# every name make_plan builds, with its builder
_PLAN_BUILDERS = {
    "spiral": lambda p, n: make_spiral_plan(p, n, axes=figure_axes(p)),
    "spiral_cycle_all": lambda p, n: make_spiral_plan(p, n),
    "spiral_paired": lambda p, n: make_spiral_plan(p, n, paired=True, axes=figure_axes(p)),
    "stairstep": lambda p, n: make_stairstep_plan(p, n, axes=figure_axes(p)),
    "stairstep_max": lambda p, n: make_stairstep_plan(
        p, n, direction=Direction.MAX, axes=figure_axes(p)
    ),
    "stairstep_cycle_all": lambda p, n: make_stairstep_plan(p, n),
    "stairstep_reversing": lambda p, n: make_stairstep_plan(p, n, boustrophedon=True),
    "univariate": _univariate_builder(ascending=True),
    "univariate_desc": _univariate_builder(ascending=False),
}
PLAN_NAMES = tuple(_PLAN_BUILDERS)
# the other spellings make_plan accepts
_PLAN_ALIASES = {
    "sp": "spiral", "stair-step": "stairstep", "ss": "stairstep", "univariate_asc": "univariate",
}


def canonical_plan(label: str | PlanLabel) -> str:
    """The name in ``PLAN_NAMES`` that ``label`` builds: matched without
    regard to case, aliases resolved.  Raises ``ValueError`` for a label
    ``make_plan`` does not know."""
    name = label.value if isinstance(label, PlanLabel) else str(label).lower()
    name = _PLAN_ALIASES.get(name, name)
    if name not in _PLAN_BUILDERS:
        raise ValueError(f"unknown plan label {label!r}")
    return name


def make_plan(label: str | PlanLabel, p: int, n: int) -> PartitionPlan:
    """Build a named plan.

    The names 'spiral' and 'stairstep' are the constructions behind the
    published power tables: they alternate between two projection axes
    (the first two coordinates), as in the illustrated bivariate
    examples, whatever the dimension.  The '_cycle_all' variants sweep
    through every coordinate instead.  Further names: 'spiral_paired'
    (both extremes of an axis before advancing), 'stairstep_max' (peel
    from the maxima), 'stairstep_reversing' (coordinate order flips on
    alternate sweeps), 'univariate' and 'univariate_desc' (single-
    coordinate data).  ``canonical_plan`` resolves the aliases 'sp',
    'ss', 'stair-step' and 'univariate_asc' and ignores case.
    """
    return _PLAN_BUILDERS[canonical_plan(label)](p, n)


def _check_pair_order(plan: PartitionPlan, thresholds: np.ndarray):
    """Refuse (R, n) ``thresholds`` that are not finite, or whose signed
    values fall within a (column, direction) pair.  Samples are finite
    and each cut of a pair takes the extreme of a shrinking set, so no
    reference sample gives them, tied or not; the assignment kernel
    relies on it."""
    if not np.isfinite(thresholds).all():
        raise ValueError("thresholds must be finite; no reference sample gives them")
    signed = plan._signed_pair_thresholds(thresholds)
    if (signed[..., 1:] < signed[..., :-1]).any():
        raise ValueError(
            "the thresholds of a (column, direction) pair must not fall from "
            "cut to cut (rise, for a MAX pair); no reference sample gives them"
        )


@dataclass(frozen=True)
class FittedPartition:
    """A plan bound to a reference sample: the realized cut thresholds.

    ``cut_point_indices[k]`` is the 0-based row of the reference sample
    whose projection realized cut k; the indices are a permutation of
    the reference rows.  Block k (1-based) is the set of points that
    satisfy cut k's closing inequality and escaped all earlier cuts;
    block n + 1 is the residual region.
    """

    plan: PartitionPlan
    thresholds: tuple[float, ...]
    cut_point_indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.thresholds) != self.plan.n:
            raise ValueError("one threshold per cut required")
        if sorted(self.cut_point_indices) != list(range(self.plan.n)):
            raise ValueError("cut points must be a permutation of the reference rows")
        _check_pair_order(self.plan, self._thresholds)

    @property
    def n_blocks(self) -> int:
        return self.plan.n + 1

    @cached_property
    def _thresholds(self) -> np.ndarray:
        return np.asarray(self.thresholds, dtype=float).reshape(1, -1)


@dataclass(frozen=True, eq=False)
class FittedBatch:
    """R reference samples bound to one plan at once.

    Row r of the (R, n) arrays ``thresholds`` and ``cut_point_indices``
    is what ``fit_partition`` gives for sample r alone.  ``tied[r]``
    marks a sample with tied values in a projected coordinate; its row
    is not a valid fit.
    """

    plan: PartitionPlan
    thresholds: np.ndarray
    cut_point_indices: np.ndarray
    tied: np.ndarray

    def __post_init__(self):
        _check_pair_order(self.plan, self.thresholds)


@dataclass(frozen=True)
class BlockFrequencies:
    """Counts of comparison-sample points per block, (R_1, ..., R_{n+1}).

    ``boundary_ties`` counts comparison points that landed exactly on
    the threshold of the cut that captured them.  Such cross-sample ties
    break the continuity assumption; they are counted per the half-open
    convention but flagged so callers can warn.
    """

    counts: tuple[int, ...]
    m: int
    n: int
    boundary_ties: int = 0

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.n + 1:
            raise ValueError(f"need {self.n + 1} counts, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ValueError("block counts must be nonnegative")
        if sum(counts) != self.m:
            raise ValueError(f"counts sum to {sum(counts)}, expected m={self.m}")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True, eq=False)
class FrequencyBatch:
    """Block counts of R comparison samples against a ``FittedBatch``:
    row r of the (R, n + 1) ``counts`` and of the (R,) ``boundary_ties``
    is what ``block_frequencies`` gives for pair r alone."""

    counts: np.ndarray
    boundary_ties: np.ndarray


def _as_points(data, p: int | None = None) -> np.ndarray:
    """Coordinates as a float array of shape (size, p), or (R, size, p)
    for a stacked batch of samples; a 1-D input is univariate data."""
    if isinstance(data, Sample):
        pts = data.points
    else:
        pts = np.asarray(data, dtype=float)
        if not np.isfinite(pts).all():
            raise ValueError("data contains non-finite coordinates")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim not in (2, 3):
        raise ValueError(f"points must be 1-D, 2-D or a stacked 3-D batch, got ndim={pts.ndim}")
    if p is not None and pts.shape[-1] != p:
        raise ValueError(f"dimension mismatch: data has p={pts.shape[-1]}, plan has p={p}")
    return pts


def _separate_duplicates(pts: np.ndarray, components: Iterable[int], rng) -> np.ndarray:
    """Nudge duplicated projected values apart, one ulp at a time.

    Duplicates within a group are ordered by the seeded generator; a
    sweep over the sorted values then bumps each value that does not
    exceed its predecessor to the next representable float above it, so
    a bumped value that meets the next distinct value pushes that one up
    too.  Deterministic for a given seed; raises ``TieError`` if the
    values cannot be separated within the finite floats.
    """
    pts = pts.copy()
    for col in components:
        order = np.argsort(pts[:, col], kind="stable")
        _, starts, sizes = np.unique(pts[order, col], return_index=True, return_counts=True)
        for start, size in zip(starts, sizes):
            if size > 1:
                rng.shuffle(order[start : start + size])
        swept = pts[order, col]
        with np.errstate(over="ignore"):
            for k in range(1, swept.size):
                if swept[k] <= swept[k - 1]:
                    swept[k] = np.nextafter(swept[k - 1], np.inf)
        if not np.isfinite(swept[-1]) or (swept[1:] <= swept[:-1]).any():
            raise TieError(f"cannot separate tied values on coordinate {col + 1}")
        pts[order, col] = swept
    return pts


def _fit_kernel(plan: PartitionPlan, pts: np.ndarray):
    """Fit R reference samples, an (R, n, p) array, in one pass.

    Returns the (R, n) thresholds, the (R, n) cut-point rows, and an
    (R,) mask of samples with tied values in a projected coordinate.
    Each cut is one ``argmin`` over every sample's rows still alive.
    """
    r_count, n = pts.shape[:2]
    layout = plan._pair_table
    ordered = np.sort(pts[:, :, layout.used_columns], axis=1)
    tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=(1, 2))
    # one working copy per (column, direction) the cuts use; MAX columns
    # are negated so every cut takes a minimum, excluded rows read +inf
    work = np.multiply(
        pts[:, :, layout.columns].transpose(2, 0, 1), layout.signs[:, None, None], order="C"
    )
    rows = np.arange(r_count)
    picks = np.empty((n, r_count), dtype=np.intp)
    for k, j in enumerate(layout.slots):
        picks[k] = pick = work[j].argmin(axis=1)
        work[:, rows, pick] = np.inf
    picks = picks.T
    return pts[rows[:, None], picks, layout.cut_columns], picks, tied


# cells of the (R, points, pairs, width) comparison per chunk of
# comparison points, which bounds the assignment's memory at large m (on
# a 2-core x86 machine 2^16 to 2^20 cells assigned n = m = 2000 within
# 15% of each other; 2^12 took 2.5 times as long)
_ASSIGN_CHUNK_CELLS = 1 << 18


def _assign_kernel(plan: PartitionPlan, thresholds: np.ndarray, pts: np.ndarray):
    """Assign R comparison samples, an (R, m, p) array, to the blocks
    of R fits with (R, n) ``thresholds``.

    Returns the (R, m) 0-based block ids and the (R, m) mask of points
    that sit exactly on the threshold of the cut that closed them.  The
    signed thresholds of one (column, direction) pair never fall from
    cut to cut, so the first of its cuts that closes a point is fixed
    by how many of them lie strictly below the point's signed value.
    Each pair compares every point once with all its thresholds; a
    point's block is the earliest such cut over the pairs, or the
    residual block n.
    """
    n = plan.n
    layout = plan._pair_table
    r_count, m = pts.shape[:2]
    n_pairs, width = layout.table.shape[0], layout.table.shape[1] - 1
    limits = plan._signed_pair_thresholds(thresholds)[:, None]
    signed = (pts[:, :, layout.columns] * layout.signs)[..., None]
    flat, offsets = layout.table.ravel(), np.arange(n_pairs) * (width + 1)
    blocks = np.empty((r_count, m), dtype=np.intp)
    step = max(1, _ASSIGN_CHUNK_CELLS // (r_count * n_pairs * width))
    for lo in range(0, m, step):
        below = (limits < signed[:, lo : lo + step]).sum(axis=-1)
        blocks[:, lo : lo + step] = flat[below + offsets].min(axis=-1)
    # a point of the residual block escaped cut n - 1, so it never
    # equals that cut's threshold
    rows = np.arange(r_count)[:, None]
    cut = np.minimum(blocks, n - 1)
    values = pts[rows, np.arange(m), layout.cut_columns[cut]]
    return blocks, values == thresholds[rows, cut]


def _block_counts(blocks: np.ndarray, n: int) -> np.ndarray:
    """(R, n + 1) block counts of (R, m) block ids, in one ``bincount``."""
    r_count = blocks.shape[0]
    offsets = (n + 1) * np.arange(r_count)[:, None]
    return np.bincount((blocks + offsets).ravel(), minlength=r_count * (n + 1)).reshape(
        r_count, n + 1
    )


def fit_partition(
    plan: PartitionPlan,
    y,
    on_ties: str = "error",
    seed: int | None = None,
) -> FittedPartition | FittedBatch:
    """Bind a plan to a reference sample of exactly n points.

    At step k all not-yet-excluded reference points are projected onto
    cut k's coordinate; the extreme value becomes the threshold and the
    realizing point is excluded.  The reference data must have distinct
    values within every projected coordinate (ties void the coverage
    law); ``on_ties='perturb'`` separates duplicates deterministically
    instead of raising.

    A stacked (R, n, p) array of R reference samples is fitted in one
    kernel call and gives a ``FittedBatch``.  A batch never raises on
    ties: its tied samples are marked in ``tied``.  Perturbation takes
    one sample at a time.
    """
    if on_ties not in ("error", "perturb"):
        raise ValueError(f"on_ties must be 'error' or 'perturb', got {on_ties!r}")
    pts = _as_points(y, plan.p)
    if pts.shape[-2] != plan.n:
        raise ValueError(
            f"reference sample has {pts.shape[-2]} points, plan expects {plan.n}"
        )
    if pts.ndim == 3:
        if on_ties == "perturb":
            raise ValueError("on_ties='perturb' takes one reference sample, not a stacked batch")
        return FittedBatch(plan, *_fit_kernel(plan, pts))
    thresholds, picks, tied = _fit_kernel(plan, pts[None])
    if tied[0]:
        dup_cols = [c for c in plan._pair_table.used_columns if np.unique(pts[:, c]).size < plan.n]
        if on_ties == "error":
            raise TieError(
                f"tied projected values on coordinate {dup_cols[0] + 1}; "
                "the construction assumes continuity (use on_ties='perturb' to break ties)"
            )
        pts = _separate_duplicates(pts, dup_cols, np.random.default_rng(seed))
        thresholds, picks, _ = _fit_kernel(plan, pts[None])
    return FittedPartition(plan, tuple(thresholds[0].tolist()), tuple(picks[0].tolist()))


def assign_block(fp: FittedPartition, x) -> int:
    """Block index (1-based) of a single point.

    The point belongs to the first cut whose closing inequality it
    satisfies (projection <= threshold for MIN cuts, >= for MAX cuts;
    equality closes, mirroring the half-open univariate intervals), or
    to the residual block n + 1.
    """
    vec = np.asarray(x, dtype=float).reshape(1, -1)
    if vec.shape[1] != fp.plan.p:
        raise ValueError(f"point has dimension {vec.shape[1]}, partition has p={fp.plan.p}")
    blocks, _ = _assign_kernel(fp.plan, fp._thresholds, _as_points(vec)[None])
    return int(blocks[0, 0]) + 1


def block_frequencies(
    fp: FittedPartition | FittedBatch, x
) -> BlockFrequencies | FrequencyBatch:
    """Count comparison-sample points per block.

    Against a ``FittedBatch`` of R fits, ``x`` is a stacked (R, m, p)
    array whose sample r is counted against fit r, all in one kernel
    call, and the result is a ``FrequencyBatch``.
    """
    plan = fp.plan
    pts = _as_points(x, plan.p)
    if isinstance(fp, FittedBatch):
        if pts.ndim != 3 or pts.shape[0] != fp.thresholds.shape[0]:
            raise ValueError(
                f"a batch of {fp.thresholds.shape[0]} fits needs a stacked "
                f"({fp.thresholds.shape[0]}, m, {plan.p}) array, got shape {pts.shape}"
            )
        blocks, ties = _assign_kernel(plan, fp.thresholds, pts)
        return FrequencyBatch(_block_counts(blocks, plan.n), ties.sum(axis=1))
    if pts.ndim != 2:
        raise ValueError(f"one fit needs one (m, {plan.p}) sample, got shape {pts.shape}")
    blocks, ties = _assign_kernel(plan, fp._thresholds, pts[None])
    return BlockFrequencies(
        tuple(_block_counts(blocks, plan.n)[0].tolist()), pts.shape[0], plan.n,
        boundary_ties=int(ties.sum()),
    )
