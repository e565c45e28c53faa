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
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Direction",
    "PlanLabel",
    "TieError",
    "Sample",
    "CutRule",
    "PartitionPlan",
    "FittedPartition",
    "BlockFrequencies",
    "make_univariate_plan",
    "make_stairstep_plan",
    "make_spiral_plan",
    "make_plan",
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


def make_univariate_plan(n: int, ascending: bool = True) -> PartitionPlan:
    """Plan the classical univariate blocks.

    Ascending order cuts at the successive minima, so block k is the
    half-open interval between the (k-1)-th and k-th order statistics.
    Descending order peels from the maximum instead.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    direction = Direction.MIN if ascending else Direction.MAX
    cuts = tuple(CutRule(1, direction) for _ in range(n))
    label = PlanLabel.UNIVARIATE_ASC if ascending else PlanLabel.UNIVARIATE_DESC
    return PartitionPlan(1, n, cuts, label)


def _check_axes(axes: Sequence[int] | None, p: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(1, p + 1))
    axes = tuple(int(a) for a in axes)
    if not axes or any(a < 1 or a > p for a in axes):
        raise ValueError(f"axes must be nonempty components in [1, {p}], got {axes}")
    return axes


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
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isinstance(direction, Direction):
        raise ValueError(f"direction must be a Direction, got {direction!r}")
    axes = _check_axes(axes, p)
    components = []
    forward = True
    while len(components) < n:
        components.extend(axes if forward else axes[::-1])
        if boustrophedon:
            forward = not forward
    cuts = tuple(CutRule(c, direction) for c in components[:n])
    return PartitionPlan(p, n, cuts, PlanLabel.STAIRSTEP)


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
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isinstance(start, Direction):
        raise ValueError(f"start must be a Direction, got {start!r}")
    axes = _check_axes(axes, p)
    other = Direction.MAX if start is Direction.MIN else Direction.MIN
    cuts = []
    if paired:
        idx = 0
        while len(cuts) < n:
            comp = axes[idx % len(axes)]
            cuts.append(CutRule(comp, start))
            if len(cuts) < n:
                cuts.append(CutRule(comp, other))
            idx += 1
    else:
        visits = {a: 0 for a in axes}
        for k in range(n):
            comp = axes[k % len(axes)]
            direction = start if visits[comp] % 2 == 0 else other
            visits[comp] += 1
            cuts.append(CutRule(comp, direction))
    return PartitionPlan(p, n, tuple(cuts), PlanLabel.SPIRAL)


def make_plan(label: str | PlanLabel, p: int, n: int, **kwargs) -> PartitionPlan:
    """Build a named plan.

    The names 'spiral' and 'stairstep' are the constructions behind the
    published power tables: they alternate between two projection axes
    (the first two coordinates), as in the illustrated bivariate
    examples, whatever the dimension.  The '_cycle_all' variants sweep
    through every coordinate instead.  Further names: 'spiral_paired'
    (both extremes of an axis before advancing), 'stairstep_max' (peel
    from the maxima), 'stairstep_reversing' (coordinate order flips on
    alternate sweeps), and 'univariate' (single-coordinate data).
    """
    name = label.value if isinstance(label, PlanLabel) else str(label).lower()
    if name in ("spiral", "sp"):
        return make_spiral_plan(p, n, axes=figure_axes(p), **kwargs)
    if name == "spiral_cycle_all":
        return make_spiral_plan(p, n, **kwargs)
    if name == "spiral_paired":
        return make_spiral_plan(p, n, paired=True, axes=figure_axes(p), **kwargs)
    if name in ("stairstep", "stair-step", "ss"):
        return make_stairstep_plan(p, n, axes=figure_axes(p), **kwargs)
    if name == "stairstep_max":
        return make_stairstep_plan(p, n, direction=Direction.MAX, axes=figure_axes(p), **kwargs)
    if name == "stairstep_cycle_all":
        return make_stairstep_plan(p, n, **kwargs)
    if name == "stairstep_reversing":
        return make_stairstep_plan(p, n, boustrophedon=True, **kwargs)
    if name in ("univariate", "univariate_asc"):
        if p != 1:
            raise ValueError("univariate plan requires 1-dimensional data")
        return make_univariate_plan(n, ascending=True, **kwargs)
    if name == "univariate_desc":
        if p != 1:
            raise ValueError("univariate plan requires 1-dimensional data")
        return make_univariate_plan(n, ascending=False, **kwargs)
    raise ValueError(f"unknown plan label {label!r}")


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

    @property
    def n_blocks(self) -> int:
        return self.plan.n + 1

    @cached_property
    def _columns(self) -> np.ndarray:
        return np.array([rule.component - 1 for rule in self.plan.cuts], dtype=np.intp)

    @cached_property
    def _is_min(self) -> np.ndarray:
        return np.array(
            [rule.direction is Direction.MIN for rule in self.plan.cuts], dtype=bool
        )

    @cached_property
    def _thresholds(self) -> np.ndarray:
        return np.asarray(self.thresholds, dtype=float)


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


def _as_points(data, p: int | None = None) -> np.ndarray:
    pts = data.points if isinstance(data, Sample) else np.asarray(data, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if p is not None and pts.shape[1] != p:
        raise ValueError(f"dimension mismatch: data has p={pts.shape[1]}, plan has p={p}")
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


def fit_partition(
    plan: PartitionPlan,
    y,
    on_ties: str = "error",
    seed: int | None = None,
) -> FittedPartition:
    """Bind a plan to a reference sample of exactly n points.

    At step k all not-yet-excluded reference points are projected onto
    cut k's coordinate; the extreme value becomes the threshold and the
    realizing point is excluded.  The reference data must have distinct
    values within every projected coordinate (ties void the coverage
    law); ``on_ties='perturb'`` separates duplicates deterministically
    instead of raising.
    """
    pts = _as_points(y, plan.p)
    if pts.shape[0] != plan.n:
        raise ValueError(
            f"reference sample has {pts.shape[0]} points, plan expects {plan.n}"
        )
    used = sorted({rule.component - 1 for rule in plan.cuts})
    dup_cols = [c for c in used if np.unique(pts[:, c]).size < pts.shape[0]]
    if dup_cols:
        if on_ties == "perturb":
            rng = np.random.default_rng(seed)
            pts = _separate_duplicates(pts, dup_cols, rng)
        elif on_ties == "error":
            raise TieError(
                f"tied projected values on coordinate {dup_cols[0] + 1}; "
                "the construction assumes continuity (use on_ties='perturb' to break ties)"
            )
        else:
            raise ValueError(f"on_ties must be 'error' or 'perturb', got {on_ties!r}")

    alive = np.arange(plan.n)
    thresholds = np.empty(plan.n)
    cut_points = np.empty(plan.n, dtype=int)
    for k, rule in enumerate(plan.cuts):
        proj = pts[alive, rule.component - 1]
        pos = int(np.argmin(proj) if rule.direction is Direction.MIN else np.argmax(proj))
        thresholds[k] = proj[pos]
        cut_points[k] = alive[pos]
        alive = np.delete(alive, pos)
    return FittedPartition(plan, tuple(thresholds.tolist()), tuple(cut_points.tolist()))


def assign_block(fp: FittedPartition, x) -> int:
    """Block index (1-based) of a single point.

    The point belongs to the first cut whose closing inequality it
    satisfies (projection <= threshold for MIN cuts, >= for MAX cuts;
    equality closes, mirroring the half-open univariate intervals), or
    to the residual block n + 1.
    """
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.shape[0] != fp.plan.p:
        raise ValueError(f"point has dimension {vec.shape[0]}, partition has p={fp.plan.p}")
    if not np.isfinite(vec).all():
        raise ValueError("point has non-finite coordinates")
    for k, rule in enumerate(fp.plan.cuts):
        value = vec[rule.component - 1]
        t = fp.thresholds[k]
        if (rule.direction is Direction.MIN and value <= t) or (
            rule.direction is Direction.MAX and value >= t
        ):
            return k + 1
    return fp.plan.n + 1


def _assign_many(fp: FittedPartition, pts: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorized block assignment; returns (0-based block ids, tie count)."""
    cols = fp._columns
    is_min = fp._is_min
    thr = fp._thresholds
    m = pts.shape[0]
    blocks = np.full(m, fp.plan.n, dtype=np.intp)  # residual block by default
    alive = np.arange(m)
    ties = 0
    for k in range(fp.plan.n):
        if alive.size == 0:
            break
        proj = pts[alive, cols[k]]
        captured = proj <= thr[k] if is_min[k] else proj >= thr[k]
        if captured.any():
            ties += int((proj[captured] == thr[k]).sum())
            blocks[alive[captured]] = k
            alive = alive[~captured]
    return blocks, ties


def block_frequencies(fp: FittedPartition, x) -> BlockFrequencies:
    """Count comparison-sample points per block."""
    pts = _as_points(x, fp.plan.p)
    blocks, ties = _assign_many(fp, pts)
    counts = np.bincount(blocks, minlength=fp.plan.n + 1)
    return BlockFrequencies(
        tuple(int(c) for c in counts), pts.shape[0], fp.plan.n, boundary_ties=ties
    )
