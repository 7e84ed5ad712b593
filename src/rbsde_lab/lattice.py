"""Discrete Brownian lattices and the exact calculus of adapted processes.

Everything downstream (solvers, oracles, verification suites) runs on the two
tree layouts built here: a full binary tree whose nodes are path prefixes,
and a recombining tree whose nodes are up-move counts. Steps are the
symmetric +-sqrt(dt) walk with probability 1/2 each, so one-step conditional
expectations are two-point averages, node probabilities are exact dyadic
rationals, and the martingale representation coefficient is a closed-form
difference quotient.

Trees, adapted processes, and stopping rules are immutable after
construction; all operations are pure functions of their inputs and safe for
concurrent reads.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import (
    DepthExceeded,
    InvalidGrid,
    TreeMismatch,
    UnsupportedTreeMode,
)
from .records import Record, ValueRecord

if TYPE_CHECKING:  # fractions loads where exact probabilities are asked for
    from fractions import Fraction

# Full-binary trees keep every path in memory; 2**25 leaves is the desk-scale
# bound beyond which builds are refused.
FULL_BINARY_MAX_STEPS = 25

# A value within this distance above an obstacle is in contact with it: the
# hitting rules and the strike quote's first-contact level both read it.
DEFAULT_CONTACT_TOL = 1e-9


class TreeMode(Enum):
    FULL_BINARY = "full-binary"
    RECOMBINING = "recombining"


class TimeGrid(ValueRecord):
    """Uniform grid of ``steps + 1`` times on ``[0, horizon]``."""

    __slots__ = _fields = ("horizon", "steps")

    def __init__(self, horizon: float, steps: int) -> None:
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            raise InvalidGrid(f"steps must be a positive integer, got {steps!r}")
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise InvalidGrid(f"horizon must be finite and positive, got {horizon!r}")
        if not horizon / steps > 0.0:
            raise InvalidGrid(f"horizon / steps underflows to 0 at {horizon!r} / {steps}")
        self._set(horizon, steps)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def time(self, level: int) -> float:
        return level * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


def _popcount(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values.astype(np.uint64)).astype(np.int64)


class ScenarioTree(ValueRecord):
    """Binary scenario tree over a :class:`TimeGrid`.

    FULL_BINARY indexes the ``2**i`` nodes of level ``i`` by the path
    bitstring (one bit appended per step, up move = 1), so node ``k`` has
    children ``2k`` (down) and ``2k + 1`` (up) and its ancestor at level
    ``j`` is ``k >> (i - j)``.  RECOMBINING indexes the ``i + 1`` nodes by
    the up-move count, so node ``j`` has children ``j`` (down) and ``j + 1``
    (up).  Recombining storage is only sound for processes that are
    functions of the cumulative increment; builders of dependent processes
    must guarantee that themselves.
    """

    _fields = ("grid", "mode")  # no __slots__: ``sqrt_dt`` and the level sizes are cached

    def __init__(self, grid: TimeGrid, mode: TreeMode):
        if mode is TreeMode.FULL_BINARY and grid.steps > FULL_BINARY_MAX_STEPS:
            raise DepthExceeded(
                f"full-binary trees support at most {FULL_BINARY_MAX_STEPS} steps, "
                f"got {grid.steps}"
            )
        self._set(grid, mode)

    def __repr__(self) -> str:
        return f"ScenarioTree(T={self.grid.horizon}, N={self.grid.steps}, {self.mode.value})"

    @property
    def steps(self) -> int:
        return self.grid.steps

    @cached_property
    def sqrt_dt(self) -> float:
        return math.sqrt(self.grid.dt)

    @cached_property
    def _level_sizes(self) -> tuple[int, ...]:
        """Node count of every level, read by the per-level lifts without a call each."""
        if self.mode is TreeMode.FULL_BINARY:
            return tuple(1 << i for i in range(self.steps + 1))
        return tuple(range(1, self.steps + 2))

    def level_size(self, level: int) -> int:
        if not 0 <= level <= self.steps:
            raise IndexError(f"level {level} outside 0..{self.steps}")
        return self._level_sizes[level]

    def up_counts(self, level: int) -> np.ndarray:
        """Number of up moves leading to each node of ``level``."""
        if self.mode is TreeMode.FULL_BINARY:
            return _popcount(np.arange(self.level_size(level)))
        return np.arange(level + 1, dtype=np.int64)

    def brownian_level(self, level: int) -> np.ndarray:
        """Cumulative-walk value at every node of ``level``."""
        return (2 * self.up_counts(level) - level) * self.sqrt_dt

    def brownian(self) -> AdaptedProcess:
        levels = [self.brownian_level(i) for i in range(self.steps + 1)]
        return AdaptedProcess(self, levels)

    def exact_level_probabilities(self, level: int) -> list[Fraction]:
        """Node probabilities of ``level`` as exact dyadic rationals."""
        from fractions import Fraction

        denom = 1 << level
        if self.mode is TreeMode.FULL_BINARY:
            return [Fraction(1, denom)] * self.level_size(level)
        return [Fraction(math.comb(level, j), denom) for j in range(level + 1)]

    def child_values(self, next_level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split level ``i + 1`` values into (up, down) arrays aligned with level ``i``.

        Only the last axis is split, so a batch of levels with shape
        ``(..., level_size(i + 1))`` splits member by member.
        """
        v = np.asarray(next_level)
        if self.mode is TreeMode.FULL_BINARY:
            return v[..., 1::2], v[..., 0::2]
        return v[..., 1:], v[..., :-1]

    def carry(self, level: np.ndarray) -> np.ndarray | None:
        """Level ``i`` values handed to both children of each node, as level ``i + 1``.

        This is how path-carried data move forward.  A full-binary node has
        one path, so each value is repeated; a recombining node joins two
        paths, so only a constant level carries (as a one-cell view), and
        for any other level this returns None.  Leading axes are batch
        members.
        """
        if self.mode is TreeMode.FULL_BINARY:
            return np.repeat(level, 2, axis=-1)
        # one-cell views are constant; a batch carries only when every member's level does
        if level.strides[-1] == 0 or (level == level[..., :1]).all():
            return level_constant(level[..., :1], level.shape[-1] + 1, level.dtype)
        return None

    def expectation(self, level_values: np.ndarray, level: int) -> float:
        """Probability-weighted mean of values at ``level``.

        The accumulation runs in rational arithmetic and rounds once at the end.
        """
        from fractions import Fraction

        values = np.asarray(level_values, dtype=float)
        if values.shape != (self.level_size(level),):
            raise TreeMismatch(f"expected {self.level_size(level)} values at level {level}")
        total = sum(
            p * Fraction(v) for p, v in zip(self.exact_level_probabilities(level), values.tolist())
        )
        return float(total)


def build_tree(grid: TimeGrid, mode: TreeMode) -> ScenarioTree:
    """Build a scenario tree; rejects full-binary depths beyond the bound."""
    return ScenarioTree(grid, mode)


def conditional_expectation(child_up, child_down):
    """One-step conditional expectation: the plain average of the children."""
    return (child_up + child_down) / 2.0


def martingale_coefficient(child_up, child_down, dt: float):
    """Unique ``z`` with ``child = mean +- z * sqrt(dt)``.

    This is the discrete martingale-representation coefficient: the
    difference quotient of the children over the step spread.
    """
    if dt <= 0.0:
        raise InvalidGrid(f"dt must be positive, got {dt!r}")
    return (child_up - child_down) / (2.0 * math.sqrt(dt))


def level_constant(value, size: int, dtype=float) -> np.ndarray:
    """Read-only level of ``size`` equal values stored in one frozen cell.

    A column ``value`` of shape ``batch + (1,)`` gives one cell per member.
    """
    cell = np.array(value if isinstance(value, np.ndarray) else [value], dtype=dtype)
    cell.flags.writeable = False
    return np.ndarray(cell.shape[:-1] + (size,), cell.dtype, cell, 0, cell.strides[:-1] + (0,))


def _cells(level: np.ndarray) -> np.ndarray:
    """The values a level stores: a one-cell view (stride 0) reads as its one cell.

    Scans such as ``any`` and ``all`` over the result cost O(1) for a
    level-constant level instead of O(level size).
    """
    return level[..., :1] if level.strides[-1] == 0 else level


def constant_levels(tree: ScenarioTree, value, dtype=float) -> list[np.ndarray]:
    """Every level of ``tree`` holding ``value``, as slices of one constant row."""
    sizes = tree._level_sizes
    row = level_constant(value, sizes[-1], dtype)
    return [row[..., :size] for size in sizes]


def _per_member(values):
    """Values with one entry per batch member, or the Python scalar without a batch."""
    values = np.asarray(values)
    return values.item() if values.ndim == 0 else values


def _refuse_batch(refusal: str, levels: Sequence[np.ndarray], *shapes: tuple[int, ...]) -> None:
    """Raise ``ValueError`` naming the batch shape when ``levels`` (node axis
    last) or the further batch ``shapes`` have batch axes."""
    if batch := np.broadcast_shapes(*(np.shape(x)[:-1] for x in levels), *shapes):
        raise ValueError(f"{refusal}, got a batch of shape {batch}")


def _frozen_levels(
    tree: ScenarioTree, levels: Sequence, dtype, what: str, *, batched: bool = False
) -> list[np.ndarray]:
    """One array per level of ``tree``, checked against its size and read-only.

    A level that is read-only down to the array owning its memory and
    already has ``dtype`` is kept as given (level-constant data as one-cell
    views, solver output as made); anything else is copied.  With
    ``batched``, leading axes are batch members: the node axis comes last,
    and the levels' batch shapes must broadcast together.
    """
    if len(levels) != tree.steps + 1:
        raise TreeMismatch(f"{what} needs {tree.steps + 1} levels, got {len(levels)}")
    stored = []
    for i, (level, size) in enumerate(zip(levels, tree._level_sizes)):
        owner = level
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        arr = level if owner is None and level.dtype == dtype else np.array(level, dtype=dtype)
        if arr.shape[-1:] != (size,) or (arr.ndim > 1 and not batched):
            raise TreeMismatch(f"{what} level {i} must hold {size} values, got shape {arr.shape}")
        arr.flags.writeable = False
        stored.append(arr)
    try:
        np.broadcast_shapes(*{arr.shape[:-1] for arr in stored})
    except ValueError:
        raise TreeMismatch(f"{what} levels have batch shapes that do not broadcast") from None
    return stored


class AdaptedProcess(Record):
    """One real value per tree node; immutable after construction.

    Levels are stored as :func:`_frozen_levels` adopts them, so no caller
    can alias a process.  Leading axes of a level are batch members, the
    node axis last; :meth:`value` and :meth:`root` then give one entry per
    member, and a Python float without a batch.
    """

    __slots__ = _fields = ("tree", "_levels")
    __repr__ = object.__repr__  # too many levels to print

    def __init__(self, tree: ScenarioTree, levels: Sequence[np.ndarray]):
        levels = _frozen_levels(tree, levels, np.float64, "process", batched=True)
        for i, level in enumerate(levels):
            if not np.isfinite(_cells(level)).all():
                raise ValueError(f"non-finite process at level {i}")
        self._set(tree, tuple(levels))

    def level(self, i: int) -> np.ndarray:
        return self._levels[i]

    def value(self, level: int, node: int) -> float | np.ndarray:
        return _per_member(self._levels[level][..., node])

    def root(self) -> float | np.ndarray:
        return _per_member(self._levels[0][..., 0])

    def levels(self) -> tuple[np.ndarray, ...]:
        return self._levels

    @classmethod
    def constant(cls, tree: ScenarioTree, value: float) -> AdaptedProcess:
        return cls(tree, constant_levels(tree, float(value)))

    @classmethod
    def from_time_function(cls, tree: ScenarioTree, f: Callable[[float], float]) -> AdaptedProcess:
        """Deterministic lift: every node of level ``i`` carries ``f(t_i)``."""
        return cls(
            tree,
            [
                level_constant(float(f(tree.grid.time(i))), tree.level_size(i))
                for i in range(tree.steps + 1)
            ],
        )

    @classmethod
    def from_state_function(
        cls, tree: ScenarioTree, f: Callable[[float, np.ndarray], np.ndarray]
    ) -> AdaptedProcess:
        """Markovian lift ``f(t, walk value)``, legal on both tree layouts."""
        levels = []
        for i in range(tree.steps + 1):
            vals = np.broadcast_to(
                np.asarray(f(tree.grid.time(i), tree.brownian_level(i)), dtype=float),
                (tree.level_size(i),),
            )
            levels.append(vals)
        return cls(tree, levels)


def backward_expectation(tree: ScenarioTree, leaf_values: np.ndarray) -> AdaptedProcess:
    """Martingale closed by the given terminal values (driverless recursion)."""
    values = np.asarray(leaf_values, dtype=float)
    levels: list[np.ndarray] = [None] * (tree.steps + 1)  # type: ignore[list-item]
    levels[tree.steps] = values
    for i in range(tree.steps - 1, -1, -1):
        up, down = tree.child_values(levels[i + 1])
        levels[i] = conditional_expectation(up, down)
    return AdaptedProcess(tree, levels)


class StoppingRule(Record):
    """First-hit stopping rule stored as a flag per node.

    Along every path the rule stops at the first flagged node; the terminal
    level is always flagged so that every path stops by level ``N``.  The
    flag at a node depends only on that node, which makes the rule adapted
    by construction.
    """

    _fields = ("tree", "_flags")  # no __slots__: the masks are cached per instance
    __repr__ = object.__repr__

    def __init__(self, tree: ScenarioTree, flags: Sequence[np.ndarray]):
        stored = _frozen_levels(tree, flags, np.bool_, "rule")
        stored[tree.steps] = level_constant(True, tree.level_size(tree.steps), bool)
        self._set(tree, tuple(stored))

    def flags(self, level: int) -> np.ndarray:
        return self._flags[level]

    @classmethod
    def terminal(cls, tree: ScenarioTree) -> StoppingRule:
        return cls.at_level(tree, tree.steps)

    @classmethod
    def root(cls, tree: ScenarioTree) -> StoppingRule:
        return cls.at_level(tree, 0)

    @classmethod
    def at_level(cls, tree: ScenarioTree, level: int) -> StoppingRule:
        if not 0 <= level <= tree.steps:
            raise IndexError(f"level {level} outside 0..{tree.steps}")
        off, on = constant_levels(tree, False, bool), constant_levels(tree, True, bool)
        rule = cls(tree, off[:level] + on[level:])
        # known when built, so never scanned for: the flags are the stopped masks
        stops = tuple(off[:level] + on[level : level + 1] + off[level + 1 :])
        vars(rule).update(first_stop_level=level, _masks=(rule._flags, stops))
        return rule

    @cached_property
    def first_stop_level(self) -> int:
        """Lowest level holding a stopping node; below it no path has stopped.

        A rule built by :meth:`at_level` knows it; one built from flags scans.
        """
        return next(i for i, f in enumerate(self._flags) if _cells(f).any())

    @property
    def is_terminal(self) -> bool:
        """True when every path runs to the last level before stopping."""
        return self.first_stop_level == self.tree.steps

    @cached_property
    def _masks(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The stopped and the stop-node masks, from one forward pass.

        Below the first stopping level both are the (all-false) flags.  From
        there a node has stopped when the paths into it had, as
        :meth:`ScenarioTree.carry` hands their mask on, or when it is
        flagged; it is a stop node when it is flagged and they had not.  A
        recombining node joins paths that may disagree, so there only rules
        whose stopped masks fill whole levels resolve.
        """
        tree, flags = self.tree, self._flags
        first = self.first_stop_level
        stopped, stops = list(flags[: first + 1]), list(flags[: first + 1])
        for i in range(first + 1, tree.steps + 1):
            held = tree.carry(stopped[i - 1])
            if held is None:
                raise UnsupportedTreeMode("partially flagged stopping rules need a full-binary tree")
            stopped.append(held | flags[i])
            stops.append(flags[i] & ~held)
        for mask in stopped + stops:
            mask.flags.writeable = False
        return tuple(stopped), tuple(stops)

    @property
    def stopped_by_level(self) -> tuple[np.ndarray, ...]:
        """Mask per level: has this path stopped at or before the level?"""
        return self._masks[0]

    @property
    def stop_node_masks(self) -> tuple[np.ndarray, ...]:
        """Mask per level: nodes where some path stops for the first time."""
        return self._masks[1]

    def precedes(self, other: StoppingRule) -> bool:
        """True when this rule stops no later than ``other`` on every path:
        wherever ``other`` stops, this rule has already stopped."""
        if self.tree != other.tree:
            raise TreeMismatch("stopping rules live on different trees")
        return not any(
            (_cells(stops) & ~_cells(stopped)).any()
            for stopped, stops in zip(self.stopped_by_level, other.stop_node_masks)
        )


def hitting_rule(a: AdaptedProcess, b: AdaptedProcess) -> StoppingRule:
    """First hit of ``a_t <= b_t + DEFAULT_CONTACT_TOL``; stops at N when never hit."""
    if a.tree != b.tree:
        raise TreeMismatch("processes live on different trees")
    _refuse_batch("a hitting rule takes one pair of processes", a.levels() + b.levels())
    flags = [a.level(i) <= b.level(i) + DEFAULT_CONTACT_TOL for i in range(a.tree.steps + 1)]
    return StoppingRule(a.tree, flags)


def event_probability(rule: StoppingRule, predicate: Sequence[np.ndarray]) -> float:
    """Probability that the predicate holds at and after stopping.

    A path counts when the level mask ``predicate[i]`` is true at its
    stopping node and at every later node along the path.  This is the
    backward product ``q = good * mean(q at the children)`` from the last
    level, where ``good`` is ``predicate`` on stopped nodes and true
    elsewhere.  On a full-binary tree each ``q`` is a dyadic rational of at
    most ``steps`` bits, so the float result is exact; on a recombining
    tree the rule's masks must resolve.
    """
    tree = rule.tree
    stopped = rule.stopped_by_level
    q = 1.0
    for i in range(tree.steps, -1, -1):
        pred = np.asarray(predicate[i], dtype=bool)
        if pred.shape != (tree.level_size(i),):
            raise TreeMismatch(f"predicate level {i} has wrong shape {pred.shape}")
        if i < tree.steps:
            q = conditional_expectation(*tree.child_values(q))
        q = np.where(~stopped[i] | pred, q, 0.0)
    return float(q[0])


def _held_after(levels: Sequence[np.ndarray], rule: StoppingRule) -> list[np.ndarray]:
    """``levels`` held from each path's stop on: level ``i`` reads ``x(min(t_i, tau))``.

    Levels up to the rule's first stopping level pass through as given;
    from there on, nodes whose path stopped before the level take the
    value their parent carries (:meth:`ScenarioTree.carry`).  Every level
    returned is read-only, so :func:`_frozen_levels` adopts the ones built
    here without a copy.
    """
    tree = rule.tree
    stopped = rule.stopped_by_level
    out = list(levels)
    for i in range(rule.first_stop_level + 1, tree.steps + 1):
        carried = tree.carry(out[i - 1])
        if carried is None:
            raise UnsupportedTreeMode(
                "holding level-varying data after a stop needs a full-binary tree"
            )
        already = tree.carry(stopped[i - 1])
        out[i] = carried if _cells(already).all() else np.where(already, carried, levels[i])
    for level in out:
        level.flags.writeable = False
    return out


def freeze_after(process: AdaptedProcess, rule: StoppingRule) -> AdaptedProcess:
    """Process held constant once the rule has stopped: ``s(min(t, tau))``."""
    if process.tree != rule.tree:
        raise TreeMismatch("process and rule live on different trees")
    return AdaptedProcess(process.tree, _held_after(process.levels(), rule))
