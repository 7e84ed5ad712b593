"""Discretely reflected backward solver with an exact complementarity split.

Each backward step first takes the plain implicit driver step, then clamps
the result to the obstacle; the clamp amount is the reflection increment
applied at that node.  The split keeps three facts exact nodewise: the
solution dominates the obstacle, increments are nonnegative, and an
increment is only ever applied where the clamped value sits on the
obstacle, so ``(value - obstacle) * increment = 0`` without tolerance.

Cumulative reflection is a path functional, stored per node on full-binary
trees and on recombining trees only when every path into a node accumulates
the same amount.  Its largest value over the paths, which is what the checks
read, is taken backward on both layouts from the increments alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .bsde import TerminalCondition, _full_sweep, _root, _silenced, _stop_node_values, _sweep
from .errors import (
    DepthExceeded,
    NumericalBreakdown,
    RuleOrderViolated,
    TerminalBelowObstacle,
    TreeMismatch,
    UnsupportedTreeMode,
)
from .generators import GeneratorSpec
from .lattice import (
    AdaptedProcess,
    ScenarioTree,
    StoppingRule,
    TreeMode,
    _cells,
    _per_member,
    _refuse_batch,
    conditional_expectation,
    hitting_rule,
)
from .records import Record


class ObstacleSpec(Record):
    """Lower barrier process, finite at every node, with an optional finite declared upper bound."""

    _fields = ("process", "bound")  # no __slots__: ``modulus_estimate`` is cached per instance

    def __init__(self, process: AdaptedProcess, bound: float | None = None):
        if bound is not None:
            if not np.isfinite(bound):
                raise ValueError(f"obstacle bound must be finite, got {bound!r}")
            top = float(np.max([np.max(level) for level in process.levels()]))
            if not top <= bound + 1e-12:
                raise ValueError(f"obstacle exceeds its declared bound: max {top!r} > {bound!r}")
        self._set(process, bound)

    @property
    def tree(self) -> ScenarioTree:
        return self.process.tree

    @cached_property
    @np.errstate(over="ignore")  # a move past the float range reads as inf
    def modulus_estimate(self) -> float:
        """Largest one-step move scaled by sqrt(dt); recorded, never enforced."""
        tree = self.tree
        worst = 0.0
        for i in range(tree.steps):
            up, down = tree.child_values(self.process.level(i + 1))
            here = self.process.level(i)
            worst = max(
                worst,
                float(np.max(np.abs(up - here))),
                float(np.max(np.abs(down - here))),
            )
        return worst / tree.sqrt_dt


class ReflectionDiagnostics(NamedTuple):
    """Sweep reductions of a reflected solve, one entry per batch member."""

    skorokhod_residual: float | np.ndarray
    min_gap: float | np.ndarray
    max_increment: float | np.ndarray
    iterations: int | np.ndarray
    residual: float | np.ndarray
    cumulative_available: bool | np.ndarray


class RbsdeSolution(Record):
    """Reflected triple: value, coefficient, and the reflection push.

    ``k_increments`` holds the push applied at each node (the increment
    accrued over the following step); ``k`` is its path accumulation with
    ``k = 0`` at the root, or ``None`` when the recombining layout cannot
    represent it.
    """

    __slots__ = _fields = ("y", "z", "k_increments", "k", "diagnostics")


def _path_maximum(tree: ScenarioTree, increments: Iterable[np.ndarray]) -> float | np.ndarray:
    """Largest sum of ``increments`` over the path prefixes from the root, at least
    0 (the empty prefix), one entry per member, a NaN kept: the max-plus recursion
    ``B = max(0, d + max over the children of B)`` from ``B = 0`` at the last level.

    The increments come in sweep order, one level at a time from the last
    level down; the last level's are read past, since no step follows them.
    """
    levels = iter(increments)
    next(levels)
    best = np.zeros(tree.level_size(tree.steps))
    for increment in levels:
        best = np.maximum(0.0, increment + np.maximum(*tree.child_values(best)))
    return _per_member(best[..., 0])


def solve_rbsde(
    generator: GeneratorSpec, terminal: TerminalCondition, obstacle: ObstacleSpec
) -> RbsdeSolution:
    """Backward reflected recursion from the terminal rule to the root.

    This is the shared sweep keeping every level.  Batch axes of the data
    and the driver's coefficient columns carry through as in
    :func:`bsde.solve_bsde`: every member is its own solve bit for bit, and
    the diagnostics hold one entry per member.  On a recombining tree a
    batch carries its cumulative push only when every member's can be
    carried.
    """
    y_levels, z_levels, dk_levels, found = _full_sweep(generator, terminal, obstacle.process)
    tree = terminal.tree
    cumulative = [np.zeros(1)]  # the push summed along each path from 0 at the root
    for i in range(tree.steps):
        with _silenced():  # a sum past the float range reads as inf, refused below
            cumulative.append(tree.carry(cumulative[i] + dk_levels[i]))
        if cumulative[-1] is None:  # paths into a recombining node summed differently
            cumulative = None
            break
        if not np.isfinite(_cells(cumulative[-1])).all():
            raise NumericalBreakdown(f"non-finite cumulative push at level {i + 1}")
    for fresh in cumulative or []:
        fresh.flags.writeable = False
    batch = np.shape(found["iterations"])
    diagnostics = ReflectionDiagnostics(
        **found, cumulative_available=_per_member(np.full(batch, cumulative is not None))
    )
    return RbsdeSolution(
        y=AdaptedProcess(tree, y_levels),
        z=AdaptedProcess(tree, z_levels),
        k_increments=AdaptedProcess(tree, dk_levels),
        k=AdaptedProcess(tree, cumulative) if cumulative is not None else None,
        diagnostics=diagnostics,
    )


def reflected_value(
    generator: GeneratorSpec, terminal: TerminalCondition, obstacle: ObstacleSpec
) -> float | np.ndarray:
    """Root value of the reflected solution.

    A root-only sweep, equal to ``solve_rbsde(...).y.root()`` bit for bit,
    one per batch member.
    """
    return _per_member(_root(generator, terminal, obstacle.process).y[..., 0])


def reflected_conditional(
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    obstacle: ObstacleSpec,
    at: StoppingRule,
) -> dict[tuple[int, int], float | np.ndarray]:
    """Reflected solution values on the stopping nodes of ``at``."""
    if not at.precedes(terminal.rule):
        raise RuleOrderViolated("evaluation rule must precede the terminal rule")
    return _stop_node_values(_sweep(generator, terminal, obstacle.process), at)


def snell_oracle(terminal: TerminalCondition, obstacle: ObstacleSpec) -> AdaptedProcess:
    """Driverless dynamic program: smallest dominating backward recursion.

    Coincides with the reflected solver's value exactly when the driver is
    zero, which makes it an independent check of the reflection step.
    """
    tree = terminal.tree
    if obstacle.tree != tree:
        raise TreeMismatch("terminal condition and obstacle must share the tree")
    _refuse_batch("the Snell oracle takes one problem", terminal.values + obstacle.process.levels())
    stopped = terminal.rule.stopped_by_level
    stop_nodes = terminal.rule.stop_node_masks
    ext = terminal.extended
    barrier = obstacle.process
    for i, mask in enumerate(stop_nodes):
        if mask.any() and bool(np.any(ext[i][mask] < barrier.level(i)[mask])):
            raise TerminalBelowObstacle("terminal values fall below the obstacle")
    n = tree.steps
    levels: list[np.ndarray] = [None] * (n + 1)  # type: ignore[list-item]
    levels[n] = np.array(ext[n])
    for i in range(n - 1, -1, -1):
        up, down = tree.child_values(levels[i + 1])
        cont = conditional_expectation(up, down)
        levels[i] = np.where(
            stopped[i], ext[i], np.maximum(barrier.level(i), cont)
        )
    return AdaptedProcess(tree, levels)


ENUMERATION_MAX_STEPS = 4


def enumerate_stopping_oracle(terminal: TerminalCondition, obstacle: ObstacleSpec) -> float:
    """Optimal-stopping value by brute force over every first-hit rule.

    Ground truth for the reflected value with zero driver: the supremum over
    all adapted stopping rules of the expected stopped payoff, taking the
    obstacle before the horizon and the terminal values at it.  Flag
    patterns over interior nodes enumerate every adapted rule.
    """
    tree = terminal.tree
    if obstacle.tree != tree:
        raise TreeMismatch("terminal condition and obstacle must share the tree")
    _refuse_batch("rule enumeration takes one problem", terminal.values + obstacle.process.levels())
    if tree.mode is not TreeMode.FULL_BINARY:
        raise UnsupportedTreeMode("rule enumeration needs a full-binary tree")
    if tree.steps > ENUMERATION_MAX_STEPS:
        raise DepthExceeded(
            f"rule enumeration supports at most {ENUMERATION_MAX_STEPS} steps"
        )
    if not terminal.rule.is_terminal:
        raise UnsupportedTreeMode("rule enumeration needs plain terminal data")
    n = tree.steps
    xi = terminal.extended[n]
    interior = (1 << n) - 1
    rules = np.arange(1 << interior, dtype=np.uint64)[:, None]
    values = np.broadcast_to(xi, (1 << interior, 1 << n)).copy()
    offset = interior
    for i in range(n - 1, -1, -1):
        offset -= 1 << i
        cont = (values[:, 0::2] + values[:, 1::2]) / 2.0
        bits = (rules >> (offset + np.arange(1 << i, dtype=np.uint64)[None, :])) & 1
        values = np.where(bits.astype(bool), obstacle.process.level(i)[None, :], cont)
    return float(np.max(values[:, 0]))


def exercise_rule(solution: RbsdeSolution, obstacle: ObstacleSpec) -> StoppingRule:
    """First time the reflected value sits on the obstacle, by ``lattice._in_contact``."""
    if solution.y.tree != obstacle.tree:
        raise TreeMismatch("solution and obstacle live on different trees")
    return hitting_rule(solution.y, obstacle.process)
