"""Discretely reflected backward solver with an exact complementarity split.

Each backward step first takes the plain implicit driver step, then clamps
the result to the obstacle; the clamp amount is the reflection increment
applied at that node.  The split keeps three facts exact nodewise: the
solution dominates the obstacle, increments are nonnegative, and an
increment is only ever applied where the clamped value sits on the
obstacle, so ``(value - obstacle) * increment = 0`` without tolerance.

Cumulative reflection is a path functional.  On full-binary trees it is
stored per node (nodes are path prefixes); on recombining trees it is
reconstructed only when every path into a node accumulates the identical
amount, and reported as unavailable otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsde import (
    LevelData,
    LevelObserver,
    SweepSummary,
    TerminalCondition,
    _kept_levels,
    _stop_node_values,
    _sweep,
)
from .errors import (
    DepthExceeded,
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
    _per_member,
    conditional_expectation,
    hitting_rule,
)


@dataclass(frozen=True, eq=False)
class ObstacleSpec:
    """Lower barrier process with an optional declared upper bound."""

    process: AdaptedProcess
    bound: float | None = None

    def __post_init__(self):
        if self.bound is not None:
            top = max(float(np.max(self.process.level(i))) for i in range(self.process.tree.steps + 1))
            if top > self.bound + 1e-12:
                raise ValueError(
                    f"obstacle exceeds its declared bound: max {top!r} > {self.bound!r}"
                )

    @property
    def tree(self) -> ScenarioTree:
        return self.process.tree

    @cached_property
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


@dataclass(frozen=True)
class ReflectionDiagnostics:
    """Sweep reductions of a reflected solve, one entry per batch member."""

    skorokhod_residual: float | np.ndarray
    min_gap: float | np.ndarray
    max_increment: float | np.ndarray
    iterations: int | np.ndarray
    residual: float | np.ndarray
    cumulative_available: bool | np.ndarray


@dataclass(frozen=True, eq=False)
class RbsdeSolution:
    """Reflected triple: value, coefficient, and the reflection push.

    ``k_increments`` holds the push applied at each node (the increment
    accrued over the following step); ``k`` is its path accumulation with
    ``k = 0`` at the root, or ``None`` when the recombining layout cannot
    represent it.
    """

    y: AdaptedProcess
    z: AdaptedProcess
    k_increments: AdaptedProcess
    k: AdaptedProcess | None
    diagnostics: ReflectionDiagnostics


def _accumulate_increments(
    tree: ScenarioTree, increments: list[np.ndarray]
) -> list[np.ndarray] | None:
    """Pushes summed along each path from 0 at the root; None if the tree cannot carry them."""
    levels = [np.zeros(1)]
    for i in range(tree.steps):
        carried = tree.carry(levels[i] + increments[i])
        if carried is None:
            return None
        levels.append(carried)
    return levels


def solve_rbsde(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    obstacle: ObstacleSpec,
) -> RbsdeSolution:
    """Backward reflected recursion from the terminal rule to the root.

    This is the shared sweep keeping every level.  Batch axes of the data
    and the driver's coefficient columns carry through as in
    :func:`bsde.solve_bsde`: every member is its own solve bit for bit, and
    the diagnostics hold one entry per member.  On a recombining tree a
    batch carries its cumulative push only when every member's can be
    carried.
    """
    return _reflected_solution(tree, generator, terminal, obstacle)


def _reflected_solution(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    obstacle: ObstacleSpec,
) -> RbsdeSolution:
    """The body of :func:`solve_rbsde`, which the batched checks of
    :mod:`theorems` call by this name: the benchmark tracer
    (``perfbench/bench_trace.py``) hooks ``solve_rbsde`` and reads its
    diagnostics as single numbers, which a batch does not have."""
    observe, (y_levels, z_levels, dk_levels) = _kept_levels(tree)
    summary = _sweep(tree, generator, terminal.rule, terminal, obstacle.process, observe)
    cumulative = _accumulate_increments(tree, dk_levels)
    for fresh in cumulative or []:
        fresh.flags.writeable = False
    diagnostics = ReflectionDiagnostics(
        skorokhod_residual=_per_member(summary.skorokhod_residual),
        min_gap=_per_member(summary.min_gap),
        max_increment=_per_member(summary.max_increment),
        iterations=_per_member(summary.iterations),
        residual=_per_member(summary.residual),
        cumulative_available=_per_member(np.full(summary.root.shape, cumulative is not None)),
    )
    return RbsdeSolution(
        y=AdaptedProcess(tree, y_levels),
        z=AdaptedProcess(tree, z_levels),
        k_increments=AdaptedProcess(tree, dk_levels),
        k=AdaptedProcess(tree, cumulative) if cumulative is not None else None,
        diagnostics=diagnostics,
    )


def reflected_roots(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    terminal: LevelData,
    obstacle: LevelData,
) -> SweepSummary:
    """Root-only reflected sweep over a batch of data sharing one tree.

    ``terminal`` and ``obstacle`` give each level as an array with the
    batch axes in front of the node axis; terminal values are read only at
    the last level.  Only the running level is held, so memory is
    O(batch * N) on a recombining tree, and each member's root and
    diagnostics equal those of its own :func:`solve_rbsde` bit for bit.
    """
    return _sweep(tree, generator, None, terminal, obstacle)


def reflected_value(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    obstacle: ObstacleSpec,
    *,
    observe: LevelObserver | None = None,
) -> float | np.ndarray:
    """Root value of the reflected solution.

    A root-only sweep, equal to ``solve_rbsde(...).y.root()`` bit for bit,
    one per batch member; ``observe`` sees each level on the way down (see
    ``bsde._sweep``).
    """
    return _per_member(
        _sweep(tree, generator, terminal.rule, terminal, obstacle.process, observe).root
    )


def reflected_conditional(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    obstacle: ObstacleSpec,
    at: StoppingRule,
) -> dict[tuple[int, int], float]:
    """Reflected solution values on the stopping nodes of ``at``."""
    if not at.precedes(terminal.rule):
        raise RuleOrderViolated("evaluation rule must precede the terminal rule")
    observe, picked = _stop_node_values(at)
    reflected_value(tree, generator, terminal, obstacle, observe=observe)
    return dict(sorted(picked.items()))


def snell_oracle(
    tree: ScenarioTree, terminal: TerminalCondition, obstacle: ObstacleSpec
) -> AdaptedProcess:
    """Driverless dynamic program: smallest dominating backward recursion.

    Coincides with the reflected solver's value exactly when the driver is
    zero, which makes it an independent check of the reflection step.
    """
    if terminal.tree != tree or obstacle.tree != tree:
        raise TreeMismatch("terminal condition and obstacle must share the tree")
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


def enumerate_stopping_oracle(
    tree: ScenarioTree, terminal: TerminalCondition, obstacle: ObstacleSpec
) -> float:
    """Optimal-stopping value by brute force over every first-hit rule.

    Ground truth for the reflected value with zero driver: the supremum over
    all adapted stopping rules of the expected stopped payoff, taking the
    obstacle before the horizon and the terminal values at it.  Flag
    patterns over interior nodes enumerate every adapted rule.
    """
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
    """First time the reflected value sits on the obstacle (within ``DEFAULT_CONTACT_TOL``)."""
    if solution.y.tree != obstacle.tree:
        raise TreeMismatch("solution and obstacle live on different trees")
    return hitting_rule(solution.y, obstacle.process)
