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
from typing import Callable

import numpy as np

from .bsde import (
    BsdeSolution,
    TerminalCondition,
    _check_contraction,
    _implicit_level,
    read_at_rule,
)
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
    conditional_expectation,
    hitting_rule,
    level_constant,
    martingale_coefficient,
)

DEFAULT_CONTACT_TOL = 1e-9


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
    skorokhod_residual: float
    min_gap: float
    max_increment: float
    iterations: int
    residual: float
    cumulative_available: bool


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
    levels = [np.zeros(1)]
    for i in range(tree.steps):
        total = levels[i] + increments[i]
        if tree.mode is TreeMode.FULL_BINARY:
            levels.append(np.repeat(total, 2))
        else:
            if i >= 1 and not np.array_equal(total[:-1], total[1:]):
                return None
            levels.append(level_constant(total[0], i + 2))
    return levels


@dataclass(frozen=True)
class LevelData:
    """Values on a tree read one level at a time.

    ``level(i)`` returns an array whose last axis runs over the nodes of
    level ``i``; leading axes, if any, are batch members.  An
    :class:`AdaptedProcess` fits the same shape, and so does data computed
    on demand, which is how root-only sweeps avoid storing a lattice.
    """

    tree: ScenarioTree
    level: Callable[[int], np.ndarray]


@dataclass(frozen=True, eq=False)
class SweepSummary:
    """Root and running diagnostics of a reflected sweep, one entry per member.

    ``first_contact`` is the first level at which the value sits within
    ``DEFAULT_CONTACT_TOL`` of the obstacle at some node (the last level
    when it never does), the level at which :func:`exercise_rule` first
    flags a node.  The other fields are the reductions behind
    :class:`ReflectionDiagnostics`.
    """

    root: np.ndarray
    first_contact: np.ndarray
    skorokhod_residual: np.ndarray
    min_gap: np.ndarray
    max_increment: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sweep(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    rule: StoppingRule | None,
    terminal: LevelData,
    obstacle: LevelData,
    *,
    keep_levels: bool,
) -> tuple[SweepSummary, tuple[list, list, list] | None]:
    """The backward reflected recursion, shared by every reflected solve.

    Walks from the last level to the root holding one level at a time; with
    ``keep_levels`` it also returns every level of y, z and the push
    increments.  Batch members only meet in elementwise operations, so each
    one is bit-identical to a solve of its own data.  ``rule=None`` is the
    level-N rule; levels below the rule's first stopping level skip all mask
    work.  Each level tests ``(y - S) + z`` for finiteness once and checks
    obstacle, value and coefficient apart only when that fails, so finite
    data whose sum overflows pass.  With warnings silenced, non-finite data
    surface only as :class:`NumericalBreakdown`.
    """
    if terminal.tree != tree or obstacle.tree != tree or (rule is not None and rule.tree != tree):
        raise TreeMismatch("terminal condition and obstacle must share the tree")
    _check_contraction(generator, tree)
    dt = tree.grid.dt
    n = tree.steps
    if rule is None:
        # masks are read only from the first stopping level on, here just level N
        stopped = stop_nodes = {n: np.ones(tree.level_size(n), dtype=bool)}
        first_stop = n
    else:
        stopped, stop_nodes = rule.stopped_by_level, rule.stop_node_masks
        first_stop = rule.first_stop_level

    for i in range(first_stop, n + 1):
        mask = stop_nodes[i]
        if mask.any() and bool(
            np.any(terminal.level(i)[..., mask] < obstacle.level(i)[..., mask])
        ):
            raise TerminalBelowObstacle(
                f"terminal values fall below the obstacle at level {i}"
            )

    y = np.array(terminal.level(n), dtype=float)
    z = dk = np.zeros_like(y)
    batch = y.shape[:-1]
    first_contact = np.full(batch, n)
    skorokhod = np.zeros(batch)
    min_gap = np.full(batch, np.inf)
    max_increment = np.full(batch, -np.inf)
    iterations = np.zeros(batch, dtype=np.int64)
    residual = np.zeros(batch)
    kept = ([None] * (n + 1), [None] * (n + 1), [None] * (n + 1)) if keep_levels else None

    for i in range(n, -1, -1):
        barrier = obstacle.level(i)
        masked = i >= first_stop
        if masked:
            active = ~stopped[i]
        if i < n:
            up, down = tree.child_values(y)
            mean = conditional_expectation(up, down)
            z = martingale_coefficient(up, down, dt)
            t = tree.grid.time(i)
            unreflected = mean
            if not masked or active.any():
                unreflected, iters = _implicit_level(generator, t, mean, z, dt, tree, i)
                iterations = np.maximum(iterations, iters)
                # the step identity is y = mean + g(t, pre-clamp value, z) dt + dk,
                # so the replayed defect lives on the pre-clamp value
                g_final = np.asarray(
                    generator.evaluate(t, unreflected, z, level=i, tree=tree), dtype=float
                )
                defect = np.abs(unreflected - (mean + g_final * dt))
                if masked:
                    defect = defect[..., active]
                residual = np.maximum(residual, np.max(defect, axis=-1))
            y = np.maximum(unreflected, barrier)
            dk = y - unreflected
            if masked and stopped[i].any():
                y = np.where(stopped[i], terminal.level(i), y)
                z = np.where(stopped[i], 0.0, z)
                dk = np.where(stopped[i], 0.0, dk)
        gap = y - barrier
        product = gap * dk
        if not np.isfinite(gap + z).all():
            for name, values in (("obstacle", barrier), ("value", y), ("coefficient", z)):
                if not np.isfinite(values).all():
                    raise NumericalBreakdown(f"non-finite {name} at level {i}")
            # finite data whose gap overflows: an unpushed node adds nothing
            product = np.where(dk == 0.0, 0.0, product)
        level_increment = np.max(dk, axis=-1)
        if not np.isfinite(level_increment).all():
            raise NumericalBreakdown(f"non-finite push increment at level {i}")
        if masked:
            for mask in (active, stop_nodes[i]):
                if mask.any():
                    min_gap = np.minimum(min_gap, np.min(gap[..., mask], axis=-1))
        else:
            min_gap = np.minimum(min_gap, np.min(gap, axis=-1))
        skorokhod = np.maximum(skorokhod, np.max(np.abs(product), axis=-1))
        max_increment = np.maximum(max_increment, level_increment)
        touching = np.any(y <= barrier + DEFAULT_CONTACT_TOL, axis=-1)
        first_contact = np.where(touching, i, first_contact)
        if kept is not None:
            kept[0][i], kept[1][i], kept[2][i] = y, z, dk

    summary = SweepSummary(
        root=y[..., 0],
        first_contact=first_contact,
        skorokhod_residual=skorokhod,
        min_gap=min_gap,
        max_increment=max_increment,
        iterations=iterations,
        residual=residual,
    )
    return summary, kept


def solve_rbsde(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    obstacle: ObstacleSpec,
) -> RbsdeSolution:
    """Backward reflected recursion from the terminal rule to the root.

    This is the shared sweep with no batch axis, keeping every level.
    """
    summary, (y_levels, z_levels, dk_levels) = _sweep(
        tree,
        generator,
        terminal.rule,
        LevelData(terminal.tree, lambda i: terminal.extended[i]),
        obstacle.process,
        keep_levels=True,
    )
    cumulative = _accumulate_increments(tree, dk_levels)
    for fresh in y_levels + z_levels + dk_levels + (cumulative or []):
        fresh.flags.writeable = False
    diagnostics = ReflectionDiagnostics(
        skorokhod_residual=float(summary.skorokhod_residual),
        min_gap=float(summary.min_gap),
        max_increment=float(summary.max_increment),
        iterations=int(summary.iterations),
        residual=float(summary.residual),
        cumulative_available=cumulative is not None,
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
    summary, _ = _sweep(tree, generator, None, terminal, obstacle, keep_levels=False)
    return summary


def reflected_value(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    obstacle: ObstacleSpec,
) -> float:
    """Root value of the reflected solution."""
    return solve_rbsde(tree, generator, terminal, obstacle).y.root()


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
    sol = solve_rbsde(tree, generator, terminal, obstacle)
    return read_at_rule(sol.y, at)


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


def exercise_rule(
    solution: RbsdeSolution, obstacle: ObstacleSpec, tol: float = DEFAULT_CONTACT_TOL
) -> StoppingRule:
    """First time the reflected value sits on the obstacle."""
    if solution.y.tree != obstacle.tree:
        raise TreeMismatch("solution and obstacle live on different trees")
    return hitting_rule(solution.y, obstacle.process, tol)
