"""Implicit backward solver for lattice BSDEs and the induced expectations.

The recursion runs from the terminal measurability rule down to the root.
At each active node the martingale coefficient is read off the children,
then the implicit scalar equation ``v = mean + g(t, v, z) * dt`` is solved:
in closed form when the driver is affine in the value variable, by
fixed-point iteration otherwise.  Past the terminal rule the pair is
extended by ``(terminal value, 0)``, the device that also underlies the
driver-restriction identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractionViolated,
    NonConvergence,
    RuleOrderViolated,
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
    constant_levels,
    level_constant,
    martingale_coefficient,
)

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class TerminalCondition:
    """Terminal data attached to a stopping rule (level N by default)."""

    tree: ScenarioTree
    rule: StoppingRule
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.rule.tree != self.tree:
            raise TreeMismatch("terminal rule lives on a different tree")
        if len(self.values) != self.tree.steps + 1:
            raise TreeMismatch("terminal values must cover every level")
        for i, (vals, mask) in enumerate(zip(self.values, self.rule.stop_node_masks)):
            if vals.shape != (self.tree.level_size(i),):
                raise TreeMismatch(f"terminal level {i} has wrong shape")
            if not np.all(np.isfinite(vals[mask])):
                raise ValueError("terminal values must be finite on stopping nodes")

    @classmethod
    def constant(
        cls, tree: ScenarioTree, value: float, rule: StoppingRule | None = None
    ) -> TerminalCondition:
        rule = rule or StoppingRule.terminal(tree)
        return cls(tree, rule, tuple(constant_levels(tree, float(value))))

    @classmethod
    def from_leaf_values(cls, tree: ScenarioTree, leaf_values) -> TerminalCondition:
        vals = np.asarray(leaf_values, dtype=float)
        levels = constant_levels(tree, 0.0)[:-1] + [vals]
        return cls(tree, StoppingRule.terminal(tree), tuple(levels))

    @classmethod
    def from_leaf_function(
        cls, tree: ScenarioTree, f: Callable[[np.ndarray], np.ndarray]
    ) -> TerminalCondition:
        """Terminal values as a function of the walk value at the last level."""
        leaf = np.asarray(f(tree.brownian_level(tree.steps)), dtype=float)
        return cls.from_leaf_values(tree, np.broadcast_to(leaf, (tree.level_size(tree.steps),)))

    @classmethod
    def at_rule(
        cls,
        tree: ScenarioTree,
        rule: StoppingRule,
        f: Callable[[int, np.ndarray], np.ndarray] | Sequence[np.ndarray],
    ) -> TerminalCondition:
        """Values on the stopping nodes of ``rule``; off-stop entries are ignored."""
        if callable(f):
            levels = tuple(
                np.broadcast_to(
                    np.asarray(f(i, tree.brownian_level(i)), dtype=float),
                    (tree.level_size(i),),
                ).copy()
                for i in range(tree.steps + 1)
            )
        else:
            levels = tuple(np.asarray(v, dtype=float) for v in f)
        return cls(tree, rule, levels)

    @cached_property
    def extended(self) -> tuple[np.ndarray, ...]:
        """Values forward-filled from each stopping node to its descendants."""
        tree = self.tree
        stop = self.rule.stop_node_masks
        stopped = self.rule.stopped_by_level
        out = [np.where(stop[0], self.values[0], np.nan)]
        for i in range(1, tree.steps + 1):
            if not bool(stopped[i - 1].any()):
                if not stop[i].any():
                    out.append(level_constant(np.nan, tree.level_size(i)))
                    continue
                carried = np.full(tree.level_size(i), np.nan)
            elif tree.mode is TreeMode.FULL_BINARY:
                carried = tree.spread_to_children(out[i - 1])
            else:
                prev = out[i - 1]
                if not np.all(prev == prev[0]):
                    raise UnsupportedTreeMode(
                        "extending level-varying terminal data needs a full-binary tree"
                    )
                carried = np.full(tree.level_size(i), prev[0])
            out.append(np.where(stop[i], self.values[i], carried))
        return tuple(out)

    def as_full_horizon(self) -> TerminalCondition:
        """Same data re-expressed as plain level-N terminal values."""
        return TerminalCondition.from_leaf_values(self.tree, self.extended[self.tree.steps])


@dataclass(frozen=True, eq=False)
class BsdeSolution:
    """Adapted pair plus solver diagnostics.

    ``residual`` is the largest replayed defect of the one-step identity
    ``v = mean + g(t, v, z) * dt`` over active nodes; ``iterations`` is the
    largest fixed-point iteration count any node needed.
    """

    y: AdaptedProcess
    z: AdaptedProcess
    iterations: int
    residual: float


def _check_contraction(generator: GeneratorSpec, tree: ScenarioTree) -> None:
    if generator.lipschitz * tree.grid.dt >= 1.0:
        raise ContractionViolated(
            f"lipschitz * dt = {generator.lipschitz * tree.grid.dt:.6g} >= 1; refine the grid"
        )


def _implicit_level(
    generator: GeneratorSpec,
    t: float,
    mean: np.ndarray,
    zco: np.ndarray,
    dt: float,
    tree: ScenarioTree,
    level: int,
) -> tuple[np.ndarray, np.ndarray | int]:
    """Solve ``v = mean + g(t, v, z) * dt`` nodewise across a level.

    Leading axes of ``mean`` are batch members.  Each member stops iterating
    at its own first step within tolerance, so it gets the value and the
    iteration count it would get alone; the counts come back per member.
    """
    parts = generator.y_affine(t, zco, level=level, tree=tree)
    if parts is not None:
        h, a = parts
        denom = 1.0 - np.asarray(a) * dt
        if np.any(denom <= 0.0):
            raise ContractionViolated(
                "driver slope in the value variable makes the implicit step singular"
            )
        return np.asarray((mean + np.asarray(h) * dt) / denom), 1
    v = mean.copy()
    iterations = np.zeros(mean.shape[:-1], dtype=np.int64)
    for iteration in range(1, FIXED_POINT_MAX_ITER + 1):
        v_next = mean + np.asarray(generator.evaluate(t, v, zco, level=level, tree=tree)) * dt
        pending = iterations == 0
        delta = np.max(np.abs(v_next - v), axis=-1)
        v = np.where(pending[..., None], v_next, v)
        iterations[pending & (delta <= FIXED_POINT_TOL)] = iteration
        if iterations.all():
            return v, iterations
    raise NonConvergence(
        f"implicit step at t={t:.6g} did not reach {FIXED_POINT_TOL} in "
        f"{FIXED_POINT_MAX_ITER} iterations"
    )


def solve_bsde(
    tree: ScenarioTree, generator: GeneratorSpec, terminal: TerminalCondition
) -> BsdeSolution:
    """Backward recursion from the terminal rule to the root."""
    if terminal.tree != tree:
        raise TreeMismatch("terminal condition lives on a different tree")
    _check_contraction(generator, tree)
    dt = tree.grid.dt
    stopped = terminal.rule.stopped_by_level
    ext = terminal.extended

    n = tree.steps
    y_levels: list[np.ndarray] = [None] * (n + 1)  # type: ignore[list-item]
    z_levels: list[np.ndarray] = [None] * (n + 1)  # type: ignore[list-item]
    y_levels[n] = np.array(ext[n])
    z_levels[n] = np.zeros(tree.level_size(n))

    max_iter = 0
    max_resid = 0.0
    for i in range(n - 1, -1, -1):
        up, down = tree.child_values(y_levels[i + 1])
        mean = conditional_expectation(up, down)
        zco = martingale_coefficient(up, down, dt)
        t = tree.grid.time(i)
        active = ~stopped[i]
        if active.any():
            v, iters = _implicit_level(generator, t, mean, zco, dt, tree, i)
            max_iter = max(max_iter, int(iters))
        else:
            v = mean
        y_i = np.where(stopped[i], ext[i], v)
        z_i = np.where(stopped[i], 0.0, zco)
        if active.any():
            g_final = np.broadcast_to(
                np.asarray(generator.evaluate(t, y_i, z_i, level=i, tree=tree), dtype=float),
                y_i.shape,
            )
            defect = np.abs(y_i - (mean + g_final * dt))
            max_resid = max(max_resid, float(np.max(defect[active])))
        y_levels[i] = y_i
        z_levels[i] = z_i

    for fresh in y_levels + z_levels:
        fresh.flags.writeable = False
    return BsdeSolution(
        y=AdaptedProcess(tree, y_levels),
        z=AdaptedProcess(tree, z_levels),
        iterations=max_iter,
        residual=max_resid,
    )


def g_expectation(
    tree: ScenarioTree, generator: GeneratorSpec, terminal: TerminalCondition
) -> float:
    """Initial value of the solution: the nonlinear expectation of the data."""
    return solve_bsde(tree, generator, terminal).y.root()


def conditional_g_expectation(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    at: StoppingRule,
) -> dict[tuple[int, int], float]:
    """Solution values on the stopping nodes of ``at``.

    ``at`` must stop no later than the terminal rule on every path.
    """
    if not at.precedes(terminal.rule):
        raise RuleOrderViolated("evaluation rule must precede the terminal rule")
    sol = solve_bsde(tree, generator, terminal)
    return read_at_rule(sol.y, at)


def read_at_rule(process: AdaptedProcess, rule: StoppingRule) -> dict[tuple[int, int], float]:
    """Process values keyed by (level, node) over the rule's stopping nodes."""
    if process.tree != rule.tree:
        raise TreeMismatch("process and rule live on different trees")
    out: dict[tuple[int, int], float] = {}
    for i, mask in enumerate(rule.stop_node_masks):
        for node in np.nonzero(mask)[0]:
            out[(i, int(node))] = process.value(i, int(node))
    return out
