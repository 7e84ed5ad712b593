"""Implicit backward solver for lattice BSDEs and the induced expectations.

The recursion runs from the terminal measurability rule down to the root.
At each active node the martingale coefficient is read off the children,
then the implicit scalar equation ``v = mean + g(t, v, z) * dt`` is solved:
in closed form when the driver is affine in the value variable, by
fixed-point iteration otherwise.  Past the terminal rule the pair is
extended by ``(terminal value, 0)``, the device that also underlies the
driver-restriction identity.

The level loop (``_sweep``) is the one backward kernel of the package: a
plain solve runs it without an obstacle, and the reflected solver of
:mod:`rbsde_lab.rbsde` runs it with one, so a reflected equation whose
obstacle never binds is the plain equation by construction.  What a caller
reads besides the root it reads from an observer that sees each level pass;
the full solvers are the observer that keeps every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractionViolated,
    NonConvergence,
    NumericalBreakdown,
    RuleOrderViolated,
    TerminalBelowObstacle,
    TreeMismatch,
)
from .generators import GeneratorSpec
from .lattice import (
    DEFAULT_CONTACT_TOL,
    AdaptedProcess,
    ScenarioTree,
    StoppingRule,
    _frozen_levels,
    _held_after,
    _per_member,
    conditional_expectation,
    constant_levels,
    martingale_coefficient,
)

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class TerminalCondition:
    """Terminal data attached to a stopping rule (level N by default).

    Levels are adopted as :class:`AdaptedProcess` adopts them: frozen input
    is kept as given, anything a caller can still write to is copied, and
    leading axes are batch members.  The rule is shared by every member.
    """

    tree: ScenarioTree
    rule: StoppingRule
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.rule.tree != self.tree:
            raise TreeMismatch("terminal rule lives on a different tree")
        levels = tuple(
            _frozen_levels(self.tree, self.values, np.float64, "terminal", batched=True)
        )
        object.__setattr__(self, "values", levels)
        masks, first_stop = self.rule.stop_node_masks, self.rule.first_stop_level
        # below the rule's first stopping level no node stops, so nothing to test
        for i in range(first_stop, self.tree.steps + 1):
            if not np.isfinite(levels[i][..., masks[i]]).all():
                raise ValueError("terminal values must be finite on stopping nodes")

    @classmethod
    def constant(
        cls, tree: ScenarioTree, value, rule: StoppingRule | None = None
    ) -> TerminalCondition:
        """``value`` everywhere; a column of shape ``batch + (1,)`` gives one per member."""
        rule = rule or StoppingRule.terminal(tree)
        return cls(tree, rule, tuple(constant_levels(tree, value)))

    @classmethod
    def from_leaf_values(cls, tree: ScenarioTree, leaf_values) -> TerminalCondition:
        levels = constant_levels(tree, 0.0)[:-1] + [leaf_values]
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
        levels = f
        if callable(f):
            levels = [
                np.broadcast_to(
                    np.asarray(f(i, tree.brownian_level(i)), dtype=float),
                    (tree.level_size(i),),
                )
                for i in range(tree.steps + 1)
            ]
        return cls(tree, rule, tuple(levels))

    @cached_property
    def extended(self) -> tuple[np.ndarray, ...]:
        """Values held from each stopping node on, NaN before a path stops.

        This is the stopped data ``xi`` read at ``min(t, tau)``: the obstacle
        freeze of :func:`lattice.freeze_after` run on the stop-node values.
        """
        stop, nan = self.rule.stop_node_masks, constant_levels(self.tree, np.nan)
        levels = [
            np.where(mask, values, np.nan) if mask.any() else empty
            for mask, values, empty in zip(stop, self.values, nan)
        ]
        return tuple(_held_after(levels, self.rule))

    def level(self, i: int) -> np.ndarray:
        """Extended values of level ``i``: the data read as :class:`LevelData`."""
        return self.extended[i]

    def as_full_horizon(self) -> TerminalCondition:
        """Same data re-expressed as plain level-N terminal values."""
        return TerminalCondition.from_leaf_values(self.tree, self.extended[self.tree.steps])


@dataclass(frozen=True, eq=False)
class BsdeSolution:
    """Adapted pair plus solver diagnostics.

    ``residual`` is the largest replayed defect of the one-step identity
    ``v = mean + g(t, v, z) * dt`` over active nodes; ``iterations`` is the
    largest fixed-point iteration count any node needed.  Both hold one
    entry per batch member.
    """

    y: AdaptedProcess
    z: AdaptedProcess
    iterations: int | np.ndarray
    residual: float | np.ndarray


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

    Leading axes of ``mean`` are batch members, and cover those of the
    driver's coefficient columns.  Each member stops iterating at its own
    first step within tolerance, so it gets the value and the iteration
    count it would get alone; the counts come back per member.
    """
    parts = generator.y_affine(t, zco, level=level, tree=tree)
    if parts is not None:
        h, a = parts
        denom = 1.0 - a * dt
        singular = denom <= 0.0
        if not isinstance(a, float):  # a slope gated per node
            singular = np.logical_or.reduce(singular, axis=None)
        if singular:
            raise ContractionViolated(
                "driver slope in the value variable makes the implicit step singular"
            )
        return (mean + h * dt) / denom, 1
    v = mean.copy()
    iterations = np.zeros(mean.shape[:-1], dtype=np.int64)
    for iteration in range(1, FIXED_POINT_MAX_ITER + 1):
        v_next = mean + np.asarray(generator.evaluate(t, v, zco, level=level, tree=tree)) * dt
        pending = iterations == 0
        delta = np.maximum.reduce(np.abs(v_next - v), axis=-1)
        v = np.where(pending[..., None], v_next, v)
        iterations[pending & (delta <= FIXED_POINT_TOL)] = iteration
        if iterations.all():
            return v, iterations
    raise NonConvergence(
        f"implicit step at t={t:.6g} did not reach {FIXED_POINT_TOL} in "
        f"{FIXED_POINT_MAX_ITER} iterations"
    )


@dataclass(frozen=True)
class LevelData:
    """Values on a tree read one level at a time.

    ``level(i)`` returns an array whose last axis runs over the nodes of
    level ``i``; leading axes, if any, are batch members.  An
    :class:`AdaptedProcess` fits the same shape, so does a
    :class:`TerminalCondition` (its extended values), and so does data
    computed on demand, which is how root-only sweeps avoid storing a lattice.
    """

    tree: ScenarioTree
    level: Callable[[int], np.ndarray]


LevelObserver = Callable[[int, np.ndarray, np.ndarray, np.ndarray | None], None]


@dataclass(frozen=True, eq=False)
class SweepSummary:
    """Root and running diagnostics of a sweep, one entry per member.

    ``first_contact`` is the first level at which the value sits within
    ``DEFAULT_CONTACT_TOL`` of the obstacle at some node (the last level
    when it never does), the level at which ``rbsde.exercise_rule`` first
    flags a node.  The other fields are the reductions behind
    ``rbsde.ReflectionDiagnostics``.  A sweep without an obstacle leaves
    the contact, Skorokhod, gap and push fields at their start values.
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
    obstacle: LevelData | None,
    observe: LevelObserver | None = None,
) -> SweepSummary:
    """The backward recursion shared by every solve, plain or reflected.

    Walks from the last level to the root holding one level at a time.
    ``observe``, if given, sees every level once it is final: it is called
    with ``(i, y, z, dk)``, the arrays frozen, ``dk`` the push increments
    (``None`` without an obstacle).  It only reads; nothing it does feeds
    back into the sweep.  With ``obstacle=None`` the
    step is the plain implicit one: no clamp, no push, no gap or contact
    reductions.  The batch axes are those of the terminal data and the
    driver's coefficient columns, and the obstacle broadcasts against them.
    Batch members only meet in elementwise operations, so each one is
    bit-identical to a solve of its own data.  ``rule=None`` is the
    level-N rule; levels below the rule's first stopping level skip all mask
    work.  Terminal data below the obstacle are caught by the stopping-node
    part of the gap reduction (there ``y`` is the terminal value), so the
    error names the first such level met going down.  Each level tests
    ``(y - S) + z`` (``y + z`` without an obstacle) for finiteness once and
    checks obstacle, value and coefficient apart only when that fails, so
    finite data whose sum overflows pass.  With warnings silenced,
    non-finite data surface only as :class:`NumericalBreakdown`.
    """
    if any(data is not None and data.tree != tree for data in (terminal, rule, obstacle)):
        raise TreeMismatch("terminal condition and obstacle must share the tree")
    if generator.lipschitz * tree.grid.dt >= 1.0:
        raise ContractionViolated(
            f"lipschitz * dt = {generator.lipschitz * tree.grid.dt:.6g} >= 1; refine the grid"
        )
    dt = tree.grid.dt
    n = tree.steps
    if rule is None:
        # masks are read only from the first stopping level on, here just level N
        stopped = stop_nodes = {n: np.ones(tree.level_size(n), dtype=bool)}
        first_stop = n
    else:
        stopped, stop_nodes = rule.stopped_by_level, rule.stop_node_masks
        first_stop = rule.first_stop_level

    leaves = np.asarray(terminal.level(n), dtype=float)
    batch = np.broadcast_shapes(leaves.shape[:-1], generator.batch_shape)
    y = np.array(np.broadcast_to(leaves, batch + leaves.shape[-1:]))
    z = np.zeros_like(y)
    dk = None if obstacle is None else z
    first_contact = np.full(batch, n)
    skorokhod = np.zeros(batch)
    min_gap = np.full(batch, np.inf)
    max_increment = np.full(batch, -np.inf)
    iterations = np.zeros(batch, dtype=np.int64)
    residual = np.zeros(batch)

    for i in range(n, -1, -1):
        barrier = None if obstacle is None else obstacle.level(i)
        masked = i >= first_stop
        if masked:
            active = ~stopped[i]
        if i < n:
            up, down = tree.child_values(y)
            mean = conditional_expectation(up, down)
            z = martingale_coefficient(up, down, dt)
            t = tree.grid.time(i)
            y = mean
            if not masked or active.any():
                y, iters = _implicit_level(generator, t, mean, z, dt, tree, i)
                iterations = np.maximum(iterations, iters)
                # the step identity is y = mean + g(t, pre-clamp value, z) dt + dk,
                # so the replayed defect lives on the pre-clamp value
                g_final = np.asarray(generator.evaluate(t, y, z, level=i, tree=tree), dtype=float)
                defect = np.abs(y - (mean + g_final * dt))
                if masked:
                    defect = defect[..., active]
                residual = np.maximum(residual, np.maximum.reduce(defect, axis=-1))
            if barrier is not None:
                unreflected, y = y, np.maximum(y, barrier)
                dk = y - unreflected
            if masked and stopped[i].any():
                y = np.where(stopped[i], terminal.level(i), y)
                z = np.where(stopped[i], 0.0, z)
                if barrier is not None:
                    dk = np.where(stopped[i], 0.0, dk)
        gap = y if barrier is None else y - barrier
        overflowed = not np.isfinite(gap + z).all()
        if overflowed:
            for name, values in (("obstacle", barrier), ("value", y), ("coefficient", z)):
                if values is not None and not np.isfinite(values).all():
                    raise NumericalBreakdown(f"non-finite {name} at level {i}")
        if barrier is not None:
            product = gap * dk
            if overflowed:
                # finite data whose gap overflows: an unpushed node adds nothing
                product = np.where(dk == 0.0, 0.0, product)
            level_increment = np.maximum.reduce(dk, axis=-1)
            if not np.isfinite(level_increment).all():
                raise NumericalBreakdown(f"non-finite push increment at level {i}")
            if masked:
                stop = stop_nodes[i]
                if active.any():
                    min_gap = np.minimum(min_gap, np.minimum.reduce(gap[..., active], axis=-1))
                if stop.any():
                    # on stopping nodes y is the terminal value
                    stop_gap = np.minimum.reduce(gap[..., stop], axis=-1)
                    if np.logical_or.reduce(stop_gap < 0.0, axis=None):
                        raise TerminalBelowObstacle(
                            f"terminal values fall below the obstacle at level {i}"
                        )
                    min_gap = np.minimum(min_gap, stop_gap)
            else:
                min_gap = np.minimum(min_gap, np.minimum.reduce(gap, axis=-1))
            skorokhod = np.maximum(skorokhod, np.maximum.reduce(np.abs(product), axis=-1))
            max_increment = np.maximum(max_increment, level_increment)
            touching = np.logical_or.reduce(y <= barrier + DEFAULT_CONTACT_TOL, axis=-1)
            first_contact = np.where(touching, i, first_contact)
        if observe is not None:
            for fresh in (y, z, dk):
                if fresh is not None:
                    fresh.flags.writeable = False
            observe(i, y, z, dk)

    return SweepSummary(
        root=y[..., 0],
        first_contact=first_contact,
        skorokhod_residual=skorokhod,
        min_gap=min_gap,
        max_increment=max_increment,
        iterations=iterations,
        residual=residual,
    )


def _kept_levels(tree: ScenarioTree) -> tuple[LevelObserver, list[list[np.ndarray | None]]]:
    """Observer storing every level it sees, and its y, z and push lists."""
    kept = [[None] * (tree.steps + 1) for _ in range(3)]

    def observe(i, *fresh):
        for levels, level in zip(kept, fresh):
            levels[i] = level

    return observe, kept


def _stop_node_values(
    *rules: StoppingRule,
) -> tuple[LevelObserver, dict[tuple[int, int], float]]:
    """Observer gathering y on the stopping nodes of the rules, and the dict it fills."""
    masks = [rule.stop_node_masks for rule in rules]
    picked: dict[tuple[int, int], float] = {}

    def observe(i, y, z, dk):
        for rule_masks in masks:
            for node in np.nonzero(rule_masks[i])[0]:
                picked[(i, int(node))] = float(y[node])

    return observe, picked


def solve_bsde(
    tree: ScenarioTree, generator: GeneratorSpec, terminal: TerminalCondition
) -> BsdeSolution:
    """Backward recursion from the terminal rule to the root.

    This is the shared sweep with no obstacle, keeping every level of y and z.
    Batch axes of the data and the driver's coefficient columns carry
    through: the levels keep them in front of the node axis and the
    diagnostics hold one entry per member (Python scalars without a batch).
    """
    observe, (y_levels, z_levels, _) = _kept_levels(tree)
    summary = _sweep(tree, generator, terminal.rule, terminal, None, observe)
    return BsdeSolution(
        y=AdaptedProcess(tree, y_levels),
        z=AdaptedProcess(tree, z_levels),
        iterations=_per_member(summary.iterations),
        residual=_per_member(summary.residual),
    )


def g_expectation(
    tree: ScenarioTree,
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    *,
    observe: LevelObserver | None = None,
) -> float | np.ndarray:
    """Initial value of the solution: the nonlinear expectation of the data.

    A root-only sweep, equal to ``solve_bsde(...).y.root()`` bit for bit;
    ``observe`` sees each level on the way down (see ``_sweep``).
    """
    return _per_member(_sweep(tree, generator, terminal.rule, terminal, None, observe).root)


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
    observe, picked = _stop_node_values(at)
    g_expectation(tree, generator, terminal, observe=observe)
    return dict(sorted(picked.items()))
