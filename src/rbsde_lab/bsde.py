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
obstacle never binds is the plain equation by construction.  The loop does
the step, the clamp and the safety checks and nothing else.  What a caller
reads besides the root it reads from an observer that sees each level pass.
A check keeps every level (``_swept_levels``); the full solvers also replay
the step identity and the Skorokhod condition for their diagnostics.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple, Sequence

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
    _cells,
    _frozen_levels,
    _held_after,
    _per_member,
    conditional_expectation,
    constant_levels,
    martingale_coefficient,
)
from .records import Record

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 200


class TerminalCondition(Record):
    """Terminal data attached to a stopping rule (level N by default).

    Levels are adopted as :class:`AdaptedProcess` adopts them: frozen input
    is kept as given, anything a caller can still write to is copied, and
    leading axes are batch members.  The rule is shared by every member.
    """

    _fields = ("tree", "rule", "values")  # no __slots__: ``extended`` is cached per instance

    def __init__(self, tree: ScenarioTree, rule: StoppingRule, values: Sequence[np.ndarray]):
        if rule.tree != tree:
            raise TreeMismatch("terminal rule lives on a different tree")
        levels = tuple(_frozen_levels(tree, values, np.float64, "terminal", batched=True))
        masks, first_stop = rule.stop_node_masks, rule.first_stop_level
        # below the rule's first stopping level no node stops, so nothing to test
        for i in range(first_stop, tree.steps + 1):
            if not np.isfinite(levels[i][..., masks[i]]).all():
                raise ValueError("terminal values must be finite on stopping nodes")
        self._set(tree, rule, levels)

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
        stop, levels = self.rule.stop_node_masks, constant_levels(self.tree, np.nan)
        for i in range(self.rule.first_stop_level, self.tree.steps + 1):
            if _cells(stop[i]).any():
                levels[i] = np.where(stop[i], self.values[i], np.nan)
        return tuple(_held_after(levels, self.rule))

    def level(self, i: int) -> np.ndarray:
        """Extended values of level ``i``: the data read as :class:`LevelData`."""
        return self.extended[i]

    def as_full_horizon(self) -> TerminalCondition:
        """Same data re-expressed as plain level-N terminal values."""
        return TerminalCondition.from_leaf_values(self.tree, self.extended[self.tree.steps])


class BsdeSolution(Record):
    """Adapted pair plus solver diagnostics.

    ``residual`` is the largest replayed defect of the one-step identity
    ``v = mean + g(t, v, z) * dt`` over active nodes; ``iterations`` is the
    largest fixed-point iteration count any node needed.  Both hold one
    entry per batch member.
    """

    __slots__ = _fields = ("y", "z", "iterations", "residual")


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


class LevelData(NamedTuple):
    """Values on a tree read one level at a time.

    ``level(i)`` returns an array whose last axis runs over the nodes of
    level ``i``; leading axes, if any, are batch members.  An
    :class:`AdaptedProcess` fits the same shape, so does a
    :class:`TerminalCondition` (its extended values), and so does data
    computed on demand, which is how root-only sweeps avoid storing a lattice.
    As terminal data of a sweep, level data stop at the last level: their
    ``rule`` is ``None`` (a class attribute, not a field), where a
    :class:`TerminalCondition` gives its stopping rule.
    """

    tree: ScenarioTree
    level: Callable[[int], np.ndarray]
    rule = None


LevelObserver = Callable[
    [int, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None], None
]


class SweepSummary(Record):
    """What every sweep keeps for its caller, one entry per member.

    ``root`` is the value at the root node, ``iterations`` the largest
    fixed-point count of any level.  ``first_contact`` is the first level at
    which the value sits within ``DEFAULT_CONTACT_TOL`` of the obstacle at
    some node (the last level when it never does, and always without an
    obstacle), the level at which ``rbsde.exercise_rule`` first flags a node.
    The residual, Skorokhod, gap and push reductions are not here: the full
    solvers replay them through the observer of :func:`_diagnostics`.
    """

    __slots__ = _fields = ("root", "first_contact", "iterations")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sweep(
    generator: GeneratorSpec,
    terminal: TerminalCondition | LevelData,
    obstacle: LevelData | None = None,
    observe: LevelObserver | None = None,
) -> SweepSummary:
    """The backward recursion shared by every solve, plain or reflected.

    Walks from the last level to the root holding one level at a time, and
    per level does only the step, the clamp and the safety checks.  The tree
    and the stopping rule are the terminal data's: a
    :class:`TerminalCondition` stops at its rule, :class:`LevelData` at the
    last level.  ``observe``, if given, sees every level once it is final:
    it is called with ``(i, y, z, dk, mean, step)``, the arrays frozen.
    ``dk`` is the push increments (``None`` without an obstacle), ``mean``
    the conditional mean of the children and ``step`` the implicit step's
    value before the clamp and the stop override; both are ``None`` at the
    last level, and ``step`` also at a level where every node has stopped.
    The observer only reads; nothing it does feeds back into the sweep.
    With ``obstacle=None`` the step is the plain implicit one: no clamp, no
    push, no contact.  The batch axes are those of the terminal data and the
    driver's coefficient columns, and the obstacle broadcasts against them.
    Batch members only meet in elementwise operations, so each one is
    bit-identical to a solve of its own data.  Levels below the rule's first
    stopping level skip all mask work.  On stopping nodes ``y`` is the
    terminal value, so terminal data below the obstacle are caught there,
    and the error names the first such level met going down.  Each level
    tests ``(y - S) + z`` (``y + z`` without an obstacle) for finiteness
    once and checks obstacle, value and coefficient apart only when that
    fails, so finite data whose sum overflows pass; the largest push of a
    level must be finite too.  With warnings silenced, non-finite data
    surface only as :class:`NumericalBreakdown`.
    """
    tree, rule = terminal.tree, terminal.rule
    if obstacle is not None and obstacle.tree != tree:
        raise TreeMismatch("terminal condition and obstacle must share the tree")
    contraction = np.ravel(generator.lipschitz[0]).max() * tree.grid.dt  # the largest member's
    if contraction >= 1.0:
        raise ContractionViolated(f"lipschitz * dt = {contraction:.6g} >= 1; refine the grid")
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
    iterations = np.zeros(batch, dtype=np.int64)

    for i in range(n, -1, -1):
        barrier = None if obstacle is None else obstacle.level(i)
        masked = i >= first_stop
        mean = step = None
        if i < n:
            up, down = tree.child_values(y)
            mean = conditional_expectation(up, down)
            z = martingale_coefficient(up, down, dt)
            y = mean
            if not masked or not stopped[i].all():
                y, iters = _implicit_level(generator, tree.grid.time(i), mean, z, dt, tree, i)
                iterations = np.maximum(iterations, iters)
                step = y
            if barrier is not None:
                unreflected, y = y, np.maximum(y, barrier)
                dk = y - unreflected
            if masked and stopped[i].any():
                y = np.where(stopped[i], terminal.level(i), y)
                z = np.where(stopped[i], 0.0, z)
                if barrier is not None:
                    dk = np.where(stopped[i], 0.0, dk)
        gap = y if barrier is None else y - barrier
        if not np.isfinite(gap + z).all():
            for name, values in (("obstacle", barrier), ("value", y), ("coefficient", z)):
                if values is not None and not np.isfinite(values).all():
                    raise NumericalBreakdown(f"non-finite {name} at level {i}")
        if barrier is not None:
            if not np.isfinite(np.maximum.reduce(dk, axis=-1)).all():
                raise NumericalBreakdown(f"non-finite push increment at level {i}")
            # on stopping nodes y is the terminal value
            if masked and stop_nodes[i].any():
                if np.logical_or.reduce(gap[..., stop_nodes[i]] < 0.0, axis=None):
                    raise TerminalBelowObstacle(
                        f"terminal values fall below the obstacle at level {i}"
                    )
            touching = np.logical_or.reduce(y <= barrier + DEFAULT_CONTACT_TOL, axis=-1)
            first_contact = np.where(touching, i, first_contact)
        if observe is not None:
            for fresh in (y, z, dk, mean, step):
                if fresh is not None:
                    fresh.flags.writeable = False
            observe(i, y, z, dk, mean, step)

    return SweepSummary(root=y[..., 0], first_contact=first_contact, iterations=iterations)


def _kept_levels(tree: ScenarioTree) -> tuple[LevelObserver, list[list[np.ndarray | None]]]:
    """Observer storing every level it sees, and its y, z and push lists."""
    kept = [[None] * (tree.steps + 1) for _ in range(3)]

    def observe(i, *fresh):
        for levels, level in zip(kept, fresh):
            levels[i] = level

    return observe, kept


def _swept_levels(
    generator: GeneratorSpec, terminal: TerminalCondition, obstacle: LevelData | None = None
) -> list[list[np.ndarray | None]]:
    """The y, z and push levels of one root-only sweep; every push is None without an obstacle."""
    observe, kept = _kept_levels(terminal.tree)
    _sweep(generator, terminal, obstacle, observe)
    return kept


def _diagnostics(
    generator: GeneratorSpec, rule: StoppingRule, obstacle: LevelData | None
) -> tuple[LevelObserver, dict[str, np.ndarray]]:
    """Observer replaying the sweep's identities, and the dict of reductions it fills.

    ``residual`` is the largest defect of the step identity
    ``step = mean + g(t, step, z) * dt`` over the active nodes of the levels
    that took a step; the identity lives on the pre-clamp value, which is why
    the sweep hands it over.  With an obstacle the observer also keeps the
    Skorokhod residual ``max |(y - S) * dk|``, ``min_gap``, the smallest
    ``y - S`` over active and stopping nodes, and ``max_increment``, the
    largest push.  Each holds one entry per batch member.
    """
    tree = rule.tree
    dt = tree.grid.dt
    stopped, stop_nodes = rule.stopped_by_level, rule.stop_node_masks
    first_stop = rule.first_stop_level
    found: dict[str, np.ndarray] = {}

    def observe(i, y, z, dk, mean, step):
        if i == tree.steps:  # the sweep starts at the last level, which fixes the batch shape
            batch = y.shape[:-1]
            found["residual"] = np.zeros(batch)
            if obstacle is not None:
                found["skorokhod_residual"] = np.zeros(batch)
                found["min_gap"] = np.full(batch, np.inf)
                found["max_increment"] = np.full(batch, -np.inf)
        masked = i >= first_stop
        if masked:
            active, stop = ~stopped[i], stop_nodes[i]
        if step is not None:
            t = tree.grid.time(i)
            g = np.asarray(generator.evaluate(t, step, z, level=i, tree=tree), dtype=float)
            defect = np.abs(step - (mean + g * dt))
            if masked:
                defect = defect[..., active]
            found["residual"] = np.maximum(found["residual"], np.maximum.reduce(defect, axis=-1))
        if obstacle is None:
            return
        gap = y - obstacle.level(i)
        if masked:
            for nodes in (active, stop):
                if nodes.any():
                    found["min_gap"] = np.minimum(
                        found["min_gap"], np.minimum.reduce(gap[..., nodes], axis=-1)
                    )
        else:
            found["min_gap"] = np.minimum(found["min_gap"], np.minimum.reduce(gap, axis=-1))
        product = gap * dk
        worst = np.maximum.reduce(np.abs(product), axis=-1)
        if not np.isfinite(worst).all():
            # finite data whose gap overflows: an unpushed node adds nothing
            worst = np.maximum.reduce(np.abs(np.where(dk == 0.0, 0.0, product)), axis=-1)
        found["skorokhod_residual"] = np.maximum(found["skorokhod_residual"], worst)
        found["max_increment"] = np.maximum(found["max_increment"], np.maximum.reduce(dk, axis=-1))

    return observe, found


def _full_sweep(
    generator: GeneratorSpec, terminal: TerminalCondition, obstacle: LevelData | None
) -> tuple[SweepSummary, list[list[np.ndarray]], dict[str, float | np.ndarray]]:
    """The sweep of the full solvers: every level kept and the diagnostics replayed.

    Returns the summary, the y, z and push level lists, and the reductions
    of :func:`_diagnostics` per member (Python scalars without a batch).
    """
    keep, kept = _kept_levels(terminal.tree)
    diagnose, found = _diagnostics(generator, terminal.rule, obstacle)

    def observe(*level):
        keep(*level)
        diagnose(*level)

    summary = _sweep(generator, terminal, obstacle, observe)
    return summary, kept, {name: _per_member(value) for name, value in found.items()}


def _stop_node_values(
    *rules: StoppingRule,
) -> tuple[LevelObserver, dict[tuple[int, int], float | np.ndarray]]:
    """Observer gathering y on the stopping nodes of the rules, and the dict it
    fills: one entry per batch member, a Python float without a batch."""
    masks = [rule.stop_node_masks for rule in rules]
    picked: dict[tuple[int, int], float | np.ndarray] = {}

    def observe(i, y, *_):
        for rule_masks in masks:
            for node in np.nonzero(rule_masks[i])[0]:
                picked[(i, int(node))] = _per_member(y[..., node])

    return observe, picked


def solve_bsde(generator: GeneratorSpec, terminal: TerminalCondition) -> BsdeSolution:
    """Backward recursion from the terminal rule to the root.

    This is the shared sweep with no obstacle, keeping every level of y and z.
    Batch axes of the data and the driver's coefficient columns carry
    through: the levels keep them in front of the node axis and the
    diagnostics hold one entry per member (Python scalars without a batch).
    """
    summary, (y_levels, z_levels, _), diagnostics = _full_sweep(generator, terminal, None)
    tree = terminal.tree
    return BsdeSolution(
        y=AdaptedProcess(tree, y_levels),
        z=AdaptedProcess(tree, z_levels),
        iterations=_per_member(summary.iterations),
        **diagnostics,
    )


def g_expectation(
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    *,
    observe: LevelObserver | None = None,
) -> float | np.ndarray:
    """Initial value of the solution: the nonlinear expectation of the data.

    A root-only sweep, equal to ``solve_bsde(...).y.root()`` bit for bit;
    ``observe`` sees each level on the way down (see ``_sweep``).
    """
    return _per_member(_sweep(generator, terminal, observe=observe).root)


def conditional_g_expectation(
    generator: GeneratorSpec,
    terminal: TerminalCondition,
    at: StoppingRule,
) -> dict[tuple[int, int], float | np.ndarray]:
    """Solution values on the stopping nodes of ``at``.

    ``at`` must stop no later than the terminal rule on every path.
    """
    if not at.precedes(terminal.rule):
        raise RuleOrderViolated("evaluation rule must precede the terminal rule")
    observe, picked = _stop_node_values(at)
    g_expectation(generator, terminal, observe=observe)
    return dict(sorted(picked.items()))
