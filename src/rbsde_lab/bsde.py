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
the step, the clamp and the safety checks and nothing else.  It is a
generator that yields each level once it is final, from the last level down
to the root, and every caller reads it with a ``for`` loop: root-only values
read the last record, the full solvers keep every level and replay the step
identity and the Skorokhod condition for their diagnostics, and a check that
compares two solutions zips two sweeps and keeps only its reductions.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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


class SweptLevel(NamedTuple):
    """One final level of a sweep, as :func:`_sweep` yields it.

    ``y``, ``z`` and ``dk`` are the level's solution and push increments,
    and ``s`` the obstacle level the clamp read (``dk`` and ``s`` are
    ``None`` without an obstacle); ``mean`` is the conditional mean of the
    children and ``step`` the implicit step's value before the clamp and the
    stop override, both ``None`` at the last level, and ``step`` also at a
    level where every node has stopped.  ``iterations`` is the level's own
    fixed-point count per member, a plain 0 where it took no step and 1 for
    a step in closed form.  A record describes its own level: a reduction
    over the levels is the caller's to fold.  Every array is read-only.
    """

    i: int
    y: np.ndarray
    z: np.ndarray
    dk: np.ndarray | None
    s: np.ndarray | None
    mean: np.ndarray | None
    step: np.ndarray | None
    iterations: np.ndarray | int


# warnings off for one stretch of sweep work; a stretch never holds a ``yield``
_silenced = partial(np.errstate, over="ignore", invalid="ignore", divide="ignore")


def _sweep(
    generator: GeneratorSpec,
    terminal: TerminalCondition | LevelData,
    obstacle: LevelData | None = None,
) -> Iterator[SweptLevel]:
    """The backward recursion shared by every solve, plain or reflected.

    A generator: it walks from the last level to the root holding one level
    at a time, and yields each level once it is final, as a
    :class:`SweptLevel`; the last record yielded is the root's.  Per level
    it does only the step, the clamp and the safety checks, and nothing a
    consumer does with a record feeds back into the sweep.  It runs nothing
    before its first ``next()``, so a caller iterates it at once.  The tree
    and the stopping rule are the terminal data's: a
    :class:`TerminalCondition` stops at its rule, :class:`LevelData` at the
    last level.  With ``obstacle=None`` the step is the plain implicit one:
    no clamp, no push.  Between levels it carries only the solution.  The
    batch axes are those of the terminal data and the driver's coefficient
    columns, and the obstacle broadcasts against them.  Batch members only meet in elementwise
    operations, so each one is bit-identical to a solve of its own data.
    Levels below the rule's first stopping level skip all mask work.  On
    stopping nodes ``y`` is the terminal value, so terminal data below the
    obstacle are caught there, and the error names the first such level met
    going down.  Each level tests ``(y - S) + z`` (``y + z`` without an
    obstacle) for finiteness once and checks obstacle, value and
    coefficient apart only when that fails, so finite data whose sum
    overflows pass; the largest push of a level must be finite too.
    Warnings are silenced level by level, never across a ``yield``, so the
    consumer runs under its own setting and non-finite data surface only as
    :class:`NumericalBreakdown`.
    """
    tree, rule = terminal.tree, terminal.rule
    if obstacle is not None and obstacle.tree != tree:
        raise TreeMismatch("terminal condition and obstacle must share the tree")
    dt = tree.grid.dt
    n = tree.steps
    with _silenced():  # a driver's bounds and the leaf lift may overflow
        contraction = np.ravel(generator.lipschitz[0]).max() * dt  # the largest member's
        if contraction >= 1.0:
            raise ContractionViolated(f"lipschitz * dt = {contraction:.6g} >= 1; refine the grid")
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

    for i in range(n, -1, -1):
        with _silenced():
            barrier = None if obstacle is None else obstacle.level(i)
            masked = i >= first_stop
            mean = step = None
            iters = 0
            if i < n:
                up, down = tree.child_values(y)
                mean = conditional_expectation(up, down)
                z = martingale_coefficient(up, down, dt)
                y = mean
                if not masked or not stopped[i].all():
                    y, iters = _implicit_level(generator, tree.grid.time(i), mean, z, dt, tree, i)
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
        for fresh in (y, z, dk, barrier, mean, step, iters):
            if isinstance(fresh, np.ndarray):  # not None, nor a plain count
                fresh.setflags(write=False)
        yield SweptLevel(i, y, z, dk, barrier, mean, step, iters)


def _root(*sweep) -> SweptLevel:
    """The root record of ``_sweep(*sweep)``, read to the end."""
    for level in _sweep(*sweep):
        pass
    return level


@_silenced()
def _diagnostics(
    generator: GeneratorSpec, rule: StoppingRule, levels: Iterable[SweptLevel]
) -> dict[str, float | np.ndarray]:
    """Replay the sweep's identities over its levels; the reductions per member.

    ``residual`` is the largest defect of the step identity
    ``step = mean + g(t, step, z) * dt`` over the active nodes of the levels
    that took a step; the identity lives on the pre-clamp value, which is why
    the sweep hands it over.  With an obstacle the replay also keeps the
    Skorokhod residual ``max |(y - S) * dk|``, ``min_gap``, the smallest
    ``y - S`` over active and stopping nodes, and ``max_increment``, the
    largest push.  ``iterations`` is the largest fixed-point count of any
    level.  Each holds one entry per batch member (a Python scalar without a
    batch).  The replay runs silenced, as the sweep does: a gap may overflow.
    """
    tree = rule.tree
    dt = tree.grid.dt
    stopped, stop_nodes = rule.stopped_by_level, rule.stop_node_masks
    first_stop = rule.first_stop_level
    found: dict[str, np.ndarray] = {}
    for i, y, z, dk, s, mean, step, iterations in levels:
        if i == tree.steps:  # the sweep starts at the last level, which fixes the batch shape
            batch = y.shape[:-1]
            found["residual"] = np.zeros(batch)
            found["iterations"] = np.zeros(batch, dtype=np.int64)
            if s is not None:
                found["skorokhod_residual"] = np.zeros(batch)
                found["min_gap"] = np.full(batch, np.inf)
                found["max_increment"] = np.full(batch, -np.inf)
        found["iterations"] = np.maximum(found["iterations"], iterations)
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
        if s is None:
            continue
        gap = y - s
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
    return {name: _per_member(value) for name, value in found.items()}


def _full_sweep(
    generator: GeneratorSpec, terminal: TerminalCondition, obstacle: LevelData | None
) -> tuple[tuple, tuple, tuple, dict]:
    """The sweep of the full solvers: the y, z and push levels, root first,
    and the reductions of :func:`_diagnostics`."""
    kept = []  # (y, z, dk) per level, root last

    def keeping(levels):
        for level in levels:
            kept.append((level.y, level.z, level.dk))
            yield level

    found = _diagnostics(generator, terminal.rule, keeping(_sweep(generator, terminal, obstacle)))
    y_levels, z_levels, dk_levels = (levels[::-1] for levels in zip(*kept))
    return y_levels, z_levels, dk_levels, found


def _stop_node_values(
    levels: Iterable[SweptLevel], *rules: StoppingRule
) -> dict[tuple[int, int], float | np.ndarray]:
    """y on the stopping nodes of the rules, read off a stream of levels: one
    entry per batch member, a Python float without a batch, in node order."""
    masks = [rule.stop_node_masks for rule in rules]
    picked: dict[tuple[int, int], float | np.ndarray] = {}
    for level in levels:
        for rule_masks in masks:
            for node in np.nonzero(rule_masks[level.i])[0]:
                picked[(level.i, int(node))] = _per_member(level.y[..., node])
    return dict(sorted(picked.items()))


def solve_bsde(generator: GeneratorSpec, terminal: TerminalCondition) -> BsdeSolution:
    """Backward recursion from the terminal rule to the root.

    This is the shared sweep with no obstacle, keeping every level of y and z.
    Batch axes of the data and the driver's coefficient columns carry
    through: the levels keep them in front of the node axis and the
    diagnostics hold one entry per member (Python scalars without a batch).
    """
    y_levels, z_levels, _, diagnostics = _full_sweep(generator, terminal, None)
    tree = terminal.tree
    return BsdeSolution(
        y=AdaptedProcess(tree, y_levels), z=AdaptedProcess(tree, z_levels), **diagnostics
    )


def g_expectation(generator: GeneratorSpec, terminal: TerminalCondition) -> float | np.ndarray:
    """Initial value of the solution: the nonlinear expectation of the data.

    A root-only sweep, equal to ``solve_bsde(...).y.root()`` bit for bit.
    """
    return _per_member(_root(generator, terminal).y[..., 0])


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
    return _stop_node_values(_sweep(generator, terminal), at)
