"""Executable checks for the ordering behaviour of reflected solutions.

Each entry point here turns one mathematical statement about reflected
equations into a measurement on the lattice: the comparison of values and
of reflection pushes under ordered data, the failure of global strict
comparison together with the local strict separation witness, the
constructions that force the reflection to stay off (so reflected and plain
solutions coincide), and the converse probes that read driver order off
solution order.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bsde import SweptLevel, TerminalCondition, _stop_node_values, _sweep
from .errors import (
    NoStrictGap,
    TreeMismatch,
    UnsupportedTreeMode,
    WitnessConstructionFailed,
)
from .generators import (
    Abs,
    Add,
    AtZeroState,
    Const,
    GeneratorSpec,
    Min,
    NegPart,
    PiecewiseTime,
    SampleSpec,
    Scale,
    TimeVar,
    YVar,
    ZVar,
)
from .lattice import (
    AdaptedProcess,
    ScenarioTree,
    StoppingRule,
    TreeMode,
    _per_member,
    event_probability,
)
# solve_rbsde: ROADMAP item 1, test_install_rebinds_every_copy_and_uninstall_restores_all
from .rbsde import ObstacleSpec, _path_maximum, reflected_value, solve_rbsde
from .records import Record

COMPARISON_TOL = 1e-10  # solution orderings: values, pushes, conditional values, drivers
EQUALITY_TOL = 1e-9  # two solutions count as equal at a node (strict witness)
EXACT_TOL = 1e-12  # orderings that hold exactly on the lattice, up to rounding


class RbsdeProblem(Record):
    """One reflected data set: driver, terminal condition, obstacle.

    Data with leading batch axes, and a driver with coefficient columns,
    make a batch of problems; the comparison checks take such a batch.
    """

    __slots__ = _fields = ("generator", "terminal", "obstacle")

    @property
    def tree(self) -> ScenarioTree:
        return self.terminal.tree


# ---------------------------------------------------------------------------
# Comparison of values and reflection pushes under ordered data

def _nonnegative(values):
    """Per member, the value or 0 if it is smaller; a NaN stays NaN."""
    return _per_member(np.maximum(values, 0.0))


class OrderingCertificate(NamedTuple):
    """How each input ordering was verified, with its worst violation."""

    terminal_gap: float | np.ndarray
    obstacle_gap: float | np.ndarray
    driver_gap_on_solutions: float | np.ndarray

    @property
    def established(self) -> bool | np.ndarray:
        ok = True
        for gap in self:
            ok = ok & (np.asarray(gap) <= EXACT_TOL)
        return _per_member(ok)


class ComparisonReport(NamedTuple):
    """Ordering measurements of a problem pair, one entry per batch member.

    Without a batch every field is a Python scalar; :meth:`members` splits
    a batched report into the reports each member gets on its own.
    """

    certificate: OrderingCertificate
    max_value_violation: float | np.ndarray
    max_push_violation: float | np.ndarray | None
    push_difference_monotone: bool | np.ndarray | None
    vacuous: bool | np.ndarray

    @property
    def passed(self) -> bool | np.ndarray:
        ok = np.logical_and(
            np.logical_not(self.vacuous), np.asarray(self.max_value_violation) <= COMPARISON_TOL
        )
        if self.max_push_violation is not None:
            ok = ok & (np.asarray(self.max_push_violation) <= COMPARISON_TOL)
            ok = ok & self.push_difference_monotone
        return _per_member(ok)

    def members(self) -> list[ComparisonReport]:
        return [_member(self, k) for k in range(np.size(self.vacuous))]


def _member(report, k: int):
    """Member ``k`` of a batched report; nested reports are split alike."""

    def pick(value):
        if hasattr(value, "_fields"):
            return _member(value, k)
        if isinstance(value, np.ndarray):
            return (value[k] if value.ndim else value).item()
        return value

    return type(report)(*map(pick, report))


def _folded(running: np.ndarray | None, level: np.ndarray) -> np.ndarray:
    """``running`` with one more level's maximum folded in, the later level
    first: ``np.maximum`` keeps its first operand on a tie, so ties between
    +0 and -0 resolve as a fold from level 0 up would, though sweeps run down."""
    return level if running is None else np.maximum(level, running)


def _one_sided_gaps(first: Iterable[SweptLevel], second: Iterable[SweptLevel]) -> tuple:
    """Largest ``y_first - y_second`` and ``y_second - y_first`` over every node
    of two zipped sweeps, one entry per member; a NaN at any node reaches both."""
    forward = backward = None
    for a, b in zip(first, second):
        forward = _folded(forward, np.max(a.y - b.y, axis=-1))
        backward = _folded(backward, np.max(b.y - a.y, axis=-1))
    return forward, backward


def _driver_gap(
    g_low: GeneratorSpec, g_high: GeneratorSpec, tree: ScenarioTree, level: SweptLevel
) -> np.ndarray:
    """Largest ``g_low - g_high`` over the nodes of one solution level, per member."""
    at = (tree.grid.time(level.i), level.y, level.z)
    low, high = (
        np.asarray(g.evaluate(*at, level=level.i, tree=tree), dtype=float) for g in (g_low, g_high)
    )
    return np.max(np.broadcast_to(low - high, level.y.shape), axis=-1)


def check_comparison(low: RbsdeProblem, high: RbsdeProblem) -> ComparisonReport:
    """Solve both problems and measure the ordering of their values.

    The input orderings (terminal, driver, obstacle) are certified on the
    lattice, the driver order at the nodes of both solutions; when any of
    them fails the report is produced anyway but marked vacuous.  Batched
    problems are checked member by member in one pair of zipped root-only
    sweeps.
    """
    return _compared(low, high)


def _require_shared_obstacle(low: RbsdeProblem, high: RbsdeProblem, what: str) -> None:
    """Raise unless both problems live on one tree and share their obstacle values."""
    if low.tree != high.tree:
        raise TreeMismatch(f"{what} needs a common tree")
    if not all(map(np.array_equal, low.obstacle.process.levels(), high.obstacle.process.levels())):
        raise ValueError(f"{what} needs a common obstacle")


def _compared(low: RbsdeProblem, high: RbsdeProblem, *, pushes: bool = False) -> ComparisonReport:
    """Sweep both problems side by side, certify the input orderings and
    measure the value ordering, and the push ordering too with ``pushes``.

    The two sweeps are zipped and each pair of levels is reduced as it
    passes, so neither solution is kept: memory is O(N) at any depth.
    """
    if low.tree != high.tree:
        raise TreeMismatch("comparison needs a common tree")
    tree = low.tree
    sweeps = (_sweep(p.generator, p.terminal, p.obstacle.process) for p in (low, high))
    value_gap = driver_gap = increment_drop = s_gap = None  # maxima over the levels so far

    def increment_drops():
        nonlocal value_gap, driver_gap, increment_drop, s_gap
        for lo, hi in zip(*sweeps):
            drop = hi.dk - lo.dk
            s_gap = _folded(s_gap, np.max(lo.s - hi.s, axis=-1))
            value_gap = _folded(value_gap, np.max(lo.y - hi.y, axis=-1))
            on_both = (_driver_gap(low.generator, high.generator, tree, s) for s in (lo, hi))
            driver_gap = _folded(driver_gap, np.maximum(*on_both))
            increment_drop = _folded(increment_drop, np.max(drop, axis=-1))
            yield drop

    drops = increment_drops()
    push_violation = _path_maximum(tree, drops) if pushes else None
    for _ in drops:  # without pushes nothing has run the sweeps yet
        pass

    # The leaf extension is constant along post-stop paths, so ordering at
    # the last level is ordering of the terminal data themselves.
    last = tree.steps
    xi_gap = np.max(low.terminal.extended[last] - high.terminal.extended[last], axis=-1)
    certificate = OrderingCertificate(
        terminal_gap=_nonnegative(xi_gap),
        obstacle_gap=_nonnegative(s_gap),
        # +0 first: a largest driver gap of -0 reads +0, as a fold that starts at 0 gives
        driver_gap_on_solutions=_nonnegative(np.maximum(0.0, driver_gap)),
    )
    monotone = _per_member(np.asarray(increment_drop) <= COMPARISON_TOL)
    return ComparisonReport(
        certificate=certificate,
        max_value_violation=_nonnegative(value_gap),
        max_push_violation=push_violation,
        push_difference_monotone=monotone if pushes else None,
        vacuous=_per_member(np.logical_not(certificate.established)),
    )


def check_k_comparison(low: RbsdeProblem, high: RbsdeProblem) -> ComparisonReport:
    """Comparison of reflection pushes for a shared obstacle.

    Under ordered terminals and drivers the lower data pushes harder:
    cumulative pushes dominate nodewise and their difference grows along
    every path.  The worst ``K_high - K_low`` is the backward path maximum
    of the increment differences, so neither tree layout needs carried sums;
    the increments certify path monotonicity, since a path difference is the
    running sum of increment differences.
    """
    _require_shared_obstacle(low, high, "push comparison")
    return _compared(low, high, pushes=True)


# ---------------------------------------------------------------------------
# Local strict separation witness

class StrictWitness(Record):
    """Stopping rule before the horizon separating the two solutions.

    ``iterates`` holds, per terminal path (row), the iterated equality-search
    levels, padded with the horizon once the path reaches it; ``k_index`` is
    the first iterate that reaches the horizon with positive probability;
    ``stop_levels`` are the per-path levels of the returned rule;
    ``probability`` is the exact probability that the lower solution stays
    strictly below the higher one from the rule onward.
    """

    __slots__ = _fields = ("rule", "probability", "iterates", "k_index", "stop_levels")


def local_strict_witness(low: RbsdeProblem, high: RbsdeProblem) -> StrictWitness:
    """Build the separating rule from the iterated equality search.

    Starting from zero, each iterate jumps half of the remaining time
    forward (rounded up to the grid so it strictly advances) and looks for
    the next equality of the two solutions; reaching the horizon with
    positive probability pins the iterate whose predecessor midpoint
    (rounded down to the grid) is the witness.  Every path is searched at
    once, on level arrays.
    """
    _require_shared_obstacle(low, high, "witness construction")
    tree = low.tree
    if tree.mode is not TreeMode.FULL_BINARY:
        raise UnsupportedTreeMode("witness construction walks paths; use a full-binary tree")
    if low.generator.expr != high.generator.expr:
        raise ValueError("witness construction assumes a shared driver")

    n = tree.steps
    xi_low = low.terminal.extended[n]
    xi_high = high.terminal.extended[n]
    if bool(np.any(xi_low > xi_high + EXACT_TOL)):
        raise ValueError("terminal values are not ordered")
    if not bool(np.any(xi_high - xi_low > EQUALITY_TOL)):
        raise NoStrictGap("terminal values agree everywhere; no strict gap to separate")

    strict = [None] * (n + 1)  # where the higher solution sits strictly above, per level
    sweeps = (_sweep(p.generator, p.terminal, p.obstacle.process) for p in (low, high))
    for below, above in zip(*sweeps):
        strict[below.i] = above.y - below.y > EQUALITY_TOL
    # next_equal[leaf, j]: first level >= j where the solutions agree on the
    # leaf's path, n when none; int8 holds every level (n <= 25 on full-binary trees)
    next_equal = np.empty((1 << n, n + 1), dtype=np.int8)
    for i, mask in enumerate(strict):
        next_equal[:, i] = np.repeat(np.where(mask, n, i).astype(np.int8), 1 << (n - i))
    next_equal = np.minimum.accumulate(next_equal[:, ::-1], axis=1)[:, ::-1]

    leaves = np.arange(1 << n)
    current = np.zeros(1 << n, dtype=np.int8)
    rounds = [current]
    while not bool(np.all(current == n)):
        current = next_equal[leaves, current + (n - current + 1) // 2]
        rounds.append(current)
    iterates = np.stack(rounds, axis=1)

    # column 0 holds no n, so k_index >= 2, column k_index - 2 holds no n, and every stop is < n
    k_index = int(np.argmax(np.any(iterates == n, axis=0))) + 1
    base_levels = iterates[:, k_index - 2]
    stop_levels = base_levels + (n - base_levels) // 2

    flags = [np.zeros(tree.level_size(i), dtype=bool) for i in range(n + 1)]
    for i in range(n + 1):
        flags[i][(leaves >> (n - i))[stop_levels == i]] = True
    rule = StoppingRule(tree, flags)
    if not np.array_equal(rule.leaf_stop_levels, stop_levels):
        raise WitnessConstructionFailed("separating rule is not first-hit consistent")

    probability = event_probability(rule, strict)
    if probability <= 0.0:
        raise WitnessConstructionFailed("separation event has zero probability")
    return StrictWitness(
        rule=rule,
        probability=probability,
        iterates=iterates,
        k_index=k_index,
        stop_levels=stop_levels,
    )


# ---------------------------------------------------------------------------
# Closed-form counterexample solutions

class ClosedFormCase(Enum):
    """The four closed-form reflected solutions with affine obstacle 1 - 2t."""

    CONST_DRIVER_LOW_TERMINAL = "const-driver-low"
    CONST_DRIVER_HIGH_TERMINAL = "const-driver-high"
    ZERO_DRIVER_LOW_TERMINAL = "zero-driver-low"
    ZERO_DRIVER_HIGH_TERMINAL = "zero-driver-high"


class ClosedFormSolution(NamedTuple):
    """Piecewise closed form on [0, 1]: value, push, contact (the coefficient is 0)."""

    driver_value: float
    terminal_value: float
    contact_time: float
    value_slope_after: float
    value_intercept_after: float
    push_rate: float

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(
            t <= self.contact_time,
            1.0 - 2.0 * t,
            self.value_intercept_after + self.value_slope_after * t,
        )

    def push(self, t):
        t = np.asarray(t, dtype=float)
        return self.push_rate * np.minimum(t, self.contact_time)

    @property
    def push_plateau(self) -> float:
        return self.push_rate * self.contact_time


_CLOSED_FORMS = {
    ClosedFormCase.CONST_DRIVER_LOW_TERMINAL: ClosedFormSolution(
        driver_value=1.0 / 3.0,
        terminal_value=1.0 / 3.0,
        contact_time=1.0 / 5.0,
        value_slope_after=-1.0 / 3.0,
        value_intercept_after=2.0 / 3.0,
        push_rate=5.0 / 3.0,
    ),
    ClosedFormCase.CONST_DRIVER_HIGH_TERMINAL: ClosedFormSolution(
        driver_value=1.0 / 3.0,
        terminal_value=1.0 / 2.0,
        contact_time=1.0 / 10.0,
        value_slope_after=-1.0 / 3.0,
        value_intercept_after=5.0 / 6.0,
        push_rate=5.0 / 3.0,
    ),
    ClosedFormCase.ZERO_DRIVER_LOW_TERMINAL: ClosedFormSolution(
        driver_value=0.0,
        terminal_value=1.0 / 3.0,
        contact_time=1.0 / 3.0,
        value_slope_after=0.0,
        value_intercept_after=1.0 / 3.0,
        push_rate=2.0,
    ),
    ClosedFormCase.ZERO_DRIVER_HIGH_TERMINAL: ClosedFormSolution(
        driver_value=0.0,
        terminal_value=1.0 / 2.0,
        contact_time=1.0 / 4.0,
        value_slope_after=0.0,
        value_intercept_after=1.0 / 2.0,
        push_rate=2.0,
    ),
}


def closed_form_example(case: ClosedFormCase) -> ClosedFormSolution:
    """Exact piecewise solution for one of the four counterexample data sets."""
    return _CLOSED_FORMS[case]


def _closed_form_data(tree: ScenarioTree, driver, terminal_value) -> RbsdeProblem:
    """Constant driver and terminal value (numbers or columns) over the obstacle ``1 - 2t``."""
    if not math.isclose(tree.grid.horizon, 1.0):
        raise ValueError("counterexample data lives on the unit horizon")
    obstacle = ObstacleSpec(AdaptedProcess.from_time_function(tree, lambda t: 1.0 - 2.0 * t))
    terminal = TerminalCondition.constant(tree, terminal_value)
    return RbsdeProblem(GeneratorSpec(Const(driver)), terminal, obstacle)


def counterexample_problem(tree: ScenarioTree, case: ClosedFormCase) -> RbsdeProblem:
    """Lattice data matching one closed-form case on the unit horizon."""
    form = _CLOSED_FORMS[case]
    return _closed_form_data(tree, form.driver_value, form.terminal_value)


def counterexample_batch(tree: ScenarioTree, cases: Sequence[ClosedFormCase]) -> RbsdeProblem:
    """The cases' data as one batch: driver and terminal value become
    columns over the cases, and the obstacle ``1 - 2t`` is shared."""
    forms = [_CLOSED_FORMS[case] for case in cases]
    driver = np.array([[form.driver_value] for form in forms])
    terminal = np.array([[form.terminal_value] for form in forms])
    return _closed_form_data(tree, driver, terminal)


# ---------------------------------------------------------------------------
# Obstacles that keep the reflection off

def dominating_driver(lipschitz: float) -> GeneratorSpec:
    """Driver ``-L|y| - L|z|``, the least value any L-driver vanishing at
    zero coefficient can produce."""
    return GeneratorSpec(Add((Scale(-lipschitz, Abs(YVar())), Scale(-lipschitz, Abs(ZVar())))))


def build_dominating_obstacle(terminal: TerminalCondition, lipschitz: float) -> ObstacleSpec:
    """Obstacle dominated by every plain solution with an L-bounded driver
    that vanishes at zero coefficient, for the same terminal data.

    Built as the plain solution with driver ``-L|y| - L|z|``.  Reflecting
    any such driver against it leaves the push identically zero, which is
    what reduces reflected comparisons to plain ones.
    """
    aux = [level.y for level in _sweep(dominating_driver(lipschitz), terminal)]
    return ObstacleSpec(AdaptedProcess(terminal.tree, aux[::-1]))


def floor_driver(
    g_first: GeneratorSpec, g_second: GeneratorSpec, lipschitz: float
) -> GeneratorSpec:
    """Driver ``min(g1(t,0,0), g2(t,0,0)) - L|y| - L|z|``."""
    expr = Add(
        (
            Min(AtZeroState(g_first.expr), AtZeroState(g_second.expr)),
            Scale(-lipschitz, Abs(YVar())),
            Scale(-lipschitz, Abs(ZVar())),
        )
    )
    return GeneratorSpec(expr)


def build_floor_obstacle(
    terminal: TerminalCondition, g_first: GeneratorSpec, g_second: GeneratorSpec, lipschitz: float
) -> ObstacleSpec:
    """Floor obstacle for two integrable drivers up to the terminal data's rule.

    Equal to the terminal data beyond ``terminal.rule`` (frozen along each
    path) and to the plain solution with the floor driver before it; both
    plain solutions dominate it, so reflecting against it adds no push.
    """
    aux = [level.y for level in _sweep(floor_driver(g_first, g_second, lipschitz), terminal)]
    return ObstacleSpec(AdaptedProcess(terminal.tree, aux[::-1]))


# ---------------------------------------------------------------------------
# Boundary examples for the converse theorems

class IncomparableDriverReport(NamedTuple):
    """Ordered reflected values from drivers that are not pointwise ordered;
    ``low_above_high`` and ``high_above_low`` are the largest one-sided driver
    gaps over the sampled times."""

    root_low: float
    root_high: float
    ordering_holds: bool
    low_above_high: float
    high_above_low: float

    @property
    def incomparable(self) -> bool:
        return self.low_above_high > EXACT_TOL and self.high_above_low > EXACT_TOL


def ramp_plateau_driver(horizon: float) -> GeneratorSpec:
    """Time-only driver: ramps to T/2 over the first half, then holds."""
    half = horizon / 2.0
    return GeneratorSpec(PiecewiseTime((TimeVar(), Const(half)), (half,)))


def plateau_ramp_driver(horizon: float) -> GeneratorSpec:
    """Time-only driver: holds T/2 over the first half, then ramps to zero."""
    half = horizon / 2.0
    expr = PiecewiseTime(
        (Const(half), Add((Const(horizon), Scale(-1.0, TimeVar())))), (half,)
    )
    return GeneratorSpec(expr)


def incomparable_driver_probe(
    terminal: TerminalCondition, obstacle: ObstacleSpec
) -> IncomparableDriverReport:
    """Reflected values stay ordered for the ramp/plateau driver pair even
    though neither driver dominates the other pointwise.

    Time integrals of both drivers agree at the root, and the one-sided
    Riemann sum orders the lattice values, so the root ordering holds with a
    strict margin of order dt.
    """
    horizon = terminal.tree.grid.horizon
    g_low = ramp_plateau_driver(horizon)
    g_high = plateau_ramp_driver(horizon)
    root_low = reflected_value(g_low, terminal, obstacle)
    root_high = reflected_value(g_high, terminal, obstacle)

    origin = SampleSpec(horizon, 41, 0.0, 0.0, 1, 0.0, 0.0, 1)  # 41 times at y = z = 0
    gap = origin.values(g_low) - origin.values(g_high)
    return IncomparableDriverReport(
        root_low=root_low,
        root_high=root_high,
        ordering_holds=root_low <= root_high + EXACT_TOL,
        low_above_high=float(np.max(gap)),
        high_above_low=float(np.max(-gap)),
    )


def masked_driver(slope: float, threshold: float) -> GeneratorSpec:
    """Driver ``min(slope * (y - threshold)^-, |z|)``.

    Vanishes once the value stays at or above the threshold, which is what
    an obstacle at the threshold forces; its bounds are ``(|slope|, 1)``.
    """
    expr = Min(
        Scale(slope, NegPart(Add((YVar(), Const(-threshold))))),
        Abs(ZVar()),
    )
    return GeneratorSpec(expr)


class MaskedDriverReport(NamedTuple):
    """Equality of reflected solutions for drivers masked by the obstacle;
    ``disagreement_cells`` counts the sampled ``(t, z)`` cells where the
    drivers differ below the cut."""

    max_value_gap: float
    equal_above_threshold_gap: float
    disagreement_cells: int

    @property
    def values_agree(self) -> bool:
        return self.max_value_gap <= EXACT_TOL

    @property
    def drivers_disagree_below(self) -> bool:
        return self.disagreement_cells > 0


def masked_driver_probe(
    slope_low_cut: float,
    cut_low: float,
    slope_high_cut: float,
    cut_high: float,
    terminal_family: TerminalCondition,
) -> MaskedDriverReport:
    """With the obstacle pinned at the higher cut, both masked drivers
    vanish along their solutions, so every reflected solution pair agrees at
    every node even though the drivers differ below the cut.

    ``terminal_family`` is one terminal condition whose leading axis runs
    over the family's members; each driver solves it in one batch.
    """
    if not (cut_low < cut_high):
        raise ValueError("the first cut must sit strictly below the second")
    if not (slope_low_cut > slope_high_cut > 0.0):
        raise ValueError("slopes must be positive and strictly ordered")
    g_low_cut = masked_driver(slope_low_cut, cut_low)
    g_high_cut = masked_driver(slope_high_cut, cut_high)
    tree = terminal_family.tree
    obstacle = ObstacleSpec(AdaptedProcess.constant(tree, cut_high), bound=cut_high)

    sweeps = (_sweep(g, terminal_family, obstacle.process) for g in (g_low_cut, g_high_cut))
    worst = _nonnegative(np.max(_one_sided_gaps(*sweeps)))

    def driver_gap(sample: SampleSpec) -> np.ndarray:
        return np.abs(sample.values(g_low_cut) - sample.values(g_high_cut))

    above = SampleSpec(tree.grid.horizon, 5, cut_high, cut_high + 4.0, 9, -3.0, 3.0, 9)
    below = above._replace(y_low=cut_high - 3.0, y_high=cut_high - 1e-3)
    # per (t, z), the largest driver gap over the values below the cut
    below_gap = np.max(driver_gap(below), axis=1)
    return MaskedDriverReport(
        max_value_gap=worst,
        equal_above_threshold_gap=float(np.max(driver_gap(above))),
        disagreement_cells=int(np.count_nonzero(below_gap > EXACT_TOL)),
    )


# ---------------------------------------------------------------------------
# Converse probe: solution order against driver order

class ConverseProbeReport(NamedTuple):
    """Verdicts for solution ordering (A) and driver ordering (B).

    The falsification flag is raised only when the solution ordering holds
    across the whole family while the sampled driver ordering fails by more
    than the discretisation allowance; at lattice scale that combination
    indicates a solver defect, not new mathematics.
    """

    value_ordering_holds: bool
    max_value_violation: float
    driver_ordering_holds: bool
    max_driver_gap: float
    allowance: float
    falsification_flag: bool


def converse_probe(
    g_upper: GeneratorSpec, g_lower: GeneratorSpec, obstacle: ObstacleSpec
) -> ConverseProbeReport:
    """Check that ordered conditional reflected values imply ordered drivers.

    The terminal family, one batch above the obstacle's bound, is swept at
    the root, mid-walk and horizon rules.  Verdict A holds when the first
    driver's conditional values dominate the second's for every family
    member and every ordered rule pair.  Verdict B holds when the first
    driver dominates the second on the sample region, values above the
    obstacle bound; a NaN gap anywhere there fails it.
    """
    if obstacle.bound is None:
        raise ValueError("default probe family needs an obstacle bound")
    tree, bound = obstacle.tree, obstacle.bound
    mid = StoppingRule(
        tree, [np.abs(tree.brownian_level(i)) >= 1.0 for i in range(tree.steps + 1)]
    )
    rules = (StoppingRule.root(tree), mid, StoppingRule.terminal(tree))
    # constants from the bound up, then the bound plus |b| and plus each
    # one-sided part of the walk b, so coefficient-sensitive drivers cannot
    # slip through with one-sided data
    constants = np.arange(bound, bound + 3.0 + 1e-9, 0.5)[:, None]
    levels = []
    for i in range(tree.steps + 1):
        b = tree.brownian_level(i)
        lifts = bound + np.stack([np.abs(b), np.maximum(b, 0.0), np.maximum(-b, 0.0)])
        rows = np.broadcast_to(constants, (len(constants), b.size))
        levels.append(np.concatenate([rows, lifts]))

    value_violation = 0.0
    for sigma in rules:
        terminal = TerminalCondition(tree, sigma, levels)
        taus = [tau for tau in rules if tau.precedes(sigma)]
        # one root-only sweep of the family per driver, gathering y wherever one of the taus stops
        upper, lower = (
            _stop_node_values(_sweep(generator, terminal, obstacle.process), *taus)
            for generator in (g_upper, g_lower)
        )
        for key, hi in upper.items():
            value_violation = max(value_violation, float(np.max(lower[key] - hi)))

    sample = SampleSpec(
        tree.grid.horizon, t_count=11, y_low=bound, y_high=bound + 5.0, y_count=11, z_count=11
    )
    gaps = sample.values(g_lower) - sample.values(g_upper)
    # +0 first, so an all-negative sample reads +0; np.max keeps a NaN
    driver_gap = float(np.maximum(0.0, np.max(gaps)))

    allowance = 10.0 * tree.grid.dt * float(max(map(np.max, g_upper.lipschitz + g_lower.lipschitz)))
    a_holds = value_violation <= COMPARISON_TOL
    b_holds = driver_gap <= COMPARISON_TOL
    return ConverseProbeReport(
        value_ordering_holds=a_holds,
        max_value_violation=value_violation,
        driver_ordering_holds=b_holds,
        max_driver_gap=driver_gap,
        allowance=allowance,
        falsification_flag=a_holds and not b_holds and driver_gap > allowance,
    )
