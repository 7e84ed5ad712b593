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
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .bsde import TerminalCondition, _stop_node_values, solve_bsde
from .errors import (
    NoStrictGap,
    RuleOrderViolated,
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
from .rbsde import (
    ObstacleSpec,
    RbsdeSolution,
    _reflected_solution,
    reflected_value,
    solve_rbsde,
)

COMPARISON_TOL = 1e-10  # solution orderings: values, pushes, conditional values, drivers
EQUALITY_TOL = 1e-9  # two solutions count as equal at a node (strict witness)
EXACT_TOL = 1e-12  # orderings that hold exactly on the lattice, up to rounding


@dataclass(frozen=True, eq=False)
class RbsdeProblem:
    """One reflected data set: driver, terminal condition, obstacle.

    Data with leading batch axes, and a driver with coefficient columns,
    make a batch of problems; the comparison checks take such a batch.
    """

    generator: GeneratorSpec
    terminal: TerminalCondition
    obstacle: ObstacleSpec

    @property
    def tree(self) -> ScenarioTree:
        return self.terminal.tree


# ---------------------------------------------------------------------------
# Comparison of values and reflection pushes under ordered data

def _running_max(values: Iterable) -> np.ndarray:
    """Per member, what Python's ``max`` gives: the first value no later one exceeds."""
    values = iter(values)
    worst = np.asarray(next(values))
    for value in values:
        worst = np.where(value > worst, value, worst)
    return worst


def _nonnegative(values):
    """Per member, Python's ``max(value, 0.0)``."""
    return _per_member(_running_max((values, 0.0)))


@dataclass(frozen=True)
class OrderingCertificate:
    """How each input ordering was verified, with its worst violation."""

    terminal_gap: float | np.ndarray
    obstacle_gap: float | np.ndarray
    driver_gap_on_solutions: float | np.ndarray
    driver_gap_on_grid: float | np.ndarray

    @property
    def established(self) -> bool | np.ndarray:
        ok = True
        for gap in vars(self).values():
            ok = ok & (np.asarray(gap) <= EXACT_TOL)
        return _per_member(ok)


@dataclass(frozen=True)
class ComparisonReport:
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
        if is_dataclass(value):
            return _member(value, k)
        if isinstance(value, np.ndarray):
            return (value[k] if value.ndim else value).item()
        return value

    return replace(report, **{f.name: pick(getattr(report, f.name)) for f in fields(report)})


def _max_level_gap(a: AdaptedProcess, b: AdaptedProcess) -> float | np.ndarray:
    """Largest ``a - b`` over every node of every level, one entry per member."""
    gaps = (np.max(a.level(i) - b.level(i), axis=-1) for i in range(a.tree.steps + 1))
    return _per_member(_running_max(gaps))


def _driver_gap_on_solution(
    g_low: GeneratorSpec, g_high: GeneratorSpec, sol: RbsdeSolution
) -> np.ndarray:
    """Largest ``g_low - g_high`` along the solution, and at least 0, per member."""
    tree = sol.y.tree
    gaps = [0.0]
    for i in range(tree.steps + 1):
        t = tree.grid.time(i)
        y, z = sol.y.level(i), sol.z.level(i)
        low = np.asarray(g_low.evaluate(t, y, z, level=i, tree=tree), dtype=float)
        high = np.asarray(g_high.evaluate(t, y, z, level=i, tree=tree), dtype=float)
        gaps.append(np.max(np.broadcast_to(low - high, y.shape), axis=-1))
    return _running_max(gaps)


def check_comparison(low: RbsdeProblem, high: RbsdeProblem) -> ComparisonReport:
    """Solve both problems and measure the ordering of their values.

    The input orderings (terminal, driver, obstacle) are certified by
    sampling; when any of them fails the report is produced anyway but
    marked vacuous.  Drivers are also sampled off the tree, so a
    rule-gated driver raises :class:`ExpressionError`.  Batched problems
    are checked member by member in one pair of solves.
    """
    return _compare_values(low, high, *_solve_pair(low, high))


def _solve_pair(low: RbsdeProblem, high: RbsdeProblem) -> tuple[RbsdeSolution, RbsdeSolution]:
    if low.tree != high.tree:
        raise TreeMismatch("comparison needs a common tree")
    return (
        _reflected_solution(low.tree, low.generator, low.terminal, low.obstacle),
        _reflected_solution(high.tree, high.generator, high.terminal, high.obstacle),
    )


def _require_shared_obstacle(low: RbsdeProblem, high: RbsdeProblem, what: str) -> None:
    """Raise unless both problems live on one tree and share their obstacle values."""
    if low.tree != high.tree:
        raise TreeMismatch(f"{what} needs a common tree")
    if not all(map(np.array_equal, low.obstacle.process.levels(), high.obstacle.process.levels())):
        raise ValueError(f"{what} needs a common obstacle")


def _compare_values(
    low: RbsdeProblem,
    high: RbsdeProblem,
    sol_low: RbsdeSolution,
    sol_high: RbsdeSolution,
) -> ComparisonReport:
    """Certify the input orderings and measure the value ordering of two solutions."""
    # The leaf extension is constant along post-stop paths, so ordering at
    # the last level is ordering of the terminal data themselves.
    last = low.tree.steps
    xi_gap = np.max(low.terminal.extended[last] - high.terminal.extended[last], axis=-1)
    s_gap = _max_level_gap(low.obstacle.process, high.obstacle.process)
    g_sol_gap = _running_max(
        _driver_gap_on_solution(low.generator, high.generator, sol)
        for sol in (sol_low, sol_high)
    )
    sample = SampleSpec(low.tree.grid.horizon, t_count=11, y_count=11, z_count=11)
    g_grid_gap = np.max(
        sample.values(low.generator) - sample.values(high.generator), axis=(-3, -2, -1)
    )
    certificate = OrderingCertificate(
        terminal_gap=_nonnegative(xi_gap),
        obstacle_gap=_nonnegative(s_gap),
        driver_gap_on_solutions=_nonnegative(g_sol_gap),
        driver_gap_on_grid=_nonnegative(g_grid_gap),
    )

    return ComparisonReport(
        certificate=certificate,
        max_value_violation=_nonnegative(_max_level_gap(sol_low.y, sol_high.y)),
        max_push_violation=None,
        push_difference_monotone=None,
        vacuous=_per_member(np.logical_not(certificate.established)),
    )


def check_k_comparison(low: RbsdeProblem, high: RbsdeProblem) -> ComparisonReport:
    """Comparison of reflection pushes for a shared obstacle.

    Under ordered terminals and drivers the lower data pushes harder:
    cumulative pushes dominate nodewise and their difference grows along
    every path.  The per-node increments certify path monotonicity, since a
    path difference is the running sum of increment differences.
    """
    _require_shared_obstacle(low, high, "push comparison")
    sol_low, sol_high = _solve_pair(low, high)
    base = _compare_values(low, high, sol_low, sol_high)
    if sol_low.k is None or sol_high.k is None:
        raise UnsupportedTreeMode("cumulative pushes are not representable on this tree")
    increment_drop = _max_level_gap(sol_high.k_increments, sol_low.k_increments)
    return ComparisonReport(
        certificate=base.certificate,
        max_value_violation=base.max_value_violation,
        max_push_violation=_nonnegative(_max_level_gap(sol_high.k, sol_low.k)),
        push_difference_monotone=_per_member(np.asarray(increment_drop) <= COMPARISON_TOL),
        vacuous=base.vacuous,
    )


# ---------------------------------------------------------------------------
# Local strict separation witness

@dataclass(frozen=True, eq=False)
class StrictWitness:
    """Stopping rule before the horizon separating the two solutions.

    ``iterates`` holds, per terminal path (row), the iterated equality-search
    levels, padded with the horizon once the path reaches it; ``k_index`` is
    the first iterate that reaches the horizon with positive probability;
    ``stop_levels`` are the per-path levels of the returned rule;
    ``probability`` is the exact probability that the lower solution stays
    strictly below the higher one from the rule onward.
    """

    rule: StoppingRule
    probability: float
    iterates: np.ndarray
    k_index: int
    stop_levels: np.ndarray


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

    sol_low = solve_rbsde(tree, low.generator, low.terminal, low.obstacle)
    sol_high = solve_rbsde(tree, high.generator, high.terminal, high.obstacle)
    strict = [sol_high.y.level(i) - sol_low.y.level(i) > EQUALITY_TOL for i in range(n + 1)]
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


@dataclass(frozen=True)
class ClosedFormSolution:
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


def _closed_form_data(tree: ScenarioTree, driver, terminal) -> RbsdeProblem:
    """Constant driver and terminal value (numbers or columns) over the obstacle ``1 - 2t``."""
    if not math.isclose(tree.grid.horizon, 1.0):
        raise ValueError("counterexample data lives on the unit horizon")
    obstacle = ObstacleSpec(AdaptedProcess.from_time_function(tree, lambda t: 1.0 - 2.0 * t))
    return RbsdeProblem(
        GeneratorSpec(Const(driver), 0.0), TerminalCondition.constant(tree, terminal), obstacle
    )


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
    expr = Add((Scale(-lipschitz, Abs(YVar())), Scale(-lipschitz, Abs(ZVar()))))
    return GeneratorSpec(expr, lipschitz)


def build_dominating_obstacle(
    tree: ScenarioTree, terminal: TerminalCondition, lipschitz: float
) -> ObstacleSpec:
    """Obstacle dominated by every plain solution with an L-bounded driver
    that vanishes at zero coefficient, for the same terminal data.

    Built as the plain solution with driver ``-L|y| - L|z|``.  Reflecting
    any such driver against it leaves the push identically zero, which is
    what reduces reflected comparisons to plain ones.
    """
    aux = solve_bsde(tree, dominating_driver(lipschitz), terminal)
    return ObstacleSpec(aux.y)


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
    return GeneratorSpec(expr, lipschitz)


def build_floor_obstacle(
    tree: ScenarioTree,
    terminal: TerminalCondition,
    rule: StoppingRule,
    g_first: GeneratorSpec,
    g_second: GeneratorSpec,
    lipschitz: float,
) -> ObstacleSpec:
    """Floor obstacle for two integrable drivers up to a stopping rule.

    Equal to the terminal data beyond the rule (frozen along each path) and
    to the plain solution with the floor driver before it; both plain
    solutions dominate it, so reflecting against it adds no push.
    """
    if terminal.rule is not rule and not (
        terminal.rule.precedes(rule) and rule.precedes(terminal.rule)
    ):
        raise RuleOrderViolated("terminal data must be measurable at the freezing rule")
    aux = solve_bsde(tree, floor_driver(g_first, g_second, lipschitz), terminal)
    return ObstacleSpec(aux.y)


# ---------------------------------------------------------------------------
# Boundary examples for the converse theorems

@dataclass(frozen=True)
class DriverOrderingSite:
    t: float
    y: float
    z: float
    gap: float


@dataclass(frozen=True)
class IncomparableDriverReport:
    """Ordered reflected values from drivers that are not pointwise ordered."""

    root_low: float
    root_high: float
    ordering_holds: bool
    sites_low_above_high: tuple[DriverOrderingSite, ...]
    sites_high_above_low: tuple[DriverOrderingSite, ...]

    @property
    def incomparable(self) -> bool:
        return bool(self.sites_low_above_high) and bool(self.sites_high_above_low)


def ramp_plateau_driver(horizon: float) -> GeneratorSpec:
    """Time-only driver: ramps to T/2 over the first half, then holds."""
    half = horizon / 2.0
    return GeneratorSpec(PiecewiseTime((TimeVar(), Const(half)), (half,)), 0.0)


def plateau_ramp_driver(horizon: float) -> GeneratorSpec:
    """Time-only driver: holds T/2 over the first half, then ramps to zero."""
    half = horizon / 2.0
    expr = PiecewiseTime(
        (Const(half), Add((Const(horizon), Scale(-1.0, TimeVar())))), (half,)
    )
    return GeneratorSpec(expr, 0.0)


def incomparable_driver_probe(
    tree: ScenarioTree,
    terminal: TerminalCondition,
    obstacle: ObstacleSpec,
) -> IncomparableDriverReport:
    """Reflected values stay ordered for the ramp/plateau driver pair even
    though neither driver dominates the other pointwise.

    Time integrals of both drivers agree at the root, and the one-sided
    Riemann sum orders the lattice values, so the root ordering holds with a
    strict margin of order dt.
    """
    g_low = ramp_plateau_driver(tree.grid.horizon)
    g_high = plateau_ramp_driver(tree.grid.horizon)
    root_low = reflected_value(tree, g_low, terminal, obstacle)
    root_high = reflected_value(tree, g_high, terminal, obstacle)

    origin = SampleSpec(tree.grid.horizon, 41, 0.0, 0.0, 1, 0.0, 0.0, 1)  # 41 times at y = z = 0
    lows, highs = origin.values(g_low).ravel().tolist(), origin.values(g_high).ravel().tolist()
    sites_low: list[DriverOrderingSite] = []
    sites_high: list[DriverOrderingSite] = []
    for t, lo, hi in zip(origin.t_points().tolist(), lows, highs):
        if lo > hi + EXACT_TOL:
            sites_low.append(DriverOrderingSite(t, 0.0, 0.0, lo - hi))
        elif hi > lo + EXACT_TOL:
            sites_high.append(DriverOrderingSite(t, 0.0, 0.0, hi - lo))
    return IncomparableDriverReport(
        root_low=root_low,
        root_high=root_high,
        ordering_holds=root_low <= root_high + EXACT_TOL,
        sites_low_above_high=tuple(sites_low),
        sites_high_above_low=tuple(sites_high),
    )


def masked_driver(slope: float, threshold: float) -> GeneratorSpec:
    """Driver ``min(slope * (y - threshold)^-, |z|)``.

    Vanishes once the value stays at or above the threshold, which is what
    an obstacle at the threshold forces; the declared constant is
    ``max(slope, 1)``.
    """
    expr = Min(
        Scale(slope, NegPart(Add((YVar(), Const(-threshold))))),
        Abs(ZVar()),
    )
    return GeneratorSpec(expr, max(slope, 1.0))


@dataclass(frozen=True)
class MaskedDriverReport:
    """Equality of reflected solutions for drivers masked by the obstacle."""

    max_value_gap: float
    equal_above_threshold_gap: float
    disagreement_sites: tuple[DriverOrderingSite, ...]

    @property
    def values_agree(self) -> bool:
        return self.max_value_gap <= EXACT_TOL

    @property
    def drivers_disagree_below(self) -> bool:
        return bool(self.disagreement_sites)


def masked_driver_probe(
    tree: ScenarioTree,
    slope_low_cut: float,
    cut_low: float,
    slope_high_cut: float,
    cut_high: float,
    terminal_family: Sequence[TerminalCondition],
) -> MaskedDriverReport:
    """With the obstacle pinned at the higher cut, both masked drivers
    vanish along their solutions, so every reflected solution pair agrees at
    every node even though the drivers differ below the cut.
    """
    if not (cut_low < cut_high):
        raise ValueError("the first cut must sit strictly below the second")
    if not (slope_low_cut > slope_high_cut > 0.0):
        raise ValueError("slopes must be positive and strictly ordered")
    g_low_cut = masked_driver(slope_low_cut, cut_low)
    g_high_cut = masked_driver(slope_high_cut, cut_high)
    obstacle = ObstacleSpec(AdaptedProcess.constant(tree, cut_high), bound=cut_high)

    worst = 0.0
    for terminal in terminal_family:
        sol_a = solve_rbsde(tree, g_low_cut, terminal, obstacle)
        sol_b = solve_rbsde(tree, g_high_cut, terminal, obstacle)
        worst = max(worst, _max_level_gap(sol_a.y, sol_b.y), _max_level_gap(sol_b.y, sol_a.y))

    def driver_gap(sample: SampleSpec) -> np.ndarray:
        return np.abs(sample.values(g_low_cut) - sample.values(g_high_cut))

    above = SampleSpec(tree.grid.horizon, 5, cut_high, cut_high + 4.0, 9, -3.0, 3.0, 9)
    below = replace(above, y_low=cut_high - 3.0, y_high=cut_high - 1e-3)
    # per (t, z), the value below the cut where the drivers differ most
    below_gap = driver_gap(below)
    worst_y = np.argmax(below_gap, axis=1)
    ts, ys, zs = below.t_points(), below.y_points(), below.z_points()
    sites = [
        DriverOrderingSite(float(ts[i]), float(ys[worst_y[i, k]]), float(zs[k]), float(gap))
        for (i, k), gap in np.ndenumerate(np.max(below_gap, axis=1))
        if gap > EXACT_TOL
    ]
    return MaskedDriverReport(
        max_value_gap=worst,
        equal_above_threshold_gap=float(np.max(driver_gap(above))),
        disagreement_sites=tuple(sites),
    )


# ---------------------------------------------------------------------------
# Converse probe: solution order against driver order

@dataclass(frozen=True, eq=False)
class ProbeFamily:
    """Stopping rules, terminal builders, and the driver sample box."""

    rules: tuple[StoppingRule, ...]
    terminal_builders: tuple[Callable[[StoppingRule], TerminalCondition], ...]
    sample: SampleSpec

    @classmethod
    def default(cls, tree: ScenarioTree, bound: float) -> ProbeFamily:
        """Constants above the bound plus walk lifts, at root / mid / horizon rules."""
        mid = StoppingRule(
            tree,
            [np.abs(tree.brownian_level(i)) >= 1.0 for i in range(tree.steps + 1)],
        )
        rules = (StoppingRule.root(tree), mid, StoppingRule.terminal(tree))
        builders: list[Callable[[StoppingRule], TerminalCondition]] = []
        for c in np.arange(bound, bound + 3.0 + 1e-9, 0.5):
            builders.append(
                lambda rule, c=float(c): TerminalCondition.constant(tree, c, rule=rule)
            )
        builders.append(
            lambda rule: TerminalCondition.at_rule(
                tree, rule, lambda i, b: bound + np.abs(b)
            )
        )
        # one lift favouring each walk direction, so coefficient-sensitive
        # drivers cannot slip through with one-sided data
        builders.append(
            lambda rule: TerminalCondition.at_rule(
                tree, rule, lambda i, b: bound + np.maximum(b, 0.0)
            )
        )
        builders.append(
            lambda rule: TerminalCondition.at_rule(
                tree, rule, lambda i, b: bound + np.maximum(-b, 0.0)
            )
        )
        sample = SampleSpec(
            tree.grid.horizon, t_count=11, y_low=bound, y_high=bound + 5.0, y_count=11, z_count=11
        )
        return cls(rules=rules, terminal_builders=tuple(builders), sample=sample)


@dataclass(frozen=True)
class ConverseProbeReport:
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
    violation_sites: tuple[DriverOrderingSite, ...]
    allowance: float
    falsification_flag: bool


def converse_probe(
    tree: ScenarioTree,
    g_upper: GeneratorSpec,
    g_lower: GeneratorSpec,
    obstacle: ObstacleSpec,
) -> ConverseProbeReport:
    """Check that ordered conditional reflected values imply ordered drivers.

    The data are ``ProbeFamily.default`` at the obstacle's bound.  Verdict A
    holds when the first driver's conditional values dominate the second's
    for every family member and every ordered rule pair.  Verdict B holds
    when the first driver dominates the second on the sample region: values
    above the obstacle bound, or every value when both drivers ignore the
    value variable.
    """
    if obstacle.bound is None:
        raise ValueError("default probe family needs an obstacle bound")
    family = ProbeFamily.default(tree, obstacle.bound)

    value_violation = 0.0
    for builder in family.terminal_builders:
        for sigma in family.rules:
            terminal = builder(sigma)
            taus = [tau for tau in family.rules if tau.precedes(sigma)]
            # one root-only sweep per driver, gathering y wherever one of the taus stops
            gathered = []
            for generator in (g_upper, g_lower):
                observe, picked = _stop_node_values(*taus)
                reflected_value(tree, generator, terminal, obstacle, observe=observe)
                gathered.append(picked)
            upper, lower = gathered
            for key, hi in upper.items():
                value_violation = max(value_violation, lower[key] - hi)

    sample = family.sample
    if g_upper.is_y_free and g_lower.is_y_free:
        sample = replace(sample, y_low=-5.0, y_high=5.0)
    gaps = sample.values(g_lower) - sample.values(g_upper)
    ys, zs = sample.y_points(), sample.z_points()
    # a site per sample time that raises the running largest gap
    driver_gap = 0.0
    sites: list[DriverOrderingSite] = []
    for t, gap in zip(sample.t_points(), gaps):
        j, k = np.unravel_index(int(np.argmax(gap)), gap.shape)
        if float(gap[j, k]) > driver_gap:
            driver_gap = float(gap[j, k])
            if driver_gap > COMPARISON_TOL:
                sites.append(DriverOrderingSite(float(t), float(ys[j]), float(zs[k]), driver_gap))

    allowance = 10.0 * tree.grid.dt * max(g_upper.lipschitz, g_lower.lipschitz)
    a_holds = value_violation <= COMPARISON_TOL
    b_holds = driver_gap <= COMPARISON_TOL
    return ConverseProbeReport(
        value_ordering_holds=a_holds,
        max_value_violation=value_violation,
        driver_ordering_holds=b_holds,
        max_driver_gap=driver_gap,
        violation_sites=tuple(sites),
        allowance=allowance,
        falsification_flag=a_holds and not b_holds and driver_gap > allowance,
    )
