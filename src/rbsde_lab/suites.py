"""Seeded verification suites shared by the CLI and the acceptance tests.

Each suite runs a batch of instances, measures worst-case violations of one
statement, and returns :class:`CheckResult` rows.  Instances are enumerated
deterministically from ``(seed, index)`` so reruns are byte-identical.

Every row is built by :func:`_check`: it passes when its verdict holds and
its violation is within its tolerance.  Verdicts come from the theorem
reports that compute them; tolerances are the ``theorems`` constants
``COMPARISON_TOL`` and ``EXACT_TOL`` or this module's ``CLOSED_FORM_TOL``.
"""

from __future__ import annotations

import inspect
import math
import random
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bsde import TerminalCondition, _sweep
from .generators import (
    Abs,
    Add,
    Const,
    GeneratorSpec,
    Min,
    NegPart,
    Scale,
    YVar,
    ZVar,
    restrict_generator,
)
from .lattice import (
    DEFAULT_CONTACT_TOL,
    AdaptedProcess,
    ScenarioTree,
    StoppingRule,
    TimeGrid,
    TreeMode,
    _per_member,
    build_tree,
    freeze_after,
)
from .market import (
    MarketModel,
    PayoffKind,
    _stock_levels,
    price_american_riskneutral_dp,
    price_european_dp,
    quote_strike_family,
    recover_theta,
)
from .rbsde import (
    ObstacleSpec,
    _path_maximum,
    enumerate_stopping_oracle,
    reflected_value,
    snell_oracle,
    solve_rbsde,  # ROADMAP item 1: test_install_rebinds_every_copy_and_uninstall_restores_all
)
from .theorems import (
    COMPARISON_TOL,
    EXACT_TOL,
    ClosedFormCase,
    ComparisonReport,
    RbsdeProblem,
    build_dominating_obstacle,
    build_floor_obstacle,
    check_comparison,
    check_k_comparison,
    closed_form_example,
    converse_probe,
    counterexample_batch,
    counterexample_problem,
    dominating_driver,
    incomparable_driver_probe,
    local_strict_witness,
    masked_driver,
    masked_driver_probe,
    _one_sided_gaps,
)


class CheckResult(NamedTuple):
    """One named measurement with its pass verdict."""

    name: str
    passed: bool
    max_violation: float
    tolerance: float
    details: dict = {}  # shared by the rows built without details; rows are never written


# distance of a closed-form check's lattice solution from its continuous
# closed form: values, pushes, plateaus and the dominating-obstacle profile
CLOSED_FORM_TOL = 2e-3

# instances a comparison suite checks in one batch.  The two sweeps of a batch
# are reduced level by level, so a member holds no solution and no driver
# sample while its batch is checked.  25 rather than 10 takes `comparison` from
# 120 to 85 ms in process (medians of 15 alternated runs, 2 vCPUs, Python 3.11,
# numpy 2.4); its process peak, about 31.5 MB, moves by less than its noise
CHECK_CHUNK = 25


def _check(
    name: str, violation: float, tolerance: float, details: dict | None = None, *, holds=True
) -> CheckResult:
    """The row ``name``: passes when ``holds`` and ``violation <= tolerance``."""
    passed = bool(holds) and bool(violation <= tolerance)
    return CheckResult(name, passed, violation, tolerance, {} if details is None else details)


class _Draws:
    """The draws the suites make, from the standard library's Mersenne Twister.

    No suite process loads ``numpy.random``, which would bring in PCG64, the
    Cython runtime and OpenSSL's ``hashlib``: about 5.4 MB of RSS.  An array
    of ``n`` floats is read from one ``randbytes(8 * n)``, that is
    ``getrandbits(64 * n)``: 64-bit words in drawing order, each cut to its
    top 53 bits.  So a ``(k, m)`` draw is the stream of k draws of m.
    """

    def __init__(self, source: random.Random):
        self._random = source

    def random(self, size=None):
        """Uniform on [0, 1): a float, or an array of shape ``size``."""
        if size is None:
            return self._random.random()
        shape = size if isinstance(size, tuple) else (size,)
        words = np.frombuffer(self._random.randbytes(8 * math.prod(shape)), "<u8")
        return (words >> 11).reshape(shape) * 2.0**-53

    def uniform(self, low: float, high: float, size=None):
        """Uniform on [low, high): a float, or an array of shape ``size``."""
        return low + (high - low) * self.random(size)

    def integers(self, low: int, high: int) -> int:
        """An integer uniform on [low, high)."""
        return self._random.randrange(low, high)

    def dirichlet(self, alpha) -> np.ndarray:
        """A point of the simplex with Dirichlet(``alpha``) law."""
        gammas = np.array([self._random.gammavariate(a, 1.0) for a in alpha])
        return gammas / gammas.sum()

    def choice(self, options):
        """One of ``options``, each equally likely."""
        return self._random.choice(options)


def _rng(seed: int, index: int) -> _Draws:
    # a string seed is hashed with the interpreter's own sha512, not OpenSSL's
    return _Draws(random.Random(f"{seed}/{index}"))


# ---------------------------------------------------------------------------
# Random instance builders

def _random_affine_generator(rng, max_coeff: float = 1.0) -> GeneratorSpec:
    a = rng.uniform(-max_coeff, max_coeff)
    b = rng.uniform(-max_coeff, max_coeff)
    c = rng.uniform(-0.5, 0.5)
    return GeneratorSpec(Add((Scale(float(a), YVar()), Scale(float(b), ZVar()), Const(float(c)))))


def _ordered_generator_pair(rng) -> tuple[GeneratorSpec, GeneratorSpec]:
    low = _random_affine_generator(rng)
    gap = float(rng.uniform(0.0, 0.6))
    high = GeneratorSpec(Add((low.expr, Const(gap))))
    return low, high


def _random_vanishing_generator(rng, budget: float = 1.5) -> GeneratorSpec:
    """Driver vanishing at zero coefficient, with structural bounds <= budget."""
    n_terms = int(rng.integers(1, 4))
    shares = rng.dirichlet(np.ones(n_terms)) * budget * float(rng.uniform(0.5, 1.0))
    terms = []
    for share in shares:
        c = float(share) * float(rng.choice([-1.0, 1.0]))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            terms.append(Scale(c, ZVar()))
        elif kind == 1:
            terms.append(Scale(c, Abs(ZVar())))
        elif kind == 2:
            cut = float(rng.uniform(-1.0, 1.0))
            terms.append(
                Scale(abs(c), Min(NegPart(Add((YVar(), Const(-cut)))), Abs(ZVar())))
            )
        else:
            cap = float(rng.uniform(0.2, 2.0))
            terms.append(Scale(c, Min(Abs(ZVar()), Const(cap))))
    expr = terms[0] if len(terms) == 1 else Add(tuple(terms))
    return GeneratorSpec(expr)


def _random_obstacle_levels(rng, tree: ScenarioTree, *, slope: float = 3.0) -> list[np.ndarray]:
    """Levels of ``start - slope * t + wobble * b`` for a drawn start and wobble."""
    start = float(rng.uniform(0.0, 0.4))
    wobble = float(rng.uniform(0.0, 0.15))
    return [
        start - slope * tree.grid.time(i) + wobble * tree.brownian_level(i)
        for i in range(tree.steps + 1)
    ]


def _random_obstacle(rng, tree: ScenarioTree, *, slope: float = 3.0) -> ObstacleSpec:
    return ObstacleSpec(AdaptedProcess(tree, _random_obstacle_levels(rng, tree, slope=slope)))


def _lifted_levels(tree: ScenarioTree, levels: list[np.ndarray], rng) -> list[np.ndarray]:
    """Levels dominating ``levels`` nodewise by a deterministic lift."""
    lift0 = float(rng.uniform(0.0, 0.3))
    lift1 = float(rng.uniform(0.0, 0.3))
    return [level + lift0 + lift1 * tree.grid.time(i) for i, level in enumerate(levels)]


def _terminal_above(rng, floor: np.ndarray) -> np.ndarray:
    """Uniform leaves on [0, 1], raised to ``floor`` (the obstacle's last level)."""
    return np.maximum(rng.uniform(0.0, 1.0, size=floor.size), floor)


def _bumped(rng, leaves: np.ndarray, floor: np.ndarray | None = None) -> np.ndarray:
    mask = rng.random(leaves.shape) < 0.4
    if not mask.any():
        mask[int(rng.integers(0, leaves.size))] = True
    bump = rng.uniform(0.1, 0.5, size=leaves.shape)
    out = leaves + bump * mask
    if floor is not None:
        out = np.maximum(out, floor)
    return out


def _random_rule(rng, tree: ScenarioTree) -> StoppingRule:
    flags = [
        rng.random(tree.level_size(i)) < (0.08 if i == 0 else 0.25)
        for i in range(tree.steps + 1)
    ]
    return StoppingRule(tree, flags)


# ---------------------------------------------------------------------------
# Counterexample reproduction and convergence order

class _RootTrace(NamedTuple):
    """Per level, ``y``, ``dk`` and the obstacle ``s`` at the root node and ``max|z|``.

    Levels run along the last axis, behind the sweep's batch axes.  That is
    all the closed-form checks read, so they run root-only sweeps and never
    hold a lattice.
    """

    y: np.ndarray
    dk: np.ndarray
    s: np.ndarray
    z_max: np.ndarray

    def push(self) -> np.ndarray:
        """Cumulative push at the root node of each level, summed forward from 0."""
        start = np.zeros(self.dk.shape[:-1] + (1,))
        return np.cumsum(np.concatenate((start, self.dk[..., :-1]), axis=-1), axis=-1)


def _unit_tree(steps: int) -> ScenarioTree:
    return build_tree(TimeGrid(1.0, steps), TreeMode.RECOMBINING)


def _traced(problem: RbsdeProblem) -> tuple[_RootTrace, float | np.ndarray]:
    """Root-only sweep of closed-form data: the trace and the root value(s)."""
    for level in _sweep(problem.generator, problem.terminal, problem.obstacle.process):
        if level.i == problem.tree.steps:  # the first level fixes the batch shape
            trace = _RootTrace(*(np.empty(level.y.shape[:-1] + (level.i + 1,)) for _ in range(4)))
        # copied cells, never views: a view would keep its whole level alive
        trace.y[..., level.i] = level.y[..., 0]
        trace.dk[..., level.i] = level.dk[..., 0]
        trace.s[..., level.i] = level.s[..., 0]
        trace.z_max[..., level.i] = np.max(np.abs(level.z), axis=-1)
    return trace, _per_member(level.y[..., 0])


def _case_errors(
    case: ClosedFormCase, tree: ScenarioTree, y_num, k_num, z_max, barrier
) -> dict:
    """Errors of one case's root-node trace against its closed form."""
    form = closed_form_example(case)
    times = tree.grid.times()
    y_closed = form.value(times)
    k_closed = form.push(times)
    contact_levels = np.nonzero(y_num <= barrier + DEFAULT_CONTACT_TOL)[0]
    detected = tree.grid.time(int(contact_levels.max()))
    return {
        "y_error": float(np.max(np.abs(y_num - y_closed))),
        "k_error": float(np.max(np.abs(k_num - k_closed))),
        "z_max": float(np.max(z_max)),
        "contact_detected": detected,
        "contact_expected": form.contact_time,
        "contact_gap": abs(detected - form.contact_time),
        "k_plateau": float(k_num[-1]),
        "k_plateau_expected": form.push_plateau,
        "dt": tree.grid.dt,
    }


def counterexample_suite(steps: int = 2000) -> list[CheckResult]:
    """Reproduce the four closed forms and the equal-at-origin failure.

    The four cases run as one batched root-only sweep over their shared
    obstacle.
    """
    tree = _unit_tree(steps)
    cases = list(ClosedFormCase)
    problem = counterexample_batch(tree, cases)
    trace, root_values = _traced(problem)
    pushes = trace.push()
    results = []
    roots = dict(zip(cases, root_values.tolist()))
    for k, case in enumerate(cases):
        err = _case_errors(case, tree, trace.y[k], pushes[k], trace.z_max[k], trace.s[k])
        name = f"counterexample/{case.value}"
        contact = {"detected": err["contact_detected"], "expected": err["contact_expected"]}
        gap, dt = err["contact_gap"], err["dt"]
        plateau_gap = abs(err["k_plateau"] - err["k_plateau_expected"])
        results += [
            _check(f"{name}/values", max(err["y_error"], err["k_error"]), CLOSED_FORM_TOL, err),
            # explicit verdict: passes within dt + EXACT_TOL but reports dt, which the rule cannot
            CheckResult(f"{name}/contact", bool(gap <= dt + EXACT_TOL), gap, dt, contact),
            _check(f"{name}/plateau", plateau_gap, CLOSED_FORM_TOL),
        ]
    low = roots[ClosedFormCase.CONST_DRIVER_LOW_TERMINAL]
    high = roots[ClosedFormCase.CONST_DRIVER_HIGH_TERMINAL]
    return results + [
        _check(
            "counterexample/strict-comparison-fails-at-root", abs(low - high), EXACT_TOL,
            {"root_low": low, "root_high": high}, holds=low == 1.0,
        )
    ]


def _embedded_errors(steps: int) -> tuple[float, float]:
    """Embedded and grid-time errors of the low-terminal case at ``steps``."""
    case = ClosedFormCase.CONST_DRIVER_LOW_TERMINAL
    form = closed_form_example(case)
    tree = _unit_tree(steps)
    trace, _ = _traced(counterexample_problem(tree, case))
    times = tree.grid.times()
    y_num, k_num = trace.y, trace.push()
    at_grid = max(
        float(np.max(np.abs(y_num - form.value(times)))),
        float(np.max(np.abs(k_num - form.push(times)))),
    )
    # sup over [t_i, t_{i+1}) of |embedded - closed| attained at interval
    # ends because the closed form is piecewise linear
    left_y = np.abs(y_num[:-1] - form.value(times[:-1]))
    right_y = np.abs(y_num[:-1] - form.value(times[1:]))
    left_k = np.abs(k_num[:-1] - form.push(times[:-1]))
    right_k = np.abs(k_num[:-1] - form.push(times[1:]))
    embedded = float(max(left_y.max(), right_y.max(), left_k.max(), right_k.max()))
    return embedded, at_grid


def convergence_suite(steps_list: Sequence[int] = (250, 500, 1000, 2000)) -> list[CheckResult]:
    """First-order convergence of the time-embedded solution.

    The scheme reproduces the piecewise-linear closed forms exactly at grid
    times, so the grid-restricted error carries no dt component; the
    convergence measurement therefore uses the sup-norm distance between
    the piecewise-constant embedding of the numerical solution and the
    continuous closed form over the whole horizon, which halves with the
    step.  Grid exactness is asserted separately.
    """
    errors = {}
    grid_exact = 0.0
    for steps in steps_list:
        errors[steps], at_grid = _embedded_errors(steps)
        grid_exact = max(grid_exact, at_grid)
    ratios = {
        f"{coarse}->{fine}": errors[coarse] / errors[fine]
        for coarse, fine in zip(steps_list[:-1], steps_list[1:])
    }
    return [
        # explicit verdict: the band [1.7, 2.3] as written; |r - 2| <= 0.3 differs at its edges
        CheckResult(
            "convergence/embedded-error-halves",
            all(1.7 <= r <= 2.3 for r in ratios.values()),
            max(abs(r - 2.0) for r in ratios.values()),
            0.3,
            {"errors": errors, "ratios": ratios},
        ),
        _check("convergence/grid-values-exact", grid_exact, COMPARISON_TOL),
    ]


# ---------------------------------------------------------------------------
# Comparison suites

def _comparison_row(name: str, reports: list[ComparisonReport], **details) -> CheckResult:
    """Worst value (and push) violation, vacuous count and every report's verdict."""
    violations = [r.max_value_violation for r in reports] + [
        r.max_push_violation for r in reports if r.max_push_violation is not None
    ]
    return _check(
        name,
        max(violations),
        COMPARISON_TOL,
        {"instances": len(reports), "vacuous": sum(r.vacuous for r in reports), **details},
        holds=all(r.passed for r in reports),
    )


# one side of a comparison instance: driver, obstacle levels and terminal leaves
_Side = tuple[GeneratorSpec, list[np.ndarray], np.ndarray]


def _batched(tree: ScenarioTree, sides: Sequence[_Side]) -> RbsdeProblem:
    """One problem whose batch axis runs over the instances' sides."""
    generators, obstacles, leaves = zip(*sides)
    return RbsdeProblem(
        GeneratorSpec.stack(generators),
        TerminalCondition.from_leaf_values(tree, np.stack(leaves)),
        ObstacleSpec(AdaptedProcess(tree, [np.stack(level) for level in zip(*obstacles)])),
    )


def _checked_in_chunks(
    check: Callable[[RbsdeProblem, RbsdeProblem], ComparisonReport],
    instance: Callable[[int, int, ScenarioTree], tuple[_Side, _Side]],
    seed: int,
    instances: int,
) -> list[ComparisonReport]:
    """Each instance's report, checked ``CHECK_CHUNK`` instances to a batch."""
    tree = build_tree(TimeGrid(1.0, 8), TreeMode.FULL_BINARY)
    reports = []
    for start in range(0, instances, CHECK_CHUNK):
        chunk = range(start, min(start + CHECK_CHUNK, instances))
        lows, highs = zip(*(instance(seed, i, tree) for i in chunk))
        reports += check(_batched(tree, lows), _batched(tree, highs)).members()
    return reports


def _comparison_instance(seed: int, index: int, tree: ScenarioTree) -> tuple[_Side, _Side]:
    rng = _rng(seed, index)
    g_low, g_high = _ordered_generator_pair(rng)
    obstacle_low = _random_obstacle_levels(rng, tree)
    obstacle_high = _lifted_levels(tree, obstacle_low, rng)
    xi_low = _terminal_above(rng, obstacle_low[-1])
    xi_high = _bumped(rng, xi_low, floor=obstacle_high[-1])
    return (g_low, obstacle_low, xi_low), (g_high, obstacle_high, xi_high)


def comparison_suite(seed: int = 7, instances: int = 200) -> list[CheckResult]:
    """Ordered data must give ordered reflected values, nodewise."""
    reports = _checked_in_chunks(check_comparison, _comparison_instance, seed, instances)
    return [_comparison_row("comparison/value-ordering", reports)]


def _k_comparison_instance(seed: int, index: int, tree: ScenarioTree) -> tuple[_Side, _Side]:
    rng = _rng(seed, index)
    g_low, g_high = _ordered_generator_pair(rng)
    obstacle = _random_obstacle_levels(rng, tree, slope=float(rng.uniform(1.5, 3.0)))
    xi_low = _terminal_above(rng, obstacle[-1])
    xi_high = _bumped(rng, xi_low)
    return (g_low, obstacle, xi_low), (g_high, obstacle, xi_high)


def k_comparison_suite(seed: int = 11, instances: int = 100) -> list[CheckResult]:
    """Shared obstacle: the lower data pushes harder, monotonically so."""
    reports = _checked_in_chunks(check_k_comparison, _k_comparison_instance, seed, instances)
    monotone = all(r.push_difference_monotone for r in reports)
    return [
        _comparison_row("push-comparison/ordering-and-monotonicity", reports, monotone=monotone)
    ]


# ---------------------------------------------------------------------------
# Strict separation witness

def _witness_closed_form_check(steps: int = 10) -> CheckResult:
    tree = build_tree(TimeGrid(1.0, steps), TreeMode.FULL_BINARY)
    low = counterexample_problem(tree, ClosedFormCase.CONST_DRIVER_LOW_TERMINAL)
    high = counterexample_problem(tree, ClosedFormCase.CONST_DRIVER_HIGH_TERMINAL)
    witness = local_strict_witness(low, high)
    levels = {i for i, stops in enumerate(witness.rule.stop_node_masks) if stops.any()}
    ok = levels == {steps // 2} and witness.probability == 1.0 and witness.k_index == 2
    details = {
        "stop_times": sorted(tree.grid.time(l) for l in levels),
        "probability": witness.probability,
        "k_index": witness.k_index,
    }
    return _check("witness/closed-form-pair", float(not ok), 0.0, details)


def _witness_instance(seed: int, index: int) -> float:
    rng = _rng(seed, index)
    tree = build_tree(TimeGrid(1.0, 8), TreeMode.FULL_BINARY)
    generator = _random_affine_generator(rng, max_coeff=0.5)
    obstacle = _random_obstacle(rng, tree)
    xi_low = _terminal_above(rng, obstacle.process.level(tree.steps))
    xi_high = _bumped(rng, xi_low)
    low = RbsdeProblem(generator, TerminalCondition.from_leaf_values(tree, xi_low), obstacle)
    high = RbsdeProblem(generator, TerminalCondition.from_leaf_values(tree, xi_high), obstacle)
    return local_strict_witness(low, high).probability


def witness_suite(seed: int = 13, instances: int = 50) -> list[CheckResult]:
    """The separating rule exists before the horizon with positive probability."""
    closed_form = _witness_closed_form_check()
    worst = min(_witness_instance(seed, i) for i in range(instances))
    return [
        closed_form,
        _check(
            "witness/random-instances-positive-probability", float(not worst > 0.0), 0.0,
            {"instances": instances, "min_probability": worst},
        ),
    ]


# ---------------------------------------------------------------------------
# Restriction identities

def _restriction_instance(seed: int, index: int) -> tuple[float, float]:
    rng = _rng(seed, index)
    tree = build_tree(TimeGrid(1.0, 10), TreeMode.FULL_BINARY)
    rule = _random_rule(rng, tree)
    generator = (
        _random_affine_generator(rng)
        if rng.random() < 0.5
        else _random_vanishing_generator(rng)
    )

    # plain backward data: values on the rule's stopping nodes
    raw = [rng.uniform(-1.0, 1.0, size=tree.level_size(i)) for i in range(tree.steps + 1)]
    xi_rule = TerminalCondition.at_rule(tree, rule, raw)
    gated = restrict_generator(generator, rule)
    gaps = _one_sided_gaps(_sweep(generator, xi_rule), _sweep(gated, xi_rule.as_full_horizon()))
    bsde_gap = max(map(_per_member, gaps))

    # reflected variant with the obstacle frozen at the rule
    obstacle = _random_obstacle(rng, tree)
    above = [
        obstacle.process.level(i) + rng.uniform(0.0, 1.0, size=tree.level_size(i))
        for i in range(tree.steps + 1)
    ]
    xi_refl = TerminalCondition.at_rule(tree, rule, above)
    frozen = freeze_after(obstacle.process, rule)
    gaps = _one_sided_gaps(
        _sweep(generator, xi_refl, obstacle.process),
        _sweep(gated, xi_refl.as_full_horizon(), frozen),
    )
    rbsde_gap = max(map(_per_member, gaps))
    return bsde_gap, rbsde_gap


def restriction_suite(seed: int = 17, instances: int = 25) -> list[CheckResult]:
    """Solving up to a rule equals solving to the horizon with a gated driver.

    The reflected variant also freezes the obstacle at the rule; both
    identities are checked as dual code paths over the whole value process.
    """
    gaps = [_restriction_instance(seed, i) for i in range(instances)]
    return [
        _check(
            f"restriction/{label}", max(g[k] for g in gaps), EXACT_TOL, {"instances": instances}
        )
        for k, label in enumerate(("gated-driver-identity", "frozen-obstacle-identity"))
    ]


# ---------------------------------------------------------------------------
# Optimal-stopping oracles

def _oracle_instance(seed: int, index: int) -> float:
    rng = _rng(seed, index)
    tree = build_tree(TimeGrid(1.0, 3), TreeMode.FULL_BINARY)
    base = float(rng.uniform(-1.0, 0.5))
    lift = AdaptedProcess.from_state_function(tree, lambda t, b: base + 0.5 * np.abs(b) - t)
    obstacle = ObstacleSpec(lift)
    xi = _terminal_above(rng, obstacle.process.level(tree.steps))
    terminal = TerminalCondition.from_leaf_values(tree, xi)
    reflected = reflected_value(GeneratorSpec.constant(0.0), terminal, obstacle)
    snell = snell_oracle(terminal, obstacle).root()
    enumerated = enumerate_stopping_oracle(terminal, obstacle)
    return max(abs(reflected - snell), abs(snell - enumerated), abs(reflected - enumerated))


def oracle_suite(seed: int = 19, instances: int = 25) -> list[CheckResult]:
    """Reflected value, dynamic program, and brute-force enumeration agree."""
    worst = max(_oracle_instance(seed, i) for i in range(instances))
    return [
        _check("oracle/reflected-snell-enumeration", worst, EXACT_TOL, {"instances": instances})
    ]


# ---------------------------------------------------------------------------
# Obstacles that keep the reflection off

def _largest_push(
    generator: GeneratorSpec, terminal: TerminalCondition, obstacle: ObstacleSpec
) -> float:
    """Largest cumulative push of the sweep (pushes are >= 0, so the floor at 0 is idle)."""
    levels = _sweep(generator, terminal, obstacle.process)
    return _path_maximum(terminal.tree, (level.dk for level in levels))


def _dominating_instance(seed: int, index: int, lipschitz: float) -> float:
    rng = _rng(seed, index)
    tree = build_tree(TimeGrid(1.0, 8), TreeMode.FULL_BINARY)
    generator = _random_vanishing_generator(rng, budget=lipschitz)
    xi = TerminalCondition.from_leaf_values(
        tree, rng.uniform(-1.0, 1.0, size=tree.level_size(tree.steps))
    )
    return _largest_push(generator, xi, build_dominating_obstacle(xi, lipschitz))


def _dominating_profile(terminal: TerminalCondition, decay: float) -> np.ndarray:
    """Root node of every level of ``build_dominating_obstacle``'s process,
    read from a root-only sweep of the same plain equation."""
    profile = np.empty(terminal.tree.steps + 1)
    for level in _sweep(dominating_driver(decay), terminal):
        profile[level.i] = level.y[0]
    return profile


def _exponential_profile_check(steps: int) -> CheckResult:
    """Constant terminal data: the dominating obstacle decays exponentially."""
    tree = build_tree(TimeGrid(1.0, steps), TreeMode.RECOMBINING)
    level = 1.0
    decay = 1.0
    profile = _dominating_profile(TerminalCondition.constant(tree, level), decay)
    expected = level * np.exp(-decay * (1.0 - tree.grid.times()))
    det_err = float(np.max(np.abs(profile - expected)))
    name = "dominating-obstacle/exponential-profile"
    return _check(name, det_err, CLOSED_FORM_TOL, {"steps": steps})


def dominating_obstacle_suite(
    seed: int = 23, instances: int = 20, det_steps: int = 2000
) -> list[CheckResult]:
    """The constructed obstacle never triggers a push, and its deterministic
    special case matches the exponential decay profile."""
    lipschitz = 1.5
    worst = max(_dominating_instance(seed, i, lipschitz) for i in range(instances))
    results = [
        _check(
            "dominating-obstacle/push-free", worst, COMPARISON_TOL,
            {"instances": instances, "lipschitz": lipschitz},
        ),
        _exponential_profile_check(det_steps),
    ]

    # floor variant: two integrable drivers, zero terminal, horizon rule
    tree8 = build_tree(TimeGrid(1.0, 8), TreeMode.FULL_BINARY)
    xi0 = TerminalCondition.constant(tree8, 0.0)
    g_one = GeneratorSpec.constant(1.0)
    g_two = GeneratorSpec.constant(2.0)
    floor = build_floor_obstacle(xi0, g_one, g_two, 1.0)
    floor_push = max(_largest_push(g, xi0, floor) for g in (g_one, g_two))
    root = floor.process.root()
    return results + [
        _check(
            "floor-obstacle/push-free-and-positive-root", floor_push, COMPARISON_TOL,
            {"root": root}, holds=root > 0.0,
        )
    ]


# ---------------------------------------------------------------------------
# Boundary examples for the converse statements

def masked_driver_suite(seed: int = 29, instances: int = 20) -> list[CheckResult]:
    """Drivers masked by the obstacle: equal values, unequal drivers below."""
    tree = build_tree(TimeGrid(1.0, 8), TreeMode.FULL_BINARY)
    cut_high = 1.0
    leaves = _rng(seed, 0).uniform(0.0, 2.0, size=(instances, tree.level_size(tree.steps)))
    family = TerminalCondition.from_leaf_values(tree, cut_high + leaves)  # a row per instance
    report = masked_driver_probe(2.0, 0.0, 1.0, cut_high, family)
    return [
        _check(
            "masked-drivers/values-agree-everywhere", report.max_value_gap, EXACT_TOL,
            {"instances": instances}, holds=report.values_agree,
        ),
        _check(
            "masked-drivers/disagreement-below-cut-certified",
            report.equal_above_threshold_gap, EXACT_TOL,
            {"sites": report.disagreement_cells}, holds=report.drivers_disagree_below,
        ),
    ]


def incomparable_driver_suite(steps: int = 400, seed: int = 31) -> list[CheckResult]:
    """Incomparable time-only drivers still order the reflected root values."""
    # deterministic data: both roots equal the common driver integral 3/8
    tree = build_tree(TimeGrid(1.0, steps), TreeMode.RECOMBINING)
    terminal = TerminalCondition.constant(tree, 0.0)
    obstacle = ObstacleSpec(AdaptedProcess.constant(tree, -10.0))
    report = incomparable_driver_probe(terminal, obstacle)
    integral = 3.0 / 8.0
    near = max(abs(report.root_low - integral), abs(report.root_high - integral))
    deterministic = _check(
        "incomparable-drivers/deterministic-integrals", near, 2.0 / steps,
        {"root_low": report.root_low, "root_high": report.root_high},
        holds=report.ordering_holds and report.incomparable,
    )
    # random terminal data, including a binding obstacle
    rng = _rng(seed, 0)
    tree8 = build_tree(TimeGrid(1.0, 8), TreeMode.FULL_BINARY)
    worst = 0.0
    ordering = True
    for case in range(10):
        obstacle8 = (
            _random_obstacle(rng, tree8)
            if case % 2 == 0
            else ObstacleSpec(AdaptedProcess.constant(tree8, -10.0))
        )
        xi = _terminal_above(rng, obstacle8.process.level(tree8.steps))
        rep = incomparable_driver_probe(TerminalCondition.from_leaf_values(tree8, xi), obstacle8)
        ordering = ordering and rep.ordering_holds
        worst = max(worst, rep.root_low - rep.root_high)
    return [
        deterministic,
        _check(
            "incomparable-drivers/random-data-root-ordering", worst, EXACT_TOL,
            {"instances": 10}, holds=ordering,
        ),
    ]


def converse_suite(seed: int = 37) -> list[CheckResult]:
    """The falsification flag never fires across probe configurations."""
    tree = build_tree(TimeGrid(1.0, 6), TreeMode.FULL_BINARY)
    bound = 0.0
    obstacle = ObstacleSpec(
        AdaptedProcess.from_state_function(tree, lambda t, b: -0.5 - 0.2 * np.abs(b)),
        bound=bound,
    )
    rng = _rng(seed, 0)
    shared = _random_affine_generator(rng, max_coeff=0.8)
    pairs = {
        "identical": (shared, shared, obstacle),
        "y-free-ordered": (
            GeneratorSpec(Abs(ZVar())),
            GeneratorSpec(Scale(0.5, Abs(ZVar()))),
            obstacle,
        ),
        "masked-equal": (
            masked_driver(2.0, 0.0),
            masked_driver(1.0, 1.0),
            ObstacleSpec(AdaptedProcess.constant(tree, 1.0), bound=1.0),
        ),
        "unordered": (
            GeneratorSpec(ZVar()),
            GeneratorSpec(Scale(-1.0, ZVar())),
            obstacle,
        ),
    }
    results = []
    for label, (g_upper, g_lower, obs) in pairs.items():
        report = converse_probe(g_upper, g_lower, obs)
        expected_a = label in {"identical", "y-free-ordered", "masked-equal"}
        details = {
            "value_ordering": report.value_ordering_holds,
            "driver_ordering": report.driver_ordering_holds,
            "max_driver_gap": report.max_driver_gap,
            "flag": report.falsification_flag,
        }
        consistent = report.value_ordering_holds == expected_a
        violation = report.max_value_violation if expected_a else 0.0
        results.append(
            _check(
                f"converse/{label}", violation, COMPARISON_TOL, details,
                holds=consistent and not report.falsification_flag,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Pricing

def pricing_suite() -> list[CheckResult]:
    """Quoted prices against the dynamic program, plus the calibration loop."""
    grid = TimeGrid(1.0, 256)
    tree = build_tree(grid, TreeMode.RECOMBINING)
    worst = 0.0
    for volatility in (0.15, 0.2, 0.3):
        for kind in (PayoffKind.CALL, PayoffKind.PUT):
            model = MarketModel(
                spot=100.0, drift=0.08, volatility=volatility, rate=0.02, strike=100.0, kind=kind
            )
            for quote in quote_strike_family(tree, model, (90.0, 100.0, 110.0)):
                rhs = price_american_riskneutral_dp(tree, model._replace(strike=quote.strike))
                worst = max(worst, abs(quote.price - rhs))

    deep_model = MarketModel(
        spot=100.0, drift=0.08, volatility=0.2, rate=0.02, strike=30000.0,
        kind=PayoffKind.PUT,
    )
    (deep,) = quote_strike_family(tree, deep_model, [deep_model.strike])

    # strike below the lowest stock value on the tree keeps the payoff
    # strictly in the money, so the empty early-exercise region is testable
    # without the worthless-contact ambiguity at out-of-the-money nodes
    itm_model = MarketModel(
        spot=100.0, drift=0.02, volatility=0.2, rate=0.02, strike=3.0,
        kind=PayoffKind.CALL,
    )
    (itm,) = quote_strike_family(tree, itm_model, [itm_model.strike])
    dp_gap = abs(itm.price - price_american_riskneutral_dp(tree, itm_model))

    euro_model = MarketModel(
        spot=100.0, drift=0.0, volatility=0.2, rate=0.0, strike=100.0,
        kind=PayoffKind.CALL,
    )
    euro_tree = build_tree(TimeGrid(1.0, 128), TreeMode.RECOMBINING)
    euro_price = quote_strike_family(euro_tree, euro_model, [euro_model.strike])[0].price
    last_stock = _stock_levels(euro_tree, euro_model)(euro_tree.steps)
    plain = euro_tree.expectation(euro_model.payoff(last_stock), euro_tree.steps)
    euro_dp = price_european_dp(euro_tree, euro_model)

    family_model = MarketModel(
        spot=100.0, drift=0.08, volatility=0.2, rate=0.02, strike=100.0,
        kind=PayoffKind.CALL,
    )
    family = quote_strike_family(tree, family_model, [80.0, 90.0, 100.0, 110.0, 120.0])
    prices = [q.price for q in family]
    decreasing = all(a > b for a, b in zip(prices, prices[1:]))
    return [
        _check(
            "pricing/solver-matches-dynamic-program", worst, COMPARISON_TOL,
            {"grid": "3 vols x 3 strikes x call/put", "steps": 256},
        ),
        _check(
            "pricing/deep-in-the-money-put-immediate",
            abs(deep.price - (deep_model.strike - deep_model.spot)), 0.0,
            {"price": deep.price}, holds=deep.contact_level == 0,
        ),
        _check(
            "pricing/no-early-exercise-for-covered-call", dp_gap, COMPARISON_TOL,
            {"price": itm.price}, holds=itm.contact_level == tree.steps,
        ),
        _check(
            "pricing/zero-premium-call-collapses-to-plain-expectation",
            max(abs(euro_price - plain), abs(euro_price - euro_dp)), COMPARISON_TOL,
            {"price": euro_price, "expectation": plain},
            holds=euro_price >= euro_model.payoff(100.0) - EXACT_TOL,
        ),
        _check(
            "pricing/call-prices-strictly-decreasing-in-strike", float(not decreasing), 0.0,
            {"prices": prices},
        ),
    ]


def recovery_suite() -> list[CheckResult]:
    """Premium recovery inverts synthetic strike families on the same tree."""
    tree = build_tree(TimeGrid(1.0, 48), TreeMode.RECOMBINING)
    strikes = [80.0, 90.0, 100.0, 110.0, 120.0]
    results = []
    for label, true_theta, family_strikes, tol in (
        ("five-strikes-premium-0.3", 0.3, strikes, 1e-6),
        ("five-strikes-premium-0", 0.0, strikes, 1e-6),
        ("single-strike-at-the-money", 0.3, [100.0], 1e-5),
    ):
        volatility, rate = 0.2, 0.02
        model = MarketModel(
            spot=100.0,
            drift=rate + volatility * true_theta,
            volatility=volatility,
            rate=rate,
            strike=family_strikes[0],
            kind=PayoffKind.CALL,
        )
        observed = [(q.strike, q.price) for q in quote_strike_family(tree, model, family_strikes)]
        recovery = recover_theta(
            tree, observed, spot=100.0, volatility=volatility, rate=rate
        )
        details = {"theta_hat": recovery.theta_hat, "objective": recovery.objective}
        results.append(
            _check(f"recovery/{label}", abs(recovery.theta_hat - true_theta), tol, details)
        )
    return results


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "counterexamples": counterexample_suite,
    "convergence": convergence_suite,
    "comparison": comparison_suite,
    "push-comparison": k_comparison_suite,
    "witness": witness_suite,
    "restriction-identity": restriction_suite,
    "oracle-equivalence": oracle_suite,
    "dominating-obstacle": dominating_obstacle_suite,
    "masked-drivers": masked_driver_suite,
    "incomparable-drivers": incomparable_driver_suite,
    "converse": converse_suite,
    "pricing": pricing_suite,
    "recovery": recovery_suite,
}


def suite_takes(name: str, parameter: str) -> bool:
    """Whether the named suite (some suite, for ``all``) has ``parameter``."""
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    return any(parameter in inspect.signature(suite).parameters for suite in suites)


def run_suite(
    name: str, *, seed: int | None = None, instances: int | None = None
) -> list[CheckResult]:
    """Run one named suite (or ``all``) with optional seed/instance overrides.

    Each override goes only to suites whose signature has that parameter.
    """
    if name == "all":
        return [r for key in SUITES for r in run_suite(key, seed=seed, instances=instances)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    overrides = {"seed": seed, "instances": instances}
    kwargs = {k: v for k, v in overrides.items() if v is not None and suite_takes(name, k)}
    return SUITES[name](**kwargs)
