import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsde_lab import (
    AdaptedProcess,
    ClosedFormCase,
    GeneratorSpec,
    NoStrictGap,
    ObstacleSpec,
    RbsdeProblem,
    StoppingRule,
    TerminalCondition,
    TimeGrid,
    TreeMismatch,
    TreeMode,
    UnsupportedTreeMode,
    WitnessConstructionFailed,
    build_dominating_obstacle,
    build_floor_obstacle,
    build_tree,
    check_comparison,
    check_k_comparison,
    closed_form_example,
    converse_probe,
    counterexample_problem,
    event_probability,
    incomparable_driver_probe,
    lipschitz_bound,
    local_strict_witness,
    masked_driver,
    masked_driver_probe,
    solve_bsde,
    solve_rbsde,
)
from rbsde_lab import suites, theorems
from rbsde_lab.generators import Abs, Add, Const, NegPart, Scale, YVar, ZVar
from rbsde_lab.theorems import (
    dominating_driver,
    floor_driver,
    plateau_ramp_driver,
    ramp_plateau_driver,
)
from test_generators import exprs


def full_tree(steps, horizon=1.0):
    return build_tree(TimeGrid(horizon, steps), TreeMode.FULL_BINARY)


def recomb_tree(steps, horizon=1.0):
    return build_tree(TimeGrid(horizon, steps), TreeMode.RECOMBINING)


def counterexample_pair(tree):
    return (
        counterexample_problem(tree, ClosedFormCase.CONST_DRIVER_LOW_TERMINAL),
        counterexample_problem(tree, ClosedFormCase.CONST_DRIVER_HIGH_TERMINAL),
    )


class TestClosedForms:
    def test_const_driver_low_terminal_at_zero(self):
        form = closed_form_example(ClosedFormCase.CONST_DRIVER_LOW_TERMINAL)
        assert form.value(0.0) == 1.0
        assert form.push(0.0) == 0.0
        assert form.contact_time == pytest.approx(1 / 5)

    def test_const_driver_high_terminal_contact(self):
        form = closed_form_example(ClosedFormCase.CONST_DRIVER_HIGH_TERMINAL)
        assert form.contact_time == pytest.approx(1 / 10)
        assert form.push_plateau == pytest.approx(1 / 6)

    def test_zero_driver_plateaus(self):
        low = closed_form_example(ClosedFormCase.ZERO_DRIVER_LOW_TERMINAL)
        high = closed_form_example(ClosedFormCase.ZERO_DRIVER_HIGH_TERMINAL)
        assert low.push_plateau == pytest.approx(2 / 3)
        assert high.push_plateau == pytest.approx(1 / 2)
        assert high.contact_time == pytest.approx(1 / 4)


class TestComparison:
    def test_counterexample_pair_passes(self):
        low, high = counterexample_pair(recomb_tree(200))
        report = check_comparison(low, high)
        assert not report.vacuous
        assert report.passed
        assert report.max_value_violation == 0.0

    def test_identical_data_compare_equal(self):
        tree = full_tree(6)
        problem = counterexample_problem(recomb_tree(6), ClosedFormCase.ZERO_DRIVER_LOW_TERMINAL)
        report = check_comparison(problem, problem)
        assert report.passed
        assert report.max_value_violation == 0.0

    def test_unordered_terminals_mark_the_report_vacuous(self):
        tree = full_tree(5)
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, -5.0))
        g = GeneratorSpec.constant(0.0)
        hi = TerminalCondition.constant(tree, 0.0)
        lo = TerminalCondition.constant(tree, 1.0)  # wrong way round
        report = check_comparison(
            RbsdeProblem(g, lo, obstacle), RbsdeProblem(g, hi, obstacle)
        )
        assert report.vacuous
        assert not report.passed

    def test_push_comparison_on_counterexample_pair(self):
        tree = recomb_tree(200)
        low, high = counterexample_pair(tree)
        report = check_k_comparison(low, high)
        assert report.passed
        assert report.max_push_violation == 0.0
        assert report.push_difference_monotone

        sol_low = solve_rbsde(low.generator, low.terminal, low.obstacle)
        sol_high = solve_rbsde(high.generator, high.terminal, high.obstacle)
        diff = np.array(
            [sol_low.k.level(i)[0] - sol_high.k.level(i)[0] for i in range(201)]
        )
        # difference ramps from zero on the shared contact region to 1/6
        assert diff[0] == 0.0
        low_contact = closed_form_example(
            ClosedFormCase.CONST_DRIVER_HIGH_TERMINAL
        ).contact_time
        shared = tree.grid.times() <= low_contact
        np.testing.assert_allclose(diff[shared], 0.0, atol=1e-12)
        assert diff[-1] == pytest.approx(1 / 6, abs=2e-3)
        assert np.all(np.diff(diff) >= -1e-12)

    def test_push_comparison_solves_each_problem_once(self, monkeypatch):
        tree = recomb_tree(50)
        low, high = counterexample_pair(tree)
        expected = check_comparison(low, high)
        sweeps = []
        real_sweep = theorems._sweep

        def counting_sweep(*args):
            sweeps.append(args)
            return real_sweep(*args)

        # the checks read each problem's levels off one root-only sweep
        monkeypatch.setattr(theorems, "_sweep", counting_sweep)
        report = check_k_comparison(low, high)
        assert len(sweeps) == 2
        assert report.certificate == expected.certificate
        assert report.max_value_violation == expected.max_value_violation
        assert report.vacuous == expected.vacuous

    @pytest.mark.parametrize("check", [check_comparison, check_k_comparison])
    def test_checks_at_n1000_keep_no_level(self, check):
        # the two sweeps are zipped and reduced level by level; the y levels of
        # one solution alone would take 8 * 1001 * 1002 / 2 bytes, 4.0 MB
        tree = recomb_tree(1000)
        obstacle = ObstacleSpec(
            AdaptedProcess.from_state_function(tree, lambda t, b: 0.5 - np.abs(b) - t)
        )
        low, high = (
            RbsdeProblem(
                GeneratorSpec.constant(driver),
                TerminalCondition.from_leaf_function(tree, lambda b, c=lift: 0.1 * np.abs(b) + c),
                obstacle,
            )
            for driver, lift in ((0.0, 0.0), (0.1, 0.05))
        )
        tracemalloc.start()
        try:
            report = check(low, high)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed and not report.vacuous
        assert peak <= 2_000_000

    def test_push_comparison_rejects_two_obstacles_on_one_tree(self):
        tree = recomb_tree(20)
        low, high = counterexample_pair(tree)
        lowered = low._replace(obstacle=ObstacleSpec(AdaptedProcess.constant(tree, -1.0)))
        with pytest.raises(ValueError, match="common obstacle"):
            check_k_comparison(lowered, high)

    def test_comparison_across_two_trees_is_a_tree_mismatch(self):
        low, _ = counterexample_pair(recomb_tree(6))
        _, high = counterexample_pair(recomb_tree(7))
        with pytest.raises(TreeMismatch, match="comparison needs a common tree"):
            check_comparison(low, high)

    def test_push_comparison_on_a_recombining_tree_matches_the_full_binary_one(self):
        # the pushes summed along two paths into one recombining node differ, so
        # that tree cannot carry them; the backward path maximum needs no carry
        def problem(tree, bump):
            obstacle = ObstacleSpec(AdaptedProcess.from_state_function(tree, lambda t, b: 1 + b - t))
            terminal = TerminalCondition.from_leaf_function(tree, lambda b: np.maximum(b, 0.0) + bump)
            return RbsdeProblem(GeneratorSpec.constant(0.0), terminal, obstacle)

        low = problem(recomb_tree(4), 0.0)
        assert solve_rbsde(low.generator, low.terminal, low.obstacle).k is None
        # in the reversed order the higher data push harder, so the violation is positive
        for bumps, passed in (((0.0, 0.1), True), ((0.1, 0.0), False)):
            recombining, full = (
                check_k_comparison(*(problem(tree, bump) for bump in bumps))
                for tree in (recomb_tree(4), full_tree(4))
            )
            assert recombining == full and recombining.passed is passed
            k_low, k_high = (
                solve_rbsde(p.generator, p.terminal, p.obstacle).k
                for p in (problem(full_tree(4), bump) for bump in bumps)
            )
            gaps = [float(np.max(d)) for d in map(np.subtract, k_high.levels(), k_low.levels())]
            assert recombining.max_push_violation == pytest.approx(max(gaps), abs=1e-12)
            assert (recombining.max_push_violation > 0.0) is not passed

    def test_zero_driver_pair_plateau_difference(self):
        tree = recomb_tree(200)
        low = counterexample_problem(tree, ClosedFormCase.ZERO_DRIVER_LOW_TERMINAL)
        high = counterexample_problem(tree, ClosedFormCase.ZERO_DRIVER_HIGH_TERMINAL)
        report = check_k_comparison(low, high)
        assert report.passed
        sol_low = solve_rbsde(low.generator, low.terminal, low.obstacle)
        sol_high = solve_rbsde(high.generator, high.terminal, high.obstacle)
        gap = sol_low.k.level(200)[0] - sol_high.k.level(200)[0]
        assert gap == pytest.approx(2 / 3 - 1 / 2, abs=2e-3)


def nonnegative_exprs():
    """Expressions that are >= 0 everywhere: ``abs``, ``npart``, ``c >= 0``, ``(* c (abs e))``."""
    factors = st.floats(0.0, 3.0).map(float)
    return st.one_of(
        st.builds(Abs, exprs()),
        st.builds(NegPart, exprs()),
        st.builds(Const, factors),
        st.builds(lambda c, e: Scale(c, Abs(e)), factors, exprs()),
    )


class TestComparisonOverTheGrammar:
    """Comparison for drivers drawn from the whole grammar.

    ``g_high = g_low + q`` with ``q >= 0``, so drivers not affine in y take
    the fixed-point branch of the implicit step.  The lattice scheme is
    monotone when its one-step weights are nonnegative, ``L_z * sqrt(dt) <= 1``;
    the contraction guard's ``L_y * dt < 1`` is not enough (``g = 3z`` on 8
    steps, where ``3 * sqrt(dt)`` is 1.06, breaks comparison by about 0.1 on
    such data), so each pair is scaled down until both bounds times
    ``sqrt(dt)`` are at most 1.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        g_low=exprs(),
        q=nonnegative_exprs(),
        mode=st.sampled_from(TreeMode),
        steps=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        shared=st.booleans(),
    )
    def test_ordered_data_give_ordered_solutions(self, g_low, q, mode, steps, seed, shared):
        tree = build_tree(TimeGrid(1.0, steps), mode)
        bound = max(lipschitz_bound(Add((g_low, q)))) * tree.sqrt_dt
        factor = 1.0 if bound <= 1.0 else 1.0 / bound
        low_expr, high_expr = Scale(factor, g_low), Scale(factor, Add((g_low, q)))
        g_lo = GeneratorSpec(low_expr)
        g_hi = GeneratorSpec(high_expr)

        rng = np.random.default_rng(seed)
        sizes = [tree.level_size(i) for i in range(steps + 1)]
        s_hi = [rng.uniform(-2.0, 1.0, k) for k in sizes]
        s_lo = s_hi if shared else [
            s - rng.uniform(0.0, 1.0, k) * (rng.random(k) < 0.5) for s, k in zip(s_hi, sizes)
        ]
        leaves = sizes[-1]
        xi_lo = s_lo[-1] + rng.uniform(0.0, 1.0, leaves) * (rng.random(leaves) < 0.7)
        raised = xi_lo + rng.uniform(0.0, 1.0, leaves) * (rng.random(leaves) < 0.5)
        xi_hi = np.maximum(raised, s_hi[-1])
        obstacle_hi = ObstacleSpec(AdaptedProcess(tree, s_hi))
        obstacle_lo = obstacle_hi if shared else ObstacleSpec(AdaptedProcess(tree, s_lo))
        low = RbsdeProblem(g_lo, TerminalCondition.from_leaf_values(tree, xi_lo), obstacle_lo)
        high = RbsdeProblem(g_hi, TerminalCondition.from_leaf_values(tree, xi_hi), obstacle_hi)

        report = check_comparison(low, high)
        assert report.passed, report  # a vacuous report never passes
        if shared:
            pushes = check_k_comparison(low, high)
            assert pushes.passed, pushes


def per_leaf_witness(low, high):
    """The equality search walked one leaf at a time: the reference for the level arrays."""
    tree, n = low.tree, low.tree.steps
    y_low, y_high = (solve_rbsde(p.generator, p.terminal, p.obstacle).y for p in (low, high))
    strict = [y_high.level(i) - y_low.level(i) > theorems.EQUALITY_TOL for i in range(n + 1)]
    traces = []
    for leaf in range(1 << n):
        trace = [0]
        while trace[-1] < n:
            start = trace[-1] + math.ceil((n - trace[-1]) / 2)
            equal = (i for i in range(start, n + 1) if not strict[i][leaf >> (n - i)])
            trace.append(next(equal, n))
        traces.append(tuple(trace))
    k_index = next(
        k for k in itertools.count(1) if any(t[min(k - 1, len(t) - 1)] == n for t in traces)
    )
    stops = np.array([t[k_index - 2] + (n - t[k_index - 2]) // 2 for t in traces])
    flags = [np.zeros(tree.level_size(i), dtype=bool) for i in range(n + 1)]
    for leaf, level in enumerate(stops):
        flags[level][leaf >> (n - level)] = True
    rule = StoppingRule(tree, flags)
    return traces, k_index, stops, rule, event_probability(rule, strict)


def shared_pair(tree, generator, obstacle, xi_low, xi_high):
    return (
        RbsdeProblem(generator, TerminalCondition.from_leaf_values(tree, xi_low), obstacle),
        RbsdeProblem(generator, TerminalCondition.from_leaf_values(tree, xi_high), obstacle),
    )


def suite_style_pair(steps, seed):
    # the witness suite's instance, on any depth
    rng = suites._rng(seed, steps)
    tree = full_tree(steps)
    generator = suites._random_affine_generator(rng, max_coeff=0.5)
    obstacle = suites._random_obstacle(rng, tree)
    xi_low = suites._terminal_above(rng, obstacle.process.level(steps))
    return shared_pair(tree, generator, obstacle, xi_low, suites._bumped(rng, xi_low))


def spike_pair(level, seed, steps=8):
    # obstacle -5 but 10 on every node of one level: both solutions agree up to it
    tree = full_tree(steps)
    rng = np.random.default_rng(seed)
    levels = [np.full(tree.level_size(i), 10.0 if i == level else -5.0) for i in range(steps + 1)]
    xi_low = rng.uniform(0.0, 1.0, tree.level_size(steps))
    obstacle = ObstacleSpec(AdaptedProcess(tree, levels))
    xi_high = suites._bumped(rng, xi_low)
    return shared_pair(tree, GeneratorSpec.constant(0.0), obstacle, xi_low, xi_high)


def assert_matches_per_leaf_search(low, high):
    """Compare the witness with the reference; None when its event has zero probability."""
    traces, k_index, stops, rule, probability = per_leaf_witness(low, high)
    if probability == 0.0:
        with pytest.raises(WitnessConstructionFailed, match="zero probability"):
            local_strict_witness(low, high)
        return None
    witness = local_strict_witness(low, high)
    n = low.tree.steps
    # the invariants of the search that make the rule stop before the horizon
    assert witness.k_index >= 2
    assert not np.any(witness.iterates[:, witness.k_index - 2] == n)
    assert np.all(witness.stop_levels < n)
    assert witness.k_index == k_index
    rows = witness.iterates.tolist()
    assert [tuple(row[: row.index(n) + 1]) for row in rows] == traces
    np.testing.assert_array_equal(witness.stop_levels, stops)
    for i in range(n + 1):
        np.testing.assert_array_equal(witness.rule.flags(i), rule.flags(i))
    assert witness.probability == probability
    return witness


class TestStrictWitness:
    def test_closed_form_pair_witness(self):
        tree = full_tree(10)
        low, high = counterexample_pair(tree)
        witness = local_strict_witness(low, high)
        assert witness.k_index == 2
        assert set(witness.stop_levels.tolist()) == {5}
        assert witness.probability == 1.0
        np.testing.assert_array_equal(witness.iterates, np.broadcast_to([0, 10], (1 << 10, 2)))

    def test_uniform_gap_witness(self):
        tree = full_tree(8)
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, -10.0))
        g = GeneratorSpec.constant(0.0)
        rng = np.random.default_rng(61)
        base = rng.uniform(0, 1, size=256)
        low = RbsdeProblem(g, TerminalCondition.from_leaf_values(tree, base), obstacle)
        high = RbsdeProblem(g, TerminalCondition.from_leaf_values(tree, base + 1.0), obstacle)
        witness = local_strict_witness(low, high)
        assert witness.k_index == 2
        assert set(witness.stop_levels.tolist()) == {4}
        assert witness.probability == 1.0

    def test_identical_terminals_raise(self):
        tree = full_tree(6)
        problem = counterexample_problem(tree, ClosedFormCase.CONST_DRIVER_LOW_TERMINAL)
        with pytest.raises(NoStrictGap):
            local_strict_witness(problem, problem)

    def test_witness_certifies_its_own_event(self):
        # the returned rule separates the solutions from the rule onward
        tree = full_tree(8)
        rng = np.random.default_rng(62)
        obstacle = ObstacleSpec(
            AdaptedProcess.from_state_function(tree, lambda t, b: 0.3 - 3.0 * t + 0.1 * b)
        )
        g = GeneratorSpec(Add((Scale(0.3, YVar()), Scale(-0.2, ZVar()))))
        base = np.maximum(rng.uniform(0, 1, size=256), obstacle.process.level(8))
        mask = rng.random(256) < 0.3
        mask[0] = True
        low = RbsdeProblem(g, TerminalCondition.from_leaf_values(tree, base), obstacle)
        high = RbsdeProblem(
            g,
            TerminalCondition.from_leaf_values(tree, base + 0.5 * mask),
            obstacle,
        )
        witness = local_strict_witness(low, high)
        assert witness.probability > 0.0
        assert np.all(witness.stop_levels < 8)


    @pytest.mark.parametrize("steps", [1, 2, 3, 5, 8, 10])
    def test_level_arrays_match_the_per_leaf_search(self, steps):
        pairs = [suite_style_pair(steps, seed) for seed in range(4)]
        witnesses = [assert_matches_per_leaf_search(*pair) for pair in pairs]
        assert any(witness is not None for witness in witnesses)

    def test_obstacle_spike_pins_a_later_iterate(self):
        witness = assert_matches_per_leaf_search(*spike_pair(5, seed=1))
        assert witness.k_index == 3
        assert set(witness.stop_levels.tolist()) == {6}
        assert witness.probability == 0.44921875

    def test_spike_before_the_horizon_has_zero_probability(self):
        # the reference finds the stop at level 7, where the spike makes the solutions agree
        assert assert_matches_per_leaf_search(*spike_pair(7, seed=1)) is None

    def test_preconditions(self):
        tree = full_tree(6)
        low, high = counterexample_pair(tree)
        with pytest.raises(UnsupportedTreeMode):
            local_strict_witness(*counterexample_pair(recomb_tree(6)))
        with pytest.raises(TreeMismatch):
            local_strict_witness(low, counterexample_pair(full_tree(7))[1])
        with pytest.raises(ValueError, match="shared driver"):
            local_strict_witness(low, high._replace(generator=GeneratorSpec.constant(0.0)))
        columns = [
            GeneratorSpec.stack([GeneratorSpec.constant(c) for c in constants])
            for constants in ((0.0, 1.0), (0.0, 2.0))
        ]
        with pytest.raises(ValueError, match="assumes a shared driver"):
            local_strict_witness(
                low._replace(generator=columns[0]), high._replace(generator=columns[1])
            )
        lowered = ObstacleSpec(AdaptedProcess.constant(tree, -1.0))
        with pytest.raises(ValueError, match="common obstacle"):
            local_strict_witness(low, high._replace(obstacle=lowered))
        with pytest.raises(ValueError, match="not ordered"):
            local_strict_witness(high, low)


class TestStrictComparisonRevives:
    def test_bounded_obstacle_with_vanishing_driver(self):
        # when the obstacle stays below both plain solutions the reflection
        # never fires, and the strict root comparison of plain equations
        # carries over to the reflected ones
        tree = full_tree(8)
        rng = np.random.default_rng(63)
        g = masked_driver(1.5, 0.2)  # vanishes at zero coefficient
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, -0.5), bound=-0.5)
        lo = rng.uniform(0.0, 1.0, size=256)
        hi = lo.copy()
        hi[rng.random(256) < 0.3] += 0.4
        low = RbsdeProblem(g, TerminalCondition.from_leaf_values(tree, lo), obstacle)
        high = RbsdeProblem(g, TerminalCondition.from_leaf_values(tree, hi), obstacle)
        sol_low = solve_rbsde(low.generator, low.terminal, low.obstacle)
        sol_high = solve_rbsde(high.generator, high.terminal, high.obstacle)
        for sol in (sol_low, sol_high):
            assert max(float(np.max(sol.k.level(i))) for i in range(9)) == 0.0
            assert min(float(np.min(sol.y.level(i))) for i in range(9)) >= -0.5
        assert sol_low.y.root() < sol_high.y.root() - 1e-12


class TestDominatingObstacle:
    def test_deterministic_profile_decays_exponentially(self):
        tree = recomb_tree(2000)
        xi = TerminalCondition.constant(tree, 1.0)
        obstacle = build_dominating_obstacle(xi, 1.0)
        times = tree.grid.times()
        profile = np.array([obstacle.process.level(i)[0] for i in range(2001)])
        np.testing.assert_allclose(profile, np.exp(-(1.0 - times)), atol=2e-3)

    def test_zero_terminal_gives_zero_obstacle(self):
        tree = full_tree(6)
        obstacle = build_dominating_obstacle(TerminalCondition.constant(tree, 0.0), 1.2)
        for i in range(7):
            np.testing.assert_array_equal(obstacle.process.level(i), 0.0)

    def test_reflection_never_fires_for_bounded_vanishing_drivers(self):
        tree = full_tree(8)
        rng = np.random.default_rng(71)
        xi = TerminalCondition.from_leaf_values(tree, rng.uniform(-1, 1, size=256))
        obstacle = build_dominating_obstacle(xi, 1.5)
        g = GeneratorSpec(
            Add((Scale(0.7, Abs(ZVar())), Scale(-0.8, ZVar())))
        )
        sol = solve_rbsde(g, xi, obstacle)
        assert max(float(np.max(sol.k.level(i))) for i in range(9)) <= 1e-10
        plain = solve_bsde(g, xi)
        for i in range(9):
            np.testing.assert_array_equal(plain.y.level(i), sol.y.level(i))

    def test_structural_bounds_are_per_variable_and_tight(self):
        # one bound per variable: -L|y| - L|z| reads (L, L), and a unit step in
        # either variable alone moves g by exactly L, where one summed bound
        # would read 2L
        zero = GeneratorSpec.constant(0.0)
        for g in (dominating_driver(1.5), floor_driver(zero, zero, 1.5)):
            assert g.lipschitz == (1.5, 1.5)
            for t in (0.0, 0.5, 1.0):
                points = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
                g00, g10, g01 = (float(np.asarray(g.evaluate(t, y, z))) for y, z in points)
                assert abs(g10 - g00) == 1.5 and abs(g01 - g00) == 1.5


class TestFloorObstacle:
    def test_zero_drivers_reduce_to_dominating_construction(self):
        tree = full_tree(6)
        xi = TerminalCondition.constant(tree, 0.8)
        zero = GeneratorSpec.constant(0.0)
        floor = build_floor_obstacle(xi, zero, zero, 1.0)
        plain = build_dominating_obstacle(xi, 1.0)
        for i in range(7):
            np.testing.assert_array_equal(floor.process.level(i), plain.process.level(i))

    def test_ordered_constant_drivers(self):
        tree = full_tree(8)
        xi = TerminalCondition.constant(tree, 0.0)
        g_one = GeneratorSpec.constant(1.0)
        g_two = GeneratorSpec.constant(2.0)
        floor = build_floor_obstacle(xi, g_one, g_two, 1.0)
        assert floor.process.root() > 0.0
        for g in (g_one, g_two):
            sol = solve_rbsde(g, xi, floor)
            assert max(float(np.max(sol.k.level(i))) for i in range(9)) <= 1e-10

    def test_root_rule_freezes_the_terminal_value(self):
        tree = full_tree(5)
        rule = StoppingRule.root(tree)
        xi = TerminalCondition.constant(tree, 0.6, rule=rule)
        floor = build_floor_obstacle(
            xi, GeneratorSpec.constant(0.0), GeneratorSpec.constant(0.0), 1.0
        )
        for i in range(6):
            np.testing.assert_array_equal(floor.process.level(i), 0.6)


class TestIncomparableDrivers:
    def test_drivers_cross_but_roots_stay_ordered(self):
        tree = recomb_tree(400)
        terminal = TerminalCondition.constant(tree, 0.0)
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, -10.0))
        report = incomparable_driver_probe(terminal, obstacle)
        assert report.ordering_holds
        assert report.incomparable
        # both root values approach the common driver integral 3/8
        assert report.root_low == pytest.approx(3 / 8, abs=2 / 400)
        assert report.root_high == pytest.approx(3 / 8, abs=2 / 400)
        assert report.root_low < report.root_high

    def test_pointwise_incomparability_sites(self):
        g_low = ramp_plateau_driver(1.0)
        g_high = plateau_ramp_driver(1.0)
        assert float(np.asarray(g_low.evaluate(0.0, 0.0, 0.0))) == 0.0
        assert float(np.asarray(g_high.evaluate(0.0, 0.0, 0.0))) == 0.5
        assert float(np.asarray(g_low.evaluate(1.0, 0.0, 0.0))) == 0.5
        assert float(np.asarray(g_high.evaluate(1.0, 0.0, 0.0))) == 0.0


class TestMaskedDrivers:
    def test_probe_reports_equality_and_disagreement(self):
        tree = full_tree(8)
        rng = np.random.default_rng(81)
        family = TerminalCondition.from_leaf_values(tree, 1.0 + rng.uniform(0, 2, size=(5, 256)))
        report = masked_driver_probe(2.0, 0.0, 1.0, 1.0, family)
        assert report.values_agree
        assert report.max_value_gap <= 1e-12
        assert report.equal_above_threshold_gap <= 1e-12
        assert report.drivers_disagree_below

    def test_sample_points_match_hand_evaluation(self):
        g_low = masked_driver(2.0, 0.0)
        g_high = masked_driver(1.0, 1.0)
        # below the higher cut the drivers disagree
        assert float(np.asarray(g_low.evaluate(0.0, 0.5, 1.0))) == 0.0
        assert float(np.asarray(g_high.evaluate(0.0, 0.5, 1.0))) == 0.5
        # at or above the higher cut both vanish
        assert float(np.asarray(g_low.evaluate(0.0, 1.2, 1.0))) == 0.0
        assert float(np.asarray(g_high.evaluate(0.0, 1.2, 1.0))) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            masked_driver_probe(1.0, 1.0, 2.0, 0.0, [])

    def test_suite_solves_its_family_in_two_batches(self, monkeypatch):
        batches, solo = [], []
        real_sweep = theorems._sweep

        def batched_sweep(generator, terminal, *args):
            batches.append(np.broadcast_shapes(*(v.shape[:-1] for v in terminal.values)))
            return real_sweep(generator, terminal, *args)

        monkeypatch.setattr(theorems, "_sweep", batched_sweep)
        real_solve = theorems.solve_rbsde
        monkeypatch.setattr(
            theorems, "solve_rbsde", lambda *args: solo.append(args) or real_solve(*args)
        )
        assert all(row.passed for row in suites.masked_driver_suite())
        assert (batches, len(solo)) == ([(20,), (20,)], 0)


class TestConverseProbe:
    def test_identical_drivers(self):
        tree = full_tree(6)
        g = GeneratorSpec(Scale(0.5, Abs(ZVar())))
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, -1.0), bound=-1.0)
        report = converse_probe(g, g, obstacle)
        assert report.value_ordering_holds
        assert report.driver_ordering_holds
        assert report.max_driver_gap == 0.0
        assert not report.falsification_flag

    def test_ordered_coefficient_drivers(self):
        tree = full_tree(6)
        g_upper = GeneratorSpec(Abs(ZVar()))
        g_lower = GeneratorSpec(Scale(0.5, Abs(ZVar())))
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, 0.0), bound=0.0)
        report = converse_probe(g_upper, g_lower, obstacle)
        assert report.value_ordering_holds
        assert report.driver_ordering_holds
        assert not report.falsification_flag

    def test_masked_pair_is_consistent_on_the_upper_region(self):
        tree = full_tree(6)
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, 1.0), bound=1.0)
        report = converse_probe(masked_driver(2.0, 0.0), masked_driver(1.0, 1.0), obstacle)
        assert report.value_ordering_holds
        assert report.driver_ordering_holds  # equality on values above the cut
        assert not report.falsification_flag

    def test_sites_reproduce_their_gaps(self):
        tree = full_tree(6)
        g_upper = GeneratorSpec(ZVar())
        g_lower = GeneratorSpec(Scale(-1.0, ZVar()))
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, 0.0), bound=0.0)
        report = converse_probe(g_upper, g_lower, obstacle)
        assert not report.value_ordering_holds
        assert not report.falsification_flag
        for site in report.violation_sites:
            hi = float(np.asarray(g_upper.evaluate(site.t, site.y, site.z)))
            lo = float(np.asarray(g_lower.evaluate(site.t, site.y, site.z)))
            assert lo - hi == pytest.approx(site.gap, abs=1e-12)

    def test_suite_pairs_pin_their_value_violation(self, monkeypatch):
        reports = []
        real_probe = suites.converse_probe
        monkeypatch.setattr(
            suites, "converse_probe", lambda *args: reports.append(real_probe(*args)) or reports[-1]
        )
        suites.converse_suite()
        # identical, y-free-ordered, masked-equal, unordered
        assert [r.max_value_violation.hex() for r in reports] == [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"
        ]

    @pytest.mark.parametrize(
        "g_upper, g_lower, binds, expected",
        [
            # negative drifts: the obstacle at the bound pushes
            (
                GeneratorSpec(Add((Const(-1.0), Scale(0.3, ZVar()), Scale(0.2, YVar())))),
                GeneratorSpec(Add((Const(-0.8), Scale(-0.7, ZVar())))),
                True,
                "0x1.0a5aca1677a8fp-1",
            ),
            # nonnegative drivers over data above the bound: the obstacle never binds
            (
                GeneratorSpec(Scale(0.5, Abs(ZVar()))),
                GeneratorSpec(Add((Abs(ZVar()), Scale(0.25, YVar())))),
                False,
                "0x1.bedbb0aa6cb14p-1",
            ),
        ],
        ids=["binding", "not-binding"],
    )
    def test_unordered_pairs_pin_their_value_violation(self, g_upper, g_lower, binds, expected):
        tree = full_tree(6)
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, 0.0), bound=0.0)
        # the family's lowest member is the bound itself
        terminal = TerminalCondition.constant(tree, 0.0)
        pushes = [solve_rbsde(g, terminal, obstacle).k for g in (g_upper, g_lower)]
        assert any(k.level(tree.steps).max() > 0.0 for k in pushes) == binds
        report = converse_probe(g_upper, g_lower, obstacle)
        assert type(report.max_value_violation) is float
        assert report.max_value_violation.hex() == expected

    def test_obstacle_without_bound_is_rejected(self):
        tree = full_tree(4)
        g = GeneratorSpec(Abs(ZVar()))
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, 0.0))
        with pytest.raises(ValueError, match="^default probe family needs an obstacle bound$"):
            converse_probe(g, g, obstacle)

    def test_value_violation_matches_full_solves_without_one(self, monkeypatch):
        # the probe reads its conditional values from batched root-only
        # sweeps; the reference here builds each of the ten terminals itself,
        # solves it in full and reads every stopping node
        tree = full_tree(6)
        g_upper = GeneratorSpec(ZVar())
        g_lower = GeneratorSpec(Scale(-1.0, ZVar()))
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, 0.0), bound=0.0)
        mid = StoppingRule(tree, [np.abs(tree.brownian_level(i)) >= 1.0 for i in range(7)])
        rules = (StoppingRule.root(tree), mid, StoppingRule.terminal(tree))
        lifts = (
            lambda i, b: 0.0 + np.abs(b),
            lambda i, b: 0.0 + np.maximum(b, 0.0),
            lambda i, b: 0.0 + np.maximum(-b, 0.0),
        )
        builders = [
            lambda rule, c=float(c): TerminalCondition.constant(tree, c, rule=rule)
            for c in np.arange(0.0, 3.0 + 1e-9, 0.5)
        ] + [lambda rule, lift=lift: TerminalCondition.at_rule(tree, rule, lift) for lift in lifts]
        expected = 0.0
        for builder in builders:
            for sigma in rules:
                terminal = builder(sigma)
                upper = solve_rbsde(g_upper, terminal, obstacle).y
                lower = solve_rbsde(g_lower, terminal, obstacle).y
                for tau in rules:
                    if tau.precedes(sigma):
                        for i, mask in enumerate(tau.stop_node_masks):
                            gap = lower.level(i)[mask] - upper.level(i)[mask]
                            expected = max([expected, *gap.tolist()])
        monkeypatch.setattr(theorems, "solve_rbsde", None)
        report = converse_probe(g_upper, g_lower, obstacle)
        assert len(builders) == 10
        assert expected > 0.0
        assert report.max_value_violation == expected

    def test_family_is_swept_once_per_driver_and_rule(self, monkeypatch):
        tree = full_tree(6)
        g_upper = GeneratorSpec(Abs(ZVar()))
        g_lower = GeneratorSpec(Scale(0.5, Abs(ZVar())))
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, 0.0), bound=0.0)
        sweeps = []
        real_sweep = theorems._sweep

        def batched_sweep(generator, terminal, *args):
            sweeps.append(np.broadcast_shapes(*(v.shape[:-1] for v in terminal.values)))
            return real_sweep(generator, terminal, *args)

        monkeypatch.setattr(theorems, "_sweep", batched_sweep)
        assert converse_probe(g_upper, g_lower, obstacle).value_ordering_holds
        assert sweeps == [(10,)] * 6


def report_bits(report):
    """Every field of a comparison report, floats as hex: equal bits, not just equal values."""
    out = {}
    for name, value in report._asdict().items():
        if isinstance(value, theorems.OrderingCertificate):
            out.update({f"certificate.{k}": v.hex() for k, v in value._asdict().items()})
        else:
            out[name] = value.hex() if isinstance(value, float) else value
    return out


def assert_batch_matches_solo(check, lows, highs, tree):
    """A batched check equals the per-pair solo checks member by member."""
    batched = check(suites._batched(tree, lows), suites._batched(tree, highs)).members()
    solo = [check(side_problem(tree, lo), side_problem(tree, hi)) for lo, hi in zip(lows, highs)]
    assert len(batched) == len(solo) == len(lows)
    for member, alone in zip(batched, solo):
        assert type(alone.max_value_violation) is float and type(alone.vacuous) is bool
        assert report_bits(member) == report_bits(alone)
        assert member.passed is alone.passed
    return solo


def side_problem(tree, side):
    generator, obstacle, leaves = side
    terminal = TerminalCondition.from_leaf_values(tree, leaves)
    return RbsdeProblem(generator, terminal, ObstacleSpec(AdaptedProcess(tree, obstacle)))


def sabotaged(pairs, misordered=3, vacuous=7):
    """Lift one pair's lower terminal above the upper one and reverse another's
    driver gap, keeping one driver structure."""
    pairs = list(pairs)
    (g_lo, s_lo, _), high = pairs[misordered]
    pairs[misordered] = (g_lo, s_lo, high[2] + 0.25), high
    (g_lo, s_lo, xi_lo), (g_hi, s_hi, xi_hi) = pairs[vacuous]
    reversed_gap = GeneratorSpec(Add((g_lo.expr, Const(-0.5))))
    pairs[vacuous] = (g_lo, s_lo, xi_lo), (reversed_gap, s_hi, xi_hi)
    return pairs


class TestBatchedComparison:
    """The batch contract: a batched check is the solo checks, member by member, bit for bit.

    Eleven members run against the 11 x 11 x 11 driver sample of the
    certificate, and one misordered and one vacuous pair keep the compared
    numbers away from all zeros.
    """

    @pytest.mark.parametrize("mode", list(TreeMode))
    def test_value_comparison(self, mode):
        tree = build_tree(TimeGrid(1.0, 6), mode)
        pairs = sabotaged(suites._comparison_instance(5, i, tree) for i in range(11))
        solo = assert_batch_matches_solo(check_comparison, *zip(*pairs), tree)
        assert solo[3].max_value_violation > 0.0 and solo[3].vacuous
        assert solo[7].vacuous and solo[7].certificate.driver_gap_on_grid == pytest.approx(0.5)
        assert sum(r.passed for r in solo) == 9

    def test_push_comparison_on_a_full_binary_tree(self):
        tree = full_tree(6)
        pairs = sabotaged(suites._k_comparison_instance(5, i, tree) for i in range(11))
        solo = assert_batch_matches_solo(check_k_comparison, *zip(*pairs), tree)
        assert solo[3].max_push_violation > 0.0 or solo[3].max_value_violation > 0.0
        assert sum(r.passed for r in solo) == 9

    def test_push_comparison_on_a_recombining_tree(self):
        # time-only data, so every member's pushes can be carried on the recombining tree
        tree = recomb_tree(12)
        rng = np.random.default_rng(2)
        pairs = []
        for _ in range(11):
            g_low, g_high = suites._ordered_generator_pair(rng)
            start, slope = rng.uniform(0.0, 0.5), rng.uniform(1.0, 3.0)
            obstacle = [np.full(i + 1, start - slope * tree.grid.time(i)) for i in range(13)]
            low = rng.uniform(0.0, 0.5)
            high = low + rng.uniform(0.0, 0.5)
            pairs.append(((g_low, obstacle, np.full(13, low)), (g_high, obstacle, np.full(13, high))))
        solo = assert_batch_matches_solo(check_k_comparison, *zip(*sabotaged(pairs)), tree)
        assert solo[3].max_value_violation > 0.0
        assert sum(r.passed for r in solo) == 9

    def test_members_without_carried_pushes_get_their_solo_reports(self):
        # the first member's obstacle never binds; the other two members' pushes
        # differ along the two paths into a node, as in the recombining check above
        tree = recomb_tree(4)
        zero = GeneratorSpec.constant(0.0)
        leaves = np.maximum(tree.brownian_level(4), 0.0)
        never = [np.full(i + 1, -10.0) for i in range(5)]
        binding = [1.0 + tree.brownian_level(i) - tree.grid.time(i) for i in range(5)]
        lows = [(zero, never, leaves), (zero, binding, leaves), (zero, binding, leaves + 0.1)]
        highs = [(zero, never, leaves + 0.1), (zero, binding, leaves + 0.1), (zero, binding, leaves)]
        solo = assert_batch_matches_solo(check_k_comparison, lows, highs, tree)
        assert [r.passed for r in solo] == [True, True, False]
        assert solo[2].max_push_violation > 0.0

    def test_unbatched_reports_are_their_own_only_member(self):
        low, high = counterexample_pair(recomb_tree(20))
        report = check_k_comparison(low, high)
        assert report.members() == [report]
        assert type(report.passed) is bool and type(report.push_difference_monotone) is bool

    def test_level_gaps_keep_a_nan_past_the_first_level(self):
        # a NaN gap reaches the result instead of dropping out, whether the
        # sweep (last level first) meets it first or last
        def stream(*levels):
            return [SimpleNamespace(y=np.asarray(y, dtype=float)) for y in levels]

        zeros = stream([0.0, 0.0], [0.0])
        for a in (stream([np.nan, 1.0], [0.0]), stream([0.0, 1.0], [np.nan])):
            assert all(map(math.isnan, theorems._one_sided_gaps(a, zeros)))
        batched = stream([[np.nan, 1.0], [0.5, 1.0]], [[0.0], [0.0]])
        gap, _ = theorems._one_sided_gaps(batched, zeros)
        assert math.isnan(gap[0]) and gap[1] == 1.0
        assert math.isnan(theorems._nonnegative(math.nan))


class TestBatchedSolve:
    def test_non_affine_members_keep_their_own_fixed_point_counts(self):
        # one unbatched terminal; the batch comes from the driver's column only
        tree = full_tree(5)
        slopes = (0.0, 0.5, 1.5)
        members = [
            GeneratorSpec(Add((Scale(c, Abs(YVar())), Scale(0.5, Abs(ZVar())), Const(1.0))))
            for c in slopes
        ]
        terminal = TerminalCondition.from_leaf_function(tree, lambda b: 1.5 + np.sin(3.0 * b))
        obstacle = ObstacleSpec(
            AdaptedProcess.from_state_function(tree, lambda t, b: 0.5 + 0.5 * b - t)
        )
        batch = solve_rbsde(GeneratorSpec.stack(members), terminal, obstacle)
        counts = []
        for k, member in enumerate(members):
            alone = solve_rbsde(member, terminal, obstacle)
            for field in ("y", "z", "k_increments", "k"):
                for i in range(tree.steps + 1):
                    level = getattr(batch, field).level(i)
                    expected = getattr(alone, field).level(i)
                    assert np.broadcast_to(level, (3, expected.size))[k].tobytes() == expected.tobytes()
            for name, value in alone.diagnostics._asdict().items():
                assert getattr(batch.diagnostics, name)[k].item() == value, name
            counts.append(alone.diagnostics.iterations)
        assert len(set(counts)) == len(slopes)
        assert isinstance(batch.y.root(), np.ndarray) and type(alone.y.root()) is float

    def test_a_batch_from_the_driver_alone_reports_every_member(self):
        tree = recomb_tree(6)
        members = [GeneratorSpec(Add((Scale(a, YVar()), Const(1.0 - a)))) for a in (0.5, -1.0)]
        terminal = TerminalCondition.from_leaf_function(tree, np.cos)
        batch = solve_bsde(GeneratorSpec.stack(members), terminal)
        assert batch.iterations.tolist() == [1, 1] and batch.residual.shape == (2,)
        for k, member in enumerate(members):
            alone = solve_bsde(member, terminal)
            assert batch.y.root()[k].item() == alone.y.root()
            assert batch.residual[k].item() == alone.residual
