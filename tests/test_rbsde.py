import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from rbsde_lab import (
    AdaptedProcess,
    ClosedFormCase,
    DepthExceeded,
    GeneratorSpec,
    NumericalBreakdown,
    ObstacleSpec,
    StoppingRule,
    TerminalBelowObstacle,
    TerminalCondition,
    TimeGrid,
    TreeMismatch,
    TreeMode,
    UnsupportedTreeMode,
    build_tree,
    closed_form_example,
    conditional_g_expectation,
    counterexample_problem,
    enumerate_stopping_oracle,
    exercise_rule,
    freeze_after,
    g_expectation,
    reflected_conditional,
    reflected_value,
    restrict_generator,
    snell_oracle,
    solve_bsde,
    solve_rbsde,
)
from rbsde_lab.generators import Abs, Add, Const, Scale, YVar, ZVar, parse_prefix
from rbsde_lab.market import MarketModel, PayoffKind, quote_strike_family
from rbsde_lab.bsde import LevelData, _implicit_level, _sweep


def full_tree(steps, horizon=1.0):
    return build_tree(TimeGrid(horizon, steps), TreeMode.FULL_BINARY)


def recomb_tree(steps, horizon=1.0):
    return build_tree(TimeGrid(horizon, steps), TreeMode.RECOMBINING)


def low_obstacle(tree, level=-10.0):
    return ObstacleSpec(AdaptedProcess.constant(tree, level))


def solve_case(case, steps):
    tree = recomb_tree(steps)
    problem = counterexample_problem(tree, case)
    return tree, problem, solve_rbsde(problem.generator, problem.terminal, problem.obstacle)


class TestClosedFormReproduction:
    @pytest.mark.parametrize("case", list(ClosedFormCase))
    def test_value_push_and_coefficient(self, case):
        form = closed_form_example(case)
        tree, problem, sol = solve_case(case, 200)
        times = tree.grid.times()
        y = np.array([sol.y.level(i)[0] for i in range(201)])
        k = np.array([sol.k.level(i)[0] for i in range(201)])
        np.testing.assert_allclose(y, form.value(times), atol=2e-3)
        np.testing.assert_allclose(k, form.push(times), atol=2e-3)
        for i in range(201):
            np.testing.assert_array_equal(sol.z.level(i), 0.0)

    def test_contact_region_is_exact_on_the_grid(self):
        form = closed_form_example(ClosedFormCase.CONST_DRIVER_LOW_TERMINAL)
        tree, problem, sol = solve_case(ClosedFormCase.CONST_DRIVER_LOW_TERMINAL, 200)
        gaps = np.array(
            [sol.y.level(i)[0] - problem.obstacle.process.level(i)[0] for i in range(201)]
        )
        contact = np.nonzero(gaps <= 1e-9)[0]
        assert tree.grid.time(contact.max()) == pytest.approx(form.contact_time, abs=tree.grid.dt)
        assert contact.min() == 0

    def test_equal_roots_despite_ordered_terminals(self):
        _, _, sol_low = solve_case(ClosedFormCase.CONST_DRIVER_LOW_TERMINAL, 100)
        _, _, sol_high = solve_case(ClosedFormCase.CONST_DRIVER_HIGH_TERMINAL, 100)
        assert sol_low.y.root() == sol_high.y.root() == 1.0


class TestSolutionStructure:
    def test_never_binding_obstacle_reduces_to_plain_solution(self):
        tree = full_tree(7)
        rng = np.random.default_rng(21)
        g = GeneratorSpec(
            Add((Scale(0.4, YVar()), Scale(-0.3, ZVar()), Const(0.1)))
        )
        xi = TerminalCondition.from_leaf_values(tree, rng.uniform(-1, 1, size=128))
        plain = solve_bsde(g, xi)
        reflected = solve_rbsde(g, xi, low_obstacle(tree))
        for i in range(8):
            np.testing.assert_array_equal(plain.y.level(i), reflected.y.level(i))
            np.testing.assert_array_equal(plain.z.level(i), reflected.z.level(i))
            np.testing.assert_array_equal(reflected.k_increments.level(i), 0.0)
            np.testing.assert_array_equal(reflected.k.level(i), 0.0)

    def test_constant_data_with_low_obstacle(self):
        tree = full_tree(5)
        sol = solve_rbsde(
            GeneratorSpec.constant(0.0),
            TerminalCondition.constant(tree, 0.7),
            low_obstacle(tree),
        )
        for i in range(6):
            np.testing.assert_array_equal(sol.y.level(i), 0.7)
            np.testing.assert_array_equal(sol.z.level(i), 0.0)

    @pytest.mark.parametrize("level", [0, 2])
    def test_declared_bound_rejects_a_nan_obstacle(self, level):
        # a NaN compares false with any bound, whichever level holds it
        tree = recomb_tree(3)
        levels = [np.zeros(tree.level_size(i)) for i in range(4)]
        levels[level][-1] = np.nan
        with pytest.raises(ValueError, match=r"declared bound: max nan > 0\.0"):
            ObstacleSpec(AdaptedProcess(tree, levels), bound=0.0)

    def test_vanishing_driver_preserves_constants_under_reflection(self):
        from rbsde_lab import masked_driver

        tree = full_tree(6)
        g = masked_driver(2.0, 0.5)
        for c in (0.7, 2.0, -0.25):
            value = reflected_value(g, TerminalCondition.constant(tree, c), low_obstacle(tree))
            assert value == c

    def test_domination_and_complementarity_hold_exactly(self):
        tree = full_tree(8)
        rng = np.random.default_rng(22)
        g = GeneratorSpec(Add((Scale(-0.5, YVar()), Scale(0.5, ZVar()))))
        obstacle = ObstacleSpec(
            AdaptedProcess.from_state_function(tree, lambda t, b: 0.3 - 2.0 * t + 0.1 * b)
        )
        xi = TerminalCondition.from_leaf_values(
            tree,
            np.maximum(rng.uniform(-1, 1, size=256), obstacle.process.level(8)),
        )
        sol = solve_rbsde(g, xi, obstacle)
        assert sol.diagnostics.min_gap >= 0.0
        assert sol.diagnostics.skorokhod_residual == 0.0
        assert sol.diagnostics.residual <= 1e-12
        for i in range(9):
            assert np.all(sol.k_increments.level(i) >= 0.0)
            assert np.all(sol.y.level(i) >= obstacle.process.level(i))

    def test_cumulative_push_is_path_consistent(self):
        tree = full_tree(6)
        rng = np.random.default_rng(23)
        obstacle = ObstacleSpec(AdaptedProcess.from_time_function(tree, lambda t: 0.5 - 2.0 * t))
        xi = TerminalCondition.from_leaf_values(
            tree, np.maximum(rng.uniform(-1, 1, size=64), obstacle.process.level(6))
        )
        sol = solve_rbsde(GeneratorSpec.constant(0.0), xi, obstacle)
        k = sol.k
        for i in range(6):
            inc = sol.k_increments.level(i)
            np.testing.assert_array_equal(
                k.level(i + 1), np.repeat(k.level(i) + inc, 2)
            )
        assert k.root() == 0.0

    def test_terminal_below_obstacle_is_rejected(self):
        tree = full_tree(4)
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, 1.0))
        with pytest.raises(TerminalBelowObstacle):
            solve_rbsde(
                GeneratorSpec.constant(0.0),
                TerminalCondition.constant(tree, 0.5),
                obstacle,
            )

    def test_terminal_below_obstacle_at_an_interior_stop_is_rejected(self):
        # paths 00 and 11 stop at level 2; node 3 stops below the obstacle there
        tree = full_tree(4)
        flags = [np.zeros(tree.level_size(i), dtype=bool) for i in range(5)]
        flags[2][[0, 3]] = True
        levels = [np.full(tree.level_size(i), 2.0) for i in range(5)]
        levels[2][3] = 0.5
        xi = TerminalCondition.at_rule(tree, StoppingRule(tree, flags), levels)
        with pytest.raises(TerminalBelowObstacle, match="at level 2"):
            solve_rbsde(
                GeneratorSpec.constant(0.0),
                xi,
                ObstacleSpec(AdaptedProcess.constant(tree, 1.0)),
            )


    def test_nan_obstacle_is_a_numerical_breakdown(self):
        # ObstacleSpec refuses such a process, so it goes to the kernel directly
        tree = recomb_tree(4)
        levels = [np.full(tree.level_size(i), -1.0) for i in range(tree.steps + 1)]
        levels[2][1] = np.nan
        process = AdaptedProcess(tree, levels)
        with pytest.raises(ValueError, match="non-finite obstacle at level 2"):
            ObstacleSpec(process)
        sweep = _sweep(GeneratorSpec.constant(0.0), TerminalCondition.constant(tree, 0.0), process)
        with pytest.raises(NumericalBreakdown, match="level 2"):
            for _ in sweep:
                pass

    @pytest.mark.parametrize("value, bound", [(np.inf, None), (-np.inf, None), (-np.inf, 1.0)])
    def test_obstacle_spec_refuses_non_finite_values(self, value, bound):
        # -inf stays below any bound, so only the finiteness check refuses it there
        tree = recomb_tree(3)
        levels = [np.full(tree.level_size(i), -1.0) for i in range(tree.steps + 1)]
        levels[1][0] = value
        with pytest.raises(ValueError, match="non-finite obstacle at level 1"):
            ObstacleSpec(AdaptedProcess(tree, levels), bound=bound)


    @pytest.mark.parametrize(
        "generator, leaves, floor, level_two, match",
        [
            ("0.0", None, -10.0, -np.inf, "non-finite obstacle at level 2"),
            ("(* 1e308 (* 1e308 (abs z)))", None, -10.0, -10.0, "non-finite value at level 3"),
            ("(* 0.0 (* 1e308 (* 1e308 (abs z))))", None, -10.0, -10.0, "non-finite value at level 3"),
            # children of +-1.7e308 overflow the difference quotient
            ("0.0", [1.7e308, -1.7e308] * 2 + [1.7e308], -1.79e308, -1.79e308,
             "non-finite coefficient at level 3"),
        ],
    )
    def test_each_non_finite_kind_is_named_with_its_level(
        self, generator, leaves, floor, level_two, match
    ):
        # the obstacle goes to the kernel as a process: ObstacleSpec refuses an -inf level
        tree = recomb_tree(4)
        levels = [
            np.full(tree.level_size(i), level_two if i == 2 else floor)
            for i in range(tree.steps + 1)
        ]
        terminal = (
            TerminalCondition.from_leaf_function(tree, np.abs)
            if leaves is None
            else TerminalCondition.from_leaf_values(tree, leaves)
        )
        sweep = _sweep(GeneratorSpec(parse_prefix(generator)), terminal, AdaptedProcess(tree, levels))
        with pytest.raises(NumericalBreakdown, match=match):
            for _ in sweep:
                pass

    def test_finite_data_whose_gap_plus_coefficient_overflows_solves(self):
        # at the root y - S = 1.3e308 and z = 0.8e308: each finite, their sum not
        tree = build_tree(TimeGrid(1.0, 1), TreeMode.RECOMBINING)
        obstacle = AdaptedProcess(tree, [np.array([-0.5e308]), np.zeros(2)])
        sol = solve_rbsde(
            GeneratorSpec.constant(0.0),
            TerminalCondition.from_leaf_values(tree, [0.0, 1.6e308]),
            ObstacleSpec(obstacle),
        )
        assert sol.y.root() == 0.8e308
        assert sol.z.level(0)[0] == 0.8e308
        diag = sol.diagnostics
        assert diag.min_gap == 0.0 and diag.skorokhod_residual == 0.0

    def test_non_finite_push_increment_is_a_numerical_breakdown(self):
        # the driver step sends the value to -inf; the clamped y stays finite
        tree = build_tree(TimeGrid(10.0, 2), TreeMode.RECOMBINING)
        with pytest.raises(NumericalBreakdown, match="non-finite push increment at level 1"):
            solve_rbsde(
                GeneratorSpec.constant(-1.7e308),
                TerminalCondition.constant(tree, 1.0),
                ObstacleSpec(AdaptedProcess.constant(tree, 0.0)),
            )

    def test_overflowing_gap_leaves_a_zero_skorokhod_residual(self):
        # y - S = 8e307 + 1.7e308 overflows, but no node is pushed
        tree = recomb_tree(4)
        sol = solve_rbsde(
            GeneratorSpec.constant(0.0),
            TerminalCondition.constant(tree, 8e307),
            ObstacleSpec(AdaptedProcess.constant(tree, -1.7e308)),
        )
        assert sol.diagnostics.skorokhod_residual == 0.0
        assert sol.diagnostics.min_gap == np.inf


class TestSolutionStorage:
    @pytest.mark.parametrize("mode", list(TreeMode))
    def test_solution_levels_are_read_only(self, mode):
        tree = build_tree(TimeGrid(1.0, 6), mode)
        problem = counterexample_problem(tree, ClosedFormCase.CONST_DRIVER_LOW_TERMINAL)
        sol = solve_rbsde(problem.generator, problem.terminal, problem.obstacle)
        for process in (sol.y, sol.z, sol.k_increments, sol.k):
            for level in process.levels():
                assert not level.flags.writeable

    def test_counterexample_memory_peak_is_three_kept_processes(self):
        # y, z and the push increments are the only lattices a solve has to
        # hold; constant data, masks and the recombining cumulative push are
        # one-cell views, and solver levels are not copied into processes
        steps = 1000
        tree = recomb_tree(steps)
        kept_bytes = 3 * 8 * (steps + 1) * (steps + 2) // 2
        tracemalloc.start()
        try:
            problem = counterexample_problem(tree, ClosedFormCase.CONST_DRIVER_LOW_TERMINAL)
            solve_rbsde(problem.generator, problem.terminal, problem.obstacle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * kept_bytes


def _solution_sha256(sol):
    digest = hashlib.sha256()
    for process in (sol.y, sol.z, sol.k_increments):
        for i in range(process.tree.steps + 1):
            digest.update(process.level(i).tobytes())
    digest.update(repr(sol.diagnostics).encode())
    return digest.hexdigest()


def _partial_rule_full_binary_problem():
    tree = full_tree(8)
    rng = np.random.default_rng(11)
    rule = StoppingRule(
        tree,
        [rng.random(tree.level_size(i)) < (0.15 if i >= 3 else 0.0) for i in range(tree.steps + 1)],
    )
    generator = GeneratorSpec(parse_prefix("(+ (min y z) (* -1.5 (abs y)))"))
    terminal = TerminalCondition.at_rule(tree, rule, lambda i, b: 1.2 + np.abs(b) - 0.1 * i)
    obstacle = AdaptedProcess.from_state_function(tree, lambda t, b: 0.9 + 0.3 * b - t)
    return generator, terminal, ObstacleSpec(obstacle)


def _plain_solution_sha256(sol):
    digest = hashlib.sha256()
    for process in (sol.y, sol.z):
        for i in range(process.tree.steps + 1):
            digest.update(process.level(i).tobytes())
    digest.update(repr((sol.iterations, sol.residual)).encode())
    return digest.hexdigest()


def _affine_recombining_problem():
    tree = recomb_tree(60)
    generator = GeneratorSpec(parse_prefix("(+ 0.1 (* 0.3 y) (* -0.5 z))"))
    terminal = TerminalCondition.from_leaf_function(tree, lambda b: 1.0 + np.abs(b))
    return generator, terminal


def _level_rule_recombining_problem():
    tree = recomb_tree(60)
    rule = StoppingRule.at_level(tree, 45)
    generator = GeneratorSpec(parse_prefix("(+ (min y z) (* -1.5 (abs y)))"))
    terminal = TerminalCondition.at_rule(tree, rule, lambda i, b: 1.0)
    obstacle = AdaptedProcess.from_state_function(
        tree, lambda t, b: 1.2 - 0.5 * np.abs(b) - 0.3 * t
    )
    return generator, terminal, ObstacleSpec(obstacle)


class TestPinnedSolutions:
    """SHA-256 of every level of y, z and the push increments plus the
    diagnostics, for stopping rules that leave levels with and without
    stopped nodes; any change to the sweep's arithmetic moves the digest."""

    @pytest.mark.parametrize(
        "problem, expected",
        [
            (
                _partial_rule_full_binary_problem,
                "53c08af0b9b04895a7a37688e0cbb90ad45b29f1a7c1ad14bb295448e3699a24",
            ),
            (
                _level_rule_recombining_problem,
                "6d35566883ccb97e9c1a652fe8b898d3510b4ba8bd398ee91a918291c23c5d4d",
            ),
        ],
    )
    def test_solution_digest_is_pinned(self, problem, expected):
        sol = solve_rbsde(*problem())
        assert sol.diagnostics.max_increment > 0.0 and sol.diagnostics.iterations > 1
        assert _solution_sha256(sol) == expected

    @pytest.mark.parametrize(
        "problem, expected",
        [
            (
                lambda: _partial_rule_full_binary_problem()[:2],
                "1f7200161b7b4716c545a2e748627d7106ac50bf97e3ddb32ccbb353b8770920",
            ),
            (
                _affine_recombining_problem,
                "eb0941890af09b4d4c323d137f6e8e0e8bed4c49f6208c33992b64b3861f8d2b",
            ),
        ],
    )
    def test_plain_solution_digest_is_pinned(self, problem, expected):
        sol = solve_bsde(*problem())
        assert sol.residual > 0.0
        assert _plain_solution_sha256(sol) == expected

    def test_root_only_values_match_full_solves_bit_for_bit(self):
        problem = _partial_rule_full_binary_problem()
        reflected = solve_rbsde(*problem).y.root()
        assert reflected_value(*problem).hex() == reflected.hex()
        plain = solve_bsde(*problem[:2]).y.root()
        assert g_expectation(*problem[:2]).hex() == plain.hex()
        assert plain != reflected


class TestLevelStream:
    """A sweep yields each final level once, from the last level down to the
    root, frozen; nothing a consumer does feeds back into it."""

    @staticmethod
    def _levels(sweep):
        levels = []
        for level in sweep:
            for array in level[1:]:
                if isinstance(array, np.ndarray):
                    assert not array.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 0
            with pytest.raises(AttributeError):
                level.y = None
            levels.append(level)
        return levels

    def test_reflected_sweep_hands_over_the_full_solution(self):
        generator, terminal, obstacle = problem = _partial_rule_full_binary_problem()
        sol = solve_rbsde(*problem)
        seen = self._levels(_sweep(generator, terminal, obstacle.process))
        assert [level.i for level in seen] == list(range(8, -1, -1))
        for level in seen:
            np.testing.assert_array_equal(level.y, sol.y.level(level.i))
            np.testing.assert_array_equal(level.z, sol.z.level(level.i))
            np.testing.assert_array_equal(level.dk, sol.k_increments.level(level.i))
            np.testing.assert_array_equal(level.s, obstacle.process.level(level.i))
        root = seen[-1]
        assert float(root.y[0]).hex() == sol.y.root().hex()
        assert any(level.dk.any() for level in seen)
        assert max(level.iterations for level in seen) == sol.diagnostics.iterations > 1

    def test_iterations_are_each_levels_own_count(self):
        generator, terminal, obstacle = _partial_rule_full_binary_problem()
        tree = terminal.tree
        seen = self._levels(_sweep(generator, terminal, obstacle.process))
        assert seen[0].iterations == 0  # the last level takes no step
        for level in seen:
            if level.i < terminal.rule.first_stop_level:  # no stop overrides z
                t = tree.grid.time(level.i)
                step, count = _implicit_level(
                    generator, t, level.mean, level.z, tree.grid.dt, tree, level.i
                )
                np.testing.assert_array_equal(step, level.step)
                assert count == level.iterations
        counts = [int(level.iterations) for level in seen]
        # not a running maximum: a later level may need fewer iterations
        assert counts != sorted(counts) and counts[-1] > 1

    def test_reflected_sweep_hands_over_the_step_before_the_clamp(self):
        generator, terminal, obstacle = _partial_rule_full_binary_problem()
        seen = self._levels(_sweep(generator, terminal, obstacle.process))
        assert (seen[0].mean, seen[0].step) == (None, None)  # the last level takes no step
        for level in seen[1:]:
            active = ~terminal.rule.stopped_by_level[level.i]
            assert level.mean.shape == level.y.shape
            if level.step is None:
                assert not active.any()
                continue
            clamped = np.maximum(level.step, obstacle.process.level(level.i))
            np.testing.assert_array_equal(level.y[active], clamped[active])
            np.testing.assert_array_equal(level.dk[active], (clamped - level.step)[active])

    def test_plain_sweep_has_no_push(self):
        generator, terminal = _affine_recombining_problem()
        tree = terminal.tree
        sol = solve_bsde(generator, terminal)
        seen = self._levels(_sweep(generator, terminal))
        assert [level.i for level in seen] == list(range(60, -1, -1))
        for level in seen:
            assert level.dk is None and level.s is None
            assert level.iterations == (0 if level.i == tree.steps else 1)
            np.testing.assert_array_equal(level.y, sol.y.level(level.i))
            np.testing.assert_array_equal(level.z, sol.z.level(level.i))
            if level.i < tree.steps:  # no clamp and no stop: the step is the value
                np.testing.assert_array_equal(level.step, level.y)
        assert float(seen[-1].y[0]).hex() == sol.y.root().hex()
        assert sol.iterations == 1

    def test_a_sweep_runs_nothing_until_it_is_read(self):
        tree = recomb_tree(4)
        elsewhere = AdaptedProcess.constant(recomb_tree(5), 0.0)
        sweep = _sweep(GeneratorSpec.constant(0.0), TerminalCondition.constant(tree, 1.0), elsewhere)
        with pytest.raises(TreeMismatch):
            next(sweep)


class TestWarningState:
    """The sweep silences its own arithmetic one level at a time, so the
    caller's warning setting holds between levels and after the sweep, however
    the sweep ends.  The caller here raises on every floating-point fault, so
    a silence that failed inside the sweep would raise as well."""

    CALLER = {"divide": "raise", "over": "raise", "under": "ignore", "invalid": "raise"}

    @staticmethod
    def _overflowing(tree):
        # y - S = 8e307 + 1.7e308 overflows on every level; the sweep still ends
        return (
            GeneratorSpec.constant(0.0),
            TerminalCondition.constant(tree, 8e307),
            AdaptedProcess.constant(tree, -1.7e308),
        )

    def test_a_sweep_run_to_the_end(self):
        with np.errstate(**self.CALLER):
            for level in _sweep(*self._overflowing(recomb_tree(4))):
                assert np.geterr() == self.CALLER
            assert level.i == 0 and np.geterr() == self.CALLER

    def test_a_sweep_abandoned_midway(self):
        with np.errstate(**self.CALLER):
            sweep = _sweep(*self._overflowing(recomb_tree(6)))
            for level in sweep:
                if level.i == 3:
                    break
            assert np.geterr() == self.CALLER
            sweep.close()
            assert np.geterr() == self.CALLER

    def test_two_zipped_sweeps(self):
        tree = recomb_tree(5)
        generator, terminal, obstacle = self._overflowing(tree)
        other = TerminalCondition.constant(tree, 1e307)
        with np.errstate(**self.CALLER):
            sweeps = (_sweep(generator, data, obstacle) for data in (terminal, other))
            for a, b in zip(*sweeps):
                assert a.i == b.i and np.geterr() == self.CALLER
            assert np.geterr() == self.CALLER

    def test_a_leaf_lift_that_overflows(self):
        # the stock at level 1300 multiplies inf by 0 at some nodes; the lift
        # before the first level is silenced too, so that is a typed error
        model = MarketModel(
            spot=100.0, drift=0.0, volatility=35.3, rate=0.0, strike=100.0, kind=PayoffKind.PUT
        )
        with np.errstate(**self.CALLER):
            with pytest.raises(NumericalBreakdown, match="non-finite obstacle at level 1300"):
                quote_strike_family(recomb_tree(1300), model, [100.0])
            assert np.geterr() == self.CALLER

    def test_a_sweep_that_breaks_down(self):
        tree = build_tree(TimeGrid(10.0, 2), TreeMode.RECOMBINING)
        sweep = _sweep(
            GeneratorSpec.constant(-1.7e308),
            TerminalCondition.constant(tree, 1.0),
            AdaptedProcess.constant(tree, 0.0),
        )
        with np.errstate(**self.CALLER):
            with pytest.raises(NumericalBreakdown, match="non-finite push increment at level 1"):
                for _ in sweep:
                    assert np.geterr() == self.CALLER
            assert np.geterr() == self.CALLER


class TestBatchedSweep:
    def test_members_match_their_own_solves_bit_for_bit(self):
        tree = full_tree(6)
        # not affine in y, so every level runs the fixed-point iteration
        generator = GeneratorSpec(parse_prefix("(+ (min y z) (* 0.5 (abs y)))"))
        shifts = (0.0, 0.4, -0.3)
        terminals = [
            TerminalCondition.from_leaf_function(tree, lambda b, c=c: c + np.abs(b))
            for c in shifts
        ]
        obstacles = [
            AdaptedProcess.from_state_function(tree, lambda t, b, c=c: c - 0.5 + 0.3 * b - t)
            for c in shifts
        ]
        levels = range(tree.steps + 1)
        stacked_terminal = [np.stack([tc.extended[i] for tc in terminals]) for i in levels]
        stacked_obstacle = [np.stack([s.level(i) for s in obstacles]) for i in levels]
        *_, batch = seen = list(
            _sweep(
                generator,
                LevelData(tree, stacked_terminal.__getitem__),
                LevelData(tree, stacked_obstacle.__getitem__),
            )
        )
        counts = functools.reduce(np.maximum, (level.iterations for level in seen))
        # the root-only sweep keeps no diagnostics; a batched full solve has them
        batch_diag = solve_rbsde(
            generator,
            TerminalCondition.from_leaf_values(tree, stacked_terminal[-1]),
            ObstacleSpec(AdaptedProcess(tree, stacked_obstacle)),
        ).diagnostics
        for k, (terminal, process) in enumerate(zip(terminals, obstacles)):
            obstacle = ObstacleSpec(process)
            sol = solve_rbsde(generator, terminal, obstacle)
            diag = sol.diagnostics
            assert float(batch.y[k, 0]).hex() == sol.y.root().hex()
            for level in seen:
                np.testing.assert_array_equal(level.s[k], process.level(level.i))
            assert counts[k] == diag.iterations == batch_diag.iterations[k]
            for name in ("residual", "min_gap", "max_increment", "skorokhod_residual"):
                assert float(getattr(batch_diag, name)[k]).hex() == getattr(diag, name).hex(), name
            assert diag.skorokhod_residual == 0.0
        assert len(set(counts.tolist())) > 1


class TestDiagnosticsCost:
    """Root-only sweeps of an affine driver never evaluate it: the step is
    closed through ``y_affine``, and the residual replay, the one evaluation
    per level, runs only in the full solvers."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        evaluate = GeneratorSpec.evaluate

        def counted(self, t, y, z, **node):
            calls.append(node["level"])
            return evaluate(self, t, y, z, **node)

        monkeypatch.setattr(GeneratorSpec, "evaluate", counted)
        return calls

    def test_root_only_sweeps_make_no_driver_evaluation(self, monkeypatch):
        generator, terminal = _affine_recombining_problem()
        tree = terminal.tree
        obstacle = low_obstacle(tree, 1.0)
        model = MarketModel(spot=100.0, drift=0.08, volatility=0.2, rate=0.02, strike=100.0)
        calls = self._counting(monkeypatch)
        quote_strike_family(tree, model, [90.0, 100.0, 110.0])
        reflected_value(generator, terminal, obstacle)
        g_expectation(generator, terminal)
        assert calls == []

    def test_full_solves_replay_one_evaluation_per_active_level(self, monkeypatch):
        generator, terminal = _affine_recombining_problem()
        tree = terminal.tree
        calls = self._counting(monkeypatch)
        solve_rbsde(generator, terminal, low_obstacle(tree, 1.0))
        assert calls == list(range(tree.steps - 1, -1, -1))
        calls.clear()
        solve_bsde(generator, terminal)
        assert calls == list(range(tree.steps - 1, -1, -1))
        # from level 45 on every node has stopped: no step, so no replay
        stopped = TerminalCondition.at_rule(tree, StoppingRule.at_level(tree, 45), lambda i, b: 1.0)
        calls.clear()
        solve_rbsde(generator, stopped, low_obstacle(tree, 1.0))
        assert calls == list(range(44, -1, -1))


class TestOracles:
    def test_snell_matches_reflected_solver_exactly(self):
        tree = full_tree(8)
        rng = np.random.default_rng(31)
        obstacle = ObstacleSpec(
            AdaptedProcess.from_state_function(tree, lambda t, b: 0.5 * np.abs(b) - t)
        )
        xi = TerminalCondition.from_leaf_values(
            tree, np.maximum(rng.normal(size=256), obstacle.process.level(8))
        )
        sol = solve_rbsde(GeneratorSpec.constant(0.0), xi, obstacle)
        snell = snell_oracle(xi, obstacle)
        for i in range(9):
            np.testing.assert_array_equal(sol.y.level(i), snell.level(i))

    def test_snell_with_low_obstacle_is_plain_martingale(self):
        tree = full_tree(6)
        rng = np.random.default_rng(32)
        leaves = rng.normal(size=64)
        xi = TerminalCondition.from_leaf_values(tree, leaves)
        snell = snell_oracle(xi, low_obstacle(tree))
        assert snell.root() == pytest.approx(tree.expectation(leaves, 6), abs=1e-13)

    def test_enumeration_includes_trivial_rules(self):
        tree = full_tree(3)
        obstacle = ObstacleSpec(
            AdaptedProcess.from_state_function(tree, lambda t, b: 0.5 * np.abs(b))
        )
        xi = TerminalCondition.from_leaf_function(
            tree, lambda b: np.maximum(np.maximum(b, 0.0), 0.5 * np.abs(b))
        )
        best = enumerate_stopping_oracle(xi, obstacle)
        assert best >= obstacle.process.root()  # stop-at-root rule
        assert best >= tree.expectation(xi.extended[3], 3) - 1e-13  # never-stop rule
        snell = snell_oracle(xi, obstacle)
        assert best == pytest.approx(snell.root(), abs=1e-12)

    def test_enumeration_depth_guard(self):
        tree = full_tree(5)
        xi = TerminalCondition.constant(tree, 1.0)
        with pytest.raises(DepthExceeded):
            enumerate_stopping_oracle(xi, low_obstacle(tree))

    def test_snell_rejects_a_terminal_below_the_obstacle(self):
        tree = full_tree(3)
        obstacle = ObstacleSpec(AdaptedProcess.constant(tree, 1.0))
        with pytest.raises(TerminalBelowObstacle):
            snell_oracle(TerminalCondition.constant(tree, 0.0), obstacle)

    def test_enumeration_needs_a_full_binary_tree_and_plain_terminal_data(self):
        tree = recomb_tree(3)
        plain = TerminalCondition.constant(tree, 1.0)
        with pytest.raises(UnsupportedTreeMode, match="full-binary"):
            enumerate_stopping_oracle(plain, low_obstacle(tree))
        tree = full_tree(3)
        stopped = TerminalCondition.constant(tree, 1.0, StoppingRule.at_level(tree, 2))
        with pytest.raises(UnsupportedTreeMode, match="plain terminal data"):
            enumerate_stopping_oracle(stopped, low_obstacle(tree))


class TestTreeMismatch:
    """Terminal data, obstacle and terminal rule must live on one tree."""

    def test_solvers_and_oracles_refuse_an_obstacle_on_another_tree(self):
        # same steps and mode, another horizon: a different tree
        tree, other = full_tree(3, horizon=1.0), full_tree(3, horizon=2.0)
        terminal = TerminalCondition.constant(tree, 0.5)
        obstacle = ObstacleSpec(AdaptedProcess.constant(other, 0.2))
        zero = GeneratorSpec.constant(0.0)
        calls = (
            lambda: solve_rbsde(zero, terminal, obstacle),
            lambda: reflected_value(zero, terminal, obstacle),
            lambda: snell_oracle(terminal, obstacle),
            lambda: enumerate_stopping_oracle(terminal, obstacle),
        )
        for call in calls:
            with pytest.raises(TreeMismatch, match="terminal condition and obstacle must share"):
                call()

    def test_terminal_rule_must_live_on_the_data_tree(self):
        tree, other = full_tree(3, horizon=1.0), full_tree(3, horizon=2.0)
        levels = [np.full(tree.level_size(i), 0.5) for i in range(tree.steps + 1)]
        with pytest.raises(TreeMismatch, match="terminal rule lives on a different tree"):
            TerminalCondition(tree, StoppingRule.terminal(other), levels)


class TestExerciseRule:
    def test_closed_form_contact_starts_at_the_root(self):
        tree, problem, sol = solve_case(ClosedFormCase.CONST_DRIVER_LOW_TERMINAL, 50)
        rule = exercise_rule(sol, problem.obstacle)
        assert bool(rule.flags(0)[0])

    def test_low_obstacle_never_exercises(self):
        tree = full_tree(6)
        rng = np.random.default_rng(41)
        obstacle = low_obstacle(tree)
        xi = TerminalCondition.from_leaf_values(tree, rng.uniform(0, 1, size=64))
        sol = solve_rbsde(GeneratorSpec.constant(0.0), xi, obstacle)
        rule = exercise_rule(sol, obstacle)
        assert np.all(rule.leaf_stop_levels == 6)


class TestConditionalAndRestriction:
    def test_conditional_at_root_and_terminal(self):
        tree = full_tree(6)
        rng = np.random.default_rng(51)
        obstacle = ObstacleSpec(AdaptedProcess.from_time_function(tree, lambda t: -1.0 - t))
        leaves = rng.uniform(-0.5, 0.5, size=64)
        xi = TerminalCondition.from_leaf_values(tree, leaves)
        g = GeneratorSpec(Scale(0.4, ZVar()))
        at_root = reflected_conditional(g, xi, obstacle, StoppingRule.root(tree))
        assert at_root[(0, 0)] == reflected_value(g, xi, obstacle)
        at_end = reflected_conditional(g, xi, obstacle, StoppingRule.terminal(tree))
        for (level, node), value in at_end.items():
            assert value == leaves[node]

    @pytest.mark.parametrize("reflected", [False, True], ids=["plain", "reflected"])
    def test_batched_terminal_gathers_one_entry_per_member(self, reflected):
        tree = full_tree(6)
        rng = np.random.default_rng(53)
        flags = [rng.random(tree.level_size(i)) < 0.3 for i in range(7)]
        flags[0][0] = False  # stop past the root on every path
        at = StoppingRule(tree, flags)
        leaves = rng.uniform(-0.3, 0.5, size=(3, 64))
        g = GeneratorSpec(Add((Scale(0.4, Abs(ZVar())), Scale(-0.3, YVar()))))
        obstacle = ObstacleSpec(AdaptedProcess.from_time_function(tree, lambda t: 0.2 - 0.5 * t))

        def conditional(terminal):
            if reflected:
                return reflected_conditional(g, terminal, obstacle, at)
            return conditional_g_expectation(g, terminal, at)

        batched = conditional(TerminalCondition.from_leaf_values(tree, leaves))
        solo = [conditional(TerminalCondition.from_leaf_values(tree, row)) for row in leaves]
        assert len(batched) > 1 and all(alone.keys() == batched.keys() for alone in solo)
        assert all(type(value) is float for alone in solo for value in alone.values())
        for key, members in batched.items():
            assert members.shape == (3,)
            assert [v.hex() for v in members.tolist()] == [alone[key].hex() for alone in solo]

    def test_frozen_obstacle_identity(self):
        # solving up to a rule equals the full-horizon solve with the gated
        # driver and the obstacle frozen at the rule
        rng = np.random.default_rng(52)
        tree = full_tree(10)
        for _ in range(5):
            flags = [rng.random(tree.level_size(i)) < 0.2 for i in range(11)]
            rule = StoppingRule(tree, flags)
            g = GeneratorSpec(
                Add((Scale(0.5, YVar()), Scale(-0.5, ZVar()), Const(0.2)))
            )
            obstacle = ObstacleSpec(
                AdaptedProcess.from_state_function(
                    tree, lambda t, b: 0.2 - 1.5 * t + 0.1 * b
                )
            )
            data = [
                obstacle.process.level(i) + rng.uniform(0, 1, size=tree.level_size(i))
                for i in range(11)
            ]
            xi = TerminalCondition.at_rule(tree, rule, data)
            direct = solve_rbsde(g, xi, obstacle)
            frozen = ObstacleSpec(freeze_after(obstacle.process, rule))
            gated = solve_rbsde(restrict_generator(g, rule), xi.as_full_horizon(), frozen)
            for i in range(11):
                np.testing.assert_array_equal(direct.y.level(i), gated.y.level(i))
                np.testing.assert_array_equal(
                    direct.k_increments.level(i), gated.k_increments.level(i)
                )
