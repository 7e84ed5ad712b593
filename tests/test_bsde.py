import ast
import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import rbsde_lab
from rbsde_lab import (
    AdaptedProcess,
    ContractionViolated,
    GeneratorSpec,
    NonConvergence,
    NumericalBreakdown,
    RuleOrderViolated,
    StoppingRule,
    TerminalCondition,
    TimeGrid,
    TreeMode,
    UnsupportedTreeMode,
    backward_expectation,
    build_tree,
    conditional_g_expectation,
    g_expectation,
    restrict_generator,
    solve_bsde,
)
from rbsde_lab.generators import Abs, Add, Const, Min, NegPart, Scale, YVar, ZVar, parse_prefix


def full_tree(steps, horizon=1.0):
    return build_tree(TimeGrid(horizon, steps), TreeMode.FULL_BINARY)


def zero_driver():
    return GeneratorSpec.constant(0.0)


class TestSolveBsde:
    def test_driverless_solution_is_the_martingale(self):
        tree = full_tree(7)
        rng = np.random.default_rng(0)
        leaves = rng.normal(size=128)
        sol = solve_bsde(zero_driver(), TerminalCondition.from_leaf_values(tree, leaves))
        martingale = backward_expectation(tree, leaves)
        for i in range(8):
            np.testing.assert_array_equal(sol.y.level(i), martingale.level(i))

    def test_constant_driver_closed_form(self):
        # driver 1/3 with terminal 1/3 integrates to 2/3 - t/3 on every node
        tree = build_tree(TimeGrid(1.0, 50), TreeMode.RECOMBINING)
        sol = solve_bsde(GeneratorSpec.constant(1 / 3), TerminalCondition.constant(tree, 1 / 3))
        for i in range(51):
            t = tree.grid.time(i)
            np.testing.assert_allclose(sol.y.level(i), 2 / 3 - t / 3, atol=1e-13)
            np.testing.assert_array_equal(sol.z.level(i), 0.0)
        assert sol.y.root() == pytest.approx(2 / 3, abs=1e-13)

    def test_linear_coefficient_driver_shifts_the_walk_mean(self):
        # driver theta * z prices the walk itself at theta * T
        theta = 0.3
        tree = build_tree(TimeGrid(1.0, 1000), TreeMode.RECOMBINING)
        g = GeneratorSpec(Scale(theta, ZVar()))
        xi = TerminalCondition.from_leaf_function(tree, lambda b: b)
        assert g_expectation(g, xi) == pytest.approx(theta, abs=5e-3)

    def test_one_step_residual_within_tolerance(self):
        tree = full_tree(8)
        rng = np.random.default_rng(5)
        g = GeneratorSpec(
            Add((Scale(0.4, Abs(YVar())), Scale(0.5, Abs(ZVar())), Const(0.1)))
        )
        xi = TerminalCondition.from_leaf_values(tree, rng.uniform(-1, 1, size=256))
        sol = solve_bsde(g, xi)
        assert sol.residual <= 1e-12
        assert sol.iterations <= 200

    def test_terminal_values_returned_exactly(self):
        tree = full_tree(5)
        rng = np.random.default_rng(6)
        leaves = rng.uniform(-3, 3, size=32)
        sol = solve_bsde(GeneratorSpec.constant(0.2), TerminalCondition.from_leaf_values(tree, leaves))
        np.testing.assert_array_equal(sol.y.level(5), leaves)

    def test_contraction_guard(self):
        tree = build_tree(TimeGrid(4.0, 2), TreeMode.FULL_BINARY)  # dt = 2
        g = GeneratorSpec(Scale(0.6, YVar()))  # L*dt = 1.2
        with pytest.raises(ContractionViolated):
            solve_bsde(g, TerminalCondition.constant(tree, 1.0))

    def test_a_slope_read_off_the_driver_is_guarded(self):
        # the slope 1.5 of 1.5|y| is read off the expression, so dt = 1 is
        # refused before the fixed-point iteration could diverge
        tree = build_tree(TimeGrid(2.0, 2), TreeMode.FULL_BINARY)  # dt = 1
        g = GeneratorSpec(Scale(1.5, Abs(YVar())))
        with pytest.raises(ContractionViolated, match=r"^lipschitz \* dt = 1.5 >= 1; refine"):
            solve_bsde(g, TerminalCondition.constant(tree, 1.0))

    @pytest.mark.parametrize("slopes", [(0.5, 0.9), (0.5, 1.5), (1.5, 0.5)])
    def test_a_batch_is_refused_exactly_when_a_member_is(self, slopes):
        # dt = 1: each member's own slope in y decides, not the column's sum or order
        tree = build_tree(TimeGrid(2.0, 2), TreeMode.FULL_BINARY)
        terminal = TerminalCondition.constant(tree, 1.0)
        members = [GeneratorSpec(Add((Scale(c, YVar()), Scale(0.5, ZVar())))) for c in slopes]
        refused = []
        for member in members:
            try:
                solve_bsde(member, terminal)
            except ContractionViolated as exc:
                refused.append(str(exc))
        if refused:
            with pytest.raises(ContractionViolated) as caught:
                solve_bsde(GeneratorSpec.stack(members), terminal)
            assert str(caught.value) == refused[0] == "lipschitz * dt = 1.5 >= 1; refine the grid"
        else:
            solve_bsde(GeneratorSpec.stack(members), terminal)

    def test_a_slow_contraction_hits_iteration_cap(self):
        # 0.99|y| passes the guard at dt = 1 but contracts too slowly for the cap
        tree = build_tree(TimeGrid(2.0, 2), TreeMode.FULL_BINARY)
        g = GeneratorSpec(Scale(0.99, Abs(YVar())))
        with pytest.raises(NonConvergence, match="did not reach 1e-12 in 200 iterations"):
            solve_bsde(g, TerminalCondition.constant(tree, 1.0))

    def test_overflowing_driver_is_a_numerical_breakdown(self):
        tree = build_tree(TimeGrid(1.0, 4), TreeMode.RECOMBINING)
        g = GeneratorSpec(parse_prefix("(* 1e308 (* 1e308 (abs z)))"))
        xi = TerminalCondition.from_leaf_function(tree, lambda b: b)
        with pytest.raises(NumericalBreakdown, match="non-finite value at level 3"):
            solve_bsde(g, xi)


class TestLevelStorage:
    def test_constant_terminal_levels_share_one_read_only_cell(self):
        tree = full_tree(4)
        values = TerminalCondition.constant(tree, 3.0).values
        for i, level in enumerate(values):
            assert level.shape == (tree.level_size(i),) and np.all(level == 3.0)
            assert not level.flags.writeable and level.strides == (0,)
            assert np.shares_memory(level, values[0])

    def test_unstopped_extended_levels_are_nan_views(self):
        tree = full_tree(4)
        extended = TerminalCondition.from_leaf_values(tree, np.arange(16.0)).extended
        for level in extended[1:-1]:
            assert np.all(np.isnan(level)) and level.strides == (0,)
        np.testing.assert_array_equal(extended[-1], np.arange(16.0))

    def test_solution_levels_are_read_only(self):
        tree = full_tree(4)
        xi = TerminalCondition.from_leaf_values(tree, np.linspace(-1.0, 1.0, 16))
        sol = solve_bsde(GeneratorSpec(Abs(ZVar())), xi)
        for level in sol.y.levels() + sol.z.levels():
            assert not level.flags.writeable

    @pytest.mark.parametrize("at_rule", [False, True])
    def test_terminal_values_do_not_follow_their_input(self, at_rule):
        tree = build_tree(TimeGrid(1.0, 2), TreeMode.RECOMBINING)
        leaves = np.array([1.0, 2.0, 3.0])
        if at_rule:
            levels = [np.zeros(1), np.zeros(2), leaves]
            xi = TerminalCondition.at_rule(tree, StoppingRule.terminal(tree), levels)
        else:
            xi = TerminalCondition.from_leaf_values(tree, leaves)
        assert g_expectation(zero_driver(), xi) == 2.0
        leaves[:] = 100.0
        np.testing.assert_array_equal(xi.values[2], [1.0, 2.0, 3.0])
        assert not any(level.flags.writeable for level in xi.values)
        assert g_expectation(zero_driver(), xi) == 2.0



def _level_digest(levels) -> str:
    digest = hashlib.sha256()
    for level in levels:
        digest.update(np.ascontiguousarray(level, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestExtension:
    """``extended`` is the stop-node data held along each path; the digests
    were taken from the per-layout implementation it replaced."""

    def test_full_binary_partial_rule_digest(self):
        tree = full_tree(6)
        rule = StoppingRule(tree, [tree.brownian_level(i) >= 0.5 for i in range(7)])
        xi = TerminalCondition.at_rule(tree, rule, lambda i, b: np.sin(b) + i)
        assert rule.first_stop_level == 2 and not rule.is_terminal
        assert _level_digest(xi.extended) == (
            "77c8ff728a4b18a41467343fddbee70823c3e466908c042486ad148f089b9ce4"
        )

    def test_recombining_level_rule_digest(self):
        tree = build_tree(TimeGrid(1.0, 9), TreeMode.RECOMBINING)
        rule = StoppingRule.at_level(tree, 4)
        xi = TerminalCondition.at_rule(
            tree, rule, lambda i, b: np.where(i == 4, 0.25 * i, np.cos(b) + i)
        )
        extended = xi.extended
        assert all(np.isnan(level).all() for level in extended[:4])
        assert all(np.all(level == 1.0) for level in extended[4:])
        assert _level_digest(extended) == (
            "308fb27b7959f7f8182c447703bb3738436ca5d66c062fdd1856608146047568"
        )

    @pytest.mark.parametrize("mode", list(TreeMode))
    def test_extended_levels_are_read_only(self, mode):
        # the sweep reads the terminal through these levels, so a write into
        # one would change every later solve of the same data
        tree = build_tree(TimeGrid(1.0, 3), mode)
        leaves = TerminalCondition.from_leaf_values(tree, np.arange(float(tree.level_size(3))))
        cases = [leaves, TerminalCondition.constant(tree, 0.5, rule=StoppingRule.at_level(tree, 2))]
        if mode is TreeMode.FULL_BINARY:
            rule = StoppingRule(tree, [tree.brownian_level(i) >= 0.5 for i in range(4)])
            cases.append(TerminalCondition.at_rule(tree, rule, lambda i, b: b + i))
        root = g_expectation(GeneratorSpec.constant(0.0), leaves)
        for xi in cases:
            for level in xi.extended:
                assert not level.flags.writeable
                with pytest.raises(ValueError):
                    level[:] = 100.0
        assert g_expectation(GeneratorSpec.constant(0.0), leaves) == root

    def test_recombining_level_varying_stop_values_are_refused(self):
        tree = build_tree(TimeGrid(1.0, 4), TreeMode.RECOMBINING)
        xi = TerminalCondition.at_rule(tree, StoppingRule.at_level(tree, 2), lambda i, b: b)
        with pytest.raises(UnsupportedTreeMode):
            xi.extended

def _terminal_with_nan(tree, rule, level, node):
    levels = [np.zeros(tree.level_size(i)) for i in range(tree.steps + 1)]
    levels[level][node] = np.nan
    return TerminalCondition.at_rule(tree, rule, levels)


def _partial_rule_cases():
    """(tree, rule, NaN sites that must raise, NaN sites that must pass)."""
    full = full_tree(4)
    # paths 00 and 11 stop at level 2; every other path runs to level 4
    flags = [np.zeros(full.level_size(i), dtype=bool) for i in range(5)]
    flags[2][[0, 3]] = True
    partial = StoppingRule(full, flags)
    recombining = build_tree(TimeGrid(1.0, 4), TreeMode.RECOMBINING)
    return {
        "full-binary": (
            full,
            partial,
            [(2, 0), (2, 3), (4, 4), (4, 11)],
            # below the first stop, not yet stopped, and after the path stopped
            [(0, 0), (1, 1), (2, 1), (3, 0), (4, 0), (4, 15)],
        ),
        "recombining-level-2": (
            recombining,
            StoppingRule.at_level(recombining, 2),
            [(2, 0), (2, 2)],
            [(0, 0), (1, 1), (3, 1), (4, 4)],
        ),
        "recombining-terminal": (
            recombining,
            StoppingRule.terminal(recombining),
            [(4, 0), (4, 4)],
            [(0, 0), (2, 1), (3, 3)],
        ),
    }


class TestTerminalFiniteness:
    @pytest.mark.parametrize("case", sorted(_partial_rule_cases()))
    def test_nan_on_a_stopping_node_raises(self, case):
        tree, rule, bad, _ = _partial_rule_cases()[case]
        assert rule.first_stop_level in {level for level, _ in bad}
        for level, node in bad:
            assert rule.stop_node_masks[level][node]
            with pytest.raises(ValueError, match="finite on stopping nodes"):
                _terminal_with_nan(tree, rule, level, node)

    @pytest.mark.parametrize("case", sorted(_partial_rule_cases()))
    def test_nan_off_the_stopping_nodes_is_accepted(self, case):
        tree, rule, _, good = _partial_rule_cases()[case]
        for level, node in good:
            assert not rule.stop_node_masks[level][node]
            xi = _terminal_with_nan(tree, rule, level, node)
            assert np.isnan(xi.values[level][node])


class TestGExpectation:
    def test_constant_preserving_driver_returns_the_constant(self):
        tree = full_tree(6)
        g = GeneratorSpec(
            Min(Scale(2.0, NegPart(Add((YVar(), Const(-0.5))))), Abs(ZVar()))
        )
        for c in (-1.0, 0.25, 3.5):
            assert g_expectation(g, TerminalCondition.constant(tree, c)) == c

    def test_driverless_walk_has_zero_expectation(self):
        tree = full_tree(9)
        xi = TerminalCondition.from_leaf_function(tree, lambda b: b)
        assert abs(g_expectation(zero_driver(), xi)) <= 1e-14

    def test_constant_driver_example(self):
        tree = build_tree(TimeGrid(1.0, 40), TreeMode.RECOMBINING)
        value = g_expectation(
            GeneratorSpec.constant(1 / 3), TerminalCondition.constant(tree, 1 / 3)
        )
        assert value == pytest.approx(2 / 3, abs=1e-13)


class TestConditional:
    def test_root_rule_matches_scalar_expectation(self):
        tree = full_tree(6)
        rng = np.random.default_rng(8)
        g = GeneratorSpec(Scale(0.3, ZVar()))
        xi = TerminalCondition.from_leaf_values(tree, rng.uniform(0, 1, size=64))
        values = conditional_g_expectation(g, xi, StoppingRule.root(tree))
        assert set(values) == {(0, 0)}
        assert values[(0, 0)] == g_expectation(g, xi)

    def test_terminal_rule_returns_terminal_data(self):
        tree = full_tree(5)
        rng = np.random.default_rng(9)
        leaves = rng.uniform(-1, 1, size=32)
        xi = TerminalCondition.from_leaf_values(tree, leaves)
        values = conditional_g_expectation(
            GeneratorSpec.constant(0.1), xi, StoppingRule.terminal(tree)
        )
        for (level, node), value in values.items():
            assert level == 5
            assert value == leaves[node]

    def test_rule_order_guard(self):
        tree = full_tree(4)
        xi = TerminalCondition.constant(tree, 1.0, rule=StoppingRule.root(tree))
        with pytest.raises(RuleOrderViolated):
            conditional_g_expectation(zero_driver(), xi, StoppingRule.terminal(tree))

    def test_tower_identity_for_nested_rules(self):
        # evaluating at an early rule and re-solving reproduces the root value
        tree = full_tree(8)
        rng = np.random.default_rng(10)
        g = GeneratorSpec(
            Add((Scale(-0.25, YVar()), Scale(0.5, ZVar()), Const(0.2)))
        )
        sigma = StoppingRule.terminal(tree)
        tau = StoppingRule(
            tree, [np.abs(tree.brownian_level(i)) >= 0.8 for i in range(9)]
        )
        xi = TerminalCondition.from_leaf_values(tree, rng.uniform(-1, 1, size=256))
        inner = conditional_g_expectation(g, xi, tau)
        inner_levels = [np.zeros(tree.level_size(i)) for i in range(9)]
        for (level, node), value in inner.items():
            inner_levels[level][node] = value
        restarted = TerminalCondition.at_rule(tree, tau, inner_levels)
        outer = g_expectation(g, restarted)
        direct = g_expectation(g, xi)
        assert abs(outer - direct) <= 1e-12


class TestMonotonicity:
    def test_ordered_data_order_the_solutions(self):
        rng = np.random.default_rng(12)
        tree = full_tree(8)
        for _ in range(25):
            a = rng.uniform(-1, 1)
            b = rng.uniform(-1, 1)
            g_low = GeneratorSpec(
                Add((Scale(a, YVar()), Scale(b, ZVar())))
            )
            g_high = GeneratorSpec(
                Add((g_low.expr, Const(rng.uniform(0, 0.5))))
            )
            lo = rng.uniform(-1, 1, size=256)
            hi = lo + rng.uniform(0, 1, size=256)
            sol_low = solve_bsde(g_low, TerminalCondition.from_leaf_values(tree, lo))
            sol_high = solve_bsde(g_high, TerminalCondition.from_leaf_values(tree, hi))
            for i in range(9):
                assert np.all(sol_low.y.level(i) <= sol_high.y.level(i) + 1e-10)

    def test_strict_gap_survives_to_the_root(self):
        tree = full_tree(8)
        g = GeneratorSpec(Add((Scale(0.3, YVar()), Scale(-0.4, ZVar()))))
        lo = np.zeros(256)
        hi = np.zeros(256)
        hi[100] = 0.5  # one positive-probability leaf
        root_low = g_expectation(g, TerminalCondition.from_leaf_values(tree, lo))
        root_high = g_expectation(g, TerminalCondition.from_leaf_values(tree, hi))
        assert root_high - root_low > 1e-12


class TestRestrictionIdentity:
    def test_gated_driver_reproduces_the_rule_solve(self):
        rng = np.random.default_rng(14)
        tree = full_tree(10)
        for _ in range(5):
            flags = [rng.random(tree.level_size(i)) < 0.25 for i in range(11)]
            rule = StoppingRule(tree, flags)
            g = GeneratorSpec(
                Add(
                    (
                        Scale(rng.uniform(-0.7, 0.7), YVar()),
                        Scale(rng.uniform(-0.7, 0.7), Abs(ZVar())),
                        Const(rng.uniform(-0.3, 0.3)),
                    )
                ),
            )
            data = [rng.uniform(-1, 1, size=tree.level_size(i)) for i in range(11)]
            xi = TerminalCondition.at_rule(tree, rule, data)
            direct = solve_bsde(g, xi)
            gated = solve_bsde(restrict_generator(g, rule), xi.as_full_horizon())
            for i in range(11):
                np.testing.assert_array_equal(direct.y.level(i), gated.y.level(i))

    def test_terminal_gating_is_identity(self):
        tree = full_tree(6)
        rng = np.random.default_rng(15)
        g = GeneratorSpec(Scale(0.5, YVar()))
        xi = TerminalCondition.from_leaf_values(tree, rng.uniform(-1, 1, size=64))
        plain = solve_bsde(g, xi)
        gated = solve_bsde(restrict_generator(g, StoppingRule.terminal(tree)), xi)
        for i in range(7):
            np.testing.assert_array_equal(plain.y.level(i), gated.y.level(i))

    def test_root_gating_gives_plain_expectation(self):
        tree = full_tree(6)
        xi = TerminalCondition.constant(tree, 0.4, rule=StoppingRule.root(tree))
        value = g_expectation(GeneratorSpec.constant(5.0), xi)
        assert value == 0.4


def _users(matches) -> set[str]:
    """Qualified names of the ``src/`` scopes holding an AST node that ``matches``."""
    users = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if matches(child):
                users.add(".".join((module, *scope)))
            visit(child, module, scope)

    for path in sorted(Path(rbsde_lab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return users


def _name_users(names: set[str]) -> set[str]:
    """Qualified names of the ``src/`` scopes that name, read or import one of ``names``."""
    return _users(
        lambda node: (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.alias) and node.name in names)
    )


def _child_values_users() -> set[str]:
    return _users(lambda node: isinstance(node, ast.Attribute) and node.attr == "child_values")


class TestNoDeclaredConstant:
    """The Lipschitz bounds are read off the driver; no config or record declares one."""

    def test_drivers_and_configs_hold_only_an_expression(self):
        from rbsde_lab import cli

        assert GeneratorSpec._fields == ("expr",)
        assert set(cli._BLOCKS["generator"]) == {"expr"}
        assert not hasattr(rbsde_lab.MarketModel, "lipschitz")

    def test_only_the_hypothesis_checks_read_the_bounds(self):
        # the sweep's contraction guard and the converse probe's allowance;
        # everything else passes drivers through
        readers = _users(lambda node: isinstance(node, ast.Attribute) and node.attr == "lipschitz")
        assert readers == {"bsde._sweep", "theorems.converse_probe"}

    def test_no_sampled_check_of_the_bounds_is_left(self):
        # the bounds are read off the expression and checked by property
        # (TestLipschitzBoundHolds); nothing samples a driver to re-check them
        assert _name_users({"check_assumptions", "AssumptionReport"}) == set()


class TestReportsKeepWhatTheirVerdictsRead:
    def test_only_the_driver_probes_sample_in_theorems(self):
        # the comparison certificate reads driver order at the solutions'
        # nodes; a sample is the check only for claims about the drivers
        users = {
            ".".join(user.split(".")[:2])  # a helper nested in a probe counts as the probe
            for user in _name_users({"sample_driver"})
            if user.split(".")[0] == "theorems"
        }
        assert users == {
            "theorems",  # the import
            "theorems.converse_probe",
            "theorems.incomparable_driver_probe",
            "theorems.masked_driver_probe",
        }

    def test_no_site_list_or_second_driver_sample_is_left(self):
        gone = (
            "DriverOrderingSite",
            "driver_gap_on_grid",
            "violation_sites",
            "sites_low_above_high",
            "sites_high_above_low",
            "disagreement_sites",
            "is_y_free",
        )
        texts = [path.read_text() for path in Path(rbsde_lab.__file__).parent.glob("*.py")]
        texts.append((Path(__file__).resolve().parents[1] / "README.md").read_text())
        assert [name for name in gone if any(name in text for text in texts)] == []


class TestOneBackwardKernel:
    def test_only_the_kernel_and_its_references_step_down_the_tree(self):
        # a second backward loop would read children somewhere else
        kernel = {"bsde._sweep"}
        references = {
            "rbsde.snell_oracle",
            "market._riskneutral_dp",
            "lattice.backward_expectation",
            "rbsde.ObstacleSpec.modulus_estimate",
            # a max-plus recursion over pushes: it reads no driver and solves nothing
            "rbsde._path_maximum",
            # a backward product of 0/1 gates: it reads no driver and solves nothing
            "lattice.event_probability",
        }
        users = _child_values_users()
        assert kernel <= users
        assert users <= kernel | references

    def test_sweeps_are_read_as_streams_with_no_observer(self):
        # the kernel yields its levels; no function takes a per-level callback
        # and nothing is left of the callback's types and level-keeping helpers
        assert _users(lambda node: isinstance(node, ast.arg) and node.arg == "observe") == set()
        gone = {"LevelObserver", "SweepSummary", "_kept_levels", "_swept_levels"}
        assert _name_users(gone) == set()

    def test_each_level_record_describes_its_own_level(self):
        # the kernel carries only the solution between levels; the contact
        # level and the largest iteration count are folded by their one reader
        assert rbsde_lab.bsde.SweptLevel._fields == (
            "i", "y", "z", "dk", "s", "mean", "step", "iterations"
        )
        assert _name_users({"first_contact"}) == set()
        assert "obstacle" not in inspect.signature(rbsde_lab.bsde._diagnostics).parameters

    def test_only_the_contact_readers_name_the_contact_tolerance(self):
        # lattice defines it and `_in_contact` alone reads it; the hitting rule,
        # the quote's contact fold and the closed-form checks call the predicate
        assert _name_users({"DEFAULT_CONTACT_TOL"}) == {"lattice", "lattice._in_contact"}
        assert {user for user in _name_users({"_in_contact"}) if "." in user} == {
            "lattice.hitting_rule",
            "market.quote_strike_family",
            "suites._case_errors",
        }

    def test_every_contact_reader_tests_one_inequality(self):
        # contact is `value <= obstacle + DEFAULT_CONTACT_TOL`, read once;
        # `value - obstacle <= DEFAULT_CONTACT_TOL` rounds differently near the tolerance
        reads, rules = 0, 0
        for path in sorted(Path(rbsde_lab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and node.id == "DEFAULT_CONTACT_TOL":
                    reads += isinstance(node.ctx, ast.Load)
                elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                    bound = node.comparators[0]
                    rules += (
                        isinstance(node.ops[0], ast.LtE)
                        and isinstance(bound, ast.BinOp)
                        and isinstance(bound.op, ast.Add)
                        and ast.unparse(bound.right) == "DEFAULT_CONTACT_TOL"
                    )
        assert reads == rules == 1

    def test_only_solve_rbsde_sums_pushes_forward(self):
        # a forward path sum moves through ScenarioTree.carry; besides holding
        # data past a stop, only the cumulative push of the full solve takes it,
        # and every other path statement about pushes runs backward.  A rule's
        # stopped mask is data held past a stop too, so its recursion carries;
        # the strict witness's iterate count and latest iterate are path state
        # built forward, level by level, so its chain carries them too
        carried = _users(lambda node: isinstance(node, ast.Attribute) and node.attr == "carry")
        assert carried == {
            "lattice._held_after",
            "lattice.StoppingRule._masks",
            "rbsde.solve_rbsde",
            "theorems._iterate_chain",
        }

    def test_full_solve_prices_have_no_pricing_caller(self):
        # price_american_rbsde and price_strike_family are the per-strike
        # reference of market.quote_strike_family; every pricing path quotes
        users = _name_users({"price_american_rbsde", "price_strike_family"})
        assert "market.price_strike_family" in users
        assert {user.split(".")[0] for user in users} == {"market", "__init__"}

    def test_batched_checks_do_not_route_through_the_full_solver(self):
        # every check reads its levels off root-only sweeps (bsde._sweep);
        # the full solvers, which the benchmark tracer hooks, serve the CLI
        # solve and the per-strike pricing reference.  theorems and suites only
        # import solve_rbsde, for the tracer's rebinding test
        assert _name_users({"_reflected_solution"}) == set()
        assert _name_users({"solve_rbsde"}) == {
            "__init__",
            "cli",
            "cli.cmd_solve",
            "market",
            "market.price_american_rbsde",
            "suites",
            "theorems",
        }
        assert _name_users({"solve_bsde"}) == {"__init__"}

    def test_path_layout_is_decided_in_lattice(self):
        # path-carried data move forward through ScenarioTree.carry, the only
        # scope that repeats values.  The layout is read by the tree's own
        # methods and by the stopping oracle, which enumerates full-binary paths
        repeats = _users(
            lambda node: isinstance(node, ast.Attribute)
            and node.attr == "repeat"
            and isinstance(node.value, ast.Name)
            and node.value.id in {"np", "numpy"}
        )
        assert repeats == {"lattice.ScenarioTree.carry"}
        modes = _users(lambda node: isinstance(node, ast.Attribute) and node.attr == "mode")
        tree_methods = {
            f"lattice.ScenarioTree.{name}"
            for name in (
                "__repr__",
                "_level_sizes",
                "up_counts",
                "exact_level_probabilities",
                "child_values",
                "carry",
            )
        }
        assert modes == tree_methods | {"rbsde.enumerate_stopping_oracle"}
        layout = _users(
            lambda node: (isinstance(node, ast.Name) and node.id == "TreeMode")
            or (isinstance(node, ast.alias) and node.name == "TreeMode")
        )
        assert not {user for user in layout if user.split(".")[0] in {"bsde", "theorems"}}

    def test_no_python_loop_over_leaves(self):
        # per-path work runs on level arrays; a Python for over range(1 << n)
        # walks every leaf of a full-binary tree
        def over_leaves(node):
            loop = node.iter if isinstance(node, (ast.For, ast.comprehension)) else None
            return (
                isinstance(loop, ast.Call)
                and isinstance(loop.func, ast.Name)
                and loop.func.id == "range"
                and any(
                    isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.LShift)
                    for arg in loop.args
                )
            )

        assert _users(over_leaves) == set()

    def test_driver_sampling_is_decided_in_generators(self):
        # a sampled driver check reads its (t, y, z) box through
        # generators.sample_driver instead of building a grid itself
        grids = _users(lambda node: isinstance(node, ast.Attribute) and node.attr == "meshgrid")
        assert grids == {"generators.sample_driver"}

    def test_level_step_reduces_with_ufunc_methods(self):
        # np.max and friends add a Python wrapper per call; the level step and
        # the diagnostics observer, which runs once per level of a full solve,
        # reduce with np.maximum.reduce, np.minimum.reduce and np.logical_or.reduce
        wrappers = {"max", "min", "any", "all", "amax", "amin"}
        tree = ast.parse(Path(rbsde_lab.bsde.__file__).read_text())
        names = {"_sweep", "_implicit_level", "_diagnostics"}
        kernels = {
            node.name: node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names
        }
        assert set(kernels) == names
        # the observer reads the levels it is handed, never the tree's children
        assert not {user for user in _child_values_users() if user.startswith("bsde._diagnostics")}
        for name, function in kernels.items():
            called = {
                node.func.attr
                for node in ast.walk(function)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in {"np", "numpy"}
            }
            assert not called & wrappers, (name, called & wrappers)


def test_record_types_state_their_fields_once():
    # records.Record builds a record from its _fields alone, so an __init__
    # whose only statement is self._set(...) restates them; only the types
    # that check their fields write one
    def sets_fields(node):
        return (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "_set"
            and isinstance(node.value.func.value, ast.Name)
            and node.value.func.value.id == "self"
        )

    setters = _users(sets_fields)
    doing_more = _users(lambda node: isinstance(node, ast.stmt) and not sets_fields(node))
    assert setters - doing_more == set()
    assert setters == {
        "bsde.TerminalCondition.__init__",
        "generators.Const.__init__",
        "generators.PiecewiseTime.__init__",
        "generators.Scale.__init__",
        "lattice.AdaptedProcess.__init__",
        "lattice.ScenarioTree.__init__",
        "lattice.StoppingRule.__init__",
        "lattice.TimeGrid.__init__",
        "market.MarketModel.__init__",
        "rbsde.ObstacleSpec.__init__",
        "records.Record.__init__",
    }


def test_every_error_type_is_raised_somewhere():
    # an error type that no src/ scope raises is dead: it outlives the check
    # that raised it, and a caller catching it waits for nothing
    errors = rbsde_lab.errors
    kinds = {
        name
        for name, kind in vars(errors).items()
        if isinstance(kind, type) and issubclass(kind, errors.LatticeLabError)
    }
    raised = set()

    def raises(node):
        exc = node.exc if isinstance(node, ast.Raise) else None
        exc = exc.func if isinstance(exc, ast.Call) else exc
        raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
        return False

    _users(raises)
    assert len(kinds) > 10
    assert kinds - raised == {"LatticeLabError"}


def _tree_and_data_parameters() -> set[str]:
    """Module-level ``src/`` functions taking ``tree`` beside data that carry one."""
    carriers = {"terminal", "obstacle", "terminal_family", "rule", "solution"}
    found = set()
    for path in sorted(Path(rbsde_lab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if "tree" in names and names & carriers:
                    found.add(f"{path.stem}.{node.name}")
    return found


def test_solvers_read_the_tree_off_their_data():
    # terminal data, obstacles, rules and solutions each carry their tree, so
    # a function taking one of them reads the tree there; only functions that
    # build from a tree take it
    assert _tree_and_data_parameters() == set()
