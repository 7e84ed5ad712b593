import numpy as np
import pytest
from hypothesis import given, strategies as st

from rbsde_lab import (
    AdaptedProcess,
    DepthExceeded,
    InvalidGrid,
    ScenarioTree,
    StoppingRule,
    TimeGrid,
    TreeMismatch,
    TreeMode,
    UnsupportedTreeMode,
    backward_expectation,
    build_tree,
    conditional_expectation,
    event_probability,
    freeze_after,
    hitting_rule,
    martingale_coefficient,
)
from rbsde_lab.lattice import constant_levels


def full_tree(steps, horizon=1.0):
    return build_tree(TimeGrid(horizon, steps), TreeMode.FULL_BINARY)


def recomb_tree(steps, horizon=1.0):
    return build_tree(TimeGrid(horizon, steps), TreeMode.RECOMBINING)


class TestBuildTree:
    def test_one_step_walk(self):
        tree = full_tree(1)
        np.testing.assert_allclose(tree.brownian_level(1), [-1.0, 1.0])
        assert tree.exact_level_probabilities(1) == [0.5, 0.5]

    def test_two_step_recombining(self):
        tree = recomb_tree(2)
        root_half = np.sqrt(0.5)
        np.testing.assert_allclose(
            tree.brownian_level(2), [-2 * root_half, 0.0, 2 * root_half]
        )
        assert tree.exact_level_probabilities(2) == [0.25, 0.5, 0.25]

    def test_full_binary_depth_guard(self):
        with pytest.raises(DepthExceeded):
            full_tree(30)

    def test_invalid_grids(self):
        with pytest.raises(InvalidGrid):
            TimeGrid(1.0, 0)
        with pytest.raises(InvalidGrid):
            TimeGrid(-1.0, 4)
        with pytest.raises(InvalidGrid):
            TimeGrid(0.0, 4)
        with pytest.raises(InvalidGrid):
            TimeGrid(1.0, True)
        with pytest.raises(InvalidGrid, match="underflows"):
            TimeGrid(5e-324, 40)  # a positive horizon whose step rounds to 0.0
        assert TimeGrid(5e-324, 1).dt == 5e-324

    @pytest.mark.parametrize("mode", list(TreeMode))
    def test_level_probabilities_sum_to_one(self, mode):
        tree = build_tree(TimeGrid(2.0, 12), mode)
        for i in range(13):
            assert sum(tree.exact_level_probabilities(i)) == 1

    @pytest.mark.parametrize("mode", list(TreeMode))
    def test_variance_law_exact(self, mode):
        # Var[B_t] = t with exact dyadic probabilities
        tree = build_tree(TimeGrid(1.0, 10), mode)
        for i in range(11):
            b = tree.brownian_level(i)
            mean = tree.expectation(b, i)
            var = tree.expectation(b * b, i)
            assert abs(mean) <= 1e-15
            assert abs(var - tree.grid.time(i)) <= 1e-12


class TestStepFunctions:
    @pytest.mark.parametrize("mode", list(TreeMode))
    def test_child_values_split_a_batch_member_by_member(self, mode):
        tree = build_tree(TimeGrid(1.0, 3), mode)
        batch = np.arange(3 * tree.level_size(3), dtype=float).reshape(3, -1)
        up, down = tree.child_values(batch)
        for row, (u, d) in enumerate(zip(up, down)):
            single_up, single_down = tree.child_values(batch[row])
            np.testing.assert_array_equal(u, single_up)
            np.testing.assert_array_equal(d, single_down)

    def test_conditional_expectation_values(self):
        assert conditional_expectation(2.0, 0.0) == 1.0
        assert conditional_expectation(5.5, 5.5) == 5.5
        assert conditional_expectation(1 / 3, 1 / 3) == 1 / 3

    def test_martingale_coefficient_values(self):
        assert martingale_coefficient(3.0, 3.0, 0.1) == 0.0
        assert martingale_coefficient(1.0, 0.0, 0.25) == 1.0

    def test_martingale_coefficient_needs_positive_dt(self):
        with pytest.raises(InvalidGrid):
            martingale_coefficient(1.0, 0.0, 0.0)

    @given(
        y=st.floats(-10, 10),
        z=st.floats(-10, 10),
        dt=st.floats(1e-6, 4.0),
    )
    def test_martingale_coefficient_inverts_planted_loading(self, y, z, dt):
        step = np.sqrt(dt)
        recovered = martingale_coefficient(y + z * step, y - z * step, dt)
        assert recovered == pytest.approx(z, abs=1e-9, rel=1e-9)


class TestAdaptedProcess:
    def test_lift_affine(self):
        tree = recomb_tree(2)
        proc = AdaptedProcess.from_time_function(tree, lambda t: 1.0 - 2.0 * t)
        assert [proc.level(i)[0] for i in range(3)] == [1.0, 0.0, -1.0]
        assert np.all(proc.level(2) == -1.0)

    def test_lift_zero(self):
        tree = full_tree(3)
        proc = AdaptedProcess.from_time_function(tree, lambda t: 0.0)
        assert all(np.all(proc.level(i) == 0.0) for i in range(4))

    def test_lift_identity_times(self):
        tree = recomb_tree(4)
        proc = AdaptedProcess.from_time_function(tree, lambda t: t)
        np.testing.assert_allclose(
            [proc.level(i)[0] for i in range(5)], [0.0, 0.25, 0.5, 0.75, 1.0]
        )

    def test_levels_are_immutable(self):
        tree = full_tree(2)
        proc = AdaptedProcess.constant(tree, 1.0)
        with pytest.raises(ValueError):
            proc.level(1)[0] = 2.0

    def test_shape_validation(self):
        tree = full_tree(2)
        with pytest.raises(TreeMismatch):
            AdaptedProcess(tree, [np.zeros(1), np.zeros(3), np.zeros(4)])

    def test_backward_martingale_one_step_identity(self):
        tree = full_tree(6)
        rng = np.random.default_rng(3)
        proc = backward_expectation(tree, rng.normal(size=64))
        for i in range(6):
            up, down = tree.child_values(proc.level(i + 1))
            np.testing.assert_array_equal(
                conditional_expectation(up, down), proc.level(i)
            )

    def test_tower_property(self):
        tree = full_tree(8)
        rng = np.random.default_rng(4)
        proc = backward_expectation(tree, rng.uniform(-2, 2, size=256))
        total = tree.expectation(proc.level(8), 8)
        for i in range(8):
            nested = tree.expectation(proc.level(i), i)
            assert abs(nested - total) <= 1e-12


class TestLevelStorage:
    """Level-constant data live in one frozen cell; frozen levels are stored
    as given; anything a caller can still write to is copied."""

    @pytest.mark.parametrize("mode", list(TreeMode))
    def test_constant_process_levels_share_one_read_only_cell(self, mode):
        tree = build_tree(TimeGrid(1.0, 5), mode)
        levels = AdaptedProcess.constant(tree, -0.75).levels()
        timed = AdaptedProcess.from_time_function(tree, lambda t: 1.0 - 2.0 * t).levels()
        for i, (level, lifted) in enumerate(zip(levels, timed)):
            assert level.shape == (tree.level_size(i),) and np.all(level == -0.75)
            assert np.all(lifted == 1.0 - 2.0 * tree.grid.time(i))
            for view in (level, lifted):
                assert not view.flags.writeable and view.strides == (0,)
            assert np.shares_memory(level, levels[0])

    @pytest.mark.parametrize("mode", list(TreeMode))
    def test_level_rule_masks_are_one_cell_views(self, mode):
        tree = build_tree(TimeGrid(1.0, 5), mode)
        rule = StoppingRule.at_level(tree, 2)
        for masks in ((rule.flags(i) for i in range(6)), rule.stopped_by_level):
            assert [bool(m.all()) for m in masks] == [False, False, True, True, True, True]
        assert [bool(m.any()) for m in rule.stop_node_masks] == [i == 2 for i in range(6)]
        if mode is TreeMode.RECOMBINING:
            for m in rule.stopped_by_level + rule.stop_node_masks:
                assert m.strides == (0,) and not m.flags.writeable

    @pytest.mark.parametrize("mode", list(TreeMode))
    def test_writeable_inputs_are_copied(self, mode):
        tree = build_tree(TimeGrid(1.0, 3), mode)
        owners = [np.arange(tree.level_size(i), dtype=float) for i in range(4)]
        flags = [np.zeros(tree.level_size(i), dtype=bool) for i in range(4)]
        values = list(owners)
        # read-only itself, but a view of a writeable array
        values[2] = owners[2].view()
        values[2].flags.writeable = False
        proc = AdaptedProcess(tree, values)
        rule = StoppingRule(tree, flags)
        for owner, flag in zip(owners, flags):
            owner[:] = -1.0
            flag[:] = True
        for i in range(4):
            np.testing.assert_array_equal(proc.level(i), np.arange(tree.level_size(i)))
        assert [bool(rule.flags(i).any()) for i in range(4)] == [False, False, False, True]

    def test_frozen_input_is_adopted_without_a_copy(self):
        tree = recomb_tree(3)
        levels = constant_levels(tree, 1.0)[:-1] + [np.array([0.0, 1.0, 2.0, 3.0])]
        levels[-1].flags.writeable = False
        proc = AdaptedProcess(tree, levels)
        assert all(stored is given for stored, given in zip(proc.levels(), levels))


class TestStoppingRules:
    def test_hitting_rule_stops_at_first_touch(self):
        tree = full_tree(3)
        a = AdaptedProcess.constant(tree, 1.0)
        b = AdaptedProcess.constant(tree, 0.0)
        rule = hitting_rule(a, b)
        assert np.all(rule.leaf_stop_levels == 3)

        rule_eq = hitting_rule(a, AdaptedProcess.constant(tree, 1.0))
        assert np.all(rule_eq.leaf_stop_levels == 0)

    def test_hitting_rule_tree_mismatch(self):
        a = AdaptedProcess.constant(full_tree(3), 1.0)
        b = AdaptedProcess.constant(full_tree(4), 1.0)
        with pytest.raises(TreeMismatch):
            hitting_rule(a, b)

    def test_first_hit_idempotence(self):
        # rebuilding the rule from processes frozen at the rule changes nothing
        tree = full_tree(6)
        rng = np.random.default_rng(11)
        a = AdaptedProcess.from_state_function(tree, lambda t, b: b + 0.3)
        b = AdaptedProcess.from_time_function(tree, lambda t: -0.5 + t)
        rule = hitting_rule(a, b)
        again = hitting_rule(freeze_after(a, rule), freeze_after(b, rule))
        np.testing.assert_array_equal(rule.leaf_stop_levels, again.leaf_stop_levels)

    def test_precedes(self):
        tree = full_tree(4)
        assert StoppingRule.root(tree).precedes(StoppingRule.terminal(tree))
        assert not StoppingRule.terminal(tree).precedes(StoppingRule.root(tree))

    def test_stop_node_masks_partition_paths(self):
        tree = full_tree(5)
        rng = np.random.default_rng(7)
        flags = [rng.random(tree.level_size(i)) < 0.3 for i in range(6)]
        rule = StoppingRule(tree, flags)
        # every leaf has exactly one stopping ancestor
        levels = rule.leaf_stop_levels
        for leaf in range(32):
            level = levels[leaf]
            assert rule.stop_node_masks[level][leaf >> (5 - level)]
            for earlier in range(level):
                assert not rule.flags(earlier)[leaf >> (5 - earlier)]


class TestEventProbability:
    def test_always_true(self):
        tree = full_tree(4)
        rule = StoppingRule.terminal(tree)
        pred = [np.ones(tree.level_size(i), dtype=bool) for i in range(5)]
        assert event_probability(rule, pred) == 1.0

    def test_single_leaf(self):
        tree = full_tree(5)
        rule = StoppingRule.terminal(tree)
        pred = [np.ones(tree.level_size(i), dtype=bool) for i in range(6)]
        pred[5] = np.zeros(32, dtype=bool)
        pred[5][17] = True
        assert event_probability(rule, pred) == 1.0 / 32.0

    def test_always_false(self):
        tree = full_tree(4)
        rule = StoppingRule.terminal(tree)
        pred = [np.zeros(tree.level_size(i), dtype=bool) for i in range(5)]
        assert event_probability(rule, pred) == 0.0

    def test_counts_only_after_stopping(self):
        tree = full_tree(2)
        rule = StoppingRule.at_level(tree, 1)
        # predicate false at the root: irrelevant, since stopping happens later
        pred = [np.ones(tree.level_size(i), dtype=bool) for i in range(3)]
        pred[0][:] = False
        assert event_probability(rule, pred) == 1.0


class TestFreezing:
    def test_freeze_holds_value_constant(self):
        tree = full_tree(4)
        walk = tree.brownian()
        rule = StoppingRule.at_level(tree, 2)
        frozen = freeze_after(walk, rule)
        for i in (0, 1, 2):
            np.testing.assert_array_equal(frozen.level(i), walk.level(i))
        for leaf in range(16):
            stop_node = leaf >> 2
            assert frozen.value(4, leaf) == walk.value(2, stop_node)

    def test_freeze_keeps_the_levels_before_the_first_stop(self):
        tree = full_tree(5)
        walk = tree.brownian()
        rule = StoppingRule(tree, [tree.brownian_level(i) >= 0.5 for i in range(6)])
        frozen = freeze_after(walk, rule)
        first = rule.first_stop_level
        assert 0 < first < 5
        assert all(frozen.level(i) is walk.level(i) for i in range(first + 1))

    def test_recombining_freeze_of_a_varying_level_is_refused(self):
        tree = recomb_tree(4)
        with pytest.raises(UnsupportedTreeMode):
            freeze_after(tree.brownian(), StoppingRule.at_level(tree, 2))


class TestCarry:
    def test_full_binary_repeats_each_value(self):
        level = np.array([1.5, -2.0, 0.25, 4.0])
        np.testing.assert_array_equal(full_tree(3).carry(level), np.repeat(level, 2))

    @pytest.mark.parametrize("dtype", [float, bool])
    def test_recombining_constant_level_is_a_one_cell_view(self, dtype):
        carried = recomb_tree(4).carry(np.full(3, 1, dtype=dtype))
        assert carried.shape == (4,) and carried.dtype == dtype
        assert carried.strides == (0,) and not carried.flags.writeable
        assert np.all(carried == 1)

    def test_recombining_varying_level_does_not_carry(self):
        assert recomb_tree(4).carry(np.array([0.0, 0.0, 1e-300])) is None


class TestBatchAxes:
    def test_levels_may_share_or_carry_a_batch(self):
        tree = recomb_tree(2)
        levels = constant_levels(tree, 0.0)[:-1] + [np.arange(6.0).reshape(2, 3)]
        process = AdaptedProcess(tree, levels)
        assert process.root() == 0.0 and process.value(2, 1).tolist() == [1.0, 4.0]
        carried = tree.carry(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert carried.shape == (2, 3) and carried.strides[-1] == 0
        assert carried[:, 0].tolist() == [1.0, 2.0]
        assert tree.carry(np.array([[1.0, 1.0], [2.0, 3.0]])) is None  # one member varies
        np.testing.assert_array_equal(full_tree(1).carry(np.eye(2)), np.repeat(np.eye(2), 2, axis=1))

    def test_batch_shapes_must_broadcast_and_rules_take_none(self):
        tree = recomb_tree(1)
        with pytest.raises(TreeMismatch, match="do not broadcast"):
            AdaptedProcess(tree, [np.zeros((2, 1)), np.zeros((3, 2))])
        with pytest.raises(TreeMismatch, match="must hold"):
            StoppingRule(tree, [np.zeros((2, 1), dtype=bool), np.ones(2, dtype=bool)])
