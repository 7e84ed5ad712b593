import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rbsde_lab.generators
from rbsde_lab import (
    ExpressionError,
    GeneratorSpec,
    InvalidSample,
    SampleSpec,
    StoppingRule,
    TimeGrid,
    TreeMode,
    build_tree,
    lipschitz_bound,
    parse_prefix,
    restrict_generator,
)
from rbsde_lab.generators import (
    Abs,
    Add,
    AtZeroState,
    BrownianVar,
    Const,
    EvalContext,
    Expr,
    Min,
    Neg,
    NegPart,
    PiecewiseTime,
    Scale,
    TimeVar,
    Variable,
    YVar,
    ZVar,
)


def evaluate(expr, t=0.0, y=0.0, z=0.0):
    return expr.eval(EvalContext(t=t, y=y, z=z))


class TestEvaluation:
    def test_negative_part(self):
        assert evaluate(NegPart(Const(0.5))) == 0.0
        assert evaluate(NegPart(Const(-0.5))) == 0.5

    def test_masked_driver_values_below_cut(self):
        # min(2 * (y - 0)^-, |z|) against min(1 * (y - 1)^-, |z|)
        g1 = GeneratorSpec(
            Min(Scale(2.0, NegPart(YVar())), Abs(ZVar()))
        )
        g2 = GeneratorSpec(
            Min(Scale(1.0, NegPart(Add((YVar(), Const(-1.0))))), Abs(ZVar()))
        )
        # between the cuts the first driver is flat zero, the second is not
        assert g1.evaluate(0.0, 0.5, 1.0) == 0.0
        assert g2.evaluate(0.0, 0.5, 1.0) == 0.5
        # above both cuts the drivers agree identically
        assert g1.evaluate(0.0, 1.2, 1.0) == g2.evaluate(0.0, 1.2, 1.0) == 0.0

    def test_piecewise_selects_half_open_intervals(self):
        ramp = PiecewiseTime((TimeVar(), Const(0.5)), (0.5,))
        assert evaluate(ramp, t=0.0) == 0.0
        assert evaluate(ramp, t=0.49) == 0.49
        assert evaluate(ramp, t=0.5) == 0.5
        assert evaluate(ramp, t=1.0) == 0.5

    def test_piecewise_rejects_bad_breakpoints(self):
        with pytest.raises(ExpressionError):
            PiecewiseTime((Const(1.0), Const(2.0), Const(3.0)), (0.7, 0.2))

    def test_at_zero_state_freezes_y_and_z(self):
        expr = AtZeroState(Add((TimeVar(), YVar(), Abs(ZVar()))))
        assert evaluate(expr, t=0.25, y=9.0, z=-3.0) == 0.25

    def test_broadcasting_over_levels(self):
        g = GeneratorSpec(Add((Scale(2.0, YVar()), Abs(ZVar()))))
        y = np.array([1.0, -1.0, 0.5])
        z = np.array([0.0, 2.0, -2.0])
        np.testing.assert_allclose(g.evaluate(0.0, y, z), [2.0, 0.0, 3.0])


class TestAffineDetection:
    def test_affine_driver_decomposes(self):
        g = GeneratorSpec(
            Add((Scale(-0.02, YVar()), Scale(-0.3, ZVar())))
        )
        h, a = g.y_affine(0.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(np.broadcast_to(h, (2,)), [-0.3, -0.6])
        assert float(np.asarray(a)) == -0.02

    def test_nonlinear_driver_returns_none(self):
        g = GeneratorSpec(Abs(YVar()))
        assert g.y_affine(0.0, 0.0) is None

    def test_y_free_nonlinearities_stay_affine(self):
        g = GeneratorSpec(Min(Abs(ZVar()), Const(2.0)))
        h, a = g.y_affine(0.0, np.array([-3.0, 1.0]))
        np.testing.assert_allclose(np.broadcast_to(h, (2,)), [2.0, 1.0])
        assert float(np.asarray(a)) == 0.0


# every node type that answers y_affine through the base rule, built around
# an inner expression
_Y_FREE_NODES = {
    "Const": lambda inner: Const(-1.25),
    "TimeVar": lambda inner: TimeVar(),
    "ZVar": lambda inner: ZVar(),
    "Abs": Abs,
    "NegPart": NegPart,
    "Min": lambda inner: Min(inner, Scale(0.5, ZVar())),
    "AtZeroState": AtZeroState,
}


class TestYFreeRule:
    @pytest.mark.parametrize("name", sorted(_Y_FREE_NODES))
    def test_y_free_node_is_its_value_with_slope_zero(self, name):
        expr = _Y_FREE_NODES[name](Add((TimeVar(), Scale(-2.0, ZVar()))))
        ctx = EvalContext(t=0.3, y=0.0, z=np.array([-1.5, 0.0, 2.0 / 3.0]))
        h, a = expr.y_affine(ctx)
        value = expr.eval(ctx)
        assert a == 0.0 and isinstance(a, float)
        assert np.asarray(h).dtype == np.asarray(value).dtype
        assert np.asarray(h).tobytes() == np.asarray(value).tobytes()

    @pytest.mark.parametrize("name", ["Abs", "NegPart", "Min"])
    def test_wrapping_y_is_not_affine(self, name):
        assert _Y_FREE_NODES[name](YVar()).y_affine(EvalContext(t=0.3, z=1.0)) is None

    def test_at00_pins_a_wrapped_y(self):
        assert AtZeroState(YVar()).y_affine(EvalContext(t=0.3, y=4.0, z=1.0)) == (0.0, 0.0)

class TestLipschitzBound:
    def test_structural_bounds(self):
        assert lipschitz_bound(Const(5.0)) == (0.0, 0.0)
        assert lipschitz_bound(YVar()) == (1.0, 0.0)
        assert lipschitz_bound(ZVar()) == (0.0, 1.0)
        assert lipschitz_bound(Add((YVar(), ZVar()))) == (1.0, 1.0)
        assert lipschitz_bound(Scale(-3.0, Abs(ZVar()))) == (0.0, 3.0)
        assert lipschitz_bound(Min(Scale(2.0, YVar()), Abs(ZVar()))) == (2.0, 1.0)
        assert lipschitz_bound(AtZeroState(YVar())) == (0.0, 0.0)
        assert lipschitz_bound(Neg(Scale(-1.5, YVar()))) == (1.5, 0.0)
        assert lipschitz_bound(NegPart(Add((YVar(), ZVar(), Abs(YVar()))))) == (2.0, 1.0)
        pieces = (Scale(0.5, ZVar()), Add((YVar(), Scale(-2.0, ZVar()))), TimeVar())
        assert lipschitz_bound(PiecewiseTime(pieces, (0.25, 0.75))) == (1.0, 2.0)
        assert lipschitz_bound(TimeVar()) == (0.0, 0.0)
        assert lipschitz_bound(BrownianVar()) == (0.0, 0.0)
        assert all(type(bound) is float for bound in lipschitz_bound(Min(YVar(), ZVar())))

    def test_a_driver_reads_its_bounds_off_its_expression(self):
        g = GeneratorSpec(Add((Scale(-0.02, YVar()), Scale(0.3, Abs(ZVar())))))
        assert g.lipschitz == lipschitz_bound(g.expr) == (0.02, 0.3)
        assert g.lipschitz is g.lipschitz  # cached, as batch_shape is

    def test_a_restricted_driver_keeps_its_inner_bound(self):
        tree = build_tree(TimeGrid(1.0, 4), TreeMode.RECOMBINING)
        inner = Add((Scale(-1.5, YVar()), Abs(ZVar())))
        gated = restrict_generator(GeneratorSpec(inner), StoppingRule.root(tree))
        assert gated.lipschitz == lipschitz_bound(inner) == (1.5, 1.0)

    def test_a_node_outside_the_grammar_is_an_expression_error(self):
        class Foreign(Expr):
            __slots__ = ()

        with pytest.raises(ExpressionError, match="^unknown expression node Foreign$"):
            lipschitz_bound(Add((YVar(), Foreign())))


def exprs(variables=("t", "y", "z")):
    """Grammar expressions over ``variables`` (``b`` is the walk value of state data)."""
    nodes = {"t": TimeVar(), "y": YVar(), "z": ZVar(), "b": BrownianVar()}
    atoms = [
        st.builds(Const, st.floats(-5, 5, allow_nan=False, allow_infinity=False).map(float)),
        *(st.just(nodes[name]) for name in variables),
    ]
    base = st.one_of(*atoms)

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Abs, children),
            st.builds(NegPart, children),
            st.builds(
                Scale,
                st.floats(-3, 3, allow_nan=False, allow_infinity=False).map(float),
                children,
            ),
            st.builds(Min, children, children),
            st.builds(lambda a, b: Add((a, b)), children, children),
            st.builds(AtZeroState, children),
            st.builds(
                lambda a, b, cut: PiecewiseTime((a, b), (cut,)),
                children,
                children,
                st.floats(0.1, 0.9).map(float),
            ),
        )

    return st.recursive(base, extend, max_leaves=12)


_COEFFICIENTS = st.floats(-3, 3, allow_nan=False, allow_infinity=False).map(float)
_POINTS = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def _magnitude(expr, t, y, z) -> float:
    """A bound on every value met while evaluating ``expr`` at ``(t, y, z)``,
    the scale against which its rounding errors are measured."""
    if isinstance(expr, Const):
        return abs(expr.value)
    if isinstance(expr, Variable):
        return abs(getattr(EvalContext(t, y, z), expr.op))
    if isinstance(expr, AtZeroState):
        return _magnitude(expr.inner, t, 0.0, 0.0)
    if isinstance(expr, PiecewiseTime):
        return _magnitude(expr._select(t), t, y, z)
    total = sum(_magnitude(child, t, y, z) for child in expr.children())
    return max(1.0, abs(expr.factor)) * total if isinstance(expr, Scale) else total


def _recoefficient(expr, draw):
    """``expr`` with every constant and scale factor drawn anew: one structure."""
    if isinstance(expr, Const):
        return Const(draw(_COEFFICIENTS))
    if isinstance(expr, Scale):
        return Scale(draw(_COEFFICIENTS), _recoefficient(expr.inner, draw))
    fields = {}
    for name, value in expr._asdict().items():
        if isinstance(value, Expr):
            value = _recoefficient(value, draw)
        elif name in ("terms", "pieces"):
            value = tuple(_recoefficient(v, draw) for v in value)
        fields[name] = value
    return type(expr)(**fields)


class TestLipschitzBoundHolds:
    @settings(max_examples=300, deadline=None)
    @given(exprs(), st.floats(0.0, 1.0), _POINTS, _POINTS, _POINTS, _POINTS)
    def test_bounds_hold_between_any_two_points(self, expr, t, y1, z1, y2, z2):
        l_y, l_z = lipschitz_bound(expr)
        g = GeneratorSpec(expr)
        gap = abs(float(g.evaluate(t, y1, z1)) - float(g.evaluate(t, y2, z2)))
        # a few ulps of the largest values met in the two evaluations
        scale = _magnitude(expr, t, y1, z1) + _magnitude(expr, t, y2, z2)
        slack = 64 * np.finfo(float).eps * scale
        assert gap <= l_y * abs(y1 - y2) + l_z * abs(z1 - z2) + slack

    @settings(max_examples=100, deadline=None)
    @given(exprs(), st.integers(1, 4), st.data())
    def test_a_stacked_driver_bounds_each_member_as_alone(self, expr, extra, data):
        members = [GeneratorSpec(expr)]
        members += [GeneratorSpec(_recoefficient(expr, data.draw)) for _ in range(extra)]
        stacked = GeneratorSpec.stack(members)
        for bound, own in zip(stacked.lipschitz, zip(*(m.lipschitz for m in members))):
            column = np.broadcast_to(bound, (len(members), 1))[:, 0]
            assert column.tolist() == list(own)


class TestPrefixForm:
    @pytest.mark.parametrize(
        "text",
        [
            "0.3333333333333333",
            "t",
            "(+ (* -0.02 y) (* -0.3 z))",
            "(min (* 2.0 (npart (+ y -1.0))) (abs z))",
            "(pw t 0.5 0.5)",
            "(at00 (+ t y z))",
            "(neg (abs y))",
        ],
    )
    def test_round_trip_from_text(self, text):
        expr = parse_prefix(text)
        assert parse_prefix(expr.to_prefix()) == expr

    @given(exprs())
    def test_round_trip_from_tree(self, expr):
        assert parse_prefix(expr.to_prefix()) == expr

    def test_variable_whitelist(self):
        with pytest.raises(ExpressionError):
            parse_prefix("(+ y b)")
        parse_prefix("(abs b)", variables=frozenset({"t", "b"}))
        with pytest.raises(ExpressionError):
            parse_prefix("(abs y)", variables=frozenset({"t", "b"}))

    @pytest.mark.parametrize("bad", ["", "(+ 1)", "(foo 1 2)", "(min 1 2", "(abs 1) junk"])
    def test_rejects_malformed_text(self, bad):
        with pytest.raises(ExpressionError):
            parse_prefix(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("neg", "expected a number, got 'neg'"),
            ("(neg)", "unexpected ')'"),
            ("(min y)", "unexpected ')'"),
            ("b", "variable 'b' is not allowed here"),
            ("(foo y)", "unknown operator 'foo'"),
            ("(at00 y z)", "missing ')' after 'at00' form"),
            ("(min y z w)", "missing ')' after 'min' form"),
            ("(+ y)", "'+' needs at least two terms"),
            ("(* y z)", "expected a number, got 'y'"),
            ("(pw y 0.5)", "unexpected ')'"),
            ("min", "expected a number, got 'min'"),
        ],
    )
    def test_error_messages_are_pinned(self, text, message):
        with pytest.raises(ExpressionError) as raised:
            parse_prefix(text)
        assert str(raised.value) == message

    def test_a_one_piece_piecewise_and_a_bare_variable_parse(self):
        assert parse_prefix("(pw y)") == PiecewiseTime((YVar(),), ())
        assert parse_prefix("t") == TimeVar()

    @pytest.mark.parametrize(
        "bad", ["nan", "inf", "-inf", "1e309", "(* inf y)", "(+ y NaN)", "(pw t -1e400 1.0)"]
    )
    def test_rejects_non_finite_literals(self, bad):
        with pytest.raises(ExpressionError, match="non-finite"):
            parse_prefix(bad)

    def test_only_nodes_that_print_more_than_their_token_write_to_prefix(self):
        # Expr.to_prefix prints "(op child ...)" from each node's token and
        # children; a node writes its own only to print numbers (Const,
        # Scale, PiecewiseTime), as a bare token (the variables' base), or
        # to refuse (ActiveBefore)
        module = ast.parse(Path(rbsde_lab.generators.__file__).read_text())
        writers = {
            node.name
            for node in module.body
            if isinstance(node, ast.ClassDef)
            and issubclass(getattr(rbsde_lab.generators, node.name), Expr)
            and any(isinstance(f, ast.FunctionDef) and f.name == "to_prefix" for f in node.body)
        }
        assert writers == {"Expr", "Const", "Variable", "Scale", "PiecewiseTime", "ActiveBefore"}

    def test_rule_gated_expressions_have_no_text_form(self):
        tree = build_tree(TimeGrid(1.0, 3), TreeMode.FULL_BINARY)
        gated = restrict_generator(
            GeneratorSpec.constant(1.0), StoppingRule.root(tree)
        )
        with pytest.raises(ExpressionError):
            gated.to_prefix()


class TestRestriction:
    def test_terminal_rule_leaves_driver_unchanged(self):
        tree = build_tree(TimeGrid(1.0, 3), TreeMode.FULL_BINARY)
        g = GeneratorSpec.constant(0.7)
        gated = restrict_generator(g, StoppingRule.terminal(tree))
        for level in range(3):
            vals = gated.evaluate(
                tree.grid.time(level),
                np.zeros(tree.level_size(level)),
                np.zeros(tree.level_size(level)),
                level=level,
                tree=tree,
            )
            np.testing.assert_array_equal(vals, 0.7)

    def test_root_rule_zeroes_driver_everywhere(self):
        tree = build_tree(TimeGrid(1.0, 3), TreeMode.FULL_BINARY)
        gated = restrict_generator(GeneratorSpec.constant(0.7), StoppingRule.root(tree))
        for level in range(4):
            vals = gated.evaluate(
                tree.grid.time(level),
                np.zeros(tree.level_size(level)),
                np.zeros(tree.level_size(level)),
                level=level,
                tree=tree,
            )
            np.testing.assert_array_equal(vals, 0.0)

    def test_requires_node_context(self):
        tree = build_tree(TimeGrid(1.0, 3), TreeMode.FULL_BINARY)
        gated = restrict_generator(GeneratorSpec.constant(1.0), StoppingRule.root(tree))
        with pytest.raises(ExpressionError):
            gated.evaluate(0.0, 0.0, 0.0)


class TestCheckAssumptions:
    """The driver sampler every sampled driver check reads ``g`` through."""

    def test_values_evaluate_each_time_on_the_box(self):
        sample = SampleSpec(t_max=1.0, t_count=5, y_low=-1.0, y_high=2.0, y_count=4, z_count=3)
        g = GeneratorSpec(PiecewiseTime((Add((YVar(), ZVar())), TimeVar()), (0.5,)))
        values = sample.values(g)
        assert values.shape == (5, 4, 3)
        for i, t in enumerate(sample.t_points()):
            for j, y in enumerate(sample.y_points()):
                for k, z in enumerate(sample.z_points()):
                    assert values[i, j, k] == float(np.asarray(g.evaluate(float(t), y, z)))
        # the piece is chosen per time: y + z before 0.5, t from there on
        assert np.all(values[3] == 0.75) and np.ptp(values[1]) > 0.0

    def test_masked_driver_vanishes_at_zero_coefficient(self):
        g = GeneratorSpec(
            Min(Scale(1.5, NegPart(Add((YVar(), Const(-1.0))))), Abs(ZVar())),
        )
        zero_z = SampleSpec(t_max=1.0, t_count=7, y_count=9, z_low=0.0, z_high=0.0, z_count=9)
        np.testing.assert_array_equal(zero_z.values(g), 0.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"t_count": 0},
            {"y_count": 0},
            {"z_count": -1},
            {"y_low": 1.0, "y_high": 0.0},
            {"z_high": float("inf")},
            {"y_low": float("nan")},
            {"t_max": -1.0},
            {"t_max": float("inf")},
        ],
    )
    def test_degenerate_sample_is_rejected_when_built(self, fields):
        with pytest.raises(InvalidSample):
            SampleSpec(**{"t_max": 1.0, **fields})


def _affine_members():
    # one structure, five coefficient sets
    coefficients = [(0.5, -1.0, 0.25), (-0.75, 2.0, 0.0), (0.0, 0.5, -1.5), (1.25, -0.25, 3.0),
                    (-2.0, 0.0, -0.5)]
    return [
        GeneratorSpec(Add((Scale(a, YVar()), Scale(b, Abs(ZVar())), Const(c))))
        for a, b, c in coefficients
    ]


class TestCoefficientColumns:
    def test_stacked_driver_evaluates_as_each_member(self):
        members = _affine_members()
        stacked = GeneratorSpec.stack(members)
        assert stacked.expr.terms[0].factor.shape == (5, 1)
        for bound, own in zip(stacked.lipschitz, zip(*(m.lipschitz for m in members))):
            assert bound.shape == (5, 1) and bound[:, 0].tolist() == list(own)
        rng = np.random.default_rng(3)
        y, z = rng.normal(size=(2, 5, 7))
        values = stacked.evaluate(0.3, y, z)
        h, a = stacked.y_affine(0.3, z)
        for k, member in enumerate(members):
            assert values[k].tobytes() == np.asarray(member.evaluate(0.3, y[k], z[k])).tobytes()
            h_k, a_k = member.y_affine(0.3, z[k])
            assert np.broadcast_to(h, (5, 7))[k].tobytes() == np.broadcast_to(h_k, (7,)).tobytes()
            assert float(a[k, 0]).hex() == float(a_k).hex()

    def test_sampled_values_keep_the_batch_apart_from_the_box(self):
        # 11 members on an 11 x 11 box: a column broadcast against the box's
        # own axes would give the right shape and the wrong numbers
        members = [
            GeneratorSpec(Add((Scale(0.1 * k, YVar()), Scale(-0.05 * k, ZVar()), Const(k))))
            for k in range(11)
        ]
        sample = SampleSpec(t_max=1.0, t_count=3, y_count=11, z_count=11)
        values = sample.values(GeneratorSpec.stack(members))
        assert values.shape == (11, 3, 11, 11)
        for k, member in enumerate(members):
            assert values[k].tobytes() == sample.values(member).tobytes()

    def test_columns_have_no_text_and_bound_each_member_apart(self):
        stacked = GeneratorSpec.stack(_affine_members())
        with pytest.raises(ExpressionError, match="no text form"):
            stacked.to_prefix()
        l_y, l_z = lipschitz_bound(stacked.expr)
        assert l_y[:, 0].tolist() == [0.5, 0.75, 0.0, 1.25, 2.0]
        assert l_z[:, 0].tolist() == [1.0, 2.0, 0.5, 0.25, 0.0]
        # two terms in y: a column-wide largest |c| would read 2 for both members
        a, b = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
        l_y, l_z = lipschitz_bound(Add((Scale(a, YVar()), Scale(b, Abs(YVar())))))
        assert l_y[:, 0].tolist() == [1.0, 1.0] and l_z[:, 0].tolist() == [0.0, 0.0]

    def test_a_column_needs_a_trailing_axis_of_one(self):
        with pytest.raises(ExpressionError, match="batch"):
            Const(np.zeros(3))
        with pytest.raises(ExpressionError, match="batch"):
            Scale(np.ones((2, 3)), YVar())

    def test_stacking_needs_one_structure(self):
        with pytest.raises(ExpressionError, match="one structure"):
            GeneratorSpec.stack([GeneratorSpec(YVar()), GeneratorSpec(ZVar())])
        with pytest.raises(ExpressionError, match="one structure"):
            GeneratorSpec.stack(
                [GeneratorSpec(PiecewiseTime((YVar(), ZVar()), (cut,))) for cut in (0.2, 0.5)]
            )

    def test_equal_columns_compare_equal_and_hash_alike(self):
        column = np.array([[0.5], [-1.0]])
        for make in (Const, lambda c: Scale(c, YVar())):
            assert make(column) == make(column.copy())
            assert hash(make(column)) == hash(make(column.copy()))
        # -0.0 == 0.0, as np.array_equal has it, so the hash must agree too
        zero, negative_zero = Const(np.array([[0.0]])), Const(np.array([[-0.0]]))
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        stacked = GeneratorSpec.stack(_affine_members()).expr
        again = GeneratorSpec.stack(_affine_members()).expr
        assert stacked == again and hash(stacked) == hash(again)

    def test_unequal_columns_compare_unequal(self):
        column = np.array([[0.5], [-1.0]])
        assert Const(column) != Const(np.array([[0.5], [2.0]]))
        assert Const(column) != Const(np.array([[0.5], [-1.0], [0.0]]))  # shape
        assert Scale(column, YVar()) != Scale(column, ZVar())
        stacked = GeneratorSpec.stack(_affine_members()).expr
        assert stacked != GeneratorSpec.stack(_affine_members()[::-1]).expr
        assert len({stacked, GeneratorSpec.stack(_affine_members()[::-1]).expr}) == 2

    def test_a_column_never_equals_a_number(self):
        assert Const(np.array([[1.0]])) != Const(1.0)
        assert Const(1.0) != Const(np.array([[1.0]]))
        assert Scale(np.array([[2.0]]), YVar()) != Scale(2.0, YVar())
        # numbers compare and hash as before
        assert Const(1.0) == Const(1.0) and hash(Const(1.0)) == hash(Const(1.0))
        assert Scale(2.0, YVar()) == Scale(2.0, YVar()) != Scale(3.0, YVar())
