"""The package's record types: read-only fields, equality kind and pinned reprs.

Every type below is built once (twice for the equality check).  Assigning
one of its fields must raise ``AttributeError``.  Types that compare by
value compare equal when rebuilt from the same fields; the others compare
by identity.
"""

import copy
import pickle
from typing import NamedTuple

import pytest

from rbsde_lab import cli
from rbsde_lab.errors import ExpressionError, InvalidGrid
from rbsde_lab.bsde import (
    BsdeSolution,
    LevelData,
    SweptLevel,
    TerminalCondition,
)
from rbsde_lab.generators import (
    Abs,
    ActiveBefore,
    Add,
    AtZeroState,
    BrownianVar,
    Const,
    EvalContext,
    Expr,
    GeneratorSpec,
    Min,
    Neg,
    NegPart,
    PiecewiseTime,
    Scale,
    TimeVar,
    YVar,
    ZVar,
    parse_prefix,
)
from rbsde_lab.lattice import (
    AdaptedProcess,
    ScenarioTree,
    StoppingRule,
    TimeGrid,
    TreeMode,
    build_tree,
)
from rbsde_lab.market import MarketModel, PayoffKind, ThetaRecovery
from rbsde_lab.rbsde import ObstacleSpec, RbsdeSolution, ReflectionDiagnostics, solve_rbsde
from rbsde_lab.suites import CheckResult
from rbsde_lab.theorems import (
    ClosedFormSolution,
    ComparisonReport,
    ConverseProbeReport,
    IncomparableDriverReport,
    MaskedDriverReport,
    OrderingCertificate,
    RbsdeProblem,
    StrictWitness,
)

TREE = build_tree(TimeGrid(1.0, 4), TreeMode.RECOMBINING)
ONES = AdaptedProcess.constant(TREE, 1.0)
RULE = StoppingRule.terminal(TREE)
TERMINAL = TerminalCondition.constant(TREE, 1.0)
OBSTACLE = ObstacleSpec(AdaptedProcess.constant(TREE, 0.0), bound=0.0)
DRIVER = GeneratorSpec(YVar())
CERTIFICATE = OrderingCertificate(0.0, 0.0, 0.0)
DIAGNOSTICS = ReflectionDiagnostics(0.0, 0.5, 0.25, 1, 0.0, True)


def _level(i):
    return ONES.level(i)


# (type, builder, a field to assign, compares by value)
RECORDS = [
    # bsde
    (TerminalCondition, lambda: TerminalCondition(TREE, RULE, TERMINAL.values), "rule", False),
    (BsdeSolution, lambda: BsdeSolution(ONES, ONES, 1, 0.0), "y", False),
    (LevelData, lambda: LevelData(TREE, _level), "level", True),
    # a level record holds arrays; scalars stand in for them so that it hashes
    (SweptLevel, lambda: SweptLevel(0, 1.0, 0.0, 0.0, 0.5, None, None, 1), "y", True),
    # cli
    (cli._Optional, lambda: cli._Optional(float, 1.0), "default", True),
    (cli._Expr, lambda: cli._Expr(frozenset({"t"})), "variables", True),
    (cli.RunConfig, lambda: cli.RunConfig({"suite": {"name": "all"}}, 3), "seed", True),
    # generators
    (EvalContext, lambda: EvalContext(0.5, 1.0, 2.0), "t", True),
    (Const, lambda: Const(1.5), "value", True),
    (TimeVar, TimeVar, "inner", True),
    (YVar, YVar, "inner", True),
    (ZVar, ZVar, "inner", True),
    (BrownianVar, BrownianVar, "inner", True),
    (Neg, lambda: Neg(YVar()), "inner", True),
    (Abs, lambda: Abs(ZVar()), "inner", True),
    (NegPart, lambda: NegPart(YVar()), "inner", True),
    (Add, lambda: Add((YVar(), ZVar())), "terms", True),
    (Scale, lambda: Scale(2.0, ZVar()), "factor", True),
    (Min, lambda: Min(YVar(), ZVar()), "left", True),
    (PiecewiseTime, lambda: PiecewiseTime((Const(0.0), TimeVar()), (0.5,)), "bounds", True),
    (AtZeroState, lambda: AtZeroState(YVar()), "inner", True),
    (ActiveBefore, lambda: ActiveBefore(RULE, YVar()), "rule", False),
    (GeneratorSpec, lambda: GeneratorSpec(YVar()), "expr", False),
    # lattice
    (TimeGrid, lambda: TimeGrid(1.0, 4), "steps", True),
    (ScenarioTree, lambda: ScenarioTree(TimeGrid(1.0, 4), TreeMode.RECOMBINING), "grid", True),
    # market
    (
        MarketModel,
        lambda: MarketModel(100.0, 0.08, 0.2, 0.02, 100.0, PayoffKind.PUT),
        "strike",
        True,
    ),
    (ThetaRecovery, lambda: ThetaRecovery(0.3, 1e-12, 42), "theta_hat", True),
    # rbsde
    (ObstacleSpec, lambda: ObstacleSpec(OBSTACLE.process, bound=0.0), "bound", False),
    (ReflectionDiagnostics, lambda: ReflectionDiagnostics(0.0, 0.5, 0.25, 1, 0.0, True),
     "min_gap", True),
    (RbsdeSolution, lambda: RbsdeSolution(ONES, ONES, ONES, None, DIAGNOSTICS), "k", False),
    # suites
    (CheckResult, lambda: CheckResult("x", True, 0.0, 1.0, {"n": 1}), "passed", True),
    # theorems
    (RbsdeProblem, lambda: RbsdeProblem(DRIVER, TERMINAL, OBSTACLE), "generator", False),
    (OrderingCertificate, lambda: OrderingCertificate(0.0, 0.0, 0.0), "terminal_gap", True),
    (
        ComparisonReport,
        lambda: ComparisonReport(CERTIFICATE, 0.0, None, None, False),
        "vacuous",
        True,
    ),
    (StrictWitness, lambda: StrictWitness(RULE, 1.0, 2), "k_index", True),
    (
        ClosedFormSolution,
        lambda: ClosedFormSolution(0.0, 1.0, 0.5, 0.0, 1.0, 2.0),
        "push_rate",
        True,
    ),
    (
        IncomparableDriverReport,
        lambda: IncomparableDriverReport(0.0, 1.0, True, 0.5, 0.5),
        "root_low",
        True,
    ),
    (MaskedDriverReport, lambda: MaskedDriverReport(0.0, 0.0, 40), "max_value_gap", True),
    (
        ConverseProbeReport,
        lambda: ConverseProbeReport(True, 0.0, True, 0.0, 0.1, False),
        "allowance",
        True,
    ),
]


def test_every_record_type_is_listed_once():
    assert len(RECORDS) == 39
    assert len({kind for kind, *_ in RECORDS}) == 39


@pytest.mark.parametrize(
    "kind, build, field, by_value", RECORDS, ids=[kind.__name__ for kind, *_ in RECORDS]
)
def test_fields_are_read_only_and_equality_keeps_its_kind(kind, build, field, by_value):
    record, again = build(), build()
    assert type(record) is kind
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)
    assert (record == again) is by_value
    assert record == record
    if by_value and kind not in (cli.RunConfig, CheckResult):  # these hold a dict
        assert hash(record) == hash(again)


@pytest.mark.parametrize(
    "kind, build, field, by_value", RECORDS, ids=[kind.__name__ for kind, *_ in RECORDS]
)
def test_copies_keep_type_and_fields(kind, build, field, by_value):
    record = build()
    clone = copy.copy(record)
    assert type(clone) is kind and repr(clone) == repr(record)
    assert (clone == record) is by_value
    assert type(copy.deepcopy(record)) is kind


@pytest.mark.parametrize(
    "kind, build, field, by_value", RECORDS, ids=[kind.__name__ for kind, *_ in RECORDS]
)
def test_building_by_keyword_gives_the_same_record(kind, build, field, by_value):
    record = build()
    assert repr(kind(**record._asdict())) == repr(record)


@pytest.mark.parametrize(
    "values, named",
    [
        ((YVar(), ZVar(), YVar()), {}),
        ((YVar(),), {"right": ZVar(), "middle": ZVar()}),
        ((YVar(),), {"left": ZVar(), "right": ZVar()}),
        ((YVar(),), {}),
    ],
    ids=["extra", "unknown", "repeated", "missing"],
)
def test_the_shared_constructor_rejects_what_a_namedtuple_rejects(values, named):
    pair = NamedTuple("Pair", [("left", Expr), ("right", Expr)])
    with pytest.raises(TypeError):
        pair(*values, **named)
    with pytest.raises(TypeError, match=r"Min\(\) takes the fields \('left', 'right'\)"):
        Min(*values, **named)
    assert Min(YVar(), right=ZVar()) == Min(left=YVar(), right=ZVar()) == Min(YVar(), ZVar())


def test_copies_with_a_field_changed_run_the_constructor_checks():
    model = MarketModel(100.0, 0.08, 0.2, 0.02, 90.0, PayoffKind.PUT)
    assert model._replace(strike=80.0) == MarketModel(100.0, 0.08, 0.2, 0.02, 80.0, PayoffKind.PUT)
    with pytest.raises(ValueError, match="strike must be nonnegative"):
        model._replace(strike=-1.0)
    with pytest.raises(InvalidGrid, match="steps must be a positive integer"):
        TimeGrid(1.0, 4)._replace(steps=0)
    with pytest.raises(ExpressionError, match="one more piece"):
        PiecewiseTime((Const(0.0), TimeVar()), (0.5,))._replace(bounds=())
    with pytest.raises(TypeError, match=r"takes the fields \('expr',\)"):
        DRIVER._replace(lipschitz=1.0)  # the bounds are read off the expression
    with pytest.raises(AttributeError):
        del TimeGrid(1.0, 4).steps


def test_checked_records_pickle():
    for record in (TimeGrid(1.0, 4), DRIVER, parse_prefix("(+ y (abs z))")):
        assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


def test_record_reprs_are_pinned():
    assert repr(DIAGNOSTICS) == (
        "ReflectionDiagnostics(skorokhod_residual=0.0, min_gap=0.5, max_increment=0.25, "
        "iterations=1, residual=0.0, cumulative_available=True)"
    )
    assert repr(ThetaRecovery(0.3, 1e-12, 42)) == (
        "ThetaRecovery(theta_hat=0.3, objective=1e-12, evaluations=42)"
    )
    assert repr(CheckResult("comparison/values", True, 0.0, 1e-10, {"instances": 3})) == (
        "CheckResult(name='comparison/values', passed=True, max_violation=0.0, "
        "tolerance=1e-10, details={'instances': 3})"
    )
    assert repr(CheckResult("seedless", True, 0.0, 0.0)) == (
        "CheckResult(name='seedless', passed=True, max_violation=0.0, tolerance=0.0, details={})"
    )
    expr = parse_prefix("(+ (* 2.0 (abs z)) (min y (neg t)) (pw 1.0 0.5 (npart (at00 y))))")
    assert repr(expr) == (
        "Add(terms=(Scale(factor=2.0, inner=Abs(inner=ZVar())), "
        "Min(left=YVar(), right=Neg(inner=TimeVar())), "
        "PiecewiseTime(pieces=(Const(value=1.0), NegPart(inner=AtZeroState(inner=YVar()))), "
        "bounds=(0.5,))))"
    )


def test_solver_records_repr_their_fields():
    sol = solve_rbsde(DRIVER, TERMINAL, OBSTACLE)
    assert repr(sol.diagnostics).startswith("ReflectionDiagnostics(skorokhod_residual=")
    assert repr(sol).startswith("RbsdeSolution(y=<rbsde_lab.lattice.AdaptedProcess object")
    assert repr(TimeGrid(1.0, 4)) == "TimeGrid(horizon=1.0, steps=4)"
    assert repr(MarketModel(100.0, 0.08, 0.2, 0.02, 90.0, PayoffKind.PUT)) == (
        "MarketModel(spot=100.0, drift=0.08, volatility=0.2, rate=0.02, strike=90.0, "
        "kind=<PayoffKind.PUT: 'put'>)"
    )
    assert repr(GeneratorSpec(Const(0.5))) == (
        "GeneratorSpec(expr=Const(value=0.5))"
    )
