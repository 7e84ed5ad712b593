"""Driver expressions ``g(t, y, z)`` over a small closed grammar.

The grammar covers constants, the variables ``t``, ``y``, ``z``, negation,
absolute value, the negative part ``max(-x, 0)``, sums, scalar multiples,
binary minima, time-piecewise selection with finitely many breakpoints, and
restriction by a stopping rule.  Expressions have a canonical prefix text
form (s-expressions) used by the CLI; rule-restricted and state-frozen
wrappers are built programmatically only.

Evaluation broadcasts over numpy arrays, which is what the level-vectorised
solvers feed in.  Expressions affine in ``y`` expose their decomposition so
the implicit solver step can be closed in one division instead of iterating.

A constant or a scale factor may be a coefficient column of shape
``batch + (1,)`` instead of a number: one coefficient per batch member,
broadcast against values whose node axis comes last.
:meth:`GeneratorSpec.stack` builds such drivers from members of one
structure.  A column has no prefix text.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ExpressionError, InvalidSample
from .lattice import ScenarioTree, StoppingRule


@dataclass(frozen=True)
class EvalContext:
    """Point(s) at which an expression is evaluated.

    ``level``/``tree`` give node identity and are required only by
    rule-restricted expressions; plain ``(t, y, z)`` sampling leaves them
    unset.  ``b`` carries the walk value for obstacle/terminal expressions.
    """

    t: float
    y: object = 0.0
    z: object = 0.0
    b: object | None = None
    level: int | None = None
    tree: ScenarioTree | None = None


class Expr:
    """Base expression node; subclasses are immutable dataclasses."""

    def eval(self, ctx: EvalContext):
        raise NotImplementedError

    def children(self) -> Iterable["Expr"]:
        return ()

    def y_affine(self, ctx: EvalContext):
        """Return ``(h, a)`` with value ``h + a * y``, or None if not affine.

        A node that does not read ``y`` (``at00`` pins it to 0) is its own
        value with slope 0; nodes that pass ``y`` on affinely override this.
        """
        if isinstance(self, AtZeroState) or not self.uses(YVar):
            return self.eval(ctx), 0.0
        return None

    def to_prefix(self) -> str:
        raise NotImplementedError

    def uses(self, kind: type) -> bool:
        if isinstance(self, kind):
            return True
        return any(c.uses(kind) for c in self.children())


def _fmt(value: float) -> str:
    if np.ndim(value):
        raise ExpressionError("coefficient columns have no text form")
    return repr(float(value))


def _check_coefficient(value) -> None:
    if np.ndim(value) and np.shape(value)[-1] != 1:
        raise ExpressionError("a coefficient column needs shape batch + (1,)")


@dataclass(frozen=True)
class Const(Expr):
    value: float | np.ndarray

    def __post_init__(self):
        _check_coefficient(self.value)

    def eval(self, ctx):
        return self.value

    def to_prefix(self):
        return _fmt(self.value)


@dataclass(frozen=True)
class TimeVar(Expr):
    def eval(self, ctx):
        return ctx.t

    def to_prefix(self):
        return "t"


@dataclass(frozen=True)
class YVar(Expr):
    def eval(self, ctx):
        return ctx.y

    def y_affine(self, ctx):
        return 0.0, 1.0

    def to_prefix(self):
        return "y"


@dataclass(frozen=True)
class ZVar(Expr):
    def eval(self, ctx):
        return ctx.z

    def to_prefix(self):
        return "z"


@dataclass(frozen=True)
class BrownianVar(Expr):
    """Walk value; legal in obstacle/terminal expressions only."""

    def eval(self, ctx):
        if ctx.b is None:
            raise ExpressionError("expression uses 'b' outside a state context")
        return ctx.b

    def to_prefix(self):
        return "b"


@dataclass(frozen=True)
class Neg(Expr):
    inner: Expr

    def eval(self, ctx):
        return -self.inner.eval(ctx)

    def children(self):
        return (self.inner,)

    def y_affine(self, ctx):
        parts = self.inner.y_affine(ctx)
        if parts is None:
            return None
        h, a = parts
        return -h, -a

    def to_prefix(self):
        return f"(neg {self.inner.to_prefix()})"


@dataclass(frozen=True)
class Abs(Expr):
    inner: Expr

    def eval(self, ctx):
        return np.abs(self.inner.eval(ctx))

    def children(self):
        return (self.inner,)

    def to_prefix(self):
        return f"(abs {self.inner.to_prefix()})"


@dataclass(frozen=True)
class NegPart(Expr):
    """Negative part ``max(-x, 0)``."""

    inner: Expr

    def eval(self, ctx):
        return np.maximum(-np.asarray(self.inner.eval(ctx)), 0.0)

    def children(self):
        return (self.inner,)

    def to_prefix(self):
        return f"(npart {self.inner.to_prefix()})"


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple[Expr, ...]

    def eval(self, ctx):
        total = self.terms[0].eval(ctx)
        for term in self.terms[1:]:
            total = total + term.eval(ctx)
        return total

    def children(self):
        return self.terms

    def y_affine(self, ctx):
        h_total, a_total = 0.0, 0.0
        for term in self.terms:
            parts = term.y_affine(ctx)
            if parts is None:
                return None
            h_total = h_total + parts[0]
            a_total = a_total + parts[1]
        return h_total, a_total

    def to_prefix(self):
        return "(+ " + " ".join(t.to_prefix() for t in self.terms) + ")"


@dataclass(frozen=True)
class Scale(Expr):
    factor: float | np.ndarray
    inner: Expr

    def __post_init__(self):
        _check_coefficient(self.factor)

    def eval(self, ctx):
        return self.factor * self.inner.eval(ctx)

    def children(self):
        return (self.inner,)

    def y_affine(self, ctx):
        parts = self.inner.y_affine(ctx)
        if parts is None:
            return None
        h, a = parts
        return self.factor * h, self.factor * a

    def to_prefix(self):
        return f"(* {_fmt(self.factor)} {self.inner.to_prefix()})"


@dataclass(frozen=True)
class Min(Expr):
    left: Expr
    right: Expr

    def eval(self, ctx):
        return np.minimum(self.left.eval(ctx), self.right.eval(ctx))

    def children(self):
        return (self.left, self.right)

    def to_prefix(self):
        return f"(min {self.left.to_prefix()} {self.right.to_prefix()})"


@dataclass(frozen=True)
class PiecewiseTime(Expr):
    """Piece ``j`` applies on ``[bounds[j-1], bounds[j])``; last piece is open-ended."""

    pieces: tuple[Expr, ...]
    bounds: tuple[float, ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.bounds) + 1:
            raise ExpressionError("piecewise needs one more piece than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ExpressionError("piecewise breakpoints must increase strictly")

    def _select(self, t: float) -> Expr:
        return self.pieces[bisect_right(self.bounds, t)]

    def eval(self, ctx):
        return self._select(ctx.t).eval(ctx)

    def children(self):
        return self.pieces

    def y_affine(self, ctx):
        return self._select(ctx.t).y_affine(ctx)

    def to_prefix(self):
        parts = [self.pieces[0].to_prefix()]
        for bound, piece in zip(self.bounds, self.pieces[1:]):
            parts.append(_fmt(bound))
            parts.append(piece.to_prefix())
        return "(pw " + " ".join(parts) + ")"


@dataclass(frozen=True)
class AtZeroState(Expr):
    """Inner expression evaluated at ``y = 0, z = 0`` (time flows through)."""

    inner: Expr

    def eval(self, ctx):
        return self.inner.eval(replace(ctx, y=0.0, z=0.0))

    def children(self):
        return (self.inner,)

    def to_prefix(self):
        return f"(at00 {self.inner.to_prefix()})"


@dataclass(frozen=True, eq=False)
class ActiveBefore(Expr):
    """Inner expression gated to paths that have not yet stopped.

    The gate is 1 at a node whose path has not stopped at or before the
    node's level, 0 otherwise; this is the discrete reading of the step
    ``[t_i, t_{i+1})`` lying inside ``[0, tau)``, and it is what makes the
    restriction identities exact on the lattice.
    """

    rule: StoppingRule
    inner: Expr

    def _gate(self, ctx: EvalContext):
        if ctx.level is None or ctx.tree is None:
            raise ExpressionError("rule-restricted expressions need node context")
        if ctx.tree != self.rule.tree:
            raise ExpressionError("restriction rule lives on a different tree")
        return (~self.rule.stopped_by_level[ctx.level]).astype(float)

    def eval(self, ctx):
        return self._gate(ctx) * np.asarray(self.inner.eval(ctx))

    def children(self):
        return (self.inner,)

    def y_affine(self, ctx):
        parts = self.inner.y_affine(ctx)
        if parts is None:
            return None
        gate = self._gate(ctx)
        return gate * np.asarray(parts[0]), gate * np.asarray(parts[1])

    def to_prefix(self):
        raise ExpressionError("rule-restricted expressions have no text form")


def lipschitz_bound(expr: Expr) -> float:
    """Structural upper bound for the Lipschitz constant in ``(y, z)``.

    A column of scale factors counts with its largest ``|c|``.
    """
    if isinstance(expr, (Const, TimeVar, BrownianVar)):
        return 0.0
    if isinstance(expr, (YVar, ZVar)):
        return 1.0
    if isinstance(expr, (Neg, Abs, NegPart)):
        return lipschitz_bound(expr.inner)
    if isinstance(expr, Scale):
        return float(np.max(np.abs(expr.factor))) * lipschitz_bound(expr.inner)
    if isinstance(expr, Add):
        return sum(lipschitz_bound(t) for t in expr.terms)
    if isinstance(expr, Min):
        return max(lipschitz_bound(expr.left), lipschitz_bound(expr.right))
    if isinstance(expr, PiecewiseTime):
        return max(lipschitz_bound(p) for p in expr.pieces)
    if isinstance(expr, AtZeroState):
        return 0.0
    if isinstance(expr, ActiveBefore):
        return lipschitz_bound(expr.inner)
    raise ExpressionError(f"unknown expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Prefix text form

_TOKEN = re.compile(r"[()]|[^\s()]+")


def parse_prefix(text: str, *, variables: frozenset[str] = frozenset({"t", "y", "z"})) -> Expr:
    """Parse the canonical prefix form; inverse of ``Expr.to_prefix``."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ExpressionError("empty expression")
    pos = 0

    def peek() -> str:
        if pos >= len(tokens):
            raise ExpressionError("unexpected end of expression")
        return tokens[pos]

    def take() -> str:
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def number(tok: str) -> float:
        try:
            value = float(tok)
        except ValueError:
            raise ExpressionError(f"expected a number, got {tok!r}") from None
        if not math.isfinite(value):
            raise ExpressionError(f"non-finite number {tok!r}")
        return value

    def expr() -> Expr:
        tok = take()
        if tok == "(":
            op = take()
            node = form(op)
            if take() != ")":
                raise ExpressionError(f"missing ')' after {op!r} form")
            return node
        if tok == ")":
            raise ExpressionError("unexpected ')'")
        if tok in variables:
            return {"t": TimeVar(), "y": YVar(), "z": ZVar(), "b": BrownianVar()}[tok]
        if tok in {"t", "y", "z", "b"}:
            raise ExpressionError(f"variable {tok!r} is not allowed here")
        return Const(number(tok))

    def form(op: str) -> Expr:
        if op == "neg":
            return Neg(expr())
        if op == "abs":
            return Abs(expr())
        if op == "npart":
            return NegPart(expr())
        if op == "at00":
            return AtZeroState(expr())
        if op == "+":
            terms = []
            while peek() != ")":
                terms.append(expr())
            if len(terms) < 2:
                raise ExpressionError("'+' needs at least two terms")
            return Add(tuple(terms))
        if op == "*":
            factor = number(take())
            return Scale(factor, expr())
        if op == "min":
            return Min(expr(), expr())
        if op == "pw":
            pieces = [expr()]
            bounds = []
            while peek() != ")":
                bounds.append(number(take()))
                pieces.append(expr())
            return PiecewiseTime(tuple(pieces), tuple(bounds))
        raise ExpressionError(f"unknown operator {op!r}")

    result = expr()
    if pos != len(tokens):
        raise ExpressionError(f"trailing tokens after expression: {tokens[pos:]!r}")
    return result


# ---------------------------------------------------------------------------
# Generator specification

@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Evaluable driver with its declared Lipschitz constant."""

    expr: Expr
    lipschitz: float

    def __post_init__(self):
        if not (self.lipschitz >= 0.0 and math.isfinite(self.lipschitz)):
            raise ValueError(f"lipschitz constant must be finite and >= 0, got {self.lipschitz!r}")

    @classmethod
    def constant(cls, value: float) -> GeneratorSpec:
        return cls(Const(float(value)), 0.0)

    @classmethod
    def stack(cls, members: Sequence[GeneratorSpec]) -> GeneratorSpec:
        """One driver whose batch axis runs over ``members``.

        The members' expressions must share one structure; their constants
        and scale factors become columns of shape ``(len(members), 1)``, and
        the declared constant is the largest member's, so the contraction
        guard refuses the batch exactly when it refuses some member.
        """
        return cls(_stacked_expr([m.expr for m in members]), max(m.lipschitz for m in members))

    def to_prefix(self) -> str:
        return self.expr.to_prefix()

    @cached_property
    def batch_shape(self) -> tuple[int, ...]:
        """Batch shape of the coefficient columns; ``()`` for a driver of numbers."""
        return _batch_shape(self.expr)

    @property
    def is_y_free(self) -> bool:
        return not self.expr.uses(YVar)

    def evaluate(self, t: float, y, z, *, level: int | None = None, tree: ScenarioTree | None = None):
        return self.expr.eval(EvalContext(t=t, y=y, z=z, level=level, tree=tree))

    def y_affine(self, t: float, z, *, level: int | None = None, tree: ScenarioTree | None = None):
        """Decomposition ``g = h + a * y`` at fixed ``(t, z)``, or None."""
        return self.expr.y_affine(EvalContext(t=t, y=0.0, z=z, level=level, tree=tree))


def _batch_shape(expr: Expr) -> tuple[int, ...]:
    own = expr.value if isinstance(expr, Const) else expr.factor if isinstance(expr, Scale) else 0.0
    return np.broadcast_shapes(np.shape(own)[:-1], *map(_batch_shape, expr.children()))


def _stacked_expr(members: Sequence[Expr]) -> Expr:
    """The members' common structure with their coefficients as columns."""
    first = members[0]
    if any(type(m) is not type(first) for m in members):
        raise ExpressionError("stacked expressions must share one structure")
    parts = {}
    for field in fields(first):
        values = [getattr(m, field.name) for m in members]
        if field.name in ("value", "factor"):  # Const and Scale
            column = np.array(values, dtype=float)[:, None]
            column.flags.writeable = False
            parts[field.name] = column
        elif isinstance(values[0], Expr):
            parts[field.name] = _stacked_expr(values)
        elif field.name in ("terms", "pieces") and len({len(v) for v in values}) == 1:
            parts[field.name] = tuple(map(_stacked_expr, zip(*values)))
        elif all(v is values[0] or v == values[0] for v in values):
            parts[field.name] = values[0]
        else:
            raise ExpressionError("stacked expressions must share one structure")
    return type(first)(**parts)


def restrict_generator(generator: GeneratorSpec, rule: StoppingRule) -> GeneratorSpec:
    """Gate the driver to vanish once the rule has stopped; keeps the constant."""
    return GeneratorSpec(ActiveBefore(rule, generator.expr), generator.lipschitz)


# ---------------------------------------------------------------------------
# Assumption checking

@dataclass(frozen=True)
class SampleSpec:
    """Sampling grid for driver checks: times on [0, t_max], box in (y, z).

    Every sampled driver check reads ``g`` through :meth:`values`.
    """

    t_max: float
    t_count: int = 21
    y_low: float = -5.0
    y_high: float = 5.0
    y_count: int = 21
    z_low: float = -5.0
    z_high: float = 5.0
    z_count: int = 21

    def __post_init__(self):
        if min(self.t_count, self.y_count, self.z_count) < 1:
            raise InvalidSample("sample counts must be >= 1")
        bounds = ((0.0, self.t_max), (self.y_low, self.y_high), (self.z_low, self.z_high))
        if not all(math.isfinite(lo) and math.isfinite(hi) and lo <= hi for lo, hi in bounds):
            raise InvalidSample("sample bounds must be finite, with 0 <= t_max and low <= high")

    def t_points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.t_count)

    def y_points(self) -> np.ndarray:
        return np.linspace(self.y_low, self.y_high, self.y_count)

    def z_points(self) -> np.ndarray:
        return np.linspace(self.z_low, self.z_high, self.z_count)

    def _box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.y_points(), self.z_points(), indexing="ij")

    def values(self, generator: GeneratorSpec) -> np.ndarray:
        """``g`` on the sample box as a ``batch + (t_count, y_count, z_count)`` array.

        Each time is evaluated on its own, so a time-piecewise driver picks
        its piece per time.  The box is evaluated as one flat point axis, so
        a driver's coefficient columns (``batch + (1,)``) broadcast against
        the points and never against the box's own axes.
        """
        ys, zs = (axis.ravel() for axis in self._box())
        batch = generator.batch_shape
        out = np.empty(batch + (self.t_count, ys.size))
        for k, t in enumerate(self.t_points()):
            out[..., k, :] = generator.evaluate(float(t), ys, zs)
        return out.reshape(batch + (self.t_count, self.y_count, self.z_count))


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled evidence for or against the declared driver properties.

    ``max_time_jump`` is a change detector across adjacent sample times: a
    driver that genuinely varies in t will exceed the threshold even though
    it is continuous, so treat that flag as 'not constant between samples'.
    """

    declared_lipschitz: float
    max_lipschitz_quotient: float
    max_abs_at_zero_z: float
    max_time_jump: float
    max_abs_at_origin: float
    lipschitz_exceeded: bool
    zero_z_exceeded: bool
    time_jump_exceeded: bool

    _THRESHOLD = 1e-9


def check_assumptions(generator: GeneratorSpec, sample: SampleSpec) -> AssumptionReport:
    """Sample the driver and compare against its declared properties.

    Reports (a) the largest difference quotient against the declared
    Lipschitz constant, (b) the largest ``|g(t, y, 0)|``, and (c) the largest
    jump of ``t -> g`` across adjacent sample times.  A bound counts as
    exceeded beyond 1e-9.  A box without two distinct (y, z) points has no
    difference quotient and raises :class:`InvalidSample`.
    """
    zero_z = replace(sample, z_low=0.0, z_high=0.0, z_count=1)
    origin = replace(zero_z, y_low=0.0, y_high=0.0, y_count=1)
    values = sample.values(generator)

    ys, zs = (axis.ravel() for axis in sample._box())
    den = np.abs(ys[:, None] - ys[None, :]) + np.abs(zs[:, None] - zs[None, :])
    off_diag = den > 0.0
    if not off_diag.any():
        raise InvalidSample("a difference quotient needs two distinct (y, z) points")
    quot_max = 0.0
    for g in values.reshape(sample.t_count, sample.y_count * sample.z_count):
        num = np.abs(g[:, None] - g[None, :])
        quot_max = max(quot_max, float(np.max(num[off_diag] / den[off_diag])))
    zero_z_max = float(np.max(np.abs(zero_z.values(generator)), initial=0.0))
    origin_max = float(np.max(np.abs(origin.values(generator)), initial=0.0))
    jump_max = float(np.max(np.abs(np.diff(values, axis=0)), initial=0.0))

    thr = AssumptionReport._THRESHOLD
    return AssumptionReport(
        declared_lipschitz=generator.lipschitz,
        max_lipschitz_quotient=quot_max,
        max_abs_at_zero_z=zero_z_max,
        max_time_jump=jump_max,
        max_abs_at_origin=origin_max,
        lipschitz_exceeded=quot_max > generator.lipschitz + thr,
        zero_z_exceeded=zero_z_max > thr,
        time_jump_exceeded=jump_max > thr,
    )
