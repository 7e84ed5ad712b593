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
from functools import cached_property, reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ExpressionError, InvalidSample
from .lattice import ScenarioTree, StoppingRule
from .records import Record, ValueRecord


class EvalContext(NamedTuple):
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


class Expr(ValueRecord):
    """Base expression node: immutable, equal to a node of its type with
    equal fields, and shown by its fields.  ``op`` is its prefix token, which
    printing, parsing and :func:`lipschitz_bound` read."""

    __slots__ = ()
    op: str | None = None

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
        return "(" + " ".join([self.op, *(c.to_prefix() for c in self.children())]) + ")"

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


def _coefficient_key(value):
    """A coefficient as compared and hashed: a number as itself, a column as
    its shape and entries.  Two columns are thus equal when ``np.array_equal``
    says so, a column never equals a number, and the hash agrees."""
    if np.ndim(value):
        return np.shape(value), tuple(np.ravel(value).tolist())
    return value


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float | np.ndarray):
        _check_coefficient(value)
        self._set(value)

    def _key(self):
        return (_coefficient_key(self.value),)

    def eval(self, ctx):
        return self.value

    def to_prefix(self):
        return _fmt(self.value)


class Variable(Expr):
    """A variable: its token is both its text and the context field it reads."""

    __slots__ = ()

    def eval(self, ctx):
        return getattr(ctx, self.op)

    def to_prefix(self):
        return self.op


class TimeVar(Variable):
    __slots__ = ()
    op = "t"


class YVar(Variable):
    __slots__ = ()
    op = "y"

    def y_affine(self, ctx):
        return 0.0, 1.0


class ZVar(Variable):
    __slots__ = ()
    op = "z"


class BrownianVar(Variable):
    """Walk value; legal in obstacle/terminal expressions only."""

    __slots__ = ()
    op = "b"

    def eval(self, ctx):
        if ctx.b is None:
            raise ExpressionError("expression uses 'b' outside a state context")
        return ctx.b


# The variables a driver reads, and those obstacle and terminal data read.
DRIVER_VARIABLES = frozenset({"t", "y", "z"})
STATE_VARIABLES = frozenset({"t", "b"})


class _Unary(Expr):
    """A node over one inner expression."""

    __slots__ = _fields = ("inner",)

    def children(self):
        return (self.inner,)


class Neg(_Unary):
    __slots__ = ()
    op = "neg"

    def eval(self, ctx):
        return -self.inner.eval(ctx)

    def y_affine(self, ctx):
        parts = self.inner.y_affine(ctx)
        return None if parts is None else (-parts[0], -parts[1])


class Abs(_Unary):
    __slots__ = ()
    op = "abs"

    def eval(self, ctx):
        return np.abs(self.inner.eval(ctx))


class NegPart(_Unary):
    """Negative part ``max(-x, 0)``."""

    __slots__ = ()
    op = "npart"

    def eval(self, ctx):
        return np.maximum(-np.asarray(self.inner.eval(ctx)), 0.0)


class Add(Expr):
    __slots__ = _fields = ("terms",)
    op = "+"

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


class Scale(Expr):
    __slots__ = _fields = ("factor", "inner")
    op = "*"

    def __init__(self, factor: float | np.ndarray, inner: Expr):
        _check_coefficient(factor)
        self._set(factor, inner)

    def _key(self):
        return _coefficient_key(self.factor), self.inner

    def eval(self, ctx):
        return self.factor * self.inner.eval(ctx)

    def children(self):
        return (self.inner,)

    def y_affine(self, ctx):
        parts = self.inner.y_affine(ctx)
        return None if parts is None else (self.factor * parts[0], self.factor * parts[1])

    def to_prefix(self):
        return f"({self.op} {_fmt(self.factor)} {self.inner.to_prefix()})"


class Min(Expr):
    __slots__ = _fields = ("left", "right")
    op = "min"

    def eval(self, ctx):
        return np.minimum(self.left.eval(ctx), self.right.eval(ctx))

    def children(self):
        return (self.left, self.right)


class PiecewiseTime(Expr):
    """Piece ``j`` applies on ``[bounds[j-1], bounds[j])``; last piece is open-ended."""

    __slots__ = _fields = ("pieces", "bounds")
    op = "pw"

    def __init__(self, pieces: tuple[Expr, ...], bounds: tuple[float, ...]):
        if len(pieces) != len(bounds) + 1:
            raise ExpressionError("piecewise needs one more piece than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ExpressionError("piecewise breakpoints must increase strictly")
        self._set(pieces, bounds)

    def _select(self, t: float) -> Expr:
        return self.pieces[bisect_right(self.bounds, t)]

    def eval(self, ctx):
        return self._select(ctx.t).eval(ctx)

    def children(self):
        return self.pieces

    def y_affine(self, ctx):
        return self._select(ctx.t).y_affine(ctx)

    def to_prefix(self):
        rest = "".join(f" {_fmt(b)} {p.to_prefix()}" for b, p in zip(self.bounds, self.pieces[1:]))
        return f"({self.op} {self.pieces[0].to_prefix()}{rest})"


class AtZeroState(_Unary):
    """Inner expression evaluated at ``y = 0, z = 0`` (time flows through)."""

    __slots__ = ()
    op = "at00"

    def eval(self, ctx):
        return self.inner.eval(ctx._replace(y=0.0, z=0.0))


class ActiveBefore(Expr):
    """Inner expression gated to paths that have not yet stopped.

    The gate is 1 at a node whose path has not stopped at or before the
    node's level, 0 otherwise; this is the discrete reading of the step
    ``[t_i, t_{i+1})`` lying inside ``[0, tau)``, and it is what makes the
    restriction identities exact on the lattice.  It compares by identity.
    """

    __slots__ = _fields = ("rule", "inner")
    __eq__, __hash__ = object.__eq__, object.__hash__

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


# The grammar's node classes by token; Const and ActiveBefore have none.
_GRAMMAR = {node.op: node for node in (TimeVar, YVar, ZVar, BrownianVar, Neg, Abs, NegPart,
                                       AtZeroState, Add, Scale, Min, PiecewiseTime)}
_NODES = frozenset({Const, ActiveBefore, *_GRAMMAR.values()})


def lipschitz_bound(expr: Expr) -> tuple:
    """Structural upper bounds ``(L_y, L_z)`` for the Lipschitz constants in ``y`` and ``z``.

    ``y`` gives (1, 0), ``z`` (0, 1), and ``at00``, ``t``, ``b`` and numbers
    (0, 0); a sum adds its terms' bounds, a scale multiplies its inner's by
    ``|c|``, and any other node takes its children's largest.  A coefficient
    column gives a column of bounds, one per batch member; else each is a float.
    """
    if type(expr) not in _NODES:
        raise ExpressionError(f"unknown expression node {type(expr).__name__}")
    if expr.op in ("y", "z"):
        return (1.0, 0.0) if expr.op == "y" else (0.0, 1.0)
    if expr.op == "at00":
        return 0.0, 0.0
    bounds = [lipschitz_bound(child) for child in expr.children()]
    if expr.op == "*":
        return tuple(abs(expr.factor) * bound for bound in bounds[0])
    if expr.op == "+":
        return tuple(sum(parts) for parts in zip(*bounds))
    return tuple(reduce(_larger, parts) for parts in zip(*bounds)) or (0.0, 0.0)


def _larger(a, b):
    """The larger bound, member by member; a float when both are floats."""
    return np.maximum(a, b) if np.ndim(a) or np.ndim(b) else max(a, b)


# ---------------------------------------------------------------------------
# Prefix text form

_TOKEN = re.compile(r"[()]|[^\s()]+")


def parse_prefix(text: str, *, variables: frozenset[str] = DRIVER_VARIABLES) -> Expr:
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
        node = _GRAMMAR.get(tok)
        if node is None or not issubclass(node, Variable):
            return Const(number(tok))
        if tok not in variables:
            raise ExpressionError(f"variable {tok!r} is not allowed here")
        return node()

    def form(op: str) -> Expr:
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
        if op == "pw":
            pieces = [expr()]
            bounds = []
            while peek() != ")":
                bounds.append(number(take()))
                pieces.append(expr())
            return PiecewiseTime(tuple(pieces), tuple(bounds))
        node = _GRAMMAR.get(op)
        if node is None or issubclass(node, Variable):
            raise ExpressionError(f"unknown operator {op!r}")
        # a fixed-arity form: one expression per field
        return node(*[expr() for _ in node._fields])

    result = expr()
    if pos != len(tokens):
        raise ExpressionError(f"trailing tokens after expression: {tokens[pos:]!r}")
    return result


# ---------------------------------------------------------------------------
# Generator specification

class GeneratorSpec(Record):
    """Evaluable driver; its Lipschitz bounds are read off the expression."""

    _fields = ("expr",)  # no __slots__: ``batch_shape`` and ``lipschitz`` are cached per instance

    @classmethod
    def constant(cls, value: float) -> GeneratorSpec:
        return cls(Const(float(value)))

    @classmethod
    def stack(cls, members: Sequence[GeneratorSpec]) -> GeneratorSpec:
        """One driver whose batch axis runs over ``members``.

        The members' expressions must share one structure; their constants
        and scale factors become columns of shape ``(len(members), 1)``, so
        each member keeps its own bounds and the contraction guard refuses
        the batch exactly when it refuses some member.
        """
        return cls(_stacked_expr([m.expr for m in members]))

    def to_prefix(self) -> str:
        return self.expr.to_prefix()

    @cached_property
    def batch_shape(self) -> tuple[int, ...]:
        """Batch shape of the coefficient columns; ``()`` for a driver of numbers."""
        return _batch_shape(self.expr)

    @cached_property
    def lipschitz(self) -> tuple:
        """``(L_y, L_z)`` of :func:`lipschitz_bound`: the implicit step contracts when
        ``L_y * dt < 1``, and the one-step weights are nonnegative when ``L_z * sqrt(dt) <= 1``."""
        return lipschitz_bound(self.expr)

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
    for name in first._fields:
        values = [getattr(m, name) for m in members]
        if name in ("value", "factor"):  # Const and Scale
            column = np.array(values, dtype=float)[:, None]
            column.flags.writeable = False
            parts[name] = column
        elif isinstance(values[0], Expr):
            parts[name] = _stacked_expr(values)
        elif name in ("terms", "pieces") and len({len(v) for v in values}) == 1:
            parts[name] = tuple(map(_stacked_expr, zip(*values)))
        elif all(v is values[0] or v == values[0] for v in values):
            parts[name] = values[0]
        else:
            raise ExpressionError("stacked expressions must share one structure")
    return type(first)(**parts)


def restrict_generator(generator: GeneratorSpec, rule: StoppingRule) -> GeneratorSpec:
    """Gate the driver to vanish once the rule has stopped; keeps the bounds."""
    return GeneratorSpec(ActiveBefore(rule, generator.expr))


# ---------------------------------------------------------------------------
# Driver sampling

class SampleSpec(ValueRecord):
    """Sampling grid for driver checks: times on [0, t_max], box in (y, z).

    Every sampled driver check reads ``g`` through :meth:`values`.
    """

    __slots__ = _fields = (
        "t_max", "t_count", "y_low", "y_high", "y_count", "z_low", "z_high", "z_count"
    )

    def __init__(
        self,
        t_max: float,
        t_count: int = 21,
        y_low: float = -5.0,
        y_high: float = 5.0,
        y_count: int = 21,
        z_low: float = -5.0,
        z_high: float = 5.0,
        z_count: int = 21,
    ):
        if min(t_count, y_count, z_count) < 1:
            raise InvalidSample("sample counts must be >= 1")
        bounds = ((0.0, t_max), (y_low, y_high), (z_low, z_high))
        if not all(math.isfinite(lo) and math.isfinite(hi) and lo <= hi for lo, hi in bounds):
            raise InvalidSample("sample bounds must be finite, with 0 <= t_max and low <= high")
        self._set(t_max, t_count, y_low, y_high, y_count, z_low, z_high, z_count)

    def t_points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.t_count)

    def y_points(self) -> np.ndarray:
        return np.linspace(self.y_low, self.y_high, self.y_count)

    def z_points(self) -> np.ndarray:
        return np.linspace(self.z_low, self.z_high, self.z_count)

    def values(self, generator: GeneratorSpec) -> np.ndarray:
        """``g`` on the sample box as a ``batch + (t_count, y_count, z_count)`` array.

        Each time is evaluated on its own, so a time-piecewise driver picks
        its piece per time.  The box is evaluated as one flat point axis, so
        a driver's coefficient columns (``batch + (1,)``) broadcast against
        the points and never against the box's own axes.
        """
        box = np.meshgrid(self.y_points(), self.z_points(), indexing="ij")
        ys, zs = (axis.ravel() for axis in box)
        batch = generator.batch_shape
        out = np.empty(batch + (self.t_count, ys.size))
        for k, t in enumerate(self.t_points()):
            out[..., k, :] = generator.evaluate(float(t), ys, zs)
        return out.reshape(batch + (self.t_count, self.y_count, self.z_count))
