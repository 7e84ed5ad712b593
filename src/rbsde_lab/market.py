"""American-option model on the lattice and market-risk-premium recovery.

The stock follows the multiplicative Euler step ``X * (1 + mu dt +-
sigma sqrt(dt))`` so it stays Markov in the walk value and recombines.  The
option price is the reflected solution with driver ``-(rate * y +
premium * z)`` against the payoff obstacle; the sign comes from moving the
financing term to the driver side of the backward equation, and getting it
wrong is the classic implementation error, so it is spelled out here once.

An independent check prices the same contract by the classical risk-neutral
dynamic program with one-step weights ``(1 -+ premium sqrt(dt)) / 2``; on a
common tree the implicit affine driver step and the discounted reweighted
average are algebraically the same number, which the pricing tests pin to
1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bsde import TerminalCondition
from .errors import NoBracket, PositivityViolated, ProbabilityOutOfRange
from .generators import Add, GeneratorSpec, Scale, YVar, ZVar
from .lattice import AdaptedProcess, ScenarioTree
from .rbsde import LevelData, ObstacleSpec, reflected_roots, solve_rbsde


class PayoffKind(Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class MarketModel:
    """Stock and contract parameters; the premium is always derived."""

    spot: float
    drift: float
    volatility: float
    rate: float
    strike: float
    kind: PayoffKind = PayoffKind.CALL

    def __post_init__(self):
        if not self.spot > 0.0:
            raise ValueError(f"spot must be positive, got {self.spot!r}")
        if not self.volatility > 0.0:
            raise PositivityViolated(
                f"volatility must be positive, got {self.volatility!r}"
            )
        if self.strike < 0.0:
            raise ValueError(f"strike must be nonnegative, got {self.strike!r}")
        if not math.isfinite(self.lipschitz):
            raise ValueError(
                f"premium {self.premium!r} and pricing constant |rate| + |premium| "
                f"= {self.lipschitz!r} must be finite"
            )

    @property
    def premium(self) -> float:
        """Market price of risk: excess drift per unit of volatility."""
        return (self.drift - self.rate) / self.volatility

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant of the pricing driver ``-(rate * y + premium * z)``."""
        return abs(self.rate) + abs(self.premium)

    def payoff(self, x):
        return _payoff(self.kind, self.strike, x)


def _payoff(kind: PayoffKind, strike, x):
    """Payoff at stock values ``x``; a strike column gives one row per strike."""
    if kind is PayoffKind.CALL:
        return np.maximum(np.asarray(x, dtype=float) - strike, 0.0)
    return np.maximum(strike - np.asarray(x, dtype=float), 0.0)


def _step_factors(tree: ScenarioTree, model: MarketModel) -> tuple[float, float]:
    dt = tree.grid.dt
    up = 1.0 + model.drift * dt + model.volatility * tree.sqrt_dt
    down = 1.0 + model.drift * dt - model.volatility * tree.sqrt_dt
    if model.volatility * tree.sqrt_dt >= 1.0 or down <= 0.0 or up <= 0.0:
        raise PositivityViolated(
            f"step factors ({up:.6g}, {down:.6g}) must stay positive; "
            "refine the grid or lower the volatility"
        )
    return up, down


def _stock_levels(tree: ScenarioTree, model: MarketModel) -> Callable[[int], np.ndarray]:
    """Stock level ``i`` on demand, ``spot * up**ups * down**(i - ups)`` per node.

    The powers come from two tables built once, ``spot * up**k`` and
    ``down**k`` for ``k = 0..N``, indexed by the up counts, so a level costs
    two gathers and one product instead of two ``pow`` passes; each entry is
    the power the direct formula takes, bit for bit.  The tables are built
    with warnings silenced, as the sweep runs, so a power that overflows
    surfaces only through the sweep's typed errors.
    """
    up, down = _step_factors(tree, model)
    k = np.arange(tree.steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        spot_up, down_pow = model.spot * up**k, down**k

    def level(i: int) -> np.ndarray:
        ups = tree.up_counts(i)
        return spot_up[ups] * down_pow[i - ups]

    return level


def pricing_driver(model: MarketModel) -> GeneratorSpec:
    """Affine driver ``-(rate * y + premium * z)`` with its natural constant."""
    expr = Add((Scale(-model.rate, YVar()), Scale(-model.premium, ZVar())))
    return GeneratorSpec(expr, model.lipschitz)


def price_american_rbsde(tree: ScenarioTree, model: MarketModel) -> float:
    """Reflected-solver price of one American contract, from a full solve.

    The per-strike reference of :func:`quote_strike_family`, which gives
    the same price bit for bit: one :func:`solve_rbsde` over the payoff
    lattice, O(N^2) memory.  No pricing path calls it.
    """
    stock_level = _stock_levels(tree, model)
    payoff = AdaptedProcess(
        tree, [model.payoff(stock_level(i)) for i in range(tree.steps + 1)]
    )
    terminal = TerminalCondition.from_leaf_values(tree, payoff.level(tree.steps))
    return solve_rbsde(tree, pricing_driver(model), terminal, ObstacleSpec(payoff)).y.root()


def _riskneutral_dp(tree: ScenarioTree, model: MarketModel, *, early_exercise: bool) -> float:
    """Binomial dynamic program under the reweighted step measure.

    Kept apart from the backward kernel, as a check on it; each stock level
    is built when the recursion reaches it.
    """
    theta_step = model.premium * tree.sqrt_dt
    if not -1.0 < theta_step < 1.0:
        raise ProbabilityOutOfRange(
            f"premium * sqrt(dt) = {theta_step:.6g} leaves (-1, 1); refine the grid"
        )
    q_up = (1.0 - theta_step) / 2.0
    q_down = (1.0 + theta_step) / 2.0
    discount = 1.0 + model.rate * tree.grid.dt
    stock_level = _stock_levels(tree, model)
    values = model.payoff(stock_level(tree.steps))
    for i in range(tree.steps - 1, -1, -1):
        up, down = tree.child_values(values)
        values = (q_up * up + q_down * down) / discount
        if early_exercise:
            values = np.maximum(model.payoff(stock_level(i)), values)
    return float(values[0])


def price_american_riskneutral_dp(tree: ScenarioTree, model: MarketModel) -> float:
    """Classical binomial dynamic program under the reweighted step measure."""
    return _riskneutral_dp(tree, model, early_exercise=True)


def price_european_dp(tree: ScenarioTree, model: MarketModel) -> float:
    """Same dynamic program without early exercise; used as a floor check."""
    return _riskneutral_dp(tree, model, early_exercise=False)


def price_strike_family(
    tree: ScenarioTree, model: MarketModel, strikes: Sequence[float]
) -> list[tuple[float, float]]:
    """(strike, price) pairs from one :func:`price_american_rbsde` per strike.

    It stays only for the benchmark's tracer test, which counts those
    calls; strike families are priced by :func:`quote_strike_family`.
    """
    return [(float(k), price_american_rbsde(tree, replace(model, strike=float(k)))) for k in strikes]


class StrikeQuote(NamedTuple):
    """One member of a strike family: its price and first exercise contact.

    ``contact_level`` is the first level at which the value sits within
    ``DEFAULT_CONTACT_TOL`` of the payoff at some node, the level at which
    :func:`exercise_rule` first flags a node (``tree.steps`` at the latest).
    """

    strike: float
    price: float
    contact_level: int


def quote_strike_family(
    tree: ScenarioTree, model: MarketModel, strikes: Sequence[float]
) -> list[StrikeQuote]:
    """Price a strike family in one root-only reflected sweep.

    This is the one pricing path: the ``price`` command, premium recovery
    and the ``pricing`` and ``recovery`` suites call it.  Each level's stock
    and payoffs are built when the sweep reaches it, so memory stays O(N)
    per strike instead of a full solve's O(N^2) lattices.  Every price
    equals :func:`price_american_rbsde` for that strike alone bit for bit,
    and every contact level is the first level at which
    :func:`rbsde.exercise_rule` flags a node of that full solve.
    """
    stock_level = _stock_levels(tree, model)
    models = [replace(model, strike=float(strike)) for strike in strikes]
    if not models:
        return []
    column = np.array([[m.strike] for m in models])

    def payoff_level(i: int) -> np.ndarray:
        return _payoff(model.kind, column, stock_level(i))

    payoff = LevelData(tree, payoff_level)
    roots = reflected_roots(tree, pricing_driver(model), payoff, payoff)
    return [
        StrikeQuote(m.strike, float(value), int(level))
        for m, value, level in zip(models, roots.root, roots.first_contact)
    ]


@dataclass(frozen=True)
class ThetaRecovery:
    theta_hat: float
    objective: float
    evaluations: int


_THETA_BRACKET = (-3.0, 3.0)
_SCAN_SPACING = 0.01
_ZOOM_FACTOR = 10.0
_TARGET_WIDTH = 1e-11

# Brent's bounded minimiser (Brent 1973, ch. 5); the polish table in
# tests/test_market.py pins every step, so recovery's results cannot move.
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_POLISH_XATOL = 1e-12
_POLISH_MAX_EVALUATIONS = 200


def _bounded_brent(func: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Minimise ``func`` on ``[lo, hi]``; returns the best point and its value.

    ``x`` is the best point so far, ``w`` the second best and ``v`` the one
    before.  A parabola through them gives the step when it stays in the
    bracket and shrinks, a golden-section step is taken otherwise, and a
    point that ties ``x`` replaces it.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN_MEAN * (b - a)
    fx = fw = fv = func(x)
    d = e = 0.0
    for _ in range(_POLISH_MAX_EVALUATIONS - 1):
        middle = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + _POLISH_XATOL / 3.0
        tol2 = 2.0 * tol1
        if abs(x - middle) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x)
        if parabolic:
            d = p / q
            if x + d - a < tol2 or b - (x + d) < tol2:
                d = tol1 if middle >= x else -tol1
        else:
            e = (a if x >= middle else b) - x
            d = _GOLDEN_MEAN * e
        step = max(abs(d), tol1)
        u = x + step if d >= 0.0 else x - step
        fu = func(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def recover_theta(
    tree: ScenarioTree,
    observed: Sequence[tuple[float, float]],
    *,
    spot: float,
    volatility: float,
    rate: float,
    kind: PayoffKind = PayoffKind.CALL,
) -> ThetaRecovery:
    """Recover the market-risk premium from observed (strike, price) pairs.

    A candidate premium maps to the drift ``rate + volatility * premium``;
    the whole strike family is repriced on the same tree and the squared
    pricing error is minimised.  On a lattice the pricing map is nearly
    invariant under the premium (the step reweighting undoes the drift up to
    O(dt)), so the objective is small and rippled by payoff kinks crossing
    nodes; a single coarse bracketing would stall in a ripple.  The search
    therefore scans the premium bracket ``_THETA_BRACKET`` finely, zooms
    deterministically on the best point seen, and finishes with a bounded
    Brent polish (:func:`_bounded_brent`), keeping the best evaluation overall.
    """
    if not observed:
        raise NoBracket("need at least one observed price")
    strikes = [k for k, _ in observed]
    targets = np.array([p for _, p in observed], dtype=float)
    evaluations = 0
    best_theta = 0.0
    best_value = math.inf

    def objective(theta: float) -> float:
        nonlocal evaluations, best_theta, best_value
        evaluations += 1
        model = MarketModel(
            spot=spot,
            drift=rate + volatility * float(theta),
            volatility=volatility,
            rate=rate,
            strike=strikes[0],
            kind=kind,
        )
        prices = np.array([q.price for q in quote_strike_family(tree, model, strikes)])
        value = float(np.sum((prices - targets) ** 2))
        if value < best_value:
            best_value = value
            best_theta = float(theta)
        return value

    lo, hi = _THETA_BRACKET
    count = max(int(round((hi - lo) / _SCAN_SPACING)) + 1, 3)
    grid = np.linspace(lo, hi, count)
    values = [objective(float(theta)) for theta in grid]
    if int(np.argmin(values)) in (0, count - 1):
        raise NoBracket("objective is smallest at the bracket edge; widen the bracket")

    width = float(grid[1] - grid[0])
    while width > _TARGET_WIDTH:
        center = best_theta
        lo_z = max(lo, center - width)
        hi_z = min(hi, center + width)
        for theta in np.linspace(lo_z, hi_z, 21):
            objective(float(theta))
        width /= _ZOOM_FACTOR

    polish_theta, polish_value = _bounded_brent(
        objective, max(lo, best_theta - 1e-8), min(hi, best_theta + 1e-8)
    )
    if polish_value <= best_value:
        best_value = polish_value
        best_theta = polish_theta
    return ThetaRecovery(
        theta_hat=best_theta,
        objective=best_value,
        evaluations=evaluations,
    )
