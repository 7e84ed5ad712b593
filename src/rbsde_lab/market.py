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
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bsde import LevelData, TerminalCondition, _root, _sweep
from .errors import NoBracket, PositivityViolated, ProbabilityOutOfRange
from .generators import Add, GeneratorSpec, Scale, YVar, ZVar
from .lattice import DEFAULT_CONTACT_TOL, AdaptedProcess, ScenarioTree
from .rbsde import ObstacleSpec, solve_rbsde
from .records import ValueRecord


class PayoffKind(Enum):
    CALL = "call"
    PUT = "put"


class MarketModel(ValueRecord):
    """Stock and contract parameters; the premium is always derived.  A drift
    column of shape ``batch + (1, 1)`` makes one model per batch member."""

    __slots__ = _fields = ("spot", "drift", "volatility", "rate", "strike", "kind")

    def __init__(
        self,
        spot: float,
        drift: float,
        volatility: float,
        rate: float,
        strike: float,
        kind: PayoffKind = PayoffKind.CALL,
    ):
        self._set(spot, drift, volatility, rate, strike, kind)
        if not spot > 0.0:
            raise ValueError(f"spot must be positive, got {spot!r}")
        if not volatility > 0.0:
            raise PositivityViolated(f"volatility must be positive, got {volatility!r}")
        if not math.isfinite(strike):
            raise ValueError(f"strike must be finite, got {strike!r}")
        if strike < 0.0:
            raise ValueError(f"strike must be nonnegative, got {strike!r}")
        if not np.isfinite(self.premium).all():
            raise ValueError(f"premium {self.premium!r} must be finite")

    @property
    def premium(self) -> float:
        """Market price of risk: excess drift per unit of volatility."""
        return (self.drift - self.rate) / self.volatility

    def payoff(self, x):
        return _payoff(self.kind, self.strike, x)


def _payoff(kind: PayoffKind, strike, x):
    """Payoff at stock values ``x``; a strike column gives one row per strike."""
    if kind is PayoffKind.CALL:
        return np.maximum(np.asarray(x, dtype=float) - strike, 0.0)
    return np.maximum(strike - np.asarray(x, dtype=float), 0.0)


def _step_factors(tree: ScenarioTree, model: MarketModel):
    dt = tree.grid.dt
    up = 1.0 + model.drift * dt + model.volatility * tree.sqrt_dt
    down = 1.0 + model.drift * dt - model.volatility * tree.sqrt_dt
    for u, d in zip(np.ravel(up), np.ravel(down)):
        if model.volatility * tree.sqrt_dt >= 1.0 or d <= 0.0 or u <= 0.0:
            raise PositivityViolated(
                f"step factors ({u:.6g}, {d:.6g}) must stay positive; "
                "refine the grid or lower the volatility"
            )
    return up, down


@np.errstate(over="ignore", invalid="ignore")
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
    spot_up, down_pow = model.spot * up**k, down**k

    def level(i: int) -> np.ndarray:
        ups = tree.up_counts(i)
        return spot_up.take(ups, axis=-1) * down_pow.take(i - ups, axis=-1)

    return level


def pricing_driver(model: MarketModel) -> GeneratorSpec:
    """Affine driver ``-(rate * y + premium * z)``, with bounds ``(|rate|, |premium|)``."""
    return GeneratorSpec(Add((Scale(-model.rate, YVar()), Scale(-model.premium, ZVar()))))


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
    return solve_rbsde(pricing_driver(model), terminal, ObstacleSpec(payoff)).y.root()


def _premium_step(tree: ScenarioTree, model: MarketModel) -> float:
    """``premium * sqrt(dt)``, checked to keep both one-step weights ``(1 -+ it) / 2`` positive."""
    if np.ndim(model.premium) != 0:
        raise ValueError(f"premium must be a scalar to price, got shape {np.shape(model.premium)}")
    theta_step = model.premium * tree.sqrt_dt
    if not -1.0 < theta_step < 1.0:
        raise ProbabilityOutOfRange(
            f"premium * sqrt(dt) = {theta_step:.6g} leaves (-1, 1); refine the grid"
        )
    return theta_step


def _riskneutral_dp(tree: ScenarioTree, model: MarketModel, *, early_exercise: bool) -> float:
    """Binomial dynamic program under the reweighted step measure.

    Kept apart from the backward kernel, as a check on it; each stock level
    is built when the recursion reaches it.
    """
    theta_step = _premium_step(tree, model)
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
    return [(float(k), price_american_rbsde(tree, model._replace(strike=float(k)))) for k in strikes]


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

    This is the one pricing path: the ``price`` command and the ``pricing``
    and ``recovery`` suites call it, and premium recovery runs its sweep.
    Each level's stock and payoffs are built as the sweep reaches it, so
    memory stays O(N) per strike, not a full solve's O(N^2) lattices.  Every
    price equals :func:`price_american_rbsde` for that strike alone bit for
    bit, and every contact level is the first level at which
    :func:`rbsde.exercise_rule` flags a node of that full solve.  A model
    whose one-step weights leave (0, 1) is refused, as the dynamic program
    refuses it: the scheme would price on negative weights.
    """
    _premium_step(tree, model)
    contact = np.full(len(strikes), tree.steps)
    for level in _sweep(*_family_sweep(tree, model, strikes)):
        contact[np.logical_or.reduce(level.y <= level.s + DEFAULT_CONTACT_TOL, axis=-1)] = level.i
    quotes = zip(map(float, strikes), level.y[..., 0].tolist(), contact.tolist())
    return [StrikeQuote(*quote) for quote in quotes]


def _family_sweep(tree: ScenarioTree, model: MarketModel, strikes: Sequence[float]) -> tuple:
    """The quote sweep's driver, payoff and payoff: strikes on the last batch axis, drift before."""
    stock_level = _stock_levels(tree, model)
    column = np.array([model._replace(strike=float(k)).strike for k in strikes])[:, None]
    payoff = LevelData(tree, lambda i: _payoff(model.kind, column, stock_level(i)))
    return pricing_driver(model), payoff, payoff


class ThetaRecovery(NamedTuple):
    theta_hat: float
    objective: float
    evaluations: int


_THETA_BRACKET = (-3.0, 3.0)
_SCAN_SPACING = 0.01
_ZOOM_FACTOR = 10.0
_ROUND = 21  # premiums priced per sweep: one zoom round, and a slice of the scan
_TARGET_WIDTH = 1e-11


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
    therefore scans the premium bracket finely and zooms deterministically
    on the best point seen, down to a spacing of ``_TARGET_WIDTH``; the
    first best evaluation is the answer.  The bracket is ``_THETA_BRACKET``
    cut one scan spacing inside ``|premium| * sqrt(dt) < 1``, where both
    one-step weights are positive; it is fixed, not a parameter.
    """
    if not observed:
        raise NoBracket("need at least one observed price")
    strikes = [k for k, _ in observed]
    targets = np.array([p for _, p in observed], dtype=float)
    if not np.isfinite(targets).all():
        raise ValueError(f"observed prices must be finite, got {targets.tolist()!r}")
    evaluations = 0
    best_theta = 0.0
    best_value = math.inf

    def model_at(theta) -> MarketModel:  # theta: a premium or a column of them
        return MarketModel(
            spot=spot, drift=rate + volatility * theta, volatility=volatility, rate=rate,
            strike=strikes[0], kind=kind,
        )

    @np.errstate(over="ignore")  # an error that overflows is an infinite, never-best value
    def objective(thetas: np.ndarray) -> np.ndarray:
        nonlocal evaluations, best_theta, best_value
        evaluations += thetas.size
        prices = _root(*_family_sweep(tree, model_at(thetas[:, None, None]), strikes)).y[..., 0]
        values = np.sum((prices - targets) ** 2, axis=-1)
        first = int(np.argmin(values))  # the first best point, as a sequential scan keeps it
        if values[first] < best_value:
            best_value, best_theta = float(values[first]), float(thetas[first])
        return values

    edge = 1.0 / tree.sqrt_dt - _SCAN_SPACING
    lo, hi = max(_THETA_BRACKET[0], -edge), min(_THETA_BRACKET[1], edge)
    model_at(lo), model_at(hi)  # fails here if an edge overflows; the drift is monotone in theta
    count = max(int(round((hi - lo) / _SCAN_SPACING)) + 1, 3)
    grid = np.linspace(lo, hi, count)
    values = np.concatenate([objective(grid[j : j + _ROUND]) for j in range(0, count, _ROUND)])
    if np.isfinite(values[0]) and (values == values[0]).all():
        names = ", ".join(f"{k:g}" for k in strikes)
        raise NoBracket(
            f"objective is flat over the premium bracket: the prices at strikes {names} "
            "do not depend on the premium, so the observed prices cannot identify it"
        )
    first = int(np.argmin(values))
    if first in (0, count - 1):
        raise NoBracket(
            f"objective is smallest at premium {grid[first]:g}, an edge of the admissible "
            f"range [{lo:g}, {hi:g}]; the range is fixed: [{_THETA_BRACKET[0]:g}, "
            f"{_THETA_BRACKET[1]:g}] cut one scan spacing inside |premium| * sqrt(dt) < 1"
        )

    width = float(grid[1] - grid[0])
    while width > _TARGET_WIDTH:
        objective(np.linspace(max(lo, best_theta - width), min(hi, best_theta + width), _ROUND))
        width /= _ZOOM_FACTOR

    return ThetaRecovery(
        theta_hat=best_theta,
        objective=best_value,
        evaluations=evaluations,
    )
