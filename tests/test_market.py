import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsde_lab import (
    ContractionViolated,
    MarketModel,
    NoBracket,
    PayoffKind,
    PositivityViolated,
    ProbabilityOutOfRange,
    TimeGrid,
    TreeMode,
    build_tree,
    price_american_rbsde,
    price_american_riskneutral_dp,
    price_european_dp,
    quote_strike_family,
    recover_theta,
)
from rbsde_lab import market
from rbsde_lab.bsde import LevelData, TerminalCondition
from rbsde_lab.lattice import AdaptedProcess
from rbsde_lab.rbsde import ObstacleSpec, exercise_rule, solve_rbsde

BASE = dict(spot=100.0, drift=0.08, volatility=0.2, rate=0.02, strike=100.0)


def recomb_tree(steps, horizon=1.0):
    return build_tree(TimeGrid(horizon, steps), TreeMode.RECOMBINING)


def full_solve(tree, model):
    """The contract's full reflected solve and its exercise rule: a quote's references."""
    stock = market._stock_levels(tree, model)
    payoff = AdaptedProcess(tree, [model.payoff(stock(i)) for i in range(tree.steps + 1)])
    obstacle = ObstacleSpec(payoff)
    terminal = TerminalCondition.from_leaf_values(tree, payoff.level(tree.steps))
    solution = solve_rbsde(market.pricing_driver(model), terminal, obstacle)
    return solution, exercise_rule(solution, obstacle)


class TestModel:
    def test_premium_is_derived(self):
        model = MarketModel(**BASE)
        assert model.premium == pytest.approx((0.08 - 0.02) / 0.2)
        assert model.premium == pytest.approx(0.3)

    def test_zero_volatility_rejected(self):
        with pytest.raises(PositivityViolated):
            MarketModel(spot=100.0, drift=0.0, volatility=0.0, rate=0.0, strike=100.0)

    def test_payoffs(self):
        call = MarketModel(**BASE)
        put = MarketModel(**{**BASE, "kind": PayoffKind.PUT})
        assert call.payoff(110.0) == 10.0
        assert call.payoff(90.0) == 0.0
        assert put.payoff(90.0) == 10.0


class TestStock:
    def test_single_step_up_factor(self):
        tree = recomb_tree(100)  # dt = 0.01
        model = MarketModel(**BASE)
        stock = market._stock_levels(tree, model)
        assert stock(1)[1] == pytest.approx(100.0 * (1 + 0.0008 + 0.02))
        assert stock(1)[1] == pytest.approx(102.08)

    def test_driftless_stock_is_a_martingale(self):
        tree = recomb_tree(64)
        model = MarketModel(**{**BASE, "drift": 0.0})
        stock = market._stock_levels(tree, model)
        for i in (1, 16, 64):
            mean = tree.expectation(stock(i), i)
            assert mean == pytest.approx(100.0, abs=1e-10)

    @pytest.mark.parametrize(
        "mode, steps", [(TreeMode.RECOMBINING, 2000), (TreeMode.FULL_BINARY, 12)]
    )
    def test_tabled_powers_equal_the_direct_formula_bit_for_bit(self, mode, steps):
        tree = build_tree(TimeGrid(1.0, steps), mode)
        model = MarketModel(**{**BASE, "drift": -0.3, "volatility": 0.45, "spot": 37.5})
        dt = tree.grid.dt
        up = 1.0 + model.drift * dt + model.volatility * tree.sqrt_dt
        down = 1.0 + model.drift * dt - model.volatility * tree.sqrt_dt
        stock = market._stock_levels(tree, model)
        for i in range(steps + 1):
            ups = tree.up_counts(i)
            direct = model.spot * up**ups * down ** (i - ups)
            assert stock(i).tobytes() == direct.tobytes()

    def test_positivity_guard(self):
        tree = recomb_tree(2)  # sqrt(dt) ~ 0.7
        model = MarketModel(**{**BASE, "volatility": 1.5})
        with pytest.raises(PositivityViolated):
            market._stock_levels(tree, model)


class TestPricingIdentity:
    @pytest.mark.parametrize("volatility", [0.15, 0.3])
    @pytest.mark.parametrize("strike", [90.0, 110.0])
    @pytest.mark.parametrize("kind", list(PayoffKind))
    def test_solver_matches_dynamic_program(self, volatility, strike, kind):
        tree = recomb_tree(128)
        model = MarketModel(
            **{**BASE, "volatility": volatility, "strike": strike, "kind": kind}
        )
        lhs = price_american_rbsde(tree, model)
        rhs = price_american_riskneutral_dp(tree, model)
        assert abs(lhs - rhs) <= 1e-10

    def test_deep_in_the_money_put_exercises_immediately(self):
        tree = recomb_tree(128)
        model = MarketModel(**{**BASE, "strike": 30000.0, "kind": PayoffKind.PUT})
        (quote,) = quote_strike_family(tree, model, [model.strike])
        assert quote.price == model.strike - model.spot
        assert quote.contact_level == 0

    def test_boundary_step_probability_is_valid(self):
        # premium * sqrt(dt) = 0.5 gives step weights 0.25 / 0.75
        tree = build_tree(TimeGrid(1.0, 4), TreeMode.RECOMBINING)
        model = MarketModel(
            spot=100.0, drift=0.04, volatility=0.2, rate=0.0, strike=100.0
        )
        assert model.premium * tree.sqrt_dt == pytest.approx(0.1)
        boundary = MarketModel(
            spot=100.0, drift=0.2, volatility=0.2, rate=0.0, strike=100.0
        )
        assert boundary.premium * tree.sqrt_dt == pytest.approx(0.5)
        assert price_american_riskneutral_dp(tree, boundary) > 0.0

    def test_probability_guard(self):
        tree = build_tree(TimeGrid(1.0, 1), TreeMode.RECOMBINING)
        model = MarketModel(
            spot=100.0, drift=0.45, volatility=0.2, rate=0.0, strike=100.0
        )  # premium 2.25, sqrt(dt) = 1
        with pytest.raises(ProbabilityOutOfRange):
            price_american_riskneutral_dp(tree, model)
        with pytest.raises(ProbabilityOutOfRange, match="premium \\* sqrt\\(dt\\) = 2.25 leaves"):
            quote_strike_family(tree, model, [model.strike])

    def test_zero_premium_call_equals_plain_expectation(self):
        tree = recomb_tree(128)
        model = MarketModel(
            spot=100.0, drift=0.0, volatility=0.2, rate=0.0, strike=100.0
        )
        priced = price_american_rbsde(tree, model)
        stock = market._stock_levels(tree, model)
        plain = tree.expectation(model.payoff(stock(128)), 128)
        assert priced == pytest.approx(plain, abs=1e-10)
        assert priced == pytest.approx(price_european_dp(tree, model), abs=1e-10)

    def test_fully_covered_call_never_exercises_early(self):
        # strike below the tree minimum: strictly in the money everywhere
        tree = recomb_tree(64)
        model = MarketModel(
            spot=100.0, drift=0.02, volatility=0.2, rate=0.02, strike=10.0
        )
        (quote,) = quote_strike_family(tree, model, [model.strike])
        assert float(np.min(market._stock_levels(tree, model)(64))) > model.strike
        assert quote.contact_level == 64  # no exercise flag below the last level

    def test_exercise_nodes_match_the_dynamic_program(self):
        tree = recomb_tree(64)
        model = MarketModel(
            **{**BASE, "drift": 0.05, "rate": 0.06, "kind": PayoffKind.PUT}
        )
        solution, exercise = full_solve(tree, model)
        assert solution.y.root().hex() == price_american_rbsde(tree, model).hex()
        stock = market._stock_levels(tree, model)
        q_up = (1.0 - model.premium * tree.sqrt_dt) / 2.0
        discount = 1.0 + model.rate * tree.grid.dt
        values = model.payoff(stock(64))
        for i in range(63, -1, -1):
            up, down = tree.child_values(values)
            continuation = (q_up * up + (1.0 - q_up) * down) / discount
            payoff = model.payoff(stock(i))
            values = np.maximum(payoff, continuation)
            exercises = payoff >= continuation + 1e-10
            gap = solution.y.level(i) - payoff
            assert np.all(gap[exercises] <= 1e-10)
            assert np.all(exercise.flags(i)[exercises])

    def test_american_dominates_obstacle_and_european(self):
        tree = recomb_tree(128)
        model = MarketModel(**{**BASE, "kind": PayoffKind.PUT})
        priced = price_american_rbsde(tree, model)
        assert priced >= model.payoff(model.spot) - 1e-12
        assert priced >= price_european_dp(tree, model) - 1e-12


class TestStrikeFamily:
    def test_call_prices_decrease_in_strike(self):
        tree = recomb_tree(128)
        model = MarketModel(**BASE)
        family = quote_strike_family(tree, model, [80.0, 90.0, 100.0, 110.0, 120.0])
        prices = [q.price for q in family]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_zero_strike_call_prices_the_stock_claim(self):
        tree = recomb_tree(64)
        model = MarketModel(**{**BASE, "strike": 0.0})
        priced = price_american_rbsde(tree, model)
        dp = price_american_riskneutral_dp(tree, model)
        assert priced == pytest.approx(dp, abs=1e-10)
        assert priced >= model.spot - 1e-9  # the claim is worth the stock

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.just(TreeMode.RECOMBINING), st.integers(8, 64)),
            st.tuples(st.just(TreeMode.FULL_BINARY), st.integers(8, 12)),
        ),
        kind=st.sampled_from(list(PayoffKind)),
        drift=st.floats(-0.2, 0.3),
        volatility=st.floats(0.1, 0.6),
        rate=st.floats(0.0, 0.1),
        strikes=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=6),
    )
    def test_batched_quotes_match_single_solves_bit_for_bit(
        self, shape, kind, drift, volatility, rate, strikes
    ):
        mode, steps = shape
        tree = build_tree(TimeGrid(1.0, steps), mode)
        model = MarketModel(
            spot=100.0, drift=drift, volatility=volatility, rate=rate,
            strike=strikes[0], kind=kind,
        )
        quotes = quote_strike_family(tree, model, strikes)
        assert [q.strike for q in quotes] == strikes
        for strike, quote in zip(strikes, quotes):
            single = model._replace(strike=strike)
            solution, exercise = full_solve(tree, single)
            contact = next(i for i in range(steps + 1) if exercise.flags(i).any())
            assert quote.price.hex() == solution.y.root().hex()
            assert quote.price.hex() == price_american_rbsde(tree, single).hex()
            assert quote.contact_level == contact

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.just(TreeMode.RECOMBINING), st.integers(8, 64)),
            st.tuples(st.just(TreeMode.FULL_BINARY), st.integers(8, 12)),
        ),
        kind=st.sampled_from(list(PayoffKind)),
        volatility=st.floats(0.1, 0.6),
        rate=st.floats(0.0, 0.1),
        premiums=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
        strikes=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=6),
    )
    def test_premium_column_members_match_their_own_quotes_bit_for_bit(
        self, shape, kind, volatility, rate, premiums, strikes
    ):
        # recovery's round: a drift column puts the premiums in front of the strikes
        mode, steps = shape
        tree = build_tree(TimeGrid(1.0, steps), mode)
        model = MarketModel(
            spot=100.0, drift=rate + volatility * np.array(premiums)[:, None, None],
            volatility=volatility, rate=rate, strike=strikes[0], kind=kind,
        )
        roots = market._family_roots(tree, model, strikes)
        assert roots.root.shape == (len(premiums), len(strikes))
        for theta, prices, contacts in zip(premiums, roots.root, roots.first_contact):
            single = model._replace(drift=rate + volatility * theta)
            # the sweep alone: the quote refuses premiums with |premium| sqrt(dt) >= 1
            solo = market._family_roots(tree, single, strikes)
            assert [float(p).hex() for p in solo.root] == [float(p).hex() for p in prices]
            assert solo.first_contact.tolist() == contacts.tolist()

    def test_quote_sweep_builds_the_last_payoff_level_twice(self, monkeypatch):
        # once as the terminal value, once as the obstacle; every other level once
        tree = recomb_tree(40)
        reads = []
        sweep = market._sweep

        def counting_sweep(generator, terminal, obstacle):
            assert terminal is obstacle

            def level(i):
                reads.append(i)
                return terminal.level(i)

            data = LevelData(terminal.tree, level)
            return sweep(generator, data, data)

        monkeypatch.setattr(market, "_sweep", counting_sweep)
        quotes = quote_strike_family(tree, MarketModel(**BASE), [90.0, 110.0])
        assert len(quotes) == 2
        assert reads.count(tree.steps) == 2
        assert sorted(set(reads)) == list(range(tree.steps + 1))
        assert len(reads) == tree.steps + 2


def pinned(recovery):
    """A recovery's exact outcome: premium and objective as hex, and the evaluation count."""
    return recovery.theta_hat.hex(), recovery.objective.hex(), recovery.evaluations


class TestRecovery:
    def synthetic(self, tree, theta, strikes):
        volatility, rate = 0.2, 0.02
        model = MarketModel(
            spot=100.0,
            drift=rate + volatility * theta,
            volatility=volatility,
            rate=rate,
            strike=strikes[0],
        )
        return [(q.strike, q.price) for q in quote_strike_family(tree, model, strikes)]

    def test_five_strike_recovery(self):
        tree = recomb_tree(32)
        observed = self.synthetic(tree, 0.3, [80.0, 90.0, 100.0, 110.0, 120.0])
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert abs(recovery.theta_hat - 0.3) <= 1e-6
        assert recovery.objective <= 1e-15
        assert pinned(recovery) == ("0x1.3333333333338p-2", "0x1.5200000000000p-93", 792)

    def test_zero_premium_recovery(self):
        tree = recomb_tree(32)
        observed = self.synthetic(tree, 0.0, [90.0, 100.0, 110.0])
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert abs(recovery.theta_hat) <= 1e-6
        assert pinned(recovery) == ("0x0.0p+0", "0x0.0p+0", 796)

    def test_single_observation_recovery(self):
        tree = recomb_tree(32)
        observed = self.synthetic(tree, 0.3, [100.0])
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert abs(recovery.theta_hat - 0.3) <= 1e-5
        assert pinned(recovery) == ("0x1.3333333333338p-2", "0x1.0000000000000p-96", 792)

    def test_empty_observations_rejected(self):
        tree = recomb_tree(8)
        with pytest.raises(NoBracket):
            recover_theta(tree, [], spot=100.0, volatility=0.2, rate=0.02)

    def test_a_flat_objective_says_the_prices_ignore_the_premium(self):
        # puts this deep in the money are exercised at once, at K - spot for every premium
        tree = recomb_tree(48)
        observed = [(300.0, 200.0), (400.0, 300.0)]
        message = "prices at strikes 300, 400 do not depend on the premium"
        with pytest.raises(NoBracket, match=message):
            recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02, kind=PayoffKind.PUT)

    def test_recovery_prices_each_round_of_premiums_in_one_sweep(self, monkeypatch):
        # the benchmark's recover workload at seed 1
        batches = []
        sweep = market._sweep

        def counting_sweep(*args):
            roots = sweep(*args)
            batches.append(roots.root.shape)
            return roots

        monkeypatch.setattr(market, "_sweep", counting_sweep)
        tree, targets = _recovery_targets(1)
        observed = list(zip(RECOVER_STRIKES, targets))
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert recovery.evaluations == 793
        # 29 scan rounds (28 of 21 premiums and the last 13), 9 zoom rounds, 3 polish steps
        assert batches == [(21, 5)] * 28 + [(13, 5)] + [(21, 5)] * 9 + [(1, 5)] * 3

    @pytest.mark.parametrize(
        "steps, volatility, rate, error, message",
        [
            # the down factor is negative at the bracket's lower edge only,
            # theta = -1.99 on 4 steps
            (
                4, 1.2, 0.02, PositivityViolated,
                "step factors (1.008, -0.192) must stay positive; "
                "refine the grid or lower the volatility",
            ),
            # the pricing driver's slope in y is |rate|, whatever the premium
            (1, 0.2, 1.5, ContractionViolated, "lipschitz * dt = 1.5 >= 1; refine the grid"),
        ],
        ids=["step-factors", "contraction"],
    )
    def test_a_refused_first_candidate_names_itself(
        self, steps, volatility, rate, error, message
    ):
        # every factor rises with the premium, so the first candidate refused
        # is the scan's first, at the bracket's lower edge
        with pytest.raises(error) as caught:
            recover_theta(
                recomb_tree(steps), [(100.0, 5.0)], spot=100.0, volatility=volatility, rate=rate
            )
        assert str(caught.value) == message

    @pytest.mark.parametrize("steps, edge", [(1, 0.99), (4, 1.99), (9, 2.99), (48, 3.0)])
    def test_the_scan_keeps_to_premiums_with_positive_weights(self, monkeypatch, steps, edge):
        # the bracket [-3, 3] is cut one scan spacing inside |premium| * sqrt(dt) < 1
        premiums = []
        roots = market._family_roots

        def recording_roots(tree, model, strikes):
            premiums.extend(np.ravel(model.premium).tolist())
            return roots(tree, model, strikes)

        monkeypatch.setattr(market, "_family_roots", recording_roots)
        tree = recomb_tree(steps)
        observed = self.synthetic(tree, 0.3, [100.0])
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert min(premiums) == pytest.approx(-edge, abs=1e-12)
        assert max(premiums) == pytest.approx(edge, abs=1e-12)
        assert max(abs(p) for p in premiums) * tree.sqrt_dt < 1.0
        assert abs(recovery.theta_hat - 0.3) <= 1e-5

    def test_a_premium_only_negative_weights_fit_is_not_returned(self):
        # a call at 100 priced 1 on 4 steps fits only theta = -2.05, where
        # |theta| * sqrt(dt) = 1.03; the scan stops at -1.99 and returns a
        # premium the quotes accept
        tree = recomb_tree(4)
        recovery = recover_theta(tree, [(100.0, 1.0)], spot=100.0, volatility=0.2, rate=0.02)
        assert abs(recovery.theta_hat) * tree.sqrt_dt < 1.0
        model = MarketModel(
            spot=100.0, drift=0.02 + 0.2 * recovery.theta_hat, volatility=0.2, rate=0.02,
            strike=100.0,
        )
        (quote,) = quote_strike_family(tree, model, [100.0])
        assert abs(quote.price - 1.0) ** 2 == pytest.approx(recovery.objective)


def _quadratic(c, scale=1.0, floor=0.0):
    return lambda x: scale * (x - c) ** 2 + floor


def _rippled(c, amplitude, frequency):
    """A quadratic with a sine ripple, on which parabolic steps get rejected."""
    return lambda x: (x - c) ** 2 + amplitude * math.sin(frequency * x)


def _vee(c):
    return lambda x: abs(x - c)


def _rounded(c, digits):
    """A quadratic rounded to flat steps, so the minimiser meets ties."""
    return lambda x: round((x - c) ** 2, digits)


def _stepped(c, scale):
    """A vee floored to flat steps, so new points tie the second-best one."""
    return lambda x: float(math.floor(scale * abs(x - c)))


def _constant(value):
    return lambda x: value


RECOVER_STRIKES = (80.0, 90.0, 100.0, 110.0, 120.0)
# theta_hat of the benchmark's recover workload (N=48, five calls) at seeds 1-3
_RECOVERED = {
    1: float.fromhex("-0x1.58534993c8d05p-3"),
    2: float.fromhex("0x1.941bdae530f72p-2"),
    3: float.fromhex("-0x1.f95673482eea8p-3"),
}


@functools.lru_cache
def _recovery_targets(seed):
    """The recover workload's tree and observed DP prices at premium draw ``seed``."""
    theta = float(np.random.default_rng([seed, 1]).uniform(-0.5, 0.5))
    tree = recomb_tree(48)
    model = MarketModel(**{**BASE, "drift": 0.02 + 0.2 * theta})
    targets = [
        price_american_riskneutral_dp(tree, model._replace(strike=k)) for k in RECOVER_STRIKES
    ]
    return tree, np.array(targets)


def _recovery_error(seed):
    """recover_theta's objective at workload seed ``seed``: the squared pricing error."""

    def error(theta):
        tree, targets = _recovery_targets(seed)
        model = MarketModel(**{**BASE, "drift": 0.02 + 0.2 * theta})
        prices = np.array([q.price for q in quote_strike_family(tree, model, RECOVER_STRIKES)])
        return float(np.sum((prices - targets) ** 2))

    return error


# Outcomes of recover_theta's bounded polish (xatol 1e-12, at most 200
# evaluations) as scipy 1.17.1's minimize_scalar(method="bounded") gave them,
# as (case, objective, lo, hi, x, fun, every evaluated point in order);
# market._bounded_brent must repeat each bit for bit.  The cases reach every
# branch: parabolic steps taken and rejected, the step of tol1 away from a
# bracket edge, ties (flat, stepped and constant objectives) and the evaluation cap.
POLISH_TABLE = (
    ("quadratic-narrow", _quadratic(0.3), 0.3 - 1e-8, 0.3 + 1e-8,
     "0x1.3333335bc1945p-2", "0x1.9b33627916510p-58", (
        "0x1.3333330aa4d21p-2", "0x1.3333335bc1945p-2",
    )),
    ("quadratic-narrow-at-0", _quadratic(2e-9), -1e-8, 1e-8,
     "0x1.12e0be826d695p-29", "0x0.0p+0", (
        "-0x1.4473091c2bca8p-29", "0x1.4473091c2bca4p-29", "0x1.6abed329e5bcdp-28",
        "0x1.12e0be826d695p-29", "0x1.12ec792d2a88dp-29", "0x1.12d503d7b049dp-29",
    )),
    ("ripple-narrow-at-0", _rippled(3e-9, 1e-19, 2e9), -1e-8, 1e-8,
     "0x1.90060435c7dc3p-29", "-0x1.597da7a509490p-65", (
        "-0x1.4473091c2bca8p-29", "0x1.4473091c2bca4p-29", "0x1.6abed329e5bcdp-28",
        "0x1.9cc39a6e1ac36p-29", "0x1.965e14708ef56p-29", "0x1.907535e6a9eadp-29",
        "0x1.8ffa496be94c6p-29", "0x1.90060435c7dc3p-29", "0x1.9011beffa9574p-29",
    )),
    ("vee-narrow-at-0", _vee(-4e-9), -1e-8, 1e-8,
     "-0x1.12e347f45f7f4p-28", "0x1.44b8f90af8000p-43", (
        "-0x1.4473091c2bca8p-29", "0x1.4473091c2bca4p-29", "-0x1.6abed329e5bcep-28",
        "-0x1.2b818ad8c3b92p-28", "-0x1.0e093ff612d2ap-28", "-0x1.c9b62e39ab4a3p-29",
        "-0x1.0e94b61f2a7d6p-28", "-0x1.16f62096995b0p-28", "-0x1.1ecf0b8b512bcp-28",
        "-0x1.12e347f45f7f4p-28", "-0x1.12d31cff944a6p-28", "-0x1.13b2ad2dcc365p-28",
        "-0x1.13327fc2fea79p-28", "-0x1.12ee9b0081929p-28", "-0x1.12dd6a7ccccd7p-28",
    )),
    ("constant-narrow", _constant(0.0), 0.3 - 1e-8, 0.3 + 1e-8,
     "0x1.3333335bc1945p-2", "0x0.0p+0", (
        "0x1.3333330aa4d21p-2", "0x1.3333335bc1945p-2",
    )),
    ("quadratic-width-1", _quadratic(-0.25, 3.0, 1.0), -1.0, 0.0,
     "-0x1.0000003fb5dc1p-2", "0x1.0000000000000p+0", (
        "-0x1.3c6ef372fe950p-1", "-0x1.8722191a02d62p-2", "-0x1.e3779b97f4a7ep-3",
        "-0x1.0000000000003p-2", "-0x1.0000003fb5dc1p-2", "-0x1.0000007f6bb80p-2",
    )),
    ("quadratic-width-5", _quadratic(0.7), -2.0, 3.0,
     "0x1.6666666666666p-1", "0x0.0p+0", (
        "-0x1.715609f7c7480p-4", "0x1.1715609f7c745p+0", "0x1.d1d53ec107171p+0",
        "0x1.6666666666666p-1", "0x1.6666660d35eabp-1", "0x1.666666bf96e21p-1",
    )),
    ("quadratic-width-10", _quadratic(1.234), 0.0, 10.0,
     "0x1.3be76c8b43955p+0", "0x1.2000000000000p-101", (
        "0x1.e8ea9f60838b8p+1", "0x1.8b8ab04fbe3a2p+2", "0x1.2e2ac13ef8e8ep+1",
        "0x1.3be76c8b43955p+0", "0x1.3be76cd9e081bp+0", "0x1.3be76c3ca6a8fp+0",
    )),
    ("ripple-width-3", _rippled(0.4, 0.05, 40.0), -1.0, 2.0,
     "0x1.2b3805a11b8f3p-1", "-0x1.efef72be366f4p-7", (
        "0x1.2acc969c11040p-3", "0x1.b54cda58fbbedp-1", "-0x1.2acc969c11047p-2",
        "0x1.8f618aeedf0f2p-2", "0x1.6b254bc64ba7dp-2", "0x1.227307f258f05p-1",
        "0x1.3097be055f6bbp-1", "0x1.634850da880b8p-1", "0x1.43f45a313cf7fp-1",
        "0x1.37fcffb3cf70ap-1", "0x1.2b30c0eecea5cp-1", "0x1.2b1025bab3f70p-1",
        "0x1.2b37c0d8802bdp-1", "0x1.2b38065c1f755p-1", "0x1.2b3805a11b8f3p-1",
        "0x1.2b380556a5313p-1", "0x1.2b3805eb91ed3p-1",
    )),
    ("ripple-width-3-fast", _rippled(1.1, 0.01, 300.0), 0.0, 3.0,
     "0x1.25861f5e30b5dp+0", "-0x1.006e9e353d6c4p-7", (
        "0x1.255992d382208p+0", "0x1.daa66d2c7ddf6p+0", "0x1.6a99b4b1f77dcp-1",
        "0x1.1945c9210ab0dp+0", "0x1.6a99b4b1f77dcp+0", "0x1.2e2de2389fc7fp+0",
        "0x1.21f4a0abc34fdp+0", "0x1.28b8ef6869693p+0", "0x1.240daa6d7db67p+0",
        "0x1.26a3592d1a531p+0", "0x1.24dacbc933b31p+0", "0x1.258a100b8c3f3p+0",
        "0x1.2587a3f86aa78p+0", "0x1.25861bc3abb09p+0", "0x1.25861f5e30b5dp+0",
        "0x1.25861f152580ap+0", "0x1.25861fa73beb0p+0",
    )),
    ("vee-width-2", _vee(0.123), -1.0, 1.0,
     "0x1.f7ced95013539p-4", "0x1.cc61448000000p-31", (
        "-0x1.e3779b97f4a80p-3", "0x1.e3779b97f4a78p-3", "0x1.0e44323405ac1p-1",
        "0x1.0bf7d5d6c8a6cp-3", "0x1.0168251d02493p-4", "0x1.137659f0bf1e4p-3",
        "0x1.cc7ba7dc7c9a6p-4", "0x1.fb1d9c04db758p-4", "0x1.f538f6d00cf6cp-4",
        "0x1.f5beba40b127ep-4", "0x1.f7e03d98b28c9p-4", "0x1.f91d080476623p-4",
        "0x1.f79ff5e0299bdp-4", "0x1.f7fc078363180p-4", "0x1.f7ce9465a23d5p-4",
        "0x1.f7bcc5d0c3714p-4", "0x1.f7ceae122f1dcp-4", "0x1.f7d316743be74p-4",
        "0x1.f7d05d13326a3p-4", "0x1.f7cf200fcdfc7p-4", "0x1.f7ced95013539p-4",
        "0x1.f7cef45623f34p-4", "0x1.f7ced52a9e6bdp-4", "0x1.f7cede95dfccfp-4",
        "0x1.f7ced9cd781bap-4", "0x1.f7ced8550d199p-4", "0x1.f7ced8d2ae8b8p-4",
    )),
    ("vee-width-10", _vee(3.3), 0.0, 10.0,
     "0x1.a666669a9cb9ep+1", "0x1.a1b29c0000000p-26", (
        "0x1.e8ea9f60838b8p+1", "0x1.8b8ab04fbe3a2p+2", "0x1.2e2ac13ef8e8ep+1",
        "0x1.c2266a5b5e79dp+1", "0x1.9c12027763b2ep+1", "0x1.8eb601912e241p+1",
        "0x1.a7098efae5cf0p+1", "0x1.b164bade69402p+1", "0x1.a68e437a54b89p+1",
        "0x1.a403716b08cdbp+1", "0x1.a595ac190fd0ap+1", "0x1.a65d2ef5c4299p+1",
        "0x1.a5e66d76f1158p+1", "0x1.a655772db48aap+1", "0x1.a66ace95296aap+1",
        "0x1.a669d1694601cp+1", "0x1.a665a4bd84478p+1", "0x1.a662697c60731p+1",
        "0x1.a66649ff467b8p+1", "0x1.a6670b356eabcp+1", "0x1.a666606e273abp+1",
        "0x1.a666874428b5dp+1", "0x1.a66667502c2aap+1", "0x1.a6667384a63b3p+1",
        "0x1.a66667e9eaf3ep+1", "0x1.a6666574d7697p+1", "0x1.a666669a9cb9ep+1",
        "0x1.a66666317fb1cp+1",
    )),
    ("rounded-width-1", _rounded(0.5, 1), 0.0, 1.0,
     "0x1.872219b90786cp-2", "0x0.0p+0", (
        "0x1.8722191a02d60p-2", "0x1.3c6ef372fe94fp-1", "0x1.8722191a02d60p-1",
        "0x1.fffffffffffffp-2", "0x1.d1d53ec107172p-2", "0x1.b54cda58fbbeep-2",
        "0x1.a3aa7d820e2e4p-2", "0x1.98c475f0f066ap-2", "0x1.920820ab209dbp-2",
        "0x1.8dde6e5fd29f0p-2", "0x1.8b4bcb6550d4bp-2", "0x1.89b4bc1484a05p-2",
        "0x1.88b9286acf0a7p-2", "0x1.881dacc3b86bep-2", "0x1.87bd94c119748p-2",
        "0x1.8782311ca1cd5p-2", "0x1.875d7cbe7a7d3p-2", "0x1.8746cd782a263p-2",
        "0x1.8738c860532d1p-2", "0x1.87301e31d9cf3p-2", "0x1.872ac3487c33ep-2",
        "0x1.8727740360714p-2", "0x1.8725685f1e989p-2", "0x1.872424be44aeap-2",
        "0x1.87235cbadcbffp-2", "0x1.8722e11d6ac4cp-2", "0x1.872294b774d14p-2",
        "0x1.8722657ff8c99p-2", "0x1.872248517eddbp-2", "0x1.872236487cc1dp-2",
        "0x1.87222b2304f1ep-2", "0x1.8722243f7aa60p-2", "0x1.87221ffd8d21ep-2",
        "0x1.87221d5bf05a1p-2", "0x1.87221bbb9f9ddp-2", "0x1.87221aba53925p-2",
        "0x1.87221a1b4ee18p-2", "0x1.872219b90786cp-2",
    )),
    ("rounded-width-4", _rounded(1.0, 0), -1.0, 3.0,
     "0x1.0e4432ad80582p-1", "0x0.0p+0", (
        "0x1.0e44323405ac0p-1", "0x1.78dde6e5fd29ep+0", "0x1.0722191a02d60p+1",
        "0x1.ffffffffffffep-1", "0x1.a3aa7d820e2e3p-1", "0x1.6a99b4b1f77dbp-1",
        "0x1.4754fb041c5c8p-1", "0x1.3188ebe1e0cd3p-1", "0x1.24104156413b4p-1",
        "0x1.1bbcdcbfa53dep-1", "0x1.169796caa1a95p-1", "0x1.1369782909408p-1",
        "0x1.117250d59e14cp-1", "0x1.103b598770d7bp-1", "0x1.0f7b298232e90p-1",
        "0x1.0f046239439abp-1", "0x1.0ebaf97cf4fa6p-1", "0x1.0e8d9af0544c5p-1",
        "0x1.0e7190c0a65a0p-1", "0x1.0e603c63b39e4p-1", "0x1.0e558690f867cp-1",
        "0x1.0e4ee806c0e29p-1", "0x1.0e4ad0be3d314p-1", "0x1.0e48497c895d6p-1",
        "0x1.0e46b975b97fep-1", "0x1.0e45c23ad5897p-1", "0x1.0e45296ee9a26p-1",
        "0x1.0e44cafff1930p-1", "0x1.0e4490a2fdbb6p-1", "0x1.0e446c90f983bp-1",
        "0x1.0e44564609e3cp-1", "0x1.0e44487ef54bfp-1", "0x1.0e443ffb1a43cp-1",
        "0x1.0e443ab7e0b43p-1", "0x1.0e4437773f3bap-1", "0x1.0e443574a724ap-1",
        "0x1.0e4434369dc31p-1", "0x1.0e4433720f0d9p-1", "0x1.0e4432f894617p-1",
        "0x1.0e4432ad80582p-1",
    )),
    ("stepped-vee", _stepped(0.1, 1000.0), -1.0, 2.0,
     "0x1.999e02f878c32p-4", "0x0.0p+0", (
        "0x1.2acc969c11040p-3", "0x1.b54cda58fbbedp-1", "-0x1.2acc969c11047p-2",
        "0x1.7054739420cb9p-3", "0x1.fd3dc20d13524p-6", "0x1.a1f6dc700f882p-4",
        "0x1.831bd06b73681p-4", "0x1.b0efacae2c780p-4", "0x1.9a05be8ccff00p-4",
        "0x1.9145288b5fae7p-4", "0x1.999e027db79b4p-4", "0x1.99d1e08543c5ap-4",
        "0x1.99be10c3bd435p-4", "0x1.99b1d23f3e1d9p-4", "0x1.99aa410236c11p-4",
        "0x1.99a593babef7dp-4", "0x1.99a2afc52f648p-4", "0x1.99a0e673472e8p-4",
        "0x1.999fcbcf9fd13p-4", "0x1.999f1d215ef88p-4", "0x1.999eb12bf873fp-4",
        "0x1.999e6e731e1fep-4", "0x1.999e453691ef6p-4", "0x1.999e2bba43cbdp-4",
        "0x1.999e1bfa05bedp-4", "0x1.999e123df5a83p-4", "0x1.999e0c39c7b1dp-4",
        "0x1.999e0881e5919p-4", "0x1.999e063599bb8p-4", "0x1.999e04ca03716p-4",
        "0x1.999e03e94de57p-4", "0x1.999e035e6d273p-4", "0x1.999e02f878c32p-4",
    )),
    ("constant-width-1", _constant(1.0), 0.0, 1.0,
     "0x1.ffffff7e1d791p-1", "0x1.0000000000000p+0", (
        "0x1.8722191a02d60p-2", "0x1.3c6ef372fe94fp-1", "0x1.8722191a02d60p-1",
        "0x1.b54cda58fbbeep-1", "0x1.d1d53ec107172p-1", "0x1.e3779b97f4a7cp-1",
        "0x1.ee5da329126f6p-1", "0x1.f519f86ee2385p-1", "0x1.f943aaba30370p-1",
        "0x1.fbd64db4b2015p-1", "0x1.fd6d5d057e35bp-1", "0x1.fe68f0af33cb9p-1",
        "0x1.ff046c564a6a2p-1", "0x1.ff648458e9618p-1", "0x1.ff9fe7fd6108bp-1",
        "0x1.ffc49c5b8858dp-1", "0x1.ffdb4ba1d8afdp-1", "0x1.ffe950b9afa8fp-1",
        "0x1.fff1fae82906dp-1", "0x1.fff755d186a22p-1", "0x1.fffaa516a264cp-1",
        "0x1.fffcb0bae43d7p-1", "0x1.fffdf45bbe276p-1", "0x1.fffebc5f26161p-1",
        "0x1.ffff37fc98114p-1", "0x1.ffff84628e04cp-1", "0x1.ffffb39a0a0c7p-1",
        "0x1.ffffd0c883f85p-1", "0x1.ffffe2d186143p-1", "0x1.ffffedf6fde42p-1",
        "0x1.fffff4da88300p-1", "0x1.fffff91c75b42p-1", "0x1.fffffbbe127bfp-1",
        "0x1.fffffd5e63383p-1", "0x1.fffffe5faf43bp-1", "0x1.fffffefeb3f48p-1",
        "0x1.ffffff7e1d791p-1",
    )),
    ("edge-low", _quadratic(-0.5), 0.0, 1.0,
     "0x1.dc4343e14659cp-42", "0x1.0000000001dc4p-2", (
        "0x1.8722191a02d60p-2", "0x1.3c6ef372fe94fp-1", "0x1.e3779b97f4a7cp-3",
        "0x1.2acc969c11046p-3", "0x1.715609f7c746dp-4", "0x1.c8864680b5840p-5",
        "0x1.1a25cd6ed909cp-5", "0x1.5cc0f223b8f4cp-6", "0x1.af155173f23dcp-7",
        "0x1.0a6c92d37fabep-7", "0x1.49517d40e523fp-8", "0x1.970f50cc3467cp-9",
        "0x1.f727536b2bc08p-10", "0x1.36f74e2d3d0f2p-10", "0x1.80600a7bdd630p-11",
        "0x1.db1d23bd39769p-12", "0x1.25a2f13a814f8p-12", "0x1.6af46505704e4p-13",
        "0x1.c0a2fadf24a1cp-14", "0x1.1545cf2bbbfaep-14", "0x1.56ba5766d14dep-15",
        "0x1.a7a28de14d4ffp-16", "0x1.05d220ec554bep-16", "0x1.43a0d9e9f0083p-17",
        "0x1.9006cfdd751f5p-18", "0x1.ee75c7ecd5e25p-19", "0x1.3197d7ce145c6p-19",
        "0x1.79bbe03d830c0p-20", "0x1.d2e79ebd4b59ap-21", "0x1.209021bdbabe8p-21",
        "0x1.64aef9ff21368p-22", "0x1.b8e292f8a88d4p-23", "0x1.107b610599dfep-23",
        "0x1.50ce63e61d5b0p-24", "0x1.a050bc4a2cc9bp-25", "0x1.014c0b820dec7p-25",
        "0x1.3e0961903dbaap-26", "0x1.891d6ae7bc3cap-27", "0x1.e5eab0717e715p-28",
        "0x1.2c50255dfa082p-28", "0x1.7335162708d2ap-29", "0x1.cad66929d67b7p-30",
        "0x1.1b93c3243b29fp-30", "0x1.5e854c0b36a32p-31", "0x1.b144747a7f61ap-32",
        "0x1.0bc6239bede4cp-32", "0x1.4afca1bd22f9ep-33", "0x1.991f4af5719f5p-34",
        "0x1.f9b3f109a8a90p-35", "0x1.388aa4e13a95cp-35", "0x1.82529850dc26cp-36",
        "0x1.dd8562e33209dp-37", "0x1.271fcdbe8643cp-37", "0x1.6ccb2a49578c2p-38",
        "0x1.c2e8e26769f6fp-39", "0x1.16ad722b45216p-39", "0x1.5876e07849ab2p-40",
        "0x1.a9c807bc812f7p-41", "0x1.dc4343e14659cp-42",
    )),
    ("edge-high", _quadratic(2.5), 0.0, 2.0,
     "0x1.ffffff7e1d1b4p+0", "0x1.000002078b940p-2", (
        "0x1.8722191a02d60p-1", "0x1.3c6ef372fe94fp+0", "0x1.8722191a02d60p+0",
        "0x1.b54cda58fbbeep+0", "0x1.d1d53ec107172p+0", "0x1.e3779b97f4a7cp+0",
        "0x1.ee5da329126f6p+0", "0x1.f519f86ee2385p+0", "0x1.f943aaba30370p+0",
        "0x1.fbd64db4b2015p+0", "0x1.fd6d5d057e35bp+0", "0x1.fe68f0af33cb9p+0",
        "0x1.ff046c564a6a2p+0", "0x1.ff648458e9618p+0", "0x1.ff9fe7fd6108bp+0",
        "0x1.ffc49c5b8858dp+0", "0x1.ffdb4ba1d8afdp+0", "0x1.ffe950b9afa8fp+0",
        "0x1.fff1fae82906dp+0", "0x1.fff755d186a22p+0", "0x1.fffaa516a264cp+0",
        "0x1.fffcb0bae43d7p+0", "0x1.fffdf45bbe276p+0", "0x1.fffebc5f26161p+0",
        "0x1.ffff37fc98114p+0", "0x1.ffff84628e04cp+0", "0x1.ffffb39a0a0c7p+0",
        "0x1.ffffd0c883f85p+0", "0x1.ffffe2d186143p+0", "0x1.ffffedf6fde42p+0",
        "0x1.fffff4da88300p+0", "0x1.fffff91c75b42p+0", "0x1.fffffbbe127bfp+0",
        "0x1.fffffd5e63383p+0", "0x1.fffffe5faf43bp+0", "0x1.fffffefeb3f48p+0",
        "0x1.ffffff7e1d1b4p+0",
    )),
    ("edge-narrow", _quadratic(0.2), 0.3 - 1e-8, 0.3 + 1e-8,
     "0x1.3333330aa4d21p-2", "0x1.47ae1377520d5p-7", (
        "0x1.3333330aa4d21p-2", "0x1.3333335bc1945p-2",
    )),
    ("evaluation-cap", _vee(0.0), -1e300, 1e300,
     "0x1.9cfa4ef767188p+857", "0x1.9cfa4ef767188p+857", (
        "-0x1.68f63e90d98b0p+994", "0x1.68f63e90d98aap+994", "0x1.9391526f3528ap+995",
        "0x1.54d89ef2dcee4p+992", "-0x1.54d89ef2dcef8p+992", "0x1.7d13de2ed6265p+993",
        "0x1.41d9f9dfc9bbcp+990", "-0x1.41d9f9dfc9c04p+990", "0x1.67d74405f01e8p+991",
        "0x1.2fea513133050p+988", "-0x1.2fea51313316cp+988", "0x1.53c9a28e6069ap+989",
        "0x1.1efa8ae96ade2p+986", "-0x1.1efa8ae96b24ep+986", "0x1.40da1778fb088p+987",
        "0x1.0efc647c80380p+984", "-0x1.0efc647c8152ap+984", "0x1.2ef8b15654f6fp+985",
        "0x1.ffc4cd9d431acp+981", "-0x1.ffc4cd9d4bef2p+981", "0x1.1e16622a5cad9p+983",
        "0x1.e33fb5bb8eb2cp+979", "-0x1.e33fb5bbb203ap+979", "0x1.0e24f2bf72ed2p+981",
        "0x1.c8517e1a2bf94p+977", "-0x1.c8517e1ab93c8p+977", "0x1.fe2ded5caacaap+978",
        "0x1.aee37a11c17e8p+975", "-0x1.aee37a13f68b0p+975", "0x1.e1bf82217bedcp+976",
        "0x1.96e04074ff488p+973", "-0x1.96e0407dd37a4p+973", "0x1.c6e6b3aa199b9p+974",
        "0x1.8033998581d20p+971", "-0x1.803399a8d298ap+971", "0x1.ad8ce752d45bcp+972",
        "0x1.6aca6ddd51340p+969", "-0x1.6aca6e6a944e4p+969", "0x1.959cc4e710e2ep+970",
        "0x1.5692b618f10e8p+967", "-0x1.5692b84dfd772p+967", "0x1.7f0224872b254p+968",
        "0x1.437b6a9d9f140p+965", "-0x1.437b7371d0b60p+965", "0x1.69a9fd2a2a380p+966",
        "0x1.317471139298ep+963", "-0x1.3174946459208p+963", "0x1.5582527f484b6p+964",
        "0x1.206e7e1a93764p+961", "-0x1.206f0b5dad948p+961", "0x1.427a1d6b04ac6p+962",
        "0x1.105ac57721384p+959", "-0x1.105cfa8389b10p+959", "0x1.30811c37d177ep+960",
        "0x1.0129e1d3e01a4p+957", "-0x1.0132b60581fd0p+957", "0x1.1f873f019164ep+958",
        "0x1.e58f314e05944p+954", "-0x1.e5d5d2db14a9ap+954", "0x1.0f7a829d79a50p+956",
        "0x1.ca1419333159cp+952", "-0x1.cb2e9f676daeap+952", "0x1.003e83275dd22p+954",
        "0x1.aedd500b61010p+950", "-0x1.b34768dc5253ep+950", "0x1.e315d5f289091p+951",
        "0x1.901bcbf57af5cp+948", "-0x1.a1c42f394040cp+948", "0x1.c4caa27f6466ap+949",
        "0x1.5ed52740365b8p+946", "-0x1.a576b44f4b86ep+946", "0x1.9e11aa2334fa6p+947",
        "0x1.bebbc5b740950p+943", "-0x1.f9e41717f4f7ap+944", "0x1.51095186a2160p+945",
        "-0x1.b97ab73288b00p+941", "-0x1.c6adbaac072dfp+943", "0x1.99b2e35f6e4c6p+941",
        "0x1.d3e0be2585abap+942", "0x1.524f86e4516b8p+939", "-0x1.d16ed630baf96p+939",
        "0x1.a186983456666p+940", "0x1.f4ed353a06820p+935", "-0x1.3cdc454013ebbp+938",
        "0x1.292521e14e1b2p+938", "-0x1.495328181a830p+936", "0x1.306562680d544p+937",
        "0x1.d01021afce480p+932", "-0x1.af763e585099ap+934", "0x1.c66023afc8d86p+934",
        "-0x1.74688c51ed4cap+932", "-0x1.bcb025afc368dp+933", "-0x1.a73ceaee59e70p+929",
        "0x1.211e657758705p+931", "-0x1.5de37870ebaf2p+931", "0x1.68513e1019d70p+928",
        "0x1.148a05f37d775p+930", "-0x1.928bf07b5f1ecp+926", "-0x1.81859badc22f1p+928",
        "0x1.2dba7a04bdbe8p+926", "0x1.707f46e0253f5p+927", "0x1.05c11a016d0b8p+923",
        "-0x1.0b13336d9e031p+925", "0x1.0ef17a1b82372p+925", "-0x1.ec8ffe93b8762p+922",
        "-0x1.1821da359762cp+924", "-0x1.a1d4d8ff2bf84p+920", "0x1.0eced75dd93d7p+921",
        "-0x1.f966b94a01b2bp+921", "-0x1.9ad756c927938p+917", "0x1.5e47812b56e9cp+919",
        "-0x1.7eac5b20b721ep+919", "0x1.1943eef3a6b28p+917", "0x1.62815f7846b06p+918",
        "0x1.0e77933bf1aa0p+913", "-0x1.24f5c2127ff70p+916", "0x1.d78652da9e71ap+915",
        "-0x1.6c062c32bbcd4p+914", "0x1.bbcaafe488411p+914", "-0x1.bbba2f6163080p+911",
        "-0x1.5aa639512d2e6p+913", "0x1.15ff2e18e9ed4p+910", "0x1.f3248681eea93p+911",
        "-0x1.4e54ffafa5558p+909", "-0x1.ba4ab0d20977dp+910", "0x1.6f7e8f59901c0p+903",
        "0x1.afd6c4899088fp+908", "-0x1.f09e5ea10d45cp+907", "0x1.5817417c7aca4p+907",
        "-0x1.5efe0c3456fa6p+906", "0x1.2340a4d96c968p+906", "-0x1.a6b4e518719d4p+904",
        "0x1.174733503c576p+905", "-0x1.7f2e312607e3cp+901", "-0x1.7e1fae8dd1256p+903",
        "0x1.44a9b45503be4p+901", "0x1.7d112bf59a66ep+902", "0x1.b2539381495e8p+898",
        "-0x1.c33bbd04b5450p+899", "0x1.3b20a5475a826p+900", "-0x1.3121e1b5277b0p+896",
        "-0x1.87db6e1ad74c9p+898", "0x1.db02774eefc2ap+896", "-0x1.89a4afb3a2fa3p+897",
        "-0x1.c94198cbadb00p+890", "0x1.620b37f9edfc8p+895", "-0x1.e3dcfd5407182p+894",
        "0x1.f99b18591f774p+893", "-0x1.94f6af3579032p+893", "0x1.3b99387a3853ep+892",
        "-0x1.7c03bfbdce467p+892", "0x1.8f2ef77aabca0p+889", "0x1.2ec5e6afeedd2p+891",
        "-0x1.9a6a39492ed68p+887", "-0x1.9cb9abca63e03p+889", "0x1.643f680a4e7e0p+887",
        "0x1.9f091e4b98e9ap+888", "0x1.fb44da1da3f70p+884", "-0x1.d64db20a535d2p+885",
        "0x1.5e86c0880a4fap+886", "-0x1.6e29e0910b940p+881", "-0x1.83914de4e1509p+884",
        "0x1.4af19095c831dp+883", "-0x1.60a6930fb78a3p+883", "0x1.1755d6a94e328p+881",
        "0x1.5323458e63804p+882", "0x1.06369f1369d00p+878", "-0x1.de6b7728aa6dap+879",
        "0x1.fbd093f2d9746p+879", "-0x1.96d8cafe1784ap+877", "-0x1.eb33e9bedf48dp+878",
        "-0x1.990e52c69b678p+874", "0x1.516c7b031f107p+876", "-0x1.76018647691f0p+876",
        "0x1.06ba25b5732cep+874", "0x1.52f4b9c836d6ap+875", "0x1.883ec517c6380p+868",
        "-0x1.30ea504b0ea6dp+873", "0x1.a09009ee33028p+872", "-0x1.b39105f2cd5cfp+871",
        "0x1.5c8735469fe12p+871", "-0x1.1023529e4c856p+870", "0x1.46db66a901aeep+870",
        "-0x1.5abce9d9e322cp+867", "-0x1.0578083a3d260p+869", "0x1.55694c81ebebcp+865",
        "0x1.60664d352e522p+867", "-0x1.3ec3bf14bf2e2p+865", "-0x1.6b634de870b88p+866",
        "-0x1.0a6640e8d95c2p+863", "0x1.64fc769d8c524p+863", "-0x1.45d622664b850p+864",
        "-0x1.c498d46315bc0p+859", "0x1.db7f0beb91474p+861", "-0x1.dcf3c29f0eba5p+861",
        "0x1.bec5f9951fef4p+859", "0x1.f54eb0db07b8bp+860", "0x1.9cfa4ef767188p+857",
        "-0x1.b445ba2f3e4b2p+857", "0x1.d4ebee96ed2cap+858",
    )),
    ("recovery-seed-1", _recovery_error(1), _RECOVERED[1] - 1e-8, _RECOVERED[1] + 1e-8,
     "-0x1.585349e4e5929p-3", "0x1.4e0cb6788d500p-58", (
        "-0x1.585349e4e5929p-3", "-0x1.58534942ac0e0p-3", "-0x1.58534a492839ep-3",
    )),
    ("recovery-seed-2", _recovery_error(2), _RECOVERED[2] - 1e-8, _RECOVERED[2] + 1e-8,
     "0x1.941bdabca2960p-2", "0x1.54ebc58b2f500p-58", (
        "0x1.941bdabca2960p-2", "0x1.941bdb2133aa8p-2",
    )),
    ("recovery-seed-3", _recovery_error(3), _RECOVERED[3] - 1e-8, _RECOVERED[3] + 1e-8,
     "-0x1.f95672f712283p-3", "0x1.c13ef0143fa00p-57", (
        "-0x1.f95673994baccp-3", "-0x1.f95672f712283p-3", "-0x1.f95672794edbfp-3",
    )),
)


class TestBoundedPolish:
    @pytest.mark.parametrize("case", POLISH_TABLE, ids=lambda case: case[0])
    def test_polish_reproduces_the_pinned_outcome(self, case):
        _, objective, lo, hi, x_hex, fun_hex, points = case
        seen = []

        def traced(x):
            seen.append(float(x).hex())
            return objective(float(x))

        x, fun = market._bounded_brent(traced, lo, hi)
        assert (float(x).hex(), float(fun).hex(), tuple(seen)) == (x_hex, fun_hex, points)
