from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsde_lab import (
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
    price_strike_family,
    quote_strike_family,
    recover_theta,
    simulate_stock,
)
from rbsde_lab import market
from rbsde_lab.bsde import LevelData

BASE = dict(spot=100.0, drift=0.08, volatility=0.2, rate=0.02, strike=100.0)


def recomb_tree(steps, horizon=1.0):
    return build_tree(TimeGrid(horizon, steps), TreeMode.RECOMBINING)


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
        stock = simulate_stock(tree, model)
        assert stock.value(1, 1) == pytest.approx(100.0 * (1 + 0.0008 + 0.02))
        assert stock.value(1, 1) == pytest.approx(102.08)

    def test_driftless_stock_is_a_martingale(self):
        tree = recomb_tree(64)
        model = MarketModel(**{**BASE, "drift": 0.0})
        stock = simulate_stock(tree, model)
        for i in (1, 16, 64):
            mean = tree.expectation(stock.level(i), i)
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
        stock = simulate_stock(tree, model)
        for i in range(steps + 1):
            ups = tree.up_counts(i)
            direct = model.spot * up**ups * down ** (i - ups)
            assert stock.level(i).tobytes() == direct.tobytes()

    def test_positivity_guard(self):
        tree = recomb_tree(2)  # sqrt(dt) ~ 0.7
        model = MarketModel(**{**BASE, "volatility": 1.5})
        with pytest.raises(PositivityViolated):
            simulate_stock(tree, model)


class TestPricingIdentity:
    @pytest.mark.parametrize("volatility", [0.15, 0.3])
    @pytest.mark.parametrize("strike", [90.0, 110.0])
    @pytest.mark.parametrize("kind", list(PayoffKind))
    def test_solver_matches_dynamic_program(self, volatility, strike, kind):
        tree = recomb_tree(128)
        model = MarketModel(
            **{**BASE, "volatility": volatility, "strike": strike, "kind": kind}
        )
        lhs = price_american_rbsde(tree, model).value
        rhs = price_american_riskneutral_dp(tree, model)
        assert abs(lhs - rhs) <= 1e-10

    def test_deep_in_the_money_put_exercises_immediately(self):
        tree = recomb_tree(128)
        model = MarketModel(**{**BASE, "strike": 30000.0, "kind": PayoffKind.PUT})
        priced = price_american_rbsde(tree, model)
        assert priced.value == model.strike - model.spot
        assert bool(priced.exercise.flags(0)[0])

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

    def test_zero_premium_call_equals_plain_expectation(self):
        tree = recomb_tree(128)
        model = MarketModel(
            spot=100.0, drift=0.0, volatility=0.2, rate=0.0, strike=100.0
        )
        priced = price_american_rbsde(tree, model)
        stock = simulate_stock(tree, model)
        plain = tree.expectation(model.payoff(stock.level(128)), 128)
        assert priced.value == pytest.approx(plain, abs=1e-10)
        assert priced.value == pytest.approx(price_european_dp(tree, model), abs=1e-10)

    def test_fully_covered_call_never_exercises_early(self):
        # strike below the tree minimum: strictly in the money everywhere
        tree = recomb_tree(64)
        model = MarketModel(
            spot=100.0, drift=0.02, volatility=0.2, rate=0.02, strike=10.0
        )
        priced = price_american_rbsde(tree, model)
        assert float(np.min(priced.stock.level(64))) > model.strike
        assert not any(priced.exercise.flags(i).any() for i in range(64))

    def test_exercise_nodes_match_the_dynamic_program(self):
        tree = recomb_tree(64)
        model = MarketModel(
            **{**BASE, "drift": 0.05, "rate": 0.06, "kind": PayoffKind.PUT}
        )
        priced = price_american_rbsde(tree, model)
        stock = priced.stock
        q_up = (1.0 - model.premium * tree.sqrt_dt) / 2.0
        discount = 1.0 + model.rate * tree.grid.dt
        values = model.payoff(stock.level(64))
        for i in range(63, -1, -1):
            up, down = tree.child_values(values)
            continuation = (q_up * up + (1.0 - q_up) * down) / discount
            payoff = model.payoff(stock.level(i))
            values = np.maximum(payoff, continuation)
            exercises = payoff >= continuation + 1e-10
            gap = priced.solution.y.level(i) - payoff
            assert np.all(gap[exercises] <= 1e-10)
            assert np.all(priced.exercise.flags(i)[exercises])

    def test_american_dominates_obstacle_and_european(self):
        tree = recomb_tree(128)
        model = MarketModel(**{**BASE, "kind": PayoffKind.PUT})
        priced = price_american_rbsde(tree, model)
        assert priced.value >= model.payoff(model.spot) - 1e-12
        assert priced.value >= price_european_dp(tree, model) - 1e-12


class TestStrikeFamily:
    def test_call_prices_decrease_in_strike(self):
        tree = recomb_tree(128)
        model = MarketModel(**BASE)
        family = price_strike_family(tree, model, [80.0, 90.0, 100.0, 110.0, 120.0])
        prices = [p for _, p in family]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_zero_strike_call_prices_the_stock_claim(self):
        tree = recomb_tree(64)
        model = MarketModel(**{**BASE, "strike": 0.0})
        priced = price_american_rbsde(tree, model)
        dp = price_american_riskneutral_dp(tree, model)
        assert priced.value == pytest.approx(dp, abs=1e-10)
        assert priced.value >= model.spot - 1e-9  # the claim is worth the stock

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
            single = price_american_rbsde(tree, replace(model, strike=strike))
            contact = next(i for i in range(steps + 1) if single.exercise.flags(i).any())
            assert quote.price.hex() == single.value.hex()
            assert quote.contact_level == contact

    def test_quote_sweep_builds_the_last_payoff_level_twice(self, monkeypatch):
        # once as the terminal value, once as the obstacle; every other level once
        tree = recomb_tree(40)
        reads = []
        sweep = market.reflected_roots

        def counting_sweep(tree, generator, terminal, obstacle):
            assert terminal is obstacle

            def level(i):
                reads.append(i)
                return terminal.level(i)

            data = LevelData(tree, level)
            return sweep(tree, generator, data, data)

        monkeypatch.setattr(market, "reflected_roots", counting_sweep)
        quotes = quote_strike_family(tree, MarketModel(**BASE), [90.0, 110.0])
        assert len(quotes) == 2
        assert reads.count(tree.steps) == 2
        assert sorted(set(reads)) == list(range(tree.steps + 1))
        assert len(reads) == tree.steps + 2


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
        return price_strike_family(tree, model, strikes)

    def test_five_strike_recovery(self):
        tree = recomb_tree(32)
        observed = self.synthetic(tree, 0.3, [80.0, 90.0, 100.0, 110.0, 120.0])
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert abs(recovery.theta_hat - 0.3) <= 1e-6
        assert recovery.objective <= 1e-15

    def test_zero_premium_recovery(self):
        tree = recomb_tree(32)
        observed = self.synthetic(tree, 0.0, [90.0, 100.0, 110.0])
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert abs(recovery.theta_hat) <= 1e-6

    def test_single_observation_recovery(self):
        tree = recomb_tree(32)
        observed = self.synthetic(tree, 0.3, [100.0])
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert abs(recovery.theta_hat - 0.3) <= 1e-5

    def test_empty_observations_rejected(self):
        tree = recomb_tree(8)
        with pytest.raises(NoBracket):
            recover_theta(tree, [], spot=100.0, volatility=0.2, rate=0.02)
