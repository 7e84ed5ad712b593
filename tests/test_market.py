import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from rbsde_lab import bsde, market
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

    @pytest.mark.parametrize(
        "price",
        [
            lambda tree, model: quote_strike_family(tree, model, [90.0, 110.0]),
            price_american_riskneutral_dp,
            price_european_dp,
        ],
        ids=["quote", "american-dp", "european-dp"],
    )
    def test_public_pricing_refuses_a_drift_column(self, price):
        # a drift column makes one model per member, which only recovery's
        # sweep reads; a price is quoted for one model
        model = MarketModel(**{**BASE, "drift": np.array([0.05, 0.08])[:, None, None]})
        message = r"premium must be a scalar to price, got shape \(2, 1, 1\)"
        with pytest.raises(ValueError, match=message):
            price(recomb_tree(8), model)

    def test_a_spot_that_is_not_positive_is_refused(self):
        for spot in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="^spot must be positive, got"):
                MarketModel(**{**BASE, "spot": spot})

    def test_a_non_finite_strike_is_refused_where_it_enters(self):
        # NaN < 0 is False, so a NaN strike once built and failed late, in the
        # quote sweep, as a non-finite obstacle
        for strike in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^strike must be finite, got"):
                MarketModel(**{**BASE, "strike": strike})
        with pytest.raises(ValueError, match="^strike must be finite, got nan"):
            quote_strike_family(recomb_tree(8), MarketModel(**BASE), [np.nan])
        with pytest.raises(ValueError, match="^strike must be nonnegative, got -1.0"):
            MarketModel(**{**BASE, "strike": -1.0})

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
        # a premium with |premium| sqrt(dt) >= 1 is refused before any quote
        assume(abs(model.premium) * tree.sqrt_dt < 1.0)
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
        roots = bsde._root(*market._family_sweep(tree, model, strikes))
        assert roots.y.shape == (len(premiums), len(strikes), 1)
        for theta, prices in zip(premiums, roots.y[..., 0]):
            single = model._replace(drift=rate + volatility * theta)
            # the sweep alone: the quote refuses premiums with |premium| sqrt(dt) >= 1
            solo = bsde._root(*market._family_sweep(tree, single, strikes))
            assert [float(p).hex() for p in solo.y[..., 0]] == [float(p).hex() for p in prices]

    def test_quote_sweep_builds_the_last_payoff_level_twice(self, monkeypatch):
        # once as the terminal value, once as the obstacle; every other level once
        tree = recomb_tree(40)
        reads = []
        sweep = bsde._sweep

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
        assert pinned(recovery) == ("0x1.3333333333338p-2", "0x1.5200000000000p-93", 790)

    def test_zero_premium_recovery(self):
        tree = recomb_tree(32)
        observed = self.synthetic(tree, 0.0, [90.0, 100.0, 110.0])
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert abs(recovery.theta_hat) <= 1e-6
        assert pinned(recovery) == ("0x0.0p+0", "0x0.0p+0", 790)

    def test_single_observation_recovery(self):
        tree = recomb_tree(32)
        observed = self.synthetic(tree, 0.3, [100.0])
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert abs(recovery.theta_hat - 0.3) <= 1e-5
        assert pinned(recovery) == ("0x1.3333333333338p-2", "0x1.0000000000000p-96", 790)

    def test_empty_observations_rejected(self):
        tree = recomb_tree(8)
        with pytest.raises(NoBracket):
            recover_theta(tree, [], spot=100.0, volatility=0.2, rate=0.02)

    @pytest.mark.parametrize("price", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_observed_price_is_refused_up_front(self, price, monkeypatch):
        # it is the observation at fault, not the bracket; nothing is priced
        monkeypatch.setattr(market, "_family_sweep", None)
        with pytest.raises(ValueError, match="^observed prices must be finite"):
            recover_theta(
                recomb_tree(8), [(100.0, 5.0), (110.0, price)], spot=100.0, volatility=0.2, rate=0.02
            )

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
        sweep = bsde._sweep

        def counting_sweep(*args):
            for level in sweep(*args):
                yield level
            batches.append(level.y.shape[:-1])

        monkeypatch.setattr(bsde, "_sweep", counting_sweep)
        tree, targets = _recovery_targets(1)
        observed = list(zip(RECOVER_STRIKES, targets))
        recovery = recover_theta(tree, observed, spot=100.0, volatility=0.2, rate=0.02)
        assert (recovery.theta_hat, recovery.evaluations) == (_RECOVERED[1], 790)
        # 29 scan rounds (28 of 21 premiums and the last 13), then 9 zoom rounds
        assert batches == [(21, 5)] * 28 + [(13, 5)] + [(21, 5)] * 9

    def test_an_exact_zero_is_kept_at_the_first_premium_that_reaches_it(self):
        # puts quoted at premium 0 fit exactly there; a later point that
        # only ties the zero objective does not replace it
        tree = recomb_tree(48)
        model = MarketModel(**{**BASE, "drift": 0.02, "strike": 80.0, "kind": PayoffKind.PUT})
        strikes = [80.0, 90.0, 100.0, 110.0, 120.0]
        observed = [(q.strike, q.price) for q in quote_strike_family(tree, model, strikes)]
        recovery = recover_theta(
            tree, observed, spot=100.0, volatility=0.2, rate=0.02, kind=PayoffKind.PUT
        )
        assert recovery.theta_hat == 0.0
        assert recovery.objective == 0.0

    def test_an_edge_minimum_names_the_fixed_admissible_range(self):
        # a call at 110 observed at 0 on 4 steps: the scan is smallest at
        # theta = -1.99, the lower edge of [-3, 3] cut to |theta| * sqrt(dt) < 1
        with pytest.raises(NoBracket) as caught:
            recover_theta(recomb_tree(4), [(110.0, 0.0)], spot=100.0, volatility=0.2, rate=0.02)
        assert str(caught.value) == (
            "objective is smallest at premium -1.99, an edge of the admissible range "
            "[-1.99, 1.99]; the range is fixed: [-3, 3] cut one scan spacing inside "
            "|premium| * sqrt(dt) < 1"
        )

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
        family_sweep = market._family_sweep

        def recording_sweep(tree, model, strikes):
            premiums.extend(np.ravel(model.premium).tolist())
            return family_sweep(tree, model, strikes)

        monkeypatch.setattr(market, "_family_sweep", recording_sweep)
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
