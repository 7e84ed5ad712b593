import functools
import hashlib
import inspect
import json
import sys
import tracemalloc

import numpy as np
import pytest

from rbsde_lab import bsde, market, rbsde, suites
from rbsde_lab.bsde import TerminalCondition
from rbsde_lab.cli import main
from rbsde_lab.lattice import AdaptedProcess, TimeGrid, TreeMode, build_tree
from rbsde_lab.market import MarketModel, PayoffKind, quote_strike_family
from rbsde_lab.rbsde import reflected_value
from rbsde_lab.suites import run_suite
from rbsde_lab.theorems import EXACT_TOL, build_dominating_obstacle


class TestRunSuite:
    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            run_suite("nonsense")

    def test_seed_changes_instances_not_verdicts(self):
        a = run_suite("oracle-equivalence", seed=1, instances=5)
        b = run_suite("oracle-equivalence", seed=2, instances=5)
        assert all(r.passed for r in a + b)

    def test_overrides_reach_exactly_the_suites_whose_signature_takes_them(self, monkeypatch):
        seen = {}
        for name, suite in list(suites.SUITES.items()):

            @functools.wraps(suite)
            def spy(*args, name=name, **kwargs):
                seen[name] = kwargs
                return []

            monkeypatch.setitem(suites.SUITES, name, spy)
        run_suite("all", seed=5, instances=3)
        assert seen.keys() == suites.SUITES.keys()
        for name, suite in suites.SUITES.items():
            params = inspect.signature(suite).parameters
            expected = {k: v for k, v in {"seed": 5, "instances": 3}.items() if k in params}
            assert seen[name] == expected
        assert seen["incomparable-drivers"] == {"seed": 5}
        assert seen["counterexamples"] == {}

    @pytest.mark.parametrize("seed", [1, 101, 555, 9999])
    def test_incomparable_drivers_pass_at_any_seed(self, seed):
        results = run_suite("incomparable-drivers", seed=seed)
        assert len(results) == 2 and all(r.passed for r in results)

    def test_counterexample_suite_solves_each_case_once(self, monkeypatch):
        # one root-only sweep over the four cases, read level by level
        calls = []
        real_sweep = suites._sweep

        def counting_sweep(*args):
            calls.append(args)
            return real_sweep(*args)

        monkeypatch.setattr(suites, "_sweep", counting_sweep)
        monkeypatch.setattr(suites, "solve_rbsde", None)
        results = suites.counterexample_suite(steps=40)
        assert len(calls) == 1
        generator, terminal, obstacle = calls[0]
        assert generator.expr.value.ravel().tolist() == [1 / 3, 1 / 3, 0.0, 0.0]
        assert terminal.level(40).shape == (4, 41)
        assert obstacle.level(40).shape == (41,)  # shared, not stacked
        root = results[-1]
        assert root.name == "counterexample/strict-comparison-fails-at-root"
        assert root.passed and root.details["root_low"] == 1.0


class TestCheckRow:
    @pytest.mark.parametrize(
        "violation, tolerance, holds, passed",
        [
            (np.float64(0.5), 1.0, np.bool_(True), True),
            (np.float64(1.5), 1.0, np.bool_(True), False),
            (0.0, 0.0, np.bool_(False), False),
            (1.0, 0.0, True, False),
        ],
    )
    def test_passed_is_a_python_bool_of_holds_and_the_tolerance(
        self, violation, tolerance, holds, passed
    ):
        row = suites._check("row", violation, tolerance, holds=holds)
        assert row.passed is passed
        assert (row.max_violation, row.tolerance, row.details) == (violation, tolerance, {})


class TestRootOnlyChecks:
    """The closed-form checks read one node per level and hold no lattice."""

    @pytest.mark.parametrize(
        "check",
        [
            lambda: suites.counterexample_suite(steps=1000),
            lambda: suites.convergence_suite((250, 500, 1000)),
            lambda: [suites._exponential_profile_check(1000)],
        ],
        ids=["counterexamples", "convergence", "exponential-profile"],
    )
    def test_peak_memory_at_n1000_is_below_one_lattice(self, check):
        # the y levels of one full solve at N=1000 take 8 * 1001 * 1002 / 2 bytes, 4.0 MB
        tracemalloc.start()
        try:
            results = check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
        assert peak <= 2_000_000

    @pytest.mark.parametrize("leaf", [lambda b: 1.0 + 0.0 * b, lambda b: 0.5 + np.abs(b)])
    def test_profile_is_the_dominating_obstacle_at_the_root_node(self, leaf):
        tree = build_tree(TimeGrid(1.0, 40), TreeMode.RECOMBINING)
        xi = TerminalCondition.from_leaf_function(tree, leaf)
        obstacle = build_dominating_obstacle(xi, 1.0)
        expected = np.array([obstacle.process.level(i)[0] for i in range(41)])
        assert suites._dominating_profile(xi, 1.0).tobytes() == expected.tobytes()


def _put_quote():
    tree = build_tree(TimeGrid(1.0, 10), TreeMode.FULL_BINARY)
    model = MarketModel(
        spot=100.0, drift=0.08, volatility=0.2, rate=0.02, strike=100.0, kind=PayoffKind.PUT
    )
    return quote_strike_family(tree, model, [90.0, 100.0, 110.0])


class TestPricingPath:
    """Pricing goes through the root-only quote: no lattice, no full solve."""

    @pytest.mark.parametrize("price", [suites.pricing_suite, _put_quote], ids=["suite", "quote"])
    def test_pricing_builds_no_process_and_runs_no_full_solve(self, price, monkeypatch):
        builds, solves = [], []
        build, solve = AdaptedProcess.__init__, rbsde.solve_rbsde

        def counting_build(self, *args, **kwargs):
            builds.append(args)
            build(self, *args, **kwargs)

        def counting_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(AdaptedProcess, "__init__", counting_build)
        for module in (rbsde, market, suites):
            monkeypatch.setattr(module, "solve_rbsde", counting_solve)
        assert price()
        assert (len(builds), len(solves)) == (0, 0)


# SHA-256 of report.json as ``verify`` writes it, with the suites' step or
# instance counts cut down; the first four were taken before their checks
# became root-only sweeps, the next four before the ordering checks read
# their driver samples through one sampler, the last four before the
# CLI config blocks were read through one field table.  The pricing digest
# was re-pinned when every row went through suites._check: its
# zero-premium row had ended in a numpy bool that report.json wrote as
# ``"passed": 1.0`` and now writes as ``"passed": true``, the only line
# that moved.  The recovery digest was taken while the suite still priced
# its observations one full solve per strike; it has one size only, and
# prices each round of candidate premiums in one sweep, so its pin takes
# about 0.6 s.  The witness digest was re-pinned when the suites' draws
# moved from numpy's PCG64 to the standard library's generator: its
# random-instances row's ``min_probability`` went from 0.359375 to
# 0.35546875, the only line that moved.
PINNED_REPORTS = {
    "counterexamples": (
        {"steps": 200},
        "03e6ce0092231626e0b89f52e627e1533c0099d60e44d8e0369e6ed9f692e489",
    ),
    "convergence": (
        {"steps_list": (50, 100, 200)},
        "5281da8f1c521f313d42b51aad59c56fa53cb0341bbb9f628eba1af9b2aaa09f",
    ),
    "dominating-obstacle": (
        {"det_steps": 200},
        "6c28d17b1a156268d2d1c7f3f9f3bf0376654fa19c8ffafd84c9f2b51932418a",
    ),
    "incomparable-drivers": (
        {"steps": 100},
        "146fd55afa015c8a8619f3b6ff2153529bc6aaa8642ba59c8ee30decdc98ff76",
    ),
    "comparison": (
        {"instances": 20},
        "066624219329a273bed52c9853d660600e4485eb42cfdddb7b1beab4975ccbe1",
    ),
    "push-comparison": (
        {"instances": 10},
        "1c5b444107478d46debc3c55e3339074e15932e25bd5b1af83d24e87fcfbd3ae",
    ),
    "masked-drivers": (
        {"instances": 5},
        "638c3742068ca33f6e8b3a2271aed1ff0e606cbcf2aaa7ee9be3c7fbfa1f1534",
    ),
    "converse": (
        {},
        "db808b585b5638581814c539b03a15159766e7f10c92c0784f0a21e0a88bddc6",
    ),
    "witness": (
        {"instances": 10},
        "27191ad917685075efafab318ee5c67a388577ca231cb84f901126a137d8d79f",
    ),
    "restriction-identity": (
        {"instances": 5},
        "049b5eb95b8c8fc5a4183388ea113a7e5b1c9b1ab779cae8a883843006945f00",
    ),
    "oracle-equivalence": (
        {"instances": 5},
        "867057599ae371dffca34bf47f6547df932fc7b6fab2d06035907eeaa8b2f9ae",
    ),
    "pricing": (
        {},
        "7466dff778dac36a89b3ec1aedffea6d4dbb6150737d34f9298a8866704c6a0c",
    ),
    "recovery": (
        {},
        "f718bf46fc6c8a693c9eecef0c784f8b6a0917ad0622f62a70b799376278caae",
    ),
}


class TestDraws:
    """The suites' draw source: the standard library's generator, seeded by ``(seed, index)``."""

    def test_first_uniforms_are_pinned(self):
        # a change of generator or seeding shows here, not only in a report digest
        values = suites._rng(7, 0).uniform(0.0, 1.0, 3)
        assert [v.hex() for v in values] == [
            "0x1.6ace7f46d2e04p-2",
            "0x1.e7a9d4f3bd180p-5",
            "0x1.e2efc1463f70ap-1",
        ]

    def test_seed_and_index_fix_the_stream(self):
        def draws(seed, index):
            rng = suites._rng(seed, index)
            return [rng.uniform(-1.0, 1.0), *rng.random(5), rng.integers(0, 1000)]

        assert draws(7, 3) == draws(7, 3)
        assert draws(7, 3) != draws(7, 4)
        assert draws(7, 3) != draws(8, 3)

    @pytest.mark.parametrize("size", [None, 1, 1000, (40, 25)])
    def test_uniform_stays_in_its_interval(self, size):
        values = suites._rng(1, 0).uniform(-0.5, 2.0, size)
        assert np.shape(values) == (() if size is None else np.shape(np.empty(size)))
        assert np.all(-0.5 <= values) and np.all(values < 2.0)

    def test_a_matrix_draw_is_the_stream_of_its_rows(self):
        # masked-drivers draws its instances' leaves as one (instances, leaves) draw
        matrix = suites._rng(29, 0).uniform(0.0, 2.0, size=(5, 256))
        rows = suites._rng(29, 0)
        np.testing.assert_array_equal(matrix, [rows.uniform(0.0, 2.0, size=256) for _ in range(5)])

    def test_random_below_a_probability_is_a_mask_of_the_shape(self):
        mask = suites._rng(3, 1).random((8, 32)) < 0.4
        assert mask.dtype == bool and mask.shape == (8, 32)
        assert 0 < mask.sum() < mask.size

    def test_integers_stay_in_their_range(self):
        rng = suites._rng(5, 2)
        values = {rng.integers(1, 4) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_dirichlet_is_a_point_of_the_simplex(self):
        rng = suites._rng(11, 0)
        for n in (1, 2, 3, 5):
            point = rng.dirichlet(np.ones(n))
            assert point.shape == (n,) and np.all(point > 0.0)
            assert abs(point.sum() - 1.0) <= 4 * np.finfo(float).eps

    def test_choice_draws_every_option(self):
        rng = suites._rng(13, 0)
        assert {rng.choice([-1.0, 1.0]) for _ in range(50)} == {-1.0, 1.0}


class TestMaskedDriverSuite:
    def test_report_is_pinned_at_twenty_instances(self, monkeypatch):
        reports = []
        real_probe = suites.masked_driver_probe
        monkeypatch.setattr(
            suites,
            "masked_driver_probe",
            lambda *args: reports.append(real_probe(*args)) or reports[-1],
        )
        suites.masked_driver_suite()
        (report,) = reports
        assert type(report.max_value_gap) is float
        assert report.max_value_gap.hex() == "0x0.0p+0"
        assert report.equal_above_threshold_gap.hex() == "0x0.0p+0"
        assert report.disagreement_cells == 40


class TestReportStability:
    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_report_digest_is_pinned(self, name, tmp_path, monkeypatch):
        kwargs, expected = PINNED_REPORTS[name]
        monkeypatch.setitem(suites.SUITES, name, functools.partial(suites.SUITES[name], **kwargs))
        config = tmp_path / "config.json"
        config.write_text("{}")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--suite", name, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == expected

    def test_every_suite_is_pinned(self):
        assert set(PINNED_REPORTS) == set(suites.SUITES)

    def test_every_row_of_the_all_report_follows_the_row_rule(self, tmp_path, monkeypatch):
        for name, (kwargs, _) in PINNED_REPORTS.items():
            monkeypatch.setitem(
                suites.SUITES, name, functools.partial(suites.SUITES[name], **kwargs)
            )
        config = tmp_path / "config.json"
        config.write_text("{}")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--suite", "all", "--out", str(out)]) == 0
        checks = json.loads((out / "report.json").read_text())["checks"]
        assert len(checks) == 41  # every suite
        for check in checks:
            assert isinstance(check["passed"], bool), check["name"]
            # the contact rows allow one grid step plus rounding, reported as dt
            slack = EXACT_TOL if check["name"].endswith("/contact") else 0.0
            if check["passed"]:
                assert check["max_violation"] <= check["tolerance"] + slack, check["name"]

    def test_verify_report_is_byte_stable(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        args = ["verify", "--config", str(config), "--suite", "witness", "--seed", "5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_price_output_is_byte_stable(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "tree": {"horizon": 1.0, "steps": 32, "mode": "recombining"},
                    "market": {
                        "spot": 100.0,
                        "drift": 0.08,
                        "volatility": 0.2,
                        "rate": 0.02,
                        "kind": "call",
                        "strikes": [90.0, 100.0, 110.0],
                    },
                }
            )
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["price", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["price", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "prices.csv").read_bytes() == (out_b / "prices.csv").read_bytes()


class TestChecksSweepOnly:
    """The suites that once built full solutions read every level they need
    off root-only sweeps, and at their pinned arguments make as many sweeps
    as they made solves."""

    @pytest.mark.parametrize(
        "name, sweeps",
        [
            ("witness", 22),
            ("restriction-identity", 20),
            ("oracle-equivalence", 5),
            ("dominating-obstacle", 44),
        ],
    )
    def test_suite_makes_its_sweeps_and_no_full_solve(self, name, sweeps, monkeypatch):
        calls = []
        real_sweep = bsde._sweep

        def counting_sweep(*args):
            calls.append(args)
            return real_sweep(*args)

        # every module that binds the kernel holds its own reference to it
        for module in _binding(real_sweep):
            monkeypatch.setattr(module, "_sweep", counting_sweep)
        _refuse_full_solves(monkeypatch)
        kwargs, _ = PINNED_REPORTS[name]
        assert all(row.passed for row in suites.SUITES[name](**kwargs))
        assert len(calls) == sweeps

    def test_no_suite_makes_a_full_solve(self, monkeypatch):
        _refuse_full_solves(monkeypatch)
        for name, (kwargs, _) in PINNED_REPORTS.items():
            assert all(row.passed for row in suites.SUITES[name](**kwargs)), name


def _binding(kernel) -> list:
    """The package's modules that bind ``kernel`` as ``_sweep``."""
    names = sorted(name for name in sys.modules if name.startswith("rbsde_lab."))
    return [sys.modules[name] for name in names if getattr(sys.modules[name], "_sweep", None) is kernel]


def _refuse_full_solves(monkeypatch):
    def full_sweep(*args, **kwargs):
        raise AssertionError("a check made a full solve")

    for module in (bsde, rbsde):
        monkeypatch.setattr(module, "_full_sweep", full_sweep)
