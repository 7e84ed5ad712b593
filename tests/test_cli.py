import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rbsde_lab
from rbsde_lab import cli
from rbsde_lab.cli import RunConfig, main
from rbsde_lab import suites
from rbsde_lab.lattice import level_constant
from rbsde_lab.suites import CheckResult
from test_generators import exprs
from test_market import RECOVER_STRIKES, _recovery_targets

# (1e308)^2 b - (1e308)^2 b: 0 at the root, inf - inf = NaN wherever b != 0
OVERFLOW_DIFFERENCE = "(+ (* 1e308 (* 1e308 b)) (* -1e308 (* 1e308 b)))"

COUNTEREXAMPLE_CONFIG = {
    "tree": {"horizon": 1.0, "steps": 100, "mode": "recombining"},
    "generator": {"expr": "0.3333333333333333"},
    "terminal": {"kind": "constant", "value": 0.3333333333333333},
    "obstacle": {"kind": "affine", "slope": -2.0, "intercept": 1.0},
    "seed": 1,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_rows(path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


class TestSolveCommand:
    def test_counterexample_root_row(self, tmp_path):
        config = write_config(tmp_path, COUNTEREXAMPLE_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "solution.csv")
        root = rows[0]
        assert root["level"] == "0" and root["node"] == "0"
        assert float(root["Y"]) == 1.0
        assert float(root["K"]) == 0.0
        assert float(root["S"]) == 1.0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["skorokhod_residual"] == 0.0
        assert diag["min_y_minus_s"] >= 0.0

    def test_low_obstacle_solution_has_no_push(self, tmp_path):
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["obstacle"] = {"kind": "constant", "value": -10.0}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["max_k_increment"] == 0.0

    def test_outputs_are_byte_stable(self, tmp_path):
        config = write_config(tmp_path, COUNTEREXAMPLE_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["solve", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "solution.csv").read_bytes() == (out_b / "solution.csv").read_bytes()
        assert (out_a / "diagnostics.json").read_bytes() == (out_b / "diagnostics.json").read_bytes()

    @pytest.mark.parametrize(
        "mode, steps, expr, digest",
        [
            # the counterexample: level-constant data, cumulative push per level
            (
                "recombining",
                100,
                None,
                "4432165fd6455b0c12d30997d7567d0bcb0b5b2fdcd81417018c254762a5d85d",
            ),
            # state data with a binding obstacle: push stored per path
            (
                "full-binary",
                8,
                "(+ (* -2 y) (abs z))",
                "d774081de153a205f1f50f75dc771a7ea4069142ddca3c31c467980781743f1d",
            ),
            # the same data recombining: the cumulative push is unavailable, K is nan
            (
                "recombining",
                8,
                "(+ (* -2 y) (abs z))",
                "584f12dfd5da76aedfb688984f28336f97661104574b61a51f1a569a823050c9",
            ),
        ],
    )
    def test_solution_csv_digest_is_pinned(self, tmp_path, mode, steps, expr, digest):
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["tree"] = {"horizon": 1.0, "steps": steps, "mode": mode}
        if expr is not None:
            payload["generator"] = {"expr": expr}
            payload["terminal"] = {"kind": "state", "expr": "(+ 2 (abs b))"}
            payload["obstacle"] = {"kind": "state", "expr": "(+ 2 (neg (abs b)))"}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        data = (out / "solution.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 3000),
        st.floats(0.0, 1e3),
        st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1, max_size=12),
        st.one_of(st.none(), st.floats()),
        st.floats(),
    )
    @example(7, 0.5, [(-0.0, 5e-324, 1.7976931348623157e308)], None, -2.2250738585072014e-308)
    @example(0, 0.0, [(float("nan"), -float("inf"), 1e-310), (0.1, -0.0, 1e22)], 0.0, 1e300)
    def test_solution_rows_match_csv_writer(self, i, t, values, k_cell, s_cell):
        # K is either absent ('nan' in every row) or a one-cell level, as
        # cumulative pushes are; S is a one-cell level, as constant obstacles are
        y, z, k = (np.array(column, dtype=float) for column in zip(*values))
        size = len(y)
        k = None if k_cell is None else level_constant(k_cell, size)
        s = level_constant(s_cell, size)
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        for node in range(size):
            k_text = "nan" if k is None else f"{k[node]:.17g}"
            cells = (t, y[node], z[node])
            writer.writerow([i, node, *(f"{x:.17g}" for x in cells), k_text, f"{s[node]:.17g}"])
        assert cli._solution_rows(i, t, y, z, k, s) == buffer.getvalue()
        full_k = None if k is None else np.array(k)  # a full level is formatted value by value
        assert cli._solution_rows(i, t, y, z, full_k, np.array(s)) == buffer.getvalue()

    def test_zero_steps_is_a_config_error(self, tmp_path):
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["tree"] = {"horizon": 1.0, "steps": 0, "mode": "recombining"}
        config = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_boolean_steps_is_a_config_error(self, tmp_path):
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["tree"] = {"horizon": 1.0, "steps": True, "mode": "recombining"}
        config = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_overflowing_driver_exits_three_without_output(self, tmp_path):
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["tree"] = {"horizon": 1.0, "steps": 10, "mode": "recombining"}
        payload["generator"] = {"expr": "(* 1e308 (* 1e308 (abs z)))"}
        payload["terminal"] = {"kind": "state", "expr": "(abs b)"}
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", str(config), "--out", str(out)]) == 3
        assert caught == []
        assert not (out / "diagnostics.json").exists()

    def test_non_finite_diagnostics_exit_three_without_output(self, tmp_path):
        # every value is finite, but y - S overflows, so the Skorokhod residual is nan
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["tree"] = {"horizon": 1.0, "steps": 4, "mode": "recombining"}
        payload["generator"] = {"expr": "0.0"}
        payload["terminal"] = {"kind": "constant", "value": 8e307}
        payload["obstacle"] = {"kind": "constant", "value": -1.7e308}
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 3
        assert not out.exists()

    def test_non_finite_push_increment_exits_three_without_output(self, tmp_path, capsys):
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["tree"] = {"horizon": 10.0, "steps": 2, "mode": "recombining"}
        payload["generator"] = {"expr": "-1.7e308"}
        payload["terminal"] = {"kind": "constant", "value": 1.0}
        payload["obstacle"] = {"kind": "constant", "value": 0.0}
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 3
        assert "non-finite push increment at level 1" in capsys.readouterr().err
        assert not out.exists()

    def test_cumulative_push_past_the_float_range_exits_three_without_output(
        self, tmp_path, capsys
    ):
        # each level pushes 8.5e307, a finite increment; the path sum leaves
        # the float range at level 3, where a K column would read inf
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["tree"] = {"horizon": 2.0, "steps": 4, "mode": "recombining"}
        payload["generator"] = {"expr": "-1.7e308"}
        payload["terminal"] = {"kind": "constant", "value": 0.0}
        payload["obstacle"] = {"kind": "constant", "value": 0.0}
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 3
        assert "non-finite cumulative push at level 3" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failures_exit_three(self, tmp_path):
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["tree"] = {"horizon": 4.0, "steps": 2, "mode": "recombining"}
        payload["generator"] = {"expr": "(* 0.6 y)"}
        payload["terminal"] = {"kind": "constant", "value": 5.0}
        payload["obstacle"] = {"kind": "constant", "value": -50.0}
        config = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "o")]) == 3

    def test_non_finite_driver_literal_exits_two_without_output(self, tmp_path, capsys):
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["generator"] = {"expr": "nan"}
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
        assert "non-finite number 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_config_that_is_not_text_exits_two(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


class TestVerifyCommand:
    def test_oracle_suite_passes(self, tmp_path):
        config = write_config(tmp_path, {"seed": 5})
        out = tmp_path / "out"
        code = main(
            [
                "verify",
                "--config",
                str(config),
                "--out",
                str(out),
                "--suite",
                "oracle-equivalence",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"]
        assert report["suite"] == "oracle-equivalence"
        assert all(check["passed"] for check in report["checks"])

    def test_suite_from_config_block(self, tmp_path):
        config = write_config(
            tmp_path, {"suite": {"name": "masked-drivers", "instances": 5}, "seed": 3}
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"]

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {})
        out = tmp_path / "o"
        args = ["verify", "--config", str(config), "--out", str(out), "--suite", "witness"]
        assert main([*args, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: seed must be a nonnegative integer\n"
        assert not out.exists()

    def test_unknown_suite_is_a_config_error(self, tmp_path):
        config = write_config(tmp_path, {"seed": 3})
        code = main(
            [
                "verify",
                "--config",
                str(config),
                "--out",
                str(tmp_path / "o"),
                "--suite",
                "nope",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "payload, flags",
        [
            ({}, ["--suite", "counterexamples", "--seed", "3"]),
            ({"suite": {"name": "pricing", "instances": 2}}, []),
        ],
    )
    def test_override_a_suite_cannot_take_is_a_config_error(self, tmp_path, payload, flags):
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["verify", "--config", str(config), "--out", str(out), *flags]) == 2
        assert not (out / "report.json").exists()

    def test_config_seed_is_a_default_only_where_a_suite_takes_one(self, tmp_path, monkeypatch):
        calls = []

        def seedless():
            calls.append("seedless")
            return [CheckResult("seedless", True, 0.0, 0.0)]

        monkeypatch.setitem(suites.SUITES, "counterexamples", seedless)
        config = write_config(tmp_path, {"seed": 9})
        out = tmp_path / "o"
        args = ["verify", "--config", str(config), "--out", str(out), "--suite", "counterexamples"]
        assert main(args) == 0
        assert calls == ["seedless"]
        assert json.loads((out / "report.json").read_text())["seed"] == 9

    def test_non_finite_report_exits_three_without_output(self, tmp_path, monkeypatch):
        def nan_suite(name, seed, instances):
            return [CheckResult("broken", True, float("nan"), 1.0)]

        monkeypatch.setattr(cli, "run_suite", nan_suite)
        config = write_config(tmp_path, {"seed": 3})
        out = tmp_path / "o"
        code = main(["verify", "--config", str(config), "--out", str(out), "--suite", "comparison"])
        assert code == 3
        assert not (out / "report.json").exists()


class TestPriceCommand:
    def market_config(self):
        return {
            "tree": {"horizon": 1.0, "steps": 64, "mode": "recombining"},
            "market": {
                "spot": 100.0,
                "drift": 0.08,
                "volatility": 0.2,
                "rate": 0.02,
                "kind": "call",
                "strikes": [80.0, 90.0, 100.0, 110.0, 120.0],
            },
        }

    def test_prices_decrease_in_strike(self, tmp_path):
        config = write_config(tmp_path, self.market_config())
        out = tmp_path / "out"
        assert main(["price", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "prices.csv")
        prices = [float(r["price"]) for r in rows]
        assert [float(r["strike"]) for r in rows] == [80.0, 90.0, 100.0, 110.0, 120.0]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_put_family_prices_are_pinned(self, tmp_path):
        payload = self.market_config()
        payload["tree"]["steps"] = 500
        payload["market"]["kind"] = "put"
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["price", "--config", str(config), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "prices.csv").read_bytes()).hexdigest()
        assert digest == "1ce15e5632693ff174ba1ebce1f33652d3513b0be8c3df0c393275584832e23c"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("strikes", [100.0, -5.0]),
            ("spot", 0.0),
            ("volatility", -0.2),
            ("kind", ["put"]),
        ],
    )
    def test_invalid_market_is_a_config_error(self, tmp_path, field, value, capsys):
        payload = self.market_config()
        payload["market"][field] = value
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["price", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        [{"drift": 1e308}, {"rate": -1e308}],
        ids=["premium-overflows", "premium-overflows-negative"],
    )
    def test_overflowing_premium_is_a_config_error(self, tmp_path, fields, capsys):
        payload = self.market_config()
        payload["market"].update(fields)
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["price", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_a_large_finite_premium_exits_three(self, tmp_path, capsys):
        # premium (1.3e308 - 1.5e308) / 0.2 = -1e308 is finite; its one-step weights are not
        payload = self.market_config()
        payload["tree"]["steps"] = 8
        payload["market"].update(drift=1.3e308, rate=1.5e308)
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["price", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "solver error: premium * sqrt(dt) = -3.53553e+307 leaves (-1, 1); refine the grid\n"
        )
        assert not out.exists()

    def test_missing_market_block_exits_two(self, tmp_path):
        payload = self.market_config()
        del payload["market"]
        config = write_config(tmp_path, payload)
        assert main(["price", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_negative_one_step_weights_exit_three(self, tmp_path, capsys):
        # premium 6 on 16 steps: premium * sqrt(dt) = 1.5, so one weight (1 - 1.5) / 2 < 0
        payload = self.market_config()
        payload["tree"]["steps"] = 16
        payload["market"].update(drift=1.22, kind="put", strikes=[100.0, 95.8, 91.3])
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["price", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "solver error: premium * sqrt(dt) = 1.5 leaves (-1, 1); refine the grid\n"
        )
        assert not out.exists()


class TestRecoverCommand:
    def test_round_trip_recovery(self, tmp_path, monkeypatch):
        # recovery runs without scipy
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        market = {
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
        config = write_config(tmp_path, market)
        priced = tmp_path / "priced"
        assert main(["price", "--config", str(config), "--out", str(priced)]) == 0
        observed = tmp_path / "observed.csv"
        rows = read_rows(priced / "prices.csv")
        observed.write_text(
            "strike,price\n"
            + "\n".join(f"{r['strike']},{r['price']}" for r in rows)
            + "\n"
        )
        payload = dict(market)
        payload["recover"] = {"observed": "observed.csv"}
        recover_config = write_config(tmp_path, payload, name="recover.json")
        out = tmp_path / "theta"
        assert main(["recover", "--config", str(recover_config), "--out", str(out)]) == 0
        result = json.loads((out / "theta.json").read_text())
        assert abs(result["theta_hat"] - 0.3) <= 1e-6
        assert result["objective"] <= 1e-12
        assert result["iterations"] > 0

    def test_missing_observed_file_exits_two(self, tmp_path):
        payload = {
            "tree": {"horizon": 1.0, "steps": 8, "mode": "recombining"},
            "market": {
                "spot": 100.0,
                "drift": 0.08,
                "volatility": 0.2,
                "rate": 0.02,
                "kind": "call",
                "strikes": [100.0],
            },
            "recover": {"observed": "missing.csv"},
        }
        config = write_config(tmp_path, payload)
        assert main(["recover", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_flat_objective_exits_three(self, tmp_path, capsys):
        # deep in-the-money puts price at K - spot whatever the premium
        payload = {
            "tree": {"horizon": 1.0, "steps": 48, "mode": "recombining"},
            "market": {
                "spot": 100.0,
                "drift": 0.08,
                "volatility": 0.2,
                "rate": 0.02,
                "kind": "put",
                "strikes": [300.0, 400.0],
            },
            "recover": {"observed": "obs.csv"},
        }
        (tmp_path / "obs.csv").write_text("strike,price\n300,200\n400,300\n")
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["recover", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: objective is flat over the premium bracket")
        assert "strikes 300, 400 do not depend on the premium" in err
        assert not out.exists()

    def test_bad_header_exits_two(self, tmp_path):
        payload = {
            "tree": {"horizon": 1.0, "steps": 8, "mode": "recombining"},
            "market": {
                "spot": 100.0,
                "drift": 0.08,
                "volatility": 0.2,
                "rate": 0.02,
                "kind": "call",
                "strikes": [100.0],
            },
            "recover": {"observed": "obs.csv"},
        }
        (tmp_path / "obs.csv").write_text("k,p\n100,5\n")
        config = write_config(tmp_path, payload)
        assert main(["recover", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "strike, price\n100,5\n",  # the header is 'strike,price', spaces are not stripped
            "strike,price\n-100,5\n",  # a strike that the market block would reject
            "strike,price\n100,nan\n",
            "strike,price\n100,inf\n",
            "strike,price\n80,21.5,junk\n",  # a field past the header
            None,  # the observed path names a directory
        ],
    )
    def test_bad_observed_file_exits_two_without_output(self, tmp_path, capsys, text):
        payload = {
            "tree": {"horizon": 1.0, "steps": 8, "mode": "recombining"},
            "market": {
                "spot": 100.0,
                "drift": 0.08,
                "volatility": 0.2,
                "rate": 0.02,
                "kind": "call",
                "strikes": [100.0],
            },
            "recover": {"observed": "obs.csv"},
        }
        if text is None:
            (tmp_path / "obs.csv").mkdir()
        else:
            (tmp_path / "obs.csv").write_text(text)
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["recover", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "6707034f8d8ed2a45abe5917105bd45a2e9f33f5516191686d2fb9b89e690e5f"),
            (2, "38ff47d72dc2c4511d73e79b68c79ea574ed234bce5ef5f6e587da5eefcfe575"),
            (3, "31aab10a6fc48a185fa819de0bce13c173bcadd1470cd9a25f53f25be6368164"),
        ],
    )
    def test_workload_theta_json_digest_is_pinned(self, tmp_path, seed, digest):
        # the benchmark's recover workload: observed prices from the DP at a drawn premium
        _, targets = _recovery_targets(seed)
        (tmp_path / "observed.csv").write_text(
            "strike,price\n"
            + "".join(f"{k:.17g},{p:.17g}\n" for k, p in zip(RECOVER_STRIKES, targets))
        )
        payload = {
            "tree": {"horizon": 1.0, "steps": 48, "mode": "recombining"},
            "market": {
                "spot": 100.0,
                "drift": 0.02,
                "volatility": 0.2,
                "rate": 0.02,
                "kind": "call",
                "strikes": list(RECOVER_STRIKES),
            },
            "recover": {"observed": "observed.csv"},
            "seed": seed,
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["recover", "--config", str(config), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "theta.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("rate", [1e308, -1e308])
    def test_overflowing_market_is_a_config_error(self, tmp_path, capsys, rate):
        # the premium (drift - rate) / volatility overflows, as price rejects it
        payload = {
            "tree": {"horizon": 1.0, "steps": 8, "mode": "recombining"},
            "market": {
                "spot": 100.0,
                "drift": 0.08,
                "volatility": 0.2,
                "rate": rate,
                "kind": "call",
                "strikes": [100.0],
            },
            "recover": {"observed": "obs.csv"},
        }
        (tmp_path / "obs.csv").write_text("strike,price\n100,5\n")
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["recover", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (out / "theta.json").exists()

    @pytest.mark.parametrize("volatility", [6e307, 1e308])
    def test_a_market_the_premium_bracket_overflows_is_a_config_error(
        self, tmp_path, capsys, volatility
    ):
        # price accepts this block; at theta = -3 the drift rate + volatility * theta is -inf
        payload = {
            "tree": {"horizon": 1.0, "steps": 48, "mode": "recombining"},
            "market": {
                "spot": 100.0,
                "drift": 0.02,
                "volatility": volatility,
                "rate": 0.02,
                "kind": "call",
                "strikes": [80.0],
            },
            "recover": {"observed": "obs.csv"},
        }
        (tmp_path / "obs.csv").write_text("strike,price\n80,21.5\n")
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["recover", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: premium -inf must be finite\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "price", "recover"])
def test_a_step_that_underflows_to_zero_is_a_config_error(tmp_path, capsys, command):
    # horizon > 0 holds, but horizon / steps rounds to 0.0
    payload = {
        **COUNTEREXAMPLE_CONFIG,
        "tree": {"horizon": 5e-324, "steps": 40, "mode": "recombining"},
        "market": {
            "spot": 100.0, "drift": 0.08, "volatility": 0.2, "rate": 0.02,
            "kind": "put", "strikes": [100.0],
        },
        "recover": {"observed": "obs.csv"},
    }
    (tmp_path / "obs.csv").write_text("strike,price\n100,5\n")
    config = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: tree: horizon / steps underflows")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, market, steps, code, err",
    [
        # the stock tables overflow before the sweep's contraction guard rejects the driver
        ("recover", {"kind": "call", "rate": 1e200}, 48, 3, "solver error: lipschitz * dt"),
        # the tables overflow at the top of the tree, where every put is worthless
        ("price", {"kind": "put", "volatility": 20.0}, 2000, 0, ""),
    ],
    ids=["recover-rate-1e200", "price-put-volatility-20"],
)
def test_overflowing_stock_table_prints_no_warning(
    tmp_path, capsys, command, market, steps, code, err
):
    payload = {
        "tree": {"horizon": 1.0, "steps": steps, "mode": "recombining"},
        "market": {
            "spot": 100.0,
            "drift": 0.08,
            "volatility": 0.2,
            "rate": 0.02,
            "strikes": [90.0, 100.0, 110.0],
            **market,
        },
        "recover": {"observed": "obs.csv"},
    }
    (tmp_path / "obs.csv").write_text("strike,price\n100,5\n")
    config = write_config(tmp_path, payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == code
    assert [str(w.message) for w in caught] == []
    stderr = capsys.readouterr().err
    assert stderr.startswith(err) and stderr.count("\n") == (1 if err else 0)


# Configs whose canonical text is checked for idempotence and pinned.
ROUND_TRIP_PAYLOADS = [
    COUNTEREXAMPLE_CONFIG,
    {
        "tree": {"horizon": 2.0, "steps": 8, "mode": "full-binary"},
        "generator": {"expr": "(min (* 2.0 (npart (+ y -1.0))) (abs z))"},
        "terminal": {"kind": "state", "expr": "(abs b)"},
        "obstacle": {"kind": "state", "expr": "(+ (npart b) -3.0)", "bound": 5.0},
        "seed": 42,
    },
    {
        "market": {
            "spot": 100.0,
            "drift": 0.08,
            "volatility": 0.2,
            "rate": 0.02,
            "kind": "put",
            "strikes": [90.0, 100.0],
        },
        "suite": {"name": "comparison", "instances": 10},
        "seed": 7,
    },
]


MARKET_BLOCK = {
    "spot": 100.0, "drift": 0.08, "volatility": 0.2, "rate": 0.02, "strikes": [100.0],
}
SMALL_TREE = {"horizon": 1.0, "steps": 8, "mode": "recombining"}


@pytest.mark.parametrize(
    "command, payload, observed, message",
    [
        (
            "solve",
            {**COUNTEREXAMPLE_CONFIG, "tree": {"horizon": 1.0, "mode": "recombining"}},
            None, "missing field 'steps' in tree",
        ),
        (
            "price",
            {"tree": SMALL_TREE, "market": {**MARKET_BLOCK, "strikes": []}},
            None, "market needs a nonempty 'strikes' list",
        ),
        (
            "solve",
            {**COUNTEREXAMPLE_CONFIG, "tree": {**SMALL_TREE, "mode": "ternary"}},
            None, "tree mode must be one of ['full-binary', 'recombining']",
        ),
        (
            "solve",
            # the bounds are read off the expression; no constant is declared
            {**COUNTEREXAMPLE_CONFIG, "generator": {"expr": "y", "lipschitz": -1}},
            None, "unknown fields ['lipschitz'] in generator",
        ),
        (
            "verify",
            {"suite": {"name": "masked-drivers", "instances": 0}},
            None, "suite instances must be >= 1",
        ),
        (
            "solve",
            {**COUNTEREXAMPLE_CONFIG, "terminal": {"kind": "linear"}},
            None, "terminal kind must be 'constant' or 'state'",
        ),
        ("solve", [COUNTEREXAMPLE_CONFIG], None, "config must be a JSON object"),
        (
            "solve",
            {**COUNTEREXAMPLE_CONFIG, "obstacle": {"kind": "constant", "value": 1.0, "bound": 0.5}},
            None, "obstacle exceeds its declared bound: max 1.0 > 0.5",
        ),
        (
            "solve",
            {
                **COUNTEREXAMPLE_CONFIG,
                "obstacle": {"kind": "state", "expr": OVERFLOW_DIFFERENCE, "bound": 0.0},
            },
            # the lifted process refuses its non-finite level before the bound is compared
            None, "non-finite process at level 1",
        ),
        (
            "solve",
            {**COUNTEREXAMPLE_CONFIG, "obstacle": {"kind": "state", "expr": OVERFLOW_DIFFERENCE}},
            None, "non-finite process at level 1",
        ),
        (
            "verify", {"seed": 3}, None,
            "verify needs a suite name (config suite block or --suite)",
        ),
        (
            "recover", {"tree": SMALL_TREE, "market": MARKET_BLOCK}, None,
            "recover needs a 'recover' block with an observed CSV path",
        ),
        (
            "recover",
            {"tree": SMALL_TREE, "market": MARKET_BLOCK, "recover": {"observed": "obs.csv"}},
            "strike,price\n", "observed prices file is empty",
        ),
    ],
    ids=[
        "tree-without-steps",
        "empty-strikes",
        "ternary-tree",
        "negative-lipschitz",
        "zero-instances",
        "linear-terminal",
        "config-list",
        "obstacle-above-bound",
        "nan-obstacle-under-bound",
        "nan-obstacle-without-bound",
        "verify-without-suite",
        "recover-without-block",
        "header-only-prices",
    ],
)
def test_config_error_exits_two_without_output(
    tmp_path, capsys, command, payload, observed, message
):
    if observed is not None:
        (tmp_path / "obs.csv").write_text(observed)
    config = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_failing_suite_row_exits_three_with_its_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(
        suites.SUITES, "counterexamples", lambda: [CheckResult("broken", False, 1.0, 0.0)]
    )
    config = write_config(tmp_path, {})
    out = tmp_path / "o"
    args = ["verify", "--config", str(config), "--out", str(out), "--suite", "counterexamples"]
    assert main(args) == 3
    assert capsys.readouterr().err == "verification found violations; see report.json\n"
    assert json.loads((out / "report.json").read_text())["all_passed"] is False


def test_running_out_of_memory_exits_three_with_one_line(tmp_path):
    # a recombining N=12000 solve keeps every level; under a 512 MiB address
    # space (set on the child only) numpy's allocation fails inside the sweep
    import resource

    payload = {
        "tree": {"horizon": 1.0, "steps": 12000, "mode": "recombining"},
        "generator": {"expr": "(* 0.5 (abs z))"},
        "terminal": {"kind": "state", "expr": "(abs b)"},
        "obstacle": {"kind": "constant", "value": 0.0},
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "o"
    src = str(Path(rbsde_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    limit = 512 * 1024 * 1024
    done = subprocess.run(
        [sys.executable, "-m", "rbsde_lab.cli", "solve", "--config", str(config), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error: out of memory: ")
    assert not (out / "solution.csv").exists()


class TestConfigRoundTrip:
    @pytest.mark.parametrize("payload", ROUND_TRIP_PAYLOADS)
    def test_emit_parse_is_idempotent(self, payload):
        first = RunConfig.parse(json.dumps(payload)).to_canonical()
        second = RunConfig.parse(first).to_canonical()
        assert first == second

    @pytest.mark.parametrize(
        "payload, digest",
        zip(
            ROUND_TRIP_PAYLOADS,
            [
                "ef022b58d6b6cf5811509295b322b287c41f3794bc6ddf383bfecc45869fbd73",
                "854b14c690b05fafc011b7f1c5526dc1605d53cd99378766d140222b81efb05c",
                "a4af694d7bb8f003ce9dc102da533a3245083c6629a2e13d5347887b7df0dfdb",
            ],
        ),
    )
    def test_canonical_digest_is_pinned(self, payload, digest):
        text = RunConfig.parse(json.dumps(payload)).to_canonical()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_checked_config_is_its_own_canonical_form(self):
        # integers in float fields, spaced expressions, a null bound, a defaulted kind
        payload = {
            "tree": {"horizon": 1, "steps": 4, "mode": "recombining"},
            "generator": {"expr": "(+   y (abs  z))"},
            "terminal": {"kind": "state", "expr": " (abs b) "},
            "obstacle": {"kind": "affine", "slope": -2, "intercept": 1, "bound": None},
            "market": {"spot": 100, "drift": 0, "volatility": 1, "rate": 0, "strikes": [90]},
        }
        config = RunConfig.parse(json.dumps(payload))
        assert RunConfig.parse(config.to_canonical()) == config
        assert json.loads(config.to_canonical()) == {"seed": 0, **config.blocks}
        assert config.blocks["generator"] == {"expr": "(+ y (abs z))"}
        assert "bound" not in config.blocks["obstacle"]
        assert config.blocks["market"]["kind"] == "call"

    def test_unknown_fields_rejected(self):
        with pytest.raises(Exception):
            RunConfig.parse(json.dumps({"tre": {}}))

    @pytest.mark.parametrize(
        "command, block, fields",
        [
            # a misspelled kind would price a call instead of the put asked for
            ("price", "market", {"knd": "put"}),
            # a misspelled bound would be dropped
            ("solve", "obstacle", {"bnd": 5.0}),
            # kind-specific blocks take only their kind's fields
            ("solve", "obstacle", {"expr": "(abs b)"}),
            ("solve", "terminal", {"expr": "(abs b)"}),
            ("solve", "generator", {"claims": {"constant_preserving": True}}),
            ("solve", "tree", {"step": 10}),
        ],
    )
    def test_fields_no_block_reads_exit_two(self, tmp_path, capsys, command, block, fields):
        payload = json.loads(json.dumps(COUNTEREXAMPLE_CONFIG))
        payload["market"] = {
            "spot": 100.0, "drift": 0.08, "volatility": 0.2, "rate": 0.02,
            "strikes": [100.0],
        }
        payload[block].update(fields)
        config = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown fields")
        assert f"in {block}" in err and not out.exists()

    @pytest.mark.parametrize("block", ["tree", "generator", "market", "suite", "recover"])
    def test_a_block_that_is_not_an_object_exits_two(self, tmp_path, capsys, block):
        config = write_config(tmp_path, {block: 5})
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {block} block must be an object\n"

    def test_nonfinite_numbers_rejected(self):
        payload = dict(COUNTEREXAMPLE_CONFIG)
        payload["terminal"] = {"kind": "constant", "value": float("inf")}
        with pytest.raises(Exception):
            RunConfig.parse(json.dumps(payload))


def test_cli_import_does_not_load_scipy():
    # scipy is not a dependency, and fractions loads only for exact probabilities
    src = str(Path(rbsde_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import rbsde_lab.cli, sys; "
            "assert 'scipy' not in sys.modules; assert 'fractions' not in sys.modules",
        ],
        env=env,
        check=True,
    )


def test_cli_import_does_not_load_dataclasses():
    # building a dataclass generates its methods at import, about 1 ms a class
    src = str(Path(rbsde_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import rbsde_lab.cli, sys; assert 'dataclasses' not in sys.modules"],
        env=env,
        check=True,
    )


def test_commands_do_not_load_numpy_random(tmp_path):
    # numpy.random brings PCG64, the Cython runtime and OpenSSL's hashlib,
    # hmac and secrets, about 5.4 MB a process; the suites draw from the
    # standard library's generator, which hashes its seed without OpenSSL
    market = {"tree": SMALL_TREE, "market": {**MARKET_BLOCK, "kind": "call"}}
    write_config(tmp_path, market, name="price.json")
    write_config(tmp_path, {**market, "recover": {"observed": "observed.csv"}}, name="recover.json")
    write_config(tmp_path, {}, name="verify.json")
    assert main(["price", "--config", str(tmp_path / "price.json"), "--out", str(tmp_path / "p")]) == 0
    (row,) = read_rows(tmp_path / "p" / "prices.csv")
    (tmp_path / "observed.csv").write_text(f"strike,price\n{row['strike']},{row['price']}\n")
    script = (
        "import sys\n"
        "from rbsde_lab.cli import main\n"
        "for command, *extra in (('verify', '--suite', 'all', '--seed', '7'), ('price',), ('recover',)):\n"
        "    assert main([command, '--config', command + '.json', '--out', command, *extra]) == 0\n"
        "print(sorted({'numpy.random', 'hashlib', 'secrets'} & set(sys.modules)))\n"
    )
    src = str(Path(rbsde_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[]"


def test_source_names_no_dataclass():
    package = Path(rbsde_lab.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else node.module if isinstance(node, ast.ImportFrom)
                else None
            )
            if name and "dataclass" in name:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_source_reads_no_numpy_random():
    # the suites draw through suites._Draws; see test_commands_do_not_load_numpy_random
    package = Path(rbsde_lab.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)] if node.attr == "random" else []
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name in {"np.random", "numpy.random"} or name.startswith("numpy.random.")
            ]
    assert found == []


def test_source_imports_only_the_standard_library_and_numpy():
    package = Path(rbsde_lab.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "rbsde_lab"}
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert outside == []


_NUMBERS = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def _solve_configs(draw):
    """A `solve` config: a grammar driver declared at its structural bound,
    constant or state data on either tree mode.  Some terminals are built
    to sit on or above the obstacle at the horizon, so most runs solve."""
    mode = draw(st.sampled_from(["full-binary", "recombining"]))
    steps = draw(st.integers(1, 8 if mode == "full-binary" else 40))
    driver = draw(exprs())
    kind = draw(st.sampled_from(["constant", "affine", "state"]))
    if kind == "constant":
        obstacle = {"kind": "constant", "value": draw(_NUMBERS)}
        floor = repr(obstacle["value"])
    elif kind == "affine":
        obstacle = {"kind": "affine", "slope": draw(_NUMBERS), "intercept": draw(_NUMBERS)}
        floor = f"(+ {obstacle['intercept']!r} (* {obstacle['slope']!r} t))"
    else:
        obstacle = {"kind": "state", "expr": draw(exprs(("t", "b"))).to_prefix()}
        floor = obstacle["expr"]
    terminal = draw(
        st.one_of(
            st.builds(lambda v: {"kind": "constant", "value": v}, _NUMBERS),
            st.builds(lambda e: {"kind": "state", "expr": e.to_prefix()}, exprs(("t", "b"))),
            st.builds(
                lambda e: {"kind": "state", "expr": f"(+ {floor} (abs {e.to_prefix()}))"},
                exprs(("t", "b")),
            ),
        )
    )
    return {
        "tree": {"horizon": draw(st.floats(0.05, 2.0)), "steps": steps, "mode": mode},
        "generator": {"expr": driver.to_prefix()},
        "terminal": terminal,
        "obstacle": obstacle,
    }


def _overflow_config(terminal, obstacle, steps=4):
    return {
        "tree": {"horizon": 1.0, "steps": steps, "mode": "recombining"},
        "generator": {"expr": "0"},
        "terminal": terminal,
        "obstacle": obstacle,
    }


class TestSolveContract:
    """Every config `solve` accepts ends in finite output with exit 0, or in a
    typed error with exit 2 (config) or 3 (solver) and no output; never in
    NaN with exit 0, an uncaught exception or a printed warning."""

    @settings(max_examples=40, deadline=None)
    @given(payload=_solve_configs())
    @example(
        payload=_overflow_config(
            {"kind": "state", "expr": "(* 1e308 (* 1e308 b))"}, {"kind": "constant", "value": -1.0}
        )
    )
    @example(
        payload=_overflow_config(
            {"kind": "constant", "value": 1.0}, {"kind": "state", "expr": OVERFLOW_DIFFERENCE}
        )
    )
    @example(  # one step from 1.7e308 to -1.7e308: the obstacle's modulus overflows
        payload=_overflow_config(
            {"kind": "constant", "value": 0.0},
            {"kind": "state", "expr": "(* 1e308 (+ 1.7 (* -3.4 t)))"},
            steps=1,
        )
    )
    def test_solve_gives_finite_output_or_a_typed_exit(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), payload)
            out = Path(tmp) / "out"
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(["solve", "--config", str(config), "--out", str(out)])
            assert [str(w.message) for w in caught] == []
            assert code in (0, 2, 3)
            if code != 0:
                assert err.getvalue().count("\n") == 1
                assert not (out / "solution.csv").exists()
                return
            rows = read_rows(out / "solution.csv")
            assert all(math.isfinite(float(row[c])) for row in rows for c in ("Y", "Z", "S"))
            k = [row["K"] for row in rows]
            # K is the documented nan column when the tree cannot carry the push
            assert all(v == "nan" for v in k) or all(math.isfinite(float(v)) for v in k)
            diagnostics = json.loads((out / "diagnostics.json").read_text())
            assert all(
                math.isfinite(v) for v in diagnostics.values() if not isinstance(v, bool)
            )


# any finite double, so a block may overflow the stock tables, the premium or
# the pricing driver's constant; market values also take the invalid corners
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _price_configs(draw):
    """A `price` config: a market block with extreme but finite spot, drift,
    rate and volatility and a list of strikes, on a small tree of either mode."""
    mode = draw(st.sampled_from(["full-binary", "recombining"]))
    steps = draw(st.integers(1, 8 if mode == "full-binary" else 40))
    positive = st.one_of(st.floats(0.05, 5.0), _FINITE.filter(lambda v: v > 0.0))
    market = {
        "spot": draw(st.one_of(st.floats(50.0, 150.0), positive, _FINITE)),
        "drift": draw(st.one_of(st.floats(-1.0, 1.0), _FINITE)),
        "rate": draw(st.one_of(st.floats(-0.1, 0.2), _FINITE)),
        "volatility": draw(st.one_of(st.floats(0.05, 1.0), positive, _FINITE)),
        "kind": draw(st.sampled_from(["call", "put"])),
        "strikes": draw(
            st.lists(
                st.one_of(st.floats(0.0, 200.0), _FINITE.filter(lambda v: v >= 0.0)),
                min_size=1,
                max_size=5,
            )
        ),
    }
    horizon = draw(st.one_of(st.floats(0.05, 2.0), _FINITE.filter(lambda v: v > 0.0)))
    return {"tree": {"horizon": horizon, "steps": steps, "mode": mode}, "market": market}


class TestPriceContract:
    """Every market block `price` accepts ends in a finite prices.csv with
    exit 0, or in a typed error with exit 2 (config) or 3 (solver) and no
    output; never in NaN with exit 0 or an uncaught exception."""

    @settings(max_examples=60, deadline=None)
    @given(payload=_price_configs())
    def test_price_gives_finite_output_or_a_typed_exit(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), payload)
            out = Path(tmp) / "out"
            code = main(["price", "--config", str(config), "--out", str(out)])
            assert code in (0, 2, 3)
            if code != 0:
                assert not (out / "prices.csv").exists()
                return
            rows = read_rows(out / "prices.csv")
            assert [float(row["strike"]) for row in rows] == payload["market"]["strikes"]
            assert all(
                math.isfinite(float(row[c]))
                for row in rows
                for c in ("price", "exercise_boundary_t0")
            )


@st.composite
def _recover_configs(draw):
    """A `recover` config: a `price` config's market block and tree, and an
    observed-prices file of finite rows, extreme ones among them."""
    payload = draw(_price_configs())
    strike = st.one_of(st.floats(0.0, 200.0), _FINITE.filter(lambda v: v >= 0.0))
    price = st.one_of(st.floats(0.0, 100.0), _FINITE)
    rows = draw(st.lists(st.tuples(strike, price), min_size=1, max_size=5))
    observed = "strike,price\n" + "".join(f"{k!r},{p!r}\n" for k, p in rows)
    return {**payload, "recover": {"observed": "observed.csv"}}, observed


class TestRecoverContract:
    """Every market block and observed-prices file `recover` accepts ends in a
    finite theta.json with exit 0, or in a typed error with exit 2 (config) or
    3 (solver) and no output; never in NaN with exit 0, an uncaught exception
    or a printed warning."""

    @settings(max_examples=60, deadline=None)
    @given(config=_recover_configs())
    def test_recover_gives_finite_output_or_a_typed_exit(self, config):
        payload, observed = config
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "observed.csv").write_text(observed)
            path = write_config(Path(tmp), payload)
            out = Path(tmp) / "out"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["recover", "--config", str(path), "--out", str(out)])
            assert [str(w.message) for w in caught] == []
            assert code in (0, 2, 3)
            if code != 0:
                assert not (out / "theta.json").exists()
                return
            theta = json.loads((out / "theta.json").read_text())
            assert math.isfinite(theta["theta_hat"]) and math.isfinite(theta["objective"])
            assert theta["iterations"] > 0
