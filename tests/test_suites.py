import functools
import inspect
import json

import pytest

from rbsde_lab import suites
from rbsde_lab.cli import main
from rbsde_lab.rbsde import solve_rbsde
from rbsde_lab.suites import run_suite


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
        calls = []

        def counting_solve(*args):
            calls.append(args)
            return solve_rbsde(*args)

        monkeypatch.setattr(suites, "solve_rbsde", counting_solve)
        results = suites.counterexample_suite(steps=40)
        assert len(calls) == 4
        root = results[-1]
        assert root.name == "counterexample/strict-comparison-fails-at-root"
        assert root.passed and root.details["root_low"] == 1.0


class TestReportStability:
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
