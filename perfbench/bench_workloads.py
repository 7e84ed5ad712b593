"""Workload inputs, made from the workload seed, and output validation.

Each workload turns a seed into one or more CLI invocations (a *pass*); the
harness repeats passes.  References come from code independent of the
solver under test: the risk-neutral dynamic program for prices, the drawn
premium for recovery, a pinned digest and the closed form for ``solve``,
and pinned check counts for ``verify``.  Validators return ``None`` on
success or a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rbsde_lab.lattice import TimeGrid, TreeMode, build_tree
from rbsde_lab.market import MarketModel, PayoffKind, price_american_riskneutral_dp
from rbsde_lab.suites import SUITES

SPOT, VOLATILITY, RATE = 100.0, 0.2, 0.02

RECOVER_STEPS = 48
RECOVER_STRIKES = (80.0, 90.0, 100.0, 110.0, 120.0)
RECOVER_TOL = 1e-6

PRICE_STEPS = 2000
PRICE_DRIFT = 0.08
PRICE_TOL = 1e-10

SOLVE_STEPS = 2000
THIRD = "0.3333333333333333"
# SHA-256 of solution.csv for the counterexample at SOLVE_STEPS steps.
SOLVE_CSV_SHA256 = "39c636e7ca6bb8202bbe19f312fb45a8e4fd342c39a213d887a26183c685de6d"

# Every suite except pricing and recovery, with its number of checks.
VERIFY_CHECKS = {
    "counterexamples": 13,
    "convergence": 2,
    "comparison": 1,
    "push-comparison": 1,
    "witness": 2,
    "restriction-identity": 2,
    "oracle-equivalence": 1,
    "dominating-obstacle": 3,
    "masked-drivers": 2,
    "incomparable-drivers": 2,
    "converse": 4,
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments (``--out`` is added per call) and checker."""

    label: str
    args: tuple[str, ...]
    check: Callable[[Path], str | None]


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def load_strict_json(path: Path):
    """Parse JSON, treating a bare NaN/Infinity token as invalid."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _tree_block(steps: int) -> dict:
    return {"horizon": 1.0, "steps": steps, "mode": "recombining"}


def _model(drift: float, strike: float, kind: PayoffKind) -> MarketModel:
    return MarketModel(
        spot=SPOT, drift=drift, volatility=VOLATILITY, rate=RATE,
        strike=strike, kind=kind,
    )


# -- recover ----------------------------------------------------------------

def recover(work: Path, seed: int) -> list[Invocation]:
    """Premium recovery from DP prices at a drawn premium |theta*| <= 0.5."""
    theta = float(np.random.default_rng([seed, 1]).uniform(-0.5, 0.5))
    tree = build_tree(TimeGrid(1.0, RECOVER_STEPS), TreeMode.RECOMBINING)
    drift = RATE + VOLATILITY * theta
    with (work / "observed.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["strike", "price"])
        for strike in RECOVER_STRIKES:
            price = price_american_riskneutral_dp(tree, _model(drift, strike, PayoffKind.CALL))
            writer.writerow([f"{strike:.17g}", f"{price:.17g}"])
    config = _write_json(
        work / "recover.json",
        {
            "tree": _tree_block(RECOVER_STEPS),
            # recovery reads spot, volatility and rate only; the drift given
            # here is the zero-premium one so the config does not leak theta*
            "market": {
                "spot": SPOT, "drift": RATE, "volatility": VOLATILITY, "rate": RATE,
                "kind": "call", "strikes": list(RECOVER_STRIKES),
            },
            "recover": {"observed": "observed.csv"},
            "seed": seed,
        },
    )

    def check(out: Path) -> str | None:
        payload = load_strict_json(out / "theta.json")
        theta_hat = payload.get("theta_hat")
        if not _finite(theta_hat) or not _finite(payload.get("objective")):
            return f"non-finite recovery output {payload!r}"
        if abs(theta_hat - theta) > RECOVER_TOL:
            return f"theta_hat {theta_hat!r} misses theta* {theta!r} by more than {RECOVER_TOL}"
        return None

    return [Invocation("recover", ("recover", "--config", str(config)), check)]


# -- price ------------------------------------------------------------------

def price(work: Path, seed: int) -> list[Invocation]:
    """American puts at five drawn strikes in [80, 120] on a deep tree."""
    strikes = [float(k) for k in np.random.default_rng([seed, 2]).uniform(80.0, 120.0, 5)]
    tree = build_tree(TimeGrid(1.0, PRICE_STEPS), TreeMode.RECOMBINING)
    reference = {
        k: price_american_riskneutral_dp(tree, _model(PRICE_DRIFT, k, PayoffKind.PUT))
        for k in strikes
    }
    config = _write_json(
        work / "price.json",
        {
            "tree": _tree_block(PRICE_STEPS),
            "market": {
                "spot": SPOT, "drift": PRICE_DRIFT, "volatility": VOLATILITY,
                "rate": RATE, "kind": "put", "strikes": strikes,
            },
            "seed": seed,
        },
    )

    def check(out: Path) -> str | None:
        with (out / "prices.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        if [float(r["strike"]) for r in rows] != strikes:
            return "prices.csv strikes differ from the config"
        for row in rows:
            value = float(row["price"])
            boundary = float(row["exercise_boundary_t0"])
            if not (math.isfinite(value) and math.isfinite(boundary)):
                return f"non-finite price row {row!r}"
            gap = abs(value - reference[float(row["strike"])])
            if gap > PRICE_TOL:
                return f"price {value!r} at strike {row['strike']} is {gap:.3g} from the DP"
        return None

    return [Invocation("price", ("price", "--config", str(config)), check)]


# -- solve ------------------------------------------------------------------

def solve(work: Path, seed: int) -> list[Invocation]:
    """Closed-form counterexample; the seed is recorded in the config, unused."""
    config = _write_json(
        work / "solve.json",
        {
            "tree": _tree_block(SOLVE_STEPS),
            "generator": {"expr": THIRD, "lipschitz": 0.0},
            "terminal": {"kind": "constant", "value": float(THIRD)},
            "obstacle": {"kind": "affine", "slope": -2.0, "intercept": 1.0},
            "seed": seed,
        },
    )

    def check(out: Path) -> str | None:
        digest = hashlib.sha256()
        with (out / "solution.csv").open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        if digest.hexdigest() != SOLVE_CSV_SHA256:
            return f"solution.csv digest {digest.hexdigest()} is not the pinned one"
        diag = load_strict_json(out / "diagnostics.json")
        if not all(_finite(v) for v in diag.values() if not isinstance(v, bool)):
            return f"non-finite diagnostics {diag!r}"
        if diag["skorokhod_residual"] != 0.0:
            return f"Skorokhod residual {diag['skorokhod_residual']!r} is not exactly 0"
        with (out / "solution.csv").open(newline="") as handle:
            root = next(csv.DictReader(handle))
        if (root["level"], root["node"]) != ("0", "0") or float(root["Y"]) != 1.0:
            return f"root row {root!r} is not Y = 1.0 at (0, 0)"
        return None

    return [Invocation("solve", ("solve", "--config", str(config)), check)]


# -- verify -----------------------------------------------------------------

def verify(work: Path, seed: int) -> list[Invocation]:
    """One process per theory suite; ``--seed`` only where the suite takes one."""
    config = _write_json(work / "verify.json", {})
    invocations = []
    for name, expected in VERIFY_CHECKS.items():
        args = ["verify", "--config", str(config), "--suite", name]
        if "seed" in inspect.signature(SUITES[name]).parameters:
            args += ["--seed", str(seed)]

        def check(out: Path, name=name, expected=expected) -> str | None:
            report = load_strict_json(out / "report.json")
            checks = report.get("checks", [])
            if report.get("suite") != name or report.get("all_passed") is not True:
                return f"suite {name} did not pass"
            if len(checks) != expected or not all(c.get("passed") is True for c in checks):
                return f"suite {name} reported {len(checks)} checks, expected {expected} passing"
            return None

        invocations.append(Invocation(f"verify:{name}", tuple(args), check))
    return invocations


WORKLOADS: dict[str, Callable[[Path, int], list[Invocation]]] = {
    "recover": recover,
    "price": price,
    "solve": solve,
    "verify": verify,
}
