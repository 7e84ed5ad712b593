"""Batch front door: JSON config in, CSV/JSON artifacts out.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical or
solver errors (including verification suites that find violations and
running out of memory).
Outputs are byte-stable for a fixed config and seed: floats are printed
with 17 significant digits and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bsde import TerminalCondition
from .errors import ConfigError, InvalidGrid, LatticeLabError, NumericalBreakdown
from .generators import DRIVER_VARIABLES, STATE_VARIABLES, EvalContext, GeneratorSpec, parse_prefix
from .lattice import AdaptedProcess, ScenarioTree, TimeGrid, TreeMode, build_tree
from .market import MarketModel, PayoffKind, quote_strike_family, recover_theta
from .rbsde import ObstacleSpec, solve_rbsde
from .suites import SUITES, run_suite, suite_takes


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_level(level: np.ndarray) -> list[str]:
    """``_fmt`` of every value of a level; a one-cell (stride-0) level is formatted once."""
    if level.strides[-1] == 0:
        return [_fmt(level.item(0))] * level.size
    return [f"{x:.17g}" for x in level.tolist()]


def _solution_rows(i: int, t: float, y, z, k, s) -> str:
    """Level ``i`` of ``solution.csv``, as ``csv.writer`` writes it.

    No field needs quoting: ``_fmt`` writes only digits, signs, '.', 'e',
    'nan' and 'inf'.  Without ``k`` its column reads 'nan'.
    """
    t = _fmt(t)
    k = repeat("nan") if k is None else _fmt_level(k)
    cells = zip(range(len(y)), _fmt_level(y), _fmt_level(z), k, _fmt_level(s))
    return "".join([f"{i},{node},{t},{yv},{zv},{kv},{sv}\r\n" for node, yv, zv, kv, sv in cells])


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise ConfigError(f"missing field {key!r} in {where}")
    value = mapping[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"field {key!r} in {where} must be {kind.__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"field {key!r} in {where} must be finite")
    return value


def _reject_unknown(raw: dict, where: str, *fields: str) -> None:
    """Config error for any field of ``raw`` outside ``fields``: none is ignored."""
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)} in {where}")


def _one_of(names) -> str:
    quoted = [repr(name) for name in names]
    return " or ".join(quoted) if len(quoted) < 3 else ", ".join(quoted[:-1]) + ", or " + quoted[-1]


def _is_strike(value) -> bool:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and math.isfinite(value) and value >= 0


def _check_seed(seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return seed


class _Optional(NamedTuple):
    """A field that may be absent; it then reads as ``default``, and None leaves it out."""

    kind: object
    default: object = None
    null_is_absent: bool = False


class _Expr(NamedTuple):
    """A prefix expression over ``variables``, kept as its canonical text."""

    variables: frozenset


_STATE = _Expr(STATE_VARIABLES)

# Each block's fields and their types.  A ``kind`` given as a dict picks
# the rest of the block's fields by the block's kind.
_BLOCKS = {
    "tree": {"horizon": float, "steps": int, "mode": str},
    "generator": {"expr": _Expr(DRIVER_VARIABLES)},
    "terminal": {"kind": {"constant": {"value": float}, "state": {"expr": _STATE}}},
    "obstacle": {
        "kind": {
            "constant": {"value": float},
            "affine": {"slope": float, "intercept": float},
            "state": {"expr": _STATE},
        },
        "bound": _Optional(float, null_is_absent=True),
    },
    "market": {
        "kind": _Optional(PayoffKind, "call"),
        "strikes": list[float],
        "spot": float,
        "volatility": float,
        "drift": float,
        "rate": float,
    },
    "recover": {"observed": str},
    "suite": {"name": str, "instances": _Optional(int)},
}


def _field(raw: dict, key: str, kind, where: str):
    """``raw[key]`` checked against its table type; None leaves the field out."""
    if isinstance(kind, _Optional):
        if key not in raw or (kind.null_is_absent and raw[key] is None):
            return kind.default
        kind = kind.kind
    if kind == list[float]:  # the strikes
        strikes = raw.get(key)
        if not isinstance(strikes, list) or not strikes:
            raise ConfigError(f"{where} needs a nonempty {key!r} list")
        if not all(map(_is_strike, strikes)):
            raise ConfigError(f"{where} {key} must be finite nonnegative numbers")
        return [float(s) for s in strikes]
    if isinstance(kind, type) and issubclass(kind, Enum):
        if raw[key] not in [m.value for m in kind]:  # a list: the value may be unhashable
            raise ConfigError(f"{where} {key} must be {_one_of(m.value for m in kind)}")
        return raw[key]
    if isinstance(kind, _Expr):
        text = _require(raw, key, str, where)
        try:
            return parse_prefix(text, variables=kind.variables).to_prefix()
        except LatticeLabError as exc:
            raise ConfigError(f"{where} expression: {exc}") from exc
    return _require(raw, key, kind, where)


def _check(name: str, block: dict) -> None:
    """The checks of a read block that go beyond its field types."""
    if name == "tree":
        if block["mode"] not in {m.value for m in TreeMode}:
            raise ConfigError(f"tree mode must be one of {[m.value for m in TreeMode]}")
        try:
            TimeGrid(block["horizon"], block["steps"])
        except InvalidGrid as exc:
            raise ConfigError(f"tree: {exc}") from exc
    elif name == "market" and (block["spot"] <= 0.0 or block["volatility"] <= 0.0):
        raise ConfigError("market needs spot > 0 and volatility > 0")
    elif name == "suite" and block.get("instances", 1) < 1:
        raise ConfigError("suite instances must be >= 1")


def _read(raw, where: str) -> dict:
    """The checked block: unknown fields rejected, each table field read by its type."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} block must be an object")
    fields = _BLOCKS[where]
    kinds = fields.get("kind")
    if isinstance(kinds, dict):
        chosen = _require(raw, "kind", str, where)
        if chosen not in kinds:
            raise ConfigError(f"{where} kind must be {_one_of(kinds)}")
        fields = {**fields, "kind": str, **kinds[chosen]}
    _reject_unknown(raw, where, *fields)
    values = ((key, _field(raw, key, kind, where)) for key, kind in fields.items())
    block = {key: value for key, value in values if value is not None}
    _check(where, block)
    return block


class RunConfig(NamedTuple):
    """A checked config: each block as read against ``_BLOCKS``, and the seed.

    The checked blocks are the canonical form: numbers are floats where the
    table says so and expressions are in canonical prefix text.
    """

    blocks: dict
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _reject_unknown(raw, "config", "seed", *_BLOCKS)
        seed = _check_seed(raw.get("seed", 0))
        return cls({name: _read(raw[name], name) for name in _BLOCKS if name in raw}, seed)

    def block(self, name: str) -> dict:
        """The checked block a command needs; a config error if it is missing."""
        if name not in self.blocks:
            raise ConfigError(f"this command needs a {name!r} block in the config")
        return self.blocks[name]

    def to_canonical(self) -> str:
        return json.dumps({"seed": self.seed, **self.blocks}, sort_keys=True, indent=2) + "\n"


def _tree(block: dict) -> ScenarioTree:
    return build_tree(TimeGrid(block["horizon"], block["steps"]), TreeMode(block["mode"]))


def _state_function(text: str):
    node = parse_prefix(text, variables=_STATE.variables)

    # an overflow surfaces as a non-finite value, which the lift or the sweep rejects
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def f(t, b):
        return np.asarray(node.eval(EvalContext(t=t, b=b)), dtype=float)

    return f


def _terminal(block: dict, tree: ScenarioTree) -> TerminalCondition:
    if block["kind"] == "constant":
        return TerminalCondition.constant(tree, block["value"])
    leaf = _state_function(block["expr"])
    horizon = tree.grid.horizon
    try:
        return TerminalCondition.from_leaf_function(tree, lambda b: leaf(horizon, b))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _obstacle(block: dict, tree: ScenarioTree) -> ObstacleSpec:
    try:  # a lift that overflows is refused by the process it would build
        if block["kind"] == "constant":
            process = AdaptedProcess.constant(tree, block["value"])
        elif block["kind"] == "affine":
            slope, intercept = block["slope"], block["intercept"]
            process = AdaptedProcess.from_time_function(tree, lambda t: intercept + slope * t)
        else:
            process = AdaptedProcess.from_state_function(tree, _state_function(block["expr"]))
        return ObstacleSpec(process, bound=block.get("bound"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _model(market: dict) -> MarketModel:
    """The market block's model, at its first strike."""
    params = {**market, "kind": PayoffKind(market["kind"]), "strike": market["strikes"][0]}
    del params["strikes"]
    try:
        return MarketModel(**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _finite_json(payload: dict, name: str) -> str:
    """Byte-stable JSON text; a NaN or infinity is a numerical error, not a token.

    Only JSON's own types are written: anything else, such as a numpy bool,
    raises ``TypeError`` rather than being coerced to a number.
    """
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalBreakdown(f"{name} would hold a non-finite value") from exc
    return text + "\n"


# ---------------------------------------------------------------------------
# Commands

def cmd_solve(config: RunConfig, out_dir: Path) -> None:
    tree = _tree(config.block("tree"))
    generator = GeneratorSpec(parse_prefix(config.block("generator")["expr"]))
    terminal = _terminal(config.block("terminal"), tree)
    obstacle = _obstacle(config.block("obstacle"), tree)
    solution = solve_rbsde(generator, terminal, obstacle)
    diag = solution.diagnostics
    diagnostics = _finite_json(
        {
            "skorokhod_residual": diag.skorokhod_residual,
            "min_y_minus_s": diag.min_gap,
            "max_k_increment": diag.max_increment,
            "iterations": diag.iterations,
            "residual": diag.residual,
            "k_cumulative_available": diag.cumulative_available,
            "obstacle_modulus": obstacle.modulus_estimate,
        },
        "diagnostics.json",
    )
    barrier = obstacle.process
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "solution.csv").open("w", newline="") as handle:
        handle.write("level,node,t,Y,Z,K,S\r\n")
        for i in range(tree.steps + 1):
            k = None if solution.k is None else solution.k.level(i)
            y, z, s = solution.y.level(i), solution.z.level(i), barrier.level(i)
            handle.write(_solution_rows(i, tree.grid.time(i), y, z, k, s))
    (out_dir / "diagnostics.json").write_text(diagnostics)


def cmd_verify(
    config: RunConfig, out_dir: Path, suite: str | None = None, seed: int | None = None
) -> bool:
    block = config.blocks.get("suite", {})
    name = suite or block.get("name")
    if name is None:
        raise ConfigError("verify needs a suite name (config suite block or --suite)")
    if name != "all" and name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    instances = block.get("instances")
    for parameter, value in (("seed", seed), ("instances", instances)):
        if value is not None and not suite_takes(name, parameter):
            raise ConfigError(f"suite {name!r} takes no {parameter}")
    effective_seed = config.seed if seed is None else _check_seed(seed)
    results = run_suite(name, seed=effective_seed, instances=instances)
    all_passed = all(r.passed for r in results)
    payload = {
        "suite": name,
        "seed": effective_seed,
        "all_passed": all_passed,
        "checks": [r._asdict() for r in results],
    }
    report = _finite_json(payload, "report.json")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report)
    return all_passed


def cmd_price(config: RunConfig, out_dir: Path) -> None:
    tree = _tree(config.block("tree"))
    market = config.block("market")
    quotes = quote_strike_family(tree, _model(market), market["strikes"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "prices.csv").open("w", newline="") as handle:
        # rows as _solution_rows writes them: no _fmt field needs quoting
        handle.write("strike,price,exercise_boundary_t0\r\n")
        for quote in quotes:
            boundary = tree.grid.time(quote.contact_level)
            handle.write(f"{_fmt(quote.strike)},{_fmt(quote.price)},{_fmt(boundary)}\r\n")


def _observed_prices(path: Path) -> list[tuple[float, float]]:
    """Checked (strike, price) rows of an observed-prices CSV; any fault is a config error."""
    observed = []
    try:
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames != ["strike", "price"]:
                raise ConfigError("observed prices need the header 'strike,price'")
            for row in reader:
                try:
                    strike, price = float(row["strike"]), float(row["price"])
                except (TypeError, ValueError):
                    strike = price = math.nan
                # csv.DictReader keeps fields past the header under the key None
                if None in row or not (_is_strike(strike) and math.isfinite(price)):
                    raise ConfigError(f"bad observed price row {row!r}")
                observed.append((strike, price))
    except FileNotFoundError as exc:
        raise ConfigError(f"observed prices file not found: {path}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read observed prices file: {exc}") from exc
    if not observed:
        raise ConfigError("observed prices file is empty")
    return observed


def cmd_recover(config: RunConfig, out_dir: Path, config_dir: Path) -> None:
    tree = _tree(config.block("tree"))
    model = _model(config.block("market"))  # checks the market block as price does
    if "recover" not in config.blocks:
        raise ConfigError("recover needs a 'recover' block with an observed CSV path")
    try:
        recovery = recover_theta(
            tree,
            _observed_prices(config_dir / config.blocks["recover"]["observed"]),
            spot=model.spot,
            volatility=model.volatility,
            rate=model.rate,
            kind=model.kind,
        )
    except ValueError as exc:  # the market block overflows at an edge of the premium bracket
        raise ConfigError(str(exc)) from exc
    theta = _finite_json(
        {
            "theta_hat": recovery.theta_hat,
            "objective": recovery.objective,
            "iterations": recovery.evaluations,
        },
        "theta.json",
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "theta.json").write_text(theta)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbsde-lab",
        description="Reflected backward-equation laboratory on binomial lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "price", "recover"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, type=Path)
        cmd.add_argument("--out", required=True, type=Path)
        if name == "verify":
            cmd.add_argument("--suite", default=None)
            cmd.add_argument("--seed", default=None, type=int)
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = RunConfig.parse(text)
        if args.command == "solve":
            cmd_solve(config, args.out)
        elif args.command == "verify":
            if not cmd_verify(config, args.out, suite=args.suite, seed=args.seed):
                print("verification found violations; see report.json", file=sys.stderr)
                return 3
        elif args.command == "price":
            cmd_price(config, args.out)
        else:
            cmd_recover(config, args.out, args.config.resolve().parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LatticeLabError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"solver error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
