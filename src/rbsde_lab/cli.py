"""Batch front door: JSON config in, CSV/JSON artifacts out.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical or
solver errors (including verification suites that find violations).
Outputs are byte-stable for a fixed config and seed: floats are printed
with 17 significant digits and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .bsde import TerminalCondition
from .errors import ConfigError, LatticeLabError, NumericalBreakdown
from .generators import EvalContext, GeneratorSpec, parse_prefix
from .lattice import AdaptedProcess, ScenarioTree, TimeGrid, TreeMode, build_tree
from .market import MarketModel, PayoffKind, quote_strike_family, recover_theta
from .rbsde import ObstacleSpec, solve_rbsde
from .suites import SUITES, run_suite, suite_takes

_STATE_VARS = frozenset({"t", "b"})


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _fmt_level(level: np.ndarray) -> list[str]:
    """``_fmt`` of every value of a level, formatted in one pass."""
    return [f"{x:.17g}" for x in level.tolist()]


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


@dataclass(frozen=True)
class TreeConfig:
    horizon: float
    steps: int
    mode: str

    @classmethod
    def parse(cls, raw: dict) -> "TreeConfig":
        _reject_unknown(raw, "tree", "horizon", "steps", "mode")
        horizon = _require(raw, "horizon", float, "tree")
        steps = _require(raw, "steps", int, "tree")
        mode = _require(raw, "mode", str, "tree")
        if mode not in {m.value for m in TreeMode}:
            raise ConfigError(f"tree mode must be one of {[m.value for m in TreeMode]}")
        if steps < 1 or horizon <= 0.0:
            raise ConfigError("tree needs steps >= 1 and horizon > 0")
        return cls(horizon, steps, mode)

    def build(self) -> ScenarioTree:
        return build_tree(TimeGrid(self.horizon, self.steps), TreeMode(self.mode))

    def to_dict(self) -> dict:
        return {"horizon": self.horizon, "steps": self.steps, "mode": self.mode}


@dataclass(frozen=True)
class GeneratorConfig:
    expr: str
    lipschitz: float

    @classmethod
    def parse(cls, raw: dict) -> "GeneratorConfig":
        _reject_unknown(raw, "generator", "expr", "lipschitz")
        expr = _require(raw, "expr", str, "generator")
        lipschitz = _require(raw, "lipschitz", float, "generator")
        if lipschitz < 0.0:
            raise ConfigError("generator lipschitz constant must be >= 0")
        spec = cls(expr, lipschitz)
        spec.build()  # fail fast on syntax errors
        return spec

    def build(self) -> GeneratorSpec:
        try:
            parsed = parse_prefix(self.expr)
        except LatticeLabError as exc:
            raise ConfigError(f"generator expression: {exc}") from exc
        # canonical text round-trips through the parser
        return GeneratorSpec(parsed, self.lipschitz)

    def to_dict(self) -> dict:
        return {"expr": self.build().to_prefix(), "lipschitz": self.lipschitz}


def _parse_state_expr(text: str, where: str):
    try:
        return parse_prefix(text, variables=_STATE_VARS)
    except LatticeLabError as exc:
        raise ConfigError(f"{where} expression: {exc}") from exc


@dataclass(frozen=True)
class TerminalConfig:
    kind: str
    value: float | None = None
    expr: str | None = None

    @classmethod
    def parse(cls, raw: dict) -> "TerminalConfig":
        kind = _require(raw, "kind", str, "terminal")
        fields = {"constant": "value", "state": "expr"}
        if kind not in fields:
            raise ConfigError("terminal kind must be 'constant' or 'state'")
        _reject_unknown(raw, "terminal", "kind", fields[kind])
        if kind == "constant":
            return cls(kind, value=_require(raw, "value", float, "terminal"))
        expr = _require(raw, "expr", str, "terminal")
        _parse_state_expr(expr, "terminal")
        return cls(kind, expr=expr)

    def build(self, tree: ScenarioTree) -> TerminalCondition:
        if self.kind == "constant":
            return TerminalCondition.constant(tree, self.value)
        node = _parse_state_expr(self.expr, "terminal")
        horizon = tree.grid.horizon

        def leaf(b: np.ndarray) -> np.ndarray:
            return np.asarray(node.eval(EvalContext(t=horizon, b=b)), dtype=float)

        return TerminalCondition.from_leaf_function(tree, leaf)

    def to_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": self.kind, "value": self.value}
        return {"kind": self.kind, "expr": _parse_state_expr(self.expr, "terminal").to_prefix()}


@dataclass(frozen=True)
class ObstacleConfig:
    kind: str
    value: float | None = None
    slope: float | None = None
    intercept: float | None = None
    expr: str | None = None
    bound: float | None = None

    @classmethod
    def parse(cls, raw: dict) -> "ObstacleConfig":
        kind = _require(raw, "kind", str, "obstacle")
        fields = {"constant": ("value",), "affine": ("slope", "intercept"), "state": ("expr",)}
        if kind not in fields:
            raise ConfigError("obstacle kind must be 'constant', 'affine', or 'state'")
        _reject_unknown(raw, "obstacle", "kind", "bound", *fields[kind])
        bound = raw.get("bound")
        if bound is not None:
            bound = _require(raw, "bound", float, "obstacle")
        if kind == "constant":
            return cls(kind, value=_require(raw, "value", float, "obstacle"), bound=bound)
        if kind == "affine":
            return cls(
                kind,
                slope=_require(raw, "slope", float, "obstacle"),
                intercept=_require(raw, "intercept", float, "obstacle"),
                bound=bound,
            )
        expr = _require(raw, "expr", str, "obstacle")
        _parse_state_expr(expr, "obstacle")
        return cls(kind, expr=expr, bound=bound)

    def build(self, tree: ScenarioTree) -> ObstacleSpec:
        if self.kind == "constant":
            process = AdaptedProcess.constant(tree, self.value)
        elif self.kind == "affine":
            process = AdaptedProcess.from_time_function(
                tree, lambda t: self.intercept + self.slope * t
            )
        else:
            node = _parse_state_expr(self.expr, "obstacle")
            process = AdaptedProcess.from_state_function(
                tree, lambda t, b: np.asarray(node.eval(EvalContext(t=t, b=b)), dtype=float)
            )
        try:
            return ObstacleSpec(process, bound=self.bound)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "constant":
            out["value"] = self.value
        elif self.kind == "affine":
            out["slope"] = self.slope
            out["intercept"] = self.intercept
        else:
            out["expr"] = _parse_state_expr(self.expr, "obstacle").to_prefix()
        if self.bound is not None:
            out["bound"] = self.bound
        return out


@dataclass(frozen=True)
class MarketConfig:
    spot: float
    drift: float
    volatility: float
    rate: float
    kind: str
    strikes: tuple[float, ...]

    @classmethod
    def parse(cls, raw: dict) -> "MarketConfig":
        _reject_unknown(raw, "market", "spot", "drift", "volatility", "rate", "kind", "strikes")
        kind = raw.get("kind", "call")
        if kind not in [k.value for k in PayoffKind]:  # a list: kind may be unhashable
            raise ConfigError("market kind must be 'call' or 'put'")
        strikes = raw.get("strikes")
        if not isinstance(strikes, list) or not strikes:
            raise ConfigError("market needs a nonempty 'strikes' list")
        parsed = []
        for s in strikes:
            if not isinstance(s, (int, float)) or isinstance(s, bool) or not math.isfinite(s) or s < 0:
                raise ConfigError("market strikes must be finite nonnegative numbers")
            parsed.append(float(s))
        spot = _require(raw, "spot", float, "market")
        volatility = _require(raw, "volatility", float, "market")
        if spot <= 0.0 or volatility <= 0.0:
            raise ConfigError("market needs spot > 0 and volatility > 0")
        return cls(
            spot=spot,
            drift=_require(raw, "drift", float, "market"),
            volatility=volatility,
            rate=_require(raw, "rate", float, "market"),
            kind=kind,
            strikes=tuple(parsed),
        )

    def model(self, strike: float) -> MarketModel:
        return MarketModel(
            spot=self.spot,
            drift=self.drift,
            volatility=self.volatility,
            rate=self.rate,
            strike=strike,
            kind=PayoffKind(self.kind),
        )

    def to_dict(self) -> dict:
        return {
            "spot": self.spot,
            "drift": self.drift,
            "volatility": self.volatility,
            "rate": self.rate,
            "kind": self.kind,
            "strikes": list(self.strikes),
        }


@dataclass(frozen=True)
class RunConfig:
    tree: TreeConfig | None = None
    generator: GeneratorConfig | None = None
    terminal: TerminalConfig | None = None
    obstacle: ObstacleConfig | None = None
    market: MarketConfig | None = None
    observed: str | None = None
    suite: str | None = None
    instances: int | None = None
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        blocks = ("tree", "generator", "terminal", "obstacle", "market", "recover", "suite")
        _reject_unknown(raw, "config", "seed", *blocks)
        for name in blocks:
            if name in raw and not isinstance(raw[name], dict):
                raise ConfigError(f"{name} block must be an object")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        suite = None
        instances = None
        if "suite" in raw:
            block = raw["suite"]
            _reject_unknown(block, "suite", "name", "instances")
            suite = _require(block, "name", str, "suite")
            if "instances" in block:
                instances = _require(block, "instances", int, "suite")
                if instances < 1:
                    raise ConfigError("suite instances must be >= 1")
        observed = None
        if "recover" in raw:
            block = raw["recover"]
            _reject_unknown(block, "recover", "observed")
            observed = _require(block, "observed", str, "recover")
        return cls(
            tree=TreeConfig.parse(raw["tree"]) if "tree" in raw else None,
            generator=GeneratorConfig.parse(raw["generator"]) if "generator" in raw else None,
            terminal=TerminalConfig.parse(raw["terminal"]) if "terminal" in raw else None,
            obstacle=ObstacleConfig.parse(raw["obstacle"]) if "obstacle" in raw else None,
            market=MarketConfig.parse(raw["market"]) if "market" in raw else None,
            observed=observed,
            suite=suite,
            instances=instances,
            seed=seed,
        )

    def to_canonical(self) -> str:
        out: dict = {"seed": self.seed}
        if self.tree:
            out["tree"] = self.tree.to_dict()
        if self.generator:
            out["generator"] = self.generator.to_dict()
        if self.terminal:
            out["terminal"] = self.terminal.to_dict()
        if self.obstacle:
            out["obstacle"] = self.obstacle.to_dict()
        if self.market:
            out["market"] = self.market.to_dict()
        if self.observed is not None:
            out["recover"] = {"observed": self.observed}
        if self.suite is not None:
            block: dict = {"name": self.suite}
            if self.instances is not None:
                block["instances"] = self.instances
            out["suite"] = block
        return json.dumps(out, sort_keys=True, indent=2) + "\n"


def _need(config: RunConfig, *fields: str) -> None:
    for name in fields:
        if getattr(config, name) is None:
            raise ConfigError(f"this command needs a {name!r} block in the config")


def _finite_json(payload: dict, name: str) -> str:
    """Byte-stable JSON text; a NaN or infinity is a numerical error, not a token."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, default=float, allow_nan=False)
    except ValueError as exc:
        raise NumericalBreakdown(f"{name} would hold a non-finite value") from exc
    return text + "\n"


# ---------------------------------------------------------------------------
# Commands

def cmd_solve(config: RunConfig, out_dir: Path) -> None:
    _need(config, "tree", "generator", "terminal", "obstacle")
    tree = config.tree.build()
    obstacle = config.obstacle.build(tree)
    solution = solve_rbsde(
        tree, config.generator.build(), config.terminal.build(tree), obstacle
    )
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
        writer = csv.writer(handle)
        writer.writerow(["level", "node", "t", "Y", "Z", "K", "S"])
        for i in range(tree.steps + 1):
            k = repeat("nan") if solution.k is None else _fmt_level(solution.k.level(i))
            writer.writerows(
                zip(
                    repeat(i),
                    range(tree.level_size(i)),
                    repeat(_fmt(tree.grid.time(i))),
                    _fmt_level(solution.y.level(i)),
                    _fmt_level(solution.z.level(i)),
                    k,
                    _fmt_level(barrier.level(i)),
                )
            )
    (out_dir / "diagnostics.json").write_text(diagnostics)


def cmd_verify(
    config: RunConfig, out_dir: Path, suite: str | None = None, seed: int | None = None
) -> bool:
    name = suite or config.suite
    if name is None:
        raise ConfigError("verify needs a suite name (config suite block or --suite)")
    if name != "all" and name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    for parameter, value in (("seed", seed), ("instances", config.instances)):
        if value is not None and not suite_takes(name, parameter):
            raise ConfigError(f"suite {name!r} takes no {parameter}")
    effective_seed = seed if seed is not None else config.seed
    results = run_suite(name, seed=effective_seed, instances=config.instances)
    all_passed = all(r.passed for r in results)
    payload = {
        "suite": name,
        "seed": effective_seed,
        "all_passed": all_passed,
        "checks": [asdict(r) for r in results],
    }
    report = _finite_json(payload, "report.json")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report)
    return all_passed


def cmd_price(config: RunConfig, out_dir: Path) -> None:
    _need(config, "tree", "market")
    tree = config.tree.build()
    market = config.market
    quotes = quote_strike_family(tree, market.model(market.strikes[0]), market.strikes)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "prices.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["strike", "price", "exercise_boundary_t0"])
        for quote in quotes:
            writer.writerow(
                [_fmt(quote.strike), _fmt(quote.price), _fmt(tree.grid.time(quote.contact_level))]
            )


def cmd_recover(config: RunConfig, out_dir: Path, config_dir: Path) -> None:
    _need(config, "tree", "market")
    if config.observed is None:
        raise ConfigError("recover needs a 'recover' block with an observed CSV path")
    observed_path = Path(config.observed)
    if not observed_path.is_absolute():
        observed_path = config_dir / observed_path
    if not observed_path.exists():
        raise ConfigError(f"observed prices file not found: {observed_path}")
    observed = []
    with observed_path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["strike", "price"]:
            raise ConfigError("observed prices need the header 'strike,price'")
        for row in reader:
            try:
                observed.append((float(row["strike"]), float(row["price"])))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad observed price row {row!r}") from exc
    if not observed:
        raise ConfigError("observed prices file is empty")
    tree = config.tree.build()
    market = config.market
    recovery = recover_theta(
        tree,
        observed,
        spot=market.spot,
        volatility=market.volatility,
        rate=market.rate,
        kind=PayoffKind(market.kind),
    )
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
    except OSError as exc:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
