"""Tracing of ``rbsde_lab``'s public functions from outside the package.

A :class:`Tracer` wraps the public functions of each layer module (the
layers are the package's modules) and a few public methods that carry
per-level work.  Wrapping rebinds every ``rbsde_lab.*`` module attribute that
holds the function, and every value of a module-level dict that holds it,
because ``from``-imports copy names into other modules (``market``,
``suites`` and ``cli`` import solver functions by name, and ``suites.SUITES``
holds the suite functions).  :meth:`Tracer.uninstall` puts every original
object back.

Two kinds of wrapper exist:

* span wrappers keep one record per call (name, start, end, parent span,
  time spent in hot calls directly below it);
* hot wrappers, for functions called once per tree level, only add to a
  call count and a time total, and charge their time to the enclosing span.

Self time of a span is its duration minus the part of it that its child
spans cover (their union, since children from the suites' worker threads
overlap) minus the time of hot calls made directly inside it.  Spans opened
by a worker thread with nothing open on that thread take the main thread's
innermost open span as parent.  Hot calls on such a thread charge no span.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "rbsde_lab"
LAYERS = ("lattice", "generators", "bsde", "rbsde", "market", "theorems", "suites", "cli")

# Called once per tree level (or per node batch): counted and summed only.
HOT = frozenset(
    {
        "lattice.child_values",
        "lattice.conditional_expectation",
        "lattice.martingale_coefficient",
        "lattice.adapted_process",
        "generators.evaluate",
        "generators.y_affine",
        "bsde.terminal",
    }
)

# Span names whose individual durations are kept for percentiles.
LATENCY_NAMES = ("market.price_strike_family",)


class Span:
    __slots__ = ("name", "parent", "start", "end", "hot_s", "nested")

    def __init__(self, name, parent, start=0.0, end=0.0, hot_s=0.0, nested=False):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.hot_s = hot_s
        self.nested = nested


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span, keyed by ``id(span)``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = _covered(children.get(id(span), []), span.start, span.end)
        out[id(span)] = max(span.end - span.start - covered - span.hot_s, 0.0)
    return out


def count_under(spans: list[Span], ancestor: str, name: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    count = 0
    for span in spans:
        if span.name != name:
            continue
        up = span.parent
        while up is not None and up.name != ancestor:
            up = up.parent
        count += up is not None
    return count


def latency_tail(durations: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(durations)
    ordered = sorted(durations)
    for pct in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(round(pct * n / 100.0, 9))  # samples at or below it
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


# -- hooks: counters read from a traced call's arguments and result ---------

def _adapted_process_bytes(tracer, result, args, kwargs):
    process = args[0]
    tracer.add("lattice.adapted_process.bytes", 8 * sum(lvl.size for lvl in process.levels()))


def _rbsde_solution(tracer, result, args, kwargs):
    tracer.add("rbsde.nodes_swept", sum(lvl.size for lvl in result.y.levels()))
    tracer.peak("bsde.max_fixed_point_iters", result.diagnostics.iterations)


def _bsde_solution(tracer, result, args, kwargs):
    tracer.peak("bsde.max_fixed_point_iters", result.iterations)


def _recovery(tracer, result, args, kwargs):
    tracer.add("market.recover_theta.evaluations", result.evaluations)


def _suite_hook(key):
    def hook(tracer, result, args, kwargs):
        tracer.add(f"suites.{key}.checks", len(result))
        tracer.add("suites.checks", len(result))
        tracer.add("suites.checks_failed", sum(not r.passed for r in result))

    return hook


HOOKS = {
    "lattice.adapted_process": _adapted_process_bytes,
    "rbsde.solve_rbsde": _rbsde_solution,
    "bsde.solve_bsde": _bsde_solution,
    "market.recover_theta": _recovery,
}


def _method_targets(modules):
    """(span name, class, attribute) for the traced public methods."""
    lattice, generators, bsde, cli = (
        modules["lattice"], modules["generators"], modules["bsde"], modules["cli"]
    )
    targets = [
        ("lattice.child_values", lattice.ScenarioTree, "child_values"),
        ("lattice.adapted_process", lattice.AdaptedProcess, "__init__"),
        ("generators.evaluate", generators.GeneratorSpec, "evaluate"),
        ("generators.y_affine", generators.GeneratorSpec, "y_affine"),
        ("cli.parse", cli.RunConfig, "parse"),
    ]
    for attr in ("__init__", "constant", "from_leaf_values", "from_leaf_function",
                 "at_rule", "extended"):
        targets.append(("bsde.terminal", bsde.TerminalCondition, attr))
    return targets


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.main_thread()
        self._restore: list = []
        self._lock = threading.Lock()

    # -- bookkeeping ------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = (
                self._main_stack
                if threading.current_thread() is self._main_thread
                else []
            )
            local.active = defaultdict(int)
            local.hot_depth = 0
        return local

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self
        hook = hook or HOOKS.get(name)

        if name in HOT:
            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                state = tracer._state()
                if state.active[name]:
                    return fn(*args, **kwargs)
                state.active[name] += 1
                state.hot_depth += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    state.active[name] -= 1
                    state.hot_depth -= 1
                    with tracer._lock:
                        entry = tracer.hot[name]
                        entry[0] += 1
                        entry[1] += elapsed
                    if state.stack and not state.hot_depth:
                        state.stack[-1].hot_s += elapsed
                if hook is not None:
                    hook(tracer, result, args, kwargs)
                return result

            return hot_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(name, parent, nested=state.active[name] > 0)
            state.active[name] += 1
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                state.active[name] -= 1
                tracer.spans.append(span)
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        return span_wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and the traced methods."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        suite_keys = {id(fn): key for key, fn in modules["suites"].SUITES.items()}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                if id(obj) in suite_keys:
                    key = suite_keys[id(obj)]
                    wrapper = self._wrap(f"suites.{key}", obj, _suite_hook(key))
                else:
                    label = attr.removeprefix("cmd_") if layer == "cli" else attr
                    wrapper = self._wrap(f"{layer}.{label}", obj)
                wrapped[id(obj)] = (obj, wrapper)
        self._rebind_everywhere(wrapped)
        for name, cls, attr in _method_targets(modules):
            self._wrap_class_attr(name, cls, attr)

    def _rebind_everywhere(self, wrapped: dict[int, tuple]) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or (mod_name != PACKAGE and not mod_name.startswith(PACKAGE + ".")):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._restore.append((namespace, attr, obj))
                    namespace[attr] = wrapped[id(obj)][1]
                elif type(obj) is dict:
                    for key, value in list(obj.items()):
                        if id(value) in wrapped and wrapped[id(value)][0] is value:
                            self._restore.append((obj, key, value))
                            obj[key] = wrapped[id(value)][1]

    def _wrap_class_attr(self, name: str, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__))
        elif isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self._wrap(name, original.func))
            replacement.__set_name__(cls, attr)
        else:
            replacement = self._wrap(name, original)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        """Put back every attribute and dict value that install replaced."""
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, type):
                setattr(owner, key, original)
            else:
                owner[key] = original

    # -- report -----------------------------------------------------------

    def report(self) -> dict:
        """Flat metrics plus the kept latency samples, ready for JSON."""
        metrics: dict[str, float] = defaultdict(float)
        selfs = self_times(self.spans)
        latencies: dict[str, list[float]] = {name: [] for name in LATENCY_NAMES}
        for span in self.spans:
            duration = span.end - span.start
            metrics[f"{span.name}.calls"] += 1
            metrics[f"{span.name}.self_s"] += selfs[id(span)]
            if not span.nested:
                metrics[f"{span.name}.s"] += duration
            if span.name in latencies:
                latencies[span.name].append(duration)
        for name, (calls, seconds) in self.hot.items():
            metrics[f"{name}.calls"] += calls
            metrics[f"{name}.s"] += seconds
        for name, value in self.counters.items():
            metrics[name] += value
        metrics.update(self.maxima)
        metrics["theorems.check_k_comparison.solves"] = count_under(
            self.spans, "theorems.check_k_comparison", "rbsde.solve_rbsde"
        )
        return {"metrics": dict(metrics), "latencies": latencies}
