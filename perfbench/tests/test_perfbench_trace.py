"""Tests of the benchmark's tracer: self-time arithmetic and restoration."""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import rbsde_lab  # noqa: E402
import rbsde_lab.cli  # noqa: E402,F401
from bench_trace import Span, Tracer, count_under, latency_tail, self_times  # noqa: E402
from rbsde_lab import suites  # noqa: E402
from rbsde_lab.lattice import TimeGrid, TreeMode, build_tree  # noqa: E402
from rbsde_lab.market import MarketModel, PayoffKind  # noqa: E402


def test_self_time_subtracts_union_of_children_and_hot_time():
    root = Span("a", None, 0.0, 10.0, hot_s=1.0)
    # b and c overlap on [3, 4], as spans from two worker threads do
    b = Span("b", root, 1.0, 4.0)
    c = Span("c", root, 3.0, 6.0)
    d = Span("d", b, 2.0, 3.0)
    # a child reaching past its parent only covers the parent's interval
    e = Span("e", c, 5.0, 7.0)
    selfs = self_times([root, b, c, d, e])
    assert selfs[id(root)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[id(b)] == pytest.approx(3.0 - 1.0)
    assert selfs[id(c)] == pytest.approx(3.0 - 1.0)
    assert selfs[id(d)] == pytest.approx(1.0)
    assert selfs[id(e)] == pytest.approx(2.0)


def test_self_time_is_never_negative():
    root = Span("a", None, 0.0, 1.0, hot_s=0.7)
    child = Span("b", root, 0.0, 0.5)
    assert self_times([root, child])[id(root)] == 0.0


def test_count_under_follows_ancestors():
    top = Span("k", None, 0.0, 4.0)
    mid = Span("c", top, 0.0, 2.0)
    spans = [top, mid, Span("s", mid, 0.0, 1.0), Span("s", top, 2.0, 3.0), Span("s", None, 5.0, 6.0)]
    assert count_under(spans, "k", "s") == 2


def test_latency_tail_needs_ten_samples_beyond():
    assert latency_tail([1.0] * 19) is None
    assert latency_tail([float(i) for i in range(20)])[0] == 50.0
    pct, value = latency_tail([float(i) for i in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)


def test_worker_thread_spans_hang_under_the_main_span():
    tracer = Tracer()
    inner = tracer._wrap("t.inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer._wrap("t.outer", outer)()
    spans = {span.name: span for span in tracer.spans}
    assert spans["t.inner"].parent is spans["t.outer"]


def _snapshot():
    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "rbsde_lab" and not name.startswith("rbsde_lab."):
            continue
        for attr, obj in vars(module).items():
            seen[(name, attr)] = obj
            if type(obj) is dict and not attr.startswith("__"):
                for key, value in obj.items():
                    seen[(name, attr, key)] = value
            if isinstance(obj, type) and obj.__module__ == name:
                for key, value in vars(obj).items():
                    seen[(name, attr, "class", key)] = value
    return seen


def test_install_rebinds_every_copy_and_uninstall_restores_all():
    before = _snapshot()
    original = rbsde_lab.rbsde.solve_rbsde
    tracer = Tracer()
    tracer.install()
    try:
        # from-imported copies and registry values are wrapped too
        for module in (rbsde_lab, rbsde_lab.rbsde, rbsde_lab.market, rbsde_lab.cli,
                       rbsde_lab.theorems, suites):
            assert module.solve_rbsde is not original
            assert module.solve_rbsde.__wrapped__ is original
        assert suites.SUITES["comparison"].__wrapped__ is before[
            ("rbsde_lab.suites", "SUITES", "comparison")
        ]
        tree = build_tree(TimeGrid(1.0, 8), TreeMode.RECOMBINING)
        model = MarketModel(spot=100.0, drift=0.08, volatility=0.2, rate=0.02, strike=100.0,
                            kind=PayoffKind.PUT)
        traced = rbsde_lab.market.price_strike_family(tree, model, [90.0, 100.0, 110.0])
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    assert traced == rbsde_lab.market.price_strike_family(tree, model, [90.0, 100.0, 110.0])
    metrics = tracer.report()["metrics"]
    assert metrics["market.price_strike_family.calls"] == 1
    assert metrics["market.price_american_rbsde.calls"] == 3
    assert metrics["rbsde.solve_rbsde.calls"] == 3
    assert metrics["rbsde.nodes_swept"] == 3 * 45
    assert metrics["lattice.child_values.calls"] >= 3 * 8
    assert metrics["rbsde.solve_rbsde.self_s"] <= metrics["rbsde.solve_rbsde.s"]
