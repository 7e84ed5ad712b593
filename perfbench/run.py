"""Benchmark harness for rbsde-lab's four CLI commands.

usage: python3 perfbench/run.py --workload {recover,price,solve,verify,all}
                                --seed N --seconds S --trace {0,1}

Each CLI call runs as a fresh process (``bench_child.py``), one at a time.
Inputs come from ``--seed``; every output is validated after its process
exits, outside the timed region.  A *pass* is the set of calls one workload
makes (one call, or one per suite for ``verify``).  Passes repeat while
another one is expected to end within ``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
medians over passes of wall time and peak RSS (from the child's own
rusage via ``os.wait4``), and the median set-up time over probes plus every
call.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (means per pass) with the tracing
overhead.  Human-readable lines come first; the last line of standard
output is the JSON result.  The full record, with the environment, goes to
``.perfbench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_trace import latency_tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "bench_child.py"
RESULTS = ROOT / ".perfbench_results"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0
COMMANDS = ("solve", "verify", "price", "recover")


@dataclass
class Call:
    label: str
    wall_s: float
    setup_s: float
    rss_mb: float
    exit_code: int
    bytes_out: int = 0
    error: str | None = None
    trace: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    # the suites' thread pool keeps its user default (at most nproc threads)
    env.pop("RBSDE_LAB_THREADS", None)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(cli_args: list[str], call_dir: Path, trace_file: str, env: dict) -> Call:
    """Run one child; wall and set-up times are taken from its spawn."""
    ready = call_dir / "ready"
    cmd = [sys.executable, str(CHILD), str(ready), trace_file, *cli_args]
    with open(call_dir / "stdout", "wb") as out, open(call_dir / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=call_dir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ready_at = float(ready.read_text()) if ready.exists() else math.nan
    return Call(
        label=cli_args[0] if cli_args else "probe",
        wall_s=end - start,
        setup_s=ready_at - start,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
    )


def run_call(invocation, work: Path, traced: bool, env: dict) -> Call:
    call_dir = work / "call"
    if call_dir.exists():
        shutil.rmtree(call_dir)
    call_dir.mkdir(parents=True)
    out = call_dir / "out"
    trace_file = call_dir / "trace.json"
    try:
        call = spawn(
            [*invocation.args, "--out", str(out)],
            call_dir,
            str(trace_file) if traced else "-",
            env,
        )
        call.label = invocation.label
        if call.exit_code != 0:
            stderr = (call_dir / "stderr").read_text(errors="replace").strip()
            call.error = f"exit code {call.exit_code}: {stderr[-300:]}"
        else:
            try:
                call.error = invocation.check(out)
            except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
                call.error = f"invalid output: {type(exc).__name__}: {exc}"
        call.bytes_out = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if traced and trace_file.exists():
            call.trace = json.loads(trace_file.read_text())
        return call
    finally:
        shutil.rmtree(call_dir, ignore_errors=True)


# -- per-layer metrics from traced calls --------------------------------------

def layer_metrics(calls: list[Call]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all its calls merged)."""
    merged: dict[str, float] = {}
    latencies: dict[str, list[float]] = {}
    for call in calls:
        for name, value in call.trace.get("metrics", {}).items():
            if name == "bsde.max_fixed_point_iters":
                merged[name] = max(merged.get(name, 0), value)
            else:
                merged[name] = merged.get(name, 0.0) + value
        for name, samples in call.trace.get("latencies", {}).items():
            latencies.setdefault(name, []).extend(samples)
    nodes = merged.get("rbsde.nodes_swept", 0.0)
    if nodes:
        merged["rbsde.ns_per_node"] = 1e9 * merged.get("rbsde.solve_rbsde.self_s", 0.0) / nodes
    merged["cli.command.self_s"] = sum(merged.get(f"cli.{c}.self_s", 0.0) for c in COMMANDS)
    merged["cli.bytes_out"] = float(sum(c.bytes_out for c in calls))
    for name, samples in latencies.items():
        if samples:
            merged[f"{name}.p50_s"] = statistics.median(samples)
            tail = latency_tail(samples)
            if tail is not None:
                merged[f"{name}.tail_pct"], merged[f"{name}.tail_s"] = tail
    return merged


def mean_layers(passes: list[dict[str, float]]) -> dict[str, float]:
    names = sorted({name for p in passes for name in p})
    out = {}
    for name in names:
        values = [p.get(name, 0.0) for p in passes]
        if name == "bsde.max_fixed_point_iters" or name.endswith("tail_pct"):
            out[name] = max(values)
        else:
            out[name] = sum(values) / len(values)
    return out


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes") or name == "cli.bytes_out":
        return "bytes"
    if name.endswith("ns_per_node"):
        return "ns"
    if name.endswith("tail_pct"):
        return "%"
    if name == "tracing_overhead":
        return "ratio"
    return "count"


# -- environment --------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "rbsde_lab_threads_set": "RBSDE_LAB_THREADS" in os.environ,
    }


# -- one workload ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    from bench_workloads import WORKLOADS  # imports rbsde_lab, so SRC must be on sys.path

    work = WORK / f"{os.getpid()}-{name}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        invocations = WORKLOADS[name](work, seed)
        setups = []
        for _ in range(SETUP_PROBES):
            probe_dir = work / "probe"
            probe_dir.mkdir(exist_ok=True)
            probe = spawn([], probe_dir, "-", env)
            if probe.exit_code != 0:
                raise RuntimeError(f"set-up probe exited with {probe.exit_code}")
            setups.append(probe.setup_s)
        plain, traced = [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            plain.append([run_call(inv, work, False, env) for inv in invocations])
            if trace:
                traced.append([run_call(inv, work, True, env) for inv in invocations])
            now = time.monotonic()
            # start another pass only if it should end within the run length
            if now - start + (now - began) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it

    calls = [c for p in plain + traced for c in p]
    failures = [f"{c.label}: {c.error}" for c in calls if c.error]
    setups += [c.setup_s for p in plain for c in p if math.isfinite(c.setup_s)]
    pass_walls = [sum(c.wall_s for c in p) for p in plain]
    end_to_end = {
        "wall_s": statistics.median(pass_walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in p) for p in plain),
        "failed_frac": len(failures) / len(calls),
    }
    samples = {"wall_s": len(pass_walls), "setup_s": len(setups), "peak_rss_mb": len(plain)}
    layers = {}
    if trace:
        layers = mean_layers([layer_metrics(p) for p in traced])
        traced_walls = [sum(c.wall_s for c in p) for p in traced]
        layers["tracing_overhead"] = statistics.median(
            t / u for t, u in zip(traced_walls, pass_walls)
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(calls),
        "failed": len(failures),
        "failures": failures,
        "end_to_end": end_to_end,
        "samples": samples,
        "pass_walls_s": pass_walls,
        "per_layer": layers,
    }


def describe(result: dict) -> list[str]:
    name = result["workload"]
    lines = []
    for metric, value in result["end_to_end"].items():
        n = result["samples"].get(metric)
        unit = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "fraction"}[metric]
        count = f"median of {n}" if n else f"{result['failed']}/{result['attempted']} calls"
        lines.append(f"{name:8s} {metric:12s} {value:14.6g} {unit:8s} ({count})")
    for metric, value in sorted(result["per_layer"].items()):
        lines.append(f"{name:8s} {metric:48s} {value:14.6g} {unit_of(metric)}")
    for failure in result["failures"][:5]:
        lines.append(f"{name:8s} FAILED {failure}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["recover", "price", "solve", "verify", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "rbsde_lab" / "cli.py").is_file():
        print(f"error: no rbsde_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    env = child_env()
    names = ["recover", "price", "solve", "verify"] if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), env) for n in names]

    record = {"environment": environment(), "results": results}
    RESULTS.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stamp}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for result in results:
        for line in describe(result):
            print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for result in results:
        values = result["per_layer"] if args.trace else result["end_to_end"]
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric in wanted:
            value = values.get(metric["name"], 0.0) if args.trace else values[metric["name"]]
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
