"""One fresh rbsde-lab CLI process, as the benchmark launches it.

usage: python3 bench_child.py READY_FILE TRACE_FILE [CLI ARGS...]

Imports ``rbsde_lab.cli``, writes ``time.monotonic()`` to READY_FILE (the
parent subtracts its own spawn time; CLOCK_MONOTONIC is system-wide on
Linux), then runs ``rbsde_lab.cli.main`` on the CLI arguments and exits with
its code.  With no CLI arguments it exits right after the import, which is
the set-up probe.  When TRACE_FILE is not ``-`` the layers are traced with
:class:`bench_trace.Tracer` and its report is written there as JSON.
"""

import sys
import time

import rbsde_lab.cli


def main(argv: list[str]) -> int:
    ready_path, trace_path, *cli_args = argv
    with open(ready_path, "w") as handle:
        handle.write(repr(time.monotonic()))
    if not cli_args:
        return 0
    if trace_path == "-":
        return rbsde_lab.cli.main(cli_args)

    import json

    from bench_trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = rbsde_lab.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(trace_path, "w") as handle:
        json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
