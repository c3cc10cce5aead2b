"""`avtestbed serve` with the benchmark's span tracing.

    python3 perfbench/traced_server.py SPANS_OUT

Serves on an ephemeral port of 127.0.0.1 (printing the usual listening
line) with every layer wrapped as in the traced benchmark run; each
connection's spans carry its session number.  On SIGINT the server stops
and the spans are written to SPANS_OUT.
"""

from __future__ import annotations

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from avtestbed import cli, supervisor  # noqa: E402


def main(spans_out: str) -> int:
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    sessions = itertools.count(1)

    def numbered(handle):
        def _handle(self, conn):
            tracer.set_thread_op(next(sessions))
            return handle(self, conn)

        return _handle

    tracer.replace(supervisor.SupervisorServer, "_handle", numbered)
    try:
        return cli.main(["serve", "--port", "0"])
    finally:
        tracer.unpatch()
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
