"""The oracle server child of a traced run, with its layers traced.

    python3 perfbench/traced_server.py TRACE_PATH serve ARTIFACT [OPTIONS]

Wraps the server-side functions listed in ``layers.SERVER``, then runs
the same CLI as ``python -m repro.oracle``.  On SIGTERM it stops
serving and writes its spans to ``TRACE_PATH`` (see ``Tracer.dump``).
"""

from __future__ import annotations

import signal
import sys

import layers
from tracing import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    trace_path, *cli_args = argv
    tracer = Tracer()
    layers.instrument(tracer, layers.SERVER)
    signal.signal(signal.SIGTERM, _interrupt)
    from repro.oracle.cli import main as oracle_main

    try:
        return oracle_main(cli_args)
    except KeyboardInterrupt:
        return 0
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
