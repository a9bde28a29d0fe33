"""Run one ``repro`` CLI command with every layer wrapped in spans.

Usage: ``python3 perfbench/traced_cli.py TRACE_DIR <repro CLI args...>``

Each process of the run (this one and every pool worker) writes its
spans to ``TRACE_DIR`` when it ends; see :mod:`tracer`.  The command's
own output and exit status pass through unchanged.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracer import ROOT, Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer(argv[0])
    missing = install(tracer)
    from repro.cli import main as cli_main

    status = 1
    try:
        status = tracer.wrap(ROOT, cli_main)(argv[1:])
    finally:
        tracer.write(missing=missing, status=status)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
