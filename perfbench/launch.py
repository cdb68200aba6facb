"""Run one ``gaussl1`` command line the way the installed console script does.

    python3 perfbench/launch.py [--trace-out FILE] -- <gaussl1 arguments>

Without ``--trace-out`` this is ``from gaussl1.cli import main;
sys.exit(main())``.  With it, the import of ``gaussl1.cli`` is recorded as
the ``cli.import`` span, the tracer is installed in the fresh process before
``main`` runs, and the spans and counters are written to FILE as JSON.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: launch.py [--trace-out FILE] -- ARGS...", file=sys.stderr)
        return 2
    argv = argv[1:]
    start = time.perf_counter()
    import gaussl1.cli

    if trace_out is None:
        return gaussl1.cli.main(argv)

    from tracer import Tracer

    tracer = Tracer()
    tracer.record("cli.import", time.perf_counter() - start)
    tracer.install()
    tracer.active = True
    try:
        return gaussl1.cli.main(argv)
    finally:
        tracer.active = False
        tracer.remove()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
