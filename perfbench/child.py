"""Run one `paradox` CLI operation as `python -m paradox.cli` would, and
record when `paradox.cli.main` is entered and left.

    python perfbench/child.py MARK_FILE [paradox arguments...]

MARK_FILE receives "<entered_ns> <left_ns>" on the monotonic clock, which the
parent compares with its own spawn time to get interpreter start plus import
time.  With PERFBENCH_TRACE=<file> in the environment the paradox modules are
traced (see tracer.py) and the trace of the operation named by PERFBENCH_OP
is written to that file.
"""

import os
import sys
import time

import paradox.cli


def main() -> int:
    mark, argv = sys.argv[1], sys.argv[2:]
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer.install()
    entered = time.monotonic_ns()
    try:
        return paradox.cli.main(argv)
    finally:
        left = time.monotonic_ns()
        with open(mark, "w", encoding="utf-8") as fh:
            fh.write(f"{entered} {left}\n")
        if tracer is not None:
            tracer.dump(trace_path, os.environ.get("PERFBENCH_OP", ""),
                        (left - entered) / 1e9)


if __name__ == "__main__":
    sys.exit(main())
