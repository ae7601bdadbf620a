"""Traced stand-in for ``python -m cyclemax.cli`` (or a demo script).

Usage: ``python clishim.py <cli arguments>`` or ``python clishim.py --demo
<script>``.  Records the same spans as an in-process traced run, plus the
import time of ``cyclemax.cli`` and the child's own start and exit times,
and writes them as JSON to the file named by ``PERFBENCH_TRACE_OUT``.
"""

import time

T_ENTER = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    import cyclemax.cli

    import_ms = 1000.0 * (time.perf_counter() - t0)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.request = 0
    argv = sys.argv[1:]
    code = 0
    with tracer.span("cli.main"):
        if argv[0] == "--demo":
            sys.argv = argv[1:]
            runpy.run_path(argv[1], run_name="__main__")
        else:
            code = cyclemax.cli.main(argv)
    tracer.request = None
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "import_ms": import_ms,
                   "t_enter": T_ENTER, "t_exit": time.monotonic()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
