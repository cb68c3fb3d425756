"""One benchmark child: a fresh interpreter that calls ``tmperc.cli.main``.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``t0`` (the parent's ``time.monotonic()`` just before it
started this process), ``calls`` (one argv list per ``cli.main`` call) and
``trace`` (wrap the layers with :mod:`tracer`).  The child prints one JSON
object: set-up time, wall and CPU time of the calls, peak RSS, what each
call printed and, when traced, the per-layer table.  ``tmperc`` comes from ``PYTHONPATH``.
"""

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback


def _versions() -> dict:
    import numpy
    import scipy
    import tmperc

    return {
        "tmperc": tmperc.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        from tmperc import cli
    except ImportError as exc:
        print(json.dumps({"import_error": repr(exc)}))
        return 3
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    calls = []
    setup_s = time.monotonic() - spec["t0"]
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        for argv in spec["calls"]:
            captured = io.StringIO()
            error = None
            with contextlib.redirect_stdout(captured):
                try:
                    if tracer is None:
                        cli.main(argv)
                    else:
                        tracer.call("cli.main", cli.main, argv)
                except Exception:  # the parent counts the call's rows as failed
                    error = traceback.format_exc(limit=5)
            calls.append({"error": error, "stdout": captured.getvalue()})
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "versions": _versions(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
