"""Run one duflo command in this fresh interpreter, as a user would.

Usage: python3 perfbench/child.py <trace 0|1> <duflo argv...>

Times the import of duflo.cli (set-up) and the call to duflo.cli.main,
optionally under the span tracer, then writes the command's stdout stream
unchanged to stdout and one result line, prefixed with RESULT_TAG, to
stderr.  Exits with the command's exit code.  Only `os`, `sys` and `time`
are imported before duflo.cli, so the set-up time is the program's own.
"""

import os
import sys
import time

RESULT_TAG = "PERFBENCH-RESULT "
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import duflo.cli

    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import resource

    import tracer

    if not os.path.abspath(duflo.cli.__file__).startswith(SRC + os.sep):
        print(f"duflo imported from {duflo.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tr = None
    if trace:
        tr = tracer.Tracer()
        tr.install()
    buf = io.StringIO()
    raised = None
    t1 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = duflo.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # reported as a failed command, never hidden
        rc, raised = 3, repr(exc)
    wall_s = time.perf_counter() - t1
    sys.stdout.write(buf.getvalue())
    sys.stdout.flush()
    result = {
        "rc": rc,
        "raised": raised,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": getattr(sys.modules.get("duflo"), "BACKEND", "n/a"),
        "trace": tr.summary() if tr is not None else None,
    }
    sys.stderr.write(RESULT_TAG + json.dumps(result) + "\n")
    sys.stderr.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
