"""Machine-readable verification reports.

One JSON object per line on stdout, one human summary on stderr.  A
line's status is derived from its witness: "fail" exactly when a witness
is given, "pass" otherwise, so no failure can be reported without the
data that reproduces it.  The stream is canonical (see canonical): fixed
key order, fixed separators, lines sorted by (suite, line), and no
volatile fields, so identical inputs produce byte-identical streams.
The only timing is the summary's wall time of the sweep, from the
sink's creation to its emit.
"""

import json
import sys
import time


# The one JSON spelling of an object: sorted keys, no spaces, by one shared encoder.
canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class ReportSink:
    def __init__(self):
        self.start = time.perf_counter()
        self.reports = []  # (suite, instance, witness), in the order added

    def add(self, suite, instance, witness=None):
        self.reports.append((suite, instance, witness))

    def emit(self, out=None, err=None) -> int:
        """Print the canonical stream and summary; return the exit code."""
        out = out or sys.stdout
        err = err or sys.stderr
        lines = []
        for suite, instance, witness in self.reports:
            obj = {
                "suite": suite,
                "instance": instance,
                "status": "pass" if witness is None else "fail",
                "witness": witness,
            }
            lines.append((suite, canonical(obj)))
        for _, line in sorted(lines):
            out.write(line + "\n")
        n_fail = sum(1 for r in self.reports if r[2] is not None)
        err.write(
            f"{len(self.reports)} reports: {len(self.reports) - n_fail} pass, "
            f"{n_fail} fail ({time.perf_counter() - self.start:.2f}s)\n"
        )
        return 1 if n_fail else 0
