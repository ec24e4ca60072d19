"""Machine-readable verification reports.

One JSON object per line on stdout, one human summary on stderr.  A
line's status is derived from its witness: "fail" exactly when a witness
is given, "pass" otherwise, so no failure can be reported without the
data that reproduces it.  The stream is canonical: fixed key order, fixed
separators, lines sorted by (suite, line), and no volatile fields (timing
lives only in the summary), so identical inputs produce byte-identical
streams.
"""

import json
import sys
import time


class ReportSink:
    def __init__(self):
        self.reports = []  # (suite, instance, witness, seconds), in the order added

    def add(self, suite, instance, witness=None, since=None):
        """Record one check; since is the time.perf_counter() reading taken before it."""
        seconds = 0.0 if since is None else time.perf_counter() - since
        self.reports.append((suite, instance, witness, seconds))

    def emit(self, out=None, err=None) -> int:
        """Print the canonical stream and summary; return the exit code."""
        out = out or sys.stdout
        err = err or sys.stderr
        lines = []
        for suite, instance, witness, _ in self.reports:
            obj = {
                "suite": suite,
                "instance": instance,
                "status": "pass" if witness is None else "fail",
                "witness": witness,
            }
            lines.append((suite, json.dumps(obj, sort_keys=True, separators=(",", ":"))))
        for _, line in sorted(lines):
            out.write(line + "\n")
        n_fail = sum(1 for r in self.reports if r[2] is not None)
        total = sum(r[3] for r in self.reports)
        err.write(
            f"{len(self.reports)} reports: {len(self.reports) - n_fail} pass, "
            f"{n_fail} fail ({total:.2f}s)\n"
        )
        return 1 if n_fail else 0
