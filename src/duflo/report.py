"""Machine-readable verification reports.

One JSON object per line on stdout, one human summary on stderr.  The
stream is canonical: fixed key order, fixed separators, reports sorted by
(suite, instance), and no volatile fields (timing lives only in the
summary), so identical inputs produce byte-identical streams.
"""

import json
import sys
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    suite: str
    instance: dict
    status: str  # pass | fail | skipped
    witness: dict | None = None
    seconds: float = 0.0

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skipped"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise ValueError("fail reports must carry a witness")

    def stream_obj(self) -> dict:
        return {
            "suite": self.suite,
            "instance": self.instance,
            "status": self.status,
            "witness": self.witness,
        }

    def line(self) -> str:
        return json.dumps(self.stream_obj(), sort_keys=True, separators=(",", ":"))


@dataclass
class ReportSink:
    reports: list[VerificationReport] = field(default_factory=list)

    def add(self, suite, instance, status, witness=None, seconds=0.0):
        self.reports.append(
            VerificationReport(suite, instance, status, witness, seconds)
        )

    def emit(self, out=None, err=None) -> int:
        """Print the canonical stream and summary; return the exit code."""
        out = out or sys.stdout
        err = err or sys.stderr
        reports = self.reports
        for _, line in sorted((r.suite, r.line()) for r in reports):
            out.write(line + "\n")
        n_fail = sum(1 for r in reports if r.status == "fail")
        n_pass = sum(1 for r in reports if r.status == "pass")
        n_skip = len(reports) - n_fail - n_pass
        total = sum(r.seconds for r in reports)
        err.write(
            f"{len(reports)} reports: {n_pass} pass, {n_fail} fail, "
            f"{n_skip} skipped ({total:.2f}s)\n"
        )
        return 0 if n_fail == 0 else 1
