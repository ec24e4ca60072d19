"""The benchmark's span tracer still resolves every function it traces.

perfbench/tracer.py wraps duflo functions by module and name; a function
that is renamed or moved reads as a per-layer metric of 0 there, not as an
error.  This test fails instead.  It runs in a fresh interpreter because
Tracer.install rebinds the functions for the rest of the process.

LEFT names, in SPANS order, the nine traced functions that left the
package on purpose: the d! oracle and its linear algebra, which no
command runs, now in tests/pbw_oracle.py or deleted.  The tracer records
each in tracer.missing and carries on.  Any other missing name fails the
test, and so does one of the nine coming back.  The benchmark's own
upkeep drops them from SPANS (ROADMAP item 1), and LEFT becomes empty.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import duflo.cli
import tracer
tr = tracer.Tracer()
tr.install()
with contextlib.redirect_stdout(io.StringIO()):
    duflo.cli.main(["series", "todd", "--weight", "3"])
    duflo.cli.main(["verify-hodge", "--dim", "2", "--seed", "0", "--cases", "1"])
    duflo.cli.main(["verify-lie", "--algebra", "sl2", "--max-degree", "2"])
summary = tr.summary()
print(json.dumps({"missing": tr.missing,
                  "calls": {k: v[0] for k, v in summary["spans"].items()}}))
"""

LEFT = [
    "duflo.linalg.mat_mul",
    "duflo.linalg.kernel",
    "duflo.kernels.matmul_pairs",
    "duflo.pbw.symmetrize",
    "duflo.pbw.theta",
    "duflo.pbw.phi",
    "duflo.hodge.mukai_line",
    "duflo.hodge.contract_exp_atiyah",
    "duflo.hodge.duflo_inverse",
]


def test_tracer_finds_every_span():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["missing"] == LEFT
    # products reached through the shared graded recursions are still traced
    for span in ("series.mul", "hodge.wedge", "hodge.exp_form", "hodge.contract"):
        assert got["calls"].get(span, 0) > 0, span
    # the verify-lie spans are reached on their own names
    for span in (
        "catalog.representations",
        "pbw.adjunction_check",
        "pbw.check_pbw_diagram",
        "pbw.invariants_s",
    ):
        assert got["calls"].get(span, 0) > 0, span
    # every kernel of basis images, on both sides, is eliminated here
    assert got["calls"].get("kernels.rref_int", 0) > 0
