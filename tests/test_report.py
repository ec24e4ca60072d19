"""The report sink: status from witness, canonical order, exit code, summary.

A line's status is derived from its witness, so these tests pin the
stream bytes a few hand-built lines produce, the (suite, line) sort over
lines added out of order, the exit code, and the stderr summary with
the sweep's wall time, from the sink's creation to its emit.
"""

import io
import json

from duflo.report import ReportSink


def _emit(sink):
    out, err = io.StringIO(), io.StringIO()
    code = sink.emit(out, err)
    return code, out.getvalue().splitlines(), err.getvalue()


def test_status_is_derived_from_witness():
    sink = ReportSink()
    sink.add("s", {"k": 1})
    sink.add("s", {"k": 2}, {"why": [1, 2]})
    code, lines, _ = _emit(sink)
    assert lines == [
        '{"instance":{"k":1},"status":"pass","suite":"s","witness":null}',
        '{"instance":{"k":2},"status":"fail","suite":"s","witness":{"why":[1,2]}}',
    ]
    assert code == 1


def test_lines_sorted_by_suite_then_line():
    sink = ReportSink()
    sink.add("b-suite", {"i": 2})
    sink.add("a-suite", {"i": 9}, {"w": 0})
    sink.add("b-suite", {"i": 1})
    sink.add("a-suite", {"i": 3})
    _, lines, _ = _emit(sink)
    got = [(obj["suite"], obj["instance"]["i"]) for obj in map(json.loads, lines)]
    assert got == [("a-suite", 3), ("a-suite", 9), ("b-suite", 1), ("b-suite", 2)]


def test_exit_code():
    assert _emit(ReportSink())[0] == 0
    sink = ReportSink()
    sink.add("s", {"k": 1})
    sink.add("t", {"k": 1})
    assert _emit(sink)[0] == 0
    sink.add("s", {"k": 2}, {"w": 1})
    assert _emit(sink)[0] == 1


def test_summary_counts_and_seconds(monkeypatch):
    clock = iter([10.0, 11.5, 4.0, 4.0])
    monkeypatch.setattr("duflo.report.time.perf_counter", lambda: next(clock))
    sink = ReportSink()  # reads 10.0
    sink.add("s", {"k": 1})
    sink.add("s", {"k": 2}, {"w": 1})
    sink.add("s", {"k": 3})
    _, lines, err = _emit(sink)  # reads 11.5
    assert len(lines) == 3
    assert err == "3 reports: 2 pass, 1 fail (1.50s)\n"
    assert _emit(ReportSink())[2] == "0 reports: 0 pass, 0 fail (0.00s)\n"
