"""Self-test of the benchmark itself, at the smallest size of each workload.

Usage (from the repository root):

    python3 perfbench/selftest.py

Checks that tracing leaves every stdout stream byte-identical, that the
traced runs find every function they are meant to wrap and emit every
per-layer metric BENCHMARK.json names, each nonzero on some workload, that
BENCHMARK.json agrees with the metric tables here, and that planted corrupt
streams are counted as failures.
"""

import json
import os
import sys

import run as bench
import tracer
from workloads import DEFAULT_SEED, WORKLOADS


def require(ok, message):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def planted(corrupt, changed):
    """Make run_command return corrupt(stream); append each changed key."""
    real = bench.run_command

    def run_command(cmd, trace):
        out = real(cmd, trace)
        bad = corrupt(out["stream"])
        if bad != out["stream"]:
            changed.append(cmd.key)
        out["stream"] = bad
        return out

    return run_command


def flip_status(stream):
    return stream.replace('"status":"pass"', '"status":"fail"', 1)


def flip_byte(stream):
    return stream[:-2] + ("0" if stream[-2] != "0" else "1") + stream[-1:]


def check_benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    require([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
            "BENCHMARK.json workloads differ from perfbench/workloads.py")
    require([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END),
            "BENCHMARK.json end_to_end differs from run.END_TO_END")
    require([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [row[:3] for row in tracer.PER_LAYER],
            "BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    return [m["name"] for m in spec["per_layer"]]


def main():
    wanted = check_benchmark_json()
    emitted = set()
    for name, workload in WORKLOADS.items():
        record = bench.Run(workload, DEFAULT_SEED, reference=None, small=True)
        plain = record.run_pass(trace=False)
        require(not record.failures, f"{name}: {record.failures}")
        reference = {name: {key: m["sha"] for key, m in plain.items()}}

        traced_run = bench.Run(workload, DEFAULT_SEED, reference, small=True)
        traced = traced_run.run_pass(trace=True)
        require(not traced_run.failures, f"{name}: tracing changed the stream: {traced_run.failures}")
        metrics, missing = bench.per_layer(traced_run, [plain], [traced])
        require(not missing, f"{name}: functions not found for tracing: {missing}")
        emitted.update(name for name, value in metrics.items() if value)

        planted_count = 0
        for corrupt in (flip_byte, flip_status):
            bad = bench.Run(workload, DEFAULT_SEED, reference, small=True)
            changed = []
            real = bench.run_command
            bench.run_command = planted(corrupt, changed)
            try:
                bad.run_pass(trace=False)
            finally:
                bench.run_command = real
            require(bad.failed == len(changed),
                    f"{name}: planted {corrupt.__name__} in {len(changed)} streams, "
                    f"counted {bad.failed} of {bad.attempted}")
            planted_count += len(changed)
        print(f"{name}: trace keeps the stream; {planted_count} planted corrupt streams counted")
    absent = sorted(set(wanted) - emitted)
    require(not absent, f"per-layer metrics zero on every workload: {absent}")
    print(f"all {len(wanted)} per-layer metrics emitted, each nonzero on some workload; selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
