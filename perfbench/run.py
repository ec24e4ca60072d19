"""End-to-end and per-layer benchmark of the duflo verifier commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of perfbench/workloads.py, or `all` to run each in turn
(each prints its own summary and result line).

Workloads are defined in perfbench/workloads.py.  A pass runs the
workload's commands one after another, each in a fresh interpreter
(perfbench/child.py) so every import and cache starts cold, as it does for
a user.  The load is a closed loop from this one process: one child at a
time, no threads.  Passes repeat the same commands until the next pass
would end after --seconds (at least MIN_PASSES).

Every command is checked: exit code 0, every stream line "status":"pass",
the same stdout in every pass, and, where the inputs are those of the
default seed, the stdout sha256 recorded in perfbench/reference.json.  A
command failing any check counts in `failed`; the run then prints
"correct": false and exits 1.

--trace 0 reports the end-to-end metrics:
  wall_s        seconds a pass spends inside duflo.cli.main, summed over
                its commands, each command at its best pass: the time a
                user waits for the verdicts
  reports_per_s stream lines verified per second of wall_s
  setup_s       seconds to import duflo.cli in a fresh interpreter
                (median over every process of the run)
  cpu_s         user + sys CPU seconds of the pass's processes, each
                command at its best pass
  peak_rss_mb   largest max RSS of any process of a pass (median over passes)
Each command's best pass is taken, not the median, because on a shared host
other tenants slow whole seconds of a run by 2x or more.  They also slow
whole minutes by 1.2-1.8x, longer than a run, so every time above is
multiplied by the run's host speed: REFERENCE_PROBE_S over the 10th
percentile of a duflo-free probe (an exact rational matrix inverse) timed
before every command.  A slower program reads slower by the same factor; a
slower host mostly cancels.  The raw per-pass median, quartiles, minimum
and sample count are printed beside each value, with the probe's spread,
the host speed and failed_frac (failed / attempted commands).

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/tracer.py: times are medians over traced passes, not
scaled by host speed; counts must repeat exactly across them; and
trace.overhead is traced over untraced wall_s.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable summary with the
drift diagnostics (host-speed probe, Python, git sha, backend, nproc, load).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracer
from child import RESULT_TAG
from workloads import DEFAULT_SEED, WORKLOADS, rational_inverse

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKDIR = os.path.join(HERE, ".work")

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
STOP_STARTING_AFTER_S = 100  # a run ends well within 180 s, however slow the host
CHILD_TIMEOUT_S = 60

END_TO_END = (
    ("wall_s", "s"),
    ("reports_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def run_command(cmd, trace):
    """Run one command in a fresh interpreter; returns what the checks need."""
    env = dict(os.environ)
    env.update(cmd.env)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, CHILD, "1" if trace else "0", *cmd.argv],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = None
    for line in proc.stderr.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
    return {
        "returncode": proc.returncode,
        "stream": proc.stdout,
        "stderr": proc.stderr,
        "result": result,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
    }


def digest(stream):
    return hashlib.sha256(stream.encode()).hexdigest()


def check(cmd, run, expected):
    """Return None if the command's output is correct, else the reason."""
    if run["result"] is None:
        tail = run["stderr"].strip().splitlines()[-1:] or ["no output"]
        return f"exit {run['returncode']} without a result: {tail[0]}"
    if run["result"]["raised"]:
        return f"raised {run['result']['raised']}"
    if run["returncode"] != 0:
        return f"exit {run['returncode']}"
    lines = run["stream"].splitlines()
    if not lines:
        return "empty stdout"
    if cmd.reports:
        for n, line in enumerate(lines, 1):
            try:
                status = json.loads(line).get("status")
            except (ValueError, AttributeError):
                return f"line {n} is not a JSON report"
            if status != "pass":
                return f"line {n} has status {status!r}"
    if expected is not None and digest(run["stream"]) != expected:
        return f"stdout sha256 {digest(run['stream'])[:16]} differs from the reference {expected[:16]}"
    return None


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class Run:
    """All passes of one workload at one seed, with their checks."""

    def __init__(self, workload, seed, reference, small=False):
        self.workload = workload
        self.seed = seed
        self.reference = reference  # {workload: {command key: sha256}}, None to record
        os.makedirs(WORKDIR, exist_ok=True)
        self.commands = workload.commands(seed, WORKDIR, small)
        self.seen = {}  # command key -> stdout sha256 of its first pass
        self.probes = []  # host_probe_s() before every command
        self.attempted = 0
        self.failures = []
        self.backend = "n/a"

    def expected(self, cmd):
        """The recorded digest where the command's inputs are the default seed's."""
        if self.reference is None or (cmd.seeded and self.seed != DEFAULT_SEED):
            return None
        return self.reference.get(self.workload.name, {}).get(cmd.key, "missing")

    def run_pass(self, trace):
        """Run every command once; returns {command key: its measurements}."""
        out = {}
        for cmd in self.commands:
            self.attempted += 1
            self.probes.append(host_probe_s())
            try:
                run = run_command(cmd, trace)
            except subprocess.TimeoutExpired:
                self.failures.append(f"{cmd.key}: timed out after {CHILD_TIMEOUT_S} s")
                continue
            problem = check(cmd, run, self.expected(cmd))
            sha = digest(run["stream"])
            if problem is None and self.seen.setdefault(cmd.key, sha) != sha:
                problem = "stdout differs from an earlier pass of the same command"
            if problem is not None:
                self.failures.append(f"{cmd.key}: {problem}")
                continue
            res = run["result"]
            self.backend = res["backend"]
            out[cmd.key] = {
                "wall_s": res["wall_s"],
                "cpu_s": run["cpu_s"],
                "setup_s": res["setup_s"],
                "rss_mb": res["maxrss_kb"] / 1024,
                "lines": len(run["stream"].splitlines()),
                "sha": sha,
                "trace": res["trace"],
            }
        return out

    @property
    def failed(self):
        return len(self.failures)


def measure(run, seconds, trace):
    """Repeat passes until the next one would end after `seconds`.

    With trace, untraced and traced passes alternate.
    """
    passes, traced, durations = [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        if trace and len(traced) < len(passes):
            traced.append(run.run_pass(trace=True))
        else:
            passes.append(run.run_pass(trace=False))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        need = MIN_TRACED_PASSES if trace else MIN_PASSES
        enough = len(passes) >= need and (not trace or len(traced) >= need)
        if enough and (elapsed + max(durations[-2:]) > seconds or elapsed > STOP_STARTING_AFTER_S):
            return passes, traced


def best_sum(passes, field):
    """Sum over commands of each command's best (lowest) value over passes."""
    best = {}
    for p in passes:
        for key, m in p.items():
            best[key] = min(best.get(key, m[field]), m[field])
    return sum(best.values())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def host_speed(probes):
    """REFERENCE_PROBE_S over the probe's 10th percentile in this run."""
    low = statistics.quantiles(probes, n=10)[0] if len(probes) > 1 else probes[0]
    return REFERENCE_PROBE_S / low


def end_to_end(passes, speed):
    """The end-to-end metrics of a run, and the raw samples behind each.

    Times are scaled by the run's host speed (see host_speed).
    """
    complete = [p for p in passes if p]
    samples = {
        "wall_s": [sum(m["wall_s"] for m in p.values()) for p in complete],
        "reports_per_s": [sum(m["lines"] for m in p.values()) / sum(m["wall_s"] for m in p.values())
                          for p in complete],
        "setup_s": [m["setup_s"] for p in complete for m in p.values()],
        "cpu_s": [sum(m["cpu_s"] for m in p.values()) for p in complete],
        "peak_rss_mb": [max(m["rss_mb"] for m in p.values()) for p in complete],
    }
    if not complete:
        return {}, samples
    wall = best_sum(complete, "wall_s")
    lines = sum(m["lines"] for m in complete[0].values())
    values = {
        "wall_s": wall * speed,
        "reports_per_s": lines / (wall * speed),
        "setup_s": statistics.median(samples["setup_s"]) * speed,
        "cpu_s": best_sum(complete, "cpu_s") * speed,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    return values, samples


def per_layer(run, passes, traced):
    """Per-layer metrics from the traced passes; counts must repeat exactly."""
    rows = [tracer.layer_metrics(tracer.merge(m["trace"] for m in p.values())) for p in traced if p]
    if not rows or not any(passes):
        return {}, []
    out = {}
    for name, _, _, _ in tracer.PER_LAYER:
        if name == "trace.overhead":
            out[name] = best_sum(traced, "wall_s") / best_sum(passes, "wall_s")
        elif tracer.is_count(name):
            values = {r[name] for r in rows}
            if len(values) > 1:
                run.failures.append(f"count {name} differs between traced passes: {sorted(values)}")
            out[name] = rows[0][name]
        else:
            out[name] = statistics.median(r[name] for r in rows)
    missing = set().union(*(m["trace"]["missing"] for p in traced for m in p.values()))
    return out, sorted(missing)


PROBE_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + 2 * j) % 4 + 1) + 3 * (i == j)
                 for j in range(12)] for i in range(12)]
REFERENCE_PROBE_S = 0.010  # the probe's 10th percentile on a quiet host


def host_probe_s():
    """Seconds for one exact inverse of a fixed 12x12 rational matrix.

    The probe uses no duflo code, so a change to the program cannot move it;
    only the host's speed does.
    """
    t0 = time.perf_counter()
    rational_inverse(PROBE_MATRIX)
    return time.perf_counter() - t0


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "n/a"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "n/a"


def run_workload(workload, seed, seconds, trace):
    """Measure one workload, print its summary and result line; True if correct."""
    run = Run(workload, seed, load_reference())
    passes, traced = measure(run, seconds, trace)
    speed = host_speed(run.probes)

    print(f"workload {workload.name}: {workload.why}")
    seeded = sum(cmd.seeded for cmd in run.commands)
    print(f"seed {seed} (drives {seeded} of {len(run.commands)} commands per pass; "
          f"the others have fixed inputs); "
          f"{len(passes)} untraced, {len(traced)} traced passes")
    q1, med, q3 = quartiles([1e3 * p for p in run.probes])
    print(f"drift: host probe median {med:.3f} ms (q1 {q1:.3f}, q3 {q3:.3f}, "
          f"n={len(run.probes)}), host speed {speed:.4f}; python {platform.python_version()}; "
          f"git {git_sha()}; backend {run.backend}; nproc {os.cpu_count()}; "
          f"load {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    metrics = {}
    if not trace:
        values, samples = end_to_end(passes, speed)
        print("  metric         value   raw per-pass samples (not scaled by host speed)")
        for name, unit in END_TO_END:
            if name not in values:
                continue
            metrics[name] = {"value": values[name], "unit": unit}
            q1, med, q3 = quartiles(samples[name])
            print(f"  {name:<14} {values[name]:.6g} {unit}   median {med:.6g}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  min {min(samples[name]):.6g}  n={len(samples[name])}")
    else:
        layer, missing = per_layer(run, passes, traced)
        rows = {name: (unit, moves) for name, unit, _, moves in tracer.PER_LAYER}
        for name, value in layer.items():
            unit, moves = rows[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<40} {value:<12.6g} {unit:<6} should move {moves}")
        if missing:
            print(f"  not traced (absent from duflo): {', '.join(missing)}")
    print(f"  failed_frac    {run.failed / max(run.attempted, 1):.6g}  "
          f"({run.failed} of {run.attempted} commands)")
    for problem in run.failures:
        print(f"  FAILED {problem}")
    correct = run.failed == 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "duflo", "cli.py")):
        print(f"error: no duflo sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
