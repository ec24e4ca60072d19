"""Record the stdout sha256 of every benchmark command at the default seed.

Usage (from the repository root):

    python3 perfbench/record.py

Writes perfbench/reference.json, which run.py checks every pass against.
The report streams are meant to stay byte-identical across performance
work, so re-record only for a change that is meant to alter a stream, and
say so in that change.
"""

import json
import sys

from run import REFERENCE, Run
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    reference = {}
    for name, workload in WORKLOADS.items():
        run = Run(workload, DEFAULT_SEED, reference=None)
        reference[name] = {key: m["sha"] for key, m in run.run_pass(trace=False).items()}
        if run.failures:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        print(f"{name}: {run.attempted} commands recorded")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
