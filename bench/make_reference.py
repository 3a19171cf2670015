"""Record the reference headline values that the correctness gate checks.

Usage (from the repository root): python3 bench/make_reference.py

Runs one round of every workload, untraced, and writes the headline
values of each operation to bench/reference.json together with the
commit they came from.  Run it only on a commit whose numbers are
trusted; the gate then holds later commits to them.
"""

import json
import sys

import run
from gate import REFERENCE_PATH, headline
from workloads import WORKLOADS


def main() -> int:
    reference = {"commit": run.environment()["git_commit"]}
    for name, workload in sorted(WORKLOADS.items()):
        reference[name] = {}
        for op_id, argv in workload.round(0):
            rec = run.spawn(argv, workload.k_f, trace=False, setup_only=False)
            if rec["rc"] not in (0, 3):
                print(f"error: {name} {op_id} exited {rec['rc']}: {rec.get('error')}",
                      file=sys.stderr)
                return 1
            reference[name][op_id] = headline(argv[0], json.loads(rec["stdout"]))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
