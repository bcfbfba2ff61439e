"""Write golden.json: the pinned exact output of every check in every pool.

    python3 bench/pin_golden.py

Run it only when a pool changes, never to absorb a changed answer.  Each check
is run under two seeds: the pinned text must not depend on the seed (outputs
are normalised by the seeded coefficients), and the check's own suite must
pass.
"""
from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        ctx = workloads.setup(workload)
        pins = golden[workload] = {}
        for check in workloads.pool(ctx, workload):
            digests = set()
            for seed in ("pin-a", "pin-b"):
                run, output = check.prepare(ctx, random.Random(seed))
                ok, text = output(run())
                if not ok:
                    raise SystemExit(f"{workload} {check.id}: suite failed")
                digests.add(workloads.digest(text))
            if len(digests) != 1:
                raise SystemExit(f"{workload} {check.id}: output depends on the seed")
            pins[check.id] = digests.pop()
            print(workload, check.id, pins[check.id], flush=True)
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
