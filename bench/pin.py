"""Rewrite golden.json, the pins that checks.py compares every run against.

    python3 bench/pin.py

For each workload it verifies the base corpus, unrelabeled, at the run length
and at half of it (the traced run's size) and pins the invariant digest of
every polytope. It then runs the worker at the run length on the default seed
and on one held-out seed and pins the report's SHA-256. Takes about five
minutes. Run it only when a change to the report is intended, and say why.
"""

from __future__ import annotations

import json
import sys
import time

from checks import GOLDEN_PATH, digest, invariants
from run import RUN_BUDGET_S, SRC, spawn
from workloads import BASE_SEED, RUN_SECONDS, WORKLOADS

HELD_OUT_SEED = 4242
PINNED_SEEDS = (BASE_SEED, HELD_OUT_SEED)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from polynorm.harness import CorpusSpec, run_verification

    golden = {}
    for name, workload in WORKLOADS.items():
        pins = {}
        for seconds in (RUN_SECONDS, RUN_SECONDS / 2):
            spec = CorpusSpec.from_jsonable(workload.spec(seconds))
            for entry in run_verification(spec)["polytopes"]:
                pins[entry["analysis"]["polytope_id"]] = invariants(entry)
        digests = []
        for seed in PINNED_SEEDS:
            spec = workload.spec(RUN_SECONDS)
            job = {"spec": spec, "seed": seed, "threads": workload.threads,
                   "mode": "work", "trace": False}
            out = spawn(job, time.monotonic() + RUN_BUDGET_S)
            digests.append({"seed": seed, "spec": spec, "sha256": digest(out["report"])})
        golden[name] = {"digests": digests, "invariants": dict(sorted(pins.items()))}
        print(f"pinned {name}: {len(pins)} polytopes, seeds {PINNED_SEEDS}", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
