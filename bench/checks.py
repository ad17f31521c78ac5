"""Output checks on a worker's report; run untimed, in the parent process.

On every seed:
- the batch summary passes and the report holds the expected polytopes;
- every non-normal witness passes `verify_witness`;
- each relabeled polytope's invariants (counts, Ehrhart coefficients, d,
  codegree, autoregularity, verdicts, levels, n1 fibers) match those pinned
  in golden.json for the base polytope it was moved from.
On the seeds pinned in golden.json the report bytes must also match their
SHA-256. A failed check counts its polytope as failed; a digest mismatch
cannot be traced to one polytope, so it fails them all.

`python3 bench/pin.py` rewrites golden.json; do that only when a change to
the report is intended, and say why.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
REEVE_FIXTURES = 4  # run_verification appends T_2..T_5 whenever dim 3 is in the spec


def digest(report_text: str) -> str:
    """SHA-256 of the bytes `polynorm verify-corpus --format json` prints."""
    return hashlib.sha256((report_text + "\n").encode()).hexdigest()


def invariants(entry: dict) -> str:
    """Digest of the parts of a report entry that a lattice automorphism keeps."""
    a = entry["analysis"]
    c = entry["corollary"]
    n1 = entry["n1"]
    kept = {
        "kind": entry["kind"],
        "label": entry["label"],
        "dim": entry["dim"],
        "ehrhart_ok": entry["ehrhart_ok"],
        "analysis": {k: a[k] for k in (
            "n", "ehrhart", "d", "codegree", "corollary_bound", "classical_n0_bound",
            "autoregularity", "np_bounds", "checks")},
        "normality": {k: a["normality"][k] for k in ("cap_used", "levels_checked", "verdict")},
        "corollary": {
            "bound": c["corollary_bound"],
            "levels": [[lv["ell"], lv["verdict"]] for lv in c["levels"]],
            "passed": c["passed"],
        },
        "n1": None if n1 is None else {
            "verdict": n1["verdict"],
            "fibers": [[s["degree"], s["fibers"]] for s in n1["per_degree"]],
        },
    }
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    attempted: int
    failed_ids: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted if "*" in self.failed_ids else len(self.failed_ids)

    def fail(self, pid: str, problem: str) -> None:
        self.failed_ids.add(pid)
        self.problems.append(problem)


def check_report(report_text: str, spec: dict, base_ids: list, golden: dict,
                 seed: int) -> Outcome:
    """Check one report of a workload; `golden` is that workload's golden.json entry."""
    from polynorm.geometry import build_polytope
    from polynorm.normality import verify_witness

    report = json.loads(report_text)
    entries = report["polytopes"]
    expected = len(base_ids) + (REEVE_FIXTURES if 3 in spec["dims"] else 0)
    out = Outcome(attempted=max(len(entries), expected))
    if len(entries) != expected:
        out.fail("*", f"{len(entries)} polytopes in the report, expected {expected}")
    if report["spec"] != spec:
        out.fail("*", "the report's spec differs from the requested one")
    for pinned in golden.get("digests", []):
        if pinned["seed"] == seed and pinned["spec"] == spec \
                and digest(report_text) != pinned["sha256"]:
            out.fail("*", f"report SHA-256 {digest(report_text)} != pinned {pinned['sha256']}")

    summary = report["summary"]
    if not summary["all_passed"]:
        flagged = set(summary["reciprocity_failures"]) | set(summary["consistency_failures"])
        flagged |= set(summary["n1_disconnected"])
        flagged |= {v["polytope_id"] for v in summary["corollary_violations"]}
        out.failed_ids |= flagged or {"*"}
        out.problems.append(f"summary.all_passed is false for {sorted(flagged)}")

    pinned_invariants = golden.get("invariants", {})
    for index, entry in enumerate(entries):
        analysis = entry["analysis"]
        pid = analysis["polytope_id"]
        base_id = base_ids[index] if index < len(base_ids) else pid
        want = pinned_invariants.get(base_id)
        if want is not None and invariants(entry) != want:
            out.fail(pid, f"{pid}: invariants differ from those of base polytope {base_id}")
        P = build_polytope(analysis["vertices"])
        witnesses = [(P, analysis["normality"]["witness"])]
        witnesses += [(P.dilate(lv["ell"]), lv["witness"]) for lv in entry["corollary"]["levels"]]
        for Q, w in witnesses:
            if w is not None and not verify_witness(Q, w["level"], w["point"]):
                out.fail(pid, f"{pid}: witness {w} does not verify")
    return out
