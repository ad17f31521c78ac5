"""Self-test of the benchmark at tiny sizes: `python3 bench/selftest.py`.

Checks that
- BENCHMARK.json names the workloads of workloads.py and its run length,
  and gives every metric a direction;
- every workload, traced and untraced, emits exactly those metrics, each a
  finite number with its unit, and passes its output checks;
- a pinned digest or invariant that does not match fails the output check;
- mixed-t2's report at 2 threads has the same bytes as at 1 thread;
- a trace target that no longer exists is reported missing, and the run
  still produces every per-layer metric.
Prints one line per failed check and exits 1 if there is any.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_report, digest, invariants  # noqa: E402
from run import declared_metrics  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

TINY_SECONDS = "1"
failures: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL: {message}")


def canonical(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def test_declared_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in declared["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    check(declared["run_seconds"] == RUN_SECONDS,
          "BENCHMARK.json run_seconds differs from workloads.RUN_SECONDS")
    for m in declared["end_to_end"] + declared["per_layer"]:
        check(m.get("better") in ("higher", "lower"), f"{m['name']} has no direction")


def test_runs_emit_every_metric() -> None:
    declared = declared_metrics()
    for name in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            table = {m["name"]: m["unit"] for m in declared[key]}
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", TINY_SECONDS, "--trace", trace],
                capture_output=True, text=True, cwd=ROOT, timeout=170,
            )
            where = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where} result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where} failed its output checks")
            check(set(result["metrics"]) == set(table), f"{where} metric names differ")
            for metric, unit in table.items():
                got = result["metrics"].get(metric, {})
                check(got.get("unit") == unit, f"{where} {metric} unit {got.get('unit')}")
                value = got.get("value")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{where} {metric} value {value!r}")


def test_digest_and_threads() -> None:
    from polynorm.harness import CorpusSpec, run_verification

    spec = WORKLOADS["mixed-t2"].spec(seconds=1)
    corpus_spec = CorpusSpec.from_jsonable(spec)
    one = canonical(run_verification(corpus_spec, threads=1))
    two = canonical(run_verification(corpus_spec, threads=2))
    check(one == two, "mixed-t2 report bytes differ between 1 and 2 threads")

    entries = json.loads(two)["polytopes"]
    base_ids = [e["analysis"]["polytope_id"] for e in entries if e["kind"] == "corpus"]
    sha = digest(two)
    golden = {
        "digests": [{"seed": 3, "spec": spec, "sha256": sha}],
        "invariants": {e["analysis"]["polytope_id"]: invariants(e) for e in entries},
    }
    good = check_report(two, spec, base_ids, golden, seed=3)
    check(good.failed == 0, f"a report matching its pins failed the check: {good.problems}")
    corrupted = ("0" if sha[0] != "0" else "1") + sha[1:]
    golden["digests"][0]["sha256"] = corrupted
    bad = check_report(two, spec, base_ids, golden, seed=3)
    check(bad.failed == bad.attempted > 0, "a corrupted golden digest passed the check")
    golden["digests"] = []
    first = base_ids[0]
    golden["invariants"][first] = "0" * 16
    bad = check_report(two, spec, base_ids, golden, seed=3)
    check(bad.failed_ids == {first}, "a corrupted invariant pin passed the check")


def test_missing_trace_target() -> None:
    from tracing import TARGETS, Recorder, layer_metrics

    recorder = Recorder(targets=TARGETS + (
        ("harness", "no_such_function", "harness.gone", None),
        ("no_such_module", "analyze", "harness.gone", None),
    ))
    recorder.install()
    from polynorm import harness

    harness.analyze(harness.reeve_simplex(2))
    check(recorder.missing == ["harness.no_such_function", "no_such_module.analyze"],
          f"missing targets reported as {recorder.missing}")
    check(any(s[1] == "harness.analyze" for s in recorder.spans),
          "the traced analyze call recorded no span")
    metrics = layer_metrics(recorder.spans, 1.0, 1.0)
    declared = {m["name"] for m in declared_metrics()["per_layer"]}
    check(set(metrics) == declared, "layer_metrics names differ from BENCHMARK.json")
    check(metrics["cohomology.autoreg.calls"] >= 1,
          "a call made inside cohomology itself was not traced")


def main() -> int:
    test_declared_metrics()
    test_digest_and_threads()
    test_runs_emit_every_metric()
    test_missing_trace_target()  # last: it rewires the polynorm modules of this process
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
