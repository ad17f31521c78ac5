"""Run one benchmark workload on one seed and print its metrics.

    python3 bench/run.py --workload sweep4 --seed 271828 --seconds 20 --trace 0

Run from a checkout of the repository; polynorm is imported from its `src/`.
With `--trace 0` the run spawns SETUP_SAMPLES set-up-only workers and one
working worker, each a fresh process, and reports the end-to-end metrics.
With `--trace 1` it verifies a corpus half as big twice, untraced and then
traced, reports the per-layer metrics, and writes the spans to
`bench/out/trace-<workload>-<seed>.json`. Every run checks the report
(see checks.py) untimed. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a readable summary goes to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import RUN_SECONDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# set-up-only workers per timed run; the working worker adds one more sample
SETUP_SAMPLES = 6
# a run must end within 180 s; the workers share this much of it
RUN_BUDGET_S = 170.0


def declared_metrics() -> dict:
    """BENCHMARK.json, whose metric lists name the metrics to emit and their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class WorkerError(RuntimeError):
    pass


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    job = dict(job, t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode} on {job}")
    return json.loads(proc.stdout)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "polynorm").glob("*.py")))


def write_trace(args, spec: dict, traced: dict, metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "spec": spec,
            "src_lines": src_lines(),
            "missing": traced["missing"],
            "counter_errors": traced["counter_errors"],
            "metrics": metrics,
            "span_fields": ["id", "name", "parent", "polytope", "start", "end", "counts"],
            "spans": traced["spans"],
        }, fh)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=271828)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit, on which subprocess.run kills and reaps
    # the running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "polynorm" / "__init__.py").is_file():
        print(f"run.py: no polynorm package under {SRC}; run this from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import check_report, load_golden

    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seconds / 2 if args.trace else args.seconds)
    job = {"spec": spec, "seed": args.seed, "threads": workload.threads,
           "mode": "work", "trace": False}
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            plain = spawn(job, deadline)
            traced = spawn(dict(job, trace=True), deadline)
        else:
            setups = [spawn(dict(job, mode="setup"), deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            plain = spawn(job, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    outcome = check_report(plain["report"], spec, plain["base_ids"],
                           load_golden().get(args.workload, {}), args.seed)
    if args.trace and traced["report"] != plain["report"]:
        outcome.failed_ids.add("*")
        outcome.problems.append("the traced report differs from the untraced one")
    for problem in outcome.problems:
        print(f"run.py: check failed: {problem}", file=sys.stderr)

    if args.trace:
        from tracing import layer_metrics

        values = layer_metrics(traced["spans"], plain["work_s"], traced["work_s"])
        path = write_trace(args, spec, traced, values)
        for name in traced["missing"]:
            print(f"run.py: trace target {name} is missing; its metrics read 0",
                  file=sys.stderr)
        print(f"run.py: spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        values = {
            "polytopes_per_s": outcome.attempted / plain["work_s"],
            "setup_s": statistics.median(setups + [plain["setup_s"]]),
            "peak_rss_mb": plain["peak_rss_mb"],
            "success_rate": 1.0 - outcome.failed / outcome.attempted,
        }
    metrics = declared_metrics()["per_layer" if args.trace else "end_to_end"]

    print(f"{args.workload} seed={args.seed} polytopes={outcome.attempted} "
          f"failed={outcome.failed} error_rate={outcome.failed / outcome.attempted:.6g} frac "
          f"src_lines={src_lines()}", file=sys.stderr)
    for m in metrics:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']} ({m['better']} is better)",
              file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
