"""One fresh benchmark process: set up a corpus, then optionally verify it.

Run by `run.py` as `python3 bench/worker.py JOB`, where JOB is a JSON object
with `spec` (the base corpus spec), `seed` (for `workloads.relabel`),
`threads`, `mode` ("setup" or "work"), `trace` and `t0`, the parent's
`time.monotonic()` just before it spawned this process. CLOCK_MONOTONIC is
system-wide on Linux, so `setup_s` spans the spawn, interpreter start,
`import polynorm`, corpus generation, relabeling and hull building. Writes
one JSON object to stdout.

Each worker is a new process because `scaled_count` keeps a process-global
cache: repeating a corpus in one process runs 3.2x faster than a CLI user's
cold call ever does.
"""

import json
import resource
import sys
import time

from workloads import relabel


def main() -> int:
    job = json.loads(sys.argv[1])
    recorder = None
    if job["trace"]:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    from polynorm import harness

    spec = harness.CorpusSpec.from_jsonable(job["spec"])
    base = harness.generate_corpus(spec)
    corpus = [harness.build_polytope(vs)
              for vs in relabel([P.vertices for P in base], job["seed"])]
    setup_s = time.monotonic() - job["t0"]
    out = {"setup_s": setup_s, "base_ids": [P.polytope_id for P in base]}
    if job["mode"] == "work":
        make_corpus = harness.generate_corpus
        # run_verification regenerates its corpus from the spec; hand it the
        # relabeled one instead, which also keeps hull building in setup_s
        harness.generate_corpus = lambda s: list(corpus) if s == spec else make_corpus(s)
        start = time.perf_counter()
        report = harness.run_verification(spec, threads=job["threads"])
        out["work_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the canonical bytes, as `polynorm verify-corpus --format json` prints them
        out["report"] = json.dumps(report, indent=2, sort_keys=True)
    if recorder is not None:
        out["spans"] = recorder.spans
        out["missing"] = recorder.missing
        out["counter_errors"] = sorted(recorder.counter_errors)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
