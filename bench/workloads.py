"""The benchmark's workloads: which corpus each one runs and how big it is.

Every workload is a closed-loop batch job: one worker process calls
`run_verification` once over its whole corpus. The corpus is the base corpus,
`generate_corpus` on the default spec's seed at a size set by the run length,
with every polytope translated by a vector drawn from the benchmark's seed
(see `relabel`).

Why not a corpus drawn from the seed itself: on dim 4 one polytope's time has
a coefficient of variation of about 1.4, so a corpus that fits in a run moved
polytopes/s by 40% (quartile spread over 5 seeds) between seeds, above any
usable regression bound. Signed coordinate permutations were tried as well:
they change lex order, and with it n1_probe's clique counts, which moved
probe3 by about 10% between seeds and, with the machine's drift, left its
spread at 0.22 of the 0.25 bound.

The per-dimension count is a fixed rate times the run length. The rates were
measured once at the commit that introduced the benchmark (2-core sandbox,
Python 3.11.7, numpy 2.4.6) and are never re-derived from the machine, so a
faster program finishes the same corpus sooner instead of being handed a
bigger one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BASE_SEED = 271828  # the default corpus spec's seed
RUN_SECONDS = 20  # BENCHMARK.json's run_seconds; golden.json is pinned at this length
COORD_BOUND = 4
VERTEX_CANDIDATES = 6
SHIFT = 8


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]
    threads: int
    # polytopes per second of work at the defining commit, all dims together
    rate: float

    def count_per_dim(self, seconds: float) -> int:
        return max(1, round(self.rate * seconds / len(self.dims)))

    def spec(self, seconds: float) -> dict:
        """The base corpus spec, in the JSON shape `CorpusSpec.from_jsonable` reads."""
        return {
            "seed": BASE_SEED,
            "dims": list(self.dims),
            "coord_bound": COORD_BOUND,
            "count_per_dim": self.count_per_dim(seconds),
            "vertex_candidates": VERTEX_CANDIDATES,
        }


WORKLOADS = {
    w.name: w
    for w in (
        # the level-m normality checker does ~98% of the work, syzygy none
        Workload("sweep4", (4,), 1, 1.74),
        # n1_probe does ~94% of the work, the normality sweep ~4%
        Workload("probe3", (3,), 1, 4.78),
        # the default spec's dim mix; the only workload on the thread pool
        Workload("mixed-t2", (2, 3, 4), 2, 4.1),
    )
}


def relabel(vertex_lists, seed: int) -> list[list[tuple[int, ...]]]:
    """Translate each vertex list by a seeded vector in [-SHIFT, SHIFT]^n.

    A lattice translation keeps every invariant the report holds, and also
    the work: boxes, slabs, lex order and the level checker's probe offsets
    (z // m moves by the same vector) are the same up to the shift. Only
    coordinates, polytope ids, witnesses and report bytes change.
    """
    rng = random.Random(seed)
    out = []
    for vertices in vertex_lists:
        shift = [rng.randrange(-SHIFT, SHIFT + 1) for _ in vertices[0]]
        out.append([tuple(x + t for x, t in zip(v, shift)) for v in vertices])
    return out
