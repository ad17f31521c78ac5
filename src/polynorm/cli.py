"""Command line front end.

Commands read a vertex-list file (one JSON array of equal-length integer
arrays) except `corpus` and `verify-corpus`, which work from a corpus
spec. Output is text (aligned, human-oriented) or canonical JSON with
sorted keys. Exit codes: 0 success, 1 invalid input, 2 internal invariant
failure (a theorem violation or a geometry bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .counting import h_table, normality_bound
from .errors import InternalInvariantError, InvalidInputError, PolynormError
from .geometry import _MAX_ROWS, Polytope, _as_int, build_polytope
from .harness import (
    DEFAULT_CORPUS_SPEC,
    CorpusSpec,
    analyze,
    generate_corpus,
    run_verification,
)
from .normality import _cap, verify_corollary
from .syzygy import n1_probe


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; exit code 2 is reserved here, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_1(message)


class SystemExit_1(Exception):
    pass


def _read_json(path: str):
    """The JSON value of a file; one nested past the parser's recursion
    limit is refused as invalid input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InvalidInputError(f"{path}: JSON nested too deeply") from None


def _load_polytope(path: str) -> Polytope:
    data = _read_json(path)
    if not isinstance(data, list):
        raise PolynormError(f"{path}: expected a JSON array of points")
    return build_polytope(data)


def _emit(obj, args, text_renderer):
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        text_renderer(obj)


def _kv_lines(pairs):
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")


# -- command implementations ----------------------------------------------------

def _cmd_analyze(args) -> int:
    record = analyze(_load_polytope(args.file), args.cap)
    obj = record.to_jsonable()

    def render(obj):
        wit = obj["normality"]["witness"]
        pairs = [
            ("polytope", obj["polytope_id"]),
            ("dim", obj["n"]),
            ("vertices", " ".join(str(tuple(v)) for v in obj["vertices"])),
            ("ehrhart", str(record.ehrhart)),
            ("d", obj["d"]),
            ("codegree", obj["codegree"]),
            ("corollary bound", obj["corollary_bound"]),
            ("autoregularity", obj["autoregularity"]),
            ("np bounds", " ".join(f"p={p}:{v}" for p, v in obj["np_bounds"])),
            ("normality", obj["normality"]["verdict"]
             + (f" witness {tuple(wit['point'])} at level {wit['level']}"
                if wit else "")
             + f" (cap {obj['normality']['cap_used']})"),
            ("checks", "ok" if all(obj["checks"].values()) else "FAILED"),
        ]
        _kv_lines(pairs)

    _emit(obj, args, render)
    return 0 if all(record.checks.values()) else 2


def _cmd_verify(args) -> int:
    P = _load_polytope(args.file)
    # the output-sized arguments are refused before normality_bound walks P
    extra, cap = _as_int(args.extra_levels, "extra_levels", 0, _MAX_ROWS), _cap(P, args.cap)
    record = verify_corollary(P, normality_bound(P), extra, cap)
    obj = record.to_jsonable()

    def render(obj):
        _kv_lines([
            ("polytope", obj["polytope_id"]),
            ("dim", obj["n"]),
            ("d", obj["d"]),
            ("corollary bound", obj["corollary_bound"]),
        ])
        for lvl in obj["levels"]:
            wit = lvl["witness"]
            extra = (f"  witness {tuple(wit['point'])} at level {wit['level']}"
                     if wit else "")
            print(f"  ell={lvl['ell']}: {lvl['verdict']}{extra}")
        print("PASS" if obj["passed"] else "FAIL: theorem violation")

    _emit(obj, args, render)
    return 0 if record.passed else 2


def _cmd_cohomology(args) -> int:
    table = h_table(_load_polytope(args.file), args.k_min, args.k_max)
    obj = table.to_jsonable()

    def render(obj):
        dim = len(obj["rows"][0]["h"]) - 1
        head = ["k"] + [f"h^{i}" for i in range(dim + 1)]
        rows = [[str(r["k"])] + [str(x) for x in r["h"]] for r in obj["rows"]]
        widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(head)]
        print("  ".join(h.rjust(w) for h, w in zip(head, widths)))
        for r in rows:
            print("  ".join(x.rjust(w) for x, w in zip(r, widths)))

    _emit(obj, args, render)
    return 0


def _cmd_np_probe(args) -> int:
    report = n1_probe(_load_polytope(args.file), args.ell, args.cap)
    obj = report.to_jsonable()

    def render(obj):
        _kv_lines([
            ("polytope", obj["polytope_id"]),
            ("ell", obj["ell"]),
            ("degree cap", obj["cap"]),
        ])
        for row in obj["per_degree"]:
            print(f"  degree {row['degree']}: {row['fibers']} fibers, "
                  f"{row['bfs_checked']} checked by search, "
                  f"{'connected' if row['connected'] else 'DISCONNECTED'}")
        line = obj["verdict"]
        if obj["witness_fiber"]:
            line += f"  witness fiber {tuple(obj['witness_fiber'])}"
        print(line)

    _emit(obj, args, render)
    return 0


def _cmd_corpus(args) -> int:
    spec = CorpusSpec(
        seed=args.seed,
        dims=tuple(args.dims),
        coord_bound=args.coord_bound,
        count_per_dim=args.count,
        vertex_candidates=args.vertex_candidates,
    )
    polys = generate_corpus(spec)
    obj = {
        "spec": spec.to_jsonable(),
        "polytopes": [
            {
                "index": i,
                "dim": P.dim,
                "polytope_id": P.polytope_id,
                "vertices": [list(v) for v in P.vertices],
            }
            for i, P in enumerate(polys)
        ],
    }

    def render(obj):
        for row in obj["polytopes"]:
            verts = " ".join(str(tuple(v)) for v in row["vertices"])
            print(f"{row['index']:4d}  dim {row['dim']}  {row['polytope_id']}  {verts}")
        print(f"{len(obj['polytopes'])} polytopes")

    _emit(obj, args, render)
    return 0


def _cmd_verify_corpus(args) -> int:
    if args.spec_file is None:
        spec = DEFAULT_CORPUS_SPEC
    else:
        spec = CorpusSpec.from_jsonable(_read_json(args.spec_file))
    report = run_verification(
        spec,
        extra_levels=args.extra_levels,
        n1_cap=args.n1_cap,
        cap=args.cap,
        include_fixtures=not args.no_fixtures,
    )

    def render(report):
        print(f"{'idx':>4}  {'kind':7}  dim  {'id':16}  d  bound  autoreg  "
              f"normality          sweep")
        for row in report["polytopes"]:
            a = row["analysis"]
            label = row["label"] or row["kind"]
            sweep = "pass" if row["corollary"]["passed"] else "VIOLATION"
            print(f"{row['index']:>4}  {label:7}  {row['dim']:3}  "
                  f"{a['polytope_id']}  {a['d']}  {a['corollary_bound']:5}  "
                  f"{a['autoregularity']:7}  {a['normality']['verdict']:17}  {sweep}")
        s = report["summary"]
        print(f"polytopes          {s['polytope_count']}")
        print(f"sweep violations   {len(s['corollary_violations'])}")
        print(f"ehrhart failures   {len(s['reciprocity_failures'])}")
        print(f"consistency fails  {len(s['consistency_failures'])}")
        print(f"n1 disconnected    {len(s['n1_disconnected'])}")
        print("PASS" if s["all_passed"] else "FAIL")

    _emit(report, args, render)
    return 0 if report["summary"]["all_passed"] else 2


# -- wiring ----------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="polynorm", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full invariant analysis of one polytope")
    p.add_argument("file", help="vertex-list JSON file")
    p.add_argument("--cap", type=int, default=None,
                   help="normality level cap (default: max(dim-1, 2))")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", parents=[common],
                       help="check the guaranteed-normality sweep for one polytope")
    p.add_argument("file")
    p.add_argument("--extra-levels", type=int, default=0)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cohomology", parents=[common],
                       help="twist cohomology table from the counting rules")
    p.add_argument("file")
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("np-probe", parents=[common],
                       help="degree-capped quadratic-generation probe")
    p.add_argument("file")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--cap", type=int, default=4, help="fiber degree cap")
    p.set_defaults(func=_cmd_np_probe)

    p = sub.add_parser("corpus", parents=[common],
                       help="generate the seeded random corpus")
    p.add_argument("--seed", type=int, default=DEFAULT_CORPUS_SPEC.seed)
    p.add_argument("--dims", type=int, nargs="+",
                   default=list(DEFAULT_CORPUS_SPEC.dims))
    p.add_argument("--count", type=int, default=DEFAULT_CORPUS_SPEC.count_per_dim)
    p.add_argument("--coord-bound", type=int,
                   default=DEFAULT_CORPUS_SPEC.coord_bound)
    p.add_argument("--vertex-candidates", type=int,
                   default=DEFAULT_CORPUS_SPEC.vertex_candidates)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("verify-corpus", parents=[common],
                       help="batch verification over a corpus spec")
    p.add_argument("spec_file", nargs="?", default=None,
                   help="CorpusSpec JSON file (default: built-in spec)")
    p.add_argument("--extra-levels", type=int, default=2)
    p.add_argument("--n1-cap", type=int, default=4)
    p.add_argument("--cap", type=int, default=None,
                   help="normality level cap for all checks")
    p.add_argument("--no-fixtures", action="store_true",
                   help="skip the Reeve regression fixtures")
    p.set_defaults(func=_cmd_verify_corpus)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit_1 as exc:
        print(f"polynorm: error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"polynorm: internal invariant failure: {exc}", file=sys.stderr)
        return 2
    except PolynormError as exc:
        print(f"polynorm: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"polynorm: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
