"""Mutation run: which small edits of a module does tier-1 miss?

    python tests/mutants.py --seed 1 --sites 10 syzygy.py [counting.py ...]

Each mutant of a module of src/polynorm flips one comparison (< and <=,
> and >=, == and !=), swaps one + and -, or adds 1 to one integer
constant; --sites of them are drawn per module by --seed and the module's
name. Each runs tier-1 with -x in a private copy of the tree, never the
working tree (a run that imports from a tree being mutated is corrupted),
two copies at a time. The mutated module is written back through
ast.unparse, so first, as a control, each module's unparsed copy must pass
tier-1. The survivors, tier-1 passed with the mutant in place, come out as
JSON with file, line, mutation and source line, and the reason when they
are on ACCEPTED; a survivor not on it is a finding, and the exit status 1.
--list prints the drawn mutants and runs nothing. pytest does not collect
this file (its name does not start with test_).
"""

import argparse
import ast
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
# equivalent mutants, keyed by (file, a fragment of the source line, mutation)
# so that they survive edits elsewhere, each with why no output can change
ACCEPTED = {
    ("counting.py", "Ehrhart constant term is {poly.coefficients[0]}", "0 -> 1"):
        "the index inside an InternalInvariantError message",
    ("normality.py", "np.where((s_lo <= L) & (L <= s_hi), s_hi + 1, L)",
     "s_lo <= L -> s_lo < L"):
        "_first_missing's shrink loop only narrows the lines the exact _line_gap decides",
    ("normality.py", "np.where(inside, self.index(Z), 0)", "0 -> 1"):
        "_LineTable pads 2 empty rows below s*P on every axis, so row 1 is empty as row 0 is",
    ("geometry.py", "shared.bit_count() < n - 1", "1 -> 2"):
        "the count only filters in front of the exact combinatorial adjacency test",
    ("syzygy.py", "_CHUNK_BYTES = 1 << 22", "1 -> 2"):
        "the chunk size sets only how much array work runs at once",
    ("syzygy.py", "step = max(1, _CHUNK_BYTES // (64 * n))", "1 -> 2"):
        "a floor of 2 rows a chunk in place of 1 changes only the chunking",
    ("syzygy.py", "step = max(1, _CHUNK_BYTES // (64 * masks.shape[1]))", "64 -> 65"):
        "the number of mask rows ORed at once changes only the chunking",
    ("syzygy.py", "live = np.bincount(frontier // n, minlength=m) > 0",
     "np.bincount(frontier // n, minlength=m) > 0 -> np.bincount(frontier // n, minlength=m) >= 0"):
        "a live group with no frontier key pairs with nothing in _join and ORs no mask",
    ("syzygy.py", ".reshape(-1).view(bool)", "1 -> 2"):
        "numpy reads any negative size in reshape as the inferred one",
}


def draw(path, seed, count):
    """`count` mutants of the module at `path`, drawn by `seed` and the
    module's name, in source order: dicts of file, line, mutation, source
    (the stripped source line) and mutant (the mutated module's text)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()

    def sites(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                yield from ((node, i) for i, op in enumerate(node.ops) if type(op) in FLIPS)
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                yield node, None
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                yield node, None

    total = sum(1 for _ in sites(ast.parse(text)))
    picks = random.Random(f"{seed}:{path.name}").sample(range(total), min(count, total))
    out = []
    for pick in picks:
        tree = ast.parse(text)
        node, i = next(itertools.islice(sites(tree), pick, None))
        line = node.lineno
        if isinstance(node, ast.Compare):
            left = node.left if i == 0 else node.comparators[i - 1]
            line, op = left.lineno, node.ops[i]
            node.ops[i] = FLIPS[type(op)]()
            before, after = (ast.unparse(ast.Compare(left, [o], [node.comparators[i]]))
                             for o in (op, node.ops[i]))
        elif isinstance(node, ast.Constant):
            before, after = str(node.value), str(node.value + 1)
            node.value += 1
        else:
            before = ast.unparse(node)
            node.op = SWAPS[type(node.op)]()
            after = ast.unparse(node)
        out.append({"file": path.name, "line": line, "mutation": f"{before} -> {after}",
                    "source": lines[line - 1].strip(), "mutant": ast.unparse(tree)})
    return sorted(out, key=lambda m: m["line"])


def survives(root, path, text):
    """Does tier-1 pass in a private copy of the tree at `root` in which the
    file at `path` (relative to root) reads `text`? A run past 15 minutes
    counts as killed, and so does one whose pytest exits 0 without its
    closing "N passed" line: a mutant can make the test process itself
    leave early through a forked worker's os._exit(0)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        (tree / path).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        try:
            proc = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            return False
    closing = proc.stdout.strip().rsplit("\n", 1)[-1]
    return proc.returncode == 0 and re.match(r"\d+ passed", closing) is not None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="+", help="file names under src/polynorm")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sites", type=int, default=10, help="mutants per module")
    parser.add_argument("--list", action="store_true", help="print the draw, run nothing")
    args = parser.parse_args(argv)
    drawn = {name: draw(ROOT / "src" / "polynorm" / name, args.seed, args.sites)
             for name in args.modules}
    if args.list:
        print(json.dumps([{k: v for k, v in m.items() if k != "mutant"}
                          for batch in drawn.values() for m in batch], indent=1))
        return 0
    rel = {name: Path("src", "polynorm", name) for name in args.modules}
    with ThreadPoolExecutor(2) as pool:
        controls = dict(zip(args.modules, pool.map(
            lambda name: survives(ROOT, rel[name], ast.unparse(ast.parse(
                (ROOT / rel[name]).read_text(encoding="utf-8")))), args.modules)))
        runs = [m for name in args.modules if controls[name] for m in drawn[name]]
        alive = list(pool.map(lambda m: survives(ROOT, rel[m["file"]], m["mutant"]), runs))
    survivors = []
    for m, lives in zip(runs, alive):
        if lives:
            reason = next((why for (file, fragment, mutation), why in ACCEPTED.items()
                           if (file, mutation) == (m["file"], m["mutation"])
                           and fragment in m["source"]), None)
            survivors.append({k: m[k] for k in ("file", "line", "mutation", "source")}
                             | {"accepted": reason})
    print(json.dumps({"seed": args.seed, "controls": controls, "mutants": len(runs),
                      "killed": len(runs) - len(survivors), "survivors": survivors}, indent=1))
    findings = [s for s in survivors if s["accepted"] is None]
    return 1 if findings or not all(controls.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
