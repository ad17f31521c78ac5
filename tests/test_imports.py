"""Every module of the package, except its __init__, and every test module
uses each name it imports.

Read from the source with ast: a name bound by an import statement (other
than `from __future__`) must also appear as a name in an expression of the
same module. A use as the root of an attribute, such as `np` in `np.int64`,
counts. The package __init__ imports names to re-export them, so it is left
out. The README's library layout table names every module. A fresh
interpreter that imports the package and runs it at one worker loads none
of the heavy modules it has no use for, and neither does one that runs
two workers.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polynorm"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
SOURCES = {m: PACKAGE / m for m in MODULES}
SOURCES.update({f"tests/{p.name}": p for p in TESTS.glob("*.py")})


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_readme_layout_names_every_module():
    readme = PACKAGE.parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library layout\n", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    named = re.findall(r"^\| `polynorm\.(\w+)` \|", table, re.M)
    assert sorted(named) == sorted(m[:-3] for m in MODULES if m != "__main__.py")


def test_modules_are_found():
    assert {"geometry.py", "normality.py", "syzygy.py", "cli.py"} <= set(MODULES)
    assert {"tests/conftest.py", "tests/test_imports.py"} <= set(SOURCES)


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_module_uses_every_import(module):
    tree = ast.parse(SOURCES[module].read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{module} imports names it never uses: {unused}"


# OpenSSL's libcrypto (through hashlib), a process pool's modules, and the
# installed but unused scientific stack
HEAVY = ["_hashlib", "ssl", "multiprocessing", "concurrent.futures", "scipy", "sympy",
         "networkx"]
FOOTPRINT = """
import sys
from polynorm import CorpusSpec, analyze, build_polytope, run_verification
analyze(build_polytope([(0, 0), (2, 0), (0, 1)]))
spec = CorpusSpec(seed=1, dims=(2,), coord_bound=2, count_per_dim=2, vertex_candidates=4)
report = run_verification(spec, threads=int(sys.argv[1]), include_fixtures=False)
assert report["summary"] == dict(report["summary"], polytope_count=2, all_passed=True)
print(" ".join(m for m in sys.argv[2:] if m in sys.modules))
"""


def heavy_modules_loaded(threads):
    """The HEAVY modules a fresh interpreter holds after analyze and a run
    over two polytopes at `threads` workers."""
    # polytope ids are hashed by the interpreter's own SHA-256 module where it
    # has one (_sha256 up to 3.11, _sha2 from 3.12), not by hashlib's OpenSSL
    lean = any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2"))
    heavy = [m for m in HEAVY if lean or m != "_hashlib"]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(threads), *heavy],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_one_worker_run_loads_no_heavy_module():
    assert heavy_modules_loaded(1) == []


def test_two_worker_run_loads_no_heavy_module():
    # the workers are forked directly, without multiprocessing's pool
    assert heavy_modules_loaded(2) == []
