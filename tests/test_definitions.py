"""Every top-level function and class of the package is used or exported,
and every top-level function of a helper module in tests/ is used.

Read from the source with ast: a function or class defined at the top
level of a module under src/polynorm/ must be named somewhere in the
package, as a name, an attribute or an imported name, or be listed in
`polynorm.__all__`. Its own definition does not count. A name exported in
`polynorm.__all__` must in turn be named by a module other than __init__,
or be one of ENTRY_POINTS, the exports no module of the package calls,
so the package exports nothing that only the tests use. A public method or
property of a class under src/polynorm/ must be named as an attribute by
some module there, or be one of CALLED_FROM_OUTSIDE with its reason. The
match is by name, so where two classes define a public method of the same
name, each must be one of SHARED_NAMES, with a function of the package that
names it; a name in use then cannot vouch for another class's method that
nothing calls. Dunder methods are exempt. A function defined
at the top level of a helper module in tests/ (conftest.py and the oracle
modules, any module there not named test_*) must be named by a test
module, where a function parameter counts as a name, so a fixture counts as
used. pytest calls its hooks, the functions named pytest_*, by name.
"""

import ast
import collections

import pytest

import polynorm
from test_imports import MODULES, PACKAGE, TESTS

TREES = {m: ast.parse((PACKAGE / m).read_text(encoding="utf-8"))
         for m in MODULES + ["__init__.py"]}


def named(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


NAMED = {name for tree in TREES.values() for name in named(tree)}


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_named_or_exported(module):
    defs = [node.name for node in TREES[module].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    dead = sorted(set(defs) - NAMED - set(polynorm.__all__))
    assert not dead, f"{module} defines names nothing uses: {dead}"


# exports that are the library's own entry points: no module calls them
ENTRY_POINTS = {"affine_dim"}


def test_every_export_is_named_by_the_package():
    used = {name for module, tree in TREES.items() if module != "__init__.py"
            for name in named(tree)}
    unused = sorted(set(polynorm.__all__) - used - ENTRY_POINTS)
    assert not unused, f"polynorm exports names no module of it uses: {unused}"
    assert ENTRY_POINTS <= set(polynorm.__all__) - used


# public methods no module of the package names, each with its caller
CALLED_FROM_OUTSIDE = {
    ("cli.py", "_Parser", "error"): "argparse.ArgumentParser calls it on a bad command line",
    ("normality.py", "NormalityReport", "is_normal"):
        "bench/tracing.py counts the non-normal verdicts of a traced run by it",
    ("geometry.py", "Polytope", "contains"):
        "the public facet test, validated once; the package tests the points it built "
        "by geometry._inside",
}
ATTRIBUTES = {node.attr for tree in TREES.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}


def public_methods(module, trees=TREES):
    for cls in ast.walk(trees[module]):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    yield (module, cls.name, node.name)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_every_public_method_is_named_by_the_package(module):
    dead = sorted(key for key in public_methods(module)
                  if key[2] not in ATTRIBUTES and key not in CALLED_FROM_OUTSIDE)
    assert not dead, f"{module} defines methods no module of the package names: {dead}"


def test_methods_called_from_outside_are_defined_and_unnamed():
    defined = {key for module in TREES for key in public_methods(module)}
    assert set(CALLED_FROM_OUTSIDE) <= defined
    assert not {key[2] for key in CALLED_FROM_OUTSIDE} & ATTRIBUTES


HELPERS = sorted(p.name for p in TESTS.glob("*.py") if not p.name.startswith("test_"))
TEST_NAMED = set()
for path in TESTS.glob("test_*.py"):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    TEST_NAMED.update(named(tree))
    TEST_NAMED.update(node.arg for node in ast.walk(tree) if isinstance(node, ast.arg))


def test_helper_modules_are_found():
    assert {"conftest.py", "exact_linalg.py"} <= set(HELPERS)


@pytest.mark.parametrize("module", HELPERS)
def test_every_test_helper_is_named_by_a_test(module):
    tree = ast.parse((TESTS / module).read_text(encoding="utf-8"))
    defs = [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("pytest_")]
    dead = sorted(set(defs) - TEST_NAMED)
    assert not dead, f"tests/{module} defines functions no test names: {dead}"


# public methods whose name another class of the package also defines, each
# with a function of the package that calls it, as module:qualified name
SHARED_NAMES = {
    ("counting.py", "CohomologyTable", "to_jsonable"): "cli.py:_cmd_cohomology",
    ("counting.py", "EhrhartPolynomial", "to_jsonable"): "harness.py:AnalysisRecord.to_jsonable",
    ("harness.py", "AnalysisRecord", "to_jsonable"): "harness.py:run_verification",
    ("harness.py", "CorpusSpec", "to_jsonable"): "harness.py:run_verification",
    ("normality.py", "CorollaryRecord", "to_jsonable"): "harness.py:run_verification",
    ("normality.py", "NormalityReport", "to_jsonable"): "harness.py:AnalysisRecord.to_jsonable",
    ("normality.py", "NormalityWitness", "to_jsonable"):
        "normality.py:NormalityReport.to_jsonable",
    ("syzygy.py", "N1ProbeReport", "to_jsonable"): "harness.py:run_verification",
    # _code_set returns either code set, and the probe reads both alike
    ("syzygy.py", "_DenseCodes", "holds"): "syzygy.py:_one_hop",
    ("syzygy.py", "_DenseCodes", "repeated"): "syzygy.py:n1_probe",
    ("syzygy.py", "_SortedCodes", "holds"): "syzygy.py:_one_hop",
    ("syzygy.py", "_SortedCodes", "repeated"): "syzygy.py:n1_probe",
}


def shared_methods(trees):
    """Each (module, class, method) whose method name two or more classes define."""
    keys = [key for module in trees for key in public_methods(module, trees)]
    defined = collections.Counter(name for _, _, name in keys)
    return {key for key in keys if defined[key[2]] > 1}


def definition(tree, qualname):
    """The function or method of a module tree at a dotted qualified name."""
    body = tree.body
    for name in qualname.split("."):
        node = next(node for node in body if getattr(node, "name", None) == name)
        body = node.body
    return node


def test_shared_method_names_are_listed_with_their_callers():
    assert sorted(shared_methods(TREES) - set(SHARED_NAMES)) == []
    assert set(SHARED_NAMES) <= shared_methods(TREES)
    for (_, _, name), caller in SHARED_NAMES.items():
        module, qualname = caller.split(":")
        node = definition(TREES[module], qualname)
        assert name in {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}, caller


def test_a_planted_shared_name_is_flagged(tmp_path):
    # two classes of a new module define the same method: both are flagged,
    # though a third class's method of that name is named in the package
    planted = tmp_path / "planted.py"
    planted.write_text("class A:\n    def to_jsonable(self):\n        return 1\n\n\n"
                       "class B:\n    def first(self):\n        return 2\n\n\n"
                       "class C:\n    def first(self):\n        return 3\n")
    trees = dict(TREES, planted=ast.parse(planted.read_text()))
    assert sorted(shared_methods(trees) - set(SHARED_NAMES)) == [
        ("planted", "A", "to_jsonable"), ("planted", "B", "first"), ("planted", "C", "first"),
        ("syzygy.py", "_SortedCodes", "first")]
