"""Every top-level function and class of the package is used or exported.

Read from the source with ast: a function or class defined at the top
level of a module under src/polynorm/ must be named somewhere in the
package, as a name, an attribute or an imported name, or be listed in
`polynorm.__all__`. Its own definition does not count.
"""

import ast

import pytest

import polynorm
from test_imports import MODULES, PACKAGE

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
