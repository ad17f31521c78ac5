"""The mutation runner, tests/mutants.py: its draw, its private tree and
its list of accepted equivalent mutants. The mutation run itself runs
tier-1 once a mutant, so tier-1 does not run it."""

import ast
import json

import mutants
from test_imports import PACKAGE


def test_a_seed_draws_the_same_parseable_mutants(capsys):
    path = PACKAGE / "syzygy.py"
    text = path.read_text(encoding="utf-8")
    lines, unparsed = text.splitlines(), ast.unparse(ast.parse(text))
    drawn = mutants.draw(path, 1, 10)
    assert len(drawn) == 10 and len({(m["line"], m["mutation"]) for m in drawn}) == 10
    for m in drawn:
        assert ast.unparse(ast.parse(m["mutant"])) == m["mutant"] != unparsed
        assert m["source"] == lines[m["line"] - 1].strip() and m["file"] == "syzygy.py"
        before, after = m["mutation"].split(" -> ")
        assert before != after
    # the second draw, through the command line
    assert mutants.main(["--list", "--seed", "1", "--sites", "10", "syzygy.py"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {k: v for k, v in m.items() if k != "mutant"} for m in drawn]


def test_a_mutant_runs_in_a_private_tree(tmp_path, monkeypatch):
    # tier-1 -x on a copy of a two-file tree: the mutant that breaks its test
    # is killed, and so is one that ends the test process with status 0
    # before pytest reports; the tree itself is never written. Its test
    # needs no plugin, so pytest loads none
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    source = "def f():\n    return 1\n"
    (tmp_path / "src" / "m.py").write_text(source)
    (tmp_path / "tests" / "test_m.py").write_text(
        "from m import f\n\n\ndef test_f():\n    assert f() == 1\n")
    assert mutants.survives(tmp_path, "src/m.py", source)
    assert not mutants.survives(tmp_path, "src/m.py", source.replace("1", "2"))
    assert not mutants.survives(tmp_path, "src/m.py", source.replace(
        "return 1", "__import__('os')._exit(0)"))
    assert (tmp_path / "src" / "m.py").read_text() == source


def test_accepted_mutants_are_keyed_by_their_lines():
    # each accepted equivalent names a module, a fragment of the line it
    # mutates and a mutation the draw can make there. Whether the module
    # still holds the line is not tested: a test that read the module would
    # kill every mutant of an accepted line
    for (file, fragment, mutation), reason in mutants.ACCEPTED.items():
        before, after = mutation.split(" -> ")
        assert (PACKAGE / file).is_file() and reason, (file, fragment)
        assert before in fragment and before != after, (file, fragment)
