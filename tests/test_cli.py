"""Command line behavior: formats, determinism, exit codes."""

import dataclasses
import hashlib
import itertools
import json
import subprocess
import sys
import time

import pytest

import polynorm.cli as cli
import polynorm.harness as harness
from polynorm import (
    BoundReport,
    InternalInvariantError,
    InvalidInputError,
    normality_bound,
    verify_corollary,
)
from polynorm.cli import main
from conftest import assert_no_child_left
from test_corollary import (
    fewest_lines_frame,
    oracle_verify_corollary,
    reference_verify_corollary,
    rotated_reeve,
)

SQUARE = [[0, 0], [1, 0], [0, 1], [1, 1]]
T2 = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 2]]
SKEW_TRIANGLE = [[0, 0], [1, 2], [2, 1]]


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    return str(path)


@pytest.fixture
def t2_file(tmp_path):
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(T2))
    return str(path)


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_json(capsys, t2_file):
    code, data = run_json(capsys, "analyze", t2_file)
    assert code == 0
    assert data["n"] == 3
    assert data["d"] == 1
    assert data["codegree"] == 2
    assert data["normality"]["verdict"] == "non-normal"
    assert data["normality"]["witness"] == {"level": 2, "point": [1, 1, 1]}
    assert all(data["checks"].values())


def test_analyze_lattice_points_of_a_cube(capsys, tmp_path):
    # all 64 lattice points of [0, 3]^3 as input, the cube's 8 corners out
    path = tmp_path / "cube.json"
    path.write_text(json.dumps([list(p) for p in itertools.product(range(4), repeat=3)]))
    code, data = run_json(capsys, "analyze", str(path))
    assert code == 0
    assert data["vertices"] == [list(v) for v in itertools.product((0, 3), repeat=3)]


def test_analyze_text(capsys, square_file):
    assert main(["analyze", square_file]) == 0
    out = capsys.readouterr().out
    assert "normal-up-to-cap" in out
    assert "codegree" in out
    assert "np bounds" in out


def test_verify_ok(capsys, t2_file):
    code, data = run_json(capsys, "verify", t2_file, "--extra-levels", "1")
    assert code == 0
    assert data["passed"] is True
    assert data["corollary_bound"] == 2
    assert [row["ell"] for row in data["levels"]] == [2, 3]


def test_cohomology_table(capsys, square_file):
    code, data = run_json(capsys, "cohomology", square_file,
                          "--k-min", "-2", "--k-max", "2")
    assert code == 0
    rows = {row["k"]: row["h"] for row in data["rows"]}
    assert rows[2] == [9, 0, 0]
    assert rows[-2] == [0, 0, 1]


def test_cohomology_at_a_far_twist(capsys, square_file):
    # the row at -10^9 comes from the Ehrhart polynomial by reciprocity, not
    # from a walk of 10^9 P
    start = time.perf_counter()
    code, data = run_json(capsys, "cohomology", square_file,
                          "--k-min", "-1000000000", "--k-max", "-1000000000")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert data["rows"] == [{"k": -10**9, "h": [0, 0, (10**9 - 1) ** 2]}]


def test_np_probe_connected(capsys, square_file):
    code, data = run_json(capsys, "np-probe", square_file,
                          "--ell", "1", "--cap", "4")
    assert code == 0
    assert data["verdict"] == "quadratically connected up to cap"


def test_np_probe_disconnected_is_content_not_error(capsys, tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(SKEW_TRIANGLE))
    code, data = run_json(capsys, "np-probe", str(path), "--ell", "1", "--cap", "3")
    assert code == 0
    assert data["verdict"] == "disconnected"
    assert data["witness_fiber"] == [3, 3, 3]


def test_corpus_roundtrip(capsys):
    code, data = run_json(capsys, "corpus", "--seed", "5", "--dims", "2",
                          "--count", "3", "--coord-bound", "2",
                          "--vertex-candidates", "4")
    assert code == 0
    assert data["spec"]["seed"] == 5
    assert len(data["polytopes"]) == 3


def test_verify_corpus_deterministic(capsys, tmp_path):
    spec = {"seed": 11, "dims": [2], "coord_bound": 3, "count_per_dim": 3,
            "vertex_candidates": 5}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    outs = []
    for _ in range(2):
        code = main(["verify-corpus", str(path), "--format", "json",
                     "--extra-levels", "1", "--n1-cap", "3"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["summary"]["all_passed"] is True


def test_missing_file_exits_one(capsys):
    assert main(["analyze", "/nonexistent/file.json"]) == 1
    assert "polynorm" in capsys.readouterr().err


def test_malformed_json_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 1


def test_degenerate_input_exits_one(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps([[0, 0], [1, 1], [2, 2]]))
    assert main(["analyze", str(path)]) == 1
    assert "dimension" in capsys.readouterr().err


def test_boolean_coordinates_exit_one(capsys, tmp_path):
    path = tmp_path / "bools.json"
    path.write_text(json.dumps([[True, False], [False, True], [False, False]]))
    assert main(["analyze", str(path)]) == 1
    assert "boolean" in capsys.readouterr().err


def test_boolean_spec_fields_exit_one(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"seed": True, "dims": [True, 2], "coord_bound": 3,
                                "count_per_dim": 1, "vertex_candidates": 5}))
    assert main(["verify-corpus", str(path)]) == 1
    assert "seed must be an integer >= 0, got True" in capsys.readouterr().err


def test_vertex_candidates_past_the_ceiling_exit_one(capsys, tmp_path):
    # 10^8 candidates would take minutes a polytope; the spec is refused
    # before the corpus is sampled
    spec = {"seed": 1, "dims": [2], "coord_bound": 2, "count_per_dim": 1,
            "vertex_candidates": 10**8}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.monotonic()
    assert main(["verify-corpus", str(path)]) == 1
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == (
        "polynorm: vertex_candidates must be at most 65536, got 100000000\n")


def test_thread_count_past_the_ceiling_exits_one(capsys, monkeypatch, tmp_path):
    # each worker is a forked process of about 30 MB; the count is refused
    # before any is forked (one polytope: code without the ceiling forks none)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"seed": 1, "dims": [2], "coord_bound": 2,
                                "count_per_dim": 1, "vertex_candidates": 4}))
    monkeypatch.setenv("POLYNORM_THREADS", "100000")
    assert main(["verify-corpus", str(path)]) == 1
    assert capsys.readouterr().err == (
        "polynorm: thread count must be at most 32, got 100000\n")
    assert_no_child_left()


def test_analyze_at_a_large_cap_computes_what_the_default_does(capsys, tmp_path):
    # S_c for c >= n - 1 is the lemma, so cap 200 computes the levels the
    # default cap does: the records differ in cap_used and levels_checked alone
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]))
    start = time.monotonic()
    assert main(["analyze", str(path), "--cap", "200", "--format", "json"]) == 0
    assert time.monotonic() - start < 1
    capped = json.loads(capsys.readouterr().out)
    assert main(["analyze", str(path), "--format", "json"]) == 0
    default = json.loads(capsys.readouterr().out)
    for record, cap in ((capped, 200), (default, 2)):
        levels = (record["normality"].pop("cap_used"), record["normality"].pop("levels_checked"))
        assert levels == (cap, list(range(2, cap + 1)))
    assert capped == default


@pytest.mark.parametrize("argv, message", [
    (["verify", "--extra-levels", "10000000"], "extra_levels must be at most 65536, got 10000000"),
    (["verify", "--cap", "100000000"], "normality cap must be at most 65536, got 100000000"),
    (["analyze", "--cap", "100000000"], "normality cap must be at most 65536, got 100000000"),
    (["cohomology", "--k-min", "1", "--k-max", "100000000"],
     "twist range [1, 100000000] holds over 65536 twists"),
], ids=["verify", "verify-cap", "analyze-cap", "cohomology"])
def test_output_sized_arguments_past_the_ceiling_exit_one(capsys, tmp_path, argv, message):
    # 10^7 dilates, 10^8 levels or 10^8 twists would print gigabytes; each is
    # refused with the message alone before the polytope is walked: counting
    # the lines of conv{0, 300 e1, 300 e2, 300 e3, e4} and its dilates, as
    # normality_bound and analyze do, takes seconds. A far single twist still
    # answers
    path = tmp_path / "slab.json"
    path.write_text(json.dumps([[0, 0, 0, 0], [300, 0, 0, 0], [0, 300, 0, 0], [0, 0, 300, 0],
                                [0, 0, 0, 1]]))
    start = time.monotonic()
    assert main([argv[0], str(path), *argv[1:]]) == 1
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == f"polynorm: {message}\n"
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps([[0, 0], [1, 0], [0, 1]]))
    assert main(["cohomology", str(path), "--k-min", "-1000000000", "--k-max",
                 "-1000000000", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [
        {"k": -10**9, "h": [0, 0, (10**9 - 1) * (10**9 - 2) // 2]}]


@pytest.mark.parametrize("exc, code", [(InternalInvariantError("bug"), 2),
                                       (InvalidInputError("bad input"), 1)])
def test_worker_exception_keeps_its_exit_code(capsys, monkeypatch, tmp_path, exc, code):
    def fail(*args):
        raise exc

    # fork hands the patched module to the workers
    monkeypatch.setattr(harness, "n1_probe", fail)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"seed": 11, "dims": [2], "coord_bound": 3,
                                "count_per_dim": 3, "vertex_candidates": 5}))
    for workers in ("1", "2"):
        monkeypatch.setenv("POLYNORM_THREADS", workers)
        assert main(["verify-corpus", str(path), "--extra-levels", "0"]) == code
        assert str(exc) in capsys.readouterr().err
    assert_no_child_left()


def test_fiber_count_off_by_one_trips_the_check(capsys, monkeypatch, tmp_path):
    # at ell = n the dilate nP is normal, so each degree's fiber count is
    # L_P(n * degree); a probe whose count is off by one raises
    # InternalInvariantError, with exit code 2 (every other verify-corpus
    # run of the suite passes the check, and
    # test_worker_exception_keeps_its_exit_code carries the error through
    # a forked worker)
    real = harness.n1_probe

    def forged(*args):
        report = real(*args)
        last = report.per_degree[-1]
        return dataclasses.replace(report, per_degree=report.per_degree[:-1] + (
            dataclasses.replace(last, fibers=last.fibers + 1),))

    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"seed": 11, "dims": [2], "coord_bound": 3,
                                "count_per_dim": 3, "vertex_candidates": 5}))
    monkeypatch.setattr(harness, "n1_probe", forged)
    monkeypatch.setenv("POLYNORM_THREADS", "1")
    assert main(["verify-corpus", str(path), "--extra-levels", "0"]) == 2
    assert "fibers of degree 4 at ell = 2, but L_P(8) =" in capsys.readouterr().err


TALL_SIMPLEX = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 2**65]]


def test_unenumerable_scan_exits_one(tmp_path):
    # 2P has about 2^65 points; the fiber probe refuses it by the radix of
    # its sum codes, with a typed error, before it lists any of them
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(TALL_SIMPLEX))
    proc = subprocess.run(
        [sys.executable, "-m", "polynorm.cli", "np-probe", str(path), "--ell", "2"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "spread too large to probe" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["analyze", "verify-corpus"])
def test_deeply_nested_file_exits_one(tmp_path, command):
    # json.load recurses once per array; past the recursion limit the file
    # is refused as invalid input, with no traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "polynorm.cli", command, str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"polynorm: {path}: JSON nested too deeply\n"


def test_probe_refuses_huge_dilate_before_listing(tmp_path):
    # the unit square at ell = 3e9 has about 9e18 points; the probe's radix
    # check refuses it before any of them is listed
    path = tmp_path / "square.json"
    path.write_text(json.dumps([[0, 0], [1, 0], [0, 1], [1, 1]]))
    proc = subprocess.run(
        [sys.executable, "-m", "polynorm.cli", "np-probe", str(path),
         "--ell", "3000000000"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "spread too large to probe" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_probe_refuses_too_many_points_exits_one(tmp_path):
    # the unit square at ell = 1e5 passes the radix check with about 1e10
    # points; the probe refuses their pairs from the point count
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    proc = subprocess.run(
        [sys.executable, "-m", "polynorm.cli", "np-probe", str(path), "--ell", "100000"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "configuration too large to probe" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_probe_spread_past_code_range_exits_one(tmp_path):
    # the probe's sum codes need radix cap*span + 1 per axis: at the
    # default cap 4 this Reeve simplex needs 5 * 5 * (4 * 2^57 + 1) > 2^62
    path = tmp_path / "tall.json"
    path.write_text(json.dumps([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 2**57]]))
    proc = subprocess.run(
        [sys.executable, "-m", "polynorm.cli", "np-probe", str(path), "--ell", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "spread too large to probe" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tall_simplex_analyze_decides(tmp_path):
    # the level checker works on lines of 2P, never on its 2^65 points
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(TALL_SIMPLEX))
    proc = subprocess.run(
        [sys.executable, "-m", "polynorm.cli", "analyze", str(path),
         "--format", "json"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    normality = json.loads(proc.stdout)["normality"]
    assert normality["verdict"] == "non-normal"
    assert normality["witness"] == {"level": 2, "point": [1, 1, 1]}


def test_verify_corpus_report_hash(tmp_path):
    # the criterion-8 spec; the pin changes only with an intended report change
    spec = {"seed": 11, "dims": [2, 3], "coord_bound": 3, "count_per_dim": 5,
            "vertex_candidates": 5}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "polynorm.cli", "verify-corpus", str(path),
         "--format", "json"],
        capture_output=True, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "fd8fd019ef0cfa8c10d160a9094daf9777dff4aaba40aeb330a4cee49823ed12")


@pytest.mark.parametrize("vertices, message", [
    ({"vertices": SQUARE}, "expected a JSON array of points"),
    ([[0, 0], 5, [1, 0]], "not a lattice point: 5"),
    ([[0, 0], "ab", [1, 0]], "not a lattice point: 'ab'"),
    ([[], []], "points must have at least one coordinate"),
], ids=["object", "scalar-vertex", "string-vertex", "no-coordinate"])
def test_wrong_shape_exits_one(capsys, tmp_path, vertices, message):
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(vertices))
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_flag_value_exits_one(capsys, square_file):
    assert main(["np-probe", square_file, "--ell", "0"]) == 1


def test_verify_refuses_a_cap_below_two(capsys, square_file):
    # the square's dilates are normal by the lemma, so is_normal never runs:
    # verify_corollary refuses the cap itself
    assert main(["verify", square_file, "--cap", "1"]) == 1
    assert "normality cap must be an integer >= 2, got 1" in capsys.readouterr().err


def test_installed_entry_point(square_file):
    proc = subprocess.run(
        [sys.executable, "-m", "polynorm.cli", "analyze", square_file,
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2


def test_python_dash_m_package(square_file, tmp_path):
    # `python -m polynorm` runs the CLI from a checkout (src/ on the path,
    # nothing installed) and prints what `python -m polynorm.cli` prints
    runs = [subprocess.run([sys.executable, "-m", module, "analyze", square_file,
                            "--format", "json"],
                           capture_output=True, text=True, cwd=tmp_path)
            for module in ("polynorm", "polynorm.cli")]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["n"] == 2
    bad = subprocess.run([sys.executable, "-m", "polynorm", "frobnicate"],
                         capture_output=True, text=True, cwd=tmp_path)
    assert bad.returncode == 1


def test_verify_json_matches_input_frame_sweep(capsys, tmp_path):
    # the dilates of this simplex are checked with its axis 0 last
    P = rotated_reeve(5)
    assert fewest_lines_frame(P) is not P
    path = tmp_path / "reeve.json"
    path.write_text(json.dumps([list(v) for v in P.vertices]))
    assert main(["verify", str(path), "--extra-levels", "2", "--format", "json"]) == 0
    bounds = normality_bound(P)
    assert verify_corollary(P, bounds, 2) == oracle_verify_corollary(P, bounds, 2)
    expected = reference_verify_corollary(P, bounds, 2).to_jsonable()
    out = capsys.readouterr().out.encode()
    assert out == (json.dumps(expected, indent=2, sort_keys=True) + "\n").encode()


# `polynorm analyze` text output, byte for byte: reeve_simplex(2) (the
# README's reeve2.json), reeve_simplex(12), whose Ehrhart polynomial has a
# zero t coefficient, and default-corpus polytope 200 (dim 4), whose Ehrhart
# coefficients are fractional
ANALYZE_TEXT = {
    "reeve2": (
        [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 2]],
        'polytope         812cec011c61bf78\n'
        'dim              3\n'
        'vertices         (0, 0, 0) (0, 1, 0) (1, 0, 0) (1, 1, 2)\n'
        'ehrhart          1 + 5/3 t^1 + 1 t^2 + 1/3 t^3\n'
        'd                1\n'
        'codegree         2\n'
        'corollary bound  2\n'
        'autoregularity   1\n'
        'np bounds        p=0:2 p=1:2 p=2:3 p=3:4\n'
        'normality        non-normal witness (1, 1, 1) at level 2 (cap 2)\n'
        'checks           ok\n'
    ),
    "reeve12": (
        [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 12]],
        'polytope         49fbdcc29a70d41a\n'
        'dim              3\n'
        'vertices         (0, 0, 0) (0, 1, 0) (1, 0, 0) (1, 1, 12)\n'
        'ehrhart          1 + 1 t^2 + 2 t^3\n'
        'd                1\n'
        'codegree         2\n'
        'corollary bound  2\n'
        'autoregularity   1\n'
        'np bounds        p=0:2 p=1:2 p=2:3 p=3:4\n'
        'normality        non-normal witness (1, 1, 1) at level 2 (cap 2)\n'
        'checks           ok\n'
    ),
    "dim4-fractional": (
        [[1, 0, 0, 3], [1, 4, 4, 1], [1, 4, 4, 4], [2, 2, 0, 4], [2, 2, 3, 2]],
        'polytope         1f98c20e5a3d06e4\n'
        'dim              4\n'
        'vertices         (1, 0, 0, 3) (1, 4, 4, 1) (1, 4, 4, 4) (2, 2, 0, 4) (2, 2, 3, 2)\n'
        'ehrhart          1 + 3 t^1 + 7/2 t^2 + 3 t^3 + 3/2 t^4\n'
        'd                1\n'
        'codegree         2\n'
        'corollary bound  3\n'
        'autoregularity   2\n'
        'np bounds        p=0:3 p=1:3 p=2:4 p=3:5\n'
        'normality        non-normal witness (3, 3, 2, 6) at level 2 (cap 3)\n'
        'checks           ok\n'
    ),
}


@pytest.mark.parametrize("name", ANALYZE_TEXT)
def test_analyze_text_bytes(capsys, tmp_path, name):
    vertices, expected = ANALYZE_TEXT[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(vertices))
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == expected


# the text output of the other commands, byte for byte. reeve_simplex(2) is
# proved at its bound; a forged BoundReport(3, 2) puts it into its own sweep
# at ell = 1, so the verify text renders a witness and the failure line. The
# skew triangle's degree-3 fibers disconnect at ell = 1
REEVE2 = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 2]]
COMMAND_TEXT = {
    "verify": (
        REEVE2, ["verify", "--extra-levels", "1"], 0,
        'polytope         812cec011c61bf78\n'
        'dim              3\n'
        'd                1\n'
        'corollary bound  2\n'
        '  ell=2: normal-up-to-cap\n'
        '  ell=3: normal-up-to-cap\n'
        'PASS\n'
    ),
    "cohomology": (
        REEVE2, ["cohomology", "--k-min", "-2", "--k-max", "2"], 0,
        ' k  h^0  h^1  h^2  h^3\n'
        '-2    0    0    0    1\n'
        '-1    0    0    0    0\n'
        ' 0    1    0    0    0\n'
        ' 1    4    0    0    0\n'
        ' 2   11    0    0    0\n'
    ),
    "np-probe": (
        REEVE2, ["np-probe", "--ell", "1", "--cap", "3"], 0,
        'polytope    812cec011c61bf78\n'
        'ell         1\n'
        'degree cap  3\n'
        '  degree 2: 10 fibers, 0 checked by search, connected\n'
        '  degree 3: 20 fibers, 0 checked by search, connected\n'
        'quadratically connected up to cap\n'
    ),
    "np-probe-disconnected": (
        SKEW_TRIANGLE, ["np-probe", "--ell", "1", "--cap", "3"], 0,
        'polytope    05e103ecc057fec9\n'
        'ell         1\n'
        'degree cap  3\n'
        '  degree 2: 10 fibers, 0 checked by search, connected\n'
        '  degree 3: 19 fibers, 1 checked by search, DISCONNECTED\n'
        'disconnected  witness fiber (3, 3, 3)\n'
    ),
}


@pytest.mark.parametrize("name", COMMAND_TEXT)
def test_command_text_bytes(capsys, tmp_path, name):
    vertices, (command, *flags), code, expected = COMMAND_TEXT[name]
    path = tmp_path / "vertices.json"
    path.write_text(json.dumps(vertices))
    assert main([command, str(path), *flags]) == code
    assert capsys.readouterr().out == expected


def test_verify_text_renders_a_violation(capsys, monkeypatch, tmp_path):
    path = tmp_path / "reeve2.json"
    path.write_text(json.dumps(REEVE2))
    monkeypatch.setattr(cli, "normality_bound", lambda P: BoundReport(3, 2))
    assert main(["verify", str(path), "--extra-levels", "1"]) == 2
    assert capsys.readouterr().out == (
        'polytope         812cec011c61bf78\n'
        'dim              3\n'
        'd                2\n'
        'corollary bound  1\n'
        '  ell=1: non-normal  witness (1, 1, 1) at level 2\n'
        '  ell=2: normal-up-to-cap\n'
        'FAIL: theorem violation\n'
    )


def test_corpus_text_bytes(capsys):
    assert main(["corpus", "--seed", "5", "--dims", "2", "--count", "2"]) == 0
    assert capsys.readouterr().out == (
        '   0  dim 2  40a13b4c269b19e6  (0, 3) (1, 0) (2, 4) (4, 2)\n'
        '   1  dim 2  070188059ae36663  (0, 1) (1, 3) (3, 2) (4, 0) (4, 1)\n'
        '2 polytopes\n'
    )


def test_verify_corpus_text_bytes(capsys, tmp_path):
    # two polytopes per dimension; dim 3 brings the Reeve fixtures along
    spec = {"seed": 11, "dims": [2, 3, 4], "coord_bound": 2, "count_per_dim": 2,
            "vertex_candidates": 6}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["verify-corpus", str(path)]) == 0
    assert capsys.readouterr().out == (
        ' idx  kind     dim  id                d  bound  autoreg  normality          sweep\n'
        '   0  corpus     2  ae2850180fb86370  0      2        1  normal-up-to-cap   pass\n'
        '   1  corpus     2  5ba5bcfb146917f7  1      1        0  normal-up-to-cap   pass\n'
        '   2  corpus     3  5d1cddea87894950  0      3        2  normal-up-to-cap   pass\n'
        '   3  corpus     3  00f4503ae78a75eb  2      1        0  normal-up-to-cap   pass\n'
        '   4  corpus     4  700df0f716d40e2d  2      2        1  non-normal         pass\n'
        '   5  corpus     4  fcd3a38aeb1426a5  1      3        2  non-normal         pass\n'
        '   6  reeve-2    3  812cec011c61bf78  1      2        1  non-normal         pass\n'
        '   7  reeve-3    3  e60cdc4efc0b35e6  1      2        1  non-normal         pass\n'
        '   8  reeve-4    3  f09771ca67640dd7  1      2        1  non-normal         pass\n'
        '   9  reeve-5    3  ce6be381238172b0  1      2        1  non-normal         pass\n'
        'polytopes          10\n'
        'sweep violations   0\n'
        'ehrhart failures   0\n'
        'consistency fails  0\n'
        'n1 disconnected    0\n'
        'PASS\n'
    )
