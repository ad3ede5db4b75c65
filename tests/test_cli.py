import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import symdec.cli
from symdec import jacobi
from symdec.cli import _invariant_doc, build_parser, main
from symdec.decouple4 import POST_TOL, STEP_TOL
from symdec.decouple4 import decouple
from symdec.dirac import GAMMA, rdm_coefficients
from symdec.emeq import Symplex, emeq_from_symplex
from symdec.errors import DimensionMismatch, NotASymplex, SymdecError
from symdec.jacobi import jacobi_decouple, random_test_symplex
from symdec.matrixio import (MatrixFileError, load_matrix, save_matrix_json)
from symdec.transform import TransformStep, matrix_exponential, replay

from conftest import cyclotron_force_matrix, random_stable_symplex


def write_text(path, M):
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]}\n")
        for row in M:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _no_pivot(*args):
    raise AssertionError("pivot attempted")


# ---------------------------------------------------------------------------
# matrix file parsing

def test_load_json_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    M = random_stable_symplex(np.random.default_rng(0))
    save_matrix_json(path, M, kind="force", tau=2.0, label="test")
    mf = load_matrix(path)
    np.testing.assert_array_equal(mf.matrix, M)
    assert mf.kind == "force" and mf.tau == 2.0 and mf.label == "test"


def test_load_text(tmp_path):
    path = tmp_path / "m.txt"
    M = random_stable_symplex(np.random.default_rng(1))
    write_text(path, M)
    mf = load_matrix(path)
    np.testing.assert_array_equal(mf.matrix, M)
    assert mf.kind is None


def test_text_allows_comments_and_blanks(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# a force matrix\n2\n\n0.0 1.0\n-1.0 0.0  # row\n")
    mf = load_matrix(path)
    np.testing.assert_array_equal(mf.matrix, [[0.0, 1.0], [-1.0, 0.0]])


def test_parse_errors_carry_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4\n1 2 3\n")
    with pytest.raises(MatrixFileError, match="line 2"):
        load_matrix(path)
    path = tmp_path / "bad.json"
    path.write_text('{"matrix": [[1, 2], [3]]}')
    with pytest.raises(MatrixFileError):
        load_matrix(path)
    path = tmp_path / "odd.json"
    path.write_text('{"matrix": [[1, 2, 0], [3, 4, 0], [0, 0, 1]]}')
    with pytest.raises(MatrixFileError, match="even"):
        load_matrix(path)


_MALFORMED = [
    ("nonsquare.json", '{"matrix": [[1, 2, 3], [4, 5, 6]]}', "square"),
    ("nan.json", '{"matrix": [[NaN, 1], [-1, 0]]}', "non-finite"),
    ("nan.txt", "2\nnan 1\n-1 0\n", "non-finite"),
    ("broken.json", '{"matrix": [[0, 1], [-1, 0]]', "line 1, column"),
    ("nomatrix.json", '{"kind": "force"}', "'matrix' field"),
    ("kind.json", '{"kind": "sigma", "matrix": [[0, 1], [-1, 0]]}',
     "kind must be one of"),
    ("dim.txt", "two\n0 1\n-1 0\n", "line 1: expected the dimension"),
    ("entry.txt", "2\n0 x\n-1 0\n", "line 2:"),
    ("empty.txt", "", "empty file"),
    ("comments.txt", "# no matrix\n\n", "empty file"),
    ("short.txt", "2\n0 1\n", "expected 2 rows, got 1"),
    ("shortrow.txt", "2\n0 1\n-1\n", "line 3: expected 2 entries")]


@pytest.mark.parametrize("name, text, match", _MALFORMED,
                         ids=[name for name, _, _ in _MALFORMED])
def test_malformed_files_exit4(tmp_path, capsys, name, text, match):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MatrixFileError, match=match):
        load_matrix(path)
    for command in ("check", "decouple"):
        assert main([command, str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("symdec: error:")
        assert match in captured.err


def test_missing_file_exit_code(capsys):
    assert main(["check", "/nonexistent/file.json"]) == 4


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_input_sha256_is_digest_of_parsed_bytes(tmp_path, capsys, fmt):
    path = tmp_path / f"m.{fmt}"
    M = random_stable_symplex(np.random.default_rng(2))
    if fmt == "json":
        save_matrix_json(path, M, kind="force", label="caf\u00e9")
    else:
        write_text(path, M)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert load_matrix(path).sha256 == digest
    for command in ("check", "decouple"):
        assert main([command, str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["input"]["sha256"] == digest


def test_matrix_files_are_utf8(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes('{"label": "caf\u00e9", "matrix": [[0, 1], [-1, 0]]}'
                     .encode("utf-8"))
    assert load_matrix(path).label == "caf\u00e9"
    path.write_bytes('{"label": "caf\u00e9", "matrix": [[0, 1], [-1, 0]]}'
                     .encode("latin-1"))
    with pytest.raises(MatrixFileError, match="utf-8"):
        load_matrix(path)
    assert main(["check", str(path)]) == 4
    assert "utf-8" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the parser, built once per process

def _force_file(tmp_path, name="f.json"):
    path = tmp_path / name
    save_matrix_json(path, random_stable_symplex(np.random.default_rng(5)),
                     kind="force")
    return str(path)


def _strip_timing(out):
    doc = json.loads(out)
    del doc["timing"]
    return doc


def test_parser_built_once_and_not_at_import():
    assert build_parser() is build_parser()
    code = ("import symdec.cli as c; "
            "assert c.build_parser.cache_info().currsize == 0")
    src = os.path.dirname(os.path.dirname(symdec.cli.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_cached_parser_defaults_do_not_leak(tmp_path, capsys, monkeypatch):
    path = _force_file(tmp_path)
    normal = ["decouple", path, "--form", "normal", "--json"]
    main(["check", path])  # the parser exists before the calls under test
    capsys.readouterr()
    assert main(normal) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["settings"]["form"] == "normal"
    assert main(["decouple", path]) == 0
    text = capsys.readouterr().out
    assert "form: block" in text and not text.startswith("{")
    assert main(["decouple", path, "--json"]) == 0
    block = capsys.readouterr().out
    # a fresh parser per call gives the same reports
    monkeypatch.setattr(symdec.cli, "build_parser",
                        build_parser.__wrapped__)
    for argv, out in ((normal, json.dumps(doc, indent=1) + "\n"),
                      (["decouple", path, "--json"], block)):
        assert main(argv) == 0
        assert _strip_timing(capsys.readouterr().out) == _strip_timing(out)


def test_cached_parser_survives_usage_errors(tmp_path, capsys):
    path = _force_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["decouple", path, "--form", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["decouple", path, "--json", "--text"])
    capsys.readouterr()
    assert main(["decouple", path, "--form", "hamiltonian", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["settings"]["form"] == "hamiltonian"


def test_dispatch_reads_commands_at_call_time(tmp_path, capsys, monkeypatch):
    path = _force_file(tmp_path)
    assert main(["check", path]) == 0
    seen = []
    monkeypatch.setattr(symdec.cli, "cmd_check",
                        lambda args: seen.append(args.path) or 7)
    assert main(["check", path]) == 7
    assert seen == [path]


# ---------------------------------------------------------------------------
# check command

def test_check_gamma0_force(tmp_path, capsys):
    path = tmp_path / "g0.json"
    save_matrix_json(path, GAMMA[0], kind="force")
    assert main(["check", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["invariants"]["k1"] == 1.0


def test_check_identity_rejected(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix_json(path, np.eye(4), kind="force")
    assert main(["check", str(path), "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False
    assert doc["cosymplex_coefficient_max"] == 1.0


def test_cosymplex_content_same_verdict_everywhere(tmp_path, capsys):
    # cosymplex coefficients of 0.6e-10 ||c|| each: residual 4 sqrt(6) 0.6e-10
    # ||c|| against the bound 1e-10 max(1, 2 ||c||), so not a symplex for
    # every entry point, the 4x4 ones included
    F = random_stable_symplex(np.random.default_rng(11))
    c = rdm_coefficients(F)
    assert np.linalg.norm(c) > 1.0
    G = F + 0.6e-10 * np.linalg.norm(c) * sum(GAMMA[10:])
    path = tmp_path / "f.json"
    for M, valid in ((F, True), (G, False)):
        for call in (decouple, jacobi_decouple, emeq_from_symplex,
                     Symplex.from_matrix):
            if valid:
                call(M)
            else:
                with pytest.raises(NotASymplex):
                    call(M)
        save_matrix_json(path, M, kind="force")
        for command in ("check", "decouple"):
            assert main([command, str(path), "--json"]) == (0 if valid else 2)
        capsys.readouterr()


def test_check_cyclotron_reports_state(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    save_matrix_json(path, cyclotron_force_matrix(1.05, 0.03, 0.02, 0.01),
                     kind="force")
    assert main(["check", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coefficients"]["e"][1] == pytest.approx(-0.015)
    assert doc["coefficients"]["b"][2] == pytest.approx(-0.015)


def test_check_overflowing_transfer_rejected(tmp_path, capsys):
    # residual inf (det = 1e800): once "valid" as inf <= tol * inf
    path = tmp_path / "big.json"
    save_matrix_json(path, 1e200 * np.eye(4), kind="transfer")
    assert main(["check", str(path), "--json"]) == 2
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["valid"] is False and doc["symplectic_residual"] is None
    assert "Infinity" not in out and "NaN" not in out
    assert main(["tunes", str(path), "--json"]) == 2
    assert "symplectic residual inf" in capsys.readouterr().err


def test_check_overflowing_symplex_residual_rejected(tmp_path, capsys):
    # 1.7e308 I: its symplex residual has no float (inf, written as null);
    # no symplex, so exit 2 though its Lax invariants overflow too
    path = tmp_path / "big.json"
    save_matrix_json(path, 1.7e308 * np.eye(4), kind="force")
    assert main(["check", str(path), "--json"]) == 2
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["valid"] is False and doc["symplex_residual"] is None
    assert "Infinity" not in out and "NaN" not in out
    assert main(["decouple", str(path), "--json"]) == 2
    assert "symplex residual inf" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["decouple", "check"])
def test_largest_coefficients_exit3(tmp_path, capsys, cmd):
    # 1.7e308 gamma(0): the coefficients are read without an overflow
    # warning (warnings are errors here), then the invariants overflow
    path = tmp_path / "big.json"
    save_matrix_json(path, 1.7e308 * GAMMA[0], kind="force")
    assert main([cmd, str(path), "--json"]) == 3
    err = capsys.readouterr().err
    assert "PrecisionLoss" in err and "overflow" in err


def test_wide_symplectic_ring_accepted(tmp_path, capsys):
    # exactly symplectic, ||M||_F^2 overflows: accepted without a warning
    # (warnings are errors here); check's Lax invariants overflow
    path = tmp_path / "wide.json"
    save_matrix_json(path, np.diag([1e200, 1e-200, 1e200, 1e-200]),
                     kind="transfer")
    assert main(["tunes", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["residuals"]["symplectic"] == 0
    assert main(["check", str(path), "--json"]) == 3
    assert "Lax invariants overflow" in capsys.readouterr().err


def test_check_transfer_matrix(tmp_path, capsys):
    path = tmp_path / "m.json"
    M = matrix_exponential(random_stable_symplex(
        np.random.default_rng(3)), 0.4).matrix
    save_matrix_json(path, M, kind="transfer", tau=0.4)
    assert main(["check", str(path)]) == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("kind", ["force", "transfer"])
def test_check_bad_tol_exit2(tmp_path, capsys, kind, tol):
    # a non-finite or negative tolerance is refused before any report
    path = tmp_path / "m.json"
    save_matrix_json(path, GAMMA[0] if kind == "force" else np.eye(4),
                     kind=kind)
    assert main(["check", str(path), "--json", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symdec: error: --tol")


@pytest.mark.parametrize("kind", ["force", "transfer"])
def test_check_zero_tol_valid(tmp_path, capsys, kind):
    path = tmp_path / "m.json"
    save_matrix_json(path, GAMMA[0] if kind == "force" else np.eye(4),
                     kind=kind)
    assert main(["check", str(path), "--json", "--tol", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerance"] == 0.0 and doc["valid"] is True


def test_check_tol_reports_invariants_of_the_accepted_symplex(tmp_path,
                                                            capsys):
    # F[0, 2] off by 1e-5 max|F|: a symplex at --tol 1e-4, none at the
    # default 1e-10 (nor at 1e-6); the invariants follow the verdict
    F = random_test_symplex(2, 0).matrix.copy()
    F[0, 2] += 1e-5 * np.abs(F).max()
    path = tmp_path / "f.json"
    save_matrix_json(path, F, kind="force")
    assert main(["check", str(path), "--tol", "1e-4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    inv = Symplex.from_matrix(F, tol=1e-4).invariants
    assert doc["valid"] is True
    assert doc["invariants"]["k1"] == inv.k1
    assert doc["invariants"]["k2"] == inv.k2
    assert doc["invariants"]["classification"] == inv.classification
    assert [w["value"] for w in doc["invariants"]["frequencies"]] == [
        inv.omega1.value, inv.omega2.value]
    assert main(["check", str(path), "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False and list(doc["invariants"]) == ["lax"]


# ---------------------------------------------------------------------------
# decouple command

def test_decouple_block_diagonal_input_empty_log(tmp_path, capsys):
    # an already block-diagonal matrix produces an all-skip log
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = 2.0, -1.0
    F[2, 3], F[3, 2] = 1.0, -0.5
    path = tmp_path / "f.json"
    save_matrix_json(path, F, kind="force")
    assert main(["decouple", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(step["skipped"] for step in doc["transform_log"])
    assert doc["residual"] == 0.0


def test_decouple_cyclotron_two_steps(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    save_matrix_json(path, cyclotron_force_matrix(1.05, 0.03, 0.02, 0.01),
                     kind="force")
    assert main(["decouple", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    live = [s["generator"] for s in doc["transform_log"] if not s["skipped"]]
    assert live == [7, 2]
    assert doc["replay_residual"] < 1e-12


def test_decouple_text_and_json_same_numbers(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_matrix_json(path, random_stable_symplex(np.random.default_rng(5)),
                     kind="force")
    assert main(["decouple", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["decouple", str(path)]) == 0
    text = capsys.readouterr().out
    # every numeric value of the JSON report appears verbatim in the text
    for key in ("residual", "replay_residual"):
        assert repr(doc[key]) in text
    for step in doc["transform_log"]:
        assert repr(step["epsilon"]) in text
    for row in doc["final_matrix"]:
        for v in row:
            assert repr(v) in text


@pytest.mark.parametrize("argv", [
    ["decouple", "f4.json", "--form", "block"],
    ["decouple", "f4.json", "--form", "hamiltonian"],
    ["decouple", "f4.json", "--form", "normal"],
    ["decouple", "cplx.json"],
    ["decouple", "f6.json", "--form", "normal"],
    ["check", "f4.json"],
    ["check", "f6.json"],
    ["tunes", "ring.json", "--emittances", "2,0.5"],
], ids=" ".join)
def test_json_report_is_one_line_of_the_built_document(tmp_path, capsys,
                                                       monkeypatch, argv):
    # --json writes the report compactly: one newline-terminated line that
    # parses to the document the command built; decouple's invariants are
    # those a fresh _invariant_doc reads from the input and the final matrix
    save_matrix_json(tmp_path / "f4.json",
                     random_stable_symplex(np.random.default_rng(7)),
                     kind="force")
    save_matrix_json(tmp_path / "cplx.json", 0.4 * GAMMA[4] + 0.9 * GAMMA[7],
                     kind="force")
    save_matrix_json(tmp_path / "f6.json", random_test_symplex(3, 0).matrix,
                     kind="force")
    save_matrix_json(tmp_path / "ring.json", matrix_exponential(
        random_stable_symplex(np.random.default_rng(8)), 0.4).matrix,
        kind="transfer", tau=0.4)
    built = []
    emit = symdec.cli._emit
    monkeypatch.setattr(symdec.cli, "_emit", lambda doc, as_json: (
        built.append(doc), emit(doc, as_json)))
    path = str(tmp_path / argv[1])
    assert main([argv[0], path, *argv[2:], "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    doc, = built
    assert json.loads(out) == doc
    if argv[0] == "decouple":
        # float for float, the sign of a zero included
        final = np.array(doc["final_matrix"])
        for key, M in (("invariants_before", load_matrix(path).matrix),
                       ("invariants_after", final)):
            assert json.dumps(doc[key]) == json.dumps(_invariant_doc(M))


def test_decouple_deterministic(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_matrix_json(path, random_stable_symplex(np.random.default_rng(6)),
                     kind="force")
    docs = []
    for _ in range(2):
        assert main(["decouple", str(path), "--json", "--form",
                     "hamiltonian"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timing")
        docs.append(doc)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("F", [
    0.4 * GAMMA[4] + 0.9 * GAMMA[7],  # complex_low_energy
    # energy^2 > P^2 = E^2: complex_intermediate, radius sqrt(0.75)
    2.0 * GAMMA[0] + 1.5 * GAMMA[1] + 1.5 * GAMMA[4] + 0.5 * GAMMA[7],
], ids=["low", "intermediate"])
def test_decouple_complex_routes_to_canonical(tmp_path, capsys, F):
    path = tmp_path / "cplx.json"
    save_matrix_json(path, F, kind="force")
    assert main(["decouple", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["form_reached"] == "complex_canonical"
    assert doc["complex_radius"] == pytest.approx(
        np.max(np.abs(np.linalg.eigvals(F))))


def test_decouple_rejects_non_symplex(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix_json(path, np.eye(4))
    assert main(["decouple", str(path)]) == 2


@pytest.mark.parametrize("n, perturb", [(1, None), (3, None), (1, 1e-6),
                                        (2, 1e-6), (3, 1e-6)])
def test_decouple_rejects_non_symplex_any_n(tmp_path, capsys, n, perturb):
    # the library's entry validation is the one symplex gate for every n
    if perturb is None:
        F = np.eye(2 * n)
    else:
        F = random_stable_symplex(np.random.default_rng(n), n)
        F[0, 0] += perturb
    path = tmp_path / "f.json"
    save_matrix_json(path, F, kind="force")
    assert main(["decouple", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symdec: validation error:")


def test_decouple_settings_report_library_thresholds(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    save_matrix_json(path, cyclotron_force_matrix(1.2, 0.3, 0.4, 0.5),
                     kind="force")
    assert main(["decouple", str(path), "--json", "--jacobi-tol",
                 "1e-11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["settings"] == {"form": "block", "step_tol": STEP_TOL,
                               "post_tol": POST_TOL, "jacobi_tol": 1e-11}


@pytest.mark.parametrize("argv", [
    ["decouple", "--tol", "1e-10"], ["decouple", "--step-tol", "1e-14"],
    ["decouple", "--check-tol", "1e-8"], ["tunes", "--symplectic-tol", "1"],
    ["tunes", "--fixed-point-tol", "1"]])
def test_threshold_flags_removed(tmp_path, capsys, argv):
    path = tmp_path / "f.json"
    save_matrix_json(path, cyclotron_force_matrix(1.2, 0.3, 0.4, 0.5))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(path), *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--jacobi-tol", "nan"], ["--jacobi-tol", "-1"], ["--jacobi-tol", "0"],
    ["--jacobi-tol", "inf"], ["--max-steps", "-3"]])
def test_decouple_bad_iteration_flags_exit2(tmp_path, capsys, monkeypatch,
                                            flags):
    # rejected before any pivot, not after spending the 40 n^2 budget
    monkeypatch.setattr(jacobi, "_solve_block", _no_pivot)
    path = tmp_path / "f8.json"
    save_matrix_json(path, random_test_symplex(4, 0).matrix, kind="force")
    assert main(["decouple", str(path), "--json", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symdec: error:")
    assert "tol" in captured.err


@pytest.mark.parametrize("flags", [
    ["--jacobi-tol", "nan"], ["--jacobi-tol", "-1"], ["--max-steps", "-3"]])
@pytest.mark.parametrize("n", [2, 3])
def test_decouple_bad_iteration_flags_exit2_every_n(tmp_path, capsys, n,
                                                    flags):
    # a 4x4 file takes no iteration, yet gets the same refusal
    path = tmp_path / "f.json"
    save_matrix_json(path, random_test_symplex(n, 0).matrix, kind="force")
    assert main(["decouple", str(path), "--json", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symdec: error:")


def test_decouple_unstable_normal_form_exit3(tmp_path, capsys):
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = 1.0, -1.0
    F[2, 3], F[3, 2] = 1.0, 1.0   # hyperbolic second block
    path = tmp_path / "f.json"
    save_matrix_json(path, F, kind="force")
    assert main(["decouple", str(path), "--form", "normal"]) == 3


class _Unlisted(SymdecError):
    """A library error that no list in the CLI names."""


@pytest.mark.parametrize("error, code, prefix", [
    (DimensionMismatch, 2, "symdec: validation error:"),
    (_Unlisted, 3, "symdec: infeasible: _Unlisted:")],
    ids=["DimensionMismatch", "unlisted"])
def test_library_errors_exit_by_class(tmp_path, capsys, monkeypatch, error,
                                      code, prefix):
    # a shape error is a validation failure; every other library error,
    # named anywhere or not, is infeasible
    def raising(*args, **kwargs):
        raise error("raised inside the command")
    monkeypatch.setattr(symdec.cli, "decouple", raising)
    assert main(["decouple", _force_file(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)


def test_decouple_large_includes_stats(tmp_path, capsys):
    path = tmp_path / "f6.json"
    save_matrix_json(path, random_test_symplex(6, 0).matrix, kind="force")
    assert main(["decouple", str(path), "--json", "--form",
                 "hamiltonian"]) == 0
    doc = json.loads(capsys.readouterr().out)
    stats = doc["iteration_stats"]
    assert stats["pivot_steps"] > 0
    assert stats["total_steps"] == (stats["pivot_steps"]
                                    + stats["hamiltonian_steps"])
    assert doc["replay_residual"] < 1e-9
    # eigenvalue bookkeeping preserved
    np.testing.assert_allclose(doc["invariants_before"]["lax"],
                               doc["invariants_after"]["lax"], atol=1e-8)


@pytest.mark.parametrize("cmd", ["decouple", "check"])
@pytest.mark.parametrize("scale, n", [(1e160, 2), (1e200, 2), (1e200, 3)])
def test_overflowing_invariants_exit3(tmp_path, capsys, cmd, scale, n):
    # the 6x6 decouple fails in its first Jacobi pivot, check in the Lax
    # traces; no traceback and no RuntimeWarning (warnings are errors here)
    F = scale * (GAMMA[0] if n == 2 else random_test_symplex(n, 0).matrix)
    path = tmp_path / "big.json"
    save_matrix_json(path, F, kind="force")
    assert main([cmd, str(path), "--json"]) == 3
    err = capsys.readouterr().err
    assert "PrecisionLoss" in err and "overflow" in err


def test_decouple_loose_jacobi_tol_normal_form(tmp_path, capsys):
    # off-block entries left by --jacobi-tol 1e-8 are reported in the
    # residual, not refused by the per-dof stages
    path = tmp_path / "f6.json"
    save_matrix_json(path, random_test_symplex(3, 0).matrix, kind="force")
    assert main(["decouple", str(path), "--json", "--form", "normal",
                 "--jacobi-tol", "1e-8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["form_reached"] == "normal"
    norm = np.linalg.norm(doc["final_matrix"])
    assert doc["residual"] > POST_TOL * norm
    assert doc["residual"] < doc["iteration_stats"]["residual_trend"][-1] \
        * norm


def test_decouple_transfer_file_rejected(tmp_path):
    path = tmp_path / "m.json"
    save_matrix_json(path, np.eye(4), kind="transfer")
    assert main(["decouple", str(path)]) == 2


def test_decouple_single_dof(tmp_path, capsys):
    # 2x2 symplex: one rotation clears the diagonal, one scaling balances
    # the off-diagonal of a stable block
    hyperbolic = np.array([[0.3, 1.2], [0.8, -0.3]])
    stable = np.array([[0.3, 0.5], [-2.0, -0.3]])
    for F, form in ((hyperbolic, "hamiltonian"), (stable, "hamiltonian"),
                    (stable, "normal")):
        path = tmp_path / "f2.json"
        save_matrix_json(path, F, kind="force")
        assert main(["decouple", str(path), "--json", "--form", form]) == 0
        doc = json.loads(capsys.readouterr().out)
        final = np.array(doc["final_matrix"])
        assert abs(final[0, 0]) < 1e-12 and abs(final[1, 1]) < 1e-12
        if form == "normal":
            w = np.sqrt(np.linalg.det(F))
            assert final[0, 1] == pytest.approx(w, rel=1e-12)
            assert final[1, 0] == pytest.approx(-w, rel=1e-12)
        assert doc["replay_residual"] < 1e-12
        np.testing.assert_allclose(doc["invariants_before"]["lax"],
                                   doc["invariants_after"]["lax"], atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("form", ["block", "hamiltonian", "normal"])
def test_decouple_json_log_alone_replays_r(tmp_path, capsys, n, form):
    # the report's transform_log rebuilds the library's R bit for bit:
    # its floats are written by repr, so each epsilon reads back exactly
    M = random_test_symplex(n, 3).matrix
    path = tmp_path / "f.json"
    save_matrix_json(path, M, kind="force")
    assert main(["decouple", str(path), "--json", "--form", form]) == 0
    log = json.loads(capsys.readouterr().out)["transform_log"]
    steps = [TransformStep(s["generator"], s["epsilon"],
                           None if s["block"] is None else tuple(s["block"]))
             for s in log]
    assert [s["skipped"] for s in log] == [s.skipped for s in steps]
    want = decouple(M, form=symdec.cli._FORMS[form]).transform.r
    assert np.array_equal(replay(steps, 2 * n).r, want)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("form, reached", [("block", "block_diagonal"),
                                           ("normal", "normal")])
def test_decouple_2n_report_shape(tmp_path, capsys, n, form, reached):
    # every 2n report names the form as the library does and carries one
    # frequency per block, only the Jacobi run (n != 2) carries its
    # iteration counters and only the 4x4 its classification
    F = (np.array([[0.3, 0.5], [-2.0, -0.3]]) if n == 1
         else random_test_symplex(n, 0).matrix)
    path = tmp_path / "f.json"
    save_matrix_json(path, F, kind="force")
    assert main(["decouple", str(path), "--json", "--form", form]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["form_reached"] == reached
    assert ("iteration_stats" in doc) == (n != 2)
    assert ("classification" in doc) == (n == 2)
    assert [w["nature"] for w in doc["frequencies"]] == ["imaginary"] * n
    got = np.sort([abs(w["value"]) for w in doc["frequencies"]])
    want = np.sort(np.linalg.eigvals(F).imag)[n:]
    np.testing.assert_allclose(got, want, rtol=1e-10)


# ---------------------------------------------------------------------------
# tunes command

def _normal_form_transfer(tmp_path, w1=0.3, w2=0.7, tau=1.0):
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = w1, -w1
    F[2, 3], F[3, 2] = w2, -w2
    M = matrix_exponential(F, tau).matrix
    path = tmp_path / "m.json"
    save_matrix_json(path, M, kind="transfer", tau=tau)
    return path


def test_tunes_known_frequencies(tmp_path, capsys):
    path = _normal_form_transfer(tmp_path)
    assert main(["tunes", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stable"] is True
    assert doc["blocks"][0]["omega"] == pytest.approx(0.3, abs=1e-9)
    assert doc["blocks"][1]["omega"] == pytest.approx(0.7, abs=1e-9)


def test_tunes_identity_degenerate(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix_json(path, np.eye(4), kind="transfer")
    assert main(["tunes", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["blocks"][0]["tune"] == 0.0
    assert doc["blocks"][1]["tune"] == 0.0
    # matched beam for the degenerate ring is rejected
    assert main(["tunes", str(path), "--emittances", "1,1"]) == 3


def test_tunes_matched_sigma_residuals(tmp_path, capsys):
    F = random_stable_symplex(np.random.default_rng(11))
    M = matrix_exponential(F, 0.8).matrix
    path = tmp_path / "m.json"
    save_matrix_json(path, M, kind="transfer", tau=0.8)
    assert main(["tunes", str(path), "--emittances", "1.5,2.5",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matched"]["fixed_point_residual"] <= 1e-8
    assert doc["matched"]["commutation_residual"] <= 1e-8
    sigma = np.array(doc["matched"]["sigma"])
    np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)


def test_tunes_timing_includes_analysis(tmp_path, capsys, monkeypatch):
    import time
    import symdec.cli
    real = symdec.cli.analyze_one_turn

    def slow_analysis(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(symdec.cli, "analyze_one_turn", slow_analysis)
    path = _normal_form_transfer(tmp_path)
    assert main(["tunes", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["timing"]["seconds"] >= 0.05


def test_tunes_complex_symplex_part_exit3(tmp_path, capsys):
    # the symplex part of this ring has a complex eigenvalue quadruple
    M = matrix_exponential(0.4 * GAMMA[4] + 0.9 * GAMMA[7], 1.0).matrix
    path = tmp_path / "m.json"
    save_matrix_json(path, M, kind="transfer")
    assert main(["tunes", str(path)]) == 3
    assert "PivotComplex" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--emittances", "a,b"], ["--emittances", "1"], ["--emittances", "1,2,3"],
    ["--emittances=-1,2"], ["--emittances", "0,2"], ["--emittances", "nan,1"],
    ["--emittances", "1,inf"], ["--tau", "0"], ["--tau", "-1"],
    ["--tau", "nan"], ["--tau", "inf"]])
def test_tunes_bad_flags_exit2(tmp_path, capsys, flags):
    path = _normal_form_transfer(tmp_path)
    assert main(["tunes", str(path), "--json", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symdec: error:")


@pytest.mark.parametrize("emit", ["-1,2", "nan,1", "0,1"])
def test_tunes_bad_emittances_exit2_on_unstable_ring(tmp_path, capsys, emit):
    # the emittances are checked before the ring's stability: exit 2 as on
    # a stable ring, not 3 for the hyperbolic second block
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = 1.0, -1.0
    F[2, 3], F[3, 2] = 1.0, 1.0
    path = tmp_path / "u.json"
    save_matrix_json(path, matrix_exponential(F, 1.0).matrix,
                     kind="transfer")
    assert main(["tunes", str(path), "--tau", "0.5",
                 f"--emittances={emit}"]) == 2
    assert "emittances" in capsys.readouterr().err


@pytest.mark.parametrize("meta", [
    {"tau": "abc"}, {"tau": [1]}, {"tau": 0}, {"tau": -1.0}, {"tau": True},
    {"tau": float("nan")}, {"tau": float("inf")}, {"n": "two"}, {"n": 2.5},
    {"n": True}, {"n": 3}])
def test_tunes_bad_metadata_exit4(tmp_path, capsys, meta):
    path = tmp_path / "m.json"
    doc = {"kind": "transfer", "matrix": np.eye(4).tolist(), **meta}
    path.write_text(json.dumps(doc))
    with pytest.raises(MatrixFileError, match=next(iter(meta))):
        load_matrix(path)
    assert main(["tunes", str(path)]) == 4
    assert capsys.readouterr().err.startswith("symdec: error:")


def test_tunes_period_from_flag_file_or_default(tmp_path, capsys):
    path = _normal_form_transfer(tmp_path, tau=0.5)
    for argv, tau in ((["--tau", "0.25"], 0.25), ([], 0.5)):
        assert main(["tunes", str(path), "--json", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["tau"] == tau
    save_matrix_json(path, np.eye(4), kind="transfer")
    assert main(["tunes", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tau"] == 1.0


def test_tunes_force_file_rejected(tmp_path):
    path = tmp_path / "f.json"
    save_matrix_json(path, GAMMA[0], kind="force")
    assert main(["tunes", str(path)]) == 2


def test_tunes_non_symplectic_rejected(tmp_path):
    path = tmp_path / "bad.json"
    save_matrix_json(path, np.diag([2.0, 1.0, 0.5, 1.0]), kind="transfer")
    assert main(["tunes", str(path)]) == 2


# ---------------------------------------------------------------------------
# bench command

def test_bench_csv_contract(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--n-min", "2", "--n-max", "3", "--seeds", "4",
                 "--csv", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "n,seeds,mean_steps,min,max,reference"
    first = rows[1].split(",")
    assert first[0] == "2" and first[1] == "4"
    assert float(first[2]) == 1.0         # single pivot for n = 2
    assert float(first[5]) == 0.0
    second = rows[2].split(",")
    ref3 = 5 * 3 * 1 / 2
    assert float(second[5]) == ref3
    assert 0.5 * ref3 <= float(second[2]) <= 1.5 * ref3


def test_bench_stdout_and_determinism(capsys):
    assert main(["bench", "--n-min", "2", "--n-max", "2", "--seeds", "3"]) == 0
    out1 = capsys.readouterr().out
    assert main(["bench", "--n-min", "2", "--n-max", "2", "--seeds", "3"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_bench_range_validated(capsys):
    assert main(["bench", "--n-min", "1", "--n-max", "3"]) == 2
    assert main(["bench", "--n-min", "4", "--n-max", "3"]) == 2


@pytest.mark.parametrize("flags", [
    ["--seeds", "0"], ["--seeds", "-2"], ["--jacobi-tol", "-1"],
    ["--jacobi-tol", "nan"], ["--jacobi-tol", "0"]])
def test_bench_bad_flags_exit2(capsys, monkeypatch, flags):
    monkeypatch.setattr(jacobi, "_solve_block", _no_pivot)
    assert main(["bench", "--n-min", "3", "--n-max", "4", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symdec: error:")
