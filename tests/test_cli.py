import json

import numpy as np
import pytest

from symdec.cli import main
from symdec.dirac import GAMMA
from symdec.jacobi import random_test_symplex
from symdec.matrixio import (MatrixFileError, load_matrix, save_matrix_json)
from symdec.transform import matrix_exponential

from conftest import cyclotron_force_matrix, random_stable_symplex


def write_text(path, M):
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]}\n")
        for row in M:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


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


def test_missing_file_exit_code(capsys):
    assert main(["check", "/nonexistent/file.json"]) == 4


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


def test_check_cyclotron_reports_state(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    save_matrix_json(path, cyclotron_force_matrix(1.05, 0.03, 0.02, 0.01),
                     kind="force")
    assert main(["check", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coefficients"]["e"][1] == pytest.approx(-0.015)
    assert doc["coefficients"]["b"][2] == pytest.approx(-0.015)


def test_check_transfer_matrix(tmp_path, capsys):
    path = tmp_path / "m.json"
    M = matrix_exponential(random_stable_symplex(
        np.random.default_rng(3)), 0.4).matrix
    save_matrix_json(path, M, kind="transfer", tau=0.4)
    assert main(["check", str(path)]) == 0


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


def test_decouple_complex_routes_to_canonical(tmp_path, capsys):
    F = 0.4 * GAMMA[4] + 0.9 * GAMMA[7]
    path = tmp_path / "cplx.json"
    save_matrix_json(path, F, kind="force")
    assert main(["decouple", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["form_reached"] == "complex_canonical"
    assert doc["complex_radius"] == pytest.approx(np.hypot(0.4, 0.9))


def test_decouple_rejects_non_symplex(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix_json(path, np.eye(4))
    assert main(["decouple", str(path)]) == 2


def test_decouple_unstable_normal_form_exit3(tmp_path, capsys):
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = 1.0, -1.0
    F[2, 3], F[3, 2] = 1.0, 1.0   # hyperbolic second block
    path = tmp_path / "f.json"
    save_matrix_json(path, F, kind="force")
    assert main(["decouple", str(path), "--form", "normal"]) == 3


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
@pytest.mark.parametrize("form, reached", [("block", "block_diagonal"),
                                           ("normal", "normal")])
def test_decouple_2n_report_shape(tmp_path, capsys, n, form, reached):
    # every 2n report names the form as the library does, the normal form
    # carries its frequencies, only the Jacobi run (n != 2) carries its
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
    if form == "block":
        # the 4x4 pipeline knows its frequencies from the invariants
        assert ("frequencies" in doc) == (n == 2)
        return
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
