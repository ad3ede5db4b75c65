import numpy as np
import pytest

from symdec import decouple4, jacobi
from symdec.decouple4 import (FORM_BLOCK_DIAGONAL, FORM_COMPLEX_CANONICAL,
                              FORM_HAMILTONIAN, FORM_NORMAL, Symplex4,
                              closed_form_block_coefficients,
                              complex_intermediate, complex_low_energy,
                              decouple, decouple_block_diagonal, diagonalize,
                              normal_form_scaling, to_hamiltonian_form,
                              to_normal_form)
from symdec.dirac import GAMMA
from symdec.emeq import (aux_vectors, emeq_from_symplex, mass_components,
                         spectral_invariants, state_from_coefficients)
from symdec.errors import (BranchMismatch, ComplexEigenvalues, NotASymplex,
                           NotSymplectic, UnstableBlock)
from symdec.jacobi import SymplexN, jacobi_decouple, random_test_symplex
from symdec.optics import analyze_one_turn
from symdec.transform import (apply_similarity, compose, matrix_exponential,
                              symplectic_residual)

from conftest import (cyclotron_force_matrix, random_complex_symplex,
                      random_stable_symplex)


def eigenvalues_match(A, B, tol=1e-9):
    """Compare eigenvalue multisets through the characteristic polynomial."""
    ca, cb = np.poly(A), np.poly(B)
    scale = max(1.0, np.max(np.abs(ca)))
    return np.max(np.abs(ca - cb)) <= tol * scale


def test_already_block_diagonal_is_identity():
    # B_x = B_z = E_y = P_y = 0 with both signs of the surviving entries
    for sign in (1.0, -1.0):
        c = np.zeros(10)
        c[0], c[1], c[6], c[8] = 2.0, 0.3 * sign, 0.5, 0.8 * sign
        state = state_from_coefficients(c)
        res = decouple_block_diagonal(state.matrix())
        assert all(s.skipped for s in res.transform.steps)
        assert res.residual < 1e-14
        np.testing.assert_array_equal(res.final.matrix, state.matrix())


def test_block_diagonal_random_stable():
    rng = np.random.default_rng(101)
    for _ in range(200):
        F = random_stable_symplex(rng)
        res = decouple_block_diagonal(F)
        assert res.form == FORM_BLOCK_DIAGONAL
        assert res.residual < 1e-10
        assert symplectic_residual(res.transform.r) < 1e-10
        # transform really maps source to final
        np.testing.assert_allclose(
            apply_similarity(res.transform, F), res.final.matrix, atol=1e-9)
        assert eigenvalues_match(F, res.final.matrix)
        # geometric postcondition: masses gone, b on the y-axis
        m = mass_components(res.final.state)
        a = aux_vectors(res.final.state)
        assert abs(m.m_r) < 1e-10 and abs(m.m_g) < 1e-10
        assert abs(a.b[0]) < 1e-10 and abs(a.b[2]) < 1e-10


def test_block_diagonal_coefficient_pattern():
    rng = np.random.default_rng(103)
    for _ in range(50):
        F = random_stable_symplex(rng)
        res = decouple_block_diagonal(F)
        c = res.final.state.coefficients
        # B_x, B_z, E_y, P_y all vanish
        for idx in (7, 9, 5, 2):
            assert abs(c[idx]) < 1e-10


def test_complex_eigenvalues_rejected():
    F = 0.4 * GAMMA[4] + 0.9 * GAMMA[7]
    with pytest.raises(ComplexEigenvalues):
        decouple_block_diagonal(F)


def test_closed_form_cross_check():
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 200:
        F = random_stable_symplex(rng)
        state = emeq_from_symplex(F)
        m = mass_components(state)
        bv = aux_vectors(state).b
        m_x = np.hypot(m.m_r, m.m_g)
        b_yz = np.hypot(bv[1], bv[2])
        if min(m_x, b_yz, np.linalg.norm(bv)) < 1e-8:
            continue
        checked += 1
        cf = closed_form_block_coefficients(state)
        c = decouple_block_diagonal(F).final.state.coefficients
        got = {"energy": c[0], "p_x": c[1], "p_z": c[3], "e_x": c[4],
               "e_z": c[6], "b_y": c[8]}
        for key, val in cf.items():
            assert got[key] == pytest.approx(val, abs=1e-7), key


def test_cyclotron_two_step_decoupling():
    F = cyclotron_force_matrix(1.05, 0.03, 0.02, 0.01)
    res = decouple_block_diagonal(F)
    live = [s.generator for s in res.transform.steps if not s.skipped]
    assert live == [7, 2]
    assert res.residual < 1e-14
    res = to_hamiltonian_form(res)
    m = mass_components(res.final.state)
    assert abs(m.m_r) < 1e-14
    assert abs(m.m_g) < 1e-14
    assert abs(m.m_b) < 1e-14


def test_hamiltonian_form_pattern():
    rng = np.random.default_rng(109)
    for _ in range(100):
        F = random_stable_symplex(rng)
        res = to_hamiltonian_form(decouple_block_diagonal(F))
        assert res.form == FORM_HAMILTONIAN
        M = res.final.matrix
        mask = np.ones((4, 4), dtype=bool)
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
            mask[i, j] = False
        assert np.max(np.abs(M[mask])) < 1e-10
        assert eigenvalues_match(F, M)


def test_hamiltonian_trivial_when_masses_vanish():
    c = np.zeros(10)
    c[0], c[1], c[6], c[8] = 2.0, 0.3, 0.0, 0.8   # M_b = 0, P_z = 0
    res = decouple_block_diagonal(state_from_coefficients(c).matrix())
    res = to_hamiltonian_form(res)
    assert all(s.skipped for s in res.transform.steps)


def test_hamiltonian_requires_block_diagonal():
    F = random_stable_symplex(np.random.default_rng(1))
    res = decouple_block_diagonal(F)
    res = to_hamiltonian_form(res)
    with pytest.raises(ValueError):
        to_hamiltonian_form(res)


def test_normal_form_scaling_by_hand():
    # block [[0, 4], [-1, 0]] scales to [[0, 2], [-2, 0]]
    M = np.zeros((4, 4))
    M[0, 1], M[1, 0] = 4.0, -1.0
    M[2, 3], M[3, 2] = 1.0, -1.0
    res = decouple_block_diagonal(M)
    res = to_hamiltonian_form(res)
    res = to_normal_form(res)
    np.testing.assert_allclose(
        res.final.matrix,
        [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        atol=1e-12)
    assert res.frequencies[0].value == pytest.approx(2.0, abs=1e-12)
    assert res.frequencies[1].value == pytest.approx(1.0, abs=1e-12)


def test_normal_form_identity_when_balanced():
    M = np.zeros((4, 4))
    M[0, 1], M[1, 0] = 2.0, -2.0
    M[2, 3], M[3, 2] = 0.5, -0.5
    res = to_normal_form(to_hamiltonian_form(decouple_block_diagonal(M)))
    assert all(s.skipped for s in res.transform.steps)


def test_normal_form_random_stable():
    rng = np.random.default_rng(113)
    for _ in range(100):
        F = random_stable_symplex(rng)
        res = to_normal_form(to_hamiltonian_form(decouple_block_diagonal(F)))
        assert res.form == FORM_NORMAL
        M = res.final.matrix
        # antisymmetric blocks
        assert abs(M[0, 1] + M[1, 0]) < 1e-10
        assert abs(M[2, 3] + M[3, 2]) < 1e-10
        assert np.max(np.abs(np.diag(M))) < 1e-10
        inv = spectral_invariants(emeq_from_symplex(F))
        got = sorted([abs(res.frequencies[0].value),
                      abs(res.frequencies[1].value)])
        want = sorted([inv.omega1.value, inv.omega2.value])
        np.testing.assert_allclose(got, want, rtol=1e-9)


def test_normal_form_zero_band():
    # a*b = 1e-20 lies between the band (step * scale)^2 ~ 2e-28 and the
    # former step * scale^2 = 1e-14: a slow but genuine oscillation
    M = np.zeros((4, 4))
    M[0, 1], M[1, 0] = 1e-10, -1e-10
    M[2, 3], M[3, 2] = 1.0, -1.0
    res = decouple(M, form=FORM_NORMAL)
    assert [w.nature for w in res.frequencies] == ["imaginary", "imaginary"]
    assert res.frequencies[0].value == pytest.approx(1e-10, rel=1e-12)
    # below the band the block has no rotation normal form
    M[0, 1], M[1, 0] = 1e-15, -1e-15
    with pytest.raises(UnstableBlock) as err:
        decouple(M, form=FORM_NORMAL)
    assert err.value.block == 0


def test_normal_form_unstable_block_rejected():
    # one focusing and one defocusing block: real pair in the second dof
    M = np.zeros((4, 4))
    M[0, 1], M[1, 0] = 1.0, -1.0
    M[2, 3], M[3, 2] = 1.0, 1.0
    res = to_hamiltonian_form(decouple_block_diagonal(M))
    with pytest.raises(UnstableBlock) as err:
        to_normal_form(res)
    assert err.value.block == 1


def test_diagonalize_constant_basis():
    # the normal form itself is diagonalized by the fixed unitary basis
    w1, w2 = 0.9, 0.4
    M = np.zeros((4, 4))
    M[0, 1], M[1, 0] = w1, -w1
    M[2, 3], M[3, 2] = w2, -w2
    res = to_normal_form(to_hamiltonian_form(decouple_block_diagonal(M)))
    vecs, vals = diagonalize(res)
    np.testing.assert_allclose(vals, [1j * w1, -1j * w1, 1j * w2, -1j * w2])
    np.testing.assert_allclose(M @ vecs, vecs * vals, atol=1e-12)
    # E0 is unitary and symplectic
    e0 = 0.5 * (np.eye(4) - GAMMA[0] + 1j * GAMMA[3] + 1j * GAMMA[6])
    np.testing.assert_allclose(np.linalg.inv(e0), e0.conj().T, atol=1e-14)
    np.testing.assert_allclose(e0 @ GAMMA[0] @ e0.T, GAMMA[0], atol=1e-14)


def test_diagonalize_random_reconstruction():
    rng = np.random.default_rng(127)
    for _ in range(50):
        F = random_stable_symplex(rng)
        res = to_normal_form(to_hamiltonian_form(decouple_block_diagonal(F)))
        vecs, vals = diagonalize(res)
        np.testing.assert_allclose(F @ vecs, vecs * vals, atol=1e-9)
        recon = (vecs * vals) @ np.linalg.inv(vecs)
        np.testing.assert_allclose(recon.imag, 0.0, atol=1e-9)
        np.testing.assert_allclose(recon.real, F, atol=1e-9)


def canonical_pattern_residual(res):
    c = res.final.state.coefficients
    return max(abs(c[0]), np.max(np.abs(c[1:4])), abs(c[4]), abs(c[7]),
               abs(c[9]))


def test_complex_low_energy_canonical_form():
    rng = np.random.default_rng(131)
    for _ in range(100):
        F = random_complex_symplex(rng, "low")
        res = complex_low_energy(F)
        assert res.form == FORM_COMPLEX_CANONICAL
        assert canonical_pattern_residual(res) < 1e-9
        m = mass_components(res.final.state)
        assert abs(m.m_g) < 1e-9 and abs(m.m_b) < 1e-9
        # eigenvalue circle radius
        ev = np.linalg.eigvals(F)
        np.testing.assert_allclose(np.abs(ev), res.complex_radius, rtol=1e-8)
        assert symplectic_residual(res.transform.r) < 1e-10


def test_complex_intermediate_canonical_form():
    rng = np.random.default_rng(137)
    for _ in range(100):
        F = random_complex_symplex(rng, "intermediate")
        res = complex_intermediate(F)
        assert res.form == FORM_COMPLEX_CANONICAL
        assert canonical_pattern_residual(res) < 1e-9
        ev = np.linalg.eigvals(F)
        np.testing.assert_allclose(np.abs(ev), res.complex_radius, rtol=1e-8)


def test_complex_canonical_aux_vectors():
    # in canonical form g = b = 0 and r has only its x component
    rng = np.random.default_rng(139)
    F = random_complex_symplex(rng, "low")
    res = complex_low_energy(F)
    a = aux_vectors(res.final.state)
    np.testing.assert_allclose(a.g, 0.0, atol=1e-9)
    np.testing.assert_allclose(a.b, 0.0, atol=1e-9)
    np.testing.assert_allclose(a.r[1:], 0.0, atol=1e-9)


def test_complex_branch_preconditions():
    rng = np.random.default_rng(149)
    F = random_stable_symplex(rng)
    with pytest.raises(BranchMismatch):
        complex_low_energy(F)
    with pytest.raises(BranchMismatch):
        complex_intermediate(F)


def test_complex_example_matrix():
    # E_x g4 + B_x g7 has eigenvalues +-i (B_x +- i E_x)
    ex, bx = 0.6, 1.1
    F = ex * GAMMA[4] + bx * GAMMA[7]
    state = emeq_from_symplex(F)
    branch = (complex_low_energy
              if state.energy**2 < max(state.p @ state.p, state.e @ state.e)
              else complex_intermediate)
    res = branch(F)
    assert res.complex_radius == pytest.approx(np.hypot(ex, bx), rel=1e-12)


def test_complex_canonical_input_passes_through():
    c = np.zeros(10)
    c[5], c[6], c[8] = 0.4, -0.7, 0.9    # E_y, E_z, B_y
    F = state_from_coefficients(c).matrix()
    for branch in (complex_low_energy, complex_intermediate):
        res = branch(F)
        assert all(s.skipped for s in res.transform.steps)
        np.testing.assert_array_equal(res.final.matrix, F)


def test_overlap_region_consistency():
    rng = np.random.default_rng(151)
    found = 0
    while found < 30:
        F = random_complex_symplex(rng, "low")
        state = emeq_from_symplex(F)
        e2 = state.energy**2
        if not e2 > min(state.p @ state.p, state.e @ state.e):
            continue
        found += 1
        r1 = complex_low_energy(F)
        r2 = complex_intermediate(F)
        assert r1.complex_radius == pytest.approx(r2.complex_radius,
                                                  rel=1e-10)
        assert r1.form == r2.form == FORM_COMPLEX_CANONICAL


def test_decouple_dispatcher():
    rng = np.random.default_rng(157)
    res = decouple(random_stable_symplex(rng), form=FORM_NORMAL)
    assert res.form == FORM_NORMAL
    res = decouple(random_complex_symplex(rng, "low"))
    assert res.form == FORM_COMPLEX_CANONICAL
    with pytest.raises(ValueError):
        decouple(random_stable_symplex(rng), form="bogus")


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("form", [FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN,
                                  FORM_NORMAL])
def test_decouple_2n_is_jacobi(n, form):
    # every n != 2 is the Jacobi iteration (plus the normal-form scaling),
    # bit for bit, and the result carries its iteration counters
    F = random_test_symplex(n, 5).matrix
    res = decouple(F, form=form, jacobi_tol=1e-11, max_steps=500)
    transform, out, stats = jacobi_decouple(
        F, tol=1e-11, max_steps=500, hamiltonian=form != FORM_BLOCK_DIAGONAL)
    final, freqs = out.matrix, None
    if form == FORM_NORMAL:
        scaling, freqs = normal_form_scaling(final)
        final = scaling.r @ final @ scaling.rinv
        transform = compose(scaling, transform)
    assert res.form == form
    assert isinstance(res.final, SymplexN) and res.final.n == n
    np.testing.assert_array_equal(res.final.matrix, final)
    np.testing.assert_array_equal(res.transform.r, transform.r)
    np.testing.assert_array_equal(res.transform.rinv, transform.rinv)
    assert res.transform.steps == transform.steps
    assert res.stats == stats and res.residual == stats.final_residual
    assert res.invariants is None and res.frequencies == freqs
    np.testing.assert_array_equal(res.source, F)
    # the later 4x4-only stages refuse a 2n result
    with pytest.raises(ValueError):
        (diagonalize if form == FORM_NORMAL else to_hamiltonian_form)(res)


def test_decouple_2n_bad_form_before_any_pivot(monkeypatch):
    def no_pivot(*args, **kwargs):
        raise AssertionError("jacobi_decouple reached")
    monkeypatch.setattr(jacobi, "jacobi_decouple", no_pivot)
    with pytest.raises(ValueError, match="bogus"):
        decouple(random_test_symplex(3, 0).matrix, form="bogus")


def test_decouple_evaluates_invariants_once(monkeypatch):
    calls = []

    def counting(state):
        calls.append(state)
        return spectral_invariants(state)
    monkeypatch.setattr(decouple4, "spectral_invariants", counting)
    rng = np.random.default_rng(167)
    for F, form in ((random_stable_symplex(rng), FORM_NORMAL),
                    (random_stable_symplex(rng), FORM_BLOCK_DIAGONAL),
                    (random_complex_symplex(rng, "low"), FORM_NORMAL),
                    (random_complex_symplex(rng, "intermediate"),
                     FORM_BLOCK_DIAGONAL)):
        calls.clear()
        decouple(F, form=form)
        assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("entry", ["decouple", "jacobi_decouple",
                                   "analyze_one_turn"])
def test_non_finite_input_rejected(entry, n, bad):
    F = random_test_symplex(n, 0).matrix
    if entry == "analyze_one_turn":
        M = matrix_exponential(F, 0.3).matrix
        M[0, 0] = bad
        with pytest.raises(NotSymplectic):
            analyze_one_turn(M, tau=0.3)
        return
    F[0, 0] = bad
    run = decouple if entry == "decouple" else jacobi_decouple
    with pytest.raises(NotASymplex):
        run(F)


def test_invariants_preserved_through_pipeline():
    rng = np.random.default_rng(163)
    for _ in range(50):
        F = random_stable_symplex(rng)
        inv0 = spectral_invariants(emeq_from_symplex(F))
        res = decouple(F, form=FORM_NORMAL)
        inv1 = spectral_invariants(res.final.state)
        scale = max(1.0, abs(inv0.k1), abs(inv0.k2))
        assert abs(inv1.k1 - inv0.k1) < 1e-9 * scale
        assert abs(inv1.k2 - inv0.k2) < 1e-9 * scale


def test_symplex4_validates():
    from symdec.errors import NotASymplex
    with pytest.raises(NotASymplex):
        Symplex4.from_matrix(np.eye(4))
