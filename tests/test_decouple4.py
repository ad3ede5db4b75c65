import math
from dataclasses import replace

import numpy as np
import pytest

from symdec import emeq, jacobi
from symdec.decouple4 import (FORM_BLOCK_DIAGONAL, FORM_COMPLEX_CANONICAL,
                              FORM_HAMILTONIAN, FORM_NORMAL, _Pipeline,
                              _block_frequencies, complex_intermediate,
                              complex_low_energy, decouple,
                              decouple_block_diagonal, diagonalize,
                              off_block_max)
from symdec.dirac import GAMMA
from symdec.emeq import (EmeqState, Symplex, aux_vectors, emeq_from_symplex,
                         mass_components, spectral_invariants,
                         state_from_coefficients)
from symdec.errors import (BranchMismatch, ComplexEigenvalues, DegenerateB,
                           NotASymplex, NotSymplectic, PrecisionLoss,
                           UnstableBlock)
from symdec.jacobi import jacobi_decouple, random_test_symplex
from symdec.optics import analyze_one_turn
from symdec.transform import (DOF_SCALING, SymplecticTransform,
                              apply_similarity, basic_transform, compose,
                              dof_transform, matrix_exponential,
                              symplectic_residual)

from conftest import (cyclotron_force_matrix, random_complex_symplex,
                      random_complex_symplex_loop, random_stable_symplex,
                      random_symplex)


def off_pattern_max(M, form):
    """Largest entry of M off the pattern of `form`, entry by entry: off
    the diagonal 2x2 blocks; in Hamiltonian form also on their diagonals;
    in normal form also (a - b)/2 at both antidiagonal places of a block
    [[0, a], [-b, 0]], which is what remains after taking out the nearest
    rotation [[0, w], [-w, 0]], w = (a + b)/2."""
    off = np.array(M, dtype=float)
    for k in range(M.shape[0] // 2):
        i, j = 2 * k, 2 * k + 1
        if form == FORM_BLOCK_DIAGONAL:
            off[i:j + 1, i:j + 1] = 0.0
        elif form == FORM_HAMILTONIAN:
            off[i, j] = off[j, i] = 0.0
        else:
            off[i, j] = off[j, i] = 0.5 * (M[i, j] + M[j, i])
    return float(np.max(np.abs(off)))


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


@pytest.mark.parametrize("form", [FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN,
                                  FORM_NORMAL])
def test_frequencies_in_block_order(form):
    # blocks w = 0.5 then 2.0, already in canonical position: every step
    # is a skip, so the frequencies keep the order of the given blocks
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0], F[2, 3], F[3, 2] = 0.5, -0.5, 2.0, -2.0
    res = decouple(F, form=form)
    assert all(s.skipped for s in res.transform.steps)
    np.testing.assert_array_equal(res.final.matrix, F)
    assert [(w.value, w.nature) for w in res.frequencies] == [
        (0.5, "imaginary"), (2.0, "imaginary")]


def _rotation_blocks(*ws):
    """Normal form with the rotation blocks [[0, w], [-w, 0]] in order."""
    F = np.zeros((2 * len(ws), 2 * len(ws)))
    for k, w in enumerate(ws):
        F[2 * k, 2 * k + 1], F[2 * k + 1, 2 * k] = w, -w
    return F


@pytest.mark.parametrize("slow", [1e-7, 1e-5])
@pytest.mark.parametrize("pad", [(), (2.0,)])
def test_slow_block_frequency_in_every_form(slow, pad):
    # the invariants lose a slow pair next to w = 1: K1 - 2 sqrt(K2)
    # cancels, to 9.9999976e-06 for w = 1e-5 and into the zero band for
    # 1e-7; read from the block it is exact in every form, 4x4 and 6x6
    F = _rotation_blocks(1.0, slow, *pad)
    want = [(w, "imaginary") for w in (1.0, slow, *pad)]
    for form in (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN, FORM_NORMAL):
        res = decouple(F, form=form)
        assert [(w.value, w.nature) for w in res.frequencies] == want


def test_frequencies_agree_across_forms():
    # one rule in every form: equal natures and senses of rotation, and
    # values equal to rounding, on random stable 4x4
    rng = np.random.default_rng(211)
    signs = set()
    for _ in range(150):
        F = random_stable_symplex(rng) * rng.choice([-1.0, 1.0])
        ref = decouple(F, form=FORM_NORMAL).frequencies
        for form in (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN):
            got = decouple(F, form=form).frequencies
            assert [w.nature for w in got] == [w.nature for w in ref]
            for u, v in zip(got, ref):
                assert math.copysign(1.0, u.value) == \
                    math.copysign(1.0, v.value)
                assert u.value == pytest.approx(v.value, rel=1e-13)
        signs.update(math.copysign(1.0, w.value) for w in ref)
    assert signs == {-1.0, 1.0}


def _random_block_diagonal(rng):
    F = np.zeros((4, 4))
    for k in (0, 2):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        F[k:k + 2, k:k + 2] = [[a, b], [c, -a]]
    return F


def _random_real_k2(rng):
    while True:
        F = random_symplex(rng)
        if spectral_invariants(emeq_from_symplex(F)).k2 >= 0.0:
            return F


@pytest.mark.parametrize("sampler", [random_stable_symplex, _random_real_k2,
                                     _random_block_diagonal])
def test_frequencies_match_blocks(sampler):
    # frequencies[k] is the eigenvalue pair of block k of the final:
    # +-i w for an imaginary pair, +-w for a real one
    rng = np.random.default_rng(107)
    for _ in range(100):
        res = decouple(sampler(rng), form=FORM_BLOCK_DIAGONAL)
        M = res.final.matrix
        for k, w in enumerate(res.frequencies):
            ev = np.sort_complex(np.linalg.eigvals(M[2 * k:2 * k + 2,
                                                     2 * k:2 * k + 2]))
            z = w.value * (1j if w.nature == "imaginary" else 1.0)
            want = np.sort_complex(np.array([-z, z]))
            np.testing.assert_allclose(ev, want, rtol=0, atol=1e-7)


@pytest.mark.parametrize("procedure, draw, generators", [
    (decouple_block_diagonal, random_stable_symplex, (0, 7, 9, 2)),
    (complex_low_energy, lambda rng: random_complex_symplex(rng, "low"),
     (0, 7, 9, 2, 3, 1, 7, 9, 8)),
    (complex_intermediate, lambda rng: random_complex_symplex(rng, "high"),
     (0, 7, 9, 5, 7, 9, 2, 8)),
])
def test_step_lists(procedure, draw, generators):
    # each 4x4 procedure logs its generators in the same order, skips
    # included, whatever the input
    rng = np.random.default_rng(109)
    for _ in range(200):
        res = procedure(draw(rng))
        assert tuple(s.generator for s in res.transform.steps) == generators


@pytest.mark.parametrize("branch, samples", [
    ("low", 200), ("intermediate", 200), ("high", 20)])
def test_chunked_complex_sampler_matches_its_loop(branch, samples):
    # the chunked sampler reads the loop's stream and takes the loop's
    # decisions: the same samples, and the generator left in the same
    # state.  The loop rejects about 770 candidates per "high" sample
    # (about 24 ms), so 20 of them already decide some 15,000 candidates
    # both ways; 200 would put back the time the chunks save
    chunked, loop = np.random.default_rng(109), np.random.default_rng(109)
    for _ in range(samples):
        assert np.array_equal(random_complex_symplex(chunked, branch),
                              random_complex_symplex_loop(loop, branch))
    assert chunked.bit_generator.state == loop.bit_generator.state


def test_complex_eigenvalues_rejected():
    F = 0.4 * GAMMA[4] + 0.9 * GAMMA[7]
    with pytest.raises(ComplexEigenvalues):
        decouple_block_diagonal(F)


def closed_form_block_coefficients(state: EmeqState) -> dict[str, float]:
    """Closed-form coefficients of the block-diagonal force matrix.

    Evaluated directly on the input state (pre-alignment); the pipeline
    output is authoritative and these serve as a cross-check where the
    intermediate denominators M_x = |(E.B, B.P)|, b_yz and |b| are away
    from zero.
    """
    e0, p, e, b = state.energy, state.p, state.e, state.b
    m = mass_components(state)
    bv = aux_vectors(state).b
    m_x = math.hypot(m.m_r, m.m_g)
    b2 = float(bv @ bv)
    b_norm = math.sqrt(b2)
    b_yz = math.hypot(bv[1], bv[2])
    root = math.sqrt(max(b2 - m_x**2, 0.0))
    return {
        "energy": e0 * root / b_norm,
        "p_x": (p[0] * m.m_r - e[0] * m.m_g) / m_x * root / b_yz,
        # |b|, not b^2, in the denominator: the only choice that is
        # dimensionally consistent with the other coefficients, and the
        # one the pipeline reproduces to machine precision.
        "p_z": root / (b_norm * m_x * b_yz)
               * (m.m_g * (bv[2] * e[1] - bv[1] * e[2])
                  + m.m_r * (bv[1] * p[2] - bv[2] * p[1])),
        "e_x": (b2 * (m.m_r * e[0] + m.m_g * p[0]) - e0 * bv[0] * m_x**2)
               / (m_x * b_yz * b_norm),
        "e_z": (m.m_r * (bv[1] * e[2] - bv[2] * e[1])
                + m.m_g * (bv[1] * p[2] - bv[2] * p[1])) / (m_x * b_yz),
        "b_y": (e0 * float(b @ b) - float(p @ np.cross(e, b))) / b_norm,
    }


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
    res = decouple(F, form=FORM_HAMILTONIAN)
    m = mass_components(res.final.state)
    assert abs(m.m_r) < 1e-14
    assert abs(m.m_g) < 1e-14
    assert abs(m.m_b) < 1e-14


def test_hamiltonian_form_pattern():
    rng = np.random.default_rng(109)
    for _ in range(100):
        F = random_stable_symplex(rng)
        res = decouple(F, form=FORM_HAMILTONIAN)
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
    res = decouple(state_from_coefficients(c).matrix(), form=FORM_HAMILTONIAN)
    assert all(s.skipped for s in res.transform.steps)


def test_normal_form_scaling_by_hand():
    # block [[0, 4], [-1, 0]] scales to [[0, 2], [-2, 0]]
    M = np.zeros((4, 4))
    M[0, 1], M[1, 0] = 4.0, -1.0
    M[2, 3], M[3, 2] = 1.0, -1.0
    res = decouple(M, form=FORM_NORMAL)
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
    res = decouple(M, form=FORM_NORMAL)
    assert all(s.skipped for s in res.transform.steps)


def test_normal_form_random_stable():
    rng = np.random.default_rng(113)
    for _ in range(100):
        F = random_stable_symplex(rng)
        res = decouple(F, form=FORM_NORMAL)
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
    assert decouple(M, form=FORM_HAMILTONIAN).form == FORM_HAMILTONIAN
    with pytest.raises(UnstableBlock) as err:
        decouple(M, form=FORM_NORMAL)
    assert err.value.block == 1


def test_diagonalize_constant_basis():
    # the normal form itself is diagonalized by the fixed unitary basis
    w1, w2 = 0.9, 0.4
    M = np.zeros((4, 4))
    M[0, 1], M[1, 0] = w1, -w1
    M[2, 3], M[3, 2] = w2, -w2
    res = decouple(M, form=FORM_NORMAL)
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
        res = decouple(F, form=FORM_NORMAL)
        vecs, vals = diagonalize(res)
        np.testing.assert_allclose(F @ vecs, vecs * vals, atol=1e-9)
        recon = (vecs * vals) @ np.linalg.inv(vecs)
        np.testing.assert_allclose(recon.imag, 0.0, atol=1e-9)
        np.testing.assert_allclose(recon.real, F, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_diagonalize_rejects_a_perturbed_transform(n):
    # the eigen decomposition is checked: one entry of R off by 1e-6
    # relative leaves a residual far above 1e-9 times the source's scale
    res = decouple(random_test_symplex(n, 0), form=FORM_NORMAL)
    diagonalize(res)
    r = res.transform.r.copy()
    r[0, 0] *= 1.0 + 1e-6
    bad = replace(res, transform=SymplecticTransform(r, res.transform.steps))
    with pytest.raises(PrecisionLoss, match="eigen decomposition"):
        diagonalize(bad)


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


@pytest.mark.parametrize("form", [FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN,
                                  FORM_NORMAL])
def test_decouple_routes_high_energy_quadruple_to_intermediate(form):
    # K2 < 0 and energy^2 >= max(P^2, E^2): decouple is
    # complex_intermediate, bit for bit, whatever form is asked for
    rng = np.random.default_rng(173)
    for _ in range(10):
        F = random_complex_symplex(rng, "high")
        res, ref = decouple(F, form=form), complex_intermediate(F)
        np.testing.assert_array_equal(res.transform.r, ref.transform.r)
        np.testing.assert_array_equal(res.final.matrix, ref.final.matrix)
        assert res.form == ref.form == FORM_COMPLEX_CANONICAL
        assert res.complex_radius == ref.complex_radius


@pytest.mark.parametrize("n", [1, 3, 5, 8])
@pytest.mark.parametrize("form", [FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN,
                                  FORM_NORMAL])
def test_decouple_2n_is_jacobi(n, form):
    # every n != 2 is the Jacobi iteration (its block stage, then
    # jacobi_decouple's Hamiltonian pass and, built here, the scaling of
    # each block [[0, a], [-b, 0]] by the rapidity log(a/b)/2), bit for
    # bit, and the result carries its iteration counters
    F = random_test_symplex(n, 5).matrix
    res = decouple(F, form=form, jacobi_tol=1e-11, max_steps=500)
    block = jacobi._block_stage(Symplex(F), 1e-11, 500)
    if form == FORM_BLOCK_DIAGONAL:
        transform, out, stats = block.transform, block.final, block.stats
    else:
        transform, out, stats = jacobi_decouple(F, tol=1e-11, max_steps=500)
    # the block stage reads one frequency per block from its final and the
    # Hamiltonian pass carries them; the normal form reads its own
    final, freqs = out.matrix, _block_frequencies(block.final.matrix)
    if form == FORM_NORMAL:
        freqs = _block_frequencies(final)
        scaling = dof_transform(DOF_SCALING, [
            0.5 * math.log(final[2 * k, 2 * k + 1] / -final[2 * k + 1, 2 * k])
            for k in range(n)])
        final = scaling.r @ final @ scaling.rinv
        transform = compose(scaling, transform)
    assert res.form == form
    assert isinstance(res.final, Symplex) and res.final.n == n
    np.testing.assert_array_equal(res.final.matrix, final)
    np.testing.assert_array_equal(res.transform.r, transform.r)
    np.testing.assert_array_equal(res.transform.rinv, transform.rinv)
    assert res.transform.steps == transform.steps
    assert res.stats == stats
    # the residual is the largest entry off the reached pattern, as for a
    # 4x4; Jacobi's relative measure stays in the stats
    assert res.residual == off_pattern_max(final, form)
    assert res.stats.final_residual == block.stats.residuals[-1]
    assert res.invariants is None and res.frequencies == freqs
    np.testing.assert_array_equal(res.source, F)
    # the later stages serve every n
    if form == FORM_BLOCK_DIAGONAL:
        ham = decouple(F, form=FORM_HAMILTONIAN, jacobi_tol=1e-11,
                       max_steps=500)
        t, out, _ = jacobi_decouple(F, tol=1e-11, max_steps=500)
        np.testing.assert_array_equal(ham.transform.r, t.r)
        assert ham.transform.steps == t.steps
        np.testing.assert_array_equal(ham.final.matrix, out.matrix)
    elif form == FORM_NORMAL:
        vecs, vals = diagonalize(res)
        assert np.linalg.norm(F @ vecs - vecs * vals) <= \
            1e-9 * max(1.0, np.linalg.norm(F))


def test_decouple_2n_bad_form_before_any_pivot(monkeypatch):
    def no_pivot(*args, **kwargs):
        raise AssertionError("Jacobi block stage reached")
    monkeypatch.setattr(jacobi, "_block_stage", no_pivot)
    with pytest.raises(ValueError, match="bogus"):
        decouple(random_test_symplex(3, 0).matrix, form="bogus")


def test_decouple_evaluates_invariants_once(monkeypatch):
    calls = []

    def counting(state):
        calls.append(state)
        return spectral_invariants(state)
    monkeypatch.setattr(emeq, "spectral_invariants", counting)
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


@pytest.mark.parametrize("n", [2, 3])
def test_overflowing_identity_is_no_symplex(n):
    # ||1e200 I||_F overflows; the identity is still no symplex
    F = 1e200 * np.eye(2 * n)
    for call in (Symplex.from_matrix, decouple):
        with pytest.raises(NotASymplex, match="residual"):
            call(F)


# symplices whose invariants overflow: K1 beyond 1e308 (the 4x4 cases)
# or, for the 6x6 at 1e80, K2 = O(coefficient^4) alone; the 6x6 inputs
# reach the invariants of their first Jacobi pivot
OVERFLOWING = {
    "4x4@1e160": 1e160 * GAMMA[0],
    "4x4@1e200": 1e200 * GAMMA[0],
    "6x6@1e80": 1e80 * random_test_symplex(3, 0).matrix,
    "6x6@1e200": 1e200 * random_test_symplex(3, 0).matrix,
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_invariants_raise_precision_loss(name):
    # warnings are errors here, so no RuntimeWarning may precede the error
    F = OVERFLOWING[name]
    for form in (FORM_BLOCK_DIAGONAL, FORM_NORMAL):
        with pytest.raises(PrecisionLoss, match="invariants overflow"):
            decouple(F, form=form)
    if F.shape == (4, 4):
        with pytest.raises(PrecisionLoss, match="invariants overflow"):
            Symplex.from_matrix(F).invariants
    else:
        with pytest.raises(PrecisionLoss, match="invariants overflow"):
            jacobi_decouple(F)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("form", [FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN,
                                  FORM_NORMAL])
def test_residual_is_off_pattern_max(n, form):
    # one meaning for every n: the largest entry of final off the pattern
    for seed in range(3):
        res = decouple(random_test_symplex(n, seed).matrix, form=form)
        assert res.form == form
        assert res.residual == off_pattern_max(res.final.matrix, form)
        assert res.residual <= 1e-10 * np.linalg.norm(res.final.matrix)


def test_stages_check_only_the_blocks_they_set():
    # a loose Jacobi tolerance leaves off-block entries far above
    # POST_TOL; the per-dof stages still reach their forms, and the
    # residual reports what is left
    F = random_test_symplex(3, 0).matrix
    res = decouple(F, form=FORM_NORMAL, jacobi_tol=1e-8)
    assert res.form == FORM_NORMAL
    M = res.final.matrix
    assert off_block_max(M) > 1e-8
    assert res.residual == off_pattern_max(M, FORM_NORMAL)
    blocks = np.zeros_like(M)
    for k in range(0, M.shape[0], 2):
        blocks[k:k + 2, k:k + 2] = M[k:k + 2, k:k + 2]
    assert off_pattern_max(blocks, FORM_NORMAL) <= 1e-12


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



@pytest.mark.parametrize("c", [1e-4, 1.0, 1e4])
def test_rotate_skips_targets_within_noise(c):
    pipe = _Pipeline(Symplex(random_symplex(np.random.default_rng(3)) * c))
    noise = pipe.noise(2)
    assert noise == pytest.approx(
        np.finfo(float).eps / 2 * float(np.dot(pipe.f, pipe.f)))
    # both noise, den < 0: atan2 would turn by the sign of a rounding error
    pipe.rotate(0, 0.5 * noise, -0.1 * noise, 2)
    # a target below STEP_TOL against its reference
    pipe.rotate(0, 3.0 * noise, -1e3 * noise / 1e-14, 2)
    # a quarter turn asked for, its reference noise
    pipe.rotate(0, 0.5 * noise, -0.5 * noise, 2, 0.5, turn=True)
    assert [s.skipped for s in pipe.steps] == [True, True, True]
    pipe.rotate(0, 3.0 * noise, -0.1 * noise, 2)
    assert not pipe.steps[-1].skipped


def equal_frequency_symplex(rng, sense):
    """Two unit frequencies (same or opposite sense) in normal form,
    conjugated by six random generators: K2 = 0, so the auxiliary b_y and
    E.B that the block stage's boost divides are both rounding noise."""
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0], F[2, 3], F[3, 2] = 1.0, -1.0, sense, -sense
    for _ in range(6):
        t = basic_transform(int(rng.integers(10)), float(rng.normal(0, 0.7)))
        F = apply_similarity(t, F)
    return F


def test_equal_frequencies_take_no_noise_boost():
    # a boost guard relative to b_y alone boosted by atanh(noise / noise)
    # or raised ComplexEigenvalues on 16 of these 100 decouplings
    rng, decoupled = np.random.default_rng(5), 0
    for k in range(50):
        F = equal_frequency_symplex(rng, (-1.0) ** k)
        try:
            res = decouple_block_diagonal(F)
        except DegenerateB:
            continue  # b has no direction when the frequencies are equal
        boost = res.transform.steps[3]
        assert boost.generator == 2 and boost.skipped
        assert res.residual <= 1e-12
        decoupled += 1
    assert decoupled >= 5
