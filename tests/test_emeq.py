import numpy as np
import pytest

from symdec.dirac import GAMMA, rdm_coefficients
from symdec.emeq import (CLASS_COMPLEX_QUADRUPLE, CLASS_TWO_IMAGINARY_PAIRS,
                         Symplex, aux_vectors, emeq_from_symplex,
                         lax_invariants, mass_components, spectral_invariants,
                         state_from_coefficients)
from symdec.errors import NotASymplex
from symdec.jacobi import random_test_symplex
from symdec.transform import apply_similarity, basic_transform

from conftest import (cyclotron_force_matrix, random_stable_symplex,
                      random_symplex, random_symplex_coefficients)


def test_extraction_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = random_symplex_coefficients(rng)
        state = state_from_coefficients(c)
        F = state.matrix()
        back = emeq_from_symplex(F)
        np.testing.assert_allclose(back.coefficients, c, atol=1e-13)


def test_extraction_from_symmetric_product():
    rng = np.random.default_rng(4)
    from symdec.dirac import symplectic_unit
    A = rng.standard_normal((4, 4))
    A = (A + A.T) / 2.0
    F = symplectic_unit(2) @ A
    state = emeq_from_symplex(F)
    np.testing.assert_allclose(state.matrix(), F, atol=1e-13)


def test_pure_phase_rotation_state():
    omega = 0.37
    state = emeq_from_symplex(omega * GAMMA[0])
    assert state.energy == pytest.approx(omega, abs=1e-15)
    np.testing.assert_allclose(
        np.concatenate((state.p, state.e, state.b)), 0.0, atol=1e-15)


def test_not_a_symplex_rejected():
    with pytest.raises(NotASymplex):
        emeq_from_symplex(np.eye(4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplex_validates(n):
    # one check for every 2n: the identity is no symplex, an odd shape no
    # 2n x 2n matrix, and a symplex is kept as given
    with pytest.raises(NotASymplex):
        Symplex.from_matrix(np.eye(2 * n))
    with pytest.raises(ValueError):
        Symplex.from_matrix(np.zeros((2 * n + 1, 2 * n + 1)))
    F = random_test_symplex(n, 0).matrix
    sym = Symplex.from_matrix(F)
    assert sym.n == n and sym.matrix is F


def test_mass_components_direct():
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = state_from_coefficients(random_symplex_coefficients(rng))
        m = mass_components(state)
        assert m.m_r == pytest.approx(np.dot(state.e, state.b), abs=1e-14)
        assert m.m_g == pytest.approx(np.dot(state.b, state.p), abs=1e-14)
        assert m.m_b == pytest.approx(np.dot(state.e, state.p), abs=1e-14)


def test_mass_components_orthogonal_vectors():
    state = state_from_coefficients(
        np.array([0.5, 1, 0, 0, 0, 2, 0, 0, 0, 3], dtype=float))
    m = mass_components(state)
    assert m.m_r == m.m_g == m.m_b == 0.0


def test_aux_vectors_degenerate():
    # P = E = 0 leaves only b = energy * B
    state = state_from_coefficients(
        np.array([2.0, 0, 0, 0, 0, 0, 0, 0.3, -0.1, 0.7]))
    a = aux_vectors(state)
    np.testing.assert_allclose(a.r, 0.0, atol=1e-15)
    np.testing.assert_allclose(a.g, 0.0, atol=1e-15)
    np.testing.assert_allclose(a.b, 2.0 * state.b, atol=1e-15)


def test_k2_two_forms_agree():
    rng = np.random.default_rng(13)
    for _ in range(200):
        state = state_from_coefficients(random_symplex_coefficients(rng))
        e0, p, e, b = state.energy, state.p, state.e, state.b
        k2_long = (-2.0 * e0 * p @ np.cross(e, b) + e0**2 * (b @ b)
                   + (e @ e) * (p @ p) - (e @ p)**2 - (e @ b)**2
                   - (p @ b)**2)
        inv = spectral_invariants(state)
        assert inv.k2 == pytest.approx(k2_long, abs=1e-12, rel=1e-12)
        # aux-vector form
        m = mass_components(state)
        bv = aux_vectors(state).b
        assert inv.k2 == pytest.approx(
            bv @ bv - m.m_r**2 - m.m_g**2, abs=1e-12, rel=1e-12)


def test_invariants_against_eigenvalue_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        F = random_stable_symplex(rng)
        inv = spectral_invariants(emeq_from_symplex(F))
        ev = np.linalg.eigvals(F)
        w = np.sort(np.abs(ev.imag))
        assert inv.classification == CLASS_TWO_IMAGINARY_PAIRS
        assert inv.stable
        got = sorted([inv.omega1.value, inv.omega2.value])
        np.testing.assert_allclose(got, [w[0], w[2]], rtol=1e-9)
        assert inv.det == pytest.approx(np.linalg.det(F), rel=1e-9)


def test_complex_quadruple_classification():
    # E_x g4 + B_x g7 has eigenvalues +-i(B_x +- i E_x)
    F = 0.4 * GAMMA[4] + 0.9 * GAMMA[7]
    inv = spectral_invariants(emeq_from_symplex(F))
    assert inv.k2 < 0.0
    assert inv.classification == CLASS_COMPLEX_QUADRUPLE
    assert inv.omega1 is None and inv.omega2 is None
    ev = np.linalg.eigvals(F)
    np.testing.assert_allclose(
        np.sort(np.abs(ev)), np.hypot(0.4, 0.9) * np.ones(4), rtol=1e-12)


def test_zero_symplex_invariants():
    inv = spectral_invariants(emeq_from_symplex(np.zeros((4, 4))))
    assert inv.k1 == 0.0 and inv.k2 == 0.0
    assert inv.degenerate


def test_normal_form_frequencies_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(50):
        w1, w2 = np.sort(rng.uniform(0.1, 2.0, size=2))[::-1]
        c = np.zeros(10)
        c[0] = (w1 + w2) / 2.0
        c[8] = (w1 - w2) / 2.0
        inv = spectral_invariants(state_from_coefficients(c))
        assert inv.omega1.value == pytest.approx(w1, rel=1e-12)
        assert inv.omega2.value == pytest.approx(w2, rel=1e-12)
        assert inv.omega1.nature == inv.omega2.nature == "imaginary"


def test_invariants_preserved_by_elementary_transforms():
    rng = np.random.default_rng(29)
    for _ in range(100):
        F = random_symplex(rng)
        inv0 = spectral_invariants(emeq_from_symplex(F))
        lax0 = lax_invariants(F)
        b = rng.integers(0, 10)
        eps = rng.uniform(-1.0, 1.0)
        Ft = apply_similarity(basic_transform(b, eps), F)
        inv1 = spectral_invariants(emeq_from_symplex(Ft, tol=1e-8))
        lax1 = lax_invariants(Ft)
        scale = max(1.0, abs(inv0.k1), abs(inv0.k2))
        assert abs(inv1.k1 - inv0.k1) < 1e-9 * scale
        assert abs(inv1.k2 - inv0.k2) < 1e-9 * scale
        assert abs(inv1.det - inv0.det) < 1e-9 * max(1.0, abs(inv0.det))
        np.testing.assert_allclose(lax1, lax0, atol=1e-9 * scale)


def test_mass_transformation_table():
    """Transformed mass components for all seven generator rows."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        c = random_symplex_coefficients(rng)
        state = state_from_coefficients(c)
        F = state.matrix()
        m = mass_components(state)
        a = aux_vectors(state)
        b = int(rng.integers(0, 7))
        eps = rng.uniform(-1.5, 1.5)
        Ft = apply_similarity(basic_transform(b, eps), F)
        mt = mass_components(emeq_from_symplex(Ft, tol=1e-8))
        if b == 0:
            ce, se = np.cos(eps), np.sin(eps)
            c2, s2 = np.cos(2 * eps), np.sin(2 * eps)
            expected = (m.m_r * ce + m.m_g * se,
                        m.m_g * ce - m.m_r * se,
                        m.m_b * c2
                        + (state.p @ state.p - state.e @ state.e) / 2.0 * s2)
        elif b in (1, 2, 3):
            ch, sh = np.cosh(eps), np.sinh(eps)
            i = b - 1
            expected = (m.m_r * ch - a.b[i] * sh, m.m_g,
                        m.m_b * ch - a.r[i] * sh)
        else:
            ch, sh = np.cosh(eps), np.sinh(eps)
            i = b - 4
            expected = (m.m_r, m.m_g * ch + a.b[i] * sh,
                        m.m_b * ch + a.g[i] * sh)
        np.testing.assert_allclose((mt.m_r, mt.m_g, mt.m_b), expected,
                                   atol=1e-10, rtol=1e-10)


def test_masses_invariant_under_spatial_rotations():
    rng = np.random.default_rng(37)
    for _ in range(60):
        state = state_from_coefficients(random_symplex_coefficients(rng))
        F = state.matrix()
        m = mass_components(state)
        a = aux_vectors(state)
        b = int(rng.integers(7, 10))
        eps = rng.uniform(-3.0, 3.0)
        st = emeq_from_symplex(
            apply_similarity(basic_transform(b, eps), F), tol=1e-8)
        mt = mass_components(st)
        at = aux_vectors(st)
        np.testing.assert_allclose(
            (mt.m_r, mt.m_g, mt.m_b), (m.m_r, m.m_g, m.m_b), atol=1e-12)
        for before, after in ((a.r, at.r), (a.g, at.g), (a.b, at.b)):
            assert np.linalg.norm(after) == pytest.approx(
                np.linalg.norm(before), abs=1e-12)


def test_lax_invariants_structure():
    rng = np.random.default_rng(41)
    for _ in range(100):
        F = random_symplex(rng)
        i1, i2, i3, i4 = lax_invariants(F)
        inv = spectral_invariants(emeq_from_symplex(F))
        assert abs(i1) < 1e-10
        assert abs(i3) < 1e-10
        scale = max(1.0, abs(inv.k1), abs(inv.k2))
        assert i2 == pytest.approx(-4.0 * inv.k1, abs=1e-9 * scale)
        assert i4 == pytest.approx(4.0 * (inv.k1**2 + 4.0 * inv.k2),
                                   abs=1e-9 * max(1.0, scale**2))


def test_lax_invariants_zero_matrix():
    assert lax_invariants(np.zeros((4, 4))) == (0.0, 0.0, 0.0, 0.0)


def test_squared_symplex_expansion():
    # F^2 = -K1 + 2 M_r g14 + 2 M_g g10 + 2 b . (g11, g12, g13)
    rng = np.random.default_rng(43)
    for _ in range(200):
        state = state_from_coefficients(random_symplex_coefficients(rng))
        F = state.matrix()
        inv = spectral_invariants(state)
        m = mass_components(state)
        bv = aux_vectors(state).b
        expected = np.zeros(16)
        expected[15] = -inv.k1
        expected[14] = 2.0 * m.m_r
        expected[10] = 2.0 * m.m_g
        expected[11:14] = 2.0 * bv
        np.testing.assert_allclose(rdm_coefficients(F @ F), expected,
                                   atol=1e-10)


def test_fourth_power_expansion():
    # S^4 = (K1^2 + 4 K2) - 4 K1 (M_g g10 + M_r g14 + b . (g11, g12, g13))
    rng = np.random.default_rng(47)
    for _ in range(200):
        state = state_from_coefficients(random_symplex_coefficients(rng))
        S = state.matrix()
        inv = spectral_invariants(state)
        m = mass_components(state)
        bv = aux_vectors(state).b
        expected = np.zeros(16)
        expected[15] = inv.k1**2 + 4.0 * inv.k2
        expected[14] = -4.0 * inv.k1 * m.m_r
        expected[10] = -4.0 * inv.k1 * m.m_g
        expected[11:14] = -4.0 * inv.k1 * bv
        S2 = S @ S
        np.testing.assert_allclose(rdm_coefficients(S2 @ S2), expected,
                                   atol=1e-10)


def test_cyclotron_state_matches_model_formulas():
    gamma, h, dk, kz = 1.05, 0.03, 0.02, 0.01
    F = cyclotron_force_matrix(gamma, h, dk, kz)
    state = emeq_from_symplex(F)
    g2 = gamma**2
    assert state.energy == pytest.approx(
        0.25 * (1 + dk + 1 / g2 - g2 * kz), abs=1e-14)
    np.testing.assert_allclose(
        state.p, [0.25 * (-1 + dk + 1 / g2 + g2 * kz), 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(
        state.e, [0.0, -h / 2, 0.25 * (1 - dk + 1 / g2 + g2 * kz)],
        atol=1e-14)
    np.testing.assert_allclose(
        state.b, [0.0, 0.25 * (1 + dk - 1 / g2 + g2 * kz), -h / 2],
        atol=1e-14)
    m = mass_components(state)
    assert m.m_r == pytest.approx(-(h / 4) * (1 + kz * g2), abs=1e-14)
    assert m.m_g == 0.0
    assert m.m_b == 0.0
    a = aux_vectors(state)
    # b lies in the y-z plane, r along x, g in the y-z plane
    np.testing.assert_allclose(
        a.b, [0.0, (kz + dk) / 4, h * (g2 * kz - 1) / 4], atol=1e-14)
    np.testing.assert_allclose(a.r[1:], 0.0, atol=1e-14)
    assert a.r[0] == pytest.approx(
        (dk + gamma**4 * kz - g2 * h**2) / (4 * g2), abs=1e-14)
    assert a.g[0] == pytest.approx(0.0, abs=1e-14)
    assert a.g[1] == pytest.approx((h / 4) * (kz * g2 - 1), abs=1e-14)
    assert a.g[2] == pytest.approx(
        (1 + gamma**4 * dk * kz) / (4 * g2), abs=1e-14)
