import numpy as np
import pytest

from symdec.dirac import (GAMMA, from_coefficients, gamma, gamma_signature,
                          is_cosymplex, is_symplex, rdm_coefficients,
                          symplectic_unit, symplex_cosymplex_split,
                          symplex_residual)

from conftest import random_symplex

I4 = np.eye(4)


def test_basis_product_identities_exact():
    g = GAMMA
    products = {
        4: g[0] @ g[1], 5: g[0] @ g[2], 6: g[0] @ g[3],
        7: g[14] @ g[0] @ g[1], 8: g[14] @ g[0] @ g[2],
        9: g[14] @ g[0] @ g[3],
        10: g[14] @ g[0], 11: g[14] @ g[1], 12: g[14] @ g[2],
        13: g[14] @ g[3], 14: g[0] @ g[1] @ g[2] @ g[3],
    }
    for k, expected in products.items():
        assert np.array_equal(g[k], expected), f"gamma({k})"
    # alternative product forms
    assert np.array_equal(g[7], g[2] @ g[3])
    assert np.array_equal(g[8], g[3] @ g[1])
    assert np.array_equal(g[9], g[1] @ g[2])
    assert np.array_equal(g[10], g[1] @ g[2] @ g[3])
    assert np.array_equal(g[11], g[0] @ g[2] @ g[3])
    assert np.array_equal(g[12], g[0] @ g[3] @ g[1])
    assert np.array_equal(g[13], g[0] @ g[1] @ g[2])
    assert np.array_equal(g[15], I4)


def test_symplectic_unit_block_structure():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    want = np.zeros((4, 4))
    want[:2, :2] = j
    want[2:, 2:] = j
    np.testing.assert_array_equal(gamma(0), want)
    np.testing.assert_array_equal(symplectic_unit(2), want)
    np.testing.assert_array_equal(symplectic_unit(1), j)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_symplectic_unit_cached_and_read_only(n):
    g0 = symplectic_unit(n)
    assert symplectic_unit(n) is g0
    assert not g0.flags.writeable
    with pytest.raises(ValueError):
        g0[0, 1] = 2.0


def test_basic_matrices_anticommute_exactly():
    for i in range(4):
        for j in range(4):
            if i != j:
                anti = GAMMA[i] @ GAMMA[j] + GAMMA[j] @ GAMMA[i]
                assert np.array_equal(anti, np.zeros((4, 4)))


def test_squares_and_signature():
    # rotations square to -1, boosts to +1
    expected = {0: -1, 7: -1, 8: -1, 9: -1}
    expected.update({k: 1 for k in range(1, 7)})
    for k, sign in expected.items():
        assert gamma_signature(k) == sign
        assert np.array_equal(GAMMA[k] @ GAMMA[k], sign * I4)
    for k in range(16):
        assert np.array_equal(GAMMA[k] @ GAMMA[k], gamma_signature(k) * I4)


def test_gamma_index_range():
    with pytest.raises(IndexError):
        gamma(16)
    with pytest.raises(IndexError):
        gamma(-1)


def test_basis_split_into_symplices_and_cosymplices():
    for k in range(10):
        assert is_symplex(GAMMA[k], tol=1e-12)
        assert not is_cosymplex(GAMMA[k], tol=1e-12)
    for k in range(10, 16):
        assert is_cosymplex(GAMMA[k], tol=1e-12)
        assert not is_symplex(GAMMA[k], tol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_symplex_needs_finite_entries(bad):
    M = GAMMA[0].copy()
    M[0, 1] = bad
    assert not is_symplex(M, tol=1e300)
    # a norm that overflows on finite entries is no reason to refuse
    assert is_symplex(1e200 * GAMMA[0])


@pytest.mark.parametrize("n", [2, 3])
def test_overflowing_norm_still_checked(n):
    # ||M||_F overflows for these entries; the test rescales M by a power
    # of two (exactly) instead of comparing against an infinite bound
    big = 1e200 * np.eye(2 * n)
    assert not is_symplex(big)
    assert is_cosymplex(big)
    assert symplex_residual(big) == pytest.approx(2e200 * np.sqrt(2 * n),
                                                  rel=1e-15)
    g0 = 1e200 * symplectic_unit(n)
    assert is_symplex(g0) and not is_cosymplex(g0)
    assert symplex_residual(g0) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_symplex_residual_beyond_float_range_is_inf(n):
    # 2 sqrt(2n) 1.7e308 has no float: inf, as symplectic_residual gives,
    # not an OverflowError
    big = 1.7e308 * np.eye(2 * n)
    assert symplex_residual(big) == np.inf
    assert not is_symplex(big)


def test_coefficients_of_extreme_entries_without_overflow():
    # every coefficient of 1.7e308 gamma(0) is finite: the 1/4 is applied
    # before the sums (warnings are errors here), exactly
    c = rdm_coefficients(1.7e308 * GAMMA[0])
    assert c[0] == 1.7e308 and not c[1:].any()
    F = random_symplex(np.random.default_rng(5))
    assert np.array_equal(rdm_coefficients(F) * 2.0 ** 1000,
                          rdm_coefficients(F * 2.0 ** 1000))


def test_coefficients_of_basis_elements():
    for k in range(16):
        c = rdm_coefficients(GAMMA[k])
        expected = np.zeros(16)
        expected[k] = 1.0
        np.testing.assert_allclose(c, expected, atol=1e-15)


def test_roundtrip_coefficients_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        M = rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            from_coefficients(rdm_coefficients(M)), M, atol=1e-13)
        c = rng.standard_normal(16)
        np.testing.assert_allclose(
            rdm_coefficients(from_coefficients(c)), c, atol=1e-13)


def test_symplex_from_symmetric_matrix():
    rng = np.random.default_rng(21)
    g0 = symplectic_unit(2)
    for _ in range(50):
        A = rng.standard_normal((4, 4))
        A = (A + A.T) / 2.0
        assert is_symplex(g0 @ A, tol=1e-12)
    # 2n version too
    g0 = symplectic_unit(3)
    A = rng.standard_normal((6, 6))
    A = (A + A.T) / 2.0
    assert is_symplex(g0 @ A, tol=1e-12)


def test_symplex_coefficients_pure():
    # combinations of the first ten basis elements are symplices
    rng = np.random.default_rng(3)
    F = random_symplex(rng)
    assert is_symplex(F, tol=1e-12)
    coeffs = rdm_coefficients(F)
    assert np.max(np.abs(coeffs[10:])) < 1e-14


def test_closure_under_products():
    rng = np.random.default_rng(11)
    for _ in range(30):
        s1, s2 = random_symplex(rng), random_symplex(rng)
        c1 = from_coefficients(np.concatenate(
            (np.zeros(10), rng.uniform(-1, 1, 6))))
        c2 = from_coefficients(np.concatenate(
            (np.zeros(10), rng.uniform(-1, 1, 6))))
        assert is_symplex(s1 @ s2 - s2 @ s1, tol=1e-12)
        assert is_cosymplex(s1 @ s2 + s2 @ s1, tol=1e-12)
        assert is_symplex(c1 @ c2 - c2 @ c1, tol=1e-12)
        assert is_cosymplex(c1 @ c2 + c2 @ c1, tol=1e-12)
        assert is_symplex(c1 @ s1 + s1 @ c1, tol=1e-12)
        assert is_cosymplex(c1 @ s1 - s1 @ c1, tol=1e-12)


def test_split_reconstructs_and_classifies():
    rng = np.random.default_rng(5)
    for _ in range(30):
        M = rng.standard_normal((4, 4))
        Ms, Mc = symplex_cosymplex_split(M)
        np.testing.assert_allclose(Ms + Mc, M, atol=1e-14)
        assert is_symplex(Ms, tol=1e-12)
        assert is_cosymplex(Mc, tol=1e-12)


def test_split_of_symplex_is_identity():
    rng = np.random.default_rng(6)
    F = random_symplex(rng)
    Ms, Mc = symplex_cosymplex_split(F)
    np.testing.assert_allclose(Ms, F, atol=1e-14)
    np.testing.assert_allclose(Mc, 0.0, atol=1e-14)


def test_split_of_symplectic_matrix_matches_inverse_form():
    from symdec.transform import matrix_exponential
    rng = np.random.default_rng(8)
    F = random_symplex(rng, scale=0.4)
    M = matrix_exponential(F, 1.0).matrix
    Ms, Mc = symplex_cosymplex_split(M)
    Minv = np.linalg.inv(M)
    np.testing.assert_allclose(Ms, (M - Minv) / 2.0, atol=1e-12)
    np.testing.assert_allclose(Mc, (M + Minv) / 2.0, atol=1e-12)
