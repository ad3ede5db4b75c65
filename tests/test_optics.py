import numpy as np
import pytest

from symdec.dirac import symplectic_unit, symplex_cosymplex_split
from symdec.emeq import emeq_from_symplex, lax_invariants, spectral_invariants
from symdec.errors import NotSymplectic, UnstableSystem
from symdec.optics import (SigmaMatrix, analyze_one_turn,
                           cosymplex_observable_forms,
                           cosymplex_observable_rates, effective_force,
                           matched_sigma, propagate_sigma, rdm_expectations,
                           spinor_observables)
from symdec.transform import TransferMatrix, matrix_exponential

from conftest import (random_stable_symplex, random_symplex,
                      random_symplex_coefficients)


def normal_form(w1, w2):
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = w1, -w1
    F[2, 3], F[3, 2] = w2, -w2
    return F


def test_identity_matrix_tunes_zero():
    report = analyze_one_turn(np.eye(4), tau=1.0)
    assert report.tunes == (0.0, 0.0)
    assert all(b.branch_ambiguous for b in report.blocks)
    assert not report.stable


def test_not_symplectic_rejected():
    with pytest.raises(NotSymplectic):
        analyze_one_turn(np.diag([2.0, 1.0, 1.0, 1.0]))


def test_overflowing_ring_not_symplectic():
    # residual inf against tol * ||M||_F = 2e192: once "unstable", cosine 1e200
    with pytest.raises(NotSymplectic, match="residual inf"):
        analyze_one_turn(1e200 * np.eye(4))


def test_wide_symplectic_ring_analyzed():
    # exactly symplectic with ||M||_F^2 beyond the float range: analyzed
    # without a warning (warnings are errors here)
    report = analyze_one_turn(np.diag([1e200, 1e-200, 1e200, 1e-200]))
    assert report.symplectic_residual == 0.0 and not report.stable


def test_forward_generated_tunes_recovered():
    w1, w2, tau = 0.3, 0.7, 1.0
    M = matrix_exponential(normal_form(w1, w2), tau).matrix
    report = analyze_one_turn(M, tau=tau)
    assert report.blocks[0].cosine == pytest.approx(np.cos(w1), abs=1e-9)
    assert report.blocks[1].cosine == pytest.approx(np.cos(w2), abs=1e-9)
    assert report.blocks[0].omega == pytest.approx(w1, abs=1e-9)
    assert report.blocks[1].omega == pytest.approx(w2, abs=1e-9)
    assert report.stable


def test_coupled_random_tunes_match_oracle():
    rng = np.random.default_rng(61)
    for _ in range(50):
        F = random_stable_symplex(rng)
        tau = rng.uniform(0.2, 0.9)
        M = matrix_exponential(F, tau).matrix
        report = analyze_one_turn(M, tau=tau)
        inv = spectral_invariants(emeq_from_symplex(F))
        want = sorted([np.cos(inv.omega1.value * tau),
                       np.cos(inv.omega2.value * tau)])
        got = sorted(report.tune_cosines)
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert report.symplex_offblock_residual < 1e-8
        assert report.cosymplex_offblock_residual < 1e-8


def test_cyclotron_tunes_cross_module():
    # the cyclotron model is irregular: one oscillating and one
    # hyperbolic pair; the analysis must classify both correctly
    from conftest import cyclotron_force_matrix
    F = cyclotron_force_matrix(1.05, 0.03, 0.02, 0.01)
    tau = 1.0
    M = matrix_exponential(F, tau).matrix
    report = analyze_one_turn(M, tau=tau)
    inv = spectral_invariants(emeq_from_symplex(F))
    assert inv.omega1.nature == "imaginary"
    assert inv.omega2.nature == "real"
    natures = sorted(b.nature for b in report.blocks)
    assert natures == ["imaginary", "real"]
    osc = next(b for b in report.blocks if b.nature == "imaginary")
    hyp = next(b for b in report.blocks if b.nature == "real")
    assert osc.omega == pytest.approx(inv.omega1.value, abs=1e-9)
    assert hyp.cosine == pytest.approx(np.cosh(inv.omega2.value * tau),
                                       abs=1e-9)
    assert not report.stable


def test_matched_sigma_round_ring():
    M = matrix_exponential(normal_form(0.4, 1.1), 1.0).matrix
    sigma = matched_sigma(M, (1.0, 1.0))
    np.testing.assert_allclose(sigma.matrix, np.eye(4), atol=1e-12)
    sigma = matched_sigma(M, (2.0, 3.0))
    np.testing.assert_allclose(sigma.matrix, np.diag([2., 2., 3., 3.]),
                               atol=1e-12)


def test_matched_sigma_coupled():
    rng = np.random.default_rng(71)
    g0 = symplectic_unit(2)
    for _ in range(50):
        F = random_stable_symplex(rng)
        M = matrix_exponential(F, 0.7).matrix
        emit = rng.uniform(0.5, 3.0, size=2)
        sigma = matched_sigma(M, emit).matrix
        # fixed point, symmetry, positivity
        assert np.max(np.abs(M @ sigma @ M.T - sigma)) < 1e-8
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(sigma)) > 0.0
        # S = sigma g0 commutes with M
        S = sigma @ g0
        assert np.max(np.abs(M @ S - S @ M)) < 1e-8


def test_matched_sigma_unstable_rejected():
    # defocusing block: real eigenvalue pair
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = 1.0, -1.0
    F[2, 3], F[3, 2] = 1.0, 1.0
    M = matrix_exponential(F, 1.0).matrix
    with pytest.raises(UnstableSystem):
        matched_sigma(M, (1.0, 1.0))


@pytest.mark.parametrize("emit", [(-1.0, 2.0), (float("nan"), 1.0),
                                  (0.0, 1.0)])
def test_matched_sigma_checks_emittances_before_stability(emit):
    # the same ValueError as on a stable ring, not UnstableSystem
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = 1.0, -1.0
    F[2, 3], F[3, 2] = 1.0, 1.0
    M = matrix_exponential(F, 1.0).matrix
    with pytest.raises(ValueError, match="emittances"):
        matched_sigma(M, emit)


def test_matched_sigma_identity_rejected():
    with pytest.raises(UnstableSystem):
        matched_sigma(np.eye(4), (1.0, 1.0))


@pytest.mark.parametrize("emit", [(0.0, 1.0), (-1.0, 1.0),
                                  (float("nan"), 1.0), (1.0, float("inf"))])
def test_matched_sigma_rejects_bad_emittances(emit):
    M = matrix_exponential(normal_form(0.3, 0.7), 1.0).matrix
    with pytest.raises(ValueError, match="emittances"):
        matched_sigma(M, emit)


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_period_rejected(tau):
    tm = matrix_exponential(normal_form(0.3, 0.7), 1.0)
    carried = TransferMatrix(matrix=tm.matrix, tau=tau,
                             symplectic_residual=tm.symplectic_residual)
    for call in (lambda: analyze_one_turn(tm.matrix, tau=tau),
                 lambda: analyze_one_turn(tm, tau=tau),
                 lambda: analyze_one_turn(carried),
                 lambda: matched_sigma(tm.matrix, (1.0, 1.0), tau=tau),
                 lambda: effective_force(tm.matrix, tau=tau)):
        with pytest.raises(ValueError, match="tau"):
            call()


def test_effective_force_identity():
    eff = effective_force(np.eye(4), tau=1.0)
    np.testing.assert_allclose(eff.matrix, 0.0, atol=1e-14)
    assert all(eff.branch_ambiguous)


def test_effective_force_roundtrip_normal_form():
    w1, w2, tau = 0.9, 0.2, 1.0
    F = normal_form(w1, w2)
    M = matrix_exponential(F, tau).matrix
    eff = effective_force(M, tau=tau)
    np.testing.assert_allclose(eff.matrix, F, atol=1e-9)
    assert not any(eff.branch_ambiguous)


def test_effective_force_reconstructs_coupled():
    rng = np.random.default_rng(73)
    for _ in range(30):
        F = random_stable_symplex(rng)
        # keep phase advances inside (0, pi)
        inv = spectral_invariants(emeq_from_symplex(F))
        tau = 0.8 * np.pi / max(inv.omega1.value, inv.omega2.value)
        M = matrix_exponential(F, tau).matrix
        eff = effective_force(M, tau=tau)
        assert eff.reconstruction_residual < 1e-7
        np.testing.assert_allclose(eff.matrix, F, atol=1e-7)


@pytest.mark.parametrize("n", [2, 3])
def test_reconstruction_residual_is_closed_form(n):
    # exp(Fbar tau) = R^-1 exp(Fn tau) R in closed form: the residual the
    # effective force reports is the one of the Taylor exponential
    rng = np.random.default_rng(97 + n)
    for _ in range(20):
        F = random_stable_symplex(rng, n)
        # phase advances inside (0, pi/2): distinct, well separated sines
        tau = 0.45 * np.pi / np.abs(np.linalg.eigvals(F).imag).max()
        M = matrix_exponential(F, tau).matrix
        eff = effective_force(M, tau=tau)
        taylor = np.abs(matrix_exponential(eff.matrix, tau).matrix - M).max()
        assert abs(eff.reconstruction_residual - taylor) <= \
            1e-12 * max(1.0, np.linalg.norm(M))
        assert eff.reconstruction_residual < 1e-7


def test_effective_force_unstable_rejected():
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = 1.0, -1.0
    F[2, 3], F[3, 2] = 1.0, 1.0
    M = matrix_exponential(F, 1.0).matrix
    with pytest.raises(UnstableSystem):
        effective_force(M, tau=1.0)


def test_propagate_sigma_identity_and_matched():
    sigma = SigmaMatrix.from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    out = propagate_sigma(sigma, np.eye(4))
    np.testing.assert_array_equal(out.matrix, sigma.matrix)
    M = matrix_exponential(normal_form(0.3, 0.8), 1.0).matrix
    matched = matched_sigma(M, (1.5, 2.5))
    out = propagate_sigma(matched, M)
    np.testing.assert_allclose(out.matrix, matched.matrix, atol=1e-12)


def test_propagate_sigma_preserves_lax_invariants():
    rng = np.random.default_rng(79)
    g0 = symplectic_unit(2)
    for _ in range(50):
        A = rng.standard_normal((4, 4))
        sigma = A @ A.T + 0.5 * np.eye(4)
        M = matrix_exponential(random_symplex(rng), rng.uniform(0.1, 1.0)).matrix
        out = propagate_sigma(sigma, M)
        before = lax_invariants(sigma @ g0)
        after = lax_invariants(out.matrix @ g0)
        scale = max(1.0, max(abs(v) for v in before))
        np.testing.assert_allclose(after, before, atol=1e-9 * scale,
                                   rtol=1e-9)


def test_decoupling_also_decouples_cosymplex_part():
    rng = np.random.default_rng(83)
    for _ in range(30):
        F = random_stable_symplex(rng)
        M = matrix_exponential(F, 0.6).matrix
        report = analyze_one_turn(M, tau=0.6)
        Mc = symplex_cosymplex_split(M)[1]
        Mc_t = report.transform.r @ Mc @ report.transform.rinv
        off = Mc_t.copy()
        off[:2, :2] = 0.0
        off[2:, 2:] = 0.0
        assert np.max(np.abs(off)) < 1e-8


def test_spinor_symplex_observables_vanish():
    rng = np.random.default_rng(89)
    for _ in range(50):
        F = random_symplex(rng)
        psi = rng.standard_normal(4)
        f, g = spinor_observables(psi, F)
        np.testing.assert_allclose(g[:10], 0.0, atol=1e-12 * max(
            1.0, np.linalg.norm(psi)**2 * np.linalg.norm(F)))


def test_spinor_cosymplex_expectations_vanish():
    rng = np.random.default_rng(97)
    for _ in range(50):
        psi = rng.standard_normal(4)
        f16 = rdm_expectations(psi)
        np.testing.assert_allclose(f16[10:], 0.0, atol=1e-13)


def test_cosymplex_observable_closed_forms():
    rng = np.random.default_rng(101)
    for _ in range(200):
        state_c = random_symplex_coefficients(rng)
        from symdec.emeq import state_from_coefficients
        state = state_from_coefficients(state_c)
        F = state.matrix()
        psi = rng.standard_normal(4)
        f16 = rdm_expectations(psi)
        _, g = spinor_observables(psi, F)
        np.testing.assert_allclose(
            g[10:], cosymplex_observable_forms(state, f16), atol=1e-12)


def test_cosymplex_observable_rates_finite_difference():
    rng = np.random.default_rng(103)
    from symdec.emeq import state_from_coefficients
    for _ in range(50):
        state = state_from_coefficients(random_symplex_coefficients(rng))
        F = state.matrix()
        psi = rng.standard_normal(4)
        f16 = rdm_expectations(psi)
        rates = cosymplex_observable_rates(state, f16)
        h = 1e-6
        plus = matrix_exponential(F, h).matrix @ psi
        minus = matrix_exponential(F, -h).matrix @ psi
        _, gp = spinor_observables(plus, F)
        _, gm = spinor_observables(minus, F)
        fd = (gp[10:] - gm[10:]) / (2.0 * h)
        np.testing.assert_allclose(fd, rates, atol=1e-6 * max(
            1.0, np.linalg.norm(psi)**2 * np.linalg.norm(F)**2))


def test_six_dof_one_turn_analysis():
    # the 2n path: tunes of a 12x12 one-turn matrix
    from symdec.jacobi import random_test_symplex
    F = random_test_symplex(6, 3).matrix
    tau = 0.05
    M = matrix_exponential(F, tau).matrix
    report = analyze_one_turn(M, tau=tau)
    assert report.stable
    ev = np.linalg.eigvals(F)
    want = np.sort(np.abs(ev.imag))[::2][::-1]
    got = np.sort([b.omega for b in report.blocks])[::-1]
    np.testing.assert_allclose(np.sort(got), np.sort(want), atol=1e-8)
    emit = np.arange(1.0, 7.0)
    sigma = matched_sigma(M, emit, tau=tau, report=report).matrix
    assert np.max(np.abs(M @ sigma @ M.T - sigma)) < 1e-8
    assert np.min(np.linalg.eigvalsh(sigma)) > 0.0
