import copy

import numpy as np
import pytest
import scipy.linalg

from symdec.decouple4 import decouple
from symdec.dirac import GAMMA, symplectic_unit
from symdec.emeq import Symplex, aux_vectors, emeq_from_symplex, lax_invariants
from symdec.errors import DimensionMismatch
from symdec.matrixio import MatrixFile
from symdec.optics import analyze_one_turn, effective_force, matched_sigma
from symdec.jacobi import random_test_symplex
from symdec.transform import (DOF_SCALING, SymplecticTransform,
                              TransformStep, _dof_rows, apply_similarity,
                              basic_transform, compose, dof_transform,
                              is_symplectic, matrix_exponential, replay,
                              symplectic_residual)

from conftest import random_stable_symplex, random_symplex


def test_identity_transform():
    t = basic_transform(0, 0.0)
    np.testing.assert_array_equal(t.r, np.eye(4))
    np.testing.assert_array_equal(t.rinv, np.eye(4))


def test_all_generators_symplectic_with_exact_inverse():
    rng = np.random.default_rng(1)
    for b in range(10):
        for _ in range(20):
            eps = rng.uniform(-2.0, 2.0)
            t = basic_transform(b, eps)
            assert symplectic_residual(t.r) < 1e-10
            np.testing.assert_allclose(t.r @ t.rinv, np.eye(4), atol=1e-14)
            np.testing.assert_allclose(t.rinv @ t.r, np.eye(4), atol=1e-14)


def test_quarter_turn_rotation():
    t = basic_transform(7, np.pi)
    np.testing.assert_allclose(t.r, GAMMA[7], atol=1e-15)
    g0 = symplectic_unit(2)
    np.testing.assert_allclose(t.r @ g0 @ t.r.T, g0, atol=1e-14)


def test_matches_generic_exponential():
    rng = np.random.default_rng(2)
    for b in range(10):
        eps = rng.uniform(-1.5, 1.5)
        t = basic_transform(b, eps)
        np.testing.assert_allclose(
            t.r, scipy.linalg.expm(GAMMA[b] * eps / 2.0), atol=1e-12)


def test_generator_index_checked():
    with pytest.raises(IndexError):
        basic_transform(10, 0.1)
    with pytest.raises(ValueError):
        basic_transform(2, np.inf)


def test_apply_similarity_preserves_symplex_and_invariants():
    rng = np.random.default_rng(3)
    for _ in range(50):
        F = random_symplex(rng)
        b = int(rng.integers(0, 10))
        t = basic_transform(b, rng.uniform(-1, 1))
        Ft = apply_similarity(t, F)
        state = emeq_from_symplex(Ft, tol=1e-9)  # still a symplex
        np.testing.assert_allclose(lax_invariants(Ft), lax_invariants(F),
                                   atol=1e-9)
        assert state is not None


def test_apply_similarity_identity():
    F = random_symplex(np.random.default_rng(5))
    np.testing.assert_array_equal(
        apply_similarity(SymplecticTransform(np.eye(4)), F), F)


def test_apply_similarity_dimension_checked():
    with pytest.raises(DimensionMismatch):
        apply_similarity(basic_transform(0, 0.3), np.eye(6))


def test_rotation_action_is_spatial_rotation():
    # rotation about x rotates the E, P, B vectors about the x-axis
    rng = np.random.default_rng(7)
    from symdec.emeq import state_from_coefficients
    from conftest import random_symplex_coefficients
    for _ in range(30):
        c = random_symplex_coefficients(rng)
        state = state_from_coefficients(c)
        eps = rng.uniform(-2, 2)
        Ft = apply_similarity(basic_transform(7, eps), state.matrix())
        st = emeq_from_symplex(Ft, tol=1e-9)
        ce, se = np.cos(eps), np.sin(eps)
        rot = np.array([[1, 0, 0], [0, ce, se], [0, -se, ce]])
        np.testing.assert_allclose(st.p, rot @ state.p, atol=1e-12)
        np.testing.assert_allclose(st.e, rot @ state.e, atol=1e-12)
        np.testing.assert_allclose(st.b, rot @ state.b, atol=1e-12)
        assert st.energy == pytest.approx(state.energy, abs=1e-12)


def test_compose_inverse_gives_identity():
    t = basic_transform(5, 0.8)
    tinv = basic_transform(5, -0.8)
    c = compose(tinv, t)
    np.testing.assert_allclose(c.r, np.eye(4), atol=1e-14)


def test_compose_one_parameter_subgroup():
    rng = np.random.default_rng(11)
    for b in range(10):
        e1, e2 = rng.uniform(-1, 1, size=2)
        c = compose(basic_transform(b, e1), basic_transform(b, e2))
        total = basic_transform(b, e1 + e2)
        np.testing.assert_allclose(c.r, total.r, atol=1e-13)
        np.testing.assert_allclose(c.rinv, total.rinv, atol=1e-13)


def test_compose_order_and_log():
    t1 = basic_transform(0, 0.3)
    t2 = basic_transform(7, -0.5)
    c = compose(t2, t1)
    np.testing.assert_allclose(c.r, t2.r @ t1.r, atol=1e-15)
    assert [s.generator for s in c.steps] == [0, 7]
    F = random_symplex(np.random.default_rng(1))
    step_by_step = apply_similarity(t2, apply_similarity(t1, F))
    np.testing.assert_allclose(apply_similarity(c, F), step_by_step,
                               atol=1e-13)


def test_is_symplectic_relative_and_overflow_free():
    # warnings are errors here: no overflow may warn on the way
    M = matrix_exponential(random_stable_symplex(
        np.random.default_rng(4)), 0.7).matrix
    assert is_symplectic(M) and is_symplectic(2 * np.eye(4), tol=4.0)
    assert not is_symplectic(2 * np.eye(4))
    wide = np.diag([1e200, 1e-200, 1e200, 1e-200])  # ||M||_F^2 overflows
    assert symplectic_residual(wide) == 0.0 and is_symplectic(wide)
    for big in (1e200 * np.eye(4), np.full((4, 4), 1e300)):
        assert not np.isfinite(symplectic_residual(big))
        assert not is_symplectic(big, tol=1e10)
    assert not is_symplectic(np.full((4, 4), np.nan), tol=1e10)
    # a scale whose ||M||_F overflows the float range: the test stays finite
    # (1e308 * 1e-308 = 1, so the residual is about 2e-16)
    huge = np.diag([1.7e308, 1 / 1.7e308, 1.7e308, 1 / 1.7e308])
    assert is_symplectic(huge, tol=1e-8)
    assert is_symplectic(M, residual=0.0) and not is_symplectic(
        M, residual=np.inf)


def test_matrix_exponential_zero():
    tm = matrix_exponential(np.zeros((4, 4)), 1.0)
    np.testing.assert_array_equal(tm.matrix, np.eye(4))
    assert tm.symplectic_residual == 0.0


def test_matrix_exponential_rotation_blocks():
    omega, s = 0.7, 1.3
    tm = matrix_exponential(omega * GAMMA[0], s)
    c, sn = np.cos(omega * s), np.sin(omega * s)
    block = np.array([[c, sn], [-sn, c]])
    np.testing.assert_allclose(tm.matrix, scipy.linalg.block_diag(block, block),
                               atol=1e-14)


def test_matrix_exponential_normal_form():
    w1, w2, s = 0.3, 0.7, 2.0
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = w1, -w1
    F[2, 3], F[3, 2] = w2, -w2
    tm = matrix_exponential(F, s)
    for k, w in enumerate((w1, w2)):
        blk = tm.matrix[2 * k:2 * k + 2, 2 * k:2 * k + 2]
        np.testing.assert_allclose(
            blk, [[np.cos(w * s), np.sin(w * s)],
                  [-np.sin(w * s), np.cos(w * s)]], atol=1e-14)


def test_matrix_exponential_vs_scipy_and_symplectic():
    rng = np.random.default_rng(13)
    for _ in range(50):
        F = random_symplex(rng)
        s = rng.uniform(0.1, 3.0)
        tm = matrix_exponential(F, s)
        np.testing.assert_allclose(tm.matrix, scipy.linalg.expm(F * s),
                                   atol=1e-11, rtol=1e-11)
        assert tm.symplectic_residual < 1e-9 * max(
            1.0, np.linalg.norm(tm.matrix))


def test_matrix_exponential_group_property():
    rng = np.random.default_rng(17)
    for _ in range(30):
        F = random_stable_symplex(rng)
        s, t = rng.uniform(0.1, 1.5, size=2)
        lhs = matrix_exponential(F, s).matrix @ matrix_exponential(F, t).matrix
        rhs = matrix_exponential(F, s + t).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_replay_rebuilds_transform():
    rng = np.random.default_rng(23)
    t = SymplecticTransform(np.eye(4))
    for _ in range(6):
        t = compose(basic_transform(int(rng.integers(0, 10)),
                                    rng.uniform(-1, 1)), t)
    r = replay(t.steps, dim=4)
    np.testing.assert_allclose(r.r, t.r, atol=1e-13)
    np.testing.assert_allclose(r.rinv, t.rinv, atol=1e-13)


def test_replay_single_dof_needs_block_diagonal_generator():
    steps = (TransformStep(generator=0, epsilon=0.3, block=(0,)),
             TransformStep(generator=3, epsilon=-0.2, block=(0,)))
    r = replay(steps, dim=2)
    c, s = np.cos(0.15), np.sin(0.15)
    np.testing.assert_allclose(
        r.r, np.diag([np.exp(0.1), np.exp(-0.1)]) @ [[c, s], [-s, c]],
        atol=1e-15)
    with pytest.raises(DimensionMismatch):
        replay((TransformStep(generator=2, epsilon=0.3, block=(0,)),), dim=2)


def test_replay_mixes_pipeline_and_single_dof_steps():
    # a 4x4 normal-form log: pipeline steps (no block) then one step per dof
    res = decouple(random_stable_symplex(np.random.default_rng(29)),
                   form="normal")
    blocks = [s.block for s in res.transform.steps]
    assert None in blocks and (0,) in blocks and (1,) in blocks
    r = replay(res.transform.steps, dim=4)
    assert r.steps == res.transform.steps
    np.testing.assert_allclose(r.r, res.transform.r, rtol=0, atol=1e-13)
    # a hand-made mix against its dense product
    steps = (TransformStep(7, 0.4), TransformStep(0, -0.6, (1,)),
             TransformStep(3, 0.5, (0,)), TransformStep(2, 0.0))
    b1 = np.eye(4)
    b1[2:, 2:] = basic_transform(0, -0.6).r[:2, :2]
    b0 = np.eye(4)
    b0[:2, :2] = basic_transform(3, 0.5).r[:2, :2]
    np.testing.assert_allclose(replay(steps).r,
                               b0 @ b1 @ basic_transform(7, 0.4).r,
                               rtol=0, atol=1e-15)


def test_replay_single_dof_log():
    res = decouple(random_test_symplex(1, 4), form="normal")
    assert [s.block for s in res.transform.steps] == [(0,), (0,)]
    r = replay(res.transform.steps, dim=2)
    np.testing.assert_allclose(r.r, res.transform.r, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [5, 3, 1, 0])
def test_replay_needs_even_dimension(dim):
    for steps in ((), (TransformStep(0, 0.3, (0,)),),
                  (TransformStep(7, 0.4, (0, 1)),)):
        with pytest.raises(DimensionMismatch):
            replay(steps, dim=dim)


@pytest.mark.parametrize("block", [(0, 1, 2), (0, 1, 2, 3), ()])
def test_replay_needs_one_or_two_dofs(block):
    with pytest.raises(DimensionMismatch):
        replay((TransformStep(7, 0.4, block),), dim=8)


@pytest.mark.parametrize("dofs", [(3,), (1, 1), (2, 1), (-1,), ()])
def test_embed_rows_needs_increasing_dofs_below_n(dofs):
    # the rows a pivot or a replayed step is embedded at come from
    # _dof_rows, which checks 0 <= dofs[0] < ... < n
    with pytest.raises(IndexError):
        _dof_rows(3, dofs)
    if dofs:
        with pytest.raises(IndexError):
            replay((TransformStep(DOF_SCALING, 0.4, dofs),), dim=6)


def test_a_skip_is_a_step_of_parameter_zero():
    assert basic_transform(4, 0.0).steps[0].skipped
    assert TransformStep(2, -0.0, (0, 1)).skipped
    assert not TransformStep(2, 5e-324).skipped
    assert [s.skipped for s in dof_transform(DOF_SCALING, [0.3, 0.0]).steps] \
        == [False, True]


def test_block_scaling_diagonal():
    t = dof_transform(DOF_SCALING, [0.4, -0.8, 0.2])
    expected = np.diag([np.exp(-0.2), np.exp(0.2), np.exp(0.4),
                        np.exp(-0.4), np.exp(-0.1), np.exp(0.1)])
    np.testing.assert_allclose(t.r, expected, atol=1e-14)
    assert symplectic_residual(t.r) < 1e-12
    r = replay(t.steps, dim=6)
    np.testing.assert_allclose(r.r, t.r, atol=1e-13)


def _array_dataclasses():
    """One instance of each frozen dataclass that holds an ndarray."""
    F = random_stable_symplex(np.random.default_rng(21))
    M = matrix_exponential(F, 0.3)
    state = emeq_from_symplex(F)
    return {
        "Symplex": Symplex.from_matrix(F),
        "DecoupleResult": decouple(F),
        "EmeqState": state,
        "AuxVectors": aux_vectors(state),
        "SymplecticTransform": SymplecticTransform(np.eye(4)),
        "TransferMatrix": M,
        "SigmaMatrix": matched_sigma(M.matrix, (1.0, 2.0), tau=0.3),
        "EffectiveForce": effective_force(M.matrix, tau=0.3),
        "OpticsReport": analyze_one_turn(M.matrix, tau=0.3),
        "MatrixFile": MatrixFile(matrix=F, kind="force"),
    }


@pytest.mark.parametrize("name", [
    "Symplex", "DecoupleResult", "EmeqState", "AuxVectors",
    "SymplecticTransform", "TransferMatrix", "SigmaMatrix", "EffectiveForce",
    "OpticsReport", "MatrixFile"])
def test_array_dataclass_equals_itself(name):
    # identity equality: comparing the array fields of two instances would
    # raise ValueError (the truth value of an array is ambiguous)
    x = _array_dataclasses()[name]
    assert type(x).__name__ == name
    assert (x == x) is True
    assert (x == copy.deepcopy(x)) is False
