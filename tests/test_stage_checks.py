"""The per-dof stages against a dense reference, and every check of the
4x4 block solve and of the per-dof stages made to fire by an injected
fault: each keeps its tolerance and its exception."""

from dataclasses import replace

import numpy as np
import pytest

from symdec import decouple4, emeq, optics
from symdec.decouple4 import (FORM_HAMILTONIAN, FORM_NORMAL, _Pipeline,
                              _solve_block, decouple, normal_form_scaling,
                              to_hamiltonian_form, to_normal_form)
from symdec.dirac import GAMMA
from symdec.emeq import Symplex, _transform_floats
from symdec.errors import (BoostDomain, ComplexEigenvalues, DegenerateB,
                           NotASymplex, PrecisionLoss)
from symdec.jacobi import random_test_symplex
from symdec.transform import (DOF_ROTATION, DOF_SCALING, _symplectic_inverse,
                              dof_transform, matrix_exponential, replay)

from conftest import random_stable_symplex


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_dof_stages_match_dense_reference(n, seed):
    # each stage is its logged steps replayed densely: R M R^-1 with the
    # inverse from R, and R times the transform so far, bit for bit
    res = decouple(random_test_symplex(n, seed))
    for stage in (to_hamiltonian_form, to_normal_form):
        out = stage(res)
        steps = out.transform.steps[len(res.transform.steps):]
        assert len(steps) == n
        r = replay(steps, 2 * n).r
        M = res.final.matrix
        np.testing.assert_array_equal(out.final.matrix,
                                      r @ M @ _symplectic_inverse(r))
        np.testing.assert_array_equal(out.transform.r, r @ res.transform.r)
        assert out.transform.steps == res.transform.steps + steps
        res = out


@pytest.mark.parametrize("generator", [DOF_ROTATION, DOF_SCALING])
def test_dof_transform_inverse_is_the_symplectic_inverse(generator):
    # the blocks [[d, -b], [-c, a]] are _symplectic_inverse(r) to the
    # sign of every zero, skipped dofs included
    rng = np.random.default_rng(generator)
    for n in (1, 2, 3, 5, 8):
        for _ in range(20):
            eps = rng.normal(0.0, 1.5, n)
            eps[rng.random(n) < 0.3] = 0.0
            t = dof_transform(generator, eps)
            want = _symplectic_inverse(t.r)
            np.testing.assert_array_equal(t.rinv, want)
            assert t.rinv.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("form", [FORM_HAMILTONIAN, FORM_NORMAL])
def test_corrupted_dof_block_raises_precision_loss(monkeypatch, form, n):
    # every angle (Hamiltonian) or scaling rapidity (normal) of the form's
    # own stage off by 1e-6: its diagonal blocks miss the form and the
    # stage names it
    F = random_test_symplex(n, 0)
    decouple(F, form=form)
    dof = decouple4.dof_transform
    own = DOF_ROTATION if form == FORM_HAMILTONIAN else DOF_SCALING
    monkeypatch.setattr(decouple4, "dof_transform", lambda g, eps: dof(
        g, [e + 1e-6 for e in eps] if g == own else eps))
    with pytest.raises(PrecisionLoss, match=f"^{form} form off by"):
        decouple(F, form=form)


@pytest.mark.parametrize("n", [2, 3])
def test_stage_symplex_check_fires(monkeypatch, n):
    # an inverse off by 1e-6 makes R M R^-1 leave the symplices, which
    # the stage's 1e-8 check of its final sees
    res = decouple(random_test_symplex(n, 1))
    to_hamiltonian_form(res)
    dof = decouple4.dof_transform

    def bad_inverse(generator, eps):
        t = dof(generator, eps)
        vars(t)["rinv"] = t.rinv + 1e-6 * np.triu(np.ones_like(t.rinv))
        return t
    monkeypatch.setattr(decouple4, "dof_transform", bad_inverse)
    with pytest.raises(NotASymplex, match="residual"):
        to_hamiltonian_form(res)


def test_block_solve_checks_fire(monkeypatch):
    F = random_stable_symplex(np.random.default_rng(11))
    _solve_block(F)
    # the entry check, 1e-10 relative: a 1e-9 asymmetry is no symplex
    bad = F.copy()
    bad[0, 2] += 1e-9 * np.abs(F).max()
    with pytest.raises(NotASymplex):
        _solve_block(bad)
    # the K2 gate, and behind it the boost's domain: E and B along x
    # leave b = 0 and E.B = 0.36, no boost can remove it
    C = 0.4 * GAMMA[4] + 0.9 * GAMMA[7]
    with pytest.raises(ComplexEigenvalues, match="second invariant"):
        _solve_block(C)
    sym = Symplex.from_matrix(C)
    vars(sym)["invariants"] = replace(sym.invariants, k2=-sym.invariants.k2)
    with pytest.raises(ComplexEigenvalues, match="boost infeasible"):
        _solve_block(sym)
    with pytest.raises(BoostDomain, match="step 4"):
        _Pipeline(sym).boost(2, 2.0, 1.0, 1.0, step_index=4)

    with monkeypatch.context() as m:
        # the 1e-8 check of R F R^-1: an inverse off by 1e-6
        inverse = decouple4._symplectic_inverse
        m.setattr(decouple4, "_symplectic_inverse",
                  lambda r: inverse(r) + 1e-6 * np.triu(np.ones_like(r)))
        with pytest.raises(NotASymplex, match="residual"):
            _solve_block(F)
    with monkeypatch.context() as m:
        # the drift check: the largest coefficient propagated 1e-6 off
        def drifting(f, b, eps):
            out = _transform_floats(f, b, eps)
            out[int(np.abs(out).argmax())] *= 1.0 + 1e-6
            return out
        m.setattr(decouple4, "_transform_floats", drifting)
        with pytest.raises(PrecisionLoss, match="drifted"):
            _solve_block(F)
    with monkeypatch.context() as m:
        # the pattern check: b left where it is, nothing drifts but the
        # off-block coefficients survive
        align = _Pipeline.align_y
        m.setattr(_Pipeline, "align_y", lambda self, vector, degree,
                  skip=False: align(self, vector, degree, skip=True))
        with pytest.raises(DegenerateB):
            _solve_block(F)


@pytest.mark.parametrize("H", [
    np.full((4, 4), np.nan),
    np.kron(np.diag([1.0, 0.0]), [[2.0, 1.0], [1.0, 2.0]])
    + np.kron(np.diag([0.0, 1.0]), [[0.0, 1.0], [-1.0, 0.0]]),
], ids=["nan", "not-a-symplex"])
def test_normal_form_scaling_rejects_non_symplices(H):
    # once the identity with two "zero" frequencies, or a math domain error
    with pytest.raises(NotASymplex):
        normal_form_scaling(H)


def test_symplex_passes_normal_form_scaling_unchecked(monkeypatch):
    # a Symplex is checked once, where it was made: to_normal_form checks
    # only its own final, and analyze_one_turn hands over the Symplex
    h = decouple(random_test_symplex(3, 2), form=FORM_HAMILTONIAN)
    checks = []
    is_symplex = emeq.is_symplex
    monkeypatch.setattr(emeq, "is_symplex",
                        lambda M, tol: checks.append(tol) or is_symplex(M, tol))
    normal_form_scaling(h.final)
    assert checks == []
    to_normal_form(h)
    assert checks == [1e-8]
    seen = []
    scaling = optics.normal_form_scaling
    monkeypatch.setattr(optics, "normal_form_scaling",
                        lambda H: seen.append(type(H)) or scaling(H))
    optics.analyze_one_turn(
        matrix_exponential(random_test_symplex(2, 0).matrix, 0.3).matrix)
    assert seen == [Symplex]
