"""The per-dof stages against a dense reference, against the stage chain
and as prefixes of one another, and every check of the 4x4 block solve
and of the per-dof stages made to fire by an injected fault: each keeps
its tolerance and its exception."""

import math
from dataclasses import replace

import numpy as np
import pytest

from symdec import decouple4, emeq, optics
from symdec.decouple4 import (FORM_BLOCK_DIAGONAL, FORM_COMPLEX_CANONICAL,
                              FORM_HAMILTONIAN, FORM_NORMAL,
                              _block_frequencies, _dof_stages, _Pipeline,
                              _solve_block, decouple, diagonalize,
                              off_block_max)
from symdec.dirac import GAMMA
from symdec.emeq import Symplex, _transform_floats
from symdec.emeq import (CLASS_COMPLEX_QUADRUPLE, CLASS_MIXED,
                         CLASS_TWO_IMAGINARY_PAIRS, CLASS_TWO_REAL_PAIRS)
from symdec.errors import (BoostDomain, ComplexEigenvalues, DegenerateB,
                           NotASymplex, PrecisionLoss, SymdecError,
                           UnstableBlock)
from symdec.jacobi import random_test_symplex
from symdec.transform import (DOF_ROTATION, DOF_SCALING, SymplecticTransform,
                              _symplectic_inverse, dof_transform,
                              matrix_exponential, replay)

from conftest import random_complex_symplex, random_stable_symplex


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_dof_stages_match_dense_reference(n, seed):
    # each stage is its logged steps replayed densely: R M R^-1 with the
    # inverse from R, and R times the transform so far, bit for bit
    F = random_test_symplex(n, seed)
    res = decouple(F)
    for form in (FORM_HAMILTONIAN, FORM_NORMAL):
        out = decouple(F, form=form)
        steps = out.transform.steps[len(res.transform.steps):]
        assert len(steps) == n
        r = replay(steps, 2 * n).r
        M = res.final.matrix
        np.testing.assert_array_equal(out.final.matrix,
                                      r @ M @ _symplectic_inverse(r))
        np.testing.assert_array_equal(out.transform.r, r @ res.transform.r)
        assert out.transform.steps == res.transform.steps + steps
        res = out


def _conjugated_blocks(rng, *blocks):
    """T diag(blocks) T^-1 for a random symplectic T near the identity."""
    D = np.zeros((4, 4))
    D[:2, :2], D[2:, 2:] = blocks
    T = matrix_exponential(0.3 * random_stable_symplex(rng)).matrix
    return T @ D @ _symplectic_inverse(T)


def _four_classes():
    rng = np.random.default_rng(17)
    return {
        CLASS_TWO_IMAGINARY_PAIRS: random_stable_symplex(rng),
        CLASS_TWO_REAL_PAIRS: _conjugated_blocks(
            rng, [[0.0, 1.0], [0.5, 0.0]], [[0.0, 2.0], [1.5, 0.0]]),
        CLASS_MIXED: _conjugated_blocks(
            rng, [[0.0, 1.0], [-0.7, 0.0]], [[0.0, 1.0], [0.4, 0.0]]),
        CLASS_COMPLEX_QUADRUPLE: random_complex_symplex(rng, "low"),
    }


def _outcome(run):
    """Every output of a decoupling run, or its exception, as bytes and
    plain values."""
    try:
        res = run()
    except SymdecError as exc:
        return type(exc), str(exc)
    return (res.form, res.transform.r.tobytes(), res.transform.rinv.tobytes(),
            res.final.matrix.tobytes(), res.transform.steps, res.frequencies,
            float(res.residual).hex(), res.stats)


def _chain(F, form):
    """decouple's block_diagonal result to Hamiltonian form by the per-dof
    pass, then to normal form by a scaling built here: each block
    [[0, a], [-b, 0]] of H takes the rapidity log(a/b)/2, and the first
    block with no imaginary pair raises UnstableBlock."""
    res = decouple(F)
    if res.form == FORM_COMPLEX_CANONICAL:  # reached whatever the form
        return res
    res = _dof_stages(res, FORM_HAMILTONIAN)
    if form != FORM_NORMAL:
        return res
    H, n = res.final.matrix, res.final.n
    freqs = _block_frequencies(H)
    for k, w in enumerate(freqs):
        if w.nature != emeq.NATURE_IMAGINARY:
            raise UnstableBlock(
                f"block {k} has entries ({H[2 * k, 2 * k + 1]:.6e}, "
                f"{-H[2 * k + 1, 2 * k]:.6e}): a {w.nature} eigenvalue "
                "pair has no rotation normal form", block=k)
    s = dof_transform(DOF_SCALING, [
        0.5 * math.log(H[2 * k, 2 * k + 1] / -H[2 * k + 1, 2 * k])
        for k in range(n)])
    M = s.r @ H @ s.rinv
    # off the blocks, on their diagonals, and (a - b)/2 of [[0, a], [-b, 0]]
    defect = max([max(abs(M[i, i]), abs(M[i + 1, i + 1]),
                      0.5 * abs(M[i, i + 1] + M[i + 1, i]))
                  for i in range(0, 2 * n, 2)])
    return replace(res, transform=SymplecticTransform(
        s.r @ res.transform.r, res.transform.steps + s.steps),
        final=Symplex(M), form=FORM_NORMAL, frequencies=freqs,
        residual=max(off_block_max(M), defect))


@pytest.mark.parametrize("form", [FORM_HAMILTONIAN, FORM_NORMAL])
@pytest.mark.parametrize("case", [
    *_four_classes(),
    *[f"n={n},s={s}" for n in (1, 3, 5) for s in range(3)]])
def test_one_pass_matches_stage_chain(case, form):
    # decouple goes to its form in one per-dof pass; the per-dof stage to
    # Hamiltonian form, then scaled to normal form by hand, gives the same
    # R, R^-1, final, steps, frequencies, residual and stats, bit for bit,
    # or the same exception and message
    if case.startswith("n="):
        n, s = (int(part[2:]) for part in case.split(","))
        F = random_test_symplex(n, s).matrix
    else:
        F = _four_classes()[case]
        assert Symplex.from_matrix(F).invariants.classification == case
    want = _outcome(lambda: _chain(F, form))
    assert _outcome(lambda: decouple(F, form=form)) == want
    if case == CLASS_TWO_IMAGINARY_PAIRS or case.startswith("n="):
        assert want[0] == form  # a result, not an exception


def test_normal_form_decouple_checks_the_final_symplex_only(monkeypatch):
    # entry (1e-10), R F R^-1 of the 4x4 solve and the normal form (1e-8):
    # the Hamiltonian form on the way is not checked on its own
    F = random_stable_symplex(np.random.default_rng(3))
    checks = []
    is_symplex = emeq.is_symplex
    monkeypatch.setattr(emeq, "is_symplex",
                        lambda M, tol: checks.append(tol) or is_symplex(M, tol))
    decouple(F, form=FORM_NORMAL)
    assert checks == [1e-10, 1e-8, 1e-8]


@pytest.mark.parametrize("n", [2, 3])
def test_normal_form_checks_see_a_faulty_rotation(monkeypatch, n):
    # the normal-form checks catch what the dropped Hamiltonian-form checks
    # caught: every rotation angle off by 1e-6 leaves a diagonal the
    # scaling keeps, a rotation inverse off by 1e-6 leaves the symplices
    F = random_test_symplex(n, 0)
    decouple(F, form=FORM_NORMAL)
    dof = decouple4.dof_transform
    with monkeypatch.context() as m:
        m.setattr(decouple4, "dof_transform", lambda g, eps: dof(
            g, [e + 1e-6 for e in eps] if g == DOF_ROTATION else eps))
        with pytest.raises(PrecisionLoss, match="^normal form off by"):
            decouple(F, form=FORM_NORMAL)

    def bad_inverse(generator, eps):
        t = dof(generator, eps)
        if generator == DOF_ROTATION:
            vars(t)["rinv"] = t.rinv + 1e-6 * np.triu(np.ones_like(t.rinv))
        return t
    with monkeypatch.context() as m:
        m.setattr(decouple4, "dof_transform", bad_inverse)
        with pytest.raises(NotASymplex, match="residual"):
            decouple(F, form=FORM_NORMAL)


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
    F = random_test_symplex(n, 1)
    decouple(F, form=FORM_HAMILTONIAN)
    dof = decouple4.dof_transform

    def bad_inverse(generator, eps):
        t = dof(generator, eps)
        vars(t)["rinv"] = t.rinv + 1e-6 * np.triu(np.ones_like(t.rinv))
        return t
    monkeypatch.setattr(decouple4, "dof_transform", bad_inverse)
    with pytest.raises(NotASymplex, match="residual"):
        decouple(F, form=FORM_HAMILTONIAN)


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
    # a boost names its step, read from the log: three steps, then step 4
    pipe = _Pipeline(sym)
    for b in (0, 7, 9):
        pipe.step(b, 0.0)
    with pytest.raises(BoostDomain, match="step 4"):
        pipe.boost(2, 2.0, 1.0, 1.0, 1)

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


def test_symplex_passes_normal_form_scaling_unchecked(monkeypatch):
    # a Symplex is checked once, where it was made: the per-dof pass to
    # normal form checks only its own final; the ring path checks the
    # symplex part on entry, hands the Symplex to the block stage, whose
    # 4x4 solves check their own, and checks the pass's final once
    block = decouple(random_test_symplex(3, 2))
    checks = []
    is_symplex = emeq.is_symplex
    monkeypatch.setattr(emeq, "is_symplex",
                        lambda M, tol: checks.append(tol) or is_symplex(M, tol))
    _dof_stages(block, FORM_NORMAL)
    assert checks == [1e-8]
    checks.clear()
    stage, seen, marks = optics._block_stage, [], []

    def block_stage(sym, tol, max_steps):
        seen.append(type(sym))
        marks.append(len(checks))
        res = stage(sym, tol, max_steps)
        marks.append(len(checks))
        return res
    monkeypatch.setattr(optics, "_block_stage", block_stage)
    optics.analyze_one_turn(
        matrix_exponential(random_test_symplex(2, 0).matrix, 0.3).matrix)
    start, end = marks
    assert seen == [Symplex] and end > start
    assert checks[:start] == [1e-10] and checks[end:] == [1e-8]


def _focusing(seed):
    """gamma0 A with A = B B^T + 4 I, B standard normal: two imaginary
    pairs."""
    B = np.random.default_rng(seed).standard_normal((4, 4))
    return GAMMA[0] @ (B @ B.T + 4.0 * np.eye(4))


@pytest.mark.parametrize("case", [
    CLASS_TWO_IMAGINARY_PAIRS, CLASS_TWO_REAL_PAIRS, CLASS_MIXED, "focusing",
    *[f"n={n},s={s}" for n in (1, 2, 3, 5, 8) for s in range(3)]])
def test_each_form_log_extends_the_one_before(case):
    # the stages are prefixes of one another: the block_diagonal log starts
    # the hamiltonian log, which starts the normal log; each log replays
    # to its form's R bit for bit, and the normal form diagonalizes
    if case.startswith("n="):
        n, s = (int(part[2:]) for part in case.split(","))
        F = random_test_symplex(n, s).matrix
    else:
        F = _focusing(0) if case == "focusing" else _four_classes()[case]
    dim = F.shape[0]
    logs = []
    for form in (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN, FORM_NORMAL):
        if form == FORM_NORMAL and case in (CLASS_TWO_REAL_PAIRS, CLASS_MIXED):
            with pytest.raises(UnstableBlock):
                decouple(F, form=form)
            break
        res = decouple(F, form=form)
        assert res.form == form
        steps = res.transform.steps
        assert np.array_equal(replay(steps, dim).r, res.transform.r)
        if logs:
            added = steps[len(logs[-1]):]
            assert steps[:len(logs[-1])] == logs[-1]
            assert [(s.generator, s.block) for s in added] == [
                (DOF_ROTATION if form == FORM_HAMILTONIAN else DOF_SCALING,
                 (k,)) for k in range(dim // 2)]
        logs.append(steps)
    if case in (CLASS_TWO_REAL_PAIRS, CLASS_MIXED):
        assert len(logs) == 2
    else:
        assert len(logs) == 3
        vecs, values = diagonalize(res)
        assert vecs.shape == (dim, dim) and values.shape == (dim,)
