"""Property tests of the per-dof block layout (transform builder, step-log
replay, off-block measures, the Hamiltonian rotation, the normal-form
scaling), of the symplex residual over the Dirac basis, and of the 4x4
solve's R against its replayed step log."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symdec.decouple4 import (FORM_BLOCK_DIAGONAL, FORM_COMPLEX_CANONICAL,
                              FORM_HAMILTONIAN, FORM_NORMAL,
                              _block_frequencies, _dof_stages, decouple,
                              off_block_max)
from symdec.dirac import (GAMMA, from_coefficients, is_cosymplex, is_symplex,
                          symplectic_unit, symplex_cosymplex_split,
                          symplex_residual)
from symdec.emeq import Symplex, spectral_invariants
from symdec.errors import PrecisionLoss, SymdecError, UnstableBlock
from symdec.jacobi import _block_stage, off_block_norms, random_test_symplex
from symdec.optics import SigmaMatrix, analyze_one_turn, matched_sigma
from symdec.transform import (DOF_ROTATION, DOF_SCALING, apply_similarity,
                              basic_transform, compose, dof_transform,
                              replay, symplectic_residual)

from conftest import conjugated_ring, random_complex_symplex

PROPERTY = settings(max_examples=100, deadline=None)

dofs = st.integers(min_value=1, max_value=6)
params = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def per_dof(elements=params):
    """One element per degree of freedom, n = 1..6."""
    return st.lists(elements, min_size=1, max_size=6)


def dof_block(generator, eps):
    """exp(G eps / 2) for the 2x2 block G of gamma(generator) = diag(G, G)."""
    c, s = (np.cos(eps / 2), np.sin(eps / 2)) if generator == DOF_ROTATION \
        else (np.cosh(eps / 2), np.sinh(eps / 2))
    G = np.array([[0.0, 1.0], [-1.0, 0.0]]) if generator == DOF_ROTATION \
        else np.diag([-1.0, 1.0])
    return c * np.eye(2) + s * G


def random_symplex(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (2 * n, 2 * n))
    return symplectic_unit(n) @ (A + A.T)


@PROPERTY
@given(eps=per_dof(), generator=st.sampled_from((DOF_ROTATION, DOF_SCALING)))
def test_dof_transform_is_per_dof_block_exponential(eps, generator):
    t = dof_transform(generator, eps)
    n = len(eps)
    scale = max(1.0, float(np.max(np.abs(t.r))))**2
    assert symplectic_residual(t.r) <= 1e-13 * scale
    np.testing.assert_allclose(t.r @ t.rinv, np.eye(2 * n), atol=1e-13 * scale)
    want = np.zeros((2 * n, 2 * n))
    for k, e in enumerate(eps):
        want[2 * k:2 * k + 2, 2 * k:2 * k + 2] = dof_block(generator, e)
    np.testing.assert_allclose(t.r, want, rtol=1e-13, atol=1e-13 * scale)


@PROPERTY
@given(eps=per_dof(), generator=st.sampled_from((DOF_ROTATION, DOF_SCALING)))
def test_replay_rebuilds_dof_transform(eps, generator):
    t = dof_transform(generator, eps)
    assert [s.block for s in t.steps] == [(k,) for k in range(len(eps))]
    rebuilt = replay(t.steps, dim=2 * len(eps))
    scale = max(1.0, float(np.max(np.abs(t.r))))
    np.testing.assert_allclose(rebuilt.r, t.r, rtol=1e-14, atol=1e-14 * scale)
    np.testing.assert_allclose(rebuilt.rinv, t.rinv, rtol=1e-14,
                               atol=1e-14 * scale)


@PROPERTY
@given(eps=per_dof(), seed=seeds)
def test_rotation_keeps_off_block_norms(eps, seed):
    M = random_symplex(len(eps), seed)
    t = dof_transform(DOF_ROTATION, eps)
    Mt = t.r @ M @ t.rinv
    np.testing.assert_allclose(off_block_norms(Mt), off_block_norms(M),
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(Mt), np.linalg.norm(M),
                               rtol=1e-13)


@PROPERTY
@given(seed=seeds, n=dofs)
def test_off_block_max_matches_blockwise_loop(seed, n):
    M = random_symplex(n, seed)
    want = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                want = max(want, float(np.max(np.abs(
                    M[2 * i:2 * i + 2, 2 * j:2 * j + 2]))))
    assert off_block_max(M) == want


nonzero = st.one_of(st.floats(min_value=0.05, max_value=5.0),
                    st.floats(min_value=-5.0, max_value=-0.05))


@PROPERTY
@given(entries=per_dof(st.tuples(nonzero, nonzero)))
def test_normal_form_scaling_matches_eigenvalues(entries):
    # the normal pass on blocks [[0, a], [-b, 0]] of either nature: one
    # frequency per block, matching the eigenvalues; an imaginary block
    # becomes a rotation, a real one crosses the pass untouched
    n = len(entries)
    H = np.zeros((2 * n, 2 * n))
    for k, (a, b) in enumerate(entries):
        H[2 * k, 2 * k + 1], H[2 * k + 1, 2 * k] = a, -b
    res = _dof_stages(_block_stage(Symplex.from_matrix(H), 1e-12, None),
                      FORM_NORMAL)
    freqs = res.frequencies
    got = []
    for w in freqs:
        assert w.nature in ("imaginary", "real")
        pair = 1j * w.value if w.nature == "imaginary" else w.value
        got += [pair, -pair]
    ev = list(np.linalg.eigvals(H))
    for z in got:
        k = int(np.argmin([abs(z - e) for e in ev]))
        assert abs(z - ev.pop(k)) <= 1e-12
    Hn = res.final.matrix
    for k, w in enumerate(freqs):
        blk = Hn[2 * k:2 * k + 2, 2 * k:2 * k + 2]
        if w.nature == "imaginary":
            np.testing.assert_allclose(blk, [[0.0, w.value], [-w.value, 0.0]],
                                       atol=1e-12)
        else:
            assert res.transform.steps[-n + k].skipped
            np.testing.assert_array_equal(
                blk, H[2 * k:2 * k + 2, 2 * k:2 * k + 2])


# magnitudes whose squares stay normal doubles, so both norms keep full
# precision
coefficient = st.floats(min_value=-1e6, max_value=1e6).map(
    lambda x: x if abs(x) > 1e-100 else 0.0)


@PROPERTY
@given(c=st.lists(coefficient, min_size=16, max_size=16))
def test_symplex_residual_is_cosymplex_coefficient_norm(c):
    # the Dirac basis is orthogonal with ||gamma_k||_F = 2, so a 4x4 passes
    # the symplex check exactly when its cosymplex coefficients are small
    # against all sixteen: residual 4 ||c[10:]||, ||M||_F = 2 ||c||
    c = np.array(c)
    M = from_coefficients(c)
    norm = float(np.linalg.norm(c))
    assert np.linalg.norm(M) == pytest.approx(2.0 * norm, rel=1e-12)
    assert symplex_residual(M) == pytest.approx(
        4.0 * np.linalg.norm(c[10:]), rel=1e-12, abs=1e-12 * norm)


magnitudes = st.floats(min_value=0.1, max_value=10.0)
signs = st.sampled_from((-1.0, 1.0))


@st.composite
def block_diagonal_symplices(draw):
    """A 2n x 2n symplex, n = 1..4, whose off-diagonal blocks are exactly
    zero; each block [[a, b], [c, -a]] has a diagonal a that is zero,
    1e-7 of the norm of (b, c), or of the size of b and c."""
    n = draw(st.integers(min_value=1, max_value=4))
    M = np.zeros((2 * n, 2 * n))
    for k in range(n):
        b, c = (draw(signs) * draw(magnitudes) for _ in range(2))
        a = draw(st.sampled_from((0.0, 1e-7 * np.hypot(b, c),
                                  draw(magnitudes))))
        M[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, b], [c, -a]]
    return M


@PROPERTY
@given(B=block_diagonal_symplices(),
       exponent=st.integers(min_value=-8, max_value=8))
def test_hamiltonian_rotation_ignores_units(B, exponent):
    # the skip test of each block's rotation is relative to the block, so
    # c B takes the same steps as B and lands on c times its final
    c = 10.0 ** exponent
    ref = decouple(B, form=FORM_HAMILTONIAN)
    got = decouple(c * B, form=FORM_HAMILTONIAN)
    assert [s.skipped for s in got.transform.steps] == \
        [s.skipped for s in ref.transform.steps]
    want = c * ref.final.matrix
    assert np.linalg.norm(got.final.matrix - want) <= \
        1e-13 * np.linalg.norm(want)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@st.composite
def conjugated_blocks(draw):
    """(M, natures, senses): a block-diagonal 2n x 2n symplex, n = 1..5,
    whose block k is T N T^-1 with T = rot(theta) diag(e^s, e^-s) rot(phi)
    in SL(2), |s| <= 1, and N = [[0, w], [-w, 0]] for an imaginary pair
    (sense of rotation sign(w)) or diag(w, -w) for a real one."""
    n = draw(st.integers(min_value=1, max_value=5))
    M = np.zeros((2 * n, 2 * n))
    natures, senses = [], []
    for k in range(n):
        nature = draw(st.sampled_from(("imaginary", "real")))
        sense, w = draw(signs), draw(magnitudes)
        N = np.array([[0.0, sense * w], [-sense * w, 0.0]]) \
            if nature == "imaginary" else np.diag([w, -w])
        theta, phi = draw(params), draw(params)
        s = draw(st.floats(min_value=-1.0, max_value=1.0))
        T = rotation(theta) @ np.diag([math.exp(s), math.exp(-s)]) \
            @ rotation(phi)
        Tinv = rotation(-phi) @ np.diag([math.exp(-s), math.exp(s)]) \
            @ rotation(-theta)
        M[2 * k:2 * k + 2, 2 * k:2 * k + 2] = T @ N @ Tinv
        natures.append(nature)
        senses.append(sense if nature == "imaginary" else 1.0)
    return M, natures, senses


def natures_and_senses(freqs):
    return [(w.nature, math.copysign(1.0, w.value)) for w in freqs]


@PROPERTY
@given(case=conjugated_blocks())
def test_block_frequencies_read_each_block(case):
    # each block's pair is read from the block: it matches the block's
    # eigenvalues, an imaginary pair carries the sign of the block's upper
    # off-diagonal entry (its sense of rotation), and the Hamiltonian pass
    # keeps every nature and sense
    M, natures, senses = case
    res = _block_stage(Symplex(M), 1e-12, None)  # M is block diagonal
    assert res.frequencies == _block_frequencies(M)
    assert natures_and_senses(res.frequencies) == list(zip(natures, senses))
    for k, w in enumerate(res.frequencies):
        blk = M[2 * k:2 * k + 2, 2 * k:2 * k + 2]
        ev = np.linalg.eigvals(blk)
        if w.nature == "imaginary":
            assert math.copysign(1.0, w.value) == np.sign(blk[0, 1])
            assert abs(w.value) == pytest.approx(ev.imag.max(), rel=1e-11)
        else:
            assert w.value == pytest.approx(ev.real.max(), rel=1e-11)
    ham = _dof_stages(res, FORM_HAMILTONIAN)
    assert ham.frequencies == res.frequencies
    assert natures_and_senses(_block_frequencies(ham.final.matrix)) == \
        natures_and_senses(res.frequencies)


def pivots_and_skips(res):
    return ([(i, j) for i, j, _ in res.stats.pivots],
            [s.skipped for s in res.transform.steps])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(min_value=2, max_value=6), seed=seeds,
       exponent=st.floats(min_value=-4.0, max_value=4.0))
def test_block_stage_ignores_units(n, seed, exponent):
    # every skip test of a pivot is relative to the coefficient it is
    # measured against or to the noise of the coefficients, so c F takes
    # the pivots and skips of F; the examples are fixed, as a target at
    # the edge of a threshold may round to either side once scaled
    F = random_test_symplex(n, seed).matrix
    budget = 10 * n * n
    ref = _block_stage(Symplex(F), 1e-12, budget)
    got = _block_stage(Symplex(F * 10.0 ** exponent), 1e-12, budget)
    assert pivots_and_skips(got) == pivots_and_skips(ref)


EIGENVALUE_CLASSES = ("two_imaginary_pairs", "two_real_pairs",
                      "mixed_real_imaginary", "complex_quadruple")

# The smallest nonzero angle, rapidity or E_z that classed_symplices draws
# for the power-of-two property: an entry of N times twelve half-angle
# sines of it is above 1e-248, so no entry of F or of 2^k F, |k| <= 60, is
# subnormal, nor is any product the stages form from them, and 2^k scales
# each exactly.  It is far below STEP_TOL, so steps at the skip threshold
# are still drawn.  Below 2^-1022 a float has a fixed grain of 2^-1074,
# and 2 (x y) and (2 x) y can round apart
# (test_power_of_two_scaling_in_gradual_underflow).
SMALLEST_PARAMETER = 1e-20


def normal_range(elements, smallest=SMALLEST_PARAMETER):
    """elements, with each nonzero draw below `smallest` made 0."""
    return elements.map(lambda x: x if abs(x) >= smallest else 0.0)


@st.composite
def classed_symplices(draw, smallest=0.0):
    """(class, F): a 4x4 symplex of the given eigenvalue class, its
    canonical form (two 2x2 blocks with frequencies 0.2 <= w1 < w2 - 0.2,
    or E_y, E_z and B_y for a complex quadruple) conjugated by one to six
    basic transforms of angle or rapidity in [-1, 1]; with `smallest`,
    each angle, rapidity and E_z is 0 or of modulus at least that."""
    def parameter(elements):
        return draw(normal_range(elements, smallest) if smallest else elements)

    cls = draw(st.sampled_from(EIGENVALUE_CLASSES))
    w1 = draw(st.floats(min_value=0.2, max_value=2.0))
    w2 = w1 + draw(st.floats(min_value=0.2, max_value=2.0))
    if cls == "complex_quadruple":
        ey, by = draw(magnitudes), draw(magnitudes)
        N = ey * GAMMA[5] + parameter(params) * GAMMA[6] + by * GAMMA[8]
    else:
        imaginary = {"two_imaginary_pairs": (True, True),
                     "two_real_pairs": (False, False),
                     "mixed_real_imaginary": (True, False)}[cls]
        N = np.zeros((4, 4))
        for k, (w, imag) in enumerate(zip((w1, w2), imaginary)):
            N[2 * k:2 * k + 2, 2 * k:2 * k + 2] = \
                [[0.0, w], [-w, 0.0]] if imag else [[w, 0.0], [0.0, -w]]
    t = basic_transform(0, 0.0)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        t = compose(basic_transform(
            draw(st.integers(min_value=0, max_value=9)),
            parameter(st.floats(min_value=-1.0, max_value=1.0))), t)
    return cls, apply_similarity(t, N)


@PROPERTY
@given(case=classed_symplices())
def test_block_solve_r_is_its_replayed_steps(case):
    # R is the one factor product of the logged steps; replay rebuilds it
    # from the log bit for bit in every form reached (a real pair has no
    # normal form)
    cls, F = case
    for form in (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN, FORM_NORMAL):
        try:
            res = decouple(F, form=form)
        except UnstableBlock:
            assert form == FORM_NORMAL and cls != "two_imaginary_pairs"
            continue
        except PrecisionLoss as exc:
            # a zero-energy quadruple whose E is off the y axis, a known
            # failure of complex_low_energy (see below): no R to compare
            assert cls == "complex_quadruple" and "canonical" in str(exc)
            continue
        assert np.array_equal(res.transform.r,
                              replay(res.transform.steps, 4).r)


@pytest.mark.xfail(raises=PrecisionLoss, strict=True,
                   reason="complex_low_energy skips the E alignment when the "
                          "energy vanishes, and its P boosts then miss")
def test_zero_energy_quadruple_reaches_canonical_form():
    N = GAMMA[5] + 0.5 * GAMMA[6] + 1.5 * GAMMA[8]
    F = apply_similarity(compose(basic_transform(9, -0.6),
                                 basic_transform(1, 0.7)), N)
    assert Symplex.from_matrix(F).coefficients[0] == 0.0
    assert decouple(F).residual < 1e-12


def check_power_of_two_scaling(F, k, **options):
    """decouple(2^k F) raises what decouple(F) raises, or takes F's steps
    and R bit for bit in every form, reaching 2^k times F's final matrix,
    frequencies and complex radius."""
    c = 2.0 ** k
    for form in (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN, FORM_NORMAL):
        try:
            ref = decouple(F, form=form, **options)
        except SymdecError as exc:
            with pytest.raises(SymdecError) as err:
                decouple(c * F, form=form, **options)
            assert type(err.value) is type(exc)
            continue
        got = decouple(c * F, form=form, **options)
        assert got.form == ref.form
        assert got.transform.steps == ref.transform.steps
        assert np.array_equal(got.transform.r, ref.transform.r)
        assert np.array_equal(got.final.matrix, c * ref.final.matrix)
        if ref.frequencies is None:
            assert got.frequencies is None
        else:
            assert [(w.value, w.nature) for w in got.frequencies] == \
                [(c * w.value, w.nature) for w in ref.frequencies]
        if ref.complex_radius is None:
            assert got.complex_radius is None
        else:
            assert got.complex_radius == c * ref.complex_radius


@PROPERTY
@given(case=classed_symplices(SMALLEST_PARAMETER),
       k=st.integers(min_value=-60, max_value=60))
def test_power_of_two_scaling_keeps_every_bit(case, k):
    # every skip, check and zero band is relative, and 2^k scales each
    # coefficient, each skip target, each check and each band exactly
    check_power_of_two_scaling(case[1], k)


def test_power_of_two_scaling_in_gradual_underflow():
    # outside classed_symplices' domain: F's off-block entries are
    # -1.5 * 2^-1022, and the Hamiltonian stage forms subnormal products,
    # so 2F and F take the same steps and R bit for bit, but their final
    # matrices may differ in the entries below 2^-1022
    F = apply_similarity(basic_transform(7, 2.0 ** -1022),
                         np.diag([1.0, -1.0, 2.0, -2.0]))
    assert np.abs(F[:2, 2:]).max() == 1.5 * 2.0 ** -1022
    for form in (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN):
        ref, got = decouple(F, form=form), decouple(2.0 * F, form=form)
        assert got.transform.steps == ref.transform.steps
        assert np.array_equal(got.transform.r, ref.transform.r)
        apart = got.final.matrix != 2.0 * ref.final.matrix
        assert np.all(np.abs(got.final.matrix[apart]) < 2.0 ** -1022)
        assert np.all(np.abs(2.0 * ref.final.matrix[apart]) < 2.0 ** -1022)
    for G in (F, 2.0 * F):  # two real pairs have no normal form
        with pytest.raises(UnstableBlock):
            decouple(G, form=FORM_NORMAL)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from((1, 3, 5)), seed=seeds,
       k=st.integers(min_value=-20, max_value=20))
def test_power_of_two_scaling_keeps_every_jacobi_bit(n, seed, k):
    check_power_of_two_scaling(random_test_symplex(n, seed).matrix, k)


@PROPERTY
@given(seed=seeds, branch=st.sampled_from(("low", "intermediate")),
       exponent=st.floats(min_value=-6.0, max_value=6.0))
def test_scaled_quadruple_radius_is_its_eigenvalue_modulus(seed, branch,
                                                           exponent):
    # the K2 band is relative, so a complex quadruple in any units reaches
    # the complex canonical form with the modulus of its four eigenvalues
    F = 10.0 ** exponent * random_complex_symplex(
        np.random.default_rng(seed), branch)
    res = decouple(F)
    assert res.form == FORM_COMPLEX_CANONICAL
    np.testing.assert_allclose(np.abs(np.linalg.eigvals(F)),
                               res.complex_radius, rtol=1e-12)


# Every validity check and zero band compares with its tolerance times the
# size of what it checks, so 2^k X, |k| <= 60, gets the verdict of X; the
# inputs sit near each tolerance, where a floor at 1 would accept below
# unit scale what it rejects at unit scale.
powers = st.integers(min_value=-60, max_value=60)
deviations = st.floats(min_value=-13.0, max_value=-7.0)


def verdict(call):
    try:
        call()
    except (ValueError, SymdecError) as exc:
        return type(exc)
    return None


@PROPERTY
@given(seed=seeds, n=st.integers(min_value=1, max_value=3),
       exponent=deviations, k=powers)
def test_symplex_checks_ignore_units(seed, n, exponent, k):
    A = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
    S, C = symplex_cosymplex_split(A)
    c = 2.0 ** k
    for X in (S + 10.0 ** exponent * C, C + 10.0 ** exponent * S):
        assert is_symplex(c * X) == is_symplex(X)
        assert is_cosymplex(c * X) == is_cosymplex(X)
        assert verdict(lambda: Symplex.from_matrix(c * X)) == \
            verdict(lambda: Symplex.from_matrix(X))


@PROPERTY
@given(seed=seeds, n=st.integers(min_value=1, max_value=3),
       exponent=deviations, k=powers)
def test_sigma_symmetry_check_ignores_units(seed, n, exponent, k):
    A = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
    sigma = A @ A.T + 10.0 ** exponent * (A - A.T)
    c = 2.0 ** k
    assert verdict(lambda: SigmaMatrix.from_matrix(c * sigma)) == \
        verdict(lambda: SigmaMatrix.from_matrix(sigma))


@settings(max_examples=30, deadline=None)
@given(ring_seeds=st.tuples(st.integers(0, 300), st.integers(0, 300)),
       phases=st.sampled_from(((0.7, 1.9), (0.4, 2.3), (1.2, 2.8))),
       k=powers)
def test_matched_sigma_check_ignores_units(ring_seeds, phases, k):
    # a report of another ring leaves the fixed point by a relative
    # amount that no emittance hides; the ring's own report meets it
    M = conjugated_ring(ring_seeds[0], phases)
    report = analyze_one_turn(conjugated_ring(ring_seeds[1], phases[::-1]))
    emit = np.array([1.0, 0.5])
    assert verdict(lambda: matched_sigma(M, 2.0 ** k * emit,
                                         report=report)) == \
        verdict(lambda: matched_sigma(M, emit, report=report))
    assert verdict(lambda: matched_sigma(M, 2.0 ** k * emit)) is None


@PROPERTY
@given(c=st.lists(normal_range(st.floats(min_value=-1.0, max_value=1.0)),
                  min_size=10, max_size=10), k=powers)
def test_spectral_natures_ignore_units(c, k):
    ref = spectral_invariants(c)
    got = spectral_invariants([2.0 ** k * x for x in c])
    assert (got.classification, got.degenerate) == \
        (ref.classification, ref.degenerate)
    assert [None if w is None else w.nature
            for w in (got.omega1, got.omega2)] == \
        [None if w is None else w.nature for w in (ref.omega1, ref.omega2)]


@PROPERTY
@given(case=conjugated_blocks(), zero=st.integers(min_value=0, max_value=4),
       exponent=st.floats(min_value=-20.0, max_value=0.0), k=powers)
def test_block_frequency_natures_ignore_units(case, zero, exponent, k):
    # one block, if there is one at index zero, is shrunk toward a zero
    # pair, across the band
    M = case[0].copy()
    M[2 * zero:2 * zero + 2, 2 * zero:2 * zero + 2] *= 10.0 ** exponent
    assert [w.nature for w in _block_frequencies(2.0 ** k * M)] == \
        [w.nature for w in _block_frequencies(M)]
