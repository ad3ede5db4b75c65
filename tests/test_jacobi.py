import hashlib
from dataclasses import replace

import numpy as np
import pytest

from symdec import decouple4, jacobi
from symdec.decouple4 import decouple, decouple_block_diagonal
from symdec.dirac import (GAMMA, is_symplex, symplectic_unit,
                          symplex_cosymplex_split)
from symdec.emeq import Symplex, _transform_floats
from symdec.errors import (ComplexEigenvalues, NotASymplex, PivotComplex,
                           PrecisionLoss)
from symdec.jacobi import (IterationStats, jacobi_decouple, off_block_norms,
                           random_test_symplex)
from symdec.optics import analyze_one_turn
from symdec.transform import (DOF_ROTATION, TransformStep, basic_transform,
                              dof_transform, matrix_exponential,
                              replay, symplectic_residual)

from conftest import random_stable_symplex


def hamiltonian_mask(n):
    mask = np.ones((2 * n, 2 * n), dtype=bool)
    for k in range(n):
        mask[2 * k, 2 * k + 1] = mask[2 * k + 1, 2 * k] = False
    return mask


def test_random_test_symplex_deterministic():
    a = random_test_symplex(4, 123)
    b = random_test_symplex(4, 123)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    c = random_test_symplex(4, 124)
    assert not np.array_equal(a.matrix, c.matrix)


def test_random_test_symplex_construction_rule():
    sym = random_test_symplex(5, 7)
    g0 = symplectic_unit(5)
    A = -g0 @ sym.matrix   # g0^-1 = -g0
    np.testing.assert_allclose(A, A.T, atol=1e-15)
    d = np.diag(A)
    assert np.all(d >= 5.0) and np.all(d < 6.0)
    off = A[~np.eye(10, dtype=bool)]
    assert np.all(np.abs(off) <= 0.5)
    assert is_symplex(sym.matrix, tol=1e-12)


def test_off_block_norms_block_diagonal():
    F = np.zeros((6, 6))
    F[0, 1], F[1, 0] = 1.0, -1.0
    np.testing.assert_array_equal(off_block_norms(F), np.zeros((3, 3)))


def test_off_block_norms_single_coupling():
    F = np.zeros((6, 6))
    F[0, 3] = 2.0   # inside block (0, 1)
    norms = off_block_norms(F)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0   # mean of squares over the 4 block entries
    np.testing.assert_allclose(norms, expected, atol=1e-15)


def test_off_block_norms_matches_bruteforce():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((8, 8))
    norms = off_block_norms(F)
    for i in range(4):
        for j in range(4):
            blk = F[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            want = 0.0 if i == j else np.mean(blk**2)
            assert norms[i, j] == pytest.approx(want, abs=1e-15)


def test_single_dof_is_trivial():
    sym = random_test_symplex(1, 5)
    transform, out, stats = jacobi_decouple(sym)
    assert stats.pivot_steps == 0
    # Hamiltonian pass may fire once to clear the diagonal
    M = out.matrix
    assert abs(M[0, 0]) < 1e-12 and abs(M[1, 1]) < 1e-12
    np.testing.assert_allclose(np.poly(out.matrix), np.poly(sym.matrix),
                               rtol=1e-12, atol=1e-12)


def test_two_dof_single_pivot():
    sym = random_test_symplex(2, 11)
    transform, out, stats = jacobi_decouple(sym)
    assert stats.pivot_steps == 1
    assert stats.final_residual <= 1e-12


def test_jacobi_decouples_and_preserves_spectrum():
    for n, seed in ((3, 0), (5, 1), (8, 2)):
        sym = random_test_symplex(n, seed)
        transform, out, stats = jacobi_decouple(sym)
        assert np.max(np.abs(out.matrix[hamiltonian_mask(n)])) < \
            1e-10 * np.linalg.norm(out.matrix)
        assert symplectic_residual(transform.r) < 1e-9
        ca, cb = np.poly(sym.matrix), np.poly(out.matrix)
        assert np.max(np.abs(ca - cb)) < 1e-8 * max(1.0, np.max(np.abs(ca)))
        np.testing.assert_allclose(
            transform.r @ sym.matrix @ transform.rinv, out.matrix,
            atol=1e-10 * max(1.0, np.linalg.norm(sym.matrix)))


def test_hamiltonian_pass_keeps_residual_below_tol():
    # the residual converges to 9.98e-13 on this input; the per-dof
    # rotations of the Hamiltonian pass must not lift it above tol
    _, _, stats = jacobi_decouple(random_test_symplex(11, 12))
    assert stats.residuals[-1] <= 1e-12
    assert stats.final_residual <= 1e-12


def test_block_diagonal_only_mode():
    sym = random_test_symplex(4, 9)
    res = decouple(sym, form="block_diagonal")
    assert res.form == "block_diagonal"
    assert res.stats.hamiltonian_steps == 0
    assert res.stats.final_residual == res.stats.residuals[-1]
    n = 4
    off = res.final.matrix.copy()
    for k in range(n):
        off[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 0.0
    assert np.max(np.abs(off)) < 1e-10


def test_transform_log_replays():
    sym = random_test_symplex(4, 21)
    transform, out, stats = jacobi_decouple(sym)
    rebuilt = replay(transform.steps, dim=8)
    np.testing.assert_allclose(rebuilt.r, transform.r, atol=1e-12)
    np.testing.assert_allclose(
        rebuilt.r @ sym.matrix @ rebuilt.rinv, out.matrix, atol=1e-10)


def test_rerun_converges_immediately():
    sym = random_test_symplex(6, 2)
    _, out, _ = jacobi_decouple(sym)
    t2, out2, stats2 = jacobi_decouple(out)
    assert stats2.pivot_steps == 0
    assert stats2.hamiltonian_steps == 0
    # the Hamiltonian stage logs its rotations as skips
    assert t2.steps and all(s.skipped for s in t2.steps)
    np.testing.assert_array_equal(out2.matrix, out.matrix)


def test_complex_pivot_detected():
    from symdec.dirac import GAMMA
    import scipy.linalg
    # embed a complex-quadruple 4x4 in a 6x6 symplex
    F4 = 0.5 * GAMMA[4] + 1.0 * GAMMA[7]
    F = scipy.linalg.block_diag(F4[:2, :2], np.array([[0.0, 1.0],
                                                      [-1.0, 0.0]]))
    F = np.zeros((6, 6))
    F[:2, :2] = F4[:2, :2]
    F[:2, 2:4] = F4[:2, 2:]
    F[2:4, :2] = F4[2:, :2]
    F[2:4, 2:4] = F4[2:, 2:]
    F[4, 5], F[5, 4] = 1.0, -1.0
    with pytest.raises(PivotComplex) as err:
        jacobi_decouple(F)
    assert err.value.pivot == (0, 1)


@pytest.mark.parametrize("c02, c12, pair", [(0.1, 0.05, (0, 2)),
                                            (0.05, 0.1, (1, 2)),
                                            (0.1, 0.1, (0, 2))])
def test_fallback_pivot_order(c02, c12, pair):
    # pair (0, 1) is a complex quadruple; the fallback takes the larger of
    # the two real pairs coupling dof 2, the first in index order on a tie
    A = np.zeros((6, 6))
    A[:4, :4] = -symplectic_unit(2) @ (0.5 * GAMMA[4] + 1.0 * GAMMA[7])
    A[4, 4] = A[5, 5] = 2.0
    A[0, 4] = A[4, 0] = c02
    A[3, 5] = A[5, 3] = c12
    F = symplectic_unit(3) @ A
    i, j, _ = jacobi._fallback_pivot(F, off_block_norms(F), (0, 1),
                                     ComplexEigenvalues("pivot (0, 1)"))
    assert (i, j) == pair


def test_iteration_scaling_trend():
    # mean pivot counts grow roughly like the block count; spot check n=6
    counts = []
    for seed in range(10):
        _, _, stats = jacobi_decouple(random_test_symplex(6, seed))
        counts.append(stats.total_steps)
    mean = np.mean(counts)
    ref = 5 * 6 * (6 - 2) / 2
    assert 0.5 * ref <= mean <= 1.5 * ref


def test_stats_residual_trend_recorded():
    _, _, stats = jacobi_decouple(random_test_symplex(5, 4))
    assert stats.residuals[0] > stats.final_residual
    assert len(stats.pivots) == stats.pivot_steps
    assert isinstance(stats, IterationStats)


def test_general_stable_symplex_not_from_generator():
    rng = np.random.default_rng(33)
    F = random_stable_symplex(rng, n=4)
    transform, out, stats = jacobi_decouple(F)
    assert np.max(np.abs(out.matrix[hamiltonian_mask(4)])) < 1e-10


def test_max_steps_budget_enforced():
    from symdec.errors import MaxStepsExceeded
    sym = random_test_symplex(4, 0)
    with pytest.raises(MaxStepsExceeded):
        jacobi_decouple(sym, max_steps=2)


def _no_pivot(*args):
    raise AssertionError("pivot attempted")


@pytest.mark.parametrize("kwargs", [
    {"tol": np.nan}, {"tol": np.inf}, {"tol": -1.0}, {"tol": 0.0},
    {"max_steps": -3}, {"tol": np.nan, "max_steps": -1}])
@pytest.mark.parametrize("entry", ["jacobi_decouple", "decouple"])
def test_bad_iteration_arguments_rejected_before_any_pivot(
        monkeypatch, entry, kwargs):
    monkeypatch.setattr(jacobi, "_solve_block", _no_pivot)
    F = random_test_symplex(4, 0).matrix
    if entry == "decouple":
        kwargs = {"jacobi_tol" if k == "tol" else k: v
                  for k, v in kwargs.items()}
    run = decouple if entry == "decouple" else jacobi_decouple
    with pytest.raises(ValueError, match="tol"):
        run(F, **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"jacobi_tol": np.nan}, {"jacobi_tol": -1.0}, {"max_steps": -3}])
@pytest.mark.parametrize("n", [2, 3])
def test_decouple_checks_iteration_arguments_for_every_n(n, kwargs):
    # a 4x4 never iterates, yet refuses the same arguments as any other 2n
    with pytest.raises(ValueError, match="tol"):
        decouple(random_test_symplex(n, 0).matrix, **kwargs)


def test_zero_pivot_budget_is_valid():
    from symdec.errors import MaxStepsExceeded
    with pytest.raises(MaxStepsExceeded):
        jacobi_decouple(random_test_symplex(4, 0), max_steps=0)
    # an input already decoupled needs no pivot at all
    F = symplectic_unit(3) @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    transform, out, stats = jacobi_decouple(F, max_steps=0)
    assert stats.pivot_steps == 0


def test_random_test_symplex_rejects_bad_n():
    with pytest.raises(ValueError):
        random_test_symplex(0, 1)


# pivot counts of random_test_symplex(n, s) at the default tol, n = 3..9,
# s = 0..3; the fallback pivot must leave every one of them unchanged
PIVOT_STEPS = {
    3: (9, 9, 8, 9), 4: (21, 21, 22, 18), 5: (35, 36, 38, 35),
    6: (60, 57, 56, 57), 7: (81, 77, 82, 89), 8: (111, 108, 113, 115),
    9: (144, 148, 143, 144),
}


def test_pivot_counts_pinned(monkeypatch):
    def no_fallback(*args):
        raise AssertionError("fallback pivot reached")
    monkeypatch.setattr(jacobi, "_fallback_pivot", no_fallback)
    for n, counts in PIVOT_STEPS.items():
        got = tuple(jacobi_decouple(random_test_symplex(n, s))[2].pivot_steps
                    for s in range(4))
        assert got == counts, n


# jacobi_decouple(random_test_symplex(n, s)), s = 0..3: the pivot count and
# the first 16 hex digits of the sha256 of repr([(i, j), ...]), recorded
# with the dense 2n x 2n update that the pair-local one replaced
PIVOT_SEQUENCES = {
    3: ((9, '119a6785dfa42c8c'), (9, 'b97a38f83b164822'),
        (8, 'c9f06f0b21ce52f7'), (9, '52546987959f2119')),
    4: ((21, '738d6d4d99d74cef'), (21, '6b914307a898e244'),
        (22, '73beeeaf07a0e67b'), (18, '430345d1b83c1978')),
    5: ((35, 'e8b317e76c459271'), (36, 'a8adbbad51bc2f46'),
        (38, '56c4086bf9402b0a'), (35, '5dc56bf878c6aec6')),
    6: ((60, '2d0c349a7f8a3a36'), (57, '03e49f4ed62d01a3'),
        (56, '55324ec3776d4922'), (57, 'ef861709ec4f0305')),
    7: ((81, 'a3d41082c5de7b56'), (77, '17c50f146c10fc9e'),
        (82, '0103251caabbe29b'), (89, '52a55e356ced71f7')),
    8: ((111, 'fd5c4819bbda05cd'), (108, '345336cb6f2adcb4'),
        (113, '3ef84dbbaa4ca8a3'), (115, 'e4c9bd216e2c0891')),
    9: ((144, '04e008693d890cc8'), (148, '3a2cd53d81d4558d'),
        (143, '2afd05048591f8e7'), (144, '3d3b3f1dfa59407f')),
    10: ((194, '48ae6c63fe418f9e'), (183, 'cb7eed93a4c3dd0a'),
         (187, '8a4fd9be63c5716f'), (184, 'ad96fbd782db6f2a')),
    11: ((229, 'bc18461721c9367c'), (236, '2815e01437675c4d'),
         (234, 'c3b25cddb503595f'), (227, 'd908138d25269b92')),
    12: ((282, 'be4431b0b9777572'), (278, '1d75a234a0cea72c'),
         (281, 'd9f6bb3a60c59bfc'), (286, '4d08977e10e8b3c9')),
}


def pivot_digest(stats):
    seq = [(i, j) for i, j, _ in stats.pivots]
    return len(seq), hashlib.sha256(repr(seq).encode()).hexdigest()[:16]


@pytest.mark.parametrize("n", sorted(PIVOT_SEQUENCES))
def test_pivot_sequences_pinned(n):
    got = tuple(pivot_digest(jacobi_decouple(random_test_symplex(n, s))[2])
                for s in range(4))
    assert got == PIVOT_SEQUENCES[n]


# the same at the benchmark's larger sizes and tolerance:
# jacobi_decouple(random_test_symplex(n, s), tol=1e-10)
BENCHMARK_SEQUENCES = {
    (16, 0): (500, 'b3257be86c1dcabe'), (16, 1): (499, 'c1a10996c817b563'),
    (20, 0): (825, '5b0826b071c4f159'), (20, 1): (805, 'b0619a097021a4ad'),
}


@pytest.mark.parametrize("n, seed", sorted(BENCHMARK_SEQUENCES))
def test_benchmark_pivot_sequences_pinned(n, seed):
    stats = jacobi_decouple(random_test_symplex(n, seed), tol=1e-10)[2]
    assert pivot_digest(stats) == BENCHMARK_SEQUENCES[(n, seed)]


@pytest.mark.parametrize("seed", range(4))
def test_pivot_is_the_4x4_entry_point(seed, monkeypatch):
    # each pivot's R and steps are decouple_block_diagonal's on the
    # extracted 4x4, bit for bit, with the steps tagged (i, j)
    calls = []
    solve = jacobi._solve_block

    def recording(F4, block):
        out = solve(F4, block)
        calls.append((F4, block, out))
        return out
    monkeypatch.setattr(jacobi, "_solve_block", recording)
    transform, _, stats = jacobi_decouple(random_test_symplex(6, seed))
    assert [b for _, b, _ in calls] == [(i, j) for i, j, _ in stats.pivots]
    logged = []
    for F4, (i, j), (r4, _, steps4, _) in calls:
        res = decouple_block_diagonal(F4)
        assert r4.tobytes() == res.transform.r.tobytes()
        assert steps4 == [replace(s, block=(i, j))
                          for s in res.transform.steps]
        logged += steps4
    assert tuple(logged) == transform.steps[:len(logged)]


def test_faults_inside_a_pivot_surface(monkeypatch):
    # every pivot keeps the 4x4 checks: a coefficient propagation that
    # drifts by 1e-6 relative raises PrecisionLoss, and a pivot block off
    # the symplices raises NotASymplex; at 1e-9 relative it passes the
    # 1e-8 check of R F R^-1, so only the entry check (1e-10) sees it
    def drifting(f, b, eps):
        out = _transform_floats(f, b, eps)
        out[int(np.abs(out).argmax())] *= 1.0 + 1e-6
        return out
    with monkeypatch.context() as m:
        m.setattr(decouple4, "_transform_floats", drifting)
        with pytest.raises(PrecisionLoss, match="drifted"):
            jacobi_decouple(random_test_symplex(6, 0))
    extract = jacobi._extract_pair

    def asymmetric(F, i, j):
        F4 = extract(F, i, j)
        F4[0, 2] += 1e-9 * np.abs(F4).max()
        return F4
    monkeypatch.setattr(jacobi, "_extract_pair", asymmetric)
    with pytest.raises(NotASymplex):
        jacobi_decouple(random_test_symplex(6, 0))


@pytest.mark.parametrize("hamiltonian", [True, False])
@pytest.mark.parametrize("n", range(3, 9))
def test_final_is_dense_similarity(n, hamiltonian):
    # the pair-local update of M agrees with R F R^-1 formed densely, after
    # the Hamiltonian pass and at the end of the block stage
    F = random_test_symplex(n, n).matrix
    if hamiltonian:
        transform, final, _ = jacobi_decouple(F)
    else:
        res = jacobi._block_stage(Symplex(F), 1e-12, None)
        transform, final = res.transform, res.final
    R, g0 = transform.r, symplectic_unit(n)
    dense = R @ F @ (-g0 @ R.T @ g0)
    assert np.abs(final.matrix - dense).max() <= 1e-12 * np.abs(dense).max()


def test_replay_matches_dense_embedding():
    transform = jacobi_decouple(random_test_symplex(5, 1))[0]
    dense = np.eye(10)
    for s in transform.steps:
        # the step's 4x4, or for a single dof the 2x2 block G of its
        # gamma = diag(G, G), written densely at the rows and columns of
        # its dofs, independently of embed_rows
        t = basic_transform(s.generator, 0.0 if s.skipped else s.epsilon)
        idx = [m for d in s.block for m in (2 * d, 2 * d + 1)]
        e = np.eye(10)
        e[np.ix_(idx, idx)] = t.r[:len(idx), :len(idx)]
        dense = e @ dense
    rebuilt = replay(transform.steps, dim=10)
    assert rebuilt.steps == transform.steps
    assert np.abs(rebuilt.r - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.abs(rebuilt.r - transform.r).max() <= 1e-12 * np.abs(dense).max()


def test_replay_checks_block_pairs():
    with pytest.raises(IndexError):
        replay((TransformStep(0, 0.1, (1, 3)),), dim=6)
    with pytest.raises(IndexError):
        replay((TransformStep(0, 0.1, (2, 1)),), dim=6)


@pytest.mark.parametrize("n, seed, tau", [(6, 1, 0.5), (6, 5, 0.5),
                                          (3, 29, 1.0)])
def test_stable_ring_complex_pivot_falls_back(n, seed, tau, monkeypatch):
    # phase advances straddle pi, so a largest pair of the symplex part
    # can be a complex 4x4; the next pair in amplitude order decouples
    M = matrix_exponential(random_test_symplex(n, seed).matrix, tau).matrix
    calls = []
    fallback = jacobi._fallback_pivot

    def counted(*args):
        calls.append(args[2])
        return fallback(*args)
    monkeypatch.setattr(jacobi, "_fallback_pivot", counted)
    report = analyze_one_turn(M, tau=tau)
    assert calls
    assert report.stable
    phases = np.sort(np.abs(np.angle(np.linalg.eigvals(M))))[::2]
    np.testing.assert_allclose(np.sort(report.tunes), phases / (2 * np.pi),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("angles, count", [((0.3, 0.0, -0.2), 2),
                                           ((0.0, 0.0, -0.2), 1),
                                           ((0.3, -0.2, 0.0), 1),
                                           ((0.0, 0.0, 0.0), 0)])
def test_hamiltonian_steps_count_rotated_dof_pairs(angles, count):
    # dofs (0, 1) form one pair, the odd last dof 2 another
    t = dof_transform(DOF_ROTATION, angles)
    stats = IterationStats().after_hamiltonian(t, random_test_symplex(3, 0))
    assert stats.hamiltonian_steps == count


@pytest.mark.parametrize("seed, pivots", [(0, 60), (1, 57), (2, 56), (3, 57),
                                          (4, 56)])
@pytest.mark.parametrize("c", [1e-4, 0.01, 1.0, 100.0])
def test_pivot_count_does_not_depend_on_units(seed, pivots, c):
    # a rotation is skipped when its target is negligible against the
    # coefficient it is measured against; an absolute skip test stalled
    # the small scales at a residual near 1e-11 until the budget ran out
    _, _, stats = jacobi_decouple(random_test_symplex(6, seed).matrix * c,
                                  max_steps=100)
    assert stats.pivot_steps == pivots


@pytest.mark.parametrize("n, seed, tau", [(3, 1, 0.1), (3, 12, 0.1),
                                          (3, 19, 0.1), (3, 22, 0.1),
                                          (6, 9, 0.5), (6, 11, 0.5)])
def test_short_period_ring_converges(n, seed, tau):
    # the symplex part of a short-period ring is small (about sin(w tau)),
    # the units at which an absolute skip test stalled the pivot loop
    M = matrix_exponential(random_test_symplex(n, seed).matrix, tau).matrix
    jacobi_decouple(symplex_cosymplex_split(M)[0], max_steps=10 * n * n)
    report = analyze_one_turn(M, tau=tau)
    phases = np.sort(np.abs(np.angle(np.linalg.eigvals(M))))[::2]
    np.testing.assert_allclose(np.sort(report.tunes), phases / (2 * np.pi),
                               rtol=0, atol=1e-14)


# trace, sum and the sum of rows 16..19 (dofs 8, 9) of the R of
# decouple(random_test_symplex(12, 2), form)
NOISE_PAIR_R = {
    "hamiltonian": (-0.5593456755536955, -5.255964217911744,
                    -0.5568923342541241),
    "normal": (-0.5595779415716936, -5.292887550814992, -0.6082861776646389)}


@pytest.mark.parametrize("form", sorted(NOISE_PAIR_R))
def test_noise_pair_is_a_skip(form):
    # pivot 279 (dofs 8, 9) of this input has B.P = -1.4e-16 against
    # E.B = -9.0e-13, both rounding noise for coefficients of about 11.5;
    # a skip test relative to E.B alone turned its phase by -pi, moving R
    # by 2.0 relative (figures recorded with an absolute skip test)
    trace, total, dofs_8_9 = NOISE_PAIR_R[form]
    R = decouple(random_test_symplex(12, 2), form=form).transform.r
    assert np.trace(R) == pytest.approx(trace, rel=1e-12)
    assert R.sum() == pytest.approx(total, rel=1e-12)
    assert R[16:20].sum() == pytest.approx(dofs_8_9, rel=1e-12)
