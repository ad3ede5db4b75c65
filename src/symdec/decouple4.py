"""Decoupling of 2n x 2n symplices; `decouple` is the one entry point.

Only the block stage knows n.  A 4x4 is block-diagonalized by elementary
symplectic similarity transforms chosen from the EMEQ geometry (B and
the auxiliary vector b along y, E and P in the x-z plane), any other 2n
by the Jacobi iteration.  Every later stage acts on each degree of freedom
alone: one phase rotation per dof zeroes its block's diagonal
(Hamiltonian form), one scaling per dof makes the block [[0, w], [-w, 0]]
(normal form), and a constant per-dof basis diagonalizes it.  Each
block's eigenvalue pair is read from the block itself, for every n and
every form (_block_frequencies).

Matrices whose second invariant is negative (complex eigenvalue
quadruples) cannot be block-diagonalized over the reals; two dedicated
procedures bring them to the real canonical form with only the E_y, E_z
and B_y coefficients surviving.

Each geometric step moves the ten coefficients (energy, P, E, B), kept
as Python floats, in closed form (emeq._transform_floats); R F R^-1
is built once per stage and every pattern check reads its re-extracted
coefficients.  Every rotation and boost is a skip, a logged step of
parameter 0, by one rule free of the units of F (_Pipeline.skip), so
inputs in canonical position pass through with the identity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import emeq
from .dirac import GAMMA, _frobenius, _symplex_floats
from .emeq import (NATURE_IMAGINARY, Frequency, SpectralInvariants, Symplex,
                   _aux_b, _masses, _transform_floats)
from .errors import (BoostDomain, BranchMismatch, ComplexEigenvalues,
                     DegenerateB, PrecisionLoss, UnstableBlock)
from .transform import (DOF_ROTATION, DOF_SCALING, SymplecticTransform,
                        TransformStep, _block_positions, _product,
                        _symplectic_inverse, dof_transform)

if TYPE_CHECKING:
    from .jacobi import IterationStats

__all__ = [
    "FORM_BLOCK_DIAGONAL",
    "FORM_HAMILTONIAN",
    "FORM_NORMAL",
    "FORM_COMPLEX_CANONICAL",
    "STEP_TOL",
    "NOISE_TOL",
    "POST_TOL",
    "JACOBI_TOL",
    "DecoupleResult",
    "decouple_block_diagonal",
    "diagonalize",
    "complex_low_energy",
    "complex_intermediate",
    "decouple",
    "off_block_max",
]

FORM_BLOCK_DIAGONAL = "block_diagonal"
FORM_HAMILTONIAN = "hamiltonian"
FORM_NORMAL = "normal"
FORM_COMPLEX_CANONICAL = "complex_canonical"


# Step targets within STEP_TOL times their reference or NOISE_TOL |c|^d
# (the unit roundoff of a degree-d form in the coefficients c) are skips
# (_Pipeline.skip); POST_TOL bounds the postconditions (pattern, drift);
# JACOBI_TOL is the default threshold of the Jacobi block stage.
STEP_TOL = 1e-14
NOISE_TOL = 2.0 ** -53
POST_TOL = 1e-10
JACOBI_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DecoupleResult:
    """Outcome of a decoupling pipeline.

    final = transform applied to source, a Symplex.  residual is the
    largest entry of final off the reached pattern for every n (the
    largest coefficient, for the complex canonical form).  Any n other
    than 2 has no invariants and carries Jacobi's counters in stats.
    frequencies hold one Frequency per diagonal block, read from the
    block by _block_frequencies (signed for an imaginary pair) in every
    form but the complex canonical one, which carries complex_radius,
    the radius of the eigenvalue circle, instead.
    """

    source: np.ndarray
    transform: SymplecticTransform
    final: Symplex
    form: str
    residual: float
    invariants: SpectralInvariants | None = None
    frequencies: tuple[Frequency, ...] | None = None
    complex_radius: float | None = None
    stats: IterationStats | None = None


class _Pipeline:
    """One stage on a 4x4: propagated coefficients f (Python floats, by
    default sym.coefficients) and the step log, tagged with `block`."""

    def __init__(self, sym: Symplex, block: tuple[int, int] | None = None,
                 f: Sequence[float] | None = None):
        self.source, self.block, self.steps = sym, block, []
        self.f = sym.coefficients if f is None else f

    def noise(self, degree: int) -> float:
        """NOISE_TOL |f|^degree, the rounding of a form of that degree."""
        return NOISE_TOL * math.hypot(*self.f) ** degree

    def skip(self, num: float, den: float, degree: int) -> bool:
        """Whether a step removing `num` against `den`, both of `degree` in
        f, is a skip: |num| within STEP_TOL |den| or the noise."""
        return abs(num) <= max(STEP_TOL * abs(den), self.noise(degree))

    def rotate(self, b: int, num: float, den: float, degree: int,
               sign: float = 1.0, turn: bool = False) -> None:
        """Rotate by sign * atan2(num, den) to remove `num`, or skip: atan2
        would turn by pi for den < 0, or by the sign of a rounding error.
        With `turn`, a den < -noise turns."""
        if self.skip(num, den, degree) and not (
                turn and den < -self.noise(degree)):
            self.step(b, 0.0)
        else:
            self.step(b, sign * math.atan2(num, den))

    def align_y(self, vector, degree: int, skip: bool = False) -> None:
        """Turn vector(f) onto the y axis: gamma7 removes its z component,
        then gamma9 its x component; two skips with `skip`."""
        for b, k, sign in ((7, 2, 1.0), (9, 0, -1.0)):
            v = vector(self.f)
            self.rotate(b, 0.0 if skip else v[k], v[1], degree, sign)

    def step(self, b: int, epsilon: float) -> None:
        """Apply one generator to f and log it; epsilon 0.0 is a skip."""
        if epsilon:
            self.f = _transform_floats(self.f, b, epsilon)
        self.steps.append(TransformStep(b, epsilon, self.block))

    def boost(self, b: int, num: float, den: float, sign: float,
              degree: int) -> None:
        """Boost by sign*arctanh(num/den) to remove `num`, or skip."""
        if self.skip(num, den, degree):
            self.step(b, 0.0)
            return
        if abs(den) <= abs(num):
            k = len(self.steps) + 1
            raise BoostDomain(f"step {k}: arctanh argument {num:.3e}/"
                              f"{den:.3e} has modulus >= 1", step=k)
        self.step(b, sign * math.atanh(num / den))

    def finish(self) -> tuple[np.ndarray, np.ndarray, Symplex, list[float]]:
        """R, R^-1, R F R^-1 and its ten re-extracted coefficients
        (NotASymplex if it left the symplices, PrecisionLoss if the
        propagation drifted).  R is the product of the logged steps."""
        r = _product(self.steps)
        rinv = _symplectic_inverse(r)
        final = Symplex.from_matrix(r @ self.source.matrix @ rinv, tol=1e-8)
        c = _symplex_floats(final.matrix)
        drift = max([abs(x - y) for x, y in zip(c, self.f)])
        if drift > POST_TOL * _scale(final.matrix):
            raise PrecisionLoss(f"propagation drifted by {drift:.3e}")
        return r, rinv, final, c


def _as_symplex(F) -> Symplex:
    return F if isinstance(F, Symplex) else Symplex.from_matrix(F)


def _check_iteration(tol: float, max_steps: int | None) -> None:
    if not 0.0 < tol < np.inf or max_steps is not None and max_steps < 0:
        raise ValueError(f"need a finite tol > 0 and max_steps >= 0, got "
                         f"tol={tol!r}, max_steps={max_steps!r}")


def _scale(M: np.ndarray) -> float:
    """||M||_F / 2 (a 4x4 symplex's ||coefficients||), with no floor."""
    return 0.5 * _frobenius(M)


def off_block_max(M: np.ndarray) -> float:
    """Largest entry modulus outside the 2x2 diagonal blocks of a 2n x 2n
    matrix (0 for n = 1)."""
    A = np.abs(np.asarray(M, dtype=float))
    A.put(_block_positions(A.shape[0] // 2)[:2 * A.shape[0]], 0.0)
    return float(A.max())


def _diagonal_blocks(M: np.ndarray) -> list[tuple[float, float, float, float]]:
    """(a, b, c, d) of each diagonal 2x2 block [[a, b], [c, d]] of M."""
    rows = M.tolist()
    return [(rows[k][k], rows[k][k + 1], rows[k + 1][k], rows[k + 1][k + 1])
            for k in range(0, len(rows), 2)]


def _dof_stages(res: DecoupleResult, form: str) -> DecoupleResult:
    """A block_diagonal result continued to `form` in one per-dof pass: the
    per-dof rotation to H = R M R^-1, which keeps every off-block norm and
    adds its dof pairs to Jacobi's hamiltonian_steps, then for normal form
    the per-dof scaling to S H S^-1 by the DOF_SCALING rapidity log|a/b|/2
    of each imaginary block [[0, a], [-b, 0]] (a real or zero block keeps
    rapidity 0 and its entries), all products dense, R = S (R R_res) too.
    Only the final matrix is checked: a symplex at 1e-8, its diagonal
    blocks on `form` (rotations where imaginary) within POST_TOL times the
    scale of the last stage's input (PrecisionLoss); a scaling keeps every
    diagonal, so this also sees a Hamiltonian defect."""
    M, freqs, stats = res.final.matrix, res.frequencies, res.stats
    t = _hamiltonian_rotation(M)
    last, M = M, t.r @ M @ t.rinv
    r, steps = t.r @ res.transform.r, res.transform.steps + t.steps
    if stats is not None:
        stats = replace(stats, hamiltonian_steps=len(
            {s.block[0] // 2 for s in t.steps if not s.skipped}))
    if form == FORM_NORMAL:
        freqs = _block_frequencies(M)
        t = dof_transform(DOF_SCALING, [
            0.5 * math.log(a / -b) if w.nature == NATURE_IMAGINARY else 0.0
            for (_, a, b, _), w in zip(_diagonal_blocks(M), freqs)])
        last, M, r, steps = M, t.r @ M @ t.rinv, t.r @ r, steps + t.steps
    final = Symplex.from_matrix(M, tol=1e-8)
    # the diagonals, and (a - b)/2 of each imaginary [[0, a], [-b, 0]]
    blocks = _diagonal_blocks(M)
    defect = max([max(abs(a), abs(d)) for a, _, _, d in blocks])
    if form == FORM_NORMAL:
        defect = max([defect] + [
            0.5 * abs(b + c) for (_, b, c, _), w in zip(blocks, freqs)
            if w.nature == NATURE_IMAGINARY])
    if defect > POST_TOL * _scale(last):
        raise PrecisionLoss(f"{form} form off by {defect:.3e}")
    return DecoupleResult(
        source=res.source, transform=SymplecticTransform(r, steps),
        final=final, form=form, residual=max(off_block_max(M), defect),
        invariants=res.invariants, frequencies=freqs,
        complex_radius=res.complex_radius, stats=stats)


def _hamiltonian_rotation(M: np.ndarray) -> SymplecticTransform:
    """Per-dof phase rotation zeroing the diagonals of the diagonal blocks.

    A 2x2 symplex [[a, b], [c, -a]] conjugated by the phase rotation of
    angle theta has diagonal a cos(2 theta) + (b + c)/2 sin(2 theta);
    the full angle 2 theta = atan2(-2a, b + c) removes it.  A block with
    |2a| below STEP_TOL times its Frobenius norm keeps angle 0, free of
    the units of M.  Not b + c, as in _Pipeline.skip: it vanishes both on
    [[0, w], [-w, 0]], kept, and on [[a, w], [-w, -a]], which must turn.
    """
    blocks = _diagonal_blocks(M)
    skip = [abs(2.0 * a) < STEP_TOL * math.sqrt(a * a + b * b + c * c + d * d)
            for a, b, c, d in blocks]
    angles = np.arctan2([-2.0 * a for a, _, _, _ in blocks],
                        [b + c for _, b, c, _ in blocks]).tolist()
    return dof_transform(DOF_ROTATION, [0.0 if k else x
                                        for k, x in zip(skip, angles)])


def _solve_block(F, block: tuple[int, int] | None = None
                 ) -> tuple[np.ndarray, np.ndarray, list, Symplex]:
    """(R, R^-1, steps tagged `block`, R F R^-1) of F's 4x4 block stage for
    decouple_block_diagonal and each Jacobi pivot; every call checks F, K2,
    the boost, R F R^-1, the drift and the pattern (DegenerateB).  A
    Symplex brings its coefficients and invariants; a matrix (a Jacobi
    pivot) is checked and its coefficients read once, as Python floats."""
    if isinstance(F, Symplex):
        sym, f, inv = F, F.coefficients, F.invariants
    else:
        sym = Symplex.from_matrix(F)
        f = _symplex_floats(sym.matrix)
        inv = emeq.spectral_invariants(f)
    if inv.k2 < 0.0 and not inv.degenerate:
        raise ComplexEigenvalues(
            f"second invariant K2 = {inv.k2:.6e} < 0; eigenvalues form a "
            "complex quadruple")
    pipe = _Pipeline(sym, block, f)

    m_r, m_g, _ = _masses(pipe.f)
    pipe.rotate(0, m_g, m_r, 2)
    pipe.align_y(_aux_b, 2)
    m_r, b_y = _masses(pipe.f)[0], _aux_b(pipe.f)[1]
    try:
        pipe.boost(2, m_r, b_y, 1.0, 2)
    except BoostDomain:  # Jacobi's fallback pivot catches the K2 class
        raise ComplexEigenvalues(
            f"boost infeasible: |E.B| = {abs(m_r):.6e} >= "
            f"|b_y| = {abs(b_y):.6e}") from None

    r, rinv, final, c = pipe.finish()
    pattern = max(abs(c[7]), abs(c[9]), abs(c[5]), abs(c[2]))  # Bx, Bz, Ey, Py
    if pattern > POST_TOL * _scale(sym.matrix):
        raise DegenerateB(
            "geometric strategy exhausted with off-block coefficients up to "
            f"{pattern:.3e}; auxiliary vector b gives no usable direction")
    return r, rinv, pipe.steps, final


def decouple_block_diagonal(F) -> DecoupleResult:
    """Block-diagonalize a 4x4 symplex with real/imaginary eigenvalues.

    Strategy: (1) phase rotation removing B.P, (2)-(3) spatial rotations
    aligning the auxiliary vector b with the y-axis, (4) a phase boost
    removing E.B (_solve_block).  The boost exists exactly when the second
    invariant is non-negative; otherwise ComplexEigenvalues is raised and
    the caller should use the complex-quadruple procedures.
    """
    sym = _as_symplex(F)
    r, _, steps, final = _solve_block(sym)
    return DecoupleResult(
        source=sym.matrix, transform=SymplecticTransform(r, tuple(steps)),
        final=final, form=FORM_BLOCK_DIAGONAL,
        residual=off_block_max(final.matrix), invariants=sym.invariants,
        frequencies=_block_frequencies(final.matrix))


def _block_frequencies(M: np.ndarray) -> tuple[Frequency, ...]:
    """The eigenvalue pair of each diagonal 2x2 block of a 2n x 2n matrix.

    A block [[p, q], [r, s]] has the pair +-sqrt(-d), d = p s - q r,
    classified by Frequency.from_square against the zero band
    (STEP_TOL ||M||_F)^2, free of the units of M; an imaginary pair +-i w has
    w = copysign(sqrt(d), q), the sign giving the block's sense of
    rotation.
    """
    band = (STEP_TOL * _frobenius(M)) ** 2
    return tuple([Frequency.from_square(p * s - q * r, band, q)
                  for p, q, r, s in _diagonal_blocks(M)])


def diagonalize(res: DecoupleResult) -> tuple[np.ndarray, np.ndarray]:
    """Complex eigenvector basis and eigenvalues of the source symplex.

    Only reachable from normal form, of any 2n.  The constant
    unitary-symplectic matrix E0 = (1 - g0 + i g3 + i g6)/2 is
    diag(e0, e0), and e0 diagonalizes every rotation block, so the source
    has eigenvector matrix E = Rinv kron(I_n, e0) with eigenvalues
    (i w1, -i w1, ..., i wn, -i wn); PrecisionLoss if its residual is
    above 1e-9 times the source's scale.
    """
    if res.form != FORM_NORMAL:
        raise ValueError(f"not a normal-form result: {res.form!r}")
    e0 = 0.5 * (np.eye(4) - GAMMA[0] + 1j * GAMMA[3] + 1j * GAMMA[6])
    vecs = res.transform.rinv @ np.kron(np.eye(res.final.n), e0[:2, :2])
    values = np.array([s * w.value for w in res.frequencies
                       for s in (1j, -1j)])
    resid = float(np.max(np.abs(res.source @ vecs - vecs * values)))
    if resid > 1e-9 * _scale(res.source):
        raise PrecisionLoss(
            f"eigen decomposition residual {resid:.3e} above tolerance")
    return vecs, values


def _complex_precondition(sym: Symplex) -> tuple[float, float, float]:
    """energy^2, P^2 and E^2 of a 4x4 symplex, whose comparison picks the
    complex procedure; BranchMismatch unless K2 < 0."""
    if sym.invariants.k2 >= 0.0:
        raise BranchMismatch(f"K2 = {sym.invariants.k2:.6e} >= 0; "
                             "use decouple_block_diagonal")
    f = sym.coefficients
    # numpy's dot product: a left-to-right sum rounds differently, and
    # e2 - p2 sets complex_intermediate's first angle
    p, e = np.array(f[1:4]), np.array(f[4:7])
    return f[0]**2, float(p @ p), float(e @ e)


def complex_low_energy(F) -> DecoupleResult:
    """Canonical form for a complex quadruple with small energy.

    Precondition: K2 < 0 and energy^2 < max(P^2, E^2).  Nine steps:
    maximize E.B by a phase rotation, align E with y, remove the energy
    by a phase boost, remove P by two boosts against B_y, realign B with
    y, and finally rotate E_x away about the y-axis.  The result carries
    only E_y, E_z and B_y, with the eigenvalues on a circle of radius
    (K1^2 + 4 |K2|)^(1/4).
    """
    sym = _as_symplex(F)
    energy2, p2, e2 = pre = _complex_precondition(sym)
    if energy2 >= max(p2, e2):
        raise BranchMismatch(
            "energy^2 >= max(P^2, E^2); use complex_intermediate")
    return _complex_procedure(sym, pre, low=True)


def complex_intermediate(F) -> DecoupleResult:
    """Canonical form for a complex quadruple at intermediate energy.

    Precondition: K2 < 0 and energy^2 > min(P^2, E^2).  A phase rotation
    minimizes P^2 (removing E.P), P is aligned with y and removed by a
    Lorentz boost along y, B is aligned with y, the energy removed by a
    phase boost, and E_x rotated away.  Same canonical pattern as the
    low-energy case.
    """
    sym = _as_symplex(F)
    energy2, p2, e2 = pre = _complex_precondition(sym)
    if energy2 < min(p2, e2):
        raise BranchMismatch(
            "energy^2 < min(P^2, E^2); use complex_low_energy")
    return _complex_procedure(sym, pre, low=False)


def _complex_procedure(sym: Symplex, pre: tuple[float, float, float],
                       low: bool) -> DecoupleResult:
    """complex_low_energy's steps (low) or complex_intermediate's on sym,
    whose _complex_precondition is pre, to the complex canonical form."""
    pipe = _Pipeline(sym)  # f: energy, P, E, B at 0, 1-3, 4-6, 7-9
    if low:
        m_r, m_g, _ = _masses(pipe.f)
        pipe.rotate(0, m_g, m_r, 2)                              # 1
        # the E alignment serves only the energy boost: skips when it would
        pipe.align_y(lambda f: f[4:7], 1,                        # 2-3
                     skip=pipe.skip(pipe.f[0], math.hypot(*pipe.f[4:7]), 1))
        pipe.boost(2, pipe.f[0], pipe.f[5], +1.0, 1)             # 4 energy
        pipe.boost(3, pipe.f[1], pipe.f[8], -1.0, 1)             # 5 P_x
        pipe.boost(1, pipe.f[3], pipe.f[8], +1.0, 1)             # 6 P_z
        pipe.align_y(lambda f: f[7:10], 1)                       # 7-8
        pipe.rotate(8, pipe.f[4], pipe.f[6], 1)                  # 9 E_x
    else:
        _, p2, e2 = pre
        # minimizes P^2 (and removes E.P): act whenever E.P survives or
        # the minimum sits a quarter turn away (P^2 > E^2)
        pipe.rotate(0, 2.0 * _masses(pipe.f)[2], e2 - p2, 2, 0.5,  # 1
                    turn=True)
        pipe.align_y(lambda f: f[1:4], 1)                        # 2-3
        # Lorentz boosts mix (energy, P_i) with the opposite relative sign
        # of the phase-boost (energy, E_i) doublet: a minus on the rapidity
        pipe.boost(5, pipe.f[2], pipe.f[0], -1.0, 1)             # 4 P_y
        pipe.align_y(lambda f: f[7:10], 1)                       # 5-6
        pipe.boost(2, pipe.f[0], pipe.f[5], +1.0, 1)             # 7 energy
        pipe.rotate(8, pipe.f[4], pipe.f[6], 1)                  # 8 E_x
    r, _, final, c = pipe.finish()
    # surviving pattern: E_y, E_z, B_y; everything else must vanish
    resid = max(map(abs, c[:5] + [c[7], c[9]]))
    if resid > POST_TOL * _scale(final.matrix):
        raise PrecisionLoss(
            f"complex canonical coefficients off by {resid:.3e}")
    inv = sym.invariants
    rho = (inv.k1**2 + 4.0 * abs(inv.k2)) ** 0.25
    return DecoupleResult(
        source=sym.matrix, transform=SymplecticTransform(r, tuple(pipe.steps)),
        final=final, form=FORM_COMPLEX_CANONICAL, residual=resid,
        invariants=inv, frequencies=None, complex_radius=float(rho))


def decouple(F, form: str = FORM_BLOCK_DIAGONAL,
             jacobi_tol: float = JACOBI_TOL,
             max_steps: int | None = None) -> DecoupleResult:
    """Decouple a 2n x 2n symplex to the form "block_diagonal",
    "hamiltonian" or "normal", checking F, jacobi_tol and max_steps first.

    The block stage is the only branch on n.  A 4x4 takes the geometric
    pipeline; for K2 < 0 the matching complex procedure runs (low energy
    if energy^2 < max(P^2, E^2), intermediate otherwise) regardless of
    the requested form.  Any other n takes Jacobi's block stage
    (threshold jacobi_tol, pivot budget max_steps) and carries its
    IterationStats.  Both continue in one per-dof pass (_dof_stages): a
    phase rotation per dof for Hamiltonian form, then a scaling per dof
    for normal form, each logged as one step per dof after the block
    stage's steps, so the log of each form extends the one before.  A
    block with a real or vanishing eigenvalue pair has no normal form
    (UnstableBlock, checked on the pass's frequencies).
    """
    if form not in (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN, FORM_NORMAL):
        raise ValueError(f"unknown target form: {form!r}")
    _check_iteration(jacobi_tol, max_steps)
    sym = _as_symplex(F)
    if sym.n != 2:
        from .jacobi import _block_stage  # jacobi imports this module
        res = _block_stage(sym, jacobi_tol, max_steps)
    else:
        inv = sym.invariants
        if inv.k2 < 0.0 and not inv.degenerate:
            pre = _complex_precondition(sym)
            return _complex_procedure(sym, pre, pre[0] < max(pre[1:]))
        res = decouple_block_diagonal(sym)
    if form == FORM_BLOCK_DIAGONAL:
        return res
    res = _dof_stages(res, form)
    if form == FORM_NORMAL:
        M = res.final.matrix  # a real or zero block keeps H's entries
        for k, w in enumerate(res.frequencies):
            if w.nature != NATURE_IMAGINARY:
                raise UnstableBlock(
                    f"block {k} has entries ({M[2 * k, 2 * k + 1]:.6e}, "
                    f"{-M[2 * k + 1, 2 * k]:.6e}): a {w.nature} eigenvalue "
                    "pair has no rotation normal form", block=k)
    return res

