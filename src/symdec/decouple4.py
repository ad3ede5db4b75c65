"""Geometric decoupling of a 4x4 symplex, and `decouple`, the one
decoupling entry point for any 2n x 2n symplex (Jacobi for n != 2).

The pipeline walks a symplex through successive canonical shapes by
elementary symplectic similarity transforms chosen from the EMEQ
geometry:

* block-diagonal form      -- B and the auxiliary vector b along y,
                              E and P in the x-z plane,
* Hamiltonian form         -- additionally zero diagonal per 2x2 block,
* normal form              -- antisymmetric blocks [[0, w], [-w, 0]].

Matrices whose second invariant is negative (complex eigenvalue
quadruples) cannot be block-diagonalized over the reals; two dedicated
procedures bring them to the real canonical form with only the E_y, E_z
and B_y coefficients surviving.

Each step moves the ten coefficients (energy, P, E, B) in closed form
(emeq.transform_coefficients); R F R^-1 is built once per stage and every
pattern check reads its re-extracted coefficients.  A step whose target
coefficient is already below the step tolerance is logged as a skip, so
inputs in canonical position pass through with the identity transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .dirac import GAMMA
from .emeq import (AuxVectors, EmeqState, Frequency, MassComponents,
                   SpectralInvariants, _cross, aux_vectors,
                   emeq_from_symplex, mass_components, spectral_invariants,
                   state_from_coefficients, transform_coefficients)
from .errors import (BoostDomain, BranchMismatch, ComplexEigenvalues,
                     DegenerateB, PrecisionLoss, UnstableBlock)
from .transform import (SymplecticTransform, apply_similarity,
                        basic_transform, block_scaling, compose)

if TYPE_CHECKING:
    from .jacobi import IterationStats, SymplexN

__all__ = [
    "FORM_BLOCK_DIAGONAL",
    "FORM_HAMILTONIAN",
    "FORM_NORMAL",
    "FORM_COMPLEX_CANONICAL",
    "Tolerances",
    "Symplex4",
    "DecoupleResult",
    "decouple_block_diagonal",
    "to_hamiltonian_form",
    "to_normal_form",
    "diagonalize",
    "complex_low_energy",
    "complex_intermediate",
    "decouple",
    "closed_form_block_coefficients",
    "off_block_max",
    "normal_form_scaling",
]

FORM_BLOCK_DIAGONAL = "block_diagonal"
FORM_HAMILTONIAN = "hamiltonian"
FORM_NORMAL = "normal"
FORM_COMPLEX_CANONICAL = "complex_canonical"


@dataclass(frozen=True)
class Tolerances:
    """Tolerance ladder separating skip logic from acceptance.

    step -- angles below this are logged as skips,
    post -- postconditions: the reached pattern, coefficient drift.
    """

    step: float = 1e-14
    post: float = 1e-10


@dataclass(frozen=True)
class Symplex4:
    """A 4x4 symplex and its EMEQ state; the two always agree."""

    matrix: np.ndarray
    state: EmeqState

    @classmethod
    def from_matrix(cls, M: np.ndarray, tol: float = 1e-10) -> "Symplex4":
        M = np.asarray(M, dtype=float)
        return cls(matrix=M, state=emeq_from_symplex(M, tol=tol))

    @classmethod
    def from_state(cls, state: EmeqState) -> "Symplex4":
        return cls(matrix=state.matrix(), state=state)

    @cached_property
    def invariants(self) -> SpectralInvariants:
        """spectral_invariants of the state, evaluated on first use."""
        return spectral_invariants(self.state)


@dataclass(frozen=True)
class DecoupleResult:
    """Outcome of a decoupling pipeline.

    final = transform applied to source, a Symplex4 for a 4x4 source and
    a SymplexN for any other 2n.  residual is the largest entry (or
    coefficient, for the complex canonical form) violating the target
    pattern of a 4x4, and stats.final_residual of a 2n, whose Jacobi
    counters are in stats and which has no invariants.  frequencies
    carry the eigenvalue pair natures, one per block, and complex_radius
    the eigenvalue circle radius when the spectrum is a complex quadruple.
    """

    source: np.ndarray
    transform: SymplecticTransform
    final: Symplex4 | SymplexN
    form: str
    residual: float
    invariants: SpectralInvariants | None = None
    frequencies: tuple[Frequency, ...] | None = None
    complex_radius: float | None = None
    stats: IterationStats | None = None


class _Pipeline:
    """One stage: propagated EMEQ state, accumulated R, R^-1, step log."""

    def __init__(self, sym: Symplex4, tol: Tolerances):
        self.source = sym
        self.state = sym.state
        self.tol = tol
        self.r, self.rinv, self.steps = np.eye(4), np.eye(4), []

    @property
    def masses(self) -> MassComponents:
        return mass_components(self.state)

    @property
    def aux(self) -> AuxVectors:
        return aux_vectors(self.state)

    def zeroing_angle(self, num: float, den: float) -> float:
        """Rotation angle atan2(num, den) that removes `num`.

        Returns 0 when the target coefficient is already negligible, so
        an input in canonical position passes through untouched (the
        two-argument form would otherwise rotate by pi whenever the
        denominator is negative, needlessly permuting the blocks).
        """
        if abs(num) < self.tol.step:
            return 0.0
        return math.atan2(num, den)

    def step(self, b: int, epsilon: float) -> None:
        """Apply one generator, or log a skip for negligible angles."""
        if abs(epsilon) < self.tol.step:
            self.steps.append(basic_transform(b, 0.0, skipped=True).steps[0])
            return
        t = basic_transform(b, epsilon)
        self.state = state_from_coefficients(transform_coefficients(
            self.state.coefficients, b, epsilon))
        self.r, self.rinv = t.r @ self.r, self.rinv @ t.rinv
        self.steps.append(t.steps[0])

    def boost(self, b: int, num: float, den: float, sign: float,
              step_index: int) -> None:
        """Boost with rapidity sign*arctanh(num/den), guarding the domain."""
        if abs(num) < self.tol.step:
            self.step(b, 0.0)
            return
        if abs(den) <= abs(num):
            raise BoostDomain(
                f"step {step_index}: arctanh argument {num:.3e}/{den:.3e} "
                "has modulus >= 1", step=step_index)
        self.step(b, sign * math.atanh(num / den))

    def finish(self) -> tuple[SymplecticTransform, Symplex4]:
        """The stage transform and R F R^-1, re-extracted (NotASymplex if
        it left the symplices, PrecisionLoss if the propagation drifted)."""
        t = SymplecticTransform(self.r, self.rinv, tuple(self.steps))
        final = Symplex4.from_matrix(
            apply_similarity(t, self.source.matrix), tol=1e-8)
        c = final.state.coefficients
        drift = float(np.max(np.abs(c - self.state.coefficients)))
        if drift > self.tol.post * _coefficient_scale(final):
            raise PrecisionLoss(f"propagation drifted by {drift:.3e}")
        return t, final


def _as_symplex(F) -> Symplex4:
    if isinstance(F, Symplex4):
        return F
    return Symplex4.from_matrix(F)


def _coefficient_scale(sym: Symplex4) -> float:
    return max(1.0, float(np.linalg.norm(sym.state.coefficients)))


def off_block_max(M: np.ndarray) -> float:
    """Largest entry modulus outside the 2x2 diagonal blocks of a 2n x 2n
    matrix (0 for n = 1)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0] // 2
    amp = np.abs(M).reshape(n, 2, n, 2).max(axis=(1, 3))
    np.fill_diagonal(amp, 0.0)
    return float(amp.max())


def _hamiltonian_residual(M: np.ndarray) -> float:
    mask = np.ones((4, 4), dtype=bool)
    for (i, j) in ((0, 1), (1, 0), (2, 3), (3, 2)):
        mask[i, j] = False
    return float(np.max(np.abs(M[mask])))


def decouple_block_diagonal(F, tol: Tolerances = Tolerances()) -> DecoupleResult:
    """Block-diagonalize a 4x4 symplex with real/imaginary eigenvalues.

    Strategy: (1) phase rotation removing B.P, (2)-(3) spatial rotations
    aligning the auxiliary vector b with the y-axis, (4) a phase boost
    removing E.B.  The boost exists exactly when the second invariant is
    non-negative; otherwise ComplexEigenvalues is raised and the caller
    should use the complex-quadruple procedures.

    Returns a DecoupleResult with form "block_diagonal"; the residual is
    the largest off-block matrix entry.
    """
    sym = _as_symplex(F)
    inv = sym.invariants
    scale = _coefficient_scale(sym)
    if inv.k2 < 0.0 and not inv.degenerate:
        raise ComplexEigenvalues(
            f"second invariant K2 = {inv.k2:.6e} < 0; eigenvalues form a "
            "complex quadruple")
    pipe = _Pipeline(sym, tol)

    m = pipe.masses
    pipe.step(0, pipe.zeroing_angle(m.m_g, m.m_r))
    a = pipe.aux
    pipe.step(7, pipe.zeroing_angle(a.b[2], a.b[1]))
    a = pipe.aux
    pipe.step(9, -pipe.zeroing_angle(a.b[0], a.b[1]))
    m, a = pipe.masses, pipe.aux
    if abs(m.m_r) >= tol.step * scale:
        if abs(m.m_r) >= abs(a.b[1]):
            raise ComplexEigenvalues(
                f"boost infeasible: |E.B| = {abs(m.m_r):.6e} >= "
                f"|b_y| = {abs(a.b[1]):.6e}")
        pipe.step(2, math.atanh(m.m_r / a.b[1]))
    else:
        pipe.step(2, 0.0)

    transform, final = pipe.finish()
    c = final.state.coefficients
    pattern = max(abs(c[7]), abs(c[9]), abs(c[5]), abs(c[2]))  # Bx, Bz, Ey, Py
    if pattern > tol.post * scale:
        raise DegenerateB(
            "geometric strategy exhausted with off-block coefficients up to "
            f"{pattern:.3e}; auxiliary vector b gives no usable direction")
    return DecoupleResult(
        source=sym.matrix, transform=transform, final=final,
        form=FORM_BLOCK_DIAGONAL,
        residual=off_block_max(final.matrix), invariants=inv,
        frequencies=(inv.omega1, inv.omega2))


def to_hamiltonian_form(res: DecoupleResult,
                        tol: Tolerances = Tolerances()) -> DecoupleResult:
    """Continue a block-diagonal result to Hamiltonian form.

    A phase rotation removes E.P, then a rotation about the y-axis sends
    P to the x-axis, which leaves only the four antidiagonal block
    entries.  If P vanishes, the same rotation aligns E with the z-axis
    instead.  PrecisionLoss is raised when off-pattern entries survive.
    """
    if res.form != FORM_BLOCK_DIAGONAL or not isinstance(res.final, Symplex4):
        raise ValueError(f"not a 4x4 block_diagonal result: {res.form!r}")
    pipe = _Pipeline(res.final, tol)
    scale = _coefficient_scale(res.final)

    s, m = pipe.state, pipe.masses
    e2 = float(s.e @ s.e)
    p2 = float(s.p @ s.p)
    pipe.step(0, 0.5 * pipe.zeroing_angle(2.0 * m.m_b, e2 - p2))
    s = pipe.state
    if np.linalg.norm(s.p) >= tol.step * scale:
        pipe.step(8, -pipe.zeroing_angle(s.p[2], s.p[0]))
    else:
        # degenerate momentum: align E with the z-axis directly
        pipe.step(8, pipe.zeroing_angle(s.e[0], s.e[2]))

    transform, final = pipe.finish()
    resid = _hamiltonian_residual(final.matrix)
    if resid > tol.post * scale:
        raise PrecisionLoss(
            f"off-pattern entries up to {resid:.3e} after Hamiltonian-form "
            "rotations")
    return replace(
        res, transform=compose(transform, res.transform),
        final=final, form=FORM_HAMILTONIAN, residual=resid)


def normal_form_scaling(H: np.ndarray, tol: Tolerances = Tolerances()
                        ) -> tuple[SymplecticTransform, tuple[Frequency, ...]]:
    """Per-dof scaling of a Hamiltonian-form symplex to rotation form.

    Each 2x2 block [[0, a], [-b, 0]] of the 2n x 2n matrix H is
    classified by a*b against the zero band (tol.step * scale)^2, with
    scale = max(1, ||H||_F).  Above it the pair is imaginary, +-i w with
    w = sign(a) sqrt(a b), and the block_scaling exponent log|a/b|/4
    turns the block into [[0, w], [-w, 0]].  Below minus the band the
    pair is real (value sqrt(-a b)); in between it is zero.  Real and
    zero blocks keep exponent 0.  Returns the scaling and one Frequency
    per block.
    """
    H = np.asarray(H, dtype=float)
    band = (tol.step * max(1.0, float(np.linalg.norm(H)))) ** 2
    exponents = []
    freqs = []
    for k in range(H.shape[0] // 2):
        a, b = H[2 * k, 2 * k + 1], -H[2 * k + 1, 2 * k]
        prod = a * b
        if prod > band:
            exponents.append(0.25 * math.log(a / b))
            freqs.append(Frequency(value=math.copysign(math.sqrt(prod), a),
                                   nature="imaginary"))
            continue
        exponents.append(0.0)
        if prod < -band:
            freqs.append(Frequency(value=math.sqrt(-prod), nature="real"))
        else:
            freqs.append(Frequency(value=0.0, nature="zero"))
    return block_scaling(exponents), tuple(freqs)


def to_normal_form(res: DecoupleResult,
                   tol: Tolerances = Tolerances()) -> DecoupleResult:
    """Scale a Hamiltonian-form 2n x 2n result to antisymmetric normal form.

    normal_form_scaling turns each block [[0, a], [-b, 0]] with an
    imaginary eigenvalue pair into [[0, w], [-w, 0]].  A block with a
    real (or vanishing) pair has no rotation normal form: UnstableBlock
    is raised and the Hamiltonian form stands.  A 4x4 result is checked
    against the exact normal-form pattern (PrecisionLoss); a 2n result
    keeps its Jacobi residual.
    """
    if res.form != FORM_HAMILTONIAN:
        raise ValueError(f"expected a hamiltonian result, got {res.form!r}")
    M = res.final.matrix
    scaling, freqs = normal_form_scaling(M, tol)
    for idx, w in enumerate(freqs):
        if w.nature != "imaginary":
            raise UnstableBlock(
                f"block {idx} has entries ({M[2 * idx, 2 * idx + 1]:.6e}, "
                f"{-M[2 * idx + 1, 2 * idx]:.6e}): a {w.nature} eigenvalue "
                "pair has no rotation normal form", block=idx)
    Mn = apply_similarity(scaling, M)
    res = replace(res, transform=compose(scaling, res.transform),
                  form=FORM_NORMAL, frequencies=freqs)
    if not isinstance(res.final, Symplex4):
        return replace(res, final=replace(res.final, matrix=Mn))
    final = Symplex4.from_matrix(Mn, tol=1e-8)

    target = np.zeros((4, 4))
    target[0, 1], target[1, 0] = freqs[0].value, -freqs[0].value
    target[2, 3], target[3, 2] = freqs[1].value, -freqs[1].value
    resid = float(np.max(np.abs(Mn - target)))
    if resid > tol.post * _coefficient_scale(res.final):
        raise PrecisionLoss(
            f"normal form off by {resid:.3e} after scaling")
    return replace(res, final=final, residual=resid)


def diagonalize(res: DecoupleResult,
                tol: Tolerances = Tolerances()) -> tuple[np.ndarray, np.ndarray]:
    """Complex eigenvector basis and eigenvalues of the source symplex.

    Only reachable from normal form.  The normal form is diagonalized by
    the constant unitary-symplectic matrix E0 = (1 - g0 + i g3 + i g6)/2,
    so the source has eigenvector matrix E = Rinv E0 with eigenvalues
    (i w1, -i w1, i w2, -i w2).
    """
    if res.form != FORM_NORMAL or not isinstance(res.final, Symplex4):
        raise ValueError(f"not a 4x4 normal-form result: {res.form!r}")
    e0 = 0.5 * (np.eye(4) - GAMMA[0] + 1j * GAMMA[3] + 1j * GAMMA[6])
    vecs = res.transform.rinv @ e0
    w1, w2 = res.frequencies[0].value, res.frequencies[1].value
    values = np.array([1j * w1, -1j * w1, 1j * w2, -1j * w2])
    resid = float(np.max(np.abs(res.source @ vecs - vecs * values)))
    scale = max(1.0, float(np.linalg.norm(res.source)))
    if resid > 1e-9 * scale:
        raise PrecisionLoss(
            f"eigen decomposition residual {resid:.3e} above tolerance")
    return vecs, values


def _complex_canonical_result(pipe: _Pipeline, inv: SpectralInvariants,
                              tol: Tolerances) -> DecoupleResult:
    transform, final = pipe.finish()
    c = final.state.coefficients
    # surviving pattern: E_y, E_z, B_y; everything else must vanish
    off = np.abs(np.concatenate((c[:5], [c[7]], [c[9]])))
    resid = float(np.max(off))
    scale = _coefficient_scale(final)
    if resid > tol.post * scale:
        raise PrecisionLoss(
            f"complex canonical coefficients off by {resid:.3e}")
    rho = (inv.k1**2 + 4.0 * abs(inv.k2)) ** 0.25
    return DecoupleResult(
        source=pipe.source.matrix, transform=transform, final=final,
        form=FORM_COMPLEX_CANONICAL, residual=resid, invariants=inv,
        frequencies=None, complex_radius=float(rho))


def complex_low_energy(F, tol: Tolerances = Tolerances()) -> DecoupleResult:
    """Canonical form for a complex quadruple with small energy.

    Precondition: K2 < 0 and energy^2 < max(P^2, E^2).  Nine steps:
    maximize E.B by a phase rotation, align E with y, remove the energy
    by a phase boost, remove P by two boosts against B_y, realign B with
    y, and finally rotate E_x away about the y-axis.  The result carries
    only E_y, E_z and B_y, with the eigenvalues on a circle of radius
    (K1^2 + 4 |K2|)^(1/4).
    """
    sym = _as_symplex(F)
    inv = sym.invariants
    s = sym.state
    if inv.k2 >= 0.0:
        raise BranchMismatch(
            f"K2 = {inv.k2:.6e} >= 0; use decouple_block_diagonal")
    if s.energy**2 >= max(s.p @ s.p, s.e @ s.e):
        raise BranchMismatch(
            "energy^2 >= max(P^2, E^2); use complex_intermediate")
    pipe = _Pipeline(sym, tol)

    m = pipe.masses
    pipe.step(0, pipe.zeroing_angle(m.m_g, m.m_r))               # 1
    s = pipe.state
    if abs(s.energy) >= tol.step:
        # the E alignment only serves the energy-removing boost; with
        # no energy left both rotations are skips
        pipe.step(7, pipe.zeroing_angle(s.e[2], s.e[1]))         # 2
        s = pipe.state
        pipe.step(9, -pipe.zeroing_angle(s.e[0], s.e[1]))       # 3
    else:
        pipe.step(7, 0.0)
        pipe.step(9, 0.0)
    s = pipe.state
    pipe.boost(2, s.energy, s.e[1], +1.0, step_index=4)          # 4
    s = pipe.state
    pipe.boost(3, s.p[0], s.b[1], -1.0, step_index=5)            # 5
    s = pipe.state
    pipe.boost(1, s.p[2], s.b[1], +1.0, step_index=6)            # 6
    s = pipe.state
    pipe.step(7, pipe.zeroing_angle(s.b[2], s.b[1]))             # 7
    s = pipe.state
    pipe.step(9, -pipe.zeroing_angle(s.b[0], s.b[1]))            # 8
    s = pipe.state
    pipe.step(8, pipe.zeroing_angle(s.e[0], s.e[2]))             # 9
    return _complex_canonical_result(pipe, inv, tol)


def complex_intermediate(F, tol: Tolerances = Tolerances()) -> DecoupleResult:
    """Canonical form for a complex quadruple at intermediate energy.

    Precondition: K2 < 0 and energy^2 > min(P^2, E^2).  A phase rotation
    minimizes P^2 (removing E.P), P is aligned with y and removed by a
    Lorentz boost along y, B is aligned with y, the energy removed by a
    phase boost, and E_x rotated away.  Same canonical pattern as the
    low-energy case.
    """
    sym = _as_symplex(F)
    inv = sym.invariants
    s = sym.state
    if inv.k2 >= 0.0:
        raise BranchMismatch(
            f"K2 = {inv.k2:.6e} >= 0; use decouple_block_diagonal")
    if s.energy**2 < min(s.p @ s.p, s.e @ s.e):
        raise BranchMismatch(
            "energy^2 < min(P^2, E^2); use complex_low_energy")
    pipe = _Pipeline(sym, tol)

    s, m = pipe.state, pipe.masses
    e2, p2 = float(s.e @ s.e), float(s.p @ s.p)
    # minimizes P^2 (and removes E.P): act whenever E.P survives or the
    # minimum sits a quarter turn away (P^2 > E^2)
    if abs(2.0 * m.m_b) >= tol.step or e2 - p2 < -tol.step:
        pipe.step(0, 0.5 * math.atan2(2.0 * m.m_b, e2 - p2))     # 1
    else:
        pipe.step(0, 0.0)
    s = pipe.state
    pipe.step(7, pipe.zeroing_angle(s.p[2], s.p[1]))             # 2
    s = pipe.state
    pipe.step(9, -pipe.zeroing_angle(s.p[0], s.p[1]))            # 3
    s = pipe.state
    # Lorentz boosts mix (energy, P_i) with the opposite relative sign of
    # the phase-boost (energy, E_i) doublet; the rapidity needs a minus.
    pipe.boost(5, s.p[1], s.energy, -1.0, step_index=4)          # 4
    s = pipe.state
    pipe.step(7, pipe.zeroing_angle(s.b[2], s.b[1]))             # 5
    s = pipe.state
    pipe.step(9, -pipe.zeroing_angle(s.b[0], s.b[1]))            # 6
    s = pipe.state
    pipe.boost(2, s.energy, s.e[1], +1.0, step_index=7)          # 7
    s = pipe.state
    pipe.step(8, pipe.zeroing_angle(s.e[0], s.e[2]))             # 8
    return _complex_canonical_result(pipe, inv, tol)


def decouple(F, form: str = FORM_BLOCK_DIAGONAL,
             tol: Tolerances = Tolerances(), jacobi_tol: float = 1e-12,
             max_steps: int | None = None) -> DecoupleResult:
    """Decouple a 2n x 2n symplex to the form "block_diagonal",
    "hamiltonian" or "normal".

    A 4x4 takes the geometric pipeline; for K2 < 0 the matching complex
    procedure runs (low energy if energy^2 < max(P^2, E^2), intermediate
    otherwise) regardless of the requested form.  Any other n runs
    jacobi_decouple (threshold jacobi_tol, pivot budget max_steps) to
    Hamiltonian form unless block-diagonal is asked for, and the result
    carries its IterationStats.  Both reach normal form by to_normal_form.
    """
    if form not in (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN, FORM_NORMAL):
        raise ValueError(f"unknown target form: {form!r}")
    M = getattr(F, "matrix", F)
    if np.shape(M) == (4, 4):
        sym = F if isinstance(F, Symplex4) else Symplex4.from_matrix(M)
        inv = sym.invariants
        if inv.k2 < 0.0 and not inv.degenerate:
            s = sym.state
            if s.energy**2 < max(s.p @ s.p, s.e @ s.e):
                return complex_low_energy(sym, tol)
            return complex_intermediate(sym, tol)
        res = decouple_block_diagonal(sym, tol)
        if form != FORM_BLOCK_DIAGONAL:
            res = to_hamiltonian_form(res, tol)
    else:
        from .jacobi import jacobi_decouple  # jacobi imports this module
        hamiltonian = form != FORM_BLOCK_DIAGONAL
        transform, final, stats = jacobi_decouple(
            F, tol=jacobi_tol, max_steps=max_steps, hamiltonian=hamiltonian,
            tolerances=tol)
        res = DecoupleResult(
            source=np.asarray(M, dtype=float), transform=transform,
            final=final, residual=stats.final_residual, stats=stats,
            form=FORM_HAMILTONIAN if hamiltonian else FORM_BLOCK_DIAGONAL)
    return to_normal_form(res, tol) if form == FORM_NORMAL else res


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
        "b_y": (e0 * float(b @ b) - float(p @ _cross(e, b))) / b_norm,
    }
