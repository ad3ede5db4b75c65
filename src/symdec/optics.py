"""One-turn-matrix analysis: tunes, matched beams, effective force.

A symplectic one-turn matrix M is split into its symplex part M_s and
cosymplex part M_c.  Decoupling M_s (which has the same eigenvectors as
M) also block-diagonalizes M_c, so in the transformed frame M falls
apart into 2x2 blocks.  For a stable block the normal-form stage turns
it into a pure rotation whose angle is the phase advance per turn; the
rotation sine comes from the normalized M_s block and the cosine from
the block trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decouple4 import FORM_NORMAL, JACOBI_TOL, _dof_stages, off_block_max
from .dirac import GAMMA, symplectic_unit, symplex_cosymplex_split
from .emeq import (NATURE_IMAGINARY, NATURE_REAL, NATURE_ZERO, EmeqState,
                   Symplex, aux_vectors, mass_components)
from .errors import DimensionMismatch, NotSymplectic, UnstableSystem
from .jacobi import _block_stage
from .transform import (SymplecticTransform, _square_even, apply_similarity,
                        is_symplectic, symplectic_residual)

__all__ = [
    "SigmaMatrix",
    "BlockTune",
    "OpticsReport",
    "EffectiveForce",
    "analyze_one_turn",
    "matched_sigma",
    "effective_force",
    "propagate_sigma",
    "spinor_observables",
    "rdm_expectations",
    "cosymplex_observable_forms",
    "cosymplex_observable_rates",
]

# relative bounds on the symplectic residual of M and on M sigma M^T - sigma
SYMPLECTIC_TOL = FIXED_POINT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SigmaMatrix:
    """Second-moment matrix of a beam; sigma * g0 is a symplex."""

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, sigma: np.ndarray, tol: float = 1e-9) -> "SigmaMatrix":
        """sigma if finite, square, even and symmetric to tol ||sigma||_F."""
        sigma = _finite_square_even(sigma, "sigma matrix")
        asym = np.linalg.norm(sigma - sigma.T)
        if asym > tol * np.linalg.norm(sigma):
            raise ValueError(f"sigma matrix not symmetric (residual {asym:.3e})")
        return cls(matrix=sigma)


@dataclass(frozen=True)
class BlockTune:
    """Per-degree-of-freedom oscillation data in the decoupled frame.

    nature "imaginary" marks a stable oscillation (tune defined), "real"
    a hyperbolic pair (no real tune), "zero" a vanishing rotation sine
    (tune pinned at 0 or 1/2, logarithm branch ambiguous).
    """

    cosine: float
    sine: float | None
    nature: str
    tune: float | None
    omega: float | None
    branch_ambiguous: bool
    negative_direction: bool


@dataclass(frozen=True, eq=False)
class OpticsReport:
    """Analysis of a one-turn matrix in its decoupled frame."""

    tau: float
    transform: SymplecticTransform
    blocks: tuple[BlockTune, ...]
    symplectic_residual: float
    symplex_offblock_residual: float
    cosymplex_offblock_residual: float
    stable: bool

    @property
    def tunes(self) -> tuple:
        return tuple(b.tune for b in self.blocks)

    @property
    def tune_cosines(self) -> tuple:
        return tuple(b.cosine for b in self.blocks)


@dataclass(frozen=True, eq=False)
class EffectiveForce:
    """Average force matrix over one period, with branch diagnostics."""

    matrix: np.ndarray
    tau: float
    branch_ambiguous: tuple[bool, ...]
    reconstruction_residual: float


def _finite_square_even(M, what: str) -> np.ndarray:
    """M (or M.matrix) as a square even float array (DimensionMismatch)
    with finite entries (ValueError)."""
    M = _square_even(getattr(M, "matrix", M))
    if not np.isfinite(M).all():
        raise ValueError(f"{what} has non-finite entries")
    return M


def _as_transfer(M, tau: float | None,
                 report: OpticsReport | None = None) -> tuple[np.ndarray, float]:
    """Finite matrix and period of a TransferMatrix, MatrixFile or array:
    tau, else M.tau, else report.tau, else 1.0, equal to a report's."""
    if not np.isfinite(getattr(M, "matrix", M)).all():
        raise NotSymplectic("matrix has non-finite entries")
    tau = next(float(t) for t in (tau, getattr(M, "tau", None),
                                  getattr(report, "tau", None), 1.0)
               if t is not None)
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    if tau != getattr(report, "tau", tau):
        raise ValueError(f"tau {tau!r} is not the report's {report.tau!r}")
    return _square_even(getattr(M, "matrix", M)), tau


def analyze_one_turn(M, tau: float | None = None) -> OpticsReport:
    """Tunes and decoupling transform of a symplectic one-turn matrix.

    The symplex part (M - g0 M^T g0)/2 ... (M + g0 M^T g0)/2 takes the
    Jacobi block stage and decouple's per-dof pass to normal form (a real
    or zero block unscaled); the same transform block-diagonalizes the
    cosymplex part.  Per block, the rotation sine comes from the normalized
    symplex part and the cosine from half the block trace of the
    transformed M; tunes are reported in [0, 1/2] with direction and
    branch flags.

    Raises NotSymplectic when M has a non-finite entry or its measured
    symplectic residual (never a stored one) exceeds SYMPLECTIC_TOL, relative.
    """
    matrix, tau = _as_transfer(M, tau)
    resid = symplectic_residual(matrix)
    if not is_symplectic(matrix, SYMPLECTIC_TOL, resid):
        raise NotSymplectic(f"symplectic residual {resid:.3e} above "
                            f"tolerance {SYMPLECTIC_TOL:.1e}")
    Ms, Mc = symplex_cosymplex_split(matrix)
    res = _dof_stages(_block_stage(Symplex.from_matrix(Ms), JACOBI_TOL, None),
                      FORM_NORMAL)
    transform, freqs = res.transform, res.frequencies
    Mt, Mc_t = (apply_similarity(transform, X) for X in (matrix, Mc))

    n = matrix.shape[0] // 2
    blocks = []
    for k in range(n):
        blk = Mt[2 * k:2 * k + 2, 2 * k:2 * k + 2]
        cosine = float(np.trace(blk)) / 2.0
        sine, nature = freqs[k].value, freqs[k].nature
        if nature == NATURE_REAL:
            blocks.append(BlockTune(
                cosine=cosine, sine=None, nature=nature, tune=None,
                omega=None, branch_ambiguous=False, negative_direction=False))
            continue
        angle = math.atan2(sine, cosine)
        ambiguous = nature == NATURE_ZERO
        blocks.append(BlockTune(
            cosine=cosine, sine=float(sine), nature=nature,
            tune=abs(angle) / (2.0 * math.pi), omega=angle / tau,
            branch_ambiguous=ambiguous, negative_direction=angle < 0.0))
    stable = all(b.nature == NATURE_IMAGINARY and abs(b.cosine) < 1.0
                 for b in blocks)
    return OpticsReport(
        tau=tau, transform=transform, blocks=tuple(blocks),
        symplectic_residual=resid,
        symplex_offblock_residual=off_block_max(res.final.matrix),
        cosymplex_offblock_residual=off_block_max(Mc_t),
        stable=stable)


def matched_sigma(M, emittances, tau: float | None = None,
                  report: OpticsReport | None = None) -> SigmaMatrix:
    """Second moments of the beam matched to the one-turn matrix.

    In the decoupled frame the matched distribution is round per block
    with the emittances on the diagonal; back-transforming S = Rinv S_d R
    and sigma = -S g0 gives the matched sigma in the laboratory frame.
    Requires n finite positive emittances, checked first (ValueError),
    and a stable system (UnstableSystem); the fixed-point residual
    M sigma M^T - sigma is verified against FIXED_POINT_TOL max |sigma|.
    """
    M, tau = _as_transfer(M, tau, report)
    n = M.shape[0] // 2
    emit = np.atleast_1d(np.asarray(emittances, dtype=float))
    if emit.shape != (n,):
        raise DimensionMismatch(
            f"expected {n} emittances for a {2*n}x{2*n} matrix, got "
            f"{emit.shape}")
    if not np.all((0.0 < emit) & (emit < np.inf)):
        raise ValueError(f"emittances must be finite and positive, got "
                         f"{emit.tolist()}")
    if report is None:
        report = analyze_one_turn(M, tau)
    if not report.stable:
        natures = tuple(b.nature for b in report.blocks)
        raise UnstableSystem(
            f"matched distribution undefined: block natures {natures}, "
            f"cosines {report.tune_cosines}")
    g0 = symplectic_unit(n)
    sigma_d = np.diag(np.repeat(emit, 2))
    s_d = sigma_d @ g0
    s_lab = report.transform.rinv @ s_d @ report.transform.r
    sigma = -s_lab @ g0
    sigma = (sigma + sigma.T) / 2.0
    resid = float(np.max(np.abs(M @ sigma @ M.T - sigma)))
    if resid > FIXED_POINT_TOL * float(np.max(np.abs(sigma))):
        raise UnstableSystem(
            f"matched fixed point violated with residual {resid:.3e}")
    return SigmaMatrix(matrix=sigma)


def effective_force(M, tau: float | None = None,
                    report: OpticsReport | None = None) -> EffectiveForce:
    """Average force matrix: the symplex logarithm of the one-turn matrix.

    Computed through the decoupling route: per-block phase advances
    mu_k = atan2(sine, cosine) build the normal-form generator, which is
    pulled back with the decoupling transform.  Blocks with vanishing sine
    have an undefined logarithm branch; the principal branch is used and
    flagged.  Requires resolvable tunes (|cos| <= 1 per block).  The
    reconstruction residual compares M with exp(Fbar tau) in closed form,
    R^-1 blockdiag([[cos mu_k, sin mu_k], [-sin mu_k, cos mu_k]]) R.
    """
    M, tau = _as_transfer(M, tau, report)
    if report is None:
        report = analyze_one_turn(M, tau)
    n = M.shape[0] // 2
    flags = []
    fn, mn = np.zeros((2, 2 * n, 2 * n))
    for k, b in enumerate(report.blocks):
        if b.nature == NATURE_REAL or abs(b.cosine) > 1.0:
            raise UnstableSystem(
                f"block {k} has |cos| = {abs(b.cosine):.6f} > 1; no real "
                "oscillation frequency")
        angle = math.atan2(b.sine, b.cosine)
        flags.append(b.branch_ambiguous)
        w = angle / tau
        fn[2 * k, 2 * k + 1] = w
        fn[2 * k + 1, 2 * k] = -w
        c, s = math.cos(angle), math.sin(angle)
        mn[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, s], [-s, c]]
    rinv, r = report.transform.rinv, report.transform.r
    fbar = rinv @ fn @ r
    resid = float(np.max(np.abs(rinv @ mn @ r - M)))
    return EffectiveForce(matrix=fbar, tau=tau,
                          branch_ambiguous=tuple(flags),
                          reconstruction_residual=resid)


def propagate_sigma(sigma, M) -> SigmaMatrix:
    """Transport second moments along the line: sigma -> M sigma M^T.

    Preserves the traces of all powers of sigma g0 (the Lax first
    integrals) when M is symplectic.  Both must be finite, square and of
    even size (ValueError, DimensionMismatch) and of one shape.
    """
    s = _finite_square_even(sigma, "sigma matrix")
    m = _finite_square_even(M, "transfer matrix")
    if s.shape != m.shape:
        raise DimensionMismatch(
            f"sigma has shape {s.shape}, matrix has shape {m.shape}")
    return SigmaMatrix(matrix=m @ s @ m.T)


def rdm_expectations(psi: np.ndarray) -> np.ndarray:
    """The sixteen spinor expectation values psibar gamma_k psi / 2."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (4,):
        raise DimensionMismatch(f"expected a 4-vector, got {psi.shape}")
    psibar = psi @ GAMMA[0]
    return np.array([0.5 * psibar @ GAMMA[k] @ psi for k in range(16)])


def spinor_observables(psi: np.ndarray, F: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Expectation values f_k and anticommutator observables g_k.

    f_k = psibar gamma_k psi / 2 for the ten symplex indices (the
    cosymplex ones vanish identically), g_k = psibar (gamma_k F +
    F gamma_k) psi for all sixteen.  For a symplex F the symplex g_k
    vanish; the cosymplex ones are bilinear in the force coefficients
    and the f_k (see cosymplex_observable_forms).
    """
    psi = np.asarray(psi, dtype=float)
    F = np.asarray(F, dtype=float)
    f = rdm_expectations(psi)
    psibar = psi @ GAMMA[0]
    g = np.array([psibar @ (GAMMA[k] @ F + F @ GAMMA[k]) @ psi
                  for k in range(16)])
    return f[:10], g


def cosymplex_observable_forms(state: EmeqState, f: np.ndarray) -> np.ndarray:
    """Closed forms of the six cosymplex observables g_10 .. g_15.

    Bilinear in the force coefficients and the spinor expectations f_k
    (all sixteen, as returned by rdm_expectations).  Verified against
    the direct anticommutator evaluation to machine precision.
    """
    e0, p, e, b = state.energy, state.p, state.e, state.b
    f = np.asarray(f, dtype=float)
    return np.array([
        4.0 * (p @ f[7:10] - b @ f[1:4]),
        4.0 * (-e0 * f[7] - b[0] * f[0] + p[2] * f[5] - p[1] * f[6]
               + e[1] * f[3] - e[2] * f[2]),
        4.0 * (-e0 * f[8] - b[1] * f[0] + p[0] * f[6] - p[2] * f[4]
               + e[2] * f[1] - e[0] * f[3]),
        4.0 * (-e0 * f[9] - b[2] * f[0] + p[1] * f[4] - p[0] * f[5]
               + e[0] * f[2] - e[1] * f[1]),
        4.0 * (e @ f[7:10] - b @ f[4:7]),
        4.0 * (e0 * f[0] + p @ f[1:4] + e @ f[4:7] + b @ f[7:10]),
    ])


def cosymplex_observable_rates(state: EmeqState, f: np.ndarray) -> np.ndarray:
    """Closed forms of the time derivatives of g_10 .. g_15 along the flow.

    With psi' = F psi the rates are bilinear in the mass components, the
    auxiliary vector b, and the spinor expectations; the last observable
    is itself an invariant.
    """
    m = mass_components(state)
    bv = aux_vectors(state).b
    f = np.asarray(f, dtype=float)
    return np.array([
        8.0 * (m.m_r * f[0] + bv @ f[4:7]),
        8.0 * (m.m_r * f[1] - m.m_g * f[4] + bv[1] * f[9] - bv[2] * f[8]),
        8.0 * (m.m_r * f[2] - m.m_g * f[5] + bv[2] * f[7] - bv[0] * f[9]),
        8.0 * (m.m_r * f[3] - m.m_g * f[6] + bv[0] * f[8] - bv[1] * f[7]),
        -8.0 * (m.m_g * f[0] + bv @ f[1:4]),
        0.0,
    ])
