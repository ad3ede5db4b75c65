"""Electromechanical-equivalence view of a 4x4 symplex.

The ten symplex coefficients are read as an energy and three 3-vectors
(momentum P, electric field E, magnetic field B).  Under the elementary
symplectic transforms these quantities transform exactly like their
Lorentz-group namesakes, which turns the block-diagonalization problem
into a vector orthogonalization/alignment problem.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dirac import (GAMMA, _symplex_floats, from_coefficients,
                    gamma_signature, is_symplex, symplex_residual)
from .errors import NotASymplex, PrecisionLoss

__all__ = [
    "Symplex",
    "EmeqState",
    "MassComponents",
    "AuxVectors",
    "Frequency",
    "SpectralInvariants",
    "CLASS_TWO_IMAGINARY_PAIRS",
    "CLASS_TWO_REAL_PAIRS",
    "CLASS_MIXED",
    "CLASS_COMPLEX_QUADRUPLE",
    "emeq_from_symplex",
    "state_from_coefficients",
    "mass_components",
    "aux_vectors",
    "spectral_invariants",
    "lax_invariants",
]

CLASS_TWO_IMAGINARY_PAIRS = "two_imaginary_pairs"
CLASS_TWO_REAL_PAIRS = "two_real_pairs"
CLASS_MIXED = "mixed_real_imaginary"
CLASS_COMPLEX_QUADRUPLE = "complex_quadruple"

# |K2| at most this times K1^2 + 4|K2| (rho^4, rho the eigenvalue modulus
# of a complex quadruple) is degenerate, where the classification branches
# meet; a frequency radicand within ZERO_FREQUENCY_BAND * rho^2 of 0 is zero.
DEGENERATE_K2_BAND = 1e-12
ZERO_FREQUENCY_BAND = 1e-12


def _action_pairs() -> tuple:
    """Per generator b, the three (i, j, A_ij, A_ji) of A = ad(gamma_b) / 2
    on the ten symplex coefficients.  A has six +-1 entries, in three
    pairs: on (c_i, c_j) it acts as [[0, A_ij], [A_ji, 0]], with
    A_ij A_ji = -1 for a rotation and +1 for a boost."""
    G = np.array(GAMMA[:10])
    prod = np.einsum("bij,gjk->bgik", G, G)
    # action[b, k, g]: coefficient k of [gamma_b, gamma_g] / 2, by the
    # trace formula of rdm_coefficients (a commutator of symplices is one)
    action = np.einsum("bgij,kij->bkg", prod - prod.transpose(1, 0, 2, 3),
                       G) / 8.0
    table = []
    for A in action:
        i, j = np.nonzero(np.triu(A))
        table.append(tuple((int(a), int(b), float(A[a, b]), float(A[b, a]))
                           for a, b in zip(i, j)))
    return tuple(table)


_ACTION_PAIRS = _action_pairs()


@dataclass(frozen=True, eq=False)
class EmeqState:
    """Energy and the three field vectors of a 4x4 symplex."""

    energy: float
    p: np.ndarray
    e: np.ndarray
    b: np.ndarray

    @property
    def coefficients(self) -> np.ndarray:
        """The ten symplex coefficients (energy, P, E, B) as one vector."""
        return np.concatenate(([self.energy], self.p, self.e, self.b),
                              dtype=float)

    def matrix(self) -> np.ndarray:
        """Reassemble the 4x4 symplex carrying this state."""
        return from_coefficients(np.concatenate((self.coefficients,
                                                 np.zeros(6))))


@dataclass(frozen=True)
class MassComponents:
    """The three pseudo-scalar products that vanish in decoupled form."""

    m_r: float  # E.B
    m_g: float  # B.P
    m_b: float  # E.P


@dataclass(frozen=True, eq=False)
class AuxVectors:
    """Auxiliary vectors; b's alignment with the y-axis marks block form."""

    r: np.ndarray  # energy*P + B x E
    g: np.ndarray  # energy*E + P x B  (the Lorentz-force direction)
    b: np.ndarray  # energy*B + E x P


NATURE_IMAGINARY = "imaginary"
NATURE_REAL = "real"
NATURE_ZERO = "zero"


@dataclass(frozen=True)
class Frequency:
    """Eigenfrequency with the nature of its eigenvalue pair.

    nature is "imaginary" for a stable oscillation pair +-i*value,
    "real" for an unstable pair +-value, "zero" at the boundary.  An
    imaginary value read from a block is signed: its sense of rotation.
    """

    value: float
    nature: str

    @classmethod
    def from_square(cls, d: float, band: float,
                    sense: float = 1.0) -> Frequency:
        """The pair +-sqrt(-d), zero within +-band; sense signs w = sqrt(d)."""
        if d > band:
            return cls(math.copysign(math.sqrt(d), sense), NATURE_IMAGINARY)
        if d < -band:
            return cls(math.sqrt(-d), NATURE_REAL)
        return cls(0.0, NATURE_ZERO)


@dataclass(frozen=True)
class SpectralInvariants:
    """Similarity invariants and the eigenvalue-structure classification."""

    k1: float
    k2: float
    det: float
    omega1: Frequency | None
    omega2: Frequency | None
    classification: str
    stable: bool
    degenerate: bool


def state_from_coefficients(c) -> EmeqState:
    """Build an EmeqState from the ten symplex coefficients (a copy)."""
    c = np.array(c, dtype=float)
    if c.shape != (10,):
        raise ValueError(f"expected 10 coefficients, got shape {c.shape}")
    return EmeqState(energy=float(c[0]), p=c[1:4], e=c[4:7], b=c[7:10])


@dataclass(frozen=True, eq=False)
class Symplex:
    """A 2n x 2n symplex; for n = 2 also its EMEQ state and invariants,
    read from the Dirac coefficients on first use."""

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, M: np.ndarray, tol: float = 1e-10) -> "Symplex":
        """The one check: a nonempty square even matrix passing is_symplex."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or not 0 < M.shape[0] == M.shape[1] or M.shape[0] % 2:
            raise ValueError(f"expected a square even matrix, got {M.shape}")
        if not is_symplex(M, tol):
            raise NotASymplex(f"symplex residual {symplex_residual(M):.3e}"
                              if np.isfinite(M).all() else "non-finite entries")
        return cls(M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    @cached_property
    def coefficients(self) -> tuple[float, ...]:
        """The ten Dirac coefficients (energy, P, E, B) as Python floats,
        read once (ValueError unless 4x4)."""
        if self.n != 2:
            raise ValueError(f"expected a 4x4 matrix, got {self.matrix.shape}")
        return tuple(_symplex_floats(self.matrix))

    @cached_property
    def state(self) -> EmeqState:
        return state_from_coefficients(self.coefficients)

    @cached_property
    def invariants(self) -> SpectralInvariants:
        return spectral_invariants(self.coefficients)


def emeq_from_symplex(F: np.ndarray, tol: float = 1e-10) -> EmeqState:
    """EMEQ state of a 4x4 that Symplex.from_matrix accepts."""
    return Symplex.from_matrix(F, tol).state


# The formulas on the ten coefficients f = (energy, P, E, B), as Python
# floats: numpy's per-call overhead is most of the cost on 3-vectors.
def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _axpy_cross(a: float, x, u, v) -> tuple[float, float, float]:
    """a x + u x v on Python floats."""
    (u0, u1, u2), (v0, v1, v2) = u, v
    return (a * x[0] + (u1 * v2 - u2 * v1), a * x[1] + (u2 * v0 - u0 * v2),
            a * x[2] + (u0 * v1 - u1 * v0))


def _masses(f: Sequence[float]) -> tuple[float, float, float]:
    """E.B, B.P and E.P of the ten coefficients f."""
    p, e, b = f[1:4], f[4:7], f[7:10]
    return _dot(e, b), _dot(b, p), _dot(e, p)


def _aux_b(f: Sequence[float]) -> tuple[float, float, float]:
    """The auxiliary vector b = energy B + E x P of the ten coefficients f."""
    return _axpy_cross(f[0], f[7:10], f[4:7], f[1:4])


def mass_components(s: EmeqState) -> MassComponents:
    """Scalar products E.B, B.P, E.P of the state vectors."""
    return MassComponents(*_masses(s.coefficients.tolist()))


def aux_vectors(s: EmeqState) -> AuxVectors:
    """The auxiliary vectors r, g, b built from energy and cross products."""
    f = s.coefficients.tolist()
    e0, p, e, b = f[0], f[1:4], f[4:7], f[7:10]
    return AuxVectors(r=np.array(_axpy_cross(e0, p, b, e)),
                      g=np.array(_axpy_cross(e0, e, p, b)),
                      b=np.array(_aux_b(f)))


def _transform_floats(f: Sequence[float], b: int,
                      epsilon: float) -> list[float]:
    """The ten coefficients of R F R^-1, R = basic_transform(b, epsilon),
    from those f of F, as Python floats (a new list): f + sin(eps) A f +
    (1 - cos(eps)) A^2 f, A the action of ad(gamma_b) / 2, as A^3 = -A; a
    boost (A^3 = A) takes sinh(eps) and cosh(eps) - 1.  A mixes three
    coefficient pairs (_ACTION_PAIRS) and leaves the other four alone, so
    this is six updates.
    """
    # 1 - cos(eps) = 2 sin(eps/2)^2, free of cancellation at small eps
    if gamma_signature(b) < 0:
        s, k = math.sin(epsilon), 2.0 * math.sin(epsilon / 2.0) ** 2
    else:
        s, k = math.sinh(epsilon), 2.0 * math.sinh(epsilon / 2.0) ** 2
    out = list(f)
    for i, j, aij, aji in _ACTION_PAIRS[b]:
        ci, cj = out[i], out[j]
        # (A c)_i = A_ij c_j and (A^2 c)_i = A_ij A_ji c_i
        out[i] = ci + s * (aij * cj) + k * (aij * aji * ci)
        out[j] = cj + s * (aji * ci) + k * (aji * aij * cj)
    return out


def spectral_invariants(s: EmeqState | Sequence[float]) -> SpectralInvariants:
    """Invariants K1, K2, the determinant, and the eigenvalue structure of
    a state or of its ten coefficients as Python floats.

    The eigenvalues of the symplex are +-sqrt(-(K1 +- 2 sqrt(K2))).  For
    K2 < 0 they form a complex quadruple off both axes and no real
    frequencies are reported.  K2 is quartic in the coefficients, so it
    overflows above about 1e77; PrecisionLoss is raised when K1, K2 or
    the determinant is not finite.
    """
    f = s.coefficients.tolist() if isinstance(s, EmeqState) else s
    e0, p, e, b = f[0], f[1:4], f[4:7], f[7:10]
    k1 = e0 * e0 + _dot(b, b) - _dot(e, e) - _dot(p, p)
    bvec = _aux_b(f)
    eb, bp, _ = _masses(f)
    k2 = _dot(bvec, bvec) - eb * eb - bp * bp
    det = k1 * k1 - 4.0 * k2
    if not (math.isfinite(k1) and math.isfinite(k2) and math.isfinite(det)):
        raise PrecisionLoss(
            f"spectral invariants overflow: K1 = {k1:.3e}, K2 = {k2:.3e}, "
            f"det = {det:.3e}")
    degenerate = abs(k2) <= DEGENERATE_K2_BAND * (k1 * k1 + 4.0 * abs(k2))
    if k2 < 0.0 and not degenerate:
        return SpectralInvariants(
            k1=k1, k2=k2, det=det, omega1=None,
            omega2=None, classification=CLASS_COMPLEX_QUADRUPLE,
            stable=False, degenerate=False)
    root = math.sqrt(max(k2, 0.0))
    band = ZERO_FREQUENCY_BAND * math.sqrt(k1 * k1 + 4.0 * abs(k2))  # rho^2
    w1 = Frequency.from_square(k1 + 2.0 * root, band)
    w2 = Frequency.from_square(k1 - 2.0 * root, band)
    natures = (w1.nature, w2.nature)
    classification = {
        (NATURE_IMAGINARY, NATURE_IMAGINARY): CLASS_TWO_IMAGINARY_PAIRS,
        (NATURE_REAL, NATURE_REAL): CLASS_TWO_REAL_PAIRS,
    }.get(natures, CLASS_MIXED)
    stable = bool(k2 > 0.0 and natures == (NATURE_IMAGINARY, NATURE_IMAGINARY))
    return SpectralInvariants(
        k1=k1, k2=k2, det=det, omega1=w1, omega2=w2,
        classification=classification, stable=stable, degenerate=degenerate)


def lax_invariants(S: np.ndarray) -> tuple[float, float, float, float]:
    """Traces of the first four powers of a symplex.

    For any symplex I1 = I3 = 0; for the 4x4 case I2 = -4 K1 and
    I4 = 4 (K1^2 + 4 K2).  These are first integrals of the motion.
    PrecisionLoss is raised when a power of a finite S overflows.
    """
    S = np.asarray(S, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        S2 = S @ S
        S3 = S2 @ S
        traces = (float(np.trace(S)), float(np.trace(S2)),
                  float(np.trace(S3)), float(np.trace(S3 @ S)))
    if not all(map(math.isfinite, traces)) and np.isfinite(S).all():
        raise PrecisionLoss(f"Lax invariants overflow: traces {traces}")
    return traces
