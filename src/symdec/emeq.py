"""Electromechanical-equivalence view of a 4x4 symplex.

The ten symplex coefficients are read as an energy and three 3-vectors
(momentum P, electric field E, magnetic field B).  Under the elementary
symplectic transforms these quantities transform exactly like their
Lorentz-group namesakes, which turns the block-diagonalization problem
into a vector orthogonalization/alignment problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dirac import (GAMMA, from_coefficients, gamma_signature, is_symplex,
                    rdm_coefficients, symplex_residual)
from .errors import NotASymplex

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
    "transform_coefficients",
    "spectral_invariants",
    "lax_invariants",
]

CLASS_TWO_IMAGINARY_PAIRS = "two_imaginary_pairs"
CLASS_TWO_REAL_PAIRS = "two_real_pairs"
CLASS_MIXED = "mixed_real_imaginary"
CLASS_COMPLEX_QUADRUPLE = "complex_quadruple"

# |K2| below this (relative to max(1, K1^2)) marks a degenerate boundary
# where the classification branches meet; a frequency radicand below
# ZERO_FREQUENCY_BAND (relative to max(1, |K1|)) is a zero pair.
DEGENERATE_K2_BAND = 1e-12
ZERO_FREQUENCY_BAND = 1e-12


# ad(gamma_b) / 2 on the ten symplex coefficients: six +-1 entries each
_ACTION = np.array([[rdm_coefficients(gb @ g - g @ gb)[:10] / 2.0
                     for g in GAMMA[:10]] for gb in GAMMA[:10]]
                   ).transpose(0, 2, 1)
_ACTION.flags.writeable = False


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
        return np.concatenate(([self.energy], self.p, self.e, self.b))

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


@dataclass(frozen=True)
class Frequency:
    """Eigenfrequency magnitude with the nature of its eigenvalue pair.

    nature is "imaginary" for a stable oscillation pair +-i*value,
    "real" for an unstable pair +-value, "zero" at the boundary.
    """

    value: float
    nature: str


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
    """Build an EmeqState from the ten symplex coefficients."""
    c = np.asarray(c, dtype=float)
    if c.shape != (10,):
        raise ValueError(f"expected 10 coefficients, got shape {c.shape}")
    return EmeqState(energy=float(c[0]), p=c[1:4].copy(), e=c[4:7].copy(),
                     b=c[7:10].copy())


@dataclass(frozen=True, eq=False)
class Symplex:
    """A 2n x 2n symplex; for n = 2 also its EMEQ state and invariants,
    read from the Dirac coefficients on first use."""

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, M: np.ndarray, tol: float = 1e-10) -> "Symplex":
        """The one validity check: a square even matrix passing is_symplex."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
            raise ValueError(f"expected a square even matrix, got {M.shape}")
        if not is_symplex(M, tol):
            raise NotASymplex(f"symplex residual {symplex_residual(M):.3e}"
                              if np.isfinite(M).all() else "non-finite entries")
        return cls(M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    @cached_property
    def state(self) -> EmeqState:
        c = rdm_coefficients(self.matrix)  # ValueError unless 4x4
        return EmeqState(energy=float(c[0]), p=c[1:4], e=c[4:7], b=c[7:10])

    @cached_property
    def invariants(self) -> SpectralInvariants:
        return spectral_invariants(self.state)


def emeq_from_symplex(F: np.ndarray, tol: float = 1e-10) -> EmeqState:
    """EMEQ state of a 4x4 that Symplex.from_matrix accepts."""
    return Symplex.from_matrix(F, tol).state


def mass_components(s: EmeqState) -> MassComponents:
    """Scalar products E.B, B.P, E.P of the state vectors."""
    return MassComponents(m_r=float(s.e @ s.b), m_g=float(s.b @ s.p),
                          m_b=float(s.e @ s.p))


def aux_vectors(s: EmeqState) -> AuxVectors:
    """The auxiliary vectors r, g, b built from energy and cross products."""
    return AuxVectors(
        r=s.energy * s.p + _cross(s.b, s.e),
        g=s.energy * s.e + _cross(s.p, s.b),
        b=s.energy * s.b + _cross(s.e, s.p),
    )


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v for two 3-vectors, without np.cross's general-shape overhead."""
    (u0, u1, u2), (v0, v1, v2) = u, v
    return np.array((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0))


def transform_coefficients(c, b: int, epsilon: float) -> np.ndarray:
    """The ten coefficients of R F R^-1, R = basic_transform(b, epsilon),
    from those of F: c + sin(eps) A c + (1 - cos(eps)) A^2 c, A = _ACTION[b],
    as A^3 = -A; a boost (A^3 = A) takes sinh(eps) and cosh(eps) - 1."""
    # 1 - cos(eps) = 2 sin(eps/2)^2, free of cancellation at small eps
    if gamma_signature(b) < 0:
        s, k = math.sin(epsilon), 2.0 * math.sin(epsilon / 2.0) ** 2
    else:
        s, k = math.sinh(epsilon), 2.0 * math.sinh(epsilon / 2.0) ** 2
    a = _ACTION[b] @ c
    return c + s * a + k * (_ACTION[b] @ a)


def _frequency(radicand: float, scale: float) -> Frequency:
    # eigenvalue pair is +-sqrt(-radicand)
    if abs(radicand) <= ZERO_FREQUENCY_BAND * scale:
        return Frequency(0.0, "zero")
    if radicand > 0.0:
        return Frequency(float(np.sqrt(radicand)), "imaginary")
    return Frequency(float(np.sqrt(-radicand)), "real")


def spectral_invariants(s: EmeqState) -> SpectralInvariants:
    """Invariants K1, K2, the determinant, and the eigenvalue structure.

    The eigenvalues of the symplex are +-sqrt(-(K1 +- 2 sqrt(K2))).  For
    K2 < 0 they form a complex quadruple off both axes and no real
    frequencies are reported.
    """
    e0, p, e, b = s.energy, s.p, s.e, s.b
    k1 = e0**2 + b @ b - e @ e - p @ p
    bvec = e0 * b + _cross(e, p)
    k2 = bvec @ bvec - (e @ b) ** 2 - (p @ b) ** 2
    k1, k2 = float(k1), float(k2)
    det = k1**2 - 4.0 * k2
    scale = max(1.0, k1**2)
    degenerate = abs(k2) < DEGENERATE_K2_BAND * scale
    if k2 < 0.0 and not degenerate:
        return SpectralInvariants(
            k1=k1, k2=k2, det=det, omega1=None,
            omega2=None, classification=CLASS_COMPLEX_QUADRUPLE,
            stable=False, degenerate=False)
    root = np.sqrt(max(k2, 0.0))
    w1 = _frequency(k1 + 2.0 * root, max(1.0, abs(k1)))
    w2 = _frequency(k1 - 2.0 * root, max(1.0, abs(k1)))
    natures = (w1.nature, w2.nature)
    if natures == ("imaginary", "imaginary"):
        classification = CLASS_TWO_IMAGINARY_PAIRS
    elif natures == ("real", "real"):
        classification = CLASS_TWO_REAL_PAIRS
    else:
        classification = CLASS_MIXED
    stable = bool(k2 > 0.0 and natures == ("imaginary", "imaginary"))
    return SpectralInvariants(
        k1=k1, k2=k2, det=det, omega1=w1, omega2=w2,
        classification=classification, stable=stable, degenerate=degenerate)


def lax_invariants(S: np.ndarray) -> tuple[float, float, float, float]:
    """Traces of the first four powers of a symplex.

    For any symplex I1 = I3 = 0; for the 4x4 case I2 = -4 K1 and
    I4 = 4 (K1^2 + 4 K2).  These are first integrals of the motion.
    """
    S = np.asarray(S, dtype=float)
    S2 = S @ S
    S3 = S2 @ S
    return (float(np.trace(S)), float(np.trace(S2)),
            float(np.trace(S3)), float(np.trace(S3 @ S)))
