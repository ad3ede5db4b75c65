"""Real Dirac matrix basis of the 4x4 real matrices.

The sixteen matrices ``gamma(0) .. gamma(15)`` form a basis of the real
4x4 matrices (a real representation of the Clifford algebra Cl(3,1)).
The first ten are symplices (Hamiltonian matrices), the last six are
cosymplices (skew-Hamiltonian matrices) with respect to the symplectic
unit ``gamma(0)``, which is fixed by the phase-space variable ordering
(q1, p1, q2, p2).

Conventions
-----------
* ``gamma(0)`` is block-diagonal with 2x2 blocks [[0, 1], [-1, 0]].
* ``gamma(1) .. gamma(3)`` complete the anticommuting generator set;
  the remaining twelve are signed products of the generators.
* A symplex F satisfies F^T = g0 F g0, a cosymplex C^T = -g0 C g0.

All matrices are stored with exact integer entries and are read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "GAMMA",
    "gamma",
    "gamma_signature",
    "symplectic_unit",
    "rdm_coefficients",
    "from_coefficients",
    "symplex_residual",
    "is_symplex",
    "is_cosymplex",
    "symplex_cosymplex_split",
]

def _build_basis() -> tuple[np.ndarray, ...]:
    g = [None] * 16
    g[0] = np.array([[0, 1, 0, 0],
                     [-1, 0, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, -1, 0]], dtype=float)
    g[1] = np.array([[0, -1, 0, 0],
                     [-1, 0, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, 1, 0]], dtype=float)
    g[2] = np.array([[0, 0, 0, 1],
                     [0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [1, 0, 0, 0]], dtype=float)
    g[3] = np.array([[-1, 0, 0, 0],
                     [0, 1, 0, 0],
                     [0, 0, -1, 0],
                     [0, 0, 0, 1]], dtype=float)
    g[14] = g[0] @ g[1] @ g[2] @ g[3]
    g[15] = np.eye(4)
    g[4] = g[0] @ g[1]
    g[5] = g[0] @ g[2]
    g[6] = g[0] @ g[3]
    g[7] = g[14] @ g[0] @ g[1]
    g[8] = g[14] @ g[0] @ g[2]
    g[9] = g[14] @ g[0] @ g[3]
    g[10] = g[14] @ g[0]
    g[11] = g[14] @ g[1]
    g[12] = g[14] @ g[2]
    g[13] = g[14] @ g[3]
    for m in g:
        m.flags.writeable = False
    return tuple(g)


GAMMA = _build_basis()

# gamma(k)^2 = sign * identity; +1 for the symmetric basis elements
# (boost generators), -1 for the skew-symmetric ones (rotation generators).
_SIGNATURE = tuple(int(round((m @ m)[0, 0])) for m in GAMMA)

# row k is gamma(k) flattened; gamma(k)^T = s_k gamma(k), so the trace
# formula m_k = s_k Tr(M gamma_k) / 4 is row k . vec(M) / 4
_STACKED = np.array([m.ravel() for m in GAMMA])
_STACKED.flags.writeable = False
_SYMPLEX_ROWS = _STACKED[:10]


def gamma(k: int) -> np.ndarray:
    """Return the k-th real Dirac matrix, k in 0..15 (read-only view)."""
    if not 0 <= k <= 15:
        raise IndexError(f"gamma index out of range: {k}")
    return GAMMA[k]


def gamma_signature(k: int) -> int:
    """Sign s with gamma(k) @ gamma(k) == s * identity (+1 or -1)."""
    if not 0 <= k <= 15:
        raise IndexError(f"gamma index out of range: {k}")
    return _SIGNATURE[k]


@lru_cache
def symplectic_unit(n: int = 2) -> np.ndarray:
    """Read-only 2n x 2n symplectic unit, (q1, p1, ..., qn, pn) ordering."""
    g0 = np.zeros((2 * n, 2 * n))
    for i in range(0, 2 * n, 2):
        g0[i, i + 1] = 1.0
        g0[i + 1, i] = -1.0
    g0.flags.writeable = False
    return g0


def rdm_coefficients(M: np.ndarray) -> np.ndarray:
    """Expansion coefficients of a real 4x4 matrix over the Dirac basis.

    Returns the length-16 vector m with M = sum_k m[k] * gamma(k): the
    trace formula m_k = s_k Tr(M gamma_k) / 4 as one 16x16 matrix product,
    scaled first (exact bar underflow), so a finite m never overflows.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {M.shape}")
    return _STACKED @ (M.ravel() * 0.25)


def _symplex_floats(M: np.ndarray) -> list[float]:
    """rdm_coefficients(M)[:10] of a 4x4 float array, as Python floats."""
    return (_SYMPLEX_ROWS @ (M.ravel() * 0.25)).tolist()


def from_coefficients(c: np.ndarray) -> np.ndarray:
    """Reassemble sum_k c[k] * gamma(k) from a length-16 coefficient vector."""
    c = np.asarray(c, dtype=float)
    if c.shape != (16,):
        raise ValueError(f"expected 16 coefficients, got shape {c.shape}")
    return (c @ _STACKED).reshape(4, 4)


def _frobenius(M: np.ndarray) -> float:
    return math.sqrt(np.vdot(M, M))  # inf on overflow, without a warning


def _rescaled(M: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(M 2^-k, k, ||M 2^-k||_F), k = 0 unless ||M||_F overflows on finite
    entries: then the largest entry's exponent (exact bar underflow)."""
    norm = _frobenius(M)
    if norm == math.inf and np.isfinite(M).all():
        k = math.frexp(np.abs(M).max())[1]
        M = np.ldexp(M, -k)
        return M, k, _frobenius(M)
    return M, 0, norm


def _split_norm(M: np.ndarray, sign: int) -> float:
    S = symplectic_unit(M.shape[0] // 2) @ M
    return _frobenius(S - S.T if sign < 0 else S + S.T)


def symplex_residual(M: np.ndarray) -> float:
    """|| M^T - g0 M g0 ||_F = || S - S^T ||_F with S = g0 M (g0 is
    orthogonal): M is a symplex exactly when g0 M is symmetric.  inf when
    it exceeds the float range."""
    M, k, _ = _rescaled(np.asarray(M, dtype=float))
    try:
        return math.ldexp(_split_norm(M, -1), k)
    except OverflowError:
        return math.inf


def _relative_test(M: np.ndarray, tol: float, sign: int) -> bool:
    M, _, norm = _rescaled(np.asarray(M, dtype=float))
    return math.isfinite(norm) and _split_norm(M, sign) <= tol * norm


def is_symplex(M: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff M is finite with symplex_residual(M) <= tol ||M||_F."""
    return _relative_test(M, tol, -1)


def is_cosymplex(M: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff M is finite with ||M^T + g0 M g0||_F <= tol ||M||_F."""
    return _relative_test(M, tol, +1)


def symplex_cosymplex_split(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split M into its symplex and cosymplex parts.

    Returns (Ms, Mc) with Ms = (M + g0 M^T g0)/2 a symplex,
    Mc = (M - g0 M^T g0)/2 a cosymplex, and Ms + Mc = M.
    For a symplectic matrix this coincides with Ms = (M - M^-1)/2.
    """
    M = np.asarray(M, dtype=float)
    g0 = symplectic_unit(M.shape[0] // 2)
    pulled = g0 @ M.T @ g0
    return (M + pulled) / 2.0, (M - pulled) / 2.0
