"""Jacobi-like block-diagonalization of 2n x 2n symplices.

The matrix is viewed as an n x n grid of 2x2 blocks.  Each iteration
picks the off-diagonal block of largest mean-square amplitude, extracts
the corresponding degree-of-freedom pair as a 4x4 symplex, decouples it
with the geometric 4x4 pipeline, and applies the embedded transform to
the full matrix.  Convergence is declared when the summed Frobenius
norms of all off-diagonal blocks fall below a relative threshold.  A
final pass brings every diagonal block to Hamiltonian form with one
phase rotation per degree of freedom; such rotations are orthogonal
and symplectic per block, so they leave every off-block norm unchanged.
The same iteration serves every n, n = 1 and 2 included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decouple4 import Tolerances, decouple_block_diagonal
from .dirac import symplectic_unit, symplex_residual
from .errors import (ComplexEigenvalues, DegenerateB, MaxStepsExceeded,
                     NotASymplex, PivotComplex)
from .transform import (DOF_ROTATION, SymplecticTransform, compose,
                        dof_transform, embed_4x4, identity_transform)

__all__ = [
    "SymplexN",
    "IterationStats",
    "off_block_norms",
    "random_test_symplex",
    "jacobi_decouple",
]


@dataclass(frozen=True)
class SymplexN:
    """A 2n x 2n symplex for n degrees of freedom."""

    matrix: np.ndarray
    n: int

    @classmethod
    def from_matrix(cls, M: np.ndarray, tol: float = 1e-10) -> "SymplexN":
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
            raise ValueError(f"expected a square even matrix, got {M.shape}")
        if not np.isfinite(M).all():
            raise NotASymplex("matrix has non-finite entries")
        n = M.shape[0] // 2
        resid = symplex_residual(M)
        if resid > tol * max(1.0, np.linalg.norm(M)):
            raise NotASymplex(
                f"symplex condition violated with residual {resid:.3e}")
        return cls(matrix=M, n=n)


@dataclass
class IterationStats:
    """Per-run counters: pivot history and the residual trend."""

    pivot_steps: int = 0
    hamiltonian_steps: int = 0
    pivots: list = field(default_factory=list)   # (i, j, off norm before)
    residuals: list = field(default_factory=list)
    final_residual: float = 0.0

    @property
    def total_steps(self) -> int:
        """Steps to Hamiltonian form: pivots plus the pair transforms of the
        Hamiltonian pass."""
        return self.pivot_steps + self.hamiltonian_steps


def off_block_norms(F: np.ndarray) -> np.ndarray:
    """Mean-square amplitude of each off-diagonal 2x2 block.

    Entry (i, j) with i != j is the mean of the squared entries of block
    B_ij; diagonal entries are zero.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0] // 2
    blocks = F.reshape(n, 2, n, 2)
    out = np.einsum("iajb,iajb->ij", blocks, blocks) / 4.0
    np.fill_diagonal(out, 0.0)
    return out


def _off_residual(M: np.ndarray, amp: np.ndarray) -> float:
    """Sum of off-diagonal block Frobenius norms relative to ||M||_F,
    from the off_block_norms amplitudes of M."""
    return (float(np.sqrt(4.0 * amp).sum())
            / max(float(np.linalg.norm(M)), 1e-300))


def random_test_symplex(n: int, seed: int) -> SymplexN:
    """Deterministic random symplex F = g0 A for convergence studies.

    A is symmetric with off-diagonal entries uniform in [-1/2, 1/2) and
    diagonal entries n + uniform[0, 1); the raised diagonal keeps the
    eigenvalues away from the complex region.  Entries are drawn from
    numpy's PCG64 generator seeded with `seed`, row-major over the upper
    triangle, so the same seed always yields the same matrix.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    dim = 2 * n
    A = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            x = rng.random()
            if i == j:
                A[i, i] = n + x
            else:
                A[i, j] = A[j, i] = x - 0.5
    return SymplexN(matrix=symplectic_unit(n) @ A, n=n)


def _extract_pair(F: np.ndarray, i: int, j: int) -> np.ndarray:
    idx = np.array([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])
    return F[np.ix_(idx, idx)]


def jacobi_decouple(F, tol: float = 1e-12, max_steps: int | None = None,
                    hamiltonian: bool = True,
                    tolerances: Tolerances = Tolerances(),
                    ) -> tuple[SymplecticTransform, SymplexN, IterationStats]:
    """Iteratively block-diagonalize a 2n x 2n symplex.

    Parameters
    ----------
    F : SymplexN or ndarray
        The symplex to decouple; all eigenvalues must be real or
        imaginary (a complex 4x4 pivot raises PivotComplex).
    tol : float
        Convergence threshold on the summed off-diagonal block norms
        relative to the total Frobenius norm.
    max_steps : int, optional
        Pivot budget; defaults to 40 n^2.
    hamiltonian : bool
        After convergence, push every diagonal block to Hamiltonian form
        (zero block diagonals) with one phase rotation per degree of
        freedom; hamiltonian_steps counts the embedded pair transforms
        that act.

    Returns
    -------
    (transform, decoupled, stats)
        The accumulated symplectic transform, the transformed symplex,
        and the iteration statistics.
    """
    sym = F if isinstance(F, SymplexN) else SymplexN.from_matrix(F)
    n = sym.n
    M = sym.matrix.copy()
    total = identity_transform(2 * n)
    stats = IterationStats()
    if max_steps is None:
        max_steps = 40 * n * n

    while True:
        amp = off_block_norms(M)
        resid = _off_residual(M, amp)
        stats.residuals.append(resid)
        if resid <= tol:
            break
        if stats.pivot_steps >= max_steps:
            raise MaxStepsExceeded(
                f"no convergence after {stats.pivot_steps} pivots "
                f"(residual {resid:.3e})")
        # lexicographically smallest pair among maximal blocks
        flat = np.argmax(amp)
        i, j = divmod(int(flat), n)
        if i > j:
            i, j = j, i
        sub = _extract_pair(M, i, j)
        try:
            res4 = decouple_block_diagonal(sub, tolerances)
        except (ComplexEigenvalues, DegenerateB) as exc:
            raise PivotComplex(
                f"pivot ({i}, {j}) cannot be decoupled over the "
                f"reals: {exc}", pivot=(i, j)) from exc
        t = embed_4x4(res4.transform, i, j, n)
        M = t.r @ M @ t.rinv
        total = compose(t, total)
        stats.pivots.append((i, j, float(np.sqrt(amp[i, j]))))
        stats.pivot_steps += 1

    if hamiltonian:
        t = dof_transform(DOF_ROTATION, _hamiltonian_angles(M, tolerances))
        # one count per embedded pair transform that acts
        stats.hamiltonian_steps = len({s.block for s in t.steps
                                       if not s.skipped})
        if stats.hamiltonian_steps:
            M = t.r @ M @ t.rinv
            total = compose(t, total)

    stats.final_residual = _off_residual(M, off_block_norms(M))
    return total, SymplexN(matrix=M, n=n), stats


def _hamiltonian_angles(M: np.ndarray, tolerances: Tolerances) -> list:
    """Per-dof rotation angles zeroing the diagonal blocks' diagonals.

    A 2x2 symplex [[a, b], [c, -a]] conjugated by the phase rotation of
    angle theta has diagonal a cos(2 theta) + (b + c)/2 sin(2 theta);
    the full angle 2 theta = atan2(-2a, b + c) removes it.  Blocks with
    |2a| below the step tolerance keep angle 0.
    """
    angles = []
    for k in range(M.shape[0] // 2):
        a, bc = M[2 * k, 2 * k], M[2 * k, 2 * k + 1] + M[2 * k + 1, 2 * k]
        angles.append(0.0 if abs(2.0 * a) < tolerances.step
                      else float(np.arctan2(-2.0 * a, bc)))
    return angles
