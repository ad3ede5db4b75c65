"""Jacobi-like block-diagonalization of 2n x 2n symplices.

The matrix is viewed as an n x n grid of 2x2 blocks.  Each iteration
picks the off-diagonal block of largest mean-square amplitude, extracts
the corresponding degree-of-freedom pair as a 4x4 symplex, decouples it
by decouple4's fully checked 4x4 solve, and applies the embedded E
where it acts: E M E^-1 changes four rows and four columns of M, E R
four rows of the accumulated R, and the step log grows by the pivot's
steps; a pair whose 4x4 has complex eigenvalues gives way to the next
pair in falling amplitude order.  Convergence is declared when
the summed Frobenius norms of all off-diagonal blocks fall below a
relative threshold.  This is decouple's block stage for n != 2, and
jacobi_decouple continues it to Hamiltonian form by decouple4's per-dof
pass, as decouple(F, form="hamiltonian") does for n != 2.  The same
iteration serves every n, n = 1 and 2 included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decouple4 import (FORM_BLOCK_DIAGONAL, FORM_HAMILTONIAN, JACOBI_TOL,
                        DecoupleResult, _as_symplex, _block_frequencies,
                        _check_iteration, _dof_stages, _solve_block,
                        off_block_max)
from .dirac import _frobenius, symplectic_unit
from .emeq import Symplex
from .errors import (ComplexEigenvalues, DegenerateB, MaxStepsExceeded,
                     PivotComplex)
from .transform import SymplecticTransform, _dof_rows

__all__ = [
    "IterationStats",
    "off_block_norms",
    "random_test_symplex",
    "jacobi_decouple",
]


@dataclass(frozen=True)
class IterationStats:
    """Per-run counters: pivot history and the residual trend."""

    hamiltonian_steps: int = 0
    pivots: list = field(default_factory=list)  # (i, j, RMS entry |B_ij|_F/2)
    residuals: list = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        """residuals[-1], reached by the pivot loop: the per-dof rotation
        keeps every off-block norm (the normal-form scaling does not)."""
        return self.residuals[-1]

    @property
    def pivot_steps(self) -> int:
        return len(self.pivots)

    @property
    def total_steps(self) -> int:
        """Steps to Hamiltonian form: pivots plus hamiltonian_steps, the
        dof pairs (2m, 2m + 1) that the Hamiltonian pass rotates.  Kept per
        pair: on criterion 07's inputs at n = 3 the mean is 1.46 x
        5n(n-2)/2; per rotated dof it would be 1.593 x, outside the +-50 %
        band, and pivots alone (the count of `symdec bench`) are 1.19 x."""
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
    """Sum of off-diagonal block Frobenius norms (amplitudes amp) over
    ||M||_F; 0 for ||M||_F = 0, where every square, amp's too, is 0."""
    norm = _frobenius(M)
    return float(np.sqrt(4.0 * amp).sum()) / norm if norm else 0.0


def random_test_symplex(n: int, seed: int) -> Symplex:
    """Deterministic random symplex F = g0 A for convergence studies.

    A is symmetric with off-diagonal entries uniform in [-1/2, 1/2) and
    diagonal entries n + uniform[0, 1); the raised diagonal keeps the
    eigenvalues away from the complex region.  Entries are drawn from
    numpy's PCG64 generator seeded with `seed`, row-major over the upper
    triangle, so the same seed always yields the same matrix.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    dim = 2 * n
    i, j = np.triu_indices(dim)
    x = np.random.default_rng(seed).random(i.size)
    A = np.zeros((dim, dim))
    A[i, j] = A[j, i] = np.where(i == j, n + x, x - 0.5)
    return Symplex(symplectic_unit(n) @ A)


def _extract_pair(F: np.ndarray, i: int, j: int) -> np.ndarray:
    idx = _dof_rows(F.shape[0] // 2, (i, j))
    return F.take(idx, 0).take(idx, 1)


def _fallback_pivot(M: np.ndarray, amp: np.ndarray, first: tuple,
                    exc: Exception):
    """(i, j, _solve_block of its 4x4) of the first nonzero pair other
    than `first`, by falling amplitude and then index, whose 4x4 decouples
    over the reals; PivotComplex naming `first` when there is none."""
    iu, ju = np.triu_indices(amp.shape[0], 1)
    pair_amp = np.maximum(amp, amp.T)[iu, ju]
    for k in np.lexsort((ju, iu, -pair_amp)):
        i, j = int(iu[k]), int(ju[k])
        if (i, j) == first or pair_amp[k] == 0.0:
            continue
        try:
            return i, j, _solve_block(_extract_pair(M, i, j), (i, j))
        except (ComplexEigenvalues, DegenerateB):
            continue
    raise PivotComplex(
        f"pivot {first} cannot be decoupled over the reals, nor can any "
        f"other pair: {exc}", pivot=first) from exc


def _block_stage(sym: Symplex, tol: float,
                 max_steps: int | None) -> DecoupleResult:
    """The pivot loop: a block_diagonal result carrying IterationStats."""
    n = sym.n
    M = sym.matrix.copy()
    R, steps = np.eye(2 * n), []
    stats = IterationStats()
    max_steps = 40 * n * n if max_steps is None else max_steps

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
        flat = amp.argmax()
        i, j = divmod(int(flat), n)
        if i > j:
            i, j = j, i
        try:
            r4, rinv4, steps4, _ = _solve_block(_extract_pair(M, i, j), (i, j))
        except (ComplexEigenvalues, DegenerateB) as exc:
            i, j, (r4, rinv4, steps4, _) = _fallback_pivot(M, amp, (i, j), exc)
        # E M E^-1 and E R for E = r4 embedded at (i, j): four rows and
        # four columns of M, four rows of R
        idx = _dof_rows(n, (i, j))
        M[idx] = r4 @ M.take(idx, 0)
        M[:, idx] = M.take(idx, 1) @ rinv4
        R[idx] = r4 @ R.take(idx, 0)
        steps += steps4
        stats.pivots.append((i, j, math.sqrt(amp[i, j])))

    return DecoupleResult(
        source=sym.matrix, transform=SymplecticTransform(R, tuple(steps)),
        final=Symplex(M), form=FORM_BLOCK_DIAGONAL,
        residual=off_block_max(M), frequencies=_block_frequencies(M),
        stats=stats)


def jacobi_decouple(F, tol: float = JACOBI_TOL, max_steps: int | None = None,
                    ) -> tuple[SymplecticTransform, Symplex, IterationStats]:
    """(transform, decoupled symplex, IterationStats) of the Jacobi block
    stage on the 2n x 2n symplex F, continued to Hamiltonian form by one
    phase rotation per dof.

    tol, finite and positive, bounds the summed off-diagonal block norms
    relative to the Frobenius norm; max_steps, non-negative, is the pivot
    budget (default 40 n^2).  A complex 4x4 pivot gives way to the next pair;
    PivotComplex is raised only when no pair decouples.
    """
    _check_iteration(tol, max_steps)
    res = _dof_stages(_block_stage(_as_symplex(F), tol, max_steps),
                      FORM_HAMILTONIAN)
    return res.transform, res.final, res.stats
