"""Elementary symplectic transforms and similarity machinery.

Each of the ten basic symplices generates a one-parameter family of
symplectic matrices R_b(eps) = exp(gamma_b * eps/2), evaluated in closed
form: rotations (generator squaring to -1) use cos/sin of the half angle,
boosts (squaring to +1) use cosh/sinh of the half rapidity.  A transform
is its matrix R and a replayable step log; R^-1 = -g0 R^T g0 is derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dirac import GAMMA, gamma_signature, symplectic_unit
from .errors import DimensionMismatch

__all__ = [
    "TransformStep",
    "SymplecticTransform",
    "TransferMatrix",
    "identity_transform",
    "basic_transform",
    "apply_similarity",
    "compose",
    "embed_rows",
    "embed_steps",
    "embed_4x4",
    "replay",
    "dof_transform",
    "block_scaling",
    "symplectic_residual",
    "matrix_exponential",
]

# (a, b) with gamma(a) = diag(G, G), gamma(b) = diag(G, -G): dof_transform
DOF_ROTATION = (0, 8)
DOF_SCALING = (3, 4)
_EYE4 = np.eye(4)
_EYE4.flags.writeable = False


@dataclass(frozen=True)
class TransformStep:
    """One generator application: which gamma, the full angle/rapidity,
    and (for 2n > 4) the pair of degrees of freedom it was embedded at."""

    generator: int
    epsilon: float
    block: tuple[int, int] | None = None
    skipped: bool = False


@dataclass(frozen=True, eq=False)
class SymplecticTransform:
    """Accumulated symplectic similarity transform R and its step log."""

    r: np.ndarray
    steps: tuple[TransformStep, ...] = ()

    @property
    def dim(self) -> int:
        return self.r.shape[0]

    @cached_property
    def rinv(self) -> np.ndarray:
        """Symplectic inverse -g0 R^T g0, computed as (R g0)^T g0."""
        g0 = symplectic_unit(self.dim // 2)
        return (self.r @ g0).T @ g0


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Matrix exponential of a symplex over a path length / period tau."""

    matrix: np.ndarray
    tau: float
    symplectic_residual: float


def symplectic_residual(R: np.ndarray) -> float:
    """|| R g0 R^T - g0 ||_F for the block-diagonal symplectic unit."""
    R = np.asarray(R, dtype=float)
    g0 = symplectic_unit(R.shape[0] // 2)
    return float(np.linalg.norm(R @ g0 @ R.T - g0))


def identity_transform(dim: int = 4) -> SymplecticTransform:
    """The do-nothing transform of the given even dimension."""
    return SymplecticTransform(r=np.eye(dim))


def basic_transform(b: int, epsilon: float,
                    skipped: bool = False) -> SymplecticTransform:
    """Elementary 4x4 transform generated by gamma(b), b in 0..9.

    The parameter is the full angle (rotation) or rapidity (boost); the
    closed form uses the half parameter.
    """
    if not 0 <= b <= 9:
        raise IndexError(f"generator index out of range: {b}")
    if not math.isfinite(epsilon):
        raise ValueError(f"non-finite transform parameter: {epsilon}")
    g = GAMMA[b]
    if gamma_signature(b) < 0:
        c, s = math.cos(epsilon / 2.0), math.sin(epsilon / 2.0)
    else:
        c, s = math.cosh(epsilon / 2.0), math.sinh(epsilon / 2.0)
    step = TransformStep(generator=b, epsilon=float(epsilon), skipped=skipped)
    return SymplecticTransform(r=c * _EYE4 + s * g, steps=(step,))


def apply_similarity(t: SymplecticTransform, F: np.ndarray) -> np.ndarray:
    """Similarity action R F R^-1 on a matrix of matching dimension."""
    F = np.asarray(F, dtype=float)
    if F.shape != (t.dim, t.dim):
        raise DimensionMismatch(
            f"transform is {t.dim}x{t.dim}, matrix has shape {F.shape}")
    return t.r @ F @ t.rinv


def compose(t2: SymplecticTransform, t1: SymplecticTransform) -> SymplecticTransform:
    """Transform applying t1 first, then t2 (R = R2 R1)."""
    if t1.dim != t2.dim:
        raise DimensionMismatch(
            f"cannot compose {t2.dim}x{t2.dim} with {t1.dim}x{t1.dim}")
    return SymplecticTransform(r=t2.r @ t1.r, steps=t1.steps + t2.steps)


def embed_rows(A: np.ndarray, r4: np.ndarray, i: int, j: int) -> list[int]:
    """A <- E A in place, E the 4x4 matrix r4 embedded at the
    degree-of-freedom pair (i, j) of n = len(A) / 2.

    E is the identity outside rows and columns (2i, 2i+1, 2j, 2j+1), so
    only those four rows of A change, at O(n) cost per column; their
    indices are returned.  IndexError unless 0 <= i < j < n.
    """
    n = A.shape[0] // 2
    if not 0 <= i < j < n:
        raise IndexError(f"invalid block pair ({i}, {j}) for n={n}")
    idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
    A[idx] = r4 @ A.take(idx, 0)
    return idx


def embed_steps(steps, i: int, j: int) -> tuple[TransformStep, ...]:
    """A 4x4 step log tagged with the degree-of-freedom pair (i, j)."""
    return tuple(TransformStep(s.generator, s.epsilon, (i, j), s.skipped)
                 for s in steps)


def embed_4x4(t: SymplecticTransform, i: int, j: int, n: int) -> SymplecticTransform:
    """Embed a 4x4 transform at the degree-of-freedom pair (i, j) of n.

    The 2n x 2n result is the identity outside the four 2x2 blocks at
    rows/columns (2i, 2i+1) and (2j, 2j+1).
    """
    if t.dim != 4:
        raise DimensionMismatch("only 4x4 transforms can be embedded")
    r = np.eye(2 * n)
    embed_rows(r, t.r, i, j)
    return SymplecticTransform(r=r, steps=embed_steps(t.steps, i, j))


def replay(steps, dim: int = 4) -> SymplecticTransform:
    """Rebuild the accumulated transform from a step log.

    Steps are applied in log order (earliest first), skipped entries
    included as identity factors, embedded entries to the four rows of
    their recorded block pair (embed_rows).  A 2x2 log holds single-dof
    steps, whose generators must be block-diagonal (see dof_transform).
    """
    r, log = np.eye(dim), []
    for s in steps:
        eps = 0.0 if s.skipped else s.epsilon
        if dim == 2:
            t = dof_transform((s.generator,), [eps])
        elif s.block is None and dim != 4:
            raise DimensionMismatch(
                "un-embedded 4x4 step in a log of dimension "
                f"{dim}; block indices required")
        else:
            t = basic_transform(s.generator, eps, skipped=s.skipped)
        if dim == 2 or s.block is None:
            r = t.r @ r
            log += t.steps
        else:
            embed_rows(r, t.r, *s.block)
            log += embed_steps(t.steps, *s.block)
    return SymplecticTransform(r=r, steps=tuple(log))


def dof_transform(generators, epsilons) -> SymplecticTransform:
    """Block-diagonal transform exp(G eps_k / 2) on every degree of freedom.

    generators is a pair (a, b) of block-diagonal generators with
    gamma(a) = diag(G, G) and gamma(b) = diag(G, -G): DOF_ROTATION
    (G = [[0, 1], [-1, 0]]) or DOF_SCALING (G = diag(-1, 1)).  For n = 1
    the transform is the top-left 2x2 block of exp(gamma(a) eps / 2) and
    only a is used.  For n >= 2 the dofs are taken in pairs (0, 1),
    (2, 3), ..., an odd last dof with its predecessor at parameter 0;
    each pair (i, j) gets gamma(a) at (eps_i + eps_j)/2 followed by
    gamma(b) at (eps_i - eps_j)/2, embedded at (i, j) when n > 2, so the
    step log replays.  Exactly-zero parameters are logged as skips.
    """
    eps = [float(e) for e in np.atleast_1d(epsilons)]
    n = len(eps)
    if n == 1:
        g = generators[0]
        t = basic_transform(g, eps[0], skipped=eps[0] == 0.0)
        if np.any(GAMMA[g][:2, 2:]) or np.any(GAMMA[g][2:, :2]):
            raise DimensionMismatch(
                f"generator {g} has no 2x2 restriction")
        return SymplecticTransform(r=t.r[:2, :2], steps=t.steps)
    a, b = generators
    pairs = [(k, k + 1, eps[k], eps[k + 1]) for k in range(0, n - 1, 2)]
    if n % 2:
        pairs.append((n - 2, n - 1, 0.0, eps[n - 1]))
    r, steps = np.eye(2 * n), []
    for (i, j, u, v) in pairs:
        su, dif = 0.5 * (u + v), 0.5 * (u - v)
        t = compose(basic_transform(b, dif, skipped=dif == 0.0),
                    basic_transform(a, su, skipped=su == 0.0))
        embed_rows(r, t.r, i, j)
        steps += t.steps if n == 2 else embed_steps(t.steps, i, j)
    return SymplecticTransform(r=r, steps=tuple(steps))


def block_scaling(exponents) -> SymplecticTransform:
    """Diagonal symplectic scaling diag(exp(-u_k), exp(u_k)) per dof.

    The dof_transform of the gamma(3)/gamma(4) pair at eps_k = 2 u_k, so
    the step log stays replayable.  One exponent per degree of freedom.
    """
    return dof_transform(DOF_SCALING,
                         [2.0 * float(u) for u in np.atleast_1d(exponents)])


def matrix_exponential(F: np.ndarray, s: float = 1.0) -> TransferMatrix:
    """Transfer matrix exp(F s) by scaling-and-squaring of a Taylor series.

    The symplecticity residual of the result is computed and reported on
    the returned TransferMatrix; it is never silently repaired.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1] or F.shape[0] % 2:
        raise DimensionMismatch(f"expected a square even matrix, got {F.shape}")
    A = F * s
    norm = float(np.linalg.norm(A, ord=1))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    A = A / (2.0 ** squarings)
    dim = F.shape[0]
    result = np.eye(dim)
    term = np.eye(dim)
    for k in range(1, 40):
        term = term @ A / k
        result = result + term
        if np.linalg.norm(term) <= 1e-20 * np.linalg.norm(result):
            break
    for _ in range(squarings):
        result = result @ result
    return TransferMatrix(matrix=result, tau=float(s),
                          symplectic_residual=symplectic_residual(result))
