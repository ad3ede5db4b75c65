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
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from .dirac import GAMMA, _rescaled, gamma_signature, symplectic_unit
from .errors import DimensionMismatch

__all__ = [
    "TransformStep",
    "SymplecticTransform",
    "TransferMatrix",
    "basic_transform",
    "apply_similarity",
    "compose",
    "replay",
    "dof_transform",
    "symplectic_residual",
    "is_symplectic",
    "matrix_exponential",
]

DOF_ROTATION = 0  # the per-dof generators of dof_transform
DOF_SCALING = 3
_EYE4 = np.eye(4)
_EYE4.flags.writeable = False
_GENERATORS = np.array(GAMMA[:10])
_GENERATORS.flags.writeable = False
# the 2x2 block G of gamma(g) = diag(G, G) for the two per-dof generators
_DOF_BLOCKS = {g: GAMMA[g][:2, :2].tolist() for g in (DOF_ROTATION, DOF_SCALING)}


@dataclass(frozen=True)
class TransformStep:
    """One generator application: which gamma, the full angle/rapidity,
    and the degrees of freedom it acts on: None for a 4x4 step, a pair
    (i, j) for a 4x4 step embedded at dofs i < j, a single dof (k,) for
    the 2x2 block G of gamma = diag(G, G) acting on dof k alone."""

    generator: int
    epsilon: float
    block: tuple[int, ...] | None = None

    @property
    def skipped(self) -> bool:
        """A skip is a step of parameter 0, the identity."""
        return self.epsilon == 0.0


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
        """The symplectic inverse of r, computed on first use."""
        return _symplectic_inverse(self.r)


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Matrix exponential of a symplex over a path length / period tau."""

    matrix: np.ndarray
    tau: float
    symplectic_residual: float


def symplectic_residual(R: np.ndarray) -> float:
    """|| R g0 R^T - g0 ||_F for the block-diagonal symplectic unit; inf or
    nan, without a warning, when it overflows."""
    R = np.asarray(R, dtype=float)
    g0 = symplectic_unit(R.shape[0] // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(R @ g0 @ R.T - g0))


def is_symplectic(M: np.ndarray, tol=1e-10, residual=None) -> bool:
    """True iff symplectic_residual(M), or the residual given, is finite and
    <= tol ||M||_F, with no floor: a symplectic M has ||M||_F >= sqrt(2n)."""
    resid = symplectic_residual(M) if residual is None else residual
    _, k, norm = _rescaled(np.asarray(M, dtype=float))
    return math.isfinite(resid) and math.ldexp(resid, -k) <= tol * norm


def _symplectic_inverse(r: np.ndarray) -> np.ndarray:
    """Symplectic inverse -g0 R^T g0, computed as (R g0)^T g0."""
    g0 = symplectic_unit(r.shape[0] // 2)
    return (r @ g0).T @ g0


def basic_transform(b: int, epsilon: float) -> SymplecticTransform:
    """Elementary 4x4 transform generated by gamma(b), b in 0..9.

    The parameter is the full angle (rotation) or rapidity (boost); the
    closed form uses the half parameter.
    """
    if not 0 <= b <= 9:
        raise IndexError(f"generator index out of range: {b}")
    step = TransformStep(generator=b, epsilon=float(epsilon))
    return SymplecticTransform(r=_product((step,)), steps=(step,))


def _product(steps) -> np.ndarray:
    """F_k ... F_1, a new 4x4, of the live steps' factors c 1 + s gamma_b,
    built in one array operation and multiplied in log order."""
    live = [(step.generator, *_half_angle(step.generator, step.epsilon))
            for step in steps if step.epsilon]
    if not live:
        return _EYE4.copy()
    b, c, s = zip(*live)
    factors = (np.array(c)[:, None, None] * _EYE4
               + np.array(s)[:, None, None] * _GENERATORS[list(b)])
    r = factors[0]
    for factor in factors[1:]:
        r = factor @ r
    return r


def _half_angle(b: int, epsilon: float) -> tuple[float, float]:
    """(c, s) with exp(gamma(b) eps/2) = c 1 + s gamma(b): cos/sin of the
    half angle for a rotation, cosh/sinh of the half rapidity for a boost."""
    if not math.isfinite(epsilon):
        raise ValueError(f"non-finite transform parameter: {epsilon}")
    if gamma_signature(b) < 0:
        return math.cos(epsilon / 2.0), math.sin(epsilon / 2.0)
    return math.cosh(epsilon / 2.0), math.sinh(epsilon / 2.0)


def _dof_block(b: int, epsilon: float) -> list[list[float]]:
    """exp(G eps/2) = c 1 + s G for gamma(b) = diag(G, G), on floats;
    DimensionMismatch unless b is DOF_ROTATION or DOF_SCALING."""
    if b not in _DOF_BLOCKS:
        raise DimensionMismatch(f"generator {b} is no per-dof generator")
    (p, q), (u, v) = _DOF_BLOCKS[b]
    c, s = _half_angle(b, epsilon)
    return [[c + s * p, s * q], [s * u, c + s * v]]


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


@lru_cache(maxsize=None)
def _dof_rows(n: int, dofs: tuple[int, ...]) -> np.ndarray:
    """Rows 2d, 2d + 1 of each increasing dof d < n, read-only (IndexError)."""
    bounds = (-1, *dofs, n)
    if not dofs or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise IndexError(f"invalid dofs {dofs} for n={n}")
    idx = np.array([m for d in dofs for m in (2 * d, 2 * d + 1)])
    idx.flags.writeable = False
    return idx


def replay(steps, dim: int = 4) -> SymplecticTransform:
    """Rebuild the accumulated transform from a step log as the library
    forms it, bit for bit: each run of steps with no block (dim 4 only) is
    one _product left-multiplying R, and each four steps on one dof pair
    (a Jacobi pivot) one _product updating the pair's rows of R; per-dof
    steps, each dof once, are one dense block-diagonal factor.
    DimensionMismatch for an odd dim or 3+ dofs."""
    steps = tuple(steps)
    if dim < 2 or dim % 2:
        raise DimensionMismatch(f"a log acts in even dimension, not {dim}")
    r = np.eye(dim)
    for block, run in groupby(steps, lambda s: s.block if s.block is None
                              or len(s.block) != 1 else "dof"):
        if block is None and dim == 4:
            r = _product(run) @ r
        elif block == "dof":
            t, done = np.eye(dim), set()
            for s in run:
                i = _dof_rows(dim // 2, tuple(s.block))[0]  # row 2k, dof k
                if i in done:  # the next stage
                    r, t, done = t @ r, np.eye(dim), set()
                done.add(i)
                t[i:i + 2, i:i + 2] = _dof_block(s.generator, s.epsilon)
            r = t @ r
        elif block is None or len(block) != 2:
            raise DimensionMismatch(f"no step on {block} in dimension {dim}")
        else:
            idx, run = _dof_rows(dim // 2, tuple(block)), list(run)
            for k in range(0, len(run), 4):  # _solve_block logs four steps
                r[idx] = _product(run[k:k + 4]) @ r.take(idx, 0)
    return SymplecticTransform(r=r, steps=steps)


def dof_transform(generator: int, epsilons) -> SymplecticTransform:
    """Block-diagonal transform exp(G eps_k / 2) on every degree of freedom.

    gamma(generator) = diag(G, G): DOF_ROTATION (G = [[0, 1], [-1, 0]])
    or DOF_SCALING (G = diag(-1, 1)); DimensionMismatch for any other.
    Dof k gets its block and a replayable step (k,), a skip if eps_k = 0.
    Each block [[a, b], [c, d]] has det 1, so rinv is set to the blocks
    [[d, -b], [-c, a]]: _symplectic_inverse(r), bit for bit.
    """
    if generator not in _DOF_BLOCKS:
        raise DimensionMismatch(f"generator {generator} is no per-dof "
                                "generator")
    eps = np.atleast_1d(np.asarray(epsilons, dtype=float)).tolist()
    steps = tuple([TransformStep(generator, e, (d,))
                   for d, e in enumerate(eps)])
    blocks, inverse = [], []  # a, b, c, d of each block and of its inverse
    for e in eps:
        (a, b), (c, d) = _dof_block(generator, e)
        # 0.0 - b: a zero entry is +0.0, as the dense product makes it
        blocks += (a, b, c, d)
        inverse += (d, 0.0 - b, 0.0 - c, a)
    r = np.zeros((2, 2 * len(eps), 2 * len(eps)))  # R and R^-1
    r.put(_block_positions(len(eps)), blocks + inverse)
    t = SymplecticTransform(r=r[0], steps=steps)
    vars(t)["rinv"] = r[1]  # where cached_property looks first
    return t


@lru_cache
def _block_positions(n: int) -> np.ndarray:
    """Flat positions of a, b, c, d of each diagonal block [[a, b], [c, d]]
    of a 2n x 2n matrix, block by block, then the same in a second 2n x 2n
    matrix stacked after the first (read-only)."""
    d = 2 * n
    first = (np.arange(n)[:, None] * (2 * d + 2) + [0, 1, d, d + 1]).ravel()
    positions = np.concatenate((first, first + d * d))
    positions.flags.writeable = False
    return positions


def _square_even(M) -> np.ndarray:
    """M as a float array, square and of even size > 0 (DimensionMismatch)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or not 0 < M.shape[0] == M.shape[1] or M.shape[0] % 2:
        raise DimensionMismatch(f"expected a square even matrix, got {M.shape}")
    return M


def matrix_exponential(F: np.ndarray, s: float = 1.0) -> TransferMatrix:
    """Transfer matrix exp(F s) by scaling-and-squaring of a Taylor series.

    The symplecticity residual of the result is computed and reported on
    the returned TransferMatrix; it is never silently repaired.
    """
    A = _square_even(F) * s
    norm = float(np.linalg.norm(A, ord=1))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    A = A / (2.0 ** squarings)
    dim = A.shape[0]
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
