"""Shared generators for the test suite."""

import math

import numpy as np

from symdec.dirac import from_coefficients, symplectic_unit
from symdec.emeq import emeq_from_symplex, spectral_invariants
from symdec.jacobi import random_test_symplex
from symdec.transform import matrix_exponential


def random_symplex_coefficients(rng, scale=1.0):
    """Uniform random force coefficients (energy, P, E, B)."""
    return rng.uniform(-scale, scale, size=10)


def random_symplex(rng, scale=1.0):
    c = np.zeros(16)
    c[:10] = random_symplex_coefficients(rng, scale)
    return from_coefficients(c)


def random_stable_symplex(rng, n=2):
    """F = g0 A with symmetric A and a raised diagonal (imaginary spectrum)."""
    dim = 2 * n
    A = rng.uniform(-0.5, 0.5, size=(dim, dim))
    A = (A + A.T) / 2.0
    A[np.diag_indices(dim)] = n + rng.uniform(0.0, 1.0, size=dim)
    return symplectic_unit(n) @ A


def _accepts(F, branch):
    """Whether random_complex_symplex takes the candidate F."""
    state = emeq_from_symplex(F)
    if spectral_invariants(state).k2 >= 0.0:
        return False
    e2 = state.energy**2
    p2, em2 = state.p @ state.p, state.e @ state.e
    return {"low": e2 < max(p2, em2), "intermediate": e2 > min(p2, em2),
            "high": e2 >= max(p2, em2)}[branch]


def _row_dots(u, v):
    return np.einsum("ij,ij->i", u, v)


def _may_accept(C, branch):
    """Rows of the candidate coefficients C (k x 10) that _accepts may
    take: K2 and the branch test on C, vectorized, reject a row only when
    it misses by more than 1e-12 of |c|^4 or |c|^2, far above rounding."""
    e0, p, e, b = C[:, 0], C[:, 1:4], C[:, 4:7], C[:, 7:10]
    size2 = _row_dots(C, C)
    aux = e0[:, None] * b + np.cross(e, p)
    k2 = _row_dots(aux, aux) - _row_dots(e, b) ** 2 - _row_dots(b, p) ** 2
    e2, p2, em2 = e0 * e0, _row_dots(p, p), _row_dots(e, e)
    slack = 1e-12 * size2
    branch_ok = {"low": e2 < np.maximum(p2, em2) + slack,
                 "intermediate": e2 > np.minimum(p2, em2) - slack,
                 "high": e2 >= np.maximum(p2, em2) - slack}[branch]
    return branch_ok & (k2 < slack * size2)


def random_complex_symplex_loop(rng, branch):
    """random_complex_symplex one candidate at a time: its reference."""
    while True:
        F = random_symplex(rng)
        if _accepts(F, branch):
            return F


def random_complex_symplex(rng, branch):
    """Rejection-sample a symplex with a complex eigenvalue quadruple.

    branch "low" satisfies energy^2 < max(P^2, E^2), "intermediate"
    satisfies energy^2 > min(P^2, E^2), and "high" energy^2 >= max(P^2,
    E^2), the inputs that decouple sends to complex_intermediate; all
    have K2 < 0.  Candidates are drawn in growing chunks, the same stream
    random_symplex draws one by one; _accepts confirms each row that
    _may_accept keeps, in order, and the generator is left where
    random_complex_symplex_loop leaves it, so both give the same samples.
    """
    size = 8
    while True:
        state = rng.bit_generator.state
        chunk = rng.uniform(-1.0, 1.0, size=(size, 10))
        for j in np.flatnonzero(_may_accept(chunk, branch)):
            F = from_coefficients(np.concatenate((chunk[j], np.zeros(6))))
            if _accepts(F, branch):
                rng.bit_generator.state = state  # redraw the rows used
                rng.uniform(-1.0, 1.0, size=(j + 1, 10))
                return F
        size = min(2 * size, 4096)


def conjugated_ring(seed, phases):
    """T diag(rot mu_1, ..., rot mu_n) T^-1: a coupled stable one-turn
    matrix with phase advances mu_k, T = exp(0.05 random_test_symplex(n,
    seed))."""
    n = len(phases)
    T = matrix_exponential(random_test_symplex(n, seed).matrix * 0.05).matrix
    D = np.zeros((2 * n, 2 * n))
    for k, mu in enumerate(phases):
        c, s = math.cos(mu), math.sin(mu)
        D[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, s], [-s, c]]
    return T @ D @ np.linalg.inv(T)


def cyclotron_force_matrix(gamma, h, kx_minus_big_kx, big_kz):
    """Constant force matrix of the idealized cyclotron model."""
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-kx_minus_big_kx, 0.0, 0.0, h],
        [-h, 0.0, 0.0, 1.0 / gamma**2],
        [0.0, 0.0, big_kz * gamma**2, 0.0],
    ])
