"""Shared generators for the test suite."""

import numpy as np

from symdec.dirac import from_coefficients, symplectic_unit
from symdec.emeq import emeq_from_symplex, spectral_invariants


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


def random_complex_symplex(rng, branch):
    """Rejection-sample a symplex with a complex eigenvalue quadruple.

    branch "low" satisfies energy^2 < max(P^2, E^2), "intermediate"
    satisfies energy^2 > min(P^2, E^2), and "high" energy^2 >= max(P^2,
    E^2), the inputs that decouple sends to complex_intermediate; all
    have K2 < 0.
    """
    while True:
        F = random_symplex(rng)
        state = emeq_from_symplex(F)
        if spectral_invariants(state).k2 >= 0.0:
            continue
        e2 = state.energy**2
        p2, em2 = state.p @ state.p, state.e @ state.e
        if branch == "low" and e2 < max(p2, em2):
            return F
        if branch == "intermediate" and e2 > min(p2, em2):
            return F
        if branch == "high" and e2 >= max(p2, em2):
            return F


def cyclotron_force_matrix(gamma, h, kx_minus_big_kx, big_kz):
    """Constant force matrix of the idealized cyclotron model."""
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-kx_minus_big_kx, 0.0, 0.0, h],
        [-h, 0.0, 0.0, 1.0 / gamma**2],
        [0.0, 0.0, big_kz * gamma**2, 0.0],
    ])
