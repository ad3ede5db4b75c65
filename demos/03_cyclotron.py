"""The space-charge cyclotron model: a two-step decoupling.

A flat-field isochronous cyclotron with space charge couples the
horizontal and longitudinal planes.  Its constant force matrix is the
standard worked example for decoupling methods that must handle
indefinite Hamiltonians: one plane oscillates while the other carries a
real (unfocused) eigenvalue pair.  The geometry is so simple here that
two of the four standard steps are skips, and the real pair leaves the
Hamiltonian form as the last one reached.
"""

import numpy as np

from symdec import (analyze_one_turn, aux_vectors, decouple, emeq_from_symplex,
                    mass_components, matrix_exponential, spectral_invariants)
from symdec.errors import UnstableBlock

np.set_printoptions(precision=6, suppress=True)


def cyclotron_force_matrix(gamma, h, kx_minus_big_kx, big_kz):
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-kx_minus_big_kx, 0.0, 0.0, h],
        [-h, 0.0, 0.0, 1.0 / gamma**2],
        [0.0, 0.0, big_kz * gamma**2, 0.0],
    ])


gamma, h, dk, kz = 1.05, 0.03, 0.02, 0.01
F = cyclotron_force_matrix(gamma, h, dk, kz)
print("Cyclotron force matrix (gamma=%.2f, h=%.2f):" % (gamma, h))
print(F)

state = emeq_from_symplex(F)
print("\nEMEQ coefficients:")
print("  energy =", state.energy)
print("  P =", state.p, " E =", state.e, " B =", state.b)
m = mass_components(state)
print("  E.B =", m.m_r, "  B.P =", m.m_g, "  E.P =", m.m_b)
a = aux_vectors(state)
print("  r =", a.r, " (already along x)")
print("  b =", a.b, " (in the y-z plane)")

inv = spectral_invariants(state)
print("\nK1 = %.6f, K2 = %.3e -> %s" % (inv.k1, inv.k2, inv.classification))
print("frequencies:", inv.omega1, inv.omega2)

res = decouple(F, form="block_diagonal")
print("\nDecoupling steps:")
for s in res.transform.steps:
    tag = "skip" if s.skipped else f"eps = {s.epsilon:+.6f}"
    print(f"  gamma({s.generator}): {tag}")
print("\nBlock-diagonal form (residual %.1e):" % res.residual)
print(res.final.matrix)

# the Hamiltonian form adds one phase rotation (DOF_ROTATION) per dof
seen = len(res.transform.steps)
res = decouple(F, form="hamiltonian")
print("\nHamiltonian form adds:")
for s in res.transform.steps[seen:]:
    tag = "skip" if s.skipped else f"eps = {s.epsilon:+.6f}"
    print(f"  gamma({s.generator}) on dof {s.block[0]}: {tag}")
print(res.final.matrix)
mh = mass_components(res.final.state)
print("All scalar products stay zero:")
print("  E.B =", mh.m_r, "  B.P =", mh.m_g, "  E.P =", mh.m_b)

# a real pair has no rotation normal form: no per-dof scaling is added
try:
    decouple(F, form="normal")
except UnstableBlock as exc:
    print("\nNormal form: UnstableBlock for block", exc.block)

# one-turn view: the oscillating plane gives a tune, the other is hyperbolic
tau = 1.0
M = matrix_exponential(F, tau).matrix
report = analyze_one_turn(M, tau=tau)
print("\nOne-turn analysis over tau = 1:")
for k, b in enumerate(report.blocks):
    if b.nature == "imaginary":
        print(f"  block {k}: tune = {b.tune:.6f} (omega = {b.omega:.6f})")
    else:
        print(f"  block {k}: hyperbolic, cosh(omega tau) = {b.cosine:.6f}")
