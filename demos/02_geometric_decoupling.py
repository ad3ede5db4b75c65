"""Decoupling a coupled two-oscillator force matrix, step by step.

The ten coefficients of a 4x4 symplex read as an energy and three
vectors P, E, B.  Coupling lives in the misalignment of these vectors:
the matrix is block-diagonal exactly when B and the auxiliary vector
b = energy*B + E x P point along the y-axis and the scalar products
E.B and B.P vanish.  Four elementary transforms arrange exactly that.
Each later form adds one step per degree of freedom to the same log.
"""

import numpy as np

from symdec import (aux_vectors, decouple, diagonalize, emeq_from_symplex,
                    mass_components, spectral_invariants)
from symdec.dirac import symplectic_unit
from symdec.transform import DOF_ROTATION, DOF_SCALING

np.set_printoptions(precision=5, suppress=True)
rng = np.random.default_rng(42)

# a random stable coupled system: F = g0 A with A symmetric, focusing
A = rng.uniform(-0.5, 0.5, (4, 4))
A = (A + A.T) / 2
A[np.diag_indices(4)] = 2 + rng.uniform(0, 1, 4)
F = symplectic_unit(2) @ A
print("Coupled force matrix F:")
print(F)

state = emeq_from_symplex(F)
m = mass_components(state)
print("\nEMEQ view:  energy =", round(state.energy, 5))
print("  P =", state.p, "\n  E =", state.e, "\n  B =", state.b)
print("  scalar products E.B, B.P, E.P:", (m.m_r, m.m_g, m.m_b))

inv = spectral_invariants(state)
print("\nInvariants: K1 =", inv.k1, " K2 =", inv.k2)
print("Eigenfrequencies:", inv.omega1, inv.omega2)

# --- the stages: one decouple(F, form=...) per form --------------------------
# each form's step log starts with the log of the form before it, so the
# steps a form adds are the tail of its log
NAMES = {DOF_ROTATION: "phase rotation", DOF_SCALING: "scaling"}
seen = 0
for form in ("block_diagonal", "hamiltonian", "normal"):
    res = decouple(F, form=form)
    print(f"\n{form} form; the steps it adds (generator, angle/rapidity):")
    for s in res.transform.steps[seen:]:
        tag = "skip" if s.skipped else f"{s.epsilon:+.5f}"
        where = ("" if s.block is None
                 else f" {NAMES[s.generator]} of dof {s.block[0]}")
        print(f"  gamma({s.generator}){where}: {tag}")
    seen = len(res.transform.steps)
    print(res.final.matrix)
    if form == "block_diagonal":
        print("off-block residual %.1e; auxiliary b now along y:"
              % res.residual, aux_vectors(res.final.state).b)

print("normal-form frequencies", [round(w.value, 6) for w in res.frequencies])
# the frequencies agree with the invariant formulas on the original matrix
print("vs invariant formulas:",
      [round(inv.omega1.value, 6), round(inv.omega2.value, 6)])

# --- full diagonalization, from the normal form ------------------------------
vecs, vals = diagonalize(res)
print("\nEigenvalues from the constant unitary basis:", np.round(vals, 6))
print("Eigen-equation residual:",
      np.max(np.abs(F @ vecs - vecs * vals)))
