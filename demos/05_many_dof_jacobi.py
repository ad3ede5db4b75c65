"""Iterative decoupling of many coupled oscillators.

For n degrees of freedom the 2n x 2n symplex is treated as an n x n grid
of 2x2 blocks.  Sweeping 4x4 decouplings over the worst off-diagonal
block pair converges like the classical Jacobi eigenvalue iteration; the
observed step count tracks 5 n (n - 2) / 2.
"""

import time

import numpy as np

from symdec import jacobi_decouple, off_block_norms, random_test_symplex
from symdec.transform import symplectic_residual

np.set_printoptions(precision=4, suppress=True, linewidth=140)

# --- a 12x12 example ---------------------------------------------------------
n = 6
sym = random_test_symplex(n, seed=0)
print(f"Random {2*n}x{2*n} symplex; mean-square block amplitudes:")
print(off_block_norms(sym.matrix))

transform, out, stats = jacobi_decouple(sym)
print(f"\nConverged after {stats.pivot_steps} pivots + "
      f"{stats.hamiltonian_steps} dof pairs rotated to Hamiltonian form "
      f"(residual {stats.final_residual:.2e})")
print("transform symplectic to", symplectic_residual(transform.r))
print("\nfirst pivots (i, j, block norm before):")
for row in stats.pivots[:6]:
    print("  ", row)

print("\nHamiltonian form, first 3 diagonal blocks:")
for k in range(3):
    print(out.matrix[2 * k:2 * k + 2, 2 * k:2 * k + 2])

# spectra agree
ev_in = np.sort_complex(np.linalg.eigvals(sym.matrix))
ev_out = np.sort_complex(np.linalg.eigvals(out.matrix))
print("\neigenvalue drift:", np.max(np.abs(ev_in - ev_out)))

# --- scaling study -----------------------------------------------------------
print("\n n   mean steps   5n(n-2)/2")
for n in range(3, 13):
    t0 = time.perf_counter()
    counts = []
    for seed in range(10):
        _, _, stats = jacobi_decouple(random_test_symplex(n, seed))
        counts.append(stats.total_steps)
    print(f"{n:2d}   {np.mean(counts):8.1f}   {5*n*(n-2)/2:8.1f}"
          f"   ({time.perf_counter()-t0:.2f} s)")
