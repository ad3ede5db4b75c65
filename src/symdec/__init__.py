"""Symplectic decoupling of coupled linear oscillators.

Block-diagonalizes Hamiltonian (force) matrices by symplectic similarity
transforms built from the sixteen real Dirac matrices, and applies the
machinery to periodic accelerator optics: tunes, matched second moments,
effective force matrices and motion invariants.
"""

from .dirac import (GAMMA, from_coefficients, gamma, is_cosymplex,
                    is_symplex, rdm_coefficients, symplectic_unit,
                    symplex_cosymplex_split, symplex_residual)
from .emeq import (AuxVectors, EmeqState, Frequency, MassComponents,
                   SpectralInvariants, Symplex, aux_vectors,
                   emeq_from_symplex, lax_invariants, mass_components,
                   spectral_invariants, state_from_coefficients)
from .transform import (SymplecticTransform, TransferMatrix, TransformStep,
                        apply_similarity, basic_transform, compose,
                        dof_transform, is_symplectic, matrix_exponential,
                        replay, symplectic_residual)
from .decouple4 import (DecoupleResult, complex_intermediate,
                        complex_low_energy, decouple, decouple_block_diagonal,
                        diagonalize, off_block_max)
from .jacobi import (IterationStats, jacobi_decouple, off_block_norms,
                     random_test_symplex)
from .optics import (BlockTune, EffectiveForce, OpticsReport, SigmaMatrix,
                     analyze_one_turn, cosymplex_observable_forms,
                     cosymplex_observable_rates, effective_force,
                     matched_sigma, propagate_sigma, rdm_expectations,
                     spinor_observables)
from . import errors

__version__ = "0.1.0"
