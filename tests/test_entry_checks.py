"""Each public entry check raises its own error on its own input: shapes,
indices, branch preconditions, the sigma checks, and the validity checks
below unit scale."""

import numpy as np
import pytest

from symdec.decouple4 import (complex_intermediate, complex_low_energy,
                              decouple, diagonalize)
from symdec.dirac import GAMMA, gamma_signature
from symdec.emeq import Symplex, state_from_coefficients
from symdec.errors import (BranchMismatch, DimensionMismatch, NotASymplex,
                           UnstableSystem)
from symdec.jacobi import jacobi_decouple, random_test_symplex
from symdec.optics import (SigmaMatrix, analyze_one_turn, effective_force,
                           matched_sigma, propagate_sigma, rdm_expectations)
from symdec.transform import (SymplecticTransform, TransferMatrix, compose,
                              dof_transform, matrix_exponential)

from conftest import conjugated_ring

# complex quadruples (K2 < 0): energy^2 above max(P^2, E^2), and below
# min(P^2, E^2)
_CX_HIGH = 2 * GAMMA[0] + 1.5 * GAMMA[1] + 1.5 * GAMMA[4] + 0.5 * GAMMA[7]
_CX_LOW = 0.1 * GAMMA[0] + 0.5 * GAMMA[1] + 0.4 * GAMMA[4] + 0.9 * GAMMA[7]


def _ring(seed):
    return matrix_exponential(random_test_symplex(2, seed).matrix, 0.3).matrix


# standard-normal 4x4: X is no symplex (symplex residual 3.0), S is not
# symmetric (relative residual 1.38); each check is relative to the size
# of what it checks, so a scale far below 1 changes no verdict
_X = np.random.default_rng(1).standard_normal((4, 4))
_S = np.random.default_rng(2).standard_normal((4, 4))
_EMPTY = np.ones((0, 0))


CASES = {
    # shapes
    "analyze_one_turn-2x3": (lambda: analyze_one_turn(np.ones((2, 3))),
                             DimensionMismatch, "square even"),
    "analyze_one_turn-3x3": (lambda: analyze_one_turn(np.eye(3)),
                             DimensionMismatch, "square even"),
    "effective_force-3x3": (lambda: effective_force(np.eye(3)),
                            DimensionMismatch, "square even"),
    "matrix_exponential-3x3": (lambda: matrix_exponential(np.eye(3)),
                               DimensionMismatch, "square even"),
    "matrix_exponential-2x4": (lambda: matrix_exponential(np.ones((2, 4))),
                               DimensionMismatch, "square even"),
    "propagate_sigma-shapes": (lambda: propagate_sigma(np.eye(2), np.eye(4)),
                               DimensionMismatch, "sigma has shape"),
    "rdm_expectations-3": (lambda: rdm_expectations(np.ones(3)),
                           DimensionMismatch, "4-vector"),
    "compose-2-with-4": (lambda: compose(SymplecticTransform(np.eye(2)),
                                         SymplecticTransform(np.eye(4))),
                         DimensionMismatch, "cannot compose"),
    "state_from_coefficients-9": (lambda: state_from_coefficients(np.ones(9)),
                                  ValueError, "10 coefficients"),
    "Symplex-0x0": (lambda: Symplex.from_matrix(_EMPTY), ValueError,
                    "square even"),
    "decouple-0x0": (lambda: decouple(_EMPTY), ValueError, "square even"),
    "jacobi_decouple-0x0": (lambda: jacobi_decouple(_EMPTY), ValueError,
                            "square even"),
    "analyze_one_turn-0x0": (lambda: analyze_one_turn(_EMPTY),
                             DimensionMismatch, "square even"),
    "matrix_exponential-0x0": (lambda: matrix_exponential(_EMPTY),
                               DimensionMismatch, "square even"),
    "sigma-0x0": (lambda: SigmaMatrix.from_matrix(_EMPTY),
                  DimensionMismatch, "square even"),
    "propagate_sigma-0x0": (lambda: propagate_sigma(_EMPTY, _EMPTY),
                            DimensionMismatch, "square even"),
    # indices and branches
    "dof_transform-gamma-1": (lambda: dof_transform(1, [0.1, 0.2]),
                              DimensionMismatch, "per-dof"),
    "gamma_signature-16": (lambda: gamma_signature(16), IndexError, "16"),
    "gamma_signature-minus1": (lambda: gamma_signature(-1), IndexError, "-1"),
    "diagonalize-hamiltonian": (
        lambda: diagonalize(decouple(random_test_symplex(2, 0),
                                     form="hamiltonian")),
        ValueError, "not a normal-form result"),
    "complex_low_energy-high": (lambda: complex_low_energy(_CX_HIGH),
                                BranchMismatch, "use complex_intermediate"),
    "complex_intermediate-low": (lambda: complex_intermediate(_CX_LOW),
                                 BranchMismatch, "use complex_low_energy"),
    # sigma
    "sigma-asymmetric": (lambda: SigmaMatrix.from_matrix([[1.0, 2.0],
                                                          [0.0, 1.0]]),
                         ValueError, "not symmetric"),
    "sigma-NaN": (lambda: SigmaMatrix.from_matrix(np.full((2, 2), np.nan)),
                  ValueError, "non-finite"),
    "sigma-2x3": (lambda: SigmaMatrix.from_matrix(np.zeros((2, 3))),
                  DimensionMismatch, "square even"),
    "sigma-3x3": (lambda: SigmaMatrix.from_matrix(np.eye(3)),
                  DimensionMismatch, "square even"),
    "propagate_sigma-3x3": (lambda: propagate_sigma(np.eye(3), np.eye(3)),
                            DimensionMismatch, "square even"),
    "propagate_sigma-inf": (
        lambda: propagate_sigma(np.eye(2), np.full((2, 2), np.inf)),
        ValueError, "non-finite"),
    "propagate_sigma-NaN-sigma": (
        lambda: propagate_sigma(np.full((4, 4), np.nan),
                                TransferMatrix(np.eye(4), 1.0, 0.0)),
        ValueError, "non-finite"),
    # the report of another ring: its transform does not match this ring
    "matched_sigma-other-report": (
        lambda: matched_sigma(_ring(0), (1.0, 2.0),
                              report=analyze_one_turn(_ring(1))),
        UnstableSystem, "fixed point violated"),
    # validity checks below unit scale
    "decouple-1e-11-no-symplex": (lambda: decouple(1e-11 * _X), NotASymplex,
                                  "symplex residual"),
    "decouple-1e-12-no-symplex": (lambda: decouple(1e-12 * _X), NotASymplex,
                                  "symplex residual"),
    "sigma-1e-10-asymmetric": (lambda: SigmaMatrix.from_matrix(1e-10 * _S),
                               ValueError, "not symmetric"),
    # an emittance of 1e-9, ordinary in m rad, with another ring's report
    "matched_sigma-other-report-1e-9": (
        lambda: matched_sigma(conjugated_ring(101, (0.7, 1.9)), (1e-9, 1e-9),
                              report=analyze_one_turn(
                                  conjugated_ring(202, (0.4, 2.3)))),
        UnstableSystem, "fixed point violated"),
}


@pytest.mark.parametrize("case", CASES)
def test_entry_check_raises(case):
    call, error, match = CASES[case]
    with pytest.raises(error, match=match):
        call()
