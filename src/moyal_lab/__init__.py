"""Numerical laboratory for quantum mechanics on the noncommutative plane.

Operators on a truncated Fock space, their Hilbert-Schmidt vectorization,
Schwinger-type su(2) generators, quadratic oscillator models, Bogoliubov
frame changes with the exact ground state, and the symmetry and spectrum
diagnostics that tie them together.
"""

from .operator_core import FockSpace, Operator, adjoint, annihilator, commutator, expm, hermitian_eig, identity, tensor
from .moyal_rep import (
    HSSpace,
    HSState,
    ModelConfig,
    RepOperators,
    basis_state,
    build_rep,
    hs_inner,
    hs_norm,
    left_action,
    right_action,
)
from .schwinger_su2 import SU2Generators, schwinger_commutative, schwinger_noncommutative
from .oscillator_models import MODELS, OscParams, analytic_spectrum, h1, h2, h3
from .bogoliubov_flow import (
    GroundState,
    ground_state_closed,
    ground_state_unitary,
    phi_for,
)
from .symmetry_lab import SymmetryReport, theta_apply, theta_conjugate, time_reversal_suite
from .spectra_harness import SpectrumReport, convergence_study, diagonalize_compare, ground_overlap

__version__ = "0.1.0"
