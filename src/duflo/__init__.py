"""Exact rational verifier for symmetrization and contraction identities.

Subpackages:

  linalg   exact rational matrices and products; sparse kernels of basis images
  kernels  the hot loops: matrix products, sparse integer RREF
  sparse   finite rational combinations and the graded unit recursions
  lie      Lie algebras from structure constants, representations
  catalog  built-in algebras and representations
  pbw      symmetrization diagram evaluated in End(V)
  hodge    bi-exterior contraction calculus and the Duflo twist
  series   truncated Chern-variable series (Todd, Chern character, Mukai)
  cli      the `duflo` command
"""

from .linalg import Matrix, Q, ShapeMismatch, kernel, mat_mul
from .lie import (
    AntisymmetryViolation,
    BracketMismatch,
    JacobiViolation,
    LieAlgebra,
    Representation,
    adjoint_rep,
)
from .pbw import (
    SymElement,
    TensorElement,
    adjunction_check,
    check_pbw_diagram,
    invariants_s,
    phi,
    s_to_hom,
    symmetrize,
    theta,
)
from .hodge import (
    ExtClass,
    FormClass,
    HodgeModel,
    LineBundle,
    PolyClass,
    atiyah_line,
    check_mukai_implication,
    contract_Omega_on_T,
    contract_T_on_Omega,
    contract_exp_atiyah,
    duflo,
    duflo_inverse,
    exp_atiyah_kernel,
    exp_form,
    first_order_check,
    mukai_line,
    wedge,
)
from .series import GradedSeries, chern_character, mukai_vector, sqrt_todd, todd

__version__ = "0.1.0"
