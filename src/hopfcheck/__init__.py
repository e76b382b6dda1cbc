"""Exact-arithmetic kernel for finite-dimensional Hopf algebras.

Structure-constant presentations over Q or a cyclotomic field, axiom
validation, integrals and modular data, the dual with its canonical pairing
and actions, fixed identity suites up to the fourth-power antipode
formula, and a small identity language that states and checks them and
further formulas.
"""

from .scalars import FieldSpec, RATIONAL, Scalar, cyclotomic_field
from .linalg import Matrix, Tensor3, invert, nullspace, solve
from .hopf import CheckResult, HopfAlgebra, ValidationReport, compute_antipode, galois_maps
from .modular import ModularData, gram_inverse, left_integral, modular_automorphism, \
    modular_data, modular_element, right_integral, scaling_constant
from .duality import PairedSystem, build_dual, dual_integrals, pair_system
from .verify import (biduality_check, check_dual_modular_pairing, check_dual_radford,
                     check_modular_adjoints, check_radford, run_all_checks)
from .identities import IdentityProgram, evaluate, evaluate_corpus, load_corpus, parse_identity
from .catalog import (GroupPresentation, build_function_algebra, build_group_algebra,
                      build_sweedler, build_taft, builtin, BUILTIN_BUILDERS,
                      cyclic_group, read_algebra, symmetric_group, write_algebra)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
