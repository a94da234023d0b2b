"""Discrete quantum phase space for dimension p^n.

Spin-matrix algebra, mutually unbiased bases, discrete Wigner and
characteristic functions with separability-preserving phase conventions,
state reconstruction, and Hamiltonian dynamics in phase space.
"""

from .fields import (
    FieldElement,
    FieldError,
    GaloisField,
    default_poly,
    is_prime,
    is_quadratic_nonresidue,
    is_irreducible,
    make_extension,
    prime_inverse,
    smallest_nonresidue,
)
from .geometry import (
    PhaseGeometry,
    all_lines,
    line_points,
    phase_geometry,
)
from .spins import (
    alpha_factor,
    spin_basis,
    spin_decompose,
    spin_matrix,
    spin_projector,
    spin_recompose,
    tensor_spin,
)
from .mub import (
    MubProjector,
    MubReport,
    class_vectors,
    full_mub,
    mub_projector,
    verify_mub,
)
from .wigner import (
    CONVENTIONS,
    CharTable,
    ConventionError,
    FactorizationReport,
    PositivityResult,
    SupportStats,
    WignerTable,
    a_operator,
    char_from_wigner,
    char_function,
    check_complete_factorization,
    check_product_factorization,
    default_convention,
    density_from_char,
    marginal_along,
    max_entangled_density,
    plancherel_inner,
    positivity_check,
    random_density,
    random_pure_density,
    reconstruct_density,
    support_stats,
    wigner_from_char,
    wigner_function,
    wigner_kernel,
    wigner_partial_transpose,
)
from .checks import check_state
from .dynamics import (
    GeneratorMatrix,
    UnsupportedDynamicsError,
    build_char_generator,
    build_wigner_generator,
    char_dynamics_table,
    density_from_dynamics_char,
    evolve,
    spin_coeff_bridge,
)

__version__ = "0.1.0"
