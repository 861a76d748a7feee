"""Exact symbolic calculus for multicontact geometry.

Graded Jacobi brackets and cup products of conformal Hamiltonian forms,
sharp/Reeb calculus, the canonical homogeneous (multisymplectic)
extension, and dissipative covariant Hamilton equations — all over an
exact Laurent-polynomial coefficient ring, with no floating point
anywhere.
"""

from .coeffring import Chart, Coefficient
from .errors import (
    DegreeError,
    DomainError,
    GjbError,
    ParseError,
    StructuralError,
    ValidationError,
)
from .exterior import (
    DiffForm,
    MultiVector,
    exterior_derivative,
    interior_product,
    lie_derivative,
    schouten_nijenhuis,
    wedge,
)
from .structures import (
    CheckReport,
    ConformalData,
    NFormStructure,
    cup_product,
    is_multicontact,
    jacobi_bracket,
    make_conformal_data,
    verify_conformal,
)
from .sharp import sharp_and_reeb, z_membership
from .symplectization import (
    Symplectization,
    build,
    check_correspondence,
    lift_conformal,
    nondegeneracy_check,
    poisson_bracket,
    project_to_base,
    psi_map,
)
from .fieldtheory import (
    CanonicalStructure,
    HamiltonianSection,
    JetSection,
    PhaseSpaceSpec,
    build_canonical,
    dissipated_check,
    dissipation_form,
    distortion,
    elementary_tables,
    evolution_residual,
    gamma_obstruction,
    good_hamiltonian_check,
    hamiltonian_section,
    hamiltonian_subbundle_check,
    hdw_residuals,
    refined_reeb,
    variational_check,
    vertical_conformal_from_FG,
)
from .dsl import parse_coefficient

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "Coefficient",
    "parse_coefficient",
    "GjbError",
    "StructuralError",
    "DegreeError",
    "DomainError",
    "ValidationError",
    "ParseError",
    "DiffForm",
    "MultiVector",
    "wedge",
    "exterior_derivative",
    "interior_product",
    "lie_derivative",
    "schouten_nijenhuis",
    "CheckReport",
    "NFormStructure",
    "ConformalData",
    "is_multicontact",
    "make_conformal_data",
    "verify_conformal",
    "jacobi_bracket",
    "cup_product",
    "sharp_and_reeb",
    "z_membership",
    "Symplectization",
    "build",
    "nondegeneracy_check",
    "project_to_base",
    "lift_conformal",
    "poisson_bracket",
    "psi_map",
    "check_correspondence",
    "PhaseSpaceSpec",
    "CanonicalStructure",
    "build_canonical",
    "vertical_conformal_from_FG",
    "elementary_tables",
    "refined_reeb",
    "HamiltonianSection",
    "hamiltonian_section",
    "hamiltonian_subbundle_check",
    "good_hamiltonian_check",
    "dissipation_form",
    "JetSection",
    "hdw_residuals",
    "evolution_residual",
    "dissipated_check",
    "variational_check",
    "distortion",
    "gamma_obstruction",
    "__version__",
]
