"""Exact invariant-level kernel for almost complex structures on Lie algebras.

Computes Nijenhuis tensors, derived flags and their involutive limits,
integrability classes, and the transverse / generalized Dolbeault cohomology
tables, all over the field Q(i) with exact arithmetic.
"""

from .acs import (
    AlmostComplexStructure,
    Splitting,
    lie_derivative_endo,
    nijenhuis,
    nijenhuis_image,
    split_10_01,
    validate_acs,
)
from .catalog import CatalogEntry, catalog_get, catalog_names, random_acs, standard_j
from .cohomology import (
    CohomologyTable,
    TransverseModule,
    compare_p0,
    comparison_map_rank,
    generalized_dolbeault,
    mu_bar_cohomology,
    transverse_dolbeault,
    transverse_module,
    transverse_structure_report,
)
from .errors import (
    PreconditionError,
    SchemaError,
    ShapeError,
    TheoremViolationError,
    UnknownCatalogEntry,
    ValidationError,
    WellDefinednessError,
)
from .flag import Classification, DerivedFlag, classify, derived_flag, t10_derived_involutive
from .forms import (
    BigradedForm,
    BigradedOperator,
    bigrade,
    bigraded_frame,
    ce_d,
    component_operators,
    contract,
    lie_form,
    realize,
    verify_d2_relations,
)
from .homogeneous import (
    HomogeneousPair,
    base_nijenhuis,
    fibration_report,
    invariance_check,
    minimal_homogeneous_check,
    validate_pair,
)
from .lie import LieAlgebra, bracket, subalgebra_report, validate_lie_algebra
from .linalg import (
    Subspace,
    basis_vector,
    induced_map_on_quotient,
    subspace_sum,
)
from .scalars import GaussianRational

__version__ = "0.1.0"
