"""znalg: an exact verification workbench for finite Z_n-algebras.

Structure-constant algebras with exhaustive clean/nil-clean/exchange
classification, 2-cocycle extension carriers with certified idempotent
lifting and inversion formulas, truncated formal deformations with Newton
and recursive lifting, poset-assembled matrix algebras, and exact Hochschild
cohomology dimensions over prime moduli.
"""

from .algebra import (
    DEFAULT_CAP,
    FiniteAlgebra,
    direct_product,
    matrix_algebra,
    triangular_algebra,
    validate_algebra,
    zn,
    zn_poly_x2,
)
from .classify import (
    ClassificationReport,
    classify_elements,
    decomposition_report,
    in_radical,
    jacobson_radical,
    search_exchange_counterexample,
)
from .hochschild import (
    Bimodule,
    Cochain,
    coboundary,
    cohomology_dims,
    is_cocycle2,
    regular_bimodule,
    solve_coboundary,
    validate_bimodule,
    zero_cochain,
)
from .extension import (
    ExtensionAlgebra,
    build_extension,
    exchange_half_witness,
    idempotent_equation_solutions,
    invert_extension_element,
    lift_clean_decomposition,
    lift_idempotent,
    lift_nil_clean_decomposition,
    probe_remark_second_half,
    verify_extension_theorems,
)
from .deformation import (
    TruncatedDeformation,
    at_order,
    catalog_deformations,
    clean_decompose_def,
    def_mul,
    flatten,
    gauge_deformation,
    invert_def,
    lift_idempotent_def,
    lift_idempotent_newton,
    obstruction_probe,
    remark2_series,
    t_in_radical_check,
    trivial_deformation,
    validate_deformation,
    x_squared_t_deformation,
)
from .poset import (
    Poset,
    PosetAlgebra,
    Presheaf,
    build_shriek,
    classify_shriek,
    constant_presheaf,
    linear_extension,
    structural_decompose,
    triangular_ideal_facts,
    validate_poset,
    validate_presheaf,
)

__version__ = "0.1.0"
