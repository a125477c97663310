"""Herglotz-Nevanlinna and Cauchy-type functions in several variables.

Kernel evaluation on the poly cut-plane, measure integration, symmetry and
variable non-dependence checks, the symmetric-extension characterization,
reconstruction from upper-half-plane data, and Stieltjes inversion.
"""

from .core import CutPlanePoint, point
from .errors import (
    DivergenceError,
    InvalidArgumentError,
    InvalidMeasureError,
    InvalidPointError,
    PolyherglotzError,
    TestFunctionBoundError,
    UnknownCatalogueIdError,
)
from .kernels import (
    kernel_K,
    kernel_K1_closed,
    kernel_symmetry_residual,
    n_factor,
    poisson,
    poisson_alternating_sum,
)
from .measures import (
    MU2,
    Atomic,
    CurvePushforward,
    DensityDescriptor,
    LebesgueScaled,
    MeasureSum,
    ProductDensity,
    cauchy_weight,
    check_growth,
    constant_density,
    gaussian_density,
    integrate,
    measure_from_dict,
    measure_from_json,
    measure_to_dict,
    measure_to_json,
    nevanlinna_residual,
    rational_density,
)
from .functions import (
    CauchyTypeFunction,
    ClosedFormFunction,
    F4_DEFINING_MEASURE,
    F4_NEVANLINNA_MEASURE,
    HerglotzFunction,
    HerglotzTriple,
    catalogue,
    evaluate_cauchy,
    function_from_dict,
    function_from_json,
    restrict_to_upper,
)
from .analysis import (
    CharacterizeResult,
    CheckReport,
    InversionResult,
    LimitConfig,
    StoltzResult,
    TestFunction,
    characterize,
    full_symmetry_sum,
    nondependence_test,
    phi_cauchy,
    phi_gaussian,
    positivity_check,
    reconstruct_from_upper,
    richardson_tableau,
    stieltjes_cauchy_type,
    stieltjes_classic,
    stoltz_limit,
    symmetry_check,
    symmetry_residual,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__version__ = "0.1.0"


def backend_name() -> str:
    """The kernel implementation in use; there is only the Python one."""
    return "python"
