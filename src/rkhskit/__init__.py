"""Integral transforms of Hilbert spaces, numerically.

Feature maps induce transforms f |-> <f, phi(.)>; the image carries a
reproducing kernel and an inner product computable from Gram matrices, the
transform is a coisometry, and under the right conditions it can be
inverted by pairing with conjugate kernel sections.  This package realizes
the whole chain at desk scale with composite Gauss-Legendre quadrature:
Sobolev-type and bandlimited kernels, tensor products, inverse-transform
formulas, and truncated Fourier pairs verified up to a working Plancherel
identity.
"""

from .numerics import (
    HVector,
    Interval,
    ProductGrid,
    QuadGrid,
    build_grid,
    cumulative_integral,
    derivative_values,
    inner_weighted,
    inner_weighted_matrix,
    integrate,
    make_interval,
    med3,
    norm_weighted,
    panels_for_oscillation,
    product_grid,
    sample,
    truncate_line,
)
from .transforms import (
    ContractionReport,
    FeatureMap,
    SpanBasis,
    TransformImage,
    build_span_basis,
    contraction_check,
    kernel_eval,
    opr_inner,
    project_span,
    span_combination,
    transform,
)
from .spaces import (
    RHO_REGISTRY,
    PaleyWienerSpace,
    SobolevSpace,
    sinc_gram,
    sinc_identity_check,
    sinc_ratio,
    tensor_feature,
    tensor_kernel,
    Weight,
)
from .inversion import (
    OrthonormalSystem,
    TransformationSequence,
    cons_sequence,
    exponential_system,
    fourier_coeff_invert,
    generalized_invert_at,
    identity_sequence,
    indefinite_integral_sequence,
    invert_at,
    restriction_isometry_check,
)
from .plancherel import (
    box_domain,
    box_inversion_check,
    fourier_on_lattice,
    indicator_hat,
    mutual_inverse_check,
    plancherel_norm_check,
    transform_at,
)
from .reporting import VERSION as __version__
from .reporting import CheckRecord, Report, REPORT_SCHEMA
from .suites import RunConfig, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
