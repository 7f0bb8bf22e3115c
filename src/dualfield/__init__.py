"""Stationary random fields on the unitary dual of a compact group.

The dual of a compact group is a discrete commutative hypergroup; this
package provides its structure (labels, dimensions, conjugation, tensor
multiplicities, convolutions), central spectral measures and their
transforms, constructions of stationary random fields with exact
second-moment oracles, and AR/MA time series on the ordered labels of
the SU(2) dual, together with a CSV/JSON command-line interface.
"""

from .central_measures import (
    CentralMeasure,
    CovarianceOnDual,
    FiniteClassMeasure,
    PositivityReport,
    SU2AngleMeasure,
    TorusAngleMeasure,
    bochner_invert_finite,
    fourier,
    gram_matrix,
    heat_kernel_measure,
    heat_kernel_transform,
    is_positive_definite,
    parse_measure_spec,
)
from .dual_hypergroup import (
    BUILTIN_GROUPS,
    DualStructure,
    DualVector,
    FiniteGroupData,
    FiniteGroupDual,
    SU2Dual,
    TorusDual,
    conjugate_vector,
    convolve,
    load_character_table,
    multiplicity_by_integration,
    su2_character_values,
    su2_dual,
    tensor_decompose,
    torus_dual,
    weyl_quadrature,
)
from .errors import (
    CapabilityError,
    DataIntegrityError,
    DualFieldError,
    IncompleteCovarianceError,
    LabelDomainError,
    NotPositiveDefiniteError,
    SchemaError,
)
from .stationary_fields import (
    CovarianceEstimate,
    FieldSampler,
    KolmogorovField,
    ScatteredMeasure,
    StationarityReport,
    TranslatedField,
    WhiteNoiseField,
    Witness,
    check_hypergroup_stationarity,
    check_stationarity,
    cramer_decompose_finite,
    estimate_covariance,
    evaluate_at_vector,
    kolmogorov_field,
    translate,
    white_noise,
    white_noise_sequence,
)
from .time_series import (
    SeriesField,
    SeriesSpec,
    ar1_covariance,
    ar1_field,
    ar1_second_moment_oracle,
    ma_covariance,
    ma_field,
    ma_second_moment_oracle,
    parse_series_spec,
    simulate_ar1,
    simulate_ar1_batch,
    simulate_ma,
    simulate_ma_batch,
)

__version__ = "0.1.0"
