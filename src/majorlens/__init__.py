"""majorlens: majorization, entropic and partial-transpose entanglement
detection for bipartite qudit density operators."""

from .bipartite import BipartiteDensity, partial_trace, partial_transpose, tensor
from .criteria import (
    DetectionVerdict,
    MajorizationReport,
    disorder_check,
    majorization_compare,
    peaked_search,
    peaked_search_spectra,
    peres_check,
    recommend_alpha,
    recommend_alpha_from_spectrum,
    recommended_alphas,
    tsallis_sweep,
    tsallis_sweep_spectra,
)
from .entropy import (
    ConditionalReport,
    EntropicFamily,
    conditional,
    conditional_from_spectra,
    entropy,
    f_eval,
    log_cosh_kernel,
    peaked_differences,
    probabilities,
    tsallis_differences,
    tsallis_q2_limit_check,
)
from .families import (
    FamilySpec,
    RegionError,
    SeparabilityWitness,
    ThresholdSet,
    analytic_reduced,
    analytic_spectrum,
    build,
    family_matrix,
    pt_min_eigenvalue,
    separability_witness,
    thresholds,
    violation_predictor,
)
from .hermitian import (
    HermitianOperator,
    NotHermitianError,
    Spectrum,
    eigenvalues,
    is_psd,
)
from .scan import (
    AxisSpec,
    GridSpec,
    RaySpec,
    ScanOptions,
    ScanRecord,
    area_fractions,
    bisect_threshold,
    classify_point,
    curve_sweep,
    grid_scan,
)

__version__ = "0.1.0"
