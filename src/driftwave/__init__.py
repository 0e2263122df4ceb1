"""Wavelet soft-thresholding estimation of the latest value of a drifting
signal, with pointwise error-bound calculators, window-averaging baselines,
a synthetic benchmark harness, a TV-class risk-scaling study, and model
selection over drifting validation losses."""

from .baselines import (
    WindowEstimate,
    WindowSweep,
    adaptive_window_mean,
    adaptive_window_sweep,
    fixed_window_mean,
    fixed_window_sweep,
    range_sigma_proxy,
)
from .bench import (
    AdaptiveWindowMethod,
    BoundProfile,
    CsvReplayMethod,
    FixedWindowMethod,
    NoiseSpec,
    PassthroughMethod,
    RiskReport,
    SignalSpec,
    WaveletMethod,
    bound_profile,
    generate_signal,
    make_method,
    run_online_eval,
)
from .denoise import (
    BoundReport,
    DenoiseConfig,
    Estimate,
    bound_report,
    default_lambda,
    denoise_signal,
    dyadic_truncate,
    estimate_latest,
    haar_variational_bound,
    kappa,
    sparsity_bound,
    mad_sigma,
    reflect_fold,
    soft_threshold,
    tv_variational_bound,
)
from .selection import LossSeries, SelectionResult, ingest_panel, select
from .tvstudy import ScalingFit, TVStudySpec, risk, run_tv_study
from .wavelets import (
    CoefficientVector,
    SupportBasis,
    TransformMatrix,
    WaveletFamily,
    build_matrix,
    cached_matrix,
    finest_level_coeffs,
    forward,
    get_family,
    inverse,
    last_column_support,
    pyramid_analysis,
    pyramid_synthesis,
    support_basis,
)

__version__ = "0.1.0"
