"""algdiff: algebraic sliding-window derivative estimation for noisy signals.

Estimators are FIR kernels built from shifted Jacobi orthogonal polynomials:
the single-term ("minimal") kernel and its truncated-series ("affine")
extension trade delay against noise sensitivity through the weight exponents.
The package carries the full error calculus — exact annihilation moments,
delay and bias bounds, closed-form noise-error variances, Chebyshev bands —
plus reproducible noise generators and a Monte-Carlo/benchmark harness.
"""

from .analysis import (
    BiasBounds,
    NoiseMomentReport,
    affine_delay,
    bias_bounds,
    chebyshev_band,
    discrete_covariance,
    discrete_moments,
    poisson_mean,
    sweep_surface,
    theoretical_delay,
    variance_continuous,
)
from .estimator import EstimateSeries, SampledSignal, estimate_at, estimate_series
from .kernel import (
    DiscreteKernel,
    EstimatorConfig,
    WeightedPoly,
    affine_kernel,
    discretize,
    kernel_taps,
    minimal_kernel,
    wpoly_eval,
    wpoly_moment,
)
from .specfun import (
    JacobiIndex,
    beta_fn,
    smallest_root,
)
from .stochastic import (
    NoiseModel,
    Poisson,
    PolyMean,
    RngSeed,
    WhiteGaussian,
    Wiener,
    calibrate_snr,
    gen_path,
    mc_noise_error,
    mc_noise_samples,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # specfun
    "JacobiIndex",
    "beta_fn",
    "smallest_root",
    # kernel
    "WeightedPoly",
    "EstimatorConfig",
    "DiscreteKernel",
    "wpoly_eval",
    "wpoly_moment",
    "minimal_kernel",
    "affine_kernel",
    "discretize",
    "kernel_taps",
    # estimator
    "SampledSignal",
    "EstimateSeries",
    "estimate_at",
    "estimate_series",
    # analysis
    "BiasBounds",
    "NoiseMomentReport",
    "theoretical_delay",
    "affine_delay",
    "bias_bounds",
    "variance_continuous",
    "poisson_mean",
    "discrete_moments",
    "discrete_covariance",
    "chebyshev_band",
    "sweep_surface",
    # stochastic
    "NoiseModel",
    "WhiteGaussian",
    "Wiener",
    "Poisson",
    "PolyMean",
    "RngSeed",
    "gen_path",
    "calibrate_snr",
    "mc_noise_samples",
    "mc_noise_error",
]
