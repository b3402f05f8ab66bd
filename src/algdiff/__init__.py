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
    bias_bounds,
    chebyshev_band,
    continuous_moments,
    delay,
    discrete_covariance,
    discrete_moments,
    sweep_surface,
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
    wpoly_moment,
)
from .specfun import beta_fn
from .stochastic import (
    NoiseModel,
    Poisson,
    RngSeed,
    WhiteGaussian,
    Wiener,
    calibrate_snr,
    gen_path,
    mc_noise_samples,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # specfun
    "beta_fn",
    # kernel
    "WeightedPoly",
    "EstimatorConfig",
    "DiscreteKernel",
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
    "delay",
    "bias_bounds",
    "variance_continuous",
    "continuous_moments",
    "discrete_moments",
    "discrete_covariance",
    "chebyshev_band",
    "sweep_surface",
    # stochastic
    "NoiseModel",
    "WhiteGaussian",
    "Wiener",
    "Poisson",
    "RngSeed",
    "gen_path",
    "calibrate_snr",
    "mc_noise_samples",
]
