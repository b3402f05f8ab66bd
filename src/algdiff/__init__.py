"""algdiff: algebraic sliding-window derivative estimation for noisy signals.

Estimators are FIR kernels built from shifted Jacobi orthogonal polynomials:
the single-term ("minimal") kernel and its truncated-series ("affine")
extension trade delay against noise sensitivity through the weight exponents.
The package carries the full error calculus — exact annihilation moments,
delay and bias bounds, closed-form noise-error variances, Chebyshev bands —
plus reproducible noise generators and a Monte-Carlo/benchmark harness.

The package re-exports each module's ``__all__``.
"""

from . import analysis, estimator, kernel, specfun, stochastic
from .analysis import *
from .estimator import *
from .kernel import *
from .specfun import *
from .stochastic import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *specfun.__all__, *kernel.__all__, *estimator.__all__, *analysis.__all__, *stochastic.__all__,
]
