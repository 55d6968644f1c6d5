"""Least upper bounds on the success probability of quantum phase measurements.

A phase measurement of precision ``dalpha`` performed after a photon-number
measurement of precision ``dk`` succeeds with probability at most the largest
eigenvalue of a sinc-like Toeplitz concentration kernel; the top eigenvector
is the optimal state.  This package evaluates the covariant measurement model
behind that statement, the kernel spectrum, its infinite-``dk`` limit, and
ships brute-force oracles plus a CLI for reproducible sweeps.
"""

from .asymptotic import (
    asymptotic_least_upper_bound,
    concentration_parameter,
    nystrom_eigenvalues,
)
from .errors import (
    ConvergenceFailureError,
    DomainError,
    IncompatibleWindowError,
    InternalConsistencyError,
    InvalidMatrixError,
    NegativeIndexError,
    NoConvergenceError,
    PhaseBoundError,
    ZeroStateError,
)
from .kernel import (
    ConcentrationKernel,
    SpectrumDiagnostics,
    SpectrumResult,
    build_kernel,
    cauchy_bound,
    eigensystem,
    leading_eigenpair,
    least_upper_bound,
)
from .oracles import (
    OracleConfig,
    PowerIterationResult,
    power_iteration,
    quadrature_probability,
    random_state_search,
)
from .povm import (
    PhaseMatrix,
    conditional_probability,
    interval_probability,
    number_probability,
    phase_density,
    reduce,
)
from .states import (
    FockState,
    NumberWindow,
    PhaseWindow,
    normalize,
    number_shift,
    phase_shift,
)

__version__ = "0.1.0"

__all__ = [
    "ConcentrationKernel",
    "ConvergenceFailureError",
    "DomainError",
    "FockState",
    "IncompatibleWindowError",
    "InternalConsistencyError",
    "InvalidMatrixError",
    "NegativeIndexError",
    "NoConvergenceError",
    "NumberWindow",
    "OracleConfig",
    "PhaseBoundError",
    "PhaseMatrix",
    "PhaseWindow",
    "PowerIterationResult",
    "SpectrumDiagnostics",
    "SpectrumResult",
    "ZeroStateError",
    "asymptotic_least_upper_bound",
    "build_kernel",
    "cauchy_bound",
    "concentration_parameter",
    "conditional_probability",
    "eigensystem",
    "interval_probability",
    "leading_eigenpair",
    "least_upper_bound",
    "normalize",
    "number_probability",
    "number_shift",
    "nystrom_eigenvalues",
    "phase_density",
    "phase_shift",
    "power_iteration",
    "quadrature_probability",
    "random_state_search",
    "reduce",
]
