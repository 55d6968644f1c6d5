"""Least upper bounds on the success probability of quantum phase measurements.

A phase measurement of precision ``dalpha`` performed after a photon-number
measurement of precision ``dk`` succeeds with probability at most the largest
eigenvalue of a sinc-like Toeplitz concentration kernel; the top eigenvector
is the optimal state.  This package evaluates the covariant measurement model
behind that statement, the kernel spectrum, its infinite-``dk`` limit, and
ships independent oracles plus a CLI for reproducible sweeps.
"""

from .asymptotic import (
    asymptotic_least_upper_bound,
    concentration_parameter,
    prolate_eigenvalues,
)
from .errors import (
    ConvergenceFailureError,
    DomainError,
    IncompatibleWindowError,
    InternalConsistencyError,
    InvalidMatrixError,
    NegativeIndexError,
    PhaseBoundError,
    ZeroStateError,
)
from .kernel import (
    cauchy_bound,
    kernel_eigenvalues,
    leading_eigenpair,
    least_upper_bound,
)
from .oracles import (
    PowerIterationResult,
    nystrom_eigenvalues,
    power_iteration,
)
from .povm import (
    PhaseMatrix,
    conditional_probability,
    interval_probability,
    number_probability,
    phase_density,
    reduce,
    uniform_phase_density,
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
    "ConvergenceFailureError",
    "DomainError",
    "FockState",
    "IncompatibleWindowError",
    "InternalConsistencyError",
    "InvalidMatrixError",
    "NegativeIndexError",
    "NumberWindow",
    "PhaseBoundError",
    "PhaseMatrix",
    "PhaseWindow",
    "PowerIterationResult",
    "ZeroStateError",
    "asymptotic_least_upper_bound",
    "cauchy_bound",
    "concentration_parameter",
    "conditional_probability",
    "interval_probability",
    "kernel_eigenvalues",
    "leading_eigenpair",
    "least_upper_bound",
    "normalize",
    "number_probability",
    "number_shift",
    "nystrom_eigenvalues",
    "phase_density",
    "phase_shift",
    "power_iteration",
    "prolate_eigenvalues",
    "reduce",
    "uniform_phase_density",
]
