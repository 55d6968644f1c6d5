"""Covariant phase measurement: densities, window probabilities, reduction.

The canonical measurement weights every number-basis coherence equally; its
density for a pure state is ``|sum_n psi_n exp(-i n phi)|^2 / (2*pi)``, a
polynomial in ``z = exp(-i phi)`` evaluated by Horner's rule in memory linear
in the number of points.
Interval probabilities are evaluated in closed form through the concentration
kernel (the window integral of each Fourier mode has a sinc antiderivative),
so no quadrature is involved outside the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    IncompatibleWindowError,
    InternalConsistencyError,
    InvalidMatrixError,
)
from .kernel import kernel_operator
from .states import FockState, NumberWindow, PhaseWindow

_VALIDITY_TOL = 1e-12
_CLAMP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PhaseMatrix:
    """Coefficients weighting number-basis coherences, over indices 0..dim-1.

    ``is_canonical`` is set when every coefficient equals 1 exactly; the
    canonical measurement extends to arbitrary supports without a stored
    matrix.
    """

    coefficients: np.ndarray
    is_canonical: bool = False

    def __post_init__(self) -> None:
        arr = np.array(self.coefficients, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ValueError("coefficients must form a non-empty square matrix")
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)
        object.__setattr__(self, "is_canonical", bool(np.all(arr == 1.0)))

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    @classmethod
    def canonical(cls, dim: int) -> "PhaseMatrix":
        return cls(np.ones((dim, dim), dtype=np.complex128))

    @classmethod
    def identity(cls, dim: int) -> "PhaseMatrix":
        return cls(np.eye(dim, dtype=np.complex128))


@dataclass(frozen=True)
class MatrixValidity:
    """Per-invariant report from validate_phase_matrix."""

    unit_diagonal: bool
    modulus_bound: bool
    hermitian: bool
    positive_semidefinite: bool
    lowest_eigenvalue: float
    first_bad_diagonal: Optional[int] = None
    first_bad_modulus: Optional[tuple[int, int]] = None
    first_bad_hermitian: Optional[tuple[int, int]] = None

    @property
    def ok(self) -> bool:
        return (
            self.unit_diagonal
            and self.modulus_bound
            and self.hermitian
            and self.positive_semidefinite
        )

    def describe(self) -> str:
        if self.ok:
            return "valid phase matrix"
        parts = []
        if not self.unit_diagonal:
            parts.append(f"diagonal != 1 first at n={self.first_bad_diagonal}")
        if not self.modulus_bound:
            parts.append(f"|c| > 1 first at {self.first_bad_modulus}")
        if not self.hermitian:
            parts.append(f"not Hermitian first at {self.first_bad_hermitian}")
        if not self.positive_semidefinite:
            parts.append(
                f"not positive semidefinite: lowest eigenvalue {self.lowest_eigenvalue:.3e}"
            )
        return "; ".join(parts)


def validate_phase_matrix(matrix: PhaseMatrix) -> MatrixValidity:
    """Check unit diagonal, |c| <= 1, Hermiticity and positive
    semidefiniteness; report first offenders and the lowest eigenvalue.

    The measurement's operator density at ``phi`` is ``c`` conjugated by
    ``diag(exp(-i n phi))``, over ``2*pi``: it is positive at every ``phi``
    exactly when ``c`` is positive semidefinite, and integrates to the
    identity exactly when the diagonal is 1.  Those two conditions make
    ``c`` a measurement and imply the other two.  The lowest eigenvalue is
    that of the Hermitian part ``(c + c^H)/2``; rounding may put it up to
    ``_VALIDITY_TOL * dim`` below 0.
    """
    c = matrix.coefficients

    diag_bad = np.abs(np.diagonal(c) - 1.0) > _VALIDITY_TOL
    unit_diagonal = not diag_bad.any()
    first_diag = int(np.argmax(diag_bad)) if diag_bad.any() else None

    mod_bad = np.abs(c) > 1.0 + _VALIDITY_TOL
    modulus_bound = not mod_bad.any()
    first_mod = None
    if mod_bad.any():
        n, m = np.unravel_index(int(np.argmax(mod_bad)), c.shape)
        first_mod = (int(n), int(m))

    herm_bad = np.abs(c - c.conj().T) > _VALIDITY_TOL
    hermitian = not herm_bad.any()
    first_herm = None
    if herm_bad.any():
        n, m = np.unravel_index(int(np.argmax(herm_bad)), c.shape)
        first_herm = (int(n), int(m))

    lowest = float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])
    return MatrixValidity(
        unit_diagonal,
        modulus_bound,
        hermitian,
        lowest >= -_VALIDITY_TOL * matrix.dim,
        lowest,
        first_diag,
        first_mod,
        first_herm,
    )


def _clamp_probability(p: float) -> float:
    if -_CLAMP_TOL <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + _CLAMP_TOL:
        return 1.0
    if p < 0.0 or p > 1.0:
        raise InternalConsistencyError(f"probability {p!r} outside [0, 1]")
    return float(p)


def phase_density(
    state: FockState,
    matrix: Optional[PhaseMatrix],
    phi: Union[float, np.ndarray],
) -> Union[float, np.ndarray]:
    """Density (per radian) of the covariant phase measurement at ``phi``.

    ``matrix=None`` selects the canonical measurement, whose amplitude
    ``sum_j psi_j z^j`` at ``z = exp(-i phi)`` is taken by Horner's rule: one
    multiply-add per amplitude over the points, so memory is O(points) and no
    exponential is taken per term.  A non-canonical matrix must pass
    validation and cover the state's support.
    """
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    if phi_arr.ndim != 1:
        raise ValueError("phi must be a scalar or a 1-D array")
    scalar = np.isscalar(phi) or np.ndim(phi) == 0

    if matrix is None or matrix.is_canonical:
        # offset contributes a global phase only
        psi = state.amplitudes
        z = np.exp(-1j * phi_arr)
        amp = np.full(phi_arr.shape, psi[-1])
        for coefficient in psi[-2::-1]:
            amp *= z
            amp += coefficient
        dens = (amp.real**2 + amp.imag**2) / (2.0 * np.pi)
    else:
        report = validate_phase_matrix(matrix)
        if not report.ok:
            raise InvalidMatrixError(report.describe())
        top = state.offset + state.size
        if top > matrix.dim:
            raise InvalidMatrixError(
                f"matrix over 0..{matrix.dim - 1} cannot cover support up to {top - 1}"
            )
        emb = np.zeros(matrix.dim, dtype=np.complex128)
        emb[state.offset : top] = state.amplitudes
        n = np.arange(matrix.dim)
        u = emb[None, :] * np.exp(-1j * np.outer(phi_arr, n))
        dens = np.einsum("fn,nm,fm->f", u.conj(), matrix.coefficients, u).real / (
            2.0 * np.pi
        )

    return float(dens[0]) if scalar else dens


def interval_probability(state: FockState, window: PhaseWindow) -> float:
    """Canonical probability of a phase outcome inside ``window``.

    Closed form: with chi_n = psi_n * exp(-i n alpha), the probability is the
    concentration-kernel quadratic form chi^dagger G(dalpha) chi, with the
    product ``G chi`` taken by ``kernel.kernel_operator`` without forming
    ``G``.  The state must be normalized for the result to be a probability.
    """
    if window.width == 0.0:
        return 0.0
    j = np.arange(state.size)
    chi = state.amplitudes * np.exp(-1j * window.center * j)
    p = float(np.vdot(chi, kernel_operator(window.width, state.size)(chi)).real)
    return _clamp_probability(p)


def number_probability(state: FockState, window: NumberWindow) -> float:
    """Probability that a photon-number outcome falls inside ``window``."""
    lo = max(window.base, state.offset)
    hi = min(window.top, state.offset + state.size - 1)
    if lo > hi:
        return 0.0
    chunk = state.amplitudes[lo - state.offset : hi - state.offset + 1]
    return _clamp_probability(float(np.sum(np.abs(chunk) ** 2)))


def reduce(state: FockState, window: NumberWindow) -> FockState:
    """State after a number measurement confined the photon count to ``window``.

    Amplitudes outside the window are dropped and the remainder renormalized.
    Raises IncompatibleWindowError when the projection annihilates the state.
    """
    lo = max(window.base, state.offset)
    hi = min(window.top, state.offset + state.size - 1)
    if lo > hi:
        raise IncompatibleWindowError(
            f"window {window.base}..{window.top} misses support "
            f"{state.offset}..{state.offset + state.size - 1}"
        )
    chunk = state.amplitudes[lo - state.offset : hi - state.offset + 1]
    n2 = float(np.sum(np.abs(chunk) ** 2))
    if n2 < 1e-300:
        raise IncompatibleWindowError("projection onto the window is zero")
    return FockState(chunk / np.sqrt(n2), offset=lo)


def conditional_probability(
    state: FockState, phase_window: PhaseWindow, number_window: NumberWindow
) -> float:
    """Probability of a phase outcome in ``phase_window`` after the photon
    count was measured into ``number_window``."""
    return interval_probability(reduce(state, number_window), phase_window)
