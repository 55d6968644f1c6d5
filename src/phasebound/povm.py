"""Covariant phase measurement: densities, window probabilities, reduction.

The canonical measurement weights every number-basis coherence equally; its
density for a pure state is ``|sum_n psi_n exp(-i n phi)|^2 / (2*pi)``, a
polynomial in ``z = exp(-i phi)`` evaluated by Horner's rule in memory linear
in the number of points, or on a uniform grid by one FFT
(``uniform_phase_density``).  Other covariant measurements are given by a
``PhaseMatrix``, which checks when it is built that it defines one
(positive semidefinite with unit diagonal), so every instance is valid.
Interval probabilities are evaluated in closed form through the concentration
kernel (the window integral of each Fourier mode has a sinc antiderivative),
so no quadrature is involved; the tests check it against a Simpson integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    IncompatibleWindowError,
    InternalConsistencyError,
    InvalidMatrixError,
)
from .kernel import kernel_operator
from .states import TWO_PI, FockState, NumberWindow, PhaseWindow

_VALIDITY_TOL = 1e-12
_CLAMP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PhaseMatrix:
    """Coefficients weighting number-basis coherences, over indices 0..dim-1.

    Construction checks that the matrix defines a measurement: unit
    diagonal, ``|c| <= 1``, Hermitian and positive semidefinite, each to
    within rounding.  The measurement's operator density at ``phi`` is ``c``
    conjugated by ``diag(exp(-i n phi))``, over ``2*pi``: it is positive at
    every ``phi`` exactly when ``c`` is positive semidefinite, and
    integrates to the identity exactly when the diagonal is 1.  Those two
    conditions make ``c`` a measurement and imply the other two.  The lowest
    eigenvalue is that of the Hermitian part ``(c + c^H)/2``; rounding may
    put it up to ``_VALIDITY_TOL * dim`` below 0.  A failure raises
    InvalidMatrixError naming the first offender of each failed check.

    ``is_canonical`` is derived, never passed: it is set when every
    coefficient equals 1 exactly; the canonical measurement extends to
    arbitrary supports without a stored matrix.
    """

    coefficients: np.ndarray
    is_canonical: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        c = np.array(self.coefficients, dtype=np.complex128)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
            raise ValueError("coefficients must form a non-empty square matrix")
        failures = []
        diag_bad = np.abs(np.diagonal(c) - 1.0) > _VALIDITY_TOL
        if diag_bad.any():
            failures.append(f"diagonal != 1 first at n={int(np.argmax(diag_bad))}")
        mod_bad = np.abs(c) > 1.0 + _VALIDITY_TOL
        if mod_bad.any():
            failures.append(f"|c| > 1 first at {tuple(np.argwhere(mod_bad)[0].tolist())}")
        herm_bad = np.abs(c - c.conj().T) > _VALIDITY_TOL
        if herm_bad.any():
            failures.append(
                f"not Hermitian first at {tuple(np.argwhere(herm_bad)[0].tolist())}"
            )
        lowest = float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])
        if not lowest >= -_VALIDITY_TOL * c.shape[0]:
            failures.append(f"not positive semidefinite: lowest eigenvalue {lowest:.3e}")
        if failures:
            raise InvalidMatrixError("; ".join(failures))
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "is_canonical", bool(np.all(c == 1.0)))

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    @classmethod
    def canonical(cls, dim: int) -> "PhaseMatrix":
        return cls(np.ones((dim, dim), dtype=np.complex128))

    @classmethod
    def identity(cls, dim: int) -> "PhaseMatrix":
        return cls(np.eye(dim, dtype=np.complex128))


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
    exponential is taken per term.  A non-canonical matrix must cover the
    state's support.
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


def _uniform_grid(points: int) -> np.ndarray:
    """The grid ``phi_m = -pi + 2*pi*m/points``, ``m = 0..points-1``: the one
    expression behind both ``uniform_phase_density`` and the phi column that
    ``cli`` formats once per point count, so the two cannot drift apart."""
    return -np.pi + TWO_PI * np.arange(points) / points


def uniform_phase_density(state: FockState, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical density on the grid ``phi_m = -pi + 2*pi*m/points``: the
    grid and the density at it.

    There ``exp(-i j phi_m) = (-1)^j exp(-2*pi*i j m/points)``, so the
    amplitude is the FFT of ``psi_j (-1)^j``, folded to ``points`` entries
    (``j`` taken modulo ``points``): one O(N log N) transform in place of
    ``phase_density``'s pass per amplitude.  ``points`` must be >= 1.
    """
    folded = np.zeros(-(-state.size // points) * points, dtype=np.complex128)
    folded[: state.size] = state.amplitudes
    folded[1 : state.size : 2] *= -1.0
    amp = np.fft.fft(folded.reshape(-1, points).sum(axis=0))
    return _uniform_grid(points), (amp.real**2 + amp.imag**2) / TWO_PI


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
