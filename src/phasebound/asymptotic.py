"""Infinite number-precision limit of the concentration problem.

Rescaling the support {0..dk} onto [-1, 1] and letting dk grow turns the
matrix eigenproblem into a homogeneous Fredholm integral equation with the
sinc kernel ``sin(c*(z-z')) / (pi*(z-z'))``, ``c = pi*xi/2``; its eigenvalues
depend only on the concentration parameter ``xi = dalpha*(dk+1)/(2*pi)``.
The integral operator commutes with the prolate differential operator
``L = -(d/dx)(1-x^2)(d/dx) + c^2 x^2``, whose eigenfunctions ``psi_n`` it
shares.  In the normalized Legendre basis ``sqrt(k+1/2) P_k`` the operator
``L`` splits by parity into two blocks that are tridiagonal in the degree
(Bouwkamp 1947; Xiao, Rokhlin & Yarvin 2001, *Inverse Problems* 17), the
continuum form of the Gram-basis block that ``kernel._gram_block`` builds.
Each eigenvalue of the sinc operator then follows from the coefficients of
its eigenfunction without cancellation: with ``mu_n`` the modulus of the
eigenvalue of ``f -> int_{-1}^{1} exp(i c x t) f(t) dt``,

    even n:  mu_n = sqrt(2) beta_0 / psi_n(0)
    odd n:   mu_n = c sqrt(2/3) beta_1 / psi_n'(0)
    lambda_n = c mu_n^2 / (2*pi),

so every value is a square and none comes out negative.  Doubling the degree
count until two truncations agree supplies an a posteriori error estimate.
The module answers two questions: ``prolate_eigenvalues`` gives the first
eigenvalues at ``xi``, and ``asymptotic_least_upper_bound`` gives the top
one with its doubling difference.  The Gauss-Legendre Nystrom rule that
solves the same operator by quadrature is the independent oracle
(``oracles.nystrom_eigenvalues``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailureError, DomainError, InternalConsistencyError
from .kernel import _TAIL_TOL, check_domain
from .states import TWO_PI

_REFINE_TOL = 1e-10
_START_DEGREES = 64
_MAX_DEGREES = 4096


def concentration_parameter(delta_alpha: float, delta_k: int) -> float:
    """Product of the two precisions, ``dalpha*(dk+1)/(2*pi)``."""
    check_domain(delta_alpha, delta_k)
    return delta_alpha * (delta_k + 1) / TWO_PI


@lru_cache(maxsize=8)
def _legendre_terms(degrees: int) -> tuple[np.ndarray, ...]:
    """The parts of the blocks that do not depend on ``c``, over degrees
    ``k[p, i] = 2i + p`` below ``degrees`` (an even count), row ``p = 0``
    for the even block and ``p = 1`` for the odd one; read-only.

    The block of ``L`` has diagonal ``k(k+1) + c^2 a_k`` and off-diagonal
    ``c^2 b_k`` with ``a_k = (2k(k+1)-1)/((2k+3)(2k-1))`` and ``b_k =
    (k+1)(k+2)/((2k+3) sqrt((2k+1)(2k+5)))``.  ``weight`` holds
    ``sqrt(k+1/2) P_k(0)`` for the even block and ``sqrt(k+1/2) P_k'(0)``
    for the odd one, so that ``weight @ beta`` is ``psi(0)`` or
    ``psi'(0)``: ``P_{2i}(0)`` is a cumulative product of its ratios
    ``-(2i-1)/(2i)``, and ``P_k'(0) = k P_{k-1}(0)`` for odd ``k``.
    """
    k = np.arange(float(degrees)).reshape(-1, 2).T
    a = (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
    kl = k[:, :-1]
    b = (kl + 1) * (kl + 2) / ((2 * kl + 3) * np.sqrt((2 * kl + 1) * (2 * kl + 5)))
    j = np.arange(1, degrees // 2)
    at_zero = np.cumprod(np.concatenate(([1.0], (1 - 2 * j) / (2 * j))))
    weight = np.sqrt(k + 0.5) * at_zero
    weight[1] *= k[1]
    terms = (k * (k + 1), a, b, weight)
    for arr in terms:
        arr.flags.writeable = False
    return terms


def _first_coefficients(
    diag: np.ndarray, off: np.ndarray, chi: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """First coefficient of each eigenvector, to relative accuracy.

    ``eigh`` gets every coefficient to about ``eps`` absolute, so a first
    coefficient of 1e-40 would come out as noise, and with it the eigenvalue
    (whose square it sets).  Between the top row and its largest coefficient
    an eigenvector grows with the row, and the ratios ``r_i =
    beta_i/beta_{i+1}`` follow stably from the top row, ``r_i = -off_i /
    (diag_i - chi + off_{i-1} r_{i-1})``; their product down from the largest
    coefficient gives the first one.  Past its largest coefficient a column's
    recurrence runs in its unstable direction and may overflow; those ratios
    are never used.
    """
    parity, column = np.indices(chi.shape)
    peak = np.argmax(np.abs(vectors), axis=1)
    top = int(peak.max())
    ratios = np.ones((top + 1,) + chi.shape)
    r = ratios[0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(top):
            den = diag[:, i, None] - chi
            if i:
                den += off[:, i - 1, None] * r
            r = ratios[i + 1] = -off[:, i, None] / den
        np.cumprod(ratios, axis=0, out=ratios)
    return vectors[parity, peak, column] * ratios[peak, parity, column]


def _prolate_values(c: float, degrees: int, count: int) -> np.ndarray:
    """The first ``min(count, degrees)`` eigenvalues of the sinc operator
    from the blocks truncated to degrees below ``degrees``; the odd block is
    left out when only the top value is asked for."""
    size = min(count, degrees)
    parities = min(size, 2)
    kk, a, b, weight = (t[:parities] for t in _legendre_terms(degrees))
    c2 = c * c
    diag, off = kk + c2 * a, c2 * b
    rows = degrees // 2
    blocks = np.zeros((parities, rows, rows))
    i = np.arange(rows)
    blocks[:, i, i] = diag
    blocks[:, i[1:], i[:-1]] = off  # eigh reads the lower triangle
    chi, vectors = np.linalg.eigh(blocks)
    # ascending eigenvalue i of block p is psi_{2i+p}
    used = (size + 1) // 2
    chi, vectors = chi[:, :used], vectors[:, :, :used]
    psi = np.einsum("pk,pkn->pn", weight, vectors)
    scale = np.array([[np.sqrt(2.0)], [c * np.sqrt(2.0 / 3.0)]])[:parities]
    mu = scale * _first_coefficients(diag, off, chi, vectors) / psi
    return (c * mu * mu / TWO_PI).T.ravel()[:size]


def _prolate_solve(xi: float, count: int) -> tuple[np.ndarray, float]:
    """The first ``count`` eigenvalues, descending, and the largest change
    between the last two truncations.

    The degree count doubles from 64 until two successive truncations agree
    to 1e-10 on every value they share and every value the coarser one did
    not compute lies below 1e-30; indices past the truncation are 0.  At
    4096 degrees the doubling stops with ConvergenceFailureError.  A value
    above 1 by less than the refinement tolerance is rounding and becomes 1;
    a larger one raises InternalConsistencyError.
    """
    if not np.isfinite(xi) or xi < 0.0:
        raise DomainError(f"xi {xi} must be finite and >= 0")
    c = 0.5 * np.pi * abs(float(xi))  # abs: xi = -0.0 would print -0
    degrees, prev = _START_DEGREES, None
    diff = tail = np.inf
    while degrees <= _MAX_DEGREES:
        vals = _prolate_values(c, degrees, count)
        if prev is not None:
            diff = float(np.max(np.abs(vals[: prev.size] - prev)))
            tail = float(np.max(vals[prev.size :], initial=0.0))
            if diff < _REFINE_TOL and tail < _TAIL_TOL:
                break
        prev = vals
        degrees *= 2
    else:
        raise ConvergenceFailureError(
            f"eigenvalues still moving by {diff:.3e} (tail {tail:.3e}) "
            f"at {_MAX_DEGREES} Legendre degrees"
        )
    # a saturated value rounds above 1 by a few hundred eps at large xi (the
    # top by about 0.6 c eps), well within the refinement tolerance
    if vals.max() > 1.0 + _REFINE_TOL:
        raise InternalConsistencyError(f"eigenvalue {vals.max()!r} above 1")
    # values within rounding of 1 may come out of order; list them descending
    out = np.zeros(count)
    out[: vals.size] = np.minimum(np.sort(vals)[::-1], 1.0)
    return out, diff


def prolate_eigenvalues(xi: float, count: int) -> np.ndarray:
    """The first ``count`` eigenvalues of the sinc operator at ``xi``,
    descending, each in [0, 1].

    Raises DomainError unless ``xi`` is finite and >= 0 and ``count`` is an
    integer >= 1, and ConvergenceFailureError at the truncation cap.
    """
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
        raise DomainError(f"count {count} must be an integer >= 1")
    return _prolate_solve(xi, int(count))[0]


def asymptotic_least_upper_bound(xi: float) -> tuple[float, float]:
    """Largest eigenvalue of the limiting operator and its doubling
    difference, the error estimate.

    Raises DomainError unless ``xi`` is finite and >= 0, and
    ConvergenceFailureError at the truncation cap.
    """
    vals, diff = _prolate_solve(xi, 1)
    return float(vals[0]), diff
