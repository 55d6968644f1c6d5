"""Concentration kernel for joint phase/number precision and its spectrum.

The kernel is the real symmetric Toeplitz matrix whose (n, m) entry is
``sin((n-m)*dalpha/2) / (pi*(n-m))`` with the n -> m limit ``dalpha/(2*pi)``
on the diagonal.  Its largest eigenvalue is the least upper bound on the
probability of a successful phase measurement at precision ``dalpha`` after a
number measurement at precision ``dk``; the top eigenvector is the state that
attains it.

Two solvers answer two questions.  ``eigensystem`` is the dense full-spectrum
solve, O(dk^3).  The kernel is centrosymmetric (``G[i, j] = G[n-1-i, n-1-j]``),
so it maps even and odd sequences to themselves, and ``eigensystem`` solves
its even and odd half-blocks (``parity_blocks``; ``parity_vectors`` maps
their eigenvectors back, and ``asymptotic`` splits its Nystrom matrix the
same way), two dense solves of half the size.  ``leading_eigenpair``
returns the top pair in O(dk log dk) without forming the kernel: the kernel
is the discrete prolate matrix with ``M = dk+1``, ``W = dalpha/(4*pi)``, and
it commutes with Slepian's tridiagonal matrix (Slepian 1978, "Prolate
spheroidal wave functions, Fourier analysis, and uncertainty V: the discrete
case", BSTJ 57), whose eigenvalues are well separated where the kernel's
cluster near 1.  ``_top_eigenvector`` isolates the top eigenvalue of the
even block of that matrix by Sturm bisection and finishes the pair by
Rayleigh-quotient inverse iteration, in about 22 pure-Python O(dk) sweeps
where bisection to rounding took 52.

Where only products with the kernel are needed, ``toeplitz_operator`` takes
them through an FFT of its circulant embedding, in O(dk log dk) time and
O(dk) memory, and ``kernel_operator`` builds it once per ``(dalpha, size)``
for the Rayleigh quotient in ``leading_eigenpair``, the power-iteration
oracle and the window probability ``povm.interval_probability``.  The dense
``build_kernel`` serves the full spectrum and the random-state oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailureError, DomainError
from .states import TWO_PI, FockState


def check_domain(delta_alpha: float, delta_k: int) -> None:
    """Reject parameters outside 0 <= dalpha <= 2*pi, integer dk >= 0."""
    if not np.isfinite(delta_alpha):
        raise DomainError("dalpha must be finite")
    if not 0.0 <= delta_alpha <= TWO_PI:
        raise DomainError(f"dalpha {delta_alpha} outside [0, 2*pi]")
    if not isinstance(delta_k, (int, np.integer)) or isinstance(delta_k, bool):
        raise DomainError("dk must be an integer")
    if delta_k < 0:
        raise DomainError(f"dk {delta_k} < 0")


def kernel_column(delta_alpha: float, size: int) -> np.ndarray:
    """First column of the Toeplitz kernel for a support of ``size`` indices."""
    if size < 1:
        raise DomainError(f"size {size} < 1")
    col = np.empty(size)
    col[0] = delta_alpha / TWO_PI
    if size > 1:
        if delta_alpha == TWO_PI:
            # sin(pi*d) is exactly zero for integer d; avoid rounding noise
            col[1:] = 0.0
        else:
            d = np.arange(1, size)
            col[1:] = np.sin(0.5 * delta_alpha * d) / (np.pi * d)
    return col


def toeplitz_from_column(col: np.ndarray) -> np.ndarray:
    """Dense symmetric Toeplitz matrix with first column ``col``.

    Row ``i`` is a window of ``col`` mirrored about its first entry, so the
    only allocation besides the result is that ``2n-1`` sequence.
    """
    n = col.size
    mirrored = np.concatenate((col[:0:-1], col))
    return np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()


def _fft_length(target: int) -> int:
    """Smallest ``2^a 3^b 5^c >= target``: numpy's FFT has fast radices for
    these factors and falls back to Bluestein's algorithm for large primes."""
    best = 1 << (target - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:  # each 3^b 5^c below best, doubled up to the target
            length = odd
            while length < target:
                length *= 2
            best = min(best, length)
            odd *= 3
        five *= 5
    return best


def toeplitz_operator(col: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Matvec ``v -> G v`` for the symmetric Toeplitz ``G`` with first column
    ``col``, never forming ``G``.

    ``G`` is the leading block of a circulant of length ``L >= 2n-1`` (the
    5-smooth ``_fft_length``), whose FFT is computed once here; each product
    then costs one real FFT pair of length ``L``.  Complex vectors are
    multiplied as their real and imaginary parts.
    """
    n = col.size
    length = _fft_length(2 * n - 1)
    circulant = np.zeros(length)
    circulant[:n] = col
    circulant[length - n + 1 :] = col[:0:-1]
    spectrum = np.fft.rfft(circulant)
    spectrum.flags.writeable = False

    def matvec(v: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(v):
            return matvec(v.real) + 1j * matvec(v.imag)
        return np.fft.irfft(spectrum * np.fft.rfft(v, length), length)[:n]

    return matvec


@lru_cache(maxsize=4)
def kernel_operator(delta_alpha: float, size: int) -> Callable[[np.ndarray], np.ndarray]:
    """``toeplitz_operator(kernel_column(delta_alpha, size))``, built once per
    ``(delta_alpha, size)`` and shared: one ``bound --verify`` multiplies by
    the same kernel in ``leading_eigenpair``, the power-iteration oracle and
    ``povm.interval_probability``."""
    return toeplitz_operator(kernel_column(float(delta_alpha), size))


@dataclass(frozen=True)
class ConcentrationKernel:
    """Built kernel matrix together with its parameters."""

    delta_alpha: float
    delta_k: int
    entries: np.ndarray


@dataclass(frozen=True)
class SpectrumDiagnostics:
    max_residual: float
    orthogonality_defect: float
    top_gap: float  # lambda_0 - lambda_1 (inf for 1x1)
    min_gap: float  # smallest consecutive gap (inf for 1x1)


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum, eigenvalues descending, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    diagnostics: SpectrumDiagnostics


def build_kernel(delta_alpha: float, delta_k: int) -> ConcentrationKernel:
    """Assemble the (dk+1) x (dk+1) concentration kernel."""
    check_domain(delta_alpha, delta_k)
    entries = toeplitz_from_column(kernel_column(float(delta_alpha), delta_k + 1))
    entries.flags.writeable = False
    return ConcentrationKernel(float(delta_alpha), int(delta_k), entries)


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude component is positive."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def parity_blocks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd half-blocks of a symmetric centrosymmetric matrix ``a``,
    given its first ``n - n//2`` rows.

    ``a[n-1-i, n-1-j] = a[i, j]``, so ``a`` maps sequences with
    ``v[n-1-i] = +-v[i]`` to themselves.  On them it acts as ``A + C`` (even)
    or ``A - C`` (odd), where ``A = a[:m, :m]``, ``C[i, j] = a[i, n-1-j]`` and
    ``m = n // 2``.  An odd ``n`` puts the middle index in the even block, as
    a last row and column scaled by ``sqrt(2)``.  The eigenvectors of ``a``
    are those of the blocks mapped back by ``parity_vectors``.
    """
    n = rows.shape[1]
    m = n // 2
    direct = rows[:m, :m]
    mirror = rows[:m, ::-1][:, :m]
    even = direct + mirror
    odd = direct - mirror
    if n % 2:
        edge = math.sqrt(2.0) * rows[:m, m]
        even = np.block([[even, edge[:, None]], [edge[None, :], rows[m, m]]])
    return 0.5 * (even + even.T), 0.5 * (odd + odd.T)


def parity_vectors(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Columns ``[u; Ju]/sqrt(2)`` for the even block's eigenvectors ``u``,
    then ``[u; -Ju]/sqrt(2)`` for the odd block's, where ``J`` reverses order.

    For an odd length the even block's last entry is the middle one, kept
    unscaled.  The map is orthogonal, so it keeps norms, residuals and
    inner products.
    """
    m, ne = odd.shape[0], even.shape[1]
    n = even.shape[0] + m
    root_half = math.sqrt(0.5)
    vecs = np.zeros((n, ne + odd.shape[1]))
    vecs[:m, :ne] = root_half * even[:m]
    vecs[n - m :, :ne] = root_half * even[:m][::-1]
    if n % 2:
        vecs[m, :ne] = even[m]
    vecs[:m, ne:] = root_half * odd
    vecs[n - m :, ne:] = -root_half * odd[::-1]
    return vecs


def eigensystem(delta_alpha: float, delta_k: int) -> SpectrumResult:
    """Full symmetric eigendecomposition of the kernel (``build_kernel``),
    eigenvalues descending.

    The kernel is solved through its even and odd half-blocks
    (``parity_blocks``), so every eigenvector is exactly even or odd.  Signs
    follow ``fix_signs``: for an odd vector, whose mirrored extremes tie
    exactly, the one in the first half is made positive.  Residuals and the
    orthogonality defect are taken on the blocks, where they equal those of
    the full vectors.

    Raises ConvergenceFailureError when the residual target
    ``1e-12 * (dk+1)`` is missed.
    """
    entries = build_kernel(delta_alpha, delta_k).entries
    n = entries.shape[0]
    blocks = parity_blocks(entries[: n - n // 2])
    solved = [np.linalg.eigh(block) for block in blocks]
    residual = orth = 0.0
    for block, (w, u) in zip(blocks, solved):
        columns = np.linalg.norm(block @ u - u * w, axis=0)
        residual = max(residual, float(columns.max(initial=0.0)))
        orth = max(orth, float(np.abs(u.T @ u - np.eye(w.size)).max(initial=0.0)))
    vals = np.concatenate([w for w, _ in solved])
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = fix_signs(parity_vectors(*(u for _, u in solved))[:, order])

    if n > 1:
        gaps = -np.diff(vals)
        diag = SpectrumDiagnostics(residual, orth, float(gaps[0]), float(gaps.min()))
    else:
        diag = SpectrumDiagnostics(residual, orth, np.inf, np.inf)

    if residual > 1e-12 * n:
        raise ConvergenceFailureError(
            f"eigensolve residual {residual:.3e} exceeds {1e-12 * n:.3e}",
            diagnostics=diag,
        )
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SpectrumResult(vals, vecs, diag)


def _slepian_block(delta_alpha: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of Slepian's T restricted to even sequences.

    T has diagonal ``((M-1-2n)/2)^2 cos(2*pi*W)`` and off-diagonal ``n(M-n)/2``.
    It is centrosymmetric, so it maps sequences with ``v[M-1-n] = v[n]`` to
    themselves; on them it acts as the tridiagonal block over the first half,
    with the coupling across the middle folded into the block's last row.
    """
    half = (size + 1) // 2
    n = np.arange(half, dtype=float)
    diag = (0.5 * (size - 1 - 2 * n)) ** 2 * math.cos(0.5 * delta_alpha)
    off = 0.5 * n[1:] * (size - n[1:])
    if size % 2 == 0:
        diag[-1] += 0.5 * half * half
    elif half > 1:
        off[-1] *= math.sqrt(2.0)  # symmetric scaling of the middle entry
    return diag, off


def _factor(diag: list, off: list, shift: float, guard: float) -> tuple[list, list, int]:
    """``LDL^T`` of ``T - shift`` for the tridiagonal ``T`` with diagonal
    ``diag`` and off-diagonal ``off`` (``off[0] == 0``).

    Returns the pivots ``D``, the multipliers of the unit lower ``L`` and the
    number of positive pivots, which by Sylvester's law of inertia is the
    number of eigenvalues above ``shift`` (the Sturm count).  The sweep stops
    at a second positive pivot: a shift below two eigenvalues only moves a
    bisection bracket, and its partial factorisation goes unused.  A pivot
    smaller than ``guard`` in magnitude is replaced by ``-guard`` and never
    divided by.
    """
    pivots, lower, above, q = [], [], 0, 1.0
    for a, b in zip(diag, off):
        m = b / q
        q = a - shift - m * b
        if q >= guard:
            above += 1
            if above == 2:
                break
        elif q > -guard:
            q = -guard
        pivots.append(q)
        lower.append(m)
    return pivots, lower, above


def _solve(pivots: list, lower: list, upper: list, rhs: list) -> list:
    """``x`` with ``L D L^T x = rhs`` from ``_factor``'s pivots and
    multipliers, where ``upper[i] = (D L^T)[i, i+1] = T[i, i+1]`` (0 for the
    last row): one forward and one backward sweep."""
    z, zi = [], 0.0
    for bi, mi in zip(rhs, lower):  # L z = rhs
        zi = bi - mi * zi
        z.append(zi)
    x, xi = [], 0.0
    for zi, qi, ui in zip(reversed(z), reversed(pivots), reversed(upper)):
        xi = (zi - ui * xi) / qi  # D L^T x = z
        x.append(xi)
    x.reverse()
    return x


def _top_eigenvector(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Top eigenvector of one of Slepian's symmetric tridiagonal blocks ``T``.

    The top eigenvalue lies in ``[lo, hi]``, from the largest diagonal entry
    and a Gershgorin bound.  Sturm bisection (``_factor``'s count) moves
    ``lo`` or ``hi`` to each shift until only the top eigenvalue lies above
    ``lo``; that shift is kept as ``floor``.  Rayleigh-quotient inverse
    iteration then finishes the pair (Parlett, *The Symmetric Eigenvalue
    Problem*, 4.6) from a start vector of ones, which the top vector
    (positive, by Perron-Frobenius) overlaps.  For ``y = (T - s)^-1 x`` the
    quotient is ``rho = s + x.y / y.y`` and the squared residual of
    ``y / |y|`` is ``x.x / y.y - (rho - s)^2``: no product with ``T``.

    Every factorisation is also a Sturm count and keeps moving ``lo`` or
    ``hi``.  The quotient never exceeds the top eigenvalue, and Temple's
    inequality ``(top - rho) (rho - floor) <= |r|^2`` lowers ``hi``.  The
    next shift is the quotient if it lies in the upper half of ``(lo, hi)``,
    where it raises ``lo`` at least as far as a bisection step, and the
    midpoint otherwise, as for the poor quotients of the first steps.  So the
    shift never leaves the isolating bracket, and convergence is cubic once
    the vector is close.  When the shift stops moving at rounding level, one
    more solve with the last factorisation brings the vector to rounding too.
    A bracket that collapses before isolating means a top eigenvalue that is
    multiple to rounding.  If the last count there was 0, two solves give a
    vector of it; if it was 2, the factorisation stopped early and
    ConvergenceFailureError is raised.  Slepian's blocks, with a top gap of
    3-7, reach neither case.

    ``hi`` is Gershgorin's bound after the diagonal scaling of the last entry
    that balances the last two rows.  The even block of an odd-length ``T``
    scales its last coupling by ``sqrt(2)``; the balanced scaling undoes
    that, so ``hi`` is never looser than ``T``'s own bound: about ``dk/2``
    above ``lo`` for small ``dalpha``, where the block's is ``dk^2/20``.
    """
    d, e = diag.tolist(), [0.0] + off.tolist()
    upper = e[1:] + [0.0]
    rows = diag + np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
    lo, hi = float(np.max(diag)), float(np.max(rows))
    if off.size and off[-1]:  # rows -2 and -1 become inner + c*w and d[-1] + c/w
        c = abs(e[-1])
        inner = float(rows[-2]) - c
        drift = d[-1] - inner
        root = math.hypot(drift, 2.0 * c)
        w = (drift + root) / (2.0 * c) if drift > 0 else 2.0 * c / (root - drift)
        hi = max(float(np.max(rows[:-2], initial=-math.inf)), inner + c * w, d[-1] + c / w)
    guard = float(np.finfo(float).eps) * max(abs(lo), abs(hi), 1.0)

    x, floor = np.ones(len(d)), None
    shift = 0.5 * (lo + hi)
    while True:
        pivots, lower, above = _factor(d, e, shift, guard)
        if above:
            lo = shift
        else:
            hi = shift
        if floor is None and (above == 1 or hi - lo <= guard):
            if above == 2:
                raise ConvergenceFailureError(
                    f"top eigenvalue of a {len(d)}-row block is multiple to rounding"
                )
            floor = shift
        if floor is not None:
            y = np.array(_solve(pivots, lower, upper, x.tolist()))
            yy = float(y @ y)
            step = float(x @ y) / yy
            residual_sq = max(float(x @ x) / yy - step * step, 0.0)
            x = y / math.sqrt(yy)
            if abs(step) <= guard or hi - lo <= guard:
                break
            rho = shift + step
            if rho > floor:
                hi = min(hi, rho + residual_sq / (rho - floor) + guard)
            shift = min(rho, hi)
        if floor is None or shift < 0.5 * (lo + hi):
            shift = 0.5 * (lo + hi)
    y = np.array(_solve(pivots, lower, upper, x.tolist()))
    return y / np.linalg.norm(y)


def leading_eigenpair(delta_alpha: float, delta_k: int) -> tuple[float, np.ndarray]:
    """Top eigenpair of the kernel.

    The kernel is never formed.  Slepian's tridiagonal T commutes with it, so
    the two share eigenvectors, in the same order.  T's top eigenvector is
    even, so it is the top vector of T's even block (``_slepian_block``),
    mirrored.  The eigenvalue is the Rayleigh quotient of the unit vector on
    the kernel, through ``toeplitz_operator``.  The vector follows
    ``fix_signs``; the 1x1 kernel and the identity kernel ``dalpha == 2*pi``
    give the exact values of the dense solve.  Lower pairs are a
    full-spectrum question, which ``eigensystem`` answers.

    Raises ConvergenceFailureError when the residual target
    ``1e-12 * (dk+1)`` is missed.
    """
    check_domain(delta_alpha, delta_k)
    size = delta_k + 1
    if size == 1 or delta_alpha == TWO_PI:
        vector = np.zeros(size)
        vector[0] = 1.0
        return float(delta_alpha) / TWO_PI, vector

    half = _top_eigenvector(*_slepian_block(delta_alpha, size))
    if size % 2:  # undo the block's symmetric scaling of the middle entry
        half[-1] *= math.sqrt(2.0)
        vector = np.concatenate((half, half[-2::-1]))
    else:
        vector = np.concatenate((half, half[::-1]))
    vector = fix_signs((vector / np.linalg.norm(vector))[:, None])[:, 0]

    image = kernel_operator(delta_alpha, size)(vector)
    value = float(vector @ image)
    residual = float(np.linalg.norm(image - value * vector))
    if residual > 1e-12 * size:
        raise ConvergenceFailureError(
            f"top eigenpair residual {residual:.3e} exceeds {1e-12 * size:.3e}"
        )
    return value, vector


def least_upper_bound(delta_alpha: float, delta_k: int) -> tuple[float, FockState]:
    """Largest eigenvalue of the kernel and the state attaining it.

    The optimal state lives on photon numbers {0, ..., dk}.  For dalpha == 0
    the bound is 0 and the vacuum state is returned by convention.
    """
    check_domain(delta_alpha, delta_k)
    if delta_alpha == 0.0:
        vacuum = np.zeros(delta_k + 1, dtype=np.complex128)
        vacuum[0] = 1.0
        return 0.0, FockState(vacuum, offset=0)
    value, top = leading_eigenpair(delta_alpha, delta_k)
    return value, FockState(top.astype(np.complex128), offset=0)


def cauchy_bound(delta_alpha: float, delta_k: int) -> float:
    """Precision-product bound ``min(1, dalpha*(dk+1)/(2*pi))``.

    Dominates every achievable measurement probability, hence also the
    least upper bound.
    """
    check_domain(delta_alpha, delta_k)
    return min(1.0, delta_alpha * (delta_k + 1) / TWO_PI)
