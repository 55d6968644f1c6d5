"""Concentration kernel for joint phase/number precision and its spectrum.

The kernel is the real symmetric Toeplitz matrix whose (n, m) entry is
``sin((n-m)*dalpha/2) / (pi*(n-m))`` with the n -> m limit ``dalpha/(2*pi)``
on the diagonal.  Its largest eigenvalue is the least upper bound on the
probability of a successful phase measurement at precision ``dalpha`` after a
number measurement at precision ``dk``; the top eigenvector is the state that
attains it.

Two questions, the full spectrum and the top pair, have one solver each.
The spectrum's values come from ``kernel_eigenvalues`` without forming the
kernel.  They fall off super-exponentially past index ``xi``, and every
vector orthogonal to the polynomials of degree below ``K`` has a Rayleigh
quotient below a bound ``B_K`` that does not depend on ``dk``
(``_tail_bound``).  So the Ritz values of the kernel on the first ``K``
discrete Chebyshev (Gram) polynomials give the first ``K`` eigenvalues, and
every later one, printed as 0, is certified within ``B_K <= 1e-30`` of its
value; ``K`` is a few dozen (32 up to xi 3).  Ritz values below about eps
are still rounding noise.  The polynomials' recurrence stays orthonormal
only up to about ``2 sqrt(M)`` degrees, ``M = dk+1``; past that crossover
(xi 3 below ``dk = 255``) the kernel is solved densely instead.  It is
centrosymmetric (``G[i, j] = G[n-1-i, n-1-j]``), so it maps even and odd
sequences to themselves, and its even and odd half-blocks
(``parity_blocks``, which the Nystrom oracle in ``oracles`` uses too) give
the values by two dense solves of half the size.

``leading_eigenpair`` returns the top pair in O(dk log dk), also without
forming the kernel: the kernel is the discrete prolate matrix with
``M = dk+1``, ``W = dalpha/(4*pi)``, and it commutes with Slepian's
tridiagonal matrix (Slepian 1978, "Prolate spheroidal wave functions,
Fourier analysis, and uncertainty V: the discrete case", BSTJ 57), whose
eigenvalues are well separated where the kernel's cluster near 1.  In the
Gram basis that matrix splits into even and odd blocks that are tridiagonal
in the degree, and the top vector needs only a few dozen degrees whatever
``dk`` (``_gram_block``).  ``_top_eigenvector`` isolates the top eigenvalue
of a tridiagonal block by Sturm bisection and finishes the pair by
Rayleigh-quotient inverse iteration; the vector is then summed on the grid
by the polynomials' recurrence, one numpy pass of length ``dk/2`` per
degree.  Where that truncation exceeds ``M/4`` degrees (every ``dk < 127``,
and large ``xi`` up to ``dk`` of a few thousand), the recurrence loses
digits and the same solver runs on Slepian's even block of ``M/2`` rows
instead.

The kernel's first column (``kernel_column``) is the only form of it the
program keeps.  Products with the kernel go through ``kernel_operator``, an
FFT of its circulant embedding built once per ``(dalpha, size)``, in
O(dk log dk) time and O(dk) memory per vector: for ``kernel_eigenvalues``,
the Rayleigh quotient in ``leading_eigenpair``, the power-iteration oracle
and the window probability ``povm.interval_probability``.  The dense solve
reads its half-block rows as a window view of the mirrored column, so no
``M x M`` matrix is formed anywhere.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailureError, DomainError, InternalConsistencyError
from .states import TWO_PI, FockState

# an eigenvalue left out of a truncated solve, printed as 0, must lie below
# this: past ``K`` Gram degrees here, past the Legendre truncation in
# ``asymptotic``
_TAIL_TOL = 1e-30
_EPS = float(np.finfo(float).eps)


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


@lru_cache(maxsize=4)
def kernel_operator(delta_alpha: float, size: int) -> Callable[[np.ndarray], np.ndarray]:
    """Matvec ``v -> G v`` for the kernel ``G`` on ``size`` indices, never
    forming ``G``; built once per ``(delta_alpha, size)`` and shared: one
    ``bound --verify`` multiplies by the same kernel in ``leading_eigenpair``,
    the power-iteration oracle and ``povm.interval_probability``;
    ``kernel_eigenvalues`` uses it too.

    ``G`` is the leading block of a circulant of length ``L >= 2M-1`` (the
    5-smooth ``_fft_length``), whose FFT is computed once here; each product
    then costs one real FFT pair of length ``L``.  A ``(..., M)`` stack is
    multiplied row by row in one call.  Complex vectors are multiplied as
    their real and imaginary parts; an all-zero imaginary part (a real
    vector passed as complex) costs no product.
    """
    col = kernel_column(float(delta_alpha), size)
    length = _fft_length(2 * size - 1)
    circulant = np.zeros(length)
    circulant[:size] = col
    circulant[length - size + 1 :] = col[:0:-1]
    spectrum = np.fft.rfft(circulant)
    spectrum.flags.writeable = False

    def matvec(v: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(v):
            if not v.imag.any():
                return matvec(v.real).astype(np.complex128)
            return matvec(v.real) + 1j * matvec(v.imag)
        return np.fft.irfft(spectrum * np.fft.rfft(v, length), length)[..., :size]

    return matvec


def parity_blocks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd half-blocks of a symmetric centrosymmetric matrix ``a``,
    given its first ``n - n//2`` rows.

    ``a[n-1-i, n-1-j] = a[i, j]``, so ``a`` maps sequences with
    ``v[n-1-i] = +-v[i]`` to themselves.  On them it acts as ``A + C`` (even)
    or ``A - C`` (odd), where ``A = a[:m, :m]``, ``C[i, j] = a[i, n-1-j]`` and
    ``m = n // 2``.  An odd ``n`` puts the middle index in the even block, as
    a last row and column scaled by ``sqrt(2)``.  The eigenvalues of ``a``
    are those of the two blocks together.
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


def _at_most_one(vals: np.ndarray, size: int) -> np.ndarray:
    """``vals`` with every value in ``(1, 1 + size*eps]`` set to 1.

    The kernel's spectrum lies in ``[0, 1]``; a saturated eigenvalue rounds
    above 1 by a few eps (8 at dalpha 1, ``dk = 3000``), and a value further
    above raises InternalConsistencyError.
    """
    top = float(np.max(vals))
    if top > 1.0 + size * _EPS:
        raise InternalConsistencyError(f"eigenvalue {top!r} above 1")
    return np.minimum(vals, 1.0)


def _dense_eigenvalues(delta_alpha: float, delta_k: int) -> np.ndarray:
    """All eigenvalues of the kernel, descending: ``eigh`` of its even and
    odd half-blocks (``parity_blocks``).

    Row ``i`` of the kernel is the window of the mirrored column
    ``col[M-1:0:-1], col`` that starts at ``M-1-i``; the blocks are built
    from a read-only view of the first ``M - M//2`` of those rows, so the
    ``M x M`` kernel is never formed.

    Raises ConvergenceFailureError when an eigenpair's residual exceeds
    ``1e-12 * (dk+1)``.
    """
    size = delta_k + 1
    col = kernel_column(float(delta_alpha), size)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((col[:0:-1], col)), size)
    vals, residual = [], 0.0
    for block in parity_blocks(windows[::-1][: size - size // 2]):
        w, u = np.linalg.eigh(block)
        columns = np.linalg.norm(block @ u - u * w, axis=0)
        residual = max(residual, float(columns.max(initial=0.0)))
        vals.append(w)
    if residual > 1e-12 * size:
        raise ConvergenceFailureError(
            f"eigensolve residual {residual:.3e} exceeds {1e-12 * size:.3e}"
        )
    vals = np.concatenate(vals)
    return vals[np.argsort(-vals, kind="stable")]


def _tail_bound(delta_alpha: float, size: int, degrees: int) -> float:
    """``B_K`` with ``K = degrees``: every eigenvalue of index ``>= K`` lies
    in ``[0, B_K]``.

    For a unit ``v`` orthogonal to the polynomials of degree below ``K`` on
    ``x_n = n - (M-1)/2``, ``V(t) = sum_n v_n e^{i x_n t}`` has a zero of
    order ``K`` at 0, so ``|V(t)| <= |t|^K |x^K|_2 / K!`` and
    ``v.Gv = (1/2pi) int_{-a}^{a} |V|^2 <= a^{2K+1} |x^K|^2 / (pi (2K+1) K!^2)``
    with ``a = dalpha/2``; Courant-Fischer gives the rest.  ``x^{2K}`` is
    convex, so ``|x^K|^2 <= int_{-M/2}^{M/2} x^{2K} = 2 (M/2)^{2K+1}/(2K+1)``,
    and ``B_K = 2 c^{2K+1} / (pi (2K+1)^2 K!^2)`` with ``c = a M/2 =
    pi xi/2``: the same whatever ``dk``.  Taken in logs, and ``inf`` where
    it exceeds the float range.
    """
    c = 0.25 * delta_alpha * size
    k = float(degrees)
    log_bound = (
        (2 * k + 1) * math.log(c)
        - 2 * math.log(2 * k + 1)
        - 2 * math.lgamma(k + 1)
        + math.log(2 / math.pi)
    )
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


def kernel_eigenvalues(delta_alpha: float, delta_k: int) -> np.ndarray:
    """All ``dk+1`` eigenvalues of the kernel, descending.

    The kernel is compressed onto the orthonormal Gram polynomials ``p_k``
    of degree below ``K`` (``_gram_block``'s recurrence): ``H = P G P^T``
    for the ``(K, M)`` rows ``P``, with ``G P^T`` taken by stacked FFT
    products (``kernel_operator``) of 8 rows at a time, as is the Ritz
    residual, so that no temporary exceeds 8 rows (76 MiB in all at
    ``dk = 1e5``, xi 2).  Even and odd degrees do not couple, so
    ``H`` splits into two ``K/2`` blocks, solved by one stacked ``eigh``;
    their Ritz values are the first ``K`` eigenvalues.  ``K`` is the
    smallest multiple of 8 whose ``_tail_bound`` is at most ``_TAIL_TOL``,
    so every later index, printed as 0, is certified within 1e-30 of its
    value (16 degrees at xi 0.5, 32 at xi 3, 96 at xi 16, whatever ``dk``).
    The list is sorted whole: Ritz values that are noise below about eps
    may come out slightly negative.

    The recurrence keeps the rows orthonormal to about 1e-14 only up to
    about ``2 sqrt(M)`` degrees, ``M = dk+1`` (past that, polynomials on an
    equispaced grid grow exponentially towards its ends, Coppersmith and
    Rivlin 1992; 1e-12 is lost near ``4 sqrt(M)``).  Where ``K^2 > 4M`` the
    dense parity blocks answer instead (``_dense_eigenvalues``, built from
    ``kernel_column`` without the ``M x M`` kernel): below ``dk = 63``
    at xi 0.5, ``dk = 255`` at xi 3 and ``dk = 2303`` at xi 16.  ``dk = 0``
    and ``dalpha`` 0 or ``2*pi`` give the exact values of the dense solve.

    No value is above 1 (``_at_most_one``).

    Raises ConvergenceFailureError when a Ritz pair's residual exceeds
    ``1e-12 * (dk+1)`` or the rows' orthogonality defect exceeds 1e-12.
    """
    check_domain(delta_alpha, delta_k)
    size = delta_k + 1
    if size == 1 or delta_alpha in (0.0, TWO_PI):
        return np.full(size, float(delta_alpha) / TWO_PI)
    degrees = 8
    while degrees**2 <= 4 * size and _tail_bound(delta_alpha, size, degrees) > _TAIL_TOL:
        degrees += 8
    if degrees**2 > 4 * size:
        return _at_most_one(_dense_eigenvalues(delta_alpha, delta_k), size)

    b = _gram_block(delta_alpha, size, degrees)[2]
    x = np.arange(size) - 0.5 * (size - 1)
    basis = np.empty((degrees, size))
    basis[0] = 1.0 / math.sqrt(size)
    basis[1] = x * basis[0] / b[1]
    for k in range(2, degrees):
        basis[k] = (x * basis[k - 1] - b[k - 1] * basis[k - 2]) / b[k]
    orth = float(np.abs(basis @ basis.T - np.eye(degrees)).max())
    if orth > 1e-12:
        raise ConvergenceFailureError(
            f"Gram basis orthogonality defect {orth:.3e} exceeds 1e-12"
        )

    apply = kernel_operator(delta_alpha, size)
    image = np.empty_like(basis)
    for i in range(0, degrees, 8):
        image[i : i + 8] = apply(basis[i : i + 8])
    # row p of the stack holds the degrees of parity p
    basis = basis.reshape(-1, 2, size).swapaxes(0, 1)
    image = image.reshape(-1, 2, size).swapaxes(0, 1)
    blocks = basis @ image.swapaxes(1, 2)
    theta, coeffs = np.linalg.eigh(0.5 * (blocks + blocks.swapaxes(1, 2)))
    coeffs = coeffs.swapaxes(1, 2)
    residual = 0.0
    for i in range(0, degrees // 2, 4):  # 4 Ritz vectors of each parity
        rows = coeffs[:, i : i + 4]
        ritz = rows @ image - theta[:, i : i + 4, None] * (rows @ basis)
        residual = max(residual, float(np.linalg.norm(ritz, axis=2).max()))
    if residual > 1e-12 * size:
        raise ConvergenceFailureError(
            f"Ritz residual {residual:.3e} exceeds {1e-12 * size:.3e}"
        )
    vals = np.zeros(size)
    vals[:degrees] = theta.ravel()
    return _at_most_one(np.sort(vals)[::-1], size)


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


def _gram_block(
    delta_alpha: float, size: int, degrees: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Even block of Slepian's T, less ``(M^2-1)/4``, in the Gram basis.

    The orthonormal discrete Chebyshev (Gram) polynomials ``p_k`` on
    ``x_n = n - (M-1)/2`` satisfy ``x p_k = b_{k+1} p_{k+1} + b_k p_{k-1}``
    with ``b_k = (k/2) sqrt((M^2-k^2)/(4k^2-1))``, and in their basis T is
    ``diag((M^2-1)/4 - k(k+1)/2) - 2 sin^2(dalpha/4) J^2``, where ``J`` is the
    Jacobi matrix of the ``b_k``.  ``J^2`` couples degree ``k`` only with
    ``k`` and ``k +- 2``, so the even degrees ``0, 2, ..., degrees-2`` give a
    tridiagonal block.  The constant ``(M^2-1)/4`` (2.5e9 at ``M = 1e5``) is
    left out, or it would swamp the vector's digits.  In the basis
    ``(-1)^(k/2) p_k`` the block's off-diagonal is positive, so its top vector
    is positive, as ``_top_eigenvector``'s start assumes.

    Returns the block's diagonal and off-diagonal and ``b_0 .. b_{degrees-1}``
    (``b_0 = 0``).  Degrees ``k >= M`` vanish on the grid: ``b_M = 0``
    decouples them, and the square root is clipped at 0 beyond it.
    """
    k = np.arange(1, degrees, dtype=float)
    b = np.zeros(degrees)
    b[1:] = 0.5 * k * np.sqrt(np.maximum(size * size - k * k, 0.0) / (4.0 * k * k - 1.0))
    scale = 2.0 * math.sin(0.25 * delta_alpha) ** 2
    even = np.arange(0, degrees, 2, dtype=float)
    diag = -0.5 * even * (even + 1.0) - scale * (b[::2] ** 2 + b[1::2] ** 2)
    return diag, scale * b[1:-1:2] * b[2::2], b


def _gram_half(delta_alpha: float, size: int) -> np.ndarray | None:
    """First ``(M+1)//2`` entries of T's top vector from the Gram basis, or
    None where the truncation exceeds ``M/4``.

    The block of ``_gram_block`` starts at 32 degrees and doubles until the
    last two coefficients of its top vector fall below 1e-17 (32 degrees up
    to xi = 3, 64 up to xi = 16, 128 up to xi = 100, whatever ``dk``).  The
    vector ``sum_k beta_k p_k(x_n)`` is then summed by the three-term
    recurrence on the first half of the grid: one numpy pass per degree.
    Past ``M/4``
    degrees that recurrence loses digits (2.2e-8 at about ``M/2``), so the
    caller falls back to Slepian's own block.
    """
    degrees = 32
    while degrees <= size / 4:
        diag, off, b = _gram_block(delta_alpha, size, degrees)
        beta = _top_eigenvector(diag, off)
        if np.max(np.abs(beta[-2:])) < 1e-17:
            break
        degrees *= 2
    else:
        return None
    beta[1::2] *= -1.0  # from the basis (-1)^(k/2) p_k back to p_k
    x = np.arange((size + 1) // 2) - 0.5 * (size - 1)
    older, old = np.zeros(x.size), np.full(x.size, 1.0 / math.sqrt(size))
    half = beta[0] * old
    for k in range(1, degrees - 1):
        older, old = old, (x * old - b[k - 1] * older) / b[k]
        if k % 2 == 0:
            half += beta[k // 2] * old
    return half


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
    """Top eigenvector of a symmetric tridiagonal block ``T`` of Slepian's
    matrix: its even block in the Gram basis (``_gram_block``) or over the
    grid (``_slepian_block``).

    The top eigenvalue lies in ``[lo, hi]``, from the largest diagonal entry
    and the largest Gershgorin row bound.  Sturm bisection (``_factor``'s
    count) moves ``lo`` or ``hi`` to each shift until only the top eigenvalue
    lies above ``lo``; that shift is kept as ``floor``.  Rayleigh-quotient
    inverse iteration then finishes the pair (Parlett, *The Symmetric Eigenvalue
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
    the vector is close.  Temple's bound, not a tight start, keeps the count
    of factorisations low: without it the row bound costs about three times
    as many.  When the shift stops moving at rounding level, one more solve
    with the last factorisation brings the vector to rounding too.
    A bracket that collapses before isolating means a top eigenvalue that is
    multiple to rounding.  If the last count there was 0, two solves give a
    vector of it; if it was 2, the factorisation stopped early and
    ConvergenceFailureError is raised.  Both blocks, with a top gap of
    3-7, reach neither case.
    """
    d, e = diag.tolist(), [0.0] + off.tolist()
    upper = e[1:] + [0.0]
    rows = diag + np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
    lo, hi = float(np.max(diag)), float(np.max(rows))
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
    even, so its first half, mirrored, gives the vector.  That half comes
    from T's even block in the Gram basis (``_gram_half``), a block of at most
    ``M/8`` rows, when the truncation stays at or below ``M/4`` degrees;
    otherwise (every ``dk < 127``, and at ``dk = 1000`` from ``xi`` about
    128) it comes from T's even block of ``M/2`` rows (``_slepian_block``),
    the only route accurate there.  The
    eigenvalue is the Rayleigh quotient of the unit vector on the kernel,
    through ``kernel_operator``.  The vector's largest-magnitude entry is
    positive; the 1x1 kernel and the identity kernel ``dalpha == 2*pi``
    give the exact values of the dense solve.  Lower eigenvalues are a
    full-spectrum question, which ``kernel_eigenvalues`` answers.

    The eigenvalue is never above 1 (``_at_most_one``).

    Raises ConvergenceFailureError when the residual target
    ``1e-12 * (dk+1)`` is missed.
    """
    check_domain(delta_alpha, delta_k)
    size = delta_k + 1
    if size == 1 or delta_alpha == TWO_PI:
        vector = np.zeros(size)
        vector[0] = 1.0
        return float(delta_alpha) / TWO_PI, vector

    half = _gram_half(delta_alpha, size)
    if half is None:
        half = _top_eigenvector(*_slepian_block(delta_alpha, size))
        if size % 2:  # undo the block's symmetric scaling of the middle entry
            half[-1] *= math.sqrt(2.0)
    if size % 2:
        vector = np.concatenate((half, half[-2::-1]))
    else:
        vector = np.concatenate((half, half[::-1]))
    vector /= np.linalg.norm(vector)
    if vector[np.argmax(np.abs(vector))] < 0.0:
        vector = -vector

    image = kernel_operator(delta_alpha, size)(vector)
    value = float(vector @ image)
    residual = float(np.linalg.norm(image - value * vector))
    if residual > 1e-12 * size:
        raise ConvergenceFailureError(
            f"top eigenpair residual {residual:.3e} exceeds {1e-12 * size:.3e}"
        )
    return float(_at_most_one(value, size)), vector


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
