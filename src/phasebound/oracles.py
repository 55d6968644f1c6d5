"""Independent checks for the closed-form machinery.

The top eigenvalue is re-derived from the power iterates of a random start
(``bound --verify`` runs it), and the spectrum of the ``dk -> inf`` sinc
operator by Gauss-Legendre quadrature.  Each oracle takes only the
parameters its callers vary: ``power_iteration`` its cap on kernel products,
``nystrom_eigenvalues`` its ``xi`` and node count.  The power-iteration
tolerance and seed are module constants.  Two brute-force checks are test
code and live in ``tests/reference_oracles.py``: a Simpson integral of the
density and a random-state search of the variational bound.

The power-iteration oracle multiplies by the kernel through
``kernel.kernel_operator``, the FFT product that ``leading_eigenpair`` and
``povm.interval_probability`` also use, so the product itself is not
re-derived here.  Its independence lies elsewhere: it takes the
Rayleigh-Ritz pair of the Krylov space of those products (Lanczos) and
accepts it only on the residual of one more product, a different
eigen-algorithm on a different matrix from the Sturm isolation plus
Rayleigh-quotient inverse iteration on Slepian's tridiagonal matrix that
gives the bound.  The tests check the FFT product against the dense matrix.

``nystrom_eigenvalues`` discretizes the sinc operator with a Gauss-Legendre
Nystrom rule, which converges spectrally because the kernel is entire.  The
nodes come from Newton's method on the Legendre three-term recurrence, in
O(n^2) time, rather than from a companion-matrix eigensolve.  The symmetric
nodes and the even kernel make the discretized matrix centrosymmetric, so it
is solved through its even and odd half-blocks (``kernel.parity_blocks``),
with no eigenvectors formed.  It shares nothing with the Legendre-basis
solve of ``asymptotic.prolate_eigenvalues`` but the operator: there the
eigenvalues come from the prolate differential operator's eigenvectors,
here from a dense matrix of kernel values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailureError, DomainError
from .kernel import check_domain, kernel_operator, parity_blocks


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool
    gap_degenerate: bool


# most Krylov vectors one Lanczos run keeps before it restarts from its Ritz
# vector; the basis takes O(_BASIS * dk) memory
_BASIS = 32
# residual that declares the power-iteration pair converged, and the seed of
# its start vector
_POWER_TOLERANCE = 1e-12
_POWER_SEED = 0


def power_iteration(
    delta_alpha: float, delta_k: int, max_iterations: int = 100_000
) -> PowerIterationResult:
    """Dominant eigenpair of the kernel: the Rayleigh-Ritz pair of the Krylov
    space spanned by the power iterates of a seeded start.

    Lanczos builds an orthonormal basis of that space with full
    reorthogonalisation (two Gram-Schmidt passes), and the top eigenpair of
    its tridiagonal projection is the Ritz pair (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 13).  A run stops when the Lanczos estimate
    ``beta_k |y_k|`` of the Ritz residual reaches ``_POWER_TOLERANCE``, or when
    it holds ``_BASIS`` vectors; the next run starts from the Ritz vector.
    The first product of each run gives the start's true residual
    ``||G x - (x.Gx) x||``, and only that residual declares convergence
    (``<= _POWER_TOLERANCE``).  A start whose product is zero lies in the
    kernel's null space and is drawn again.  ``iterations`` counts kernel
    products, which ``max_iterations`` caps.

    A multi-dimensional kernel that converges on the very first product can
    only have handed the random start an eigenvector, so the result is
    flagged ``gap_degenerate``.  Running out of products flags
    ``converged=False`` and returns the last Ritz pair with the Lanczos
    estimate as its residual.  Neither condition raises: callers use the
    flags to skip comparisons.  ``dalpha == 0`` gives the zero kernel and
    raises DomainError, and ``max_iterations < 1`` ValueError.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    check_domain(delta_alpha, delta_k)
    if delta_alpha == 0.0:
        raise DomainError("power iteration needs a nonzero kernel")
    dim = delta_k + 1
    apply = kernel_operator(delta_alpha, dim)
    rng = np.random.default_rng(_POWER_SEED)
    x = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    basis = np.empty((_BASIS, dim))
    # tridiagonal projection, filled in place: eigh reads only its lower
    # triangle, so the upper one is never written
    projection = np.zeros((_BASIS, _BASIS))

    value, residual, products = 0.0, np.inf, 0
    while products < max_iterations:
        w = apply(x)
        products += 1
        if not w.any():  # start landed in the kernel's null space
            x = rng.standard_normal(dim)
            x /= np.linalg.norm(x)
            continue
        value = float(x @ w)
        residual = float(np.linalg.norm(w - value * x))
        if residual <= _POWER_TOLERANCE:
            return PowerIterationResult(
                value=value,
                vector=x,
                iterations=products,
                residual=residual,
                converged=True,
                gap_degenerate=(dim > 1 and products == 1),
            )
        # Lanczos run from x; w is the product of the newest basis vector
        basis[0] = x
        size = 0
        while True:
            known = basis[: size + 1]
            first = known @ w
            w -= first @ known
            second = known @ w
            w -= second @ known
            projection[size, size] = first[-1] + second[-1]
            size += 1
            theta, ritz = np.linalg.eigh(projection[:size, :size])
            norm = float(np.linalg.norm(w))
            residual = norm * abs(float(ritz[-1, -1]))
            if (
                residual <= _POWER_TOLERANCE
                or size == _BASIS
                or products == max_iterations
            ):
                break
            projection[size, size - 1] = norm
            basis[size] = w / norm
            w = apply(basis[size])
            products += 1
        x = ritz[:, -1] @ basis[:size]
        x /= np.linalg.norm(x)
        value = float(theta[-1])
    return PowerIterationResult(
        value=value,
        vector=x,
        iterations=products,
        residual=residual,
        converged=False,
        gap_degenerate=False,
    )


_NEWTON_STEPS = 10
_NEWTON_TOL = 1e-17  # node error left after the last Newton step


def _sinc_kernel(xi: float, z: np.ndarray, zp: np.ndarray) -> np.ndarray:
    """The sinc kernel at concentration ``xi``; broadcasts over the arguments.

    ``sin(pi*xi*d/2) / (pi*d)`` is ``(xi/2) sinc(xi*d/2)`` in numpy's
    normalised ``sinc``, which is 1 at 0 and needs no series near it.
    """
    half = 0.5 * xi
    return half * np.sinc(half * (z - zp))


@lru_cache(maxsize=8)
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1], read-only.

    Newton's method on ``P_n`` from Tricomi's guesses for the nonnegative
    half, with ``P_n`` and ``P_n'`` from the three-term recurrence, vectorised
    over the nodes: O(n^2) (Hale & Townsend 2013, SIAM J. Sci. Comput. 35).
    Weights are ``2 / ((1 - x^2) P_n'(x)^2)``; both halves are mirrored, so
    the nodes are exactly antisymmetric, with the middle node exactly 0 for
    odd ``n``.  Legendre's equation gives ``P_n''/P_n' = 2x/(1-x^2)`` at a
    root, so a Newton step ``s`` leaves an error of about
    ``s^2 |x|/(1-x^2)``; iteration stops once that is below ``_NEWTON_TOL``
    for every node, and raises ConvergenceFailureError if it is not after
    ``_NEWTON_STEPS`` steps.

    Each rule is built once per node count and shared: at small node counts
    its Newton iteration costs more than the Nystrom solve itself, and the
    oracle is called at a few node counts over many ``xi``.
    """
    k = np.arange(1, (nodes + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * nodes + 2)
    x = np.cos(theta) * (1 - (nodes - 1) / (8 * nodes**3))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(nodes, x)
        step = p / dp
        x -= step
        if np.max(step * step * np.abs(x) / (1.0 - x * x)) <= _NEWTON_TOL:
            break
    else:
        raise ConvergenceFailureError(
            f"Gauss-Legendre nodes for n={nodes} did not converge"
        )
    _, dp = _legendre(nodes, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    m = nodes // 2
    if nodes % 2:
        x[-1] = 0.0
    rule = np.concatenate((-x[:m], x[::-1])), np.concatenate((w[:m], w[::-1]))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_n(x)`` and ``P_n'(x)`` by ``(k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}``.

    The integer coefficients are exact: a rounded ratio such as ``k/(k+1)``
    would be the same for every node and bias all the weights one way (their
    sum came out 6e-15 above 2 at n = 4096).
    """
    prev, cur = np.ones_like(x), x.copy()
    xp = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, cur, out=xp)
        xp *= 2 * k + 1
        prev *= -k
        prev += xp
        prev /= k + 1
        prev, cur = cur, prev
    return cur, n * (x * cur - prev) / (x * x - 1.0)


def _nystrom_blocks(xi: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd half-blocks of the weighted Nystrom matrix.

    Gauss-Legendre nodes are symmetric (``z[n-1-i] = -z[i]``) and the kernel
    depends on ``z - z'`` and is even, so ``a = sqrt(w_i) K(z_i, z_j) sqrt(w_j)``
    is centrosymmetric and ``kernel.parity_blocks`` splits it.  Only the
    first ``n - n//2`` kernel rows are evaluated.

    Raises DomainError unless ``xi`` is finite and >= 0 and ``nodes`` is an
    integer >= 2.
    """
    if not np.isfinite(xi) or xi < 0.0:
        raise DomainError(f"xi {xi} must be finite and >= 0")
    if not isinstance(nodes, (int, np.integer)) or nodes < 2:
        raise DomainError(f"nodes {nodes} must be an integer >= 2")
    xi, nodes = float(xi), int(nodes)
    z, w = gauss_legendre(nodes)
    sw = np.sqrt(w)
    top = nodes - nodes // 2
    rows = sw[:top, None] * _sinc_kernel(xi, z[:top, None], z[None, :]) * sw[None, :]
    return parity_blocks(rows)


def nystrom_eigenvalues(xi: float, nodes: int) -> np.ndarray:
    """Nystrom eigenvalues, descending, from ``eigvalsh`` on the two parity
    blocks; no eigenvectors are formed."""
    even, odd = _nystrom_blocks(xi, nodes)
    vals = np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)])
    return vals[np.argsort(-vals, kind="stable")]
