"""Infinite number-precision limit of the concentration problem.

Rescaling the support {0..dk} onto [-1, 1] and letting dk grow turns the
matrix eigenproblem into a homogeneous Fredholm integral equation with the
sinc kernel ``sin(pi*xi*(z-z')/2) / (pi*(z-z'))``; its eigenvalues depend
only on the concentration parameter ``xi = dalpha*(dk+1)/(2*pi)``.  The
operator is discretized here with a Gauss-Legendre Nystrom rule, which
converges spectrally because the kernel is entire; doubling the node count
supplies an a posteriori error estimate.  The nodes come from Newton's
method on the Legendre three-term recurrence, in O(n^2) time, rather than
from a companion-matrix eigensolve, and each rule is built once per node
count.  The symmetric nodes and the even kernel make the discretized matrix
centrosymmetric, so it is solved through its even and odd half-blocks
(``kernel.parity_blocks``), as the dense kernel is in ``kernel.eigensystem``.
The module answers two questions: ``nystrom_eigenvalues`` gives the
eigenvalues at ``(xi, nodes)``, from the two blocks and with no eigenvectors
formed, and ``asymptotic_least_upper_bound`` gives the top eigenvalue with
its node-doubling error estimate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailureError, DomainError
from .kernel import check_domain, parity_blocks
from .states import TWO_PI

_REFINE_TOL = 1e-10
_FAIL_TOL = 1e-8
_START_NODES = 32
_MAX_NODES = 4096
_NEWTON_STEPS = 10
_NEWTON_TOL = 1e-17  # node error left after the last Newton step


def concentration_parameter(delta_alpha: float, delta_k: int) -> float:
    """Product of the two precisions, ``dalpha*(dk+1)/(2*pi)``."""
    check_domain(delta_alpha, delta_k)
    return delta_alpha * (delta_k + 1) / TWO_PI


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

    Each rule is built once per node count and shared: the node-doubling
    loop of ``asymptotic_least_upper_bound`` asks for the 32- and 64-node
    rules for every ``xi``, and their Newton iteration cost more than the
    32- and 64-node solves themselves.
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


def asymptotic_least_upper_bound(xi: float) -> tuple[float, float]:
    """Largest eigenvalue of the limiting operator, with an error estimate.

    Doubles the node count from 32 until two successive values agree to
    1e-10, capping at 4096 nodes.  Raises ConvergenceFailureError when the
    cap is reached and the last refinement still moved by 1e-8 or more, and
    DomainError (from ``_nystrom_blocks``) unless ``xi`` is finite and >= 0.
    """
    if xi == 0.0:
        return 0.0, 0.0

    nodes = _START_NODES
    prev = None
    diff = np.inf
    lam = 0.0
    while nodes <= _MAX_NODES:
        lam = float(nystrom_eigenvalues(xi, nodes)[0])
        if prev is not None:
            diff = abs(lam - prev)
            if diff < _REFINE_TOL:
                return lam, diff
        prev = lam
        nodes *= 2
    if diff >= _FAIL_TOL:
        raise ConvergenceFailureError(
            f"top eigenvalue still moving by {diff:.3e} at {_MAX_NODES} nodes"
        )
    return lam, float(diff)
