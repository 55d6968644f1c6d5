"""Dense reference kernel and eigendecomposition, for tests only.

``dense_kernel`` is the whole ``(dk+1) x (dk+1)`` kernel, scipy's Toeplitz
matrix of the program's ``kernel_column``; the program itself never forms
it.  ``eigensystem`` solves that kernel with vectors, O(dk^3), through the
same even and odd half-blocks (``parity_blocks``) as the program's dense
route; ``parity_vectors`` maps the blocks' eigenvectors back to the grid.
The program asks for the eigenvalues alone (``kernel_eigenvalues``) or the
top pair (``leading_eigenpair``); the tests check both against this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from phasebound.errors import ConvergenceFailureError
from phasebound.kernel import kernel_column, parity_blocks


def dense_kernel(delta_alpha: float, delta_k: int) -> np.ndarray:
    """The ``(dk+1) x (dk+1)`` kernel from its first column."""
    return scipy.linalg.toeplitz(kernel_column(float(delta_alpha), delta_k + 1))


@dataclass(frozen=True)
class SpectrumDiagnostics:
    max_residual: float
    orthogonality_defect: float
    top_gap: float  # lambda_0 - lambda_1 (inf for 1x1)


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum, eigenvalues descending, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    diagnostics: SpectrumDiagnostics


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude component is positive."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


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
    """Full symmetric eigendecomposition of the kernel (``dense_kernel``),
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
    entries = dense_kernel(delta_alpha, delta_k)
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

    top_gap = float(vals[0] - vals[1]) if n > 1 else np.inf
    diag = SpectrumDiagnostics(residual, orth, top_gap)

    if residual > 1e-12 * n:
        raise ConvergenceFailureError(
            f"eigensolve residual {residual:.3e} exceeds {1e-12 * n:.3e}"
        )
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SpectrumResult(vals, vecs, diag)
