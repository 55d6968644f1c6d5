"""Brute-force oracles that only the tests use.

``quadrature_probability`` integrates the canonical phase density over a
window with composite Simpson, the density summed pointwise from its Fourier
series, so it shares nothing with the kernel quadratic form of
``povm.interval_probability``.  ``random_state_search`` probes the
variational bound with seeded random states on the dense kernel: no state may
beat ``least_upper_bound``.  The Simpson interval count is a module constant;
the search takes its trial count and seed.
"""

from __future__ import annotations

import numpy as np

from phasebound.kernel import check_domain
from phasebound.states import TWO_PI, FockState, PhaseWindow
from dense_reference import dense_kernel

# Simpson subintervals per full circle
_QUADRATURE_INTERVALS = 4096


def quadrature_probability(state: FockState, window: PhaseWindow) -> float:
    """Composite-Simpson integral of the canonical phase density over the window.

    The density is evaluated directly from the Fourier sum so this path stays
    independent of the kernel quadratic form.
    """
    if window.width == 0.0:
        return 0.0
    lo, hi = window.bounds
    nsub = int(round(_QUADRATURE_INTERVALS * window.width / TWO_PI))
    nsub = max(2, nsub + (nsub % 2))
    phi = np.linspace(lo, hi, nsub + 1)
    j = np.arange(state.size)
    amp = np.exp(-1j * np.outer(phi, j)) @ state.amplitudes
    dens = np.abs(amp) ** 2 / TWO_PI
    h = window.width / nsub
    weights = np.ones(nsub + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(weights, dens))


def random_state_search(
    delta_alpha: float, delta_k: int, trials: int = 1000, seed: int = 0
) -> float:
    """Best quadratic-form value over seeded random normalized states.

    States are drawn with complex Gaussian amplitudes on {0..dk} (the
    rotation-invariant distribution on the sphere), one child seed
    ``seed + trial`` per trial so runs are reproducible and trials could be
    farmed out without changing the result.  ``trials < 1`` raises
    ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_domain(delta_alpha, delta_k)
    g = dense_kernel(delta_alpha, delta_k)
    dim = delta_k + 1
    states = np.empty((trials, dim), dtype=np.complex128)
    for t in range(trials):
        z = np.random.default_rng(seed + t).standard_normal(2 * dim)
        states[t] = z[:dim] + 1j * z[dim:]
    norms = np.linalg.norm(states, axis=1)
    norms[norms == 0.0] = 1.0  # measure-zero guard; value 0 cannot win
    states /= norms[:, None]
    values = np.einsum("td,de,te->t", states.conj(), g, states).real
    return float(values.max())
