"""Infinite number-precision limit: the Legendre-block solve and its Nystrom
oracle."""

import numpy as np
import pytest

from phasebound import (
    ConvergenceFailureError,
    DomainError,
    asymptotic_least_upper_bound,
    concentration_parameter,
    least_upper_bound,
    nystrom_eigenvalues,
    prolate_eigenvalues,
)
from phasebound.oracles import _sinc_kernel, gauss_legendre
from conftest import TWO_PI
from dense_reference import eigensystem

XI_GRID = tuple(0.25 * k for k in range(1, 17))  # 0.25 .. 4.0


class TestConcentrationParameter:
    def test_anchor_values(self):
        assert concentration_parameter(np.pi, 1) == pytest.approx(1.0, abs=1e-15)
        assert concentration_parameter(TWO_PI, 0) == pytest.approx(1.0, abs=1e-15)
        assert concentration_parameter(0.1, 99) == pytest.approx(
            1.5915494309189535, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            concentration_parameter(-1.0, 3)


class TestAsymptoticProblem:
    def test_kernel_symmetry_and_diagonal(self):
        z = np.linspace(-1.0, 1.0, 9)
        k = _sinc_kernel(1.5, z[:, None], z[None, :])
        assert np.allclose(k, k.T, atol=1e-15)
        assert np.allclose(np.diagonal(k), 1.5 / 2.0, atol=1e-15)

    def test_continuum_trace(self):
        # integral of the constant diagonal over [-1, 1] equals xi
        assert 2.0 * _sinc_kernel(0.8, np.array(0.3), np.array(0.3)) == pytest.approx(0.8)

    def test_taylor_switch_is_continuous(self):
        # np.sinc must match the direct quotient just below |x| = 1e-4
        c = 0.5 * np.pi * 2.0
        for factor in (0.2, 0.9, 0.999):
            d = factor * 1e-4 / c
            x = c * d
            direct = np.sin(x) / (np.pi * d)
            assert float(_sinc_kernel(2.0, np.array(d), np.array(0.0))) == pytest.approx(
                direct, abs=1e-15
            )
        assert _sinc_kernel(2.0, np.array(0.0), np.array(0.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("xi,nodes", [(-0.5, 8), (1.0, 1), (np.nan, 8), (1.0, 2.5)])
    def test_domain(self, xi, nodes):
        with pytest.raises(DomainError):
            nystrom_eigenvalues(xi, nodes)


class TestNystromSpectrum:
    def test_zero_concentration(self):
        vals = nystrom_eigenvalues(0.0, 16)
        assert np.allclose(vals, 0.0, atol=1e-15)

    def test_weighted_diagonal_trace(self):
        z, w = gauss_legendre(64)
        diag = _sinc_kernel(1.0, z, z)
        assert np.dot(w, diag) == pytest.approx(1.0, abs=1e-13)

    def test_two_resolution_agreement(self):
        lam64 = nystrom_eigenvalues(1.0, 64)[0]
        lam128 = nystrom_eigenvalues(1.0, 128)[0]
        assert abs(lam64 - lam128) < 1e-10

    def test_eigenvalue_sum_matches_concentration(self):
        for xi in (0.5, 1.0, 2.5, 4.0):
            for nodes in (64, 128):
                vals = nystrom_eigenvalues(xi, nodes)
                assert np.sum(vals) == pytest.approx(xi, abs=1e-10)
                assert np.all(vals <= 1.0 + 1e-12)
                assert np.all(vals >= -1e-12)

    def test_spectral_decay(self):
        vals = nystrom_eigenvalues(1.0, 64)
        lead = vals[:8]
        assert np.all(np.diff(lead) < 0.0)
        assert vals[3] < 1e-3

    def test_plunge_matches_discrete_route(self):
        # same operator through the uniform-support matrix at dk = 500
        disc = eigensystem(TWO_PI / 501.0, 500).eigenvalues
        nys = nystrom_eigenvalues(1.0, 64)
        assert abs(nys[3] - disc[3]) / disc[3] < 0.10


def dense_weighted_matrix(xi, z, w):
    """The full symmetrized Nystrom matrix sqrt(w_i) K(z_i, z_j) sqrt(w_j)."""
    sw = np.sqrt(w)
    a = sw[:, None] * _sinc_kernel(xi, z[:, None], z[None, :]) * sw[None, :]
    return 0.5 * (a + a.T)


class TestParitySolve:
    @pytest.mark.parametrize("nodes", [2, 3, 64, 65, 1025])
    def test_matches_dense_solve(self, nodes):
        for xi in (0.5, 3.0):
            z, w = gauss_legendre(nodes)
            a = dense_weighted_matrix(xi, z, w)
            dense = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.max(np.abs(nystrom_eigenvalues(xi, nodes) - dense)) < 1e-14


def mp_legendre_refinement(n, x0):
    """Node and weight after Newton's method at 40 digits from ``x0``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x0))
        for _ in range(10):
            prev, cur = mpmath.mpf(1), x
            for k in range(1, n):
                prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
            deriv = n * (x * cur - prev) / (x * x - 1)
            step = cur / deriv
            x -= step
            if abs(step) < mpmath.mpf(10) ** -36:
                break
        return x, 2 / ((1 - x * x) * deriv * deriv)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [2, 3, 64, 65, 1024])
    def test_matches_mpmath_refinement(self, n):
        # numpy's leggauss misses the n=1024 end weights by 1.2e-9
        z, w = gauss_legendre(n)
        for i in sorted({0, 1, n // 2, n - 1}):
            x, weight = mp_legendre_refinement(n, z[i])
            assert abs(z[i] - float(x)) <= 1e-16
            assert abs(w[i] - float(weight)) <= 1e-11 * float(weight)

    def test_symmetric_rule_matches_leggauss(self):
        for n in range(2, 301):
            z, w = gauss_legendre(n)
            assert np.all(np.diff(z) > 0.0)
            assert np.array_equal(z, -z[::-1])
            assert np.array_equal(w, w[::-1])
            if n % 2:
                assert z[n // 2] == 0.0
            assert abs(w.sum() - 2.0) <= 1e-14
            assert np.max(np.abs(z - np.polynomial.legendre.leggauss(n)[0])) <= 2e-16

    def test_newton_cap(self, monkeypatch):
        import phasebound.oracles as oracles

        monkeypatch.setattr(oracles, "_NEWTON_STEPS", 1)
        gauss_legendre.cache_clear()
        with pytest.raises(ConvergenceFailureError, match="nodes for n=64 did not converge"):
            gauss_legendre(64)

    @pytest.mark.parametrize("nodes", [1024, 4096])
    def test_high_node_count_matches_converged_value(self, nodes):
        # 48 nodes resolve the top eigenvalue to rounding for xi <= 3; more
        # nodes may only add rounding, not quadrature bias
        for xi in (0.5, 1.7, 3.0):
            converged = nystrom_eigenvalues(xi, 48)[0]
            assert abs(nystrom_eigenvalues(xi, nodes)[0] - converged) <= 2e-15


class TestAsymptoticLeastUpperBound:
    def test_zero(self):
        assert asymptotic_least_upper_bound(0.0) == (0.0, 0.0)
        assert not np.signbit(asymptotic_least_upper_bound(-0.0)[0])

    def test_small_concentration_linear(self):
        lam, err = asymptotic_least_upper_bound(0.1)
        assert 0.99 <= lam / 0.1 <= 1.0
        assert err < 1e-10

    def test_large_concentration_saturates(self):
        lam, _ = asymptotic_least_upper_bound(4.0)
        assert lam > 0.999

    def test_monotone_increasing(self):
        lams = [asymptotic_least_upper_bound(xi)[0] for xi in XI_GRID]
        assert np.all(np.diff(lams) > 0.0)

    def test_bounded_by_concentration(self):
        for xi in XI_GRID:
            lam, _ = asymptotic_least_upper_bound(xi)
            assert 0.0 <= lam <= min(1.0, xi)

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_least_upper_bound(-0.2)

    def test_node_cap_failure(self, monkeypatch):
        # cap the refinement below its first comparison to exercise the error path
        import phasebound.asymptotic as asym

        monkeypatch.setattr(asym, "_MAX_DEGREES", 64)
        with pytest.raises(
            ConvergenceFailureError, match="still moving by inf .* at 64 Legendre degrees"
        ):
            asymptotic_least_upper_bound(1.0)


def mp_rayleigh_step(d, o, chi, x):
    """One Rayleigh-quotient step on the tridiagonal (d, o): solve
    ``(T - chi) y = x`` by the Thomas algorithm, normalize, take the
    quotient."""
    mpmath = pytest.importorskip("mpmath")
    n = len(d)
    lower, y = [0] * n, [0] * n
    for i in range(n):
        den = d[i] - chi - (o[i - 1] * lower[i - 1] if i else 0)
        lower[i] = o[i] / den if i < n - 1 else 0
        y[i] = (x[i] - (o[i - 1] * y[i - 1] if i else 0)) / den
    for i in range(n - 2, -1, -1):
        y[i] -= lower[i] * y[i + 1]
    norm = mpmath.sqrt(mpmath.fsum(v * v for v in y))
    x = [v / norm for v in y]
    tx = [d[i] * x[i] for i in range(n)]
    for i in range(n - 1):
        tx[i] += o[i] * x[i + 1]
        tx[i + 1] += o[i] * x[i]
    return mpmath.fsum(a * b for a, b in zip(x, tx)), x


def mp_prolate_reference(xi, count, degrees=128, dps=50):
    """The first ``count`` eigenvalues of the sinc operator from the same
    Legendre blocks at ``dps`` digits: two Rayleigh-quotient steps from
    float64 eigenpairs, then ``lambda_n = c mu_n^2/(2*pi)`` from the refined
    vector."""
    mpmath = pytest.importorskip("mpmath")
    out = np.zeros(count)
    with mpmath.workdps(dps):
        c = mpmath.pi * mpmath.mpf(xi) / 2
        at_zero = [mpmath.mpf(1)]  # P_{2i}(0)
        for i in range(1, degrees // 2):
            at_zero.append(-at_zero[-1] * (2 * i - 1) / (2 * i))
        for parity in (0, 1):
            ks = [mpmath.mpf(k) for k in range(parity, degrees, 2)]
            d = [k * (k + 1) + c * c * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1)) for k in ks]
            o = [
                c * c * (k + 1) * (k + 2) / ((2 * k + 3) * mpmath.sqrt((2 * k + 1) * (2 * k + 5)))
                for k in ks[:-1]
            ]
            dense = np.diag(np.array(d, dtype=float)) + np.diag(np.array(o, dtype=float), -1)
            start_chi, start_x = np.linalg.eigh(dense)
            weight = [mpmath.sqrt(k + 0.5) * p * (k if parity else 1) for k, p in zip(ks, at_zero)]
            scale = mpmath.sqrt(2) if parity == 0 else c * mpmath.sqrt(mpmath.mpf(2) / 3)
            for index in range(parity, count, 2):
                chi = mpmath.mpf(start_chi[index // 2])
                x = [mpmath.mpf(v) for v in start_x[:, index // 2]]
                for _ in range(2):
                    chi, x = mp_rayleigh_step(d, o, chi, x)
                mu = scale * x[0] / mpmath.fsum(w * v for w, v in zip(weight, x))
                out[index] = float(c * mu * mu / (2 * mpmath.pi))
    return out


class TestProlateEigenvalues:
    @pytest.mark.parametrize("xi", [0.5, 1.0, 1.7, 3.0, 8.0, 16.0])
    def test_matches_mpmath_reference(self, xi):
        vals = prolate_eigenvalues(xi, 1024)
        ref = mp_prolate_reference(xi, 60)
        big = ref >= 1e-12
        assert np.max(np.abs(vals[:60][big] - ref[big]) / ref[big]) <= 1e-12
        assert np.max(np.abs(vals[:60] - ref)) <= 1e-14
        # small values keep their relative accuracy too, down to where the
        # reference's first coefficient (about sqrt(value)) nears its 1e-50
        # absolute error
        small = ref >= 1e-60
        assert np.max(np.abs(vals[:60][small] - ref[small]) / ref[small]) <= 1e-12
        # past the reference every value is below its absolute tolerance
        assert np.max(vals[60:]) <= 1e-14
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 0.0)

    @pytest.mark.parametrize("xi", [0.5, 1.7, 3.0, 8.0, 16.0])
    def test_matches_nystrom_oracle(self, xi):
        assert np.max(np.abs(prolate_eigenvalues(xi, 1024) - nystrom_eigenvalues(xi, 1024))) <= 1e-14

    @pytest.mark.parametrize("xi", [0.0, -0.0])
    def test_zero_concentration(self, xi):
        vals = prolate_eigenvalues(xi, 1024)
        assert vals.shape == (1024,)
        assert np.all(vals == 0.0)
        assert not np.any(np.signbit(vals))  # no -0 in the output

    @pytest.mark.parametrize("count", [1, 2, 7, 64, 65, 1023, 1024])
    def test_counts(self, count):
        full = prolate_eigenvalues(1.7, 1024)
        vals = prolate_eigenvalues(1.7, count)
        assert vals.shape == (count,)
        assert np.max(np.abs(vals - full[:count])) <= 1e-15

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_count_domain(self, count):
        with pytest.raises(DomainError, match="must be an integer >= 1"):
            prolate_eigenvalues(1.0, count)

    def test_truncation_cap(self, monkeypatch):
        # 128 degrees resolve no eigenvalue at xi = 300
        import phasebound.asymptotic as asym

        monkeypatch.setattr(asym, "_MAX_DEGREES", 128)
        with pytest.raises(ConvergenceFailureError, match="still moving by .* at 128 Legendre degrees"):
            prolate_eigenvalues(300.0, 1)

    def test_saturated_value_clamped(self):
        # at xi = 16 the top value rounds to 1 + 2 ulps before the clamp
        vals = prolate_eigenvalues(16.0, 64)
        assert vals[0] == 1.0
        assert np.all(vals <= 1.0)

    def test_blocks_per_call(self, monkeypatch):
        # at xi <= 3 the first 1024 values need two truncations, 64 and 128
        # degrees, so no block passed to eigh has more than 64 rows
        rows = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            rows.append(a.shape[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for xi in (0.5, 1.0, 1.7, 3.0):
            prolate_eigenvalues(xi, 1024)
        assert rows and max(rows) <= 64


def discrete_and_asymptote(xi, dk):
    """lambda0 at ``dalpha = 2*pi*xi/(dk+1)`` and its ``dk -> inf`` limit at ``xi``."""
    return least_upper_bound(TWO_PI * xi / (dk + 1), dk)[0], asymptotic_least_upper_bound(xi)[0]


class TestDiscreteToAsymptotic:
    def test_convergence_at_unit_concentration(self):
        discrete, asymptote = discrete_and_asymptote(1.0, 200)
        assert abs(discrete - asymptote) < 1e-3

    def test_differences_shrink(self):
        diffs = []
        for dk in (10, 50, 200):
            discrete, asymptote = discrete_and_asymptote(1.0, dk)
            diffs.append(abs(discrete - asymptote))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_single_support_sits_above_asymptote(self):
        discrete, asymptote = discrete_and_asymptote(0.5, 0)
        assert discrete == pytest.approx(0.5, abs=1e-15)
        assert asymptote < 0.5
        assert discrete - asymptote > 0.0

    def test_implied_width_domain(self):
        with pytest.raises(DomainError):
            discrete_and_asymptote(3.0, 1)  # dalpha would exceed 2*pi
