"""Concentration kernel construction and spectrum."""

import bisect
import math
import tracemalloc

import numpy as np
import pytest

from phasebound import (
    ConvergenceFailureError,
    DomainError,
    NumberWindow,
    PhaseWindow,
    build_kernel,
    cauchy_bound,
    conditional_probability,
    eigensystem,
    leading_eigenpair,
    least_upper_bound,
    power_iteration,
    random_state_search,
    second_eigenvalue_bound,
)
import phasebound.kernel as kernel_module
from phasebound.kernel import (
    _factor,
    _fft_length,
    _slepian_block,
    _solve,
    _top_eigenvector,
    kernel_column,
    parity_blocks,
    toeplitz_from_column,
    toeplitz_operator,
)
from conftest import TWO_PI

DALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 6.2)
DK_GRID = tuple(range(17))

# closed forms for the two smallest supports
def lam0_dk0(dalpha):
    return dalpha / TWO_PI


def lam0_dk1(dalpha):
    return dalpha / TWO_PI + np.sin(dalpha / 2.0) / np.pi


class TestBuildKernel:
    def test_small_matrix_entries(self):
        g = build_kernel(np.pi, 1).entries
        assert g[0, 0] == g[1, 1] == pytest.approx(0.5)
        assert g[0, 1] == g[1, 0] == pytest.approx(1.0 / np.pi)

    def test_full_width_gives_identity(self):
        g = build_kernel(TWO_PI, 3).entries
        assert np.array_equal(g, np.eye(4))

    def test_zero_width_gives_zero(self):
        assert not np.any(build_kernel(0.0, 4).entries)

    def test_symmetric_toeplitz(self):
        g = build_kernel(2.3, 9).entries
        assert np.array_equal(g, g.T)
        for d in range(1, 10):
            band = np.diagonal(g, offset=d)
            assert np.all(band == band[0])

    def test_trace_identity(self):
        k = build_kernel(1.7, 12)
        assert np.trace(k.entries) == pytest.approx(13 * 1.7 / TWO_PI, abs=1e-12)

    @pytest.mark.parametrize("dalpha,dk", [(-0.1, 1), (TWO_PI + 0.1, 1), (np.nan, 1), (1.0, -1)])
    def test_domain(self, dalpha, dk):
        with pytest.raises(DomainError):
            build_kernel(dalpha, dk)

    def test_non_integer_dk(self):
        with pytest.raises(DomainError):
            build_kernel(1.0, 1.5)


class TestToeplitzOperator:
    @staticmethod
    def gathered(col):
        """Reference: gather the matrix through an index matrix."""
        n = col.size
        return col[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]

    @pytest.mark.parametrize("n", [1, 2, 7, 1200])
    def test_dense_matches_gather(self, n):
        col = kernel_column(1.3, n)
        dense = toeplitz_from_column(col)
        assert np.array_equal(dense, self.gathered(col))
        assert dense.flags.c_contiguous

    def test_dense_allocates_only_the_result(self):
        col = kernel_column(1.3, 1200)
        tracemalloc.start()
        try:
            dense = toeplitz_from_column(col)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * dense.nbytes

    @pytest.mark.parametrize("n", [1, 2, 3, 1117, 1201])  # 2 * 1117: a large prime factor
    def test_matches_dense_product(self, n):
        rng = np.random.default_rng(n)
        for dalpha in (0.3, 2.5, 6.0):
            col = kernel_column(dalpha, n)
            dense, apply = toeplitz_from_column(col), toeplitz_operator(col)
            v = rng.standard_normal(n)
            w = v + 1j * rng.standard_normal(n)
            for x in (v / np.linalg.norm(v), w / np.linalg.norm(w)):
                image = apply(x)
                assert image.dtype == x.dtype
                assert np.max(np.abs(image - dense @ x)) <= 1e-14

    def test_fft_length_is_the_next_smooth_number(self):
        smooth = sorted(
            2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6)
        )
        for target in range(1, 5001):
            length = _fft_length(target)
            assert length == smooth[bisect.bisect_left(smooth, target)], target
            assert length <= 1 << (target - 1).bit_length()


class TestEigensystem:
    def test_one_by_one(self):
        res = eigensystem(1.2, 0)
        assert res.eigenvalues[0] == pytest.approx(1.2 / TWO_PI, abs=1e-15)
        assert np.allclose(res.eigenvectors, [[1.0]])

    def test_two_by_two_closed_form(self):
        # [[a, b], [b, a]] has spectrum {a+b, a-b} with vectors (1,+-1)/sqrt(2)
        res = eigensystem(np.pi, 1)
        a, b = 0.5, 1.0 / np.pi
        assert res.eigenvalues[0] == pytest.approx(a + b, abs=1e-14)
        assert res.eigenvalues[1] == pytest.approx(a - b, abs=1e-14)
        assert np.allclose(np.abs(res.eigenvectors[:, 0]), 1.0 / np.sqrt(2.0))

    def test_spectral_reconstruction(self):
        k = build_kernel(2.6, 4)
        res = eigensystem(2.6, 4)
        rebuilt = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        assert np.max(np.abs(rebuilt - k.entries)) < 1e-10

    def test_residual_and_orthogonality_diagnostics(self):
        res = eigensystem(3.0, 16)
        assert res.diagnostics.max_residual <= 1e-12 * 17
        assert res.diagnostics.orthogonality_defect < 1e-12

    def test_sign_convention(self):
        res = eigensystem(2.0, 7)
        for s in range(8):
            v = res.eigenvectors[:, s]
            assert v[np.argmax(np.abs(v))] > 0.0

    @pytest.mark.parametrize("dk", [0, 1, 2, 3, 64, 65, 1000, 1001])
    def test_parity_solve_matches_dense(self, dk):
        n = dk + 1
        for dalpha in (0.3, 2.0, 6.2):
            res, g = eigensystem(dalpha, dk), build_kernel(dalpha, dk).entries
            vals, vecs = res.eigenvalues, res.eigenvectors
            dense = np.sort(np.linalg.eigvalsh(g))[::-1]
            assert np.max(np.abs(vals - dense)) <= 1e-14
            residual = np.max(np.linalg.norm(g @ vecs - vecs * vals, axis=0))
            assert residual <= 1e-12 * n
            assert abs(residual - res.diagnostics.max_residual) <= 1e-13
            assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-12
            gaps = np.abs(np.diff(vals))
            gap = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
            for s in np.flatnonzero(gap > 1e-6):
                v = vecs[:, s]
                assert np.array_equal(v, v[::-1]) or np.array_equal(v, -v[::-1])
                assert v[np.argmax(np.abs(v))] > 0.0


class TestLeastUpperBound:
    def test_single_support(self):
        lam, state = least_upper_bound(1.3, 0)
        assert lam == pytest.approx(1.3 / TWO_PI, abs=1e-15)
        assert np.allclose(state.amplitudes, [1.0])

    def test_two_by_two(self):
        lam, state = least_upper_bound(np.pi, 1)
        assert lam == pytest.approx(0.5 + 1.0 / np.pi, abs=1e-14)
        assert np.allclose(state.amplitudes, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12)

    def test_identity_kernel(self):
        lam, state = least_upper_bound(TWO_PI, 3)
        assert lam == 1.0
        assert abs(state.norm_squared - 1.0) < 1e-14

    def test_zero_width_convention(self):
        lam, state = least_upper_bound(0.0, 5)
        assert lam == 0.0
        assert np.allclose(state.amplitudes, np.eye(6)[0])


class TestLeadingEigenpair:
    """The tridiagonal route against the dense oracle and scipy's dpss."""

    @pytest.mark.parametrize("dalpha", DALPHA_GRID + (np.pi,))
    def test_matches_dense_eigensystem(self, dalpha):
        # dalpha == pi gives cos(2*pi*W) == 0: Slepian's T has a zero diagonal
        for dk in DK_GRID:
            dense, g = eigensystem(dalpha, dk), build_kernel(dalpha, dk).entries
            for index in range(min(2, dk + 1)):
                value, vector = leading_eigenpair(dalpha, dk, index)
                assert abs(value - dense.eigenvalues[index]) <= 1e-14
                assert abs(np.linalg.norm(vector) - 1.0) <= 1e-14
                assert np.linalg.norm(g @ vector - value * vector) <= 1e-13
            value, vector = leading_eigenpair(dalpha, dk)
            # eigh's vector is accurate to about eps / top_gap, so compare
            # only where that is well below the tolerance
            if dense.diagnostics.top_gap > 1e-9:
                assert abs(1.0 - vector @ dense.eigenvectors[:, 0]) <= 1e-12

    def test_top_vector_has_one_sign(self):
        for dalpha, dk in ((0.5, 40), (3.0, 41), (6.2, 16)):
            assert np.all(leading_eigenpair(dalpha, dk)[1] > 0.0)

    def test_second_vector_is_odd(self):
        for dk in (15, 16):
            vector = leading_eigenpair(2.0, dk, 1)[1]
            assert np.array_equal(vector, -vector[::-1])

    def test_single_support(self):
        value, vector = leading_eigenpair(1.3, 0)
        assert value == 1.3 / TWO_PI
        assert np.array_equal(vector, [1.0])

    def test_zero_width(self):
        assert leading_eigenpair(0.0, 7)[0] == 0.0

    def test_identity_kernel_is_exact(self):
        for index in (0, 1):
            value, vector = leading_eigenpair(TWO_PI, 5, index)
            assert value == 1.0
            assert np.array_equal(vector, np.eye(6)[index])

    @pytest.mark.parametrize("dk,index", [(0, 1), (3, 2), (3, -1)])
    def test_missing_pair(self, dk, index):
        with pytest.raises(DomainError):
            leading_eigenpair(1.0, dk, index)

    def test_large_dk(self):
        # far past the dense path: (dk+1)^2 doubles would take 3.2 GB
        lam, state = least_upper_bound(TWO_PI * 8.0 / 20001, 20000)
        assert abs(lam - 0.9999999997053922) <= 1e-13  # scipy's dpss ratio
        assert abs(state.norm_squared - 1.0) < 1e-14

    def test_builds_no_square_matrix(self):
        dk = 4000  # a dense kernel would need 128 MB
        tracemalloc.start()
        try:
            least_upper_bound(TWO_PI * 3.0 / (dk + 1), dk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "dalpha", [1e-6, 0.01, np.pi, 4.0, 5.5, 6.2, TWO_PI - 1e-9]
    )
    def test_edge_grid_matches_dense_block(self, dalpha):
        # zero (dalpha = pi), negative and almost uniform diagonals of T
        for dk in list(range(1, 41)) + [100, 101, 1000, 1001]:
            for index in range(min(2, dk + 1)):
                diag, off = _slepian_block(dalpha, dk + 1, index == 1)
                vector = _top_eigenvector(diag, off)
                block = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                values, vectors = np.linalg.eigh(block)
                if values.size == 1 or values[-1] - values[-2] > 1e-6:
                    assert 1.0 - abs(vector @ vectors[:, -1]) <= 1e-13
                leading_eigenpair(dalpha, dk, index)  # the residual gate holds

    def test_multiple_top_eigenvalue(self):
        # the bracket collapses on a top eigenvalue 1 of multiplicity two
        diag, off = np.array([1.0, 0.5, 0.5]), np.array([0.0, 0.5])
        vector = _top_eigenvector(diag, off)  # last count 0: a vector of it
        block = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.linalg.norm(block @ vector - vector) <= 1e-15
        with pytest.raises(ConvergenceFailureError):  # last count 2
            _top_eigenvector(np.full(4, 0.5), np.array([0.5, 0.0, 0.5]))

    def test_sweeps_per_call(self, monkeypatch):
        # O(dk) Python sweeps on bound-verify's range: one per factorisation,
        # two per solve.  Bisection to rounding took about 52.
        sweeps = []

        def counted(helper, count):
            def wrapper(*args):
                sweeps.append(count)
                return helper(*args)

            return wrapper

        monkeypatch.setattr(kernel_module, "_factor", counted(_factor, 1))
        monkeypatch.setattr(kernel_module, "_solve", counted(_solve, 2))
        rng = np.random.default_rng(7)
        for _ in range(20):
            dk, xi = int(rng.integers(800, 1200)), rng.uniform(0.5, 3.0)
            leading_eigenpair(TWO_PI * xi / (dk + 1), dk)
        assert sum(sweeps) / 20 <= 25

    @pytest.mark.parametrize("dk", [1000, 20000])
    def test_scipy_dpss(self, dk):
        windows = pytest.importorskip("scipy.signal.windows")
        for xi in (0.5, 3.0, 8.0):
            value, vector = leading_eigenpair(TWO_PI * xi / (dk + 1), dk)
            taper, ratio = windows.dpss(dk + 1, xi / 2.0, Kmax=1, return_ratios=True)
            assert abs(value - ratio[0]) <= 1e-13
            assert abs(1.0 - abs(vector @ taper[0]) / np.linalg.norm(taper[0])) <= 1e-12


class TestSecondEigenvalueBound:
    """The odd half-block's Frobenius norm from two O(dk) traces."""

    def test_matches_odd_block_frobenius_norm(self):
        rng = np.random.default_rng(29)
        cases = [(dk, TWO_PI) for dk in (1, 2, 3, 300)] + [(1, 1.0), (2, 3.0), (300, 0.01)]
        for _ in range(60):
            dk = int(rng.integers(1, 301))
            xi = float(np.exp(rng.uniform(np.log(1e-8), np.log(12.0))))
            cases.append((dk, min(TWO_PI * xi / (dk + 1), TWO_PI)))
        for dk, dalpha in cases:
            n = dk + 1
            odd = parity_blocks(build_kernel(dalpha, dk).entries[: n - n // 2])[1]
            frobenius_sq = float(np.sum(np.linalg.eigvalsh(odd) ** 2))
            bound_sq = second_eigenvalue_bound(dalpha, n) ** 2
            # relative: where dalpha is small the traces are tiny but the
            # bound must still track the block
            assert abs(bound_sq - frobenius_sq) <= 1e-13 * frobenius_sq
            # rounding only raises the bound above the block's exact norm
            assert bound_sq >= math.fsum((odd * odd).ravel())

    def test_bounds_second_eigenvalue(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            dk = int(np.exp(rng.uniform(0.0, np.log(3000.0))))
            xi = float(np.exp(rng.uniform(np.log(1e-8), np.log(12.0))))
            dalpha = min(TWO_PI * xi / (dk + 1), TWO_PI)
            second = leading_eigenpair(dalpha, dk, 1)[0]
            assert second_eigenvalue_bound(dalpha, dk + 1) >= second - 1e-15

    def test_builds_no_matrix(self):
        size = 4001  # the odd block alone would take 32 MB
        tracemalloc.start()
        try:
            second_eigenvalue_bound(TWO_PI * 2.5 / size, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCauchyBound:
    def test_capped(self):
        assert cauchy_bound(np.pi, 1) == 1.0

    def test_raw_value(self):
        assert cauchy_bound(np.pi / 4.0, 1) == pytest.approx(0.25, abs=1e-15)

    def test_zero(self):
        assert cauchy_bound(0.0, 9) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            cauchy_bound(-1.0, 1)


class TestGridInvariants:
    @pytest.mark.parametrize("dalpha", DALPHA_GRID)
    def test_trace_identity(self, dalpha):
        for dk in DK_GRID:
            res = eigensystem(dalpha, dk)
            assert np.sum(res.eigenvalues) == pytest.approx(
                (dk + 1) * dalpha / TWO_PI, abs=1e-10
            )

    @pytest.mark.parametrize("dalpha", DALPHA_GRID)
    def test_bound_chain(self, dalpha):
        for dk in DK_GRID:
            lam = least_upper_bound(dalpha, dk)[0]
            xi = dalpha * (dk + 1) / TWO_PI
            assert 0.0 <= lam <= cauchy_bound(dalpha, dk) + 1e-12
            if 0.0 < xi < 1.0 and dk >= 1:
                assert lam < xi

    @pytest.mark.parametrize("dalpha", DALPHA_GRID)
    def test_ordered_distinct_spectrum(self, dalpha):
        # eigenvalues cluster exponentially near 0 and 1, so distinctness is
        # only observable away from both endpoints
        for dk in DK_GRID:
            vals = eigensystem(dalpha, dk).eigenvalues
            assert np.all(np.diff(vals) <= 1e-15)
            mid = vals[(vals > 1e-10) & (vals < 1.0 - 1e-10)]
            if mid.size >= 2:
                assert np.all(np.diff(mid) < 0.0)

    def test_positive_spectrum_above_noise(self):
        for dalpha in DALPHA_GRID:
            for dk in DK_GRID:
                vals = eigensystem(dalpha, dk).eigenvalues
                assert vals[0] <= 1.0 + 1e-12
                assert np.all(vals > -1e-13)

    def test_monotone_in_dk(self):
        for dalpha in DALPHA_GRID:
            lams = [least_upper_bound(dalpha, dk)[0] for dk in DK_GRID]
            assert np.all(np.diff(lams) >= -1e-12)

    def test_monotone_in_dalpha(self):
        for dk in (0, 1, 3, 7, 16):
            lams = [least_upper_bound(da, dk)[0] for da in DALPHA_GRID]
            assert np.all(np.diff(lams) >= -1e-12)

    def test_rayleigh_quotients_below_top(self):
        for dalpha, dk in ((0.5, 3), (2.0, 6), (5.0, 8)):
            lam = least_upper_bound(dalpha, dk)[0]
            assert random_state_search(dalpha, dk) <= lam + 1e-12

    def test_attainment_through_measurement_path(self):
        for dalpha in (0.5, 2.0, 6.2):
            for dk in (0, 1, 5, 16):
                lam, state = least_upper_bound(dalpha, dk)
                p = conditional_probability(
                    state, PhaseWindow(0.0, dalpha), NumberWindow(0, dk)
                )
                assert abs(p - lam) < 1e-10

    def test_power_iteration_agreement(self):
        for dalpha in (0.5, 2.0, 5.0):
            for dk in (1, 4, 9):
                res = eigensystem(dalpha, dk)
                pw = power_iteration(dalpha, dk)
                if pw.converged and not pw.gap_degenerate and res.diagnostics.top_gap > 1e-6:
                    assert abs(pw.value - res.eigenvalues[0]) <= 1e-9


class TestClosedFormAnchors:
    def test_dk0_line(self):
        for dalpha in np.linspace(0.0, TWO_PI, 50):
            assert abs(least_upper_bound(dalpha, 0)[0] - lam0_dk0(dalpha)) < 1e-13

    def test_dk1_curve(self):
        for dalpha in np.linspace(0.0, TWO_PI, 50):
            assert abs(least_upper_bound(dalpha, 1)[0] - lam0_dk1(dalpha)) < 1e-11
