"""Concentration kernel construction and spectrum."""

import bisect
import tracemalloc

import numpy as np
import pytest

from phasebound import (
    ConvergenceFailureError,
    DomainError,
    InternalConsistencyError,
    NumberWindow,
    PhaseWindow,
    cauchy_bound,
    conditional_probability,
    kernel_eigenvalues,
    leading_eigenpair,
    least_upper_bound,
    power_iteration,
)
import phasebound.kernel as kernel_module
from phasebound.cli import main
from phasebound.kernel import (
    _fft_length,
    _gram_block,
    _slepian_block,
    _tail_bound,
    _top_eigenvector,
    kernel_column,
    kernel_operator,
)
from conftest import TWO_PI
from dense_reference import dense_kernel, eigensystem
from reference_oracles import random_state_search

DALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 6.2)
DK_GRID = tuple(range(17))

# closed forms for the two smallest supports
def lam0_dk0(dalpha):
    return dalpha / TWO_PI


def lam0_dk1(dalpha):
    return dalpha / TWO_PI + np.sin(dalpha / 2.0) / np.pi


class TestBuildKernel:
    """The kernel as the tests build it: ``kernel_column``, the program's only
    form of the kernel, and its dense Toeplitz matrix (``dense_kernel``)."""

    def test_small_matrix_entries(self):
        assert np.array_equal(kernel_column(np.pi, 2), [0.5, 1.0 / np.pi])
        g = dense_kernel(np.pi, 1)
        assert g[0, 0] == g[1, 1] == pytest.approx(0.5)
        assert g[0, 1] == g[1, 0] == pytest.approx(1.0 / np.pi)

    def test_full_width_gives_identity(self):
        assert np.array_equal(kernel_column(TWO_PI, 4), [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(dense_kernel(TWO_PI, 3), np.eye(4))

    def test_zero_width_gives_zero(self):
        assert not np.any(kernel_column(0.0, 5))

    def test_symmetric_toeplitz(self):
        col = kernel_column(2.3, 10)
        g = dense_kernel(2.3, 9)
        assert np.array_equal(g, g.T)
        for d in range(10):
            assert np.all(np.diagonal(g, offset=d) == col[d])

    def test_trace_identity(self):
        assert np.trace(dense_kernel(1.7, 12)) == pytest.approx(13 * 1.7 / TWO_PI, abs=1e-12)

    # the kernel's domain, 0 <= dalpha <= 2*pi and integer dk >= 0, as both
    # solvers that build it check it
    @pytest.mark.parametrize("dalpha,dk", [(-0.1, 1), (TWO_PI + 0.1, 1), (np.nan, 1), (1.0, -1)])
    def test_domain(self, dalpha, dk):
        for solve in (kernel_eigenvalues, leading_eigenpair):
            with pytest.raises(DomainError):
                solve(dalpha, dk)

    def test_non_integer_dk(self):
        for solve in (kernel_eigenvalues, leading_eigenpair):
            with pytest.raises(DomainError):
                solve(1.0, 1.5)


class TestToeplitzOperator:
    """``kernel_operator``, the one way the program multiplies by the kernel."""

    @staticmethod
    def gathered(col):
        """Reference: gather the matrix through an index matrix."""
        n = col.size
        return col[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]

    @pytest.mark.parametrize("n", [1, 2, 7, 1200])
    def test_dense_matches_gather(self, n):
        # the dense reference the tests compare against is the gathered kernel
        assert np.array_equal(dense_kernel(1.3, n - 1), self.gathered(kernel_column(1.3, n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 1117, 1201])  # 2 * 1117: a large prime factor
    def test_matches_dense_product(self, n):
        rng = np.random.default_rng(n)
        for dalpha in (0.3, 2.5, 6.0):
            dense, apply = dense_kernel(dalpha, n - 1), kernel_operator(dalpha, n)
            v = rng.standard_normal(n)
            w = v + 1j * rng.standard_normal(n)
            for x in (v / np.linalg.norm(v), w / np.linalg.norm(w)):
                image = apply(x)
                assert image.dtype == x.dtype
                assert np.max(np.abs(image - dense @ x)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 1001, 1117])
    def test_real_vector_as_complex(self, n):
        # a zero imaginary part skips its product; the real part is the
        # two-product path's, bit for bit
        rng = np.random.default_rng(n + 3)
        apply = kernel_operator(2.5, n)
        for real in (rng.standard_normal(n), rng.standard_normal((3, n))):
            both = apply(real) + 1j * apply(np.zeros_like(real))
            image = apply(real.astype(np.complex128))
            assert image.dtype == np.complex128
            assert np.array_equal(image.real.view(np.int64), both.real.view(np.int64))
            assert not image.imag.any()

    @pytest.mark.parametrize("n", [1, 2, 1001, 1117])
    def test_stacked_rows(self, n):
        # a (K, M) stack is multiplied row by row, real or complex
        rng = np.random.default_rng(n + 7)
        apply = kernel_operator(1.7, n)
        real = rng.standard_normal((5, n))
        for stack in (real, real + 1j * rng.standard_normal((5, n))):
            image = apply(stack)
            assert image.shape == stack.shape and image.dtype == stack.dtype
            rows = np.array([apply(row) for row in stack])
            assert np.max(np.abs(image - rows)) <= 1e-15

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
        res = eigensystem(2.6, 4)
        rebuilt = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        assert np.max(np.abs(rebuilt - dense_kernel(2.6, 4))) < 1e-10

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
            res, g = eigensystem(dalpha, dk), dense_kernel(dalpha, dk)
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


class TestKernelEigenvalues:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("dk", [40, 127, 300])
    def test_tail_bound_holds(self, dk):
        # every dense eigenvalue past index K lies below B_K, checked where
        # B_K is large enough for the check to bite
        checked = 0
        for xi in (0.05, 0.2, 0.5, 1.0, 2.0):
            dalpha = TWO_PI * xi / (dk + 1)
            vals = np.sort(np.linalg.eigvalsh(dense_kernel(dalpha, dk)))[::-1]
            for degrees in range(4, 13):
                bound = _tail_bound(dalpha, dk + 1, degrees)
                if 1e-12 <= bound < 1.0:
                    assert vals[degrees] <= bound + (dk + 1) * self.EPS, (xi, degrees)
                    checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("xi", [0.1, 0.5, 3.0, 16.0, 64.0])
    @pytest.mark.parametrize("dk", [126, 127, 255, 256, 1000, 1001, 3001])
    def test_matches_dense(self, dk, xi):
        dalpha = TWO_PI * xi / (dk + 1)
        vals = kernel_eigenvalues(dalpha, dk)
        dense = eigensystem(dalpha, dk).eigenvalues
        assert vals.shape == dense.shape
        assert np.all(np.diff(vals) <= 0.0)
        assert np.max(np.abs(vals - dense)) <= (dk + 1) * self.EPS

    @pytest.mark.parametrize("dk", [7, 62, 63, 254, 255, 1000, 2302, 2303])
    def test_route(self, dk, monkeypatch):
        # the Gram route runs exactly where K^2 <= 4M, and its tail is zeros;
        # the dense route gives the reference's eigenvalues to the bit, those
        # that round above 1 set to 1
        dense_eigenvalues = kernel_module._dense_eigenvalues
        dense = []

        def counted(*args):
            dense.append(args)
            return dense_eigenvalues(*args)

        monkeypatch.setattr(kernel_module, "_dense_eigenvalues", counted)
        for xi, degrees in ((0.5, 16), (3.0, 32), (16.0, 96)):
            if xi > dk + 1:
                continue
            dalpha = TWO_PI * xi / (dk + 1)
            assert _tail_bound(dalpha, dk + 1, degrees) <= 1e-30 < _tail_bound(dalpha, dk + 1, degrees - 8)
            gram = degrees**2 <= 4 * (dk + 1)
            calls = len(dense)
            vals = kernel_eigenvalues(dalpha, dk)
            assert len(dense) == calls + (not gram)
            if gram:
                assert np.count_nonzero(vals) <= degrees
                assert np.all(vals[degrees : dk + 1 - degrees] == 0.0)
            else:
                assert np.array_equal(vals, np.minimum(eigensystem(dalpha, dk).eigenvalues, 1.0))

    @pytest.mark.parametrize("dk", [0, 1, 5, 40, 1000])
    def test_exact_cases(self, dk):
        for dalpha in (0.0, 1.3, TWO_PI):
            if dalpha == 1.3 and dk:
                continue
            vals = kernel_eigenvalues(dalpha, dk)
            dense = eigensystem(dalpha, dk).eigenvalues
            assert vals.tobytes() == dense.tobytes()

    def test_domain(self):
        # the cases TestBuildKernel does not cover: a wider support, a bool dk
        cases = ((-0.1, 10), (1.0, True))
        for solve in (kernel_eigenvalues, leading_eigenpair):
            for dalpha, dk in cases:
                with pytest.raises(DomainError):
                    solve(dalpha, dk)

    def test_north_star_dk(self):
        # no dense route reaches this size: the kernel alone would take 80 GB
        dk = 100000
        dalpha = TWO_PI * 2.0 / (dk + 1)
        vals = kernel_eigenvalues(dalpha, dk)
        assert vals.size == dk + 1 and np.all(np.diff(vals) <= 0.0)
        assert np.count_nonzero(vals) <= 32
        assert abs(vals.sum() - 2.0) <= 1e-10
        assert abs(vals[0] - leading_eigenpair(dalpha, dk)[0]) <= 1e-14

    def test_orthogonality_gate(self, monkeypatch):
        gram = kernel_module._gram_block

        def skewed(*args):
            diag, off, b = gram(*args)
            return diag, off, b * (1.0 + 1e-9)

        monkeypatch.setattr(kernel_module, "_gram_block", skewed)
        with pytest.raises(ConvergenceFailureError, match="orthogonality defect"):
            kernel_eigenvalues(TWO_PI * 2.0 / 1001, 1000)

    def test_residual_gate(self, monkeypatch):
        operator = kernel_module.kernel_operator

        def perturbed(dalpha, size):
            apply = operator(dalpha, size)
            return lambda v: apply(v) * (1.0 + 1e-6 * np.linspace(0.0, 1.0, size))

        monkeypatch.setattr(kernel_module, "kernel_operator", perturbed)
        with pytest.raises(ConvergenceFailureError, match="Ritz residual"):
            kernel_eigenvalues(TWO_PI * 2.0 / 1001, 1000)

    def test_dense_residual_gate(self, monkeypatch, tmp_path):
        # dk = 40 at xi 2 takes the dense route; an eigenpair off by 1e-6
        # is refused, and `spectrum` exits 3 without writing its table
        eigh = np.linalg.eigh

        def perturbed(block):
            w, u = eigh(block)
            return w + 1e-6, u

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        dalpha = TWO_PI * 2.0 / 41
        with pytest.raises(ConvergenceFailureError, match="eigensolve residual"):
            kernel_eigenvalues(dalpha, 40)
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--dalpha", repr(dalpha), "--dk", "40", "--output", str(out)]
        assert main(argv) == 3
        assert not out.exists()

    @pytest.mark.parametrize("dk, xi", [(3000, 16.0), (400, 64.0)])
    def test_saturated_values_at_most_one(self, dk, xi):
        # the Gram route (dk 3000, xi 16) and the dense route (dk 400, xi 64)
        # both gave values up to 1 + 4 eps here; they print as 1
        vals = kernel_eigenvalues(TWO_PI * xi / (dk + 1), dk)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 0.0)

    def test_value_above_one_refused(self, monkeypatch, tmp_path):
        # more than (dk+1) eps above 1 is not rounding: exit 3, no table
        dense = kernel_module._dense_eigenvalues
        monkeypatch.setattr(kernel_module, "_dense_eigenvalues", lambda *a: dense(*a) + 1e-12)
        dalpha = TWO_PI * 16.0 / 41
        with pytest.raises(InternalConsistencyError, match="above 1"):
            kernel_eigenvalues(dalpha, 40)
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--dalpha", repr(dalpha), "--dk", "40", "--output", str(out)]
        assert main(argv) == 3
        assert not out.exists()

    def test_dense_route_memory(self):
        # K = 96 at xi 16, past 2 sqrt(M): the dense route, whose half-blocks
        # are built from a view of the mirrored column.  38 MiB measured; the
        # 30.5 MiB M x M kernel on top of that would pass the bound
        dk = 2000
        tracemalloc.start()
        try:
            kernel_eigenvalues(TWO_PI * 16.0 / (dk + 1), dk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (dk + 1) ** 2 * 8

    def test_memory_at_north_star_dk(self):
        # G P^T and the Ritz residual are taken 8 rows at a time, so the peak
        # is the (K, M) basis and its image plus a few 8-row temporaries
        # (76 MiB measured)
        tracemalloc.start()
        try:
            kernel_eigenvalues(TWO_PI * 2.0 / 100001, 100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2**20


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
            dense, g = eigensystem(dalpha, dk), dense_kernel(dalpha, dk)
            value, vector = leading_eigenpair(dalpha, dk)
            assert abs(value - dense.eigenvalues[0]) <= 1e-14
            assert abs(np.linalg.norm(vector) - 1.0) <= 1e-14
            assert np.linalg.norm(g @ vector - value * vector) <= 1e-13
            # eigh's vector is accurate to about eps / top_gap, so compare
            # only where that is well below the tolerance
            if dense.diagnostics.top_gap > 1e-9:
                assert abs(1.0 - vector @ dense.eigenvectors[:, 0]) <= 1e-12

    def test_top_vector_has_one_sign(self):
        for dalpha, dk in ((0.5, 40), (3.0, 41), (6.2, 16)):
            assert np.all(leading_eigenpair(dalpha, dk)[1] > 0.0)

    def test_single_support(self):
        value, vector = leading_eigenpair(1.3, 0)
        assert value == 1.3 / TWO_PI
        assert np.array_equal(vector, [1.0])

    def test_zero_width(self):
        assert leading_eigenpair(0.0, 7)[0] == 0.0

    def test_identity_kernel_is_exact(self):
        value, vector = leading_eigenpair(TWO_PI, 5)
        assert value == 1.0
        assert np.array_equal(vector, np.eye(6)[0])

    def test_saturated_value_is_one(self):
        # the Rayleigh quotient reads 1.0000000000000004 here
        assert leading_eigenpair(TWO_PI * 16.0 / 1001, 1000)[0] == 1.0

    def test_value_above_one_refused(self, monkeypatch):
        operator = kernel_module.kernel_operator

        def scaled(dalpha, size):
            apply = operator(dalpha, size)
            return lambda v: apply(v) * (1.0 + 1e-9)

        monkeypatch.setattr(kernel_module, "kernel_operator", scaled)
        with pytest.raises(InternalConsistencyError, match="above 1"):
            leading_eigenpair(TWO_PI * 16.0 / 1001, 1000)

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
            diag, off = _slepian_block(dalpha, dk + 1)
            vector = _top_eigenvector(diag, off)
            block = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            values, vectors = np.linalg.eigh(block)
            if values.size == 1 or values[-1] - values[-2] > 1e-6:
                assert 1.0 - abs(vector @ vectors[:, -1]) <= 1e-13
            leading_eigenpair(dalpha, dk)  # the residual gate holds

    def test_multiple_top_eigenvalue(self):
        # the bracket collapses on a top eigenvalue 1 of multiplicity two
        diag, off = np.array([1.0, 0.5, 0.5]), np.array([0.0, 0.5])
        vector = _top_eigenvector(diag, off)  # last count 0: a vector of it
        block = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.linalg.norm(block @ vector - vector) <= 1e-15
        with pytest.raises(ConvergenceFailureError):  # last count 2
            _top_eigenvector(np.full(4, 0.5), np.array([0.5, 0.0, 0.5]))

    def test_block_rows_per_call(self, monkeypatch):
        # bound-verify's range takes the Gram route, whose blocks stay at 32
        # rows or fewer: no Python loop runs over dk
        rows = []

        def counted(diag, off):
            rows.append(diag.size)
            return _top_eigenvector(diag, off)

        monkeypatch.setattr(kernel_module, "_top_eigenvector", counted)
        rng = np.random.default_rng(7)
        for _ in range(20):
            dk, xi = int(rng.integers(800, 1200)), rng.uniform(0.5, 3.0)
            leading_eigenpair(TWO_PI * xi / (dk + 1), dk)
        assert rows and max(rows) <= 32

    def test_factorisations_per_call(self, monkeypatch):
        # the plain Gershgorin row bound starts the bracket; Temple's update
        # keeps the count low (without it the mean here is about 48)
        factor = kernel_module._factor
        calls = []

        def counted(*args):
            calls[-1] += 1
            return factor(*args)

        monkeypatch.setattr(kernel_module, "_factor", counted)
        for dk in (1, 2, 3, 5, 16, 40, 100, 126, 200, 500, 1000, 2000, 3000):
            for dalpha in np.linspace(0.05, TWO_PI, 25, endpoint=False):
                calls.append(0)
                leading_eigenpair(dalpha, dk)
        assert np.mean(calls) <= 16.0  # 15.90 measured
        assert max(calls) <= 52

    @pytest.mark.parametrize("dk", [1, 2, 3, 5, 16, 40, 100, 200, 1000, 3000, 3001])
    def test_gram_crossover(self, dk, monkeypatch):
        # the Gram route exactly where the truncation K stays at or below M/4;
        # every case against LAPACK: the value from the dense eigensystem
        # (past dk = 1000, where that takes seconds, the dense kernel's
        # Rayleigh quotient) and the vector from Slepian's full T
        linalg = pytest.importorskip("scipy.linalg")
        size = dk + 1
        fallbacks = []

        def counted(delta_alpha, block_size):
            fallbacks.append(block_size)
            return _slepian_block(delta_alpha, block_size)

        monkeypatch.setattr(kernel_module, "_slepian_block", counted)
        for dalpha in np.linspace(0.05, TWO_PI, 25, endpoint=False):
            degrees = 32
            while True:  # uncapped doubling, as far as K >= M
                diag, off, _ = _gram_block(dalpha, size, degrees)
                beta = _top_eigenvector(diag, off)
                if np.max(np.abs(beta[-2:])) < 1e-17:
                    break
                degrees *= 2
            if degrees >= size:  # the b_k guard: degrees >= M decouple
                assert np.all(np.isfinite(diag)) and np.all(np.isfinite(off))
                top = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[-1]
                t_diag, t_off = _slepian_block(dalpha, size)
                t_top = np.linalg.eigvalsh(np.diag(t_diag) + np.diag(t_off, 1) + np.diag(t_off, -1))[-1]
                assert abs(top + (size * size - 1) / 4.0 - t_top) <= 1e-12 * size * size

            fallbacks.clear()
            value, vector = leading_eigenpair(dalpha, dk)
            assert (not fallbacks) == (degrees <= size / 4), (dalpha, degrees)

            n = np.arange(size)
            _, ref = linalg.eigh_tridiagonal(
                (0.5 * (size - 1 - 2 * n)) ** 2 * np.cos(0.5 * dalpha),
                0.5 * n[1:] * (size - n[1:]),
                select="i",
                select_range=(dk, dk),
            )
            assert 1.0 - abs(vector @ ref[:, 0]) <= 1e-12
            assert vector[np.argmax(np.abs(vector))] > 0.0
            if dk <= 1000:
                top_value = eigensystem(dalpha, dk).eigenvalues[0]
            else:
                g = dense_kernel(dalpha, dk)
                top_value = ref[:, 0] @ g @ ref[:, 0]
                assert np.linalg.norm(g @ vector - value * vector) <= 1e-12
            assert abs(value - top_value) <= 1e-12

    @pytest.mark.parametrize("dk", [1000, 20000])
    def test_scipy_dpss(self, dk):
        windows = pytest.importorskip("scipy.signal.windows")
        for xi in (0.5, 3.0, 8.0):
            value, vector = leading_eigenpair(TWO_PI * xi / (dk + 1), dk)
            taper, ratio = windows.dpss(dk + 1, xi / 2.0, Kmax=1, return_ratios=True)
            assert abs(value - ratio[0]) <= 1e-13
            assert abs(1.0 - abs(vector @ taper[0]) / np.linalg.norm(taper[0])) <= 1e-12

    def test_north_star_dk(self):
        windows = pytest.importorskip("scipy.signal.windows")
        dk = 100000
        lam, state = least_upper_bound(TWO_PI * 8.0 / (dk + 1), dk)
        taper, ratio = windows.dpss(dk + 1, 4.0, Kmax=1, return_ratios=True)
        assert abs(lam - ratio[0]) <= 1e-13
        overlap = abs(state.amplitudes @ taper[0]) / np.linalg.norm(taper[0])
        assert 1.0 - overlap <= 1e-12


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
            vals = kernel_eigenvalues(dalpha, dk)
            assert np.sum(vals) == pytest.approx(
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
            vals = kernel_eigenvalues(dalpha, dk)
            assert np.all(np.diff(vals) <= 1e-15)
            mid = vals[(vals > 1e-10) & (vals < 1.0 - 1e-10)]
            if mid.size >= 2:
                assert np.all(np.diff(mid) < 0.0)

    def test_positive_spectrum_above_noise(self):
        for dalpha in DALPHA_GRID:
            for dk in DK_GRID:
                vals = kernel_eigenvalues(dalpha, dk)
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
