"""Covariant phase measurement layer: densities, probabilities, reduction."""

import re
import tracemalloc

import numpy as np
import pytest

from phasebound import (
    FockState,
    IncompatibleWindowError,
    InvalidMatrixError,
    NumberWindow,
    PhaseMatrix,
    PhaseWindow,
    conditional_probability,
    interval_probability,
    normalize,
    number_probability,
    number_shift,
    phase_density,
    phase_shift,
    reduce,
    uniform_phase_density,
)
from conftest import TWO_PI, random_states
from reference_oracles import quadrature_probability

HALF_PLUS = normalize(FockState([1.0, 1.0]))  # equal two-term superposition
TRIPLE = normalize(FockState([1.0, 1.0, 1.0]))

# window integral of (1 + cos(phi))/(2*pi) over [-pi/2, pi/2], by hand
EQUAL_PAIR_HALF_WINDOW = (np.pi + 2.0) / TWO_PI


def explicit_density(state, phi):
    """The canonical density as the explicit sum of exponentials."""
    waves = np.exp(-1j * np.outer(np.atleast_1d(phi), np.arange(state.size)))
    return np.abs(waves @ state.amplitudes) ** 2 / TWO_PI


def circle_integral(f, points=4096):
    """Uniform-grid integral over [-pi, pi); exact for short Fourier sums."""
    phi = -np.pi + TWO_PI * np.arange(points) / points
    return float(np.mean(f(phi)) * TWO_PI)


class TestValidatePhaseMatrix:
    def test_canonical_passes(self):
        assert PhaseMatrix.canonical(4).is_canonical

    def test_is_canonical_is_derived_not_passed(self):
        assert PhaseMatrix(np.ones((3, 3))).is_canonical
        assert not PhaseMatrix(np.eye(2)).is_canonical
        with pytest.raises(TypeError):
            PhaseMatrix(np.eye(2), True)
        with pytest.raises(TypeError):
            PhaseMatrix(np.eye(2), is_canonical=True)

    def test_identity_passes(self):
        # all phase information lost, but zero off-diagonals are allowed
        assert PhaseMatrix.identity(3).dim == 3

    def test_broken_diagonal(self):
        c = np.ones((2, 2), dtype=complex)
        c[0, 0] = 0.5
        with pytest.raises(InvalidMatrixError, match=re.escape("diagonal != 1 first at n=0")):
            PhaseMatrix(c)

    def test_modulus_violation(self):
        c = np.ones((2, 2), dtype=complex)
        c[0, 1] = c[1, 0] = 1.5
        with pytest.raises(InvalidMatrixError, match=re.escape("|c| > 1 first at (0, 1)")):
            PhaseMatrix(c)

    def test_hermiticity_violation(self):
        c = np.ones((2, 2), dtype=complex)
        c[0, 1] = 0.5j
        c[1, 0] = 0.5j
        with pytest.raises(InvalidMatrixError, match=re.escape("not Hermitian first at (0, 1)")):
            PhaseMatrix(c)

    def test_describe_mentions_failure(self):
        c = np.ones((2, 2), dtype=complex)
        c[1, 1] = 0.0
        with pytest.raises(InvalidMatrixError, match="n=1"):
            PhaseMatrix(c)

    def test_indefinite_matrix_refused(self):
        # Hermitian, unit diagonal, |c| <= 1, yet eigenvalues -1, 2, 2: the
        # uniform state's density would reach -1/(2*pi) at phi = pi
        c = np.array([[1, 1, -1], [1, 1, 1], [-1, 1, 1]], dtype=complex)
        with pytest.raises(
            InvalidMatrixError,
            match=r"^not positive semidefinite: lowest eigenvalue -1\.000e\+00$",
        ):
            PhaseMatrix(c)
        with pytest.raises(InvalidMatrixError, match="positive semidefinite"):
            phase_density(TRIPLE, PhaseMatrix(c), np.pi)

    @pytest.mark.parametrize("dim", [1, 2, 7, 200])
    def test_canonical_and_identity_are_positive_semidefinite(self, dim):
        # eigenvalues 0 and dim, and all 1
        for matrix in (PhaseMatrix.canonical(dim), PhaseMatrix.identity(dim)):
            assert matrix.dim == dim


class TestPhaseDensity:
    def test_number_state_uniform(self):
        s = FockState.number_state(5)
        for phi in (-2.0, 0.0, 1.3):
            assert phase_density(s, None, phi) == pytest.approx(1.0 / TWO_PI, abs=1e-15)

    def test_equal_pair_peak(self):
        assert phase_density(HALF_PLUS, None, 0.0) == pytest.approx(1.0 / np.pi, abs=1e-15)

    def test_equal_pair_node(self):
        assert phase_density(HALF_PLUS, None, np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_canonical_matrix_matches_default(self):
        phi = np.linspace(-3.0, 3.0, 17)
        explicit = phase_density(HALF_PLUS, PhaseMatrix.canonical(2), phi)
        implicit = phase_density(HALF_PLUS, None, phi)
        assert np.allclose(explicit, implicit, atol=1e-15)

    def test_identity_matrix_erases_interference(self):
        phi = np.linspace(-np.pi, np.pi, 11)
        dens = phase_density(HALF_PLUS, PhaseMatrix.identity(2), phi)
        assert np.allclose(dens, 1.0 / TWO_PI, atol=1e-15)

    def test_invalid_matrix_rejected(self):
        c = np.ones((2, 2), dtype=complex)
        c[0, 0] = 0.0
        with pytest.raises(InvalidMatrixError):
            phase_density(HALF_PLUS, PhaseMatrix(c), 0.0)

    def test_matrix_must_cover_support(self):
        s = FockState([1.0], offset=5)
        with pytest.raises(InvalidMatrixError):
            phase_density(s, PhaseMatrix.identity(3), 0.0)

    @pytest.mark.parametrize("size,tol", [(1, 1e-13), (2, 1e-13), (501, 1e-13), (2000, 5e-13)])
    def test_matches_explicit_sum(self, size, tol):
        rng = np.random.default_rng(size)
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        state = normalize(FockState(amps, offset=3 * size + 1))
        grid = -np.pi + TWO_PI * np.arange(4096) / 4096
        peak = explicit_density(state, grid).max()
        scattered = rng.uniform(-4.0, 4.0, 257)
        for phi in (grid, scattered, np.array([-np.pi, np.pi])):
            dens = phase_density(state, None, phi)
            assert np.max(np.abs(dens - explicit_density(state, phi))) <= tol * peak
        for phi in (0.7, -np.pi, np.pi):
            value = phase_density(state, None, phi)
            assert isinstance(value, float)
            assert abs(value - explicit_density(state, phi)[0]) <= tol * peak

    def test_memory_linear_in_points(self):
        rng = np.random.default_rng(7)
        state = normalize(FockState(rng.standard_normal(501) + 1j * rng.standard_normal(501)))
        phi = -np.pi + TWO_PI * np.arange(16384) / 16384
        tracemalloc.start()
        try:
            phase_density(state, None, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # the points x amplitudes matrix would be 125 MiB

    def test_distribution_integrates_to_norm_squared(self):
        raw = FockState([1.0, 2.0j, -0.5])  # deliberately unnormalized
        total = circle_integral(lambda phi: phase_density(raw, None, phi))
        assert total == pytest.approx(raw.norm_squared, abs=1e-10)


class TestUniformPhaseDensity:
    @pytest.mark.parametrize(
        "size,points", [(1, 1), (1, 16), (2, 3), (501, 16384), (501, 100), (2000, 4096), (2000, 7)]
    )
    def test_matches_explicit_sum(self, size, points):
        # points < size folds the amplitudes modulo points; the explicit sum's
        # own phases exp(-i n phi) lose digits at n ~ 2000, as in TestPhaseDensity
        tol = 5e-13 if size == 2000 else 1e-13
        rng = np.random.default_rng(size + points)
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        state = normalize(FockState(amps, offset=size + 5))
        phi, dens = uniform_phase_density(state, points)
        ref = explicit_density(state, phi)
        assert np.max(np.abs(dens - ref)) <= tol * ref.max()

    def test_grid_matches_listed_points(self):
        phi, _ = uniform_phase_density(HALF_PLUS, 16384)
        listed = [-np.pi + TWO_PI * i / 16384 for i in range(16384)]
        assert phi.tolist() == listed

    def test_matches_horner(self):
        rng = np.random.default_rng(15)
        state = normalize(FockState(rng.standard_normal(501) + 1j * rng.standard_normal(501)))
        phi, dens = uniform_phase_density(state, 16384)
        horner = phase_density(state, None, phi)
        assert np.max(np.abs(dens - horner)) <= 1e-13 * horner.max()
        assert dens.min() >= 0.0
        assert np.mean(dens) * TWO_PI == pytest.approx(1.0, abs=1e-12)


class TestIntervalProbability:
    def test_number_state_any_center(self):
        w = PhaseWindow(0.7, 1.0)
        assert interval_probability(FockState.number_state(3), w) == pytest.approx(
            1.0 / TWO_PI, abs=1e-15
        )

    def test_full_circle_is_certain(self):
        for s in random_states(5, seed=11):
            p = interval_probability(s, PhaseWindow(0.3, TWO_PI))
            assert p == pytest.approx(1.0, abs=1e-14)

    def test_equal_pair_half_window(self):
        w = PhaseWindow(0.0, np.pi)
        p = interval_probability(HALF_PLUS, w)
        assert p == pytest.approx(EQUAL_PAIR_HALF_WINDOW, abs=1e-14)
        # independent quadrature route agrees with the hand integral
        assert quadrature_probability(HALF_PLUS, w) == pytest.approx(
            EQUAL_PAIR_HALF_WINDOW, abs=1e-8
        )

    def test_zero_width(self):
        assert interval_probability(HALF_PLUS, PhaseWindow(1.0, 0.0)) == 0.0

    def test_wrap_around_equals_split_arcs(self):
        # window straddling +-pi equals the sum over its two arcs
        s = random_states(1, seed=3)[0]
        p = interval_probability(s, PhaseWindow(np.pi, 1.0))
        q = quadrature_probability(s, PhaseWindow(np.pi, 1.0))
        assert p == pytest.approx(q, abs=1e-10)


class TestNumberProbability:
    def test_two_of_three(self):
        assert number_probability(TRIPLE, NumberWindow(0, 1)) == pytest.approx(2.0 / 3.0)

    def test_disjoint_support(self):
        assert number_probability(FockState.number_state(3), NumberWindow(0, 1)) == 0.0

    def test_covering_window(self):
        for s in random_states(5, seed=12):
            top = s.offset + s.size
            assert number_probability(s, NumberWindow(0, top)) == pytest.approx(
                1.0, abs=1e-14
            )


class TestReduce:
    def test_projection_and_renormalization(self):
        out = reduce(TRIPLE, NumberWindow(0, 1))
        assert out.offset == 0
        assert np.allclose(out.amplitudes, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_idempotent_on_eigenstate(self):
        s = FockState.number_state(2)
        assert reduce(s, NumberWindow(2, 0)) == s

    def test_incompatible_window(self):
        with pytest.raises(IncompatibleWindowError):
            reduce(FockState.number_state(3), NumberWindow(0, 1))

    def test_zero_overlap_amplitudes(self):
        s = FockState([0.0, 0.0, 1.0])
        with pytest.raises(IncompatibleWindowError):
            reduce(s, NumberWindow(0, 1))


class TestConditionalProbability:
    def test_reduce_then_integrate(self):
        p = conditional_probability(
            TRIPLE, PhaseWindow(0.0, np.pi), NumberWindow(0, 1)
        )
        assert p == pytest.approx(EQUAL_PAIR_HALF_WINDOW, abs=1e-14)

    def test_full_window_certain(self):
        s = random_states(1, seed=5)[0]
        nw = NumberWindow(s.offset, s.size - 1)
        p = conditional_probability(s, PhaseWindow(0.0, TWO_PI), nw)
        assert p == pytest.approx(1.0, abs=1e-14)

    def test_number_state_uniform(self):
        p = conditional_probability(
            FockState.number_state(0), PhaseWindow(0.0, 1.0), NumberWindow(0, 0)
        )
        assert p == pytest.approx(1.0 / TWO_PI, abs=1e-15)


class TestInvariants:
    def test_density_normalization(self, state_pool):
        for s in state_pool:
            total = circle_integral(lambda phi: phase_density(s, None, phi))
            assert abs(total - 1.0) < 1e-10

    def test_density_non_negative(self):
        rng = np.random.default_rng(99)
        phi = rng.uniform(-np.pi, np.pi, 10_000)
        for s in random_states(10, seed=21):
            assert np.min(phase_density(s, None, phi)) >= -1e-14

    def test_phase_covariance(self, state_pool):
        rng = np.random.default_rng(42)
        for s in state_pool:
            theta = rng.uniform(-np.pi, np.pi)
            alpha = rng.uniform(-np.pi, np.pi)
            width = rng.uniform(0.0, TWO_PI)
            moved = interval_probability(
                phase_shift(s, theta), PhaseWindow(alpha + theta, width)
            )
            ref = interval_probability(s, PhaseWindow(alpha, width))
            assert abs(moved - ref) < 1e-12

    def test_number_shift_invariance(self, state_pool):
        rng = np.random.default_rng(43)
        pw = PhaseWindow(0.4, 1.3)
        for s in state_pool:
            m = int(rng.integers(0, 5))
            nw = NumberWindow(s.offset, max(s.size - 1, 0))
            shifted_nw = NumberWindow(s.offset + m, nw.precision)
            lhs = conditional_probability(number_shift(s, m), pw, shifted_nw)
            rhs = conditional_probability(s, pw, nw)
            assert abs(lhs - rhs) < 1e-12

    def test_quadratic_form_consistency(self):
        # at alpha = 0 the probability is the explicit double-sum kernel form
        for s in random_states(20, seed=31, max_offset=0):
            width = 1.9
            n = np.arange(s.size)
            diff = n[:, None] - n[None, :]
            g = np.where(
                diff == 0,
                width / TWO_PI,
                np.sin(0.5 * width * diff) / (np.pi * np.where(diff == 0, 1, diff)),
            )
            a = s.amplitudes
            explicit = np.sum(g * a[:, None] * a.conj()[None, :]).real
            assert abs(
                interval_probability(s, PhaseWindow(0.0, width)) - explicit
            ) < 1e-12

    def test_gross_probability_violation_raises(self):
        from phasebound import InternalConsistencyError

        # unnormalized input breaks the probability contract loudly, not silently
        heavy = FockState([2.0, 0.0])  # norm**2 == 4
        with pytest.raises(InternalConsistencyError):
            interval_probability(heavy, PhaseWindow(0.0, TWO_PI))

    def test_law_of_total_probability(self, state_pool):
        width = TWO_PI / 8.0
        centers = -np.pi + width * (np.arange(8) + 0.5)
        for s in state_pool[:25]:
            total = sum(
                interval_probability(s, PhaseWindow(c, width)) for c in centers
            )
            assert abs(total - 1.0) < 1e-12
