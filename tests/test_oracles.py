"""Brute-force oracles and their agreement with the closed forms."""

import numpy as np
import pytest

from phasebound import (
    DomainError,
    FockState,
    OracleConfig,
    PhaseWindow,
    cauchy_bound,
    interval_probability,
    leading_eigenpair,
    least_upper_bound,
    normalize,
    power_iteration,
    quadrature_probability,
    random_state_search,
)
from conftest import TWO_PI, random_states


class TestOracleConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.quadrature_points == 4096
        assert cfg.trials == 1000
        assert cfg.power_tolerance == 1e-12
        assert cfg.max_iterations == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quadrature_points": 0},
            {"trials": -1},
            {"max_iterations": 0},
            {"power_tolerance": 0.0},
            {"power_tolerance": 1e-5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OracleConfig(**kwargs)


class TestQuadratureProbability:
    def test_vacuum_unit_window(self):
        p = quadrature_probability(FockState.number_state(0), PhaseWindow(0.0, 1.0))
        assert p == pytest.approx(1.0 / TWO_PI, abs=1e-10)

    def test_equal_pair_half_window(self):
        s = normalize(FockState([1.0, 1.0]))
        p = quadrature_probability(s, PhaseWindow(0.0, np.pi))
        assert p == pytest.approx((np.pi + 2.0) / TWO_PI, abs=1e-8)

    def test_full_circle(self):
        s = random_states(1, seed=77)[0]
        assert quadrature_probability(s, PhaseWindow(0.0, TWO_PI)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_zero_width(self):
        assert quadrature_probability(FockState([1.0]), PhaseWindow(0.0, 0.0)) == 0.0

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(1234)
        for s in random_states(100, seed=88):
            w = PhaseWindow(rng.uniform(-np.pi, np.pi), rng.uniform(0.0, TWO_PI))
            assert abs(
                quadrature_probability(s, w) - interval_probability(s, w)
            ) < 1e-8


class TestPowerIteration:
    def test_single_support_one_step(self):
        res = power_iteration(1.1, 0)
        assert res.iterations == 1
        assert res.converged and not res.gap_degenerate
        assert res.value == pytest.approx(1.1 / TWO_PI, abs=1e-15)

    def test_two_by_two(self):
        res = power_iteration(np.pi, 1)
        assert res.converged
        assert abs(res.value - (0.5 + 1.0 / np.pi)) < 1e-9

    def test_identity_is_gap_degenerate(self):
        res = power_iteration(TWO_PI, 3)
        assert res.gap_degenerate
        assert res.value == pytest.approx(1.0)

    def test_zero_kernel_rejected(self):
        with pytest.raises(DomainError):
            power_iteration(0.0, 2)

    def test_deterministic(self):
        cfg = OracleConfig(seed=5)
        a = power_iteration(2.2, 6, cfg)
        b = power_iteration(2.2, 6, cfg)
        assert a.value == b.value
        assert np.array_equal(a.vector, b.vector)

    def test_products_on_bound_verify_range(self):
        # the Ritz pair of the first few power iterates; taking the last
        # iterate alone needed about 170 products here
        rng = np.random.default_rng(8)
        counts = []
        for _ in range(20):
            dk = int(rng.integers(800, 1201))
            dalpha = TWO_PI * rng.uniform(0.5, 3.0) / (dk + 1)
            res = power_iteration(dalpha, dk)
            assert res.converged and not res.gap_degenerate
            assert abs(res.value - leading_eigenpair(dalpha, dk)[0]) <= 1e-12
            counts.append(res.iterations)
        assert np.mean(counts) <= 16

    def test_restart(self, monkeypatch):
        import phasebound.oracles as oracles

        monkeypatch.setattr(oracles, "_BASIS", 2)
        dalpha = TWO_PI * 3.0 / 41
        res = power_iteration(dalpha, 40)
        assert res.converged
        assert abs(res.value - leading_eigenpair(dalpha, 40)[0]) <= 1e-12

    def test_small_gap_range(self):
        # where the top gap falls to 1e-8 and far below, the Ritz pair still
        # converges within bound --verify's budget of 64 products
        cases = [(40, 8), (40, 16)] + [(dk, xi) for dk in (200, 1000, 3000) for xi in (8, 16, 64)]
        for dk, xi in cases:
            dalpha = TWO_PI * xi / (dk + 1)
            res = power_iteration(dalpha, dk, OracleConfig(max_iterations=64))
            assert res.converged and not res.gap_degenerate
            assert abs(res.value - leading_eigenpair(dalpha, dk)[0]) <= 1e-12

    def test_product_cap(self):
        res = power_iteration(TWO_PI * 3.0 / 1001, 1000, OracleConfig(max_iterations=3))
        assert not res.converged and not res.gap_degenerate
        assert res.iterations == 3


class TestRandomStateSearch:
    def test_single_support_is_exact(self):
        found = random_state_search(1.0, 0, OracleConfig(trials=50))
        assert found == pytest.approx(1.0 / TWO_PI, rel=1e-14)

    def test_two_by_two_seeded_range(self):
        lam = 0.5 + 1.0 / np.pi
        found = random_state_search(np.pi, 1, OracleConfig(seed=42))
        assert found <= lam + 1e-12
        assert found > 0.78  # soft: best of 1000 lands near the top

    def test_never_exceeds_cauchy_bound(self):
        for dalpha, dk in ((0.4, 2), (2.0, 5), (6.0, 3)):
            found = random_state_search(dalpha, dk, OracleConfig(trials=200))
            assert found <= cauchy_bound(dalpha, dk) + 1e-12

    def test_supremum_soundness(self):
        for dalpha, dk in ((0.7, 4), (3.1, 7)):
            lam = least_upper_bound(dalpha, dk)[0]
            assert random_state_search(dalpha, dk) <= lam + 1e-12

    def test_deterministic(self):
        cfg = OracleConfig(seed=9, trials=300)
        assert random_state_search(1.9, 5, cfg) == random_state_search(1.9, 5, cfg)
