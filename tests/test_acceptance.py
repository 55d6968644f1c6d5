"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line straight to the terminal (bypassing
capture) so the verdicts are visible in any pytest run.
"""

import time

import numpy as np
import pytest

from phasebound import (
    NumberWindow,
    PhaseWindow,
    asymptotic_least_upper_bound,
    cauchy_bound,
    conditional_probability,
    interval_probability,
    least_upper_bound,
    number_shift,
    nystrom_eigenvalues,
    phase_density,
    phase_shift,
    power_iteration,
    prolate_eigenvalues,
)
from phasebound.cli import main
from conftest import TWO_PI, random_states
from dense_reference import eigensystem
from reference_oracles import random_state_search

DALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 6.2)
DK_GRID = tuple(range(17))
GRID = [(da, dk) for da in DALPHA_GRID for dk in DK_GRID]


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_anchors(capsys):
    start = time.perf_counter()
    grid = np.linspace(0.0, TWO_PI, 50)
    err0 = max(abs(least_upper_bound(da, 0)[0] - da / TWO_PI) for da in grid)
    err1 = max(
        abs(least_upper_bound(da, 1)[0] - (da / TWO_PI + np.sin(da / 2.0) / np.pi))
        for da in grid
    )
    # corroborate the 2x2 closed form with the power-iteration oracle
    err_power = 0.0
    for da in grid[5::6]:
        res = power_iteration(da, 1)
        if res.converged and not res.gap_degenerate:
            err_power = max(err_power, abs(res.value - least_upper_bound(da, 1)[0]))
    elapsed = time.perf_counter() - start
    ok = err0 < 1e-13 and err1 < 1e-11 and err_power <= 1e-9 and elapsed < 1.0
    verdict(
        capsys,
        "criterion 1 closed-form anchors",
        ok,
        f"dk0 err {err0:.2e} (<1e-13), dk1 err {err1:.2e} (<1e-11), "
        f"power oracle err {err_power:.2e} (<=1e-9), {elapsed:.2f}s (<1s)",
    )


def test_criterion_2_precision_product_bound(capsys):
    start = time.perf_counter()
    worst = -np.inf
    for da, dk in GRID:
        lam = least_upper_bound(da, dk)[0]
        worst = max(worst, lam - cauchy_bound(da, dk))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    verdict(
        capsys,
        "criterion 2 precision-product bound",
        ok,
        f"max(lambda0 - bound) {worst:.2e} (<=1e-12) over {len(GRID)} points, "
        f"{elapsed:.2f}s (<5s)",
    )


def test_criterion_3_trace_identity(capsys):
    worst_discrete = 0.0
    for da, dk in GRID:
        total = float(np.sum(eigensystem(da, dk).eigenvalues))
        worst_discrete = max(worst_discrete, abs(total - (dk + 1) * da / TWO_PI))
    worst_nystrom = worst_prolate = 0.0
    xis = sorted({da * (dk + 1) / TWO_PI for da, dk in GRID})
    for xi in xis:
        for nodes in (64, 128):
            vals = nystrom_eigenvalues(xi, nodes)
            worst_nystrom = max(worst_nystrom, abs(float(np.sum(vals)) - xi))
            vals = prolate_eigenvalues(xi, nodes)
            worst_prolate = max(worst_prolate, abs(float(np.sum(vals)) - xi))
    ok = worst_discrete < 1e-10 and worst_nystrom < 1e-10 and worst_prolate < 1e-10
    verdict(
        capsys,
        "criterion 3 trace identity",
        ok,
        f"discrete err {worst_discrete:.2e}, nystrom err {worst_nystrom:.2e}, "
        f"prolate err {worst_prolate:.2e} (<1e-10)",
    )


def test_criterion_4_attainment(capsys):
    worst = 0.0
    for da, dk in GRID:
        lam, state = least_upper_bound(da, dk)
        p = conditional_probability(state, PhaseWindow(0.0, da), NumberWindow(0, dk))
        worst = max(worst, abs(p - lam))
    ok = worst < 1e-10
    verdict(
        capsys,
        "criterion 4 attainment via measurement path",
        ok,
        f"max |P(optimal) - lambda0| {worst:.2e} (<1e-10)",
    )


def test_criterion_5_supremum_soundness(capsys):
    worst = -np.inf
    for da, dk in GRID:
        lam = least_upper_bound(da, dk)[0]
        worst = max(worst, random_state_search(da, dk, seed=20240809) - lam)
    ok = worst <= 1e-12
    verdict(
        capsys,
        "criterion 5 supremum soundness",
        ok,
        f"max excess over lambda0 {worst:.2e} (<=1e-12), 1000 states/point",
    )


def test_criterion_6_discrete_to_asymptotic(capsys):
    start = time.perf_counter()
    asymptote = asymptotic_least_upper_bound(1.0)[0]
    diffs = [
        abs(least_upper_bound(TWO_PI / (dk + 1), dk)[0] - asymptote) for dk in (10, 50, 200)
    ]
    elapsed = time.perf_counter() - start
    ok = diffs[2] < 1e-3 and diffs[0] > diffs[1] > diffs[2] and elapsed < 30.0
    verdict(
        capsys,
        "criterion 6 discrete-to-asymptotic convergence",
        ok,
        f"diffs {diffs[0]:.2e} > {diffs[1]:.2e} > {diffs[2]:.2e} "
        f"(final <1e-3), {elapsed:.2f}s (<30s)",
    )


def test_criterion_7_asymptotic_behavior(capsys):
    xis = [0.25 * k for k in range(1, 17)]
    lams = [asymptotic_least_upper_bound(xi)[0] for xi in xis]
    increasing = bool(np.all(np.diff(lams) > 0.0))
    ratio = asymptotic_least_upper_bound(0.1)[0] / 0.1
    saturated = asymptotic_least_upper_bound(4.0)[0]
    two_res = max(
        abs(
            nystrom_eigenvalues(xi, 64)[0]
            - nystrom_eigenvalues(xi, 128)[0]
        )
        for xi in xis
    )
    ok = increasing and ratio >= 0.99 and saturated > 0.999 and two_res < 1e-10
    verdict(
        capsys,
        "criterion 7 asymptotic behavior",
        ok,
        f"strictly increasing {increasing}, ratio(0.1) {ratio:.4f} (>=0.99), "
        f"value(4) {saturated:.6f} (>0.999), 64-vs-128 {two_res:.2e} (<1e-10)",
    )


def test_criterion_8_measurement_layer(capsys):
    states = random_states(100, seed=20240809)
    rng = np.random.default_rng(7)
    phi = -np.pi + TWO_PI * np.arange(4096) / 4096
    worst_norm = 0.0
    worst_cov = 0.0
    worst_shift = 0.0
    for s in states:
        worst_norm = max(
            worst_norm, abs(float(np.mean(phase_density(s, None, phi))) * TWO_PI - 1.0)
        )
        theta = rng.uniform(-np.pi, np.pi)
        alpha = rng.uniform(-np.pi, np.pi)
        width = rng.uniform(0.0, TWO_PI)
        cov = abs(
            interval_probability(phase_shift(s, theta), PhaseWindow(alpha + theta, width))
            - interval_probability(s, PhaseWindow(alpha, width))
        )
        worst_cov = max(worst_cov, cov)
        m = int(rng.integers(0, 6))
        nw = NumberWindow(s.offset, s.size - 1)
        shift = abs(
            conditional_probability(
                number_shift(s, m), PhaseWindow(alpha, width), NumberWindow(s.offset + m, nw.precision)
            )
            - conditional_probability(s, PhaseWindow(alpha, width), nw)
        )
        worst_shift = max(worst_shift, shift)
    ok = worst_norm < 1e-10 and worst_cov < 1e-12 and worst_shift < 1e-12
    verdict(
        capsys,
        "criterion 8 measurement-layer properties",
        ok,
        f"normalization {worst_norm:.2e} (<1e-10), covariance {worst_cov:.2e} "
        f"(<1e-12), number-shift {worst_shift:.2e} (<1e-12), 100 states",
    )


def test_criterion_9_curve_reproduction(capsys, tmp_path):
    argv = lambda name: [
        "curve", "--dk", "0,1,2,3,inf",
        "--xi-start", "0", "--xi-stop", "4", "--xi-step", "0.05",
        "--output", str(tmp_path / name),
    ]
    start = time.perf_counter()
    assert main(argv("run1.csv")) == 0
    first = time.perf_counter() - start
    assert main(argv("run2.csv")) == 0
    identical = (tmp_path / "run1.csv").read_bytes() == (tmp_path / "run2.csv").read_bytes()

    rows = [
        line.split(",")
        for line in (tmp_path / "run1.csv").read_text().splitlines()[1:]
    ]
    by_xi: dict[str, dict[str, float]] = {}
    for cells in rows:
        if cells[3]:
            by_xi.setdefault(cells[0], {})[cells[1]] = float(cells[3])
    ordered = True
    for xi_text, lam in by_xi.items():
        chain = [lam[dk] for dk in ("0", "1", "2", "3") if dk in lam]
        ordered &= all(a >= b for a, b in zip(chain, chain[1:]))
        if chain and "inf" in lam:
            ordered &= chain[-1] >= lam["inf"] - 1e-9
    saturated = by_xi["4"]["inf"] > 0.999
    ok = identical and ordered and saturated and first < 60.0
    verdict(
        capsys,
        "criterion 9 curve reproduction",
        ok,
        f"byte-identical {identical}, ordering over {len(by_xi)} xi values "
        f"{ordered}, inf row at xi=4 saturated {saturated}, first run {first:.1f}s (<60s)",
    )
