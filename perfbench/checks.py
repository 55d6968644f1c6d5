"""Checks of the program's outputs against computations made apart from it.

The reference for every top eigenvalue is Slepian's discrete prolate
spheroidal sequence: ``scipy.signal.windows.dpss(M, NW, Kmax=1,
return_ratios=True)`` with ``M = dk + 1`` and ``NW = dalpha*(dk+1)/(4*pi)
= xi/2``. scipy reaches it through the commuting tridiagonal matrix and an
autocorrelation sum, a route that shares nothing with the program's dense
Toeplitz solve or its Nystrom rule. The ``dk = inf`` limit is a Richardson
extrapolation of the ratios at M and 2M (the discrete error falls as 1/M^2).

Each ``check_*`` returns a list of problems; an empty list means correct.
These run in the parent process after the timed loop, never in the worker.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.signal.windows import dpss

EPS = np.finfo(float).eps
RATIO_TOL = 1e-13  # dpss ratio against a dense top eigenvalue (seen: <= 3.3e-16)
LIMIT_TOL = 1e-10  # the program's own refinement target for the dk=inf limit
RICHARDSON_M = 2001
SKIP_NOTE = "skipped: dalpha exceeds 2*pi"
CURVE_HEADER = ["xi", "dk", "dalpha", "lambda0", "cauchy_bound", "asym_error", "note"]
FIG1_DK = ("0", "1", "2", "3", "inf")
FIG1_XI = [i * 0.05 for i in range(81)]

_ratio_cache: dict = {}


def dpss_ratio(m: int, nw: float) -> float:
    key = (m, nw)
    if key not in _ratio_cache:
        _ratio_cache[key] = float(dpss(m, nw, Kmax=1, return_ratios=True)[1][0])
    return _ratio_cache[key]


def dpss_taper(m: int, nw: float) -> np.ndarray:
    taper = dpss(m, nw, Kmax=1, norm=2)[0]
    return taper / np.linalg.norm(taper)


def limit_ratio(xi: float) -> float:
    """``dk -> inf`` top eigenvalue at concentration ``xi``, extrapolated."""
    lo = dpss_ratio(RICHARDSON_M, xi / 2.0)
    hi = dpss_ratio(2 * RICHARDSON_M, xi / 2.0)
    return (4.0 * hi - lo) / 3.0


def state_amplitudes(state) -> np.ndarray:
    """The full-output state: the dpss taper of concentration ``xi``, turned
    so that its phase density peaks at ``alpha``."""
    n = np.arange(state.size)
    return dpss_taper(state.size, state.xi / 2.0) * np.exp(1j * state.alpha * n)


def state_json(state) -> str:
    amps = state_amplitudes(state)
    doc = {"offset": state.offset, "re": amps.real.tolist(), "im": amps.imag.tolist()}
    return json.dumps(doc)


def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _spectrum_values(text: str, header: list, problems: list) -> np.ndarray:
    rows = _rows(text)
    if not rows or rows[0] != header:
        problems.append(f"header {rows[:1]} != {header}")
        return np.zeros(0)
    if [r[0] for r in rows[1:]] != [str(i) for i in range(len(rows) - 1)]:
        problems.append("index column is not 0, 1, 2, ...")
    return np.array([float(r[1]) for r in rows[1:]])


def _check_spectrum_shape(vals: np.ndarray, size: int, xi: float, problems: list) -> None:
    """Descending, within [0, 1] up to a dense solver's backward error
    ``size * eps``, summing to the trace ``xi``."""
    tol = size * EPS
    if vals.size != size:
        problems.append(f"{vals.size} eigenvalues, expected {size}")
        return
    if np.any(np.diff(vals) > 0):
        problems.append("eigenvalues not descending")
    if vals.min() < -tol or vals.max() > 1 + tol:
        problems.append(f"eigenvalues leave [0, 1]: min {vals.min():.3e} max {vals.max():.17g}")
    if abs(vals.sum() - xi) > 1e-10:
        problems.append(f"trace {vals.sum():.17g} != xi {xi:.17g}")


def check_spectrum(text: str, dk: int, dalpha: float) -> list:
    problems: list = []
    vals = _spectrum_values(text, ["index", "eigenvalue"], problems)
    xi = dalpha * (dk + 1) / (2 * math.pi)
    _check_spectrum_shape(vals, dk + 1, xi, problems)
    if vals.size and abs(vals[0] - dpss_ratio(dk + 1, xi / 2.0)) > RATIO_TOL:
        problems.append(f"top {vals[0]:.17g} != dpss {dpss_ratio(dk + 1, xi / 2.0):.17g}")
    return problems


def check_continuum(text: str, xi: float, nodes: int) -> list:
    problems: list = []
    rows = _rows(text)
    if any(r[2] != str(nodes) for r in rows[1:]):
        problems.append(f"nodes column is not {nodes}")
    vals = _spectrum_values(text, ["index", "eigenvalue", "nodes"], problems)
    _check_spectrum_shape(vals, nodes, xi, problems)
    if vals.size and abs(vals[0] - limit_ratio(xi)) > LIMIT_TOL:
        problems.append(f"top {vals[0]:.17g} != dpss limit {limit_ratio(xi):.17g}")
    return problems


def check_distribution(text: str, sidecar: str, state, points: int) -> list:
    problems: list = []
    rows = _rows(text)
    if rows[:1] != [["phi", "density"]] or len(rows) != points + 1:
        return [f"expected a phi,density table of {points} rows"]
    phi = np.array([float(r[0]) for r in rows[1:]])
    dens = np.array([float(r[1]) for r in rows[1:]])
    grid = np.array([-math.pi + 2 * math.pi * i / points for i in range(points)])
    if np.max(np.abs(phi - grid)) > 4 * EPS:
        problems.append("phi grid is not -pi + 2*pi*i/points")
    if dens.min() < 0:
        problems.append(f"negative density {dens.min():.3e}")
    mass = dens.sum() * 2 * math.pi / points
    if abs(mass - 1.0) > 1e-12:
        problems.append(f"density integrates to {mass:.17g}, not 1")
    # |sum_n psi_n exp(-i n phi)|^2 / (2 pi) on the grid is one FFT of psi * (-1)^n
    amps = state_amplitudes(state)
    ref = np.abs(np.fft.fft(amps * (-1.0) ** np.arange(state.size), points)) ** 2 / (2 * math.pi)
    if np.max(np.abs(dens - ref)) > 1e-12 * ref.max():
        problems.append(f"density differs from the FFT reference by {np.max(np.abs(dens - ref)):.3e}")
    side = json.loads(sidecar)
    want = dpss_ratio(state.size, state.xi / 2.0)
    if abs(side["probability"] - want) > RATIO_TOL:
        problems.append(f"sidecar probability {side['probability']!r} != dpss ratio {want!r}")
    if side["points"] != points or side["kind"] != "distribution":
        problems.append(f"sidecar fields {side}")
    return problems


def _kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def check_bound(stdout: str, dk: int, dalpha: float) -> list:
    problems: list = []
    kv = _kv(stdout)
    xi = dalpha * (dk + 1) / (2 * math.pi)
    if "verify_power_delta" not in kv:
        problems.append("no verify_power_delta: the power-iteration comparison did not run")
    if "verify_power_note" in kv:
        problems.append(f"skip note: {kv['verify_power_note']}")
    if "lambda0" not in kv or "optimal_state_re" not in kv:
        return problems + ["lambda0 or the optimal state is missing"]
    lam = float(kv["lambda0"])
    want = dpss_ratio(dk + 1, xi / 2.0)
    if abs(lam - want) > RATIO_TOL:
        problems.append(f"lambda0 {lam!r} != dpss ratio {want!r}")
    if abs(float(kv["xi"]) - xi) > 4 * EPS * xi:
        problems.append(f"xi {kv['xi']} != {xi!r}")
    re = np.array([float(v) for v in kv["optimal_state_re"].split(",")])
    im = np.array([float(v) for v in kv["optimal_state_im"].split(",")])
    amps = re + 1j * im
    if amps.size != dk + 1 or kv.get("optimal_state_offset") != "0":
        return problems + [f"optimal state has {amps.size} amplitudes at offset {kv.get('optimal_state_offset')}"]
    if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
        problems.append(f"optimal state norm {np.linalg.norm(amps)!r}")
    overlap = abs(np.vdot(dpss_taper(dk + 1, xi / 2.0), amps))
    if 1.0 - overlap > 1e-9:
        problems.append(f"optimal state overlaps the dpss taper by {overlap!r}")
    return problems


def check_curve(text: str, gnuplot: str, stderr: str, csv_name: str) -> list:
    """The Figure 1 grid: order, flags, closed forms, dpss and its limit."""
    problems: list = []
    rows = _rows(text)
    if not rows or rows[0] != CURVE_HEADER:
        return [f"header {rows[:1]} != {CURVE_HEADER}"]
    rows = rows[1:]
    want_keys = [(dk, xi) for dk in FIG1_DK for xi in FIG1_XI]
    if [(r[1], float(r[0])) for r in rows] != want_keys:
        return ["rows are not the (dk, xi) grid in lexicographic order"]
    flagged = 0
    prev: dict = {}
    for r in rows:
        xi, dk = float(r[0]), r[1]
        label = f"dk={dk} xi={r[0]}"
        is_inf = dk == "inf"
        should_flag = not is_inf and xi > int(dk) + 1
        if (r[6] == SKIP_NOTE) != should_flag or r[6] not in ("", SKIP_NOTE):
            problems.append(f"{label}: note {r[6]!r}, flagged iff xi > dk+1")
            continue
        if should_flag:
            flagged += 1
            if r[3] or r[4]:
                problems.append(f"{label}: flagged row carries values")
            continue
        lam, cauchy = float(r[3]), float(r[4])
        if abs(cauchy - min(1.0, xi)) > 4 * EPS:
            problems.append(f"{label}: cauchy_bound {cauchy!r}")
        if lam > min(1.0, xi) + 4 * EPS:
            problems.append(f"{label}: lambda0 {lam!r} exceeds min(1, xi)")
        if lam < prev.get(dk, 0.0):
            problems.append(f"{label}: lambda0 {lam!r} decreases in xi")
        prev[dk] = lam
        if xi == 0.0:
            want = 0.0
        elif is_inf:
            want = limit_ratio(xi)
            if not 0.0 <= float(r[5]) <= LIMIT_TOL:
                problems.append(f"{label}: asym_error {r[5]}")
        elif dk == "0":
            want = xi
        elif xi == int(dk) + 1:  # dalpha = 2*pi: the window is the whole circle
            want = 1.0
        else:
            want = dpss_ratio(int(dk) + 1, xi / 2.0)
            if dk == "1":
                closed = xi / 2 + abs(math.sin(math.pi * xi / 2)) / math.pi
                if abs(lam - closed) > 1e-14:
                    problems.append(f"{label}: lambda0 {lam!r} != closed form {closed!r}")
        tol = LIMIT_TOL if is_inf else RATIO_TOL
        if abs(lam - want) > tol:
            problems.append(f"{label}: lambda0 {lam!r} != reference {want!r}")
        if not is_inf and abs(float(r[2]) - 2 * math.pi * xi / (int(dk) + 1)) > 8 * EPS * max(xi, 1):
            problems.append(f"{label}: dalpha {r[2]}")
    warnings = [line for line in stderr.splitlines() if line.startswith("warning:")]
    if len(warnings) != flagged:
        problems.append(f"{len(warnings)} warnings on stderr for {flagged} flagged rows")
    if f"csvfile = '{csv_name}'" not in gnuplot or gnuplot.count("with lines title") != len(FIG1_DK):
        problems.append("gnuplot script does not plot the CSV's five columns")
    return problems
