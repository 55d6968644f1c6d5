"""Command-line surface: bounds, curves, distributions and spectra.

Files are written deterministically: identical invocations produce identical
bytes, grid points are computed one after another in a fixed order, and every
float is printed with 17 significant digits so it re-parses to the same
double.  CSV output is RFC-4180 with LF line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from .asymptotic import (
    asymptotic_least_upper_bound,
    concentration_parameter,
    nystrom_eigenvalues,
)
from .errors import (
    ConvergenceFailureError,
    DomainError,
    InternalConsistencyError,
    NoConvergenceError,
)
from .kernel import cauchy_bound, eigensystem, least_upper_bound
from .oracles import OracleConfig, power_iteration
from .povm import conditional_probability, interval_probability, phase_density
from .states import TWO_PI, FockState, NumberWindow, PhaseWindow, normalize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_SKIP_NOTE = "skipped: dalpha exceeds 2*pi"
_POWER_SKIP_NOTE = "comparison skipped: gap-degenerate or slow"
# kernel products the power-iteration oracle may take in ``bound --verify``:
# where the top gap is small it converges slowly, and past this budget the
# comparison is skipped with _POWER_SKIP_NOTE
_VERIFY_PRODUCTS = 64
_CONFIG_KEYS = ("dk", "xi_start", "xi_stop", "xi_step", "format", "output", "x_axis")
_CURVE_COLUMNS = ("xi", "dk", "dalpha", "lambda0", "cauchy_bound", "asym_error", "note")


# 17 significant digits round-trip every float; lists are formatted with one
# ``%`` call on a template of repeated ``_FLOAT``s
_FLOAT = "%.17g"


def _fmt(value: float) -> str:
    """Format a float with 17 significant digits (round-trips exactly)."""
    return _FLOAT % float(value)


def _fmt_join(values: Sequence[float]) -> str:
    """``",".join(_fmt(v) for v in values)``, formatted in one ``%`` call."""
    return ",".join([_FLOAT] * len(values)) % tuple(values)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _fmt(value)


def _dk_label(dk: float) -> str:
    return "inf" if math.isinf(dk) else str(int(dk))


def parse_dk_list(text: str) -> tuple[float, ...]:
    """Parse a comma list of number-precision values, allowing the token inf."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "inf":
            values.append(math.inf)
        else:
            try:
                values.append(float(int(token)))
            except ValueError as exc:
                raise DomainError(f"bad dk entry {token!r}") from exc
    if not values:
        raise DomainError("dk list is empty")
    if any(v < 0 for v in values):
        raise DomainError("dk entries must be >= 0")
    return tuple(sorted(set(values)))


@dataclass(frozen=True)
class CurveSpec:
    """Everything needed to emit one family of bound curves."""

    dk_values: tuple[float, ...]
    xi_start: float
    xi_stop: float
    xi_step: float
    output: Path
    fmt: str = "csv"
    x_axis: str = "xi"
    gnuplot: Optional[Path] = None

    def __post_init__(self) -> None:
        if not self.dk_values:
            raise DomainError("dk list is empty")
        if any(v < 0 for v in self.dk_values):
            raise DomainError("dk entries must be >= 0")
        if not (0.0 <= self.xi_start < self.xi_stop):
            raise DomainError("require 0 <= xi_start < xi_stop")
        if not self.xi_step > 0.0:
            raise DomainError("xi_step must be > 0")
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"format {self.fmt!r} not in (csv, json)")
        if self.x_axis not in ("xi", "dalpha"):
            raise DomainError(f"x_axis {self.x_axis!r} not in (xi, dalpha)")
        if self.gnuplot is not None and self.fmt != "csv":
            raise DomainError("gnuplot emission requires csv format")

    def xi_grid(self) -> list[float]:
        count = int(math.floor((self.xi_stop - self.xi_start) / self.xi_step + 1e-9))
        return [self.xi_start + i * self.xi_step for i in range(count + 1)]


def _curve_point(dk: float, xi: float) -> dict:
    row = {
        "xi": xi,
        "dk": _dk_label(dk),
        "dalpha": None,
        "lambda0": None,
        "cauchy_bound": None,
        "asym_error": None,
        "note": None,
    }
    if math.isinf(dk):
        lam, err = asymptotic_least_upper_bound(xi)
        row["lambda0"] = lam
        row["cauchy_bound"] = min(1.0, xi)
        row["asym_error"] = err
        return row
    dk_int = int(dk)
    dalpha = TWO_PI * xi / (dk_int + 1)
    if dalpha > TWO_PI:
        if dalpha <= TWO_PI * (1.0 + 1e-12):  # grid rounding, not a real overshoot
            dalpha = TWO_PI
        else:
            row["dalpha"] = dalpha
            row["note"] = _SKIP_NOTE
            return row
    row["dalpha"] = dalpha
    row["lambda0"] = least_upper_bound(dalpha, dk_int)[0]
    row["cauchy_bound"] = cauchy_bound(dalpha, dk_int)
    return row


def compute_curve_rows(spec: CurveSpec) -> list[dict]:
    """All grid rows in (dk, xi) lexicographic order."""
    return [_curve_point(dk, xi) for dk in spec.dk_values for xi in spec.xi_grid()]


def _curve_columns(spec: CurveSpec) -> tuple[str, ...]:
    if spec.x_axis == "dalpha":
        return ("dalpha", "dk", "xi") + _CURVE_COLUMNS[3:]
    return _CURVE_COLUMNS


def write_curve_csv(rows: Sequence[dict], spec: CurveSpec) -> None:
    columns = _curve_columns(spec)
    lines = [",".join(columns)]
    lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
    spec.output.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_curve_json(rows: Sequence[dict], spec: CurveSpec) -> None:
    doc = {"kind": "curve", "x_axis": spec.x_axis, "rows": list(rows)}
    spec.output.write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")


def write_gnuplot_script(spec: CurveSpec) -> None:
    """Companion plot script for a CSV curve file (lambda0 is column 4)."""
    xlabel = spec.x_axis
    plots = ", \\\n  ".join(
        f"csvfile using (strcol(2) eq '{_dk_label(dk)}' ? $1 : NaN):4 "
        f"with lines title 'dk={_dk_label(dk)}'"
        for dk in spec.dk_values
    )
    script = (
        "# plot the bound curves written by `phasebound curve`\n"
        f"csvfile = '{spec.output.name}'\n"
        "set datafile separator ','\n"
        f"set xlabel '{xlabel}'\n"
        "set ylabel 'probability bound'\n"
        "set yrange [0:1.05]\n"
        "set key right bottom\n"
        f"plot \\\n  {plots}\n"
    )
    spec.gnuplot.write_text(script, encoding="ascii")


def _print_kv(key: str, value) -> None:
    print(f"{key} = {value}")


def cmd_bound(args: argparse.Namespace) -> int:
    dalpha = math.radians(args.dalpha) if args.degrees else args.dalpha
    lam, state = least_upper_bound(dalpha, args.dk)
    _print_kv("lambda0", _fmt(lam))
    _print_kv("xi", _fmt(concentration_parameter(dalpha, args.dk)))
    _print_kv("cauchy_bound", _fmt(cauchy_bound(dalpha, args.dk)))
    _print_kv("optimal_state_offset", state.offset)
    _print_kv("optimal_state_re", _fmt_join(state.amplitudes.real.tolist()))
    _print_kv("optimal_state_im", _fmt_join(state.amplitudes.imag.tolist()))
    if not args.verify:
        return EXIT_OK

    attained = conditional_probability(
        state, PhaseWindow(0.0, dalpha), NumberWindow(0, args.dk)
    )
    residual = abs(attained - lam)
    _print_kv("verify_attainment", _fmt(attained))
    _print_kv("verify_attainment_residual", _fmt(residual))
    if residual > 1e-10:
        raise InternalConsistencyError(
            f"optimal state misses its bound by {residual:.3e}"
        )

    if dalpha == 0.0:
        _print_kv("verify_power_note", "skipped: zero kernel")
        return EXIT_OK
    result = power_iteration(dalpha, args.dk, OracleConfig(max_iterations=_VERIFY_PRODUCTS))
    _print_kv("verify_power_lambda0", _fmt(result.value))
    _print_kv("verify_power_residual", _fmt(result.residual))
    _print_kv("verify_power_iterations", result.iterations)
    _print_kv("verify_power_converged", str(result.converged).lower())
    if result.gap_degenerate or not result.converged:
        _print_kv("verify_power_note", _POWER_SKIP_NOTE)
        return EXIT_OK
    delta = abs(result.value - lam)
    _print_kv("verify_power_delta", _fmt(delta))
    if delta > 1e-9:
        raise ConvergenceFailureError(
            f"power iteration disagrees with the eigensolve by {delta:.3e}"
        )
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    config = _load_config(args.config) if args.config else {}

    def setting(name: str, flag, parse, default):
        if flag is not None:
            return flag
        if name in config:
            return parse(config[name])
        return default

    dk_flag = parse_dk_list(args.dk) if args.dk is not None else None
    output = setting("output", args.output, str, None)
    if output is None:
        raise DomainError("no output path: pass --output or set output in the config")
    spec = CurveSpec(
        dk_values=setting("dk", dk_flag, parse_dk_list, parse_dk_list("0,1,2,3,inf")),
        xi_start=setting("xi_start", args.xi_start, float, 0.0),
        xi_stop=setting("xi_stop", args.xi_stop, float, 4.0),
        xi_step=setting("xi_step", args.xi_step, float, 0.05),
        output=Path(output),
        fmt=setting("format", args.format, str, "csv"),
        x_axis=setting("x_axis", args.x_axis, str, "xi"),
        gnuplot=Path(args.gnuplot) if args.gnuplot else None,
    )
    rows = compute_curve_rows(spec)
    for row in rows:
        if row["note"]:
            print(
                f"warning: dk={row['dk']} xi={_fmt(row['xi'])}: {row['note']}",
                file=sys.stderr,
            )
    if spec.fmt == "csv":
        write_curve_csv(rows, spec)
        if spec.gnuplot is not None:
            write_gnuplot_script(spec)
    else:
        write_curve_json(rows, spec)
    return EXIT_OK


def cmd_distribution(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.state).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read state file {args.state}: {exc}") from exc
    state = normalize(FockState.from_json(payload))

    alpha = math.radians(args.alpha) if args.degrees else args.alpha
    dalpha = math.radians(args.dalpha) if args.degrees else args.dalpha
    window = PhaseWindow(alpha, dalpha)
    if args.points < 1:
        raise DomainError("points must be >= 1")

    phi = [-math.pi + TWO_PI * i / args.points for i in range(args.points)]
    dens = phase_density(state, None, phi)
    out = Path(args.output)
    table = [0.0] * (2 * args.points)
    table[::2], table[1::2] = phi, dens.tolist()
    rows = "\n".join([f"{_FLOAT},{_FLOAT}"] * args.points) % tuple(table)
    out.write_text(f"phi,density\n{rows}\n", encoding="ascii")

    sidecar = {
        "kind": "distribution",
        "alpha": window.center,
        "dalpha": window.width,
        "points": args.points,
        "probability": interval_probability(state, window),
    }
    Path(str(out) + ".json").write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="ascii"
    )
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    discrete = args.dalpha is not None or args.dk is not None
    continuum = args.xi is not None or args.nodes is not None
    if discrete == continuum:
        raise DomainError("give either --dalpha with --dk, or --xi with --nodes")
    out = Path(args.output)

    if discrete:
        if args.dalpha is None or args.dk is None:
            raise DomainError("the discrete form needs both --dalpha and --dk")
        dalpha = math.radians(args.dalpha) if args.degrees else args.dalpha
        vals = eigensystem(dalpha, args.dk).eigenvalues
        header, tail = "index,eigenvalue", ""
    else:
        if args.xi is None:
            raise DomainError("the continuum form needs --xi")
        nodes = args.nodes if args.nodes is not None else 64
        vals = nystrom_eigenvalues(args.xi, nodes)
        header, tail = "index,eigenvalue,nodes", f",{nodes}"
    rows = "\n".join(f"{i},{_FLOAT}{tail}" for i in range(vals.size)) % tuple(vals.tolist())
    out.write_text(f"{header}\n{rows}\n", encoding="ascii")
    return EXIT_OK


def _load_config(path: str) -> dict[str, str]:
    """Read key = value lines; '#' starts a comment, blanks are skipped.

    A key outside ``_CONFIG_KEYS`` raises DomainError, so a misspelt setting
    is refused rather than left at its default.
    """
    settings: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        settings[key] = value
    return settings


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: it holds no
    per-call state, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="phasebound",
        description="Least upper bounds for joint phase / photon-number precision.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="bound and optimal state at one grid point")
    p_bound.add_argument("--dalpha", type=float, required=True, help="phase precision")
    p_bound.add_argument("--dk", type=int, required=True, help="number precision")
    p_bound.add_argument("--verify", action="store_true", help="run the oracles too")
    p_bound.add_argument("--degrees", action="store_true", help="angles in degrees")
    p_bound.set_defaults(func=cmd_bound)

    p_curve = sub.add_parser("curve", help="bound curves over the xi grid")
    p_curve.add_argument("--dk", type=str, help="comma list of dk values, token inf allowed")
    p_curve.add_argument("--xi-start", dest="xi_start", type=float)
    p_curve.add_argument("--xi-stop", dest="xi_stop", type=float)
    p_curve.add_argument("--xi-step", dest="xi_step", type=float)
    p_curve.add_argument("--format", choices=("csv", "json"))
    p_curve.add_argument("--output", type=str)
    p_curve.add_argument("--x-axis", dest="x_axis", choices=("xi", "dalpha"))
    p_curve.add_argument("--gnuplot", type=str, help="also write a plot script (csv only)")
    p_curve.add_argument("--config", type=str, help="key = value file presetting the grid")
    p_curve.set_defaults(func=cmd_curve)

    p_dist = sub.add_parser("distribution", help="phase density table for a state")
    p_dist.add_argument("--state", type=str, required=True, help="state JSON file")
    p_dist.add_argument("--alpha", type=float, default=0.0, help="window center")
    p_dist.add_argument("--dalpha", type=float, required=True, help="window width")
    p_dist.add_argument("--points", type=int, default=1024)
    p_dist.add_argument("--output", type=str, required=True)
    p_dist.add_argument("--degrees", action="store_true", help="angles in degrees")
    p_dist.set_defaults(func=cmd_distribution)

    p_spec = sub.add_parser("spectrum", help="full spectrum, discrete or continuum")
    p_spec.add_argument("--dalpha", type=float, help="discrete form: phase precision")
    p_spec.add_argument("--dk", type=int, help="discrete form: number precision")
    p_spec.add_argument("--xi", type=float, help="continuum form: concentration")
    p_spec.add_argument("--nodes", type=int, help="continuum form: quadrature nodes")
    p_spec.add_argument("--output", type=str, required=True)
    p_spec.add_argument("--degrees", action="store_true", help="angles in degrees")
    p_spec.set_defaults(func=cmd_spectrum)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the input errors all subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceFailureError, NoConvergenceError, InternalConsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())
