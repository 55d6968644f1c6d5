"""Per-layer tracing, installed from outside the program for traced runs only.

``install()`` replaces every public module-level function of the program's
modules (the layers ``states``, ``povm``, ``kernel``, ``asymptotic`` and
``oracles``) with a wrapper that records a span, in every module namespace
that binds it, so calls between modules and inside a module both pass
through the wrapper. In ``cli`` only the output writers are wrapped, plus
``cli.Path`` so that every file the CLI writes is timed and counted; the
rest of ``cli`` is what ``cli.self_s`` measures. The program's files are not
edited, and untraced runs never import this module.
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import sys
import time

LAYERS = ("states", "povm", "kernel", "asymptotic", "oracles")
CLI_WRITERS = ("write_curve_csv", "write_curve_json", "write_gnuplot_script")

# per-layer metric -> the wrapped functions whose summed call time it reports
TIMED = {
    "kernel.eigensystem_s": ("kernel.eigensystem",),
    "kernel.build_kernel_s": ("kernel.build_kernel",),
    "oracles.power_iteration_s": ("oracles.power_iteration",),
    "asymptotic.limit_s": ("asymptotic.asymptotic_least_upper_bound",),
    "asymptotic.nystrom_spectrum_s": ("asymptotic.nystrom_spectrum",),
    "povm.conditional_probability_s": ("povm.conditional_probability",),
    "povm.interval_probability_s": ("povm.interval_probability",),
    "povm.phase_density_s": ("povm.phase_density",),
    "states.normalize_s": ("states.normalize",),
}
COUNTED = {
    "kernel.eigensystem_calls": "kernel.eigensystem",
    "asymptotic.limit_calls": "asymptotic.asymptotic_least_upper_bound",
}
WRITE_KEYS = tuple(f"cli.{name}" for name in CLI_WRITERS) + ("cli.Path.write_text",)


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Spans and counts of one operation; list.append keeps pool threads safe."""

    def __init__(self) -> None:
        self.spans: list = []
        self.iterations: list = []
        self.matrix_bytes: list = []
        self.written: list = []

    def start_op(self) -> None:
        for items in (self.spans, self.iterations, self.matrix_bytes, self.written):
            items.clear()

    def wrap(self, key: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((key, t0, time.perf_counter()))
            if key == "oracles.power_iteration":
                self.iterations.append(result.iterations)
            elif key == "kernel.build_kernel":
                self.matrix_bytes.append(result.entries.nbytes)
            return result

        return traced

    def finish_op(self, t0: float, t1: float, stdout_bytes: int) -> dict:
        """Per-layer figures of the operation that ran from ``t0`` to ``t1``."""
        spans = list(self.spans)
        busy: dict = {}
        calls: dict = {}
        for key, a, b in spans:
            busy[key] = busy.get(key, 0.0) + (b - a)
            calls[key] = calls.get(key, 0) + 1
        layers = {name: sum(busy.get(k, 0.0) for k in keys) for name, keys in TIMED.items()}
        layers.update({name: calls.get(key, 0) for name, key in COUNTED.items()})
        layers["kernel.matrix_mb"] = max(self.matrix_bytes, default=0) / 2**20
        layers["oracles.power_iterations"] = sum(self.iterations)
        layers["cli.write_s"] = _union([(a, b) for k, a, b in spans if k in WRITE_KEYS], t0, t1)
        layers["cli.output_bytes"] = sum(self.written) + stdout_bytes
        layers["cli.self_s"] = (t1 - t0) - _union([(a, b) for _, a, b in spans], t0, t1)
        layers["cli.op_s"] = t1 - t0
        layers["wrapped_calls"] = len(spans)
        layers["functions"] = {k: [calls[k], busy[k]] for k in sorted(calls)}
        return layers


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a direct call, measured on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    costs = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append(time.perf_counter() - t0)
    return max(0.0, (costs[1] - costs[0]) / calls)


def install() -> Tracer:
    tracer = Tracer()
    import phasebound.cli as cli

    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "phasebound"]
    wrapped: dict = {}
    for layer in LAYERS:
        module = sys.modules[f"phasebound.{layer}"]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
    for name in CLI_WRITERS:
        wrapped[id(getattr(cli, name))] = tracer.wrap(f"cli.{name}", getattr(cli, name))
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(module, name, wrapped[id(obj)])

    write_text = tracer.wrap("cli.Path.write_text", pathlib.Path.write_text)
    written = tracer.written

    class TracedPath(type(pathlib.Path())):
        def write_text(self, data, *args, **kwargs):
            written.append(len(data.encode(kwargs.get("encoding") or "utf-8")))
            return write_text(self, data, *args, **kwargs)

    cli.Path = TracedPath
    return tracer
