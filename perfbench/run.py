"""phasebound benchmark: one workload, end-to-end or traced, with checked outputs.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload fig1-curve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. With ``--workload
all`` every workload runs in turn and each prints its own block. A full
record of each run, with every operation's time, is written to
``.perfbench/results/``.

Set-up time is measured first: ``SETUP_SAMPLES`` times, the workload's input
files are written and a fresh interpreter imports ``phasebound.cli`` and
reports ready; the median is ``setup_s``. Then one worker process (see
``worker.py``) runs the workload in a closed loop, one operation at a time,
and this process checks every output it wrote (see ``checks.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150
NODES = workloads.CONTINUUM_NODES
PER_LAYER = (
    "kernel.eigensystem_s", "kernel.eigensystem_calls", "kernel.build_kernel_s",
    "kernel.matrix_mb", "oracles.power_iteration_s", "oracles.power_iterations",
    "asymptotic.limit_s", "asymptotic.limit_calls", "asymptotic.nystrom_spectrum_s",
    "povm.conditional_probability_s", "povm.interval_probability_s",
    "povm.phase_density_s", "states.normalize_s", "cli.self_s", "cli.write_s",
    "cli.output_bytes", "cli.op_s",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("_mb"):
        return "MiB_computed"
    if name.endswith("_bytes"):
        return "B/op"
    return "count/op"


def worker_cmd(root: Path, *args: str) -> list:
    return [sys.executable, str(HERE / "worker.py"), *args]


def worker_env(root: Path) -> dict:
    env = dict(os.environ)  # thread settings pass through as the user has them
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def prepare_inputs(workload: str, seed: int, rundir: Path):
    """Make the workload's input files; return a callable that writes them."""
    if workload != "full-output":
        return lambda: None
    import checks

    text = checks.state_json(workloads.state_input(seed))
    path = workloads.state_path(rundir)
    return lambda: path.write_text(text, encoding="utf-8")


def measure_setup(root: Path, write_inputs) -> list:
    """Seconds from writing the inputs to a fresh interpreter having imported
    phasebound.cli, once untimed (to fill the bytecode cache) and then
    SETUP_SAMPLES times."""
    samples = []
    for n in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        write_inputs()
        proc = subprocess.Popen(
            worker_cmd(root, "--probe"), env=worker_env(root), cwd=root,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"import of phasebound.cli failed:\n{err}")
        if n:
            samples.append(t1 - t0)
    return samples


def check_outputs(workload: str, seed: int, rundir: Path, records: list) -> list:
    """Check every timed operation's output; return the problems found.

    Operations with identical arguments (every fig1-curve operation, every
    full-output distribution) must write identical bytes, so the first is
    checked against the references and the rest against the first.
    """
    import checks

    ops = workloads.first_ops(workload, seed, rundir, len(records))
    problems = []
    first: dict = {}

    def read(path: Path) -> str:
        return path.read_text(encoding="utf-8") if path.exists() else ""

    for op, rec in zip(ops, records):
        if rec["rc"] != 0:
            continue
        stem = rundir / f"op{op.index:05d}"
        out = Path(op.output) if op.output else None
        found: list
        if op.kind in ("curve", "distribution"):
            extra = Path(op.params["gnuplot"]) if op.kind == "curve" else Path(op.output + ".json")
            # the gnuplot script names its own CSV file, which differs per operation
            blob = (read(out), read(extra).replace(out.name, "<csv>"), read(stem.with_suffix(".err")))
            if op.kind in first:
                found = [] if blob == first[op.kind] else ["output differs from the first operation's"]
            elif op.kind == "curve":
                found = checks.check_curve(blob[0], blob[1], blob[2], "<csv>")
                first[op.kind] = blob
            else:
                state = workloads.state_input(seed)
                found = checks.check_distribution(blob[0], blob[1], state, workloads.DENSITY_POINTS)
                first[op.kind] = blob
        elif op.kind == "bound":
            found = checks.check_bound(read(stem.with_suffix(".out")), op.params["dk"], op.params["dalpha"])
        elif op.kind == "spectrum":
            found = checks.check_spectrum(read(out), op.params["dk"], op.params["dalpha"])
        else:
            found = checks.check_continuum(read(out), op.params["xi"], NODES)
        problems += [f"op {op.index} ({' '.join(op.argv[:1])}): {p}" for p in found]
    return problems


def end_to_end(result: dict, setup: list) -> dict:
    times = [r["seconds"] for r in result["ops"]]
    done = sum(r["rc"] == 0 for r in result["ops"])
    return {
        "ops_per_s": (done / result["loop_s"], "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (percentile(times, workloads.TAIL_PERCENTILE), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024, "MiB"),
    }


def per_layer(result: dict) -> dict:
    ops = result["ops"]
    metrics = {}
    for name in PER_LAYER:
        values = [r["layers"][name] for r in ops]
        value = max(values) if name == "kernel.matrix_mb" else sum(values) / len(values)
        metrics[name] = (value, unit(name))
    return metrics


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    rundir = root / ".perfbench" / f"run-{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        write_inputs = prepare_inputs(workload, seed, rundir)
        setup = measure_setup(root, write_inputs)
        cmd = worker_cmd(
            root, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--rundir", str(rundir), "--deadline", str(WORKER_TIMEOUT_S - 10),
        )
        proc = subprocess.Popen(cmd, env=worker_env(root), cwd=root, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            fail(f"worker did not finish within {WORKER_TIMEOUT_S} s:\n{err}")
        if proc.returncode != 0:
            fail(f"worker exited with {proc.returncode}:\n{err}")
        result = json.loads((rundir / "result.json").read_text(encoding="utf-8"))

        problems = check_outputs(workload, seed, rundir, result["ops"])
        problems += [f"warm-up op {r['index']}: rc {r['rc']}" for r in result["warmup"] if r["rc"] != 0]
        if not Path(result["phasebound_file"]).resolve().is_relative_to(root / "src"):
            problems.append(f"phasebound was imported from {result['phasebound_file']}")
        if ("tracing" in result["modules_loaded"]) != bool(trace) or "scipy" in result["modules_loaded"]:
            problems.append(f"worker loaded {result['modules_loaded']}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = sum(r["rc"] != 0 for r in result["ops"])
    metrics = per_layer(result) if trace else end_to_end(result, setup)
    summary = {
        "correct": not problems,
        "attempted": len(result["ops"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, setup_s=setup, problems=problems, summary=summary,
                  tail_percentile=workloads.TAIL_PERCENTILE)
    out = root / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    env = " ".join(f"{k}={v if v is not None else '(unset)'}" for k, v in result["env"].items())
    steal = result["steal_share"]
    print(f"{workload} seed={seed} trace={trace}: {env} cpus={result['cpu_count']} "
          f"python={result['python']} numpy={result['numpy']} blas={result['blas']} "
          f"blas_threads={result['blas_threads']} "
          f"steal={'n/a' if steal is None else f'{steal:.1%}'}")
    for r in result["ops"]:
        if r["rc"] != 0:
            print(f"  failed op {r['index']} ({r['kind']}): rc {r['rc']} {r.get('error', '')}".rstrip())
    for p in problems[:20]:
        print(f"  check failed: {p}")
    print(f"  attempted = {summary['attempted']}  failed = {failed}  correct = {summary['correct']}")
    for name, (value, u) in metrics.items():
        print(f"  {name} = {value:.6g} {u}")
    if trace:
        times = [r["seconds"] for r in result["ops"]]
        calls = statistics.mean(r["layers"]["wrapped_calls"] for r in result["ops"])
        cost = calls * result["wrapper_cost_s"]
        print(f"  traced op_s_p50 = {statistics.median(times):.6g} s; {calls:.0f} wrapped calls/op "
              f"x {result['wrapper_cost_s'] * 1e6:.2f} us = {cost * 1e3:.3f} ms/op "
              f"({cost / statistics.mean(times):.2%}) tracing overhead")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phasebound benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "phasebound" / "cli.py").is_file():
        fail(f"no program to measure: {root}/src/phasebound/cli.py is missing "
             "(run from the root of a phasebound checkout)")
    try:
        import numpy  # noqa: F401
        import scipy.signal.windows  # noqa: F401
    except ImportError as exc:
        fail(f"the checks need numpy and scipy: {exc}")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        summary = run_one(root, name, args.seed, args.seconds, args.trace)
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
