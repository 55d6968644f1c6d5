"""Runs one workload's operations through ``phasebound.cli.main`` in a closed loop.

This process holds the program and nothing of the checks: it imports the
standard library, ``phasebound.cli`` and the stdlib-only workload module, and,
in a traced run only, the tracing wrappers. Its peak resident memory is the
benchmark's ``peak_rss_mb``.

    python perfbench/worker.py --probe
        import phasebound.cli, print "ready" and exit (one set-up sample)
    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --rundir D [--deadline T]
        run the workload and write D/result.json; after T seconds, dump
        every thread's stack to stderr and exit

The result also records the share of the machine's CPU time stolen by the
hypervisor during the timed loop (from /proc/stat): on a shared virtual
machine it is the main source of run-to-run spread.

Each operation's captured stdout and stderr go to ``<op>.out`` and ``<op>.err``
in the run directory, written after the operation's clock has stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ENV_SEEN = (
    "PHASEBOUND_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "PYTHONDONTWRITEBYTECODE",  # when set, every set-up sample compiles the program anew
)


def cpu_counters():
    """(steal, total) jiffies of the whole machine, or None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def blas_threads(numpy):
    """Threads the bundled OpenBLAS uses, or None where it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        for lib in libs:
            try:
                return int(getattr(ctypes.CDLL(lib), name)())
            except (OSError, AttributeError):
                continue
    return None


def run_op(main, op, rundir: Path, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    if tracer is not None:
        tracer.start_op()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except Exception:  # the loop must go on; the failure is counted and shown
        rc = -1
        error = traceback.format_exc()
    t1 = time.perf_counter()
    cpu = time.process_time() - c0
    record = {"index": op.index, "kind": op.kind, "seconds": t1 - t0, "cpu_s": cpu, "rc": rc, "error": error}
    if tracer is not None:
        record["layers"] = tracer.finish_op(t0, t1, len(out.getvalue().encode()))
    stem = rundir / f"{'warm' if op.index < 0 else 'op'}{abs(op.index):05d}"
    for text, suffix in ((out.getvalue(), ".out"), (err.getvalue(), ".err")):
        if text:
            stem.with_suffix(suffix).write_text(text, encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rundir", type=Path)
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="seconds after which to dump every thread's stack and exit")
    args = parser.parse_args(argv)
    if args.deadline:
        faulthandler.dump_traceback_later(args.deadline, exit=True)

    import phasebound.cli as cli

    if args.probe:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    import workloads

    tracer = None
    wrapper_cost = None
    if args.trace:
        import tracing

        wrapper_cost = tracing.wrapper_cost()
        tracer = tracing.install()

    rundir = args.rundir
    warm = []
    for n, op in enumerate(workloads.warmup(args.workload, args.seed, rundir)):
        op = workloads.Op(-(n + 1), op.kind, op.argv, op.output, op.params)
        warm.append(run_op(cli.main, op, rundir, tracer))

    ops = []
    counters = cpu_counters()
    start = time.perf_counter()
    for batch in workloads.rounds(args.workload, args.seed, rundir):
        for op in batch:
            ops.append(run_op(cli.main, op, rundir, tracer))
        if time.perf_counter() - start >= args.seconds and len(ops) >= workloads.MIN_OPS:
            break
    loop_s = time.perf_counter() - start
    after = cpu_counters()
    steal = None
    if counters and after:
        steal = (after[0] - counters[0]) / max(1, after[1] - counters[1])

    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop_s": loop_s,
        "steal_share": steal,
        "wrapper_cost_s": wrapper_cost,
        "ops": ops,
        "warmup": warm,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "phasebound_file": cli.__file__,
        "env": {name: os.environ.get(name) for name in ENV_SEEN},
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "modules_loaded": sorted(m for m in sys.modules if m in ("tracing", "scipy")),
    }
    (rundir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
