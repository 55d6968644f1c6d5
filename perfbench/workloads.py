"""Operation sequences of the benchmark's workloads, made from a seed.

The worker process imports this module, so it uses the standard library
only: no checking code and no numerical library is loaded next to the
program under test.

Every workload is a sequence of *rounds*. A run executes whole rounds, so
each run holds the same mix of operations whatever its length.

bound-verify draws its parameters by systematic sampling: a seeded offset
places five ``dk`` values one per fifth of the range, each paired with one
``xi`` in the lower and one in the upper half of its range (rising with
``dk`` in the lower half, falling in the upper), and the round repeats the
grid with the mirrored offsets ``1 - u``. Every seed gives different
operations, but each round holds nearly the same spread of costs, so the
median and tail of a run do not move with the seed. (For 40 operations, a
cost model gave run-to-run medians that spread by 10 % with independent
uniform draws and by about 2 % with this design.)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fig1-curve", "bound-verify", "full-output")

# Reported tail percentile (nearest rank). MIN_OPS timed operations leave at
# least ten samples beyond it; every run times at least that many.
TAIL_PERCENTILE = 80
MIN_OPS = 50

FIG1_GRID = ("--dk", "0,1,2,3,inf", "--xi-start", "0", "--xi-stop", "4", "--xi-step", "0.05")

# bound-verify: a systematic grid of BOUND_GRID dk values x 2 xi halves,
# twice (offsets u and 1 - u) per round.
BOUND_DK = (800, 1200)
BOUND_XI = (0.5, 3.0)
BOUND_GRID = 5

# full-output: discrete spectrum near dk=1000, continuum spectrum at 1024
# nodes, and the phase density of a 501-amplitude state at 16384 points.
SPECTRUM_DK = (990, 1010)
SPECTRUM_XI = (0.5, 3.0)
CONTINUUM_NODES = 1024
STATE_SIZE = 501
DENSITY_POINTS = 16384


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the parameters its checks need."""

    index: int
    kind: str
    argv: tuple
    output: str  # file the operation writes, or "" when it prints only
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StateInput:
    """The full-output workload's state: a dpss taper turned to ``alpha``.

    The amplitudes are made by the parent process (it needs scipy); the
    worker only reads the file.
    """

    size: int
    xi: float  # taper concentration, so dalpha = 2*pi*xi/size
    alpha: float
    offset: int

    @property
    def dalpha(self) -> float:
        return 2.0 * math.pi * self.xi / self.size


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # str seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{stream}")


def state_input(seed: int) -> StateInput:
    rng = _rng("full-output", seed, "state")
    return StateInput(
        size=STATE_SIZE,
        xi=rng.uniform(0.5, 3.0),
        alpha=rng.uniform(-math.pi, math.pi),
        offset=rng.randrange(0, 1000),
    )


def state_path(rundir: Path) -> Path:
    return rundir / "state.json"


def _fig1(index: int, rundir: Path, tag: str) -> Op:
    out = rundir / f"{tag}{index:05d}.csv"
    gp = rundir / f"{tag}{index:05d}.gp"
    argv = ("curve",) + FIG1_GRID + ("--output", str(out), "--gnuplot", str(gp))
    return Op(index, "curve", argv, str(out), {"gnuplot": str(gp)})


def _bound(index: int, dk: int, xi: float) -> Op:
    dalpha = 2.0 * math.pi * xi / (dk + 1)
    argv = ("bound", "--dalpha", repr(dalpha), "--dk", str(dk), "--verify")
    return Op(index, "bound", argv, "", {"dk": dk, "dalpha": dalpha})


def _spectrum(index: int, dk: int, xi: float, rundir: Path, tag: str) -> Op:
    dalpha = 2.0 * math.pi * xi / (dk + 1)
    out = rundir / f"{tag}{index:05d}-spectrum.csv"
    argv = ("spectrum", "--dalpha", repr(dalpha), "--dk", str(dk), "--output", str(out))
    return Op(index, "spectrum", argv, str(out), {"dk": dk, "dalpha": dalpha})


def _continuum(index: int, xi: float, rundir: Path, tag: str) -> Op:
    out = rundir / f"{tag}{index:05d}-continuum.csv"
    argv = ("spectrum", "--xi", repr(xi), "--nodes", str(CONTINUUM_NODES), "--output", str(out))
    return Op(index, "continuum", argv, str(out), {"xi": xi})


def _distribution(index: int, state: StateInput, rundir: Path, tag: str) -> Op:
    out = rundir / f"{tag}{index:05d}-density.csv"
    argv = (
        "distribution", "--state", str(state_path(rundir)),
        "--alpha", repr(state.alpha), "--dalpha", repr(state.dalpha),
        "--points", str(DENSITY_POINTS), "--output", str(out),
    )
    return Op(index, "distribution", argv, str(out), {})


def _grid(bounds: tuple, position: float) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * position


def _bound_round(rng: random.Random, index: int) -> list:
    u, v = rng.random(), rng.random()
    cells = []
    for du, dv in ((u, v), (1.0 - u, 1.0 - v)):
        for i in range(BOUND_GRID):
            dk = int(_grid(BOUND_DK, (i + du) / BOUND_GRID))
            for half, k in ((0, i), (1, BOUND_GRID - 1 - i)):
                cells.append((dk, _grid(BOUND_XI, (half + (k + dv) / BOUND_GRID) / 2)))
    rng.shuffle(cells)
    return [_bound(index + n, dk, xi) for n, (dk, xi) in enumerate(cells)]


def rounds(workload: str, seed: int, rundir: Path):
    """Yield the workload's timed rounds, each a list of Ops, without end."""
    rng = _rng(workload, seed, "ops")
    index = 0
    while True:
        if workload == "fig1-curve":
            batch = [_fig1(index, rundir, "op")]
        elif workload == "bound-verify":
            batch = _bound_round(rng, index)
        elif workload == "full-output":
            dk = rng.randint(*SPECTRUM_DK)
            batch = [
                _spectrum(index, dk, rng.uniform(*SPECTRUM_XI), rundir, "op"),
                _continuum(index + 1, rng.uniform(*SPECTRUM_XI), rundir, "op"),
                _distribution(index + 2, state_input(seed), rundir, "op"),
            ]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        index += len(batch)
        yield batch


def warmup(workload: str, seed: int, rundir: Path) -> list:
    """Untimed operations run once before the timed loop.

    They sit at the upper corner of the workload's parameter range, so the
    process's peak memory is set by the same operation in every run and not
    by which draws a seed happened to make.
    """
    if workload == "fig1-curve":
        return [_fig1(0, rundir, "warm")]
    if workload == "bound-verify":
        return [_bound(0, BOUND_DK[1], BOUND_XI[1])]
    if workload == "full-output":
        return [
            _spectrum(0, SPECTRUM_DK[1], SPECTRUM_XI[1], rundir, "warm"),
            _continuum(1, SPECTRUM_XI[1], rundir, "warm"),
            _distribution(2, state_input(seed), rundir, "warm"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def first_ops(workload: str, seed: int, rundir: Path, count: int) -> list:
    """The first ``count`` timed operations, as the worker ran them."""
    ops: list = []
    for batch in rounds(workload, seed, rundir):
        ops.extend(batch)
        if len(ops) >= count:
            return ops[:count]
    return ops
