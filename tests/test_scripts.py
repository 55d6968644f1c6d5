"""The experiment scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasebound

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(phasebound.__file__).parents[1])


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_make_fig1_writes_curve_and_gnuplot(tmp_path):
    done = run_script("make_fig1.py", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "fig1.csv").read_text().splitlines()
    assert lines[0] == "xi,dk,dalpha,lambda0,cauchy_bound,asym_error,note"
    assert len(lines) == 1 + 5 * 81  # dk = 0, 1, 2, 3, inf over xi = 0, 0.05, .., 4
    assert "fig1.csv" in (tmp_path / "fig1.gp").read_text()


def test_asymptote_convergence_prints_scaled_difference():
    done = run_script("asymptote_convergence.py", "--xi", "1", "--dk", "5", "10")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "xi = 1.0"
    assert lines[1].split() == ["dk", "dalpha", "lambda0", "asymptote", "difference", "(dk+1)^2*diff"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["5", "10"]
    for dk, _, lam, asymptote, diff, scaled in ((int(r[0]), *map(float, r[1:])) for r in rows):
        assert diff == pytest.approx(lam - asymptote, rel=1e-3)
        assert scaled == pytest.approx((dk + 1) ** 2 * diff, rel=1e-3)
