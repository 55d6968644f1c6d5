"""Repeatability check: two (or more) sets of runs of the same code.

    python3 perfbench/repeat.py                      # 2 sets x 10 runs, BENCHMARK.json's workloads
    python3 perfbench/repeat.py --sets 2 --runs 10 --workload fig1-curve

Set k (counting from 1) uses the seeds ``1000*k + 1 ... 1000*k + runs``; the
runs of a set go round the workloads in turn. For every workload and end-to-end metric it
prints each set's median, quartiles and spread (the distance between the
quartiles, as a share of the median), then says whether the sets agree
within the bounds of ``BENCHMARK.json``: every spread except that of
``setup_s`` within its bound, no later set's median worse than the first's
by more than the bound, and the same share of failed operations in every
set. Every run's JSON line is appended to ``.perfbench/repeat.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="repeatability of the end-to-end metrics")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    chosen = args.workload or names

    log = HERE.parent / ".perfbench" / "repeat.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = {w: [[] for _ in range(args.sets)] for w in chosen}
    for k in range(args.sets):
        for i in range(args.runs):
            for w in chosen:
                seed = 1000 * (k + 1) + i + 1
                res = run(w, seed, args.seconds, 0)
                results[w][k].append(res)
                with log.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": w, "set": k, "seed": seed, **res}) + "\n")
                print(f"set {k} run {i} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)

    ok = True
    print("| workload | metric | set | Q1 | median | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    verdicts = []
    for w in chosen:
        sets = results[w]
        if not all(r["correct"] for s in sets for r in s):
            ok = False
            verdicts.append(f"{w}: a run reported correct = false")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if len(set(shares)) != 1:
            ok = False
            verdicts.append(f"{w}: failed shares differ between sets: {shares}")
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            medians = []
            for k, s in enumerate(sets):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in s])
                spread = (q3 - q1) / med
                medians.append(med)
                print(f"| {w} | {name} ({metric['unit']}) | {k} | {q1:.4g} | {med:.4g} | {q3:.4g} "
                      f"| {spread:.3f} | {bound} |")
                if name != "setup_s" and spread > bound:
                    ok = False
                    verdicts.append(f"{w} {name}: set {k} spread {spread:.3f} > bound {bound}")
            for k, med in enumerate(medians[1:], start=1):
                worse = (med - medians[0]) / medians[0] if lower else (medians[0] - med) / medians[0]
                if worse > bound:
                    ok = False
                    verdicts.append(f"{w} {name}: set {k} median worse by {worse:.3f} > bound {bound}")
    print()
    print("\n".join(verdicts) if verdicts else "all sets agree within the bounds of BENCHMARK.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
