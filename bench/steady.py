"""Steadiness report: is each end-to-end metric steady enough for its bound?

    python3 bench/steady.py --rounds 10 [--sets 2] [--workload W ...]

Runs ``bench/run.py --trace 0`` as a separate process, the way an outside
harness does, ``rounds`` times per workload and set, with a new seed each
time and the run length of BENCHMARK.json.  Within a round the workload
order rotates, so no workload always runs first.  Per set, metric and
workload it prints the median, the quartiles and the spread (IQR / median);
the spread must stay within the metric's bound and should stay under a third
of it.
With two or more sets it also checks that no later set's median is worse
than the first set's by more than the bound.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, spec


def run_once(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    """Share by which ``second`` is worse than ``first`` (negative if better)."""
    if not first:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def report(runs, metrics):
    """runs[set][workload] = list of result objects; returns True if all checks hold."""
    ok = True
    workloads = list(runs[0])
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for i, sets in enumerate(runs):
                values = [r["metrics"][name]["value"] for r in sets[workload]]
                med, q1, q3, spread = summary(values)
                medians.append(med)
                if spread > bound:
                    verdict, ok = "SPREAD > BOUND", False
                elif spread > bound / 3:
                    verdict = "spread > bound/3"
                else:
                    verdict = "ok"
                print(f"  {name:<16} {i + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {bound:>6}  {verdict}")
            for i, med in enumerate(medians[1:], start=2):
                drift = worse_by(medians[0], med, m["better"])
                if drift > bound:
                    ok = False
                print(f"  {name:<16} set {i} vs 1: worse by {drift:+.4f} of the median "
                      f"({'FAIL' if drift > bound else 'ok'})")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args(argv)

    bench = spec()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = []
    for s in range(args.sets):
        sets = {w: [] for w in workloads}
        for r in range(args.rounds):
            k = r % len(workloads)
            for workload in workloads[k:] + workloads[:k]:
                seed = 1000 * (s + 1) + r
                result = run_once(workload, seed)
                sets[workload].append(result)
                print(f"set {s + 1} round {r + 1} {workload} seed {seed}: " + ", ".join(
                    f"{n}={v['value']:.4g}" for n, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
        runs.append(sets)
    return 0 if report(runs, bench["end_to_end"]) else 1


if __name__ == "__main__":
    sys.exit(main())
