"""Benchmark of the ultrasph verifier: four workloads replaying the acceptance grid.

    python3 bench/run.py --workload grid-zonal --seed 7 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

A run is a closed loop with one caller: it starts the workload in a fresh
interpreter (child.py), waits for it, checks its records against the output
oracle, and starts the next one while the next would still end inside
--seconds; it always runs at least one.  Each child is a single process, so
module-level caches (``pseries._VERIFIED_GENS``, ``RingLevel._levels`` and
``_characters``, ``SphereIndex._matrix_perms``) start cold, as they do for a
CLI user.  Set-up-only children, half before the loop and half after it,
add samples of set-up time.  --seconds defaults to run_seconds of
BENCHMARK.json, the run length the bounds were set for.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced children and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
machine record and a table go to standard error.  The exit code is 0 only
when every check passed the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"
DEFAULT_SEED = 20260808
SETUP_PROBES = 30
RUN_LIMIT_S = 170  # a run must end within 180 s
BLAS_THREADS = 1  # two threads on two CPUs collapse under any contention


def clock():
    # CLOCK_MONOTONIC is system-wide, so parent and child readings compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def blas_threads():
    """BLAS threads for every child: fixed, and never more than the CPUs we may use."""
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


@dataclass
class Child:
    ok: bool
    duration: float  # spawn to reap, as the parent saw it
    rss_mb: float  # this child's own maximum resident set size
    out: dict | None
    setup_s: float | None = None
    error: str | None = None


def spawn(args, timeout):
    """Run child.py with ``args``; reap it with wait4 for its own rusage."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return spawn_command([sys.executable, str(HERE / "child.py"), *args], timeout, env)


def spawn_command(cmd, timeout, env=None):
    """Run ``cmd`` and reap it with wait4.

    The child's ru_maxrss is its own peak, except that Linux also counts the
    resident size of this process when it spawned the child; the parent
    keeps small (no numpy) so that floor stays below any workload's peak.
    """
    t0 = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        data = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    duration = clock() - t0
    rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    lines = data.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return Child(False, duration, rss_mb, None, error=f"exit code {proc.returncode}")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return Child(False, duration, rss_mb, None, error=f"unreadable output: {e}")
    if not isinstance(out, dict):
        return Child(False, duration, rss_mb, None, error="output is not a JSON object")
    setup_s = out["setup_end"] - t0 if "setup_end" in out else None
    return Child(True, duration, rss_mb, out, setup_s=setup_s)


def machine_record():
    """Where the numbers were taken; informational, nothing here is gated."""
    probe = spawn(["--machine"], timeout=60)
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **(probe.out if probe.ok else {"numpy": None, "blas": None}),
        "blas_threads": blas_threads(),
        "src_lines": src_lines,
    }


def _commit():
    try:
        # the ceiling keeps git from reading above the checkout
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the result object of the contract."""
    started = clock()
    reference = oracle.load_reference(workload)
    exact = seed == DEFAULT_SEED
    base = ["--workload", workload, "--seed", str(seed)]

    def remaining():
        return RUN_LIMIT_S - (clock() - started)

    setups = []

    def probe_setup():
        # half the probes go before the children and half after, so that
        # their median spans the run, not one phase of a machine whose speed drifts
        for _ in range(0 if trace else SETUP_PROBES // 2):
            probe = spawn(base + ["--setup-only"], timeout=max(remaining(), 1))
            if probe.ok:
                setups.append(probe.setup_s)

    probe_setup()
    modes = [False, True] if trace else [False]
    children = {False: [], True: []}
    attempted = failed = 0
    worst = 0  # most checks any one child failed
    t0 = clock()
    while True:
        t_round = clock()
        for traced in modes:
            args = base
            if traced:
                SPANS_DIR.mkdir(exist_ok=True)
                args = base + ["--spans", str(SPANS_DIR / f"{workload}.spans.jsonl")]
            child = spawn(args, timeout=max(remaining(), 1))
            attempted += len(reference)
            if child.ok:
                mismatches = oracle.compare(child.out["records"], reference, exact=exact)
                for cid, reason in mismatches[:5]:
                    print(f"[{workload}] oracle: {cid}: {reason}", file=sys.stderr)
                bad = min(len(mismatches), len(reference))
                setups.append(child.setup_s)
            else:
                print(f"[{workload}] child failed: {child.error}", file=sys.stderr)
                bad = len(reference)
            failed += bad
            worst = max(worst, bad)
            children[traced].append(child)
        last = clock() - t_round
        elapsed = clock() - t0
        if elapsed + last > seconds or last > remaining():
            break
    probe_setup()

    def wall(c):
        return c.out["wall_s"] if c.ok else c.duration

    for traced, runs in children.items():
        if runs:
            label = "traced" if traced else "untraced"
            print(f"[{workload}] {label} walls: " + " ".join(f"{wall(c):.3f}" for c in runs),
                  file=sys.stderr)
    untraced_wall = statistics.median(wall(c) for c in children[False])
    if trace:
        import layers

        per_child = [
            layers.layer_metrics(c.out["stats"], c.out["counters"])
            for c in children[True] if c.ok
        ]
        metrics = {
            name: {
                "value": statistics.median(m[name][0] for m in per_child) if per_child else 0,
                "unit": unit,
            }
            for name, (_, unit) in layers.layer_metrics([], {}).items()
        }
        overhead = statistics.median(wall(c) for c in children[True]) - untraced_wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": untraced_wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(c.rss_mb for c in children[False]), "unit": "MB",
            },
            # the worst child's share, so that one failed check breaches the bound
            # however many children the run fits
            "check_pass_frac": {"value": 1.0 - worst / len(reference), "unit": "ratio"},
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _table(rows):
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ultrasph" / "__init__.py").is_file():
        print(f"no ultrasph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec()["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    print("machine: " + json.dumps(machine_record()), file=sys.stderr)
    results = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        results[workload] = result
        print(f"{workload} (seed {args.seed}, trace {args.trace}): "
              f"{result['failed']} of {result['attempted']} checks failed", file=sys.stderr)
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if not args.trace:
            rows.append(("check_fail_frac", 1.0 - result["metrics"]["check_pass_frac"]["value"],
                         "ratio"))
        _table(rows)
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]), flush=True)
    else:
        print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
