"""One workload in a fresh interpreter: set up, run the suites, report.

Started by run.py, never imported by it.  The last line of standard output
is one JSON object:

    setup_end   CLOCK_MONOTONIC reading at the first suite call
    wall_s      first suite call to last suite return
    records     id, status, expected and observed of every check record
    stats       with --trace: per-(span, parent) count/total/self aggregates
    counters    with --trace: counts taken at the wrapped calls

``CheckRecord.seconds`` is not read: it times everything since the previous
record, not the check itself, so the benchmark times the suite calls here.
Spans go to the --spans file, never into the records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the run and write its spans here")
    ap.add_argument("--machine", action="store_true", help="report numpy and BLAS only")
    args = ap.parse_args(argv)
    if args.machine:
        print(json.dumps(_machine()), flush=True)
        return

    sys.path.insert(0, SRC)
    import ultrasph

    if not os.path.abspath(ultrasph.__file__).startswith(SRC + os.sep):
        sys.exit(f"ultrasph imported from {ultrasph.__file__}, not from {SRC}")
    from ultrasph.verify import Recorder
    from workloads import WORKLOADS

    setup, run = WORKLOADS[args.workload]
    tracer = None
    if args.spans:
        import layers

        tracer = layers.install(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    state = setup()
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = {"setup_end": t0}
    if not args.setup_only:
        rec = Recorder()
        run(state, rec, args.seed)
        out["wall_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
        out["records"] = [_record(r) for r in rec.sorted_records()]
    if tracer is not None:
        tracer.write_spans(args.spans)
        out["stats"] = tracer.stats_list()
        out["counters"] = dict(tracer.counters)
    print(json.dumps(out), flush=True)


def _machine():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _record(r):
    return {
        "id": r.check_id,
        "status": r.status,
        "expected": r.expected,
        "observed": r.observed,
        "exact": r.residual is None,
    }


if __name__ == "__main__":
    main()
