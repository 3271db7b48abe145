"""Write the output oracle's reference for workloads, at the default seed.

    python3 bench/make_reference.py grid-zonal [more workloads]

Only for a change that alters check records on purpose: the reference is
what every later run is checked against.  Every check must PASS.
"""

from __future__ import annotations

import json
import sys

import oracle
from run import DEFAULT_SEED, RUN_LIMIT_S, spawn


def main(workloads):
    oracle.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads:
        child = spawn(["--workload", workload, "--seed", str(DEFAULT_SEED)], RUN_LIMIT_S)
        if not child.ok:
            sys.exit(f"{workload}: child failed: {child.error}")
        entries = oracle.to_reference(child.out["records"])
        with open(oracle.reference_path(workload), "w") as fh:
            fh.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
        print(f"{workload}: {len(entries)} checks", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
