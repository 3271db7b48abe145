"""The benchmark's traced child against the current sources.

bench/layers.py wraps ultrasph functions by name; a rename or a changed
result in src/ would break the traced run without failing any unit test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_irreducibility_child_runs_against_src(tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "child.py"),
            "--workload", "grid-irreducibility", "--seed", "1", "--spans", str(spans),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(out["records"]) == 221
    assert all(r["status"] == "PASS" for r in out["records"])
    assert "matgroup.verify_generators" in {name for name, *_ in out["stats"]}
    assert spans.stat().st_size > 0
