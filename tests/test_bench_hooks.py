"""The benchmark's traced children against the current sources.

bench/layers.py wraps ultrasph functions by name; a rename or a changed
result in src/ would break the traced run without failing any unit test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_child(workload, spans):
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "child.py"),
            "--workload", workload, "--seed", "1", "--spans", str(spans),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(r["status"] == "PASS" for r in out["records"])
    assert spans.stat().st_size > 0
    return out, {name for name, *_ in out["stats"]}


def test_traced_irreducibility_child_runs_against_src(tmp_path):
    out, spans = traced_child("grid-irreducibility", tmp_path / "spans.jsonl")
    assert len(out["records"]) == 221
    assert "matgroup.verify_generators" in spans


def test_traced_laurent_newform_child_runs_against_src(tmp_path):
    # layers.py wraps FlagCosets.__init__, action_of and invariant_space and
    # reads model._action_cache, all by name
    out, spans = traced_child("laurent-newform", tmp_path / "spans.jsonl")
    assert len(out["records"]) == 105
    assert {"pseries.invariant_space", "pseries.cosets", "pseries.action_of"} <= spans
    assert out["counters"]["pseries.cosets.total"] > 0
    # the hits are read off the length of model._action_cache
    assert out["counters"]["pseries.action_of.hits"] > 0
