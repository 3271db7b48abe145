"""The benchmark's children against the current sources.

bench/layers.py wraps ultrasph functions by name; a rename or a changed
result in src/ would break the traced run without failing any unit test.
The untraced children at the benchmark's default seed are held to the
stored references in bench/reference, which are only read here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_SEED = 20260808  # bench/run.py's default seed, at which the references were taken


def run_child(workload, *args):
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--workload", workload, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_child(workload, spans):
    out = run_child(workload, "--seed", "1", "--spans", str(spans))
    assert all(r["status"] == "PASS" for r in out["records"])
    assert spans.stat().st_size > 0
    return out, {name for name, *_ in out["stats"]}


@pytest.mark.parametrize("workload", ["grid-zonal", "grid-newform"])
def test_untraced_child_matches_its_reference(workload):
    # every record: id, status and expected string; an exact record's
    # observed string too; a residual record only its PASS status
    records = run_child(workload, "--seed", str(BENCH_SEED))["records"]
    reference = json.loads((ROOT / "bench" / "reference" / f"{workload}.json").read_text())
    assert [r["id"] for r in records] == [ref["id"] for ref in reference]
    for r, ref in zip(records, reference):
        assert r["status"] == ref["status"] == "PASS", r["id"]
        assert r["expected"] == ref["expected"], r["id"]
        assert r["exact"] == ("observed" in ref), r["id"]
        if r["exact"]:
            assert r["observed"] == ref["observed"], r["id"]


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


def test_traced_zonal_child_runs_against_src(tmp_path):
    # layers.py reads the ks argument of each identity check by position
    out, spans = traced_child("grid-zonal", tmp_path / "spans.jsonl")
    assert len(out["records"]) == 503
    assert {"verify.zonal", "verify.double_coset", "verify.arch"} <= spans
    assert {"harmonics.identities.idempotent_sum_residual", "matgroup.verify_generators"} <= spans
    assert out["counters"]["harmonics.identities.k_samples"] > 0


def test_traced_newform_child_runs_against_src(tmp_path):
    out, spans = traced_child("grid-newform", tmp_path / "spans.jsonl")
    assert len(out["records"]) == 202
    assert {"verify.pseries", "verify.roundtrip", "pseries.flag_canon"} <= spans
    assert {"pseries.invariant_space", "matgroup.verify_generators"} <= spans
    assert out["counters"]["pseries.action_of.hits"] > 0
