"""The benchmark's own tests; they run in seconds and start no workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = run.spec()
RECORDS = [
    {"id": "a/exact", "status": "PASS", "expected": "3", "observed": "3", "exact": True},
    {"id": "b/residual", "status": "PASS", "expected": "< 1e-09",
     "observed": "1.2e-15", "exact": False},
    {"id": "c/exact", "status": "PASS", "expected": "[1, 2]", "observed": "[1, 2]",
     "exact": True},
]


def _fake_spawn(args, timeout):
    if "--machine" in args:
        return run.Child(True, 0.1, 30.0, {"numpy": "x", "blas": "y"})
    out = {"setup_end": 0.0}
    if "--setup-only" not in args:
        out.update(wall_s=1.5, records=[dict(r) for r in RECORDS])
    if "--spans" in args:
        out.update(stats=[], counters={})
    return run.Child(True, 1.6, 50.0, out, setup_s=0.1)


@pytest.fixture
def fake_children(monkeypatch):
    monkeypatch.setattr(run, "spawn", _fake_spawn)
    monkeypatch.setattr(oracle, "load_reference", lambda w: oracle.to_reference(RECORDS))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(fake_children, capsys, trace, section):
    workload = SPEC["workloads"][0]["name"]
    code = run.main(["--workload", workload, "--seconds", "1", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_a_dropped_check_fails_the_run(fake_children, monkeypatch, capsys):
    ref = oracle.to_reference(RECORDS + [dict(RECORDS[0], id="z/dropped")])
    monkeypatch.setattr(oracle, "load_reference", lambda w: ref)
    code = run.main(["--workload", SPEC["workloads"][0]["name"], "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and not result["correct"] and result["failed"] > 0
    assert result["metrics"]["check_pass_frac"]["value"] < 1


def test_one_failed_check_in_one_child_breaches_the_bound(fake_children, monkeypatch, capsys):
    calls = []

    def one_bad_child(args, timeout):
        child = _fake_spawn(args, timeout)
        if "records" in child.out:
            calls.append(args)
            if len(calls) == 2:
                child.out["records"][0]["status"] = "FAIL"
        return child

    monkeypatch.setattr(run, "spawn", one_bad_child)
    code = run.main(["--workload", SPEC["workloads"][0]["name"], "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and result["failed"] == 1 and len(calls) > 2
    (metric,) = [m for m in SPEC["end_to_end"] if m["name"] == "check_pass_frac"]
    assert 1.0 - result["metrics"]["check_pass_frac"]["value"] > metric["bound"]
    # and so on every real workload, however many checks its children run
    largest = max(len(json.loads(oracle.reference_path(w["name"]).read_text()))
                  for w in SPEC["workloads"])
    assert 1.0 / largest > metric["bound"]


def test_oracle_rejects_flipped_status_changed_exact_string_and_dropped_check():
    ref = oracle.to_reference(RECORDS)
    assert oracle.compare(RECORDS, ref) == []
    flipped = [dict(r) for r in RECORDS]
    flipped[1]["status"] = "FAIL"
    assert [cid for cid, _ in oracle.compare(flipped, ref)] == ["b/residual"]
    changed = [dict(r) for r in RECORDS]
    changed[2]["observed"] = "[1, 3]"
    assert [cid for cid, _ in oracle.compare(changed, ref)] == ["c/exact"]
    assert [cid for cid, _ in oracle.compare(RECORDS[1:], ref)] == ["a/exact"]
    skipped = [dict(r) for r in RECORDS]
    skipped[0]["status"] = "SKIP"
    assert [cid for cid, _ in oracle.compare(skipped, ref)] == ["a/exact"]
    extra = RECORDS + [dict(RECORDS[0], id="d/new")]
    assert [cid for cid, _ in oracle.compare(extra, ref)] == ["d/new"]


def test_oracle_compares_residuals_by_status_and_other_seeds_by_id_set():
    ref = oracle.to_reference(RECORDS)
    blas = [dict(r) for r in RECORDS]
    blas[1]["observed"] = "3.4e-16"
    assert oracle.compare(blas, ref) == []
    other_seed = [dict(r) for r in RECORDS]
    other_seed[2]["observed"] = other_seed[2]["expected"] = "[1, 2, 3]"
    assert oracle.compare(other_seed, ref, exact=False) == []
    assert oracle.compare(other_seed, ref, exact=True) != []


def test_reference_refuses_failing_or_duplicate_checks():
    with pytest.raises(ValueError):
        oracle.to_reference(RECORDS + [dict(RECORDS[0], id="x", status="FAIL")])
    with pytest.raises(ValueError):
        oracle.to_reference(RECORDS + [RECORDS[0]])


def test_self_time_on_a_synthetic_nested_span_tree(tmp_path):
    now = [0.0]

    def clock():
        return now[0]

    def work(dt):
        now[0] += dt

    t = Tracer("test", clock=clock)
    leaf = t.wrap(lambda: work(1.0), "leaf")

    def middle():
        work(2.0)
        leaf()
        leaf()

    mid = t.wrap(middle, "middle", coarse=True)

    def outer():
        work(3.0)
        mid()
        leaf()

    t.wrap(outer, "outer", coarse=True)()
    stats = {(n, p): (c, tot, slf) for n, p, c, tot, slf in t.stats_list()}
    assert stats[("outer", None)] == pytest.approx((1, 8.0, 3.0))
    assert stats[("middle", "outer")] == pytest.approx((1, 4.0, 2.0))
    assert stats[("leaf", "middle")] == pytest.approx((2, 2.0, 2.0))
    assert stats[("leaf", "outer")] == pytest.approx((1, 1.0, 1.0))
    path = tmp_path / "spans.jsonl"
    t.write_spans(path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(s["name"], s["parent"]) for s in spans] == [("middle", 1), ("outer", None)]
    assert all(s["run"] == "test" for s in spans)
    assert spans[1]["end"] - spans[1]["start"] == pytest.approx(8.0)


def test_tracer_counts_errors_and_generator_items():
    t = Tracer("test")

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        t.wrap(boom, "boom", errors=(ValueError,))()
    assert t.counters["boom.errors"] == 1
    assert list(t.wrap_generator(lambda: iter(range(4)), "gen")()) == [0, 1, 2, 3]
    assert t.counters["gen.elems"] == 4
    assert t._stack == []


def test_layer_metrics_cover_the_per_layer_section_but_overhead():
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert set(layers.layer_metrics([], {})) == names


def test_peak_rss_is_per_child_not_the_children_maximum():
    # spawned from a fresh interpreter, as run.py is: a child's ru_maxrss also
    # counts the resident size of the process that spawned it
    script = (
        "import json, resource, sys\n"
        "import run\n"
        "big = run.spawn_command([sys.executable, '-c', 'b = bytes(1) * (200 << 20)'], 60)\n"
        "small = run.spawn_command([sys.executable, '-c', 'pass'], 60)\n"
        "children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
        "print(json.dumps([big.rss_mb, small.rss_mb, children]))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=BENCH, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    big, small, children = json.loads(out)
    assert big > 180
    assert small < 60
    # RUSAGE_CHILDREN would have reported the big child for the small one
    assert children > 180


def test_benchmark_json_keeps_to_its_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for sec in ("workloads", "end_to_end", "per_layer") for m in SPEC[sec]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    for w in SPEC["workloads"]:
        assert oracle.reference_path(w["name"]).is_file()
