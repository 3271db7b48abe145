"""Acceptance gate: every criterion at its stated tolerance, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each criterion is a separate test so a regression pinpoints
itself; suite results are shared through module-scoped fixtures where
two criteria draw on the same computation.
"""

import time

import numpy as np
import pytest

from ultrasph.ring import make_ring_level
from ultrasph.verify import (
    DIMENSION_GRID,
    DOUBLE_COSET_POINTS,
    Recorder,
    arch_suite,
    decompose_suite,
    double_coset_suite,
    irreducibility_suite,
    pseries_suite,
    roundtrip_suite,
    zonal_suite,
)

SEED = 20260808


def _assert_all_pass(records, allow_skip=False):
    bad = [r for r in records if r.status == "FAIL"]
    assert not bad, "failed checks: " + ", ".join(
        f"{r.check_id} (expected {r.expected}, got {r.observed})" for r in bad
    )
    if not allow_skip:
        skipped = [r for r in records if r.status == "SKIP"]
        assert not skipped, "skipped checks: " + ", ".join(r.check_id for r in skipped)


def _announce(name, n_checks, dt, limit=None):
    budget = f", limit {limit:.0f}s" if limit else ""
    print(f"\n[acceptance] {name}: PASS ({n_checks} checks, {dt:.1f}s{budget})", flush=True)


@pytest.fixture(scope="module")
def grid_rings():
    return [(make_ring_level(b, p, f, m), n) for b, p, f, m, n in DIMENSION_GRID]


@pytest.fixture(scope="module")
def zonal_records(grid_rings):
    rec = Recorder()
    t0 = time.perf_counter()
    for ring, n in grid_rings:
        zonal_suite(ring, n, rec=rec, samples=200, seed=SEED)
    return rec.records, time.perf_counter() - t0


def test_criterion_1_dimension_grid(grid_rings):
    t0 = time.perf_counter()
    rec = Recorder()
    for ring, n in grid_rings:
        decompose_suite(
            ring, n, rec=rec, rng=np.random.default_rng(SEED), include_commutants=False
        )
    dt = time.perf_counter() - t0
    _assert_all_pass(rec.records, allow_skip=False)
    assert dt < 60, f"dimension grid took {dt:.1f}s, limit 60s"
    _announce("criterion-1 sphere/dimension grid", len(rec.records), dt, 60)


def test_criterion_2_irreducibility(grid_rings):
    t0 = time.perf_counter()
    rec = Recorder()
    for ring, n in grid_rings:
        irreducibility_suite(ring, n, rec=rec)
    dt = time.perf_counter() - t0
    _assert_all_pass(rec.records)
    commutants = [r for r in rec.records if "/commutant/" in r.check_id]
    assert commutants, "no commutant checks ran"
    assert dt < 300, f"irreducibility took {dt:.1f}s, limit 300s"
    _announce("criterion-2 irreducibility", len(rec.records), dt, 300)


def test_criterion_3_zonal_identities(zonal_records):
    records, dt = zonal_records
    zonal = [r for r in records if "projector-sums" not in r.check_id]
    _assert_all_pass(zonal)
    for key in ("zonal-norm", "zonal-shells", "zonal-symmetry", "addition-theorem",
                "reproducing-kernel"):
        assert any(key in r.check_id for r in zonal), f"missing {key} checks"
    # every addition-theorem check covered at least 200 sample pairs
    for r in zonal:
        if "addition-theorem" in r.check_id:
            assert r.params["pairs"] >= 200
    _announce("criterion-3 zonal identities", len(zonal), dt)


def test_criterion_4_double_cosets():
    t0 = time.perf_counter()
    rec = Recorder()
    for branch, p, f, m, n in DOUBLE_COSET_POINTS:
        double_coset_suite(make_ring_level(branch, p, f, m), n, rec=rec)
    dt = time.perf_counter() - t0
    _assert_all_pass(rec.records)
    assert dt < 30, f"double cosets took {dt:.1f}s, limit 30s"
    _announce("criterion-4 double cosets", len(rec.records), dt, 30)


def test_criterion_5_projector_sums(zonal_records):
    t0 = time.perf_counter()
    # exhaustive at the fully enumerable point (2, 2, 2)
    rec = Recorder()
    zonal_suite(make_ring_level("padic", 2, 1, 2), 2, rec=rec, samples=200, seed=SEED)
    sums_222 = [r for r in rec.records if "projector-sums" in r.check_id]
    _assert_all_pass(sums_222)
    assert sums_222 and all(r.params["mode"] == "exhaustive" for r in sums_222)
    # sampled (or better, exhaustive) everywhere else on the grid
    records, _ = zonal_records
    sums = [r for r in records if "projector-sums" in r.check_id]
    _assert_all_pass(sums)
    for r in sums:
        assert r.params["mode"] == "exhaustive" or r.params["mode"].endswith("1000")
    _announce(
        "criterion-5 projector sums", len(sums) + len(sums_222), time.perf_counter() - t0
    )


def test_criterion_6_newform_suite():
    t0 = time.perf_counter()
    rec = Recorder()
    pseries_suite("padic", 2, 1, 2, 3, rec=rec, samples=500, seed=SEED)
    pseries_suite("padic", 3, 1, 2, 3, rec=rec, samples=500, seed=SEED)
    pseries_suite("padic", 2, 1, 3, 1, rec=rec, samples=500, seed=SEED, level_override=2)
    dt = time.perf_counter() - t0
    _assert_all_pass(rec.records)
    for key in ("oldform-dims", "graded-dims", "conductor", "equivariance",
                "matrix-coefficient", "twist-minimality"):
        assert any(key in r.check_id for r in rec.records), f"missing {key}"
    coeff = [r for r in rec.records if "matrix-coefficient" in r.check_id]
    assert all(r.params["samples"] >= 500 for r in coeff)
    # the twist-minimality criterion is exercised in both truth directions
    tm = [r for r in rec.records if "twist-minimality" in r.check_id]
    assert {r.expected for r in tm} == {"True", "False"}
    assert dt < 600, f"newform suite took {dt:.1f}s, limit 600s"
    _announce("criterion-6 newform suite", len(rec.records), dt, 600)


def test_criterion_7_roundtrip():
    t0 = time.perf_counter()
    rec = roundtrip_suite(seed=SEED)
    dt = time.perf_counter() - t0
    _assert_all_pass(rec.records)
    _announce("criterion-7 group-average roundtrip", len(rec.records), dt)


def test_criterion_8_archimedean():
    t0 = time.perf_counter()
    rec = arch_suite()
    dt = time.perf_counter() - t0
    _assert_all_pass(rec.records)
    assert dt < 60, f"archimedean checks took {dt:.1f}s, limit 60s"
    _announce("criterion-8 archimedean formulas", len(rec.records), dt, 60)
