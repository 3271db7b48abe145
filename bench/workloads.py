"""The benchmark's four workloads, each a replay of acceptance-suite calls.

Every workload has a ``setup`` step (what a caller builds before the first
suite call: the rings and their characters) and a ``run`` step (the suite
calls themselves, with the arguments of ``tests/test_acceptance.py``).
Suites and ring constructors are looked up on their modules at call time, so
wrappers the tracer installs there are the ones that run.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import numpy as np

from ultrasph import ring as ringmod
from ultrasph import verify

_ZONAL_EXTRA = ("padic", 2, 1, 2, 2)


def _rings(points):
    rings = [(ringmod.make_ring_level(b, p, f, m), n) for b, p, f, m, n in points]
    for ring, _ in rings:
        ringmod.characters(ring)
    return rings


def _setup_irreducibility():
    return {"grid": _rings(verify.DIMENSION_GRID)}


def _run_irreducibility(state, rec, seed):
    for ring, n in state["grid"]:
        verify.decompose_suite(ring, n, rec=rec, rng=np.random.default_rng(seed))


def _setup_zonal():
    return {
        "grid": _rings(list(verify.DIMENSION_GRID) + [_ZONAL_EXTRA]),
        "cosets": _rings(verify.DOUBLE_COSET_POINTS),
    }


def _run_zonal(state, rec, seed):
    for ring, n in state["grid"]:
        verify.zonal_suite(ring, n, rec=rec, samples=200, seed=seed)
    for ring, n in state["cosets"]:
        verify.double_coset_suite(ring, n, rec=rec)
    verify.arch_suite(rec=rec)


def _setup_none():
    # pseries_suite and roundtrip_suite build their own rings
    return {}


def _run_newform(state, rec, seed):
    verify.pseries_suite("padic", 2, 1, 2, 3, rec=rec, samples=500, seed=seed)
    verify.pseries_suite("padic", 3, 1, 2, 3, rec=rec, samples=500, seed=seed)
    verify.pseries_suite(
        "padic", 2, 1, 3, 1, rec=rec, samples=500, seed=seed, level_override=2
    )
    verify.roundtrip_suite(rec=rec, seed=seed)


def _run_laurent(state, rec, seed):
    verify.pseries_suite("laurent", 2, 2, 2, 2, rec=rec, samples=500, seed=seed)


WORKLOADS = {
    "grid-irreducibility": (_setup_irreducibility, _run_irreducibility),
    "grid-zonal": (_setup_zonal, _run_zonal),
    "grid-newform": (_setup_none, _run_newform),
    "laurent-newform": (_setup_none, _run_laurent),
}
