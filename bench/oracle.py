"""Output oracle: a workload's check records against its stored reference.

The reference, taken at the default seed, holds each check's id, status
and expected string, plus the observed string of exact checks.  Residual
checks are compared by status only: their observed strings depend on the
BLAS thread count.  At other seeds only the id set and the PASS status of
every check are compared.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload):
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def to_reference(records):
    """Reference entries from child records; all must PASS, ids unique."""
    ids = [r["id"] for r in records]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate check ids")
    bad = [r["id"] for r in records if r["status"] != "PASS"]
    if bad:
        raise ValueError(f"{len(bad)} checks do not PASS, e.g. {bad[0]}")
    out = []
    for r in records:
        entry = {"id": r["id"], "status": r["status"], "expected": r["expected"]}
        if r["exact"]:
            entry["observed"] = r["observed"]
        out.append(entry)
    return out


def compare(records, reference, exact=True):
    """[(check id, reason)] for every check that fails the oracle.

    A reference check fails when it is missing, its status is not PASS
    (reference statuses all are), or (with ``exact``) its expected string
    or exact observed string differs from the reference.  A check absent
    from the reference fails too.
    """
    got = {r["id"]: r for r in records}
    bad = []
    for ref in reference:
        r = got.get(ref["id"])
        if r is None:
            bad.append((ref["id"], "missing"))
        elif r["status"] != "PASS":
            bad.append((ref["id"], r["status"]))
        elif exact and r["expected"] != ref["expected"]:
            bad.append((ref["id"], f"expected {r['expected']!r} != {ref['expected']!r}"))
        elif exact and "observed" in ref and r["observed"] != ref["observed"]:
            bad.append((ref["id"], f"observed {r['observed']!r} != {ref['observed']!r}"))
    known = {ref["id"] for ref in reference}
    bad.extend((cid, "not in reference") for cid in got if cid not in known)
    return bad
