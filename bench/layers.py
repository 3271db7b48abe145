"""Where the tracer's wrappers go, and the per-layer metrics they yield.

``install`` wraps each layer's public functions and methods.  A function is
rebound on every ultrasph module that holds it, because most names are
bound at import (``harmonics.mat_inv``, ``pseries.kernel_basis``, the
suite imports in ``verify``); methods are patched on their class.  Hot leaf
calls (ring ops, ``det``, ``mat_inv``, ``flag_canon``, ``perm_of_matrix``,
``action_of``) are only aggregated; coarser calls are also kept as spans.

``layer_metrics`` turns the aggregates and counters into the named
per-layer metrics of BENCHMARK.json, except ``trace.overhead_s``, which
run.py takes from the untraced and traced wall times.  A metric whose
layer does not run in a workload reads 0, ratios included.
"""

from __future__ import annotations

import sys
from collections import defaultdict

from tracer import Tracer

SCALAR_OPS = ("add", "sub", "neg", "mul", "inv", "pow", "val", "is_unit")
ARRAY_OPS = (
    "add_arr", "neg_arr", "sub_arr", "mul_arr", "val_arr", "inv_arr", "reduce_arr", "matmul",
)
SUITES = ("decompose", "irreducibility", "zonal", "double_coset", "pseries", "roundtrip", "arch")
# position of the ks argument in each identity check
IDENTITIES = {
    "verify_addition_theorem": 2,
    "verify_reproducing_kernel": 2,
    "verify_zonal_symmetry": 2,
    "idempotent_sum_residual": 3,
}
RANDOM = ("matgroup.random_in_K", "matgroup.random_in_K0")


def _rebind(orig, wrapper):
    for name, mod in list(sys.modules.items()):
        if name == "ultrasph" or name.startswith("ultrasph."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


def install(run_id):
    """Wrap every layer of the imported ultrasph package; returns the Tracer."""
    import numpy as np
    from ultrasph import harmonics, matgroup, numerics, pseries, ring, sphere, verify

    t = Tracer(run_id)
    c = t.counters

    def fn(module, attr, name, **kw):
        orig = getattr(module, attr)
        _rebind(orig, t.wrap(orig, name, **kw))

    def method(cls, attr, name, **kw):
        setattr(cls, attr, t.wrap(getattr(cls, attr), name, **kw))

    # ring
    for op in SCALAR_OPS:
        method(ring.RingLevel, op, "ring.scalar." + op)

    def array_elems(_, result, *args, **kwargs):
        c["ring.array.elems"] += np.size(result)

    for op in ARRAY_OPS:
        method(ring.RingLevel, op, "ring.array." + op, post=array_elems)
    method(ring.RingLevel, "__init__", "ring.build", coarse=True)
    fn(ring, "characters", "ring.characters", coarse=True)

    # sphere
    def perm_before(index, k):
        return len(index._matrix_perms)

    def perm_after(before, _, index, k):
        if len(index._matrix_perms) == before:
            c["sphere.perm.hits"] += 1

    method(sphere.SphereIndex, "__init__", "sphere.index.build", coarse=True)
    method(sphere.SphereIndex, "child", "sphere.index.child")
    method(sphere.SphereIndex, "perm_of_matrix", "sphere.perm", pre=perm_before, post=perm_after)
    method(sphere.SphereIndex, "idx", "sphere.idx")

    # matgroup: closure and generator certificates
    def closure_elems(_, result, *args, **kwargs):
        c["matgroup.closure.elems"] += len(result)

    def sampled(_, result, *args, **kwargs):
        if result["method"] == "factorisation":
            c["matgroup.verify_generators.sampled"] += 1

    fn(matgroup, "closure", "matgroup.closure", coarse=True, post=closure_elems)
    fn(matgroup, "verify_generators", "matgroup.verify_generators", coarse=True, post=sampled)
    orig = matgroup.enumerate_group
    _rebind(orig, t.wrap_generator(orig, "matgroup.enumerate_group"))

    # matgroup / pseries: inverse, determinant, canonical forms, sampling
    fn(matgroup, "det", "matgroup.det")
    fn(matgroup, "mat_inv", "matgroup.mat_inv")
    fn(pseries, "flag_canon", "pseries.flag_canon")
    fn(matgroup, "random_in_K", "matgroup.random_in_K")
    fn(matgroup, "random_in_K0", "matgroup.random_in_K0")

    # harmonics
    def commutant_dim(sub, gens):
        c["harmonics.commutant.max_dim"] = max(c["harmonics.commutant.max_dim"], sub.dim)

    fn(harmonics, "chi_level_subspace", "harmonics.subspace.chi_level")
    fn(harmonics, "harmonic_subspace", "harmonics.subspace.harmonic")
    fn(harmonics, "commutant_dimension", "harmonics.commutant", coarse=True, pre=commutant_dim)
    fn(harmonics, "invariant_vectors", "harmonics.invariant_vectors", coarse=True)
    for attr, pos in IDENTITIES.items():
        def k_samples(*args, _pos=pos, **kwargs):
            ks = args[_pos] if len(args) > _pos else kwargs["ks"]
            c["harmonics.identities.k_samples"] += len(ks)

        fn(harmonics, attr, "harmonics.identities." + attr, coarse=True, pre=k_samples)

    # numerics
    def svd_shape(M, *args, **kwargs):
        rows, cols = np.shape(M)
        c["numerics.kernel_basis.max_rows"] = max(c["numerics.kernel_basis.max_rows"], rows)
        c["numerics.kernel_basis.max_cols"] = max(c["numerics.kernel_basis.max_cols"], cols)
        c["numerics.kernel_basis.bytes"] += rows * cols * 16

    rank = (numerics.RankCertificateError,)
    fn(numerics, "kernel_basis", "numerics.kernel_basis", coarse=True, pre=svd_shape, errors=rank)
    fn(numerics, "orthonormalize_rows", "numerics.orthonormalize", coarse=True, errors=rank)

    # pseries
    def action_before(model, k):
        return len(model._action_cache)

    def action_after(before, _, model, k):
        if len(model._action_cache) == before:
            c["pseries.action_of.hits"] += 1
        else:
            c["pseries.action_of.rows"] += model.dim

    def cosets_total(_, result, cosets, *args, **kwargs):
        c["pseries.cosets.total"] += cosets.size

    method(pseries.PSeriesModel, "__init__", "pseries.model.build", coarse=True)
    method(pseries.FlagCosets, "__init__", "pseries.cosets", coarse=True, post=cosets_total)
    method(pseries.PSeriesModel, "action_of", "pseries.action_of",
           pre=action_before, post=action_after)
    method(pseries.PSeriesModel, "invariant_space", "pseries.invariant_space")
    method(pseries.PSeriesModel, "coefficient_residual", "pseries.coefficient", coarse=True)

    # verify
    for suite in SUITES:
        fn(verify, suite + "_suite", "verify." + suite, coarse=True)
    return t


class _Stats:
    def __init__(self, rows):
        self.rows = rows  # [name, parent, count, total, self]

    def calls(self, names, parents=None):
        return sum(r[2] for r in self.rows
                   if r[0] in names and (parents is None or r[1] in parents))

    def self_s(self, names):
        return sum(r[4] for r in self.rows if r[0] in names)

    def total_s(self, names):
        """Time inside the named spans, counting nested ones once."""
        return sum(r[3] for r in self.rows if r[0] in names and r[1] not in names)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats_rows, counters):
    """{name: (value, unit)} for every per-layer metric but trace.overhead_s."""
    s = _Stats(stats_rows)
    c = defaultdict(float, counters)
    scalar = {"ring.scalar." + op for op in SCALAR_OPS}
    array = {"ring.array." + op for op in ARRAY_OPS}
    index = {"sphere.index.build", "sphere.index.child"}
    subspace = {"harmonics.subspace.chi_level", "harmonics.subspace.harmonic"}
    identities = {"harmonics.identities." + a for a in IDENTITIES}
    rank = ("numerics.kernel_basis", "numerics.orthonormalize")
    perm_calls = s.calls({"sphere.perm"})
    action_calls = s.calls({"pseries.action_of"})
    out = {
        "ring.scalar.calls": (s.calls(scalar), "count"),
        "ring.scalar.self_s": (s.self_s(scalar), "s"),
        "ring.array.calls": (s.calls(array), "count"),
        "ring.array.elems": (c["ring.array.elems"], "count"),
        "ring.array.self_s": (s.self_s(array), "s"),
        "ring.build.count": (s.calls({"ring.build"}), "count"),
        "ring.build.s": (s.total_s({"ring.build"}), "s"),
        "ring.characters.s": (s.total_s({"ring.characters"}), "s"),
        "sphere.index.builds": (s.calls({"sphere.index.build"}), "count"),
        "sphere.index.s": (s.total_s(index), "s"),
        "sphere.perm.calls": (perm_calls, "count"),
        "sphere.perm.self_s": (s.self_s({"sphere.perm"}), "s"),
        "sphere.perm.hit_frac": (_ratio(c["sphere.perm.hits"], perm_calls), "ratio"),
        "sphere.perm.cached": (perm_calls - c["sphere.perm.hits"], "count"),
        "sphere.idx.calls": (s.calls({"sphere.idx"}), "count"),
        "matgroup.closure.calls": (s.calls({"matgroup.closure"}), "count"),
        "matgroup.closure.elems": (c["matgroup.closure.elems"], "count"),
        "matgroup.closure.self_s": (s.self_s({"matgroup.closure"}), "s"),
        "matgroup.verify_generators.calls": (s.calls({"matgroup.verify_generators"}), "count"),
        "matgroup.verify_generators.sampled": (c["matgroup.verify_generators.sampled"], "count"),
        "matgroup.verify_generators.s": (s.total_s({"matgroup.verify_generators"}), "s"),
        "matgroup.enumerate_group.elems": (c["matgroup.enumerate_group.elems"], "count"),
        "matgroup.enumerate_group.s": (s.total_s({"matgroup.enumerate_group"}), "s"),
        "matgroup.det.calls": (s.calls({"matgroup.det"}), "count"),
        "matgroup.det.self_s": (s.self_s({"matgroup.det"}), "s"),
        "matgroup.mat_inv.calls": (s.calls({"matgroup.mat_inv"}), "count"),
        "matgroup.mat_inv.self_s": (s.self_s({"matgroup.mat_inv"}), "s"),
        "pseries.flag_canon.calls": (s.calls({"pseries.flag_canon"}), "count"),
        "pseries.flag_canon.self_s": (s.self_s({"pseries.flag_canon"}), "s"),
        "matgroup.random.accept_frac": (
            _ratio(s.calls(RANDOM), s.calls({"matgroup.det"}, parents=RANDOM)), "ratio"),
        "matgroup.random.s": (s.total_s(RANDOM), "s"),
        "harmonics.subspace.calls": (s.calls(subspace), "count"),
        "harmonics.subspace.self_s": (s.self_s(subspace), "s"),
        "harmonics.commutant.calls": (s.calls({"harmonics.commutant"}), "count"),
        "harmonics.commutant.self_s": (s.self_s({"harmonics.commutant"}), "s"),
        "harmonics.commutant.max_dim": (c["harmonics.commutant.max_dim"], "count"),
        "harmonics.invariant_vectors.calls": (s.calls({"harmonics.invariant_vectors"}), "count"),
        "harmonics.invariant_vectors.self_s": (s.self_s({"harmonics.invariant_vectors"}), "s"),
        "harmonics.identities.self_s": (s.self_s(identities), "s"),
        "harmonics.identities.k_samples": (c["harmonics.identities.k_samples"], "count"),
        "numerics.kernel_basis.calls": (s.calls({"numerics.kernel_basis"}), "count"),
        "numerics.kernel_basis.s": (s.total_s({"numerics.kernel_basis"}), "s"),
        "numerics.kernel_basis.max_rows": (c["numerics.kernel_basis.max_rows"], "count"),
        "numerics.kernel_basis.max_cols": (c["numerics.kernel_basis.max_cols"], "count"),
        "numerics.kernel_basis.bytes": (c["numerics.kernel_basis.bytes"], "B"),
        "numerics.orthonormalize.calls": (s.calls({"numerics.orthonormalize"}), "count"),
        "numerics.orthonormalize.s": (s.total_s({"numerics.orthonormalize"}), "s"),
        "numerics.rank_errors": (sum(c[name + ".errors"] for name in rank), "count"),
        "pseries.model.builds": (s.calls({"pseries.model.build"}), "count"),
        "pseries.model.build_s": (s.total_s({"pseries.model.build"}), "s"),
        "pseries.cosets.total": (c["pseries.cosets.total"], "count"),
        "pseries.action_of.calls": (action_calls, "count"),
        "pseries.action_of.hit_frac": (_ratio(c["pseries.action_of.hits"], action_calls), "ratio"),
        "pseries.action_of.rows": (c["pseries.action_of.rows"], "count"),
        "pseries.action_of.self_s": (s.self_s({"pseries.action_of"}), "s"),
        "pseries.invariant_space.calls": (s.calls({"pseries.invariant_space"}), "count"),
        "pseries.invariant_space.self_s": (s.self_s({"pseries.invariant_space"}), "s"),
        "pseries.coefficient.s": (s.total_s({"pseries.coefficient"}), "s"),
    }
    suites = {"verify." + name for name in SUITES}
    for name in SUITES:
        span = "verify." + name
        nested = sum(r[3] for r in s.rows if r[0] in suites and r[1] == span)
        out[span + ".s"] = (s.total_s({span}) - nested, "s")
    return out
