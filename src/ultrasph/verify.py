"""Verification suites: every closed-form law checked against the built
objects, emitting structured records for the CLI and the acceptance tests.

Each record names the law it checks with a human-readable formula string
and carries parameters, expected and observed values, the residual, and a
PASS/FAIL/SKIP status.  Record lists are returned sorted by check id so
reports are deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import arch
from .harmonics import (
    SphereSpace,
    _worst,
    chi_level_subspace,
    dim_chi_level,
    dim_harmonic,
    harmonic_subspace,
    idempotent_sum_residual,
    mirabolic_orbit_count,
    phi_fn,
    verify_piece_identities,
    zonal_fn,
    zonal_piece_bytes,
    zonal_shell_coefficient,
)
from .matgroup import (
    BudgetExceededError,
    SubgroupSpec,
    double_coset_index,
    double_coset_witness,
    group_order,
    group_stack,
    orbit_stack,
    random_stack,
    row_keys,
    subgroup_generators,
    subgroup_membership,
    u_ell,
    verify_generators,
)
from .pseries import (
    ConductorNotVisible,
    PSeriesModel,
    vector_from_harmonic,
)
from .ring import characters, make_ring_level
from .sphere import BASIS_BYTES_MAX, sphere_size

TOL_TIGHT = 1e-9
TOL_RESIDUAL = 1e-8


@dataclass
class CheckRecord:
    check_id: str
    formula: str
    params: dict
    expected: str
    observed: str
    residual: float | None
    status: str
    seconds: float = 0.0

    def as_dict(self):
        out = {
            "check_id": self.check_id,
            "formula": self.formula,
            "params": self.params,
            "expected": self.expected,
            "observed": self.observed,
            "status": self.status,
            "seconds": self.seconds,
        }
        if self.residual is not None:
            out["residual"] = float(f"{self.residual:.15g}")
        return out


class Recorder:
    def __init__(self):
        self.records = []
        self._t0 = time.perf_counter()

    def _elapsed(self):
        t = time.perf_counter()
        dt = t - self._t0
        self._t0 = t
        return dt

    def exact(self, check_id, formula, params, expected, observed):
        status = "PASS" if expected == observed else "FAIL"
        self.records.append(
            CheckRecord(
                check_id, formula, params, str(expected), str(observed), None, status,
                self._elapsed(),
            )
        )
        return status == "PASS"

    def residual(self, check_id, formula, params, value, tol, witness=None):
        """A residual check; on FAIL the observed string also names ``witness``,
        the worst-case point, when one is given."""
        status = "PASS" if value < tol else "FAIL"
        observed = f"{value:.3e}"
        if status == "FAIL" and witness is not None:
            observed += f" at {witness}"
        self.records.append(
            CheckRecord(
                check_id, formula, params, f"< {tol:g}", observed, float(value),
                status, self._elapsed(),
            )
        )
        return status == "PASS"

    def skip(self, check_id, formula, params, reason):
        self.records.append(
            CheckRecord(check_id, formula, params, "-", reason, None, "SKIP", self._elapsed())
        )

    def sorted_records(self):
        return sorted(self.records, key=lambda r: r.check_id)


def _ring_label(ring, n):
    tag = "padic" if ring.branch == "padic" else "laurent"
    return f"{tag}-q{ring.q}-n{n}-m{ring.m}"


def _chi_label(chi):
    return f"c{chi.c}e" + "".join(str(e) for e in chi.exps)


def _piece_name(H):
    return f"({_chi_label(H.chi)}, m{H.level})"


# -- harmonic decomposition suite --------------------------------------------


def decompose_suite(ring, n, rec=None, rng=None, include_commutants=True):
    """Dimension grid, completeness, orthogonality, the measure lemma and
    (optionally) the irreducibility certificates.  Raises
    BudgetExceededError, before building anything, when the dense piece
    bases would exceed BASIS_BYTES_MAX.  ``rng`` is accepted for callers
    that pass one, and nothing draws from it."""
    rec = rec if rec is not None else Recorder()
    q, M = ring.q, ring.m
    nbytes = 16 * sphere_size(q, n, M) ** 2
    if nbytes > BASIS_BYTES_MAX:
        raise BudgetExceededError(
            f"dense piece bases need {nbytes} bytes, over the cap {BASIS_BYTES_MAX}"
        )
    lab = _ring_label(ring, n)
    space = SphereSpace(ring, n)
    params = {"q": q, "n": n, "m": M}
    if ring.poly is not None:
        # element representations depend on the residue-field modulus
        params["modulus"] = list(ring.poly)
    rec.exact(
        f"{lab}/sphere-size",
        "|S| = q^((m-1)n) (q^n - 1)",
        params,
        sphere_size(q, n, M),
        space.size,
    )
    chs = characters(ring)
    rec.exact(
        f"{lab}/character-count",
        "#chars = q^(m-1) (q-1)",
        {"q": q, "m": M},
        q ** (M - 1) * (q - 1),
        len(chs),
    )
    pieces = {}
    total = 0
    for chi in chs:
        cl = _chi_label(chi)
        for ell in range(M + 1):
            sub = chi_level_subspace(space, chi, ell)
            rec.exact(
                f"{lab}/chi-level-dim/{cl}/l{ell}",
                "dim = [l=c=0] + [l>=max(c,1)] q^((l-1)(n-1)) (q^n-1)/(q-1)",
                {"q": q, "n": n, "l": ell, "c": chi.c},
                dim_chi_level(q, n, ell, chi.c),
                sub.dim,
            )
        for m in range(chi.c, M + 1):
            H = harmonic_subspace(space, chi, m)
            rec.exact(
                f"{lab}/harmonic-dim/{cl}/m{m}",
                "four-case irreducible dimension formula",
                {"q": q, "n": n, "m": m, "c": chi.c},
                dim_harmonic(q, n, m, chi.c),
                H.dim,
            )
            pieces[chi.exps, m] = H
            total += H.dim
    rec.exact(
        f"{lab}/completeness",
        "sum of irreducible dims = |S|",
        {"q": q, "n": n, "M": M},
        space.size,
        total,
    )
    held = [H for H in pieces.values() if H.dim]
    stack = np.concatenate([H.basis for H in held], axis=0)
    err = np.abs(stack @ stack.conj().T * space.weight - np.eye(stack.shape[0]))
    i, j = np.unravel_index(err.argmax(), err.shape)
    rec.residual(
        f"{lab}/orthogonality",
        "pairwise orthonormality of all irreducible pieces",
        {"q": q, "n": n, "M": M},
        float(err[i, j]),
        TOL_TIGHT,
        witness=_gram_witness(held, i, j),
    )
    # measure lemma: K's chain starts at e_n, so its top orbit is e_n K, and
    # an orbit of |S| points is hit |K|/|S| times by k -> e_n k
    cert = verify_generators(SubgroupSpec("K"), ring, n)
    rec.exact(
        f"{lab}/uniform-stabilisers",
        "orbit map k -> e_n k hits every point |K|/|S| times",
        {"q": q, "n": n, "M": M, "|K|": group_order(ring, n)},
        True,
        cert["orbit"] == space.size,
    )
    if include_commutants:
        irreducibility_suite(ring, n, rec=rec, space=space, pieces=pieces, cert=cert)
    return rec


def _gram_witness(held, i, j):
    """The pieces of ``held`` that hold rows i and j of their stacked bases,
    as "pieces (chi label, m), (chi label, m)"."""
    ends = np.cumsum([H.dim for H in held])
    at = np.searchsorted(ends, [i, j], side="right")
    return "pieces " + ", ".join(_piece_name(held[a]) for a in at)


def _check_sample_bytes(n, count):
    """Raise BudgetExceededError, before anything is drawn, when a stack of
    ``count`` sampled (n, n) elements and the checks on it would exceed
    BASIS_BYTES_MAX.  The prediction is 16 times the stack's 8 n^2 count
    bytes.  Measured with tracemalloc, the sampler's kept batches, the
    mat_inv working copies and the per-k residuals peak at 10-12 times the
    stack in the zonal suite, and at 4.5-8 times it in the model checks."""
    nbytes = 16 * 8 * n * n * count
    if nbytes > BASIS_BYTES_MAX:
        raise BudgetExceededError(
            f"{count} sampled elements and their checks need {nbytes} bytes, "
            f"over the cap {BASIS_BYTES_MAX}"
        )


def _count_reason(size, dims, fault, orbits):
    """Why the facts behind an orbit count fail, or None: ``dims`` sum to |S|,
    no piece has a ``fault``, and the number of non-empty pieces is
    ``orbits``, which for orthogonal P'-invariant pieces is sum dim H^P'."""
    held = sum(1 for d in dims if d)
    if sum(dims) != size:
        return f"pieces span {sum(dims)} of {size} dimensions"
    return fault or (f"{orbits} orbits, {held} pieces" if orbits != held else None)


def irreducibility_suite(ring, n, rec=None, space=None, pieces=None, cert=None):
    """Irreducibility and multiplicity one of every piece from one orbit count.

    K's certificate ``cert`` (``verify_generators``, run here when not
    given) must have e_n's orbit all of S, and ``_count_reason`` must hold
    with every piece K-invariant.  The pieces are orthogonal
    (``/orthogonality``), so they split L^2(S) = Ind_P^K 1, P the stabiliser
    of e_n.  ``mirabolic_orbit_count`` refuses a generator outside P, so the
    count is at least #P-orbits = sum m_rho^2 >= sum m_rho >= #pieces, and
    equality makes each piece irreducible and no two isomorphic: each
    ``/commutant/`` record observes dim End = 1, and each
    ``/commutant-filtration/`` record the number of pieces in the depth-M
    space of its character.  Otherwise every record FAILs and names why.

    ``pieces`` maps (chi.exps, m) to harmonic pieces already built on
    ``space``; missing ones are built here.
    """
    rec = rec if rec is not None else Recorder()
    q, M = ring.q, ring.m
    lab = _ring_label(ring, n)
    space = space if space is not None else SphereSpace(ring, n)
    pieces = pieces if pieces is not None else {}
    chs = characters(ring)
    cert = cert if cert is not None else verify_generators(SubgroupSpec("K"), ring, n)
    pieces = {
        (chi.exps, m): pieces.get((chi.exps, m)) or harmonic_subspace(space, chi, m)
        for chi in chs
        for m in range(chi.c, M + 1)
    }
    kgens = subgroup_generators(SubgroupSpec("K"), ring, n)
    orbits = mirabolic_orbit_count(space, subgroup_generators(SubgroupSpec("Kmirab"), ring, n))
    moved = next((H for H in pieces.values() if H.dim and not H.invariant_under(kgens)), None)
    fault = None if moved is None else f"piece {_piece_name(moved)} is not K-invariant"
    if cert["orbit"] != space.size:
        reason = f"K-orbit of e_n has {cert['orbit']} of {space.size} points"
    else:
        reason = _count_reason(space.size, [H.dim for H in pieces.values()], fault, orbits)
    for chi in chs:
        cl = _chi_label(chi)
        for m in range(chi.c, M + 1):
            rec.exact(
                f"{lab}/commutant/{cl}/m{m}",
                "dim End = 1 certifies irreducibility",
                {"q": q, "n": n, "m": m, "c": chi.c},
                1,
                reason or 1,
            )
        inside = sum(1 for m in range(chi.c, M + 1) if pieces[chi.exps, m].dim)
        rec.exact(
            f"{lab}/commutant-filtration/{cl}/m{M}",
            "dim End of the depth-m filtration space = m - c + 1",
            {"q": q, "n": n, "m": M, "c": chi.c},
            M - chi.c + 1,
            reason or inside,
        )
    return rec


# -- zonal suite ---------------------------------------------------------------


def zonal_suite(ring, n, rec=None, samples=200, seed=0):
    """Zonal closed form, norms, symmetry, addition and reproducing identities,
    multiplicity one, the invariant-pairing Gram matrix and the projector-sum
    identities, one piece held at a time; BudgetExceededError, before
    anything is built, when the largest piece and its checks, or the
    sampled stack of a piece (at most max(samples, 8) elements), would
    exceed BASIS_BYTES_MAX.  A piece H's invariant line is proj_H
    delta_{e_n}, a multiple of conj(basis[:, e_n]) @ basis, which the group
    P' of the ``Kmirab`` generators fixes when it fixes H and e_n; so a
    non-zero line in every piece and ``_count_reason`` force dim H^P' = 1.
    A failed identity record names its worst k, a failed ``phi-gram`` its
    worst (l1, l2), and a failed ``zonal-oracle`` or ``zonal-shells`` its
    worst sphere point."""
    rec = rec if rec is not None else Recorder()
    rng = np.random.default_rng(seed)
    q, M = ring.q, ring.m
    nbytes = zonal_piece_bytes(q, n, M)
    if nbytes > BASIS_BYTES_MAX:
        raise BudgetExceededError(
            f"a dense piece and its checks need {nbytes} bytes, over the cap {BASIS_BYTES_MAX}"
        )
    _check_sample_bytes(n, max(samples, 8))
    lab = _ring_label(ring, n)
    space = SphereSpace(ring, n)
    chs = characters(ring)
    minv = space.min_val_head()
    mirab_gens = subgroup_generators(SubgroupSpec("Kmirab"), ring, n)
    orbits = mirabolic_orbit_count(space, mirab_gens)
    dims, fault = [], None
    for chi in chs:
        cl = _chi_label(chi)
        # invariant-pairing Gram of the depth functions
        phis = [phi_fn(space, chi, ell) for ell in range(chi.c, M + 1)]
        gram_exp = np.array(
            [
                [
                    float(_phi_ip_expected(q, n, l1, l2))
                    for l2 in range(chi.c, M + 1)
                ]
                for l1 in range(chi.c, M + 1)
            ]
        )
        gram_obs = np.array([[space.ip(f1, f2) for f2 in phis] for f1 in phis])
        gram_err = np.abs(gram_obs - gram_exp)
        i, j = np.unravel_index(gram_err.argmax(), gram_err.shape)
        rec.residual(
            f"{lab}/phi-gram/{cl}",
            "<phi_l1, phi_l2> = (q-1)/(q^((max-1)(n-1)) (q^n-1)), 1 at 0",
            {"q": q, "n": n, "c": chi.c},
            float(gram_err[i, j]),
            TOL_TIGHT,
            witness=f"(l1, l2) = ({chi.c + i}, {chi.c + j})",
        )
        for m in range(chi.c, M + 1):
            H = harmonic_subspace(space, chi, m)
            z = zonal_fn(space, chi, m)
            at_en = H.basis[:, space.index.e_n].conj()
            dims.append(H.dim)
            if fault is None and not H.invariant_under(mirab_gens):
                fault = f"piece {_piece_name(H)} is not Kmirab-invariant"
            if fault is None and not at_en.any():
                fault = f"piece {_piece_name(H)} vanishes at e_n"
            if at_en.any():
                line = at_en @ H.basis
                err = np.abs(line / line[space.index.e_n] - z)
                at = int(err.argmax())
                rec.residual(
                    f"{lab}/zonal-oracle/{cl}/m{m}",
                    "closed-form zonal equals the normalised invariant line",
                    {"q": q, "n": n, "m": m, "c": chi.c},
                    float(err[at]),
                    TOL_TIGHT,
                    witness=f"x={space.points[at].tolist()}",
                )
            # exact shell pattern; the shell value is recorded as an exact fraction
            shell_res, at = _zonal_shell_residual(space, chi, m, z, minv)
            alpha = str(zonal_shell_coefficient(q, n, m)) if m > chi.c else None
            rec.residual(
                f"{lab}/zonal-shells/{cl}/m{m}",
                "zonal = chi(x_n) inside, alpha chi(x_n) on the outer shell, 0 beyond",
                {"q": q, "n": n, "m": m, "c": chi.c, "alpha": alpha},
                shell_res,
                1e-12,
                witness=f"x={space.points[at].tolist()}",
            )
            rec.residual(
                f"{lab}/zonal-norm/{cl}/m{m}",
                "<P, P> = 1/dim",
                {"q": q, "n": n, "m": m, "c": chi.c},
                abs(space.ip(z, z) - 1.0 / H.dim),
                TOL_TIGHT,
            )
            nk = max(
                -(-samples // space.size), -(-samples // max(H.dim, 1)), 8
            )
            ks = random_stack(ring, n, nk, rng)
            add, rep, sym = verify_piece_identities(H, z, ks)
            rec.residual(
                f"{lab}/addition-theorem/{cl}/m{m}",
                "sum_j Q_j(x) conj(Q_j(e_n k)) = dim * P(x k^{-1})",
                {"q": q, "n": n, "m": m, "c": chi.c, "pairs": len(ks) * space.size},
                add[0],
                TOL_RESIDUAL,
                witness=_k_witness(ks, add[1]),
            )
            rec.residual(
                f"{lab}/reproducing-kernel/{cl}/m{m}",
                "P(e_n k) = dim * <R(k) P, zonal>",
                {"q": q, "n": n, "m": m, "c": chi.c, "pairs": len(ks) * H.dim},
                rep[0],
                TOL_RESIDUAL,
                witness=_k_witness(ks, rep[1]),
            )
            rec.residual(
                f"{lab}/zonal-symmetry/{cl}/m{m}",
                "zonal(e_n k) = conj(zonal(e_n k^{-1}))",
                {"q": q, "n": n, "m": m, "c": chi.c, "samples": len(ks)},
                sym[0],
                TOL_TIGHT,
                witness=_k_witness(ks, sym[1]),
            )
            del H  # one piece at a time: the next is built without this one
    reason = _count_reason(space.size, dims, fault, orbits)
    for chi in chs:
        for m in range(chi.c, M + 1):
            rec.exact(
                f"{lab}/multiplicity-one/{_chi_label(chi)}/m{m}",
                "dim of stabiliser-invariant vectors in each irreducible = 1",
                {"q": q, "n": n, "m": m, "c": chi.c},
                1,
                reason or 1,
            )
    # projector-sum identities
    korder = group_order(ring, n)
    exhaustive_cap = 5000
    if korder <= exhaustive_cap:
        ks = group_stack(ring, n)
        mode = "exhaustive"
    else:
        ks = random_stack(ring, n, 1000, rng)
        mode = "sampled-1000"
    for m, (worst, at) in enumerate(idempotent_sum_residual(space, chs, M, ks)):
        rec.residual(
            f"{lab}/projector-sums/m{m}",
            "level sums of dim * zonal match the congruence-subgroup indicators",
            {"q": q, "n": n, "m": m, "mode": mode},
            worst,
            TOL_TIGHT,
            witness=_k_witness(ks, at),
        )
    return rec


def _k_witness(ks, at):
    """Witness string for the k at index ``at`` of a stack; None without one."""
    return None if at is None else f"k={ks[at].tolist()}"


def _phi_ip_expected(q, n, l1, l2):
    top = max(l1, l2)
    if top == 0:
        return Fraction(1)
    return Fraction(q - 1, q ** ((top - 1) * (n - 1)) * (q**n - 1))


def _zonal_shell_residual(space, chi, m, z, minv):
    """Exact comparison of the zonal vector against its case definition: the
    worst residual and the slot where it occurs."""
    q, n = space.ring.q, space.n
    xn = space.points[:, n - 1]
    if chi.is_trivial:
        vals = np.ones(space.size, dtype=np.complex128)
    else:
        vals = np.zeros(space.size, dtype=np.complex128)
        um = space.index.coord_vals[:, n - 1] == 0
        vals[um] = chi.eval_arr(xn[um])
    expected = np.zeros(space.size, dtype=np.complex128)
    if m == 0:
        expected[:] = 1.0
    else:
        expected[minv >= m] = vals[minv >= m]
        if m > chi.c:
            alpha = complex(zonal_shell_coefficient(q, n, m))
            expected[minv == m - 1] = alpha * vals[minv == m - 1]
    return _worst(np.abs(z - expected))


# -- double coset suite ---------------------------------------------------------


def double_coset_suite(ring, n, rec=None, budget=200000):
    """Witnesses for all of K at once, checked by remultiplication, and the
    orbit-closure partition oracle.

    K_0 u_l K_0 is the orbit of u_l under x -> g x and x -> x g for the
    certified K_0(p^m) generators g, so each orbit must equal its index
    fibre, and the orbit sizes must sum to |K|; the oracle costs
    O(|K| #gens) and never reads the index formula.
    """
    rec = rec if rec is not None else Recorder()
    q, m = ring.q, ring.m
    lab = _ring_label(ring, n)
    korder = group_order(ring, n)
    if korder > budget:
        rec.skip(
            f"{lab}/double-cosets",
            "K = union over l of K_0 u_l K_0 with exact witnesses",
            {"q": q, "n": n, "m": m},
            f"|K| = {korder} beyond budget {budget}",
        )
        return rec
    K = group_stack(ring, n)
    us = u_ell(ring, n, range(m + 1))
    k0, ell, k0p = double_coset_witness(ring, K)
    back = ring.matmul(ring.matmul(k0, us[ell]), k0p)
    spec0 = SubgroupSpec("K0", m)
    witness_fail = (
        (back != K).any(axis=(1, 2))
        | ~subgroup_membership(spec0, ring, k0)
        | ~subgroup_membership(spec0, ring, k0p)
        | (ell != double_coset_index(ring, K))
    )
    rec.exact(
        f"{lab}/witness-remultiplication",
        "k = k0 u_l k0' exactly, with both factors in K_0(p^m)",
        {"q": q, "n": n, "m": m, "elements": len(K)},
        0,
        int(witness_fail.sum()),
    )
    rec.exact(
        f"{lab}/class-count",
        "the index function partitions K into m + 1 classes",
        {"q": q, "n": n, "m": m},
        m + 1,
        np.count_nonzero(np.bincount(ell, minlength=m + 1)),
    )
    verify_generators(spec0, ring, n)
    gens = subgroup_generators(spec0, ring, n)
    orbits = [orbit_stack(ring, u, gens, left=gens) for u in us]
    keys = row_keys(ring, K)
    brute_fail = sum(
        not np.array_equal(np.sort(row_keys(ring, orb)), np.sort(keys[ell == level]))
        for level, orb in enumerate(orbits)
    )
    brute_fail += sum(map(len, orbits)) != len(K)
    rec.exact(
        f"{lab}/brute-force-partition",
        "each index fiber equals the brute-force double coset of u_l",
        {"q": q, "n": n, "m": m},
        0,
        brute_fail,
    )
    return rec


# -- principal series suite -----------------------------------------------------


def character_tuples(ring, slots, total):
    """All unordered character tuples from the ring with conductor sum total.

    Tuples are produced with non-decreasing (conductor, index) keys, so each
    multiset appears exactly once, in a deterministic order.
    """
    chs = characters(ring)
    keyed = sorted(((ch.c, i), ch) for i, ch in enumerate(chs))
    out = []

    def build(min_pos, left, remaining, acc):
        if left == 0:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for pos in range(min_pos, len(keyed)):
            (c, _), ch = keyed[pos]
            if c > remaining:
                continue
            build(pos, left - 1, remaining - c, acc + [ch])

    build(0, slots, total, [])
    return out


def pseries_suite(
    branch,
    p,
    f,
    n,
    sum_max,
    rec=None,
    samples=500,
    seed=0,
    poly=None,
    level_override=None,
):
    """Newform, oldform growth, K-type multiplicities, coefficient law,
    and the twist-minimality criterion over all character tuples; a model
    over its coset budget, or whose sampled stacks would be over theirs,
    gives one SKIP record."""
    rec = rec if rec is not None else Recorder()
    rng = np.random.default_rng(seed)
    for total in range(sum_max + 1):
        M = level_override if level_override is not None else total + 1
        ring = make_ring_level(branch, p, f, M, poly)
        q = ring.q
        for chars in character_tuples(ring, n, total):
            label = f"pseries-q{q}-n{n}-M{M}/" + "-".join(_chi_label(c) for c in chars)
            try:
                model = PSeriesModel(chars, n=n, rng=rng)
            except BudgetExceededError as e:
                rec.skip(label + "/model", "model build", {}, str(e))
                continue
            try:
                pseries_model_checks(model, rec, samples=samples, rng=rng, label=label)
            except BudgetExceededError as e:
                rec.skip(label + "/budget", "sampled stacks within their budget", {}, str(e))
    return rec


def pseries_model_checks(model, rec, samples=500, rng=None, label=None):
    """All per-model checks: dims, newform, coefficient law, twist minimality.
    BudgetExceededError, before any record, when the sampled stacks would
    exceed BASIS_BYTES_MAX."""
    rng = rng if rng is not None else np.random.default_rng(0)
    ring, n, M = model.ring, model.n, model.ring.m
    _check_sample_bytes(n, samples)
    q = ring.q
    if label is None:
        label = f"pseries-q{q}-n{n}-M{M}/" + "-".join(_chi_label(c) for c in model.chars)
    c_pi = model.c_declared
    dims = [model.invariant_dims(ell) for ell in range(M + 1)]
    expected = [
        comb(ell - c_pi + n - 1, n - 1) if ell >= c_pi else 0 for ell in range(M + 1)
    ]
    rec.exact(
        label + "/oldform-dims",
        "dim of depth-l invariants = C(l - c + n - 1, n - 1)",
        {"q": q, "n": n, "M": M, "c": c_pi},
        expected,
        dims,
    )
    graded = model.graded_dims()
    rec.exact(
        label + "/graded-dims",
        "graded pieces have dim C(l - c + n - 2, n - 2)",
        {"q": q, "n": n, "M": M, "c": c_pi},
        [comb(ell - c_pi + n - 2, n - 2) if ell >= c_pi else 0 for ell in range(M + 1)],
        graded,
    )
    k0_dims = [
        model.invariant_dims(ell, kind="K0chi")
        for ell in range(model.chi_pi.c, M + 1)
    ]
    rec.exact(
        label + "/equivariant-equals-invariant",
        "bottom-character equivariant space = plain invariant space",
        {"q": q, "n": n, "M": M},
        dims[model.chi_pi.c :],
        k0_dims,
    )
    try:
        v0, c_emp = model.newform()
    except ConductorNotVisible as e:
        rec.skip(label + "/newform", "minimal invariant line", {}, str(e))
        return
    rec.exact(
        label + "/conductor",
        "least depth with invariants = sum of character conductors",
        {"q": q, "n": n},
        c_pi,
        c_emp,
    )
    worst, at = model.equivariance_residual(v0)
    gens = subgroup_generators(SubgroupSpec("K0", c_pi), ring, n)
    rec.residual(
        label + "/equivariance",
        "pi(k0) v = chi(d) v on depth-c generators",
        {"q": q, "n": n, "c": c_pi},
        worst,
        TOL_TIGHT,
        witness=_k_witness(gens, at),
    )
    uniform = random_stack(ring, n, samples - samples // 2, rng)
    # per shell l, pairs (a, b) from K_0(p^c) in draw order, and k = a u_l b
    shells = min(c_pi, M) + 1
    per = -(-samples // (2 * shells))
    pairs = random_stack(ring, n, 2 * shells * per, rng, ell=c_pi).reshape(shells, per, 2, n, n)
    us = u_ell(ring, n, range(shells))[:, None]
    shelled = ring.matmul(ring.matmul(pairs[:, :, 0], us), pairs[:, :, 1])
    ks = np.concatenate([uniform, shelled.reshape(-1, n, n)])
    worst, at = model.coefficient_residual(v0, ks)
    rec.residual(
        label + "/matrix-coefficient",
        "<pi(k) v, v>/<v, v> follows the three-case zonal law",
        {"q": q, "n": n, "c": c_pi, "samples": len(ks)},
        worst,
        TOL_RESIDUAL,
        witness=_k_witness(ks, at),
    )
    ramified = sum(1 for ch in model.chars if ch.c > 0)
    rec.exact(
        label + "/twist-minimality",
        "c(pi) = c(central restriction) iff at most one ramified slot",
        {"q": q, "n": n},
        ramified <= 1,
        c_emp == model.chi_pi.c,
    )


def roundtrip_suite(rec=None, seed=0):
    """Exhaustive group-average reconstruction at the enumerable point."""
    rec = rec if rec is not None else Recorder()
    rng = np.random.default_rng(seed)
    ring = make_ring_level("padic", 2, 1, 2)
    chs = characters(ring)
    triv = next(c for c in chs if c.is_trivial)
    ram = next(c for c in chs if c.c == 2)
    space = SphereSpace(ring, 2)
    for chars, chi_label in [((triv, triv), "spherical"), ((ram, triv), "ramified")]:
        model = PSeriesModel(chars, rng=rng)
        v0, c_emp = model.newform()
        z = zonal_fn(space, model.chi_pi, c_emp)
        v = vector_from_harmonic(model, space, z, v0, method="enumerate")
        rel = float(np.linalg.norm(v - v0) / np.linalg.norm(v0))
        rec.residual(
            f"roundtrip-222/{chi_label}/newform-reproduced",
            "group average of zonal-weighted translates returns the newform",
            {"q": 2, "n": 2, "M": 2, "c": c_emp},
            rel,
            TOL_RESIDUAL,
        )
        v_coset = vector_from_harmonic(model, space, z, v0, method="coset")
        rec.residual(
            f"roundtrip-222/{chi_label}/methods-agree",
            "exhaustive and stabiliser-coset evaluations coincide",
            {"q": 2, "n": 2, "M": 2},
            float(np.abs(v - v_coset).max()),
            TOL_RESIDUAL,
        )
        other = ram if chars[0] is triv else triv
        mism = zonal_fn(space, other, 2)
        vz = vector_from_harmonic(model, space, mism, v0, method="enumerate")
        rec.residual(
            f"roundtrip-222/{chi_label}/mismatched-character",
            "translate average with the wrong central character vanishes",
            {"q": 2, "n": 2, "M": 2},
            float(np.linalg.norm(vz)),
            TOL_TIGHT,
        )
    return rec


# -- archimedean suite -----------------------------------------------------------


def arch_suite(rec=None, real_bounds=(6, 4), complex_bounds=(5, 3)):
    rec = rec if rec is not None else Recorder()
    m_max, n_max = real_bounds
    for n in range(2, n_max + 1):
        for m in range(m_max + 1):
            poly = arch.real_zonal_poly(m, n)
            ok = (
                not arch.laplacian(poly, arch.real_pairs(n))
                and arch.evaluate(poly, arch.e_n_point_real(n)) == 1
                and all(sum(e) == m for e in poly)
            )
            rec.exact(
                f"arch-real/m{m}-n{n}/zonal",
                "real zonal: harmonic, homogeneous, value 1 at e_n (exact)",
                {"m": m, "n": n},
                True,
                ok,
            )
            rec.exact(
                f"arch-real/m{m}-n{n}/dim",
                "(2m+n-2)/(m+n-2) C(m+n-2, n-2) equals the exact kernel dim",
                {"m": m, "n": n},
                arch.harmonic_dim_real(m, n),
                arch.kernel_dim_real(m, n),
            )
    s_max, nc_max = complex_bounds
    for n in range(2, nc_max + 1):
        for m1 in range(s_max + 1):
            for m2 in range(s_max + 1 - m1):
                poly = arch.complex_zonal_poly(m1, m2, n)
                ok = (
                    not arch.laplacian(poly, arch.complex_pairs(n))
                    and arch.evaluate(poly, arch.e_n_point_complex(n)) == 1
                    and all(sum(e[:n]) == m1 and sum(e[n:]) == m2 for e in poly)
                )
                rec.exact(
                    f"arch-complex/m{m1}_{m2}-n{n}/zonal",
                    "complex zonal: harmonic of the stated bidegree, value 1 at e_n",
                    {"m1": m1, "m2": m2, "n": n},
                    True,
                    ok,
                )
                rec.exact(
                    f"arch-complex/m{m1}_{m2}-n{n}/dim",
                    "(m1+m2+n-1)/(n-1) C(m1+n-2,n-2) C(m2+n-2,n-2) = exact kernel dim",
                    {"m1": m1, "m2": m2, "n": n},
                    arch.harmonic_dim_complex(m1, m2, n),
                    arch.kernel_dim_complex(m1, m2, n),
                )
    res = arch.rotation_invariance_residual(arch.real_zonal_poly(4, 4), 4)
    rec.residual(
        "arch-real/rotation-invariance",
        "sampled invariance under head-coordinate rotations",
        {"m": 4, "n": 4},
        res,
        1e-10,
    )
    return rec


# -- acceptance grid --------------------------------------------------------------

DIMENSION_GRID = [
    ("padic", 2, 1, 3, 2),
    ("padic", 3, 1, 2, 2),
    ("padic", 2, 1, 2, 3),
    ("laurent", 2, 2, 2, 2),
    ("padic", 5, 1, 1, 2),
]

DOUBLE_COSET_POINTS = [
    ("padic", 2, 1, 2, 2),
    ("padic", 2, 1, 1, 3),
]


def verify_all(samples=500, seed=0, budget=200000, rec=None):
    rec = rec if rec is not None else Recorder()
    for branch, p, f, m, n in DIMENSION_GRID:
        ring = make_ring_level(branch, p, f, m)
        decompose_suite(ring, n, rec=rec, rng=np.random.default_rng(seed))
        try:
            zonal_suite(ring, n, rec=rec, samples=max(200, samples // 2), seed=seed)
        except BudgetExceededError as e:
            rec.skip(f"{_ring_label(ring, n)}/zonal-budget", "suite within its budgets", {}, str(e))
    for branch, p, f, m, n in DOUBLE_COSET_POINTS:
        ring = make_ring_level(branch, p, f, m)
        double_coset_suite(ring, n, rec=rec, budget=budget)
    pseries_suite("padic", 2, 1, 2, 3, rec=rec, samples=samples, seed=seed)
    pseries_suite("padic", 3, 1, 2, 3, rec=rec, samples=samples, seed=seed)
    pseries_suite("padic", 2, 1, 3, 1, rec=rec, samples=samples, seed=seed, level_override=2)
    roundtrip_suite(rec=rec, seed=seed)
    arch_suite(rec=rec)
    return rec
