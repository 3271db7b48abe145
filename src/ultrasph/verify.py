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
    Labels,
    SphereSpace,
    _worst,
    dim_chi_level,
    dim_harmonic,
    harmonic_subspace,
    idempotent_sum_residual,
    labels_name,
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
    k_certificate_bytes,
    mat_inv,
    random_stack,
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
from .sphere import BASIS_BYTES_MAX, SphereIndex, orbit_labels, sphere_size

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


def _piece_key(chi, m):
    """The (level, split) of V(chi, m)'s labels: depth m at m = c, else split."""
    return m, int(m > chi.c)


def level_facts(space):
    """(dim, fault, residual) of the ``Labels`` of each (level, split), the
    2M + 1 built one at a time; the residual, the worst per-fibre Gram
    entry, is None for labels with a fault."""
    facts = {}
    for level in range(space.ring.m + 1):
        for split in range(min(level, 1) + 1):
            labels = Labels(space, level, split)
            fault = labels.fault
            facts[level, split] = (labels.dim, fault, None if fault else labels.block_residual())
    return facts


# -- harmonic decomposition suite --------------------------------------------


def decompose_suite(ring, n, rec=None, rng=None, include_commutants=True):
    """Dimension grid, completeness, orthogonality, the measure lemma and
    (optionally) the irreducibility certificates from ``level_facts``, with
    no piece built.  Raises BudgetExceededError, before building anything,
    when ``decompose_bytes`` is over BASIS_BYTES_MAX, and before the first
    labels when an orbit closure of K's certificate is over CHAIN_BYTES_MAX.
    The certificate is the orbit product of K's strong generators, whose top
    orbit, e_n K, is the measure lemma's ``cert["orbit"]``.  ``rng`` is accepted
    for callers that pass one, and nothing draws from it.  ``/orthogonality``
    rests on the facts of every piece's labels (``Labels.fault``), which it
    FAILs on, and its residual is the worst per-fibre Gram block entry."""
    rec = rec if rec is not None else Recorder()
    q, M = ring.q, ring.m
    check_decompose_bytes(q, n, M)
    # K's certificate first: one over its cap is refused before any labels are built
    cert = verify_generators(SubgroupSpec("K"), ring, n)
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
    levels = level_facts(space)
    keys = []  # each piece's labels, in the loop's order
    for chi in chs:
        cl = _chi_label(chi)
        for ell in range(M + 1):
            rec.exact(
                f"{lab}/chi-level-dim/{cl}/l{ell}",
                "dim = [l=c=0] + [l>=max(c,1)] q^((l-1)(n-1)) (q^n-1)/(q-1)",
                {"q": q, "n": n, "l": ell, "c": chi.c},
                dim_chi_level(q, n, ell, chi.c),
                levels[ell, 0][0] if ell >= chi.c else 0,
            )
        for m in range(chi.c, M + 1):
            keys.append(_piece_key(chi, m))
            rec.exact(
                f"{lab}/harmonic-dim/{cl}/m{m}",
                "four-case irreducible dimension formula",
                {"q": q, "n": n, "m": m, "c": chi.c},
                dim_harmonic(q, n, m, chi.c),
                levels[keys[-1]][0],
            )
    rec.exact(
        f"{lab}/completeness",
        "sum of irreducible dims = |S|",
        {"q": q, "n": n, "M": M},
        space.size,
        sum(levels[key][0] for key in keys),
    )
    args = (f"{lab}/orthogonality", "pairwise orthonormality of all irreducible pieces",
            {"q": q, "n": n, "M": M})
    fault = next((levels[key][1] for key in keys if levels[key][1]), None)
    if fault is not None:
        rec.exact(*args, f"< {TOL_TIGHT:g}", fault)
    else:
        worst = max(keys, key=lambda key: levels[key][2])
        rec.residual(*args, levels[worst][2], TOL_TIGHT, witness=labels_name(*worst))
    # measure lemma: K's chain starts at e_n, so its top orbit is e_n K, and
    # an orbit of |S| points is hit |K|/|S| times by k -> e_n k
    rec.exact(
        f"{lab}/uniform-stabilisers",
        "orbit map k -> e_n k hits every point |K|/|S| times",
        {"q": q, "n": n, "M": M, "|K|": group_order(ring, n)},
        True,
        cert["orbit"] == space.size,
    )
    if include_commutants:
        irreducibility_suite(ring, n, rec=rec, space=space, levels=levels, cert=cert)
    return rec


def decompose_bytes(q, n, M):
    """Predicted peak bytes of ``decompose_suite``: 40 int64 words a sphere
    point (the sphere index and its children, the scalar orbits and one
    level's labels), and what K's certificate charges
    (``k_certificate_bytes``).  tracemalloc puts the suite, K's certificate
    aside, at 230-310 bytes a point at padic (q5, n2, m3), (q7, n3, m2),
    (q5, n3, m2), (q3, n3, m3), (q3, n2, m4), (q2, n2, m8) and
    (q2, n2, m10)."""
    return 8 * 40 * sphere_size(q, n, M) + k_certificate_bytes(q, n, M)


def check_decompose_bytes(q, n, M):
    """``decompose_bytes`` against BASIS_BYTES_MAX, from (q, n, M) alone:
    the CLI runs it before it builds the ring."""
    _check_bytes(decompose_bytes(q, n, M), "the sphere, piece labels and K's certificate")


def check_zonal_bytes(q, n, M):
    """``zonal_piece_bytes`` against BASIS_BYTES_MAX, like ``check_decompose_bytes``."""
    _check_bytes(zonal_piece_bytes(q, n, M), "a dense piece and its checks")


def _check_bytes(nbytes, what):
    """Raise BudgetExceededError when ``what`` needs over BASIS_BYTES_MAX."""
    if nbytes > BASIS_BYTES_MAX:
        raise BudgetExceededError(f"{what} need {nbytes} bytes, over the cap {BASIS_BYTES_MAX}")


def _check_sample_bytes(n, count):
    """Raise BudgetExceededError, before anything is drawn, when a stack of
    ``count`` sampled (n, n) elements and the checks on it would exceed
    BASIS_BYTES_MAX.  The prediction is 16 times the stack's 8 n^2 count
    bytes.  Measured with tracemalloc, the zonal suite's one stack per
    sphere, its inverse, the Leibniz chunks and the per-k residuals peak at
    3.0-3.8 times the stack, and the model checks at 4.5-8 times it."""
    _check_bytes(16 * 8 * n * n * count, f"{count} sampled elements and their checks")


def _count_reason(size, dims, fault, orbits):
    """Why the facts behind an orbit count fail, or None: ``dims`` sum to |S|,
    no piece's labels have a ``fault``, and the number of non-empty pieces is
    ``orbits``, which for orthogonal P'-invariant pieces is sum dim H^P'."""
    held = sum(1 for d in dims if d)
    if sum(dims) != size:
        return f"pieces span {sum(dims)} of {size} dimensions"
    return fault or (f"{orbits} orbits, {held} pieces" if orbits != held else None)


def irreducibility_suite(ring, n, rec=None, space=None, levels=None, cert=None):
    """Irreducibility and multiplicity one of every piece from one orbit count.

    K's certificate ``cert`` (``verify_generators``, run here when not
    given) must have e_n's orbit all of S, and ``_count_reason`` must hold
    with no failing label fact (``Labels.fault``) and every piece
    K-invariant, which one permutation check per K generator shows for all
    pieces at once (``SphereIndex.structure_fault``).  The pieces are
    orthogonal (``/orthogonality``), so they split L^2(S) = Ind_P^K 1, P
    the stabiliser of e_n.  ``mirabolic_orbit_count`` refuses a generator
    outside P, so the count is at least #P-orbits = sum m_rho^2 >= sum
    m_rho >= #pieces, and equality makes each piece irreducible and no two
    isomorphic: each ``/commutant/`` record observes dim End = 1, and each
    ``/commutant-filtration/`` record the number of pieces in the depth-M
    space of its character.  Otherwise every record FAILs and names why.

    ``levels`` is the ``level_facts`` table of ``space``, built here when
    not given.
    """
    rec = rec if rec is not None else Recorder()
    q, M = ring.q, ring.m
    lab = _ring_label(ring, n)
    space = space if space is not None else SphereSpace(ring, n)
    levels = levels if levels is not None else level_facts(space)
    pieces = [levels[_piece_key(chi, m)] for chi in characters(ring) for m in range(chi.c, M + 1)]
    cert = cert if cert is not None else verify_generators(SubgroupSpec("K"), ring, n)
    orbits = mirabolic_orbit_count(space, subgroup_generators(SubgroupSpec("Kmirab"), ring, n))
    moved = space.index.structure_fault(subgroup_generators(SubgroupSpec("K"), ring, n))
    fault = f"K {moved}" if moved else next((f for _, f, _ in pieces if f), None)
    if cert["orbit"] != space.size:
        reason = f"K-orbit of e_n has {cert['orbit']} of {space.size} points"
    else:
        reason = _count_reason(space.size, [d for d, _, _ in pieces], fault, orbits)
    for chi in characters(ring):
        cl = _chi_label(chi)
        for m in range(chi.c, M + 1):
            rec.exact(
                f"{lab}/commutant/{cl}/m{m}",
                "dim End = 1 certifies irreducibility",
                {"q": q, "n": n, "m": m, "c": chi.c},
                1,
                reason or 1,
            )
        inside = sum(1 for m in range(chi.c, M + 1) if levels[_piece_key(chi, m)][0])
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
    anything is built, when the largest piece and its checks, or the stack
    of every k the sphere's checks take, would exceed BASIS_BYTES_MAX.
    A piece H's invariant line is proj_H delta_{e_n}, a multiple of
    conj(basis[:, e_n]) @ basis, which the group P' of the ``Kmirab``
    generators fixes when it fixes H and e_n.  One permutation check per
    generator (``SphereIndex.structure_fault``) shows P' fixes every piece;
    so a non-zero line in every piece, no failing label fact and
    ``_count_reason`` force dim H^P' = 1.

    The sphere's ks are one stack: each piece's sample count comes from
    the closed-form ``dim_harmonic`` before any piece is built, every piece's
    ks and the projector sums' 1000 (when |K| > 5000) are one
    ``random_stack`` draw, which consumes the stream as the draws one after
    another would, and the exhaustive K stack of a small group joins them.
    The whole stack is inverted once; each piece reads its slice of ks and
    inverses, and builds R(k^{-1}) on its own slice in chunks
    (``verify_piece_identities``).
    A failed identity record names its worst k, a failed ``phi-gram`` its
    worst (l1, l2), and a failed ``zonal-oracle`` or ``zonal-shells`` its
    worst sphere point."""
    rec = rec if rec is not None else Recorder()
    rng = np.random.default_rng(seed)
    q, M = ring.q, ring.m
    check_zonal_bytes(q, n, M)
    chs = characters(ring)
    size = sphere_size(q, n, M)
    counts = [  # each piece's ks, in the loop's order
        max(-(-samples // size), -(-samples // max(dim_harmonic(q, n, m, chi.c), 1)), 8)
        for chi in chs
        for m in range(chi.c, M + 1)
    ]
    korder = group_order(ring, n)
    exhaustive = korder <= 5000
    drawn = sum(counts) + (0 if exhaustive else 1000)
    _check_sample_bytes(n, drawn + (korder if exhaustive else 0))
    stack = random_stack(ring, n, drawn, rng)
    if exhaustive:
        stack = np.concatenate([stack, group_stack(ring, n)])
    stack_inv = mat_inv(ring, stack)
    bounds = np.cumsum([0, *counts])
    spans = zip(bounds, bounds[1:])
    lab = _ring_label(ring, n)
    space = SphereSpace(ring, n)
    minv = space.min_val_head()
    mirab_gens = subgroup_generators(SubgroupSpec("Kmirab"), ring, n)
    orbits = mirabolic_orbit_count(space, mirab_gens)
    moved = space.index.structure_fault(mirab_gens)
    levels = level_facts(space)
    pieces = [levels[_piece_key(chi, m)] for chi in chs for m in range(chi.c, M + 1)]
    fault = f"Kmirab {moved}" if moved else next((f for _, f, _ in pieces if f), None)
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
            if fault is None and not at_en.any():
                fault = f"piece ({cl}, m{m}) vanishes at e_n"
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
            lo, hi = next(spans)
            ks = stack[lo:hi]
            add, rep, sym = verify_piece_identities(H, z, ks, kinv=stack_inv[lo:hi])
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
    reason = _count_reason(space.size, [d for d, _, _ in pieces], fault, orbits)
    for chi in chs:
        for m in range(chi.c, M + 1):
            rec.exact(
                f"{lab}/multiplicity-one/{_chi_label(chi)}/m{m}",
                "dim of stabiliser-invariant vectors in each irreducible = 1",
                {"q": q, "n": n, "m": m, "c": chi.c},
                1,
                reason or 1,
            )
    # projector-sum identities, on the stack's tail
    ks, mode = stack[bounds[-1] :], "exhaustive" if exhaustive else "sampled-1000"
    sums = idempotent_sum_residual(space, chs, M, ks, kinv=stack_inv[bounds[-1] :])
    for m, (worst, at) in enumerate(sums):
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
    sphere-orbit partition oracle.

    K_0(p^m) has a zero bottom-left block, so e_n g k = g_nn e_n k, and
    when K is transitive on S, k -> e_n k induces K_0\\K = S/units: it
    sends K_0 u_l K_0 to the K_0(p^m)-orbit of e_n u_l, the bottom row of
    u_l.  So each orbit of the certified K_0(p^m) generators (the scalars
    among them) on S must equal its index fibre min(val x_1..x_{n-1}) = l,
    and K's generators must have one orbit on S; the oracle costs
    O(|S| #gens) and never reads the index formula.  K and its witnesses
    are priced by ``_check_sample_bytes``, 16 times K's stack, before K is
    built (BudgetExceededError): tracemalloc puts the suite at 7.0-8.3 times
    the stack at padic (q2, n3, m2), (q5, n2, m2) and (q3, n2, m3), and
    under 0.2 MB at the grid points.
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
    _check_sample_bytes(n, korder)
    spec0 = SubgroupSpec("K0", m)
    K = group_stack(ring, n)
    us = u_ell(ring, n, range(m + 1))
    k0, ell, k0p = double_coset_witness(ring, K)
    back = ring.matmul(ring.matmul(k0, us[ell]), k0p)
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
    sphere = SphereIndex(ring, n)
    perms = [sphere.perm_of_matrix(g) for g in subgroup_generators(spec0, ring, n)]
    orbit = orbit_labels(perms, (sphere.size,))
    index = sphere.coord_vals[:, : n - 1].min(axis=1)
    starts = orbit[sphere.idx(us[:, n - 1])]
    brute_fail = sum(not np.array_equal(orbit == s, index == level) for level, s in enumerate(starts))
    brute_fail += sphere.orbit_count(subgroup_generators(SubgroupSpec("K"), ring, n)) != 1
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
    and the twist-minimality criterion over all character tuples.  A tuple
    whose sampled stacks would be over their budget gives one ``/budget``
    SKIP record before its model is built, and a model over its coset
    budget one ``/model`` SKIP record."""
    rec = rec if rec is not None else Recorder()
    rng = np.random.default_rng(seed)
    for total in range(sum_max + 1):
        M = level_override if level_override is not None else total + 1
        ring = make_ring_level(branch, p, f, M, poly)
        q = ring.q
        for chars in character_tuples(ring, n, total):
            label = f"pseries-q{q}-n{n}-M{M}/" + "-".join(_chi_label(c) for c in chars)
            try:
                _check_sample_bytes(n, samples)
            except BudgetExceededError as e:
                rec.skip(label + "/budget", "sampled stacks within their budget", {}, str(e))
                continue
            try:
                model = PSeriesModel(chars, n=n, rng=rng)
            except BudgetExceededError as e:
                rec.skip(label + "/model", "model build", {}, str(e))
                continue
            pseries_model_checks(model, rec, samples=samples, rng=rng, label=label)
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
    """Zonal and dimension records of the real and complex spheres within the
    bounds; BudgetExceededError, before any record, when ``arch_bytes`` is
    over BASIS_BYTES_MAX.  A dimension whose triangular minor fails observes
    why, naming the target monomial."""
    rec = rec if rec is not None else Recorder()
    _check_bytes(arch_bytes(real_bounds, complex_bounds), "the largest (bi)degree's monomials")
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


def arch_bytes(real_bounds, complex_bounds):
    """Predicted peak bytes of ``arch_suite``: 320 bytes per monomial of the
    largest (bi)degree, whose set ``kernel_dim_*`` holds.  Counts grow with
    degree and variables, and a bidegree of total s is largest split evenly,
    so only the top bounds count.  With tracemalloc the suite peaks at
    150-225 bytes per such monomial, from real m <= 10, n <= 6 to real
    m <= 14, n <= 8 with complex m1 + m2 <= 10, n <= 5."""
    cap = BASIS_BYTES_MAX
    (m, n), (s, nc) = real_bounds, complex_bounds
    both = arch.monomial_count(s // 2, nc, cap) * arch.monomial_count(s - s // 2, nc, cap)
    return 320 * max(arch.monomial_count(m, n, cap), both)


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
