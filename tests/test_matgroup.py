from collections import Counter
from functools import lru_cache
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ultrasph import matgroup, verify
from ultrasph.matgroup import (
    BudgetExceededError,
    SubgroupSpec,
    canonical_spec,
    chang_beta,
    closure,
    det,
    double_coset_index,
    double_coset_witness,
    enumerate_group,
    group_order,
    group_stack,
    mat_inv,
    random_in_K,
    random_in_K0,
    random_stack,
    row_keys,
    subgroup_generators,
    subgroup_membership,
    subgroup_order,
    u_ell,
    verify_generators,
)
from ultrasph.ring import make_ring_level, unit_group_basis, unit_subgroup_basis
from ultrasph.sphere import SphereIndex, orbit_labels, sphere_size

from chainref import Level, StabiliserChain, named_product, reference_level, reference_order
from matk import MatK


def _elem(ring, n, i, j, x):
    return MatK(ring, matgroup._elem(n, i, j, x), check=False)


def _diag(ring, n, pos, u):
    return MatK(ring, matgroup._diag(n, pos, u), check=False)


def _scalar(ring, n, u):
    return MatK(ring, matgroup._scalar(n, u), check=False)


def reference_gl_generators(ring, n):
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for b in matgroup.additive_generators(ring, 0):
                    gens.append(_elem(ring, n, i, j, b))
    for g in unit_group_basis(ring).gens:
        gens.append(_diag(ring, n, 0, g))
    return gens


def reference_subgroup_generators(spec, ring, n):
    """The list of MatK that the (G, n, n) generator stack replaced."""
    spec = canonical_spec(spec, ring)
    ell = spec.level
    if spec.kind == "K":
        return reference_gl_generators(ring, n)
    if spec.kind == "Kprin":
        gens = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for b in matgroup.additive_generators(ring, ell):
                    gens.append(_elem(ring, n, i, j, b))
        for i in range(n):
            for v in unit_subgroup_basis(ring, ell).gens:
                gens.append(_diag(ring, n, i, v))
        return gens or [MatK.identity(ring, n)]
    if spec.kind == "Kmirab":
        gens = []
        if n > 1:
            for g in reference_gl_generators(ring, n - 1):
                a = np.eye(n, dtype=np.int64)
                a[: n - 1, : n - 1] = g.a
                gens.append(MatK(ring, a, check=False))
        else:
            for u in unit_group_basis(ring).gens:
                gens.append(_diag(ring, n, 0, u))
        for i in range(n - 1):
            for b in matgroup.additive_generators(ring, 0):
                gens.append(_elem(ring, n, i, n - 1, b))
        return gens
    if spec.kind == "K1":
        # K_{n-1,1} * K(p^l) = K_1(p^l)
        return reference_subgroup_generators(
            SubgroupSpec("Kmirab"), ring, n
        ) + reference_subgroup_generators(SubgroupSpec("Kprin", ell), ring, n)
    if spec.kind == "K0":
        # Z(O) * K_1(p^l) = K_0(p^l)
        return reference_subgroup_generators(SubgroupSpec("K1", ell), ring, n) + [
            _scalar(ring, n, u) for u in unit_group_basis(ring).gens
        ]
    raise AssertionError


def reference_u_ell(ring, n, ell):
    """The MatK with bottom row (0, ..., 0, w^ell, 1) and 1s on the diagonal."""
    a = np.eye(n, dtype=np.int64)
    a[n - 1, n - 2] = ring.uniformizer_pow(ell)
    return MatK(ring, a, check=False)


def reference_closure(ring, gens):
    """One-at-a-time BFS over a set of byte keys: the order closure keeps."""
    n = np.shape(gens)[-1]
    seen = {np.eye(n, dtype=np.int64).tobytes()}
    elems = [np.eye(n, dtype=np.int64)]
    frontier = np.eye(n, dtype=np.int64)[None]
    while len(frontier):
        fresh = []
        for row in np.concatenate([ring.matmul(frontier, g) for g in gens]):
            if row.tobytes() not in seen:
                seen.add(row.tobytes())
                fresh.append(row)
        elems += fresh
        frontier = np.array(fresh, dtype=np.int64).reshape(-1, n, n)
    return np.array(elems, dtype=np.int64)


def reference_enumeration(ring, n):
    """Residue matrices, then lifts, each in itertools.product order."""
    q, m = ring.q, ring.m
    out = []
    for base in product(range(q), repeat=n * n):
        mat0 = np.array(base, dtype=np.int64).reshape(n, n)
        if not ring.is_unit(det(ring, mat0)):
            continue
        for corr in product(range(q ** (m - 1)), repeat=n * n):
            add = np.array(corr, dtype=np.int64).reshape(n, n) * q
            out.append(ring.add_arr(mat0, add))
    return np.array(out, dtype=np.int64).reshape(-1, n, n)


def reference_random_in_K(ring, n, rng):
    """One-at-a-time rejection on K: the stream random_stack replays."""
    while True:
        a = rng.integers(0, ring.size, size=(n, n))
        if ring.is_unit(det(ring, a.astype(np.int64))):
            return MatK(ring, a, check=False)


def reference_random_in_K0(ring, n, ell, rng):
    """One-at-a-time rejection on K_0(p^ell): bottom-left entries drawn from p^ell."""
    step = ring.q ** min(ell, ring.m)
    lows = ring.size // step
    while True:
        a = rng.integers(0, ring.size, size=(n, n)).astype(np.int64)
        a[n - 1, : n - 1] = rng.integers(0, lows, size=n - 1) * step
        if ring.is_unit(det(ring, a)):
            return MatK(ring, a, check=False)


def reference_membership(k, spec):
    """The one-MatK membership predicate the stacked mask replaced."""
    ring, n, a = k.ring, k.n, k.a
    vals = ring.val_arr(a)
    ell = spec.level
    if spec.kind == "K":
        return True
    if spec.kind == "Kprin":
        diff = ring.sub_arr(a, np.eye(n, dtype=np.int64))
        return bool((ring.val_arr(diff) >= min(ell, ring.m)).all())
    if spec.kind == "K1":
        d1 = ring.sub(int(a[n - 1, n - 1]), 1)
        return bool((vals[n - 1, : n - 1] >= min(ell, ring.m)).all()) and ring.val(
            d1
        ) >= min(ell, ring.m)
    if spec.kind == "K0":
        return bool((vals[n - 1, : n - 1] >= min(ell, ring.m)).all())
    if spec.kind == "Kmirab":
        bottom = a[n - 1]
        return bool((bottom[: n - 1] == 0).all()) and int(bottom[n - 1]) == 1
    raise AssertionError


def reference_subgroup_element(spec, ring, n, rng):
    """A random element of the subgroup, by rejection: the samples the
    factorisation certificate used to check."""
    if spec.kind == "K" or spec.level == 0:
        return MatK(ring, random_in_K(ring, n, rng), check=False)
    if spec.kind == "Kmirab":
        while True:
            a = rng.integers(0, ring.size, size=(n, n)).astype(np.int64)
            a[n - 1, : n - 1] = 0
            a[n - 1, n - 1] = 1
            if ring.is_unit(det(ring, a)):
                return MatK(ring, a, check=False)
    ell, step = spec.level, ring.q ** min(spec.level, ring.m)
    if spec.kind == "K0":
        return MatK(ring, random_in_K0(ring, n, ell, rng), check=False)
    if spec.kind == "K1":
        while True:
            a = rng.integers(0, ring.size, size=(n, n)).astype(np.int64)
            a[n - 1, : n - 1] = (a[n - 1, : n - 1] // step) * step
            a[n - 1, n - 1] = ring.add(1, (int(a[n - 1, n - 1]) // step) * step)
            if ring.is_unit(det(ring, a)):
                return MatK(a=a, ring=ring, check=False)
    if spec.kind == "Kprin":
        while True:
            d = rng.integers(0, ring.size // step, size=(n, n)).astype(np.int64) * step
            a = ring.add_arr(np.eye(n, dtype=np.int64), d)
            if ring.is_unit(det(ring, a)):
                return MatK(ring, a, check=False)
    raise AssertionError


def _decompose_additive(ring, x, depth=0):
    """Write code x (val >= depth) as sum of small multiples of the additive
    generators at this depth; returns [(code, multiplicity)]."""
    if x == 0:
        return []
    if ring.branch == "padic":
        base = ring.uniformizer_pow(depth)
        return [(base, x // base)]
    out = []
    digits = ring._digits_of(int(x))
    for a in range(depth, ring.m):
        d = int(digits[a])
        for b in range(ring.f):
            coef = (d // ring.p**b) % ring.p
            if coef:
                out.append((ring.q**a * ring.p**b, coef))
    return out


def _emit_elem(ring, n, i, j, x, depth=0):
    return [(_elem(ring, n, i, j, b), e) for b, e in _decompose_additive(ring, x, depth)]


def _emit_diag(ring, n, pos, u, subgroup_depth=0):
    basis = (
        unit_group_basis(ring)
        if subgroup_depth == 0
        else unit_subgroup_basis(ring, subgroup_depth)
    )
    vec = basis.dlog[int(u)]
    return [
        (_diag(ring, n, pos, g), e) for g, e in zip(basis.gens, vec) if e
    ]


def _emit_scalar(ring, n, u):
    basis = unit_group_basis(ring)
    vec = basis.dlog[int(u)]
    return [(_scalar(ring, n, g), e) for g, e in zip(basis.gens, vec) if e]


def _emit_last_diag_shuffle(ring, n, i, d):
    """diag(..., d, d^{-1}, ...) at rows (i, i+1) as elementary factors.

    Uses w(a) = E_{i,i+1}(a) E_{i+1,i}(-a^{-1}) E_{i,i+1}(a) and
    diag(a, a^{-1}) = w(a) w(1)^{-1}.
    """
    dinv = ring.inv(d)
    seq = []
    seq += _emit_elem(ring, n, i, i + 1, d)
    seq += _emit_elem(ring, n, i + 1, i, ring.neg(dinv))
    seq += _emit_elem(ring, n, i, i + 1, d)
    seq += _emit_elem(ring, n, i, i + 1, ring.neg(1))
    seq += _emit_elem(ring, n, i + 1, i, 1)
    seq += _emit_elem(ring, n, i, i + 1, ring.neg(1))
    return seq


def _factor_gl(k, depth=0, block=None, offset=0):
    """Factor k in GL_n (depth 0) or K(p^depth) into generator powers.

    ``block``/``offset`` restrict to an embedded top-left block so the
    mirabolic case can reuse the routine.  Returns [(MatK, exponent)].
    """
    ring, nfull = k.ring, k.n
    n = block if block is not None else nfull
    A = k.a.copy()
    lfac, rfac = [], []

    def lapply(i, j, x):
        # A := E_ij(-x) @ A, record E_ij(x) on the left
        A[i, :] = ring.sub_arr(A[i, :], ring.mul_arr(np.int64(x), A[j, :]))
        lfac.extend(_emit_elem(ring, nfull, offset + i, offset + j, x, depth))

    def rapply(i, j, x):
        # A := A @ E_ij(-x), record E_ij(x) on the right
        A[:, j] = ring.sub_arr(A[:, j], ring.mul_arr(np.int64(x), A[:, i]))
        rfac[:0] = _emit_elem(ring, nfull, offset + i, offset + j, x, depth)

    for col in range(n - 1):
        if not ring.is_unit(int(A[col, col])):
            r = next(
                rr for rr in range(col + 1, n) if ring.is_unit(int(A[rr, col]))
            )
            lapply(col, r, ring.neg(1))  # row_col += row_r
        piv_inv = ring.inv(int(A[col, col]))
        for r in range(col + 1, n):
            x = ring.mul(int(A[r, col]), piv_inv)
            if x:
                lapply(r, col, x)
        for cc in range(col + 1, n):
            x = ring.mul(int(A[col, cc]), piv_inv)
            if x:
                rapply(col, cc, x)
    # A is diagonal with unit entries; shuffle the determinant to the corner
    if depth == 0:
        for i in range(n - 1):
            d = int(A[i, i])
            if d != 1:
                A[i, i] = 1
                A[i + 1, i + 1] = ring.mul(int(A[i + 1, i + 1]), d)
                # extracted factor is diag(d, d^{-1}) at rows (i, i+1)
                rfac[:0] = _emit_last_diag_shuffle(ring, nfull, offset + i, d)
        u = int(A[n - 1, n - 1])
        if u != 1:
            rfac[:0] = _emit_diag(ring, nfull, offset + n - 1, u)
    else:
        for i in range(n):
            d = int(A[i, i])
            if d != 1:
                rfac[:0] = _emit_diag(ring, nfull, offset + i, d, subgroup_depth=depth)
    return lfac + rfac


def reference_factorisation(k, spec):
    """Write k as an ordered product of generator powers of the subgroup.

    Raises if k fails the membership predicate.  The factor list multiplies
    back to k exactly: the sampled membership certificate that the exact
    stabiliser chain replaced.
    """
    if not subgroup_membership(spec, k.ring, k.a[None])[0]:
        raise ValueError(f"matrix is not in {spec}")
    ring, n = k.ring, k.n
    ell = spec.level
    if spec.kind == "K" or (spec.kind in ("Kprin", "K1", "K0") and ell == 0):
        return _factor_gl(k)
    if spec.kind == "Kprin":
        return _factor_gl(k, depth=min(ell, ring.m))
    if spec.kind == "Kmirab":
        a = k.a
        fac = []
        if n > 2:
            emb = np.eye(n, dtype=np.int64)
            emb[: n - 1, : n - 1] = a[: n - 1, : n - 1]
            fac += _factor_gl(MatK(ring, emb, check=False), block=n - 1)
        else:
            fac += _emit_diag(ring, n, 0, int(a[0, 0]))
        ainv = mat_inv(ring, a[: n - 1, : n - 1])
        b = ring.matmul(ainv, a[: n - 1, n - 1 :])
        for i in range(n - 1):
            fac += _emit_elem(ring, n, i, n - 1, int(b[i, 0]))
        return fac
    if spec.kind == "K1":
        # two-factor split: k = [[a - b d^{-1} c, b d^{-1}], [0, 1]] * [[1, 0], [c, d]]
        a = k.a
        ab = a[: n - 1, : n - 1]
        b = a[: n - 1, n - 1 :]
        c = a[n - 1 : n, : n - 1]
        d = int(a[n - 1, n - 1])
        bd = ring.mul_arr(b, np.int64(ring.inv(d)))
        mir = np.eye(n, dtype=np.int64)
        mir[: n - 1, : n - 1] = ring.sub_arr(ab, ring.matmul(bd, c))
        mir[: n - 1, n - 1 :] = bd
        prin = np.eye(n, dtype=np.int64)
        prin[n - 1 : n, : n - 1] = c
        prin[n - 1, n - 1] = d
        mirk = MatK(ring, mir, check=False)
        prink = MatK(ring, prin, check=False)
        return reference_factorisation(mirk, SubgroupSpec("Kmirab")) + reference_factorisation(
            prink, SubgroupSpec("Kprin", ell)
        )
    if spec.kind == "K0":
        d = int(k.a[n - 1, n - 1])
        rest = _scalar(ring, n, ring.inv(d)) @ k
        return _emit_scalar(ring, n, d) + reference_factorisation(
            rest, SubgroupSpec("K1", ell)
        )
    raise AssertionError


def reference_chang_beta(ring, a, c):
    """Column beta with det(a - beta*c) a unit, for one (a, c) block: the
    first residue-field candidate in lexicographic order."""
    nm1 = a.shape[0]
    c = c.reshape(1, nm1)
    if not (ring.val_arr(c) == 0).any():
        raise ValueError("c must lie on the sphere")
    for cand in product(range(ring.q), repeat=nm1):
        beta = np.array(cand, dtype=np.int64).reshape(nm1, 1)
        test = ring.sub_arr(a, ring.matmul(beta, c))
        if ring.is_unit(det(ring, test)):
            return beta
    raise RuntimeError("no beta found; this contradicts the double coset lemma")


def reference_complete_to_invertible(ring, s):
    """An invertible matrix whose bottom row is s (s has a unit entry)."""
    nm1 = s.shape[0]
    piv = int(np.nonzero(ring.val_arr(s) == 0)[0][0])
    rows = [np.eye(nm1, dtype=np.int64)[t] for t in range(nm1) if t != piv]
    rows.append(s)
    return np.array(rows, dtype=np.int64)


def reference_double_coset_witness(k, m):
    """(k0, ell, k0p) with k = k0 . u_ell . k0p and k0, k0p in K_0(p^m), one
    MatK at a time, with separate branches for ell >= 1 and ell = 0: the
    witness the stacked double_coset_witness replaces."""
    ring, n = k.ring, k.n
    ell = int(min(m, ring.val_arr(k.a[n - 1, : n - 1]).min()))
    if ell == m:
        k0 = k @ reference_u_ell(ring, n, m).inverse()
        return k0, m, MatK.identity(ring, n)
    a = k.a[: n - 1, : n - 1]
    b = k.a[: n - 1, n - 1 :]
    c = k.a[n - 1 : n, : n - 1]
    d = int(k.a[n - 1, n - 1])
    if ell >= 1:
        ainv = mat_inv(ring, a)
        ca = ring.matmul(c, ainv)
        s = ring.shift_down(ca, ell).reshape(-1)
        alpha_inv = reference_complete_to_invertible(ring, s)
        alpha = mat_inv(ring, alpha_inv)
        k0 = np.eye(n, dtype=np.int64)
        k0[: n - 1, : n - 1] = alpha
        aa = ring.matmul(alpha_inv, a)
        bb = ring.matmul(alpha_inv, b)
        dd = ring.sub(d, int(ring.matmul(ca, b)[0, 0]))
        k0p = np.eye(n, dtype=np.int64)
        k0p[: n - 1, : n - 1] = aa
        k0p[: n - 1, n - 1 :] = bb
        k0p[n - 1, n - 1] = dd
        return MatK(ring, k0, check=False), ell, MatK(ring, k0p, check=False)
    beta = reference_chang_beta(ring, a, k.a[n - 1, : n - 1])
    abc = ring.sub_arr(a, ring.matmul(beta, c))
    abc_inv = mat_inv(ring, abc)
    s = ring.matmul(c, abc_inv).reshape(-1)
    alpha_inv = reference_complete_to_invertible(ring, s)
    alpha = mat_inv(ring, alpha_inv)
    k0 = np.eye(n, dtype=np.int64)
    k0[: n - 1, : n - 1] = alpha
    k0[: n - 1, n - 1 :] = beta
    bbd = ring.sub_arr(b, ring.mul_arr(beta, np.int64(d)))
    aa = ring.matmul(alpha_inv, abc)
    bb = ring.matmul(alpha_inv, bbd)
    dd = ring.sub(d, int(ring.matmul(ring.matmul(c, abc_inv), bbd)[0, 0]))
    k0p = np.eye(n, dtype=np.int64)
    k0p[: n - 1, : n - 1] = aa
    k0p[: n - 1, n - 1 :] = bb
    k0p[n - 1, n - 1] = dd
    return MatK(ring, k0, check=False), 0, MatK(ring, k0p, check=False)


def reference_double_cosets(ring, n):
    """The double cosets K_0(p^m) u_l K_0(p^m), l = 0..m, as sets of byte
    keys, from every pair (a, b) of K_0(p^m) elements: the pairwise brute
    force the orbit-closure oracle replaces."""
    m = ring.m
    K = group_stack(ring, n)
    k0 = K[(ring.val_arr(K[:, n - 1, : n - 1]) >= m).all(axis=1)]
    out = []
    for ell in range(m + 1):
        coset = set()
        for a in k0:
            au = ring.matmul(a, reference_u_ell(ring, n, ell).a)
            coset.update(x.tobytes() for x in ring.matmul(au, k0))
        out.append(coset)
    return out


def reference_two_sided_orbit(ring, start, gens):
    """Breadth-first orbit of the (n, n) matrix ``start`` under x -> x g and
    x -> g x for the (n, n) arrays ``gens``, as an (N, n, n) stack: the
    double-coset oracle the sphere-orbit partition replaces.  Each layer
    multiplies the frontier by every generator, right products first, and
    keeps the first occurrence of each key not seen before."""
    frontier = np.asarray(start, dtype=np.int64)[None]
    layers = [frontier]
    seen = row_keys(ring, frontier)
    while len(frontier):
        cand = np.concatenate(
            [ring.matmul(frontier, g) for g in gens] + [ring.matmul(g, frontier) for g in gens]
        )
        keys, first = np.unique(row_keys(ring, cand), return_index=True)
        slot = np.searchsorted(seen, keys)
        new = seen[np.minimum(slot, len(seen) - 1)] != keys
        frontier = cand[np.sort(first[new])]
        layers.append(frontier)
        seen = np.insert(seen, slot[new], keys[new])  # a sorted merge
    return np.concatenate(layers)


def assert_witnesses(ring, K):
    """The stacked witness of K remultiplies to K with both factors in
    K_0(p^m), and equals the reference witness element by element."""
    n, m = K.shape[-1], ring.m
    k0, ell, k0p = double_coset_witness(ring, K)
    us = u_ell(ring, n, range(m + 1))
    assert np.array_equal(ring.matmul(ring.matmul(k0, us[ell]), k0p), K)
    assert np.array_equal(ell, double_coset_index(ring, K))
    spec = SubgroupSpec("K0", m)
    for i, k in enumerate(K):
        r0, rl, r0p = reference_double_coset_witness(MatK(ring, k, check=False), m)
        assert rl == ell[i]
        assert np.array_equal(r0.a, k0[i]) and np.array_equal(r0p.a, k0p[i])
        assert subgroup_membership(spec, ring, np.stack([r0.a, r0p.a])).all()
    return ell


# small (branch, p, f, m, n) with |GL_n| <= 5000, so the references stay quick
GROUP_POINTS = [
    (branch, p, f, m, n)
    for branch, p, f in [
        ("padic", 2, 1), ("padic", 3, 1), ("padic", 5, 1),
        ("laurent", 2, 1), ("laurent", 2, 2), ("laurent", 3, 1),
    ]
    for m in (1, 2, 3)
    for n in (1, 2, 3)
    if group_order(make_ring_level(branch, p, f, m), n) <= 5000
]


@lru_cache(maxsize=None)
def ring_of(branch, p, f, m):
    return make_ring_level(branch, p, f, m)


@pytest.fixture(scope="module")
def R4():
    return make_ring_level("padic", 2, 1, 2)


@pytest.fixture(scope="module")
def gl2_z4(R4):
    return list(enumerate_group(R4, 2))


class TestMatK:
    def test_det_and_inverse(self, R4):
        rng = np.random.default_rng(0)
        for _ in range(30):
            k = MatK(R4, random_in_K(R4, 2, rng))
            assert R4.is_unit(k.det())
            assert k @ k.inverse() == MatK.identity(R4, 2)

    def test_det_3x3_matches_integer(self):
        R = make_ring_level("padic", 5, 1, 2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(0, 25, (3, 3)).astype(np.int64)
            assert det(R, a) == round(np.linalg.det(a)) % 25

    def test_non_invertible_rejected(self, R4):
        with pytest.raises(ValueError):
            MatK(R4, np.array([[2, 0], [0, 1]]))

    def test_pow(self, R4):
        rng = np.random.default_rng(2)
        k = MatK(R4, random_in_K(R4, 2, rng))
        assert k**3 == k @ k @ k
        assert k**0 == MatK.identity(R4, 2)
        assert k**-1 == k.inverse()


class TestMembership:
    def test_identity_in_everything(self, R4):
        one = np.eye(2, dtype=np.int64)
        for spec in [
            SubgroupSpec("K"),
            SubgroupSpec("Kprin", 1),
            SubgroupSpec("K1", 2),
            SubgroupSpec("K0", 1),
            SubgroupSpec("Kmirab"),
        ]:
            assert subgroup_membership(spec, R4, one[None])[0]

    def test_diag_unit_in_k0_not_k1(self):
        # take q = 3 so that a unit not congruent to 1 mod p exists
        R9 = make_ring_level("padic", 3, 1, 2)
        k = np.array([[1, 0], [0, 2]])
        assert subgroup_membership(SubgroupSpec("K0", 1), R9, k[None])[0]
        assert not subgroup_membership(SubgroupSpec("K1", 1), R9, k[None])[0]

    @given(point=st.sampled_from(GROUP_POINTS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_stacked_mask_matches_the_one_matrix_predicate(self, point, seed):
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        rng = np.random.default_rng(seed)
        specs = [SubgroupSpec("K"), SubgroupSpec("Kmirab")] + [
            SubgroupSpec(kind, depth) for kind in ("Kprin", "K1", "K0") for depth in range(m + 2)
        ]
        # members of every subgroup, random group elements and random matrices, singular ones included
        gens = np.concatenate([subgroup_generators(spec, R, n) for spec in specs])
        K = np.concatenate(
            [gens, random_stack(R, n, 20, rng), rng.integers(0, R.size, (20, n, n))]
        )
        for spec in specs:
            want = [reference_membership(MatK(R, k, check=False), spec) for k in K]
            assert subgroup_membership(spec, R, K).tolist() == want

    @pytest.mark.parametrize("kind", ["K", "Kmirab", "Kprin", "K1", "K0"])
    @pytest.mark.parametrize("bad", [[[1, 0], [-2, 1]], [[1, 0], [6, 1]], [[-1, 0], [0, 1]]])
    def test_codes_outside_the_ring_rejected(self, R4, kind, bad):
        # -2 would wrap to 2 in the valuation gather and put [[1, 0], [-2, 1]]
        # in K_0(p); a code of 6 would raise IndexError there
        spec = SubgroupSpec(kind) if kind in ("K", "Kmirab") else SubgroupSpec(kind, 1)
        with pytest.raises(ValueError, match="outside the ring"):
            subgroup_membership(spec, R4, np.array([np.eye(2, dtype=np.int64), bad]))

    def test_inclusion_chain(self, R4):
        K = random_stack(R4, 2, 1000, np.random.default_rng(3))
        for ell in (1, 2):
            prin, k1, k0 = (
                subgroup_membership(SubgroupSpec(kind, ell), R4, K) for kind in ("Kprin", "K1", "K0")
            )
            assert k1[prin].all()
            assert k0[k1].all()


class TestGenerators:
    def test_gl2_f2_closure(self):
        R = make_ring_level("padic", 2, 1, 1)
        gens = subgroup_generators(SubgroupSpec("K"), R, 2)
        assert len(closure(R, gens)) == 6

    def test_k1_index_in_gl2_z4(self, R4):
        gens = subgroup_generators(SubgroupSpec("K1", 1), R4, 2)
        assert len(closure(R4, gens)) == 96 // 3 == 32

    def test_kmirab_gl2_f2(self):
        R = make_ring_level("padic", 2, 1, 1)
        gens = subgroup_generators(SubgroupSpec("Kmirab"), R, 2)
        assert len(closure(R, gens)) == 2

    def test_group_order_formula(self):
        for branch, p, f, m, n, expected in [
            ("padic", 2, 1, 2, 2, 96),
            ("padic", 2, 1, 1, 3, 168),
            ("padic", 3, 1, 1, 2, 48),
            ("laurent", 2, 2, 1, 2, 180),
        ]:
            R = make_ring_level(branch, p, f, m)
            assert group_order(R, n) == expected
            assert sum(1 for _ in enumerate_group(R, n)) == expected

    @pytest.mark.parametrize(
        "kind,level",
        [("K", None), ("Kprin", 1), ("K1", 1), ("K1", 2), ("K0", 1), ("K0", 2), ("Kmirab", None)],
    )
    def test_closure_matches_order_formula(self, R4, kind, level):
        spec = SubgroupSpec(kind, level)
        got = len(closure(R4, subgroup_generators(spec, R4, 2)))
        assert got == subgroup_order(spec, R4, 2)

    @pytest.mark.parametrize(
        "point", [("padic", 2, 1, 2, 2), ("laurent", 2, 2, 1, 2), ("padic", 2, 1, 1, 3)],
        ids=lambda pt: "-".join(map(str, pt)),
    )
    def test_canonical_spec_names_the_same_subgroup(self, point):
        # certificates are cached per canonical spec: its generators must
        # generate the subgroup the original spec's membership predicate cuts out
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        elems = group_stack(R, n)
        for kind in SubgroupSpec.KINDS:
            for level in range(m + 3) if kind in ("Kprin", "K1", "K0") else [None]:
                spec = SubgroupSpec(kind, level)
                canon = canonical_spec(spec, R)
                assert canonical_spec(canon, R) == canon
                gens = subgroup_generators(canon, R, n)
                assert subgroup_membership(spec, R, gens).all()
                members = subgroup_membership(spec, R, elems).sum()
                assert len(closure(R, gens)) == members == subgroup_order(spec, R, n)
        assert canonical_spec(SubgroupSpec("K1", 0), R) == SubgroupSpec("K")
        assert canonical_spec(SubgroupSpec("K0", m + 1), R) == SubgroupSpec("K0", m)
        assert canonical_spec(SubgroupSpec("Kmirab"), R) == SubgroupSpec("Kmirab")

    @given(point=st.sampled_from(GROUP_POINTS))
    @settings(max_examples=20, deadline=None)
    def test_stacks_are_cached_read_only_and_equal_a_fresh_build(self, point):
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        for kind in SubgroupSpec.KINDS:
            for level in range(m + 2) if kind in ("Kprin", "K1", "K0") else [None]:
                spec = SubgroupSpec(kind, level)
                gens = subgroup_generators(spec, R, n)
                assert subgroup_generators(spec, R, n) is gens
                assert subgroup_generators(canonical_spec(spec, R), ring_of(branch, p, f, m), n) is gens
                assert not gens.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    gens[0, 0, 0] = 1
                fresh = matgroup._generators.__wrapped__(canonical_spec(spec, R), R, n)
                assert fresh.shape == gens.shape and fresh.tobytes() == gens.tobytes()

    def test_generators_satisfy_membership(self, R4):
        for spec in [SubgroupSpec("K1", 2), SubgroupSpec("K0", 1), SubgroupSpec("Kprin", 2)]:
            gens = subgroup_generators(spec, R4, 2)
            assert subgroup_membership(spec, R4, gens).all()

    @given(point=st.sampled_from(GROUP_POINTS))
    @settings(max_examples=30, deadline=None)
    def test_stacks_match_the_list_builders(self, point):
        # chain certificates index generators with a fixed seed: same entries, same order
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        specs = [SubgroupSpec("K"), SubgroupSpec("Kmirab")] + [
            SubgroupSpec(kind, depth) for kind in ("Kprin", "K1", "K0") for depth in range(m + 2)
        ]
        for spec in specs:
            got = subgroup_generators(spec, R, n)
            want = np.array([g.a for g in reference_subgroup_generators(spec, R, n)], dtype=np.int64)
            assert got.dtype == np.int64 and got.shape == (len(want), n, n)
            assert np.array_equal(got, want.reshape(-1, n, n))
        if n >= 2:
            want = np.array([reference_u_ell(R, n, ell).a for ell in range(m + 1)])
            got = u_ell(R, n, range(m + 1))
            assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_verified_generators_large_group(self):
        R = make_ring_level("padic", 3, 1, 3)
        rep = verify_generators(SubgroupSpec("K"), R, 2)
        assert rep == {
            "method": "chain", "size": subgroup_order(SubgroupSpec("K"), R, 2), "ok": True,
            "orbit": sphere_size(3, 2, 3),
        }

    def test_factorisation_remultiplies(self):
        rng = np.random.default_rng(5)
        for ring in (make_ring_level("padic", 3, 1, 3), make_ring_level("laurent", 2, 2, 2)):
            for spec in [
                SubgroupSpec("K"),
                SubgroupSpec("K1", 1),
                SubgroupSpec("K0", 2),
                SubgroupSpec("Kprin", 1),
                SubgroupSpec("Kmirab"),
            ]:
                k = reference_subgroup_element(spec, ring, 2, rng)
                prod_mat = MatK.identity(ring, 2)
                for base, e in reference_factorisation(k, spec):
                    prod_mat = prod_mat @ base**e
                assert prod_mat == k

    def test_factorisation_n3(self):
        R = make_ring_level("padic", 2, 1, 2)
        rng = np.random.default_rng(6)
        for _ in range(10):
            k = MatK(R, random_in_K(R, 3, rng))
            prod_mat = MatK.identity(R, 3)
            for base, e in reference_factorisation(k, SubgroupSpec("K")):
                prod_mat = prod_mat @ base**e
            assert prod_mat == k

    def test_budget_exceeded(self, R4):
        gens = subgroup_generators(SubgroupSpec("K"), R4, 2)
        with pytest.raises(BudgetExceededError):
            closure(R4, gens, budget=10)

    @given(point=st.sampled_from([pt for pt in GROUP_POINTS if pt[4] >= 2]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_closure_matches_reference_bfs(self, point, data):
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        spec = data.draw(
            st.sampled_from(
                [SubgroupSpec("K"), SubgroupSpec("Kmirab")]
                + [SubgroupSpec("K1", ell) for ell in range(m + 1)]
            )
        )
        gens = subgroup_generators(spec, R, n)
        got = closure(R, gens)
        assert len(got) == subgroup_order(spec, R, n)
        assert np.array_equal(got, reference_closure(R, gens))
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)).filter(any)
        )
        subset = gens[np.array(mask)]
        assert np.array_equal(closure(R, subset), reference_closure(R, subset))

    def test_closure_beyond_int64_codes(self):
        # 256**9 = 2**72: matrices are keyed by their raw bytes
        R = make_ring_level("padic", 2, 1, 8)
        spec = SubgroupSpec("Kprin", 7)
        gens = subgroup_generators(spec, R, 3)
        got = closure(R, gens)
        assert row_keys(R, got).dtype.kind == "V"
        assert len(got) == subgroup_order(spec, R, 3) == 512
        assert np.array_equal(got, reference_closure(R, gens))

    def test_subgroup_identities(self, R4, gl2_z4):
        # K_{n-1,1} * K(p^m) = K_1(p^m) and Z * K_1 = K_0, checked exhaustively
        mirab = set(
            k.tobytes() for k in closure(R4, subgroup_generators(SubgroupSpec("Kmirab"), R4, 2))
        )
        K = group_stack(R4, 2)
        for ell in (1, 2):
            prin = closure(R4, subgroup_generators(SubgroupSpec("Kprin", ell), R4, 2))
            k1 = {k.tobytes() for k in K[subgroup_membership(SubgroupSpec("K1", ell), R4, K)]}
            prod = set()
            mirab_mats = [
                k for k in gl2_z4 if k.tobytes() in mirab
            ]
            for a in mirab_mats:
                for b in prin:
                    prod.add(R4.matmul(a, b).tobytes())
            assert prod == k1
            k0 = {k.tobytes() for k in K[subgroup_membership(SubgroupSpec("K0", ell), R4, K)]}
            zk1 = set()
            for u in R4.units():
                z = np.diag([int(u), int(u)]).astype(np.int64)
                for k in gl2_z4:
                    if k.tobytes() in k1:
                        zk1.add(R4.matmul(z, k).tobytes())
            assert zk1 == k0


class TestStabiliserChain:
    @given(point=st.sampled_from([pt for pt in GROUP_POINTS if pt[4] >= 2]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_certificate_holds_exactly_when_the_closure_reaches_the_order(self, point, data):
        # a random subset of a spec's list stands in for every proposed list,
        # the Kmirab list included: a pass certifies the closure order, so a
        # closure below the formula raises, and a refusal names an orbit
        # product no larger than the closure order
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        kind = data.draw(st.sampled_from(SubgroupSpec.KINDS))
        depth = data.draw(st.integers(0, m + 1)) if kind in ("Kprin", "K1", "K0") else None
        spec = SubgroupSpec(kind, depth)
        gens = subgroup_generators(spec, R, n)
        assert verify_generators(spec, R, n)["ok"]  # every full list is strong
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)).filter(any)
        )
        subset = gens[np.array(mask)]
        elems = closure(R, subset)
        size = len(elems)
        # the chain's top orbit is the orbit of e_n: the closure's bottom rows
        orbit = len(np.unique(row_keys(R, elems[:, n - 1])))
        with mock.patch.object(matgroup, "subgroup_generators", lambda *args: subset):
            if size < subgroup_order(spec, R, n):
                with pytest.raises(RuntimeError, match="orbit product of") as err:
                    verify_generators(spec, R, n)
                assert named_product(err.value) <= size
            else:
                try:
                    rep = verify_generators(spec, R, n)
                except RuntimeError as exc:
                    # the subset generates the group without being strong
                    assert str(exc).endswith(f"expected {size}") and named_product(exc) < size
                else:
                    assert rep == {"method": "chain", "size": size, "ok": True, "orbit": orbit}

    @given(
        branch=st.sampled_from(["padic", "laurent"]), p=st.sampled_from([2, 3, 5]),
        f=st.integers(1, 2), m=st.integers(1, 3), n=st.integers(2, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_orbit_products_equal_the_order_and_the_reference_chain(self, branch, p, f, m, n):
        # with the unit diagonal at row 0, every list is strong: its orbit
        # product is the order formula and the order of a complete
        # Schreier-Sims chain, which sifts to reach it
        assume(branch == "laurent" or f == 1)
        assume((p**f) ** (m * n) <= 4096)
        R = ring_of(branch, p, f, m)
        for kind in SubgroupSpec.KINDS:
            for depth in range(1, m + 1) if kind in ("Kprin", "K1", "K0") else [None]:
                spec = SubgroupSpec(kind, depth)
                order = subgroup_order(spec, R, n)
                assert verify_generators(spec, R, n)["size"] == order
                assert reference_order(R, n, subgroup_generators(spec, R, n)) == order

    @pytest.mark.parametrize("point", [("padic", 3, 1, 2, 2), ("padic", 2, 1, 2, 3)])
    def test_strong_generators_nest(self, point):
        # Schreier's lemma needs each level's generators among those of every level above
        R = ring_of(*point[:4])
        n = point[4]
        gens = subgroup_generators(SubgroupSpec("K"), R, n)
        chain = StabiliserChain(R, n, gens)
        while chain.sweep():
            pass
        assert chain.order() == group_order(R, n)
        keys = [{g.tobytes() for g in lev.gens} for lev in chain.levels]
        assert all(lower <= upper for upper, lower in zip(keys, keys[1:]))
        assert any(len(k) > 0 for k in keys[1:])

    @pytest.mark.parametrize(
        "point",
        [("padic", 7, 1, 2, 2), ("laurent", 2, 3, 1, 3), ("padic", 3, 1, 3, 2)],
        ids=lambda pt: "-".join(map(str, pt)),
    )
    def test_exact_certificate_beyond_any_closure(self, point):
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        rep = verify_generators(SubgroupSpec("K"), R, n)
        assert rep == {
            "method": "chain", "size": group_order(R, n), "ok": True,
            "orbit": sphere_size(R.q, n, m),
        }

    def test_certificates_that_never_sift_invert_nothing(self, monkeypatch):
        # no certificate sifts, so none forms an inverse: K's included
        R = ring_of("padic", 3, 1, 2)
        calls = []
        inverse = matgroup.mat_inv
        monkeypatch.setattr(
            matgroup, "mat_inv", lambda ring, a: calls.append(len(a)) or inverse(ring, a)
        )
        for kind, depth in [("K1", 1), ("K1", 2), ("K0", 1), ("K0", 2), ("Kprin", 1), ("Kmirab", None)]:
            assert verify_generators(SubgroupSpec(kind, depth), R, 2)["ok"]
        rep = verify_generators(SubgroupSpec("K"), R, 2)
        assert rep["ok"] and rep["orbit"] == sphere_size(3, 2, 2)
        assert calls == []

    def test_byte_cap_counts_the_tables(self, monkeypatch):
        R, n = ring_of("padic", 3, 1, 2), 2
        spec = SubgroupSpec("K")
        q, m = R.q, R.m
        # K takes the shared Kmirab path: the larger of its top orbit (every
        # unimodular row) and the Kmirab chain's largest level (at most the
        # rows that level can reach, and at most |Kmirab|), each closure one
        # table, two layers of 8 n bytes a row and three product blocks
        sphere = q ** ((m - 1) * n) * (q**n - 1)
        mirab = subgroup_order(SubgroupSpec("Kmirab"), R, n)
        reach = max(min(q ** ((m - 1) * (n - t) + m * t) * (q ** (n - t) - 1), mirab) for t in range(n))
        bound = 4 * R.size**n + 2 * 8 * n * max(sphere, reach) + 3 * matgroup.SAMPLE_BATCH_BYTES
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", bound - 1)
        with mock.patch.object(matgroup, "_orbit_size", side_effect=AssertionError("allocated")):
            with pytest.raises(BudgetExceededError, match=f"needs up to {bound} bytes"):
                verify_generators(spec, R, n)
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", bound)
        assert verify_generators(spec, R, n)["ok"]

    def test_order_above_the_formula_raises(self):
        R = ring_of("padic", 3, 1, 2)
        with mock.patch.object(matgroup, "subgroup_order", lambda *args: 24):
            with pytest.raises(RuntimeError, match=r"orbit product of \d+, above 24"):
                verify_generators(SubgroupSpec("K"), R, 2)

    def test_generator_outside_the_subgroup_raises(self):
        R = ring_of("padic", 3, 1, 2)
        gens = subgroup_generators(SubgroupSpec("K"), R, 2)
        with mock.patch.object(matgroup, "subgroup_generators", lambda *args: gens):
            with pytest.raises(RuntimeError, match="outside K1"):
                verify_generators(SubgroupSpec("K1", 1), R, 2)


class TestLevel:
    @given(point=st.sampled_from(GROUP_POINTS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_schreier_vector_matches_the_eager_level(self, point, data):
        # the reference chain's lazy Schreier-vector level against the eager one
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        kind = data.draw(st.sampled_from(SubgroupSpec.KINDS))
        depth = data.draw(st.integers(0, m + 1)) if kind in ("Kprin", "K1", "K0") else None
        gens = list(subgroup_generators(SubgroupSpec(kind, depth), R, n))
        subset = data.draw(st.lists(st.sampled_from(gens), max_size=len(gens) + 2)) if gens else []
        cuts = sorted(data.draw(st.lists(st.integers(0, len(subset)), min_size=1, max_size=3)))
        chunks = [subset[a:b] for a, b in zip([0, *cuts], [*cuts, len(subset)])]
        row = data.draw(st.integers(0, n - 1))
        ref = reference_level(R, n, row, chunks[0])
        lev = Level(R, n, row, chunks[0])
        for chunk in chunks[1:]:
            if data.draw(st.booleans()):
                assert np.array_equal(lev.u, ref.u)  # a read between extends
            ref.extend(chunk)
            lev.extend(chunk)
        assert np.array_equal(lev.pts, ref.u[:, row])
        assert np.array_equal(lev.u, ref.u) and np.array_equal(lev.uinv, ref.uinv)
        # the certificate's closure counts the same orbit
        stack = np.array(subset, dtype=np.int64).reshape(-1, n, n)
        assert matgroup._orbit_size(R, n, row, stack) == len(lev.pts)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = np.concatenate([random_stack(R, n, 20, rng), ref.u[rng.permutation(len(ref.u))]])
        slot, hit = lev.locate(x)
        want_slot, want_hit = ref.locate(x)
        assert np.array_equal(hit, want_hit)
        assert np.array_equal(slot[hit], want_slot[hit]) and (slot[~hit] == -1).all()


SAMPLER_RINGS = [
    (branch, p, f, m)
    for branch, p, f in [
        ("padic", 2, 1), ("padic", 3, 1), ("padic", 5, 1), ("padic", 7, 1),
        ("laurent", 2, 1), ("laurent", 2, 2), ("laurent", 3, 1), ("laurent", 2, 3),
    ]
    for m in (1, 2, 3)
]


class TestRandomStack:
    @given(point=st.sampled_from(SAMPLER_RINGS), n=st.integers(1, 4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_replays_the_one_at_a_time_stream(self, point, n, data):
        # ell >= m makes the bottom-left high 1, which draws nothing
        R = ring_of(*point)
        ell = data.draw(st.sampled_from([None, *range(R.m + 2)]))
        count = data.draw(st.integers(0, 300))
        seed = data.draw(st.integers(0, 2**32 - 1))
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if ell is None:
            want = [reference_random_in_K(R, n, ref) for _ in range(count)]
        else:
            want = [reference_random_in_K0(R, n, ell, ref) for _ in range(count)]
        got = random_stack(R, n, count, rng, ell=ell)
        assert got.shape == (count, n, n) and got.dtype == np.int64
        assert np.array_equal(got, np.array([k.a for k in want]).reshape(count, n, n))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

    @given(point=st.sampled_from(SAMPLER_RINGS), n=st.integers(1, 4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_draw_of_a_plus_b_is_a_draw_of_a_then_b(self, point, n, data):
        # the zonal suite draws all of a sphere's stacks in one call
        R = ring_of(*point)
        ell = data.draw(st.sampled_from([None, *range(R.m + 1)]))
        a, b = data.draw(st.integers(0, 60)), data.draw(st.integers(0, 60))
        seed = data.draw(st.integers(0, 2**32 - 1))
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_stack(R, n, a + b, one, ell=ell)
        want = np.concatenate([random_stack(R, n, a, two, ell=ell), random_stack(R, n, b, two, ell=ell)])
        assert got.shape == want.shape == (a + b, n, n) and np.array_equal(got, want)
        assert one.bit_generator.state == two.bit_generator.state

    @given(size=st.integers(1, 4096), shape=st.tuples(st.integers(0, 50), st.integers(1, 16)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_a_scalar_bound_draws_as_an_array_of_it(self, size, shape, seed):
        # K's draws take the scalar bound: the same stream and final state
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        got = one.integers(0, size, size=shape)
        want = two.integers(0, np.full(shape[1], size, dtype=np.int64), size=shape)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert one.bit_generator.state == two.bit_generator.state

    def test_batches_smaller_than_the_count(self, monkeypatch):
        # a one-candidate byte cap forces a round per candidate
        import ultrasph.matgroup

        monkeypatch.setattr(ultrasph.matgroup, "SAMPLE_BATCH_BYTES", 1)
        R = ring_of("padic", 3, 1, 2)
        ref, rng = np.random.default_rng(3), np.random.default_rng(3)
        want = [reference_random_in_K0(R, 3, 1, ref) for _ in range(25)]
        assert np.array_equal(random_stack(R, 3, 25, rng, ell=1), np.array([k.a for k in want]))
        assert rng.bit_generator.state == ref.bit_generator.state


DOUBLE_COSET_SPHERE_POINTS = [
    (branch, p, f, m, n)
    for branch, p, f in [
        ("padic", 2, 1), ("padic", 3, 1), ("padic", 5, 1), ("padic", 7, 1),
        ("laurent", 2, 1), ("laurent", 2, 2), ("laurent", 3, 1),
    ]
    for m in (1, 2, 3, 4)
    for n in (2, 3)
    if group_order(make_ring_level(branch, p, f, m), n) <= 20000
]


class TestDoubleCosets:
    def test_index_examples(self, R4):
        anti = np.array([[0, 1], [1, 0]])
        K = np.array([np.eye(2, dtype=np.int64), anti, u_ell(R4, 2, [1])[0]])
        assert double_coset_index(R4, K).tolist() == [2, 0, 1]

    def test_witness_in_k0(self, R4):
        K = np.array([[[1, 2], [0, 3]]])
        k0, ell, k0p = double_coset_witness(R4, K)
        assert ell.tolist() == [2] and np.array_equal(k0p[0], np.eye(2))
        assert np.array_equal(R4.matmul(R4.matmul(k0, u_ell(R4, 2, [2])), k0p), K)

    def test_witness_u_ell_itself(self, R4):
        K = u_ell(R4, 2, (0, 1, 2))
        assert assert_witnesses(R4, K).tolist() == [0, 1, 2]

    def test_exhaustive_witnesses_gl2_z4(self, R4):
        ell = assert_witnesses(R4, group_stack(R4, 2))
        assert len(set(ell.tolist())) == 3  # m + 1 nonempty classes

    def test_exhaustive_witnesses_gl3_f2(self):
        R = make_ring_level("padic", 2, 1, 1)
        ell = assert_witnesses(R, group_stack(R, 3))
        assert len(set(ell.tolist())) == 2

    def test_sampled_witnesses_other_rings(self):
        rng = np.random.default_rng(7)
        for ring, n in [
            (make_ring_level("padic", 3, 1, 2), 2),
            (make_ring_level("laurent", 2, 2, 2), 2),
            (make_ring_level("padic", 2, 1, 3), 2),
        ]:
            assert_witnesses(ring, random_stack(ring, n, 60, rng))

    @given(point=st.sampled_from(SAMPLER_RINGS), n=st.integers(2, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_stacked_witness_matches_reference(self, point, n, data):
        R = ring_of(*point)
        count = data.draw(st.integers(0, 40))
        seed = data.draw(st.integers(0, 2**32 - 1))
        assert_witnesses(R, random_stack(R, n, count, np.random.default_rng(seed)))

    def test_partition_matches_brute_force(self, R4, gl2_z4):
        spec = SubgroupSpec("K0", 2)
        K = group_stack(R4, 2)
        k0_elems = [k for k, keep in zip(gl2_z4, subgroup_membership(spec, R4, K)) if keep]
        index = double_coset_index(R4, K)
        for ell, u in enumerate(u_ell(R4, 2, range(3))):
            brute = {R4.matmul(R4.matmul(a, u), b).tobytes() for a in k0_elems for b in k0_elems}
            assert brute == {k.tobytes() for k in K[index == ell]}

    @given(point=st.sampled_from([pt for pt in GROUP_POINTS if pt[4] >= 2]))
    @settings(max_examples=20, deadline=None)
    def test_orbit_partition_matches_brute_force(self, point):
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        gens = subgroup_generators(SubgroupSpec("K0", m), R, n)
        orbits = [
            {x.tobytes() for x in reference_two_sided_orbit(R, u, gens)}
            for u in u_ell(R, n, range(m + 1))
        ]
        assert orbits == reference_double_cosets(R, n)
        assert sum(map(len, orbits)) == group_order(R, n)

    @pytest.mark.parametrize("drop", [1, 3])
    def test_suite_fails_closed_without_a_k0_generator(self, R4, monkeypatch, drop):
        # the K_0(p^2) list is [diag(3, 1), [[1, 1], [0, 1]], I, 3 I]: without
        # the unipotent or the scalar 3, e_2 is fixed and its fibre {e_2, 3 e_2}
        # splits, so exactly one orbit differs from its fibre (without
        # diag(3, 1) every orbit is still its fibre)
        gens = subgroup_generators
        k0 = SubgroupSpec("K0", 2)
        monkeypatch.setattr(
            verify, "subgroup_generators",
            lambda spec, *a: np.delete(gens(spec, *a), drop, axis=0) if spec == k0 else gens(spec, *a),
        )
        rec = verify.double_coset_suite(R4, 2)
        got = {r.check_id.split("/")[-1]: r for r in rec.records}
        assert got["brute-force-partition"].status == "FAIL"
        assert got["brute-force-partition"].observed == "1"
        assert got["witness-remultiplication"].status == "PASS"

    def test_suite_fails_closed_when_k_is_not_transitive_on_the_sphere(self, R4, monkeypatch):
        # without its lower unipotent, K's list has 4 orbits on S: the K_0
        # orbits still match their fibres, and only K's transitivity fails
        gens = subgroup_generators
        monkeypatch.setattr(
            verify, "subgroup_generators",
            lambda spec, *a: np.delete(gens(spec, *a), 1, axis=0) if spec.kind == "K" else gens(spec, *a),
        )
        rec = verify.double_coset_suite(R4, 2)
        got = {r.check_id.split("/")[-1]: r for r in rec.records}
        assert got["brute-force-partition"].status == "FAIL"
        assert got["brute-force-partition"].observed == "1"
        assert got["witness-remultiplication"].status == "PASS"

    @given(point=st.sampled_from(DOUBLE_COSET_SPHERE_POINTS))
    @settings(max_examples=30, deadline=None)
    def test_sphere_orbits_are_the_double_cosets(self, point):
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        gens = subgroup_generators(SubgroupSpec("K0", m), R, n)
        S = SphereIndex(R, n)
        orbit = orbit_labels([S.perm_of_matrix(g) for g in gens], (S.size,))
        K = group_stack(R, n)
        us = u_ell(R, n, range(m + 1))
        # e_n k lies in the orbit of e_n u_l for l = double_coset_index(k)
        label = orbit[S.idx(K[:, n - 1])]
        assert np.array_equal(label, orbit[S.idx(us[:, n - 1])][double_coset_index(R, K)])
        # and the sphere labels partition K as the two-sided closures do
        keys = {k.tobytes(): i for i, k in enumerate(K)}
        for u in us:
            members = [keys[x.tobytes()] for x in reference_two_sided_orbit(R, u, gens)]
            assert sorted(members) == np.flatnonzero(label == label[members[0]]).tolist()

    def test_suite_fails_closed_on_a_corrupt_witness(self, R4, monkeypatch):
        def corrupt(ring, K):
            k0, ell, k0p = double_coset_witness(ring, K)
            k0p[5, 0, 1] = ring.add(int(k0p[5, 0, 1]), 1)
            return k0, ell, k0p

        monkeypatch.setattr(verify, "double_coset_witness", corrupt)
        rec = verify.double_coset_suite(R4, 2)
        got = {r.check_id.split("/")[-1]: r for r in rec.records}
        assert got["witness-remultiplication"].status == "FAIL"
        assert got["witness-remultiplication"].observed == "1"
        assert got["brute-force-partition"].status == "PASS"


class TestChangBeta:
    def test_unit_a_gives_zero(self):
        R = make_ring_level("padic", 2, 1, 2)
        a = np.array([[[1]]], dtype=np.int64)
        c = np.array([[1]], dtype=np.int64)
        beta = chang_beta(R, a, c)
        assert beta.shape == (1, 1, 1) and beta[0, 0, 0] == 0

    def test_n2_zero_a(self):
        R = make_ring_level("padic", 2, 1, 2)
        a, c = np.zeros((1, 1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64)
        beta = chang_beta(R, a, c)
        test = R.sub_arr(a, R.matmul(beta, c[:, None]))
        assert R.is_unit(det(R, test[0]))

    def test_exhaustive_extendable_blocks_n3_q2(self):
        # every (a, c) block of an invertible matrix admits a beta; the
        # extendability condition is that the stacked columns are
        # independent over the residue field
        R = make_ring_level("padic", 2, 1, 1)
        blocks = []
        for aa in product(range(2), repeat=4):
            a = np.array(aa, dtype=np.int64).reshape(2, 2)
            for cc in product(range(2), repeat=2):
                if not any(cc):
                    continue
                c = np.array(cc, dtype=np.int64)
                stacked = np.vstack([a, c.reshape(1, 2)]) % 2
                if np.linalg.matrix_rank(stacked.astype(float)) < 2:
                    continue
                blocks.append((a, c))
        a = np.array([a for a, _ in blocks])
        c = np.array([c for _, c in blocks])
        beta = chang_beta(R, a, c)
        test = R.sub_arr(a, R.matmul(beta, c[:, None]))
        assert (R.val_arr(det(R, test)) == 0).all()
        for (ai, ci), b in zip(blocks, beta):
            assert np.array_equal(b, reference_chang_beta(R, ai, ci))

    def test_rejects_non_sphere_c(self):
        R = make_ring_level("padic", 2, 1, 2)
        with pytest.raises(ValueError):
            chang_beta(R, np.eye(1, dtype=np.int64)[None], np.array([[2]], dtype=np.int64))


class TestEnumeration:
    @pytest.mark.parametrize("point", GROUP_POINTS)
    def test_stack_matches_reference_order(self, point):
        branch, p, f, m, n = point
        R = ring_of(branch, p, f, m)
        got = group_stack(R, n)
        assert len(got) == group_order(R, n)
        assert np.array_equal(got, reference_enumeration(R, n))
        assert np.array_equal(got, list(enumerate_group(R, n)))

    def test_stream_deterministic(self, R4):
        first = [k.tobytes() for k in enumerate_group(R4, 2)]
        second = [k.tobytes() for k in enumerate_group(R4, 2)]
        assert first == second

    def test_stream_all_invertible_unique(self, R4, gl2_z4):
        keys = {k.tobytes() for k in gl2_z4}
        assert len(keys) == 96
        for k in gl2_z4:
            assert R4.is_unit(det(R4, k))

    def test_laurent_stream(self):
        R = make_ring_level("laurent", 2, 1, 2)
        got = sum(1 for _ in enumerate_group(R, 2))
        assert got == group_order(R, 2)
