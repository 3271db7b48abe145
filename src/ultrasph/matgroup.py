"""GL_n(O/p^M), its congruence subgroups, and double coset witnesses.

All matrices live at a fixed working level M and are int64 code arrays:
an (n, n) array is one group element, an (N, n, n) stack is N of them,
and nothing wraps either.  Subgroup specifications with depth l <= M are
membership masks on level-M stacks.  Generating sets are proposed as one
(G, n, n) stack of elementary matrices and diagonal units, then certified
exactly: every generator satisfies the membership mask, and the orbit
lengths of the stabiliser chain with base e_{n-1}, ..., e_0 multiply to
the order formula.  With the unit diagonal at row 0, every proposed list
is a strong generating set for that base, so nothing is sifted (Sims 1970;
Seress, Permutation Group Algorithms, 2003, sec. 4.1-4.2).  The mirabolic
subgroup Kmirab is the stabiliser of the row e_{n-1} in K, and the K,
K_1(p^l) and K_0(p^l) lists contain the Kmirab list: each is certified by
one orbit of e_{n-1} times the Kmirab product, built once per (ring, n).
Every orbit closure predicts its bytes before it allocates them.

Uniform samples of K and K_0(p^l) are drawn as whole stacks by rejection,
one random draw and one stacked determinant per batch.  Each batch rewinds
the generator to just past the last candidate it keeps, so a stack consumes
exactly the stream of the one-at-a-time loop it replaces: a seed gives the
same samples, and the same later draws, whatever the batch size.

Double cosets K = union over l of K_0(p^m) u_l K_0(p^m) work on whole
(N, n, n) stacks: ``double_coset_index`` reads l off the bottom-left block,
and ``double_coset_witness`` gives every l < m one formula, with the
``chang_beta`` residue search run only where l = 0.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations, product

import numpy as np

from .ring import unit_group_basis, unit_subgroup_basis


SAMPLE_BATCH_BYTES = 1 << 21  # Leibniz terms of one batch (sampler, det, mat_inv), or an orbit block's products
CHAIN_BYTES_MAX = 1 << 27  # cap on the predicted bytes of one orbit closure of a certificate


class BudgetExceededError(RuntimeError):
    pass


def det(ring, a):
    """Determinant of an (n, n) matrix (an int) or of each matrix in a
    (..., n, n) stack.

    Leibniz expansion over a cached permutation table, vectorised over the
    stack and exact over any commutative ring, singular matrices included.
    Each term's product is reduced after every factor, and its n! signed
    terms are summed as ``sum_arr`` does: once mod q^m on the padic branch,
    through the add table on the laurent one.  The stack is taken in chunks
    whose terms stay under SAMPLE_BATCH_BYTES.  At n = 0 the one term is
    the empty product, 1.
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    flat = a.reshape(math.prod(a.shape[:-2]), n, n)
    perms, odd = _perm_table(n)
    out = np.empty(len(flat), dtype=np.int64)
    step = max(1, SAMPLE_BATCH_BYTES // _leibniz_bytes(n))
    for lo in range(0, len(flat), step):
        terms = flat[lo : lo + step, np.arange(n), perms]  # (chunk, n!, n): entries a[i, perm[i]]
        prod = terms[..., 0] if n else np.ones(terms.shape[:-1], dtype=np.int64)
        for i in range(1, n):
            prod = ring.mul_arr(prod, terms[..., i])
        prod[:, odd] = ring.neg_arr(prod[:, odd])
        out[lo : lo + step] = ring.sum_arr(prod)
    return int(out[0]) if a.ndim == 2 else out.reshape(a.shape[:-2])


def _leibniz_bytes(n):
    """Bytes of one (n, n) matrix's Leibniz terms: n! products of n entries."""
    return 8 * max(n, 1) * math.factorial(n)


@cache
def _perm_table(n):
    """All permutations of range(n) as an (n!, n) array, and their odd mask."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    inversions = (perms[:, :, None] > perms[:, None, :]) & np.triu(np.ones((n, n), dtype=bool), 1)
    return perms, inversions.sum(axis=(1, 2)) % 2 == 1


@cache
def _minor_table(n):
    """(rows, cols, odd): index arrays of shape (n, n, n-1, n-1) that gather
    from an (n, n) matrix its minor without row i and column j at (i, j),
    and the (n, n) mask of the cofactor signs (-1)^(i+j) = -1."""
    keep = np.array([[r for r in range(n) if r != i] for i in range(n)], dtype=np.int64)
    rows = np.broadcast_to(keep[:, None, :, None], (n, n, n - 1, n - 1))
    cols = np.broadcast_to(keep[None, :, None, :], (n, n, n - 1, n - 1))
    return rows, cols, np.add.outer(np.arange(n), np.arange(n)) % 2 == 1


def mat_inv(ring, a):
    """Inverse of an (n, n) matrix or of each matrix in an (N, n, n) stack.

    Cramer's rule, A^-1 = det(A)^-1 adj(A), which holds over any commutative
    ring (Lang, Algebra, ch. XIII, sec. 4): adj(A)[j, i] is the cofactor
    (-1)^(i+j) det(A without row i and column j), and A adj(A) = det(A) 1.
    All n^2 minors of a chunk are gathered through one cached index table
    and go through ``det``, the one Leibniz routine; det(A) is then row 0 of
    A times column 0 of adj(A).  So A is invertible exactly when det(A) is
    a unit of O/p^m, and a non-unit det, in the maximal ideal p, is the only
    failure: it raises ValueError.  The inverse is unique, so any exact
    method gives these codes.  Chunks keep the minors' Leibniz terms under
    SAMPLE_BATCH_BYTES.
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    rows, cols, odd = _minor_table(n)
    out = np.empty_like(flat)
    step = max(1, SAMPLE_BATCH_BYTES // (n * n * _leibniz_bytes(n - 1)))
    for lo in range(0, len(flat), step):
        A = flat[lo : lo + step]
        cof = det(ring, A[:, rows, cols])  # (chunk, n, n)
        cof[:, odd] = ring.neg_arr(cof[:, odd])
        adj = cof.transpose(0, 2, 1)
        try:
            dinv = ring.inv_arr(ring.matmul(A[:, :1], adj[:, :, :1]))  # (chunk, 1, 1)
        except ValueError:
            raise ValueError("matrix is not invertible: no unit pivot") from None
        out[lo : lo + step] = ring.mul_arr(dinv, adj)
    return out.reshape(a.shape)


class SubgroupSpec:
    """Symbolic description of K, K(p^l), K_1(p^l), K_0(p^l), or K_{n-1,1}."""

    KINDS = ("K", "Kprin", "K1", "K0", "Kmirab")

    def __init__(self, kind, level=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown subgroup kind {kind!r}")
        if kind in ("Kprin", "K1", "K0"):
            if level is None or level < 0:
                raise ValueError(f"{kind} requires a nonnegative depth")
        elif level is not None:
            raise ValueError(f"{kind} takes no depth parameter")
        self.kind = kind
        self.level = level

    def __repr__(self):
        return self.kind if self.level is None else f"{self.kind}({self.level})"

    def __eq__(self, other):
        return isinstance(other, SubgroupSpec) and (self.kind, self.level) == (
            other.kind,
            other.level,
        )

    def __hash__(self):
        return hash((self.kind, self.level))


def canonical_spec(spec, ring):
    """The spec that names the same subgroup at the working level: a depth
    above m is m, as in ``subgroup_membership``, and K(p^0), K_1(p^0) and
    K_0(p^0) are K.  Specs with equal canonical forms get equal generators."""
    if spec.level is None:
        return spec
    if spec.level == 0:
        return SubgroupSpec("K")
    return SubgroupSpec(spec.kind, min(spec.level, ring.m))


def subgroup_membership(spec, ring, K):
    """Mask of the matrices of the (N, n, n) code stack K in the subgroup
    ``spec`` cuts out at the working level, where a depth above m is m and K
    admits every matrix, whatever its determinant; ValueError on codes outside the ring."""
    K = ring.as_codes(K)
    n = K.shape[-1]
    ell = None if spec.level is None else min(spec.level, ring.m)
    bottom = K[:, n - 1, : n - 1]
    if spec.kind == "K":
        return np.ones(len(K), dtype=bool)
    if spec.kind == "Kprin":
        return (ring.val_arr(ring.sub_arr(K, np.eye(n, dtype=np.int64))) >= ell).all(axis=(1, 2))
    if spec.kind == "Kmirab":
        return (bottom == 0).all(axis=1) & (K[:, n - 1, n - 1] == 1)
    low = (ring.val_arr(bottom) >= ell).all(axis=1)
    if spec.kind == "K0":
        return low
    if spec.kind == "K1":
        return low & (ring.val_arr(ring.sub_arr(K[:, n - 1, n - 1], 1)) >= ell)
    raise AssertionError


# -- generating sets --------------------------------------------------------


def additive_generators(ring, depth=0):
    """Codes generating the additive group p^depth * O under integer multiples."""
    if depth >= ring.m:
        return []
    if ring.branch == "padic":
        return [ring.uniformizer_pow(depth)]
    out = []
    for a in range(depth, ring.m):
        for b in range(ring.f):
            out.append(ring.q**a * ring.p**b)  # code of t^a * x^b
    return out


def _elem(n, i, j, x):
    a = np.eye(n, dtype=np.int64)
    a[i, j] = x
    return a


def _diag(n, pos, u):
    a = np.eye(n, dtype=np.int64)
    a[pos, pos] = u
    return a


def _scalar(n, u):
    return np.eye(n, dtype=np.int64) * np.int64(u)


def _gl_generators(ring, n):
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for b in additive_generators(ring, 0):
                    gens.append(_elem(n, i, j, b))
    for g in unit_group_basis(ring).gens:
        gens.append(_diag(n, 0, g))
    return gens


def subgroup_generators(spec, ring, n):
    """Proposed generators as one (G, n, n) code stack; see
    ``verify_generators`` for the certificate.

    Every list is a strong generating set for the base e_{n-1}, ..., e_0:
    the unit diagonals of K and Kmirab sit at row 0, which the base moves
    last, and the K, K_1(p^l) and K_0(p^l) lists contain the Kmirab list.
    The identity is returned for subgroups that collapse to the trivial
    group at the working level, so closures always start somewhere.  The
    stack is built once per (canonical spec, ring, n) and is read-only, so a
    caller that writes to it fails.
    """
    return _generators(canonical_spec(spec, ring), ring, n)


@cache
def _generators(spec, ring, n):
    ell = spec.level
    if spec.kind == "K":
        gens = _gl_generators(ring, n)
    elif spec.kind == "Kprin":
        gens = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for b in additive_generators(ring, ell):
                    gens.append(_elem(n, i, j, b))
        for i in range(n):
            for v in unit_subgroup_basis(ring, ell).gens:
                gens.append(_diag(n, i, v))
        gens = gens or [np.eye(n, dtype=np.int64)]
    elif spec.kind == "Kmirab":
        # GL_{n-1} in the top-left block; at n = 1, the 1 x 1 unit diagonals
        gens = []
        for g in _gl_generators(ring, max(n - 1, 1)):
            a = np.eye(n, dtype=np.int64)
            a[: len(g), : len(g)] = g
            gens.append(a)
        for i in range(n - 1):
            for b in additive_generators(ring, 0):
                gens.append(_elem(n, i, n - 1, b))
    elif spec.kind == "K1":
        # K_{n-1,1} * K(p^l) = K_1(p^l)
        gens = [
            *subgroup_generators(SubgroupSpec("Kmirab"), ring, n),
            *subgroup_generators(SubgroupSpec("Kprin", ell), ring, n),
        ]
    elif spec.kind == "K0":
        # Z(O) * K_1(p^l) = K_0(p^l)
        gens = [*subgroup_generators(SubgroupSpec("K1", ell), ring, n)]
        gens += [_scalar(n, u) for u in unit_group_basis(ring).gens]
    else:
        raise AssertionError
    gens = np.array(gens, dtype=np.int64).reshape(-1, n, n)
    gens.flags.writeable = False
    return gens


def group_order(ring, n):
    """|GL_n(O/p^m)| = q^((m-1)n^2) * prod_{i<n} (q^n - q^i)."""
    return _gl_order(ring.q, n, ring.m)


def _gl_order(q, n, m):
    out = q ** ((m - 1) * n * n)
    for i in range(n):
        out *= q**n - q**i
    return out


def subgroup_order(spec, ring, n):
    q, m = ring.q, ring.m
    spec = canonical_spec(spec, ring)
    ell = spec.level
    if spec.kind == "K":
        return group_order(ring, n)
    if spec.kind == "Kprin":
        return q ** ((m - ell) * n * n)
    if spec.kind == "K1":
        return group_order(ring, n) // (q ** ((ell - 1) * n) * (q**n - 1))
    if spec.kind == "K0":
        return group_order(ring, n) * (q - 1) // (q ** ((ell - 1) * (n - 1)) * (q**n - 1))
    if spec.kind == "Kmirab":
        sub = group_order(ring, n - 1) if n > 2 else len(ring.units())
        return sub * ring.size ** (n - 1)
    raise AssertionError


def row_keys(ring, stack):
    """One sortable key per matrix or point of an (N, ...) stack of codes.

    The key is the int64 mixed-radix code of the entries, most significant
    first, so key order is the lexicographic order of the entries.  When
    ring.size ** entries does not fit an int64, the key is the row's raw
    bytes as a void scalar: equal exactly when the entries are, and sortable,
    though in no numeric order.
    """
    stack = np.asarray(stack, dtype=np.int64)
    flat = stack.reshape(stack.shape[0], math.prod(stack.shape[1:]))
    width = flat.shape[1]
    if ring.size**width < 2**63:
        return flat @ ring.size ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.ascontiguousarray(flat).view(np.dtype((np.void, 8 * width))).ravel()


def closure(ring, gens, budget=200000):
    """Breadth-first closure of the (G, n, n) generator stack ``gens``, as an
    (N, n, n) stack with the identity first.

    Each layer multiplies the frontier by every generator, generator-major,
    and keeps the first occurrence of each key not seen before, in stack
    order, so the order is that of a one-at-a-time BFS.  Raises
    BudgetExceededError when the closure outgrows ``budget``.
    """
    frontier = np.eye(gens.shape[-1], dtype=np.int64)[None]
    layers = [frontier]
    seen = row_keys(ring, frontier)
    total = 1
    while len(frontier):
        cand = np.concatenate([ring.matmul(frontier, g) for g in gens])
        keys, first = np.unique(row_keys(ring, cand), return_index=True)
        slot = np.searchsorted(seen, keys)
        new = seen[np.minimum(slot, len(seen) - 1)] != keys
        total += int(new.sum())
        if total > budget:
            raise BudgetExceededError(f"closure exceeded budget {budget}")
        frontier = cand[np.sort(first[new])]
        layers.append(frontier)
        seen = np.insert(seen, slot[new], keys[new])  # a sorted merge
    return np.concatenate(layers)


def _orbit_size(ring, n, row, gens):
    """Number of rows in the orbit of e_row under right multiplication by the
    (G, n, n) stack ``gens``.

    Breadth-first over a direct-address table of int32 slots, one per row
    key (ring.size ** n of them), -1 until its row is reached.  Each layer
    is multiplied by every generator in blocks of at most SAMPLE_BATCH_BYTES
    of products, and each block keeps the first occurrence of every row not
    reached before, found with ``np.minimum.at`` in the table slots the rows
    are about to take, so nothing is sorted.  A row every generator fixes
    is its own orbit, and takes no table.
    """
    front = np.eye(n, dtype=np.int64)[row][None]
    if (gens[:, row] == front).all():
        return 1
    table = np.full(ring.size**n, -1, dtype=np.int32)
    table[row_keys(ring, front)] = 0
    size = 1
    step = max(1, SAMPLE_BATCH_BYTES // (8 * n * max(len(gens), 1)))
    while len(front):
        layer = []
        for lo in range(0, len(front), step):
            cand = ring.matmul(front[lo : lo + step], gens).reshape(-1, n)
            keys = row_keys(ring, cand)
            unseen = np.flatnonzero(table[keys] < 0)
            ukeys = keys[unseen]
            table[ukeys] = np.iinfo(np.int32).max
            np.minimum.at(table, ukeys, unseen.astype(np.int32))
            fresh = unseen[table[ukeys] == unseen]
            table[ukeys] = 0
            layer.append(cand[fresh])
        front = np.concatenate(layer)
        size += len(front)
    return size


def _chain_orbits(ring, n, gens):
    """Orbit sizes of the chain of ``gens`` with base e_{n-1}, ..., e_0:
    level t is the orbit of e_{n-1-t} under the generators that fix
    e_{n-1}, ..., e_{n-t}, inside its orbit under their stabiliser in
    <gens>.  So the product is at most |<gens>|, with equality exactly when
    ``gens`` is a strong generating set (Sims 1970; Seress 2003, 4.1-4.2)."""
    eye = np.eye(n, dtype=np.int64)
    fixes = [(gens[:, n - t :] == eye[n - t :]).all(axis=(1, 2)) for t in range(n)]
    return [_orbit_size(ring, n, n - 1 - t, gens[fixed]) for t, fixed in enumerate(fixes)]


def chain_bytes(q, n, m, order):
    """Predicted peak bytes of the orbit closures of a chain of a group of
    ``order`` in GL_n(O/p^m), one level at a time: the largest
    ``orbit_bytes`` over the levels, whose level t holds at most ``order``
    rows and at most the rows whose first n - t entries are unimodular."""
    return max(orbit_bytes(q, n, m, min(_level_rows(q, n, m, t), order)) for t in range(n))


def _level_rows(q, n, m, t):
    """Rows a level-t point can be: the first n - t entries unimodular."""
    return q ** ((m - 1) * (n - t) + m * t) * (q ** (n - t) - 1)


def orbit_bytes(q, n, m, points):
    """Predicted peak bytes of ``_orbit_size`` on at most ``points`` rows:
    the table, 4 q^(m n); two layers of 8 n bytes a row (distinct rows, so
    ``points`` at most, copied once when joined); and three blocks of
    SAMPLE_BATCH_BYTES.  tracemalloc puts the peak beyond the table and the
    layers at 2.5 blocks or less on every level of the K, K_1(p), Kprin(p)
    and Kmirab chains at 11 points from padic (q2, n2, m10) and (q3, n4, m2)
    to laurent F_9 (n3, m2)."""
    return 4 * q ** (m * n) + 2 * 8 * n * points + 3 * SAMPLE_BATCH_BYTES


def k_certificate_bytes(q, n, m):
    """What ``verify_generators`` charges for K in GL_n(O/p^m) before it
    allocates, on the shared Kmirab path: the larger of K's top orbit (every
    unimodular row) and the Kmirab chain.
    |Kmirab| = |GL_{n-1}| q^(m(n-1))."""
    mirab = _gl_order(q, n - 1, m) * q ** (m * (n - 1))
    return max(orbit_bytes(q, n, m, _level_rows(q, n, m, 0)), chain_bytes(q, n, m, mirab))


def _charge(spec, nbytes):
    if nbytes > CHAIN_BYTES_MAX:
        raise BudgetExceededError(
            f"stabiliser chain of {spec} needs up to {nbytes} bytes, over the cap {CHAIN_BYTES_MAX}"
        )


def _holds_mirabolic(G, M):
    """True when every generator of the stack M is one of the stack G."""
    keys = {g.tobytes() for g in G}
    return all(g.tobytes() in keys for g in M)


_MIRABOLIC = {}


def _mirabolic_product(ring, n, M):
    """The orbit product of the chain of the Kmirab stack M, cached under
    its bytes."""
    key = (ring, n, M.tobytes())
    if key not in _MIRABOLIC:
        _MIRABOLIC[key] = math.prod(_chain_orbits(ring, n, M))
    return _MIRABOLIC[key]


def verify_generators(spec, ring, n):
    """Exact certificate that the proposed generators generate the subgroup.

    Every generator must satisfy the membership predicate, so the group they
    generate has order at most ``subgroup_order``, and their chain's orbit
    product (``_chain_orbits``) is at most that order: equality certifies.
    A shorter product raises a RuntimeError that names it, so a list that
    generates the group without being strong is refused; every
    ``subgroup_generators`` list is strong.  Kmirab is the stabiliser of
    e_{n-1} in K, so when G contains the Kmirab list, which lies in Kmirab,
    |<G>| >= |e_{n-1} <G>| times the Kmirab product: K, K_1(p^l) and
    K_0(p^l) are one orbit above a product built once per (ring, n).  Bytes
    are checked against CHAIN_BYTES_MAX before each allocation.  ``orbit``
    is the size of the orbit of e_n under the subgroup.
    """
    G = subgroup_generators(spec, ring, n)
    expected = subgroup_order(spec, ring, n)
    if not subgroup_membership(spec, ring, G).all():
        raise RuntimeError(f"proposed generator outside {spec}")
    q, m = ring.q, ring.m
    mirab = SubgroupSpec("Kmirab")
    M = subgroup_generators(mirab, ring, n)
    if (
        spec.kind != "Kmirab" and n >= 2 and _holds_mirabolic(G, M)
        and subgroup_membership(mirab, ring, M).all()
    ):
        order = subgroup_order(mirab, ring, n)
        _charge(spec, max(orbit_bytes(q, n, m, expected // order), chain_bytes(q, n, m, order)))
        below = _mirabolic_product(ring, n, M)
        orbit = _orbit_size(ring, n, n - 1, G)
        size = orbit * below
    else:
        _charge(spec, chain_bytes(q, n, m, expected))
        orbits = _chain_orbits(ring, n, G)
        orbit, size = orbits[0], math.prod(orbits)
    if size != expected:
        how = "above" if size > expected else "expected"
        raise RuntimeError(f"{spec} generators reach an orbit product of {size}, {how} {expected}")
    return {"method": "chain", "size": size, "ok": True, "orbit": orbit}


# -- random sampling ---------------------------------------------------------


def random_stack(ring, n, count, rng, ell=None):
    """(count, n, n) stack uniform on K, or on K_0(p^ell) when ``ell`` is given.

    Candidate i is the i-th pass of the rejection loop: n^2 entries drawn
    below ring.size in row-major order, then, for K_0(p^ell), the n - 1
    bottom-left digits drawn below size / q^min(ell, m) and scaled by
    q^min(ell, m).  With an array ``high``, Generator.integers draws element
    by element in C order, as the separate scalar-``high`` calls did, and a
    ``high`` of 1 consumes nothing; so one (B, width) draw is B passes.  K's
    entries share the scalar bound ring.size, which draws the same stream
    as an array of it, faster.  The round that completes the stack rewinds
    the generator and redraws only up to its last kept candidate, leaving
    the stream where the loop left it.
    """
    highs, width = ring.size, n * n
    if ell is not None:
        step = ring.q ** min(ell, ring.m)
        highs = np.array([ring.size] * width + [ring.size // step] * (n - 1), dtype=np.int64)
        width = len(highs)
    # K's acceptance rate exactly; a lower bound for K_0(p^ell)
    rate = math.prod(1 - ring.q ** -i for i in range(1, n + 1))
    cap = max(1, SAMPLE_BATCH_BYTES // _leibniz_bytes(n))
    out = []
    need = count
    while need > 0:
        batch = min(cap, math.ceil((need + 2 * math.sqrt(need)) / rate) + 2)
        state = rng.bit_generator.state
        draw = rng.integers(0, highs, size=(batch, width))
        cand = draw[:, : n * n].reshape(batch, n, n)
        if ell is not None:
            cand[:, n - 1, : n - 1] = draw[:, n * n :] * step
        kept = np.flatnonzero(ring.val_arr(det(ring, cand)) == 0)[:need]
        if len(kept) == need:
            rng.bit_generator.state = state
            rng.integers(0, highs, size=(kept[-1] + 1, width))
        out.append(cand[kept])
        need -= len(kept)
    return np.concatenate(out) if out else np.zeros((0, n, n), dtype=np.int64)


def random_in_K(ring, n, rng):
    """One (n, n) code array uniform on K.  Kept only because
    ``bench/layers.py`` wraps it by name; ``random_stack`` draws stacks."""
    return random_stack(ring, n, 1, rng)[0]


def random_in_K0(ring, n, ell, rng):
    """One (n, n) code array uniform on K_0(p^ell).  Kept only because
    ``bench/layers.py`` wraps it by name; ``random_stack`` draws stacks."""
    return random_stack(ring, n, 1, rng, ell=ell)[0]


# -- double cosets -----------------------------------------------------------


def u_ell(ring, n, ells):
    """(len(ells), n, n) stack: for each ell, the matrix with bottom row
    (0, ..., 0, w^ell, 1) and 1s on the diagonal."""
    w = np.array([ring.uniformizer_pow(ell) for ell in ells], dtype=np.int64)
    us = np.tile(np.eye(n, dtype=np.int64), (len(w), 1, 1))
    us[:, n - 1, n - 2] = w
    return us


def double_coset_index(ring, K):
    """min(m, min valuation of the bottom-left block) for each matrix of the
    (N, n, n) stack K: the l with k in K_0(p^m) u_l K_0(p^m)."""
    n = K.shape[-1]
    return np.minimum(ring.m, ring.val_arr(K[:, n - 1, : n - 1]).min(axis=1))


def chang_beta(ring, a, c):
    """Columns beta with det(a - beta*c) a unit, as an (N, n-1, 1) stack, for
    an (N, n-1, n-1) stack a and an (N, n-1) stack c of rows on the sphere.

    The determinant condition is decided mod p, so the search runs over
    residue-field representatives in lexicographic order, one stacked
    determinant per candidate on the matrices still without a beta, and
    each matrix takes the first candidate that works.
    """
    nm1 = c.shape[-1]
    if not (ring.val_arr(c) == 0).any(axis=1).all():
        raise ValueError("c must lie on the sphere")
    beta = np.zeros((len(c), nm1, 1), dtype=np.int64)
    todo = np.arange(len(c))
    for cand in product(range(ring.q), repeat=nm1):
        if not len(todo):
            break
        col = np.array(cand, dtype=np.int64).reshape(nm1, 1)
        test = ring.sub_arr(a[todo], ring.matmul(col, c[todo, None]))
        ok = ring.val_arr(det(ring, test)) == 0
        beta[todo[ok]] = col
        todo = todo[~ok]
    if len(todo):
        raise RuntimeError("no beta found; this contradicts the double coset lemma")
    return beta


def _complete_to_invertible(ring, s):
    """Invertible (k, k) matrices whose bottom rows are the rows of the
    (N, k) stack s, each with a unit entry: the identity rows other than
    that of the first unit entry, then s."""
    nm1 = s.shape[-1]
    piv = (ring.val_arr(s) == 0).argmax(axis=1)
    r = np.arange(nm1 - 1)
    rows = np.eye(nm1, dtype=np.int64)[r + (r >= piv[:, None])]
    return np.concatenate([rows, s[:, None]], axis=1)


def double_coset_witness(ring, K):
    """Stacks (k0, ell, k0p) with k = k0 . u_ell . k0p and k0, k0p in K_0(p^m)
    for each matrix k of the (N, n, n) stack K, m the working level.

    Where ell = m, u_m = 1 and (k0, k0p) = (k, 1).  Elsewhere, with blocks
    k = [[a, b], [c, d]]: beta = 0 where ell >= 1 and ``chang_beta`` where
    ell = 0; A = a - beta c; alpha^-1 completes s = w^-ell c A^-1 to an
    invertible matrix; then k0 = [[alpha, beta], [0, 1]] and
    k0p = [[alpha^-1 A, alpha^-1 (b - beta d)], [0, d - c A^-1 (b - beta d)]].
    """
    n = K.shape[-1]
    ell = double_coset_index(ring, K)
    k0 = K.copy()
    k0p = np.broadcast_to(np.eye(n, dtype=np.int64), K.shape).copy()
    low = np.flatnonzero(ell < ring.m)
    X, depth = K[low], ell[low]
    a, b, c, d = X[:, :-1, :-1], X[:, :-1, -1:], X[:, -1:, :-1], X[:, -1:, -1:]
    beta = np.zeros((len(low), n - 1, 1), dtype=np.int64)
    beta[depth == 0] = chang_beta(ring, a[depth == 0], c[depth == 0, 0])
    A = ring.sub_arr(a, ring.matmul(beta, c))
    cA = ring.matmul(c, mat_inv(ring, A))
    alpha_inv = _complete_to_invertible(ring, ring.shift_down(cA[:, 0], depth[:, None]))
    bd = ring.sub_arr(b, ring.matmul(beta, d))
    k0[low] = np.eye(n, dtype=np.int64)
    k0[low, :-1, :-1] = mat_inv(ring, alpha_inv)
    k0[low, :-1, -1:] = beta
    k0p[low, :-1, :-1] = ring.matmul(alpha_inv, A)
    k0p[low, :-1, -1:] = ring.matmul(alpha_inv, bd)
    k0p[low, -1:, -1:] = ring.sub_arr(d, ring.matmul(cA, bd))
    return k0, ell, k0p


# -- exhaustive enumeration ---------------------------------------------------


def group_stack(ring, n):
    """All of GL_n(O/p^m) as one (|K|, n, n) stack: invertible residue parts
    times lift corrections.

    Deterministic order: residue matrices lexicographically, then correction
    matrices lexicographically.  Callers check group_order against their
    budget first; the stack takes 8 n^2 |K| bytes.
    """
    q = ring.q
    res = _all_matrices(q, n)
    res = res[ring.val_arr(det(ring, res)) == 0]
    lifts = _all_matrices(q ** (ring.m - 1), n)
    return ring.add_arr(res[:, None], lifts[None] * q).reshape(-1, n, n)


def _all_matrices(base, n):
    """Every (n, n) matrix with entries in range(base), lexicographically."""
    cells = n * n
    return np.indices((base,) * cells, dtype=np.int64).reshape(cells, -1).T.reshape(-1, n, n)


def enumerate_group(ring, n):
    """Stream all of GL_n(O/p^m) as (n, n) code arrays, in ``group_stack``
    order.  Kept only because ``bench/layers.py`` wraps it by name;
    ``group_stack`` is the whole group at once."""
    yield from group_stack(ring, n)
