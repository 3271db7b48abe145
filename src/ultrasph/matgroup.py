"""GL_n(O/p^M), its congruence subgroups, and double coset witnesses.

All matrices live at a fixed working level M and are int64 code arrays:
an (n, n) array is one group element, an (N, n, n) stack is N of them,
and nothing wraps either.  Subgroup specifications with depth l <= M are
membership masks on level-M stacks.  Generating sets are proposed as one
(G, n, n) stack of elementary matrices and diagonal units, then certified
exactly: every generator satisfies the membership mask, and a stabiliser
chain of the group they generate reaches the order formula (Sims 1970;
Seress, Permutation Group Algorithms, 2003, ch. 4).

Uniform samples of K and K_0(p^l) are drawn as whole stacks by rejection,
one random draw and one stacked determinant per batch.  Each batch rewinds
the generator to just past the last candidate it keeps, so a stack consumes
exactly the stream of the one-at-a-time loop it replaces: a seed gives the
same samples, and the same later draws, whatever the batch size.

Double cosets K = union over l of K_0(p^m) u_l K_0(p^m) work on whole
(N, n, n) stacks: ``double_coset_index`` reads l off the bottom-left block,
and ``double_coset_witness`` gives every l < m one formula, with the
``chang_beta`` residue search run only where l = 0.  ``orbit_stack`` closes
under left and right products, so each double coset is also the orbit of
u_l under the K_0(p^m) generators.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations, product

import numpy as np

from .ring import unit_group_basis, unit_subgroup_basis


SAMPLE_BATCH_BYTES = 1 << 21  # Leibniz terms of one batch of sampler candidates
CHAIN_BATCH = 64  # Schreier generators sifted at once
CHAIN_QUIET_PASSES = 4  # random passes that add nothing before every Schreier generator is sifted
CHAIN_BYTES_MAX = 1 << 27  # cap on the bound of a stabiliser chain's transversals and tables


class BudgetExceededError(RuntimeError):
    pass


def det(ring, a):
    """Determinant of an (n, n) matrix (an int) or an (N, n, n) stack.

    Leibniz expansion over a cached permutation table, vectorised over the
    stack: exact over any commutative ring, singular matrices included.
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    perms, odd = _perm_table(n)
    terms = a[..., np.arange(n), perms]  # (..., n!, n): entries a[i, perm[i]]
    prod = terms[..., 0]
    for i in range(1, n):
        prod = ring.mul_arr(prod, terms[..., i])
    prod[..., odd] = ring.neg_arr(prod[..., odd])
    total = prod[..., 0]
    for t in range(1, len(perms)):
        total = ring.add_arr(total, prod[..., t])
    return int(total) if a.ndim == 2 else total


@cache
def _perm_table(n):
    """All permutations of range(n) as an (n!, n) array, and their odd mask."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    inversions = (perms[:, :, None] > perms[:, None, :]) & np.triu(np.ones((n, n), dtype=bool), 1)
    return perms, inversions.sum(axis=(1, 2)) % 2 == 1


def mat_inv(ring, a):
    """Inverse of an (n, n) matrix or of each matrix in an (N, n, n) stack.

    Gauss-Jordan with unit pivots, exact over the local ring O/p^m; raises
    ValueError when some column has no unit pivot (a non-invertible matrix).
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    A = a.reshape(-1, n, n)
    M = np.concatenate([A, np.broadcast_to(np.eye(n, dtype=np.int64), A.shape)], axis=2)
    rows = np.arange(A.shape[0])
    for col in range(n):
        unit = ring.val_arr(M[:, col:, col]) == 0
        if not unit.any(axis=1).all():
            raise ValueError("matrix is not invertible: no unit pivot")
        # a non-unit diagonal entry gets the first unit row below added to
        # it: a non-unit plus a unit is a unit in a local ring
        r = col + unit.argmax(axis=1)
        M[:, col] = ring.add_arr(M[:, col], M[rows, r] * (r != col)[:, None])
        M[:, col] = ring.mul_arr(ring.inv_arr(M[:, col, col])[:, None], M[:, col])
        f = M[:, :, col, None].copy()
        f[:, col] = 0
        M = ring.sub_arr(M, ring.mul_arr(f, M[:, col, None, :]))
    return M[:, :, n:].reshape(a.shape)


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
    """Mask of the matrices of the (N, n, n) code stack K that lie in the
    subgroup ``spec`` cuts out at the working level: a depth above m is m.
    K admits every matrix; it does not test the determinant."""
    K = np.asarray(K, dtype=np.int64)
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
        gens.append(_diag(n, n - 1, g))
    return gens


def subgroup_generators(spec, ring, n):
    """Proposed generators as one (G, n, n) code stack; see
    ``verify_generators`` for the certificate.

    The identity is returned for subgroups that collapse to the trivial
    group at the working level, so closures always start somewhere.
    """
    spec = canonical_spec(spec, ring)
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
        gens = []
        if n > 2:
            for g in _gl_generators(ring, n - 1):
                a = np.eye(n, dtype=np.int64)
                a[: n - 1, : n - 1] = g
                gens.append(a)
        else:
            for u in unit_group_basis(ring).gens:
                gens.append(_diag(n, 0, u))
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
    return np.array(gens, dtype=np.int64).reshape(-1, n, n)


def group_order(ring, n):
    """|GL_n(O/p^m)| = q^((m-1)n^2) * prod_{i<n} (q^n - q^i)."""
    q, m = ring.q, ring.m
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


def find_keys(sorted_keys, keys):
    """Positions of ``keys`` in the sorted array ``sorted_keys``; KeyError
    when one is absent."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    if not (sorted_keys[pos] == keys).all():
        raise KeyError("key not in the index")
    return pos


def orbit_stack(ring, start, gens, canon=None, budget=None, left=()):
    """Breadth-first orbit of the (n, n) matrix ``start`` under right
    multiplication by the (n, n) arrays ``gens`` and left multiplication by
    those of ``left``, as an (N, n, n) stack.

    ``canon`` maps a product stack to the representatives it stands for
    (cosets); without it the products themselves are the elements.  Each
    layer multiplies the frontier by every generator, generator-major, right
    products first, and keeps the first occurrence of each key not seen
    before, in stack order, so the order is that of a one-at-a-time BFS.
    Raises BudgetExceededError when the orbit outgrows ``budget``.
    """
    frontier = np.asarray(start, dtype=np.int64)[None]
    layers = [frontier]
    seen = row_keys(ring, frontier)
    total = 1
    while len(frontier):
        cand = np.concatenate(
            [ring.matmul(frontier, g) for g in gens] + [ring.matmul(g, frontier) for g in left]
        )
        if canon is not None:
            cand = canon(cand)
        keys, first = np.unique(row_keys(ring, cand), return_index=True)
        slot = np.searchsorted(seen, keys)
        new = seen[np.minimum(slot, len(seen) - 1)] != keys
        total += int(new.sum())
        if budget is not None and total > budget:
            raise BudgetExceededError(f"closure exceeded budget {budget}")
        frontier = cand[np.sort(first[new])]
        layers.append(frontier)
        seen = np.insert(seen, slot[new], keys[new])  # a sorted merge
    return np.concatenate(layers)


def closure(ring, gens, budget=200000):
    """Breadth-first closure of the (G, n, n) generator stack ``gens``, as an
    (N, n, n) stack with the identity first; raises past the budget.  Kept
    only because ``bench/layers.py`` wraps it by name; ``orbit_stack`` is
    the closure."""
    return orbit_stack(ring, np.eye(gens.shape[-1], dtype=np.int64), gens, budget=budget)


class _Level:
    """One level of a stabiliser chain: the orbit of the base row e_row under
    right multiplication by ``gens``, kept as a Schreier vector.  Point i is
    ``pts[i]``, the image of point ``parent[i]`` under generator ``via[i]``,
    and ``bounds`` delimit the breadth-first layers.  ``table``, one int32
    slot per row key (ring.size ** n of them), holds each point's index, or
    -1.  The transversal ``u`` (row ``row`` of u[i] is point i) and its
    inverses ``uinv`` are built from the Schreier vector when first read, so
    a chain that never sifts never forms them."""

    def __init__(self, ring, n, row, gens):
        self.ring, self.row, self.gens = ring, row, []
        self.pts = np.eye(n, dtype=np.int64)[row][None]
        self.parent = self.via = np.zeros(1, dtype=np.int64)
        self.bounds = [0, 1]
        self.table = np.full(ring.size**n, -1, dtype=np.int32)
        self.table[row_keys(ring, self.pts)] = 0
        self._u = self._uinv = np.eye(n, dtype=np.int64)[None]
        self._ginv = np.zeros((0, n, n), dtype=np.int64)
        self.extend(gens)

    def extend(self, new):
        """Add the generators ``new`` and close the orbit: images of every
        point under them, then breadth-first under all generators.  Each
        layer keeps the first occurrence of each unseen point, in stack
        order, with the point and generator it came from."""
        if not len(new):
            return
        ring = self.ring
        self.gens = self.gens + list(new)
        G = np.stack(self.gens)
        pts, parent, via = [self.pts], [self.parent], [self.via]
        front, lo, size = self.pts, 0, len(self.pts)
        apply = np.arange(len(G) - len(new), len(G))
        while len(front):
            cand = ring.matmul(front, G[apply]).reshape(-1, front.shape[-1])
            ckeys = row_keys(ring, cand)
            unseen = np.flatnonzero(self.table[ckeys] < 0)
            fresh = np.sort(unseen[np.unique(ckeys[unseen], return_index=True)[1]])
            self.table[ckeys[fresh]] = np.arange(size, size + len(fresh))
            parent.append(lo + fresh % len(front))
            via.append(apply[fresh // len(front)])
            front, lo, size = cand[fresh], size, size + len(fresh)
            pts.append(front)
            self.bounds.append(size)
            apply = np.arange(len(G))
        self.pts, self.parent, self.via = map(np.concatenate, (pts, parent, via))

    @property
    def u(self):
        self._transversal()
        return self._u

    @property
    def uinv(self):
        self._transversal()
        return self._uinv

    def _transversal(self):
        """Fill u and uinv for the points added since they were last read,
        layer by layer: u[i] = u[parent] G[via], uinv[i] = G[via]^-1 uinv[parent]."""
        done, total = len(self._u), len(self.pts)
        if done == total:
            return
        ring = self.ring
        G = np.stack(self.gens)
        if len(self._ginv) < len(G):
            self._ginv = np.concatenate([self._ginv, mat_inv(ring, G[len(self._ginv) :])])
        u = np.empty((total,) + G.shape[1:], dtype=np.int64)
        uinv = np.empty_like(u)
        u[:done], uinv[:done] = self._u, self._uinv
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            if hi > max(lo, done):
                p, g = self.parent[lo:hi], self.via[lo:hi]
                u[lo:hi] = ring.matmul(u[p], G[g])
                uinv[lo:hi] = ring.matmul(self._ginv[g], uinv[p])
        self._u, self._uinv = u, uinv

    def locate(self, x):
        """Transversal index of the point of each element of the stack x, and
        whether that point lies in the orbit at all (index -1 when not)."""
        slot = self.table[row_keys(self.ring, x[:, self.row])]
        return slot, slot >= 0

    def schreier(self, p, s):
        """Schreier generators u_p g_s u_{p g_s}^{-1} for index arrays p, s."""
        y = self.ring.matmul(self.u[p], np.stack(self.gens)[s])
        return self.ring.matmul(y, self.uinv[self.locate(y)[0]])


class StabiliserChain:
    """Stabiliser chain of the group generated by (n, n) arrays ``gens``.

    Elements act on row vectors by right multiplication.  The base is
    e_{n-1}, ..., e_0: level t stabilises the rows of the levels above it and
    moves row n-1-t, so a matrix fixing every base point is the identity.
    Level t's generators are those of ``gens`` that fix the earlier base
    rows, plus every residue added at level t or below.  Each orbit is then
    an orbit of a subgroup of the true stabiliser, so ``order`` never exceeds
    the order of the group, and equals it once ``sweep`` finds nothing to add
    (Sims 1970; Seress, Permutation Group Algorithms, 2003, ch. 4).
    """

    def __init__(self, ring, n, gens):
        self.ring, self.n = ring, n
        eye = np.eye(n, dtype=np.int64)
        self.levels = []
        for t in range(n):
            fixed = [g for g in gens if np.array_equal(g[n - t :], eye[n - t :])]
            self.levels.append(_Level(ring, n, n - 1 - t, fixed))

    def order(self):
        return math.prod(len(lev.pts) for lev in self.levels)

    def sift(self, x, t):
        """Sift the stack x, which fixes the base rows of levels < t, through
        levels t, t+1, ...  Returns (level, element) for the first element
        whose point leaves that level's orbit, or None when every element
        sifts to the identity."""
        for j in range(t, self.n):
            lev = self.levels[j]
            slot, hit = lev.locate(x)
            if not hit.all():
                return j, x[np.argmin(hit)]
            x = self.ring.matmul(x, lev.uinv[slot])
        return None

    def add(self, j, h):
        """A residue that fixes the base rows of levels < j becomes a strong
        generator at level j and every level above it."""
        for lev in self.levels[: j + 1]:
            lev.extend([h])

    def random_pass(self, rng):
        """Sift CHAIN_BATCH random Schreier generators per level, top level
        first, adding the first residue of each batch.  True when one was added."""
        grew = False
        for t, lev in enumerate(self.levels[:-1]):
            if lev.gens:
                p = rng.integers(0, len(lev.pts), CHAIN_BATCH)
                s = rng.integers(0, len(lev.gens), CHAIN_BATCH)
                hit = self.sift(lev.schreier(p, s), t + 1)
                if hit is not None:
                    self.add(*hit)
                    grew = True
        return grew

    def sweep(self):
        """Sift every Schreier generator once, bottom level first.  Adds the
        first residue and returns True, or returns False: then every Schreier
        generator sifts to the identity, the chain is complete (Schreier's
        lemma) and ``order`` is the order of the group."""
        for t in range(self.n - 2, -1, -1):
            lev = self.levels[t]
            total = len(lev.pts) * len(lev.gens)
            for lo in range(0, total, CHAIN_BATCH):
                i = np.arange(lo, min(lo + CHAIN_BATCH, total))
                hit = self.sift(lev.schreier(i // len(lev.gens), i % len(lev.gens)), t + 1)
                if hit is not None:
                    self.add(*hit)
                    return True
        return False


def verify_generators(spec, ring, n):
    """Exact certificate that the proposed generators generate the subgroup.

    Every generator must satisfy the membership predicate, so the group they
    generate has order at most ``subgroup_order``.  A stabiliser chain built
    from random Schreier generators bounds that order from below; it stops
    as soon as the bound reaches the formula.  The random batches come from
    a private generator with a fixed seed, so the result is deterministic and
    no caller's generator is drawn from.  When CHAIN_QUIET_PASSES passes add
    nothing, every Schreier generator is sifted: the chain is then complete
    and a RuntimeError names the exact order next to the formula.  The
    result's ``orbit`` is the size of the chain's top orbit, the orbit of
    e_n under the subgroup.
    """
    G = subgroup_generators(spec, ring, n)
    expected = subgroup_order(spec, ring, n)
    if not subgroup_membership(spec, ring, G).all():
        raise RuntimeError(f"proposed generator outside {spec}")
    # each of the n orbits is a set of unimodular rows, no more of them than
    # group elements; a point's transversal element and inverse take 16 n^2
    # bytes, and each level's direct-address table 4 ring.size^n bytes
    rows = ring.q ** ((ring.m - 1) * n) * (ring.q**n - 1)
    nbytes = 16 * n**3 * min(rows, expected) + 4 * n * ring.size**n
    if nbytes > CHAIN_BYTES_MAX:
        raise BudgetExceededError(
            f"stabiliser chain of {spec} needs up to {nbytes} bytes, over the cap {CHAIN_BYTES_MAX}"
        )
    chain = StabiliserChain(ring, n, G)
    rng = np.random.default_rng(0)
    quiet = 0
    while chain.order() < expected and quiet < CHAIN_QUIET_PASSES:
        quiet = 0 if chain.random_pass(rng) else quiet + 1
    while chain.order() < expected and chain.sweep():
        pass
    size = chain.order()
    if size > expected:
        raise RuntimeError(f"stabiliser chain of {spec} generators reaches order {size}, above {expected}")
    if size < expected:
        raise RuntimeError(f"{spec} generators generate a group of order {size}, expected {expected}")
    return {"method": "chain", "size": size, "ok": True, "orbit": len(chain.levels[0].pts)}


# -- random sampling ---------------------------------------------------------


def random_stack(ring, n, count, rng, ell=None):
    """(count, n, n) stack uniform on K, or on K_0(p^ell) when ``ell`` is given.

    Candidate i is the i-th pass of the rejection loop: n^2 entries drawn
    below ring.size in row-major order, then, for K_0(p^ell), the n - 1
    bottom-left digits drawn below size / q^min(ell, m) and scaled by
    q^min(ell, m).  With an array ``high``, Generator.integers draws element
    by element in C order, as the separate scalar-``high`` calls did, and a
    ``high`` of 1 consumes nothing; so one (B, width) draw is B passes.  The
    round that completes the stack rewinds the generator and redraws only up
    to its last kept candidate, leaving the stream where the loop left it.
    """
    highs = [ring.size] * (n * n)
    if ell is not None:
        step = ring.q ** min(ell, ring.m)
        highs += [ring.size // step] * (n - 1)
    highs = np.array(highs, dtype=np.int64)
    # K's acceptance rate exactly; a lower bound for K_0(p^ell)
    rate = math.prod(1 - ring.q ** -i for i in range(1, n + 1))
    cap = max(1, SAMPLE_BATCH_BYTES // (8 * n * math.factorial(n)))
    out = []
    need = count
    while need > 0:
        batch = min(cap, math.ceil((need + 2 * math.sqrt(need)) / rate) + 2)
        state = rng.bit_generator.state
        draw = rng.integers(0, highs, size=(batch, len(highs)))
        cand = draw[:, : n * n].reshape(batch, n, n)
        if ell is not None:
            cand[:, n - 1, : n - 1] = draw[:, n * n :] * step
        kept = np.flatnonzero(ring.val_arr(det(ring, cand)) == 0)[:need]
        if len(kept) == need:
            rng.bit_generator.state = state
            rng.integers(0, highs, size=(kept[-1] + 1, len(highs)))
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
