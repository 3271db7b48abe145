"""Finite-level models of principal-series restrictions to GL_n(O).

The model space is the set of functions f on G = GL_n(O/p^M) with
f(bg) = prod_j chi_j(b_jj) f(g) for upper-triangular b, acted on by
right translation.  Functions are stored by their values on canonical
coset representatives of B\\G, computed by bottom-up row pivoting with
unit pivots scaled to 1 and entries above pivots cleared.  The coset of g
depends only on its bottom n - 1 rows: once they are reduced, the top row
of the canonical form is e_{j0}, j0 the column no lower row took, and the
top row's B-factor pivot is det(g) sgn(sigma) / prod of the other pivots,
sigma the pivot permutation.  So acting on a coset forms only the bottom
n - 1 rows of reps[r] k, one 2-D ring product per block of pairs, with
det(reps[r] k) = det(reps[r]) det(k).  The reduced rows are a pivot
pattern plus free entries, and a mixed-radix rank over them (Knuth, TAOCP
4A, 7.2.1) is a perfect index onto the cosets: a coset's slot is its
rank, and the cosets themselves are every rank unranked.

K acts by monomial matrices: a permutation of the coset slots times a
phase e^{2 pi i rot/L}, rot an exact rotation index mod the exponent L of
the character group.  Invariant and equivariant subspaces are exact orbit
and cocycle counts, one line per generator orbit on which the phase
cocycle closes (Mackey; Serre, Linear Representations of Finite Groups,
7.3), with no tolerance and no SVD.  Everything that does not read a
character (the cosets, each generator's slot permutation and pivots, each
subgroup's orbit forest) is built once per (ring, n); a model adds only
gathers: rotation indices at the pivots, phases summed along root paths
by pointer doubling, and one cocycle comparison for every generator.

The strongest end-to-end integrity check lives here: the declared
conductor (sum of the character conductors) must coincide with the
least depth at which invariant vectors appear, and any disagreement is
a hard error.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

import numpy as np

from .harmonics import _worst, dim_harmonic, zonal_shell_coefficient
from .matgroup import (
    BudgetExceededError,
    SubgroupSpec,
    _complete_to_invertible,
    canonical_spec,
    det,
    double_coset_index,
    group_order,
    group_stack,
    mat_inv,
    random_stack,
    subgroup_generators,
    verify_generators,
)
from .sphere import orbit_labels

COSET_BUDGET = 300000  # flag cosets a model may hold
ACTION_CHUNK_BYTES = 1 << 21  # temporaries of the (k, coset row) pairs acted on at once


class ConductorNotVisible(RuntimeError):
    """The working level is too small for the newform to appear."""


def flag_count(ring, n):
    nu = len(ring.units())
    b_order = nu**n * ring.size ** (n * (n - 1) // 2)
    return group_order(ring, n) // b_order


def _by_entry(stack):
    """A copy of an (N, r, s) stack laid out by entry: (r, s, N), each entry
    contiguous."""
    return stack.transpose(1, 2, 0).copy()


def _action_bytes(n):
    """Bytes per (k, coset row) pair that ``FlagCosets.act`` and a model's
    phases hold at once: the (n - 1) n product entries and their copy in
    entry layout, the reduction's row, its temporaries and masks, the rank's
    weighted terms, the slot and n pivots; then each rotation and the
    complex terms of a translate.  tracemalloc puts ``act`` at 142, 237, 358
    and 471 bytes a pair for n = 2, 3, 4, 5 on both branches, and a translate
    below that."""
    return 8 * (n * n + 8 * n + 12)


def _eliminate(ring, A, det):
    """Bottom-up reduction of the bottom n - 1 rows of N matrices, in place.

    ``A`` is the (n - 1, n, N) entry layout of those rows: A[i, j] holds
    entry (i + 1, j) of every matrix, and ``det`` holds the N determinants.
    Row by row from the bottom, entries above lower pivots are cleared; that
    leaves the columns lower rows took exactly 0, so the pivot is the first
    unit column (the lowest set bit of the row's unit mask, from a table),
    and the row is scaled by the pivot's inverse to make it 1.
    The top row of the canonical form is then e_{j0}, j0 the one column no
    lower row took.  Returns (A, pattern, pivots): ``pattern`` indexes the
    lower rows' pivot columns c_i as sum_i c_i n^(i-1), and the (n, N)
    pivots hold the lower rows' at 1..n-1 and the top row's at 0, det
    sgn(sigma) times the product of the lower pivots' inverses, carried
    along the rows; sigma is the pivot permutation, and the canonical form
    has determinant sgn(sigma).  ValueError when a row has no unit column or
    a determinant is not a unit.
    """
    n, N = A.shape[1], A.shape[2]
    at = np.arange(N)
    flat = np.empty((n, N), dtype=np.int64)  # offsets j * N + at of the pivots in a row
    piv = np.empty((n, N), dtype=np.int64)
    pattern = np.zeros(N, dtype=np.int64)
    inv = np.ones(N, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        row = A[i]
        # clear bottom-up: row r is zero at the pivots of rows below it, so
        # later subtractions cannot repollute columns cleared earlier
        for r in range(n - 2, i, -1):
            row = ring.sub_mul_arr(row, row.ravel().take(flat[r + 1]), A[r])
        unit = ring.val_arr(row) == 0
        mask = np.zeros(N, dtype=np.uint16)
        for c in range(n):
            mask |= np.left_shift(unit[c], c, dtype=np.uint16)
        j = _first_set(n)[mask]
        if (j == n).any():
            raise ValueError("matrix is not invertible: no unit pivot")
        flat[i + 1] = j * N + at
        piv[i + 1] = row.ravel().take(flat[i + 1])
        scale = ring._inv[piv[i + 1]]  # the pivot is a unit
        A[i] = ring.mul_arr(scale, row)
        inv = ring.mul_arr(inv, scale)
        pattern += j * n**i
    if (ring.val_arr(det) != 0).any():
        raise ValueError("matrix is not invertible: no unit pivot")
    signed = np.where(_pivot_orders(n)[1][pattern], ring.neg_arr(det), det)
    piv[0] = ring.mul_arr(signed, inv)
    return A, pattern, piv


@cache
def _first_set(n):
    """The lowest set bit of every n-bit mask, and n for the empty mask."""
    masks = np.arange(2**n)
    first = np.full(2**n, n)
    for j in range(n - 1, -1, -1):
        first[masks >> j & 1 == 1] = j
    return first


@cache
def _pivot_orders(n):
    """The pivot permutations (j0, c_1, ..., c_{n-1}), and two tables indexed
    by sum_i c_i n^(i-1) over the lower rows' pivot columns c_i: whether the
    permutation is odd, and its top column j0."""
    perms = list(permutations(range(n)))
    odd = np.zeros(n ** (n - 1), dtype=bool)
    top = np.zeros(n ** (n - 1), dtype=np.int64)
    for perm in perms:
        at = sum(c * n**i for i, c in enumerate(perm[1:]))
        odd[at] = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :]) % 2
        top[at] = perm[0]
    return perms, odd, top


def _reps(rows, pattern):
    """(N, n, n) canonical forms from the reduced (n - 1, n, N) bottom rows
    and their pivot patterns."""
    n, N = rows.shape[1], len(pattern)
    rep = np.empty((N, n, n), dtype=np.int64)
    rep[:, 0] = np.eye(n, dtype=np.int64)[_pivot_orders(n)[2][pattern]]
    rep[:, 1:] = rows.transpose(2, 0, 1)
    return rep


def flag_canon(ring, a):
    """Canonical representative of the left B-coset of ``a``, or of each
    matrix in an (N, n, n) stack.

    Returns (rep, pivots): rep = T a for upper-triangular T, with pivot
    rows scaled to 1 and entries above pivots cleared; pivots[i] is the
    diagonal of the B-factor a rep^{-1}.  The bottom n - 1 rows go through
    ``_eliminate``; the top row is e_{j0}, and its pivot comes from det(a).
    A single matrix gives pivots as a list of ints, a stack as an (N, n) array.
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    A = a.reshape(-1, n, n)
    rows, pattern, piv = _eliminate(ring, _by_entry(A[:, 1:]), det(ring, A))
    rep = _reps(rows, pattern)
    if a.ndim == 2:
        return rep[0], [int(v) for v in piv[:, 0]]
    return rep, np.ascontiguousarray(piv.T)


class FlagCosets:
    """Canonical representatives of B\\G and the character-free structure
    that every model at (ring, n) shares.

    The coset of a canonical form is fixed by its bottom n - 1 rows: a pivot
    pattern (c_1, ..., c_{n-1}), row i's pivot c_i with the columns of the
    rows below it taken, and free entries in the untaken columns other than
    c_i.  An entry left of the pivot is a non-unit, digit code // q of radix
    q^(m-1) (on both branches the non-units are the multiples of q); one
    right of it is any code, of radix q^m.  The mixed-radix rank
    offset[pattern] + sum digit * place is a perfect index onto range(size),
    found with one weight per entry (the places times q on the right) and
    one exact division by q, and a coset's slot is its rank.  Every rank is
    unranked, the K generators act on all of them at once, and one orbit of
    their slot permutations (``orbit_labels``) certifies transitivity of the
    generated group on the flag space.

    ``reps`` holds the canonical forms by slot, ``bottom`` their bottom rows
    as the right factor of a product (bottom[t, i, r] is entry (i + 1, t)
    of reps[r]) and ``dets`` their determinants.  ``table`` caches one
    generator's slot permutation and pivots, ``orbit_tree`` one subgroup's
    orbits and breadth-first forest.  Build it through ``flag_cosets``,
    which checks COSET_BUDGET first.
    """

    def __init__(self, ring, n, gens):
        expected = flag_count(ring, n)
        self.ring = ring
        self.n = n
        self.size = expected
        q, m = ring.q, ring.m
        perms, odd, _ = _pivot_orders(n)
        self._offset = np.zeros(n ** (n - 1), dtype=np.int64)
        self._weight = np.zeros((n * (n - 1), n ** (n - 1)), dtype=np.int64)
        spans = []  # (permutation, pattern, first rank, count, free entries) of each pivot pattern
        total = 0
        for perm in perms:
            at = sum(c * n**i for i, c in enumerate(perm[1:]))
            self._offset[at] = total
            place, free = 1, []
            for i in range(n - 1):
                for j in range(n):
                    if j in perm[i + 1 :]:
                        continue  # the pivot, or a column a lower row took
                    left = j < perm[i + 1]
                    free.append((i, j, place, left))
                    self._weight[i * n + j, at] = place if left else place * q
                    place *= q ** (m - 1) if left else q**m
            spans.append((perm, at, total, place, free))
            total += place
        if total != expected:
            raise RuntimeError(f"pivot patterns hold {total} cosets, expected {expected}")
        rows, pattern = self._unrank(spans, total)
        if not np.array_equal(self._rank(rows, pattern), np.arange(total)):
            raise RuntimeError("the coset rank does not invert the unrank")
        self.reps = _reps(rows, pattern)
        self.bottom = np.ascontiguousarray(rows.transpose(1, 0, 2))
        self.dets = np.where(odd[pattern], ring.neg(1), 1)
        self._tables = {}
        self._trees = {}
        # the identity is canonical with every free entry 0: its rank is its
        # pattern's offset
        start = self._offset[sum(i * n ** (i - 1) for i in range(1, n))]
        if not np.array_equal(self.reps[start], flag_canon(ring, np.eye(n, dtype=np.int64))[0]):
            raise RuntimeError("the identity's coset is not at its rank")
        root = orbit_labels([perm for perm, _ in self.tables(gens)], (total,))
        if root.any():
            found = np.count_nonzero(root == root[start])
            raise RuntimeError(f"flag closure found {found} cosets, expected {expected}")

    def _unrank(self, spans, total):
        """(rows, pattern) of every rank: the canonical bottom rows in entry
        layout (n - 1, n, total), and each rank's pivot pattern."""
        n, q, m = self.n, self.ring.q, self.ring.m
        rows = np.zeros((n - 1, n, total), dtype=np.int64)
        pattern = np.empty(total, dtype=np.int64)
        for perm, at, lo, count, free in spans:
            local = np.arange(count)
            pattern[lo : lo + count] = at
            for i in range(n - 1):
                rows[i, perm[i + 1], lo : lo + count] = 1
            for i, j, place, left in free:
                digits = local // place % q ** (m - 1 if left else m)
                rows[i, j, lo : lo + count] = digits * q if left else digits
        return rows, pattern

    def _rank(self, rows, pattern):
        """Rank of each canonical form from its reduced (n - 1, n, N) bottom
        rows and pivot pattern: the codes weighted per pattern, summed, and
        divided once by q, which is exact."""
        terms = self._weight[:, pattern]
        terms *= rows.reshape(terms.shape)
        return self._offset[pattern] + terms.sum(axis=0) // self.ring.q

    def act(self, K, rows=None):
        """(slots, pivots) of shapes (C, R) and (C, R, n) for a (C, n, n)
        stack K and R coset rows (every row by default): reps[rows[r]] K[c]
        lies in the coset of slot slots[c, r], and pivots[c, r] is the
        diagonal of its B-factor.  A block's bottom n - 1 rows of every
        product come from one 2-D ``ring.matmul`` of the K columns by the
        bottom rows; the top pivot comes from det(reps[r]) det(K[c]), and the
        slot is the rank of the reduced rows.  Pairs go through
        in blocks whose temporaries take at most ACTION_CHUNK_BYTES (one pair
        at least).  ValueError on codes of K outside the ring, or on a
        singular K[c]."""
        ring, n = self.ring, self.n
        K = ring.as_codes(K)
        bottom = self.bottom if rows is None else self.bottom[:, :, rows]
        dets = self.dets if rows is None else self.dets[rows]
        C, R = len(K), bottom.shape[-1]
        kdets = det(ring, K)
        cols = K.transpose(0, 2, 1).reshape(C * n, n)  # row (c, j) is column j of K[c]
        slots = np.empty((C, R), dtype=np.int64)
        pivots = np.empty((C, R, n), dtype=np.int64)
        per = max(1, ACTION_CHUNK_BYTES // _action_bytes(n))
        cs, rs = max(1, per // max(R, 1)), max(1, min(R, per))
        for c0 in range(0, C, cs):
            for r0 in range(0, R, rs):
                at = np.s_[c0 : c0 + cs], np.s_[r0 : r0 + rs]
                right = bottom[:, :, at[1]]
                shape = (min(cs, C - c0), right.shape[-1])
                prods = ring.matmul(cols[c0 * n : (c0 + cs) * n], right.reshape(n, -1))
                # entry (i + 1, j) of reps[r] K[c] sits at prods[(c, j), (i, r)]
                A = prods.reshape(shape[0], n, n - 1, shape[1]).transpose(2, 1, 0, 3).reshape(n - 1, n, -1)
                del prods
                g = ring.mul_arr(kdets[at[0], None], dets[None, at[1]]).ravel()
                red, pattern, piv = _eliminate(ring, A, g)
                slots[at] = self._rank(red, pattern).reshape(shape)
                pivots[at] = piv.T.reshape(*shape, n)
        return slots, pivots

    def table(self, a):
        """Cached (perm, pivots) of one (n, n) matrix on every coset row,
        shared by every model at (ring, n): the generator tables.  Pivots are
        unit codes, kept in the smallest unsigned type that holds a code."""
        return self.tables(np.asarray(a, dtype=np.int64)[None])[0]

    def tables(self, G):
        """``table`` of each matrix of the (G, n, n) stack; the missing ones
        are acted on together, as many at once as ACTION_CHUNK_BYTES allows."""
        keys = [g.tobytes() for g in G]
        new = {key: g for key, g in zip(keys, G) if key not in self._tables}
        missing = np.array(list(new.values()), dtype=np.int64).reshape(-1, self.n, self.n)
        step = max(1, ACTION_CHUNK_BYTES // (_action_bytes(self.n) * self.size))
        unit = np.min_scalar_type(self.ring.size - 1)
        for lo in range(0, len(missing), step):
            slots, pivots = self.act(missing[lo : lo + step])
            for g, perm, piv in zip(missing[lo : lo + step], slots, pivots):
                self._tables[g.tobytes()] = (perm, piv.astype(unit))
        return [self._tables[key] for key in keys]

    def orbit_tree(self, spec):
        """Cached OrbitTree of the verified generators of ``spec``, keyed on
        the canonical spec."""
        spec = canonical_spec(spec, self.ring)
        if spec not in self._trees:
            gens = _verified_subgroup_gens(self.ring, self.n, spec)
            self._trees[spec] = OrbitTree([perm for perm, _ in self.tables(gens)])
        return self._trees[spec]


_COSETS = {}


def flag_cosets(ring, n):
    """The FlagCosets of (ring, n), built once and shared by every model there.

    COSET_BUDGET is checked on every call, before the cache is read, so a
    lowered budget refuses a warm (ring, n) as it refuses a cold one.
    """
    expected = flag_count(ring, n)
    if expected > COSET_BUDGET:
        raise BudgetExceededError(f"{expected} cosets exceed budget {COSET_BUDGET}")
    key = (ring, n)
    if key not in _COSETS:
        _COSETS[key] = FlagCosets(ring, n, subgroup_generators(SubgroupSpec("K"), ring, n))
    return _COSETS[key]


class OrbitTree:
    """Orbits of slot permutations and a breadth-first spanning forest of them.

    ``root`` is the least slot of each slot's orbit.  The forest grows from
    every root at once, one layer per step: a slot joins at the first layer
    that reaches it, from the first (generator, parent) pair in
    generator-major order.  ``parent`` and ``via`` hold each slot's forest
    parent and the generator of its edge (a root is its own parent), and
    ``rounds`` pointer-doubling steps cover the deepest root path.  Nothing
    here depends on a character.
    """

    def __init__(self, perms):
        self.perms = perms
        dim = len(perms[0])
        self.root = orbit_labels(perms, (dim,))
        front = np.flatnonzero(self.root == np.arange(dim))
        self.heads = front
        self.parent = np.arange(dim)
        self.via = np.zeros(dim, dtype=np.int64)
        seen = np.zeros(dim, dtype=bool)
        seen[front] = True
        depth = 0
        while True:
            cand = np.concatenate([s[front] for s in perms])
            unseen = np.flatnonzero(~seen[cand])
            if not len(unseen):
                break
            tgt, first = np.unique(cand[unseen], return_index=True)
            gen, at = np.divmod(unseen[first], len(front))
            parent, front = front[at], tgt
            self.parent[front], self.via[front] = parent, gen
            seen[front] = True
            depth += 1
        self.rounds = max(depth - 1, 0).bit_length()

    def phases(self, rots, twists, L):
        """(phase, closed) per slot for the monomial action
        (g f)[i] = w^rots[g][i] f[perms[g][i]], w = e^{2 pi i/L}.

        A vector with g f = w^twists[g] f for every g is c_O w^phase on each
        orbit O when O closes: phase 0 at the root and
        phase[perm[i]] = phase[i] + twist - rot[i] (mod L) on every edge, so
        a slot's phase sums the steps on its root path, found by pointer
        doubling.  ``closed`` says whether the slot's orbit closes, every
        generator's cocycle checked at once.
        """
        # (G, dim) stacks in int32: rotation indices and slots are below 2^31
        rots = np.array(rots, dtype=np.int32)
        twists = np.asarray(twists, dtype=np.int64)
        step = twists[self.via] - rots[self.via, self.parent]
        step[self.heads] = 0
        up = self.parent
        for _ in range(self.rounds):
            step = step + step[up]
            up = up[up]
        phase = step % L
        phase32 = phase.astype(np.int32)
        cocycle = phase32[np.array(self.perms, dtype=np.int32)]
        cocycle += rots
        cocycle -= phase32
        cocycle -= twists.astype(np.int32)[:, None]
        cocycle %= L
        broken = np.zeros(len(phase), dtype=bool)
        broken[self.root[cocycle.any(axis=0)]] = True
        return phase, ~broken[self.root]


_VERIFIED_GENS = {}


def _verified_subgroup_gens(ring, n, spec):
    """Certified generators of ``spec``, one certificate per subgroup: the key
    is the canonical spec, so K_1(0) and K_0(0) share K's certificate and a
    depth above the working level shares depth m's."""
    spec = canonical_spec(spec, ring)
    key = (ring, n, spec)
    if key not in _VERIFIED_GENS:
        verify_generators(spec, ring, n)
        _VERIFIED_GENS[key] = subgroup_generators(spec, ring, n)
    return _VERIFIED_GENS[key]


class PSeriesModel:
    """chi-induced model of a principal-series restriction at level M."""

    def __init__(self, chars, n=None, rng=None):
        chars = tuple(chars)
        if n is None:
            n = len(chars)
        if len(chars) != n:
            raise ValueError("need one inducing character per diagonal slot")
        ring = chars[0].ring
        if any(ch.ring != ring for ch in chars):
            raise ValueError("all characters must live at the working level")
        if ring.m < max(ch.c for ch in chars):
            raise ValueError("working level below a character conductor")
        self.ring = ring
        self.n = n
        self.chars = chars
        self.chi_pi = chars[0]
        for ch in chars[1:]:
            self.chi_pi = self.chi_pi * ch
        self.c_declared = sum(ch.c for ch in chars)
        self.L = self.chi_pi.order
        self._roots = np.exp(2j * np.pi * np.arange(self.L) / self.L)
        rng = rng if rng is not None else np.random.default_rng(0)
        # flag_cosets checks its budget before the certificate allocates anything
        self.cosets = flag_cosets(ring, n)
        _verified_subgroup_gens(ring, n, SubgroupSpec("K"))
        self.dim = self.cosets.size
        self._invariants = {}
        self._action_cache = {}
        self._spot_check(rng)

    # -- action ---------------------------------------------------------

    def _monomials(self, K, rows=None):
        """(perm, rot) of shape (C, R) for a (C, n, n) stack K and R coset
        rows (every row by default): (pi(K[c])f)[rows[r]] = w^rot[c, r]
        f[perm[c, r]], w = e^{2 pi i/L}, where rot sums the characters'
        rotation indices at the pivots of reps[rows[r]] K[c]."""
        perm, pivots = self.cosets.act(K, rows)
        return perm, self._rotations(pivots)

    def _rotations(self, pivots):
        """Rotation index of the inducing character at each pivot row of a
        (..., n) array: the characters' indices summed mod L."""
        return sum(ch._nums[pivots[..., j]] for j, ch in enumerate(self.chars)) % self.L

    def _actions(self, K, rows=None):
        """(lo, perm, rot) for consecutive chunks K[lo:lo + len(perm)] of a
        (C, n, n) stack, on the coset ``rows`` (every row by default); a
        chunk's pairs (k, row) take at most ACTION_CHUNK_BYTES by
        ``_action_bytes``, and a chunk holds at least one k.  Nothing is
        cached."""
        width = self.dim if rows is None else len(rows)
        # the subset goes by keyword and only when given: _monomials(K) alone stays whole
        subset = {} if rows is None else {"rows": rows}
        step = max(1, ACTION_CHUNK_BYTES // (_action_bytes(self.n) * width))
        for lo in range(0, len(K), step):
            yield (lo, *self._monomials(K[lo : lo + step], **subset))

    def _monomial(self, k):
        """Cached (perm, rot) of one k: the shared generator table's
        permutation, and the rotation indices at its pivots."""
        a = np.asarray(k, dtype=np.int64)
        key = a.tobytes()
        if key not in self._action_cache:
            perm, pivots = self.cosets.table(a)
            self._action_cache[key] = (perm, self._rotations(pivots))
        return self._action_cache[key]

    def action_of(self, k):
        """(perm, scale) with (pi(k)f)[i] = scale[i] * f[perm[i]]."""
        perm, rot = self._monomial(k)
        return perm, self._roots[rot]

    def apply(self, action, v):
        perm, scale = action
        return scale * v[perm]

    def translate_sum(self, coeffs, K, v):
        """sum_c coeffs[c] pi(K[c]) v over a (C, n, n) stack, chunk by chunk."""
        acc = np.zeros(self.dim, dtype=np.complex128)
        for lo, perm, rot in self._actions(K):
            acc += coeffs[lo : lo + len(perm)] @ (self._roots[rot] * v[perm])
        return acc

    def ip(self, v, w):
        return (v @ w.conj()) / self.dim

    def _spot_check(self, rng, trials=6):
        """Action tables verified: homomorphism and central character.  The
        sampled ks go through the chunked stack, not the generator cache."""
        g = random_stack(self.ring, self.n, 2 * trials, rng)
        g1, g2 = g[0::2], g[1::2]
        units = self.ring.units()
        a = int(units[rng.integers(0, len(units))])
        centre = np.diag([a] * self.n)[None]
        K = np.concatenate([g1, g2, self.ring.matmul(g1, g2), centre])
        perm, rot = np.empty((2, len(K), self.dim), dtype=np.int64)
        for lo, p, r in self._actions(K):
            perm[lo : lo + len(p)], rot[lo : lo + len(p)] = p, r
        p1, p2, p12 = perm[:-1].reshape(3, trials, -1)
        r1, r2, r12 = rot[:-1].reshape(3, trials, -1)
        if not (
            np.array_equal(p12, np.take_along_axis(p2, p1, axis=1))
            and np.array_equal(r12, (r1 + np.take_along_axis(r2, p1, axis=1)) % self.L)
        ):
            raise RuntimeError("action tables are not a homomorphism")
        if not (np.array_equal(perm[-1], np.arange(self.dim)) and (rot[-1] == self.chi_pi._nums[a]).all()):
            raise RuntimeError("central character mismatch in the model")

    # -- invariants and the newform ---------------------------------------

    def orbit_lines(self, spec, twists=None):
        """Orthonormal rows w^phase / sqrt|O|, one per orbit O of the verified
        generators of ``spec`` on which the cocycle twisted by the rotation
        indices ``twists`` (all 0 by default) closes."""
        gens = _verified_subgroup_gens(self.ring, self.n, spec)
        tree = self.cosets.orbit_tree(spec)
        rots = [self._monomial(g)[1] for g in gens]
        phase, closed = tree.phases(rots, [0] * len(gens) if twists is None else twists, self.L)
        root = tree.root
        on = np.flatnonzero(closed)
        heads, row = np.unique(root[on], return_inverse=True)
        basis = np.zeros((len(heads), self.dim), dtype=np.complex128)
        basis[row, on] = self._roots[phase[on]] / np.sqrt(np.bincount(root)[root[on]])
        return basis

    def invariant_space(self, ell, kind="K1"):
        """Orthonormal basis (rows) of the depth-ell invariant subspace.

        kind "K1": plain invariance; kind "K0chi": equivariance against the
        bottom-right character of the central restriction.
        """
        key = (ell, kind)
        if key in self._invariants:
            return self._invariants[key]
        spec = SubgroupSpec("K1" if kind == "K1" else "K0", ell)
        gens = _verified_subgroup_gens(self.ring, self.n, spec)
        twists = None if kind == "K1" else self.chi_pi._nums[gens[:, self.n - 1, self.n - 1]]
        self._invariants[key] = self.orbit_lines(spec, twists)
        return self._invariants[key]

    def invariant_dims(self, ell, kind="K1"):
        return self.invariant_space(ell, kind).shape[0]

    def graded_dims(self):
        """Dimensions of the successive quotients of the nested invariant spaces."""
        dims = [self.invariant_dims(ell) for ell in range(self.ring.m + 1)]
        return [b - a for a, b in zip([0] + dims, dims)]

    def newform(self):
        """Unit vector spanning the minimal invariant line, plus its depth.

        Hard failure when the empirical conductor differs from the declared
        sum of character conductors; ConductorNotVisible when the working
        level cannot host the newform at all.
        """
        for ell in range(self.ring.m + 1):
            basis = self.invariant_space(ell)
            if basis.shape[0]:
                if ell != self.c_declared:
                    raise RuntimeError(f"empirical conductor {ell} != declared {self.c_declared}")
                if basis.shape[0] != 1:
                    raise RuntimeError("newform space is not one-dimensional")
                v = basis[0]
                return v / np.sqrt(self.ip(v, v).real), ell
        raise ConductorNotVisible(
            f"no invariant vectors up to level {self.ring.m}; declared conductor {self.c_declared}"
        )

    def equivariance_residual(self, v):
        """Max residual of K_0(p^c)-equivariance against the model character,
        and the index of the depth-c generator where it occurs."""
        c = self.c_declared
        gens = _verified_subgroup_gens(self.ring, self.n, SubgroupSpec("K0", c))
        errs = []
        for g in gens:
            d = int(g[self.n - 1, self.n - 1])
            want = self.chi_pi(d) if self.ring.is_unit(d) else 1.0
            got = self.apply(self.action_of(g), v)
            errs.append(float(np.abs(got - want * v).max()))
        return _worst(np.array(errs))

    def expected_coefficients(self, K):
        """Three-case closed form for the newform matrix coefficient at each k
        of an (N, n, n) stack, from the depth of its bottom-left entries and
        the character at its bottom-right entry."""
        ring, n, c = self.ring, self.n, self.c_declared
        K = np.asarray(K, dtype=np.int64).reshape(-1, n, n)
        depth = double_coset_index(ring, K)
        d = K[:, n - 1, n - 1]
        chi_d = np.where(ring.val_arr(d) == 0, self.chi_pi.eval_arr(d), 1.0)
        inner = depth >= min(c, ring.m)
        out = np.where(inner, chi_d, 0.0)
        if c > self.chi_pi.c:
            shell = ~inner & (depth == c - 1)
            out[shell] = complex(zonal_shell_coefficient(ring.q, n, c)) * chi_d[shell]
        return out

    def coefficient_residual(self, v0, ks):
        """Worst |<pi(k) v0, v0>/<v0, v0> - expected_coefficients| over ks,
        and the index in ks where it occurs (None when ks is empty).  Only the
        coset rows where v0 is non-zero are acted on: the others add exact
        zeros to the inner product."""
        K = np.asarray(ks, dtype=np.int64).reshape(-1, self.n, self.n)
        norm = self.ip(v0, v0)
        supp = np.flatnonzero(v0)
        right = v0[supp].conj()
        got = np.empty(len(K), dtype=np.complex128)
        for lo, perm, rot in self._actions(K, rows=supp):
            got[lo : lo + len(perm)] = (self._roots[rot] * v0[perm]) @ right / self.dim / norm
        return _worst(np.abs(got - self.expected_coefficients(K)))


def build_model(chars, n=None, rng=None):
    return PSeriesModel(chars, n=n, rng=rng)


def mirab_average(model, v):
    """Orthogonal projection onto the stabiliser-invariant vectors.

    Equals the group average because the action is unitary for the
    coset-uniform inner product; orbit by orbit it is the sum over closing
    orbits O of u_O <v, u_O> / |O|, with u_O = e^{2 pi i phase/L} on O.
    """
    basis = model.orbit_lines(SubgroupSpec("Kmirab"))
    return basis.T @ (basis.conj() @ v)


def vector_from_harmonic(model, space, P, v0, method, budget=120000):
    """Distinguished-type vector attached to a harmonic function.

    v = dim * avg over the group of P(e_n k^{-1}) pi(k) v0, either by
    exhaustive enumeration ("enumerate", refused above ``budget`` group
    elements) or by restructuring the sum over sphere points ("coset", one
    stabiliser coset per point).
    """
    if space.ring != model.ring or space.n != model.n:
        raise ValueError("sphere space and model must share ring and n")
    ring, n = model.ring, model.n
    dim_tau = dim_harmonic(ring.q, n, model.c_declared, model.chi_pi.c)
    order = group_order(ring, n)
    if method == "enumerate":
        if order > budget:
            raise BudgetExceededError(f"group order {order} exceeds budget {budget}")
        ks = group_stack(ring, n)
        coeffs = P[space.index.idx(mat_inv(ring, ks)[:, n - 1])]  # P(e_n k^{-1})
        on = np.flatnonzero(coeffs)
        return dim_tau * model.translate_sum(coeffs[on], ks[on], v0) / order
    if method == "coset":
        w = mirab_average(model, v0)
        on = np.flatnonzero(P)
        hinv = mat_inv(ring, _complete_to_invertible(ring, space.points[on]))
        return dim_tau * model.translate_sum(P[on], hinv, w) / space.size
    raise ValueError(f"unknown method {method!r}")
