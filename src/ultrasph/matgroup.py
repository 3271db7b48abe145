"""GL_n(O/p^M), its congruence subgroups, and double coset witnesses.

All matrices live at a fixed working level M; subgroup specifications
with depth l <= M are membership predicates on level-M matrices.
Generating sets are proposed from elementary matrices and diagonal
units, then verified, either by breadth-first closure when the subgroup
is small enough, or by a constructive membership certificate: random
subgroup elements are factored into generator powers and the
factorisation is re-multiplied exactly.

Uniform samples of K and K_0(p^l) are drawn as whole stacks by rejection,
one random draw and one stacked determinant per batch.  Each batch rewinds
the generator to just past the last candidate it keeps, so a stack consumes
exactly the stream of the one-at-a-time loop it replaces: a seed gives the
same samples, and the same later draws, whatever the batch size.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations, product

import numpy as np

from .ring import unit_group_basis, unit_subgroup_basis


SAMPLE_BATCH_BYTES = 1 << 21  # Leibniz terms of one batch of sampler candidates


class BudgetExceededError(RuntimeError):
    pass


class MatK:
    """An invertible n x n matrix over a RingLevel (unit determinant)."""

    __slots__ = ("ring", "n", "a")

    def __init__(self, ring, a, check=True):
        a = np.asarray(a, dtype=np.int64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("square matrix required")
        self.ring = ring
        self.n = a.shape[0]
        self.a = a
        if check and not ring.is_unit(det(ring, a)):
            raise ValueError("determinant is not a unit")

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, np.eye(n, dtype=np.int64), check=False)

    def __matmul__(self, other):
        if other.ring != self.ring:
            raise ValueError("ring mismatch")
        return MatK(self.ring, self.ring.matmul(self.a, other.a), check=False)

    def inverse(self):
        return MatK(self.ring, mat_inv(self.ring, self.a), check=False)

    def det(self):
        return det(self.ring, self.a)

    def reduce_to(self, ell):
        low = self.ring.at_level(ell)
        return MatK(low, self.ring.reduce_arr(self.a, ell), check=False)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = MatK.identity(self.ring, self.n)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    def key(self):
        return self.a.tobytes()

    def __eq__(self, other):
        return (
            isinstance(other, MatK)
            and self.ring == other.ring
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.ring, self.key()))

    def __repr__(self):
        rows = [
            "[" + " ".join(self.ring.element_str(c) for c in row) + "]"
            for row in self.a.tolist()
        ]
        return "MatK(" + "; ".join(rows) + ")"


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


def subgroup_membership(k, spec):
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


def _elem(ring, n, i, j, x):
    a = np.eye(n, dtype=np.int64)
    a[i, j] = x
    return MatK(ring, a, check=False)


def _diag(ring, n, pos, u):
    a = np.eye(n, dtype=np.int64)
    a[pos, pos] = u
    return MatK(ring, a, check=False)


def _scalar(ring, n, u):
    a = np.eye(n, dtype=np.int64) * np.int64(0)
    for i in range(n):
        a[i, i] = u
    return MatK(ring, a, check=False)


def _gl_generators(ring, n):
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for b in additive_generators(ring, 0):
                    gens.append(_elem(ring, n, i, j, b))
    for g in unit_group_basis(ring).gens:
        gens.append(_diag(ring, n, n - 1, g))
    return gens


def subgroup_generators(spec, ring, n):
    """Proposed generators; see ``verify_generators`` for the certificate.

    The identity is returned for subgroups that collapse to the trivial
    group at the working level, so closures always start somewhere.
    """
    ell = spec.level
    if spec.kind == "K" or (spec.kind in ("Kprin", "K1", "K0") and ell == 0):
        return _gl_generators(ring, n)
    if spec.kind == "Kprin":
        gens = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for b in additive_generators(ring, ell):
                    gens.append(_elem(ring, n, i, j, b))
        for i in range(n):
            for v in unit_subgroup_basis(ring, ell).gens:
                gens.append(_diag(ring, n, i, v))
        return gens or [MatK.identity(ring, n)]
    if spec.kind == "Kmirab":
        gens = []
        if n > 2:
            for g in _gl_generators(ring, n - 1):
                a = np.eye(n, dtype=np.int64)
                a[: n - 1, : n - 1] = g.a
                gens.append(MatK(ring, a, check=False))
        else:
            for u in unit_group_basis(ring).gens:
                gens.append(_diag(ring, n, 0, u))
        for i in range(n - 1):
            for b in additive_generators(ring, 0):
                gens.append(_elem(ring, n, i, n - 1, b))
        return gens
    if spec.kind == "K1":
        # K_{n-1,1} * K(p^l) = K_1(p^l)
        return subgroup_generators(SubgroupSpec("Kmirab"), ring, n) + subgroup_generators(
            SubgroupSpec("Kprin", ell), ring, n
        )
    if spec.kind == "K0":
        # Z(O) * K_1(p^l) = K_0(p^l)
        return subgroup_generators(SubgroupSpec("K1", ell), ring, n) + [
            _scalar(ring, n, u) for u in unit_group_basis(ring).gens
        ]
    raise AssertionError


def group_order(ring, n):
    """|GL_n(O/p^m)| = q^((m-1)n^2) * prod_{i<n} (q^n - q^i)."""
    q, m = ring.q, ring.m
    out = q ** ((m - 1) * n * n)
    for i in range(n):
        out *= q**n - q**i
    return out


def subgroup_order(spec, ring, n):
    q, m = ring.q, ring.m
    ell = spec.level if spec.level is not None else None
    if spec.kind == "K" or (ell == 0 and spec.kind in ("Kprin", "K1", "K0")):
        return group_order(ring, n)
    if spec.kind == "Kprin":
        ell = min(ell, m)
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


def orbit_stack(ring, start, gens, canon=None, budget=None):
    """Breadth-first orbit of the (n, n) matrix ``start`` under right
    multiplication by the (n, n) arrays ``gens``, as an (N, n, n) stack.

    ``canon`` maps a product stack to the representatives it stands for
    (cosets); without it the products themselves are the elements.  Each
    layer multiplies the frontier by every generator, generator-major, and
    keeps the first occurrence of each key not seen before, in stack order,
    so the order is that of a one-at-a-time BFS.  Raises
    BudgetExceededError when the orbit outgrows ``budget``.
    """
    frontier = np.asarray(start, dtype=np.int64)[None]
    layers = [frontier]
    seen = row_keys(ring, frontier)
    total = 1
    while len(frontier):
        cand = np.concatenate([ring.matmul(frontier, g) for g in gens])
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


def closure(gens, budget=200000):
    """Breadth-first closure of a generating set of MatK, as an (N, n, n)
    stack with the identity first; raises past the budget."""
    if not gens:
        return []
    ring, n = gens[0].ring, gens[0].n
    return orbit_stack(
        ring, np.eye(n, dtype=np.int64), [g.a for g in gens], budget=budget
    )


def verify_generators(spec, ring, n, budget=200000, rng=None, samples=25):
    """Certificate that the proposed generators generate the subgroup.

    Small subgroups are closed exhaustively and the size compared with the
    index formula.  Larger ones get a sampled constructive certificate:
    every generator satisfies the membership predicate, and random
    subgroup elements factor into generator powers that re-multiply
    exactly.
    """
    gens = subgroup_generators(spec, ring, n)
    expected = subgroup_order(spec, ring, n)
    for g in gens:
        if not subgroup_membership(g, spec):
            raise RuntimeError(f"proposed generator outside {spec}")
    if expected <= budget:
        got = len(closure(gens, budget=budget))
        if got != expected:
            raise RuntimeError(
                f"closure of {spec} generators has size {got}, expected {expected}"
            )
        return {"method": "closure", "size": got, "ok": True}
    rng = rng if rng is not None else np.random.default_rng(0)
    gen_keys = {g.key() for g in gens}
    for _ in range(samples):
        k = random_subgroup_element(spec, ring, n, rng)
        fac = factor_into_generators(k, spec)
        prod_mat = MatK.identity(ring, n)
        for base, e in fac:
            if base.key() not in gen_keys:
                raise RuntimeError(f"factorisation emitted a non-generator for {spec}")
            prod_mat = prod_mat @ base**e
        if prod_mat != k:
            raise RuntimeError(f"factorisation certificate failed for {spec}")
    return {"method": "factorisation", "samples": samples, "ok": True}


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
    return MatK(ring, random_stack(ring, n, 1, rng)[0], check=False)


def random_in_K0(ring, n, ell, rng):
    """Uniform on K_0(p^ell): bottom-left entries drawn from p^ell."""
    return MatK(ring, random_stack(ring, n, 1, rng, ell=ell)[0], check=False)


def random_subgroup_element(spec, ring, n, rng):
    if spec.kind == "K" or spec.level == 0:
        return random_in_K(ring, n, rng)
    if spec.kind == "Kmirab":
        while True:
            a = rng.integers(0, ring.size, size=(n, n)).astype(np.int64)
            a[n - 1, : n - 1] = 0
            a[n - 1, n - 1] = 1
            if ring.is_unit(det(ring, a)):
                return MatK(ring, a, check=False)
    ell, step = spec.level, ring.q ** min(spec.level, ring.m)
    if spec.kind == "K0":
        return random_in_K0(ring, n, ell, rng)
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


# -- constructive factorisation into generators ------------------------------


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


def factor_into_generators(k, spec):
    """Write k as an ordered product of generator powers of the subgroup.

    Raises if k fails the membership predicate.  The factor list multiplies
    back to k exactly; this is the membership certificate used when the
    subgroup is too large to close exhaustively.
    """
    if not subgroup_membership(k, spec):
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
        return factor_into_generators(mirk, SubgroupSpec("Kmirab")) + factor_into_generators(
            prink, SubgroupSpec("Kprin", ell)
        )
    if spec.kind == "K0":
        d = int(k.a[n - 1, n - 1])
        rest = _scalar(ring, n, ring.inv(d)) @ k
        return _emit_scalar(ring, n, d) + factor_into_generators(
            rest, SubgroupSpec("K1", ell)
        )
    raise AssertionError


# -- double cosets -----------------------------------------------------------


def u_ell(ring, n, ell):
    """The matrix with bottom row (0, ..., 0, w^ell, 1) and 1s on the diagonal."""
    a = np.eye(n, dtype=np.int64)
    a[n - 1, n - 2] = ring.uniformizer_pow(ell)
    return MatK(ring, a, check=False)


def double_coset_index(k, m):
    """min(m, min valuation of the bottom-left block)."""
    ring, n = k.ring, k.n
    vals = ring.val_arr(k.a[n - 1, : n - 1])
    return int(min(m, vals.min()))


def chang_beta(ring, a, c):
    """Column beta with det(a - beta*c) a unit; c must have a unit entry.

    The search runs over residue-field representatives only, since the
    determinant condition is decided mod p.
    """
    nm1 = a.shape[0]
    c = c.reshape(1, nm1)
    if not (ring.val_arr(c) == 0).any():
        raise ValueError("c must lie on the sphere")
    reps = [lift for lift in range(ring.q)]
    for cand in product(reps, repeat=nm1):
        beta = np.array(cand, dtype=np.int64).reshape(nm1, 1)
        test = ring.sub_arr(a, ring.matmul(beta, c))
        if ring.is_unit(det(ring, test)):
            return beta
    raise RuntimeError("no beta found; this contradicts the double coset lemma")


def _complete_to_invertible(ring, s):
    """An invertible matrix whose bottom row is s (s has a unit entry)."""
    nm1 = s.shape[0]
    piv = int(np.nonzero(ring.val_arr(s) == 0)[0][0])
    rows = [np.eye(nm1, dtype=np.int64)[t] for t in range(nm1) if t != piv]
    rows.append(s)
    return np.array(rows, dtype=np.int64)


def double_coset_witness(k, m):
    """(k0, ell, k0p) with k = k0 . u_ell . k0p and k0, k0p in K_0(p^m)."""
    ring, n = k.ring, k.n
    ell = double_coset_index(k, m)
    if ell == m:
        k0 = k @ u_ell(ring, n, m).inverse()
        return k0, m, MatK.identity(ring, n)
    a = k.a[: n - 1, : n - 1]
    b = k.a[: n - 1, n - 1 :]
    c = k.a[n - 1 : n, : n - 1]
    d = int(k.a[n - 1, n - 1])
    if ell >= 1:
        ainv = mat_inv(ring, a)
        ca = ring.matmul(c, ainv)
        s = ring.shift_down(ca, ell).reshape(-1)
        alpha_inv = _complete_to_invertible(ring, s)
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
    beta = chang_beta(ring, a, k.a[n - 1, : n - 1])
    abc = ring.sub_arr(a, ring.matmul(beta, c))
    abc_inv = mat_inv(ring, abc)
    s = ring.matmul(c, abc_inv).reshape(-1)
    alpha_inv = _complete_to_invertible(ring, s)
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
    """Stream all of GL_n(O/p^m) as MatK, in ``group_stack`` order."""
    for a in group_stack(ring, n):
        yield MatK(ring, a, check=False)
