"""Finite-level models of principal-series restrictions to GL_n(O).

The model space is the set of functions f on G = GL_n(O/p^M) with
f(bg) = prod_j chi_j(b_jj) f(g) for upper-triangular b, acted on by
right translation.  Functions are stored by their values on canonical
coset representatives of B\\G, computed by bottom-up row pivoting with
unit pivots scaled to 1 and entries above pivots cleared.

K acts by monomial matrices: a permutation of the coset slots times a
phase e^{2 pi i rot/L}, rot an exact rotation index mod the exponent L of
the character group.  Invariant and equivariant subspaces are exact orbit
and cocycle counts, one line per generator orbit on which the phase
cocycle closes (Mackey; Serre, Linear Representations of Finite Groups,
7.3), with no tolerance and no SVD.

The strongest end-to-end integrity check lives here: the declared
conductor (sum of the character conductors) must coincide with the
least depth at which invariant vectors appear, and any disagreement is
a hard error.
"""

from __future__ import annotations

import numpy as np

from .harmonics import _worst, dim_harmonic, zonal_shell_coefficient
from .matgroup import (
    BudgetExceededError,
    SubgroupSpec,
    _complete_to_invertible,
    canonical_spec,
    double_coset_index,
    find_keys,
    group_order,
    group_stack,
    mat_inv,
    orbit_stack,
    random_stack,
    row_keys,
    subgroup_generators,
    verify_generators,
)
from .sphere import orbit_labels

COSET_BUDGET = 300000  # flag cosets a model may hold
ACTION_CHUNK_BYTES = 1 << 21  # products reps k formed at once for a stack of ks


class ConductorNotVisible(RuntimeError):
    """The working level is too small for the newform to appear."""


def flag_count(ring, n):
    nu = len(ring.units())
    b_order = nu**n * ring.size ** (n * (n - 1) // 2)
    return group_order(ring, n) // b_order


def flag_canon(ring, a):
    """Canonical representative of the left B-coset of ``a``, or of each
    matrix in an (N, n, n) stack.

    Returns (rep, pivots): rep = T a for upper-triangular T, with pivot
    rows scaled to 1 and entries above pivots cleared; pivots[i] is the
    diagonal of the B-factor a rep^{-1}.  Rows are processed bottom-up and
    each takes its first free unit column as pivot.  A single matrix gives
    pivots as a list of ints, a stack as an (N, n) array.
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    A = a.reshape(-1, n, n).copy()
    N = A.shape[0]
    rows = np.arange(N)
    piv_cols = np.zeros((N, n), dtype=np.int64)
    piv_vals = np.ones((N, n), dtype=np.int64)
    free = np.ones((N, n), dtype=bool)
    for i in range(n - 1, -1, -1):
        # clear bottom-up: row r is zero at the pivots of rows below it, so
        # later subtractions cannot repollute columns cleared earlier
        for r in range(n - 1, i, -1):
            x = A[rows, i, piv_cols[:, r]]
            A[:, i] = ring.sub_arr(A[:, i], ring.mul_arr(x[:, None], A[:, r]))
        cand = free & (ring.val_arr(A[:, i]) == 0)
        if not cand.any(axis=1).all():
            raise ValueError("matrix is not invertible: no unit pivot")
        j = cand.argmax(axis=1)
        piv_cols[:, i] = j
        piv_vals[:, i] = A[rows, i, j]
        free[rows, j] = False
        A[:, i] = ring.mul_arr(ring.inv_arr(piv_vals[:, i])[:, None], A[:, i])
    if a.ndim == 2:
        return A[0], [int(v) for v in piv_vals[0]]
    return A, piv_vals


class FlagCosets:
    """Canonical representatives of B\\G, found by closure from the identity,
    and the character-free structure that every model at (ring, n) shares.

    Reaching the full count certifies transitivity of the generated group
    on the flag space.  ``keys`` holds the reps' keys sorted and ``slots``
    the rep slot of each sorted key.  ``table`` caches one generator's slot
    permutation and pivots, ``orbit_tree`` one subgroup's orbits and
    breadth-first forest.  Build it through ``flag_cosets``, which checks
    COSET_BUDGET first.
    """

    def __init__(self, ring, n, gens):
        expected = flag_count(ring, n)
        self.ring = ring
        self.n = n
        start, _ = flag_canon(ring, np.eye(n, dtype=np.int64))
        reps = orbit_stack(ring, start, gens, canon=lambda s: flag_canon(ring, s)[0])
        if len(reps) != expected:
            raise RuntimeError(f"flag closure found {len(reps)} cosets, expected {expected}")
        self.reps = reps
        keys = row_keys(ring, reps)
        self.slots = np.argsort(keys)
        self.keys = keys[self.slots]
        self.size = expected
        self._tables = {}
        self._trees = {}

    def slot_of(self, canon):
        """Rep slot of each canonical representative in an (N, n, n) stack."""
        return self.slots[find_keys(self.keys, row_keys(self.ring, canon))]

    def act(self, K, rows=None):
        """(slots, pivots) of shapes (C, R) and (C, R, n) for a (C, n, n)
        stack K and R coset rows (every row by default): reps[rows[r]] K[c]
        lies in the coset of slot slots[c, r], and pivots[c, r] is the
        diagonal of its B-factor."""
        K = np.asarray(K, dtype=np.int64)
        reps = self.reps if rows is None else self.reps[rows]
        prods = self.ring.matmul(reps, K[:, None]).reshape(-1, self.n, self.n)
        canon, pivots = flag_canon(self.ring, prods)
        shape = (len(K), len(reps))
        return self.slot_of(canon).reshape(shape), pivots.reshape(*shape, self.n)

    def table(self, a):
        """Cached (perm, pivots) of one (n, n) matrix on every coset row,
        shared by every model at (ring, n): the generator tables.  Pivots are
        unit codes, kept in the smallest unsigned type that holds a code."""
        a = np.asarray(a, dtype=np.int64)
        key = a.tobytes()
        if key not in self._tables:
            slots, pivots = self.act(a[None])
            self._tables[key] = (slots[0], pivots[0].astype(np.min_scalar_type(self.ring.size - 1)))
        return self._tables[key]

    def orbit_tree(self, spec):
        """Cached OrbitTree of the verified generators of ``spec``, keyed on
        the canonical spec."""
        spec = canonical_spec(spec, self.ring)
        if spec not in self._trees:
            gens = _verified_subgroup_gens(self.ring, self.n, spec)
            self._trees[spec] = OrbitTree([self.table(g)[0] for g in gens])
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
    generator-major order.  ``layers`` holds each layer's (slots, parents)
    and ``edges`` the flat index generator * dim + parent of each slot's
    forest edge, in layer order.  Nothing here depends on a character.
    """

    def __init__(self, perms):
        self.perms = perms
        dim = len(perms[0])
        self.root = orbit_labels(perms, (dim,))
        front = np.flatnonzero(self.root == np.arange(dim))
        seen = np.zeros(dim, dtype=bool)
        seen[front] = True
        self.layers, edges = [], [np.zeros(0, dtype=np.int64)]
        while True:
            tgt, first = np.unique(np.concatenate([s[front] for s in perms]), return_index=True)
            new = ~seen[tgt]
            if not new.any():
                break
            gen, at = np.divmod(first[new], len(front))
            parent, front = front[at], tgt[new]
            seen[front] = True
            self.layers.append((front, parent))
            edges.append(gen * dim + parent)
        self.edges = np.concatenate(edges)

    def phases(self, rots, twists, L):
        """(phase, closed) per slot for the monomial action
        (g f)[i] = w^rots[g][i] f[perms[g][i]], w = e^{2 pi i/L}.

        A vector with g f = w^twists[g] f for every g is c_O w^phase on each
        orbit O when O closes: phase 0 at the root and
        phase[perm[i]] = phase[i] + twist - rot[i] (mod L) on every edge.
        ``closed`` says whether the slot's orbit closes.
        """
        dim = len(self.root)
        twists = np.asarray(twists, dtype=np.int64)
        step = twists[self.edges // dim] - np.stack(rots).ravel()[self.edges]
        phase = np.zeros(dim, dtype=np.int64)
        lo = 0
        for slots, parent in self.layers:
            phase[slots] = (phase[parent] + step[lo : lo + len(slots)]) % L
            lo += len(slots)
        broken = np.zeros(dim, dtype=bool)
        for s, r, t in zip(self.perms, rots, twists):
            broken[self.root[(phase[s] - phase + r - t) % L != 0]] = True
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
        chunk's products reps k take at most ACTION_CHUNK_BYTES, and a chunk
        holds at least one k.  Nothing is cached."""
        width = self.dim if rows is None else len(rows)
        # the subset goes by keyword and only when given: _monomials(K) alone stays whole
        subset = {} if rows is None else {"rows": rows}
        step = max(1, ACTION_CHUNK_BYTES // (8 * self.n * self.n * width))
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
        chunks = [(p, r) for _, p, r in self._actions(K)]
        perm, rot = (np.concatenate(t) for t in zip(*chunks))
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
