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

from .harmonics import dim_harmonic, zonal_shell_coefficient
from .matgroup import (
    BudgetExceededError,
    SubgroupSpec,
    _complete_to_invertible,
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
    """Canonical representatives of B\\G, found by closure from the identity.

    Reaching the full count certifies transitivity of the generated group
    on the flag space.  ``keys`` holds the reps' keys sorted and ``slots``
    the rep slot of each sorted key.
    """

    def __init__(self, ring, n, gens):
        expected = flag_count(ring, n)
        if expected > COSET_BUDGET:
            raise BudgetExceededError(f"{expected} cosets exceed budget {COSET_BUDGET}")
        self.ring = ring
        self.n = n
        start, _ = flag_canon(ring, np.eye(n, dtype=np.int64))
        reps = orbit_stack(ring, start, [g.a for g in gens], canon=lambda s: flag_canon(ring, s)[0])
        if len(reps) != expected:
            raise RuntimeError(f"flag closure found {len(reps)} cosets, expected {expected}")
        self.reps = reps
        keys = row_keys(ring, reps)
        self.slots = np.argsort(keys)
        self.keys = keys[self.slots]
        self.size = expected

    def slot_of(self, canon):
        """Rep slot of each canonical representative in an (N, n, n) stack."""
        return self.slots[find_keys(self.keys, row_keys(self.ring, canon))]


def monomial_orbits(perms, rots, twists, L):
    """Exact invariants of a monomial action: orbits and closing cocycles.

    Generator g acts by (g f)[i] = w^rots[g][i] f[perms[g][i]], w = e^{2 pi i/L}.
    A vector with g f = w^twists[g] f for every g is c_O w^phase on each orbit
    O, with phase[perm[i]] = phase[i] + twist - rot[i] (mod L) on every edge
    when O closes.  Returns per-slot arrays (root, phase, closed): the least
    slot of the orbit (phase 0 there), the phase, and whether O closes.
    """
    dim = len(perms[0])
    # min-label propagation along the generators and their inverses, with pointer jumping
    steps = perms + [np.argsort(s) for s in perms]
    root = np.arange(dim)
    while True:
        prev = root
        for s in steps:
            root = np.minimum(root, root[s])
        root = root[root]
        if np.array_equal(root, prev):
            break
    # phases: one breadth-first pass from every root at once
    phase = np.full(dim, -1, dtype=np.int64)
    front = np.flatnonzero(root == np.arange(dim))
    phase[front] = 0
    while front.size:
        tgt = np.concatenate([s[front] for s in perms])
        ph = np.concatenate([(phase[front] + t - r[front]) % L for r, t in zip(rots, twists)])
        tgt, first = np.unique(tgt, return_index=True)
        new = phase[tgt] < 0
        front = tgt[new]
        phase[front] = ph[first[new]]
    broken = np.zeros(dim, dtype=bool)
    for s, r, t in zip(perms, rots, twists):
        broken[root[(phase[s] - phase + r - t) % L != 0]] = True
    return root, phase, ~broken[root]


_VERIFIED_GENS = {}


def _verified_subgroup_gens(ring, n, spec):
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
        # FlagCosets checks its budget before the certificate allocates anything
        self.cosets = FlagCosets(ring, n, subgroup_generators(SubgroupSpec("K"), ring, n))
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
        K = np.asarray(K, dtype=np.int64)
        reps = self.cosets.reps if rows is None else self.cosets.reps[rows]
        prods = self.ring.matmul(reps, K[:, None]).reshape(-1, self.n, self.n)
        canon, pivots = flag_canon(self.ring, prods)
        rot = sum(ch._nums[pivots[:, j]] for j, ch in enumerate(self.chars)) % self.L
        shape = (len(K), len(reps))
        return self.cosets.slot_of(canon).reshape(shape), rot.reshape(shape)

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
        """Cached (perm, rot) of one k: the generator tables."""
        a = np.asarray(getattr(k, "a", k))
        key = a.tobytes()
        if key not in self._action_cache:
            perm, rot = self._monomials(a[None])
            self._action_cache[key] = (perm[0], rot[0])
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

    def orbit_lines(self, gens, twists):
        """Orthonormal rows w^phase / sqrt|O|, one per orbit O of ``gens`` on
        which the cocycle twisted by the rotation indices ``twists`` closes."""
        perms, rots = zip(*(self._monomial(g) for g in gens))
        root, phase, closed = monomial_orbits(list(perms), rots, twists, self.L)
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
        n = self.n
        twists = [0 if kind == "K1" else self.chi_pi._nums[g.a[n - 1, n - 1]] for g in gens]
        self._invariants[key] = self.orbit_lines(gens, twists)
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
            d = int(g.a[self.n - 1, self.n - 1])
            want = self.chi_pi(d) if self.ring.is_unit(d) else 1.0
            got = self.apply(self.action_of(g), v)
            errs.append(float(np.abs(got - want * v).max()))
        at = int(np.argmax(errs))
        return errs[at], at

    def expected_coefficients(self, K):
        """Three-case closed form for the newform matrix coefficient at each k
        of an (N, n, n) stack, from the depth of its bottom-left entries and
        the character at its bottom-right entry."""
        ring, n, c = self.ring, self.n, self.c_declared
        K = np.asarray(K, dtype=np.int64).reshape(-1, n, n)
        depth = np.minimum(ring.m, ring.val_arr(K[:, n - 1, : n - 1]).min(axis=1))
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
        K = np.array([getattr(k, "a", k) for k in ks], dtype=np.int64).reshape(-1, self.n, self.n)
        norm = self.ip(v0, v0)
        supp = np.flatnonzero(v0)
        right = v0[supp].conj()
        got = np.empty(len(K), dtype=np.complex128)
        for lo, perm, rot in self._actions(K, rows=supp):
            got[lo : lo + len(perm)] = (self._roots[rot] * v0[perm]) @ right / self.dim / norm
        err = np.abs(got - self.expected_coefficients(K))
        if not len(err):
            return 0.0, None
        worst = int(err.argmax())
        return float(err[worst]), worst


def build_model(chars, n=None, rng=None):
    return PSeriesModel(chars, n=n, rng=rng)


def mirab_average(model, v):
    """Orthogonal projection onto the stabiliser-invariant vectors.

    Equals the group average because the action is unitary for the
    coset-uniform inner product; orbit by orbit it is the sum over closing
    orbits O of u_O <v, u_O> / |O|, with u_O = e^{2 pi i phase/L} on O.
    """
    gens = _verified_subgroup_gens(model.ring, model.n, SubgroupSpec("Kmirab"))
    basis = model.orbit_lines(gens, [0] * len(gens))
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
        hx = [_complete_to_invertible(ring, space.points[xi]) for xi in on]
        hinv = mat_inv(ring, np.array(hx, dtype=np.int64).reshape(-1, n, n))
        return dim_tau * model.translate_sum(P[on], hinv, w) / space.size
    raise ValueError(f"unknown method {method!r}")
