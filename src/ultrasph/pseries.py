"""Finite-level models of principal-series restrictions to GL_n(O).

The model space is the set of functions f on G = GL_n(O/p^M) with
f(bg) = prod_j chi_j(b_jj) f(g) for upper-triangular b, acted on by
right translation.  Functions are stored by their values on canonical
coset representatives of B\\G, computed by bottom-up row pivoting with
unit pivots scaled to 1 and entries above pivots cleared.

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
    MatK,
    SubgroupSpec,
    _complete_to_invertible,
    find_keys,
    group_order,
    group_stack,
    mat_inv,
    orbit_stack,
    row_keys,
    subgroup_generators,
    verify_generators,
)
from .numerics import kernel_basis, orthonormalize_rows


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

    def __init__(self, ring, n, gens, budget=300000):
        expected = flag_count(ring, n)
        if expected > budget:
            raise BudgetExceededError(f"{expected} cosets exceed budget {budget}")
        self.ring = ring
        self.n = n
        start, _ = flag_canon(ring, np.eye(n, dtype=np.int64))
        reps = orbit_stack(
            ring, start, [g.a for g in gens], canon=lambda s: flag_canon(ring, s)[0]
        )
        if len(reps) != expected:
            raise RuntimeError(
                f"flag closure found {len(reps)} cosets, expected {expected}"
            )
        self.reps = reps
        keys = row_keys(ring, reps)
        self.slots = np.argsort(keys)
        self.keys = keys[self.slots]
        self.size = expected

    def slot_of(self, canon):
        """Rep slot of each canonical representative in an (N, n, n) stack."""
        return self.slots[find_keys(self.keys, row_keys(self.ring, canon))]


_VERIFIED_GENS = {}


def _verified_subgroup_gens(ring, n, spec, rng=None, budget=60000, samples=12):
    key = (ring, n, spec)
    if key not in _VERIFIED_GENS:
        verify_generators(spec, ring, n, budget=budget, rng=rng, samples=samples)
        _VERIFIED_GENS[key] = subgroup_generators(spec, ring, n)
    return _VERIFIED_GENS[key]


class PSeriesModel:
    """chi-induced model of a principal-series restriction at level M."""

    def __init__(self, chars, n=None, rng=None, coset_budget=300000):
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
        rng = rng if rng is not None else np.random.default_rng(0)
        self.k_gens = _verified_subgroup_gens(ring, n, SubgroupSpec("K"), rng=rng)
        self.cosets = FlagCosets(ring, n, self.k_gens, budget=coset_budget)
        self.dim = self.cosets.size
        self._invariants = {}
        self._action_cache = {}
        self.gen_actions = [self.action_of(g) for g in self.k_gens]
        self._spot_check(rng)

    # -- action ---------------------------------------------------------

    def _scale_from_pivots(self, pivots):
        out = np.ones(pivots.shape[0], dtype=np.complex128)
        for j, ch in enumerate(self.chars):
            out *= ch.eval_arr(pivots[:, j])
        return out

    def action_of(self, k):
        """(perm, scale) with (pi(k)f)[i] = scale[i] * f[perm[i]]."""
        a = getattr(k, "a", k)
        key = np.asarray(a).tobytes()
        if key in self._action_cache:
            return self._action_cache[key]
        canon, pivots = flag_canon(self.ring, self.ring.matmul(self.cosets.reps, np.asarray(a)))
        action = (self.cosets.slot_of(canon), self._scale_from_pivots(pivots))
        self._action_cache[key] = action
        return action

    def apply(self, action, v):
        perm, scale = action
        return scale * v[perm]

    def rho(self, k_or_action):
        if isinstance(k_or_action, tuple):
            perm, scale = k_or_action
        else:
            perm, scale = self.action_of(k_or_action)
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[np.arange(self.dim), perm] = scale
        return out

    def ip(self, v, w):
        return (v @ w.conj()) / self.dim

    def _spot_check(self, rng, trials=6):
        """Action tables verified: homomorphism and central character."""
        from .matgroup import random_in_K

        for _ in range(trials):
            g1 = random_in_K(self.ring, self.n, rng)
            g2 = random_in_K(self.ring, self.n, rng)
            p1, s1 = self.action_of(g1)
            p2, s2 = self.action_of(g2)
            p12, s12 = self.action_of(g1 @ g2)
            if not (np.array_equal(p12, p2[p1]) and np.abs(s12 - s1 * s2[p1]).max() < 1e-9):
                raise RuntimeError("action tables are not a homomorphism")
        units = self.ring.units()
        a = int(units[rng.integers(0, len(units))])
        za = MatK(self.ring, np.diag([a] * self.n).astype(np.int64), check=False)
        perm, scale = self.action_of(za)
        expected = self.chi_pi(a)
        if not (np.array_equal(perm, np.arange(self.dim)) and np.abs(scale - expected).max() < 1e-9):
            raise RuntimeError("central character mismatch in the model")

    # -- invariants and the newform ---------------------------------------

    def invariant_space(self, ell, kind="K1", rng=None):
        """Orthonormal basis (rows) of the depth-ell invariant subspace.

        kind "K1": plain invariance; kind "K0chi": equivariance against the
        bottom-right character of the central restriction.
        """
        key = (ell, kind)
        if key in self._invariants:
            return self._invariants[key]
        spec = SubgroupSpec("K1" if kind == "K1" else "K0", ell)
        gens = _verified_subgroup_gens(self.ring, self.n, spec, rng=rng)
        blocks = []
        for g in gens:
            r = self.rho(g)
            if kind == "K1":
                blocks.append(r - np.eye(self.dim))
            else:
                d = int(g.a[self.n - 1, self.n - 1])
                blocks.append(r - self.chi_pi(d) * np.eye(self.dim))
        _, basis = kernel_basis(np.concatenate(blocks, axis=0))
        self._invariants[key] = basis
        return basis

    def invariant_dims(self, ell, kind="K1", rng=None):
        return self.invariant_space(ell, kind, rng=rng).shape[0]

    def graded_dims(self, rng=None):
        """Dimensions of the successive orthogonal complements up to level M."""
        out = []
        prev = np.zeros((0, self.dim), dtype=np.complex128)
        for ell in range(self.ring.m + 1):
            cur = self.invariant_space(ell, rng=rng)
            if prev.shape[0]:
                resid = cur - (cur @ prev.conj().T) @ prev
            else:
                resid = cur
            graded = orthonormalize_rows(resid, weight=1.0)
            out.append(graded.shape[0])
            prev = cur
        return out

    def newform(self, rng=None):
        """Unit vector spanning the minimal invariant line, plus its depth.

        Hard failure when the empirical conductor differs from the declared
        sum of character conductors; ConductorNotVisible when the working
        level cannot host the newform at all.
        """
        for ell in range(self.ring.m + 1):
            basis = self.invariant_space(ell, rng=rng)
            if basis.shape[0]:
                if ell != self.c_declared:
                    raise RuntimeError(
                        f"empirical conductor {ell} != declared {self.c_declared}"
                    )
                if basis.shape[0] != 1:
                    raise RuntimeError("newform space is not one-dimensional")
                v = basis[0]
                return v / np.sqrt(self.ip(v, v).real), ell
        raise ConductorNotVisible(
            f"no invariant vectors up to level {self.ring.m}; declared conductor {self.c_declared}"
        )

    def equivariance_residual(self, v, rng=None):
        """Max residual of K_0(p^c)-equivariance against the model character."""
        c = self.c_declared
        gens = _verified_subgroup_gens(self.ring, self.n, SubgroupSpec("K0", c), rng=rng)
        worst = 0.0
        for g in gens:
            d = int(g.a[self.n - 1, self.n - 1])
            want = self.chi_pi(d) if self.ring.is_unit(d) else 1.0
            got = self.apply(self.action_of(g), v)
            worst = max(worst, float(np.abs(got - want * v).max()))
        return worst

    def matrix_coefficient(self, k, v0):
        act = self.action_of(k)
        return self.ip(self.apply(act, v0), v0) / self.ip(v0, v0)

    def expected_coefficient(self, k):
        """Three-case closed form for the newform matrix coefficient."""
        ring, n, q = self.ring, self.n, self.ring.q
        c = self.c_declared
        a = getattr(k, "a", k)
        vals = ring.val_arr(np.asarray(a)[n - 1, : n - 1])
        depth = int(min(ring.m, vals.min()))
        d = int(np.asarray(a)[n - 1, n - 1])
        chi_d = self.chi_pi(d) if ring.is_unit(d) else (1.0 if self.chi_pi.is_trivial else None)
        if depth >= min(c, ring.m):
            return chi_d if chi_d is not None else 1.0
        if c > self.chi_pi.c and depth == c - 1:
            alpha = complex(zonal_shell_coefficient(q, n, c))
            return alpha * chi_d
        return 0.0

    def coefficient_residual(self, v0, ks):
        worst = 0.0
        for k in ks:
            got = self.matrix_coefficient(k, v0)
            want = self.expected_coefficient(k)
            worst = max(worst, abs(got - want))
        return worst


def build_model(chars, n=None, rng=None, coset_budget=300000):
    return PSeriesModel(chars, n=n, rng=rng, coset_budget=coset_budget)


def mirab_average(model, v, rng=None):
    """Orthogonal projection onto the stabiliser-invariant vectors.

    Equals the group average because the action is unitary for the
    coset-uniform inner product.
    """
    gens = _verified_subgroup_gens(model.ring, model.n, SubgroupSpec("Kmirab"), rng=rng)
    blocks = [model.rho(g) - np.eye(model.dim) for g in gens]
    _, basis = kernel_basis(np.concatenate(blocks, axis=0))
    if basis.shape[0] == 0:
        return np.zeros_like(v)
    return basis.T @ (basis.conj() @ v)


def vector_from_harmonic(model, space, P, v0, method="auto", budget=120000, rng=None):
    """Distinguished-type vector attached to a harmonic function.

    v = dim * avg over the group of P(e_n k^{-1}) pi(k) v0, either by
    exhaustive enumeration or by restructuring the sum over sphere points
    (one stabiliser coset per point).
    """
    if space.ring != model.ring or space.n != model.n:
        raise ValueError("sphere space and model must share ring and n")
    ring, n = model.ring, model.n
    dim_tau = dim_harmonic(ring.q, n, model.c_declared, model.chi_pi.c)
    order = group_order(ring, n)
    if method == "auto":
        method = "enumerate" if order <= budget else "coset"
    if method == "enumerate":
        if order > budget:
            raise BudgetExceededError(f"group order {order} exceeds budget {budget}")
        ks = group_stack(ring, n)
        coeffs = P[space.index.idx(mat_inv(ring, ks)[:, n - 1])]  # P(e_n k^{-1})
        acc = np.zeros(model.dim, dtype=np.complex128)
        for k, coeff in zip(ks, coeffs):
            if coeff != 0:
                acc += coeff * model.apply(model.action_of(k), v0)
        return dim_tau * acc / order
    if method == "coset":
        w = mirab_average(model, v0, rng=rng)
        acc = np.zeros(model.dim, dtype=np.complex128)
        for xi in range(space.size):
            coeff = P[xi]
            if coeff == 0:
                continue
            hx = _complete_to_invertible(ring, space.points[xi])
            hinv = MatK(ring, mat_inv(ring, hx), check=False)
            acc += coeff * model.apply(model.action_of(hinv), w)
        return dim_tau * acc / space.size
    raise ValueError(f"unknown method {method!r}")
