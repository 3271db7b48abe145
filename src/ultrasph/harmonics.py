"""Function spaces on the sphere: the level filtration, its irreducible
pieces, zonal functions, and the identity checks that go with them.

Functions are complex vectors indexed by a SphereIndex at a fixed working
level M.  The inner product is the uniform probability measure on sphere
points; the group acts by right translation, (R(k)f)(x) = f(xk).  The
pushforward of the Haar measure under k -> e_n k is uniform because the
level-M action is transitive with constant stabiliser size; that fact is
a tested property in the sphere test suite, not an assumption.

Subspaces of the filtration are built exactly: a level-l function with
scalar equivariance under a character is supported on scalar orbits of
the level-l sphere, one basis vector per orbit, so the Gram matrix is
the identity by construction.  Orthogonal complements (the irreducible
pieces) are the only place Gram-Schmidt appears.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .matgroup import mat_inv
from .numerics import kernel_basis, kernel_dimension, orthonormalize_rows
from .sphere import SphereIndex


def dim_chi_level(q, n, ell, c):
    """Dimension of the level-l, character-c(=conductor) filtration space."""
    if ell < c:
        return 0
    if ell == 0:
        return 1
    return q ** ((ell - 1) * (n - 1)) * (q**n - 1) // (q - 1)


def dim_harmonic(q, n, m, c):
    """Four-case dimension of the irreducible level-m piece."""
    if m < c:
        return 0
    if c == 0 and m == 0:
        return 1
    if c == 0 and m == 1:
        return q * (q ** (n - 1) - 1) // (q - 1)
    if c == m:
        return q ** ((c - 1) * (n - 1)) * (q**n - 1) // (q - 1)
    return q ** ((m - 2) * (n - 1)) * (q**n - 1) * (q ** (n - 1) - 1) // (q - 1)


def zonal_shell_coefficient(q, n, m):
    """Exact value taken on the outer shell by the level-m zonal function."""
    if m == 1:
        return Fraction(-(q - 1), q * (q ** (n - 1) - 1))
    return Fraction(-1, q ** (n - 1) - 1)


class SphereSpace:
    """Working context: sphere index at level M plus the inner product."""

    def __init__(self, ring, n, cap=10**6):
        self.ring = ring
        self.n = n
        self.index = SphereIndex(ring, n, cap=cap)
        self.size = self.index.size
        self.points = self.index.points
        self.weight = 1.0 / self.size

    def ip(self, f, g):
        return (f @ g.conj()) * self.weight

    def norm(self, f):
        return float(np.sqrt(self.ip(f, f).real))

    def act(self, f, k):
        """R(k)f with (R(k)f)(x) = f(xk)."""
        a = getattr(k, "a", k)
        return f[self.index.perm_of_matrix(a)]

    def min_val_head(self):
        """min coordinate valuation over the first n-1 slots, per point."""
        return self.index.coord_vals[:, : self.n - 1].min(axis=1)


class Subspace:
    """Orthonormal basis rows of an invariant subspace, with metadata."""

    def __init__(self, space, basis, chi, level, kind):
        self.space = space
        self.basis = np.asarray(basis, dtype=np.complex128)
        self.chi = chi
        self.level = level
        self.kind = kind

    @property
    def dim(self):
        return self.basis.shape[0]

    def gram_residual(self):
        g = self.basis @ self.basis.conj().T * self.space.weight
        return float(np.abs(g - np.eye(self.dim)).max()) if self.dim else 0.0

    def rho(self, k):
        """Matrix of R(k) on this basis; unitary when the space is invariant."""
        a = getattr(k, "a", k)
        perm = self.space.index.perm_of_matrix(a)
        moved = self.basis[:, perm]
        return (self.basis.conj() @ moved.T * self.space.weight).T

    def __repr__(self):
        return f"Subspace(kind={self.kind}, chi_c={getattr(self.chi, 'c', None)}, level={self.level}, dim={self.dim})"


def phi_fn(space, chi, ell):
    """Indicator-type invariant function at depth l with character values.

    Value chi(x_n) where every one of x_1..x_{n-1} has valuation >= l,
    else 0.  At l = 0 the character must be trivial and the function is
    the constant 1.
    """
    if ell < chi.c:
        raise ValueError(f"depth {ell} below conductor {chi.c}")
    if ell > space.ring.m:
        raise ValueError(f"depth {ell} above working level {space.ring.m}")
    if ell == 0:
        if not chi.is_trivial:
            raise ValueError("depth 0 requires the trivial character")
        return np.ones(space.size, dtype=np.complex128)
    mask = space.min_val_head() >= ell
    out = np.zeros(space.size, dtype=np.complex128)
    xn = space.points[mask, space.n - 1]
    out[mask] = chi.eval_arr(xn)
    return out


def zonal_fn(space, chi, m):
    """The normalised invariant function of the level-m irreducible piece.

    Closed form: chi(x_n) where the first n-1 coordinates all have
    valuation >= m; the shell coefficient times chi(x_n) on the shell of
    minimum valuation exactly m-1 (only when m exceeds the conductor);
    zero elsewhere.
    """
    if m < chi.c:
        raise ValueError(f"level {m} below conductor {chi.c}")
    if m > space.ring.m:
        raise ValueError(f"level {m} above working level {space.ring.m}")
    if m == 0:
        return np.ones(space.size, dtype=np.complex128)
    q, n = space.ring.q, space.n
    minv = space.min_val_head()
    out = np.zeros(space.size, dtype=np.complex128)
    inner = minv >= m
    xn = space.points[:, n - 1]
    if chi.is_trivial:
        vals = np.ones(space.size, dtype=np.complex128)
    else:
        vals = np.zeros(space.size, dtype=np.complex128)
        unit_mask = space.index.coord_vals[:, n - 1] == 0
        vals[unit_mask] = chi.eval_arr(xn[unit_mask])
    out[inner] = vals[inner]
    if m > chi.c:
        shell = minv == m - 1
        alpha = complex(zonal_shell_coefficient(q, n, m))
        out[shell] = alpha * vals[shell]
    return out


def chi_level_subspace(space, chi, ell):
    """Exact orthonormal basis of the depth-l, chi-equivariant subspace.

    Basis vectors are supported on single scalar orbits of the level-l
    sphere, pulled back through the fibers, so they are orthonormal by
    construction and the dimension is forced combinatorially.
    """
    if ell > space.ring.m:
        raise ValueError(f"depth {ell} above working level {space.ring.m}")
    expected = dim_chi_level(space.ring.q, space.n, ell, chi.c)
    if ell < chi.c:
        return Subspace(space, np.zeros((0, space.size)), chi, ell, "chi_level")
    if ell == 0:
        basis = np.ones((1, space.size), dtype=np.complex128)
        return Subspace(space, basis, chi, ell, "chi_level")
    sub, proj = space.index.child(ell)
    low = sub.ring
    units_low = [int(u) for u in low.units()]
    seen = np.zeros(sub.size, dtype=bool)
    rows = []
    child_fiber = space.size // sub.size
    for y0 in range(sub.size):
        if seen[y0]:
            continue
        vals_child = np.zeros(sub.size, dtype=np.complex128)
        for a in units_low:
            ya = int(sub.scalar_perm(a)[y0])  # slot of a * y0; stabiliser is trivial
            seen[ya] = True
            vals_child[ya] = chi.eval_arr(np.array([a]))[0]
        rows.append(vals_child[proj])
    basis = np.array(rows, dtype=np.complex128)
    norms = np.sqrt((np.abs(basis) ** 2).sum(axis=1) * space.weight)
    basis = basis / norms[:, None]
    if basis.shape[0] != expected:
        raise RuntimeError(
            f"chi-level dimension {basis.shape[0]} != formula value {expected}"
        )
    return Subspace(space, basis, chi, ell, "chi_level")


def harmonic_subspace(space, chi, m):
    """The orthogonal complement of depth m-1 inside depth m (chi part)."""
    if m < chi.c:
        raise ValueError(f"level {m} below conductor {chi.c}")
    top = chi_level_subspace(space, chi, m)
    if m == chi.c:
        return Subspace(space, top.basis, chi, m, "harmonic")
    lower = chi_level_subspace(space, chi, m - 1)
    resid = top.basis - (top.basis @ lower.basis.conj().T * space.weight) @ lower.basis
    expected = dim_harmonic(space.ring.q, space.n, m, chi.c)
    basis = orthonormalize_rows(resid, weight=space.weight, expected_rank=expected)
    return Subspace(space, basis, chi, m, "harmonic")


def commutant_dimension(sub, gens):
    """dim of the algebra commuting with the action on ``sub``; 1 is irreducible.

    ``gens`` must be verified generators of the full group at working level.
    The commutant of a permutation representation is spanned by its orbital
    operators, the indicators A_j of the group's orbits on S x S, and an
    invariant subspace with projector P has commutant P span{A_j} P
    (Serre, Linear Representations of Finite Groups, 7.3).  Scaled to unit
    Frobenius norm, the A_j are orthonormal and compression by P is an
    orthogonal projection on their span, so the stacked compressions have
    singular values 0 or 1 and their rank is the commutant dimension.
    Generators that generate too little give finer orbitals and a larger
    dimension, so the certificate fails closed.
    """
    d = sub.dim
    if d == 0:
        return 0
    eye = np.eye(d)
    for g in gens:
        r = sub.rho(g)
        if np.abs(r @ r.conj().T - eye).max() > 1e-6:
            raise RuntimeError("subspace is not invariant under a generator")
    labels, count = sub.space.index.orbital_labels(gens)
    b = sub.basis * np.sqrt(sub.space.weight)  # orthonormal rows
    bt, bc = b.T, b.conj()
    rows = np.empty((count, d * d), dtype=np.complex128)
    for j in range(count):
        a = labels == j
        rows[j] = ((bc @ a) @ bt).ravel() / np.sqrt(np.count_nonzero(a))
    return d * d - kernel_dimension(rows)


def invariant_vectors(sub, gens):
    """Kernel rows of the stacked fixed-vector system on ``sub``.

    Row count is the dimension of the fixed subspace; the fixed functions
    themselves are recovered as row.conj() @ sub.basis.
    """
    d = sub.dim
    if d == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    blocks = [sub.rho(g) - np.eye(d) for g in gens]
    _, basis = kernel_basis(np.concatenate(blocks, axis=0))
    return basis


def _stack(ks, n):
    """Group elements (MatK or code arrays) as one (N, n, n) code stack."""
    return np.array([getattr(k, "a", k) for k in ks], dtype=np.int64).reshape(-1, n, n)


def verify_addition_theorem(sub, zonal, ks):
    """max over sampled k (and all x) of the addition identity residual."""
    space = sub.space
    d = sub.dim
    worst = 0.0
    en = space.index.e_n
    mats = _stack(ks, space.n)
    for a, ainv in zip(mats, mat_inv(space.ring, mats)):
        perm = space.index.perm_of_matrix(a)
        qk = sub.basis[:, perm[en]]  # Q_j(e_n k)
        perm_inv = space.index.perm_of_matrix(ainv)
        lhs = qk.conj() @ sub.basis
        rhs = d * zonal[perm_inv]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def verify_reproducing_kernel(sub, zonal, ks):
    """Residual of P(e_n k) = dim * <R(k) P, zonal> over the basis and samples."""
    space = sub.space
    d = sub.dim
    worst = 0.0
    en = space.index.e_n
    for k in ks:
        a = getattr(k, "a", k)
        perm = space.index.perm_of_matrix(a)
        lhs = sub.basis[:, perm[en]]
        rhs = d * (sub.basis[:, perm] @ zonal.conj()) * space.weight
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def verify_zonal_symmetry(space, zonal, ks):
    """Residual of zonal(e_n k) = conj(zonal(e_n k^{-1}))."""
    worst = 0.0
    en = space.index.e_n
    mats = _stack(ks, space.n)
    for a, ainv in zip(mats, mat_inv(space.ring, mats)):
        perm = space.index.perm_of_matrix(a)
        perm_inv = space.index.perm_of_matrix(ainv)
        worst = max(worst, abs(zonal[perm[en]] - np.conj(zonal[perm_inv[en]])))
    return float(worst)


def idempotent_sum_residual(space, chis, m, ks, zonal_cache=None):
    """Pointwise residuals of the two projector-sum identities.

    For each character the weighted zonal sum over levels c..m must match
    the bottom-right-character form supported on the depth-m congruence
    subgroup; summing over characters gives the unramified-subgroup form.
    Returns the max residual over the supplied group elements.
    """
    ring, n, q = space.ring, space.n, space.ring.q
    chis = [ch for ch in chis if ch.c <= m]
    cache = zonal_cache if zonal_cache is not None else {}

    def zd(ch, ell):
        key = (ch.exps, ell)
        if key not in cache:
            cache[key] = (
                zonal_fn(space, ch, ell),
                dim_harmonic(q, n, ell, ch.c),
            )
        return cache[key]

    if m == 0:
        vol_k1_inv = 1
    else:
        vol_k1_inv = q ** ((m - 1) * n) * (q**n - 1)
    if m == 0:
        vol_k0_inv = 1
    else:
        vol_k0_inv = q ** ((m - 1) * (n - 1)) * (q**n - 1) // (q - 1)

    worst = 0.0
    mats = _stack(ks, n)
    x_slots = space.index.idx(mat_inv(ring, mats)[:, n - 1])  # e_n k^{-1}
    for a, x_idx in zip(mats, x_slots):
        vals_bottom = ring.val_arr(a[n - 1, : n - 1]) if n > 1 else np.array([ring.m])
        in_k0 = bool((vals_bottom >= min(m, ring.m)).all())
        d_entry = int(a[n - 1, n - 1])
        total_k1 = 0.0 + 0.0j
        for ch in chis:
            lhs = 0.0 + 0.0j
            for ell in range(ch.c, m + 1):
                z, dh = zd(ch, ell)
                lhs += dh * z[x_idx]
            total_k1 += lhs
            if m == 0:
                rhs = 1.0 + 0.0j
            elif in_k0:
                rhs = np.conj(ch(d_entry)) * vol_k0_inv
            else:
                rhs = 0.0 + 0.0j
            worst = max(worst, abs(lhs - rhs))
        d1 = ring.sub(d_entry, 1)
        in_k1 = in_k0 and ring.val(d1) >= min(m, ring.m)
        rhs_k1 = vol_k1_inv if (in_k1 or m == 0) else 0.0
        worst = max(worst, abs(total_k1 - rhs_k1))
    return worst
