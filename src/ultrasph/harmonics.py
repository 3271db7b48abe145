"""Function spaces on the sphere: the level filtration, its irreducible
pieces, zonal functions, and the identity checks that go with them.

Functions are complex vectors indexed by a SphereIndex at a fixed working
level M.  The inner product is the uniform probability measure on sphere
points; the group acts by right translation, (R(k)f)(x) = f(xk).  The
pushforward of the Haar measure under k -> e_n k is uniform because the
level-M action is transitive, so every stabiliser has size |K|/|S|; the
decompose suite certifies that from the orbit product of K's stabiliser
chain, whose top orbit is the orbit of e_n.

Subspaces of the filtration are integer labels on the sphere: a depth-l
chi-equivariant space has one row per scalar orbit of the level-l sphere,
and an irreducible piece the non-trivial DFT rows over each depth-(m-1)
orbit's children.  A character only reads each unit label as a phase, so
two exact facts on one ``Labels`` per level and kind make every
character's rows an orthonormal basis (``Labels.fault``), and one
permutation check per generator makes every piece invariant
(``SphereIndex.structure_fault``).  Dense rows are built only for a caller
that reads ``Subspace.basis``, one piece at a time.

The four zonal identity checks (addition theorem, reproducing kernel,
zonal symmetry, projector sums) act on a whole (N, n, n) stack of
sampled ks at once.  The zonal suite draws every k of a sphere in one
stack and inverts it once; each check takes its slice of the ks and of
the inverses (``kinv``), and inverts the ks itself only when called
without them.  The point e_n k is the bottom row of k, so the values at
e_n k are one slot lookup per stack.  A piece's first three checks are
one pass: R(k^{-1}) on all of S is built per piece, once per chunk of its
slice, as a (chunk, |S|) permutation stack that serves all three and is
dropped before the next; nothing is cached per sample.  The projector
sums of every level share one slice.  Each check returns its worst
residual and the index of the k where it occurs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .matgroup import SubgroupSpec, mat_inv, subgroup_membership
from .numerics import kernel_basis, kernel_dimension
from .sphere import SphereIndex, sphere_size

# Bytes of the (chunk, |S|, n) point products behind one chunk of the
# stacked addition-theorem and reproducing-kernel checks.  The chunk's
# other (chunk, |S|) arrays take about 8x this at n = 2, so a few MB in
# all; chunks 16x larger raised the peak RSS of the grid zonal suites by
# about 3 MB and ran no faster.
IDENTITY_CHUNK_BYTES = 1 << 18


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

    def min_val_head(self):
        """min coordinate valuation over the first n-1 slots, per point."""
        return self.index.coord_vals[:, : self.n - 1].min(axis=1)

    def depth(self, ell):
        """(orbit, unit, count): x reduces at level l to unit[x] r, for r the
        least point of scalar orbit orbit[x] of count; depth 0 is one orbit."""
        if ell == 0:
            return np.zeros(self.size, dtype=np.int64), np.ones(self.size, dtype=np.int64), 1
        sub, proj = self.index.child(ell)
        orbit, unit, count = sub.scalar_orbits()
        return orbit[proj], unit[proj], count


def labels_name(level, split):
    """How faults and witnesses name the ``Labels`` of (level, split)."""
    return f"level-{level} {'complement' if split else 'depth'} labels"


class Labels:
    """The labels every character's level-l piece shares, read off the depth
    d = level - split scalar orbits (``SphereSpace.depth``): fibre[x] <
    fibres, x's depth-d orbit, and unit[x], which takes the orbit's least
    point to x's reduction.  With ``split``, pos[x] < k ranks x's depth-l
    child in its fibre; otherwise pos = 0 and k = 1.  A character of
    conductor c <= d reads them with rotation indices chi._nums[unit]."""

    def __init__(self, space, level, split):
        self.space, self.level, self.split = space, level, split
        self.fibre, self.unit, self.fibres = space.depth(level - split)
        if split:
            child, _, count = space.depth(level)
            # the (fibre, child) pairs, fibre-major: a fibre's first child has position 0
            pairs, rank = np.unique(self.fibre * count + child, return_inverse=True)
            self.pos = rank - np.searchsorted(pairs // count, self.fibre)
            self.k = count // self.fibres
        else:
            self.pos, self.k = np.zeros_like(self.fibre), 1
        self.js = range(1, self.k) if self.k > 1 else range(1)
        self.dim = self.fibres * len(self.js)

    def __str__(self):
        return labels_name(self.level, self.split)

    @cached_property
    def fault(self):
        """The first label fact that fails, or None.  Equivariance: each
        unit-group generator u keeps fibre and position and takes unit to
        u unit mod p^d, so chi(u unit) = chi(u) chi(unit) for every chi of
        conductor c <= d.  Spread: every (fibre, position) holds as many
        points.  Then every such chi's rows are orthonormal rows of its
        piece, orthogonal to depth d by the DFT identity and to other
        characters by equivariance."""
        space, d, k = self.space, self.level - self.split, self.k
        for u, perm in space.index.unit_perms():
            ud = space.ring.reduce_code(u, d)
            scaled = space.ring.at_level(d).mul_arr(self.unit, ud) if d else self.unit
            moved = ((self.fibre, self.fibre), (self.pos, self.pos), (self.unit, scaled))
            if not all(np.array_equal(a[perm], b) for a, b in moved):
                return f"{self} are not equivariant under the scalar {space.ring.element_str(u)}"
        if not 0 <= self.pos.min() <= self.pos.max() < k or np.ptp(self.counts()):
            return f"{self} do not spread points evenly over the {k} positions of each fibre"
        return None

    def counts(self):
        """The (fibres, k) point counts c_F(i) per fibre and position."""
        counts = np.bincount(self.fibre * self.k + self.pos, minlength=self.fibres * self.k)
        return counts.reshape(self.fibres, self.k)

    def block_residual(self):
        """Worst |G - I| over the per-fibre Gram blocks of labels without a
        fault: G[j, j'] = fibres / |S| sum_i c_F(i) w^((j - j') i)."""
        k = self.k
        shifts = np.arange(k if k > 2 else 1)  # every j - j' mod k, j, j' in js
        w = np.exp(2j * np.pi * np.arange(k) / k)[np.outer(shifts, np.arange(k)) % k]
        gram = self.counts() @ w.T * (self.fibres / self.space.size)
        gram[:, 0] -= 1
        return float(np.abs(gram).max(initial=0.0))


class Subspace:
    """A chi-equivariant space, ``labels`` with rotation indices
    rot[x] = chi._nums[unit[x]], L = chi.order; the zero space when
    ``labels`` is None.  Row (F, j) is sqrt(fibres) w^(j pos(x)) e(rot(x) / L)
    on fibre F, w = e(1/k), with j = 1..k-1, or j = 0 alone when k = 1."""

    def __init__(self, space, chi, level, labels=None):
        self.space, self.chi, self.level, self.labels = space, chi, level, labels
        self.dim = 0 if labels is None else labels.dim

    @cached_property
    def basis(self):
        """The dense (dim, |S|) rows, built from the labels when first read."""
        lab, size, L = self.labels, self.space.size, self.chi.order
        if lab is None:
            return np.zeros((0, size), dtype=np.complex128)
        phase = np.exp(2j * np.pi * np.arange(L) / L)[self.chi._nums[lab.unit]]
        dft = np.exp(2j * np.pi * np.arange(lab.k) / lab.k) * np.sqrt(lab.fibres)
        basis = np.zeros((lab.fibres, len(lab.js), size), dtype=np.complex128)
        for row, j in enumerate(lab.js):
            basis[lab.fibre, row, np.arange(size)] = dft[j * lab.pos % lab.k] * phase
        return basis.reshape(-1, size)

    def rho(self, k):
        """Matrix of R(k) on this basis; unitary when the space is invariant."""
        moved = self.basis[:, self.space.index.perm_of_matrix(k)]
        np.conjugate(moved, out=moved)  # conj(basis @ conj(moved)^T) = conj(basis) @ moved^T
        return (np.conjugate(self.basis @ moved.T) * self.space.weight).T

    def __repr__(self):
        return f"Subspace(chi_c={self.chi.c}, level={self.level}, dim={self.dim})"


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
    """The depth-l, chi-equivariant subspace, one row per scalar orbit of the
    level-l sphere: chi of the unit that takes the orbit's least point to x.
    Disjoint supports of one size and unit-modulus values make the rows
    orthonormal; their number, the orbit count, is what the
    ``/chi-level-dim`` records compare with ``dim_chi_level``."""
    if ell > space.ring.m:
        raise ValueError(f"depth {ell} above working level {space.ring.m}")
    return Subspace(space, chi, ell, Labels(space, ell, 0) if ell >= chi.c else None)


def harmonic_subspace(space, chi, m):
    """The orthogonal complement of depth m-1 inside depth m (chi part).

    At m = c it is the depth-m space.  Above c, each depth-m orbit O reduces
    into one depth-(m-1) orbit, its fibre, of k children each, and the
    fibre's depth-(m-1) row is sum_O chi(a_O) Q_O / sqrt(k), with a_O read
    off the reduction: on O, that row's own phase.  So the k - 1 DFT rows
    w^(j i) times that phase, on the child in position i, w = exp(2 pi i / k)
    and j = 1..k-1, are an orthonormal basis of the complement in the
    fibre's span; ``Labels.fault`` checks the facts this rests on.
    """
    if m < chi.c:
        raise ValueError(f"level {m} below conductor {chi.c}")
    if m == chi.c:
        return chi_level_subspace(space, chi, m)
    return Subspace(space, chi, m, Labels(space, m, 1))


def commutant_dimension(sub, gens):
    """dim of the algebra commuting with the action on ``sub``; 1 is irreducible.

    ``gens`` must be verified generators of the full group at working level,
    and ``sub`` must be invariant under them (``SphereIndex.structure_fault``).
    The commutant of a permutation representation is spanned by its orbital
    operators, the indicators A_j of the group's orbits on S x S, and an
    invariant subspace with projector P has commutant P span{A_j} P
    (Serre, Linear Representations of Finite Groups, 7.3).  Scaled to unit
    Frobenius norm, the A_j are orthonormal and compression by P is an
    orthogonal projection on their span, so the stacked compressions have
    singular values 0 or 1 and their rank is the commutant dimension.
    Generators that generate too little give finer orbitals and a larger
    dimension, so the certificate fails closed.  The suites count
    irreducibles with ``mirabolic_orbit_count``; this rank is the tests'
    independent oracle for that count.
    """
    d = sub.dim
    if d == 0:
        return 0
    labels, count = sub.space.index.orbital_labels(gens)
    b = sub.basis * np.sqrt(sub.space.weight)  # orthonormal rows
    bt, bc = b.T, b.conj()
    rows = np.empty((count, d * d), dtype=np.complex128)
    for j in range(count):
        a = labels == j
        rows[j] = ((bc @ a) @ bt).ravel() / np.sqrt(np.count_nonzero(a))
    return d * d - kernel_dimension(rows)


def mirabolic_orbit_count(space, gens):
    """Number of orbits on S of the group that ``gens`` generate, each of
    which must lie in the mirabolic P, the stabiliser of e_n; a RuntimeError
    refuses one that does not.

    When K is transitive on S, L^2(S) = Ind_P^K 1, so dim End_K L^2(S), the
    sum of the squared multiplicities of its irreducible constituents, is
    the number of P-orbits on S (Serre, 7.3; Ceccherini-Silberstein,
    Scarabotti and Tolli, Harmonic Analysis on Finite Groups, 2008, ch. 4).
    A subgroup of P has orbits that refine P's, so the count bounds that
    dimension from above however few generators are given.
    """
    spec = SubgroupSpec("Kmirab")
    if not subgroup_membership(spec, space.ring, _stack(gens, space.n)).all():
        raise RuntimeError(f"proposed generator outside {spec}")
    return space.index.orbit_count(gens)


def invariant_vectors(sub, gens):
    """Kernel rows of the stacked fixed-vector system on ``sub``.

    Row count is the dimension of the fixed subspace, the fixed functions
    are row.conj() @ sub.basis; the tests' oracle for ``zonal_suite``'s line.
    """
    d = sub.dim
    if d == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    blocks = [sub.rho(g) - np.eye(d) for g in gens]
    _, basis = kernel_basis(np.concatenate(blocks, axis=0))
    return basis


def zonal_piece_bytes(q, n, m):
    """Predicted peak bytes of one level-m piece and its checks, before any
    allocation: 3 times the 16 d |S| bytes of the largest piece's dense
    rows, d = dim_chi_level(q, n, m, 0).  The rest is the cached depth
    labels and scalar orbits, and the sampled stacks and chunk arrays of
    the identity checks.  Measured with tracemalloc, ``zonal_suite`` peaks
    at 1.2 times the rows at padic (q5, n2, m3) and at 2.2 times them at
    (q7, n2, m2), where the arrays that do not grow with d weigh more."""
    return 3 * 16 * dim_chi_level(q, n, m, 0) * sphere_size(q, n, m)


def _stack(ks, n):
    """Group elements (code arrays or one stack) as one (N, n, n) code stack."""
    return np.asarray(ks, dtype=np.int64).reshape(-1, n, n)


def _worst(err):
    """(max, index of the first max) of a per-k residual array; (0.0, None)
    when there are no ks."""
    if not len(err):
        return 0.0, None
    at = int(err.argmax())
    return float(err[at]), at


def _abs(x):
    """|x| elementwise by hypot, which is what scalar abs computes; numpy's
    vectorised complex abs can differ from it in the last bit."""
    return np.hypot(x.real, x.imag)


def _inverse_perms(space, kinv):
    """Yield (lo, P) per chunk of the inverse stack ``kinv``, with P[i, x] the
    slot of points[x] kinv[lo + i]: R(k^{-1}) as one uncached (chunk, |S|)
    permutation stack, with the (chunk, |S|, n) point products kept under
    IDENTITY_CHUNK_BYTES."""
    ring, n, size = space.ring, space.n, space.size
    step = max(1, IDENTITY_CHUNK_BYTES // (8 * n * size))
    for lo in range(0, len(kinv), step):
        moved = ring.matmul(space.points, kinv[lo : lo + step])  # (chunk, |S|, n)
        yield lo, space.index.idx(moved.reshape(-1, n)).reshape(len(moved), size)


def _symmetry_err(zonal, at_k, at_kinv):
    """|zonal(e_n k) - conj(zonal(e_n k^{-1}))| per k, from the two slots."""
    return _abs(zonal[at_k] - np.conj(zonal[at_kinv]))


def verify_piece_identities(sub, zonal, ks, kinv=None):
    """Worst residuals of the addition theorem, the reproducing kernel and
    zonal symmetry of one piece over the sampled ks, each as (worst, index
    in ks where it occurs), with index None when ks is empty.

    ``kinv`` is the stack of inverses of the ks when the caller has it, and
    the ks are inverted here when it is None.  Q_j(e_n k) is gathered once,
    and each chunk's R(k^{-1}) serves all three checks.  The addition
    theorem's sum_j Q_j(x) conj(Q_j(e_n k)) is row k of qk^* @ basis, and
    its right side dim * P(x k^{-1}) gathers the zonal through R(k^{-1}).
    The reproducing kernel's <R(k) Q_j, zonal> sums Q_j(x k) conj(zonal(x))
    over x, which is Q_j(y) conj(zonal(y k^{-1})) summed over y = x k: one
    product of the basis with the gathered conj(zonal) rows.  Zonal
    symmetry compares e_n k, the bottom row of k, with e_n k^{-1}, column
    e_n of R(k^{-1}).
    """
    space, n = sub.space, sub.space.n
    K = _stack(ks, n)
    at_k = space.index.idx(K[:, n - 1])
    qk = sub.basis[:, at_k]  # Q_j(e_n k), (d, N)
    zc = zonal.conj()
    add, rep = np.zeros(len(K)), np.zeros(len(K))
    at_kinv = np.zeros(len(K), dtype=np.int64)
    kinv = mat_inv(space.ring, K) if kinv is None else kinv
    for lo, perm_inv in _inverse_perms(space, kinv):
        hi = lo + len(perm_inv)
        lhs = qk[:, lo:hi].conj().T @ sub.basis
        add[lo:hi] = np.abs(lhs - sub.dim * zonal[perm_inv]).max(axis=1)
        rhs = sub.dim * (sub.basis @ zc[perm_inv].T) * space.weight
        rep[lo:hi] = np.abs(qk[:, lo:hi] - rhs).max(axis=0)
        at_kinv[lo:hi] = perm_inv[:, space.index.e_n]
    return _worst(add), _worst(rep), _worst(_symmetry_err(zonal, at_k, at_kinv))


# The three per-identity checks below are kept for bench/layers.py, which
# wraps them by name, until the library's own spans replace its wrappers
# (ROADMAP item 3).  The suites run ``verify_piece_identities``.


def verify_addition_theorem(sub, zonal, ks):
    """The addition-theorem part of ``verify_piece_identities``."""
    return verify_piece_identities(sub, zonal, ks)[0]


def verify_reproducing_kernel(sub, zonal, ks):
    """The reproducing-kernel part of ``verify_piece_identities``."""
    return verify_piece_identities(sub, zonal, ks)[1]


def verify_zonal_symmetry(space, zonal, ks):
    """Worst |zonal(e_n k) - conj(zonal(e_n k^{-1}))| over the ks, and its
    index: e_n k and e_n k^{-1} are the bottom rows of k and k^{-1}."""
    n = space.n
    K = _stack(ks, n)
    at_kinv = space.index.idx(mat_inv(space.ring, K)[:, n - 1])
    return _worst(_symmetry_err(zonal, space.index.idx(K[:, n - 1]), at_kinv))


def idempotent_sum_residual(space, chis, m, ks, kinv=None):
    """Pointwise residuals of the two projector-sum identities at each level
    0..m: a list of (max residual, index in ks where it occurs), one per
    level, with index None when ks is empty.

    At level l, for each character of conductor c <= l, the weighted zonal
    sum over levels c..l must match the bottom-right-character form
    supported on the depth-l congruence subgroup; summing over characters
    gives the unramified-subgroup form.  The level-l sum is the level-(l-1)
    sum plus one term, so each character's sum runs once up the levels.
    Every k is evaluated at once, on one inverse of the stack, ``kinv`` when
    the caller has it: the slot of e_n k^{-1}, the K_0 and K_1 membership
    masks and the bottom-right entry are arrays over it.
    """
    ring, n, q = space.ring, space.n, space.ring.q
    K = _stack(ks, n)
    kinv = mat_inv(ring, K) if kinv is None else kinv
    x_slots = space.index.idx(kinv[:, n - 1])  # e_n k^{-1}
    d = K[:, n - 1, n - 1]
    in_k0 = {ell: subgroup_membership(SubgroupSpec("K0", ell), ring, K) for ell in range(1, m + 1)}
    in_k1 = {ell: subgroup_membership(SubgroupSpec("K1", ell), ring, K) for ell in range(1, m + 1)}
    err = np.zeros((m + 1, len(K)))
    total_k1 = np.zeros((m + 1, len(K)), dtype=np.complex128)
    for ch in chis:
        lhs = np.zeros(len(K), dtype=np.complex128)
        for ell in range(ch.c, m + 1):
            lhs = lhs + dim_harmonic(q, n, ell, ch.c) * zonal_fn(space, ch, ell)[x_slots]
            total_k1[ell] += lhs
            if ell == 0:
                rhs = 1.0 + 0.0j
            else:
                # off K_0 the entry d may be a non-unit; the mask drops its value
                vol_k0_inv = q ** ((ell - 1) * (n - 1)) * (q**n - 1) // (q - 1)
                rhs = np.where(in_k0[ell], np.conj(ch._vals[d]) * vol_k0_inv, 0.0 + 0.0j)
            err[ell] = np.maximum(err[ell], _abs(lhs - rhs))
    for ell in range(m + 1):
        if ell == 0:
            rhs_k1 = np.ones(len(K))
        else:
            rhs_k1 = np.where(in_k1[ell], q ** ((ell - 1) * n) * (q**n - 1), 0.0)
        err[ell] = np.maximum(err[ell], _abs(total_k1[ell] - rhs_k1))
    return [_worst(e) for e in err]
