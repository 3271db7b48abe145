"""Finite quotient rings O/p^m, their unit groups, and unit characters.

Two branches are supported.  The ``padic`` branch models Z_p truncated at
level m, i.e. Z/p^m (residue degree f = 1 only).  The ``laurent`` branch
models F_q[[t]]/(t^m) with q = p^f, which is how non-prime residue
cardinalities are exercised.  Either way the ring has q^m elements, its
maximal ideal is generated by the uniformiser image, and the residue
field is F_q.

Elements are stored as integer codes in range(q^m).  For the padic
branch the code is the residue itself.  For the laurent branch the code
packs the t-digits little-endian in base q, each digit encoding an F_q
element by its polynomial coefficients in base p.  With this packing,
reduction to level l is ``code % q**l`` and division by the l-th
uniformiser power is ``code // q**l`` on both branches.

Each ring builds q^m x q^m addition and multiplication tables once, at
construction: modular arithmetic for padic, digitwise F_q addition and
digit convolution for laurent.  Negation and unit inverses are read off
the tables.  From then on every scalar op and array op is a table lookup,
the same code on both branches.  A matrix product is one int64 ``@`` and
one reduction mod q^m on the padic branch, and sums its table products
through the add table on the laurent branch.  The tables take
16 q^(2m) bytes, so rings with more than MAX_RING_SIZE = 4096 elements are
rejected before anything is allocated (256 MiB at the bound; a sphere
under the 10^6-point cap lives on at most about 1,155 elements).

Character values are kept exact as rotation indices k/N, meaning
e^(2*pi*i*k/N); conversion to floating complex happens on demand.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

MAX_RING_SIZE = 4096

# Built-in irreducible polynomials over F_p (little-endian, monic) for the
# small residue fields used by default; callers may supply their own.
SMALL_FIELD_POLYS = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (3, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
}


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num, den, p):
    """Remainder of num by monic den over F_p (little-endian lists)."""
    num = list(num)
    dd = len(den) - 1
    while len(num) - 1 >= dd and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        c = num[-1]
        shift = len(num) - 1 - dd
        for i, dc in enumerate(den):
            num[shift + i] = (num[shift + i] - c * dc) % p
        num.pop()
    return num


def _poly_is_irreducible(poly, p):
    """Brute-force irreducibility over F_p by trial division."""
    f = len(poly) - 1
    if f < 1 or poly[-1] % p == 0:
        return False
    for d in range(1, f // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = list(tail) + [1]  # monic degree-d candidate
            if not any(_poly_mod(poly, den, p)):
                return False
    return True


class Fq:
    """Arithmetic tables for the residue field F_q, q = p^f.

    Elements are codes in range(q): base-p digits are the polynomial
    coefficients in the chosen irreducible modulus.
    """

    def __init__(self, p, f, poly=None):
        self.p = p
        self.f = f
        self.q = q = p**f
        if f == 1:
            poly = (0, 1)
        elif poly is None:
            if q not in SMALL_FIELD_POLYS:
                raise ValueError(
                    f"no built-in modulus for q = {q}; supply irreducible coefficients"
                )
            poly = SMALL_FIELD_POLYS[q]
        poly = tuple(c % p for c in poly)
        if len(poly) != f + 1:
            raise ValueError(f"modulus must have degree {f}")
        if poly[-1] != 1:
            inv = pow(poly[-1], -1, p)
            poly = tuple(c * inv % p for c in poly)
        if f > 1 and not _poly_is_irreducible(poly, p):
            raise ValueError(f"{poly} is not irreducible over F_{p}")
        self.poly = poly

        def decode(a):
            out = []
            for _ in range(f):
                out.append(a % p)
                a //= p
            return out

        def encode(cs):
            v = 0
            for c in reversed(cs[:f]):
                v = v * p + (c % p)
            return v

        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            da = decode(a)
            for b in range(q):
                db = decode(b)
                add[a, b] = encode([(x + y) % p for x, y in zip(da, db)])
                conv = [0] * (2 * f - 1)
                for i, x in enumerate(da):
                    for j, y in enumerate(db):
                        conv[i + j] = (conv[i + j] + x * y) % p
                mul[a, b] = encode(_poly_mod(conv, poly, p) + [0] * f)
        self.add = add
        self.mul = mul


def check_ring(branch, p, f, m):
    """q = p^f when (branch, p, f, m) names a supported ring O/p^m, checked
    before any table is built; ValueError otherwise."""
    if branch not in ("padic", "laurent"):
        raise ValueError(f"unknown branch {branch!r}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError("level m must be >= 1")
    if f < 1:
        raise ValueError("extension degree f must be >= 1")
    if branch == "padic" and f != 1:
        raise ValueError("padic branch requires f = 1 (Galois rings are unsupported)")
    q = p**f
    if q**m > MAX_RING_SIZE:
        raise ValueError(
            f"ring of size {q}^{m} exceeds {MAX_RING_SIZE} elements; its tables would not fit"
        )
    return q


class RingLevel:
    """The ring O/p^m for one of the two supported branches.

    Immutable after construction; all operations work on integer codes in
    range(size) and the vectorised variants on numpy arrays of codes.
    """

    def __init__(self, branch, p, f, m, poly=None):
        q = check_ring(branch, p, f, m)
        self.branch = branch
        self.p = p
        self.f = f
        self.m = m
        self.q = q
        self.size = size = q**m
        self.fq = None if branch == "padic" else Fq(p, f, poly)
        self.poly = None if self.fq is None else self.fq.poly
        codes = np.arange(size, dtype=np.int64)
        if branch == "padic":
            self._add = (codes[:, None] + codes) % size
            self._mul = (codes[:, None] * codes) % size
        else:
            self._add, self._mul = self._laurent_tables()
        # valuation: reduction to level l is code % q**l on both branches
        self._val = sum((codes % q**ell == 0).astype(np.int64) for ell in range(1, m + 1))
        self._neg = (self._add == 0).argmax(axis=1)
        units = self._val == 0
        self._inv = np.where(units, (self._mul == 1).argmax(axis=1), 0)
        self._units = np.nonzero(units)[0]
        self._levels = {}
        self._unit_basis = None
        self._characters = None
        self._unit_subgroup_bases = {}

    def _laurent_tables(self):
        """Add and mul tables by digitwise F_q addition and digit convolution."""
        fq, q = self.fq, self.q
        digits = self._digits_of(np.arange(self.size))
        add = np.zeros((self.size, self.size), dtype=np.int64)
        mul = np.zeros((self.size, self.size), dtype=np.int64)
        for k in range(self.m):
            add += fq.add[digits[:, None, k], digits[:, k]] * q**k
            acc = fq.mul[digits[:, None, 0], digits[:, k]]
            for i in range(1, k + 1):
                acc = fq.add[acc, fq.mul[digits[:, None, i], digits[:, k - i]]]
            mul += acc * q**k
        return add, mul

    def _digits_of(self, codes):
        """Base-q digits of codes, little-endian, along a new last axis."""
        codes = np.asarray(codes, dtype=np.int64)
        return codes[..., None] // self.q ** np.arange(self.m) % self.q

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a, b):
        return int(self._add[a, b])

    def neg(self, a):
        return int(self._neg[a])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return int(self._mul[a, b])

    def inv(self, a):
        if self._val[a] != 0:
            raise ValueError(f"{self.element_str(a)} is not a unit")
        return int(self._inv[a])

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def val(self, a):
        return int(self._val[a])

    def is_unit(self, a):
        return self._val[a] == 0

    def as_codes(self, A):
        """A as an int64 code array; ValueError on entries outside range(size)."""
        A = np.asarray(A, dtype=np.int64)
        if A.size and (A.min() < 0 or A.max() >= self.size):
            raise ValueError("entries outside the ring")
        return A

    # -- vectorised arithmetic on code arrays ------------------------------

    def add_arr(self, A, B):
        return self._add[A, B]

    def neg_arr(self, A):
        return self._neg[A]

    def sub_arr(self, A, B):
        return self._add[A, self._neg[B]]

    def mul_arr(self, A, B):
        return self._mul[A, B]

    def val_arr(self, A):
        return self._val[A]

    def inv_arr(self, A):
        if not (self._val[A] == 0).all():
            raise ValueError("non-unit entry")
        return self._inv[A]

    def sum_arr(self, A):
        """Ring sum over the last axis of A: the int64 sum reduced once mod
        q^m on the padic branch, as ``matmul`` sums, and the terms added
        through the add table on the laurent branch."""
        if self.branch == "padic":
            return A.sum(axis=-1) % self.size
        out = A[..., 0]
        for t in range(1, A.shape[-1]):
            out = self._add[out, A[..., t]]
        return out

    def sub_mul_arr(self, A, X, B):
        """A - X B entrywise: integer ops and one reduction mod q^m on the
        padic branch, table lookups on the laurent branch."""
        if self.branch == "padic":
            return (A - X * B) % self.size
        return self._add[A, self._neg[self._mul[X, B]]]

    def matmul(self, A, B):
        """Ring matrix product, broadcast as numpy's ``@``: A is (..., r, s)
        or a row (s,), B is (..., s, t), and the leading axes broadcast.  So
        (N, r, s) x (N, s, t) is the pairwise product, and (dim, r, s) x
        (C, 1, s, t) gives (C, dim, r, t).

        A padic product is the integer product reduced once mod q^m: codes
        are below MAX_RING_SIZE, so a sum of s products fits in int64.  A
        laurent product sums its terms through the add table."""
        A = np.asarray(A)
        B = np.asarray(B)
        if A.ndim == 1:
            return self.matmul(A[None], B)[..., 0, :]
        if self.branch == "padic":
            A, B = A.astype(np.int64, copy=False), B.astype(np.int64, copy=False)
            return np.matmul(A, B) % self.size
        out = self._mul[A[..., :, 0, None], B[..., 0, None, :]]
        for j in range(1, A.shape[-1]):
            out = self._add[out, self._mul[A[..., :, j, None], B[..., j, None, :]]]
        return out

    # -- structure maps -----------------------------------------------------

    def uniformizer_pow(self, ell):
        return self.q**ell if ell < self.m else 0

    def reduce_code(self, a, ell):
        return a % self.q**ell if ell < self.m else a

    def reduce_arr(self, A, ell):
        return A % self.q**ell if ell < self.m else A

    def shift_down(self, a, ell):
        """Exact division by the ell-th uniformiser power (requires val >= ell)."""
        step = self.q**ell
        if np.any(np.asarray(a) % step):
            raise ValueError("valuation too small for exact division")
        return a // step

    def at_level(self, ell):
        if ell == self.m:
            return self
        if ell not in self._levels:
            self._levels[ell] = RingLevel(self.branch, self.p, self.f, ell, self.poly)
        return self._levels[ell]

    def elements(self):
        return range(self.size)

    def units(self):
        return self._units

    def element_str(self, a):
        if self.branch == "padic":
            return str(int(a))
        digs = [int(d) for d in self._digits_of(int(a))]
        return "(" + ",".join(str(d) for d in digs) + ")"

    def __eq__(self, other):
        return isinstance(other, RingLevel) and (
            self.branch,
            self.p,
            self.f,
            self.m,
            self.poly,
        ) == (other.branch, other.p, other.f, other.m, other.poly)

    def __hash__(self):
        return hash((self.branch, self.p, self.f, self.m, self.poly))

    def __repr__(self):
        if self.branch == "padic":
            return f"RingLevel(Z/{self.p}^{self.m})"
        return f"RingLevel(F_{self.q}[t]/t^{self.m})"


def make_ring_level(branch, p, f, m, poly=None):
    """Construct O/p^m; rejects invalid primes and padic extensions."""
    return RingLevel(branch, p, f, m, poly)


# -- abelian structure of the unit group ----------------------------------


def _pgroup_basis(elems, mul, inv, one, rho):
    """Basis of a finite abelian rho-group given as a list of hashables.

    Returns a list of (generator, order) whose cyclic factors give an
    internal direct product.  Classical recursion: split off an element of
    maximal order, recurse on the quotient, lift quotient generators.
    """
    if len(elems) == 1:
        return []

    def order_of(x):
        k, y = 1, x
        while y != one:
            y = mul(y, x)
            k += 1
        return k

    orders = {x: order_of(x) for x in elems}
    g = max(elems, key=lambda x: orders[x])
    d = orders[g]
    if d == len(elems):
        return [(g, d)]
    # cosets modulo <g>, keyed by the minimal member
    gpow = [one]
    for _ in range(d - 1):
        gpow.append(mul(gpow[-1], g))
    gdlog = {x: i for i, x in enumerate(gpow)}
    key_of = {}
    for x in elems:
        if x in key_of:
            continue
        coset = [mul(x, h) for h in gpow]
        k = min(coset)
        for y in coset:
            key_of[y] = k
    qelems = sorted(set(key_of.values()))
    qmul = lambda a, b: key_of[mul(a, b)]
    qinv = lambda a: key_of[inv(a)]
    qbasis = _pgroup_basis(qelems, qmul, qinv, key_of[one], rho)
    out = [(g, d)]
    for h, hb in qbasis:
        t = gdlog[_pow(h, hb, mul, one)]
        if t % hb != 0:
            raise RuntimeError("abelian basis lift failed")  # impossible by theory
        adj = _pow(inv(g), t // hb, mul, one)
        out.append((mul(h, adj), hb))
    return out


def _pow(x, e, mul, one):
    out, base = one, x
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


class UnitGroupBasis:
    """Independent generators of a finite abelian subgroup of (O/p^m)^x.

    The direct-product property is verified by exhaustive enumeration at
    construction time; ``dlog`` maps every member to its exponent vector.
    """

    def __init__(self, ring, members):
        self.ring = ring
        members = sorted(int(u) for u in members)
        n = len(members)
        mul = ring.mul
        inv = lambda a: ring.inv(a)
        gens, orders = [], []
        if n > 1:
            for rho in sorted(_prime_factors(n)):
                a = 0
                nn = n
                while nn % rho == 0:
                    nn //= rho
                    a += 1
                e = n // rho**a
                sylow = sorted({_pow(u, e, mul, 1) for u in members})
                for g, d in _pgroup_basis(sylow, mul, inv, 1, rho):
                    gens.append(g)
                    orders.append(d)
        self.gens = tuple(gens)
        self.orders = tuple(orders)
        self.exponent = math.lcm(*orders) if orders else 1
        if math.prod(orders) != n:
            raise RuntimeError("basis orders do not multiply to the group order")
        dlog = {}
        for vec in product(*(range(d) for d in orders)):
            u = 1
            for g, e in zip(gens, vec):
                u = mul(u, _pow(g, e, mul, 1))
            if u in dlog:
                raise RuntimeError("generators are not independent")
            dlog[u] = vec
        if sorted(dlog) != members:
            raise RuntimeError("generators do not span the group")
        self.dlog = dlog
        self.members = members
        # the same map as arrays: member codes and their exponent rows
        self.codes = np.fromiter(dlog, dtype=np.int64, count=n)
        self.vectors = np.array(list(dlog.values()), dtype=np.int64).reshape(n, len(gens))

    def __len__(self):
        return len(self.members)


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def unit_group_basis(ring):
    """Basis of the full unit group (cached on the ring)."""
    if ring._unit_basis is None:
        ring._unit_basis = UnitGroupBasis(ring, ring.units())
    return ring._unit_basis


def unit_subgroup_basis(ring, ell):
    """Basis of the subgroup of units congruent to 1 mod p^ell."""
    if ell <= 0:
        return unit_group_basis(ring)
    if ell not in ring._unit_subgroup_bases:
        step = ring.q**ell if ell < ring.m else ring.size
        members = [int(u) for u in ring.units() if (u - 1) % step == 0]
        ring._unit_subgroup_bases[ell] = UnitGroupBasis(ring, members)
    return ring._unit_subgroup_bases[ell]


class UnitCharacter:
    """A character of (O/p^m)^x given by exponents against a unit basis.

    Values are exact rotation indices over the group exponent L; the
    complex table is materialised once per character.  The conductor
    exponent is the least l >= 0 with the character trivial on 1 + p^l.
    """

    def __init__(self, ring, basis, exps):
        self.ring = ring
        self.basis = basis
        self.exps = tuple(int(e) % d for e, d in zip(exps, basis.orders))
        L = basis.exponent
        self.order = L
        weights = np.array([a * (L // d) for a, d in zip(self.exps, basis.orders)], dtype=np.int64)
        nums = np.full(ring.size, -1, dtype=np.int64)
        nums[basis.codes] = basis.vectors @ weights % L
        self._nums = nums
        self._vals = np.where(
            nums >= 0, np.exp(2j * np.pi * np.where(nums >= 0, nums, 0) / L), 0.0
        )
        self.c = self._conductor()

    def _conductor(self):
        """1 + the largest depth val(u - 1) of a unit u where the character is
        not 1, or 0 when there is none: u lies in 1 + p^l exactly when
        (u - 1) % q^l == 0, on the codes of both branches."""
        units = self.ring.units()
        moved = units[self._nums[units] != 0]
        return 1 + int(self.ring.val_arr(moved - 1).max()) if len(moved) else 0

    @property
    def is_trivial(self):
        return all(e == 0 for e in self.exps)

    def __call__(self, u):
        if self._nums[u] < 0:
            raise ValueError(f"{self.ring.element_str(u)} is not a unit")
        return complex(self._vals[u])

    def eval_arr(self, codes):
        """Complex values on an array of unit codes (caller guarantees units)."""
        return self._vals[codes]

    def __mul__(self, other):
        if other.ring != self.ring or other.basis is not self.basis:
            raise ValueError("characters must share a unit basis")
        return UnitCharacter(
            self.ring, self.basis, tuple(a + b for a, b in zip(self.exps, other.exps))
        )

    def conj(self):
        return UnitCharacter(self.ring, self.basis, tuple(-a for a in self.exps))

    def __eq__(self, other):
        return (
            isinstance(other, UnitCharacter)
            and self.ring == other.ring
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.ring, self.exps))

    def __repr__(self):
        return f"UnitCharacter(exps={self.exps}, c={self.c})"


def characters(ring):
    """All characters of (O/p^m)^x, sorted by exponent vector (cached)."""
    if ring._characters is None:
        basis = unit_group_basis(ring)
        chs = [
            UnitCharacter(ring, basis, vec)
            for vec in product(*(range(d) for d in basis.orders))
        ]
        chs.sort(key=lambda ch: ch.exps)
        ring._characters = chs
    return ring._characters
