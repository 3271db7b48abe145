"""Enumeration of and action on the finite sphere S^(n-1) mod p^m.

A sphere point is an n-tuple over O/p^m with at least one unit
coordinate.  Points are enumerated in lexicographic order of their code
tuples, and the resulting index bijection is what function vectors are
keyed by downstream.
"""

from __future__ import annotations

import numpy as np

from .matgroup import BudgetExceededError, find_keys, row_keys

# Cap on the bytes of the (N, N) int64 orbital label array (N <= 2048);
# labelling needs a few arrays of that size at once.
ORBITAL_BYTES_MAX = 2**25
# Cap on the bytes of the dense complex piece bases, 16 |S|^2 in all, that
# decompose builds (|S| <= 8192); its orthogonality Gram takes as much again.
BASIS_BYTES_MAX = 2**30


def sphere_size(q, n, m):
    """q^((m-1)n) * (q^n - 1): tuples with at least one unit coordinate."""
    return q ** ((m - 1) * n) * (q**n - 1)


def orbit_labels(perms, shape):
    """Least flat index of each cell's orbit, as an array of ``shape``.

    The permutations ``perms`` of range(N) act on every axis of ``shape``
    (each of length N) at once: on slots for a 1-D shape, on pairs
    (x, y) -> (s[x], s[y]) for a 2-D one.  Each cell starts at its own flat
    index; min-label propagation along every permutation, with pointer
    jumping, runs to a fixed point, where each label is the least index of
    its cell's orbit.  The orbits' roots are the cells labelled with their
    own index.
    """
    lab = np.arange(np.prod(shape), dtype=np.int64).reshape(shape)
    while True:
        prev = lab
        for s in perms:
            lab = np.minimum(lab, lab[np.ix_(*[s] * len(shape))])
        lab = lab.ravel()[lab]
        if np.array_equal(lab, prev):
            return lab


class SpherePoint:
    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        coords = tuple(int(c) for c in coords)
        if not any(ring.is_unit(c) for c in coords):
            raise ValueError("not a sphere point: no unit coordinate")
        self.ring = ring
        self.coords = coords

    def __eq__(self, other):
        return (
            isinstance(other, SpherePoint)
            and self.ring == other.ring
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __repr__(self):
        return "SpherePoint(" + ",".join(self.ring.element_str(c) for c in self.coords) + ")"


class SphereIndex:
    """Dense index of all sphere points at one level, plus action helpers.

    Immutable after construction.  ``points`` is an (N, n) array of codes
    in enumeration order and ``codes`` their int64 mixed-radix keys, which
    that order sorts (under the point cap, size**n fits an int64); ``idx``
    maps points back to slots by binary search.
    """

    def __init__(self, ring, n, cap=10**6):
        if n < 2:
            raise ValueError("n >= 2 required")
        expected = sphere_size(ring.q, n, ring.m)
        if expected > cap:
            raise ValueError(f"sphere size {expected} exceeds cap {cap}")
        self.ring = ring
        self.n = n
        tuples = np.indices((ring.size,) * n, dtype=np.int64).reshape(n, -1).T
        pts = tuples[(ring.val_arr(tuples) == 0).any(axis=1)]
        if len(pts) != expected:
            raise RuntimeError("sphere enumeration does not match the size formula")
        self.points = pts
        self.codes = row_keys(ring, pts)
        self.size = expected
        self.e_n = self.idx(np.eye(n, dtype=np.int64)[n - 1])
        self.coord_vals = ring.val_arr(self.points)
        self._scalar_orbits = None
        self._matrix_perms = {}
        self._orbitals = {}
        self._children = {}

    def idx(self, coords):
        """Slot of one point (an int), or of each row of an (N, n) stack (an
        int64 array); KeyError on a row that is not a sphere point."""
        rows = np.asarray(coords, dtype=np.int64)
        stack = rows.reshape(-1, rows.shape[-1])
        if stack.shape[1] != self.n or (
            stack.size and (stack.min() < 0 or stack.max() >= self.ring.size)
        ):
            raise KeyError("not a sphere point: wrong length or entries outside the ring")
        slots = find_keys(self.codes, row_keys(self.ring, stack))
        return int(slots[0]) if rows.ndim == 1 else slots

    def perm_of_matrix(self, k):
        """Permutation sigma with sigma[i] = index of points[i] . k."""
        k = np.asarray(k, dtype=np.int64)
        key = k.tobytes()
        if key not in self._matrix_perms:
            self._matrix_perms[key] = self.idx(self.ring.matmul(self.points, k))
        return self._matrix_perms[key]

    def orbit_count(self, mats):
        """Number of orbits on the sphere of the group generated by ``mats``:
        the roots of ``orbit_labels`` over the |S| slots."""
        lab = orbit_labels(self._perms(mats), (self.size,))
        return int(np.count_nonzero(lab == np.arange(self.size)))

    def orbital_labels(self, mats):
        """Orbits of the group generated by ``mats`` on pairs of points.

        Returns (labels, r): labels[x, y] in 0..r-1 names the orbit of
        (x, y) under (x, y) -> (x k, y k), numbered by first pair in
        row-major order, from ``orbit_labels`` on the (|S|, |S|) grid.
        Cached per generator list; raises BudgetExceededError before
        allocating when the label array would exceed ORBITAL_BYTES_MAX.
        """
        mats = np.asarray(mats, dtype=np.int64)
        key = tuple(k.tobytes() for k in mats)
        if key not in self._orbitals:
            nbytes = self.size**2 * 8
            if nbytes > ORBITAL_BYTES_MAX:
                raise BudgetExceededError(
                    f"orbital labels need {nbytes} bytes, over the cap {ORBITAL_BYTES_MAX}"
                )
            lab = orbit_labels(self._perms(mats), (self.size, self.size))
            firsts, labels = np.unique(lab, return_inverse=True)
            self._orbitals[key] = (labels.reshape(lab.shape), len(firsts))
        return self._orbitals[key]

    def _perms(self, mats):
        """The slot permutations of ``mats`` and their inverses."""
        perms = [self.perm_of_matrix(k) for k in mats]
        return perms + [np.argsort(s) for s in perms]

    def scalar_perm(self, a):
        """Permutation i -> index of a * points[i] for a unit code a."""
        if not self.ring.is_unit(int(a)):
            raise ValueError("scalar action requires a unit")
        return self.idx(self.ring.mul_arr(self.points, np.int64(a)))

    def scalar_orbits(self):
        """(orbit, unit, count), cached: points[i] = unit[i] * r for the least
        point r of its orbit under the units, and the only unit to fix a sphere
        point is 1; orbit[i] numbers the orbit by r's slot, of count orbits."""
        if self._scalar_orbits is None:
            units = self.ring.units()
            perms = np.array([self.scalar_perm(a) for a in units])  # slots of a * points
            at = perms.argmin(axis=0)
            roots, orbit = np.unique(perms[at, np.arange(self.size)], return_inverse=True)
            self._scalar_orbits = (orbit, self.ring.inv_arr(units)[at], len(roots))
        return self._scalar_orbits

    def child(self, ell, cap=10**6):
        """SphereIndex at level ell <= m plus the fiber projection map.

        Returns (child_index, proj) where proj[i] is the child slot of the
        reduction of point i.
        """
        if ell == self.ring.m:
            return self, np.arange(self.size)
        if ell not in self._children:
            sub = SphereIndex(self.ring.at_level(ell), self.n, cap=cap)
            self._children[ell] = (sub, sub.idx(self.ring.reduce_arr(self.points, ell)))
        return self._children[ell]


def enumerate_sphere(ring, n, cap=10**6):
    return SphereIndex(ring, n, cap=cap)


def reduce_point(pt, ell):
    """Coordinatewise reduction to level ell <= m."""
    ring = pt.ring
    if not 1 <= ell <= ring.m:
        raise ValueError("1 <= ell <= m required")
    low = ring.at_level(ell)
    return SpherePoint(low, tuple(ring.reduce_code(c, ell) for c in pt.coords))


def act_point(pt, k):
    """Right action x . k (row vector times the (n, n) code array k) over the
    ring; ValueError on a wrong shape or entries outside range(ring.size)."""
    ring = pt.ring
    a = np.asarray(k, dtype=np.int64)
    if a.shape != (len(pt.coords), len(pt.coords)) or a.min() < 0 or a.max() >= ring.size:
        raise ValueError("dimension mismatch or entries outside the ring")
    moved = ring.matmul(np.array(pt.coords, dtype=np.int64), a)
    return SpherePoint(ring, tuple(int(c) for c in moved))
