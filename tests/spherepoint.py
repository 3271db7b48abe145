"""The scalar sphere-point API the package's code stacks replaced, kept for
the tests: one point as a tuple of codes, with reduction and the right
action written point by point over the ring."""

import numpy as np

from ultrasph.sphere import SphereIndex


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
    a = ring.as_codes(k)
    if a.shape != (len(pt.coords), len(pt.coords)):
        raise ValueError("dimension mismatch")
    moved = ring.matmul(np.array(pt.coords, dtype=np.int64), a)
    return SpherePoint(ring, tuple(int(c) for c in moved))
