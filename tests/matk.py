"""``MatK``, the one-matrix wrapper the package's group elements used to be.

The package works on int64 code arrays only.  The references written one
matrix at a time (the rejection samplers, the double coset witness, the
generator factorisations) still read best with operator products, so the
wrapper lives here, next to them.
"""

import numpy as np

from ultrasph.matgroup import det, mat_inv


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
