"""The stacked determinant and inverse as they were computed before both
came from one Leibniz routine: kept as the references ``matgroup.det`` and
``matgroup.mat_inv`` must equal bitwise.

- ``reference_det``: Leibniz over the permutation table, its n! signed
  terms summed by n! - 1 table additions.
- ``reference_mat_inv``: Gauss-Jordan with unit pivots, where a non-unit
  diagonal entry gets the first unit row below it added.
"""

import numpy as np

from ultrasph.matgroup import _perm_table


def reference_det(ring, a):
    """Determinant of an (n, n) matrix (an int) or an (N, n, n) stack."""
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


def reference_mat_inv(ring, a):
    """Inverse of an (n, n) matrix or of each matrix in an (N, n, n) stack;
    ValueError when some column has no unit pivot."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    A = a.reshape(-1, n, n)
    M = np.concatenate([A, np.broadcast_to(np.eye(n, dtype=np.int64), A.shape)], axis=2)
    rows = np.arange(A.shape[0])
    for col in range(n):
        unit = ring.val_arr(M[:, col:, col]) == 0
        if not unit.any(axis=1).all():
            raise ValueError("matrix is not invertible: no unit pivot")
        # a non-unit plus a unit is a unit in a local ring
        r = col + unit.argmax(axis=1)
        M[:, col] = ring.add_arr(M[:, col], M[rows, r] * (r != col)[:, None])
        M[:, col] = ring.mul_arr(ring.inv_arr(M[:, col, col])[:, None], M[:, col])
        f = M[:, :, col, None].copy()
        f[:, col] = 0
        M = ring.sub_arr(M, ring.mul_arr(f, M[:, col, None, :]))
    return M[:, :, n:].reshape(a.shape)
