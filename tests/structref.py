"""Character-free structure as it was computed before it was built once per
(ring, n): kept as the references the shared versions must equal bitwise.

- ``reference_flag_canon`` and ``reference_act``: every product reps[r] k
  formed whole, all n rows reduced on strided column slices, and each coset
  found by binary search in sorted keys (``find_keys``).
- ``reference_flag_closure``: the cosets closed from the identity as
  canonical matrices, one product stack per layer deduplicated by sorted
  merges of their keys.
- ``ReferenceOrbitTree``: phases walked layer by layer, each generator's
  cocycle checked on its own.
- ``reference_character``: a character's rotation indices and conductor
  from loops over the unit group.
- ``reference_scalar_orbits``: the scalar orbits from the stack of every
  unit's scalar permutation.
- ``reference_piece_fault``: the four label facts each character's piece
  checked on its own labels, before a level's labels and their facts were
  shared by every character.
"""

import numpy as np

from ultrasph.matgroup import row_keys
from ultrasph.sphere import orbit_labels


def find_keys(sorted_keys, keys):
    """Positions of ``keys`` in the sorted array ``sorted_keys``; KeyError
    when one is absent."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    if not (sorted_keys[pos] == keys).all():
        raise KeyError("key not in the index")
    return pos


def reference_flag_canon(ring, a):
    """Canonical form and B-factor pivots of an (N, n, n) stack, all n rows
    reduced bottom-up with unit pivots scaled to 1 and entries above pivots
    cleared."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    A = a.reshape(-1, n, n).copy()
    N = A.shape[0]
    rows = np.arange(N)
    piv_cols = np.zeros((N, n), dtype=np.int64)
    piv_vals = np.ones((N, n), dtype=np.int64)
    free = np.ones((N, n), dtype=bool)
    for i in range(n - 1, -1, -1):
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
    return A, piv_vals


def reference_act(cosets, K, rows=None):
    """(slots, pivots) of ``FlagCosets.act`` from whole products and the
    full-row reduction, looked up by the keys of the whole canonical forms."""
    ring, n = cosets.ring, cosets.n
    K = ring.as_codes(K)
    reps = cosets.reps if rows is None else cosets.reps[rows]
    prods = ring.matmul(reps, K[:, None]).reshape(-1, n, n)
    canon, pivots = reference_flag_canon(ring, prods)
    keys = row_keys(ring, cosets.reps)
    order = np.argsort(keys)
    slots = order[find_keys(keys[order], row_keys(ring, canon))]
    shape = (len(K), len(reps))
    return slots.reshape(shape), pivots.reshape(*shape, n)


def reference_flag_closure(ring, n, gens):
    """The canonical coset representatives in breadth-first order from the
    identity: each layer multiplies the frontier by every generator,
    generator-major, reduces the products with ``reference_flag_canon`` and
    keeps the first occurrence of each key not seen before, in stack order."""
    frontier = np.eye(n, dtype=np.int64)[None]
    layers = [frontier]
    seen = row_keys(ring, frontier)
    while len(frontier):
        cand = reference_flag_canon(ring, np.concatenate([ring.matmul(frontier, g) for g in gens]))[0]
        keys, first = np.unique(row_keys(ring, cand), return_index=True)
        slot = np.searchsorted(seen, keys)
        new = seen[np.minimum(slot, len(seen) - 1)] != keys
        frontier = cand[np.sort(first[new])]
        layers.append(frontier)
        seen = np.insert(seen, slot[new], keys[new])  # a sorted merge
    return np.concatenate(layers)


class ReferenceOrbitTree:
    """The breadth-first forest kept as layers, with ``phases`` walking them
    one at a time and checking each generator's cocycle separately."""

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


def reference_character(ring, basis, exps):
    """(rotation indices, conductor) of the character with exponents ``exps``
    against ``basis``, by loops over the unit group."""
    exps = tuple(int(e) % d for e, d in zip(exps, basis.orders))
    L = basis.exponent
    nums = np.full(ring.size, -1, dtype=np.int64)
    for u, vec in basis.dlog.items():
        s = 0
        for a, e, d in zip(exps, vec, basis.orders):
            s += a * e * (L // d)
        nums[u] = s % L
    for ell in range(ring.m + 1):
        step = ring.q**ell if ell < ring.m else ring.size
        if all(nums[u] == 0 for u in ring.units() if (u - 1) % step == 0):
            return nums, ell
    raise AssertionError("every character is trivial on 1 + p^m = {1}")


def reference_scalar_orbits(S):
    """(orbit, unit, count) from the stack of every unit's scalar
    permutation: one argmin over the |units| x |S| slots of a * points[i]
    picks each orbit's least point."""
    units = S.ring.units()
    perms = np.array([S.scalar_perm(a) for a in units])  # slots of a * points
    at = perms.argmin(axis=0)
    roots, orbit = np.unique(perms[at, np.arange(S.size)], return_inverse=True)
    return orbit, S.ring.inv_arr(units)[at], len(roots)


def reference_piece_fault(space, chi, level, fibre, pos, rot, fibres, k):
    """The first of the four label facts that fails for the piece of ``chi``
    at ``level`` with labels (fibre, pos, rot) over ``fibres`` fibres of
    ``k`` positions, or None.  Equivariance: each unit-group generator u
    keeps fibres and positions and adds chi's index at u to rot.  Level:
    the labels are constant on level-l fibres.  Depth: fibres and rot are
    the scalar orbits and phases at depth l - 1 (l when k = 1).  Spread:
    every (fibre, position) holds as many points."""
    labels = np.stack([fibre, pos, rot])
    for u, perm in space.index.unit_perms():
        moved = labels[:, perm]
        if not (np.array_equal(moved[:2], labels[:2])
                and np.array_equal(moved[2], (rot + chi._nums[u]) % chi.order)):
            return f"labels are not equivariant under the scalar {space.ring.element_str(u)}"
    proj = space.index.child(level)[1] if level else np.zeros(space.size, dtype=np.int64)
    first = np.empty(space.size, dtype=np.int64)
    first[proj] = np.arange(space.size)
    if not np.array_equal(labels[:, first[proj]], labels):
        return f"labels are not constant on level-{level} fibres"
    orbit, unit, count = space.depth(level - (k > 1))
    if not (count == fibres and np.array_equal(fibre, orbit)
            and np.array_equal(rot, chi._nums[unit])):
        return f"fibres or phases differ from the depth-{level - (k > 1)} orbits"
    if not 0 <= pos.min() <= pos.max() < k or np.ptp(np.bincount(fibre * k + pos, minlength=fibres * k)):
        return f"points not spread evenly over the {k} positions of each fibre"
    return None
