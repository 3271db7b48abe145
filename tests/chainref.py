"""The randomised Schreier-Sims stabiliser chain that certified generator
lists before every proposed list was a strong generating set, kept as the
reference order the orbit products of ``matgroup.verify_generators`` must
equal (Sims 1970; Seress, Permutation Group Algorithms, 2003, ch. 4).

- ``Level``: one level's orbit as a Schreier vector over a direct-address
  table, with its transversal and inverses built when first read.
- ``reference_level``: the eager level that the Schreier vector replaced,
  sorted point keys and the transversal formed on every layer.
- ``StabiliserChain`` and ``reference_order``: random Schreier generators
  sifted in batches with a fixed seed, then every Schreier generator, until
  the chain is complete and its orbit product is the order of the group.
- ``named_product``: the orbit product a refused certificate names.
"""

import math
import re

import numpy as np

from ultrasph.matgroup import mat_inv, row_keys

CHAIN_BATCH = 64  # Schreier generators sifted at once
CHAIN_QUIET_PASSES = 4  # random passes that add nothing before every Schreier generator is sifted


class Level:
    """The orbit of the base row e_row under right multiplication by
    ``gens``, kept as a Schreier vector: point i is ``pts[i]``, the image of
    point ``parent[i]`` under generator ``via[i]``, and ``bounds`` delimit
    the breadth-first layers.  ``table``, one int32 slot per row key, holds
    each point's index, or -1.  The transversal ``u`` (row ``row`` of u[i]
    is point i) and its inverses ``uinv`` are built when first read."""

    def __init__(self, ring, n, row, gens):
        self.ring, self.row, self.gens = ring, row, []
        self.pts = np.eye(n, dtype=np.int64)[row][None]
        self.parent = self.via = np.zeros(1, dtype=np.int64)
        self.bounds = [0, 1]
        self.table = np.full(ring.size**n, -1, dtype=np.int32)
        self.table[row_keys(ring, self.pts)] = 0
        self._u = self._uinv = np.eye(n, dtype=np.int64)[None]
        self._ginv = np.zeros((0, n, n), dtype=np.int64)
        self.extend(gens)

    def extend(self, new):
        """Add the generators ``new`` and close the orbit: images of every
        point under them, then breadth-first under all generators.  Each
        layer keeps the first occurrence of each unseen point, in stack
        order, with the point and generator it came from."""
        if not len(new):
            return
        ring = self.ring
        self.gens = self.gens + list(new)
        G = np.stack(self.gens)
        pts, parent, via = [self.pts], [self.parent], [self.via]
        front, lo, size = self.pts, 0, len(self.pts)
        apply = np.arange(len(G) - len(new), len(G))
        while len(front):
            cand = ring.matmul(front, G[apply]).reshape(-1, front.shape[-1])
            ckeys = row_keys(ring, cand)
            unseen = np.flatnonzero(self.table[ckeys] < 0)
            ukeys = ckeys[unseen]
            self.table[ukeys] = np.iinfo(np.int32).max
            np.minimum.at(self.table, ukeys, unseen.astype(np.int32))
            fresh = unseen[self.table[ukeys] == unseen]
            self.table[ckeys[fresh]] = np.arange(size, size + len(fresh))
            parent.append(lo + fresh % len(front))
            via.append(apply[fresh // len(front)])
            front, lo, size = cand[fresh], size, size + len(fresh)
            pts.append(front)
            self.bounds.append(size)
            apply = np.arange(len(G))
        self.pts, self.parent, self.via = map(np.concatenate, (pts, parent, via))

    @property
    def u(self):
        self._transversal()
        return self._u

    @property
    def uinv(self):
        self._transversal()
        return self._uinv

    def _transversal(self):
        """Fill u and uinv for the points added since they were last read,
        layer by layer: u[i] = u[parent] G[via], uinv[i] = G[via]^-1 uinv[parent]."""
        done, total = len(self._u), len(self.pts)
        if done == total:
            return
        ring = self.ring
        G = np.stack(self.gens)
        if len(self._ginv) < len(G):
            self._ginv = np.concatenate([self._ginv, mat_inv(ring, G[len(self._ginv) :])])
        u = np.empty((total,) + G.shape[1:], dtype=np.int64)
        uinv = np.empty_like(u)
        u[:done], uinv[:done] = self._u, self._uinv
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            if hi > max(lo, done):
                p, g = self.parent[lo:hi], self.via[lo:hi]
                u[lo:hi] = ring.matmul(u[p], G[g])
                uinv[lo:hi] = ring.matmul(self._ginv[g], uinv[p])
        self._u, self._uinv = u, uinv

    def locate(self, x):
        """Transversal index of the point of each element of the stack x, and
        whether that point lies in the orbit at all (index -1 when not)."""
        slot = self.table[row_keys(self.ring, x[:, self.row])]
        return slot, slot >= 0

    def schreier(self, p, s):
        """Schreier generators u_p g_s u_{p g_s}^{-1} for index arrays p, s."""
        y = self.ring.matmul(self.u[p], np.stack(self.gens)[s])
        return self.ring.matmul(y, self.uinv[self.locate(y)[0]])


class reference_level:
    """The eager stabiliser-chain level the Schreier vector replaced: sorted
    point keys, and the transversal and its inverses formed on every layer."""

    def __init__(self, ring, n, row, gens):
        self.ring, self.row, self.gens = ring, row, []
        self.u = self.uinv = np.eye(n, dtype=np.int64)[None]
        self.keys = row_keys(ring, self.u[:, row])
        self.slots = np.zeros(1, dtype=np.int64)
        self.extend(gens)

    def extend(self, new):
        if not len(new):
            return
        ring = self.ring
        self.gens = self.gens + list(new)
        G = np.stack(self.gens)
        Ginv = mat_inv(ring, G)
        us, uinvs = [self.u], [self.uinv]
        size = len(self.u)
        apply = np.arange(len(G) - len(new), len(G))
        while len(us[-1]) and len(apply):
            front, front_inv = us[-1], uinvs[-1]
            cand = ring.matmul(front[:, self.row], G[apply]).reshape(-1, front.shape[-1])
            ckeys = row_keys(ring, cand)
            keys, first = np.unique(ckeys, return_index=True)
            slot = np.searchsorted(self.keys, keys)
            fresh = np.sort(first[self.keys[np.minimum(slot, len(self.keys) - 1)] != keys])
            parent, g = fresh % len(front), apply[fresh // len(front)]
            us.append(ring.matmul(front[parent], G[g]))
            uinvs.append(ring.matmul(Ginv[g], front_inv[parent]))
            fkeys = ckeys[fresh]
            order = np.argsort(fkeys)
            at = np.searchsorted(self.keys, fkeys[order])
            self.keys = np.insert(self.keys, at, fkeys[order])
            self.slots = np.insert(self.slots, at, size + order)
            size += len(fresh)
            apply = np.arange(len(G))
        self.u, self.uinv = np.concatenate(us), np.concatenate(uinvs)

    def locate(self, x):
        keys = row_keys(self.ring, x[:, self.row])
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return self.slots[pos], self.keys[pos] == keys


class StabiliserChain:
    """Stabiliser chain of the group generated by (n, n) arrays ``gens``.

    Elements act on row vectors by right multiplication.  The base is
    e_{n-1}, ..., e_0: level t stabilises the rows of the levels above it and
    moves row n-1-t, so a matrix fixing every base point is the identity.
    Level t's generators are those of ``gens`` that fix the earlier base
    rows, plus every residue added at level t or below.  Each orbit is then
    an orbit of a subgroup of the true stabiliser, so ``order`` never exceeds
    the order of the group, and equals it once ``sweep`` finds nothing to add.
    """

    def __init__(self, ring, n, gens):
        self.ring, self.n = ring, n
        eye = np.eye(n, dtype=np.int64)
        self.levels = [
            Level(ring, n, n - 1 - t, [g for g in gens if np.array_equal(g[n - t :], eye[n - t :])])
            for t in range(n)
        ]

    def order(self):
        return math.prod(len(lev.pts) for lev in self.levels)

    def sift(self, x, t):
        """Sift the stack x, which fixes the base rows of levels < t, through
        levels t, t+1, ...  Returns (level, element) for the first element
        whose point leaves that level's orbit, or None when every element
        sifts to the identity."""
        for j in range(t, self.n):
            lev = self.levels[j]
            slot, hit = lev.locate(x)
            if not hit.all():
                return j, x[np.argmin(hit)]
            x = self.ring.matmul(x, lev.uinv[slot])
        return None

    def add(self, j, h):
        """A residue that fixes the base rows of levels < j becomes a strong
        generator at level j and every level above it."""
        for lev in self.levels[: j + 1]:
            lev.extend([h])

    def random_pass(self, rng):
        """Sift CHAIN_BATCH random Schreier generators per level, top level
        first, adding the first residue of each batch.  True when one was added."""
        grew = False
        for t, lev in enumerate(self.levels[:-1]):
            if lev.gens:
                p = rng.integers(0, len(lev.pts), CHAIN_BATCH)
                s = rng.integers(0, len(lev.gens), CHAIN_BATCH)
                hit = self.sift(lev.schreier(p, s), t + 1)
                if hit is not None:
                    self.add(*hit)
                    grew = True
        return grew

    def sweep(self):
        """Sift every Schreier generator once, bottom level first.  Adds the
        first residue and returns True, or returns False: then every Schreier
        generator sifts to the identity, the chain is complete (Schreier's
        lemma) and ``order`` is the order of the group."""
        for t in range(self.n - 2, -1, -1):
            lev = self.levels[t]
            total = len(lev.pts) * len(lev.gens)
            for lo in range(0, total, CHAIN_BATCH):
                i = np.arange(lo, min(lo + CHAIN_BATCH, total))
                hit = self.sift(lev.schreier(i // len(lev.gens), i % len(lev.gens)), t + 1)
                if hit is not None:
                    self.add(*hit)
                    return True
        return False


def reference_order(ring, n, gens, quiet=CHAIN_QUIET_PASSES):
    """The order of the group generated by the (G, n, n) stack ``gens``, from
    a complete chain: random passes with a fixed seed until ``quiet`` of
    them add nothing, then sweeps until one adds nothing."""
    chain = StabiliserChain(ring, n, gens)
    rng = np.random.default_rng(0)
    idle = 0
    while idle < quiet:
        idle = 0 if chain.random_pass(rng) else idle + 1
    while chain.sweep():
        pass
    return chain.order()


def named_product(message):
    """The orbit product named by the message of a refused certificate."""
    return int(re.search(r"orbit product of (\d+)", str(message)).group(1))
