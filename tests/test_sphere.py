import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultrasph.sphere
from spherepoint import SpherePoint, act_point, enumerate_sphere, reduce_point
from structref import find_keys
from ultrasph.matgroup import (
    BudgetExceededError,
    SubgroupSpec,
    closure,
    enumerate_group,
    row_keys,
    subgroup_generators,
)
from ultrasph.ring import characters, make_ring_level
from ultrasph.sphere import sphere_size


# small rings of both branches, (branch, p, f, m)
SMALL_RINGS = [
    ("padic", 2, 1, 1),
    ("padic", 2, 1, 3),
    ("padic", 3, 1, 2),
    ("padic", 5, 1, 1),
    ("laurent", 2, 2, 1),
    ("laurent", 2, 2, 2),
    ("laurent", 3, 1, 2),
]


def reference_idx(S, coords):
    """The slot lookup by binary search in the sorted keys of the points."""
    rows = np.asarray(coords, dtype=np.int64)
    stack = rows.reshape(-1, rows.shape[-1])
    if stack.shape[1] != S.n or (
        stack.size and (stack.min() < 0 or stack.max() >= S.ring.size)
    ):
        raise KeyError("not a sphere point: wrong length or entries outside the ring")
    slots = find_keys(row_keys(S.ring, S.points), row_keys(S.ring, stack))
    return int(slots[0]) if rows.ndim == 1 else slots


def reference_scalar_orbits(S):
    """(orbit, unit, count) from the stack of every unit's scalar
    permutation: one argmin over the |units| x |S| slots of a * points[i]
    picks each orbit's least point."""
    units = S.ring.units()
    perms = np.array([S.scalar_perm(a) for a in units])  # slots of a * points
    at = perms.argmin(axis=0)
    roots, orbit = np.unique(perms[at, np.arange(S.size)], return_inverse=True)
    return orbit, S.ring.inv_arr(units)[at], len(roots)


class TestEnumeration:
    def test_q2_n2_m1(self):
        R = make_ring_level("padic", 2, 1, 1)
        S = enumerate_sphere(R, 2)
        assert S.size == 3
        assert {tuple(int(c) for c in p) for p in S.points} == {(0, 1), (1, 0), (1, 1)}

    @pytest.mark.parametrize(
        "branch,p,f,m,n,expected",
        [
            ("padic", 3, 1, 2, 2, 72),
            ("padic", 2, 1, 2, 3, 56),
            ("padic", 2, 1, 3, 2, 48),
            ("laurent", 2, 2, 2, 2, 240),
            ("padic", 5, 1, 1, 2, 24),
        ],
    )
    def test_size_formula(self, branch, p, f, m, n, expected):
        R = make_ring_level(branch, p, f, m)
        S = enumerate_sphere(R, n)
        assert S.size == expected == sphere_size(R.q, n, m)

    def test_every_point_has_unit(self):
        R = make_ring_level("padic", 2, 1, 2)
        S = enumerate_sphere(R, 3)
        assert (S.coord_vals.min(axis=1) == 0).all()

    def test_cap_guard(self):
        R = make_ring_level("padic", 5, 1, 3)
        with pytest.raises(ValueError):
            enumerate_sphere(R, 3, cap=10)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            enumerate_sphere(make_ring_level("padic", 2, 1, 1), 1)

    def test_lexicographic_deterministic(self):
        R = make_ring_level("padic", 3, 1, 1)
        S1 = enumerate_sphere(R, 2)
        S2 = enumerate_sphere(R, 2)
        assert np.array_equal(S1.points, S2.points)
        assert all(
            tuple(S1.points[i]) <= tuple(S1.points[i + 1]) for i in range(S1.size - 1)
        )


class TestLookup:
    @pytest.mark.parametrize(
        "branch,p,f,m,n",
        [
            ("padic", 2, 1, 2, 2),
            ("padic", 3, 1, 1, 3),
            ("padic", 2, 1, 2, 3),
            ("laurent", 2, 2, 1, 2),
        ],
    )
    def test_stack_matches_point_lookup(self, branch, p, f, m, n):
        S = enumerate_sphere(make_ring_level(branch, p, f, m), n)
        reference = {tuple(row): i for i, row in enumerate(S.points.tolist())}
        rows = S.points[np.random.default_rng(0).integers(0, S.size, 50)]
        got = S.idx(rows)
        assert got.tolist() == [reference[tuple(r)] for r in rows.tolist()]
        assert got.tolist() == [S.idx(r) for r in rows]
        assert np.array_equal(S.idx(S.points), np.arange(S.size))

    def test_non_point_raises(self):
        S = enumerate_sphere(make_ring_level("padic", 2, 1, 2), 2)
        # no unit coordinate, entries outside range(4) (code 5 would alias
        # the point (1, 1)), a negative entry, a row of the wrong length
        for bad in ([2, 0], [0, 0], [0, 5], [4, 1], [-1, 1], [1, 1, 1]):
            with pytest.raises(KeyError):
                S.idx(bad)
        with pytest.raises(KeyError):
            S.idx(np.array([[1, 0], [2, 2]]))

    @given(
        ring=st.sampled_from(SMALL_RINGS),
        n=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_direct_address_matches_binary_search(self, ring, n, seed, count):
        S = enumerate_sphere(make_ring_level(*ring), n)
        rng = np.random.default_rng(seed)
        # rows of points, of non-units only, and of codes just outside the ring
        rows = [
            S.points[rng.integers(S.size)],
            S.ring.uniformizer_pow(1) * rng.integers(0, S.ring.size, n) % S.ring.size,
            rng.integers(-1, S.ring.size + 1, n),
        ]
        stack = np.array([rows[i] for i in rng.integers(0, 3, count)])
        for coords in [*stack, stack]:
            try:
                want = reference_idx(S, coords)
            except KeyError:
                with pytest.raises(KeyError):
                    S.idx(coords)
            else:
                assert np.array_equal(S.idx(coords), want)


class TestReduce:
    def test_examples(self):
        R4 = make_ring_level("padic", 2, 1, 2)
        assert reduce_point(SpherePoint(R4, (2, 1)), 1).coords == (0, 1)
        R9 = make_ring_level("padic", 3, 1, 2)
        assert reduce_point(SpherePoint(R9, (1, 3)), 1).coords == (1, 0)

    def test_identity_at_same_level(self):
        R = make_ring_level("padic", 3, 1, 2)
        pt = SpherePoint(R, (4, 3))
        assert reduce_point(pt, 2).coords == pt.coords

    def test_result_on_sphere(self):
        R = make_ring_level("padic", 2, 1, 3)
        S = enumerate_sphere(R, 2)
        for row in S.points:
            rp = reduce_point(SpherePoint(R, tuple(int(c) for c in row)), 1)
            assert any(rp.ring.is_unit(c) for c in rp.coords)


class TestAction:
    def test_identity(self):
        R = make_ring_level("padic", 2, 1, 2)
        pt = SpherePoint(R, (2, 1))
        assert act_point(pt, np.eye(2, dtype=np.int64)).coords == pt.coords

    def test_mirab_stabilises_en(self):
        R = make_ring_level("padic", 2, 1, 2)
        en = SpherePoint(R, (0, 1))
        for g in closure(R, subgroup_generators(SubgroupSpec("Kmirab"), R, 2)):
            assert act_point(en, g).coords == (0, 1)

    def test_orbit_of_en_is_whole_sphere_gl2_f2(self):
        R = make_ring_level("padic", 2, 1, 1)
        S = enumerate_sphere(R, 2)
        en = SpherePoint(R, (0, 1))
        orbit = {act_point(en, k).coords for k in enumerate_group(R, 2)}
        assert len(orbit) == S.size == 3

    def test_associativity(self):
        R = make_ring_level("padic", 3, 1, 2)
        S = enumerate_sphere(R, 2)
        rng = np.random.default_rng(0)
        from ultrasph.matgroup import random_in_K

        for _ in range(25):
            k1 = random_in_K(R, 2, rng)
            k2 = random_in_K(R, 2, rng)
            p1 = S.perm_of_matrix(R.matmul(k1, k2))
            p2 = S.perm_of_matrix(k2)[S.perm_of_matrix(k1)]
            assert np.array_equal(p1, p2)

    def test_reduce_commutes_with_act(self):
        R = make_ring_level("padic", 2, 1, 2)
        rng = np.random.default_rng(1)
        from ultrasph.matgroup import random_in_K

        for _ in range(20):
            k = random_in_K(R, 2, rng)
            pt = SpherePoint(R, (2, 1))
            lhs = reduce_point(act_point(pt, k), 1)
            rhs = act_point(reduce_point(pt, 1), R.reduce_arr(k, 1))
            assert lhs.coords == rhs.coords

    def test_laurent_row_action(self):
        # a 1-D row times a matrix stays 1-D on the laurent branch too
        R = make_ring_level("laurent", 2, 2, 2)
        moved = act_point(SpherePoint(R, (1, 0)), np.array([[1, 5], [0, 1]]))
        assert moved == SpherePoint(R, (1, 5))

    def test_dimension_mismatch(self):
        R = make_ring_level("padic", 2, 1, 2)
        with pytest.raises(ValueError):
            act_point(SpherePoint(R, (0, 1)), np.eye(3, dtype=np.int64))

    @pytest.mark.parametrize("branch,p,f", [("padic", 2, 1), ("laurent", 2, 2)])
    def test_codes_outside_the_ring_rejected(self, branch, p, f):
        # codes outside range(ring.size), a finer level's among them, are refused
        # before the table gather, which would raise IndexError or wrap a negative code
        R = make_ring_level(branch, p, f, 2)
        fine = make_ring_level(branch, p, f, 3)
        for bad in ([[1, R.size], [0, 1]], [[1, -1], [0, 1]], [[1, 0], [fine.size - 1, 1]]):
            with pytest.raises(ValueError, match="outside the ring"):
                act_point(SpherePoint(R, (0, 1)), np.array(bad))

    @pytest.mark.parametrize("bad", [[[1, -1], [0, 1]], [[1, 4], [0, 1]], [[1, 0], [-3, 1]]])
    def test_perm_of_matrix_rejects_codes_outside_the_ring(self, bad):
        # [[1, -1], [0, 1]] would wrap to the permutation of [[1, 3], [0, 1]] in
        # the table gather, and a code of 4 would raise IndexError there
        S = enumerate_sphere(make_ring_level("padic", 2, 1, 2), 2)
        with pytest.raises(ValueError, match="outside the ring"):
            S.perm_of_matrix(np.array(bad))
        assert S._matrix_perms == {}

    def test_transitivity_and_uniform_stabilisers(self):
        # justifies the uniform-measure identification downstream
        for branch, p, f, m, n in [
            ("padic", 2, 1, 1, 2),
            ("padic", 2, 1, 2, 2),
            ("padic", 3, 1, 1, 2),
            ("padic", 2, 1, 1, 3),
        ]:
            R = make_ring_level(branch, p, f, m)
            S = enumerate_sphere(R, n)
            counts = np.zeros(S.size, dtype=int)
            total = 0
            for k in enumerate_group(R, n):
                counts[S.idx(k[n - 1])] += 1
                total += 1
            assert counts.min() > 0  # transitive
            assert counts.min() == counts.max() == total // S.size

    def test_scalar_perm_matches_diagonal_action(self):
        R = make_ring_level("padic", 3, 1, 2)
        S = enumerate_sphere(R, 2)
        for a in (1, 2, 4):
            perm = S.scalar_perm(a)
            diag = np.diag([a, a]).astype(np.int64)
            assert np.array_equal(perm, S.perm_of_matrix(diag))


class TestOrbitals:
    @pytest.mark.parametrize(
        "point,kind",
        [
            (("padic", 2, 1, 2, 2), "K"),
            (("padic", 3, 1, 1, 2), "K"),
            (("padic", 2, 1, 1, 3), "K"),
            (("padic", 2, 1, 2, 2), "Kmirab"),
            (("laurent", 2, 2, 1, 2), "Kmirab"),
        ],
    )
    def test_labels_match_closure(self, point, kind):
        # brute force: the least pair index over every group element
        branch, p, f, m, n = point
        R = make_ring_level(branch, p, f, m)
        S = enumerate_sphere(R, n)
        gens = subgroup_generators(SubgroupSpec(kind), R, n)
        N = S.size
        least = np.full((N, N), N * N)
        for k in closure(R, gens):
            perm = S.perm_of_matrix(k)
            least = np.minimum(least, perm[:, None] * N + perm[None, :])
        firsts, want = np.unique(least, return_inverse=True)
        labels, count = S.orbital_labels(gens)
        assert count == len(firsts)
        assert np.array_equal(labels, want.reshape(N, N))

    @pytest.mark.parametrize(
        "branch,p,f,m,n",
        [
            ("padic", 2, 1, 3, 2),
            ("padic", 3, 1, 2, 2),
            ("padic", 2, 1, 2, 3),
            ("laurent", 2, 2, 2, 2),
            ("padic", 2, 1, 2, 4),
        ],
    )
    def test_orbital_count_is_piece_count(self, branch, p, f, m, n):
        # L^2(S) is multiplicity free, so dim End_K = #orbitals = #pieces
        R = make_ring_level(branch, p, f, m)
        S = enumerate_sphere(R, n)
        _, count = S.orbital_labels(subgroup_generators(SubgroupSpec("K"), R, n))
        assert count == sum(m - ch.c + 1 for ch in characters(R))

    @given(point=st.sampled_from(SMALL_RINGS), n=st.integers(2, 3), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_labels_need_no_inverse_permutations(self, point, n, data):
        # labels are constant along every generator's cycles at the fixed
        # point, so adding the inverses changes no label, on slots or pairs
        R = make_ring_level(*point)
        S = ultrasph.sphere.SphereIndex(R, n)
        kind = data.draw(st.sampled_from(SubgroupSpec.KINDS))
        depth = data.draw(st.integers(1, R.m)) if kind in ("Kprin", "K1", "K0") else None
        gens = subgroup_generators(SubgroupSpec(kind, depth), R, n)
        keep = data.draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)).filter(any))
        perms = [S.perm_of_matrix(k) for k in gens[np.array(keep)]]
        both = perms + [np.argsort(s) for s in perms]
        for shape in [(S.size,), (S.size, S.size)][: 2 if S.size <= 200 else 1]:
            assert np.array_equal(
                ultrasph.sphere.orbit_labels(perms, shape), ultrasph.sphere.orbit_labels(both, shape)
            )

    def test_label_array_cap(self, monkeypatch):
        R = make_ring_level("padic", 2, 1, 2)
        S = enumerate_sphere(R, 2)
        monkeypatch.setattr(ultrasph.sphere, "ORBITAL_BYTES_MAX", 12 * 12 * 8 - 1)
        with pytest.raises(BudgetExceededError):
            S.orbital_labels(subgroup_generators(SubgroupSpec("K"), R, 2))


SCALAR_ORBIT_POINTS = [
    (ring, n)
    for ring in SMALL_RINGS + [("padic", 7, 1, 2), ("laurent", 3, 2, 2), ("padic", 2, 1, 5)]
    for n in (2, 3)
    if sphere_size(make_ring_level(*ring).q, n, ring[3]) <= 20000
]


class TestScalarOrbits:
    @given(point=st.sampled_from(SCALAR_ORBIT_POINTS))
    @settings(max_examples=30, deadline=None)
    def test_equal_the_stacked_reference_bit_for_bit(self, point):
        ring, n = point
        S = ultrasph.sphere.SphereIndex(make_ring_level(*ring), n)
        got, want = S.scalar_orbits(), reference_scalar_orbits(S)
        assert got[2] == want[2]
        for a, b in zip(got[:2], want[:2]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
