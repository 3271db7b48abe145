"""The character-free structure built once per (ring, n) against the
references in ``structref``: the coset action from the bottom n - 1 rows,
certificates above one shared Kmirab chain, orbit forests answered by
pointer doubling, and characters from one product."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrasph import matgroup, pseries
from ultrasph.matgroup import (
    BudgetExceededError,
    SubgroupSpec,
    closure,
    random_stack,
    subgroup_generators,
    subgroup_order,
    verify_generators,
)
from ultrasph.ring import UnitCharacter, characters, make_ring_level, unit_group_basis

from chainref import StabiliserChain, named_product
from structref import (
    ReferenceOrbitTree,
    reference_act,
    reference_character,
    reference_flag_canon,
    reference_flag_closure,
)

# (branch, p, f, m, n) with at most a few thousand flag cosets
ACTION_POINTS = [
    ("padic", 2, 1, 1, 2), ("padic", 2, 1, 3, 2), ("padic", 3, 1, 2, 2), ("padic", 5, 1, 2, 2),
    ("laurent", 2, 2, 2, 2), ("laurent", 3, 1, 2, 2), ("padic", 2, 1, 2, 3),
    ("padic", 3, 1, 1, 3), ("laurent", 2, 1, 2, 3), ("laurent", 2, 2, 1, 3),
    ("padic", 2, 1, 1, 4), ("laurent", 2, 1, 1, 4),
]


def ring_of(branch, p, f, m):
    return make_ring_level(branch, p, f, m)


def singular(ring, n):
    """A non-invertible matrix: the identity with its bottom row doubled by p
    (laurent: scaled by t), so that row has no unit entry."""
    a = np.eye(n, dtype=np.int64)
    a[n - 1, n - 1] = ring.q if ring.m > 1 else 0
    return a


class TestBottomRowAction:
    @given(point=st.sampled_from(ACTION_POINTS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_act_equals_the_whole_product_reference(self, point, data):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        cosets = pseries.flag_cosets(ring, n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ks = random_stack(ring, n, data.draw(st.integers(1, 9)), rng)
        rows = None
        if data.draw(st.booleans()):
            rows = np.sort(rng.choice(cosets.size, data.draw(st.integers(1, cosets.size)), replace=False))
        # one pair per block, a few rows per block, a few ks per block, or one block
        width = cosets.size if rows is None else len(rows)
        pairs = data.draw(st.sampled_from([1, 3, width, 3 * width, 1 << 30]))
        with mock.patch.object(pseries, "ACTION_CHUNK_BYTES", pairs * pseries._action_bytes(n)):
            slots, pivots = cosets.act(ks, rows)
        want_slots, want_pivots = reference_act(cosets, ks, rows)
        assert slots.tobytes() == want_slots.tobytes()
        assert pivots.tobytes() == want_pivots.tobytes()

    @given(point=st.sampled_from(ACTION_POINTS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_flag_canon_equals_the_full_row_reference(self, point, seed):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        ks = random_stack(ring, n, 12, np.random.default_rng(seed))
        rep, piv = pseries.flag_canon(ring, ks)
        want_rep, want_piv = reference_flag_canon(ring, ks)
        assert rep.tobytes() == want_rep.tobytes() and piv.tobytes() == want_piv.tobytes()
        one_rep, one_piv = pseries.flag_canon(ring, ks[0])
        assert np.array_equal(one_rep, want_rep[0]) and one_piv == want_piv[0].tolist()

    @pytest.mark.parametrize("point", ACTION_POINTS[:3] + ACTION_POINTS[6:8], ids=str)
    def test_singular_k_raises(self, point):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        bad = singular(ring, n)
        with pytest.raises(ValueError, match="not invertible"):
            pseries.flag_canon(ring, bad)
        with pytest.raises(ValueError, match="not invertible"):
            pseries.flag_cosets(ring, n).act(np.stack([np.eye(n, dtype=np.int64), bad]))

    def test_top_pivot_of_a_singular_k_is_what_fails(self):
        # the bottom row of diag(p, 1) is a unit row, so only the determinant
        # (the top row's pivot) shows the matrix is singular
        ring = ring_of("padic", 3, 1, 2)
        bad = np.diag([3, 1]).astype(np.int64)
        with pytest.raises(ValueError, match="not invertible"):
            pseries.flag_canon(ring, bad)
        with pytest.raises(ValueError, match="not invertible"):
            pseries.flag_cosets(ring, 2).act(bad[None])


# random small (branch, p, f, m, n), n <= 4, with at most a few thousand flag cosets
RANK_POINTS = [
    (branch, p, f, m, n)
    for branch, p, f in [
        ("padic", 2, 1), ("padic", 3, 1), ("padic", 5, 1), ("padic", 7, 1),
        ("laurent", 2, 1), ("laurent", 2, 2), ("laurent", 3, 1), ("laurent", 2, 3), ("laurent", 3, 2),
    ]
    for m in (1, 2, 3, 4)
    for n in (2, 3, 4)
    if (p**f) ** m <= 512 and pseries.flag_count(make_ring_level(branch, p, f, m), n) <= 3000
]


class TestCosetRank:
    @given(point=st.sampled_from(RANK_POINTS))
    @settings(max_examples=40, deadline=None)
    def test_rank_is_a_bijection_that_unrank_inverts(self, point):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        cosets = pseries.flag_cosets(ring, n)
        assert cosets.size == pseries.flag_count(ring, n)
        # each rep is its own canonical form, and its rank is its slot
        rows, pattern, _ = pseries._eliminate(ring, pseries._by_entry(cosets.reps[:, 1:]), cosets.dets)
        assert rows.tobytes() == pseries._by_entry(cosets.reps[:, 1:]).tobytes()
        ranks = cosets._rank(rows, pattern)
        assert np.array_equal(np.sort(ranks), np.arange(cosets.size))
        assert np.array_equal(ranks, np.arange(cosets.size))

    @given(point=st.sampled_from(RANK_POINTS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_act_equals_the_sorted_key_reference(self, point, seed):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        cosets = pseries.flag_cosets(ring, n)
        ks = random_stack(ring, n, 4, np.random.default_rng(seed))
        slots, pivots = cosets.act(ks)
        want_slots, want_pivots = reference_act(cosets, ks)
        assert slots.tobytes() == want_slots.tobytes() and pivots.tobytes() == want_pivots.tobytes()

    @given(point=st.sampled_from(RANK_POINTS))
    @settings(max_examples=25, deadline=None)
    def test_closure_order_equals_the_matrix_closure(self, point):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        gens = subgroup_generators(SubgroupSpec("K"), ring, n)
        cosets = pseries.FlagCosets(ring, n, gens)
        # the reps are in rank order, and they are the cosets the matrix
        # closure reaches from the identity
        rows, pattern, _ = pseries._eliminate(ring, pseries._by_entry(cosets.reps[:, 1:]), cosets.dets)
        assert np.array_equal(cosets._rank(rows, pattern), np.arange(cosets.size))
        want = reference_flag_closure(ring, n, gens)
        assert len(want) == cosets.size
        assert {r.tobytes() for r in cosets.reps} == {r.tobytes() for r in want}
        # the generator tables the transitivity certificate cached
        for g in gens:
            perm, piv = cosets._tables[g.tobytes()]
            want_perm, want_piv = reference_act(cosets, g[None])
            assert np.array_equal(perm, want_perm[0]) and np.array_equal(piv, want_piv[0])

    @pytest.mark.parametrize("point", RANK_POINTS[::7], ids=str)
    def test_singular_ks_and_codes_outside_the_ring_raise(self, point):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        cosets = pseries.flag_cosets(ring, n)
        eye = np.eye(n, dtype=np.int64)
        with pytest.raises(ValueError, match="matrix is not invertible: no unit pivot"):
            cosets.act(np.stack([eye, singular(ring, n)]))
        for bad in (-1, ring.size):
            k = eye.copy()
            k[0, n - 1] = bad
            with pytest.raises(ValueError, match="entries outside the ring"):
                cosets.act(k[None])

    def test_a_rank_that_does_not_invert_the_unrank_is_refused(self, monkeypatch):
        ring = ring_of("padic", 3, 1, 2)
        rank = pseries.FlagCosets._rank
        monkeypatch.setattr(pseries.FlagCosets, "_rank", lambda self, rows, pattern: rank(self, rows, pattern) ^ 1)
        with pytest.raises(RuntimeError, match="does not invert"):
            pseries.FlagCosets(ring, 2, subgroup_generators(SubgroupSpec("K"), ring, 2))

    def test_a_generating_set_too_small_is_refused(self):
        # the upper unipotents alone do not move the identity's coset
        ring = ring_of("padic", 3, 1, 2)
        gens = subgroup_generators(SubgroupSpec("K"), ring, 2)
        upper = gens[[bool(g[1, 0] == 0 and g[0, 0] == g[1, 1] == 1) for g in gens]]
        with pytest.raises(RuntimeError, match="flag closure found 1 cosets, expected 12"):
            pseries.FlagCosets(ring, 2, upper)


CHAIN_POINTS = [
    ("padic", 2, 1, 2, 2), ("padic", 3, 1, 2, 2), ("padic", 2, 1, 3, 2),
    ("laurent", 2, 2, 1, 2), ("padic", 2, 1, 1, 3), ("padic", 3, 1, 1, 3),
    ("laurent", 2, 1, 2, 3),
]


def specs_at(m):
    return [SubgroupSpec("K"), SubgroupSpec("Kmirab")] + [
        SubgroupSpec(kind, ell) for kind in ("Kprin", "K1", "K0") for ell in range(m + 2)
    ]


class TestSharedMirabolicChain:
    @pytest.mark.parametrize("point", CHAIN_POINTS, ids=str)
    def test_same_certificate_as_the_full_chain(self, point, monkeypatch):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        for spec in specs_at(m):
            got = verify_generators(spec, ring, n)
            with monkeypatch.context() as mp:
                mp.setattr(matgroup, "_holds_mirabolic", lambda *args: False)
                assert verify_generators(spec, ring, n) == got

    def test_k1_k0_and_k_take_the_shared_path(self, monkeypatch):
        ring = ring_of("padic", 3, 1, 2)
        levels = []
        monkeypatch.setattr(matgroup, "_MIRABOLIC", {})
        real = matgroup._orbit_size

        def counting(ring, n, row, gens):
            levels.append(row)
            return real(ring, n, row, gens)

        monkeypatch.setattr(matgroup, "_orbit_size", counting)
        for spec in [SubgroupSpec("K1", 1), SubgroupSpec("K0", 2), SubgroupSpec("K")]:
            assert verify_generators(spec, ring, 2)["ok"]
        # the Kmirab chain's two levels once, then one top orbit per certificate
        assert levels == [1, 0, 1, 1, 1]

    @pytest.mark.parametrize("point", CHAIN_POINTS, ids=str)
    def test_k1_without_a_kprin_generator_raises_with_the_closure_order(self, point):
        # a pass certifies the closure order; a refusal names an orbit
        # product at most the closure order, which is below the formula
        # unless the list generates K_1(p) without being strong
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        spec = SubgroupSpec("K1", 1)
        gens = subgroup_generators(spec, ring, n)
        mirab = len(subgroup_generators(SubgroupSpec("Kmirab"), ring, n))
        for drop in range(mirab, len(gens)):
            subset = np.delete(gens, drop, axis=0)
            size = len(closure(ring, subset, budget=10**6))
            with mock.patch.object(matgroup, "subgroup_generators",
                                   lambda s, *args: subset if s == spec else subgroup_generators(s, *args)):
                try:
                    assert verify_generators(spec, ring, n)["size"] == size
                except RuntimeError as exc:
                    assert named_product(exc) <= size and named_product(exc) < subgroup_order(spec, ring, n)

    @pytest.mark.parametrize("point", CHAIN_POINTS, ids=str)
    def test_k_without_its_diagonal_generator_raises_with_the_closure_order(self, point):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        spec = SubgroupSpec("K")
        gens = subgroup_generators(spec, ring, n)
        diagonal = [i for i, g in enumerate(gens) if np.count_nonzero(g - np.diag(np.diag(g))) == 0]
        subset = np.delete(gens, diagonal, axis=0)
        size = len(closure(ring, subset, budget=10**6))
        # over F_2 there is no diagonal generator, and the elementary ones generate K
        assert (size < subgroup_order(spec, ring, n)) == bool(diagonal)
        with mock.patch.object(matgroup, "subgroup_generators",
                               lambda s, *args: subset if s == spec else subgroup_generators(s, *args)):
            if diagonal:
                with pytest.raises(RuntimeError, match="orbit product of") as err:
                    verify_generators(spec, ring, n)
                assert named_product(err.value) <= size
            else:
                assert verify_generators(spec, ring, n)["size"] == size

    def test_the_kmirab_certificate_is_keyed_on_its_generators(self, monkeypatch):
        # certify K_1(1) with the true Kmirab list, then offer a Kmirab list
        # without its diagonal unit and a K_1(1) list without it too: the
        # cached product must not stand for the shorter list
        ring, n = ring_of("padic", 3, 1, 2), 2
        spec = SubgroupSpec("K1", 1)
        assert verify_generators(spec, ring, n)["ok"]
        mirab = subgroup_generators(SubgroupSpec("Kmirab"), ring, n)
        gens = subgroup_generators(spec, ring, n)
        short_mirab, short = mirab[1:], gens[1:]
        assert np.array_equal(short[: len(short_mirab)], short_mirab)
        size = len(closure(ring, short))
        assert size < subgroup_order(spec, ring, n)
        swap = {SubgroupSpec("Kmirab"): short_mirab, spec: short}
        monkeypatch.setattr(matgroup, "subgroup_generators", lambda s, *args: swap[s])
        with pytest.raises(RuntimeError, match="orbit product of") as err:
            verify_generators(spec, ring, n)
        assert named_product(err.value) <= size
        order = subgroup_order(SubgroupSpec("Kmirab"), ring, n)
        assert matgroup._MIRABOLIC[ring, n, mirab.tobytes()] == order
        assert matgroup._MIRABOLIC[ring, n, short_mirab.tobytes()] < order


class TestChainBytes:
    def test_a_k1_certificate_is_charged_its_top_orbit_and_the_kmirab_chain(self, monkeypatch):
        # the larger of K_1(p)'s top orbit, at most its index over Kmirab,
        # and the Kmirab chain's largest level; refused before any orbit
        ring, n = ring_of("padic", 3, 1, 2), 2
        spec = SubgroupSpec("K1", 1)
        q, m = ring.q, ring.m
        mirab = subgroup_order(SubgroupSpec("Kmirab"), ring, n)
        need = max(
            matgroup.orbit_bytes(q, n, m, subgroup_order(spec, ring, n) // mirab),
            matgroup.chain_bytes(q, n, m, mirab),
        )
        monkeypatch.setattr(matgroup, "_MIRABOLIC", {})
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", need - 1)
        with mock.patch.object(matgroup, "_orbit_size", side_effect=AssertionError("allocated")):
            with pytest.raises(BudgetExceededError, match=f"needs up to {need} bytes"):
                verify_generators(spec, ring, n)
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", need)
        assert verify_generators(spec, ring, n)["ok"]

    def test_a_full_chain_is_charged_its_largest_level_before_its_first(self, monkeypatch):
        # K's full chain at (q3, n2, m2), off the shared path: refused with
        # the cap one byte below its largest level, before any orbit is closed
        ring, n = ring_of("padic", 3, 1, 2), 2
        spec = SubgroupSpec("K")
        need = matgroup.chain_bytes(3, n, 2, subgroup_order(spec, ring, n))
        assert need == matgroup.orbit_bytes(3, n, 2, 72)  # the top level: all 72 unimodular rows
        monkeypatch.setattr(matgroup, "_holds_mirabolic", lambda *args: False)
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", need - 1)
        with mock.patch.object(matgroup, "_orbit_size", side_effect=AssertionError("allocated")):
            with pytest.raises(BudgetExceededError, match=f"needs up to {need} bytes"):
                verify_generators(spec, ring, n)
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", need)
        assert verify_generators(spec, ring, n)["ok"]

    def test_k_certificate_bytes_names_what_k_is_charged(self, monkeypatch):
        ring, n = ring_of("padic", 3, 1, 2), 2
        need = matgroup.k_certificate_bytes(3, n, 2)
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", need - 1)
        with pytest.raises(BudgetExceededError, match=f"needs up to {need} bytes"):
            verify_generators(SubgroupSpec("K"), ring, n)
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", need)
        assert verify_generators(SubgroupSpec("K"), ring, n)["ok"]

    def test_a_kmirab_chain_is_charged_before_its_first_level(self, monkeypatch):
        # the Kmirab chain at (q3, n3, m2) is refused one byte below its
        # largest level, and closes no orbit first
        ring, n = ring_of("padic", 3, 1, 2), 3
        spec = SubgroupSpec("Kmirab")
        need = matgroup.chain_bytes(3, n, 2, subgroup_order(spec, ring, n))
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", need - 1)
        built, real = [], matgroup._orbit_size

        def counting(ring, n, row, gens):
            built.append(row)
            return real(ring, n, row, gens)

        monkeypatch.setattr(matgroup, "_orbit_size", counting)
        with pytest.raises(BudgetExceededError, match=f"needs up to {need} bytes"):
            verify_generators(spec, ring, n)
        assert built == []
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", need)
        assert verify_generators(spec, ring, n)["ok"]
        assert built == [2, 1, 0]

    @pytest.mark.parametrize("point", CHAIN_POINTS, ids=str)
    def test_each_level_is_the_complete_chains_orbit(self, point):
        # every list is strong level by level, not only in its product: each
        # orbit equals that level's orbit in a complete Schreier-Sims chain
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        for spec in specs_at(m):
            gens = subgroup_generators(spec, ring, n)
            chain = StabiliserChain(ring, n, gens)
            while chain.sweep():
                pass
            assert matgroup._chain_orbits(ring, n, gens) == [len(lev.pts) for lev in chain.levels]


TREE_POINTS = [("padic", 2, 1, 3, 2), ("padic", 3, 1, 2, 2), ("laurent", 2, 2, 2, 2), ("padic", 2, 1, 2, 3)]


class TestOrbitTree:
    @given(point=st.sampled_from(TREE_POINTS), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_phases_equal_the_layer_walk(self, point, data):
        branch, p, f, m, n = point
        ring = ring_of(branch, p, f, m)
        cosets = pseries.flag_cosets(ring, n)
        kind = data.draw(st.sampled_from(["K", "Kmirab", "Kprin", "K1", "K0"]))
        level = data.draw(st.integers(1, m)) if kind in ("Kprin", "K1", "K0") else None
        gens = subgroup_generators(SubgroupSpec(kind, level), ring, n)
        # some generators only: the orbits need not be those of a subgroup spec
        keep = data.draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)).filter(any))
        perms = [perm for perm, _ in cosets.tables(gens[np.array(keep)])]
        L = data.draw(st.sampled_from([1, 2, 4, 6, 12]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rots = [rng.integers(0, L, cosets.size) for _ in perms]
        twists = rng.integers(0, L, len(perms))
        if data.draw(st.booleans()):
            rots = [np.zeros(cosets.size, dtype=np.int64) for _ in perms]  # orbits close
        tree, ref = pseries.OrbitTree(perms), ReferenceOrbitTree(perms)
        assert np.array_equal(tree.root, ref.root)
        phase, closed = tree.phases(rots, twists, L)
        want_phase, want_closed = ref.phases(rots, twists, L)
        assert np.array_equal(closed, want_closed) and np.array_equal(phase, want_phase)

    def test_pointer_doubling_covers_the_deepest_path(self):
        # one generator cycling 37 slots: a single orbit 36 layers deep
        perm = np.roll(np.arange(37), -1)
        tree = pseries.OrbitTree([perm])
        assert tree.rounds == 6  # 2^6 = 64 >= 36 > 32
        rots = [np.ones(37, dtype=np.int64)]
        for L, twist in [(37, 1), (74, 1), (5, 0)]:
            phase, closed = tree.phases(rots, [twist], L)
            want_phase, want_closed = ReferenceOrbitTree([perm]).phases(rots, [twist], L)
            assert np.array_equal(closed, want_closed) and np.array_equal(phase, want_phase)


class TestCharacters:
    @pytest.mark.parametrize(
        "point",
        [("padic", 2, 1, 5), ("padic", 3, 1, 3), ("padic", 7, 1, 2), ("laurent", 2, 2, 3),
         ("laurent", 3, 1, 2), ("laurent", 2, 3, 2)],
        ids=str,
    )
    def test_rotations_and_conductors_equal_the_loops(self, point):
        ring = make_ring_level(*point)
        basis = unit_group_basis(ring)
        for ch in characters(ring):
            nums, c = reference_character(ring, basis, ch.exps)
            assert ch._nums.tobytes() == nums.tobytes()
            assert ch.c == c

    def test_products_and_conjugates_equal_the_loops(self):
        ring = make_ring_level("padic", 5, 1, 2)
        basis = unit_group_basis(ring)
        chs = characters(ring)
        for a, b in [(chs[1], chs[7]), (chs[5], chs[5]), (chs[3], chs[3].conj())]:
            prod = a * b
            nums, c = reference_character(ring, basis, prod.exps)
            assert prod._nums.tobytes() == nums.tobytes() and prod.c == c
        trivial = UnitCharacter(ring, basis, (0,) * len(basis.orders))
        assert trivial.c == 0 and (trivial._nums[ring.units()] == 0).all()
