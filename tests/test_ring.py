import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrasph.ring import (
    characters,
    make_ring_level,
    unit_group_basis,
    unit_subgroup_basis,
)


class RootOfUnity:
    """Exact root of unity e^(2 pi i num / order): the exact character values
    the package exposed before its characters became rotation-index tables."""

    __slots__ = ("num", "order")

    def __init__(self, num, order):
        g = math.gcd(num % order, order) if order else 1
        self.num = (num % order) // g
        self.order = order // g

    def __mul__(self, other):
        o = math.lcm(self.order, other.order)
        return RootOfUnity(self.num * (o // self.order) + other.num * (o // other.order), o)

    def __eq__(self, other):
        return isinstance(other, RootOfUnity) and (self.num, self.order) == (
            other.num,
            other.order,
        )

    def __hash__(self):
        return hash((self.num, self.order))


def eval_rot(chi, u):
    """Exact value of chi at the unit code u, from its rotation-index table."""
    if chi._nums[u] < 0:
        raise ValueError(f"{chi.ring.element_str(u)} is not a unit")
    return RootOfUnity(int(chi._nums[u]), chi.order)


def char_eval(chi, u):
    """Exact value of chi at the unit code u."""
    return eval_rot(chi, u)


def brute_conductors(p, m):
    """Independent oracle: conductors of all characters of (Z/p^m)^x.

    Enumerates the abstract abelian group by brute force (orders of all
    elements, generator search for each cyclic factor is avoided by using
    the regular representation over the dual), then tests triviality on
    the unit subgroups 1 + p^l directly.
    """
    N = p**m
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    # dual group via all homomorphisms into Q/Z, found by brute force over
    # value assignments consistent with the multiplication table
    n_units = len(units)
    # represent each character by its value table; build from the regular
    # character group: iterate over all functions generated by one unit at
    # a time would be exponential, so instead use the structure-free fact
    # that characters biject with the group itself via any decomposition.
    # Here we take all group homomorphisms (Z/p^m)^x -> C^x by enumerating
    # exponent vectors against a lazily-found generating set.
    gens = []
    span = {1}
    for u in units:
        if u in span:
            continue
        gens.append(u)
        new_span = set()
        for s in span:
            x = s
            while True:
                new_span.add(x)
                x = x * u % N
                if x == s:
                    break
        span = new_span
        if len(span) == n_units:
            break
    orders = []
    for g in gens:
        k, x = 1, g
        while x != 1:
            x = x * g % N
            k += 1
        orders.append(k)
    # not necessarily a direct product basis; collect the distinct value
    # tables instead, which dedupes automatically
    tables = set()
    for exps in product(*(range(d) for d in orders)):
        table = {}
        ok = True
        for u in units:
            # write u over gens by brute-force search
            found = None
            for vec in product(*(range(d) for d in orders)):
                x = 1
                for g, e in zip(gens, vec):
                    x = x * pow(g, e, N) % N
                if x == u:
                    found = vec
                    break
            val = sum(
                e * a * (math.lcm(*orders) // d)
                for e, a, d in zip(found, exps, orders)
            ) % math.lcm(*orders)
            table[u] = val
        if ok:
            tables.add(tuple(sorted(table.items())))
    conds = []
    L = math.lcm(*orders)
    for table in tables:
        td = dict(table)
        c = None
        for ell in range(m + 1):
            step = p**ell if ell < m else N
            if all(td[u] == 0 for u in units if (u - 1) % step == 0):
                c = ell
                break
        conds.append(c)
    return sorted(conds)


class TestRingLevel:
    def test_padic_size(self):
        assert make_ring_level("padic", 2, 1, 3).size == 8

    def test_laurent_size(self):
        R = make_ring_level("laurent", 2, 2, 2)
        assert R.size == 16 and R.q == 4

    def test_padic_extension_rejected(self):
        with pytest.raises(ValueError):
            make_ring_level("padic", 3, 2, 1)

    def test_bad_prime_rejected(self):
        with pytest.raises(ValueError):
            make_ring_level("padic", 6, 1, 2)
        with pytest.raises(ValueError):
            make_ring_level("padic", 1, 1, 2)

    def test_oversized_ring_rejected(self):
        # more than 4096 elements: the arithmetic tables are never built
        with pytest.raises(ValueError, match="exceeds 4096"):
            make_ring_level("padic", 4099, 1, 1)
        with pytest.raises(ValueError, match="exceeds 4096"):
            make_ring_level("laurent", 2, 2, 7)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            make_ring_level("padic", 2, 1, 0)

    def test_residue_count(self):
        # residue ring mod the uniformiser has q elements
        for R in (make_ring_level("padic", 3, 1, 2), make_ring_level("laurent", 2, 2, 2)):
            residues = {R.reduce_code(a, 1) for a in R.elements()}
            assert len(residues) == R.q

    @given(a=st.integers(0, 26), b=st.integers(0, 26))
    def test_padic_matches_integer_arithmetic(self, a, b):
        R = make_ring_level("padic", 3, 1, 3)
        assert R.add(a, b) == (a + b) % 27
        assert R.mul(a, b) == (a * b) % 27
        assert R.sub(a, b) == (a - b) % 27

    @given(a=st.integers(0, 15), b=st.integers(0, 15), c=st.integers(0, 15))
    @settings(max_examples=60)
    def test_laurent_ring_axioms(self, a, b, c):
        R = make_ring_level("laurent", 2, 2, 2)
        assert R.mul(a, b) == R.mul(b, a)
        assert R.add(a, b) == R.add(b, a)
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
        assert R.add(a, R.neg(a)) == 0
        assert R.mul(a, 1) == a

    def test_valuation_rules(self):
        for R in (make_ring_level("padic", 2, 1, 4), make_ring_level("laurent", 3, 1, 3)):
            for a in R.elements():
                for b in R.elements():
                    va, vb = R.val(a), R.val(b)
                    assert R.val(R.mul(a, b)) == min(va + vb, R.m)
                    assert R.val(R.add(a, b)) >= min(va, vb)
                assert R.is_unit(a) == (R.val(a) == 0)
            assert R.val(0) == R.m

    def test_unit_inverse(self):
        for R in (make_ring_level("padic", 5, 1, 2), make_ring_level("laurent", 2, 2, 2)):
            for u in R.units():
                assert R.mul(int(u), R.inv(int(u))) == 1
            with pytest.raises(ValueError):
                R.inv(0)

    def test_reduction_is_ring_hom_onto_units(self):
        R = make_ring_level("padic", 3, 1, 3)
        low = R.at_level(2)
        for a in R.elements():
            for b in list(R.elements())[:9]:
                assert R.reduce_code(R.add(a, b), 2) == low.add(
                    R.reduce_code(a, 2), R.reduce_code(b, 2)
                )
                assert R.reduce_code(R.mul(a, b), 2) == low.mul(
                    R.reduce_code(a, 2), R.reduce_code(b, 2)
                )
        reduced_units = {R.reduce_code(int(u), 2) for u in R.units()}
        assert reduced_units == {int(u) for u in low.units()}


class TestUnitGroup:
    def test_z9_cyclic_of_order_6(self):
        R = make_ring_level("padic", 3, 1, 2)
        b = unit_group_basis(R)
        assert math.prod(b.orders) == 6
        # exhibit an element of order 6 by brute force: cyclicity
        assert any(
            len({R.pow(int(u), k) for k in range(1, 7)}) == 6 for u in R.units()
        )
        assert b.exponent == 6

    def test_z8_klein_four(self):
        R = make_ring_level("padic", 2, 1, 3)
        b = unit_group_basis(R)
        assert sorted(b.orders) == [2, 2]
        # exhaustive order computation: no element of order 4
        for u in R.units():
            assert R.pow(int(u), 2) == 1

    def test_f2_t2_single_order_2(self):
        R = make_ring_level("laurent", 2, 1, 2)
        b = unit_group_basis(R)
        assert b.orders == (2,)
        assert sorted(b.members) == [1, 3]  # 1 and 1 + t

    def test_direct_product_covers_group(self):
        for R in (
            make_ring_level("padic", 2, 1, 4),
            make_ring_level("padic", 3, 1, 3),
            make_ring_level("laurent", 2, 2, 2),
            make_ring_level("laurent", 3, 1, 2),
            make_ring_level("padic", 5, 1, 2),
        ):
            b = unit_group_basis(R)
            assert len(b.dlog) == len(R.units())
            assert math.prod(b.orders) == R.q ** (R.m - 1) * (R.q - 1)

    def test_unit_subgroup_basis(self):
        R = make_ring_level("padic", 2, 1, 4)
        sb = unit_subgroup_basis(R, 1)
        assert sorted(sb.members) == [u for u in range(16) if u % 2 == 1]
        sb2 = unit_subgroup_basis(R, 2)
        assert sorted(sb2.members) == [1, 5, 9, 13]


class TestCharacters:
    def test_count_formula(self):
        for R in (
            make_ring_level("padic", 2, 1, 3),
            make_ring_level("padic", 3, 1, 2),
            make_ring_level("laurent", 2, 2, 2),
            make_ring_level("padic", 5, 1, 1),
        ):
            chs = characters(R)
            assert len(chs) == R.q ** (R.m - 1) * (R.q - 1)
            assert sum(1 for c in chs if c.is_trivial) == 1
            assert all(c.c <= R.m for c in chs)

    def test_z9_conductor_multiset(self):
        # independent oracle value (enumeration of the dual group)
        assert brute_conductors(3, 2) == [0, 1, 2, 2, 2, 2]
        R = make_ring_level("padic", 3, 1, 2)
        assert sorted(ch.c for ch in characters(R)) == [0, 1, 2, 2, 2, 2]

    def test_z8_conductor_multiset(self):
        assert brute_conductors(2, 3) == [0, 2, 3, 3]
        R = make_ring_level("padic", 2, 1, 3)
        assert sorted(ch.c for ch in characters(R)) == [0, 2, 3, 3]

    def test_z2_trivial_only(self):
        R = make_ring_level("padic", 2, 1, 1)
        chs = characters(R)
        assert len(chs) == 1 and chs[0].c == 0 and chs[0].is_trivial

    def test_conductor_counts_match_index(self):
        # number of characters with c <= l is q^(l-1)(q-1) for l >= 1
        for R in (make_ring_level("padic", 3, 1, 3), make_ring_level("laurent", 2, 2, 2)):
            chs = characters(R)
            for ell in range(1, R.m + 1):
                got = sum(1 for ch in chs if ch.c <= ell)
                assert got == R.q ** (ell - 1) * (R.q - 1)

    def test_pairwise_distinct_as_functions(self):
        R = make_ring_level("padic", 3, 1, 2)
        chs = characters(R)
        tables = {tuple(int(ch._nums[u]) for u in R.units()) for ch in chs}
        assert len(tables) == len(chs)

    def test_homomorphism_property(self):
        for R in (make_ring_level("padic", 3, 1, 2), make_ring_level("laurent", 2, 2, 2)):
            for ch in characters(R):
                for u in R.units():
                    for v in list(R.units())[:4]:
                        lhs = eval_rot(ch, int(R.mul(int(u), int(v))))
                        rhs = eval_rot(ch, int(u)) * eval_rot(ch, int(v))
                        assert lhs == rhs

    def test_char_eval_exact(self):
        R = make_ring_level("padic", 3, 1, 2)
        triv = next(ch for ch in characters(R) if ch.is_trivial)
        assert char_eval(triv, 2).num == 0
        quad = next(
            ch for ch in characters(R)
            if not ch.is_trivial and all((2 * e) % d == 0 for e, d in zip(ch.exps, ch.basis.orders))
        )
        rot = char_eval(quad, 2)  # 2 generates the units; quadratic sends it to -1
        assert (rot.num, rot.order) == (1, 2)
        for u in R.units():
            inv = R.inv(int(u))
            assert (eval_rot(quad, int(u)) * eval_rot(quad, inv)).num == 0

    def test_char_eval_rejects_non_unit(self):
        R = make_ring_level("padic", 3, 1, 2)
        ch = characters(R)[0]
        with pytest.raises(ValueError):
            ch(3)

    def test_character_orthogonality(self):
        # sum over characters with c <= l of chi(x): #classes if x in 1+p^l else 0
        for R in (make_ring_level("padic", 3, 1, 2), make_ring_level("padic", 2, 1, 3)):
            chs = characters(R)
            for ell in range(R.m + 1):
                group = [ch for ch in chs if ch.c <= ell]
                step = R.q**ell if ell < R.m else R.size
                for x in R.units():
                    total = sum(ch(int(x)) for ch in group)
                    if (int(x) - 1) % step == 0:
                        assert abs(total - len(group)) < 1e-9
                    else:
                        assert abs(total) < 1e-9

    def test_product_and_conj(self):
        R = make_ring_level("padic", 3, 1, 2)
        chs = characters(R)
        a, b = chs[1], chs[-1]
        prod = a * b
        for u in R.units():
            assert abs(prod(int(u)) - a(int(u)) * b(int(u))) < 1e-12
            assert abs(a.conj()(int(u)) - np.conj(a(int(u)))) < 1e-12


class TestUserPolynomials:
    def test_custom_irreducible_accepted(self):
        R = make_ring_level("laurent", 2, 2, 1, poly=[1, 1, 1])
        assert R.q == 4

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            make_ring_level("laurent", 2, 2, 1, poly=[1, 0, 1])  # x^2+1 = (x+1)^2 mod 2

    def test_built_in_fields(self):
        for q, (p, f) in [(4, (2, 2)), (8, (2, 3)), (9, (3, 2)), (25, (5, 2)), (27, (3, 3))]:
            R = make_ring_level("laurent", p, f, 1)
            assert R.size == q
            assert len(R.units()) == q - 1
