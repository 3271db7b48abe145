from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactpoly import (
    ExactPoly,
    reference_complex_zonal_poly,
    reference_laplacian_complex,
    reference_laplacian_real,
    reference_rank_fractions,
    reference_real_zonal_poly,
)
from ultrasph import arch, verify
from ultrasph.arch import (
    _minor_kernel_dim,
    _monomials,
    complex_pairs,
    complex_zonal_poly,
    e_n_point_complex,
    e_n_point_real,
    evaluate,
    harmonic_dim_complex,
    harmonic_dim_real,
    kernel_dim_complex,
    kernel_dim_real,
    laplacian,
    real_pairs,
    real_zonal_poly,
    rotation_invariance_residual,
)


# -- the block elimination the triangular minor replaced, kept as a reference --


def _rank_exact(rows):
    """Row rank over Q of an integer matrix by fraction-free elimination:
    each pivot row clears its column from the rest by
    r <- lead[col] * r - r[col] * lead, and each updated row is divided by
    the gcd of its entries, so every entry stays an integer (Bareiss 1968)."""
    rows = [list(r) for r in rows]
    rank = 0
    while rows:
        lead = rows.pop()
        col = next((j for j, c in enumerate(lead) if c), None)
        if col is not None:
            p = lead[col]
            rows = [_primitive([p * a - r[col] * b for a, b in zip(r, lead)]) if r[col] else r
                    for r in rows]
            rank += 1
    return rank


def _primitive(row):
    g = gcd(*row)
    return [c // g for c in row] if g > 1 else row


def _kernel_dim(monos, pairs):
    """Exact kernel dimension of ``arch.laplacian(., pairs)`` on the span of
    ``monos``: the matrix is block-diagonal over the connected components of
    its non-zero pattern (monomials joined when their images share a
    monomial), so its rank is the sum of the blocks' exact ranks.  The split
    reads the pattern only and assumes nothing about which monomials the
    operator couples."""
    images = [arch.laplacian({e: 1}, pairs) for e in monos]
    root = list(range(len(monos)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    first = {}
    for i, image in enumerate(images):
        for e in image:
            root[find(i)] = find(first.setdefault(e, i))
    blocks = {}
    for i in range(len(monos)):
        blocks.setdefault(find(i), []).append(images[i])
    rank = 0
    for block in blocks.values():
        targets = list(dict.fromkeys(e for image in block for e in image))
        rank += _rank_exact([[image.get(e, 0) for e in targets] for image in block])
    return len(monos) - rank


def reference_rank_exact(rows):
    """Row rank over Q by Gaussian elimination over the whole dense matrix."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            col += 1
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        lead = rows[0]
        inv = Fraction(1) / lead[col]
        lead = [c * inv for c in lead]
        new_rows = []
        for r in rows[1:]:
            if r[col]:
                r = [a - r[col] * b for a, b in zip(r, lead)]
            if any(r):
                new_rows.append(r)
        rows = new_rows
        rank += 1
        col += 1
    return rank


def reference_kernel_dim_real(m, n, laplacian=reference_laplacian_real):
    """Dense kernel dimension of ``laplacian`` from degree-m monomials to degree m - 2."""
    monos = list(_monomials(m, n))
    if m < 2:
        return len(monos)
    targets = {e: i for i, e in enumerate(_monomials(m - 2, n))}
    rows = []
    for e in monos:
        row = [Fraction(0)] * len(targets)
        p = ExactPoly(n, {e: 1})
        lp = laplacian(p, n)
        for e2, c in lp.coeffs.items():
            row[targets[e2]] = c
        rows.append(row)
    rank = reference_rank_exact([list(col) for col in zip(*rows)]) if rows else 0
    return len(monos) - rank


def reference_kernel_dim_complex(m1, m2, n):
    """Dense kernel dimension of the complex Laplacian on bidegree monomials."""
    z_monos = list(_monomials(m1, n))
    zb_monos = list(_monomials(m2, n))
    monos = [ez + ezb for ez in z_monos for ezb in zb_monos]
    if m1 == 0 or m2 == 0:
        return len(monos)
    targets = {
        ez + ezb: i
        for i, (ez, ezb) in enumerate(
            (a, b) for a in _monomials(m1 - 1, n) for b in _monomials(m2 - 1, n)
        )
    }
    rows = []
    for e in monos:
        row = [Fraction(0)] * len(targets)
        p = ExactPoly(2 * n, {e: 1})
        lp = reference_laplacian_complex(p, n)
        for e2, c in lp.coeffs.items():
            row[targets[e2]] = c
        rows.append(row)
    rank = reference_rank_exact([list(col) for col in zip(*rows)]) if rows else 0
    return len(monos) - rank


class TestExactPoly:
    def test_arithmetic(self):
        x = ExactPoly.variable(2, 0)
        y = ExactPoly.variable(2, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + y) ** 2 == x * x + 2 * (x * y) + y * y

    def test_diff(self):
        x = ExactPoly.variable(2, 0)
        y = ExactPoly.variable(2, 1)
        p = x * x * y
        assert p.diff(0) == 2 * (x * y)
        assert p.diff(1) == x * x

    def test_eval_exact(self):
        x = ExactPoly.variable(1, 0)
        p = x * x - ExactPoly.constant(1, Fraction(1, 2))
        assert p.evaluate((Fraction(1, 2),)) == Fraction(-1, 4)

    def test_zero_pruning(self):
        x = ExactPoly.variable(1, 0)
        assert (x - x).is_zero


class TestRealZonal:
    def test_m0_constant(self):
        assert real_zonal_poly(0, 3) == ExactPoly.constant(3, 1).coeffs

    def test_m1_is_xn(self):
        assert real_zonal_poly(1, 4) == ExactPoly.variable(4, 3).coeffs

    def test_m2_n3_legendre_kernel(self):
        # oracle: Gram-Schmidt of {1, t, t^2} under the flat weight on [-1, 1]
        # gives (3t^2 - 1)/2 after normalising to 1 at t = 1; on the sphere
        # t = x_n and 1 - t^2 = x_1^2 + x_2^2, giving x_3^2 - (x_1^2 + x_2^2)/2
        def moment(k):
            # integral of t^k over [-1, 1]
            return Fraction(0) if k % 2 else Fraction(2, k + 1)

        # project t^2 off the constants: t^2 - <t^2,1>/<1,1>
        c = moment(2) / moment(0)
        # normalised at t = 1: (t^2 - c)/(1 - c)
        scale = 1 / (1 - c)
        p = real_zonal_poly(2, 3)
        x1, x2, x3 = (ExactPoly.variable(3, i) for i in range(3))
        oracle = scale * (x3 * x3) - ExactPoly.constant(3, scale * c) * ExactPoly.constant(3, 1)
        # replace the constant by its sphere form: c = c (x1^2 + x2^2 + x3^2)
        oracle = scale * (x3 * x3) - (scale * c) * (x1 * x1 + x2 * x2 + x3 * x3)
        assert p == oracle.coeffs

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", list(range(7)))
    def test_harmonic_homogeneous_normalised(self, m, n):
        p = real_zonal_poly(m, n)
        assert laplacian(p, real_pairs(n)) == {}
        assert all(sum(e) == m for e in p)
        assert evaluate(p, e_n_point_real(n)) == 1

    def test_rotation_invariance(self):
        for m, n in [(3, 3), (4, 4), (2, 2)]:
            assert rotation_invariance_residual(real_zonal_poly(m, n), n) < 1e-10


class TestComplexZonal:
    def test_10_is_zn(self):
        p = complex_zonal_poly(1, 0, 3)
        assert p == ExactPoly.variable(6, 2).coeffs

    def test_11_n2(self):
        p = complex_zonal_poly(1, 1, 2)
        z1, z2, zb1, zb2 = (ExactPoly.variable(4, i) for i in range(4))
        assert p == (z2 * zb2 - z1 * zb1).coeffs

    def test_21_n2_annihilated(self):
        assert laplacian(complex_zonal_poly(2, 1, 2), complex_pairs(2)) == {}

    @pytest.mark.parametrize("n", [2, 3])
    def test_sweep(self, n):
        for m1 in range(6):
            for m2 in range(6 - m1):
                p = complex_zonal_poly(m1, m2, n)
                assert laplacian(p, complex_pairs(n)) == {}
                assert evaluate(p, e_n_point_complex(n)) == 1
                assert all(sum(e[:n]) == m1 and sum(e[n:]) == m2 for e in p)


class TestDimensions:
    def test_examples(self):
        assert harmonic_dim_real(2, 3) == 5
        assert harmonic_dim_complex(1, 1, 2) == 3
        assert harmonic_dim_real(0, 4) == 1

    def test_real_against_kernel_oracle(self):
        for n in range(2, 6):
            for m in range(9):
                assert harmonic_dim_real(m, n) == kernel_dim_real(m, n)

    def test_complex_against_kernel_oracle(self):
        for n in range(2, 5):
            for m1 in range(7):
                for m2 in range(7 - m1):
                    assert harmonic_dim_complex(m1, m2, n) == kernel_dim_complex(m1, m2, n)

    def test_circle_dims(self):
        assert harmonic_dim_real(0, 2) == 1
        for m in range(1, 7):
            assert harmonic_dim_real(m, 2) == 2


class TestKernelBlocks:
    @given(m=st.integers(0, 7), n=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_real_blocks_match_the_dense_reference(self, m, n):
        monos = list(_monomials(m, n))
        want = reference_kernel_dim_real(m, n)
        assert _kernel_dim(monos, real_pairs(n)) == want
        assert kernel_dim_real(m, n) == want

    @given(data=st.data(), n=st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_complex_blocks_match_the_dense_reference(self, data, n):
        m1 = data.draw(st.integers(0, 5))
        m2 = data.draw(st.integers(0, 5 - m1))
        monos = [a + b for a in _monomials(m1, n) for b in _monomials(m2, n)]
        want = reference_kernel_dim_complex(m1, m2, n)
        assert _kernel_dim(monos, complex_pairs(n)) == want
        assert kernel_dim_complex(m1, m2, n) == want

    @pytest.mark.parametrize("m,n", [(4, 2), (4, 3), (5, 3), (6, 4)])
    def test_split_reads_the_pattern_not_the_parity_classes(self, m, n):
        # d^2/dx_0 dx_1 moves a monomial to another exponent parity class than
        # the Laplacian does, so the sum joins blocks that a split by parity
        # class would keep apart
        pairs = real_pairs(n) + [(0, 1)]

        def coupled(p, n):
            return reference_laplacian_real(p, n) + p.diff(0).diff(1)

        monos = list(_monomials(m, n))
        parities = {
            frozenset(tuple(x % 2 for x in e2) for e2 in laplacian({e: 1}, pairs))
            for e in monos
        }
        assert max(len(p) for p in parities) == 2
        want = reference_kernel_dim_real(m, n, laplacian=coupled)
        assert _kernel_dim(monos, pairs) == want
        # the extra pair raises the x_0-exponent too, so x_0^2 f still pivots
        targets = list(_monomials(m - 2, n))
        assert _minor_kernel_dim(monos, targets, pairs, real_lift) == want


def real_lift(f):
    return (f[0] + 2,) + f[1:]


def complex_targets(m1, m2, n):
    if not (m1 and m2):
        return []
    return [a + b for a in _monomials(m1 - 1, n) for b in _monomials(m2 - 1, n)]


class TestTriangularMinor:
    """The triangular-minor kernel dimension against the block elimination
    and the dense elimination it replaced."""

    @given(m=st.integers(0, 8), n=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_real_matches_both_references(self, m, n):
        monos = list(_monomials(m, n))
        got = kernel_dim_real(m, n)
        assert got == _kernel_dim(monos, real_pairs(n)) == reference_kernel_dim_real(m, n)
        assert got == harmonic_dim_real(m, n)

    @given(data=st.data(), n=st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_complex_matches_both_references(self, data, n):
        m1 = data.draw(st.integers(0, 5))
        m2 = data.draw(st.integers(0, 5 - m1))
        monos = [a + b for a in _monomials(m1, n) for b in _monomials(m2, n)]
        got = kernel_dim_complex(m1, m2, n)
        assert got == _kernel_dim(monos, complex_pairs(n))
        assert got == reference_kernel_dim_complex(m1, m2, n) == harmonic_dim_complex(m1, m2, n)

    def test_missing_source_names_the_target(self):
        # without x_0^2 x_1^2 among the sources, the target x_1^2 has no pivot
        monos = [e for e in _monomials(4, 3) if e != (2, 2, 0)]
        got = _minor_kernel_dim(monos, list(_monomials(2, 3)), real_pairs(3), real_lift)
        assert got == "no triangular pivot at the target (0, 2, 0)"

    def test_image_at_or_below_the_target_names_it(self):
        # d^2/dx_1^2 keeps the x_0-exponent, so x_1^2 f pivots on nothing
        def lift(f):
            return (f[0], f[1] + 2) + f[2:]

        got = _minor_kernel_dim(_monomials(4, 3), _monomials(2, 3), real_pairs(3), lift)
        assert got == "no triangular pivot at the target (0, 0, 2)"


def laplacian_with(coefficient):
    """``arch.laplacian`` with its coefficient e_i (e_k - [i = k]) of the
    pair (i, k) at x^e replaced by ``coefficient(e, i, k)``."""

    def lap(poly, pairs):
        out = {}
        for e, c in poly.items():
            for i, k in pairs:
                a = coefficient(e, i, k)
                if a:
                    d = list(e)
                    d[i] -= 1
                    d[k] -= 1
                    d = tuple(d)
                    out[d] = out.get(d, 0) + a * c
        return {d: c for d, c in out.items() if c}

    return lap


def dense_rank(monos, targets, pairs):
    """``reference_rank_exact`` of the dense matrix of ``arch.laplacian``."""
    images = [arch.laplacian({e: 1}, pairs) for e in monos]
    return reference_rank_exact([[image.get(t, 0) for t in targets] for image in images])


def dropping(bad):
    """The coefficient of ``laplacian`` with every term onto x^bad read as 0."""

    def coefficient(e, i, k):
        d = list(e)
        d[i] -= 1
        d[k] -= 1
        return 0 if tuple(d) == bad else e[i] * (e[k] - (i == k))

    return coefficient


class TestCorruptedLaplacian:
    """One wrong coefficient in ``laplacian``, x^bad read as 0 in every image:
    the triangular minor names the target it loses, and both eliminations
    see the rank fall by one."""

    def test_the_copy_is_the_laplacian(self):
        right = laplacian_with(lambda e, i, k: e[i] * (e[k] - (i == k)))
        for m, n in [(4, 3), (5, 2)]:
            for e in _monomials(m, n):
                assert right({e: 1}, real_pairs(n)) == laplacian({e: 1}, real_pairs(n))
        for e in (a + b for a in _monomials(2, 2) for b in _monomials(3, 2)):
            assert right({e: 1}, complex_pairs(2)) == laplacian({e: 1}, complex_pairs(2))

    def test_real_coefficient(self, monkeypatch):
        m, n, bad = 4, 3, (0, 1, 1)
        monkeypatch.setattr(arch, "laplacian", laplacian_with(dropping(bad)))
        assert kernel_dim_real(m, n) == "no triangular pivot at the target (0, 1, 1)"
        monos, targets = list(_monomials(m, n)), list(_monomials(m - 2, n))
        assert _kernel_dim(monos, real_pairs(n)) == harmonic_dim_real(m, n) + 1
        assert dense_rank(monos, targets, real_pairs(n)) == len(targets) - 1
        rec = verify.arch_suite(real_bounds=(4, 3), complex_bounds=(3, 2))
        dims = {r.check_id: r for r in rec.records if r.check_id.endswith("/dim")}
        failed = {i: r.observed for i, r in dims.items() if r.status != "PASS"}
        assert failed == {"arch-real/m4-n3/dim": "no triangular pivot at the target (0, 1, 1)"}

    def test_complex_coefficient(self, monkeypatch):
        m1, m2, n, bad = 2, 1, 2, (0, 1, 0, 0)
        monkeypatch.setattr(arch, "laplacian", laplacian_with(dropping(bad)))
        assert kernel_dim_complex(m1, m2, n) == "no triangular pivot at the target (0, 1, 0, 0)"
        monos = [a + b for a in _monomials(m1, n) for b in _monomials(m2, n)]
        targets = complex_targets(m1, m2, n)
        assert _kernel_dim(monos, complex_pairs(n)) == harmonic_dim_complex(m1, m2, n) + 1
        assert dense_rank(monos, targets, complex_pairs(n)) == len(targets) - 1


def _random_poly(data, nvars):
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return data.draw(st.dictionaries(exps, coeffs, max_size=8))


class TestAgainstExactPoly:
    @given(m=st.integers(0, 10), n=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_real_zonal_equals_the_product_expansion(self, m, n):
        assert real_zonal_poly(m, n) == reference_real_zonal_poly(m, n).coeffs

    @given(data=st.data(), n=st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_complex_zonal_equals_the_product_expansion(self, data, n):
        m1 = data.draw(st.integers(0, 6))
        m2 = data.draw(st.integers(0, 6 - m1))
        assert complex_zonal_poly(m1, m2, n) == reference_complex_zonal_poly(m1, m2, n).coeffs

    @given(data=st.data(), n=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_real_pairs_give_the_real_laplacian(self, data, n):
        p = ExactPoly(n, _random_poly(data, n))
        assert laplacian(p.coeffs, real_pairs(n)) == reference_laplacian_real(p, n).coeffs

    @given(data=st.data(), n=st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_complex_pairs_give_a_quarter_of_the_complex_laplacian(self, data, n):
        p = ExactPoly(2 * n, _random_poly(data, 2 * n))
        want = Fraction(1, 4) * reference_laplacian_complex(p, n)
        assert laplacian(p.coeffs, complex_pairs(n)) == want.coeffs

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fraction_free_rank_equals_the_fraction_rank(self, data):
        ncols = data.draw(st.integers(1, 6))
        row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(row, max_size=6))
        # zero rows, duplicates and negated or scaled copies of drawn rows
        for _ in range(data.draw(st.integers(0, 4))):
            kind = data.draw(st.sampled_from(["zero", "copy", "negate", "scale"]))
            if kind == "zero" or not rows:
                rows.append([0] * ncols)
                continue
            r = data.draw(st.sampled_from(rows))
            k = {"copy": 1, "negate": -1, "scale": data.draw(st.integers(-6, 6))}[kind]
            rows.insert(data.draw(st.integers(0, len(rows))), [k * c for c in r])
        want = reference_rank_exact(rows)
        assert _rank_exact(rows) == want
        assert reference_rank_fractions(rows) == want


class TestArchSuiteBidegree:
    def test_swapped_bidegree_fails_the_zonal_record(self, monkeypatch):
        # the swapped polynomial is harmonic with value 1 at e_n, so only the
        # bidegree check can tell it apart when m1 != m2
        zonal = arch.complex_zonal_poly
        monkeypatch.setattr(arch, "complex_zonal_poly", lambda m1, m2, n: zonal(m2, m1, n))
        rec = verify.arch_suite(real_bounds=(2, 2), complex_bounds=(3, 3))
        records = [r for r in rec.records if r.check_id.startswith("arch-complex/")]
        zonal_records = [r for r in records if r.check_id.endswith("/zonal")]
        assert len(zonal_records) == 20
        for r in zonal_records:
            swapped = r.params["m1"] != r.params["m2"]
            assert r.status == ("FAIL" if swapped else "PASS"), r.check_id
        assert all(r.status == "PASS" for r in records if r.check_id.endswith("/dim"))
