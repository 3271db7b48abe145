"""Properties of the table arithmetic and of the stacked det, mat_inv and
flag_canon, swept over random small (branch, p, f, m, n); det and mat_inv
also against the references they replaced (``linalgref``)."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrasph import matgroup
from ultrasph.matgroup import _leibniz_bytes, det, mat_inv
from ultrasph.pseries import flag_canon
from ultrasph.ring import make_ring_level

from linalgref import reference_det, reference_mat_inv

RING_POINTS = [
    (branch, p, f, m)
    for branch, p, f in [
        ("padic", 2, 1), ("padic", 3, 1), ("padic", 5, 1), ("padic", 7, 1),
        ("laurent", 2, 1), ("laurent", 2, 2), ("laurent", 3, 1), ("laurent", 3, 2),
        ("laurent", 2, 3),
    ]
    for m in (1, 2, 3)
    if (p**f) ** m <= 81
]

points = st.sampled_from(RING_POINTS)
seeds = st.integers(0, 2**32 - 1)
sweep = settings(max_examples=40, deadline=None)


@lru_cache(maxsize=None)
def ring_of(point):
    return make_ring_level(*point)


def draw(ring, n, seed, count=12):
    return np.random.default_rng(seed).integers(0, ring.size, (count, n, n))


def invertible(ring, n, seed):
    a = draw(ring, n, seed)
    return a[ring.val_arr(det(ring, a)) == 0]


def laplace(a):
    """Integer determinant by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * laplace([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


def digit_ops(ring, a, b):
    """(a + b, a * b) on base-q t-digits: F_q addition and convolution."""
    q, m, fq = ring.q, ring.m, ring.fq
    da = [a // q**i % q for i in range(m)]
    db = [b // q**i % q for i in range(m)]
    total = prod = 0
    for k in range(m):
        acc = 0
        for i in range(k + 1):
            acc = fq.add[acc, fq.mul[da[i], db[k - i]]]
        total += int(fq.add[da[k], db[k]]) * q**k
        prod += int(acc) * q**k
    return total, prod


def reference_matmul(ring, A, B):
    """The table product: one gather into the ring's own ``_mul`` table per
    term, summed through its ``_add`` table; broadcast as ``RingLevel.matmul``."""
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim == 1:
        return reference_matmul(ring, A[None], B)[..., 0, :]
    out = ring._mul[A[..., :, 0, None], B[..., 0, None, :]]
    for j in range(1, A.shape[-1]):
        out = ring._add[out, ring._mul[A[..., :, j, None], B[..., j, None, :]]]
    return out


class TestTables:
    @given(point=points, data=st.data())
    @sweep
    def test_tables_match_reference_arithmetic(self, point, data):
        R = ring_of(point)
        a = data.draw(st.integers(0, R.size - 1))
        b = data.draw(st.integers(0, R.size - 1))
        if R.branch == "padic":
            want = ((a + b) % R.size, a * b % R.size)
        else:
            want = digit_ops(R, a, b)
        assert (R.add(a, b), R.mul(a, b)) == want
        assert (int(R.add_arr(a, b)), int(R.mul_arr(a, b))) == want
        assert R.add(a, R.neg(a)) == 0
        if R.is_unit(a):
            assert R.mul(a, R.inv(a)) == 1


class TestStacks:
    @given(point=points, n=st.integers(1, 3), seed=seeds)
    @sweep
    def test_stack_equals_one_by_one(self, point, n, seed):
        R = ring_of(point)
        a = draw(R, n, seed)
        assert det(R, a).tolist() == [det(R, x) for x in a]
        inv = invertible(R, n, seed)
        reps, pivots = flag_canon(R, inv)
        for x, xinv, rep, piv in zip(inv, mat_inv(R, inv), reps, pivots):
            assert np.array_equal(xinv, mat_inv(R, x))
            one_rep, one_piv = flag_canon(R, x)
            assert np.array_equal(rep, one_rep) and piv.tolist() == one_piv

    @given(point=points, n=st.integers(1, 3), seed=seeds)
    @sweep
    def test_matmul_stack_on_the_right(self, point, n, seed):
        # (N, n, n), (n, n) and row (n,) on the left, each times a (C, n, n) stack
        R = ring_of(point)
        a, b = draw(R, n, seed), draw(R, n, seed + 1, count=5)
        for left in (a, a[0], a[0, 0]):
            want = np.array([R.matmul(left, y) for y in b])
            assert np.array_equal(R.matmul(left, b[:, None] if left.ndim == 3 else b), want)

    @given(point=points, n=st.integers(1, 3), seed=seeds)
    @sweep
    def test_matmul_pairwise_over_equal_stacks(self, point, n, seed):
        R = ring_of(point)
        a, b = draw(R, n, seed), draw(R, n, seed + 1)
        want = np.array([R.matmul(x, y) for x, y in zip(a, b)])
        assert np.array_equal(R.matmul(a, b), want)
        assert np.array_equal(R.matmul(a.reshape(3, 4, n, n), b.reshape(3, 4, n, n)), want.reshape(3, 4, n, n))

    @given(point=points, dims=st.tuples(*[st.integers(1, 4)] * 3), seed=seeds)
    @sweep
    def test_matmul_equals_the_table_product(self, point, dims, seed):
        # the broadcast shapes in use: pairwise stacks, pieces times a column
        # of stacks, a row times a stack, and points times a stack
        R = ring_of(point)
        r, s, t = dims
        rng = np.random.default_rng(seed)
        pairs = [
            ((5, r, s), (5, s, t)),
            ((3, r, s), (4, 1, s, t)),
            ((s,), (5, s, t)),
            ((6, s), (4, s, s)),
        ]
        for left, right in pairs:
            A, B = rng.integers(0, R.size, left), rng.integers(0, R.size, right)
            got, want = R.matmul(A, B), reference_matmul(R, A, B)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_matmul_at_the_largest_entries(self):
        # every entry q^m - 1: the integer sum of s products before reduction
        for point in [("padic", 2, 1, 8), ("padic", 3, 1, 5), ("laurent", 2, 2, 4)]:
            R = make_ring_level(*point)
            A = np.full((2, 3, 4), R.size - 1)
            B = np.full((2, 4, 3), R.size - 1)
            assert np.array_equal(R.matmul(A, B), reference_matmul(R, A, B))

    @given(point=points, n=st.integers(1, 3), seed=seeds)
    @sweep
    def test_inverse(self, point, n, seed):
        R = ring_of(point)
        eye = np.eye(n, dtype=np.int64)
        ks = invertible(R, n, seed)
        for k, kinv in zip(ks, mat_inv(R, ks)):
            assert np.array_equal(R.matmul(k, kinv), eye)
            assert np.array_equal(R.matmul(kinv, k), eye)

    @given(point=points, n=st.integers(1, 3), seed=seeds)
    @sweep
    def test_det_multiplicative(self, point, n, seed):
        R = ring_of(point)
        a, b = draw(R, n, seed), draw(R, n, seed + 1)
        ab = np.array([R.matmul(x, y) for x, y in zip(a, b)])
        assert det(R, ab).tolist() == R.mul_arr(det(R, a), det(R, b)).tolist()
        if R.branch == "padic":
            assert det(R, a).tolist() == [laplace(x.tolist()) % R.size for x in a]

    @given(point=points, n=st.integers(2, 3), seed=seeds)
    @sweep
    def test_flag_canon_is_b_invariant(self, point, n, seed):
        R = ring_of(point)
        rng = np.random.default_rng(seed)
        units = R.units()
        for a in invertible(R, n, seed):
            b = np.triu(rng.integers(0, R.size, (n, n)), 1)
            b[np.diag_indices(n)] = units[rng.integers(0, len(units), n)]
            rep, piv = flag_canon(R, a)
            assert np.array_equal(flag_canon(R, R.matmul(b, a))[0], rep)
            # a = B rep with B upper triangular and diag(B) = pivots
            factor = R.matmul(a, mat_inv(R, rep))
            assert not np.tril(factor, -1).any()
            assert np.diag(factor).tolist() == piv

    @given(point=points, n=st.integers(2, 3), seed=seeds)
    @sweep
    def test_flag_canon_normal_form(self, point, n, seed):
        # bottom-up, each row pivots on its first free unit column, scaled
        # to 1, with the entries above the pivot cleared
        R = ring_of(point)
        for rep in flag_canon(R, invertible(R, n, seed))[0]:
            taken = []
            for i in range(n - 1, -1, -1):
                j = next(c for c in range(n) if c not in taken and R.is_unit(rep[i, c]))
                assert rep[i, j] == 1 and not rep[:i, j].any()
                taken.append(j)


def outcome(f, ring, a):
    """f(ring, a), or the message of the ValueError it raises."""
    try:
        return f(ring, a)
    except ValueError as e:
        return f"ValueError: {e}"


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


class TestLeibnizAgainstReferences:
    """det and the Cramer inverse equal the table-sum Leibniz det and
    Gauss-Jordan bit for bit, singular matrices included."""

    @given(point=points, n=st.integers(1, 4), count=st.integers(0, 40), seed=seeds)
    @sweep
    def test_equal_to_the_references(self, point, n, count, seed):
        R = ring_of(point)
        a = draw(R, n, seed, count=count)
        assert_same_outcome(det(R, a), reference_det(R, a))
        # the whole stack, singular ones included, then its invertible part
        assert_same_outcome(outcome(mat_inv, R, a), outcome(reference_mat_inv, R, a))
        inv = a[R.val_arr(det(R, a)) == 0]
        assert_same_outcome(mat_inv(R, inv), reference_mat_inv(R, inv))
        if count:
            assert det(R, a[0]) == reference_det(R, a[0])
            assert_same_outcome(outcome(mat_inv, R, a[0]), outcome(reference_mat_inv, R, a[0]))

    @pytest.mark.parametrize("point", [("padic", 3, 1, 2), ("laurent", 2, 2, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_several_chunks(self, point, n, monkeypatch):
        # three inverses' minors, or three dets' terms, to a chunk
        R = ring_of(point)
        a = draw(R, n, 5, count=40)
        inv = a[R.val_arr(reference_det(R, a)) == 0]
        assert len(inv) > 6
        chunks = []
        leibniz = matgroup.det

        def counted(ring, b):
            chunks.append(len(b))
            return leibniz(ring, b)

        monkeypatch.setattr(matgroup, "SAMPLE_BATCH_BYTES", 3 * n * n * _leibniz_bytes(n - 1))
        monkeypatch.setattr(matgroup, "det", counted)
        assert np.array_equal(mat_inv(R, inv), reference_mat_inv(R, inv))
        assert chunks == [3] * (len(inv) // 3) + [len(inv) % 3] * (len(inv) % 3 > 0)
        monkeypatch.setattr(matgroup, "SAMPLE_BATCH_BYTES", 3 * _leibniz_bytes(n))
        assert np.array_equal(leibniz(R, a), reference_det(R, a))
        monkeypatch.setattr(matgroup, "SAMPLE_BATCH_BYTES", 1)
        assert np.array_equal(leibniz(R, a), reference_det(R, a))
        assert np.array_equal(mat_inv(R, inv), reference_mat_inv(R, inv))
