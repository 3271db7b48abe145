import numpy as np
import pytest

from ultrasph.numerics import (
    RankCertificateError,
    kernel_basis,
    kernel_dimension,
    orthonormalize_rows,
)


class TestKernel:
    def test_clean_kernel(self):
        m = np.diag([1.0, 2.0, 0.0])
        dim, basis = kernel_basis(m)
        assert dim == 1
        assert np.abs(m @ basis[0]).max() < 1e-12

    def test_full_rank(self):
        assert kernel_dimension(np.eye(4)) == 0

    def test_zero_matrix(self):
        assert kernel_dimension(np.zeros((3, 3))) == 3

    def test_wide_matrix_kernel(self):
        m = np.array([[1.0, 0.0, 0.0]])
        dim, basis = kernel_basis(m)
        assert dim == 2
        assert np.abs(m @ basis.T).max() < 1e-12

    def test_ambiguous_gap_fails_closed(self):
        # singular values 1, 1e-5, 1e-7: the small/large split at 1e-6
        # leaves a gap of only 100 < 1e4, so the decision must refuse
        m = np.diag([1.0, 1e-5, 1e-7])
        with pytest.raises(RankCertificateError):
            kernel_basis(m)

    def test_empty_system_is_all_kernel(self):
        dim, basis = kernel_basis(np.zeros((0, 5)))
        assert dim == 5 and basis.shape == (5, 5)

    @pytest.mark.parametrize("rows,cols,rank", [(6, 4, 2), (3, 7, 3), (5, 5, 0), (4, 9, 4)])
    def test_dimension_matches_basis(self, rows, cols, rank):
        rng = np.random.default_rng(rows * cols + rank)
        m = (rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))) @ rng.normal(
            size=(rank, cols)
        )
        assert kernel_dimension(m) == kernel_basis(m)[0] == cols - rank

    def test_dimension_ambiguous_gap_fails_closed(self):
        with pytest.raises(RankCertificateError):
            kernel_dimension(np.diag([1.0, 1e-5, 1e-7]))


class TestOrthonormalize:
    def test_clean_case(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(3, 8))
        b = orthonormalize_rows(v, weight=1.0)
        assert b.shape == (3, 8)
        assert np.abs(b @ b.conj().T - np.eye(3)).max() < 1e-10

    def test_dependent_rows_dropped(self):
        v = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        b = orthonormalize_rows(v, weight=1.0)
        assert b.shape == (2, 2)

    def test_expected_rank_enforced(self):
        v = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RankCertificateError):
            orthonormalize_rows(v, weight=1.0, expected_rank=2)

    def test_weighted_norms(self):
        v = np.ones((1, 4))
        b = orthonormalize_rows(v, weight=0.25)
        assert abs((np.abs(b[0]) ** 2).sum() * 0.25 - 1) < 1e-12

    def test_ambiguous_pivot_fails_closed(self):
        # kept pivot 1e-5 against dropped pivot 1e-8 gives a gap of 1e3,
        # below the required 1e4, so the decision must refuse
        v = np.diag([1.0, 1e-5, 1e-8])
        with pytest.raises(RankCertificateError):
            orthonormalize_rows(v, weight=1.0)
