"""Rank decisions with certificates.

Policy: complex double precision; equality and orthogonality are tested
at TAU_NUM; rank decisions use a pivot threshold plus a mandatory gap
check (smallest kept pivot over largest dropped pivot must exceed
GAP_MIN), otherwise the computation fails closed rather than guessing.
"""

from __future__ import annotations

import numpy as np

TAU_NUM = 1e-8
PIVOT_THRESHOLD = 1e-6
GAP_MIN = 1e4


class RankCertificateError(RuntimeError):
    """A rank decision was ambiguous at the configured tolerance."""


def _check_gap(kept, dropped, what):
    if kept and dropped and max(dropped) > 0:
        gap = min(kept) / max(dropped)
        if gap < GAP_MIN:
            raise RankCertificateError(
                f"{what}: pivot gap {gap:.3e} below required {GAP_MIN:.0e}"
            )


def orthonormalize_rows(V, weight=1.0, expected_rank=None):
    """Modified Gram-Schmidt with a pivot-gap certificate.

    ``weight`` scales the standard inner product (use 1/N for the uniform
    probability inner product on N points).  Rows with projected norm under
    PIVOT_THRESHOLD are dropped; the kept/dropped pivot gap is certified.
    """
    V = np.array(V, dtype=np.complex128)
    kept_rows, kept_piv, dropped_piv = [], [], []
    for v in V:
        w = v.copy()
        for b in kept_rows:
            w = w - weight * (w @ b.conj()) * b
        # second pass for numerical safety
        for b in kept_rows:
            w = w - weight * (w @ b.conj()) * b
        nrm = np.sqrt(weight * (w @ w.conj()).real)
        if nrm > PIVOT_THRESHOLD:
            kept_rows.append(w / nrm)
            kept_piv.append(nrm)
        else:
            dropped_piv.append(nrm)
    _check_gap(kept_piv, dropped_piv, "orthonormalize_rows")
    if expected_rank is not None and len(kept_rows) != expected_rank:
        raise RankCertificateError(
            f"rank {len(kept_rows)} does not match expected {expected_rank}"
        )
    if not kept_rows:
        return np.zeros((0, V.shape[1]), dtype=np.complex128)
    return np.array(kept_rows)


def _kept_count(s, rel_tol, what):
    """Number of singular values kept at the pivot threshold, gap-certified."""
    smax = max(s[0], 1.0) if len(s) else 1.0
    small = [x for x in s if x <= rel_tol * smax]
    large = [x for x in s if x > rel_tol * smax]
    _check_gap(large if large else [smax], small, what)
    return len(large)


def kernel_basis(M, rel_tol=PIVOT_THRESHOLD):
    """Orthonormal basis of the (numerical) kernel of M with a gap certificate.

    Returns (dim, basis) where the basis rows span the right null space.
    """
    M = np.asarray(M, dtype=np.complex128)
    n = M.shape[1]
    if M.shape[0] == 0:
        return n, np.eye(n, dtype=np.complex128)
    # economy SVD suffices when rows >= cols (the stacked systems always are)
    _, s, vh = np.linalg.svd(M, full_matrices=M.shape[0] < n)
    rank = _kept_count(s, rel_tol, "kernel_basis")
    dim = n - rank
    basis = vh[rank:].conj() if dim else np.zeros((0, n), dtype=np.complex128)
    return dim, basis


def kernel_dimension(M, rel_tol=PIVOT_THRESHOLD):
    """Dimension of the (numerical) kernel of M from its singular values alone.

    Same threshold and gap certificate as ``kernel_basis``.
    """
    M = np.asarray(M, dtype=np.complex128)
    n = M.shape[1]
    if M.shape[0] == 0:
        return n
    s = np.linalg.svd(M, compute_uv=False)
    return n - _kept_count(s, rel_tol, "kernel_dimension")
