from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrasph.harmonics import (
    SphereSpace,
    chi_level_subspace,
    commutant_dimension,
    dim_chi_level,
    dim_harmonic,
    harmonic_subspace,
    idempotent_sum_residual,
    invariant_vectors,
    phi_fn,
    verify_addition_theorem,
    verify_reproducing_kernel,
    verify_zonal_symmetry,
    zonal_fn,
    zonal_shell_coefficient,
)
from ultrasph.matgroup import (
    SubgroupSpec,
    enumerate_group,
    random_in_K,
    subgroup_generators,
)
from ultrasph.numerics import kernel_basis
from ultrasph.ring import characters, make_ring_level
from ultrasph.sphere import sphere_size


@pytest.fixture(scope="module")
def sp222():
    return SphereSpace(make_ring_level("padic", 2, 1, 2), 2)


@pytest.fixture(scope="module")
def chars222(sp222):
    return characters(sp222.ring)


def trivial_of(chs):
    return next(c for c in chs if c.is_trivial)


class TestPhi:
    def test_depth_zero_constant(self, sp222, chars222):
        f = phi_fn(sp222, trivial_of(chars222), 0)
        assert np.allclose(f, 1.0)

    def test_q2_indicator(self):
        sp = SphereSpace(make_ring_level("padic", 2, 1, 1), 2)
        triv = trivial_of(characters(sp.ring))
        f = phi_fn(sp, triv, 1)
        expected = {(0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0}
        for i, pt in enumerate(sp.points):
            assert f[i] == expected[tuple(int(c) for c in pt)]

    def test_inner_product_value(self):
        sp = SphereSpace(make_ring_level("padic", 2, 1, 1), 2)
        triv = trivial_of(characters(sp.ring))
        f = phi_fn(sp, triv, 1)
        assert abs(sp.ip(f, f) - Fraction(1, 3)) < 1e-12

    def test_phi_gram_matches_formula(self):
        # <phi_l1, phi_l2> = 1 (both 0) or (q-1)/(q^((max-1)(n-1)) (q^n-1))
        for ring, n in [
            (make_ring_level("padic", 2, 1, 3), 2),
            (make_ring_level("padic", 3, 1, 2), 2),
            (make_ring_level("padic", 2, 1, 2), 3),
        ]:
            sp = SphereSpace(ring, n)
            q = ring.q
            for chi in characters(ring):
                phis = {l: phi_fn(sp, chi, l) for l in range(chi.c, ring.m + 1)}
                for l1, f1 in phis.items():
                    for l2, f2 in phis.items():
                        top = max(l1, l2)
                        want = (
                            1.0
                            if top == 0
                            else (q - 1) / (q ** ((top - 1) * (n - 1)) * (q**n - 1))
                        )
                        assert abs(sp.ip(f1, f2) - want) < 1e-12

    def test_depth_below_conductor_rejected(self, sp222, chars222):
        ram = next(c for c in chars222 if c.c == 2)
        with pytest.raises(ValueError):
            phi_fn(sp222, ram, 1)

    def test_depth_zero_needs_trivial(self, sp222, chars222):
        ram = next(c for c in chars222 if c.c == 2)
        with pytest.raises(ValueError):
            phi_fn(sp222, ram, 0)

    def test_depth_above_working_level_rejected(self, sp222, chars222):
        triv = trivial_of(chars222)
        with pytest.raises(ValueError):
            phi_fn(sp222, triv, 3)
        with pytest.raises(ValueError):
            zonal_fn(sp222, triv, 3)
        with pytest.raises(ValueError):
            chi_level_subspace(sp222, triv, 3)

    def test_phi_linearly_independent(self, sp222, chars222):
        triv = trivial_of(chars222)
        stack = np.array([phi_fn(sp222, triv, l) for l in range(3)])
        assert np.linalg.matrix_rank(stack) == 3


class TestZonal:
    def test_shell_coefficient_values(self):
        assert zonal_shell_coefficient(2, 2, 1) == Fraction(-1, 2)
        assert zonal_shell_coefficient(2, 2, 2) == Fraction(-1, 1)
        assert zonal_shell_coefficient(3, 2, 1) == Fraction(-2, 6)
        assert zonal_shell_coefficient(2, 3, 2) == Fraction(-1, 3)

    def test_q2_m1_values(self):
        sp = SphereSpace(make_ring_level("padic", 2, 1, 1), 2)
        triv = trivial_of(characters(sp.ring))
        z = zonal_fn(sp, triv, 1)
        vals = {tuple(int(c) for c in pt): z[i] for i, pt in enumerate(sp.points)}
        assert vals[(0, 1)] == 1.0
        assert vals[(1, 0)] == vals[(1, 1)] == -0.5

    def test_mean_zero_and_norm(self):
        sp = SphereSpace(make_ring_level("padic", 2, 1, 1), 2)
        triv = trivial_of(characters(sp.ring))
        z = zonal_fn(sp, triv, 1)
        assert abs(sp.ip(z, np.ones(3))) < 1e-15
        assert abs(sp.ip(z, z) - 0.5) < 1e-15

    def test_norm_is_one_over_dim(self, sp222, chars222):
        for chi in chars222:
            for m in range(chi.c, 3):
                z = zonal_fn(sp222, chi, m)
                d = dim_harmonic(2, 2, m, chi.c)
                assert abs(sp222.ip(z, z) - 1.0 / d) < 1e-12

    def test_value_one_at_en(self, sp222, chars222):
        for chi in chars222:
            for m in range(chi.c, 3):
                assert zonal_fn(sp222, chi, m)[sp222.index.e_n] == 1.0

    def test_zonal_is_the_invariant_line(self, sp222, chars222):
        # independent oracle: kernel of the stabiliser action inside H
        mirab = subgroup_generators(SubgroupSpec("Kmirab"), sp222.ring, 2)
        for chi in chars222:
            for m in range(chi.c, 3):
                H = harmonic_subspace(sp222, chi, m)
                inv = invariant_vectors(H, mirab)
                assert inv.shape[0] == 1
                cand = inv[0].conj() @ H.basis
                cand = cand / cand[sp222.index.e_n]
                assert np.abs(cand - zonal_fn(sp222, chi, m)).max() < 1e-10

    def test_zonal_orthogonal_across_levels(self, sp222, chars222):
        triv = trivial_of(chars222)
        zs = [zonal_fn(sp222, triv, m) for m in range(3)]
        for i in range(3):
            for j in range(i):
                assert abs(sp222.ip(zs[i], zs[j])) < 1e-12


class TestSubspaces:
    def test_chi_level_dims(self):
        for ring, n in [
            (make_ring_level("padic", 2, 1, 2), 2),
            (make_ring_level("padic", 3, 1, 2), 2),
            (make_ring_level("padic", 2, 1, 2), 3),
            (make_ring_level("laurent", 2, 2, 2), 2),
        ]:
            sp = SphereSpace(ring, n)
            for chi in characters(ring):
                for ell in range(ring.m + 1):
                    sub = chi_level_subspace(sp, chi, ell)
                    assert sub.dim == dim_chi_level(ring.q, n, ell, chi.c)
                    assert sub.gram_residual() < 1e-12

    def test_dim_examples(self):
        assert dim_chi_level(2, 2, 1, 0) == 3
        assert dim_chi_level(2, 2, 2, 2) == 6
        assert dim_chi_level(2, 2, 1, 2) == 0
        assert dim_harmonic(2, 2, 0, 0) == 1
        assert dim_harmonic(2, 2, 1, 0) == 2
        assert dim_harmonic(2, 2, 2, 0) == 3
        assert dim_harmonic(2, 2, 2, 2) == 6
        assert dim_harmonic(3, 2, 1, 0) == 3
        assert dim_harmonic(2, 3, 1, 0) == 6

    def test_completeness(self):
        for ring, n in [
            (make_ring_level("padic", 2, 1, 2), 2),
            (make_ring_level("padic", 3, 1, 2), 2),
            (make_ring_level("padic", 5, 1, 1), 2),
        ]:
            sp = SphereSpace(ring, n)
            total = sum(
                dim_harmonic(ring.q, n, m, chi.c)
                for chi in characters(ring)
                for m in range(chi.c, ring.m + 1)
            )
            assert total == sp.size

    def test_mutual_orthogonality(self, sp222, chars222):
        blocks = []
        for chi in chars222:
            for m in range(chi.c, 3):
                blocks.append(harmonic_subspace(sp222, chi, m).basis)
        stack = np.concatenate(blocks, axis=0)
        gram = stack @ stack.conj().T * sp222.weight
        assert np.abs(gram - np.eye(stack.shape[0])).max() < 1e-10

    def test_filtration_nesting(self, sp222, chars222):
        # depth-l space sits inside depth-(l+1) space
        triv = trivial_of(chars222)
        low = chi_level_subspace(sp222, triv, 1)
        high = chi_level_subspace(sp222, triv, 2)
        proj = low.basis - (low.basis @ high.basis.conj().T * sp222.weight) @ high.basis
        assert np.abs(proj).max() < 1e-10

    def test_invariance_under_action(self, sp222, chars222):
        rng = np.random.default_rng(0)
        for chi in chars222:
            H = harmonic_subspace(sp222, chi, 2)
            for _ in range(5):
                k = random_in_K(sp222.ring, 2, rng)
                rho = H.rho(k)
                assert np.abs(rho @ rho.conj().T - np.eye(H.dim)).max() < 1e-10

    def test_scalar_equivariance(self, sp222, chars222):
        for chi in chars222:
            sub = chi_level_subspace(sp222, chi, 2)
            for a in sp222.ring.units():
                perm = sp222.index.scalar_perm(int(a))
                for row in sub.basis:
                    moved = np.empty_like(row)
                    moved[perm] = row * chi(int(a))
                    # f(a x) = chi(a) f(x): value at slot of a*x is chi(a)*f(x)
                    assert np.abs(moved[perm] - chi(int(a)) * row).max() < 1e-12


class TestCommutant:
    def test_irreducible_pieces(self, sp222, chars222):
        gens = subgroup_generators(SubgroupSpec("K"), sp222.ring, 2)
        for chi in chars222:
            for m in range(chi.c, 3):
                H = harmonic_subspace(sp222, chi, m)
                assert commutant_dimension(H, gens) == 1

    def test_filtration_commutant(self, sp222, chars222):
        gens = subgroup_generators(SubgroupSpec("K"), sp222.ring, 2)
        for chi in chars222:
            for m in range(chi.c, 3):
                C = chi_level_subspace(sp222, chi, m)
                assert commutant_dimension(C, gens) == m - chi.c + 1

    def test_one_dimensional_space(self, sp222, chars222):
        gens = subgroup_generators(SubgroupSpec("K"), sp222.ring, 2)
        H = harmonic_subspace(sp222, trivial_of(chars222), 0)
        assert commutant_dimension(H, gens) == 1


def kron_commutant_dimension(sub, gens):
    """Reference: kernel of the stacked Sylvester systems X r - r X = 0."""
    eye = np.eye(sub.dim)
    blocks = [np.kron(eye, r) - np.kron(r.T, eye) for r in (sub.rho(g) for g in gens)]
    return kernel_basis(np.concatenate(blocks, axis=0))[0]


# the reference SVD costs about (#gens) d^6 for a d-dimensional space; these
# points keep d <= 15 and each sweep point under a second
SMALL_SPHERES = [
    (branch, p, f, m, n)
    for branch, p, f in [
        ("padic", 2, 1), ("padic", 3, 1), ("padic", 5, 1), ("padic", 7, 1),
        ("laurent", 2, 1), ("laurent", 2, 2), ("laurent", 3, 1),
    ]
    for m in (1, 2, 3)
    for n in (2, 3, 4)
    if sphere_size(p**f, n, m) <= 48
]


@lru_cache(maxsize=None)
def small_space(point):
    branch, p, f, m, n = point
    return SphereSpace(make_ring_level(branch, p, f, m), n)


class TestCommutantAgainstKron:
    """The orbital-operator rank against the Sylvester-system SVD it replaced."""

    @given(point=st.sampled_from(SMALL_SPHERES))
    @settings(max_examples=12, deadline=None)
    def test_pieces_and_filtration(self, point):
        space = small_space(point)
        M = space.ring.m
        gens = subgroup_generators(SubgroupSpec("K"), space.ring, space.n)
        for chi in characters(space.ring):
            for m in range(chi.c, M + 1):
                H = harmonic_subspace(space, chi, m)
                assert commutant_dimension(H, gens) == kron_commutant_dimension(H, gens) == 1
            C = chi_level_subspace(space, chi, M)
            want = M - chi.c + 1
            assert commutant_dimension(C, gens) == kron_commutant_dimension(C, gens) == want

    @given(point=st.sampled_from(SMALL_SPHERES), data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_short_generator_list_fails_closed(self, point, data):
        # one elementary matrix generates a cyclic group, whose commutant on
        # any space of dimension d >= 2 has dimension at least d
        space = small_space(point)
        M = space.ring.m
        chi = data.draw(st.sampled_from(characters(space.ring)))
        m = data.draw(st.integers(chi.c, M))
        gens = subgroup_generators(SubgroupSpec("K"), space.ring, space.n)[:1]
        for sub in (harmonic_subspace(space, chi, m), chi_level_subspace(space, chi, M)):
            got = commutant_dimension(sub, gens)
            assert got == kron_commutant_dimension(sub, gens)
            assert got > 1 or sub.dim == 1


class TestIdentities:
    def test_addition_theorem_en_identity(self, sp222, chars222):
        # at x = e_n, k = 1: sum |Q_j(e_n)|^2 = dim
        for chi in chars222:
            for m in range(chi.c, 3):
                H = harmonic_subspace(sp222, chi, m)
                total = (np.abs(H.basis[:, sp222.index.e_n]) ** 2).sum()
                assert abs(total - H.dim) < 1e-9

    def test_addition_theorem_sampled(self, sp222, chars222):
        rng = np.random.default_rng(1)
        ks = [random_in_K(sp222.ring, 2, rng) for _ in range(40)]
        for chi in chars222:
            for m in range(chi.c, 3):
                H = harmonic_subspace(sp222, chi, m)
                z = zonal_fn(sp222, chi, m)
                assert verify_addition_theorem(H, z, ks) < 1e-9

    def test_addition_theorem_basis_free(self, sp222, chars222):
        # two different orthonormal bases give the same kernel
        chi = trivial_of(chars222)
        H = harmonic_subspace(sp222, chi, 2)
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.normal(size=(H.dim, H.dim)) + 1j * rng.normal(size=(H.dim, H.dim)))
        H2 = type(H)(sp222, u.T @ H.basis, chi, 2, "harmonic")
        k1 = H.basis.conj().T @ H.basis
        k2 = H2.basis.conj().T @ H2.basis
        assert np.abs(k1 - k2).max() < 1e-9

    def test_reproducing_kernel(self, sp222, chars222):
        rng = np.random.default_rng(3)
        ks = [random_in_K(sp222.ring, 2, rng) for _ in range(40)]
        for chi in chars222:
            for m in range(chi.c, 3):
                H = harmonic_subspace(sp222, chi, m)
                z = zonal_fn(sp222, chi, m)
                assert verify_reproducing_kernel(H, z, ks) < 1e-9
                assert verify_zonal_symmetry(sp222, z, ks) < 1e-9

    def test_reproducing_under_stabiliser(self, sp222, chars222):
        # k in the stabiliser: both sides equal P(e_n)
        from ultrasph.matgroup import closure

        mirab = closure(subgroup_generators(SubgroupSpec("Kmirab"), sp222.ring, 2))
        chi = trivial_of(chars222)
        H = harmonic_subspace(sp222, chi, 2)
        z = zonal_fn(sp222, chi, 2)
        e = sp222.index.e_n
        for k in mirab:
            perm = sp222.index.perm_of_matrix(k)
            assert np.abs(H.basis[:, perm[e]] - H.basis[:, e]).max() < 1e-12
            rhs = H.dim * (H.basis[:, perm] @ z.conj()) * sp222.weight
            assert np.abs(rhs - H.basis[:, e]).max() < 1e-9

    def test_idempotent_sums_exhaustive(self, sp222, chars222):
        ks = list(enumerate_group(sp222.ring, 2))
        for m in range(3):
            assert idempotent_sum_residual(sp222, chars222, m, ks) < 1e-9

    def test_idempotent_sums_sampled_q3(self):
        sp = SphereSpace(make_ring_level("padic", 3, 1, 2), 2)
        rng = np.random.default_rng(4)
        ks = [random_in_K(sp.ring, 2, rng) for _ in range(300)]
        for m in range(3):
            assert idempotent_sum_residual(sp, characters(sp.ring), m, ks) < 1e-9
