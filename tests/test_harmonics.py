from fractions import Fraction
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrasph import harmonics, verify
from ultrasph.harmonics import (
    SphereSpace,
    chi_level_subspace,
    commutant_dimension,
    dim_chi_level,
    dim_harmonic,
    harmonic_subspace,
    idempotent_sum_residual,
    invariant_vectors,
    mirabolic_orbit_count,
    phi_fn,
    verify_addition_theorem,
    verify_piece_identities,
    verify_reproducing_kernel,
    verify_zonal_symmetry,
    zonal_fn,
    zonal_shell_coefficient,
)
from ultrasph.matgroup import (
    SubgroupSpec,
    enumerate_group,
    group_order,
    group_stack,
    mat_inv,
    random_in_K,
    random_stack,
    subgroup_generators,
    verify_generators,
)
from ultrasph.numerics import kernel_basis, orthonormalize_rows
from ultrasph.ring import characters, make_ring_level, unit_group_basis
from ultrasph.sphere import SphereIndex, sphere_size
from structref import reference_piece_fault, reference_scalar_orbits


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
                    assert reference_gram_residual(sub) < 1e-12

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


def pieces_of(space):
    """Every harmonic piece at the working level, keyed (chi.exps, m)."""
    return {
        (chi.exps, m): harmonic_subspace(space, chi, m)
        for chi in characters(space.ring)
        for m in range(chi.c, space.ring.m + 1)
    }


def commutant_records(records):
    return [r for r in records if "/commutant" in r.check_id]


def first_mirabolic_only(spec, *args):
    """``subgroup_generators`` with the mirabolic's list cut to its first entry."""
    gens = subgroup_generators(spec, *args)
    return gens[:1] if spec.kind == "Kmirab" else gens


def reference_uniform_stabilisers(ring, n, space):
    """The measure lemma by enumeration: the bottom row of every k in K,
    counted per sphere slot, hits each point |K|/|S| times."""
    counts = np.bincount(space.index.idx(group_stack(ring, n)[:, n - 1]), minlength=space.size)
    return bool(counts.min() == counts.max() == group_order(ring, n) // space.size)


class TestIrreducibilityCount:
    """One mirabolic orbit count against the per-piece commutant oracle."""

    @given(point=st.sampled_from(SMALL_SPHERES))
    @settings(max_examples=12, deadline=None)
    def test_orbit_count_is_piece_count(self, point):
        space = small_space(point)
        ring, n = space.ring, space.n
        held = [H for H in pieces_of(space).values() if H.dim]
        mirab = subgroup_generators(SubgroupSpec("Kmirab"), ring, n)
        assert mirabolic_orbit_count(space, mirab) == len(held)
        gens = subgroup_generators(SubgroupSpec("K"), ring, n)
        for H in held:
            assert reference_invariant_under(H, gens)
            assert commutant_dimension(H, gens) == 1
        records = verify.irreducibility_suite(ring, n, space=space).records
        assert records and all(r.status == "PASS" for r in records)

    @given(point=st.sampled_from(SMALL_SPHERES))
    @settings(max_examples=12, deadline=None)
    def test_short_mirabolic_list_fails_closed(self, point):
        # a subgroup of P has orbits that refine P's: the count can only grow
        space = small_space(point)
        ring, n = space.ring, space.n
        held = sum(1 for H in pieces_of(space).values() if H.dim)
        mirab = subgroup_generators(SubgroupSpec("Kmirab"), ring, n)[:1]
        cut = mirabolic_orbit_count(space, mirab)
        assert cut >= held

        with patch.object(verify, "subgroup_generators", first_mirabolic_only):
            records = verify.irreducibility_suite(ring, n, space=space).records
        records = commutant_records(records)
        assert records
        if cut == held:  # the count still proves irreducibility
            assert all(r.status == "PASS" for r in records)
        else:
            assert all(r.status == "FAIL" for r in records)
            assert {r.observed for r in records} == {f"{cut} orbits, {held} pieces"}

    def test_short_mirabolic_list_fails_on_the_grid(self, monkeypatch):
        # padic q2 n2 m3: four characters, with 4 + 2 + 1 + 1 pieces
        ring = make_ring_level("padic", 2, 1, 3)
        mirab = subgroup_generators(SubgroupSpec("Kmirab"), ring, 2)
        space = SphereSpace(ring, 2)
        cut = mirabolic_orbit_count(space, mirab[:1])
        assert cut > 8 == mirabolic_orbit_count(space, mirab)
        monkeypatch.setattr(verify, "subgroup_generators", first_mirabolic_only)
        records = commutant_records(verify.irreducibility_suite(ring, 2, space=space).records)
        assert len(records) == 8 + 4 and all(r.status == "FAIL" for r in records)
        assert {r.observed for r in records} == {f"{cut} orbits, 8 pieces"}
        assert {r.expected for r in records} == {"1", "4", "2"}

    def test_generator_that_moves_e_n_is_refused(self, sp222, monkeypatch):
        ring = sp222.ring
        mirab = subgroup_generators(SubgroupSpec("Kmirab"), ring, 2)
        # e_n (1 0; 1 1) = (1, 1): a group that moves e_n can have fewer
        # orbits than P, so its count would no longer bound dim End from above
        moving = np.array([[[1, 0], [1, 1]]])
        with pytest.raises(RuntimeError, match="outside Kmirab"):
            mirabolic_orbit_count(sp222, np.concatenate([mirab, moving]))
        monkeypatch.setattr(
            verify,
            "subgroup_generators",
            lambda spec, *args: np.concatenate(
                [subgroup_generators(spec, *args)] + ([moving] if spec.kind == "Kmirab" else [])
            ),
        )
        with pytest.raises(RuntimeError, match="outside Kmirab"):
            verify.irreducibility_suite(ring, 2, space=sp222)

    def test_non_invariant_piece_fails_every_record(self, monkeypatch):
        # one point of the level-2 sphere given the other unit: the level-2
        # depth labels, and the conductor-2 piece that reads them, are no
        # longer scalar-equivariant
        ring = make_ring_level("padic", 2, 1, 2)
        corrupt_scalar_orbits(monkeypatch, 2, "unit")
        records = commutant_records(verify.irreducibility_suite(ring, 2).records)
        assert records and all(r.status == "FAIL" for r in records)
        assert {r.observed for r in records} == {
            "level-2 depth labels are not equivariant under the scalar 3"
        }

    @pytest.mark.parametrize("point", verify.DIMENSION_GRID, ids=lambda pt: "-".join(map(str, pt)))
    def test_uniform_stabilisers_from_the_chain(self, point):
        branch, p, f, m, n = point
        ring = make_ring_level(branch, p, f, m)
        space = SphereSpace(ring, n)
        chain = verify_generators(SubgroupSpec("K"), ring, n)["orbit"] == space.size
        assert chain is reference_uniform_stabilisers(ring, n, space) is True
        rec = verify.decompose_suite(ring, n, include_commutants=False)
        (record,) = [r for r in rec.records if r.check_id.endswith("/uniform-stabilisers")]
        assert (record.status, record.observed) == ("PASS", "True")
        assert record.params["|K|"] == group_order(ring, n)


# -- the float piece constructions the exact ones replaced, kept as references --


def reference_chi_level_subspace(space, chi, ell):
    """Reference: the depth-l chi rows by a Python walk over every point of
    the level-l sphere, one permutation lookup per (point, unit), each row
    normalised by its float norm."""
    if ell < chi.c:
        return np.zeros((0, space.size), dtype=np.complex128)
    if ell == 0:
        return np.ones((1, space.size), dtype=np.complex128)
    sub, proj = space.index.child(ell)
    perms = {int(a): sub.scalar_perm(a) for a in sub.ring.units()}
    seen = np.zeros(sub.size, dtype=bool)
    rows = []
    for y0 in range(sub.size):
        if seen[y0]:
            continue
        vals = np.zeros(sub.size, dtype=np.complex128)
        for a, perm in perms.items():
            ya = int(perm[y0])
            seen[ya] = True
            vals[ya] = chi.eval_arr(np.array([a]))[0]
        rows.append(vals[proj])
    basis = np.array(rows)
    return basis / np.sqrt((np.abs(basis) ** 2).sum(axis=1) * space.weight)[:, None]


def reference_harmonic_subspace(space, chi, m):
    """Reference: the depth-m rows minus their projection on depth m-1,
    orthonormalised by Gram-Schmidt with a pivot-gap certificate."""
    top = reference_chi_level_subspace(space, chi, m)
    if m == chi.c:
        return top
    lower = reference_chi_level_subspace(space, chi, m - 1)
    resid = top - (top @ lower.conj().T * space.weight) @ lower
    expected = dim_harmonic(space.ring.q, space.n, m, chi.c)
    return orthonormalize_rows(resid, weight=space.weight, expected_rank=expected)


def fibre_labels(space, ell):
    """Each point's depth-l fibre, read off the supports of the reference
    depth-l rows of the trivial character: one label per scalar orbit of the
    level-l sphere, and one label for all points at depth 0."""
    rows = reference_chi_level_subspace(space, trivial_of(characters(space.ring)), ell)
    assert (np.count_nonzero(rows, axis=0) == 1).all()
    return np.abs(rows).argmax(axis=0)


class TestExactPieces:
    """The exact pieces against the Gram-Schmidt and SVD constructions they
    replaced."""

    @given(point=st.sampled_from(SMALL_SPHERES))
    @settings(max_examples=20, deadline=None)
    def test_pieces_match_the_gram_schmidt_reference(self, point):
        space = small_space(point)
        for chi in characters(space.ring):
            for ell in range(chi.c, space.ring.m + 1):
                C = chi_level_subspace(space, chi, ell).basis
                assert np.abs(C - reference_chi_level_subspace(space, chi, ell)).max() < 1e-12
                B = harmonic_subspace(space, chi, ell).basis
                R = reference_harmonic_subspace(space, chi, ell)
                assert B.shape == R.shape
                gram = B @ B.conj().T * space.weight
                assert np.abs(gram - np.eye(len(B))).max() < 1e-12
                proj = B.conj().T @ B - R.conj().T @ R
                assert np.abs(proj).max() * space.weight < 1e-12

    @given(point=st.sampled_from(SMALL_SPHERES))
    @settings(max_examples=20, deadline=None)
    def test_each_row_lies_in_one_fibre(self, point):
        space = small_space(point)
        for chi in characters(space.ring):
            for m in range(max(chi.c, 1), space.ring.m + 1):
                fibre = fibre_labels(space, m - 1)
                for row in harmonic_subspace(space, chi, m).basis:
                    assert len(np.unique(fibre[row != 0])) == 1

    @given(point=st.sampled_from(SMALL_SPHERES))
    @settings(max_examples=20, deadline=None)
    def test_projected_line_is_the_invariant_line(self, point):
        space = small_space(point)
        e = space.index.e_n
        mirab = subgroup_generators(SubgroupSpec("Kmirab"), space.ring, space.n)
        for chi in characters(space.ring):
            for m in range(chi.c, space.ring.m + 1):
                H = harmonic_subspace(space, chi, m)
                line = H.basis[:, e].conj() @ H.basis
                inv = invariant_vectors(H, mirab)
                assert inv.shape[0] == 1
                fixed = inv[0].conj() @ H.basis
                assert np.abs(line / line[e] - fixed / fixed[e]).max() < 1e-10


# -- the dense builders and certificates the labels replaced, kept as references --


def reference_orbit_rows(space, chi, ell):
    """(row, phase, count): x reduces at level l to u r, for r the least point
    of scalar orbit row[x] of count, and phase[x] = chi(u); depth 0 is one row."""
    if ell == 0:
        return np.zeros(space.size, dtype=np.int64), np.ones(space.size, dtype=np.complex128), 1
    sub, proj = space.index.child(ell)
    orbit, unit, count = sub.scalar_orbits()
    return orbit[proj], chi.eval_arr(unit[proj]), count


def reference_dense_chi_level(space, chi, ell):
    """The dense depth-l rows as the package built them before its pieces
    became labels: one row per scalar orbit, phases from the character table."""
    if ell < chi.c:
        return np.zeros((0, space.size), dtype=np.complex128)
    row, phase, count = reference_orbit_rows(space, chi, ell)
    basis = np.zeros((count, space.size), dtype=np.complex128)
    basis[row, np.arange(space.size)] = phase * np.sqrt(count)
    return basis


def reference_dense_harmonic(space, chi, m):
    """The dense rows of the level-m piece as the package built them before
    its pieces became labels, with its uneven-split error."""
    if m == chi.c:
        return reference_dense_chi_level(space, chi, m)
    child, _, count = reference_orbit_rows(space, chi, m)
    fibre, phase, fibres = reference_orbit_rows(space, chi, m - 1)
    k = count // fibres
    pairs, rank = np.unique(fibre * count + child, return_inverse=True)
    if not np.array_equal(pairs // count, np.arange(count) // k):
        raise RuntimeError(f"depth-{m} orbits are not split evenly over the depth-{m - 1} fibres")
    at, points = rank - fibre * k, np.arange(space.size)
    dft = np.exp(2j * np.pi * np.arange(k) / k) * np.sqrt(fibres)
    basis = np.zeros((fibres, k - 1, space.size), dtype=np.complex128)
    for j in range(1, k):
        basis[fibre, j - 1, points] = dft[j * at % k] * phase
    return basis.reshape(-1, space.size)


def reference_gram_residual(sub):
    """Worst |G - I| of the dense Gram of ``sub``'s rows."""
    g = sub.basis @ sub.basis.conj().T * sub.space.weight
    return float(np.abs(g - np.eye(sub.dim)).max()) if sub.dim else 0.0


def reference_invariant_under(sub, gens):
    """Whether R(g) maps the space into itself for every g in ``gens``: R(g)
    is unitary, so its dense compression to the space is unitary exactly
    when it does."""
    eye = np.eye(sub.dim)
    return not sub.dim or all(
        np.abs(r @ r.conj().T - eye).max() <= 1e-6 for r in map(sub.rho, gens)
    )


def piece_fault(H):
    """``reference_piece_fault`` of piece ``H`` on its own labels."""
    lab = H.labels
    rot = H.chi._nums[lab.unit]
    return reference_piece_fault(H.space, H.chi, H.level, lab.fibre, lab.pos, rot, lab.fibres, lab.k)


def scalar_orbit_of(index, x):
    """The slots of u x for every unit u."""
    return np.array([index.scalar_perm(a)[x] for a in index.ring.units()])


def corrupted_orbits(index, orbits, kind):
    """``orbits``, the scalar orbits of ``index``, broken one way: point 0
    given another unit ("unit"), or the orbit of the last point merged into
    that of point 0, (0, ..., 0, 1), which is another orbit ("merge")."""
    orbit, unit, count = orbits
    if kind == "unit":
        unit = unit.copy()
        unit[0] = next(u for u in index.ring.units() if u != unit[0])
    else:
        orbit = np.where(orbit == orbit[-1], orbit[0], orbit)
    return orbit, unit, count


def corrupt_scalar_orbits(monkeypatch, level, kind):
    """Make ``SphereIndex.scalar_orbits`` return ``corrupted_orbits`` on
    every level-``level`` sphere."""
    exact = SphereIndex.scalar_orbits

    def corrupted(index):
        orbits = exact(index)
        return corrupted_orbits(index, orbits, kind) if index.ring.m == level else orbits

    monkeypatch.setattr(SphereIndex, "scalar_orbits", corrupted)


# random small spheres beyond SMALL_SPHERES, with dense rows of at most 400 points
SMALL_POINTS = st.tuples(
    st.sampled_from(["padic", "laurent"]), st.sampled_from([2, 3, 5]), st.integers(1, 2),
    st.integers(1, 3), st.integers(2, 4),
).filter(lambda pt: (pt[0] == "laurent" or pt[2] == 1)
         and sphere_size(pt[1] ** pt[2], pt[4], pt[3]) <= 400)


def labels_of(space):
    """The ``Labels`` of every level and kind, keyed (level, split)."""
    return {(level, split): harmonics.Labels(space, level, split)
            for level in range(space.ring.m + 1) for split in range(min(level, 1) + 1)}


# each corruption of the level-1 scalar orbits at padic (q3, n2, m2) breaks
# one fact of the first labels a piece reads them through
ORBIT_CORRUPTIONS = {
    # point 0's unit replaced: the fibres of the level-2 complements are
    # level-1 orbits, whose units no longer move with the scalars
    "equivariance": ("unit", "level-2 complement labels are not equivariant under the scalar 8"),
    # two level-1 orbits merged: the level-1 complement has a fibre with one
    # position empty and one doubled
    "spread": ("merge", "level-1 complement labels do not spread points evenly over the 4 "
                        "positions of each fibre"),
}


class TestLabelFacts:
    """The level labels against the per-piece dense rows and label facts
    they replaced, and each label fact failing closed."""

    @given(point=st.one_of(st.sampled_from(SMALL_SPHERES), SMALL_POINTS))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_the_dense_build(self, point):
        space = small_space(point)
        levels = verify.level_facts(space)
        for chi in characters(space.ring):
            for ell in range(space.ring.m + 1):
                C = chi_level_subspace(space, chi, ell)
                assert np.array_equal(C.basis, reference_dense_chi_level(space, chi, ell))
                assert C.dim == len(C.basis)
            for m in range(chi.c, space.ring.m + 1):
                H = harmonic_subspace(space, chi, m)
                dim, fault, residual = levels[verify._piece_key(chi, m)]
                assert np.array_equal(H.basis, reference_dense_harmonic(space, chi, m))
                assert fault is None and piece_fault(H) is None
                assert dim == H.dim == len(H.basis)
                assert abs(residual - reference_gram_residual(H)) < 1e-15

    @given(point=st.sampled_from(SMALL_SPHERES), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_labels_fault_exactly_when_a_piece_on_them_does(self, point, data):
        # the one chi-free check stands for the per-character facts of every
        # piece that reads the labels, with the scalar orbits right or broken
        branch, p, f, m, n = point
        space = SphereSpace(make_ring_level(branch, p, f, m), n)
        at = data.draw(st.integers(1, m))
        kind = data.draw(st.sampled_from(["none", "unit", "merge"]))
        sub = space.index.child(at)[0]
        if kind == "unit" and len(sub.ring.units()) == 1:
            kind = "merge"
        if kind != "none":
            sub._scalar_orbits = corrupted_orbits(sub, sub.scalar_orbits(), kind)
        for (level, split), lab in labels_of(space).items():
            chs = [chi for chi in characters(space.ring) if chi.c <= level - split]
            faults = [reference_piece_fault(space, chi, level, lab.fibre, lab.pos,
                                            chi._nums[lab.unit], lab.fibres, lab.k) for chi in chs]
            assert (lab.fault is None) == all(f is None for f in faults)
            assert lab.fault is None or lab.fault.startswith(str(lab))

    @given(point=st.one_of(st.sampled_from(SMALL_SPHERES), SMALL_POINTS))
    @settings(max_examples=30, deadline=None)
    def test_labels_read_through_depth_are_level_constant_depth_orbits(self, point):
        # the level and depth facts hold by construction and leave runtime
        space = small_space(point)
        for (level, split), lab in labels_of(space).items():
            proj = space.index.child(level)[1] if level else np.zeros(space.size, dtype=np.int64)
            first = np.empty(space.size, dtype=np.int64)
            first[proj] = np.arange(space.size)
            for arr in (lab.fibre, lab.pos, lab.unit):
                assert np.array_equal(arr[first[proj]], arr)
            d = level - split
            if d:
                sub, down = space.index.child(d)
                orbit, unit, count = reference_scalar_orbits(sub)
                orbit, unit = orbit[down], unit[down]
            else:
                orbit, unit, count = np.zeros(space.size), np.ones(space.size), 1
            assert lab.fibres == count
            assert np.array_equal(lab.fibre, orbit) and np.array_equal(lab.unit, unit)

    @pytest.mark.parametrize("kind", sorted(ORBIT_CORRUPTIONS))
    def test_each_corrupted_orbit_fails_and_names_the_labels(self, kind, monkeypatch):
        ring = make_ring_level("padic", 3, 1, 2)
        how, reason = ORBIT_CORRUPTIONS[kind]
        corrupt_scalar_orbits(monkeypatch, 1, how)
        records = verify.decompose_suite(ring, 2).records
        (ortho,) = [r for r in records if r.check_id.endswith("/orthogonality")]
        assert (ortho.status, ortho.observed) == ("FAIL", reason)
        commutants = commutant_records(records)
        assert commutants and all(r.status == "FAIL" for r in commutants)
        assert {r.observed for r in commutants} == {reason}
        assert all(r.status == "PASS" for r in records if r is not ortho and r not in commutants)

    def test_one_decompose_run_builds_each_levels_labels_once(self, monkeypatch):
        ring = make_ring_level("padic", 2, 1, 4)
        built, init = [], harmonics.Labels.__init__

        def counted(self, space, level, split):
            built.append((level, split))
            init(self, space, level, split)

        monkeypatch.setattr(harmonics.Labels, "__init__", counted)
        records = verify.decompose_suite(ring, 2).records
        assert records and all(r.status == "PASS" for r in records)
        assert len(built) == len(set(built)) <= 2 * ring.m + 1


def corrupted_perm(index, s, kind):
    """``s`` made to break the scalars, by a swap of point 0 with a point of
    another scalar orbit, or to split a level-1 fibre while it commutes with
    every scalar, by a swap of the scalar orbit of point 0 with that of a
    point in another level-1 scalar orbit."""
    s = s.copy()
    if kind == "scalar":
        orbit = index.scalar_orbits()[0]
        z = int(np.argmax(orbit != orbit[0]))
        s[[0, z]] = s[[z, 0]]
        return s
    sub, proj = index.child(1)
    level1 = sub.scalar_orbits()[0][proj]
    xs = scalar_orbit_of(index, 0)
    ys = scalar_orbit_of(index, int(np.argmax(level1 != level1[0])))
    s[xs], s[ys] = s[ys], s[xs].copy()
    return s


PERM_FAULTS = {
    "scalar": "generator 0 does not commute with the scalar",
    "level": "generator 0 splits a level-1 fibre",
}


class TestStructureCheck:
    """One permutation check per generator against the dense invariance
    reference it replaced."""

    @given(point=st.sampled_from(SMALL_SPHERES), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_the_dense_reference(self, point, data):
        space = small_space(point)
        ring, n = space.ring, space.n
        pieces = [H for H in pieces_of(space).values() if H.dim]
        for kind in ("K", "Kmirab"):
            gens = subgroup_generators(SubgroupSpec(kind), ring, n)
            assert space.index.structure_fault(gens) is None
            assert all(reference_invariant_under(H, gens) for H in pieces)
        kinds = [kind for kind, ok in [("scalar", unit_group_basis(ring).gens), ("level", ring.m > 1)]
                 if ok]
        if not kinds:
            return
        kind = data.draw(st.sampled_from(kinds))
        g = subgroup_generators(SubgroupSpec("K"), ring, n)[:1]
        fresh = harmonics.SphereSpace(ring, n)
        s = fresh.index.perm_of_matrix(g[0])
        bad = corrupted_perm(fresh.index, s, kind)
        fresh.index._matrix_perms[ring.as_codes(g[0]).tobytes()] = bad
        assert fresh.index.structure_fault(g).startswith(PERM_FAULTS[kind])
        moved = [H for H in pieces_of(fresh).values() if H.dim]
        assert not all(reference_invariant_under(H, g) for H in moved)

    @pytest.mark.parametrize("kind", sorted(PERM_FAULTS))
    def test_corrupted_permutations_fail_the_suites(self, kind, monkeypatch):
        ring = make_ring_level("padic", 3, 1, 2)
        right = SphereIndex.perm_of_matrix
        first = {spec: subgroup_generators(SubgroupSpec(spec), ring, 2)[0]
                 for spec in ("K", "Kmirab")}

        def run(spec):
            def perm(index, k):
                s = right(index, k)
                same = np.array_equal(np.asarray(k), first[spec])
                return corrupted_perm(index, s, kind) if same else s

            with monkeypatch.context() as mp:
                mp.setattr(SphereIndex, "perm_of_matrix", perm)
                if spec == "K":
                    return commutant_records(verify.irreducibility_suite(ring, 2).records)
                return multiplicity_records(verify.zonal_suite(ring, 2, samples=20).records)

        for spec in ("K", "Kmirab"):
            records = run(spec)
            assert records and all(r.status == "FAIL" for r in records)
            (observed,) = {r.observed for r in records}
            assert observed.startswith(f"{spec} {PERM_FAULTS[kind]}")


def multiplicity_records(records):
    return [r for r in records if "/multiplicity-one/" in r.check_id]


class TestMultiplicityOneCount:
    """``/multiplicity-one`` from the orbit count fails closed."""

    def test_short_mirabolic_list_fails_every_record(self, monkeypatch):
        # padic q2 n2 m3: the first Kmirab generator alone leaves 28 orbits
        ring = make_ring_level("padic", 2, 1, 3)
        monkeypatch.setattr(verify, "subgroup_generators", first_mirabolic_only)
        records = verify.zonal_suite(ring, 2, samples=20).records
        mult = multiplicity_records(records)
        assert len(mult) == 8 and all(r.status == "FAIL" for r in mult)
        assert {r.observed for r in mult} == {"28 orbits, 8 pieces"}
        assert all(r.status == "PASS" for r in records if r not in mult)

    def test_piece_that_is_not_mirabolic_invariant_fails_every_record(self, monkeypatch):
        # one point of the level-2 sphere given the other unit: the
        # conductor-2 piece keeps its dimension, and its rows are no longer
        # scalar-equivariant
        ring = make_ring_level("padic", 2, 1, 2)
        corrupt_scalar_orbits(monkeypatch, 2, "unit")
        mult = multiplicity_records(verify.zonal_suite(ring, 2, samples=20).records)
        assert len(mult) == 4 and all(r.status == "FAIL" for r in mult)
        assert {r.observed for r in mult} == {
            "level-2 depth labels are not equivariant under the scalar 3"
        }


class TestOrthogonalityWitness:
    def test_rows_map_to_their_pieces(self, sp222):
        # the dense Gram of all pieces is block-diagonal by piece, and each
        # piece's block is what its per-fibre blocks give from the counts
        held = [H for H in pieces_of(sp222).values() if H.dim]
        stack = np.concatenate([H.basis for H in held])
        gram = stack @ stack.conj().T * sp222.weight
        owner = np.repeat(np.arange(len(held)), [H.dim for H in held])
        assert np.abs(gram[owner[:, None] != owner]).max() < 1e-15
        for H in held:
            assert abs(H.labels.block_residual() - reference_gram_residual(H)) < 1e-15

    @pytest.mark.parametrize("point", [("padic", 2, 1, 2, 2), ("padic", 3, 1, 2, 2)])
    def test_failing_record_names_the_worst_labels(self, point, monkeypatch):
        space = small_space(point)
        held = [H for H in pieces_of(space).values() if H.dim]
        dense = [(str(H.labels), reference_gram_residual(H)) for H in held]
        # no float residual is below -1: the record fails and names its labels
        monkeypatch.setattr(verify, "TOL_TIGHT", -1.0)
        rec = verify.decompose_suite(space.ring, point[4], include_commutants=False)
        (record,) = [r for r in rec.records if r.check_id.endswith("/orthogonality")]
        assert record.status == "FAIL"
        value, named = record.observed.split(" at ")
        assert abs(float(value) - max(err for _, err in dense)) < 1e-15
        assert min(abs(err - float(value)) for name, err in dense if name == named) < 1e-15


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
                assert verify_addition_theorem(H, z, ks)[0] < 1e-9

    def test_addition_theorem_basis_free(self, sp222, chars222):
        # two different orthonormal bases give the same kernel
        chi = trivial_of(chars222)
        H = harmonic_subspace(sp222, chi, 2)
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.normal(size=(H.dim, H.dim)) + 1j * rng.normal(size=(H.dim, H.dim)))
        rotated = u.T @ H.basis
        k1 = H.basis.conj().T @ H.basis
        k2 = rotated.conj().T @ rotated
        assert np.abs(k1 - k2).max() < 1e-9

    def test_reproducing_kernel(self, sp222, chars222):
        rng = np.random.default_rng(3)
        ks = [random_in_K(sp222.ring, 2, rng) for _ in range(40)]
        for chi in chars222:
            for m in range(chi.c, 3):
                H = harmonic_subspace(sp222, chi, m)
                z = zonal_fn(sp222, chi, m)
                assert verify_reproducing_kernel(H, z, ks)[0] < 1e-9
                assert verify_zonal_symmetry(sp222, z, ks)[0] < 1e-9

    def test_reproducing_under_stabiliser(self, sp222, chars222):
        # k in the stabiliser: both sides equal P(e_n)
        from ultrasph.matgroup import closure

        mirab = closure(sp222.ring, subgroup_generators(SubgroupSpec("Kmirab"), sp222.ring, 2))
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
            assert idempotent_sum_residual(sp222, chars222, m, ks)[m][0] < 1e-9

    def test_idempotent_sums_sampled_q3(self):
        sp = SphereSpace(make_ring_level("padic", 3, 1, 2), 2)
        rng = np.random.default_rng(4)
        ks = [random_in_K(sp.ring, 2, rng) for _ in range(300)]
        for m in range(3):
            assert idempotent_sum_residual(sp, characters(sp.ring), m, ks)[m][0] < 1e-9


# -- the per-k identity loops the stacked checks replaced, kept as references --


def _ref_stack(ks, n):
    return np.array(ks, dtype=np.int64).reshape(-1, n, n)


def reference_addition_theorem(sub, zonal, ks):
    """Reference: two cached permutations and one gemv per k."""
    space = sub.space
    d = sub.dim
    worst = 0.0
    en = space.index.e_n
    mats = _ref_stack(ks, space.n)
    for a, ainv in zip(mats, mat_inv(space.ring, mats)):
        perm = space.index.perm_of_matrix(a)
        qk = sub.basis[:, perm[en]]  # Q_j(e_n k)
        perm_inv = space.index.perm_of_matrix(ainv)
        lhs = qk.conj() @ sub.basis
        rhs = d * zonal[perm_inv]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def reference_reproducing_kernel(sub, zonal, ks):
    """Reference: R(k) applied to the basis through the cached permutation."""
    space = sub.space
    d = sub.dim
    worst = 0.0
    en = space.index.e_n
    for k in ks:
        perm = space.index.perm_of_matrix(k)
        lhs = sub.basis[:, perm[en]]
        rhs = d * (sub.basis[:, perm] @ zonal.conj()) * space.weight
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def reference_zonal_symmetry(space, zonal, ks):
    """Reference: the e_n slot of two cached permutations per k."""
    worst = 0.0
    en = space.index.e_n
    mats = _ref_stack(ks, space.n)
    for a, ainv in zip(mats, mat_inv(space.ring, mats)):
        perm = space.index.perm_of_matrix(a)
        perm_inv = space.index.perm_of_matrix(ainv)
        worst = max(worst, abs(zonal[perm[en]] - np.conj(zonal[perm_inv[en]])))
    return float(worst)


def reference_idempotent_sum_residual(space, chis, m, ks):
    """Reference: Python loops over k, character and level."""
    ring, n, q = space.ring, space.n, space.ring.q
    chis = [ch for ch in chis if ch.c <= m]
    zd = {
        (ch.exps, ell): (zonal_fn(space, ch, ell), dim_harmonic(q, n, ell, ch.c))
        for ch in chis
        for ell in range(ch.c, m + 1)
    }
    vol_k1_inv = 1 if m == 0 else q ** ((m - 1) * n) * (q**n - 1)
    vol_k0_inv = 1 if m == 0 else q ** ((m - 1) * (n - 1)) * (q**n - 1) // (q - 1)
    worst = 0.0
    mats = _ref_stack(ks, n)
    x_slots = space.index.idx(mat_inv(ring, mats)[:, n - 1])  # e_n k^{-1}
    for a, x_idx in zip(mats, x_slots):
        vals_bottom = ring.val_arr(a[n - 1, : n - 1])
        in_k0 = bool((vals_bottom >= min(m, ring.m)).all())
        d_entry = int(a[n - 1, n - 1])
        total_k1 = 0.0 + 0.0j
        for ch in chis:
            lhs = 0.0 + 0.0j
            for ell in range(ch.c, m + 1):
                z, dh = zd[ch.exps, ell]
                lhs += dh * z[x_idx]
            total_k1 += lhs
            if m == 0:
                rhs = 1.0 + 0.0j
            elif in_k0:
                rhs = np.conj(ch(d_entry)) * vol_k0_inv
            else:
                rhs = 0.0 + 0.0j
            worst = max(worst, abs(lhs - rhs))
        d1 = ring.sub(d_entry, 1)
        in_k1 = in_k0 and ring.val(d1) >= min(m, ring.m)
        rhs_k1 = vol_k1_inv if (in_k1 or m == 0) else 0.0
        worst = max(worst, abs(total_k1 - rhs_k1))
    return worst


@lru_cache(maxsize=None)
def zonal_pieces(point):
    """(chi, m, H, zonal) for every piece of a small sphere."""
    space = small_space(point)
    return tuple(
        (chi, m, harmonic_subspace(space, chi, m), zonal_fn(space, chi, m))
        for chi in characters(space.ring)
        for m in range(chi.c, space.ring.m + 1)
    )


def _congruence_hits(space, K, m):
    """How many ks lie in K_0(p^m) and in K_1(p^m)."""
    ring, n = space.ring, space.n
    depth = min(m, ring.m)
    in_k0 = (ring.val_arr(K[:, n - 1, : n - 1]) >= depth).all(axis=1)
    in_k1 = in_k0 & (ring.val_arr(ring.sub_arr(K[:, n - 1, n - 1], 1)) >= depth)
    return int(in_k0.sum()), int(in_k1.sum())


def assert_matches_references(space, K, pieces):
    """The fused and stacked checks against the per-k references: bitwise
    for the projector sums and zonal symmetry, 1e-12 for the two products;
    and each witness is a k at which the reference alone reaches the worst
    value.  The standalone symmetry check and the per-identity views give
    the fused pass's results."""
    for chi, m, H, z in pieces:
        fused = verify_piece_identities(H, z, K)
        assert verify_addition_theorem(H, z, K) == fused[0]
        assert verify_reproducing_kernel(H, z, K) == fused[1]
        assert verify_zonal_symmetry(space, z, K) == fused[2]
        worst, at = fused[2]
        assert worst == reference_zonal_symmetry(space, z, K)
        assert reference_zonal_symmetry(space, z, K[at : at + 1]) == worst
        worst, at = fused[0]
        assert abs(worst - reference_addition_theorem(H, z, K)) < 1e-12
        assert abs(reference_addition_theorem(H, z, K[at : at + 1]) - worst) < 1e-12
        worst, at = fused[1]
        assert abs(worst - reference_reproducing_kernel(H, z, K)) < 1e-12
        assert abs(reference_reproducing_kernel(H, z, K[at : at + 1]) - worst) < 1e-12
    chs = characters(space.ring)
    sums = idempotent_sum_residual(space, chs, space.ring.m, K)
    assert len(sums) == space.ring.m + 1
    for m, (worst, at) in enumerate(sums):
        assert idempotent_sum_residual(space, chs, m, K) == sums[: m + 1]
        assert worst == reference_idempotent_sum_residual(space, chs, m, K)
        assert reference_idempotent_sum_residual(space, chs, m, K[at : at + 1]) == worst


class TestStackedIdentities:
    """The stacked identity checks against the per-k loops they replaced."""

    def test_exhaustive_q2_n2_m2(self):
        point = ("padic", 2, 1, 2, 2)
        space = small_space(point)
        K = group_stack(space.ring, 2)
        k0, k1 = _congruence_hits(space, K, 2)
        assert 0 < k1 < k0 < len(K)
        assert_matches_references(space, K, zonal_pieces(point))

    @pytest.mark.parametrize("point", [
        ("padic", 3, 1, 2, 2), ("padic", 2, 1, 2, 3), ("laurent", 2, 2, 2, 2),
        ("padic", 2, 1, 3, 2),
    ])
    def test_congruence_draws(self, point):
        # K_0(p^m) draws reach both indicator branches, uniform draws the rest
        space = small_space(point)
        rng = np.random.default_rng(11)
        m = space.ring.m
        K = np.concatenate([
            random_stack(space.ring, space.n, 40, rng, ell=m),
            random_stack(space.ring, space.n, 40, rng),
        ])
        k0, k1 = _congruence_hits(space, K, m)
        assert 0 < k1 < k0 < len(K)
        assert_matches_references(space, K, zonal_pieces(point))

    @given(point=st.sampled_from(SMALL_SPHERES), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_chunk_boundaries(self, point, data):
        # any chunk length, one k included, gives the reference residuals
        space = small_space(point)
        m = space.ring.m
        count = data.draw(st.integers(1, 9), label="N")
        ell = data.draw(st.sampled_from([None, *range(m + 1)]), label="ell")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        step = data.draw(st.integers(1, count + 1), label="chunk")
        K = random_stack(space.ring, space.n, count, np.random.default_rng(seed), ell=ell)
        chunk_bytes = step * 8 * space.n * space.size
        with patch.object(harmonics, "IDENTITY_CHUNK_BYTES", chunk_bytes):
            assert_matches_references(space, K, zonal_pieces(point))

    def test_residuals_use_scalar_abs(self):
        # numpy's vectorised complex abs is one ulp off scalar abs here
        point = ("padic", 7, 1, 1, 2)
        space = small_space(point)
        K = random_stack(space.ring, 2, 5, np.random.default_rng(8941), ell=0)
        assert_matches_references(space, K, zonal_pieces(point))

    def test_chunks_stay_under_the_byte_constant(self, monkeypatch):
        point = ("padic", 2, 1, 3, 2)
        space = small_space(point)
        K = random_stack(space.ring, 2, 10, np.random.default_rng(0))
        monkeypatch.setattr(harmonics, "IDENTITY_CHUNK_BYTES", 3 * 8 * 2 * space.size)
        kinv = mat_inv(space.ring, K)
        shapes = [p.shape for _, p in harmonics._inverse_perms(space, kinv)]
        assert shapes == [(3, space.size)] * 3 + [(1, space.size)]
        for lo, p in harmonics._inverse_perms(space, kinv):
            want = [space.index.perm_of_matrix(a) for a in mat_inv(space.ring, K[lo : lo + 3])]
            assert np.array_equal(p, np.array(want))

    def test_one_draw_and_one_inverse_per_sphere(self, monkeypatch):
        # however many chunks R(k^{-1}) takes, every piece's three identities
        # and every level's projector sum read one draw and one inverse
        ring = make_ring_level("padic", 2, 1, 2)
        size = sphere_size(2, 2, 2)
        monkeypatch.setattr(harmonics, "IDENTITY_CHUNK_BYTES", 3 * 8 * 2 * size)
        draws, inverses, chunked = [], [], []
        draw, inverse, perms = verify.random_stack, verify.mat_inv, harmonics._inverse_perms

        def no_inverse(ring, a):
            raise AssertionError("a piece inverted its own ks")

        def counted_perms(space, kinv):
            chunked.append(len(kinv))
            return perms(space, kinv)

        monkeypatch.setattr(verify, "random_stack", lambda *a: draws.append(a[2]) or draw(*a))
        monkeypatch.setattr(verify, "mat_inv", lambda ring, a: inverses.append(len(a)) or inverse(ring, a))
        monkeypatch.setattr(harmonics, "mat_inv", no_inverse)
        monkeypatch.setattr(harmonics, "_inverse_perms", counted_perms)
        rec = verify.zonal_suite(ring, 2, samples=200, seed=0)
        assert all(r.status == "PASS" for r in rec.records)
        pieces = sum(ring.m - ch.c + 1 for ch in characters(ring) if ch.c <= ring.m)
        assert len(chunked) == pieces
        assert min(chunked) > 3  # each piece's stack spans several chunks
        # the exhaustive projector-sum stack joins the draw in the one inverse
        assert inverses == [sum(chunked) + group_order(ring, 2)] and draws == [sum(chunked)]

    def test_empty_stack_has_no_witness(self):
        point = ("padic", 2, 1, 2, 2)
        space = small_space(point)
        chi, _, H, z = zonal_pieces(point)[-1]
        K = np.zeros((0, 2, 2), dtype=np.int64)
        assert verify_piece_identities(H, z, K) == ((0.0, None),) * 3
        assert verify_addition_theorem(H, z, K) == (0.0, None)
        assert verify_reproducing_kernel(H, z, K) == (0.0, None)
        assert verify_zonal_symmetry(space, z, K) == (0.0, None)
        assert idempotent_sum_residual(space, characters(space.ring), 2, K) == [(0.0, None)] * 3

    def test_no_permutation_cached_per_sample(self):
        point = ("padic", 3, 1, 2, 2)
        space = SphereSpace(make_ring_level(*point[:4]), 2)
        chi = trivial_of(characters(space.ring))
        H = harmonic_subspace(space, chi, 2)
        z = zonal_fn(space, chi, 2)
        K = random_stack(space.ring, 2, 50, np.random.default_rng(3))
        verify_piece_identities(H, z, K)
        verify_addition_theorem(H, z, K)
        verify_reproducing_kernel(H, z, K)
        verify_zonal_symmetry(space, z, K)
        idempotent_sum_residual(space, characters(space.ring), 2, K)
        assert space.index._matrix_perms == {}


class TestIdentityWitness:
    """A FAIL record of the zonal suite names the k where the identity breaks."""

    def _run(self, monkeypatch, point, name, wrap):
        """Run zonal_suite with verify.<name> replaced by wrap(real, *args)."""
        real = getattr(verify, name)
        seen = []

        def replaced(*args, **kwargs):
            seen.append(args)
            return wrap(real, *args, **kwargs)

        monkeypatch.setattr(verify, name, replaced)
        rec = verify.Recorder()
        branch, p, f, m, n = point
        verify.zonal_suite(make_ring_level(branch, p, f, m), n, rec=rec, samples=200, seed=0)
        assert not any(" at " in r.observed for r in rec.records if r.status == "PASS")
        return [r for r in rec.records if r.status != "PASS"], seen

    def test_zonal_symmetry_names_the_corrupted_k(self, monkeypatch):
        picked = {}

        def corrupt(real, H, z, ks, kinv=None):
            results = real(H, z, ks, kinv=kinv)
            if picked:
                return results
            # a slot that exactly one k reaches, as e_n k or as e_n k^{-1};
            # only the symmetry result is taken from the corrupted zonal
            space, n = H.space, H.space.n
            slots = np.stack([
                space.index.idx(ks[:, n - 1]),
                space.index.idx(mat_inv(space.ring, ks)[:, n - 1]),
            ])
            hits = np.bincount(slots.ravel(), minlength=space.size)
            unique = np.flatnonzero(hits[slots[0]] == 1)
            if not len(unique):
                return results
            j = int(unique[0])
            picked["k"] = ks[j].tolist()
            z = z.copy()
            z[slots[0, j]] += 0.5
            return results[0], results[1], real(H, z, ks, kinv=kinv)[2]

        failed, _ = self._run(
            monkeypatch, ("padic", 2, 1, 2, 3), "verify_piece_identities", corrupt
        )
        assert picked
        assert [r.check_id.split("/")[1] for r in failed] == ["zonal-symmetry"]
        assert failed[0].observed == f"5.000e-01 at k={picked['k']}"

    def test_projector_sums_name_the_first_k_at_the_corrupted_point(self, monkeypatch):
        picked = {}

        def corrupt(real, space, chs, m, ks, kinv=None):
            # the level-0 zonal is 1 everywhere; raise it at the point
            # e_n k^{-1} of the middle k, for every level that adds it in
            n = space.n
            x_slots = space.index.idx(mat_inv(space.ring, ks)[:, n - 1])
            j = len(ks) // 2
            triv = trivial_of(chs)
            picked["k"] = ks[int(np.argmax(x_slots == x_slots[j]))].tolist()
            zonal = harmonics.zonal_fn

            def corrupted_zonal(sp, ch, ell):
                z = zonal(sp, ch, ell)
                if ch is triv and ell == 0:
                    z[x_slots[j]] += 0.5
                return z

            with monkeypatch.context() as mp:
                mp.setattr(harmonics, "zonal_fn", corrupted_zonal)
                return real(space, chs, m, ks, kinv=kinv)

        point = ("padic", 2, 1, 2, 2)
        failed, seen = self._run(monkeypatch, point, "idempotent_sum_residual", corrupt)
        assert len(seen) == 1  # one call for every level
        assert np.array_equal(seen[0][3], group_stack(seen[0][0].ring, 2))  # exhaustive
        assert [r.check_id.split("/")[1] for r in failed] == ["projector-sums"] * 3
        for r in failed:
            assert r.observed == f"5.000e-01 at k={picked['k']}"


class TestPointWitness:
    """A failing Gram or point-wise zonal record names its worst pair or point."""

    def _run(self, point):
        rec = verify.Recorder()
        branch, p, f, m, n = point
        verify.zonal_suite(make_ring_level(branch, p, f, m), n, rec=rec, samples=20, seed=0)
        assert not any(" at " in r.observed for r in rec.records if r.status == "PASS")
        return rec.records

    def test_phi_gram_names_the_worst_pair(self, monkeypatch):
        right = verify._phi_ip_expected

        def wrong_at_1_2(q, n, l1, l2):
            return right(q, n, l1, l2) + (Fraction(1, 2) if (l1, l2) == (1, 2) else 0)

        monkeypatch.setattr(verify, "_phi_ip_expected", wrong_at_1_2)
        records = self._run(("padic", 3, 1, 2, 2))
        failed = [r for r in records if r.status != "PASS"]
        # every character of conductor at most 1 pairs depths 1 and 2
        assert failed and {r.check_id.split("/")[1] for r in failed} == {"phi-gram"}
        assert all(r.observed == "5.000e-01 at (l1, l2) = (1, 2)" for r in failed)

    def test_zonal_shells_names_the_worst_point(self, monkeypatch):
        right, picked = verify._zonal_shell_residual, {}

        def wrong_once(space, chi, m, z, minv):
            if chi.is_trivial and m == 2:
                j = (space.index.e_n + 3) % space.size
                picked["x"] = space.points[j].tolist()
                z = z.copy()
                z[j] += 0.5
            return right(space, chi, m, z, minv)

        monkeypatch.setattr(verify, "_zonal_shell_residual", wrong_once)
        records = self._run(("padic", 2, 1, 2, 2))
        failed = [r for r in records if r.status != "PASS"]
        assert [r.check_id.split("/")[1:] for r in failed] == [["zonal-shells", "c0e0", "m2"]]
        assert failed[0].observed == f"5.000e-01 at x={picked['x']}"

    def test_zonal_oracle_names_the_worst_point(self, monkeypatch):
        right, picked = verify.zonal_fn, {}

        def wrong_once(space, chi, m):
            z = right(space, chi, m)
            if chi.is_trivial and m == 1:
                j = (space.index.e_n + 5) % space.size
                picked["x"] = space.points[j].tolist()
                z = z.copy()
                z[j] += 0.5
            return z

        monkeypatch.setattr(verify, "zonal_fn", wrong_once)
        records = self._run(("padic", 2, 1, 2, 2))
        oracle = [r for r in records if "/zonal-oracle/" in r.check_id and r.status != "PASS"]
        assert len(oracle) == 1 and oracle[0].check_id.endswith("/c0e0/m1")
        assert oracle[0].observed == f"5.000e-01 at x={picked['x']}"
