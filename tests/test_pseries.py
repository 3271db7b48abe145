from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrasph import pseries, verify
from ultrasph.harmonics import SphereSpace, harmonic_subspace, zonal_fn, zonal_shell_coefficient
from ultrasph.matgroup import (
    BudgetExceededError,
    SubgroupSpec,
    enumerate_group,
    mat_inv,
    random_in_K,
    random_in_K0,
    u_ell,
)
from ultrasph.numerics import kernel_basis, orthonormalize_rows
from ultrasph.pseries import (
    ConductorNotVisible,
    PSeriesModel,
    _verified_subgroup_gens,
    build_model,
    flag_canon,
    flag_count,
    mirab_average,
    vector_from_harmonic,
)
from ultrasph.ring import characters, make_ring_level
from ultrasph.verify import Recorder, character_tuples, pseries_model_checks


@pytest.fixture(scope="module")
def R4():
    return make_ring_level("padic", 2, 1, 2)


@pytest.fixture(scope="module")
def chars4(R4):
    return characters(R4)


def trivial_of(chs):
    return next(c for c in chs if c.is_trivial)


class TestFlagCosets:
    @pytest.mark.parametrize(
        "branch,p,f,m,n,expected",
        [
            ("padic", 2, 1, 1, 2, 3),
            ("padic", 2, 1, 2, 2, 6),
            ("padic", 2, 1, 1, 3, 21),
            ("padic", 3, 1, 2, 2, 12),
        ],
    )
    def test_counts(self, branch, p, f, m, n, expected):
        ring = make_ring_level(branch, p, f, m)
        assert flag_count(ring, n) == expected

    def test_counts_by_brute_force(self):
        # orbit of canonical forms over the full group equals |G|/|B|
        ring = make_ring_level("padic", 2, 1, 2)
        reps = {flag_canon(ring, k)[0].tobytes() for k in enumerate_group(ring, 2)}
        assert len(reps) == 6
        ring3 = make_ring_level("padic", 2, 1, 1)
        reps3 = {flag_canon(ring3, k)[0].tobytes() for k in enumerate_group(ring3, 3)}
        assert len(reps3) == 21

    def test_canon_is_coset_invariant(self):
        # b g and g canonicalise identically for upper-triangular b
        ring = make_ring_level("padic", 3, 1, 2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = random_in_K(ring, 2, rng)
            b = np.array(
                [[int(ring.units()[rng.integers(len(ring.units()))]), rng.integers(9)],
                 [0, int(ring.units()[rng.integers(len(ring.units()))])]],
                dtype=np.int64,
            )
            bk = ring.matmul(b, k)
            assert np.array_equal(flag_canon(ring, k)[0], flag_canon(ring, bk)[0])

    def test_canon_pivots_give_b_factor(self):
        # a = b * canon(a) with b upper triangular whose diagonal is the pivots
        ring = make_ring_level("padic", 3, 1, 2)
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = random_in_K(ring, 2, rng)
            rep, piv = flag_canon(ring, k)
            b = ring.matmul(k, mat_inv(ring, rep))
            assert b[1, 0] == 0
            assert [int(b[0, 0]), int(b[1, 1])] == piv

    def test_canon_n3(self):
        ring = make_ring_level("padic", 2, 1, 2)
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = random_in_K(ring, 3, rng)
            rep, piv = flag_canon(ring, k)
            b = ring.matmul(k, mat_inv(ring, rep))
            assert b[1, 0] == b[2, 0] == b[2, 1] == 0
            assert all(ring.is_unit(int(b[i, i])) for i in range(3))

    @pytest.mark.parametrize("bad", [[[1, -1], [0, 1]], [[1, 0], [4, 1]], [[1, 0], [-2, 1]]])
    def test_codes_outside_the_ring_rejected(self, chars4, bad):
        # a negative code would wrap in the product's table gather, and a code
        # of 4 would raise IndexError there; action_of reaches act through table
        model = build_model([trivial_of(chars4)] * 2)
        with pytest.raises(ValueError, match="outside the ring"):
            model.cosets.act(np.array([np.eye(2, dtype=np.int64), bad]))
        with pytest.raises(ValueError, match="outside the ring"):
            model.action_of(np.array(bad))


class TestModel:
    def test_model_dim_spherical(self, chars4):
        triv = trivial_of(chars4)
        model = build_model([triv, triv])
        assert model.dim == 6 and model.c_declared == 0

    def test_model_dim_q3(self):
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        quad = next(c for c in chs if c.c == 1)
        model = build_model([quad, trivial_of(chs)])
        assert model.dim == 12 and model.c_declared == 1

    def test_central_character(self, chars4):
        triv = trivial_of(chars4)
        ram = next(c for c in chars4 if c.c == 2)
        model = build_model([ram, triv])
        for a in model.ring.units():
            za = np.diag([int(a)] * 2).astype(np.int64)
            perm, scale = model.action_of(za)
            assert np.array_equal(perm, np.arange(model.dim))
            assert np.abs(scale - model.chi_pi(int(a))).max() < 1e-12

    def test_action_homomorphism(self, chars4):
        model = build_model([trivial_of(chars4), trivial_of(chars4)])
        rng = np.random.default_rng(0)
        for _ in range(20):
            g1 = random_in_K(model.ring, 2, rng)
            g2 = random_in_K(model.ring, 2, rng)
            p1, s1 = model.action_of(g1)
            p2, s2 = model.action_of(g2)
            p12, s12 = model.action_of(model.ring.matmul(g1, g2))
            assert np.array_equal(p12, p2[p1])
            assert np.abs(s12 - s1 * s2[p1]).max() < 1e-12

    @pytest.mark.parametrize(
        "seed,corrupt,message",
        [
            (0, lambda perm, rot: (np.roll(perm, 1, axis=-1), rot), "not a homomorphism"),
            (2, lambda perm, rot: (perm, 0 * rot), "central character mismatch"),
        ],
    )
    def test_spot_check_refuses_broken_tables(self, chars4, monkeypatch, seed, corrupt, message):
        # rolled slots break pi(g1 g2) = pi(g1) pi(g2); zero phases pass that but
        # give the trivial central character, and the unit drawn at seed 2 sees it
        ram = next(c for c in chars4 if c.c == 2)
        good = PSeriesModel._monomials
        monkeypatch.setattr(PSeriesModel, "_monomials", lambda self, K: corrupt(*good(self, K)))
        with pytest.raises(RuntimeError, match=message):
            build_model([ram, trivial_of(chars4)], rng=np.random.default_rng(seed))

    def test_inner_product_invariance(self, chars4):
        ram = next(c for c in chars4 if c.c == 2)
        model = build_model([ram, ram])
        rng = np.random.default_rng(1)
        v = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        w = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        for _ in range(10):
            k = random_in_K(model.ring, 2, rng)
            act = model.action_of(k)
            assert abs(model.ip(model.apply(act, v), model.apply(act, w)) - model.ip(v, w)) < 1e-12

    def test_level_too_small_reported(self, chars4):
        ram = next(c for c in chars4 if c.c == 2)
        model = build_model([ram, ram])  # declared conductor 4 > M = 2
        with pytest.raises(ConductorNotVisible):
            model.newform()

    def test_coset_budget_is_checked_before_the_closure(self, chars4, monkeypatch):
        import ultrasph.pseries

        monkeypatch.setattr(ultrasph.pseries, "COSET_BUDGET", 5)
        with pytest.raises(BudgetExceededError, match="6 cosets exceed budget 5"):
            build_model([trivial_of(chars4), trivial_of(chars4)])

    def test_coset_budget_is_checked_before_the_cache(self, chars4, monkeypatch):
        # the shared cosets of (ring, n) are warm: a lowered budget still refuses
        build_model([trivial_of(chars4), trivial_of(chars4)])
        assert (chars4[0].ring, 2) in pseries._COSETS
        monkeypatch.setattr(pseries, "COSET_BUDGET", 5)
        with pytest.raises(BudgetExceededError, match="6 cosets exceed budget 5"):
            build_model([trivial_of(chars4), next(c for c in chars4 if c.c == 2)])

    def test_character_level_mismatch_rejected(self, chars4):
        R9 = make_ring_level("padic", 3, 1, 2)
        with pytest.raises(ValueError):
            build_model([trivial_of(chars4), trivial_of(characters(R9))])


class TestNewform:
    def test_spherical_newform_is_k_fixed(self, chars4):
        triv = trivial_of(chars4)
        model = build_model([triv, triv])
        v0, c = model.newform()
        assert c == 0
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = random_in_K(model.ring, 2, rng)
            assert np.abs(model.apply(model.action_of(k), v0) - v0).max() < 1e-9

    def test_conductor_one_q3(self):
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        quad = next(c for c in chs if c.c == 1)
        model = build_model([quad, trivial_of(chs)])
        v0, c = model.newform()
        assert c == 1
        assert model.invariant_dims(1) == 1

    def test_conductor_four_at_level_four(self):
        R16 = make_ring_level("padic", 2, 1, 4)
        chs = characters(R16)
        c2 = next(c for c in chs if c.c == 2)
        model = build_model([c2, c2])
        v0, c = model.newform()
        assert c == 4

    def test_binomial_dims_n2(self, chars4):
        triv = trivial_of(chars4)
        model = build_model([triv, triv])
        for ell in range(3):
            assert model.invariant_dims(ell) == comb(ell + 1, 1)
        assert model.graded_dims() == [1, 1, 1]

    def test_binomial_dims_n3(self):
        R = make_ring_level("padic", 2, 1, 2)
        triv = trivial_of(characters(R))
        model = build_model([triv, triv, triv])
        assert [model.invariant_dims(ell) for ell in range(3)] == [1, 3, 6]
        assert model.graded_dims() == [1, 2, 3]

    def test_dims_insensitive_to_order(self):
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        quad = next(c for c in chs if c.c == 1)
        triv = trivial_of(chs)
        m1 = build_model([quad, triv])
        m2 = build_model([triv, quad])
        assert [m1.invariant_dims(l) for l in range(3)] == [
            m2.invariant_dims(l) for l in range(3)
        ]
        assert m1.newform()[1] == m2.newform()[1]

    def test_equivariance(self, chars4):
        ram = next(c for c in chars4 if c.c == 2)
        model = build_model([ram, trivial_of(chars4)])
        v0, c = model.newform()
        assert c == 2
        assert model.equivariance_residual(v0)[0] < 1e-9


def reference_matrix_coefficient(model, k, v0):
    """<pi(k) v0, v0>/<v0, v0> from the one-k action table."""
    return model.ip(model.apply(model.action_of(k), v0), v0) / model.ip(v0, v0)


def reference_expected_coefficient(model, k):
    """The three-case closed form at one k: the oracle for expected_coefficients."""
    ring, n, q = model.ring, model.n, model.ring.q
    c = model.c_declared
    a = np.asarray(k)
    vals = ring.val_arr(a[n - 1, : n - 1])
    depth = int(min(ring.m, vals.min()))
    d = int(a[n - 1, n - 1])
    chi_d = model.chi_pi(d) if ring.is_unit(d) else (1.0 if model.chi_pi.is_trivial else None)
    if depth >= min(c, ring.m):
        return chi_d if chi_d is not None else 1.0
    if c > model.chi_pi.c and depth == c - 1:
        alpha = complex(zonal_shell_coefficient(q, n, c))
        return alpha * chi_d
    return 0.0


def reference_coefficient_residual(model, v0, ks):
    """The per-k loop the chunked coefficient_residual replaces."""
    res = [
        reference_matrix_coefficient(model, k, v0) - reference_expected_coefficient(model, k)
        for k in ks
    ]
    return max(map(abs, res), default=0.0)


def reference_full_coefficient_residual(model, v0, ks):
    """The chunked path over every coset row, zeros of v0 included: what the
    support-restricted coefficient_residual replaces."""
    K = np.asarray(ks, dtype=np.int64).reshape(-1, model.n, model.n)
    norm = model.ip(v0, v0)
    got = np.empty(len(K), dtype=np.complex128)
    for lo, perm, rot in model._actions(K):
        got[lo : lo + len(perm)] = (model._roots[rot] * v0[perm]) @ v0.conj() / model.dim / norm
    err = np.abs(got - model.expected_coefficients(K))
    if not len(err):
        return 0.0, None
    worst = int(err.argmax())
    return float(err[worst]), worst


class TestMatrixCoefficient:
    def test_identity_element(self, chars4):
        model = build_model([trivial_of(chars4), trivial_of(chars4)])
        v0, _ = model.newform()
        one = np.eye(2, dtype=np.int64)
        assert abs(reference_matrix_coefficient(model, one, v0) - 1) < 1e-12

    def test_spherical_constant_one(self, chars4):
        model = build_model([trivial_of(chars4), trivial_of(chars4)])
        v0, _ = model.newform()
        for k in enumerate_group(model.ring, 2):
            assert abs(reference_matrix_coefficient(model, k, v0) - 1) < 1e-9

    def test_shell_value(self, chars4):
        # q=2, n=2, c(pi)=1 via q=3 instead: c=1 with c(chi_pi)=... use q=3 quad
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        quad = next(c for c in chs if c.c == 1)
        model = build_model([quad, quad])  # chi_pi = quad^2 = trivial, c(pi) = 2
        v0, c = model.newform()
        assert c == 2 and model.chi_pi.c == 0
        alpha = -1.0 / (3 - 1)  # -1/(q^{n-1}-1) for m = 2
        k = u_ell(model.ring, 2, [1])[0]
        assert abs(reference_matrix_coefficient(model, k, v0) - alpha) < 1e-9

    def test_three_case_form_exhaustive(self, chars4):
        ram = next(c for c in chars4 if c.c == 2)
        model = build_model([ram, trivial_of(chars4)])
        v0, _ = model.newform()
        ks = list(enumerate_group(model.ring, 2))
        assert model.coefficient_residual(v0, ks)[0] < 1e-9

    def test_support_outside_vanishes(self):
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        quad = next(c for c in chs if c.c == 1)
        model = build_model([quad, quad])
        v0, c = model.newform()
        k = u_ell(model.ring, 2, [0])[0]  # outside K0(p^{c-1})
        assert abs(reference_matrix_coefficient(model, k, v0)) < 1e-9


class TestVectorFromHarmonic:
    def test_zonal_reproduces_newform(self, chars4):
        for pair in [
            (trivial_of(chars4), trivial_of(chars4)),
            (next(c for c in chars4 if c.c == 2), trivial_of(chars4)),
        ]:
            model = build_model(list(pair))
            space = SphereSpace(model.ring, 2)
            v0, c = model.newform()
            z = zonal_fn(space, model.chi_pi, c)
            v = vector_from_harmonic(model, space, z, v0, method="enumerate")
            assert np.abs(v - v0).max() < 1e-9
            v2 = vector_from_harmonic(model, space, z, v0, method="coset")
            assert np.abs(v2 - v0).max() < 1e-9

    def test_matrixcoeff_identity_random_P(self, chars4):
        ram = next(c for c in chars4 if c.c == 2)
        model = build_model([ram, trivial_of(chars4)])
        space = SphereSpace(model.ring, 2)
        v0, c = model.newform()
        H = harmonic_subspace(space, model.chi_pi, c)
        rng = np.random.default_rng(3)
        coefs = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
        P = coefs @ H.basis
        v = vector_from_harmonic(model, space, P, v0, method="enumerate")
        PP = space.ip(P, P)
        vv = model.ip(v, v)
        dim_tau = H.dim
        for _ in range(25):
            k = random_in_K(model.ring, 2, rng)
            x = mat_inv(model.ring, k)[1]
            lhs = PP * model.ip(model.apply(model.action_of(k), v0), v)
            rhs = vv * np.conj(P[space.index.idx(x)]) / dim_tau
            assert abs(lhs - rhs) < 1e-9

    def test_isotypic_membership(self):
        # the reconstructed vector lies in the span of newform translates,
        # which is the isotypic copy of the newform type (multiplicity one);
        # at q=3 with two ramified slots that span is a proper subspace
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        quad = next(c for c in chs if c.c == 1)
        model = build_model([quad, quad])
        space = SphereSpace(model.ring, 2)
        v0, c = model.newform()
        assert c == 2 and model.chi_pi.is_trivial
        H = harmonic_subspace(space, model.chi_pi, c)
        rng = np.random.default_rng(4)
        translates = [
            model.apply(model.action_of(random_in_K(model.ring, 2, rng)), v0)
            for _ in range(4 * H.dim)
        ]
        u, s, _ = np.linalg.svd(np.array(translates).T, full_matrices=False)
        span_dim = int((s > 1e-8).sum())
        assert span_dim == H.dim < model.dim  # proper isotypic subspace
        w = u[:, :span_dim]
        P = (rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)) @ H.basis
        v = vector_from_harmonic(model, space, P, v0, method="coset")
        proj = w @ (w.conj().T @ v)
        assert np.abs(v - proj).max() < 1e-9

    def test_method_is_required_and_enumeration_is_budgeted(self, chars4):
        model = build_model([trivial_of(chars4), trivial_of(chars4)])
        space = SphereSpace(model.ring, 2)
        v0, _ = model.newform()
        z = zonal_fn(space, model.chi_pi, 0)
        with pytest.raises(TypeError):
            vector_from_harmonic(model, space, z, v0)
        with pytest.raises(ValueError):
            vector_from_harmonic(model, space, z, v0, method="auto")
        # |GL_2(Z/4)| = 96, refused before the group stack is built
        with pytest.raises(BudgetExceededError):
            vector_from_harmonic(model, space, z, v0, method="enumerate", budget=95)
        v = vector_from_harmonic(model, space, z, v0, method="enumerate", budget=96)
        assert np.abs(v - v0).max() < 1e-9

    def test_mismatched_character_vanishes(self, chars4):
        triv = trivial_of(chars4)
        ram = next(c for c in chars4 if c.c == 2)
        model = build_model([triv, triv])
        space = SphereSpace(model.ring, 2)
        v0, _ = model.newform()
        z = zonal_fn(space, ram, 2)
        v = vector_from_harmonic(model, space, z, v0, method="enumerate")
        assert np.linalg.norm(v) < 1e-9


# -- chunked actions of sampled ks against the per-k reference --------------------

# (branch, p, f, M, n) and one (conductor, index) selector per slot
BATCH_POINTS = [
    (("padic", 2, 1, 2, 2), [(2, 0), (0, 0)]),
    (("padic", 3, 1, 2, 2), [(1, 0), (1, -1)]),
    (("padic", 5, 1, 2, 2), [(1, 0), (1, -1)]),
    (("laurent", 2, 2, 2, 2), [(1, 0), (1, -1)]),
    (("padic", 2, 1, 2, 3), [(2, 0), (0, 0), (0, 0)]),
    (("padic", 3, 1, 1, 3), [(1, 0), (0, 0), (0, 0)]),
    (("padic", 5, 1, 1, 3), [(1, 0), (0, 0), (0, 0)]),
    (("laurent", 2, 2, 1, 3), [(1, 0), (0, 0), (0, 0)]),
]


def sample_ks(model, rng, count=40, per=None):
    """``count`` uniform ks plus ``per`` ks from each double coset K_0 u_ell K_0,
    one k at a time, in the order the suite draws them."""
    ring, n, c = model.ring, model.n, model.c_declared
    per = count // 4 if per is None else per
    ks = [random_in_K(ring, n, rng) for _ in range(count)]
    for u in u_ell(ring, n, range(min(c, ring.m) + 1)):
        for _ in range(per):
            a, b = random_in_K0(ring, n, c, rng), random_in_K0(ring, n, c, rng)
            ks.append(ring.matmul(ring.matmul(a, u), b))
    return ks


@pytest.fixture(scope="module", params=BATCH_POINTS, ids=lambda pt: "-".join(map(str, pt[0])))
def batch_case(request):
    (branch, p, f, M, n), selectors = request.param
    chs = characters(make_ring_level(branch, p, f, M))
    chars = [[ch for ch in chs if ch.c == c][i] for c, i in selectors]
    model = build_model(chars, rng=np.random.default_rng(0))
    v0, _ = model.newform()
    return model, v0, sample_ks(model, np.random.default_rng(1))


# c = 2 < M; F_4; and c = M, where the K_0(p^c) bottom-left digits draw nothing
SUITE_DRAW_POINTS = [
    (("padic", 2, 1, 3, 3), [(2, 0), (0, 0), (0, 0)]),
    (("laurent", 2, 2, 2, 2), [(1, 0), (0, 0)]),
    (("padic", 2, 1, 2, 2), [(2, 0), (0, 0)]),
]


class TestSuiteDraws:
    @pytest.mark.parametrize(
        "point", SUITE_DRAW_POINTS, ids=lambda pt: "-".join(map(str, pt[0]))
    )
    def test_suite_ks_equal_the_matk_construction(self, point, monkeypatch):
        (branch, p, f, M, n), selectors = point
        chs = characters(make_ring_level(branch, p, f, M))
        model = build_model(
            [[ch for ch in chs if ch.c == c][i] for c, i in selectors], rng=np.random.default_rng(0)
        )
        seen = {}
        sampler, coefficient = verify.random_stack, model.coefficient_residual

        def first_draw(ring, n, count, rng, ell=None):
            seen.setdefault("state", rng.bit_generator.state)
            return sampler(ring, n, count, rng, ell=ell)

        def drawn(v0, ks):
            seen["ks"] = np.asarray(ks)
            return coefficient(v0, ks)

        monkeypatch.setattr(verify, "random_stack", first_draw)
        monkeypatch.setattr(model, "coefficient_residual", drawn)
        rng, samples = np.random.default_rng(1), 60
        rec = Recorder()
        pseries_model_checks(model, rec, samples=samples, rng=rng)
        assert all(r.status == "PASS" for r in rec.records)
        ref = np.random.default_rng()
        ref.bit_generator.state = seen["state"]
        shells = min(model.c_declared, M) + 1
        want = sample_ks(model, ref, samples - samples // 2, -(-samples // (2 * shells)))
        assert np.array_equal(seen["ks"], np.array(want))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("cache", ["cleared", "warm"])
    def test_draws_do_not_depend_on_earlier_models(self, cache, monkeypatch):
        # the first run starts with the verified-generator and coset caches as
        # given; the second finds them warm
        monkeypatch.setattr(pseries, "_VERIFIED_GENS", {})
        monkeypatch.setattr(pseries, "_COSETS", {})
        (branch, p, f, M, n), selectors = SUITE_DRAW_POINTS[0]
        chs = characters(make_ring_level(branch, p, f, M))
        chars = [[ch for ch in chs if ch.c == c][i] for c, i in selectors]

        def run():
            rng = np.random.default_rng(5)
            rec = Recorder()
            pseries_model_checks(build_model(chars, rng=rng), rec, samples=60, rng=rng)
            records = [(r.check_id, r.status, r.expected, r.observed) for r in rec.records]
            return records, rng.bit_generator.state

        if cache == "warm":
            run()
        assert bool(pseries._VERIFIED_GENS) == bool(pseries._COSETS) == (cache == "warm")
        first, second = run(), run()
        assert first == second
        assert all(status == "PASS" for _, status, _, _ in first[0])


def one_k_or_all(model, per_chunk):
    """ACTION_CHUNK_BYTES for one k's (k, coset row) pairs a chunk, or for
    every k in one chunk."""
    return pseries._action_bytes(model.n) * model.dim if per_chunk == "one" else 1 << 40


class TestBatchedActions:
    @pytest.mark.parametrize("per_chunk", ["one", "all"])
    def test_tables_equal_per_k_tables(self, batch_case, per_chunk, monkeypatch):
        model, _, ks = batch_case
        monkeypatch.setattr(pseries, "ACTION_CHUNK_BYTES", one_k_or_all(model, per_chunk))
        K = np.array(ks)
        chunks = list(model._actions(K))
        assert len(chunks) == (len(ks) if per_chunk == "one" else 1)
        assert [lo for lo, _, _ in chunks] == list(range(0, len(ks), len(ks) // len(chunks)))
        perm = np.concatenate([c[1] for c in chunks])
        rot = np.concatenate([c[2] for c in chunks])
        assert perm.shape == rot.shape == (len(ks), model.dim)
        for k, p, r in zip(ks, perm, rot):
            p1, r1 = model._monomial(k)
            assert np.array_equal(p, p1) and np.array_equal(r, r1)

    @pytest.mark.parametrize("per_chunk", ["one", "all"])
    def test_coefficients_equal_per_k_reference(self, batch_case, per_chunk, monkeypatch):
        model, v0, ks = batch_case
        monkeypatch.setattr(pseries, "ACTION_CHUNK_BYTES", one_k_or_all(model, per_chunk))
        ref = reference_coefficient_residual(model, v0, ks)
        worst, at = model.coefficient_residual(v0, ks)
        assert ref < 1e-9 and abs(worst - ref) < 1e-15 and 0 <= at < len(ks)
        assert model.coefficient_residual(v0, []) == (0.0, None)
        # with the per-k coefficients as the expected values, the residual is their difference
        want = {k.tobytes(): reference_matrix_coefficient(model, k, v0) for k in ks}
        monkeypatch.setattr(
            PSeriesModel,
            "expected_coefficients",
            lambda self, K: np.array([want[k.tobytes()] for k in K]),
        )
        assert model.coefficient_residual(v0, ks)[0] < 1e-15

    def test_closed_form_equals_per_k_oracle_bitwise(self, batch_case):
        model, _, ks = batch_case
        want = np.array([reference_expected_coefficient(model, k) for k in ks], dtype=np.complex128)
        got = model.expected_coefficients(np.array(ks))
        assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()


class TestNoCacheEntryPerSample:
    def test_model_checks_cache_the_same_tables_at_any_sample_count(self):
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        quad = next(c for c in chs if c.c == 1)
        sizes = []
        for samples in (4, 200):
            model = build_model([quad, trivial_of(chs)], rng=np.random.default_rng(0))
            rec = Recorder()
            pseries_model_checks(model, rec, samples=samples, rng=np.random.default_rng(1))
            assert [r.status for r in rec.records] == ["PASS"] * 7
            sizes.append(len(model._action_cache))
        assert sizes[0] == sizes[1]

    def test_vector_from_harmonic_caches_no_translate(self, chars4):
        model = build_model([next(c for c in chars4 if c.c == 2), trivial_of(chars4)])
        space = SphereSpace(model.ring, 2)
        v0, c = model.newform()
        z = zonal_fn(space, model.chi_pi, c)
        mirab_average(model, v0)  # the coset path's generator tables
        before = len(model._action_cache)
        for method in ("enumerate", "coset"):
            v = vector_from_harmonic(model, space, z, v0, method=method)
            assert np.abs(v - v0).max() < 1e-9
        assert len(model._action_cache) == before


class TestWitness:
    def test_matrix_coefficient_failure_names_the_worst_k(self, monkeypatch):
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        quad = next(c for c in chs if c.c == 1)
        model = build_model([quad, quad], rng=np.random.default_rng(0))
        right = PSeriesModel.expected_coefficients
        seen = []

        def wrong_once(self, K):
            seen.extend(K)
            out = right(self, K)
            out[6] += 0.5
            return out

        monkeypatch.setattr(PSeriesModel, "expected_coefficients", wrong_once)
        rec = Recorder()
        pseries_model_checks(model, rec, samples=40, rng=np.random.default_rng(1))
        failed = [r for r in rec.records if r.status != "PASS"]
        assert [r.check_id.split("/")[-1] for r in failed] == ["matrix-coefficient"]
        assert failed[0].observed == f"5.000e-01 at k={np.asarray(seen[6]).tolist()}"
        assert not any(" at " in r.observed for r in rec.records if r.status == "PASS")

    def test_pass_records_ignore_the_witness(self):
        rec = Recorder()
        rec.residual("x", "law", {}, 1e-12, 1e-9, witness="k=[[1]]")
        rec.residual("y", "law", {}, 1e-12, 1e-9)
        assert [r.observed for r in rec.records] == ["1.000e-12", "1.000e-12"]


class TestLaurentBranch:
    def test_ramified_model_over_f4(self):
        R = make_ring_level("laurent", 2, 2, 2)
        chs = characters(R)
        triv = trivial_of(chs)
        c1 = next(c for c in chs if c.c == 1)
        model = build_model([c1, triv], rng=np.random.default_rng(0))
        assert model.dim == 20
        v0, c = model.newform()
        assert c == 1
        assert [model.invariant_dims(l) for l in range(3)] == [0, 1, 2]
        rng = np.random.default_rng(1)
        ks = [random_in_K(R, 2, rng) for _ in range(100)]
        assert model.coefficient_residual(v0, ks)[0] < 1e-9
        assert model.equivariance_residual(v0)[0] < 1e-9


class TestCharacterTuples:
    def test_counts_q3(self):
        ring = make_ring_level("padic", 3, 1, 4)
        assert len(character_tuples(ring, 2, 3)) == 16  # (0,3): 12 and (1,2): 4

    def test_unordered_no_duplicates(self):
        ring = make_ring_level("padic", 3, 1, 3)
        tuples = character_tuples(ring, 2, 2)
        seen = set()
        for t in tuples:
            key = tuple(sorted((c.c,) + c.exps for c in t))
            assert key not in seen
            seen.add(key)


# -- exact monomial invariants against the dense reference -----------------------


def reference_rho(model, g):
    """Dense dim x dim matrix of the monomial action of g."""
    perm, scale = model.action_of(g)
    out = np.zeros((model.dim, model.dim), dtype=np.complex128)
    out[np.arange(model.dim), perm] = scale
    return out


def reference_kernel(model, gens, twists):
    """Rows spanning {v : pi(g) v = twist_g v for every g}, by SVD."""
    eye = np.eye(model.dim)
    blocks = [reference_rho(model, g) - t * eye for g, t in zip(gens, twists)]
    return kernel_basis(np.concatenate(blocks, axis=0))[1]


def reference_invariant_space(model, ell, kind):
    """The dense path: rho plus kernel_basis on the stacked generator blocks."""
    spec = SubgroupSpec("K1" if kind == "K1" else "K0", ell)
    gens = _verified_subgroup_gens(model.ring, model.n, spec)
    if kind == "K1":
        twists = [1.0] * len(gens)
    else:
        twists = [model.chi_pi(int(g[model.n - 1, model.n - 1])) for g in gens]
    return reference_kernel(model, gens, twists)


def reference_graded_dims(spaces):
    """Ranks of the successive orthogonal complements, by Gram-Schmidt."""
    out, prev = [], np.zeros((0, spaces[0].shape[1]))
    for cur in spaces:
        out.append(orthonormalize_rows(cur - (cur @ prev.conj().T) @ prev).shape[0])
        prev = cur
    return out


def projector(rows):
    return rows.T @ rows.conj()


def flag_dim(q, n, M):
    """|B\\GL_n(O/p^M)| = [n]_q! q^((M-1) n(n-1)/2)."""
    return prod((q**i - 1) // (q - 1) for i in range(1, n + 1)) * q ** ((M - 1) * n * (n - 1) // 2)


MODEL_POINTS = [
    (branch, p, f, M, n)
    for branch, p, f in [
        ("padic", 2, 1), ("padic", 3, 1), ("padic", 5, 1), ("padic", 7, 1),
        ("laurent", 2, 1), ("laurent", 2, 2), ("laurent", 3, 1), ("laurent", 2, 3),
        ("laurent", 3, 2),
    ]
    for M in (1, 2, 3)
    for n in (2, 3)
    if flag_dim(p**f, n, M) <= 200
]


def check_against_reference(chars, seed):
    """Exact spaces, graded dims and mirabolic average = the dense path."""
    model = build_model(chars, rng=np.random.default_rng(seed))
    ring, n, M = model.ring, model.n, model.ring.m
    assert model.dim == flag_dim(ring.q, n, M) <= 200
    for kind in ("K1", "K0chi"):
        refs = []
        for ell in range(M + 1):
            exact = model.invariant_space(ell, kind)
            refs.append(reference_invariant_space(model, ell, kind))
            assert exact.shape[0] == refs[-1].shape[0]
            assert np.abs(projector(exact) - projector(refs[-1])).max() < 1e-9
        if kind == "K1":
            assert model.graded_dims() == reference_graded_dims(refs)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    gens = _verified_subgroup_gens(ring, n, SubgroupSpec("Kmirab"))
    ref = reference_kernel(model, gens, [1.0] * len(gens))
    assert np.abs(mirab_average(model, v) - projector(ref) @ v).max() < 1e-9


class TestExactInvariants:
    @given(point=st.sampled_from(MODEL_POINTS), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_equals_dense_reference(self, point, data):
        branch, p, f, M, n = point
        chs = characters(make_ring_level(branch, p, f, M))
        chars = [data.draw(st.sampled_from(chs)) for _ in range(n)]
        check_against_reference(chars, data.draw(st.integers(0, 99)))

    @pytest.mark.parametrize(
        "point,exps",
        [
            (("padic", 5, 1, 2), [(1, 0), (3, 0)]),
            (("laurent", 2, 2, 2), [(0, 0, 1), (0, 0, 2)]),
        ],
    )
    def test_phase_sign_matters(self, point, exps):
        # two conductor-1 slots whose characters have order > 2: here a
        # phase propagated with the wrong sign breaks the level-2 newform
        chs = characters(make_ring_level(*point))
        check_against_reference([next(c for c in chs if c.exps == e) for e in exps], 0)

    def test_rows_are_exact_roots_of_unity(self):
        # each row is w^phase / sqrt|O| on one orbit: equal moduli, phases in mu_L
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        quad = next(c for c in chs if c.c == 1)
        model = build_model([quad, quad])
        for ell in range(3):
            for row in model.invariant_space(ell, "K0chi"):
                on = row[row != 0]
                assert np.allclose(np.abs(on), 1 / np.sqrt(len(on)), atol=0, rtol=1e-15)
                turns = np.angle(on) * model.L / (2 * np.pi)
                assert np.abs(turns - np.round(turns)).max() < 1e-9


# -- the coefficient law on the support of v0 against the full-row path --------


def newform_ks(model, seed, count=12, per=4):
    return np.array(sample_ks(model, np.random.default_rng(seed), count, per))


class TestSupportRows:
    @given(point=st.sampled_from(MODEL_POINTS), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_support_rows_equal_full_rows(self, point, data):
        branch, p, f, M, n = point
        ring = make_ring_level(branch, p, f, M)
        tuples = [t for total in range(M + 1) for t in character_tuples(ring, n, total)]
        chars = data.draw(st.sampled_from(tuples))
        per_chunk = data.draw(st.sampled_from(["one", "all"]))
        model = build_model(chars, rng=np.random.default_rng(0))
        v0, _ = model.newform()
        ks = newform_ks(model, data.draw(st.integers(0, 99)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pseries, "ACTION_CHUNK_BYTES", one_k_or_all(model, per_chunk))
            worst, at = model.coefficient_residual(v0, ks)
            ref, _ = reference_full_coefficient_residual(model, v0, ks)
        assert abs(worst - ref) < 1e-15 and 0 <= at < len(ks)
        # both PASS: the law holds on every newform
        assert max(worst, ref) < verify.TOL_RESIDUAL

    @pytest.mark.parametrize("chunk", [1, 1 << 40])
    def test_any_row_subset(self, chunk, monkeypatch):
        # a dense vector with zeros at random rows: the subset is general, not
        # the newform's; chunk 1 acts on one (k, coset row) pair a block
        monkeypatch.setattr(pseries, "ACTION_CHUNK_BYTES", chunk)
        ring = make_ring_level("padic", 3, 1, 2)
        chs = characters(ring)
        model = build_model([next(c for c in chs if c.c == 1), trivial_of(chs)])
        rng = np.random.default_rng(3)
        v = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        v[rng.random(model.dim) < 0.4] = 0
        rows = np.flatnonzero(v)
        assert 0 < len(rows) < model.dim
        ks = newform_ks(model, 4)
        full = [np.concatenate(t) for t in zip(*((p, r) for _, p, r in model._actions(ks)))]
        sub = [np.concatenate(t) for t in zip(*((p, r) for _, p, r in model._actions(ks, rows=rows)))]
        assert all(np.array_equal(s, f[:, rows]) for s, f in zip(sub, full))
        worst, at = model.coefficient_residual(v, ks)
        ref, ref_at = reference_full_coefficient_residual(model, v, ks)
        assert worst > 0.1 and abs(worst - ref) < 1e-14 and at == ref_at
        per_k = reference_matrix_coefficient(model, ks[at], v)
        assert abs(abs(per_k - model.expected_coefficients(ks[at])[0]) - worst) < 1e-14

    def test_forms_the_support_rows_only(self, monkeypatch):
        ring = make_ring_level("padic", 3, 1, 3)
        chs = characters(ring)
        model = build_model([next(c for c in chs if c.c == 2), trivial_of(chs)])
        v0, _ = model.newform()
        ks = newform_ks(model, 5)
        counted, eliminate = [], pseries._eliminate

        def counting(ring, rows, det=None):
            counted.append(rows.shape[-1])
            return eliminate(ring, rows, det)

        monkeypatch.setattr(pseries, "_eliminate", counting)
        assert model.coefficient_residual(v0, ks)[0] < verify.TOL_RESIDUAL
        support = np.count_nonzero(v0)
        assert (support, model.dim) == (27, 36)
        assert sum(counted) == support * len(ks)


class TestEquivarianceWitness:
    def test_failure_names_the_worst_generator(self, monkeypatch):
        R9 = make_ring_level("padic", 3, 1, 2)
        chs = characters(R9)
        model = build_model([next(c for c in chs if c.c == 1), trivial_of(chs)])
        gens = _verified_subgroup_gens(R9, 2, SubgroupSpec("K0", 1))
        assert len(gens) > 1
        apply, calls = PSeriesModel.apply, []

        def wrong_second(self, action, v):
            calls.append(1)
            return apply(self, action, v) + (0.5 if len(calls) == 2 else 0.0)

        monkeypatch.setattr(PSeriesModel, "apply", wrong_second)
        v0, _ = model.newform()
        assert model.equivariance_residual(v0)[1] == 1
        calls.clear()
        rec = Recorder()
        pseries_model_checks(model, rec, samples=20, rng=np.random.default_rng(1))
        failed = [r for r in rec.records if r.status != "PASS"]
        assert [r.check_id.split("/")[-1] for r in failed] == ["equivariance"]
        assert failed[0].observed == f"5.000e-01 at k={gens[1].tolist()}"


# -- shared character-free structure against the one-k, one-shot references ------


def reference_monomial(model, k):
    """The one-k table: (perm, rot) of k from its own products reps k, with
    nothing shared between models."""
    perm, rot = model._monomials(np.asarray(k, dtype=np.int64)[None])
    return perm[0], rot[0]


def reference_monomial_orbits(perms, rots, twists, L):
    """The one-shot orbit pass that OrbitTree and its phases replace.

    Generator g acts by (g f)[i] = w^rots[g][i] f[perms[g][i]], w = e^{2 pi i/L}.
    Returns per-slot arrays (root, phase, closed): the least slot of the
    orbit (phase 0 there), the phase, and whether the orbit's cocycle closes.
    """
    dim = len(perms[0])
    # min-label propagation along the generators and their inverses, with pointer jumping
    steps = perms + [np.argsort(s) for s in perms]
    root = np.arange(dim)
    while True:
        prev = root
        for s in steps:
            root = np.minimum(root, root[s])
        root = root[root]
        if np.array_equal(root, prev):
            break
    # phases: one breadth-first pass from every root at once
    phase = np.full(dim, -1, dtype=np.int64)
    front = np.flatnonzero(root == np.arange(dim))
    phase[front] = 0
    while front.size:
        tgt = np.concatenate([s[front] for s in perms])
        ph = np.concatenate([(phase[front] + t - r[front]) % L for r, t in zip(rots, twists)])
        tgt, first = np.unique(tgt, return_index=True)
        new = phase[tgt] < 0
        front = tgt[new]
        phase[front] = ph[first[new]]
    broken = np.zeros(dim, dtype=bool)
    for s, r, t in zip(perms, rots, twists):
        broken[root[(phase[s] - phase + r - t) % L != 0]] = True
    return root, phase, ~broken[root]


def reference_orbit_lines(model, gens, twists):
    """orbit_lines from the one-k tables and the one-shot orbit pass."""
    perms, rots = zip(*(reference_monomial(model, g) for g in gens))
    root, phase, closed = reference_monomial_orbits(list(perms), rots, twists, model.L)
    on = np.flatnonzero(closed)
    heads, row = np.unique(root[on], return_inverse=True)
    basis = np.zeros((len(heads), model.dim), dtype=np.complex128)
    basis[row, on] = model._roots[phase[on]] / np.sqrt(np.bincount(root)[root[on]])
    return basis


def check_shared_structure(model):
    """Every verified generator's table and every orbit line equal the references."""
    ring, n, M = model.ring, model.n, model.ring.m
    specs = [SubgroupSpec("Kmirab")] + [
        SubgroupSpec(kind, ell) for kind in ("K1", "K0") for ell in range(M + 2)
    ]
    for spec in specs:
        gens = _verified_subgroup_gens(ring, n, spec)
        for g in gens:
            perm, scale = model.action_of(g)
            ref_perm, ref_rot = reference_monomial(model, g)
            assert np.array_equal(perm, ref_perm)
            assert scale.tobytes() == model._roots[ref_rot].tobytes()
        if spec.kind == "Kmirab":
            twists = [0] * len(gens)
            got = model.orbit_lines(spec)
        else:
            kind = "K1" if spec.kind == "K1" else "K0chi"
            twists = [0 if kind == "K1" else model.chi_pi._nums[g[n - 1, n - 1]] for g in gens]
            got = model.invariant_space(spec.level, kind)
        want = reference_orbit_lines(model, gens, twists)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSharedStructure:
    @given(point=st.sampled_from(MODEL_POINTS), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shared_tables_and_trees_equal_the_references(self, point, data):
        branch, p, f, M, n = point
        chs = characters(make_ring_level(branch, p, f, M))
        tuples = [[data.draw(st.sampled_from(chs)) for _ in range(n)] for _ in range(2)]
        with pytest.MonkeyPatch.context() as mp:
            if data.draw(st.booleans()):
                # cold: the first model builds the shared structure, the second reuses it
                mp.setattr(pseries, "_COSETS", {})
            models = [build_model(chars, rng=np.random.default_rng(0)) for chars in tuples]
            assert models[0].cosets is models[1].cosets
            for model in models[:: data.draw(st.sampled_from([1, -1]))]:
                check_shared_structure(model)

    @pytest.mark.parametrize(
        "point,exps",
        [
            (("padic", 5, 1, 2), [(1, 0), (3, 0)]),
            (("laurent", 2, 2, 2), [(0, 0, 1), (0, 0, 2)]),
        ],
    )
    def test_order_four_phases_after_other_characters(self, point, exps):
        # the characters of test_phase_sign_matters, whose closing orbits see
        # the sign of the cocycle, built after a trivial model at the same ring
        chs = characters(make_ring_level(*point))
        build_model([trivial_of(chs)] * 2)
        check_shared_structure(build_model([next(c for c in chs if c.exps == e) for e in exps]))

    def test_models_share_tables_not_phases(self):
        ring = make_ring_level("padic", 3, 1, 2)
        chs = characters(ring)
        quad = next(c for c in chs if c.c == 1)
        a, b = build_model([quad, trivial_of(chs)]), build_model([trivial_of(chs), trivial_of(chs)])
        gens = _verified_subgroup_gens(ring, 2, SubgroupSpec("K"))
        tables = [(a._monomial(g), b._monomial(g)) for g in gens]
        assert all(pa is pb for (pa, _), (pb, _) in tables)
        assert any(not np.array_equal(ra, rb) for (_, ra), (_, rb) in tables)
        perm, pivots = a.cosets.table(gens[0])
        assert pivots.shape == (a.dim, 2) and pivots.dtype == np.uint8
        assert a.cosets.orbit_tree(SubgroupSpec("K1", 0)) is a.cosets.orbit_tree(SubgroupSpec("K"))


class TestCertificateKeys:
    def test_one_chain_per_subgroup(self, monkeypatch):
        # K, K_1(0) and K_0(0) are one group, and K_1(m + 1) is K_1(m)
        monkeypatch.setattr(pseries, "_VERIFIED_GENS", {})
        monkeypatch.setattr(pseries, "_COSETS", {})
        certified, verify_generators = [], pseries.verify_generators

        def counting(spec, ring, n):
            certified.append(spec)
            return verify_generators(spec, ring, n)

        monkeypatch.setattr(pseries, "verify_generators", counting)
        ring = make_ring_level("padic", 3, 1, 2)
        triv = trivial_of(characters(ring))
        model = build_model([triv, triv], rng=np.random.default_rng(0))
        rec = Recorder()
        pseries_model_checks(model, rec, samples=20, rng=np.random.default_rng(1))
        assert all(r.status == "PASS" for r in rec.records)
        assert certified == [
            SubgroupSpec("K"),
            SubgroupSpec("K1", 1), SubgroupSpec("K1", 2),
            SubgroupSpec("K0", 1), SubgroupSpec("K0", 2),
        ]
        for deep, spec in [(SubgroupSpec("K1", 3), SubgroupSpec("K1", 2)), (SubgroupSpec("K0", 0), SubgroupSpec("K"))]:
            assert _verified_subgroup_gens(ring, 2, deep) is _verified_subgroup_gens(ring, 2, spec)
        assert len(certified) == 5
