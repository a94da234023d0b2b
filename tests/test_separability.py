import itertools

import numpy as np
import pytest

from dense_oracle import kernel_op, partial_transpose_matrix, wigner_maximally_entangled
from mubwigner.wigner import (
    ConventionError,
    WignerTable,
    check_complete_factorization,
    check_product_factorization,
    marginal_along,
    max_entangled_density,
    positivity_check,
    random_density,
    reconstruct_density,
    wigner_function,
    wigner_kernel,
    wigner_partial_transpose,
)

TOL = 1e-10


@pytest.mark.parametrize("p", [3, 5])
def test_product_states_factor(p, rng):
    for _ in range(20):
        tau, mu = random_density(p, rng), random_density(p, rng)
        rep = check_product_factorization(tau, mu, p)
        assert rep.max_deviation < TOL
        assert rep.transpose_on is None


def test_product_states_factor_p2(rng):
    for _ in range(20):
        tau, mu = random_density(2, rng), random_density(2, rng)
        rep = check_product_factorization(tau, mu, 2)
        assert rep.max_deviation < TOL
        assert rep.transpose_on == 1


def test_p2_right_convention_transposes_first_factor(rng):
    tau, mu = random_density(2, rng), random_density(2, rng)
    w2 = wigner_function(np.kron(tau, mu), 2, 2, "p2-right").values
    wt = wigner_function(tau.T, 2, 1, "plain").values
    wm = wigner_function(mu, 2, 1, "plain").values
    assert np.abs(w2 - np.kron(wt, wm)).max() < TOL


def test_factorization_trivial_random_states():
    for p in (2, 3):
        tau = np.eye(p) / p
        rep = check_product_factorization(tau, tau, p)
        assert rep.max_deviation < TOL
        wt = wigner_function(np.kron(tau, tau), p, 2)
        assert np.abs(wt.values - 1.0 / p**4).max() < TOL


@pytest.mark.parametrize("p", [3, 5])
def test_convex_mixtures_of_products(p, rng):
    # W is convex linear, so mixtures of products factor termwise
    weights = rng.dirichlet(np.ones(4))
    taus = [random_density(p, rng) for _ in weights]
    mus = [random_density(p, rng) for _ in weights]
    rho = sum(w * np.kron(t, m) for w, t, m in zip(weights, taus, mus))
    got = wigner_function(rho, p, 2, "separable").values
    want = sum(
        w
        * np.kron(
            wigner_function(t, p, 1, "separable").values,
            wigner_function(m, p, 1, "separable").values,
        )
        for w, t, m in zip(weights, taus, mus)
    )
    assert np.abs(got - want).max() < TOL


def test_complete_factorization_three_qutrits(rng):
    for _ in range(5):
        factors = [random_density(3, rng) for _ in range(3)]
        rep = check_complete_factorization(factors, 3)
        assert rep.max_deviation < TOL


def test_complete_factorization_rejected_for_three_qubits(rng):
    factors = [random_density(2, rng) for _ in range(3)]
    with pytest.raises(ConventionError):
        check_complete_factorization(factors, 2)


def test_complete_factorization_takes_the_p2_twist(rng):
    # two qubits: the p2-left table against plain one-qubit tables of tau and mu^T
    for _ in range(5):
        tau = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rep = check_complete_factorization([tau, mu], 2)
        w2 = wigner_function(np.kron(tau, mu), 2, 2, "p2-left").values
        wt = wigner_function(tau, 2, 1, "plain").values
        wm = wigner_function(mu.T, 2, 1, "plain").values
        want = float(np.abs(w2 - np.kron(wt, wm)).max())
        assert (rep.p, rep.n, rep.convention, rep.transpose_on) == (2, 2, "p2-left", 1)
        assert rep.max_deviation == want < TOL
        assert check_product_factorization(tau, mu, 2) == rep


@pytest.mark.parametrize("p", [2, 3])
def test_complete_factorization_checks_its_factors(p, rng):
    with pytest.raises(ValueError, match=f"factors must be {p}x{p}"):
        check_complete_factorization([], p)
    with pytest.raises(ValueError, match=f"factors must be {p}x{p}"):
        check_complete_factorization([random_density(p, rng), np.eye(p + 1)], p)
    with pytest.raises(ValueError, match=f"factors must be {p}x{p}"):
        check_product_factorization(random_density(p, rng), np.ones(p), p)


def test_complete_factorization_of_one_factor(rng):
    tau = random_density(3, rng)
    rep = check_complete_factorization([tau], 3)
    assert (rep.n, rep.convention, rep.transpose_on) == (1, "separable", None)
    assert rep.max_deviation == 0.0


def test_non_density_factors_still_factor(rng):
    # the factorization identity is linear, not restricted to densities
    p = 3
    A = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    B = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    got = wigner_function(np.kron(A, B), p, 2, "separable").values
    want = np.kron(
        wigner_function(A, p, 1, "separable").values,
        wigner_function(B, p, 1, "separable").values,
    )
    assert np.abs(got - want).max() < 1e-9


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_separable_kernel_factors_blockwise(p, n):
    # the characteristic kernel of the separable convention is, operator by
    # operator, the tensor product of one-subsystem kernels
    kn = wigner_kernel(p, n, "separable")
    k1 = wigner_kernel(p, 1, "separable")
    ops1 = [kernel_op(k1, i).matrix() for i in range(k1.N)]
    for i, w in enumerate(kn.vectors):
        want = np.eye(1, dtype=complex)
        for j in range(n):
            want = np.kron(want, ops1[k1.code((w[2 * j], w[2 * j + 1]))])
        assert np.abs(kernel_op(kn, i).matrix() - want).max() < TOL


def test_p2_kernels_factor_with_transpose():
    # left convention: second block transposed; right: first block transposed
    k2l = wigner_kernel(2, 2, "p2-left")
    k2r = wigner_kernel(2, 2, "p2-right")
    k1 = wigner_kernel(2, 1, "plain")
    ops1 = [kernel_op(k1, i).matrix() for i in range(k1.N)]
    for i, w in enumerate(k2l.vectors):
        a = ops1[k1.code((w[0], w[1]))]
        b = ops1[k1.code((w[2], w[3]))]
        assert np.abs(kernel_op(k2l, i).matrix() - np.kron(a, b.T)).max() < TOL
        assert np.abs(kernel_op(k2r, i).matrix() - np.kron(a.T, b)).max() < TOL


def test_dynamics_kernel_closed_form_matches_generator_route():
    # for odd p the closed-form dynamics phases also arise from generator
    # powers with shifts +2^{-1} y_r^{(r)}(alpha) (and none on the vertical
    # class); the kernels must coincide operator by operator
    from mubwigner.fields import prime_inverse
    from dense_oracle import PhasedOperator, phased_spin

    p, n = 3, 2
    k = wigner_kernel(p, n, "dynamics")
    geom = k.geom
    inv2 = prime_inverse(2, p)
    import itertools as it

    for alpha in range(geom.num_classes):
        gens = [phased_spin(p, g) for g in geom.gens[alpha].tolist()]
        if alpha < geom.dim:
            shifts = [int(inv2 * geom.gens[alpha, r, 2 * r + 1]) % p for r in range(n)]
        else:
            shifts = [0] * n
        for b in it.product(range(p), repeat=n):
            acc = PhasedOperator(p, n, (0,) * (2 * n))
            phase = 0
            for r, br in enumerate(b):
                acc = acc @ gens[r].power(br)
                phase += shifts[r] * br
            got = kernel_op(k, k.code(acc.index))
            want = PhasedOperator(p, n, acc.index, acc.eta_exp + phase, acc.i_exp)
            assert (got.index, got.eta_exp % p, got.i_exp % 4) == (
                want.index,
                want.eta_exp % p,
                want.i_exp % 4,
            )


def test_a_operator_factorizes_odd_p():
    # A(u) = A(u0) (x) A(u1) in the separable convention, exhaustive at p=3
    p = 3
    k2 = wigner_kernel(p, 2, "separable")
    k1 = wigner_kernel(p, 1, "separable")
    A2 = k2.a_stack()
    A1 = k1.a_stack()
    for i, u in enumerate(k2.vectors):
        left = A1[k1.code((u[0], u[1]))]
        right = A1[k1.code((u[2], u[3]))]
        assert np.abs(A2[i] - np.kron(left, right)).max() < TOL


def test_a_operator_factorizes_three_qutrits_spot(rng):
    p = 3
    k3 = wigner_kernel(p, 3, "separable")
    k1 = wigner_kernel(p, 1, "separable")
    A1 = k1.a_stack()
    # the full (3,3) A stack is large, so check W(u) = tr[rho A(u)] pointwise
    rho = random_density(27, rng)
    wt = wigner_function(rho, p, 3, "separable")
    for _ in range(20):
        u = tuple(rng.integers(0, p, size=6))
        A = np.kron(np.kron(A1[k1.code(u[0:2])], A1[k1.code(u[2:4])]), A1[k1.code(u[4:6])])
        assert abs(wt.value(u) - np.trace(rho @ A)) < TOL


def test_maximally_entangled_closed_form():
    for p in (3, 5):
        rho = max_entangled_density(p)
        wt = wigner_function(rho, p, 2, "separable")
        want = wigner_maximally_entangled(p)
        assert np.abs(wt.values - want.values).max() < TOL
        vals = wt.real_values()
        on = np.isclose(vals, 1.0 / p**2, atol=TOL)
        assert on.sum() == p * p
        assert np.isclose(vals, 0.0, atol=TOL).sum() == p**4 - p * p
        # nonzero exactly when x1 = -1 - x0 and y1 = y0
        k = wt.kernel
        for i, v in enumerate(k.vectors):
            expected_on = (1 + v[0] + v[2]) % p == 0 and v[1] == v[3]
            assert bool(on[i]) == expected_on


def test_maximally_entangled_marginals_are_probabilities():
    p = 3
    wt = wigner_maximally_entangled(p)
    k = wt.kernel
    for alpha in range(k.geom.num_classes):
        tot = 0.0
        for s in itertools.product(range(p), repeat=2):
            prob = marginal_along(wt, alpha, s)
            assert -TOL <= prob <= 1 + TOL
            tot += prob
        assert abs(tot - 1) < TOL


def test_partial_transpose_matrix_definition(rng):
    p = 3
    rho = random_density(p * p, rng)
    pt = partial_transpose_matrix(rho, p)
    for j0, j1, k0, k1 in itertools.product(range(p), repeat=4):
        assert pt[j0 * p + j1, k0 * p + k1] == rho[j0 * p + k1, k0 * p + j1]


@pytest.mark.parametrize("p", [3, 5])
def test_wigner_partial_transpose_odd_p(p, rng):
    rho = random_density(p * p, rng)
    wt = wigner_function(rho, p, 2, "separable")
    wpt = wigner_partial_transpose(wt)
    # index remap implements the matrix-level partial transpose
    assert np.abs(reconstruct_density(wpt) - partial_transpose_matrix(rho, p)).max() < TOL
    # involution
    back = wigner_partial_transpose(wpt)
    assert np.abs(back.values - wt.values).max() < TOL


def test_wigner_partial_transpose_p2(rng):
    for conv in ("p2-left", "p2-right"):
        rho = random_density(4, rng)
        wt = wigner_function(rho, 2, 2, conv)
        wpt = wigner_partial_transpose(wt)
        assert np.abs(reconstruct_density(wpt) - partial_transpose_matrix(rho, 2)).max() < TOL
        back = wigner_partial_transpose(wpt)
        assert np.abs(back.values - wt.values).max() < TOL


def test_partial_transpose_of_product_is_product_with_transpose(rng):
    p = 3
    tau, mu = random_density(p, rng), random_density(p, rng)
    wt = wigner_function(np.kron(tau, mu), p, 2, "separable")
    wpt = wigner_partial_transpose(wt)
    assert np.abs(reconstruct_density(wpt) - np.kron(tau, mu.T)).max() < TOL
    # a product state passes the Peres test
    res = positivity_check(reconstruct_density(wpt), p, 2)
    assert res.positive


@pytest.mark.parametrize("p", [3, 5])
def test_peres_flags_maximally_entangled(p):
    rho = max_entangled_density(p)
    wpt = wigner_partial_transpose(wigner_function(rho, p, 2, "separable"))
    res = positivity_check(reconstruct_density(wpt), p, 2)
    assert not res.positive
    assert res.min_eigenvalue < -0.1
    assert abs(res.min_eigenvalue + 1.0 / p) < TOL  # eigen oracle: min eig is -1/p


def test_partial_transpose_requires_matching_convention(rng):
    wt = wigner_function(random_density(9, rng), 3, 2, "plain")
    with pytest.raises(ConventionError):
        wigner_partial_transpose(wt)
    w1 = wigner_function(random_density(3, rng), 3, 1, "plain")
    with pytest.raises(ValueError):
        wigner_partial_transpose(w1)
