import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import SIGMA, random_hermitian
from dense_oracle import (
    DenseKernel,
    eta,
    ft_matrix,
    kernel_op,
    kernel_ops,
    outcome_codes,
    projector_a_stack,
    spin_stack,
)
from mubwigner.dynamics import (
    build_char_generator,
    char_dynamics_table,
    density_from_dynamics_char,
    evolve,
)
from mubwigner.fields import FieldError, is_prime, prime_inverse
from mubwigner.geometry import phase_geometry
from mubwigner.mub import class_vectors, mub_projector
from mubwigner import wigner as wigner_mod
from mubwigner import spins as spins_mod
from mubwigner.spins import (
    _characters,
    _digits,
    all_index_vectors,
    index_code,
    spin_matrix,
    spin_projector,
    tensor_spin,
    unit_phases,
)
from mubwigner.wigner import (
    CONVENTIONS,
    CharTable,
    ConventionError,
    WignerTable,
    a_operator,
    char_from_wigner,
    char_function,
    class_marginals,
    default_convention,
    density_from_char,
    marginal_along,
    plancherel_inner,
    positivity_check,
    random_density,
    random_pure_density,
    reconstruct_density,
    support_stats,
    wigner_from_char,
    wigner_function,
    wigner_kernel,
    wigner_partial_transpose,
    _validate_convention,
)

TOL = 1e-10

ALL_CASES = [
    (2, 1, "plain"),
    (3, 1, "plain"),
    (3, 1, "separable"),
    (5, 1, "separable"),
    (3, 1, "dynamics"),
    (2, 1, "dynamics"),
    (2, 2, "plain"),
    (2, 2, "p2-left"),
    (2, 2, "p2-right"),
    (2, 2, "dynamics"),
    (3, 2, "plain"),
    (3, 2, "separable"),
    (3, 2, "dynamics"),
    (2, 3, "plain"),
    (3, 3, "separable"),
]


def test_default_conventions():
    assert default_convention(3, 1) == "plain"
    assert default_convention(3, 2) == "separable"
    assert default_convention(2, 2) == "p2-left"
    assert default_convention(2, 3) == "plain"


def test_convention_validation():
    with pytest.raises(ConventionError):
        wigner_kernel(2, 2, "separable")
    with pytest.raises(ConventionError):
        wigner_kernel(3, 2, "p2-left")
    with pytest.raises(ConventionError):
        wigner_kernel(3, 1, "nonsense")


def test_qubit_char_function_is_bloch_vector():
    m = np.array([0.3, -0.5, 0.6])
    rho = 0.5 * (SIGMA["I"] + m[0] * SIGMA["x"] + m[1] * SIGMA["y"] + m[2] * SIGMA["z"])
    chi = char_function(rho, 2, 1, "plain")
    assert abs(chi.value((1, 0)) - m[2]) < TOL  # u_0 class
    assert abs(chi.value((1, 1)) - m[1]) < TOL  # u_1 class
    assert abs(chi.value((0, 1)) - m[0]) < TOL  # u_2 class
    assert abs(chi.value((0, 0)) - 1) < TOL


def test_qubit_wigner_closed_form():
    m = np.array([0.25, 0.45, -0.35])
    rho = 0.5 * (SIGMA["I"] + m[0] * SIGMA["x"] + m[1] * SIGMA["y"] + m[2] * SIGMA["z"])
    wt = wigner_function(rho, 2, 1, "plain")
    for v0, v1 in itertools.product(range(2), repeat=2):
        want = 0.25 * (
            1
            + m[2] * (-1.0) ** v1
            + m[1] * (-1.0) ** (v1 - v0)
            + m[0] * (-1.0) ** (-v0)
        )
        assert abs(wt.value((v0, v1)) - want) < TOL
    # horizontal line sums give the z-basis probabilities
    for v1 in range(2):
        s = wt.value((0, v1)) + wt.value((1, v1))
        assert abs(s - 0.5 * (1 + (-1.0) ** v1 * m[2])) < TOL


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("conv", ["plain", "separable"])
def test_mub_pure_state_tables(p, conv):
    # chi is supported on one class; W is 1/p on p points of a line
    geom = phase_geometry(p, 1)
    w = eta(p)
    for b in range(p + 1):
        for r in range(p):
            rho = mub_projector(geom, b, (r,)).matrix
            chi = char_function(rho, p, 1, conv)
            shift = geom and 0
            for a in range(p + 1):
                ua = (1, a) if a < p else (0, 1)
                for m in range(1, p):
                    got = chi.value((m * ua[0] % p, m * ua[1] % p))
                    if a != b:
                        assert abs(got) < TOL
            wt = wigner_from_char(chi)
            vals = wt.real_values()
            on = np.isclose(vals, 1.0 / p, atol=TOL)
            off = np.isclose(vals, 0.0, atol=TOL)
            assert on.sum() == p and off.sum() == p * p - p
            stats = support_stats(wt)
            assert stats.support_size == p
            assert abs(stats.max_abs - 1.0 / p) < TOL


def test_mub_pure_state_char_values_plain():
    # rho = P_{u_b}(r) has chi(m u_b) = eta^{-rm} in the plain convention
    p = 5
    geom = phase_geometry(p, 1)
    w = eta(p)
    for b in range(p + 1):
        ub = (1, b) if b < p else (0, 1)
        for r in range(p):
            rho = mub_projector(geom, b, (r,)).matrix
            chi = char_function(rho, p, 1, "plain")
            for m in range(p):
                got = chi.value((m * ub[0] % p, m * ub[1] % p))
                assert abs(got - w ** (-r * m)) < TOL


@pytest.mark.parametrize("p,n,conv", ALL_CASES)
def test_random_state_flat_table(p, n, conv):
    d = p**n
    rho = np.eye(d, dtype=complex) / d
    chi = char_function(rho, p, n, conv)
    want = np.zeros(len(chi.values))
    want[chi.kernel.code((0,) * (2 * n))] = 1.0
    assert np.abs(chi.values - want).max() < TOL
    wt = wigner_from_char(chi)
    assert np.abs(wt.values - 1.0 / d**2).max() < TOL


def test_point_operator_closed_form():
    # W of |j><k| in the shifted-u_p (separable) convention, odd p
    for p in (3, 5):
        inv2 = prime_inverse(2, p)
        w = eta(p)
        for j, k in itertools.product(range(p), repeat=2):
            O = np.zeros((p, p), dtype=complex)
            O[j, k] = 1.0
            wt = wigner_function(O, p, 1, "separable")
            for v0, v1 in itertools.product(range(p), repeat=2):
                want = 0.0
                if (v1 + inv2 * (j + k)) % p == 0:
                    want = w ** ((v0 + inv2) * (k - j)) / p
                assert abs(wt.value((v0, v1)) - want) < TOL
            if j != k:
                wt_dag = wigner_function(O.conj().T, p, 1, "separable")
                assert np.abs(np.conj(wt.values) - wt_dag.values).max() < TOL


def test_superposition_state_closed_form(rng):
    # |psi> = sum c_j |j>: W(v) = (1/p) sum_r eta^{(v0+2^-1) r} c_{-v1-2^-1 r} c*_{-v1+2^-1 r}
    for p in (3, 5, 7):
        inv2 = prime_inverse(2, p)
        w = eta(p)
        c = rng.normal(size=p) + 1j * rng.normal(size=p)
        c /= np.linalg.norm(c)
        rho = np.outer(c, c.conj())
        wt = wigner_function(rho, p, 1, "separable")
        for v0, v1 in itertools.product(range(p), repeat=2):
            want = (
                sum(
                    w ** ((v0 + inv2) * r)
                    * c[(-v1 - inv2 * r) % p]
                    * np.conj(c[(-v1 + inv2 * r) % p])
                    for r in range(p)
                )
                / p
            )
            assert abs(wt.value((v0, v1)) - want) < TOL


@pytest.mark.parametrize("p,n,conv", ALL_CASES)
def test_char_table_invariants(p, n, conv, rng):
    d = p**n
    rho = random_density(d, rng)
    chi = char_function(rho, p, n, conv)
    k = chi.kernel
    assert abs(chi.value((0,) * (2 * n)) - 1) < TOL
    # conjugate symmetry chi(-w) = chi(w)* for Hermitian input
    assert np.abs(chi.values[k._neg_perm] - np.conj(chi.values)).max() < TOL
    # each kernel operator is the phased spin matrix it claims to be
    for i in np.random.default_rng(1).choice(k.N, size=min(12, k.N), replace=False):
        op = kernel_op(k, i)
        got = np.trace(rho @ op.matrix())
        assert abs(got - chi.values[i]) < 1e-9


@pytest.mark.parametrize("p,n,conv", ALL_CASES)
def test_normalization_and_reality(p, n, conv, rng):
    rho = random_density(p**n, rng)
    wt = wigner_function(rho, p, n, conv)
    assert abs(wt.values.sum() - 1) < TOL
    assert np.abs(wt.values.imag).max() < TOL


@pytest.mark.parametrize("p,n,conv", ALL_CASES)
def test_round_trip_inversion(p, n, conv, rng):
    d = p**n
    for _ in range(3):
        rho = random_density(d, rng)
        wt = wigner_function(rho, p, n, conv)
        assert np.abs(reconstruct_density(wt) - rho).max() < TOL
    # linearity of reconstruction
    w1 = wigner_function(random_density(d, rng), p, n, conv)
    w2 = wigner_function(random_density(d, rng), p, n, conv)
    mix = type(w1)(p, n, conv, 0.25 * w1.values + 0.75 * w2.values)
    want = 0.25 * reconstruct_density(w1) + 0.75 * reconstruct_density(w2)
    assert np.abs(reconstruct_density(mix) - want).max() < TOL


def test_round_trip_non_hermitian(rng):
    # operator-valued tables invert too
    for p, n, conv in [(3, 1, "plain"), (2, 2, "p2-left"), (3, 2, "separable")]:
        d = p**n
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        chi = char_function(A, p, n, conv)
        wt = wigner_from_char(chi)
        back = reconstruct_density(wt)
        assert np.abs(back - A).max() < 1e-9


A_CASES = [
    (2, 1, "plain"),
    (3, 1, "plain"),
    (5, 1, "plain"),
    (3, 2, "separable"),
    (2, 2, "p2-left"),
    (3, 1, "dynamics"),
    (2, 2, "dynamics"),
    (2, 3, "dynamics"),
]


@pytest.mark.parametrize("p,n,conv", A_CASES)
def test_a_operator_basis(p, n, conv):
    d = p**n
    k = wigner_kernel(p, n, conv)
    A = k.a_stack()
    for M in A:
        assert np.abs(M - M.conj().T).max() < TOL
    assert np.abs(A.sum(axis=0) - np.eye(d)).max() < TOL
    flat = A.reshape(len(A), -1)
    overlaps = (flat @ flat.conj().T).real
    assert np.abs(overlaps - np.eye(len(A)) / d).max() < TOL
    # independent route: A(u) = p^{-2n} sum_w eta^{u o w} G(w), dense oracle
    G = k.phases[:, None, None] * spin_stack(p, n, k.vectors)
    A_ft = np.tensordot(ft_matrix(k), G, axes=(1, 0))
    assert np.abs(A - A_ft).max() < TOL


# every (p, n, convention) with d <= 27
ORACLE_CASES = ALL_CASES + [
    (2, 3, "dynamics"),
    (3, 3, "plain"),
    (3, 3, "dynamics"),
    (5, 2, "plain"),
    (5, 2, "separable"),
    (5, 2, "dynamics"),
]


@pytest.mark.parametrize("p,n,conv", ORACLE_CASES)
def test_matrix_free_transforms_match_dense_oracle(p, n, conv, rng):
    d = p**n
    k = wigner_kernel(p, n, conv)
    dense = DenseKernel(k)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    c = rng.normal(size=k.N) + 1j * rng.normal(size=k.N)
    rho = random_density(d, rng)
    assert np.abs(k.basis.traces(A) - dense.traces(A)).max() < 1e-12
    assert np.abs(k.basis.combine(c) - dense.combine(c)).max() < 1e-12
    chi = char_function(rho, p, n, conv)
    assert np.abs(chi.values - dense.char_function(rho)).max() < 1e-12
    wt = wigner_from_char(chi)
    assert np.abs(wt.values - dense.wigner_from_char(chi.values)).max() < 1e-12
    assert np.abs(char_from_wigner(wt).values - dense.char_from_wigner(wt.values)).max() < 1e-12
    assert np.abs(reconstruct_density(wt) - dense.reconstruct_density(wt.values)).max() < 1e-12


@pytest.mark.parametrize("p,n,conv", ORACLE_CASES)
def test_a_stack_matches_dense_oracles(p, n, conv):
    k = wigner_kernel(p, n, conv)
    A = k.a_stack()
    # the paper's formula from dense MUB projectors, where shifts exist
    if k.shifts is not None:
        assert np.abs(A - projector_a_stack(k)).max() <= 1e-14
    # A(u) = p^{-2n} sum_w eta^{u o w} G(w) from Kronecker-product spin matrices
    G = k.phases[:, None, None] * spin_stack(p, n, k.vectors)
    assert np.abs(A - np.tensordot(ft_matrix(k), G, axes=(1, 0))).max() <= 1e-14


@pytest.mark.parametrize(
    "p,n,conv", ORACLE_CASES + [(7, 2, "plain"), (7, 2, "separable"), (7, 2, "dynamics")]
)
def test_kernel_exponents_match_generator_route(p, n, conv):
    k = wigner_kernel(p, n, conv)
    ops = kernel_ops(k)
    assert [op.index for op in ops] == [tuple(w) for w in k.vectors.tolist()]
    eta_exp = np.array([op.eta_exp for op in ops])
    i_exp = np.array([op.i_exp for op in ops])
    assert np.array_equal(k.eta_exp % p, eta_exp)
    assert np.array_equal(k.i_exp % 4, i_exp)
    assert np.array_equal(k.phases, unit_phases(p, eta_exp, i_exp))


def test_kernel_and_geometry_build_no_phased_operator(monkeypatch):
    # spin_matrix is the one dense spin constructor left in the library
    def refuse(*args):
        raise AssertionError("dense spin matrix built")

    monkeypatch.setattr(spins_mod, "spin_matrix", refuse)
    phase_geometry.cache_clear()
    wigner_kernel.cache_clear()
    for p, n in [(2, 2), (3, 2), (3, 3)]:
        phase_geometry(p, n)
        for conv in CONVENTIONS:
            try:
                k = wigner_kernel(p, n, conv)
            except ConventionError:
                continue
            assert k.N == p ** (2 * n)
    phase_geometry.cache_clear()
    wigner_kernel.cache_clear()


def _assert_read_only(a):
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a.flat[0] = a.flat[0]


@pytest.mark.parametrize("p,n,conv", [(3, 1, "plain"), (2, 2, "p2-left"), (3, 2, "separable")])
def test_cached_arrays_are_read_only(p, n, conv):
    k = wigner_kernel(p, n, conv)
    for a in (k.basis.vectors, k.basis._gather, k.basis._to_code, k.phases, k.eta_exp, k.i_exp,
              k.shifts, k.geom.gens, k._neg_perm,
              k.geom.codes, k.geom.outcome_dots, k.a_stack(),
              a_operator(p, n, (0,) * (2 * n), conv), _characters(p, 1), _characters(p, -1)):
        _assert_read_only(a)
    wt = wigner_function(np.eye(p**n) / p**n, p, n, conv)
    for a in (wt._marginals, class_marginals(wt, 0)):
        _assert_read_only(a)


def _valid_conventions(p, n):
    for conv in CONVENTIONS:
        try:
            _validate_convention(p, n, conv)
        except ConventionError:
            continue
        yield conv


# every (p, n) with d <= 81 and every convention valid there
COSET_CASES = [(p, n, conv) for p in range(2, 82) if is_prime(p) for n in range(1, 7)
               if p**n <= 81 for conv in _valid_conventions(p, n)]


@pytest.mark.parametrize("p,n,conv", COSET_CASES)
def test_coset_tables_match_outcome_formula(p, n, conv, rng):
    # the Fourier slice of chi against W summed point by point over the
    # cosets of each class subspace, binned by each point's outcome code; a
    # non-Hermitian input keeps the imaginary parts in the comparison
    d = p**n
    wt = wigner_function(random_density(d, rng) + 1j * random_density(d, rng), p, n, conv)
    k = wt.kernel
    if k.shifts is None:  # the p=2 closed-form dynamics kernel has no shifts
        with pytest.raises(ConventionError):
            wt._marginals
        return
    assert wt._marginals.shape == (d + 1, d)
    for alpha in range(d + 1):
        codes = outcome_codes(k, alpha)
        # each outcome's line holds p^n points
        assert np.array_equal(np.bincount(codes, minlength=d), np.full(d, d))
        want = np.bincount(codes, wt.values.real, d) + 1j * np.bincount(codes, wt.values.imag, d)
        assert np.abs(wt._marginals[alpha] - want).max() <= 1e-14


def test_a_operator_qubit_closed_form():
    # A(v) = (1/4)(I + sz (-1)^{v1} + sy (-1)^{v1-v0} + sx (-1)^{-v0})
    for v0, v1 in itertools.product(range(2), repeat=2):
        want = 0.25 * (
            SIGMA["I"]
            + SIGMA["z"] * (-1.0) ** v1
            + SIGMA["y"] * (-1.0) ** (v1 - v0)
            + SIGMA["x"] * (-1.0) ** (-v0)
        )
        assert np.abs(a_operator(2, 1, (v0, v1), "plain") - want).max() < TOL


def test_a_operator_builds_no_stack():
    # d = 243: the (N, d, d) stack would be 55 GB; one A(u) is a d x d gather
    u = (1, 2, 0, 1, 2, 2, 0, 0, 1, 1)
    wigner_kernel(3, 5, "separable")
    tracemalloc.start()
    try:
        A = a_operator(3, 5, u, "separable")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (243, 243)
    assert peak < 20e6
    _assert_read_only(A)
    assert np.abs(A - A.conj().T).max() < 1e-15
    assert abs(np.trace(A) - 3**-5) < 1e-15


@pytest.mark.parametrize("p,n,conv", [(3, 5, "separable"), (3, 5, "dynamics"), (2, 8, "plain")])
def test_a_operator_traces_give_the_table_at_large_d(p, n, conv):
    # W(u) = tr[rho A(u)] at d = 243 and 256, where no dense oracle fits
    rng = np.random.default_rng(11)
    rho = random_density(p**n, rng)
    wt = wigner_function(rho, p, n, conv)
    for u in rng.integers(0, p, size=(4, 2 * n)).tolist():
        A = a_operator(p, n, u, conv)
        assert abs(wt.value(u) - np.sum(rho * A.T)) <= 1e-15


@pytest.mark.parametrize("u", [(0, 0, 1), (0.5, 1), (1,), (float("nan"), 0), ((0, 1),)])
def test_a_operator_rejects_malformed_index_vectors(u):
    with pytest.raises(ValueError, match="index vector"):
        a_operator(3, 1, u)
    # entries reduce mod p, and numpy integers are accepted
    assert np.array_equal(a_operator(3, 1, (np.int64(4), 2.0)), a_operator(3, 1, (1, 2)))


@pytest.mark.parametrize("cls", [WignerTable, CharTable])
@pytest.mark.parametrize("v", [(1,), (0, 0, 1), (0.5, 1), (float("inf"), 0)])
def test_table_value_rejects_malformed_index_vectors(cls, v, rng):
    table = cls(3, 1, "plain", rng.normal(size=9) + 0j)
    with pytest.raises(ValueError, match="index vector"):
        table.value(v)
    assert table.value((np.int64(4), 2.0)) == table.values[5]


# every (p, n, convention) with d <= 27, p=2 dynamics included
@pytest.mark.parametrize("p,n,conv", [c for c in COSET_CASES if c[0] ** c[1] <= 27])
def test_wigner_equals_a_operator_traces(p, n, conv, rng):
    # W(u) = tr[rho A(u)] and rho = p^n sum_u W(u) A(u)
    d = p**n
    rho = random_density(d, rng)
    wt = wigner_function(rho, p, n, conv)
    A = wt.kernel.a_stack()
    assert np.abs(wt.values - np.einsum("uij,ji->u", A, rho)).max() <= 1e-14
    assert np.abs(d * np.tensordot(wt.values, A, axes=(0, 0)) - rho).max() <= 1e-14


@pytest.mark.parametrize("s", [(0,), (0, 0, 2), (1.5, 0), (float("nan"), 0)])
def test_marginal_rejects_malformed_outcome(s, rng):
    wt = wigner_function(random_density(9, rng), 3, 2, "separable")
    with pytest.raises(ValueError, match="outcome vector"):
        marginal_along(wt, 0, s)
    assert marginal_along(wt, 0, (1.0, 0)) == marginal_along(wt, 0, (1, 0))


@pytest.mark.parametrize("p,n,conv", [(2, 1, "plain"), (3, 2, "separable"), (2, 3, "plain")])
def test_class_marginals_follow_the_outcome_order(p, n, conv, rng):
    wt = wigner_function(random_density(p**n, rng), p, n, conv)
    for alpha in range(p**n + 1):
        want = [marginal_along(wt, alpha, s) for s in itertools.product(range(p), repeat=n)]
        assert np.abs(class_marginals(wt, alpha) - want).max() < 1e-15
    with pytest.raises(ValueError, match="non-Hermitian"):
        class_marginals(wigner_function(1j * np.diag(np.arange(1, p**n + 1)), p, n, conv), 0)


# the generator-route cases: every one but the closed-form p=2 dynamics kernel
MARGINAL_CASES = [c for c in COSET_CASES if c[0] != 2 or c[1] == 1 or c[2] != "dynamics"]


@settings(deadline=None, max_examples=60)
@given(case=st.sampled_from(MARGINAL_CASES), data=st.data())
def test_marginal_along_property(case, data):
    p, n, conv = case
    d = p**n
    alpha = data.draw(st.integers(0, d), label="alpha")
    s = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), label="s"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rho = random_density(d, rng)
    wt = wigner_function(rho, p, n, conv)
    k = wt.kernel
    got = marginal_along(wt, alpha, s)
    assert abs(got - wt.values[outcome_codes(k, alpha) == k.outcome_code(s)].sum().real) <= 1e-14
    # class_marginals is in big-endian order, like class_vectors
    assert got == class_marginals(wt, alpha)[k.outcome_code(s)]
    psi = class_vectors(k.geom, alpha)[k.outcome_code(s)]
    assert abs(got - (psi.conj() @ rho @ psi).real) < TOL


@pytest.mark.parametrize("cls", [WignerTable, CharTable])
def test_tables_are_read_only(cls, rng):
    given_values = rng.normal(size=9) + 1j * rng.normal(size=9)
    table = cls(3, 1, "plain", given_values)
    with pytest.raises(ValueError, match="read-only"):
        table.values[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.values = np.zeros(9)
    # the table holds a copy: the caller's array stays writable and its own
    given_values[0] = 7.0
    assert given_values.flags.writeable
    assert table.values[0] != 7.0


@pytest.mark.parametrize("cls", [WignerTable, CharTable])
def test_tables_compare_and_hash_by_identity(cls):
    a = cls(3, 1, "plain", np.arange(9) + 0j)
    # equal values and different values alike: distinct tables are unequal
    for b in (cls(3, 1, "plain", np.arange(9) + 0j), cls(3, 1, "plain", np.zeros(9) + 0j)):
        assert (a == b) is False
        assert (a != b) is True
    assert a == a
    assert {a: "a"}[a] == "a"


def test_char_and_wigner_tables_are_distinct_types():
    # evolution and the table tests dispatch on isinstance, so neither kind is the other
    chi, wt = CharTable(3, 1, "plain", np.zeros(9)), WignerTable(3, 1, "plain", np.zeros(9))
    assert not isinstance(chi, WignerTable) and not isinstance(wt, CharTable)
    assert chi.density.shape == wt.density.shape == (3, 3)
    assert not hasattr(chi, "real_values") and not hasattr(chi, "_marginals")
    for table in (chi, wt):  # each subclass is frozen in its own right
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.note = 1


def test_built_tables_are_read_only(rng):
    wt = wigner_function(random_density(9, rng), 3, 2, "separable")
    chi = char_from_wigner(wt)
    for a in (wt.values, chi.values, wigner_mod.wigner_partial_transpose(wt).values):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize("p,n,conv", [c for c in COSET_CASES if c[0] ** c[1] <= 27])
def test_table_densities_are_read_only_and_computed_once(p, n, conv, rng):
    rho = random_density(p**n, rng)
    chi = char_function(rho, p, n, conv)
    for table, recover in ((chi, density_from_char), (wigner_from_char(chi), reconstruct_density)):
        got = recover(table)
        assert got is recover(table) is table.density
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 0
        assert np.abs(got - rho).max() < 1e-12


def test_marginal_checks_hold_after_caching(rng):
    p, n = 3, 2
    d = p**n
    wt = wigner_function(random_density(d, rng), p, n, "separable")
    want = marginal_along(wt, 2, (1, 0))
    class_marginals(wt, 2)
    for bad in (2.0, -1, d + 1, np.float64(2), "2", None):
        with pytest.raises(ValueError, match="class label"):
            marginal_along(wt, bad, (1, 0))
        with pytest.raises(ValueError, match="class label"):
            class_marginals(wt, bad)
    for s in [(0,), (0, 0, 2), (1.5, 0), (float("nan"), 0), (np.float64(0.5), 1)]:
        with pytest.raises(ValueError, match="outcome vector"):
            marginal_along(wt, 2, s)
    # integer-valued entries of any type, reduced mod p
    for s in [(1.0, 0), (np.int64(1), 0), [1, 0], np.array([1, 0]), (p + 1, -p), (True, False)]:
        assert marginal_along(wt, 2, s) == want
    assert marginal_along(wt, np.int64(2), (1, 0)) == want


def test_non_hermitian_rule_is_per_outcome(rng):
    p, n = 3, 2
    d = p**n
    geom = phase_geometry(p, n)
    s0 = (2, 1)
    # tr[P_0(s0) P_0(s)] = delta, so only outcome s0 of class 0 picks up i;
    # every outcome of every other class picks up i/d
    A = random_density(d, rng) + 1j * mub_projector(geom, 0, s0).matrix
    wt = wigner_function(A, p, n, "separable")
    for s in itertools.product(range(p), repeat=n):
        if s == s0:
            with pytest.raises(ValueError, match="non-Hermitian"):
                marginal_along(wt, 0, s)
        else:
            assert isinstance(marginal_along(wt, 0, s), float)
        with pytest.raises(ValueError, match="non-Hermitian"):
            marginal_along(wt, 1, s)
    for alpha in (0, 1, d):
        with pytest.raises(ValueError, match="non-Hermitian"):
            class_marginals(wt, alpha)


def test_marginals_gather_each_class_once(monkeypatch, rng):
    p, n = 7, 2
    d = p**n
    wt = wigner_function(random_density(d, rng), p, n, "separable")
    k = wt.kernel
    reads = []
    slice_ = k.inverse_symplectic_ft
    monkeypatch.setattr(k, "inverse_symplectic_ft", lambda v: reads.append(1) or slice_(v))
    outcomes = list(itertools.product(range(p), repeat=n))
    probs = [[marginal_along(wt, alpha, s) for s in outcomes] for alpha in range(d + 1)]
    assert len(outcomes) * (d + 1) == 2450
    # class_marginals reads the same marginals
    for alpha in range(d + 1):
        assert np.array_equal(class_marginals(wt, alpha), probs[alpha])
    assert len(reads) == 1
    # a new table takes its own slice
    marginal_along(wigner_function(random_density(d, rng), p, n, "separable"), 0, (0, 0))
    assert len(reads) == 2


# every (p, n) with d <= 243, by n, and the generator-route conventions there
LINE_CASES = {n: [(p, conv) for p in range(2, 244) if is_prime(p) and p**n <= 243
                  for conv in _valid_conventions(p, n) if p != 2 or n == 1 or conv != "dynamics"]
              for n in range(1, 8)}


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 7), data=st.data())
def test_marginals_and_projector_lines_property(n, data):
    p, conv = data.draw(st.sampled_from(LINE_CASES[n]), label="p, conv")
    d = p**n
    alpha = data.draw(st.integers(0, d), label="alpha")
    s = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), label="s"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rho = random_density(d, rng)
    wt = wigner_function(rho, p, n, conv)
    k = wt.kernel
    V = class_vectors(k.geom, alpha)
    # the marginals of a class are the probabilities <psi_s|rho|psi_s>
    assert np.abs(class_marginals(wt, alpha) - ((V.conj() @ rho) * V).sum(axis=1).real).max() < 1e-12
    # W of the MUB projector P_alpha(s) is p^{-n} on its line and 0 elsewhere
    psi = V[k.outcome_code(s)]
    W = wigner_function(np.outer(psi, psi.conj()), p, n, conv).values
    on = outcome_codes(k, alpha) == k.outcome_code(s)
    assert np.abs(W - np.where(on, p**-n, 0.0)).max() < 1e-12


def test_marginals_keep_the_p2_dynamics_refusal(rng):
    wt = wigner_function(random_density(4, rng), 2, 2, "dynamics")
    with pytest.raises(ConventionError):
        marginal_along(wt, 0, (0, 0))
    with pytest.raises(ConventionError):
        class_marginals(wt, 0)


@pytest.mark.parametrize("p,n,conv", [c for c in A_CASES if c in MARGINAL_CASES])
def test_marginals_match_projector_probabilities(p, n, conv, rng):
    d = p**n
    geom = phase_geometry(p, n)
    for _ in range(5):
        rho = random_density(d, rng)
        wt = wigner_function(rho, p, n, conv)
        total_per_class = {}
        for alpha in range(geom.num_classes):
            tot = 0.0
            for s in itertools.product(range(p), repeat=n):
                prob = marginal_along(wt, alpha, s)
                want = np.trace(rho @ mub_projector(geom, alpha, s).matrix).real
                assert abs(prob - want) < TOL
                assert -TOL <= prob <= 1 + TOL
                tot += prob
            total_per_class[alpha] = tot
        assert all(abs(t - 1) < TOL for t in total_per_class.values())


def test_shifted_convention_outcome_relation(rng):
    # the separable table evaluates through projectors with shifted outcomes:
    # W(v) = (1/p)(-1 + sum_a tr[rho P_{u_a}(v o u_a + r_a)]) with r_a = 0 for
    # a < p and r_p = -2^{-1}
    p = 5
    inv2 = prime_inverse(2, p)
    geom = phase_geometry(p, 1)
    rho = random_density(p, rng)
    wt = wigner_function(rho, p, 1, "separable")
    for v in itertools.product(range(p), repeat=2):
        acc = -1.0
        for a in range(p + 1):
            ua = (1, a) if a < p else (0, 1)
            s = (v[1] * ua[0] - v[0] * ua[1]) % p
            r_a = 0 if a < p else (-inv2) % p
            acc += np.trace(
                rho @ mub_projector(geom, a, ((s + r_a) % p,)).matrix
            ).real
        assert abs(wt.value(v) - acc / p) < TOL


@pytest.mark.parametrize("p,n,conv", [(3, 1, "plain"), (5, 1, "separable"), (3, 2, "separable"), (2, 2, "p2-left")])
def test_plancherel(p, n, conv, rng):
    d = p**n
    for _ in range(5):
        r1, r2 = random_density(d, rng), random_density(d, rng)
        w1 = wigner_function(r1, p, n, conv)
        w2 = wigner_function(r2, p, n, conv)
        assert abs(plancherel_inner(w1, w2) - np.trace(r1 @ r2).real) < TOL
    # orthogonal pure states have vanishing table overlap
    v = np.zeros(d)
    v[0] = 1.0
    u = np.zeros(d)
    u[1] = 1.0
    wv = wigner_function(np.outer(v, v), p, n, conv)
    wu = wigner_function(np.outer(u, u), p, n, conv)
    assert abs(plancherel_inner(wv, wu)) < TOL
    assert abs(plancherel_inner(wv, wv) - 1) < TOL


def test_plancherel_convention_mismatch(rng):
    w1 = wigner_function(random_density(3, rng), 3, 1, "plain")
    w2 = wigner_function(random_density(3, rng), 3, 1, "separable")
    with pytest.raises(ConventionError):
        plancherel_inner(w1, w2)


@pytest.mark.parametrize("p,n,conv", [(3, 1, "plain"), (5, 1, "plain"), (3, 2, "separable")])
def test_support_bounds(p, n, conv, rng):
    d = p**n
    for _ in range(10):
        rho = random_pure_density(d, rng)
        wt = wigner_function(rho, p, n, conv)
        stats = support_stats(wt)
        assert stats.max_abs <= p ** (-n / 2) + TOL
        assert stats.support_size >= d
        chi = char_function(rho, p, n, conv)
        chi_support = int((np.abs(chi.values) > 1e-10).sum())
        assert stats.support_size * chi_support >= d * d
    # the random state saturates the uncertainty product
    wt = wigner_function(np.eye(d) / d, p, n, conv)
    chi_support = 1
    assert support_stats(wt).support_size * chi_support == d * d


def test_support_bound_violation_raises():
    from mubwigner.wigner import WignerTable

    vals = np.zeros(9)
    vals[0] = 5.0
    with pytest.raises(ValueError):
        support_stats(WignerTable(3, 1, "plain", vals))


@pytest.mark.parametrize("conv", ["plain", "separable", "dynamics"])
def test_translation_covariance_exhaustive_p3(conv, rng):
    p = 3
    rho = random_density(p, rng)
    wt = wigner_function(rho, p, 1, conv)
    k = wt.kernel
    for z in itertools.product(range(p), repeat=2):
        Sz = spin_matrix(p, *z)
        rho_t = Sz.conj().T @ rho @ Sz
        wt_t = wigner_function(rho_t, p, 1, conv)
        for v in itertools.product(range(p), repeat=2):
            shifted = tuple((a + b) % p for a, b in zip(v, z))
            assert abs(wt_t.value(v) - wt.value(shifted)) < TOL


def test_translation_covariance_n2(rng):
    p, n = 3, 2
    rho = random_density(9, rng)
    wt = wigner_function(rho, p, n, "separable")
    for _ in range(20):
        z = tuple(rng.integers(0, p, size=4))
        Sz = tensor_spin(p, z)
        wt_t = wigner_function(Sz.conj().T @ rho @ Sz, p, n, "separable")
        for _ in range(10):
            v = tuple(rng.integers(0, p, size=4))
            shifted = tuple((a + b) % p for a, b in zip(v, z))
            assert abs(wt_t.value(v) - wt.value(shifted)) < TOL


def test_positivity_check_on_projector():
    geom = phase_geometry(3, 1)
    P = mub_projector(geom, 1, (2,)).matrix
    res = positivity_check(P, 3, 1)
    assert res.positive and res.witness is None


def test_positivity_check_finds_witness(rng):
    # push one eigenvalue negative: rho = (1+eps) I/p - eps P
    p = 3
    geom = phase_geometry(p, 1)
    P = mub_projector(geom, 0, (1,)).matrix
    eps = 0.8
    rho = (1 + eps) * np.eye(p) / p - eps * P
    assert abs(np.trace(rho).real - 1) < TOL
    res = positivity_check(rho, p, 1)
    assert not res.positive
    assert res.min_eigenvalue < -0.1
    # materialize the witness and confirm tr(rho B B^dagger) < 0
    B = np.zeros((p, p), dtype=complex)
    for (j, k), c in zip(all_index_vectors(p, 1).tolist(), res.witness):
        B += c * spin_matrix(p, j, k)
    val = np.trace(rho @ B @ B.conj().T).real
    assert val < -0.1
    assert abs(val - res.min_eigenvalue) < TOL


@pytest.mark.parametrize("p,n,alpha,s", [(2, 2, 3, (1, 0)), (3, 2, 4, (1, 2)), (2, 3, 5, (0, 1, 1))])
def test_positivity_witness_is_a_code_order_array(p, n, alpha, s):
    d = p**n
    rho = 1.5 * np.eye(d) / d - 0.5 * mub_projector(phase_geometry(p, n), alpha, s).matrix
    res = positivity_check(rho, p, n)
    assert not res.positive
    w = res.witness
    assert w.shape == (d * d,) and not w.flags.writeable
    # B = sum_w c_w S_w from dense Kronecker-product spin matrices
    B = np.tensordot(w, spin_stack(p, n, all_index_vectors(p, n)), axes=(0, 0))
    phi = res.eigenvector
    assert np.abs(B - np.outer(phi, phi.conj())).max() < 1e-12
    val = np.trace(rho @ B @ B.conj().T).real
    assert val < 0 and abs(val - (1.5 / d - 0.5)) < TOL


def test_positivity_witness_is_built_when_read(monkeypatch, rng):
    p, n = 3, 2
    P = mub_projector(phase_geometry(p, n), 4, (1, 2)).matrix
    rho = 1.5 * np.eye(p**n) / p**n - 0.5 * P
    calls = []
    decompose = wigner_mod.spin_decompose
    monkeypatch.setattr(wigner_mod, "spin_decompose", lambda *a: calls.append(a) or decompose(*a))
    res = positivity_check(rho, p, n)
    assert not res.positive and calls == []
    # the eager formula: spin coefficients of |phi><phi| over p^n
    phi = np.linalg.eigh(rho)[1][:, 0]
    want = decompose(np.outer(phi, phi.conj()), p, n) / p**n
    assert np.array_equal(res.witness, want)
    assert res.witness is res.witness and len(calls) == 1
    pos = positivity_check(random_density(p**n, rng), p, n)
    assert pos.positive and pos.witness is None and len(calls) == 1


def test_positivity_check_takes_eigenvalues_only(monkeypatch):
    p, n = 3, 2
    P = mub_projector(phase_geometry(p, n), 4, (1, 2)).matrix
    rho = 1.5 * np.eye(p**n) / p**n - 0.5 * P
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    for read in ("eigenvector", "witness"):
        res = positivity_check(rho, p, n)
        assert not res.positive and abs(res.min_eigenvalue - (1.5 / p**n - 0.5)) < TOL
        assert calls == []
        getattr(res, read)
        assert len(calls) == 1 and res.eigenvector is res.eigenvector and len(calls) == 1
        _assert_read_only(res.eigenvector)
        calls.clear()
    # the witness is the one of the eager eigh route
    phi = eigh(rho)[1][:, 0]
    decompose = wigner_mod.spin_decompose
    want = decompose(np.outer(phi, phi.conj()), p, n) / p**n
    assert np.array_equal(res.witness, want)
    # the checked matrix is held as a read-only copy, not the caller's array
    rho[0, 0] = 7.0
    assert res.rho[0, 0] != 7.0 and not res.rho.flags.writeable
    pos = positivity_check(np.eye(p**n) / p**n, p, n)
    assert pos.eigenvector is None and pos.witness is None and calls == []


def test_transforms_call_no_numpy_fft(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy FFT called")

    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    p, n = 3, 2
    d = p**n
    rho = random_density(d, rng)
    for conv in ("separable", "dynamics"):
        wt = wigner_function(rho, p, n, conv)
        again = WignerTable(p, n, conv, wt.values)
        assert np.abs(reconstruct_density(again) - rho).max() < TOL
        assert abs(class_marginals(wt, 1).sum() - 1) < TOL
    H = random_hermitian(d, rng)
    gen = build_char_generator(H, p, n)
    chi_t = evolve(char_dynamics_table(rho, p, n), gen, 0.5)
    U = expm(-0.5j * H)
    assert np.abs(density_from_dynamics_char(chi_t) - U @ rho @ U.conj().T).max() < 1e-9
    assert wigner_kernel(p, n, "separable").a_stack().shape == (d * d, d, d)
    V = class_vectors(phase_geometry(p, n), 2)
    assert np.abs(V @ V.conj().T - np.eye(d)).max() < TOL


def test_positivity_check_agrees_with_eigen_oracle(rng):
    for _ in range(50):
        H = random_hermitian(3, rng)
        H /= np.trace(H).real
        res = positivity_check(H, 3, 1)
        assert res.positive == bool(np.linalg.eigvalsh(H)[0] >= -1e-10)


@pytest.mark.parametrize("rho", [np.eye(4) / 4, np.zeros((2, 3)), np.zeros(9),
                                 np.zeros((3, 3, 3)), np.eye(27) / 27])
def test_positivity_check_rejects_a_wrong_shape(rho):
    # a 4x4 input got a result labelled p=3, n=2, and a 2x3 one a broadcast error
    with pytest.raises(ValueError, match="expected a 9x9 matrix"):
        positivity_check(rho, 3, 2)


def test_positivity_check_rejects_non_hermitian(rng):
    with pytest.raises(ValueError):
        positivity_check(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), 3, 1)


def test_char_from_wigner_inverts(rng):
    for p, n, conv in [(3, 1, "plain"), (2, 2, "p2-left"), (3, 2, "separable")]:
        rho = random_density(p**n, rng)
        chi = char_function(rho, p, n, conv)
        wt = wigner_from_char(chi)
        chi2 = char_from_wigner(wt)
        assert np.abs(chi.values - chi2.values).max() < TOL


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_density_table_properties_hold_for_any_state(data):
    p, n, conv = data.draw(
        st.sampled_from(
            [
                (2, 1, "plain"),
                (3, 1, "plain"),
                (3, 1, "separable"),
                (2, 2, "p2-left"),
                (3, 2, "separable"),
                (3, 2, "dynamics"),
            ]
        )
    )
    d = p**n
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pure = data.draw(st.booleans())
    rho = random_pure_density(d, gen) if pure else random_density(d, gen)
    wt = wigner_function(rho, p, n, conv)
    assert abs(wt.values.sum() - 1) < TOL
    assert np.abs(wt.values.imag).max() < TOL
    stats = support_stats(wt)  # raises when |W| or the support bound breaks
    assert stats.max_abs <= p ** (-n / 2) + TOL
    assert abs(plancherel_inner(wt, wt) - np.trace(rho @ rho).real) < TOL
    assert np.abs(reconstruct_density(wt) - rho).max() < TOL


@pytest.mark.parametrize("p,n", [(3, 4), (11, 2), (3, 5)])
def test_invariants_beyond_dense_reach(p, n, rng):
    # d = 81, 121 and 243: the dense N x d^2 tables would need GBs here
    d = p**n
    conv = default_convention(p, n)
    rho = random_density(d, rng)
    wt = wigner_function(rho, p, n, conv)
    assert np.abs(reconstruct_density(wt) - rho).max() < 1e-12
    assert abs(wt.values.sum() - np.trace(rho)) < 1e-12
    assert abs(d * np.sum(wt.values**2) - np.trace(rho @ rho)) < 1e-12
    # a MUB projector is p^{-n} on its line, 0 elsewhere
    k = wt.kernel
    s = tuple(j % p for j in range(n))
    for alpha in (0, 1, d):
        P = mub_projector(k.geom, alpha, s).matrix
        on = outcome_codes(k, alpha) == k.outcome_code(s)
        assert on.sum() == d
        W = wigner_function(P, p, n, conv).values
        assert np.abs(W - np.where(on, p**-n, 0.0)).max() < 1e-12


MARGINAL_ROW_CASES = [c for c in COSET_CASES if c[0] != 2 or c[1] == 1 or c[2] != "dynamics"]


@pytest.mark.parametrize("p,n,conv", MARGINAL_ROW_CASES)
def test_marginal_along_reads_python_floats_of_the_marginals(p, n, conv, rng):
    d = p**n
    wt = wigner_function(random_density(d, rng), p, n, conv)
    k = wt.kernel
    for alpha in range(d + 1):
        for s in itertools.product(range(p), repeat=n):
            got = marginal_along(wt, alpha, s)
            assert type(got) is float
            assert got == float(wt._marginals[alpha, k.outcome_code(s)].real)


def test_marginal_rows_are_built_once_per_table(marginal_row_builds, rng):
    builds = marginal_row_builds
    p, n = 7, 2
    d = p**n
    wt = wigner_function(random_density(d, rng), p, n, "separable")
    for alpha in range(d + 1):
        class_marginals(wt, alpha)
    assert builds == []  # class_marginals reads the numpy marginals only
    outcomes = list(itertools.product(range(p), repeat=n))
    probs = [[marginal_along(wt, alpha, s) for s in outcomes] for alpha in range(d + 1)]
    assert len(outcomes) * (d + 1) == 2450
    assert len(builds) == 1
    assert probs == [class_marginals(wt, alpha).tolist() for alpha in range(d + 1)]


def test_marginal_rows_are_immutable(rng):
    wt = wigner_function(random_density(9, rng), 3, 2, "separable")
    rows = wt._marginal_rows
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert len(rows) == 10 and all(len(row) == 9 for row in rows)
    with pytest.raises(TypeError):
        rows[0][0] = 1.0
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        wt._marginal_rows = ()
    assert wt._marginal_rows is rows


def test_marginal_rows_hold_none_where_not_a_probability(rng):
    p, n = 3, 2
    s0 = (2, 1)
    A = random_density(9, rng) + 1j * mub_projector(phase_geometry(p, n), 0, s0).matrix
    wt = wigner_function(A, p, n, "separable")
    k = wt.kernel
    for alpha, row in enumerate(wt._marginal_rows):
        for code, total in enumerate(row):
            assert (total is None) == (abs(wt._marginals[alpha, code].imag) > 1e-8)
    assert wt._marginal_rows[0][k.outcome_code(s0)] is None
    assert sum(row.count(None) for row in wt._marginal_rows) == 1 + 9 * 9


def test_marginal_along_reads_integer_like_labels(rng):
    wt = wigner_function(random_density(9, rng), 3, 2, "separable")
    want = marginal_along(wt, 3, (1, 2))
    for alpha in (np.int64(3), np.uint8(3), np.int32(3)):
        assert marginal_along(wt, alpha, (1, 2)) == want
    assert marginal_along(wt, True, (1, 2)) == marginal_along(wt, 1, (1, 2))
    assert marginal_along(wt, False, (1, 2)) == marginal_along(wt, 0, (1, 2))
    # out of range for a numpy integer too, which skips the plain-int fast path
    with pytest.raises(ValueError, match="class label"):
        marginal_along(wt, np.int64(10), (1, 2))


# the n=2 odd-p separable kernels the suite builds, d up to 169
PT_CASES = [(p, 2, "separable") for p in (3, 5, 7, 11, 13)]


@pytest.mark.parametrize("p,n,conv", MARGINAL_ROW_CASES + [(11, 2, "separable"), (3, 5, "separable")])
def test_kernel_marginal_phases_match_per_table_phases(p, n, conv):
    k = wigner_kernel(p, n, conv)
    assert np.array_equal(k._marginal_phases, unit_phases(p, -k.shifts @ _digits(p, n).T))


@pytest.mark.parametrize("p,n,conv", PT_CASES)
def test_kernel_pt_perm_matches_index_vector_route(p, n, conv, rng):
    k = wigner_kernel(p, n, conv)
    vecs = k.vectors.copy()
    vecs[:, 2] = p - 1 - vecs[:, 2]
    assert np.array_equal(k._pt_perm, index_code(p, vecs))
    wt = wigner_function(random_density(p**n, rng), p, n, conv)
    assert np.array_equal(wigner_partial_transpose(wt).values, wt.values[index_code(p, vecs)])


@pytest.mark.parametrize("p,n,conv", [(3, 1, "plain"), (2, 2, "p2-left"), (3, 2, "separable")])
def test_kernel_constant_caches_are_read_only(p, n, conv):
    # the lazy per-kernel constants, alongside test_cached_arrays_are_read_only
    k = wigner_kernel(p, n, conv)
    _assert_read_only(k._marginal_phases)
    assert k._marginal_phases is k._marginal_phases
    if p % 2 == 1 and n == 2:
        _assert_read_only(k._pt_perm)
        assert k._pt_perm is k._pt_perm


# every kernel the suite builds: each convention valid at d <= 81, and the larger ones
TABLE_CASES = COSET_CASES + [
    (2, 7, "plain"), (2, 8, "plain"), (2, 8, "dynamics"), (3, 5, "plain"), (3, 5, "separable"),
    (3, 5, "dynamics"), (11, 2, "separable"), (13, 2, "separable"),
]


@pytest.mark.parametrize("p,n,conv", TABLE_CASES)
def test_index_tables_match_stack_formulas(p, n, conv):
    # each digit-map table against its formula over the (N, 2n) stack of index vectors
    k = wigner_kernel(p, n, conv)
    vecs = all_index_vectors(p, n)
    x, y = vecs[:, 0::2], vecs[:, 1::2]
    # _gather in (m, y) block order: the (x, y) stack read as (m, y) is the (x..., y...) grid
    xy = np.argsort(index_code(p, np.hstack([x, y])))
    tables = [(k.basis._gather.ravel(), (index_code(p, x + y) * p**n + index_code(p, x))[xy]),
              # the digit DFT's (x digits, y) grid, read through its (y, x) transpose
              (k.basis._to_code, index_code(p, np.hstack([y, x]))),
              (k._neg_perm, index_code(p, -vecs))]
    if n == 2 and p % 2:
        pt = vecs.copy()
        pt[:, 2] = -1 - pt[:, 2]
        tables.append((k._pt_perm, index_code(p, pt)))
    for got, want in tables:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if conv == "dynamics":
        ww = (x * y).sum(axis=1)
        if p == 2:
            want = np.zeros_like(ww), ww % 4
        else:
            want = (prime_inverse(2, p) * ww) % p, np.zeros_like(ww)
        for got, w in zip((k.eta_exp, k.i_exp), want):
            assert got.dtype == w.dtype and np.array_equal(got, w)


@pytest.mark.parametrize("p,n,conv", [(2, 8, "plain"), (2, 8, "dynamics"), (3, 5, "separable")])
def test_tables_build_without_index_vector_stacks(p, n, conv, monkeypatch):
    from mubwigner import mub as mub_mod, spins as spins_mod
    from mubwigner.spins import SpinBasis

    def no_stack(*args):
        raise AssertionError("an (N, 2n) stack of index vectors was built")

    def one_code(p, iv):
        if np.ndim(iv) > 1:
            raise AssertionError("index_code was called on a stack of index vectors")
        return index_code(p, iv)

    with monkeypatch.context() as m:
        m.setattr(spins_mod, "all_index_vectors", no_stack)
        for mod in (spins_mod, wigner_mod, mub_mod):
            m.setattr(mod, "index_code", one_code)
        m.setattr(wigner_mod, "spin_basis", SpinBasis)  # a fresh, uncached basis
        k = wigner_mod.WignerKernel(p, n, conv)
        k.char_values(np.eye(p**n) / p**n)
    assert "vectors" not in k.basis.__dict__
    assert np.array_equal(k.vectors, all_index_vectors(p, n))
    assert k.vectors is k.basis.vectors
    _assert_read_only(k.vectors)


@pytest.mark.parametrize("cls", [CharTable, WignerTable])
def test_tables_are_checked_where_they_enter(cls):
    for values in (np.zeros(5), np.zeros((3, 3)), np.zeros(81)):
        with pytest.raises(ValueError, match="has 9 values"):
            cls(3, 1, "plain", values)
    for p, n, conv in [(3, 1, "bogus"), (2, 1, "separable"), (3, 2, "p2-left")]:
        with pytest.raises(ConventionError):
            cls(p, n, conv, np.zeros(p ** (2 * n)))
    assert cls(3, 1, "plain", np.arange(9.0)).values.shape == (9,)


# -- density-first characteristic tables ---------------------------------------


@pytest.mark.parametrize("p,n,conv", ALL_CASES)
def test_char_function_values_are_the_eager_values_bit_for_bit(p, n, conv):
    # char_function keeps rho and computes chi on first read; the values are
    # those of a table built from the eagerly computed chi, and so is W
    rng = np.random.default_rng([p, n, len(conv)])
    k = wigner_kernel(p, n, conv)
    for rho in (random_density(p**n, rng), rng.normal(size=(p**n, p**n))):
        chi = char_function(rho, p, n, conv)
        assert "values" not in vars(chi)
        eager = CharTable(p, n, conv, k.char_values(rho))
        assert np.array_equal(chi.values, eager.values)
        assert chi.values is chi.values and not chi.values.flags.writeable
        assert np.array_equal(wigner_from_char(chi).values, wigner_from_char(eager).values)
        assert np.array_equal(wigner_function(rho, p, n, conv).values,
                              wigner_from_char(eager).values)


def test_char_function_keeps_a_read_only_copy_of_rho(rng):
    rho = random_density(9, rng)
    keep = rho.copy()
    chi = char_function(rho, 3, 2)
    rho[0, 0] += 5.0  # the caller's array stays writable and is not the table's
    rho[1, 2] = np.nan
    assert np.array_equal(chi.density, keep)
    assert not chi.density.flags.writeable
    assert density_from_char(chi) is chi.density
    assert np.array_equal(chi.values, char_function(keep, 3, 2).values)
    # a real or list input is held as a complex copy too
    chi = char_function(keep.real.tolist(), 3, 2)
    assert chi.density.dtype == complex and np.array_equal(chi.density, keep.real)


ENTRY_REFUSALS = [
    (4, 1, None, np.eye(4), FieldError, "4 is not prime"),
    (3, 1, "bogus", np.eye(3), ConventionError, "unknown convention 'bogus'"),
    (2, 1, "separable", np.eye(2), ConventionError, "needs an odd prime"),
    (3, 2, "p2-left", np.eye(9), ConventionError, "only defined for p=2, n=2"),
    (3, 1, None, np.eye(9), ValueError, r"expected a 3x3 matrix, got \(9, 9\)"),
    (3, 2, None, np.ones(9), ValueError, r"expected a 9x9 matrix, got \(9,\)"),
]


@pytest.mark.parametrize("build", [char_function, wigner_function])
@pytest.mark.parametrize("p,n,conv,rho,exc,msg", ENTRY_REFUSALS)
def test_tables_of_a_matrix_refuse_bad_input_at_entry(build, p, n, conv, rho, exc, msg):
    # every check runs when the table is made, not when its values are first read
    with pytest.raises(exc, match=msg):
        build(rho, p, n, conv)
    if conv is None:  # the dynamics table fixes its own convention
        with pytest.raises(exc, match=msg):
            char_dynamics_table(rho, p, n)
