import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import SIGMA
from dense_oracle import eta, phased_spin, spin_power, spin_product, spin_stack
from mubwigner.spins import (
    _MINUS_I_POWERS,
    SpinBasis,
    _digits,
    all_index_vectors,
    alpha_factor,
    code_map,
    digit_dft,
    index_code,
    spin_decompose,
    spin_matrix,
    spin_projector,
    spin_recompose,
    tensor_spin,
    unit_phases,
)

TOL = 1e-12


def test_spin_matrix_qubit_examples():
    assert np.allclose(spin_matrix(2, 0, 0), SIGMA["I"], atol=TOL)
    assert np.allclose(spin_matrix(2, 1, 0), SIGMA["z"], atol=TOL)
    assert np.allclose(spin_matrix(2, 0, 1), SIGMA["x"], atol=TOL)
    assert np.allclose(spin_matrix(2, 1, 1), 1j * SIGMA["y"], atol=TOL)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_spin_matrices_unitary_and_traceless(d):
    for j, k in itertools.product(range(d), repeat=2):
        S = spin_matrix(d, j, k)
        assert np.allclose(S @ S.conj().T, np.eye(d), atol=TOL)
        if (j, k) != (0, 0):
            assert abs(np.trace(S)) < TOL


@pytest.mark.parametrize("d", [2, 3, 5, 7, 9])
def test_orthogonality(d):
    mats = {
        (j, k): spin_matrix(d, j, k) for j, k in itertools.product(range(d), repeat=2)
    }
    for (a, Sa), (b, Sb) in itertools.product(mats.items(), repeat=2):
        want = d if a == b else 0.0
        assert abs(np.trace(Sa.conj().T @ Sb) - want) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_product_phases_match_numerics(d):
    for a in itertools.product(range(d), repeat=2):
        Sa = spin_matrix(d, *a)
        for b in itertools.product(range(d), repeat=2):
            op = spin_product(d, a, b)
            assert np.abs(op.matrix() - Sa @ spin_matrix(d, *b)).max() < TOL


def test_product_examples_d2():
    op = spin_product(2, (1, 0), (0, 1))
    assert op.index == (1, 1) and op.phase == 1
    # numeric oracle: S_{0,1} S_{1,0} = -S_{1,1}
    prod = spin_matrix(2, 0, 1) @ spin_matrix(2, 1, 0)
    assert np.allclose(prod, -spin_matrix(2, 1, 1), atol=TOL)
    op = spin_product(2, (0, 1), (1, 0))
    assert op.index == (1, 1) and op.phase == -1


@pytest.mark.parametrize("d", [2, 3, 5])
def test_adjoint_closes_to_identity(d):
    for a in itertools.product(range(d), repeat=2):
        op = phased_spin(d, a) @ phased_spin(d, a).adjoint()
        assert op.index == (0, 0)
        assert abs(op.phase - 1) < TOL
        # unitarity oracle
        S = spin_matrix(d, *a)
        assert np.allclose(S @ S.conj().T, np.eye(d), atol=TOL)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_power_phases_match_numerics(d):
    for a in itertools.product(range(d), repeat=2):
        S = spin_matrix(d, *a)
        M = np.eye(d, dtype=complex)
        for m in range(d + 1):
            assert np.abs(spin_power(d, a, m).matrix() - M).max() < TOL
            M = M @ S


def test_power_examples():
    assert spin_power(3, (1, 2), 0).index == (0, 0)
    assert spin_power(3, (1, 2), 0).phase == 1
    op = spin_power(3, (1, 2), 1)
    assert op.index == (1, 2) and op.phase == 1
    # S_{1,1}^2 = -S_{0,0} at d=2
    op = spin_power(2, (1, 1), 2)
    assert op.index == (0, 0)
    assert abs(op.phase + 1) < TOL


def test_conjugation_covariance():
    # S_u S_v S_u^dagger = eta^{u o v} S_v
    for d in (2, 3, 5):
        w = eta(d)
        for u in itertools.product(range(d), repeat=2):
            Su = spin_matrix(d, *u)
            for v in itertools.product(range(d), repeat=2):
                Sv = spin_matrix(d, *v)
                sym = (u[1] * v[0] - u[0] * v[1]) % d
                assert np.abs(Su @ Sv @ Su.conj().T - w**sym * Sv).max() < 1e-10


def test_commutation_iff_symplectic_zero():
    for d in (2, 3, 5):
        for u, v in itertools.product(itertools.product(range(d), repeat=2), repeat=2):
            Su, Sv = spin_matrix(d, *u), spin_matrix(d, *v)
            commute = np.abs(Su @ Sv - Sv @ Su).max() < 1e-10
            assert commute == ((u[1] * v[0] - u[0] * v[1]) % d == 0)


def test_alpha_factor():
    assert alpha_factor(2, 1, 1) == -1j
    assert alpha_factor(2, 1, 0) == 1
    assert alpha_factor(3, 1, 1) == 1


def test_projector_qubit_example():
    assert np.allclose(
        spin_projector(2, (1, 0), 0), (SIGMA["I"] + SIGMA["z"]) / 2, atol=TOL
    )
    assert np.allclose(
        spin_projector(2, (1, 0), 1), (SIGMA["I"] - SIGMA["z"]) / 2, atol=TOL
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_projector_family_properties(p):
    for idx in itertools.product(range(p), repeat=2):
        if idx == (0, 0):
            continue
        projs = [spin_projector(p, idx, r) for r in range(p)]
        assert np.allclose(sum(projs), np.eye(p), atol=1e-10)
        for r, Pr in enumerate(projs):
            assert np.allclose(Pr, Pr.conj().T, atol=1e-10)
            assert abs(np.trace(Pr) - 1) < 1e-10
            for s, Ps in enumerate(projs):
                want = Pr if r == s else np.zeros((p, p))
                assert np.abs(Pr @ Ps - want).max() < 1e-10


def test_projector_rejects_identity_index():
    with pytest.raises(ValueError):
        spin_projector(3, (0, 0), 0)


def test_tensor_spin():
    assert np.allclose(tensor_spin(2, (0, 0, 0, 0)), np.eye(4), atol=TOL)
    # direct Kronecker oracle
    want = np.kron(SIGMA["z"], SIGMA["x"])
    assert np.allclose(tensor_spin(2, (1, 0, 0, 1)), want, atol=TOL)
    T = tensor_spin(3, (1, 2, 0, 1))
    assert np.allclose(T @ T.conj().T, np.eye(9), atol=TOL)


def _by_index(coeffs, p, n):
    """(index vector, coefficient) pairs of a code-order coefficient array."""
    return zip(map(tuple, all_index_vectors(p, n).tolist()), coeffs)


def test_decompose_identity():
    coeffs = spin_decompose(np.eye(9, dtype=complex), 3, 2)
    for idx, c in _by_index(coeffs, 3, 2):
        want = 9 if idx == (0, 0, 0, 0) else 0.0
        assert abs(c - want) < TOL


def test_decompose_single_spin():
    # numeric trace oracle: tr(S_u^dagger S_v) = d delta(u,v)
    d = 5
    v = (2, 3)
    coeffs = spin_decompose(spin_matrix(d, *v), d, 1)
    for idx, c in _by_index(coeffs, d, 1):
        want = d if idx == v else 0.0
        assert abs(c - want) < 1e-10


def test_decompose_qubit_bloch():
    rho = 0.5 * (SIGMA["I"] + 0.7 * SIGMA["z"])
    coeffs = spin_decompose(rho, 2, 1)
    assert abs(coeffs[index_code(2, (1, 0))] - 0.7) < TOL


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_decompose_recompose_round_trip(data):
    p, n = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]))
    d = p**n
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    back = spin_recompose(spin_decompose(A, p, n), p, n)
    assert np.abs(back - A).max() < 1e-12 * max(1.0, np.abs(A).max())


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 3), (3, 2), (5, 2)])
def test_coefficient_arrays_round_trip_in_code_order(p, n, rng):
    d = p**n
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    coeffs = spin_decompose(A, p, n)
    assert coeffs.shape == (d * d,) and coeffs.dtype == complex
    # entry code(u) is tr(S_u^dagger A), with S_u a Kronecker product of dense blocks
    S = spin_stack(p, n, all_index_vectors(p, n))
    assert np.abs(coeffs - np.einsum("wji,ji->w", S.conj(), A)).max() < 1e-12 * d
    assert np.abs(spin_recompose(coeffs, p, n) - A).max() < 1e-12 * max(1.0, np.abs(A).max())


def test_spin_matrix_phases_come_from_unit_phases():
    p, m = 251, np.arange(251)
    for j, k in [(1, 0), (250, 3), (97, 250), (-5, -1)]:
        S = spin_matrix(p, j, k)
        # exp of each angle 2 pi jm / p, with jm reduced mod p first
        want = np.exp(2j * np.pi / p * ((j * m) % p))
        assert np.abs(S[m, (m + k) % p] - want).max() <= 1e-15
        assert np.count_nonzero(S) == p
    # qubit phases are exactly +-1
    assert np.array_equal(spin_matrix(2, 1, 0), np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(spin_matrix(2, 1, 1), np.array([[0, 1], [-1, 0]], dtype=complex))


@pytest.mark.parametrize("p", [3, 5, 251])
def test_unit_phases_without_quarter_phases_is_unchanged(p, rng):
    roots = np.exp(2j * np.pi / p * np.arange(p))

    def product(e, i):  # the formula that always multiplies by (-i)^i_exp
        return roots[np.asarray(e) % p] * _MINUS_I_POWERS[np.asarray(i) % 4]

    e = rng.integers(-3 * p, 3 * p, size=(4, 6))
    cases = [
        (e, 0),                                  # no i_exp at all
        (e, np.zeros((4, 6), dtype=int)),        # i_exp of zeros, same shape
        (e[0], np.zeros((3, 1), dtype=int)),     # zeros that broadcast to (3, 6)
        (e[:, :1], np.zeros(6, dtype=int)),      # both sides broadcast
        (7, 0),                                  # scalars
        (e, rng.integers(0, 4, size=(4, 6))),    # quarter phases present
        (e[0], rng.integers(1, 4, size=(2, 1))),
    ]
    for eta_exp, i_exp in cases:
        got, want = unit_phases(p, eta_exp, i_exp), product(eta_exp, i_exp)
        assert np.shape(got) == np.shape(want) and got.dtype == want.dtype
        assert np.array_equal(got, want)
        if np.ndim(got):
            got[...] = 0  # writable, as the product is


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (5, 2), (2, 3)])
def test_index_code_of_a_stack_matches_scalar_loop(p, n):
    def loop_code(iv):  # Horner's rule, one component at a time
        code = 0
        for c in iv:
            code = code * p + int(c) % p
        return code

    vecs = all_index_vectors(p, n)
    assert index_code(p, vecs).tolist() == list(range(p ** (2 * n)))
    shifted = vecs - 2 * p  # negative components reduce mod p
    assert index_code(p, shifted).tolist() == [loop_code(v) for v in shifted]
    assert index_code(p, shifted[:, None, :]).shape == (len(vecs), 1)
    last = index_code(p, tuple(shifted[-1]))
    assert isinstance(last, int) and last == len(vecs) - 1


def _stack_codes(p, M, t=0):
    # the stack formula code_map replaces: code(M v + t) over the (p^k, k) digits of V_k(p)
    M = np.asarray(M, dtype=np.int64)
    return index_code(p, _digits(p, M.shape[1]) @ M.T + t)


def _diag_map(n):
    # rows x_j + y_j, then rows x_j, on the interleaved (x_0, y_0, x_1, ...) axes
    I = np.eye(n, dtype=int)
    return np.vstack([np.kron(I, [1, 1]), np.kron(I, [1, 0])])


def _pair_map(a, b, n):
    # (w, u) -> a w + b u on V_{4n}(p)
    return np.kron([a, b], np.eye(2 * n, dtype=int))


CODE_MAP_CASES = [
    (2, np.eye(1, dtype=int), 0),
    (3, np.eye(4, dtype=int), 0),
    (5, -np.eye(2, dtype=int), 0),
    (3, -np.eye(6, dtype=int), 0),
    (3, np.diag([1, 1, -1, 1]), (0, 0, -1, 0)),
    (13, np.diag([1, 1, -1, 1]), (0, 0, -1, 0)),
    (2, _diag_map(1), 0),
    (3, _diag_map(2), 0),
    (2, _diag_map(4), 0),
    (7, _diag_map(2), 0),
    (2, _pair_map(1, 1, 2), 0),
    (3, _pair_map(1, -1, 2), 0),
    (5, _pair_map(-2, 2, 1), 0),
    (3, _pair_map(-2, 2, 2), 0),
    (3, [[1, 2, -5]], 4),            # one row, three axes
    (5, [[0, 0], [3, -7], [0, 0]], (1, -2, 9)),  # zero rows, per-row shift
    (2, np.zeros((2, 3), dtype=int), 1),
    (7, np.zeros((0, 2), dtype=int), 0),     # no output digits: every code is 0
]


@pytest.mark.parametrize("p,M,t", CODE_MAP_CASES)
def test_code_map_matches_stack_formula(p, M, t):
    got = code_map(p, M, t)
    assert got.dtype == np.int64 and got.shape == (p ** np.shape(M)[1],)
    assert np.array_equal(got, _stack_codes(p, M, t))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_code_map_property(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    k = data.draw(st.integers(1, 4 if p < 7 else 3), label="k")
    m = data.draw(st.integers(0, 5), label="m")
    M = data.draw(hnp.arrays(np.int64, (m, k), elements=st.integers(-3 * p, 3 * p)), label="M")
    M[data.draw(hnp.arrays(bool, m), label="zero rows")] = 0
    M[:, data.draw(hnp.arrays(bool, k), label="zero columns")] = 0
    t = data.draw(st.one_of(st.integers(-50, 50), st.lists(st.integers(-50, 50), min_size=m,
                                                           max_size=m)), label="t")
    assert np.array_equal(code_map(p, M, t), _stack_codes(p, M, t))


# axes per prime, so that each transformed block holds at most a few thousand entries
DFT_AXES = {2: 6, 3: 6, 5: 5, 7: 4, 11: 3, 13: 3, 31: 2}


def _fft_reference(a, signs):
    """digit_dft through numpy's FFTs: unnormalised ifftn over the +1 axes,
    fftn over the -1 axes."""
    plus = [i for i, s in enumerate(signs) if s == 1]
    minus = [i for i, s in enumerate(signs) if s == -1]
    if plus:
        a = np.fft.ifftn(a, axes=plus) * np.prod([a.shape[i] for i in plus])
    if minus:
        a = np.fft.fftn(a, axes=minus)
    return a


def _assert_digit_dft_matches_fft(a, p, signs):
    got = digit_dft(a, p, signs)
    want = _fft_reference(a, signs)
    assert got.shape == a.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("p", sorted(DFT_AXES))
def test_digit_dft_matches_numpy_fft(p, rng):
    for k in range(1, DFT_AXES[p] + 1):
        for lead, trail in itertools.product(((), (2,)), ((), (3,))):
            shape = lead + (p,) * k + trail
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for signs in itertools.product((-1, 0, 1), repeat=k):
                full = (0,) * len(lead) + signs + (0,) * len(trail)
                _assert_digit_dft_matches_fft(a, p, full)


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_digit_dft_property(data):
    p = data.draw(st.sampled_from(sorted(DFT_AXES)))
    k = data.draw(st.integers(1, DFT_AXES[p]))
    signs = tuple(data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=k, max_size=k)))
    lead = tuple(data.draw(st.lists(st.integers(1, 5), max_size=1)))
    trail = tuple(data.draw(st.lists(st.integers(1, 5), max_size=1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = lead + (p,) * k + trail
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    _assert_digit_dft_matches_fft(a, p, (0,) * len(lead) + signs + (0,) * len(trail))


def test_digit_dft_needs_one_sign_per_axis():
    with pytest.raises(ValueError, match="signs"):
        digit_dft(np.zeros((3, 3)), 3, (1,))


@pytest.mark.parametrize("p,n", [(3, 5), (2, 8)])
def test_transforms_beyond_the_dense_oracle(p, n, rng):
    # d = 243 and 256: tr(A S_w) = sum_m A[m+y, m] eta^{x.m} from digits, at 64 seeded w
    d = p**n
    basis = SpinBasis(p, n)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    got = basis.traces(A)
    m = _digits(p, n)
    for code in rng.choice(d * d, size=64, replace=False):
        w = np.array(np.unravel_index(code, (p,) * (2 * n)))
        x, y = w[0::2], w[1::2]
        want = (A[index_code(p, m + y), index_code(p, m)] * unit_phases(p, m @ x)).sum()
        assert abs(got[code] - want) < 1e-12
    assert np.abs(spin_recompose(spin_decompose(A, p, n), p, n) - A).max() < 1e-12
