"""Generalized spin matrices on H_d, held matrix-free.

The unitary basis is S_{j,k} = sum_m eta^{jm} |m><m+k| with eta = e^{2 pi i/d}
and index arithmetic mod d. Tensor products over n subsystems of dimension p
are indexed by vectors in V_{2n}(p). Products, powers and adjoints close on
the set {eta_p^a (-i)^b S_index}, so phases are integer exponent arrays
(mub.member_phases for products of generator powers, the kernel's eta_exp
and i_exp), turned into numbers only by unit_phases. Each S_w is monomial,
so basis-wide traces and sums are a gather plus a digit DFT (SpinBasis,
digit_dft): V_{2n}(p) is a product of 2n copies of Z_p, so every table
transform is a length-p DFT along each of its axes. Code order is the C
order of that grid, so each index table is a digit map (code_map), and spin
coefficients are arrays in code order. The dense matrices here (spin_matrix,
tensor_spin, spin_projector) are for small d only.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import is_prime, FieldError


def spin_matrix(d: int, j: int, k: int) -> np.ndarray:
    """S_{j,k} = sum_m eta^{jm} |m><m+k| (unitary; S_{0,0} is the identity)."""
    j, k, m = j % d, k % d, np.arange(d)
    S = np.zeros((d, d), dtype=complex)
    S[m, (m + k) % d] = unit_phases(d, j * m)
    return S


def alpha_factor(p: int, j: int, k: int) -> complex:
    """-i for the single awkward qubit index (1,1); 1 everywhere else.

    Needed because S_{1,1}^2 = -S_{0,0} at p=2 while S^p = S_{0,0} for odd p.
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if p == 2 and (j % 2, k % 2) == (1, 1):
        return -1j
    return 1.0


# built as (-1j) ** k so that signed zeros match Python complex powers
_MINUS_I_POWERS = np.array([(-1j) ** k for k in range(4)])


def unit_phases(p: int, eta_exp, i_exp=0):
    """eta_p^eta_exp * (-i)^i_exp, elementwise over integer exponent arrays
    (p may be any modulus >= 1)."""
    i_exp = np.asarray(i_exp)
    if p == 2:  # keep qubit phases exact: eta_2 = -1 = (-i)^2
        return _MINUS_I_POWERS[(2 * np.asarray(eta_exp) + i_exp) % 4]
    # exp of each angle, not powers of eta(p), whose error grows with p (5e-15 at p=251)
    roots = np.exp(2j * np.pi / p * np.arange(p))
    out = roots[np.asarray(eta_exp) % p]
    if i_exp.any():
        return out * _MINUS_I_POWERS[i_exp % 4]
    # (-i)^0 = 1 changes no entry, so only the broadcast shape is kept
    shape = np.broadcast_shapes(np.shape(out), i_exp.shape)
    return out if np.shape(out) == shape else np.broadcast_to(out, shape).copy()


def spin_projector(p: int, idx: tuple, r: int) -> np.ndarray:
    """Rank-1 projector P_{j,k}(r) = (1/p) sum_m (alpha_p eta^r S_{j,k})^m.

    Only defined for prime p and idx != (0,0); for composite d the same sum
    yields rank-1 operators that fail orthogonality, so it is not exposed.
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    j, k = idx[0] % p, idx[1] % p
    if (j, k) == (0, 0):
        raise ValueError("projector requires a non-identity index")
    K = alpha_factor(p, j, k) * unit_phases(p, r) * spin_matrix(p, j, k)
    P = np.zeros((p, p), dtype=complex)
    M = np.eye(p, dtype=complex)
    for _ in range(p):
        P += M
        M = M @ K
    return P / p


def tensor_spin(p: int, iv: tuple) -> np.ndarray:
    """Kronecker product of single-subsystem spin matrices, block 0 leftmost."""
    iv = tuple(iv)
    if len(iv) % 2:
        raise ValueError("index must have even length")
    blocks = [spin_matrix(p, j, k) for j, k in zip(iv[0::2], iv[1::2])]
    return functools.reduce(np.kron, blocks, np.eye(1, dtype=complex))


def _digits(p: int, n: int) -> np.ndarray:
    """All vectors of V_n(p), shape (p^n, n), in big-endian code order."""
    return np.indices((p,) * n).reshape(n, -1).T


def all_index_vectors(p: int, n: int) -> np.ndarray:
    """All p^{2n} vectors of V_{2n}(p), in lexicographic (big-endian) order."""
    return _digits(p, 2 * n).copy()


def index_code(p: int, iv):
    """Big-endian base-p code of an index vector; for a stack of vectors
    (last axis = components) the array of codes, in one integer dot."""
    a = np.asarray(iv, dtype=np.int64) % p
    codes = a @ p ** np.arange(a.shape[-1] - 1, -1, -1, dtype=np.int64)
    return int(codes) if codes.ndim == 0 else codes


def code_map(p: int, M, t=0) -> np.ndarray:
    """code(M v + t mod p) for every v in V_k(p), in code order, as int64, for
    an integer (m, k) matrix M: digit by digit, each a broadcast sum over the
    axes its row of M touches, so no (p^k, k) stack of vectors is made."""
    M = np.asarray(M, dtype=np.int64)
    k = M.shape[1]
    axes = [np.arange(p, dtype=np.int64).reshape((p,) + (1,) * (k - 1 - j)) for j in range(k)]
    code = np.int64(0)
    for row, c in zip(M.tolist(), (np.zeros(len(M), dtype=np.int64) + t).tolist()):
        code = code * p + sum((a * axes[j] for j, a in enumerate(row) if a), c) % p
    return np.broadcast_to(code, (p,) * k).ravel()


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only and return it."""
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=64)
def _characters(p: int, sign: int) -> np.ndarray:
    """The p x p character table F[x, m] = eta_p^{sign x m}, read-only."""
    x = np.arange(p)
    return frozen(unit_phases(p, sign * np.outer(x, x)))


def digit_dft(a, p: int, signs) -> np.ndarray:
    """Unnormalised DFT over Z_p along every axis of `a` whose sign is +1 or
    -1: out[.., x, ..] = sum_m eta_p^{sign x m} a[.., m, ..]; an axis of sign
    0 is a batch axis of any length and is left alone.

    Each axis in turn is brought to the front (a reshape to (size, -1)) and
    moved to the back (.T) by a product with the p x p character table
    F[x, m] = eta_p^{sign x m}, which writes its result in the new order; a
    batch axis is moved by a copy. After one pass the axes are in their own
    order again. That is one p x p product per axis, O(size(a) p): O(d^2 n p)
    for a table on V_{2n}(p), which is O(d^2 log d) at fixed p. For n = 1
    the one product is a p x p matrix product, O(p^3), so an FFT overtakes
    it at large p: with one OpenBLAS thread on a Xeon core the two are level
    near p = 150, and at p = 499 the product takes about twice as long. F
    comes from unit_phases, so p = 2 stays exact.
    """
    a = np.asarray(a, dtype=complex)
    shape = a.shape
    if len(signs) != len(shape):
        raise ValueError(f"{len(signs)} signs for an array of {len(shape)} axes")
    for size, sign in zip(shape, signs):
        a = a.reshape(size, -1).T
        if sign:  # F is symmetric, so this is (F @ a.T).T, written contiguous
            a = a @ _characters(p, sign)
    return a.reshape(shape)


@functools.lru_cache(maxsize=32)
def spin_basis(p: int, n: int) -> "SpinBasis":
    return SpinBasis(p, n)


class SpinBasis:
    """All tensor spin matrices of one (p, n), held matrix-free.

    S_w for w = (x, y) blockwise is monomial, S_w[m, m+y] = eta^{x.m}, so
    tr(A S_w) = sum_m A[m+y, m] eta^{x.m}: a gather along the cyclic
    diagonals of A into an (m digits, y code) grid, then one digit_dft with
    sign +1 on the n m axes, which turns them into x, and y as a batch axis;
    one permutation puts the (x digits, y digits) grid in code order.
    """

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.n = n
        self.dim = p**n
        # _gather[m digits, code(y)] = flat position of entry (m + y, m) of a d x d matrix
        M = np.kron([[1, 1], [1, 0]], np.eye(n, dtype=int))  # rows m + y, then m
        self._gather = frozen(code_map(p, M).reshape((p,) * n + (self.dim,)))
        self._signs = (1,) * n + (0,)  # digit_dft takes the m axes to x; y is a batch axis
        # _xy: the x axes, then the y axes, of a code order table (combine's layout)
        self._xy = (*range(0, 2 * n, 2), *range(1, 2 * n, 2))
        # the digit DFT leaves the (x digits, y) grid in (y, x digits) memory order, read
        # through its transpose: _to_code[code(w)] = the slot of w = (x, y) in (y, x) order
        self._yx = (n, *range(n))
        yx = (*range(1, 2 * n, 2), *range(0, 2 * n, 2))
        self._to_code = frozen(code_map(p, np.eye(2 * n, dtype=int)[list(yx)]))

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """All index vectors, (p^{2n}, 2n) in code order; read-only, built on first read."""
        return frozen(all_index_vectors(self.p, self.n))

    def traces(self, A: np.ndarray) -> np.ndarray:
        """tr(A S_w) for every index vector w, in code order."""
        a = np.asarray(A, dtype=complex).ravel()[self._gather]
        return digit_dft(a, self.p, self._signs).transpose(self._yx).ravel()[self._to_code]

    def combine(self, c: np.ndarray) -> np.ndarray:
        """sum_w c_w S_w for coefficients c in code order, the inverse
        scatter of traces: entry (m, m+y) is sum_x c_{x,y} eta^{x.m}."""
        c = np.asarray(c, dtype=complex).reshape((self.p,) * (2 * self.n)).transpose(self._xy)
        M = np.zeros(self.dim**2, dtype=complex)
        M[self._gather] = digit_dft(c.reshape(self._gather.shape), self.p, self._signs)
        return M.reshape(self.dim, -1).T


def spin_decompose(A: np.ndarray, p: int, n: int) -> np.ndarray:
    """Coefficients s_u = tr(S_u^dagger A) in code order, so that
    A = (1/p^n) sum s_u S_u."""
    A = np.asarray(A, dtype=complex)
    d = p**n
    if A.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got {A.shape}")
    return np.conj(spin_basis(p, n).traces(A.conj().T))


def spin_recompose(coeffs, p: int, n: int) -> np.ndarray:
    """(1/p^n) sum_u s_u S_u for coefficients in code order; inverts spin_decompose."""
    basis = spin_basis(p, n)
    return basis.combine(coeffs) / basis.dim
