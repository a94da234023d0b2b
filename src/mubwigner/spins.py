"""Generalized spin matrices on H_d and their exact phase algebra.

The unitary basis is S_{j,k} = sum_m eta^{jm} |m><m+k| with eta = e^{2 pi i/d}
and index arithmetic mod d. Tensor products over n subsystems of dimension p
are indexed by vectors in V_{2n}(p). Products, powers and adjoints close on
the set {eta_p^a (-i)^b S_index}, so phases are carried as integer exponents;
each S_w is monomial, so basis-wide traces and sums are a gather plus a
digit DFT (SpinBasis, digit_dft): V_{2n}(p) is a product of 2n copies of Z_p,
so every table transform is a length-p DFT along each of its axes. Code order
is the C order of that grid, so each index table is a digit map (code_map).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import is_prime, FieldError


def eta(d: int) -> complex:
    if d == 1:
        return 1.0 + 0j
    if d == 2:
        return -1.0 + 0j
    return np.exp(2j * np.pi / d)


def spin_matrix(d: int, j: int, k: int) -> np.ndarray:
    """S_{j,k} = sum_m eta^{jm} |m><m+k| (unitary; S_{0,0} is the identity)."""
    j %= d
    k %= d
    S = np.zeros((d, d), dtype=complex)
    w = eta(d)
    for m in range(d):
        S[m, (m + k) % d] = w ** (j * m)
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
    """eta_p^eta_exp * (-i)^i_exp, elementwise over integer exponent arrays."""
    i_exp = np.asarray(i_exp)
    if p == 2:  # keep qubit phases exact: eta_2 = -1 = (-i)^2
        return _MINUS_I_POWERS[(2 * np.asarray(eta_exp) + i_exp) % 4]
    # exp of each angle, not powers of eta(p), whose error grows with p (5e-15 at p=251)
    roots = np.exp(2j * np.pi / p * np.arange(p))
    return roots[np.asarray(eta_exp) % p] * _MINUS_I_POWERS[i_exp % 4]


def _binom2(m: int) -> int:
    # integer m(m-1)/2, evaluated before any reduction mod p
    return (m * (m - 1)) // 2


@dataclass(frozen=True)
class PhasedOperator:
    """eta_p^eta_exp * (-i)^i_exp * S_index on (C^p)^{tensor n}.

    index has length 2n, blocks (x^(j), y^(j)). i_exp is only ever nonzero
    for p = 2, where the alpha factors introduce quarter phases.
    """

    p: int
    n: int
    index: tuple
    eta_exp: int = 0
    i_exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(c % self.p for c in self.index))
        object.__setattr__(self, "eta_exp", self.eta_exp % self.p)
        object.__setattr__(self, "i_exp", self.i_exp % 4)
        if len(self.index) != 2 * self.n:
            raise ValueError(f"index must have {2 * self.n} components")

    @property
    def phase(self) -> complex:
        return complex(unit_phases(self.p, self.eta_exp, self.i_exp))

    def __matmul__(self, other: "PhasedOperator") -> "PhasedOperator":
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("dimension mismatch")
        e = self.eta_exp + other.eta_exp
        for b in range(self.n):
            # per block: S_{j,k} S_{s,t} = eta^{ks} S_{j+s, k+t}
            e += self.index[2 * b + 1] * other.index[2 * b]
        idx = tuple(a + b for a, b in zip(self.index, other.index))
        return PhasedOperator(self.p, self.n, idx, e, self.i_exp + other.i_exp)

    def power(self, m: int) -> "PhasedOperator":
        if m < 0:
            raise ValueError("power must be non-negative")
        e = m * self.eta_exp
        for b in range(self.n):
            # S_{j,k}^m = eta^{m(m-1)jk/2} S_{mj,mk}; the binomial is an integer
            e += _binom2(m) * self.index[2 * b] * self.index[2 * b + 1]
        idx = tuple(m * c for c in self.index)
        return PhasedOperator(self.p, self.n, idx, e, m * self.i_exp)

    def adjoint(self) -> "PhasedOperator":
        e = -self.eta_exp
        for b in range(self.n):
            # S_{j,k}^dagger = eta^{jk} S_{-j,-k}
            e += self.index[2 * b] * self.index[2 * b + 1]
        idx = tuple(-c for c in self.index)
        return PhasedOperator(self.p, self.n, idx, e, -self.i_exp)

    def matrix(self) -> np.ndarray:
        M = np.eye(1, dtype=complex)
        for b in range(self.n):
            M = np.kron(M, spin_matrix(self.p, self.index[2 * b], self.index[2 * b + 1]))
        return self.phase * M


def phased_spin(p: int, index: tuple, with_alpha: bool = False) -> PhasedOperator:
    """Phase-free S_index, or the alpha-corrected version for p=2.

    With ``with_alpha`` every qubit block equal to (1,1) contributes one power
    of -i, so the resulting operator squares to the identity.
    """
    n = len(index) // 2
    if len(index) != 2 * n:
        raise ValueError("index must have even length")
    i_exp = 0
    if with_alpha and p == 2:
        i_exp = sum(
            1 for b in range(n) if (index[2 * b] % 2, index[2 * b + 1] % 2) == (1, 1)
        )
    return PhasedOperator(p, n, tuple(index), 0, i_exp)


def spin_product(p: int, a: tuple, b: tuple) -> PhasedOperator:
    """S_a S_b as an exact PhasedOperator; a, b in V_2(p) or V_{2n}(p)."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return phased_spin(p, a) @ phased_spin(p, b)


def spin_power(p: int, idx: tuple, m: int) -> PhasedOperator:
    """S_idx^m as an exact PhasedOperator."""
    return phased_spin(p, idx).power(m)


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
    K = alpha_factor(p, j, k) * eta(p) ** (r % p) * spin_matrix(p, j, k)
    P = np.zeros((p, p), dtype=complex)
    M = np.eye(p, dtype=complex)
    for _ in range(p):
        P += M
        M = M @ K
    return P / p


def tensor_spin(p: int, iv: tuple) -> np.ndarray:
    """Kronecker product of single-subsystem spin matrices, block 0 leftmost."""
    return phased_spin(p, tuple(iv)).matrix()


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
    diagonals of A into the (m, y) slots of V_{2n}(p), then a digit DFT of
    sign +1 over the m axes, which turns each m into x in place.
    """

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.n = n
        self.dim = p**n
        # _diag[code(m, y)] = flat position of entry (m + y, m) of a d x d matrix, code(m + y, m)
        M = np.vstack([np.eye(n, dtype=int).repeat(2, axis=1), np.eye(2 * n, dtype=int)[0::2]])
        self._diag = frozen(code_map(p, M))
        # sum_m eta^{x.m} over the m axes, the even axes of a code-order table
        self._shape, self._signs = (p,) * (2 * n), (1, 0) * n

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """All index vectors, (p^{2n}, 2n) in code order; read-only, built on first read."""
        return frozen(all_index_vectors(self.p, self.n))

    def traces(self, A: np.ndarray) -> np.ndarray:
        """tr(A S_w) for every index vector w, in code order."""
        a = np.asarray(A, dtype=complex).ravel()[self._diag]
        return digit_dft(a.reshape(self._shape), self.p, self._signs).ravel()

    def combine(self, c: np.ndarray) -> np.ndarray:
        """sum_w c_w S_w for coefficients c in code order, the inverse
        scatter of traces: entry (m, m+y) is sum_x c_{x,y} eta^{x.m}."""
        d = self.dim
        M = np.zeros(d * d, dtype=complex)
        M[self._diag] = digit_dft(np.reshape(c, self._shape), self.p, self._signs).ravel()
        return M.reshape(d, d).T


def spin_decompose(A: np.ndarray, p: int, n: int) -> dict:
    """Coefficients s_u = tr(S_u^dagger A), so that A = (1/p^n) sum s_u S_u."""
    A = np.asarray(A, dtype=complex)
    d = p**n
    if A.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got {A.shape}")
    basis = spin_basis(p, n)
    coeffs = np.conj(basis.traces(A.conj().T))
    return dict(zip(map(tuple, basis.vectors.tolist()), coeffs))


def spin_recompose(coeffs: dict, p: int, n: int) -> np.ndarray:
    """Inverse of spin_decompose."""
    basis = spin_basis(p, n)
    return basis.combine([coeffs[iv] for iv in map(tuple, basis.vectors.tolist())]) / basis.dim
