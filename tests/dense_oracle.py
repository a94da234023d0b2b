"""Dense and scalar reference constructions for tests at small d.

The library is matrix-free and carries phases as integer exponent arrays;
these build the objects it avoids, from independent pieces. PhasedOperator
is the scalar phase algebra of spin operators, one exact exponent product,
power and adjoint at a time: the reference that the library's exponent
arrays (mub.member_phases, the kernel's eta_exp and i_exp) must equal
exactly. The dense pieces are every S_w as a Kronecker product of
single-subsystem matrices (PhasedOperator.matrix), the symplectic Fourier
matrix eta^{v o w} / N from the kernel's index vectors, and each MUB
projector as a product of powers of dense generator matrices. Memory grows
as d^4, so keep them to d <= 27.

The field route to the geometry lives here too, with the trace as a sum of
Frobenius conjugates, the dual basis by elimination, and the partial transpose
as an index reshuffle: the symplectic products over the field and over
V_{2n}(p), the map M and the class generators g_r(alpha) = M(lambda^r u_alpha)
by FieldElement arithmetic, one product at a time, and each point's shifted
outcome code from the symplectic products with the generators; the library
builds both as integer arrays. Each class subspace is spelled out as a dict,
and the index equation is solved for one w by a search of the class codes.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from mubwigner.fields import FieldError, FieldElement, GaloisField, is_prime, prime_inverse
from mubwigner.geometry import _span
from mubwigner.mub import class_members
from mubwigner.spins import index_code, spin_matrix, unit_phases
from mubwigner.wigner import WignerTable, wigner_kernel


def eta(d: int) -> complex:
    """e^{2 pi i / d}, exactly 1 at d = 1 and -1 at d = 2."""
    if d == 1:
        return 1.0 + 0j
    if d == 2:
        return -1.0 + 0j
    return np.exp(2j * np.pi / d)


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


def frobenius_trace(field, a) -> int:
    """tr(a) = a + a^p + ... + a^{p^{n-1}}, which must land in Z_p."""
    acc, b = field.zero, a
    for _ in range(field.n):
        acc, b = acc + b, b**field.p
    if any(c != 0 for c in acc.coeffs[1:]):
        raise FieldError("trace did not land in the prime field")
    return acc.coeffs[0]


@functools.lru_cache(maxsize=None)
def dual_basis(field: GaloisField) -> tuple[FieldElement, ...]:
    """Basis g_0..g_{n-1} with tr(lambda^j g_k) = delta(j,k).

    Solves the n x n linear system given by the trace form over Z_p.
    """
    n, p = field.n, field.p
    # T[j][m] = tr(lambda^{j+m}); solve T G = I mod p by Gauss-Jordan
    T = [[field.trace_power(j + m) % p for m in range(n)] for j in range(n)]
    G = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if T[r][col] % p != 0), None)
        if piv is None:
            raise FieldError("trace form is singular")  # impossible for a field
        T[col], T[piv] = T[piv], T[col]
        G[col], G[piv] = G[piv], G[col]
        inv = prime_inverse(T[col][col], p)
        T[col] = [(x * inv) % p for x in T[col]]
        G[col] = [(x * inv) % p for x in G[col]]
        for r in range(n):
            if r != col and T[r][col]:
                f = T[r][col]
                T[r] = [(x - f * y) % p for x, y in zip(T[r], T[col])]
                G[r] = [(x - f * y) % p for x, y in zip(G[r], G[col])]
    # column k of the solved system gives the coefficients of g_k
    return tuple(FieldElement(field, [G[m][k] for m in range(n)]) for k in range(n))


def symplectic(u, v) -> FieldElement:
    """(j,k) o (s,t) = ks - jt over the field."""
    j, k = u
    s, t = v
    if j.field != s.field:
        raise FieldError("field mismatch")
    return k * s - j * t


def vector_symplectic(u, v, p: int) -> int:
    """Blockwise symplectic sum over V_{2n}(p)."""
    if len(u) != len(v) or len(u) % 2:
        raise ValueError("shape mismatch")
    acc = 0
    for b in range(len(u) // 2):
        acc += u[2 * b + 1] * v[2 * b] - u[2 * b] * v[2 * b + 1]
    return acc % p


def subspace_points(geom, alpha):
    """b-tuple -> point of the alpha subspace (coefficients recoverable)."""
    b = itertools.product(range(geom.p), repeat=geom.n)
    return dict(zip(b, map(tuple, _span(geom.generators(alpha), geom.p).tolist())))


def decompose(geom, w):
    """Solve w = sum_r b_r g_r(alpha) for (alpha, b), a search of codes;
    w=0 maps to (0, 0), its first entry."""
    code = index_code(geom.p, geom.index_vectors(w))
    alpha, b = divmod(int(np.argmax(geom.codes == code)), geom.dim)
    return alpha, tuple(int(c) for c in np.unravel_index(b, (geom.p,) * geom.n))


def wigner_maximally_entangled(p):
    """Closed form for the maximally entangled state, odd p, separable
    convention: (1/p^2) on the p^2 points with x1 = -1 - x0 and y1 = y0."""
    if p == 2 or not is_prime(p):
        raise ValueError("closed form is stated for odd primes")
    v = wigner_kernel(p, 2, "separable").vectors
    on = ((1 + v[:, 0] + v[:, 2]) % p == 0) & (v[:, 1] == v[:, 3])
    return WignerTable(p, 2, "separable", on / p**2 + 0j)


def partial_transpose_matrix(rho, p):
    """Entrywise partial transpose on the second subsystem of H_p (x) H_p."""
    rho = np.asarray(rho, dtype=complex).reshape(p, p, p, p)
    return rho.transpose(0, 3, 2, 1).reshape(p * p, p * p)


def generating_vectors(field):
    """The p^n + 1 class representatives u_alpha = (1, alpha), then (0, 1)."""
    out = [(field.one, field.from_int(a)) for a in range(field.order)]
    out.append((field.zero, field.one))
    return out


def m_map(field, point):
    """Expand (x, y) as sum x^(j) e_j + y^(j) f_j and interleave coordinates.

    e_j = lambda^j (1,0) so x^(j) is just the j-th coefficient of x; the dual
    basis gives y^(j) = tr(lambda^j y).
    """
    x, y = point
    if x.field != field or y.field != field:
        raise FieldError("field mismatch")
    out = []
    for j in range(field.n):
        out.append(x.coeffs[j])
        out.append(field.trace(field.lam**j * y) if field.n > 1 else field.trace(y))
    return tuple(out)


def generator_set(field, alpha):
    """g_r(alpha) = M(lambda^r u_alpha) as a tuple of n index vectors; the
    vertical class uses the dual basis, so its blocks are (0, delta(j,r))."""
    n = field.n
    if alpha == field.order:
        return tuple(
            tuple(1 if i == 2 * r + 1 else 0 for i in range(2 * n)) for r in range(n)
        )
    if not 0 <= alpha < field.order:
        raise ValueError(f"invalid class label {alpha}")
    a = field.from_int(alpha)
    lam = field.lam if n > 1 else field.one
    return tuple(
        m_map(field, (lam**r, lam**r * a) if n > 1 else (field.one, a)) for r in range(n)
    )


def commuting_class(geom, alpha):
    """b-tuple -> PhasedOperator prod_r S_{g_r(alpha)}^{b_r}, exact phases."""
    p, n = geom.p, geom.n
    w, e, i_exp = class_members(geom, alpha, with_alpha=False)
    b = itertools.product(range(p), repeat=n)
    return {
        bb: PhasedOperator(p, n, tuple(wb), eb, ib)
        for bb, wb, eb, ib in zip(b, w.tolist(), e.tolist(), i_exp.tolist())
    }


def outcome_codes(kernel, alpha):
    """Per index vector u, the big-endian code of the shifted outcome
    (u o g_j(alpha) + r_j(alpha))_j, from all N symplectic products: the
    line of class alpha through u, in the outcome order of class_vectors."""
    gens = kernel.geom.gens[alpha]
    X, Y = kernel.vectors[:, 0::2], kernel.vectors[:, 1::2]
    gX, gY = gens[:, 0::2], gens[:, 1::2]
    symp = Y @ gX.T - X @ gY.T  # [u, j] = u o g_j(alpha)
    shifted = (symp + kernel.shifts[alpha]) % kernel.p
    return shifted @ kernel.p ** np.arange(kernel.n - 1, -1, -1)


def kernel_ops(kernel):
    """Every kernel operator as a PhasedOperator, in code order: the dynamics
    closed form, or for the generator route the products prod_r (eta^{r_r}
    T_r)^{b_r} over every class, taking the first operator for each code."""
    p, n = kernel.p, kernel.n
    if kernel.convention == "dynamics":
        inv2 = prime_inverse(2, p) if p % 2 else 0
        ww = (kernel.vectors[:, 0::2] * kernel.vectors[:, 1::2]).sum(axis=1).tolist()
        vecs = map(tuple, kernel.vectors.tolist())
        if p == 2:
            return [PhasedOperator(p, n, w, 0, e) for w, e in zip(vecs, ww)]
        return [PhasedOperator(p, n, w, inv2 * e, 0) for w, e in zip(vecs, ww)]
    geom = kernel.geom
    identity = PhasedOperator(p, n, (0,) * (2 * n))
    found = []
    for alpha in range(geom.num_classes):
        gens = class_generator_ops(geom, alpha)
        shifts = kernel.shifts[alpha].tolist()
        for b in itertools.product(range(p), repeat=n):
            acc = identity
            phase = 0
            for r, br in enumerate(b):
                acc = acc @ gens[r].power(br)
                phase += shifts[r] * br
            found.append(PhasedOperator(p, n, acc.index, acc.eta_exp + phase, acc.i_exp))
    codes, first = np.unique(index_code(p, [op.index for op in found]), return_index=True)
    assert len(codes) == kernel.N
    return [found[i] for i in first]


def kernel_op(kernel, i):
    """Kernel operator i (code order) as a PhasedOperator, read from the
    kernel's exponent arrays."""
    return PhasedOperator(
        kernel.p, kernel.n, tuple(kernel.vectors[i].tolist()),
        int(kernel.eta_exp[i]), int(kernel.i_exp[i]),
    )


def spin_stack(p, n, vectors):
    """S_w for every row w of `vectors`: shape (N, d, d)."""
    return np.array([PhasedOperator(p, n, tuple(w)).matrix() for w in vectors])


def ft_matrix(kernel):
    """[v, w] = eta^{v o w} / N, with v o w = sum_b v_y w_x - v_x w_y."""
    X, Y = kernel.vectors[:, 0::2], kernel.vectors[:, 1::2]
    return eta(kernel.p) ** ((Y @ X.T - X @ Y.T) % kernel.p) / kernel.N


class DenseKernel:
    """The transforms of one WignerKernel, by dense linear algebra."""

    def __init__(self, kernel):
        self.k = kernel
        self.S = spin_stack(kernel.p, kernel.n, kernel.vectors)
        self.ft = ft_matrix(kernel)

    def traces(self, A):
        return np.einsum("ij,wji->w", A, self.S)

    def combine(self, c):
        return np.tensordot(c, self.S, axes=(0, 0))

    def char_function(self, rho):
        return self.k.phases * self.traces(rho)

    def wigner_from_char(self, chi):
        return self.ft @ chi

    def char_from_wigner(self, W):
        return self.k.N * (self.ft.conj().T @ W)

    def reconstruct_density(self, W):
        chi = self.char_from_wigner(W)
        G_dag = np.conj(self.k.phases[:, None, None] * self.S).transpose(0, 2, 1)
        return np.tensordot(chi, G_dag, axes=(0, 0)) / self.k.dim


def class_generator_ops(geom, alpha):
    """The alpha-corrected generator operators T_r; each satisfies T_r^p = 1."""
    return [phased_spin(geom.p, g, with_alpha=True) for g in geom.gens[alpha].tolist()]


def mub_projector_matrix(geom, alpha, s):
    """P_alpha(s) = prod_r (1/p) sum_b (eta^{s_r} T_r)^b, from dense powers of
    the Kronecker-product generator matrices."""
    p, d = geom.p, geom.dim
    P = np.eye(d, dtype=complex)
    for r, T in enumerate(class_generator_ops(geom, alpha)):
        Tm = T.matrix()
        acc = np.zeros((d, d), dtype=complex)
        M = np.eye(d, dtype=complex)
        for b in range(p):
            acc += eta(p) ** ((s[r] % p) * b) * M
            M = M @ Tm
        P = P @ (acc / p)
    return P


def projector_a_stack(kernel):
    """The paper's A(u) = p^{-n}(-I + sum_alpha P_alpha(s_alpha(u))), with
    s_alpha(u) the shifted outcome of u's line in class alpha (outcome_codes)
    and every projector from mub_projector_matrix: shape (N, d, d). Needs the
    kernel's generator-route shifts."""
    geom, d = kernel.geom, kernel.dim
    stack = np.zeros((kernel.N, d, d), dtype=complex) - np.eye(d)
    for alpha in range(geom.num_classes):
        codes = outcome_codes(kernel, alpha)
        for c, s in enumerate(itertools.product(range(geom.p), repeat=geom.n)):
            stack[codes == c] += mub_projector_matrix(geom, alpha, s)
    return stack / d
