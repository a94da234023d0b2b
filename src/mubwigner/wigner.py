"""Characteristic functions and discrete Wigner functions on V_{2n}(p).

A convention fixes, for every index vector w, an exact unit phase phi(w) such
that the characteristic kernel is G(w) = phi(w) S_w with G(-w) = G(w)^dagger.
For the generator-route conventions the kernel is the phased product of
generator powers prod_r (eta^{r_r(alpha)} T_alpha,r)^{b_r} where w decomposes
as sum_r b_r g_r(alpha) (the index equation) and T are the alpha-corrected
generator operators. The phases are held as integer exponent arrays,
phi = eta^eta_exp (-i)^i_exp, built for all classes in one stacked call of
mub.member_phases on the geometry's generators and scattered into code order
through its class-code table. Conventions:

  plain      no shifts (r = 0 everywhere); the n=1 textbook choice
  separable  odd p; shifts r_r(alpha) = -2^{-1} sum_{j != r} y_j^{(r)}(alpha)
             and -2^{-1} on the vertical class, which make the kernel factor
             blockwise so Wigner functions of product states factor
  p2-left    p=2, n=2; shifts (0, a_0): the product law holds with the second
             factor transposed
  p2-right   p=2, n=2; shifts (a_1, 0): transpose lands on the first factor
  dynamics   closed form eta^{2^{-1}<w,w>} S_w (odd p) or (-i)^{<w,w>} S_w
             (p=2), the phase family used for Hamiltonian evolution

Wigner tables are the symplectic Fourier transform of characteristic tables,
W(v) = p^{-2n} sum_w eta^{v o w} chi(w), computed as one digit DFT over the
2n axes of V_{2n}(p) (spins.digit_dft: a p x p character product per axis,
O(d^2 n p); for n = 1 that is O(p^3), and an FFT would win above p of about
150); conventions differ only by the kernel phases. Marginals over shifted
isotropic subspaces reproduce the MUB outcome probabilities in every
convention. Those line sums are the Fourier slice of chi: on the subspace of
class alpha, tr[rho P_alpha(s)] = p^{-n} sum_b eta^{(s - r(alpha)).b}
chi(sum_r b_r g_r(alpha)), so all (p^n + 1) p^n marginals of a table are one
digit DFT over the n digits of b, taken the first time any marginal is asked
for and kept, in the big-endian outcome order of class_vectors; the shift
phases eta^{-r(alpha).b} are a kernel constant. class_marginals reads that
array; marginal_along reads frozen rows of Python floats (None where the
entry is not real), built from it once per table, so each lookup is one tuple
index. Characteristic and Wigner tables share one immutable base, which checks
what enters (p^{2n} values, a convention valid at (p, n)), compares and
hashes by identity, and holds one read-only array from the start: a copy of
the values it is given or, for a table made by char_function or evolve, its
density. Every derived array, a table's values, density or marginals as
well as the kernel's gathers code(-w) and the odd-p partial transpose
x_1 -> -1 - x_1, is a cached property, built read-only on first read.
wigner_function computes W from rho at once and keeps no density. The
gathers are digit maps (spins.code_map), built without the (N, 2n) vectors,
which are made only when read. The A operators,
in every convention, are translates of A(0), built on request.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fields import FieldError, is_prime, prime_inverse
from .geometry import PhaseGeometry, phase_geometry
from .mub import member_phases
from .spins import _digits, code_map, digit_dft, frozen, index_code, spin_basis
from .spins import spin_decompose, unit_phases

CONVENTIONS = ("plain", "separable", "p2-left", "p2-right", "dynamics")
ZERO_TOL = 1e-10
HERMITIAN_TOL = 1e-8  # max|rho - rho^dagger| that positivity_check accepts


class ConventionError(ValueError):
    """Table built in one phase convention used where another is required."""


def default_convention(p: int, n: int) -> str:
    if n == 1:
        return "plain"
    if p % 2 == 1:
        return "separable"
    if n == 2:
        return "p2-left"
    return "plain"


def _validate_convention(p: int, n: int, convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ConventionError(f"unknown convention {convention!r}")
    if convention == "separable" and p == 2:
        raise ConventionError("the separable convention needs an odd prime")
    if convention in ("p2-left", "p2-right") and (p, n) != (2, 2):
        raise ConventionError(f"{convention} is only defined for p=2, n=2")


def has_shift_table(p: int, n: int, convention: str) -> bool:
    """False only for the p=2 dynamics kernel at n >= 2, no generator product."""
    return not (convention == "dynamics" and p == 2 and n >= 2)


@functools.lru_cache(maxsize=32)
def wigner_kernel(p: int, n: int, convention: str) -> "WignerKernel":
    return WignerKernel(p, n, convention)


class WignerKernel:
    """Kernel phases and index tables for one convention; A operators on request."""

    def __init__(self, p: int, n: int, convention: str):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        _validate_convention(p, n, convention)
        self.p = p
        self.n = n
        self.convention = convention
        self.dim = p**n
        self.geom: PhaseGeometry = phase_geometry(p, n)
        self.basis = spin_basis(p, n)
        self.N = self.dim**2
        self.shifts = self._shift_table()
        self.eta_exp, self.i_exp = map(frozen, self._exponents())
        self.phases = frozen(unit_phases(p, self.eta_exp, self.i_exp))
        self._swap = tuple(i ^ 1 for i in range(2 * n))  # x <-> y in each block

    @property
    def vectors(self) -> np.ndarray:
        """All index vectors, (N, 2n) in code order: the basis's, read-only."""
        return self.basis.vectors

    # -- construction ---------------------------------------------------------

    def _shift_table(self) -> Optional[np.ndarray]:
        """shifts[alpha, r] = r_r(alpha), shape (p^n + 1, n); None where
        has_shift_table says there is none."""
        p, n, d, conv = self.p, self.n, self.dim, self.convention
        if not has_shift_table(p, n, conv):
            return None
        shifts = np.zeros((d + 1, n), dtype=np.int64)
        # y[alpha, r, j] = y_j^{(r)}(alpha) of the non-vertical classes
        y = self.geom.gens[:d, :, 1::2]
        if conv == "separable":
            inv2 = prime_inverse(2, p)
            shifts[:d] = -inv2 * (y.sum(axis=2) - np.diagonal(y, axis1=1, axis2=2))
            shifts[d] = -inv2
        elif conv == "p2-left":  # (0, a_0) for alpha = a_0 + 2 a_1
            shifts[:d, 1] = np.arange(d) % 2
        elif conv == "p2-right":  # (a_1, 0)
            shifts[:d, 0] = np.arange(d) // 2
        elif conv == "dynamics" and p != 2:  # at p=2 (n=1 here) every shift is 0
            shifts[:d] = prime_inverse(2, p) * np.diagonal(y, axis1=1, axis2=2)
        return frozen(shifts % p)

    def _exponents(self) -> tuple[np.ndarray, np.ndarray]:
        """eta and -i exponents of every kernel operator, in code order."""
        p, n = self.p, self.n
        if self.convention == "dynamics":
            # <w, w> = sum_j x_j y_j, an outer sum over the n (x_j, y_j) digit pairs
            ww = functools.reduce(np.add.outer, [np.outer(range(p), range(p)).ravel()] * n).ravel()
            if p == 2:
                return np.zeros_like(ww), ww % 4
            return (prime_inverse(2, p) * ww) % p, np.zeros_like(ww)
        # the classes tile V_{2n}(p) and meet only at the origin, where every
        # class puts the identity; scatter all classes through their codes
        e, i = member_phases(self.geom.gens, p)
        eta_exp = np.zeros(self.N, dtype=np.int64)
        i_exp = np.zeros(self.N, dtype=np.int64)
        eta_exp[self.geom.codes] = (e + self.shifts @ _digits(p, n).T) % p
        i_exp[self.geom.codes] = i
        return eta_exp, i_exp

    # -- derived tables ---------------------------------------------------------

    def a_stack(self) -> np.ndarray:
        """All A operators in code order, (N, d, d), read-only and built afresh."""
        return self._a_operators(self.vectors)

    def _a_operators(self, u: np.ndarray) -> np.ndarray:
        """A(u) = S_u A(0) S_u^dagger for each index vector u of a stack, a gather:
        A(u)[m, m'] = eta^{u_x.(m - m')} A(0)[m + u_y, m' + u_y] on digit vectors."""
        m = _digits(self.p, self.n)
        rows = index_code(self.p, m + u[:, None, 1::2])  # [u, m] = code(m + u_y)
        ph = unit_phases(self.p, u[:, 0::2] @ m.T)  # [u, m] = eta^{u_x.m}
        a0 = self.basis.combine(self.phases) / self.N  # A(0) = p^{-2n} sum_w G(w)
        stack = a0[rows[:, :, None], rows[:, None, :]]
        stack *= ph[:, :, None]
        stack *= ph.conj()[:, None, :]
        return frozen(stack)

    def _square(self, rho) -> np.ndarray:
        """rho as a complex array (no copy if it is one); ValueError unless d x d."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {rho.shape}")
        return rho

    def char_values(self, rho: np.ndarray) -> np.ndarray:
        return self.phases * self.basis.traces(self._square(rho))

    def symplectic_ft(self, values: np.ndarray) -> np.ndarray:
        """W(v) = p^{-2n} sum_w eta^{v o w} chi(w), with v o w = sum_b
        v_y w_x - v_x w_y: a digit DFT of sign +1 over the x axes and -1
        over the y axes, then x and y swapped in each block."""
        a = np.reshape(values, (self.p,) * (2 * self.n))
        a = digit_dft(a, self.p, (1, -1) * self.n)
        return a.transpose(self._swap).ravel() / self.N

    def inverse_symplectic_ft(self, values: np.ndarray) -> np.ndarray:
        """chi(w) = sum_v eta^{w o v} W(v): symplectic_ft undone step by step."""
        a = np.reshape(values, (self.p,) * (2 * self.n)).transpose(self._swap)
        return digit_dft(a, self.p, (-1, 1) * self.n).ravel()

    def code(self, w: Sequence[int]) -> int:
        """Code of the index vector w; entries reduce mod p. Raises
        ValueError unless w has 2n integer-valued entries."""
        return index_code(self.p, self.geom.index_vectors(w))

    @functools.cached_property
    def outcome_codes(self) -> dict[tuple, int]:
        """Outcome vector s (entries in 0..p-1) -> its big-endian code, the
        order of class_vectors and of the marginals."""
        return dict(zip(map(tuple, _digits(self.p, self.n).tolist()), range(self.dim)))

    @functools.cached_property
    def _marginal_phases(self) -> np.ndarray:
        """[alpha, code(b)] = eta^{-r(alpha).b}, the shift phases of the
        marginal slice, read-only; needs the shift table."""
        return frozen(unit_phases(self.p, -self.shifts @ _digits(self.p, self.n).T))

    @functools.cached_property
    def _neg_perm(self) -> np.ndarray:
        """code(-w) at code(w), a gather read only by spin_coeff_bridge, read-only."""
        return frozen(code_map(self.p, -np.eye(2 * self.n, dtype=np.int64)))

    @functools.cached_property
    def _pt_perm(self) -> np.ndarray:
        """Code of (x0, y0, p-1-x1, y1) at code(x0, y0, x1, y1), n = 2 only:
        the odd-p partial transpose as a gather, read-only."""
        return frozen(code_map(self.p, np.diag([1, 1, -1, 1]), (0, 0, -1, 0)))

    def outcome_code(self, s: Sequence[int]) -> int:
        """Big-endian code of s; entries reduce mod p. Raises ValueError
        unless s has n integer-valued entries."""
        code = self.outcome_codes.get(tuple(s))
        if code is None:
            code = self.outcome_codes[self.geom.outcome(s)]
        return code


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Table:
    """p^{2n} values on V_{2n}(p) in index-code order, in one convention, equal
    only to itself. It holds from the start either a checked read-only copy of
    the values it is given or, by _from_density (char_function, evolve), its
    read-only density; the other is a cached property, built on first read."""

    p: int
    n: int
    convention: str
    values: np.ndarray  # for a _from_density table, each subclass's cached property

    def __post_init__(self):
        _validate_convention(self.p, self.n, self.convention)
        values, N = frozen(np.array(self.values)), self.p ** (2 * self.n)
        if values.shape != (N,):
            raise ValueError(f"a ({self.p}, {self.n}) table has {N} values, got {values.shape}")
        object.__setattr__(self, "values", values)

    @classmethod
    def _from_density(cls, p: int, n: int, convention: str, rho: np.ndarray):
        """The table of rho, d x d and kept read-only as its density; (p, n,
        convention) already checked."""
        table = object.__new__(cls)
        vars(table).update(p=p, n=n, convention=convention, density=frozen(rho))
        return table

    def value(self, w: Sequence[int]) -> complex:
        return complex(self.values[self.kernel.code(w)])

    @functools.cached_property
    def kernel(self) -> WignerKernel:
        return wigner_kernel(self.p, self.n, self.convention)


@dataclass(frozen=True, eq=False)  # frozen itself: a plain subclass takes new attributes
class CharTable(_Table):
    """chi(w) = tr[rho G(w)] on V_{2n}(p), with rho as its density."""

    @functools.cached_property
    def values(self) -> np.ndarray:
        """chi of a table built from its density, computed once, read-only."""
        return frozen(self.kernel.char_values(self.density))

    @functools.cached_property
    def density(self) -> np.ndarray:
        """rho = (1/p^n) sum_w chi(w) G(w)^dagger, computed once, read-only."""
        k = self.kernel
        # sum_w chi(w) G(w)^dagger = (sum_w chi(w)^* phi(w) S_w)^dagger
        return frozen(k.basis.combine(np.conj(self.values) * k.phases).conj().T / k.dim)


@dataclass(frozen=True, eq=False)
class WignerTable(_Table):
    """W(v) on V_{2n}(p), real for Hermitian inputs; its density and
    marginals once asked for."""

    @functools.cached_property
    def values(self) -> np.ndarray:
        """W of a table built from its density, computed once, read-only."""
        k = self.kernel
        return frozen(k.symplectic_ft(k.char_values(self.density)))

    @functools.cached_property
    def density(self) -> np.ndarray:
        """rho = p^n sum_v W(v) A(v), computed once through chi, read-only."""
        return char_from_wigner(self).density

    def real_values(self, tol: float = ZERO_TOL) -> np.ndarray:
        if np.abs(self.values.imag).max() > tol:
            raise ValueError("table has non-negligible imaginary part")
        return self.values.real

    @functools.cached_property
    def _marginals(self) -> np.ndarray:
        """[alpha, code(s)] = sum of W over the line of class alpha with
        outcome s: the inverse DFT over b of eta^{-r(alpha).b} chi(sum_r b_r
        g_r(alpha)), complex, read-only, in big-endian outcome order."""
        k = self.kernel
        if k.shifts is None:
            raise ConventionError("no generator-route shifts exist for this convention")
        p, n, d = k.p, k.n, k.dim
        chi = k.inverse_symplectic_ft(self.values)[k.geom.codes]
        chi *= k._marginal_phases
        lines = digit_dft(chi.reshape((d + 1,) + (p,) * n), p, (0,) + (1,) * n)
        return frozen(lines.reshape(d + 1, d) / d)

    @functools.cached_property
    def _marginal_rows(self) -> tuple[tuple[Optional[float], ...], ...]:
        """The marginals as one tuple of Python floats per class, built once
        from _marginals for marginal_along; None where |imag| > 1e-8, an
        outcome that is not a probability."""
        m = self._marginals
        rows = m.real.tolist()
        for alpha, code in zip(*np.nonzero(np.abs(m.imag) > 1e-8)):
            rows[alpha][code] = None
        return tuple(map(tuple, rows))


def char_function(
    rho: np.ndarray, p: int, n: int, convention: Optional[str] = None
) -> CharTable:
    """Characteristic table of any square matrix of size p^n (Hermiticity
    is not required; operators get operator-valued quasi-distributions).
    The table keeps a read-only copy of rho as its density and computes its
    values on first read."""
    k = wigner_kernel(p, n, convention or default_convention(p, n))
    return CharTable._from_density(p, n, k.convention, k._square(np.array(rho, dtype=complex)))


def wigner_from_char(chi: CharTable) -> WignerTable:
    k = chi.kernel
    return WignerTable(chi.p, chi.n, chi.convention, k.symplectic_ft(chi.values))


def char_from_wigner(wt: WignerTable) -> CharTable:
    return CharTable(wt.p, wt.n, wt.convention, wt.kernel.inverse_symplectic_ft(wt.values))


def wigner_function(
    rho: np.ndarray, p: int, n: int, convention: Optional[str] = None
) -> WignerTable:
    """Wigner table of rho, its values computed now; no copy of rho is kept."""
    k = wigner_kernel(p, n, convention or default_convention(p, n))
    return WignerTable(p, n, k.convention, k.symplectic_ft(k.char_values(rho)))


def a_operator(p: int, n: int, u: Sequence[int], convention: Optional[str] = None) -> np.ndarray:
    """Hermitian A(u) with W_rho(u) = tr[rho A(u)]."""
    convention = convention or default_convention(p, n)
    k = wigner_kernel(p, n, convention)
    return k._a_operators(k.geom.index_vectors(u)[None])[0]


def marginal_along(wt: WignerTable, alpha: int, s: Sequence[int]) -> float:
    """Sum of W over the line of class alpha with outcome vector s (a
    shifted isotropic subspace); equals tr[rho P_alpha(s)]. The first call on
    a table computes every marginal at once; later calls read one entry of
    the table's frozen rows of Python floats."""
    k = wt.kernel
    # a plain in-range int is a valid label; everything else goes through check_label
    if not (type(alpha) is int and 0 <= alpha <= k.dim):
        k.geom.check_label(alpha)
    total = wt._marginal_rows[alpha][k.outcome_code(s)]
    if total is None:
        raise ValueError("marginal of a non-Hermitian table is not a probability")
    return total


def class_marginals(wt: WignerTable, alpha: int) -> np.ndarray:
    """All p^n marginals of one class, in the big-endian outcome order of
    class_vectors and full_mub: entry code(s) is marginal_along(wt, alpha, s).
    A read-only view of the table's marginals."""
    wt.kernel.geom.check_label(alpha)
    totals = wt._marginals[alpha]
    if np.any(np.abs(totals.imag) > 1e-8):  # a NaN passes, and fails the caller's check
        raise ValueError("marginals of a non-Hermitian table are not probabilities")
    return totals.real


def density_from_char(chi: CharTable) -> np.ndarray:
    """rho = (1/p^n) sum_w chi(w) G(w)^dagger (valid for any input matrix);
    the table's read-only density, computed on the first call."""
    return chi.density


def reconstruct_density(wt: WignerTable) -> np.ndarray:
    """rho = p^n sum_v W(v) A(v), exact inverse of the chi -> W pipeline for
    every convention; the table's read-only density, computed on the first call."""
    return wt.density


def plancherel_inner(w1: WignerTable, w2: WignerTable) -> float:
    """tr[rho1 rho2] = p^n sum_v W1(v) W2(v) (same convention on both sides)."""
    if (w1.p, w1.n, w1.convention) != (w2.p, w2.n, w2.convention):
        raise ConventionError("Plancherel inner products need matching conventions")
    val = complex(w1.p ** w1.n * np.sum(w1.values * w2.values))
    return float(val.real)


@dataclass
class SupportStats:
    support_size: int
    max_abs: float


def support_stats(wt: WignerTable, threshold: float = ZERO_TOL) -> SupportStats:
    """Support count and sup norm, with the density bounds enforced:
    |W| <= p^{-n/2} + tol and support >= p^n."""
    mags = np.abs(wt.values)
    stats = SupportStats(int((mags > threshold).sum()), float(mags.max()))
    bound = wt.p ** (-wt.n / 2) + threshold
    if stats.max_abs > bound:
        raise ValueError(f"|W| = {stats.max_abs} exceeds the bound {bound}")
    if stats.support_size < wt.p**wt.n:
        raise ValueError(
            f"support {stats.support_size} is below the bound {wt.p ** wt.n}"
        )
    return stats


# ---------------------------------------------------------------------------
# separability, partial transpose, positivity
# ---------------------------------------------------------------------------


@dataclass
class FactorizationReport:
    p: int
    n: int
    convention: str
    transpose_on: Optional[int]  # subsystem index carrying the transpose, p=2 only
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < ZERO_TOL


def check_product_factorization(tau: np.ndarray, mu: np.ndarray, p: int) -> FactorizationReport:
    """check_complete_factorization([tau, mu], p)."""
    return check_complete_factorization([tau, mu], p)


def check_complete_factorization(factors: Sequence[np.ndarray], p: int) -> FactorizationReport:
    """W of an n-fold product of p x p factors against the pointwise product
    of their one-subsystem tables: separable on both sides for odd p, any n;
    for p=2 only n=2, p2-left against plain tables of tau and mu^T."""
    factors = [np.asarray(f, dtype=complex) for f in factors]
    n = len(factors)
    if n == 0 or any(f.shape != (p, p) for f in factors):
        raise ValueError(f"factors must be {p}x{p}, at least one of them")
    rho = functools.reduce(np.kron, factors)
    if p != 2:
        conv, one, twist = "separable", "separable", None
    elif n == 2:
        conv, one, twist = "p2-left", "plain", 1
        factors[1] = factors[1].T
    else:
        raise ConventionError(
            f"no separability-preserving convention exists for p=2 with n={n}; "
            "only the n=2 transpose twist does"
        )
    w_full = wigner_function(rho, p, n, conv).values
    prod = functools.reduce(np.kron, [wigner_function(f, p, 1, one).values for f in factors])
    dev = float(np.abs(w_full - prod).max())
    return FactorizationReport(p, n, conv, twist, dev)


def wigner_partial_transpose(wt: WignerTable) -> WignerTable:
    """Index action of the partial transpose on n=2 tables.

    Odd p (separable convention): (x0,y0,x1,y1) -> (x0,y0,p-1-x1,y1).
    p=2 (left/right conventions): sign flip of chi on second block (1,1).
    """
    if wt.n != 2:
        raise ValueError("partial transpose acts on n=2 tables")
    p = wt.p
    if p % 2 == 1:
        if wt.convention != "separable":
            raise ConventionError("odd-p partial transpose needs the separable convention")
        return WignerTable(p, 2, wt.convention, wt.values[wt.kernel._pt_perm])
    if wt.convention not in ("p2-left", "p2-right"):
        raise ConventionError("p=2 partial transpose needs a p2 convention")
    chi = char_from_wigner(wt)
    # -1 where the second block (x1, y1) is (1, 1), whose digit-pair code is 3
    chi = CharTable(p, 2, wt.convention, chi.values * np.tile([1.0, 1.0, 1.0, -1.0], 4))
    return wigner_from_char(chi)


@dataclass
class PositivityResult:
    positive: bool
    min_eigenvalue: float
    p: int
    n: int
    rho: np.ndarray = field(repr=False, compare=False)  # read-only copy of the checked matrix

    @functools.cached_property
    def eigenvector(self) -> Optional[np.ndarray]:
        """Unit eigenvector of the most negative eigenvalue, read-only and
        computed when first read; None when positive."""
        if self.positive:
            return None
        return frozen(np.linalg.eigh(self.rho)[1][:, 0].copy())

    @functools.cached_property
    def witness(self) -> Optional[np.ndarray]:
        """Spin coefficients c_w of B = |phi><phi| = sum_w c_w S_w in code
        order, read-only and built when first read: tr(rho B B^dagger) < 0
        for phi the eigenvector; None when positive."""
        if self.eigenvector is None:
            return None
        phi = self.eigenvector
        return frozen(spin_decompose(np.outer(phi, phi.conj()), self.p, self.n) / self.p**self.n)


def hermitian_defect(M: np.ndarray) -> float:
    """max|M - M^dagger|; NaN when M has a NaN entry, so `defect <= tol` fails."""
    return float(np.abs(M - M.conj().T).max())


def positivity_check(rho: np.ndarray, p: int, n: int, tol: float = ZERO_TOL) -> PositivityResult:
    """Peres-style positivity: rho >= 0 iff tr(rho B B^dagger) >= 0 for all B.

    Returns the most negative eigenvalue, from eigenvalues alone; when it is
    negative, the witness B is the projector onto its eigenvector, reported in
    spin-matrix coefficients. Both are computed when first read."""
    rho, d = frozen(np.array(rho, dtype=complex)), p**n
    if rho.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got {rho.shape}")
    if not hermitian_defect(rho) <= HERMITIAN_TOL:  # a NaN defect fails too
        raise ValueError("positivity check expects a finite Hermitian matrix")
    lam = float(np.linalg.eigvalsh(rho)[0])
    return PositivityResult(lam >= -tol, lam, p, n, rho)


# ---------------------------------------------------------------------------
# reference states and closed forms
# ---------------------------------------------------------------------------


def max_entangled_density(p: int) -> np.ndarray:
    """|Psi><Psi| for |Psi> = p^{-1/2} sum_j |jj>."""
    psi = np.zeros(p * p, dtype=complex)
    for j in range(p):
        psi[j * p + j] = 1.0
    psi /= np.sqrt(p)
    return np.outer(psi, psi.conj())


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_density(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())
