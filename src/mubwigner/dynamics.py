"""Hamiltonian dynamics of characteristic and Wigner tables.

The characteristic kernels K_w of the dynamics convention close under
commutation, [K_w, K_v] = c(w,v) K_{w+v} with exact unit-modulus structure
constants, so the von Neumann equation drho/dt = -i[H, rho] becomes a linear
system dchi(w)/dt = -i sum_u L(w,u) chi(u) with L Hermitian and
L chi_rho = chi_{[H, rho]}: evolution is exp(-iLt) on the table vector.
That flow is unitary covariance, exp(-iLt) chi_rho = chi_{U rho U^dagger}
with U = e^{-iHt}, so evolve() never forms L. It takes rho, the table's
read-only density (the exact input of char_dynamics_table, which keeps it),
into the eigenbasis of the d x d Hamiltonian H = Q diag(lambda) Q^dagger
(eigh paid once and cached, O(d^3)) as R = Q^dagger rho Q. That rotation,
and the check that the table fits the generator (kind, convention, shape),
happen once per (table, generator), when the generator's memo is set. Each
time point then checks that t is finite and takes one fused step: one exp
of the d phases and two d x d products, rho(t) = B R B^dagger with
B = Q e^{-i lambda t}: O(d^3), where an eigendecomposition of L would cost
O(N^3) = O(d^6), N = p^{2n}. evolve() and the CLI's trajectory take the
same step. An evolved table holds rho(t) as its density and pays the
spin-trace transform (and symplectic FT) on its first values read.
GeneratorMatrix.matrix still builds the N x N L, the paper's
explicit object, on first read; the tests use exp(-iLt) as the oracle for
evolve(). For odd primes the same dynamics transfers to Wigner tables
through the symplectic transform, with generator

    Lw(v,y) = (1/p^n) [ eta^{2 v o y} chi_H(2(y-v)) - eta^{2 y o v} chi_H(2(v-y)) ].

At p=2 the factors 2 vanish mod 2 and the quarter phases do not survive
the transform, so Lw has no p=2 form and the .matrix of a Wigner generator
refuses p=2. Evolution needs no L, so a p=2 Wigner generator still evolves
dynamics-convention Wigner tables, by the same unitary route as at odd p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fields import is_prime, FieldError
from .spins import code_map, frozen, unit_phases
from .wigner import (
    CharTable,
    ConventionError,
    WignerTable,
    char_function,
    density_from_char,
    hermitian_defect,
    wigner_kernel,
)

HERMITICITY_TOL = 1e-10


class UnsupportedDynamicsError(ValueError):
    """Requested (p, n) combination has no generator construction."""


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """A Hamiltonian with, each built on first read, its eigendecomposition
    and the N x N generator L of its table flow (none for a Wigner generator
    at p=2); all are read-only. _rotated keeps what each time step reads,
    for the last table evolved (see _rotation). The kind, a prime p and H
    are checked when it is built: H is d x d, finite, and Hermitian relative
    to its scale, max|H - H^dagger| <= HERMITICITY_TOL max(1, max|H|)."""

    kind: str  # "char" | "wigner"
    p: int
    n: int
    hamiltonian: np.ndarray
    _rotated: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("char", "wigner"):
            raise ValueError(f"generator kind must be 'char' or 'wigner', got {self.kind!r}")
        if not is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
        H = frozen(np.array(self.hamiltonian, dtype=complex))
        d = self.p**self.n
        if H.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} Hamiltonian, got {H.shape}")
        dev, scale = hermitian_defect(H), np.abs(H).max()
        # an infinite entry would make the bound infinite; a NaN fails both comparisons
        if not (scale < np.inf and dev <= HERMITICITY_TOL * max(1.0, scale)):
            raise ValueError(f"Hamiltonian is not Hermitian and finite (defect {dev})")
        object.__setattr__(self, "hamiltonian", H)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(lambda, Q) with H = Q diag(lambda) Q^dagger, computed on the first call."""
        return self._eigh

    @functools.cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        lam, Q = np.linalg.eigh(self.hamiltonian)
        return frozen(lam), frozen(Q)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """L with dchi/dt = -i L chi, N x N with N = p^{2n}: O(N^2) memory."""
        if self.kind == "wigner" and self.p == 2:
            raise UnsupportedDynamicsError(
                "no Wigner-space generator matrix exists for p=2; evolve() needs none"
            )
        build = _char_matrix if self.kind == "char" else _wigner_matrix
        return frozen(build(self.hamiltonian, self.p, self.n))


def _structure_phases(kernel) -> np.ndarray:
    """phi[a, b] with K_a K_b = phi[a, b] K_{a+b}, from the kernel's exponents."""
    p, N, vec, e, ii = kernel.p, kernel.N, kernel.vectors, kernel.eta_exp, kernel.i_exp
    X, Y = vec[:, 0::2], vec[:, 1::2]
    cross = Y @ X.T  # product phase sum_b k_a s_b per block
    # codes[a, b] = code(a + b), the map (a, b) -> a + b on V_{4n}(p)
    codes = code_map(p, np.kron([1, 1], np.eye(2 * kernel.n, dtype=int))).reshape(N, N)
    return unit_phases(
        p, e[:, None] + e[None, :] + cross - e[codes], ii[:, None] + ii[None, :] - ii[codes]
    )


def _char_matrix(H: np.ndarray, p: int, n: int) -> np.ndarray:
    kernel = wigner_kernel(p, n, "dynamics")
    chiH = kernel.char_values(H)
    N = kernel.N
    phi = _structure_phases(kernel)
    # diff[w, u] = code(w - u); v = u - w has code diff[u, w]
    diff = code_map(p, np.kron([1, -1], np.eye(2 * n, dtype=int))).reshape(N, N)
    rows = np.arange(N)[:, None]
    vcode = diff.T
    bracket = phi[rows, vcode] - phi[vcode, rows]
    return chiH[diff] * bracket / p**n


def _wigner_matrix(H: np.ndarray, p: int, n: int) -> np.ndarray:
    kernel = wigner_kernel(p, n, "dynamics")
    chiH = kernel.char_values(H)
    vec = kernel.vectors
    # code(2(y - v)) for every (v, y)
    diff2 = code_map(p, np.kron([-2, 2], np.eye(2 * n, dtype=int))).reshape(kernel.N, kernel.N)
    X, Y = vec[:, 0::2], vec[:, 1::2]
    voy = Y @ X.T - X @ Y.T  # [v, y] = v o y
    return (
        unit_phases(p, 2 * voy) * chiH[diff2] - unit_phases(p, 2 * voy.T) * chiH[diff2.T]
    ) / p**n


def build_char_generator(H: np.ndarray, p: int, n: int) -> GeneratorMatrix:
    """Hermitian L with dchi_rho(w)/dt = -i sum_u L(w,u) chi_rho(u) for the von
    Neumann flow, built only when .matrix is read; evolve() applies exp(-iLt)
    so that tables follow rho(t) = e^{-iHt} rho e^{+iHt} exactly."""
    return GeneratorMatrix("char", p, n, H)


def build_wigner_generator(H: np.ndarray, p: int, n: int) -> GeneratorMatrix:
    """Wigner-space mate of the characteristic generator: evolve() takes
    dynamics-convention Wigner tables at every prime; .matrix, the N x N Lw,
    exists for odd p only."""
    return GeneratorMatrix("wigner", p, n, H)


def _rotation(state, gen: GeneratorMatrix) -> tuple:
    """The memo (state, Q, -i lambda, R = Q^dagger rho Q) of state under gen,
    kept on the generator for the last state it was taken for. The state is
    checked against the generator only when its memo is set."""
    memo = gen._rotated
    if memo is not None and memo[0] is state:
        return memo
    if isinstance(state, CharTable):
        if gen.kind != "char":
            raise ValueError("characteristic tables evolve under a char-space generator")
    elif isinstance(state, WignerTable):
        if gen.kind != "wigner":
            raise ValueError("Wigner tables evolve under a Wigner-space generator")
    else:
        raise TypeError("state must be a CharTable or WignerTable")
    if state.convention != "dynamics":
        raise ConventionError("dynamics acts on tables in the dynamics convention")
    if (state.p, state.n) != (gen.p, gen.n):
        raise ValueError("state and generator shapes differ")
    lam, Q = gen.eig()
    memo = (state, Q, frozen(-1j * lam), frozen(Q.conj().T @ state.density @ Q))
    object.__setattr__(gen, "_rotated", memo)
    return memo


def _step(memo: tuple, t: float):
    """The table of rho(t) = B R B^dagger with B = Q e^{-i lambda t}, holding
    rho(t) as its density; t already checked finite."""
    state, Q, rate, R = memo
    B = Q * np.exp(t * rate)
    rho_t = B.dot(R).dot(B.conj().T)
    return type(state)._from_density(state.p, state.n, state.convention, rho_t)


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")


def _trajectory(state, gen: GeneratorMatrix, times: Sequence[float]):
    """Yield (t, table at t, rho(t)) for each t in times, each by one _step;
    the pair and every t are checked before the first is yielded."""
    memo = _rotation(state, gen)
    for t in times:
        _check_time(t)
    for t in times:
        table = _step(memo, t)
        yield t, table, table.density


def evolve(state, gen: GeneratorMatrix, t: float):
    """Propagate a dynamics-convention table to time t: exp(-iLt) applied as
    the table of U rho U^dagger, U = e^{-iHt}, built from that density. Only
    the first call for a (state, generator) pair checks the pair and rotates
    rho; each call checks that t is finite and takes one _step."""
    memo = _rotation(state, gen)
    _check_time(t)
    return _step(memo, t)


def char_dynamics_table(rho: np.ndarray, p: int, n: int) -> CharTable:
    """Characteristic table of rho in the dynamics convention."""
    return char_function(rho, p, n, "dynamics")


def density_from_dynamics_char(chi: CharTable) -> np.ndarray:
    if chi.convention != "dynamics":
        raise ConventionError("expected a dynamics-convention table")
    return density_from_char(chi)


def spin_coeff_bridge(chi: CharTable) -> np.ndarray:
    """Spin coefficients s_u = tr(S_u^dagger rho) from a dynamics table, in
    code order (spin_recompose takes them back to rho).

    s_u = phi(u) chi(-u) with phi the kernel phase; reduces to
    eta^{2^{-1} u_0 u_1} chi(-u) for odd p and (-i)^{u_0 u_1} chi(u) at p=2.
    """
    if chi.convention != "dynamics":
        raise ConventionError("the bridge is defined for the dynamics convention")
    k = chi.kernel
    return k.phases * chi.values[k._neg_perm]
