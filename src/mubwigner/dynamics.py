"""Hamiltonian dynamics of characteristic and Wigner tables.

The characteristic kernels K_w of the dynamics convention close under
commutation, [K_w, K_v] = c(w,v) K_{w+v} with exact unit-modulus structure
constants, so the von Neumann equation drho/dt = -i[H, rho] becomes a linear
system dchi(w)/dt = -i sum_u L(w,u) chi(u) with L Hermitian and
L chi_rho = chi_{[H, rho]}: evolution is exp(-iLt) on the table vector,
solved in closed form by eigendecomposition.
The eigendecomposition L = V diag(lambda) V^dagger is paid once, O(N^3) with
N = p^{2n}, and cached; each time point then costs two O(N^2) mat-vecs,
V (e^{-i lambda t} * (V^dagger chi)), and no N x N propagator is formed.
For odd primes the same dynamics transfers to Wigner tables through the
symplectic transform, with generator

    Lw(v,y) = (1/p^n) [ eta^{2 v o y} chi_H(2(y-v)) - eta^{2 y o v} chi_H(2(v-y)) ].

There is no useful Wigner-space generator at p=2 (the quarter phases do not
survive the transform), so only characteristic-space dynamics is offered
there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fields import is_prime, FieldError
from .spins import eta, frozen, index_code, unit_phases
from .wigner import (
    CharTable,
    ConventionError,
    WignerTable,
    char_function,
    density_from_char,
    wigner_kernel,
)

HERMITICITY_TOL = 1e-10


class UnsupportedDynamicsError(ValueError):
    """Requested (p, n) combination has no generator construction."""


@dataclass
class GeneratorMatrix:
    """L with its cached eigendecomposition; both are read-only."""

    kind: str  # "char" | "wigner"
    p: int
    n: int
    matrix: np.ndarray
    _eig: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        frozen(self.matrix)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            dev = np.abs(self.matrix - self.matrix.conj().T).max()
            # relative to the scale of L, which grows with that of H
            tol = HERMITICITY_TOL * max(1.0, np.abs(self.matrix).max())
            if not dev <= tol:  # a NaN defect fails too
                raise ValueError(f"generator is not Hermitian (defect {dev})")
            lam, V = np.linalg.eigh(self.matrix)
            self._eig = (frozen(lam), frozen(V))
        return self._eig


def _check_supported(p: int, n: int) -> None:
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if n not in (1, 2):
        raise UnsupportedDynamicsError(
            f"dynamics generators are only constructed for n in (1, 2), got n={n}"
        )


def _hermitian_check(H: np.ndarray, d: int) -> np.ndarray:
    H = np.asarray(H, dtype=complex)
    if H.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} Hamiltonian, got {H.shape}")
    if not np.abs(H - H.conj().T).max() <= 1e-8:  # a NaN defect fails too
        raise ValueError("Hamiltonian must be Hermitian and finite")
    return H


def _structure_phases(kernel) -> np.ndarray:
    """phi[a, b] with K_a K_b = phi[a, b] K_{a+b}, from the kernel's exponents."""
    vec, e, ii = kernel.vectors, kernel.eta_exp, kernel.i_exp
    X, Y = vec[:, 0::2], vec[:, 1::2]
    cross = Y @ X.T  # product phase sum_b k_a s_b per block
    codes = index_code(kernel.p, vec[:, None, :] + vec[None, :, :])
    return unit_phases(
        kernel.p, e[:, None] + e[None, :] + cross - e[codes], ii[:, None] + ii[None, :] - ii[codes]
    )


def build_char_generator(H: np.ndarray, p: int, n: int) -> GeneratorMatrix:
    """Hermitian L with dchi_rho(w)/dt = -i sum_u L(w,u) chi_rho(u) for the von
    Neumann flow; evolve() applies exp(-iLt) so that tables follow
    rho(t) = e^{-iHt} rho e^{+iHt} exactly."""
    _check_supported(p, n)
    d = p**n
    H = _hermitian_check(H, d)
    kernel = wigner_kernel(p, n, "dynamics")
    chiH = kernel.char_values(H)
    N = kernel.N
    vec = kernel.vectors
    phi = _structure_phases(kernel)
    # diff[w, u] = code(w - u); v = u - w has code diff[u, w]
    diff = index_code(p, vec[:, None, :] - vec[None, :, :])
    rows = np.arange(N)[:, None]
    vcode = diff.T
    bracket = phi[rows, vcode] - phi[vcode, rows]
    L = chiH[diff] * bracket / d
    return GeneratorMatrix("char", p, n, L)


def build_wigner_generator(H: np.ndarray, p: int, n: int) -> GeneratorMatrix:
    """Wigner-space mate of the characteristic generator; odd p only."""
    _check_supported(p, n)
    if p == 2:
        raise UnsupportedDynamicsError(
            "no Wigner-space generator exists for p=2; evolve the "
            "characteristic table instead"
        )
    d = p**n
    H = _hermitian_check(H, d)
    kernel = wigner_kernel(p, n, "dynamics")
    chiH = kernel.char_values(H)
    vec = kernel.vectors
    # code(2(y - v)) for every (v, y)
    diff2 = index_code(p, 2 * (vec[None, :, :] - vec[:, None, :]))
    w = eta(p)
    X, Y = vec[:, 0::2], vec[:, 1::2]
    voy = (Y @ X.T - X @ Y.T) % p  # [v, y] = v o y mod p
    L = (w ** ((2 * voy) % p) * chiH[diff2] - w ** ((2 * voy.T) % p) * chiH[diff2.T]) / d
    return GeneratorMatrix("wigner", p, n, L)


def evolve(state, gen: GeneratorMatrix, t: float):
    """Propagate a dynamics-convention table to time t (closed form)."""
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
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    lam, V = gen.eig()
    # V^dagger x as conj(x^* V): V.conj() would copy an N x N array
    coeffs = (state.values.conj() @ V).conj()
    values = V @ (np.exp(-1j * lam * t) * coeffs)
    return type(state)(state.p, state.n, state.convention, values)


def evolve_trajectory(state, gen: GeneratorMatrix, times: Sequence[float]) -> list:
    return [evolve(state, gen, t) for t in times]


def char_dynamics_table(rho: np.ndarray, p: int, n: int) -> CharTable:
    """Characteristic table of rho in the dynamics convention."""
    return char_function(rho, p, n, "dynamics")


def density_from_dynamics_char(chi: CharTable) -> np.ndarray:
    if chi.convention != "dynamics":
        raise ConventionError("expected a dynamics-convention table")
    return density_from_char(chi)


def spin_coeff_bridge(chi: CharTable) -> dict:
    """Spin coefficients s_u = tr(S_u^dagger rho) from a dynamics table.

    s_u = phi(u) chi(-u) with phi the kernel phase; reduces to
    eta^{2^{-1} u_0 u_1} chi(-u) for odd p and (-i)^{u_0 u_1} chi(u) at p=2.
    """
    if chi.convention != "dynamics":
        raise ConventionError("the bridge is defined for the dynamics convention")
    k = chi.kernel
    s = k.phases * chi.values[k._neg_perm]
    return {tuple(int(c) for c in k.vectors[i]): s[i] for i in range(k.N)}


def density_from_spin_coeffs(coeffs: dict, p: int, n: int) -> np.ndarray:
    """rho = (1/p^n) sum_u s_u S_u."""
    from .spins import spin_recompose

    return spin_recompose(coeffs, p, n)
