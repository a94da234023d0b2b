"""Complete sets of p^n + 1 mutually unbiased bases from commuting classes.

Each class label alpha gives n generator index vectors; their alpha-corrected
spin operators T_r commute, each one's p-th power is the identity, and the
products prod_r T_r^{b_r} over b in V_n(p) make up the class. Every member is
monomial: it sends row m to column m + y_b with a phase, where (x_b, y_b) =
sum_r b_r g_r(alpha). The projector P_alpha(s) = (1/p^n) sum_b eta^{s.b}
prod_r T_r^{b_r} has rank one, so each basis is held as p^n unit vectors in
closed form (Wootters and Fields 1989). Class 0 is the clock eigenbasis,
P_0(s) = |-s><-s|. In every other class y_b = gy(alpha)^T b runs over all of
V_n(p), so column 0 of P_alpha(s) is the vector itself, up to norm:
psi_s[code(-y_b)] = d^-1/2 phase_b eta^{s.b - x_b.y_b}, one phased DFT of the
class members, with psi_s(0) = d^-1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PhaseGeometry, _span, phase_geometry
from .spins import _digits, code_map, frozen, index_code, unit_phases

UNBIASED_TOL = 1e-10


@dataclass(frozen=True)
class MubProjector:
    """P_alpha(s) = |vector><vector|, with `vector` a unit vector of H_{p^n}."""

    alpha: int
    s: tuple
    vector: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


def member_phases(gens, p: int, with_alpha: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """eta exponents and -i exponents of the products prod_r S_{g_r}^{b_r}
    (alpha-corrected with ``with_alpha``), for b in big-endian code order:
    shape (p^n,) each for one generator set (n, 2n), (..., p^n) for a stack.
    The dense oracle's scalar products of powers (tests/dense_oracle.py)
    checks them exponent for exponent."""
    g = np.asarray(gens, dtype=np.int64)
    gx, gy = g[..., 0::2], g[..., 1::2]
    b = _digits(p, g.shape[-2])
    # S_u^m = eta^{binom(m, 2) x_u.y_u} S_{mu}, and S_u S_v = eta^{y_u.x_v} S_{u+v}
    # taken in the order r = 0, 1, ...: pairs r' < r pick up y_{g_r'}.x_{g_r}
    e = (gx * gy).sum(axis=-1) @ (b * (b - 1) // 2).T
    e += np.einsum("kr,...rt,kt->...k", b, np.triu(gy @ gx.swapaxes(-1, -2), 1), b)
    i_exp = np.zeros_like(e)
    if with_alpha and p == 2:  # one -i per qubit block (1,1) of each generator
        i_exp = ((gx % 2) & (gy % 2)).sum(axis=-1) @ b.T
    return e % p, i_exp % 4


def class_members(geom: PhaseGeometry, alpha: int, with_alpha: bool = True):
    """Index vectors (d, 2n), eta exponents (d,) and -i exponents (d,) of the
    products prod_r S_{g_r(alpha)}^{b_r}, for b in big-endian code order."""
    g = geom.generators(alpha)
    return (_span(g, geom.p), *member_phases(g, geom.p, with_alpha))


def class_vectors(geom: PhaseGeometry, alpha: int) -> np.ndarray:
    """Unit vectors of the p^n projectors of one class, shape (d, d): row
    code(s) (big-endian) spans P_alpha(s) = prod_r (1/p) sum_b (eta^{s_r} T_r)^b."""
    p, n, d = geom.p, geom.n, geom.dim
    gy = geom.generators(alpha)[:, 1::2]
    if not gy.any():  # the clock class: psi_s = e_{-s}
        return np.eye(d, dtype=complex)[code_map(p, -np.eye(n))]
    w, e, i_exp = class_members(geom, alpha)
    V = np.empty((d, d), dtype=complex)
    # only b = 0 has y_b = 0, so P_alpha(s)[0, 0] = 1/d and psi_s = sqrt(d) P_alpha(s)[:, 0]
    V[:, code_map(p, -gy.T)] = unit_phases(
        p, geom.outcome_dots + e - (w[:, 0::2] * w[:, 1::2]).sum(axis=1), i_exp
    ) / np.sqrt(d)
    return V


def mub_projector(geom: PhaseGeometry, alpha: int, s: tuple) -> MubProjector:
    """P_alpha(s) = prod_r (1/p) sum_b (eta^{s_r} T_r)^b; rank one. Each call
    builds the whole class, so read many outcomes off one class_vectors."""
    s = geom.outcome(s)
    return MubProjector(alpha, s, frozen(class_vectors(geom, alpha)[index_code(geom.p, s)]))


def full_mub(p: int, n: int = 1) -> list[list[MubProjector]]:
    """The p^n + 1 bases, each as its p^n rank-1 projectors."""
    geom = phase_geometry(p, n)
    outcomes = [tuple(s) for s in _digits(p, n).tolist()]
    bases = []
    for alpha in range(geom.num_classes):
        vecs = frozen(class_vectors(geom, alpha))
        bases.append([MubProjector(alpha, s, v) for s, v in zip(outcomes, vecs)])
    return bases


@dataclass
class MubReport:
    p: int
    n: int
    num_bases: int
    max_projector_defect: float  # worst of hermiticity/idempotence/trace-one
    max_completeness_defect: float  # || sum_s P(s) - I ||_max per basis
    max_orthogonality_defect: float  # within-basis tr[P P'] vs delta
    max_unbiasedness_defect: float  # cross-basis tr[P P'] vs 1/p^n
    tol: float = UNBIASED_TOL

    @property
    def passed(self) -> bool:
        # np.max keeps a NaN defect, and a NaN fails the comparison
        worst = np.max([
            self.max_projector_defect,
            self.max_completeness_defect,
            self.max_orthogonality_defect,
            self.max_unbiasedness_defect,
        ])
        return bool(worst < self.tol)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "num_bases": self.num_bases,
            "max_projector_defect": float(self.max_projector_defect),
            "max_completeness_defect": float(self.max_completeness_defect),
            "max_orthogonality_defect": float(self.max_orthogonality_defect),
            "max_unbiasedness_defect": float(self.max_unbiasedness_defect),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }


def verify_mub(
    bases: list[list[MubProjector]], p: int, n: int, tol: float = UNBIASED_TOL
) -> MubReport:
    """Check hermiticity, idempotence, completeness, orthogonality and
    unbiasedness from Gram blocks |<psi|phi>|^2 = tr[P P'] of the vectors.
    Every defect is reduced with np.max, so a NaN entry fails the report."""
    d = p**n
    V = np.array([[P.vector for P in basis] for basis in bases])  # [basis, s, :]
    eye = np.eye(d)
    # |psi><psi| is Hermitian by construction; its idempotence defect is
    # | |psi|^2 - 1 | max_i |psi_i|^2 and its trace-one defect | |psi|^2 - 1 |
    sq = np.abs(V) ** 2
    proj = np.abs(sq.sum(axis=2) - 1) * np.maximum(sq.max(axis=2), 1)
    complete, ortho, cross = [], [], []
    for a, Va in enumerate(V):
        complete.append(np.max(np.abs(Va.T @ Va.conj() - eye)))
        # overlaps of basis a with itself and every later basis, in one product
        gram = np.abs(Va.conj() @ V[a:].reshape(-1, d).T) ** 2
        ortho.append(np.max(np.abs(gram[:, :d] - eye)))
        cross.append(np.max(np.abs(gram[:, d:] - 1.0 / d), initial=0.0))
    return MubReport(
        p,
        n,
        len(bases),
        float(np.max(proj)),
        float(np.max(complete)),
        float(np.max(ortho)),
        float(np.max(cross)),
        tol,
    )
