"""Index geometry: V_2(p^n), V_{2n}(p), lines, and the symplectic-preserving map.

A point of V_2(p^n) is a pair of field elements. The map M expands the first
coordinate in the power basis {lambda^j} and the second in the dual basis
{g_j(lambda)} and interleaves the coordinates into a vector of V_{2n}(p); it
is a bijection and sends symplectically orthogonal pairs to symplectically
orthogonal pairs, which is what lets tensor products of small spin matrices
stand in for the Galois-indexed ones.

Class labels alpha run over 0..p^n; labels below p^n encode field elements
(little-endian base-p digits); the label p^n is the vertical class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import FieldElement, GaloisField, FieldError, make_extension
from .spins import frozen, index_code


def symplectic(u: Sequence[FieldElement], v: Sequence[FieldElement]) -> FieldElement:
    """(j,k) o (s,t) = ks - jt over the field."""
    j, k = u
    s, t = v
    if j.field != s.field:
        raise FieldError("field mismatch")
    return k * s - j * t


def vector_symplectic(u: Sequence[int], v: Sequence[int], p: int) -> int:
    """Blockwise symplectic sum over V_{2n}(p)."""
    if len(u) != len(v) or len(u) % 2:
        raise ValueError("shape mismatch")
    acc = 0
    for b in range(len(u) // 2):
        acc += u[2 * b + 1] * v[2 * b] - u[2 * b] * v[2 * b + 1]
    return acc % p


def generating_vectors(field: GaloisField) -> list[tuple[FieldElement, FieldElement]]:
    """The p^n + 1 class representatives u_alpha = (1, alpha), then (0, 1)."""
    out = [(field.one, field.from_int(a)) for a in range(field.order)]
    out.append((field.zero, field.one))
    return out


def m_map(field: GaloisField, point: Sequence[FieldElement]) -> tuple[int, ...]:
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


@dataclass(frozen=True)
class GeneratorSet:
    """Generators g_0(alpha)..g_{n-1}(alpha) of one isotropic subspace."""

    alpha: int
    gens: tuple[tuple[int, ...], ...]

    def to_json(self, field: GaloisField) -> dict:
        label = "inf" if self.alpha == field.order else list(field.from_int(self.alpha).coeffs)
        return {"alpha": label, "gens": [list(g) for g in self.gens]}


def generator_set(field: GaloisField, alpha: int) -> GeneratorSet:
    """g_r(alpha) = M(lambda^r u_alpha); the vertical class uses the dual basis,
    so its blocks are simply (0, delta(j,r))."""
    n = field.n
    if alpha == field.order:
        gens = []
        for r in range(n):
            g = [0] * (2 * n)
            g[2 * r + 1] = 1
            gens.append(tuple(g))
        return GeneratorSet(alpha, tuple(gens))
    if not 0 <= alpha < field.order:
        raise ValueError(f"invalid class label {alpha}")
    a = field.from_int(alpha)
    lam = field.lam if n > 1 else field.one
    gens = []
    for r in range(n):
        point = (lam**r, lam**r * a) if n > 1 else (field.one, a)
        gens.append(m_map(field, point))
    return GeneratorSet(alpha, tuple(gens))


def _digits(p: int, n: int) -> np.ndarray:
    """All vectors of V_n(p), shape (p^n, n), in big-endian code order."""
    return np.indices((p,) * n).reshape(n, -1).T


def _span(gens, p: int) -> np.ndarray:
    """sum_r b_r g_r mod p for every b in big-endian code order: shape
    (p^n, 2n) for one generator set (n, 2n), (..., p^n, 2n) for a stack."""
    g = np.asarray(gens, dtype=np.int64)
    return (_digits(p, g.shape[-2]) @ g) % p


def subspace_points(gs: GeneratorSet, p: int) -> dict[tuple, tuple]:
    """The p^n points spanned by a generator set, keyed by their coefficient
    tuples (so solving w = sum_r b_r g_r(alpha) is a reverse lookup)."""
    b = _digits(p, len(gs.gens)).tolist()
    return dict(zip(map(tuple, b), map(tuple, _span(gs.gens, p).tolist())))


def line_points(
    field: GaloisField, slope: int, intercept: FieldElement
) -> list[tuple[FieldElement, FieldElement]]:
    """The p^n points of L(slope, intercept); slope label p^n is the vertical
    line x = intercept."""
    d = field.order
    if slope == d:
        return [(intercept, y) for y in field.elements()]
    if not 0 <= slope < d:
        raise ValueError(f"invalid slope label {slope}")
    ua = field.from_int(slope)
    return [(x, x * ua + intercept) for x in field.elements()]


def all_lines(field: GaloisField) -> list[tuple[int, FieldElement]]:
    """(slope, intercept) labels of all p^{2n} + p^n lines."""
    return [(s, g) for s in range(field.order + 1) for g in field.elements()]


@functools.lru_cache(maxsize=32)
def phase_geometry(p: int, n: int, poly: tuple | None = None) -> "PhaseGeometry":
    return PhaseGeometry(make_extension(p, n, poly))


class PhaseGeometry:
    """Precomputed index tables for one field: generator sets per class, and
    the index equation w = sum b_r g_r(alpha) solved for every w at once, as
    integer arrays of class labels and coefficient codes."""

    def __init__(self, field: GaloisField):
        self.field = field
        self.p = field.p
        self.n = field.n
        self.dim = field.order
        self.num_classes = field.order + 1
        self.generator_sets = [generator_set(field, a) for a in range(self.num_classes)]
        # gens[alpha, r] = g_r(alpha), shape (p^n + 1, n, 2n)
        self.gens = frozen(np.array([gs.gens for gs in self.generator_sets], dtype=np.int64))
        # y_table[alpha][j][r] = y_j^{(r)}(alpha), read off the generators
        self.y_table = {a: self.gens[a, :, 1::2].T.tolist() for a in range(self.dim)}
        self._class_of, self._b_code = self._solve_index_equation()

    def _solve_index_equation(self) -> tuple[np.ndarray, np.ndarray]:
        """Class label and b-code of every point, in code order; the origin
        maps to (0, 0). Checks that the classes tile V_{2n}(p)."""
        codes = index_code(self.p, _span(self.gens, self.p))  # [alpha, b-code]
        counts = np.bincount(codes.ravel(), minlength=self.dim**2)
        if counts[0] != self.num_classes or not (counts[1:] == 1).all():
            raise AssertionError("subspaces overlap away from the origin")
        class_of = np.zeros(self.dim**2, dtype=np.int64)
        b_code = np.zeros(self.dim**2, dtype=np.int64)
        class_of[codes] = np.arange(self.num_classes)[:, None]
        b_code[codes] = np.arange(self.dim)
        class_of[0] = b_code[0] = 0
        return frozen(class_of), frozen(b_code)

    def decompose(self, w: Sequence[int]) -> tuple[int, tuple]:
        """Solve w = sum_r b_r g_r(alpha) for (alpha, b); w=0 maps to b=0."""
        if len(w) != 2 * self.n or any(c != int(c) for c in w):
            raise ValueError(f"{w} is not an index vector of V_{2*self.n}({self.p})")
        code = index_code(self.p, w)
        b = np.unravel_index(self._b_code[code], (self.p,) * self.n)
        return int(self._class_of[code]), tuple(int(c) for c in b)

    def subspace_points(self, alpha: int) -> dict[tuple, tuple]:
        """b-tuple -> point of the alpha subspace (coefficients recoverable)."""
        return subspace_points(self.generator_sets[alpha], self.p)
