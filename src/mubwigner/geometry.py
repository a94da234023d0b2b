"""Index geometry: V_2(p^n), V_{2n}(p), lines, and the symplectic-preserving map.

A point of V_2(p^n) is a pair of field elements. The map M expands the first
coordinate in the power basis {lambda^j} and the second in the dual basis
{g_j(lambda)} and interleaves the coordinates into a vector of V_{2n}(p); it
is a bijection and sends symplectically orthogonal pairs to symplectically
orthogonal pairs, which is what lets tensor products of small spin matrices
stand in for the Galois-indexed ones.

Class labels alpha run over 0..p^n; labels below p^n encode field elements
(little-endian base-p digits a_k); the label p^n is the vertical class. M is
linear, and so are the generators g_r(alpha) = M(lambda^r (1, alpha)) in the
digits of alpha: the x half is lambda^r, that is e_r, and the y half is
y_j = tr(lambda^{j+r} alpha) = sum_k a_k T[j+r+k], a product with the Hankel
tensor of the Newton power sums T[k] = tr(lambda^k). All p^n + 1 classes are
one integer product; no field element is multiplied. Each class's subspace is
held as the codes of its p^n points, which solves the index equation w =
sum_r b_r g_r(alpha) for every w at once: code(w) sits at (alpha, code(b)).
"""

from __future__ import annotations

import functools
import reprlib
from typing import Sequence

import numpy as np

from .fields import FieldElement, GaloisField, make_extension
from .spins import _digits, frozen


def _span(gens, p: int) -> np.ndarray:
    """sum_r b_r g_r mod p for every b in big-endian code order: shape
    (p^n, 2n) for one generator set (n, 2n), (..., p^n, 2n) for a stack."""
    g = np.asarray(gens, dtype=np.int64)
    return (_digits(p, g.shape[-2]) @ g) % p


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
    """Precomputed index tables for one field, as integer arrays: the
    generators of every class, and the point codes of every class's
    subspace, codes[alpha, b] = code(sum_r b_r g_r(alpha)): the index
    equation w = sum_r b_r g_r(alpha) solved for every w, which the kernel
    scatters its phases through."""

    def __init__(self, field: GaloisField):
        self.field = field
        self.p = field.p
        self.n = field.n
        self.dim = field.order
        self.num_classes = field.order + 1
        # gens[alpha, r] = g_r(alpha), shape (p^n + 1, n, 2n)
        self.gens = frozen(self._hankel_generators())
        self.codes = frozen(self._class_codes())

    def _hankel_generators(self) -> np.ndarray:
        """Below p^n, gx = I_n and gy[alpha, r, j] = sum_k a_k T[j+r+k] with a
        the little-endian digits of alpha; the vertical class has gx = 0 and
        gy = I_n."""
        p, n, d = self.p, self.n, self.dim
        T = np.array([self.field.trace_power(k) for k in range(3 * n - 2)], dtype=np.int64)
        j = np.arange(n)
        hankel = T[j[:, None, None] + j[:, None] + j]  # [r, j, k] = T[r+j+k]
        eye = np.eye(n, dtype=np.int64)
        gens = np.zeros((d + 1, n, 2 * n), dtype=np.int64)
        gens[:d, :, 0::2] = eye
        gens[:d, :, 1::2] = np.tensordot(_digits(p, n)[:, ::-1], hankel, axes=(1, 2)) % p
        gens[d, :, 1::2] = eye
        return gens

    def _class_codes(self) -> np.ndarray:
        """codes[alpha, b] = code of sum_r b_r g_r(alpha), b in big-endian code
        order. The x digits of that point are b's own below p^n (gx = I) and
        0 on the vertical class (gx = 0), so only the n y digits take a
        product and a reduction mod p, one (p^n + 1, p^n) plane at a time."""
        p, n, d = self.p, self.n, self.dim
        b = _digits(p, n)
        weight = p ** np.arange(2 * n - 1, -1, -1, dtype=np.int64)  # of x_0, y_0, x_1, ...
        codes = np.zeros((d + 1, d), dtype=np.int64)
        codes[:d] = b @ weight[0::2]
        for j in range(n):  # y_j[alpha, b] = sum_r b_r gens[alpha, r, y_j]
            codes += (self.gens[:, :, 2 * j + 1] @ b.T) % p * weight[2 * j + 1]
        # the classes tile V_{2n}(p): each point once, the origin once per class
        counts = np.bincount(codes.ravel(), minlength=d * d)
        if counts[0] != d + 1 or not (counts[1:] == 1).all():
            raise AssertionError("subspaces overlap away from the origin")
        return codes

    def check_label(self, alpha: int) -> None:
        """Raise ValueError unless alpha is an integer class label 0..p^n."""
        if not isinstance(alpha, (int, np.integer)) or not 0 <= alpha <= self.dim:
            raise ValueError(f"invalid class label {alpha!r}")

    def _integer_vectors(self, v, length: int, what: str, ndim: int = 1) -> np.ndarray:
        """v as int64 entries reduced mod p; raises ValueError unless v is one
        vector (ndim 1) or a stack of vectors (ndim 2) of `length`
        integer-valued entries."""
        try:
            a = np.asarray(v, dtype=float)
            ok = a.ndim == ndim and a.shape[-1] == length
            ok = ok and bool(np.all(np.isfinite(a) & (a == np.floor(a))))
        except (TypeError, ValueError):  # ragged or non-numeric
            ok = False
        if not ok:
            raise ValueError(f"{reprlib.repr(v)} is not {what} of V_{length}({self.p})")
        return a.astype(np.int64) % self.p

    def outcome(self, s: Sequence[int]) -> tuple:
        """s with its entries reduced mod p; raises ValueError unless s has n
        integer-valued entries."""
        return tuple(self._integer_vectors(s, self.n, "an outcome vector").tolist())

    def index_vectors(self, w, ndim: int = 1) -> np.ndarray:
        """w reduced mod p: one index vector, or a stack of them with ndim=2;
        raises ValueError unless each has 2n integer-valued entries."""
        return self._integer_vectors(w, 2 * self.n, "an index vector", ndim)

    @functools.cached_property
    def outcome_dots(self) -> np.ndarray:
        """s.b mod p for every pair of vectors (s, b) of V_n(p) in code order,
        (p^n, p^n) int64; read-only, built on first read and shared by every
        class (numpy runs this integer product without BLAS)."""
        b = _digits(self.p, self.n)
        return frozen((b @ b.T) % self.p)

    def generators(self, alpha: int) -> np.ndarray:
        """g_0(alpha)..g_{n-1}(alpha), shape (n, 2n); rejects bad labels."""
        self.check_label(alpha)
        return self.gens[alpha]
