"""Exact arithmetic in Z_p and GF(p^n).

Everything in this module is integer arithmetic mod p; no floating point.
Extension fields are represented by coefficient vectors over Z_p relative to
a monic irreducible polynomial x^n + c_{n-1} x^{n-1} + ... + c_0.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

# Brute-force validations (irreducibility, non-residues) stay cheap below this.
DESK_SCALE_LIMIT = 2**20


class FieldError(ValueError):
    """Invalid field construction or element operation."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_inverse(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p; a must be nonzero mod p."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    a %= p
    if a == 0:
        raise FieldError("0 has no multiplicative inverse")
    return pow(a, -1, p)


def is_quadratic_nonresidue(d: int, p: int) -> bool:
    """True iff x^2 = d mod p has no solution: d^{(p-1)/2} = -1 (Euler).

    Only defined for odd primes: every element of Z_2 is a square.
    """
    if p == 2:
        raise FieldError("no quadratic non-residue exists mod 2")
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    d %= p
    if d == 0:
        raise FieldError("0 is neither a residue nor a non-residue")
    return pow(d, (p - 1) // 2, p) == p - 1


def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue of an odd prime p."""
    for d in range(2, p):
        if is_quadratic_nonresidue(d, p):
            return d
    raise FieldError(f"no non-residue found mod {p}")  # unreachable for odd p


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p; coefficient lists are low-degree first
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a mod m; m must be monic."""
    a = _poly_trim([x % p for x in a])
    dm = len(m) - 1
    while a and len(a) - 1 >= dm:
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * c) % p
        a = _poly_trim(a)
    return a


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Exhaustive trial division for the monic polynomial x^n + sum c_k x^k.

    ``coeffs`` are (c_0, ..., c_{n-1}); division by every monic polynomial of
    degree 1..n//2. Desk-scale only.
    """
    n = len(coeffs)
    if n == 0:
        raise FieldError("degree must be >= 1")
    if p**n > DESK_SCALE_LIMIT:
        raise FieldError(f"p^n = {p**n} exceeds desk-scale bound {DESK_SCALE_LIMIT}")
    full = [c % p for c in coeffs] + [1]
    if n == 1:
        return True
    for deg in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            divisor = list(tail) + [1]
            if not _poly_mod(full, divisor, p):
                return False
    return True


def default_poly(p: int, n: int) -> tuple[int, ...]:
    """Deterministic defining polynomial for GF(p^n), as (c_0, ..., c_{n-1}).

    Odd p with n=2 uses x^2 - D for D the smallest quadratic non-residue;
    otherwise the first irreducible monic polynomial in the ordering by
    sum c_k p^k, which is x for n=1 and x^2+x+1 for (2,2).
    """
    if p % 2 == 1 and n == 2:
        return ((-smallest_nonresidue(p)) % p, 0)
    for code in range(p**n):
        coeffs = tuple((code // p**k) % p for k in range(n))
        if is_irreducible(coeffs, p):
            return coeffs
    raise FieldError(f"no irreducible polynomial of degree {n} over Z_{p}")  # unreachable


class FieldElement:
    """Element of GF(p^n) as a reduced coefficient vector over Z_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "GaloisField", coeffs: Sequence[int]):
        if len(coeffs) != field.n:
            raise FieldError(f"expected {field.n} coefficients, got {len(coeffs)}")
        self.field = field
        self.coeffs = tuple(c % field.p for c in coeffs)

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise FieldError("field mismatch")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        prod = _poly_mul(self.coeffs, other.coeffs, self.field.p)
        red = _poly_mod(prod, self.field._full_poly, self.field.p)
        return FieldElement(self.field, list(red) + [0] * (self.field.n - len(red)))

    def __pow__(self, m: int) -> "FieldElement":
        if m < 0:
            return self.inverse() ** (-m)
        out = self.field.one
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise FieldError("0 has no multiplicative inverse")
        return self ** (self.field.order - 2)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def trace(self) -> int:
        return self.field.trace(self)

    def to_int(self) -> int:
        """Encode as sum a_k p^k (little-endian in the power basis)."""
        return sum(a * self.field.p**k for k, a in enumerate(self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.n, self.coeffs))

    def __repr__(self) -> str:
        return f"FieldElement({list(self.coeffs)} in GF({self.field.p}^{self.field.n}))"


class GaloisField:
    """GF(p^n) built from a monic irreducible polynomial over Z_p.

    The defining polynomial is stored as coefficients (c_0, ..., c_{n-1}) of
    x^n + c_{n-1} x^{n-1} + ... + c_0. Traces of the basis powers lambda^k are
    precomputed with Newton's identities (power sums of the roots), so the
    trace of any element follows by Z_p-linearity.
    """

    def __init__(self, p: int, n: int, poly: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if n < 1:
            raise FieldError("degree must be >= 1")
        if p**n > DESK_SCALE_LIMIT:
            raise FieldError(f"p^n = {p**n} exceeds desk-scale bound {DESK_SCALE_LIMIT}")
        self.p = p
        self.n = n
        self.order = p**n
        if poly is None:
            self.poly = default_poly(p, n)
        else:
            self.poly = tuple(c % p for c in poly)
            if len(self.poly) != n:
                raise FieldError(f"polynomial must have {n} coefficients")
            if not is_irreducible(self.poly, p):
                raise FieldError(f"x^{n} + {list(self.poly)} is reducible over Z_{p}")
        self._full_poly = list(self.poly) + [1]
        self._trace_powers = self._newton_power_sums(3 * n)

    # -- construction helpers ------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> FieldElement:
        return FieldElement(self, coeffs)

    def from_int(self, code: int) -> FieldElement:
        if not 0 <= code < self.order:
            raise FieldError(f"element code {code} out of range")
        return FieldElement(self, [(code // self.p**k) % self.p for k in range(self.n)])

    def scalar(self, a: int) -> FieldElement:
        return FieldElement(self, [a] + [0] * (self.n - 1))

    @property
    def zero(self) -> FieldElement:
        return self.scalar(0)

    @property
    def one(self) -> FieldElement:
        return self.scalar(1)

    @property
    def lam(self) -> FieldElement:
        """The symbolic root of the defining polynomial (n >= 2)."""
        if self.n == 1:
            return self.zero
        return FieldElement(self, [0, 1] + [0] * (self.n - 2))

    def elements(self) -> Iterator[FieldElement]:
        for code in range(self.order):
            yield self.from_int(code)

    # -- trace ------------------------------------------------------------------

    def _newton_power_sums(self, kmax: int) -> list[int]:
        # P_k = sum of k-th powers of the roots of the defining polynomial,
        # mod p; no divisions are needed in this direction of the identities.
        n, p = self.n, self.p
        # signed elementary symmetric functions of the roots: e[i] = c_{n-i}
        e = [1] + [self.poly[n - i] for i in range(1, n + 1)]
        P = [n % p]
        for k in range(1, kmax + 1):
            acc = 0
            for i in range(1, min(k - 1, n) + 1):
                acc += e[i] * P[k - i]
            if k <= n:
                acc += k * e[k]
            P.append((-acc) % p)
        return P

    def trace_power(self, k: int) -> int:
        """tr(lambda^k), extended by the Newton recurrence as needed."""
        while k >= len(self._trace_powers):
            self._trace_powers = self._newton_power_sums(2 * len(self._trace_powers))
        return self._trace_powers[k]

    def trace(self, a: FieldElement) -> int:
        if a.field != self:
            raise FieldError("field mismatch")
        return sum(c * self.trace_power(k) for k, c in enumerate(a.coeffs)) % self.p

    # -- misc -------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaloisField)
            and (self.p, self.n, self.poly) == (other.p, other.n, other.poly)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.poly))

    def __repr__(self) -> str:
        return f"GaloisField(p={self.p}, n={self.n}, poly={list(self.poly)})"

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "poly": list(self.poly)}

    @classmethod
    def from_json(cls, data: dict) -> "GaloisField":
        return cls(data["p"], data["n"], data["poly"])


def make_extension(p: int, n: int, poly: Optional[Sequence[int]] = None) -> GaloisField:
    """Construct GF(p^n); validates the polynomial if one is supplied."""
    return GaloisField(p, n, poly)
