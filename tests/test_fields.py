import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dual_basis, frobenius_trace
from mubwigner.fields import (
    FieldError,
    GaloisField,
    default_poly,
    is_irreducible,
    is_prime,
    is_quadratic_nonresidue,
    make_extension,
    prime_inverse,
    smallest_nonresidue,
)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2), (7, 2), (3, 3)]


def brute_force_inverse(a, p):
    for b in range(1, p):
        if (a * b) % p == 1:
            return b
    return None


def test_is_prime():
    assert [x for x in range(20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_inverse_examples():
    # 2*2 = 4 = 1 mod 3
    assert prime_inverse(2, 3) == brute_force_inverse(2, 3) == 2
    assert prime_inverse(1, 7) == 1
    # -2^{-1} mod 5 equals (5-1)/2
    assert prime_inverse(2, 5) == 3
    assert (-prime_inverse(2, 5)) % 5 == (5 - 1) // 2


def test_prime_inverse_zero_rejected():
    with pytest.raises(FieldError):
        prime_inverse(0, 5)
    with pytest.raises(FieldError):
        prime_inverse(5, 5)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_prime_inverse_all(p):
    for a in range(1, p):
        assert (a * prime_inverse(a, p)) % p == 1


def brute_force_nonresidue(d, p):
    return all((x * x) % p != d % p for x in range(p))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_nonresidue_against_brute_force(p):
    for d in range(1, p):
        assert is_quadratic_nonresidue(d, p) == brute_force_nonresidue(d, p)


def test_nonresidue_examples():
    assert is_quadratic_nonresidue(2, 3) is True
    assert is_quadratic_nonresidue(1, 7) is False
    # squares mod 7 are {1, 2, 4}: 3^2 = 2, so 2 is a residue
    assert is_quadratic_nonresidue(2, 7) is False
    assert smallest_nonresidue(7) == 3
    with pytest.raises(FieldError):
        is_quadratic_nonresidue(1, 2)


def test_nonresidue_by_euler_at_larger_primes_and_its_refusals():
    for p in (101, 1021):
        for d in list(range(1, 40)) + [-1, -2, p + 2]:
            assert is_quadratic_nonresidue(d, p) == brute_force_nonresidue(d, p)
    for d, p in [(0, 7), (14, 7), (1, 9), (1, 1)]:
        with pytest.raises(FieldError):
            is_quadratic_nonresidue(d, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_nonresidue_count(p):
    count = sum(1 for d in range(1, p) if is_quadratic_nonresidue(d, p))
    assert count == (p - 1) // 2


def test_default_polynomials():
    assert default_poly(2, 2) == (1, 1)  # x^2 + x + 1
    assert default_poly(3, 2) == (1, 0)  # x^2 - 2 = x^2 + 1 mod 3
    assert default_poly(5, 1) == (0,)
    # degree-3 default must be irreducible and deterministic
    assert default_poly(2, 3) == default_poly(2, 3)
    assert is_irreducible(default_poly(2, 3), 2)
    assert is_irreducible(default_poly(3, 3), 3)


# n=1 and (2,2) take the search's first irreducible polynomial, x and x^2+x+1;
# odd p with n=2 takes x^2 - D, which at p=5 is x^2 - 2 where the search gives x^2 + 2
@pytest.mark.parametrize("p,n,poly", [
    (2, 1, (0,)), (3, 1, (0,)), (59, 1, (0,)), (2, 2, (1, 1)),
    (3, 2, (1, 0)), (5, 2, (3, 0)), (7, 2, (4, 0)), (59, 2, (57, 0)),
])
def test_default_poly_pins_the_low_degree_cases(p, n, poly):
    assert default_poly(p, n) == poly


def test_irreducibility_check():
    assert is_irreducible((1, 1), 2)  # x^2+x+1
    assert not is_irreducible((1, 0), 2)  # x^2+1 = (x+1)^2 mod 2
    assert not is_irreducible((2, 0), 3)  # x^2+2 = x^2-1 = (x-1)(x+1)
    assert is_irreducible((1, 0), 3)
    with pytest.raises(FieldError):
        make_extension(2, 2, poly=(1, 0))


def test_reject_nonprime_and_scale():
    with pytest.raises(FieldError):
        make_extension(4, 1)
    with pytest.raises(FieldError):
        make_extension(2, 21)  # 2^21 over the desk-scale bound


def test_gf4_multiplication():
    F = make_extension(2, 2)
    lam = F.lam
    # lam * (lam + 1) = lam^2 + lam = (lam + 1) + lam = 1
    assert (lam * (lam + F.one)).coeffs == (1, 0)
    assert (lam * lam).coeffs == (1, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gfp2_product_rule(p):
    # (j1 + k1 lam)(j2 + k2 lam) = (j1 j2 + D k1 k2) + (j1 k2 + k1 j2) lam
    F = make_extension(p, 2)
    D = (-F.poly[0]) % p
    assert is_quadratic_nonresidue(D, p)
    for j1, k1, j2, k2 in itertools.product(range(p), repeat=4):
        prod = F.element([j1, k1]) * F.element([j2, k2])
        assert prod.coeffs == (
            (j1 * j2 + D * k1 * k2) % p,
            (j1 * k2 + k1 * j2) % p,
        )


def test_identity_element():
    F = make_extension(3, 2)
    a = F.element([2, 1])
    assert (a * F.one).coeffs == a.coeffs


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (2, 3), (3, 2), (5, 2), (7, 2)])
def test_field_axioms_exhaustive(p, n):
    F = make_extension(p, n)
    els = list(F.elements())
    for a, b, c in itertools.product(els, repeat=3):
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    for a, b in itertools.product(els, repeat=2):
        assert (a * b).coeffs == (b * a).coeffs
    for a in els:
        if not a.is_zero():
            assert (a * a.inverse()).coeffs == F.one.coeffs


def test_trace_values_gf9():
    F = make_extension(3, 2)
    assert F.trace(F.lam) == 0
    assert F.trace(F.one) == 2
    assert F.trace(F.zero) == 0


def test_trace_values_gf4():
    F = make_extension(2, 2)
    assert F.trace(F.one) == 0
    assert F.trace(F.lam) == 1
    assert F.trace(F.lam * F.lam) == 1


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_trace_matches_frobenius_sum(p, n):
    # independent definition: tr(a) = a + a^p + ... + a^{p^{n-1}}
    F = make_extension(p, n)
    for a in F.elements():
        assert F.trace(a) == frobenius_trace(F, a)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_trace_linearity(data):
    p, n = data.draw(st.sampled_from(SMALL_FIELDS))
    F = make_extension(p, n)
    a = F.from_int(data.draw(st.integers(0, F.order - 1)))
    b = F.from_int(data.draw(st.integers(0, F.order - 1)))
    c = data.draw(st.integers(0, p - 1))
    assert F.trace(F.scalar(c) * a + b) == (c * F.trace(a) + F.trace(b)) % p


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_dual_basis_trace_duality(p, n):
    F = make_extension(p, n)
    g = dual_basis(F)
    lam = F.lam if n > 1 else F.one
    for j in range(n):
        for k in range(n):
            assert F.trace(lam**j * g[k]) == (1 if j == k else 0)


def test_dual_basis_closed_form_odd_p_degree2():
    # for x^2 - D the dual basis is (2^{-1}, (2D)^{-1} lam)
    for p in (3, 5, 7):
        F = make_extension(p, 2)
        D = (-F.poly[0]) % p
        g0, g1 = dual_basis(F)
        assert g0.coeffs == (prime_inverse(2, p), 0)
        assert g1.coeffs == (0, prime_inverse((2 * D) % p, p))
    F9 = make_extension(3, 2)
    g0, g1 = dual_basis(F9)
    assert g0.coeffs == (2, 0)
    assert g1.coeffs == (0, 1)


def test_json_round_trip():
    F = make_extension(3, 2)
    assert GaloisField.from_json(F.to_json()) == F
    assert F.to_json() == {"p": 3, "n": 2, "poly": [1, 0]}
