import itertools

import numpy as np
import pytest

from dense_oracle import (
    decompose,
    generating_vectors,
    generator_set,
    m_map,
    subspace_points,
    symplectic,
    vector_symplectic,
)
from mubwigner.fields import FieldElement, is_prime, make_extension, prime_inverse
from mubwigner.geometry import (
    _span,
    all_lines,
    line_points,
    phase_geometry,
)
from mubwigner.mub import full_mub
from mubwigner.serialize import mub_to_json
from mubwigner.spins import index_code

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]


def test_symplectic_examples():
    F = make_extension(3, 1)
    e = lambda v: F.element([v])
    # (1,0) o (0,1) = 0*0 - 1*1 = -1 = 2 mod 3
    assert symplectic((e(1), e(0)), (e(0), e(1))).coeffs == (2,)
    for a, b in itertools.product(range(3), repeat=2):
        u = (e(a), e(b))
        assert symplectic(u, u).is_zero()


@pytest.mark.parametrize("p,n", FIELDS)
def test_class_representatives_pairwise_nonorthogonal(p, n):
    # u_alpha o u_beta = 0 iff alpha = beta
    F = make_extension(p, n)
    us = generating_vectors(F)
    assert len(us) == F.order + 1
    for i, u in enumerate(us):
        for j, v in enumerate(us):
            assert symplectic(u, v).is_zero() == (i == j)


def test_generating_vectors_p3():
    F = make_extension(3, 1)
    pts = [(u[0].coeffs[0], u[1].coeffs[0]) for u in generating_vectors(F)]
    assert pts == [(1, 0), (1, 1), (1, 2), (0, 1)]


@pytest.mark.parametrize("p,n", FIELDS)
def test_classes_partition_plane(p, n):
    # the multiples of each representative cover V_2 once away from the origin
    F = make_extension(p, n)
    seen = {}
    for u in generating_vectors(F):
        pts = {(b * u[0], b * u[1]) for b in F.elements()}
        assert len(pts) == F.order
        for pt in pts:
            if pt == (F.zero, F.zero):
                continue
            key = (pt[0].coeffs, pt[1].coeffs)
            assert key not in seen
            seen[key] = True
    assert len(seen) == F.order**2 - 1


def test_vector_symplectic_reduces_to_symplectic_n1():
    p = 5
    F = make_extension(p, 1)
    for u, v in itertools.product(itertools.product(range(p), repeat=2), repeat=2):
        fu = (F.element([u[0]]), F.element([u[1]]))
        fv = (F.element([v[0]]), F.element([v[1]]))
        assert vector_symplectic(u, v, p) == symplectic(fu, fv).coeffs[0]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2)])
def test_m_map_bijective_and_symplectic_preserving(p, n):
    F = make_extension(p, n)
    if F.order > 9:
        els = [F.from_int(i) for i in range(F.order)]
        pairs = [(els[i], els[(7 * i + 3) % F.order]) for i in range(F.order)]
    else:
        pairs = list(itertools.product(F.elements(), repeat=2))
    images = set()
    for x, y in pairs:
        images.add(m_map(F, (x, y)))
    if F.order <= 9:
        assert len(images) == F.order**2  # one-to-one and onto
    # orthogonality transfer on all pairs of multiples of representatives
    for u in generating_vectors(F):
        for b1, b2 in itertools.product(list(F.elements())[:4], repeat=2):
            v1 = (b1 * u[0], b1 * u[1])
            v2 = (b2 * u[0], b2 * u[1])
            assert vector_symplectic(m_map(F, v1), m_map(F, v2), p) == 0


def test_m_map_identity_for_prime_field():
    F = make_extension(5, 1)
    for a, b in itertools.product(range(5), repeat=2):
        assert m_map(F, (F.element([a]), F.element([b]))) == (a, b)


def test_m_map_example_p3():
    # alpha = 1 + lam in GF(9) with lam^2 = 2
    F = make_extension(3, 2)
    alpha = F.element([1, 1])
    g0 = m_map(F, (F.one, alpha))
    g1 = m_map(F, (F.lam, F.lam * alpha))
    assert g0 == (1, 2, 0, 1)
    assert g1 == (0, 1, 1, 1)


def test_generator_sets_odd_p_closed_form():
    # for odd p, n=2: {(1,2a0,0,2Da1), (0,2Da1,1,2Da0)} and the vertical set
    for p in (3, 5, 7):
        F = make_extension(p, 2)
        geom = phase_geometry(p, 2)
        D = (-F.poly[0]) % p
        for alpha in range(p * p):
            a0, a1 = F.from_int(alpha).coeffs
            gens = geom.gens[alpha].tolist()
            assert gens[0] == [1, (2 * a0) % p, 0, (2 * D * a1) % p]
            assert gens[1] == [0, (2 * D * a1) % p, 1, (2 * D * a0) % p]
        assert geom.gens[p * p].tolist() == [[0, 1, 0, 0], [0, 0, 0, 1]]


def test_generator_sets_two_qubits():
    F = make_extension(2, 2)
    geom = phase_geometry(2, 2)
    for alpha in range(4):
        a0, a1 = F.from_int(alpha).coeffs
        gens = geom.gens[alpha].tolist()
        assert gens[0] == [1, a1, 0, (a0 + a1) % 2]
        assert gens[1] == [0, (a0 + a1) % 2, 1, a0]
    # vertical class from the dual-basis expansion: blocks (0, delta(j,r))
    assert geom.gens[4].tolist() == [[0, 1, 0, 0], [0, 0, 0, 1]]


# the field route as oracle: every n >= 2 with d <= 256, and n = 1 to p = 31
ORACLE_FIELDS = [(p, n) for p in range(2, 32) if is_prime(p) for n in range(1, 9)
                 if n == 1 or p**n <= 256]


@pytest.mark.parametrize("p,n", ORACLE_FIELDS)
def test_hankel_generators_match_field_route(p, n):
    geom = phase_geometry(p, n)
    want = [generator_set(geom.field, alpha) for alpha in range(geom.num_classes)]
    assert geom.gens.dtype == np.int64
    assert np.array_equal(geom.gens, np.array(want))


# every (p, n) the suite builds a geometry for: ORACLE_FIELDS and n = 1 up to p = 163
CODE_FIELDS = ORACLE_FIELDS + [(p, 1) for p in range(37, 164) if is_prime(p)]


@pytest.mark.parametrize("p,n", CODE_FIELDS)
def test_class_codes_match_span_route(p, n):
    # the span route: index codes of the whole (p^n + 1, p^n, 2n) stack of points
    geom = phase_geometry(p, n)
    assert geom.codes.dtype == np.int64
    assert np.array_equal(geom.codes, index_code(p, _span(geom.gens, p)))


def test_geometry_builds_without_field_multiplication(monkeypatch):
    def refuse(self, other):
        raise AssertionError("FieldElement product taken")

    monkeypatch.setattr(FieldElement, "__mul__", refuse)
    from mubwigner.wigner import CONVENTIONS, ConventionError, wigner_kernel

    phase_geometry.cache_clear()
    wigner_kernel.cache_clear()
    try:
        for p, n in [(2, 2), (3, 2), (2, 8), (3, 5)]:
            phase_geometry(p, n)
            for conv in CONVENTIONS:
                try:
                    k = wigner_kernel(p, n, conv)
                except ConventionError:
                    continue
                assert k.N == p ** (2 * n)
    finally:
        phase_geometry.cache_clear()
        wigner_kernel.cache_clear()


@pytest.mark.parametrize("alpha", [-1, 10, 2.0])
def test_class_label_rejected_where_generators_are_read(alpha):
    from mubwigner.mub import class_vectors, mub_projector

    geom = phase_geometry(3, 2)  # p^n + 1 = 10 classes
    for read in (geom.generators, lambda a: subspace_points(geom, a),
                 lambda a: class_vectors(geom, a),
                 lambda a: mub_projector(geom, a, (0, 0))):
        with pytest.raises(ValueError, match="class label"):
            read(alpha)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2)])
def test_generators_isotropic_and_symmetric(p, n):
    geom = phase_geometry(p, n)
    for gens in geom.gens.tolist():
        for g1, g2 in itertools.product(gens, repeat=2):
            assert vector_symplectic(g1, g2, p) == 0
    # y_k^{(j)} = y_j^{(k)}
    for alpha in range(geom.dim):
        y = geom.gens[alpha, :, 1::2]
        for j, k in itertools.product(range(n), repeat=2):
            assert y[j][k] == y[k][j]


@pytest.mark.parametrize("p,n", FIELDS)
def test_affine_plane_counts(p, n):
    F = make_extension(p, n)
    d = F.order
    lines = all_lines(F)
    assert len(lines) == d * d + d
    point_sets = {}
    for slope, intercept in lines:
        pts = line_points(F, slope, intercept)
        assert len(pts) == d
        point_sets[(slope, intercept.to_int())] = {
            (q[0].to_int(), q[1].to_int()) for q in pts
        }
    # lines with one slope partition the plane
    for slope in range(d + 1):
        union = set()
        for g in F.elements():
            pts = point_sets[(slope, g.to_int())]
            assert not (union & pts)
            union |= pts
        assert len(union) == d * d
    # every point lies on d+1 lines
    counts = {}
    for pts in point_sets.values():
        for q in pts:
            counts[q] = counts.get(q, 0) + 1
    assert set(counts.values()) == {d + 1}


def test_qubit_line_list():
    F = make_extension(2, 1)
    want = {
        (0, 0): {(0, 0), (1, 0)},
        (0, 1): {(0, 1), (1, 1)},
        (1, 0): {(0, 0), (1, 1)},
        (1, 1): {(0, 1), (1, 0)},
        (2, 0): {(0, 0), (0, 1)},
        (2, 1): {(1, 0), (1, 1)},
    }
    for (slope, g), pts in want.items():
        got = {
            (q[0].to_int(), q[1].to_int())
            for q in line_points(F, slope, F.from_int(g))
        }
        assert got == pts


def test_v2_3_line_example():
    F = make_extension(3, 1)
    got = {(q[0].to_int(), q[1].to_int()) for q in line_points(F, 1, F.zero)}
    assert got == {(0, 0), (1, 1), (2, 2)}


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (3, 3), (5, 2), (2, 4)])
def test_subspace_points_and_decomposition(p, n):
    geom = phase_geometry(p, n)
    origin = (0,) * (2 * n)
    covered = set()
    for alpha in range(geom.num_classes):
        pts = subspace_points(geom, alpha)
        assert len(pts) == p**n
        for b, w in pts.items():
            if w == origin:
                assert all(x == 0 for x in b)
                continue
            got_alpha, got_b = decompose(geom, w)
            assert (got_alpha, got_b) == (alpha, b)
            covered.add(w)
    # subspaces intersect only at the origin and tile everything else
    assert len(covered) == p ** (2 * n) - 1
    assert decompose(geom, origin) == (0, (0,) * n)


def test_decompose_rejects_bad_input():
    geom = phase_geometry(3, 1)
    with pytest.raises(ValueError):
        decompose(geom, (1, 2, 3))


def test_decompose_rejects_non_integer_entries():
    geom = phase_geometry(3, 1)
    assert decompose(geom, (1.0, 2)) == decompose(geom, (1, 2))
    for w in [(1.5, 2), (float("nan"), 0)]:
        with pytest.raises(ValueError):
            decompose(geom, w)


def test_generator_set_json():
    data = mub_to_json(full_mub(3, 2), 3, 2)["bases"]
    assert data[4]["alpha"] == [1, 1]
    assert data[4]["generators"] == [[1, 2, 0, 1], [0, 1, 1, 1]]
    assert data[9]["alpha"] == "inf"
