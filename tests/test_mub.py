import dataclasses
import itertools

import numpy as np
import pytest

from conftest import SIGMA
from dense_oracle import (
    PhasedOperator,
    class_generator_ops,
    commuting_class,
    mub_projector_matrix,
    phased_spin,
)
from mubwigner import spins
from mubwigner.geometry import phase_geometry
from mubwigner.mub import class_members, class_vectors, full_mub, mub_projector, verify_mub
from mubwigner.spins import _digits, index_code, spin_matrix

# every (p, n) with d = p^n <= 27
SMALL = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
         (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)]

TOL = 1e-10


def test_qubit_classes():
    geom = phase_geometry(2, 1)
    want = {0: SIGMA["z"], 1: 1j * SIGMA["y"], 2: SIGMA["x"]}
    for alpha, M in want.items():
        cls = commuting_class(geom, alpha)
        mats = sorted(
            (np.round(op.matrix(), 12).tolist() for op in cls.values()),
            key=str,
        )
        expect = sorted(
            (np.round(m, 12).tolist() for m in (np.eye(2, dtype=complex), M)), key=str
        )
        assert mats == expect


def test_class_members_odd_p_squared_form():
    # members are (S_{1,2a0} x S_{0,2Da1})^b0 (S_{0,2Da1} x S_{1,2Da0})^b1
    p = 3
    geom = phase_geometry(p, 2)
    D = (-geom.field.poly[0]) % p
    for alpha in range(p * p):
        a0, a1 = geom.field.from_int(alpha).coeffs
        g0 = np.kron(spin_matrix(p, 1, 2 * a0 % p), spin_matrix(p, 0, 2 * D * a1 % p))
        g1 = np.kron(spin_matrix(p, 0, 2 * D * a1 % p), spin_matrix(p, 1, 2 * D * a0 % p))
        cls = commuting_class(geom, alpha)
        for b, op in cls.items():
            want = np.linalg.matrix_power(g0, b[0]) @ np.linalg.matrix_power(g1, b[1])
            assert np.abs(op.matrix() - want).max() < TOL


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_class_members_commute(p, n):
    geom = phase_geometry(p, n)
    for alpha in range(geom.num_classes):
        mats = [op.matrix() for op in commuting_class(geom, alpha).values()]
        for A, B in itertools.product(mats, repeat=2):
            assert np.abs(A @ B - B @ A).max() < TOL


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_classes_disjoint_except_identity(p, n):
    geom = phase_geometry(p, n)
    seen = {}
    for alpha in range(geom.num_classes):
        for b, op in commuting_class(geom, alpha).items():
            if all(x == 0 for x in b):
                continue
            assert op.index not in seen
            seen[op.index] = alpha


def test_projector_examples_qubit():
    geom = phase_geometry(2, 1)
    P = mub_projector(geom, 0, (0,)).matrix
    assert np.abs(P - (SIGMA["I"] + SIGMA["z"]) / 2).max() < TOL


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_projector_family(p, n):
    geom = phase_geometry(p, n)
    d = p**n
    for alpha in range(geom.num_classes):
        total = np.zeros((d, d), dtype=complex)
        mats = {}
        for s in itertools.product(range(p), repeat=n):
            P = mub_projector(geom, alpha, s).matrix
            assert np.abs(P - P.conj().T).max() < TOL
            assert np.abs(P @ P - P).max() < TOL
            assert abs(np.trace(P) - 1) < TOL
            total += P
            mats[s] = P
        assert np.abs(total - np.eye(d)).max() < TOL
        for s, t in itertools.product(mats, repeat=2):
            want = mats[s] if s == t else np.zeros((d, d))
            assert np.abs(mats[s] @ mats[t] - want).max() < TOL


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_projector_factors_commuting_rank_pn_minus_1(p, n):
    # each P_alpha(s) is a product of commuting rank-p^{n-1} projectors
    geom = phase_geometry(p, n)
    d = p**n
    for alpha in range(geom.num_classes):
        ops = class_generator_ops(geom, alpha)
        factors = []
        for r, T in enumerate(ops):
            Tm = T.matrix()
            acc = np.zeros((d, d), dtype=complex)
            M = np.eye(d, dtype=complex)
            for b in range(p):
                acc += M
                M = M @ Tm
            factors.append(acc / p)  # outcome s_r = 0 factor
        for F in factors:
            assert np.abs(F @ F - F).max() < TOL
            assert abs(np.trace(F) - p ** (n - 1)) < TOL
        for F, G in itertools.product(factors, repeat=2):
            assert np.abs(F @ G - G @ F).max() < TOL


def test_qubit_mub_are_pauli_eigenbases():
    bases = full_mub(2, 1)
    # basis 0: sigma_z eigenvectors; basis 1: sigma_y; basis 2: sigma_x
    for alpha, M in ((0, SIGMA["z"]), (1, SIGMA["y"]), (2, SIGMA["x"])):
        for P in bases[alpha]:
            v = P.matrix @ M @ P.matrix
            lam = np.trace(v).real
            assert np.abs(v - lam * P.matrix).max() < TOL
            assert abs(abs(lam) - 1) < TOL


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_full_mub_verification(p, n):
    report = verify_mub(full_mub(p, n), p, n)
    assert report.num_bases == p**n + 1
    assert report.passed, report


def test_full_mub_rejects_nonprime():
    from mubwigner.fields import FieldError

    with pytest.raises(FieldError):
        full_mub(4, 1)


@pytest.mark.parametrize("p,n", SMALL)
def test_class_members_match_phased_operator_products(p, n):
    geom = phase_geometry(p, n)
    for alpha in range(geom.num_classes):
        for with_alpha in (True, False):
            gens = [phased_spin(p, g, with_alpha) for g in geom.gens[alpha].tolist()]
            w, e, i_exp = class_members(geom, alpha, with_alpha)
            for k, b in enumerate(itertools.product(range(p), repeat=n)):
                acc = PhasedOperator(p, n, (0,) * (2 * n))
                for op, br in zip(gens, b):
                    acc = acc @ op.power(br)
                assert (acc.index, acc.eta_exp, acc.i_exp) == (tuple(w[k]), e[k], i_exp[k])


@pytest.mark.parametrize("p,n", SMALL)
def test_mub_vectors_match_dense_oracle(p, n):
    geom = phase_geometry(p, n)
    for basis in full_mub(p, n):
        for P in basis:
            assert abs(np.linalg.norm(P.vector) - 1) < 1e-12
            want = mub_projector_matrix(geom, P.alpha, P.s)
            assert np.abs(P.matrix - want).max() < 1e-12


def test_mub_beyond_dense_reach():
    # d = 81: orthonormal bases with overlaps 1/d, checked on the vectors only
    p, n = 3, 4
    d = p**n
    bases = full_mub(p, n)
    report = verify_mub(bases, p, n)
    assert report.num_bases == d + 1
    assert report.passed, report
    V = np.array([[P.vector for P in basis] for basis in bases])
    assert np.abs(V[5].conj() @ V[5].T - np.eye(d)).max() < TOL
    assert np.abs(np.abs(V[5].conj() @ V[d].T) ** 2 - 1 / d).max() < TOL


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 1), (7, 2)])
def test_clock_class_rows_are_unit_vectors(p, n):
    # class 0 is the clock eigenbasis: row code(s) is e_{code(-s)}
    d = p**n
    want = np.zeros((d, d))
    want[np.arange(d), index_code(p, -_digits(p, n))] = 1
    assert np.array_equal(class_vectors(phase_geometry(p, n), 0), want)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 1), (7, 2), (3, 4)])
def test_flat_classes_in_closed_form(p, n):
    # every class alpha >= 1 is flat, with psi_s(0) = d^-1/2 for every s
    geom, d = phase_geometry(p, n), p**n
    for alpha in range(1, d + 1):
        V = class_vectors(geom, alpha)
        assert np.abs(np.abs(V) ** 2 - 1 / d).max() < 1e-15
        assert np.array_equal(V[:, 0], np.full(d, 1 / np.sqrt(d)))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_qubit_vectors_are_exact_quarter_phases(n):
    # at p = 2, sqrt(d) psi is exactly 1, -1, i or -i in every class alpha >= 1
    geom, d = phase_geometry(2, n), 2**n
    units = np.array([1, -1, 1j, -1j]) / np.sqrt(d)
    for alpha in range(1, d + 1):
        assert np.isin(class_vectors(geom, alpha), units).all()


@pytest.mark.parametrize("p,n", [(3, 5), (2, 8)])
def test_closed_form_classes_unbiased_beyond_dense_reach(p, n):
    # orthonormal classes, pairwise overlaps 1/d, checked on raw Gram blocks
    geom, d = phase_geometry(p, n), p**n
    V = [class_vectors(geom, alpha) for alpha in (0, 1, d // 2, d)]
    for a, Va in enumerate(V):
        assert np.abs(Va.conj() @ Va.T - np.eye(d)).max() < 1e-12
        for Vb in V[a + 1:]:
            assert np.abs(np.abs(Va.conj() @ Vb.T) ** 2 - 1 / d).max() < 1e-12


@pytest.mark.parametrize("where", [(0, 0, 0), (2, 1, 2)])
def test_verify_mub_fails_on_nan(where):
    alpha, s, i = where
    bases = full_mub(3, 1)
    v = bases[alpha][s].vector.copy()
    v[i] = np.nan
    bases[alpha][s] = dataclasses.replace(bases[alpha][s], vector=v)
    report = verify_mub(bases, 3, 1)
    assert report.passed is False
    assert report.to_json()["passed"] is False


def test_verify_mub_tolerance():
    bases = full_mub(3, 1)
    assert verify_mub(bases, 3, 1).tol == 1e-10
    report = verify_mub(bases, 3, 1, tol=1e-30)
    assert report.passed is False
    assert report.to_json()["tol"] == 1e-30


def test_mub_paths_build_no_dense_operator(monkeypatch, tmp_path):
    from mubwigner.cli import main

    # spin_matrix is the one dense spin constructor left in the library
    def dense(*args):
        raise AssertionError("dense spin matrix built")

    monkeypatch.setattr(spins, "spin_matrix", dense)
    assert verify_mub(full_mub(3, 2), 3, 2).passed
    state = tmp_path / "state.json"
    state.write_text('{"random": "density"}')
    argv = ["check", "--p", "3", "--n", "2", "--input", str(state), "--checks", "marginals",
            "--out", str(tmp_path / "check.json")]
    assert main(argv) == 0


@pytest.mark.parametrize("s", [(0.5,), (float("nan"),), (1, 0), ()])
def test_mub_projector_rejects_non_outcomes(s):
    with pytest.raises(ValueError, match="outcome vector"):
        mub_projector(phase_geometry(3, 1), 1, s)


def test_mub_projector_reduces_integer_valued_outcomes():
    geom = phase_geometry(3, 2)
    want = mub_projector(geom, 4, (1, 2))
    for s in [(1.0, 2), (4, -1), (np.int64(1), np.float64(2.0))]:
        P = mub_projector(geom, 4, s)
        assert P.s == (1, 2) and all(type(c) is int for c in P.s)
        assert np.array_equal(P.vector, want.vector)


@pytest.mark.parametrize("state", [
    {"alpha": 1.5, "s": [0]},
    {"alpha": [1.7], "s": [0]},
    {"alpha": 1, "s": [0.5]},
    {"alpha": float("nan"), "s": [0]},
    {"alpha": 0, "s": 3},
    {"alpha": None, "s": [0]},
    {"alpha": [1, None], "s": [0, 0]},
])
def test_state_shorthand_rejects_non_integers(state):
    from mubwigner.serialize import resolve_state

    with pytest.raises(ValueError):
        resolve_state(state, 3, 1)


def test_state_shorthand_accepts_integer_valued_labels():
    from mubwigner.serialize import resolve_state

    geom = phase_geometry(3, 2)
    want = mub_projector(geom, 5, (0, 2)).matrix
    # alpha 5 = 2 + 1*3: little-endian digits [2, 1]
    for alpha in (5, 5.0, [2, 1], [2.0, 1], [-1, 4]):
        assert np.array_equal(resolve_state({"alpha": alpha, "s": [0, 2.0]}, 3, 2), want)
