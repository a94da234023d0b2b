import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import SIGMA, random_hermitian
from dense_oracle import eta, spin_stack
from mubwigner.dynamics import (
    GeneratorMatrix,
    UnsupportedDynamicsError,
    _trajectory,
    build_char_generator,
    build_wigner_generator,
    char_dynamics_table,
    density_from_dynamics_char,
    evolve,
    spin_coeff_bridge,
)
from mubwigner.fields import FieldError, prime_inverse
from mubwigner.spins import (
    SpinBasis,
    all_index_vectors,
    index_code,
    spin_matrix,
    spin_projector,
    spin_recompose,
)
from mubwigner.wigner import (
    CharTable,
    ConventionError,
    char_function,
    plancherel_inner,
    random_density,
    reconstruct_density,
    wigner_from_char,
    wigner_function,
    wigner_kernel,
)

TOL = 1e-10
EVOLVE_TOL = 1e-8

CHAR_CASES = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]
WIGNER_CASES = [(3, 1), (5, 1), (3, 2)]


# every (p, n) with d <= 27, n = 3 and 4 included
ORACLE_CASES = [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)] + [
    (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)
]
# beyond the reach of the N x N oracle: d = 81 and 64
HILBERT_CASES = ORACLE_CASES + [(3, 4), (2, 6)]


def direct_evolution(H, rho, t):
    U = expm(-1j * H * t)
    return U @ rho @ U.conj().T


def hilbert_evolution(H, rho, t):
    """U rho U^dagger with U = exp(-iHt) from eigh of the d x d H."""
    lam, Q = np.linalg.eigh(H)
    U = (Q * np.exp(-1j * lam * t)) @ Q.conj().T
    return U @ rho @ U.conj().T


def evolve_trajectory(state, gen, times):
    """The evolved tables of a trajectory, one per time."""
    return [table for _, table, _ in _trajectory(state, gen, times)]


@pytest.mark.parametrize("p,n", CHAR_CASES)
def test_char_generator_hermitian(p, n, rng):
    d = p**n
    for _ in range(4):
        L = build_char_generator(random_hermitian(d, rng), p, n)
        assert np.abs(L.matrix - L.matrix.conj().T).max() < TOL


@pytest.mark.parametrize("p,n", WIGNER_CASES)
def test_wigner_generator_hermitian(p, n, rng):
    d = p**n
    for _ in range(4):
        L = build_wigner_generator(random_hermitian(d, rng), p, n)
        assert np.abs(L.matrix - L.matrix.conj().T).max() < TOL


@pytest.mark.parametrize("p,n", CHAR_CASES)
def test_identity_hamiltonian_gives_zero_generator(p, n):
    d = p**n
    L = build_char_generator(2.5 * np.eye(d), p, n)
    assert np.abs(L.matrix).max() < TOL
    if p % 2 == 1:
        Lw = build_wigner_generator(2.5 * np.eye(d), p, n)
        assert np.abs(Lw.matrix).max() < TOL


def test_odd_p_generator_closed_form():
    # entrywise: L(w,u) = (1/p^n) chi_H(u-w) (eta^{2^-1 w o u} - eta^{2^-1 u o w})
    # after relabeling both indices by w -> -w
    rng = np.random.default_rng(7)
    for p, n in [(3, 1), (5, 1), (3, 2)]:
        d = p**n
        H = random_hermitian(d, rng)
        L = build_char_generator(H, p, n).matrix
        k = wigner_kernel(p, n, "dynamics")
        chiH = k.char_values(H)
        inv2 = prime_inverse(2, p)
        w_eta = eta(p)
        N = k.N
        vec = k.vectors
        X, Y = vec[:, 0::2], vec[:, 1::2]
        vsym = (Y @ X.T - X @ Y.T) % p
        printed = np.zeros((N, N), dtype=complex)
        for iw in range(N):
            for iu in range(N):
                diff = k.code((vec[iu] - vec[iw]) % p)
                printed[iw, iu] = (
                    chiH[diff]
                    * (w_eta ** ((inv2 * vsym[iw, iu]) % p) - w_eta ** ((inv2 * vsym[iu, iw]) % p))
                    / d
                )
        neg = np.array([k.code((-vec[i]) % p) for i in range(N)])
        assert np.abs(L - printed[np.ix_(neg, neg)]).max() < 1e-12


@pytest.mark.parametrize("p,n", CHAR_CASES)
def test_spectral_evolution_matches_direct(p, n, rng):
    d = p**n
    for _ in range(3):
        H = random_hermitian(d, rng)
        rho = random_density(d, rng)
        gen = build_char_generator(H, p, n)
        chi0 = char_dynamics_table(rho, p, n)
        for t in (0.0, 0.1, 0.5, 1.0):
            rho_t = density_from_dynamics_char(evolve(chi0, gen, t))
            assert np.abs(rho_t - direct_evolution(H, rho, t)).max() < EVOLVE_TOL


def test_evolve_at_zero_is_identity(rng):
    H = random_hermitian(3, rng)
    rho = random_density(3, rng)
    gen = build_char_generator(H, 3, 1)
    chi0 = char_dynamics_table(rho, 3, 1)
    assert np.abs(evolve(chi0, gen, 0.0).values - chi0.values).max() < TOL


@pytest.mark.parametrize("p,n", WIGNER_CASES)
def test_wigner_evolution_consistent_with_char(p, n, rng):
    d = p**n
    H = random_hermitian(d, rng)
    rho = random_density(d, rng)
    genc = build_char_generator(H, p, n)
    genw = build_wigner_generator(H, p, n)
    chi0 = char_dynamics_table(rho, p, n)
    W0 = wigner_from_char(chi0)
    for t in (0.3, 0.9):
        via_char = wigner_from_char(evolve(chi0, genc, t))
        via_wigner = evolve(W0, genw, t)
        assert np.abs(via_char.values - via_wigner.values).max() < TOL


def test_conservation_laws(rng):
    p, n = 3, 1
    H = random_hermitian(3, rng)
    rho = random_density(3, rng)
    gen = build_char_generator(H, p, n)
    chi0 = char_dynamics_table(rho, p, n)
    purity = plancherel_inner(wigner_from_char(chi0), wigner_from_char(chi0))
    for t in np.linspace(0, 7, 12):
        chit = evolve(chi0, gen, float(t))
        assert abs(chit.value((0, 0)) - 1) < EVOLVE_TOL
        wt = wigner_from_char(chit)
        assert abs(plancherel_inner(wt, wt) - purity) < EVOLVE_TOL


def test_finite_difference_derivative(rng):
    # d chi / dt = -i L chi for the von Neumann flow
    p, n = 3, 1
    H = random_hermitian(3, rng)
    rho = random_density(3, rng)
    gen = build_char_generator(H, p, n)
    chi0 = char_dynamics_table(rho, p, n)
    h = 1e-4
    t = 0.6
    chit = evolve(chi0, gen, t)
    num = (evolve(chi0, gen, t + h).values - evolve(chi0, gen, t - h).values) / (2 * h)
    exact = -1j * gen.matrix @ chit.values
    assert np.abs(num - exact).max() < 10 * h * h * np.abs(gen.matrix).max() ** 2


def test_three_level_mub_hamiltonian_worked_example():
    # H = omega (S_{0,1} + S_{0,1}^dagger) on a qutrit, rho(0) the projector
    # (1/3)(S_00 + S_11 + eta S_22); the exact solution stays in the convex
    # hull of three MUB projectors with cosine weights at angular rate
    # 3 omega (the eigenvalue gaps of H are 3 omega).
    p = 3
    omega = 1.3
    S01 = spin_matrix(3, 0, 1)
    H = omega * (S01 + S01.conj().T)
    rho0 = spin_projector(3, (1, 1), 0)
    assert (
        np.abs(
            rho0
            - (np.eye(3) + spin_matrix(3, 1, 1) + eta(3) * spin_matrix(3, 2, 2)) / 3
        ).max()
        < TOL
    )
    projs = [
        spin_projector(3, (1, 1), 0),
        spin_projector(3, (1, 0), 1),
        spin_projector(3, (1, 2), 2),
    ]
    phases = [0.0, 4 * np.pi / 3, 2 * np.pi / 3]

    def closed_form(t):
        return sum(
            (1 + 2 * np.cos(3 * omega * t + ph)) * P for ph, P in zip(phases, projs)
        ) / 3

    gen = build_char_generator(H, p, 1)
    chi0 = char_dynamics_table(rho0, p, 1)
    period = 2 * np.pi / omega
    for t in np.linspace(0.0, period, 16):
        rho_t = density_from_dynamics_char(evolve(chi0, gen, float(t)))
        assert np.abs(rho_t - closed_form(t)).max() < EVOLVE_TOL
        assert np.abs(rho_t - direct_evolution(H, rho0, t)).max() < EVOLVE_TOL
        # recover the three weights from projections: the projectors overlap
        # pairwise at 1/3, so c_j = (3 tr(rho P_j) - 1) / 2
        for ph, P in zip(phases, projs):
            cj = (3 * np.trace(rho_t @ P).real - 1) / 2
            assert abs(cj - (1 + 2 * np.cos(3 * omega * t + ph)) / 3) < EVOLVE_TOL


def test_trajectory_helper(rng):
    for p, n, wigner in [(2, 1, False), (3, 2, False), (3, 2, True)]:
        d = p**n
        H = random_hermitian(d, rng)
        rho = random_density(d, rng)
        chi0 = char_dynamics_table(rho, p, n)
        state = wigner_from_char(chi0) if wigner else chi0
        gen = (build_wigner_generator if wigner else build_char_generator)(H, p, n)
        times = [0.0, 0.5, 1.0]
        traj = evolve_trajectory(state, gen, times)
        assert len(traj) == 3
        assert np.abs(traj[0].values - state.values).max() < TOL
        # one rotation of rho per trajectory gives the same bits as one per call
        for t, table in zip(times, traj):
            assert np.array_equal(table.values, evolve(state, gen, t).values)
        # the density handed out with each table is the one the table encodes
        recover = reconstruct_density if wigner else density_from_dynamics_char
        for t, table, rho_t in _trajectory(state, gen, times):
            assert np.abs(rho_t - recover(table)).max() < 1e-12
            assert np.abs(rho_t - direct_evolution(H, rho, t)).max() < EVOLVE_TOL


@pytest.mark.parametrize("p,n", ORACLE_CASES)
def test_evolved_tables_carry_the_density_of_their_values(p, n):
    # the rho(t) an evolved table is built with cannot drift from the rho a
    # fresh table of the same values recovers
    rng = np.random.default_rng([p, n, 2])
    d = p**n
    H = random_hermitian(d, rng)
    chi0 = char_dynamics_table(random_density(d, rng), p, n)
    routes = [(build_char_generator(H, p, n), chi0)]
    if p % 2:
        routes.append((build_wigner_generator(H, p, n), wigner_from_char(chi0)))
    for gen, state in routes:
        for t in (0.0, 0.9, -2.5):
            table = evolve(state, gen, t)
            fresh = type(table)(p, n, table.convention, table.values)
            assert np.abs(table.density - fresh.density).max() <= 1e-12
            assert not table.density.flags.writeable


def test_evolve_pays_one_spin_trace_transform_per_time_point(monkeypatch, rng):
    # an evolved table is built from rho(t): reading its density pays no
    # spin-trace transform, its first values read pays exactly one, and a
    # repeat read pays none
    calls = {"combine": 0, "traces": 0}
    for name in calls:
        real = getattr(SpinBasis, name)

        def counted(self, a, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, a)

        monkeypatch.setattr(SpinBasis, name, counted)
    p, n, K = 3, 2, 5
    times = np.linspace(-1.0, 3.0, K)
    H = random_hermitian(9, rng)
    rhos = [random_density(9, rng) for _ in range(2)]
    chis = [char_dynamics_table(rho, p, n) for rho in rhos]
    gen, genw = build_char_generator(H, p, n), build_wigner_generator(H, p, n)
    routes = [
        (gen, chis[0], density_from_dynamics_char),
        (genw, wigner_from_char(chis[0]), reconstruct_density),
        # a second table on the same generator replaces the first one's rotation
        (gen, chis[1], density_from_dynamics_char),
    ]
    for (g, state, recover), rho in zip(routes, rhos[:1] + rhos):
        calls.update(combine=0, traces=0)
        tables = [evolve(state, g, t) for t in times]
        for t, table in zip(times, tables):
            assert np.abs(recover(table) - hilbert_evolution(H, rho, t)).max() < TOL
        assert calls["combine"] <= 1 and calls["traces"] == 0
        for i, table in enumerate(tables):
            assert table.values.shape == (p ** (2 * n),)
            assert calls["traces"] == i + 1
        for table in tables:
            assert table.values is table.values
        assert calls["traces"] == K
    # rho and its rotation are kept for the last table asked for
    calls.update(combine=0, traces=0)
    assert evolve(chis[1], gen, 0.4).values.shape == (p ** (2 * n),)
    assert calls == {"combine": 0, "traces": 1}


# p=2 Wigner tables evolve at every n; (2, 3) adds the third qubit
DENSITY_FIRST_CASES = [
    (p, n, kind) for p, n in [(2, 1), (2, 2), (3, 2), (5, 2), (3, 3)] for kind in ("char", "wigner")
] + [(2, 3, "wigner")]


@pytest.mark.parametrize("p,n,kind", DENSITY_FIRST_CASES)
def test_evolved_table_values_are_the_eager_formula(p, n, kind):
    rng = np.random.default_rng([p, n, 3])
    d = p**n
    H = random_hermitian(d, rng)
    chi0 = char_dynamics_table(random_density(d, rng), p, n)
    state = chi0 if kind == "char" else wigner_from_char(chi0)
    gen = (build_char_generator if kind == "char" else build_wigner_generator)(H, p, n)
    k = state.kernel
    for t, table, rho_t in _trajectory(state, gen, [0.0, 0.7, -1.3]):
        assert table.density is rho_t and not rho_t.flags.writeable
        eager = k.char_values(rho_t)
        if kind == "wigner":
            eager = k.symplectic_ft(eager)
        values = table.values
        assert np.array_equal(values, eager)
        assert not values.flags.writeable
        assert table.values is values
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.values = eager


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_evolved_tables_read_like_tables_built_from_values(p, n, rng):
    d = p**n
    H = random_hermitian(d, rng)
    chi0 = char_dynamics_table(random_density(d, rng), p, n)
    chit = evolve(chi0, build_char_generator(H, p, n), 0.6)
    wt = evolve(wigner_from_char(chi0), build_wigner_generator(H, p, n), 0.6)
    # tables of the same densities built the value-first way hold the same bits
    fresh = char_function(chit.density, p, n, "dynamics")
    fresh_w = wigner_function(wt.density, p, n, "dynamics")
    w = [1] * (2 * n)
    assert chit.value(w) == fresh.value(w) and wt.value(w) == fresh_w.value(w)
    assert np.array_equal(wigner_from_char(chit).values, wigner_from_char(fresh).values)
    assert np.array_equal(spin_coeff_bridge(chit), spin_coeff_bridge(fresh))
    assert repr(chit) == repr(fresh) and repr(wt) == repr(fresh_w)


def test_spin_coeff_bridge_qubit():
    my = 0.4
    rho = 0.5 * (np.eye(2) + my * SIGMA["y"])
    s = spin_coeff_bridge(char_dynamics_table(rho, 2, 1))
    assert abs(s[index_code(2, (1, 1))] - (-1j * my)) < TOL
    assert abs(s[index_code(2, (0, 0))] - 1) < TOL


def test_spin_coeff_bridge_round_trip(rng):
    for p, n in [(3, 1), (2, 1), (3, 2), (2, 2)]:
        d = p**n
        rho = random_density(d, rng)
        s = spin_coeff_bridge(char_dynamics_table(rho, p, n))
        assert np.abs(spin_recompose(s, p, n) - rho).max() < TOL
    # projector round trip
    P = spin_projector(3, (1, 1), 0)
    s = spin_coeff_bridge(char_dynamics_table(P, 3, 1))
    assert np.abs(spin_recompose(s, 3, 1) - P).max() < TOL


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_spin_coeff_bridge_matches_dense_traces(p, n, rng):
    d = p**n
    rho = random_density(d, rng)
    s = spin_coeff_bridge(char_dynamics_table(rho, p, n))
    assert s.shape == (d * d,)
    # entry code(u) is tr(S_u^dagger rho), with S_u a Kronecker product of dense blocks
    S = spin_stack(p, n, all_index_vectors(p, n))
    assert np.abs(s - np.einsum("wji,ji->w", S.conj(), rho)).max() < 1e-12


def test_spin_coeff_bridge_identity_state():
    s = spin_coeff_bridge(char_dynamics_table(np.eye(3) / 3, 3, 1))
    for idx, val in zip(map(tuple, all_index_vectors(3, 1).tolist()), s):
        want = 1.0 if idx == (0, 0) else 0.0
        assert abs(val - want) < TOL


def test_neg_perm_is_built_only_by_the_bridge(rng):
    wigner_kernel.cache_clear()
    chi = char_dynamics_table(random_density(9, rng), 3, 2)
    k = chi.kernel
    wigner_from_char(chi).density
    assert "_neg_perm" not in vars(k)
    spin_coeff_bridge(chi)
    assert "_neg_perm" in vars(k)


def test_bridge_requires_dynamics_convention(rng):
    chi = char_function(random_density(3, rng), 3, 1, "plain")
    with pytest.raises(ConventionError):
        spin_coeff_bridge(chi)


def test_unsupported_combinations(rng):
    # n >= 3 builds and evolves; only the Wigner-space L at p=2 and a
    # non-Hermitian H are refused
    H, rho = random_hermitian(8, rng), random_density(8, rng)
    gen = build_char_generator(H, 2, 3)
    got = density_from_dynamics_char(evolve(char_dynamics_table(rho, 2, 3), gen, 0.4))
    assert np.abs(got - direct_evolution(H, rho, 0.4)).max() < EVOLVE_TOL
    with pytest.raises(UnsupportedDynamicsError, match="p=2"):
        build_wigner_generator(np.eye(2), 2, 1).matrix
    with pytest.raises(ValueError):
        build_char_generator(np.diag([1.0, 2.0]) + 1j * np.eye(2), 2, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qubit_wigner_tables_evolve_without_a_generator_matrix(n, rng):
    # at p=2 the Wigner route needs no Lw: the evolved table is the table of U rho U^dagger
    d = 2**n
    H, rho = random_hermitian(d, rng), random_density(d, rng)
    gen = build_wigner_generator(H, 2, n)
    W0 = wigner_function(rho, 2, n, "dynamics")
    for t in (0.0, 0.7, -1.9):
        want = wigner_function(direct_evolution(H, rho, t), 2, n, "dynamics").values
        assert np.abs(evolve(W0, gen, t).values - want).max() < 1e-14
    assert "matrix" not in vars(gen)


def test_evolve_kind_and_convention_guards(rng):
    H = random_hermitian(3, rng)
    rho = random_density(3, rng)
    genc = build_char_generator(H, 3, 1)
    genw = build_wigner_generator(H, 3, 1)
    chi0 = char_dynamics_table(rho, 3, 1)
    W0 = wigner_from_char(chi0)
    with pytest.raises(ValueError):
        evolve(chi0, genw, 0.1)
    with pytest.raises(ValueError):
        evolve(W0, genc, 0.1)
    plain = char_function(rho, 3, 1, "plain")
    with pytest.raises(ConventionError):
        evolve(plain, genc, 0.1)


@pytest.mark.parametrize("p,n", HILBERT_CASES)
def test_generator_route_matches_hilbert_route(p, n):
    rng = np.random.default_rng([p, n])
    d = p**n
    H = random_hermitian(d, rng)
    rho = random_density(d, rng)
    chi0 = char_dynamics_table(rho, p, n)
    genc = build_char_generator(H, p, n)
    genw = build_wigner_generator(H, p, n) if p % 2 else None
    W0 = wigner_from_char(chi0)
    for t in (-1.3, 0.0, 0.7, 40.0):
        want = hilbert_evolution(H, rho, t)
        got = density_from_dynamics_char(evolve(chi0, genc, t))
        assert np.abs(got - want).max() < TOL
        if genw is not None:
            assert np.abs(reconstruct_density(evolve(W0, genw, t)) - want).max() < TOL


@pytest.mark.parametrize("p,n", [(5, 2), (11, 1)])
def test_char_generator_is_the_commutator(p, n):
    # L chi_rho = chi_{[H, rho]}, the matrix-free product
    rng = np.random.default_rng(5)
    d = p**n
    H = random_hermitian(d, rng)
    rho = random_density(d, rng)
    k = wigner_kernel(p, n, "dynamics")
    L = build_char_generator(H, p, n).matrix
    assert np.abs(L @ k.char_values(rho) - k.char_values(H @ rho - rho @ H)).max() < 1e-12


def test_large_hamiltonian_scale_evolves(rng):
    # the Hermiticity check is relative to the scale of L
    p, n, scale = 3, 2, 1e6
    H = scale * random_hermitian(9, rng)
    rho = random_density(9, rng)
    gen = build_char_generator(H, p, n)
    chi0 = char_dynamics_table(rho, p, n)
    for t in (0.7 / scale, -2.0 / scale):
        got = density_from_dynamics_char(evolve(chi0, gen, t))
        assert np.abs(got - hilbert_evolution(H, rho, t)).max() < 1e-10 * np.abs(rho).max()


def test_hermiticity_rule_is_applied_when_built(rng):
    # one relative rule, max|H - H^dagger| <= 1e-10 max(1, max|H|), at build time
    H = np.diag([1.0, 2.0, 3.0]).astype(complex)
    H[0, 1] += 5e-10
    for build in (build_char_generator, build_wigner_generator):
        with pytest.raises(ValueError, match="not Hermitian"):
            build(H, 3, 1)
    # an infinite entry makes the relative bound infinite, and is refused all the same
    H = np.diag([1.0, 2.0, 3.0]).astype(complex)
    H[0, 1] = np.inf
    with pytest.raises(ValueError, match="not Hermitian and finite"):
        build_char_generator(H, 3, 1)
    # a large-scale H whose absolute defect, 1e-6, is inside the relative rule
    big = 1e6 * random_hermitian(9, rng)
    big[0, 1] += 1e-6
    gen = build_char_generator(big, 3, 2)
    rho = random_density(9, rng)
    got = density_from_dynamics_char(evolve(char_dynamics_table(rho, 3, 2), gen, 1e-7))
    assert np.abs(np.trace(got) - 1) < 1e-10
    with pytest.raises(ValueError, match="expected a 9x9 Hamiltonian"):
        build_char_generator(np.eye(3), 3, 2)


def test_nan_generator_fails_hermiticity_check():
    L = np.eye(4, dtype=complex)
    L[1, 2] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        GeneratorMatrix("char", 2, 2, L).eig()


def test_generator_matrix_refuses_unknown_kind_and_composite_p():
    with pytest.raises(ValueError, match="kind must be 'char' or 'wigner'"):
        GeneratorMatrix("bogus", 3, 1, np.eye(3))
    with pytest.raises(FieldError, match="4 is not prime"):
        GeneratorMatrix("char", 4, 1, np.eye(4))
    with pytest.raises(FieldError, match="4 is not prime"):
        build_wigner_generator(np.eye(4), 4, 1)


def test_generator_and_its_eigendecomposition_are_read_only(rng):
    gen = build_char_generator(random_hermitian(3, rng), 3, 1)
    lam, V = gen.eig()
    for a in (gen.matrix, lam, V):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 5


def test_evolve_rejects_non_finite_time(rng):
    # on a pair's first call, and on the fast path once its memo is set
    gen = build_char_generator(random_hermitian(3, rng), 3, 1)
    for warm in (False, True):
        chi0 = char_dynamics_table(random_density(3, rng), 3, 1)
        if warm:
            evolve(chi0, gen, 0.5)
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="time must be finite"):
                evolve(chi0, gen, t)
            with pytest.raises(ValueError, match="time must be finite"):
                next(_trajectory(chi0, gen, [0.1, t]))
        assert gen._rotated[0] is chi0


def test_evolve_allocates_no_n_by_n_array():
    # one N x N complex array at (5, 2) is N^2 * 16 bytes = 6.25 MB
    rng = np.random.default_rng(9)
    H = random_hermitian(25, rng)
    chi0 = char_dynamics_table(random_density(25, rng), 5, 2)
    routes = [(build_char_generator, chi0), (build_wigner_generator, wigner_from_char(chi0))]
    for build, state in routes:
        tracemalloc.start()
        try:
            gen = build(H, 5, 2)
            gen.eig()
            evolve(state, gen, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert "matrix" not in vars(gen)


@pytest.mark.parametrize("p,n", ORACLE_CASES)
def test_evolve_matches_generator_exponential(p, n):
    # exp(-iLt) of the explicit N x N generator is the reference for evolve
    rng = np.random.default_rng([p, n, 1])
    d = p**n
    H = random_hermitian(d, rng)
    chi0 = char_dynamics_table(random_density(d, rng), p, n)
    t = 0.9
    tables = [(build_char_generator(H, p, n), chi0)]
    if p % 2:
        tables.append((build_wigner_generator(H, p, n), wigner_from_char(chi0)))
    for gen, table in tables:
        want = expm(-1j * gen.matrix * t) @ table.values
        assert np.abs(evolve(table, gen, t).values - want).max() < TOL


# -- the fused step --------------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_value_built_tables_recover_rho_and_evolve_like_the_generator(p, n):
    # a table built from chi values gets its density by combine; that density
    # and the evolved values match the dense oracle and exp(-iLt)
    rng = np.random.default_rng([p, n, 7])
    d = p**n
    rho = random_density(d, rng)
    k = wigner_kernel(p, n, "dynamics")
    G = k.phases[:, None, None] * spin_stack(p, n, k.vectors)
    chi = char_dynamics_table(rho, p, n)
    built = CharTable(p, n, "dynamics", chi.values)
    dense = np.tensordot(built.values, np.conj(G).transpose(0, 2, 1), axes=(0, 0)) / d
    assert np.abs(built.density - dense).max() < TOL
    assert np.abs(built.density - rho).max() < TOL
    gen = build_char_generator(random_hermitian(d, rng), p, n)
    for t in (0.0, 0.6, -1.7):
        want = expm(-1j * gen.matrix * t) @ built.values
        assert np.abs(evolve(built, gen, t).values - want).max() < TOL


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (5, 2)])
def test_fast_evolve_is_the_trajectory_step_bit_for_bit(p, n):
    rng = np.random.default_rng([p, n, 8])
    d = p**n
    H = random_hermitian(d, rng)
    chi = char_dynamics_table(random_density(d, rng), p, n)
    routes = [(build_char_generator(H, p, n), chi),
              (build_wigner_generator(H, p, n), wigner_from_char(chi))]
    times = [0.0, 0.3, -2.25, 7.0]
    for gen, state in routes:
        walked = list(_trajectory(state, gen, times))
        for t, (t_walk, table, rho_t) in zip(times, walked):
            fast = evolve(state, gen, t)
            assert t_walk == t and rho_t is table.density
            assert type(fast) is type(state) and fast.convention == "dynamics"
            assert np.array_equal(fast.density, table.density)
            assert np.array_equal(fast.values, table.values)


def test_a_second_state_replaces_the_rotation_memo(rng):
    p, n = 3, 2
    H = random_hermitian(9, rng)
    rhos = [random_density(9, rng) for _ in range(2)]
    chis = [char_dynamics_table(rho, p, n) for rho in rhos]
    gen = build_char_generator(H, p, n)
    assert gen._rotated is None
    for chi, rho in zip(chis + chis[:1], rhos + rhos[:1]):
        table = evolve(chi, gen, 0.8)
        assert gen._rotated[0] is chi
        lam, Q = gen.eig()
        assert np.array_equal(gen._rotated[3], Q.conj().T @ chi.density @ Q)
        assert np.abs(table.density - hilbert_evolution(H, rho, 0.8)).max() < TOL
        # a repeat call for the same state keeps the memo it found
        memo = gen._rotated
        evolve(chi, gen, -0.2)
        assert gen._rotated is memo

