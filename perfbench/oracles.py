"""Output oracles that use numpy only, never mubwigner.

Each oracle returns a list of failure messages; an empty list is a pass.
Every comparison is written `not (dev <= tol)`, so a NaN or a missing value
fails instead of slipping through a max().
"""

from __future__ import annotations

import numpy as np

TOL = 1e-10
DYNAMICS_TOL = 1e-8


def _check(fails: list, what: str, dev, tol: float = TOL) -> None:
    dev = float(dev)
    if not dev <= tol:
        fails.append(f"{what}: deviation {dev!r} > {tol}")


def _maxabs(a) -> float:
    # np.max propagates NaN, unlike the builtin max
    return float(np.max(np.abs(np.asarray(a))))


def partial_transpose(rho: np.ndarray, p: int) -> np.ndarray:
    """Partial transpose on the second factor of C^p (x) C^p."""
    return rho.reshape(p, p, p, p).transpose(0, 3, 2, 1).reshape(p * p, p * p)


def min_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[0])


def propagate(H: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """U rho U^dagger with U = exp(-iHt), from eigh of the d x d H."""
    lam, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * lam * t)) @ V.conj().T
    return U @ rho @ U.conj().T


def tables(rho: np.ndarray, p: int, out: dict) -> list[str]:
    """out: W (N,), probs (classes, d), plancherel, rho_rec (d, d), pt_min_eig."""
    fails: list[str] = []
    d = rho.shape[0]
    tr = np.trace(rho).real
    purity = np.trace(rho @ rho).real
    W, probs = np.asarray(out["W"]), np.asarray(out["probs"])
    _check(fails, "sum W = tr rho", abs(W.sum() - tr))
    _check(fails, "d sum W^2 = tr rho^2", abs(d * np.sum(W * W) - purity))
    _check(fails, "plancherel_inner = tr rho^2", abs(out["plancherel"] - purity))
    _check(fails, "round trip", _maxabs(out["rho_rec"] - rho))
    _check(fails, "each MUB class sums to tr rho", _maxabs(probs.sum(axis=1) - tr))
    # holds for any complete set of d+1 MUBs and unit trace
    _check(fails, "sum prob^2 = 1 + tr rho^2", abs(np.sum(probs**2) - (1 + purity)))
    lam = min_eigenvalue(partial_transpose(rho, p))
    _check(fails, "PT-route min eigenvalue", abs(out["pt_min_eig"] - lam))
    return fails


def dynamics(H: np.ndarray, rho: np.ndarray, times, rhos) -> list[str]:
    fails: list[str] = []
    if len(rhos) != len(times):
        return [f"{len(rhos)} densities for {len(times)} time points"]
    for t, rt in zip(times, rhos):
        _check(fails, f"rho({t:.4g}) = U rho U^dagger", _maxabs(rt - propagate(H, rho, t)),
               DYNAMICS_TOL)
    return fails


# -- cli outputs ---------------------------------------------------------------


def matrix_from_pairs(rows) -> np.ndarray:
    a = np.array(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def mub(report: dict, data: dict, d: int, rng: np.random.Generator, pairs: int = 16) -> list[str]:
    """The report says passed, and a seeded sample of cross-basis projector
    pairs has tr[P P'] = 1/d with tr P = 1."""
    fails: list[str] = []
    if report.get("passed") is not True:
        fails.append(f"mub report: passed = {report.get('passed')!r}")
    bases = data["bases"]
    if len(bases) != d + 1:
        return fails + [f"{len(bases)} bases, expected {d + 1}"]
    for _ in range(pairs):
        a, b = rng.choice(d + 1, size=2, replace=False)
        P = matrix_from_pairs(bases[a]["projectors"][rng.integers(d)])
        Q = matrix_from_pairs(bases[b]["projectors"][rng.integers(d)])
        _check(fails, f"tr P, basis {a}", abs(np.trace(P) - 1))
        _check(fails, f"tr P P', bases {a},{b}", abs(np.trace(P @ Q) - 1 / d))
    return fails


def wigner_json(data: dict, rho: np.ndarray) -> list[str]:
    """Trace and Plancherel identities of the written table."""
    W = np.array([v["w"] for v in data["values"]], dtype=float)
    d = rho.shape[0]
    if W.shape != (d * d,):
        return [f"table has shape {W.shape}, expected ({d * d},)"]
    fails: list[str] = []
    _check(fails, "json: sum W = tr rho", abs(W.sum() - np.trace(rho).real))
    _check(fails, "json: d sum W^2 = tr rho^2", abs(d * np.sum(W**2) - np.trace(rho @ rho).real))
    return fails


def check_report(report: dict, code: int, rho: np.ndarray, p: int) -> list[str]:
    """Verdicts of `check --checks marginals,plancherel,separability,
    positivity,pt` and its exit code, against numpy eigenvalues."""
    fails: list[str] = []
    checks = report.get("checks", {})
    lam = min_eigenvalue(rho)
    lam_pt = min_eigenvalue(partial_transpose(rho, p))
    want = {
        "marginals": True,  # identities that hold for every state
        "plancherel": True,
        "separability": True,  # the factorization law, tested on tr_B rho (x) tr_A rho
        "positivity": lam >= -TOL,
        "pt": lam_pt >= -TOL,
    }
    for name, verdict in want.items():
        got = checks.get(name, {}).get("passed")
        if got is not verdict:
            fails.append(f"check {name}: passed = {got!r}, oracle says {verdict}")
    for name in ("marginals", "plancherel", "separability"):
        _check(fails, f"check {name} max_deviation",
               checks.get(name, {}).get("max_deviation", float("nan")))
    _check(fails, "check positivity min_eigenvalue",
           abs(checks.get("positivity", {}).get("min_eigenvalue", float("nan")) - lam))
    _check(fails, "check pt min_eigenvalue",
           abs(checks.get("pt", {}).get("min_eigenvalue", float("nan")) - lam_pt))
    want_code = 0 if all(want.values()) else 1
    if code != want_code:
        fails.append(f"check exit code {code}, oracle says {want_code}")
    return fails


def trajectory(rows: list, H: np.ndarray, rho: np.ndarray, t1: float, steps: int) -> list[str]:
    """The written trajectory has `steps` rows and its last row is U rho U^dagger."""
    if len(rows) != steps:
        return [f"trajectory has {len(rows)} rows, expected {steps}"]
    fails: list[str] = []
    last = rows[-1]
    _check(fails, "last row time", abs(last["t"] - t1))
    _check(fails, "last row density = U rho U^dagger",
           _maxabs(matrix_from_pairs(last["density"]) - propagate(H, rho, t1)), DYNAMICS_TOL)
    return fails
