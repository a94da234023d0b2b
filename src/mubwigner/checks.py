"""The paper's identities as checks on a density matrix, with the report
that `mubwigner check` writes: marginals equal MUB probabilities, Plancherel
against a seeded random state, the factorisation law on tr_B rho (x) tr_A rho,
positivity, and the Peres partial-transpose test (Peres, PRL 77, 1413, 1996).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .mub import class_vectors
from .wigner import (
    HERMITIAN_TOL, ConventionError, check_complete_factorization, class_marginals,
    default_convention, has_shift_table, hermitian_defect, plancherel_inner, positivity_check,
    random_density, reconstruct_density, wigner_function, wigner_partial_transpose,
)


def _deviation(devs, tol: float, **extra) -> dict:
    # np.max keeps a NaN (Python max may drop it), and a NaN fails `dev < tol`
    dev = float(np.max(np.abs(devs)))
    return {"max_deviation": dev, **extra, "passed": dev < tol}


def _min_eigenvalue(M, wt, tol: float) -> dict:
    res = positivity_check(M, wt.p, wt.n, tol)
    return {"min_eigenvalue": res.min_eigenvalue, "passed": res.positive}


def _marginals(rho, wt, tol, seed) -> dict:
    devs = []
    for alpha in range(wt.kernel.geom.num_classes):
        V = class_vectors(wt.kernel.geom, alpha)
        probs = ((V.conj() @ rho) * V).sum(axis=1).real  # <psi_s|rho|psi_s>
        devs.append(class_marginals(wt, alpha) - probs)
    return _deviation(devs, tol)


def _plancherel(rho, wt, tol, seed) -> dict:
    sigma = random_density(wt.p**wt.n, np.random.default_rng(seed + 1))
    ws = wigner_function(sigma, wt.p, wt.n, wt.convention)
    return _deviation([
        plancherel_inner(wt, wt) - float(np.trace(rho @ rho).real),
        plancherel_inner(wt, ws) - float(np.trace(rho @ sigma).real),
    ], tol)


def _separability(rho, wt, tol, seed) -> dict:
    p = wt.p
    tau = np.trace(rho.reshape(p, p, p, p), axis1=1, axis2=3)
    mu = np.trace(rho.reshape(p, p, p, p), axis1=0, axis2=2)
    rep = check_complete_factorization([tau, mu], p)
    return _deviation(rep.max_deviation, tol, transpose_on=rep.transpose_on)


# name -> check(rho, wt, tol, seed); a report lists its checks in this order
CHECKS = {
    "marginals": _marginals,
    "plancherel": _plancherel,
    "separability": _separability,
    "positivity": lambda rho, wt, tol, seed: _min_eigenvalue(rho, wt, tol),
    "pt": lambda rho, wt, tol, seed: _min_eigenvalue(
        reconstruct_density(wigner_partial_transpose(wt)), wt, tol),
}


def check_state(rho: np.ndarray, p: int, n: int, convention: str | None = None,
                checks: Sequence[str] = ("marginals", "plancherel", "positivity"),
                tol: float = 1e-10, seed: int = 0) -> dict:
    """Run the named checks on rho; every name, tol and seed is validated
    before any work. Returns {p, n, convention, tol, checks: {name: result}, passed}."""
    rho, conv = np.asarray(rho, dtype=complex), convention or default_convention(p, n)
    if not checks:
        raise ValueError(f"no checks requested; known: {', '.join(CHECKS)}")
    for c in checks:
        if c not in CHECKS:
            raise ValueError(f"unknown check {c!r}; known: {', '.join(CHECKS)}")
    if "marginals" in checks and not has_shift_table(p, n, conv):
        raise ConventionError(f"the marginals check needs generator-route shifts, and the "
                              f"{conv} kernel at p={p}, n={n} has none")
    if "separability" in checks and n != 2:
        raise ValueError("the separability check needs n=2")
    if "pt" in checks:
        if n != 2:
            raise ValueError("the pt check needs n=2")
        if conv not in ("separable", "p2-left", "p2-right"):
            raise ValueError("pt check needs a separability convention")
    if not 0 < tol < float("inf"):  # NaN fails both comparisons
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if rho.shape != (p**n, p**n):
        raise ValueError(f"expected a {p**n}x{p**n} matrix, got {rho.shape}")
    if "positivity" in checks or "pt" in checks:
        # positivity_check's rule, on the input rather than on its partial transpose
        dev = hermitian_defect(rho)
        if not dev <= HERMITIAN_TOL:  # a NaN defect fails too
            raise ValueError(f"the input matrix is not finite and Hermitian (defect {dev}); "
                             "the positivity and pt checks need a density matrix")
    wt = wigner_function(rho, p, n, conv)
    results = {name: run(rho, wt, tol, seed) for name, run in CHECKS.items() if name in checks}
    return {"p": p, "n": n, "convention": conv, "tol": tol, "checks": results,
            "passed": all(r["passed"] for r in results.values())}
