"""Library workloads: `tables` at (7, 2) and `dynamics` at (5, 2).

Every call into mubwigner that an op makes sits inside a span named
`<module>.<what>`; with a NullTracer the spans cost a no-op context each.
"""

from __future__ import annotations

import itertools

import numpy as np

import mubwigner as mw

import inputs
import oracles


def array_mb(*objs, exclude=()) -> float:
    """Bytes of the numpy arrays an object holds (as attributes, or inside a
    dict or list attribute), in MB. Views are not counted; arrays that an
    object in `exclude` also holds are not counted."""
    seen = set()

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
            return
        for v in vars(obj).values():
            vals = v.values() if isinstance(v, dict) else v if isinstance(v, (list, tuple)) else [v]
            yield from (a for a in vals if isinstance(a, np.ndarray))

    for obj in exclude:
        seen.update(id(a) for a in arrays(obj))
    total = 0
    for obj in objs:
        for a in arrays(obj):
            if id(a) not in seen and a.flags.owndata:
                seen.add(id(a))
                total += a.nbytes
    return total / 1e6


def fill_caches(tr, p: int, n: int, convention: str) -> None:
    """The three lru_caches, each in its own span (wigner_kernel would fill
    the other two itself)."""
    with tr.span("geometry.phase_geometry"):
        mw.phase_geometry(p, n)
    with tr.span("spins.spin_basis"):
        basis = mw.spin_basis(p, n)
    tr.gauge("spins.basis_mb", array_mb(basis))
    with tr.span("wigner.kernel"):
        kern = mw.wigner_kernel(p, n, convention)
    tr.gauge("wigner.tables_mb", array_mb(kern, exclude=[basis]))


def with_entry(a: np.ndarray, index, value) -> np.ndarray:
    """A copy of `a` with one entry replaced."""
    a = np.array(a, dtype=complex)
    a[index] = value
    return a


class Tables:
    """One op: every table transform of one seeded state, kernel built once."""

    name = "tables"
    p, n, convention = 7, 2, "separable"
    params = {"p": p, "n": n, "convention": convention}
    subprocess_ops = False
    KINDS = ("mixed", "pure", "product", "fourier")

    def __init__(self, workdir):
        self.d = self.p**self.n
        self.outcomes = list(itertools.product(range(self.p), repeat=self.n))

    def setup(self, tr) -> None:
        fill_caches(tr, self.p, self.n, self.convention)

    def make_input(self, seed: int, i: int) -> np.ndarray:
        rng = np.random.default_rng([seed, i])
        kind = self.KINDS[i % len(self.KINDS)]
        if kind == "mixed":
            return inputs.density(self.d, rng)
        if kind == "pure":
            return inputs.pure(self.d, rng)
        if kind == "product":
            return inputs.product(self.p, rng)
        return inputs.fourier(self.d, rng)

    def op(self, rho, tr) -> dict:
        p, n, d = self.p, self.n, self.d
        with tr.span("wigner.char"):
            chi = mw.char_function(rho, p, n, self.convention)
        with tr.span("wigner.transform"):
            wt = mw.wigner_from_char(chi)
        probs = np.empty((d + 1, d))
        for alpha in range(d + 1):
            for j, s in enumerate(self.outcomes):
                with tr.span("wigner.marginals"):
                    probs[alpha, j] = mw.marginal_along(wt, alpha, s)
        with tr.span("wigner.plancherel"):
            plancherel = mw.plancherel_inner(wt, wt)
        with tr.span("wigner.reconstruct"):
            rho_rec = mw.reconstruct_density(wt)
        with tr.span("wigner.pt"):
            wpt = mw.wigner_partial_transpose(wt)
        with tr.span("wigner.reconstruct"):
            rho_pt = mw.reconstruct_density(wpt)
        with tr.span("wigner.positivity"):
            pos = mw.positivity_check(rho_pt, p, n)
        return {"W": wt.values, "probs": probs, "plancherel": plancherel,
                "rho_rec": rho_rec, "pt_min_eig": pos.min_eigenvalue}

    traced_op = op

    def record_sizes(self, out, tr) -> None:
        kern = mw.wigner_kernel(self.p, self.n, self.convention)
        tr.gauge("wigner.tables_mb", array_mb(kern, exclude=[kern.basis]))

    def check(self, rho, out) -> list[str]:
        return oracles.tables(rho, self.p, out)

    def corruptions(self, out):
        W = out["W"]
        yield "one W entry shifted by 1e-6", dict(out, W=with_entry(W, 0, W[0] + 1e-6))
        yield "one W entry NaN", dict(out, W=with_entry(W, 0, np.nan))


class Dynamics:
    """One op: one trajectory of a seeded state under a seeded Hamiltonian."""

    name = "dynamics"
    p, n, convention = 5, 2, "dynamics"
    params = {"p": p, "n": n, "convention": convention, "time_points": 32}
    subprocess_ops = False
    TIMES = np.linspace(0.0, 4.0, 32)

    def __init__(self, workdir):
        self.d = self.p**self.n

    def setup(self, tr) -> None:
        fill_caches(tr, self.p, self.n, self.convention)

    def make_input(self, seed: int, i: int):
        rng = np.random.default_rng([seed, i])
        return inputs.hermitian(self.d, rng), inputs.density(self.d, rng)

    def op(self, inp, tr) -> dict:
        H, rho = inp
        p, n = self.p, self.n
        with tr.span("dynamics.generator"):
            gen = mw.build_char_generator(H, p, n)
        with tr.span("dynamics.eig"):
            gen.eig()
        with tr.span("wigner.char"):
            chi = mw.char_dynamics_table(rho, p, n)
        rhos = []
        for t in self.TIMES:
            with tr.span("dynamics.step"):
                chit = mw.evolve(chi, gen, float(t))
            with tr.span("wigner.reconstruct"):
                rhos.append(mw.density_from_dynamics_char(chit))
        return {"gen": gen, "rhos": rhos}

    traced_op = op

    def record_sizes(self, out, tr) -> None:
        gen = out["gen"]
        tr.gauge("dynamics.generator_mb", array_mb(gen.matrix, *gen.eig()))

    def check(self, inp, out) -> list[str]:
        H, rho = inp
        return oracles.dynamics(H, rho, self.TIMES, out["rhos"])

    def corruptions(self, out):
        *head, last = out["rhos"]
        yield "one rho(t) entry shifted by 1e-6", dict(
            out, rhos=head + [with_entry(last, (0, 0), last[0, 0] + 1e-6)])
        yield "one rho(t) entry NaN", dict(out, rhos=head + [with_entry(last, (0, 0), np.nan)])
