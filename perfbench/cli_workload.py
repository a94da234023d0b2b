"""The `cli` workload: each `mubwigner` subcommand as its own cold process.

One op is one pass over COMMANDS, run one at a time. The traced run replays
the same pass in-process: it makes the public calls that `cmd_*` in
src/mubwigner/cli.py makes, in the same order, with the three lru_caches
cleared before each command, so each layer gets its own span. Keep the
replay in step with cli.py.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mubwigner as mw
from mubwigner import serialize

import inputs
import oracles
from workloads import array_mb, fill_caches

CHECKS = "marginals,plancherel,separability,positivity,pt"
EVOLVE_STEPS = 64
EVOLVE_T1 = 1.0  # the CLI's default --t1
CHILD_TIMEOUT_S = 60

# key, (p, n), arguments after `python -m mubwigner.cli`; {w} is the pass directory
COMMANDS = [
    ("mub", (5, 2), "mub --p 5 --n 2 --out {w}/mub"),
    ("wigner", (7, 2), "wigner --p 7 --n 2 --input {w}/random.json --format json,csv --out {w}/w"),
    ("check_product", (7, 2), "check --p 7 --n 2 --input {w}/product.json --checks " + CHECKS
     + " --out {w}/check_product.json"),
    ("check_random", (7, 2), "check --p 7 --n 2 --input {w}/random.json --checks " + CHECKS
     + " --out {w}/check_random.json"),
    ("check_bell", (2, 2), "check --p 2 --n 2 --input {w}/bell.json --checks " + CHECKS
     + " --out {w}/check_bell.json"),
    ("evolve", (11, 1), "evolve --p 11 --n 1 --input {w}/psi.json --hamiltonian {w}/H.json"
     f" --steps {EVOLVE_STEPS} --out {{w}}/traj.jsonl"),
]


def run_child(argv, cwd, env, log) -> dict:
    """Run one command to completion: wall and CPU seconds, exit code, peak RSS."""
    t0 = time.perf_counter()
    with open(log, "w") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
    fd = os.pidfd_open(proc.pid)
    try:
        if not select.select([fd], [], [], CHILD_TIMEOUT_S)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024}


class Cli:
    """One op: one pass over COMMANDS, each a cold subprocess."""

    name = "cli"
    params = {"commands": [args.split(" --out")[0].replace("{w}/", "") for _, _, args in COMMANDS]}
    subprocess_ops = True

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)  # carries PYTHONPATH and the BLAS thread count
        self.peak_rss_mb = 0.0
        self.passes: list[dict] = []  # per pass: command key -> run_child record

    def setup(self, tr) -> None:
        """What every command pays before its own work, besides the import:
        the geometry and spin-basis caches of its (p, n)."""
        for p, n in sorted({pn for _, pn, _ in COMMANDS}):
            mw.phase_geometry(p, n)
            mw.spin_basis(p, n)

    def make_input(self, seed: int, i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        w = self.workdir / "pass"  # each pass overwrites the previous one's files
        w.mkdir(parents=True, exist_ok=True)
        states = {
            "random": inputs.density(49, rng),
            "product": inputs.product(7, rng),
            "bell": inputs.bell(2),
            "psi": inputs.pure(11, rng),
            "H": inputs.hermitian(11, rng),
        }
        for name, M in states.items():
            inputs.write_matrix(w / f"{name}.json", M)
        return {"dir": w, "seed": [seed, i], **states}

    # -- the timed op: cold subprocesses --------------------------------------------

    def op(self, inp, tr) -> dict:
        w = inp["dir"]
        runs = {}
        for key, _, args in COMMANDS:
            argv = [sys.executable, "-m", "mubwigner.cli", *args.format(w=w).split()]
            runs[key] = run_child(argv, w, self.env, w / f"{key}.log")
            self.peak_rss_mb = max(self.peak_rss_mb, runs[key]["rss_mb"])
        self.passes.append(runs)
        return {"codes": {key: r["code"] for key, r in runs.items()}}

    def command_seconds(self, group: str) -> list[float]:
        """Per pass, the wall time of the commands of one subcommand."""
        return [sum(r["wall_s"] for key, r in runs.items() if key.split("_")[0] == group)
                for runs in self.passes]

    # -- the traced op: in-process replay --------------------------------------------

    def traced_op(self, inp, tr) -> dict:
        w = inp["dir"]
        replay = {"mub": self._mub, "wigner": self._wigner, "check": self._check,
                  "evolve": self._evolve}
        codes = {}
        for key, (p, n), args in COMMANDS:
            argv = args.format(w=w).split()
            opts = dict(zip(argv[1::2], argv[2::2]))
            for cache in (mw.phase_geometry, mw.spin_basis, mw.wigner_kernel):
                cache.cache_clear()
            with tr.span(f"cli.cmd_{argv[0]}"):
                codes[key] = replay[argv[0]](p, n, opts, tr)
        return {"codes": codes}

    @staticmethod
    def _written(tr, *paths):
        tr.count("serialize.out_mb", sum(Path(f).stat().st_size for f in paths) / 1e6)

    @staticmethod
    def _load(tr, path, p, n):
        with tr.span("serialize.load"):
            return serialize.load_state(path, p, n, np.random.default_rng(0))

    def _mub(self, p, n, opts, tr) -> int:
        with tr.span("geometry.phase_geometry"):
            mw.phase_geometry(p, n)
        with tr.span("mub.full_mub"):
            bases = mw.full_mub(p, n)
        tr.count("mub.projector_calls", sum(len(b) for b in bases))
        with tr.span("mub.verify_mub"):
            report = mw.verify_mub(bases, p, n)
        out = opts["--out"]
        with tr.span("serialize.mub_json"):
            with open(out + ".json", "w") as fh:
                json.dump(serialize.mub_to_json(bases, p, n), fh)
            with open(out + ".report.json", "w") as fh:
                json.dump(report.to_json(), fh, indent=2)
        self._written(tr, out + ".json", out + ".report.json")
        return 0 if report.passed else 1

    def _wigner(self, p, n, opts, tr) -> int:
        rho = self._load(tr, opts["--input"], p, n)
        hermitian = np.abs(rho - rho.conj().T).max() <= 1e-10
        tol = 1e-8  # cmd_wigner writes with max(--tol, 1e-8)
        conv = mw.default_convention(p, n)
        fill_caches(tr, p, n, conv)
        with tr.span("wigner.char"):
            chi = mw.char_function(rho, p, n, conv)
        with tr.span("wigner.transform"):
            wt = mw.wigner_from_char(chi)
        stem = opts["--out"]
        with tr.span("serialize.wigner_out"):
            with open(stem + ".json", "w") as fh:
                json.dump(serialize.wigner_table_to_json(wt, tol), fh)
            if hermitian:  # cmd_wigner writes only json for other input
                Path(stem + ".csv").write_text(
                    "\n".join(serialize.wigner_csv_lines(wt, tol)) + "\n")
        self._written(tr, stem + ".json", *([stem + ".csv"] if hermitian else []))
        return 0

    def _check(self, p, n, opts, tr) -> int:
        tol, d = 1e-10, p**n
        rho = self._load(tr, opts["--input"], p, n)
        conv = mw.default_convention(p, n)
        fill_caches(tr, p, n, conv)
        rng = np.random.default_rng(1)  # the CLI's default --seed 0, plus one
        with tr.span("wigner.char"):
            chi = mw.char_function(rho, p, n, conv)
        with tr.span("wigner.transform"):
            wt = mw.wigner_from_char(chi)
        geom = mw.wigner_kernel(p, n, conv).geom
        results = {}
        dev = 0.0
        for alpha in range(geom.num_classes):
            for s in itertools.product(range(p), repeat=n):
                with tr.span("wigner.marginals"):
                    prob = mw.marginal_along(wt, alpha, s)
                with tr.span("mub.projector"):
                    P = mw.mub_projector(geom, alpha, s).matrix
                tr.count("mub.projector_calls")
                dev = max(dev, abs(prob - float(np.trace(rho @ P).real)))
        results["marginals"] = {"max_deviation": dev, "passed": dev < tol}
        sigma = mw.random_density(d, rng)
        with tr.span("wigner.char"):
            chi_s = mw.char_function(sigma, p, n, conv)
        with tr.span("wigner.transform"):
            ws = mw.wigner_from_char(chi_s)
        with tr.span("wigner.plancherel"):
            dev = max(abs(mw.plancherel_inner(wt, wt) - float(np.trace(rho @ rho).real)),
                      abs(mw.plancherel_inner(wt, ws) - float(np.trace(rho @ sigma).real)))
        results["plancherel"] = {"max_deviation": dev, "passed": dev < tol}
        tau = np.trace(rho.reshape(p, p, p, p), axis1=1, axis2=3)
        mu = np.trace(rho.reshape(p, p, p, p), axis1=0, axis2=2)
        with tr.span("wigner.separability"):
            rep = mw.check_product_factorization(tau, mu, p)
        results["separability"] = {"max_deviation": rep.max_deviation,
                                   "transpose_on": rep.transpose_on,
                                   "passed": rep.max_deviation < tol}
        with tr.span("wigner.positivity"):
            res = mw.positivity_check(rho, p, n, tol)
        results["positivity"] = {"min_eigenvalue": res.min_eigenvalue, "passed": res.positive}
        with tr.span("wigner.char"):
            chi_pt = mw.char_function(rho, p, n, conv)
        with tr.span("wigner.transform"):
            wt_pt = mw.wigner_from_char(chi_pt)
        with tr.span("wigner.pt"):
            wpt = mw.wigner_partial_transpose(wt_pt)
        with tr.span("wigner.reconstruct"):
            rho_pt = mw.reconstruct_density(wpt)
        lam = float(np.linalg.eigvalsh(rho_pt)[0])
        results["pt"] = {"min_eigenvalue": lam, "passed": lam >= -tol}
        passed = all(r["passed"] for r in results.values())
        report = {"p": p, "n": n, "convention": conv, "tol": tol, "checks": results,
                  "passed": passed}
        with open(opts["--out"], "w") as fh:
            json.dump(report, fh, indent=2)
        self._written(tr, opts["--out"])
        return 0 if passed else 1

    def _evolve(self, p, n, opts, tr) -> int:
        rho = self._load(tr, opts["--input"], p, n)
        with tr.span("serialize.load"):
            H = serialize.load_matrix(opts["--hamiltonian"])
        fill_caches(tr, p, n, "dynamics")
        with tr.span("dynamics.generator"):
            gen = mw.build_char_generator(H, p, n)
        with tr.span("wigner.char"):
            chi0 = mw.char_dynamics_table(rho, p, n)
        with tr.span("dynamics.eig"):
            gen.eig()  # evolve() would pay this on its first call
        tr.gauge("dynamics.generator_mb", array_mb(gen.matrix, *gen.eig()))
        steps = int(opts["--steps"])
        out = opts["--out"]
        purity0 = float(np.trace(rho @ rho).real)
        trace_drift = purity_drift = 0.0
        with open(out, "w") as fh:
            for t in np.linspace(0.0, EVOLVE_T1, steps):
                with tr.span("dynamics.step"):
                    chit = mw.evolve(chi0, gen, float(t))
                with tr.span("wigner.reconstruct"):
                    rhot = mw.density_from_dynamics_char(chit)
                with tr.span("serialize.trajectory"):
                    fh.write(json.dumps(serialize.trajectory_record(float(t), chit, rhot)) + "\n")
                trace_drift = max(trace_drift, abs(float(np.trace(rhot).real) - 1.0))
                purity_drift = max(purity_drift, abs(float(np.trace(rhot @ rhot).real) - purity0))
        report = {"t0": 0.0, "t1": EVOLVE_T1, "steps": steps, "trace_drift": trace_drift,
                  "purity_drift": purity_drift}
        with open(out + ".report.json", "w") as fh:
            json.dump(report, fh, indent=2)
        self._written(tr, out, out + ".report.json")
        return 0

    def record_sizes(self, out, tr) -> None:
        pass  # the replay records sizes as each command builds its tables

    # -- oracles ---------------------------------------------------------------------

    def parse(self, inp) -> dict:
        w = inp["dir"]
        with open(w / "mub.json") as fh:
            mub = json.load(fh)
        with open(w / "mub.report.json") as fh:
            mub_report = json.load(fh)
        with open(w / "w.json") as fh:
            wigner = json.load(fh)
        checks = {}
        for key in ("check_product", "check_random", "check_bell"):
            with open(w / f"{key}.json") as fh:
                checks[key] = json.load(fh)
        with open(w / "traj.jsonl") as fh:
            traj = [json.loads(line) for line in fh]
        return {"mub": mub, "mub_report": mub_report, "wigner": wigner, "checks": checks,
                "traj": traj}

    def check(self, inp, out) -> list[str]:
        if "parsed" not in out:
            try:
                out["parsed"] = self.parse(inp)
            except (OSError, ValueError, KeyError) as exc:
                return [f"unreadable output: {exc!r}"]
        parsed, codes = out["parsed"], out["codes"]
        fails = [f"{key} exit code {codes[key]}, expected 0"
                 for key in ("mub", "wigner", "evolve") if codes[key] != 0]
        rng = np.random.default_rng(inp["seed"])
        fails += oracles.mub(parsed["mub_report"], parsed["mub"], 25, rng)
        fails += oracles.wigner_json(parsed["wigner"], inp["random"])
        for key, state, p in (("check_product", inp["product"], 7),
                              ("check_random", inp["random"], 7),
                              ("check_bell", inp["bell"], 2)):
            fails += [f"{key}: {f}" for f in
                      oracles.check_report(parsed["checks"][key], codes[key], state, p)]
        fails += oracles.trajectory(parsed["traj"], inp["H"], inp["psi"], EVOLVE_T1,
                                    EVOLVE_STEPS)
        return fails

    def corruptions(self, out):
        parsed = out["parsed"]
        values = parsed["wigner"]["values"]
        for label, value in (("one W entry shifted by 1e-6", values[0]["w"] + 1e-6),
                             ("one W entry NaN", float("nan"))):
            wigner = dict(parsed["wigner"], values=[dict(values[0], w=value)] + values[1:])
            yield label, dict(out, parsed=dict(parsed, wigner=wigner))
        codes = dict(out["codes"], check_random=1 - out["codes"]["check_random"])
        yield "wrong exit code", dict(out, codes=codes)
