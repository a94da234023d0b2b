"""Command-line front end.

Subcommands: mub, wigner, check, evolve. Exit codes: 0 success / all checks
passed, 1 a requested check failed, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import _trajectory, build_char_generator, char_dynamics_table
from .fields import FieldError, is_prime
from .serialize import (
    load_matrix,
    load_state,
    trajectory_record,
    wigner_csv_lines,
    wigner_pgm_lines,
    wigner_table_to_json,
    write_mub_json,
)
from .checks import CHECKS, check_state
from .mub import full_mub, verify_mub
from .wigner import default_convention, hermitian_defect, wigner_function

MATRIX_DIM_LIMIT = 2**10


def _common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, required=True, help="prime subsystem dimension")
    sp.add_argument("--n", type=int, default=1, help="number of subsystems (d = p^n)")
    sp.add_argument("--tol", type=float, default=1e-10, help="comparison tolerance (finite, > 0)")
    sp.add_argument("--seed", type=int, default=0, help="seed for random-state inputs")
    sp.add_argument("--out", type=str, required=True, help="output path or prefix")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mubwigner", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mub", help="construct and verify a complete MUB set")
    _common_flags(sp)

    sp = sub.add_parser("wigner", help="Wigner table of a state file")
    _common_flags(sp)
    sp.add_argument("--input", type=str, required=True, help="state file (JSON)")
    sp.add_argument("--convention", type=str, default=None)
    sp.add_argument(
        "--format",
        type=str,
        default=None,
        help="comma list from {json,csv,pgm}; csv needs n<=2, pgm needs n=1 "
             "(default: json,csv for n<=2, json for n>=3)",
    )

    sp = sub.add_parser("check", help="run consistency checks on a state")
    _common_flags(sp)
    sp.add_argument("--input", type=str, required=True)
    sp.add_argument("--convention", type=str, default=None)
    sp.add_argument(
        "--checks",
        type=str,
        default="marginals,plancherel,positivity",
        help="comma list from " + ",".join(CHECKS) + "; separability (n=2) tests the "
             "factorisation law on tr_B rho (x) tr_A rho only: a Bell state passes it, not pt",
    )

    sp = sub.add_parser("evolve", help="evolve a state under a Hamiltonian")
    _common_flags(sp)
    sp.add_argument("--input", type=str, required=True)
    sp.add_argument("--hamiltonian", type=str, required=True)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=16)
    return ap


def _validate_pn(p: int, n: int) -> None:
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if n < 1:
        raise FieldError("n must be >= 1")
    if p**n > MATRIX_DIM_LIMIT:
        raise FieldError(f"p^n = {p ** n} exceeds the matrix command limit {MATRIX_DIM_LIMIT}")


def cmd_mub(args) -> int:
    _validate_pn(args.p, args.n)
    bases = full_mub(args.p, args.n)
    report = verify_mub(bases, args.p, args.n, args.tol)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out.with_suffix(".json") if out.suffix != ".json" else out, "w") as fh:
        write_mub_json(fh, bases, args.p, args.n)
    report_path = Path(str(out).removesuffix(".json") + ".report.json")
    with open(report_path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
    print(f"{args.p}^{args.n}: {report.num_bases} bases, "
          f"max unbiasedness defect {report.max_unbiasedness_defect:.3e}")
    return 0 if report.passed else 1


def _wigner_formats(spec, n: int) -> list[str]:
    """The requested output formats, checked against n before any work."""
    if spec is None:
        return ["json", "csv"] if n <= 2 else ["json"]
    formats = [f.strip() for f in spec.split(",") if f.strip()]
    if not formats:
        raise ValueError("no output format requested; choose from json,csv,pgm")
    unknown = set(formats) - {"json", "csv", "pgm"}
    if unknown:
        raise ValueError(f"unknown format(s): {sorted(unknown)}")
    if "pgm" in formats and n != 1:
        raise ValueError("pgm export is only available for n=1")
    if "csv" in formats and n > 2:
        raise ValueError("csv export is only available for n=1 and n=2")
    return formats


def cmd_wigner(args) -> int:
    _validate_pn(args.p, args.n)
    formats = _wigner_formats(args.format, args.n)
    rho = load_state(args.input, args.p, args.n, args.seed)
    hermitian = hermitian_defect(rho) <= args.tol
    conv = args.convention or default_convention(args.p, args.n)
    wt = wigner_function(rho, args.p, args.n, conv)
    if not hermitian:
        # operator tables are well defined but complex-valued, so only the
        # JSON form can hold them
        print("warning: input is not Hermitian; writing complex table values "
              "(csv/pgm skipped)", file=sys.stderr)
        formats = [f for f in formats if f == "json"]
    base = Path(args.out)
    base.parent.mkdir(parents=True, exist_ok=True)
    stem = str(base).removesuffix(base.suffix) if base.suffix else str(base)
    tol = max(args.tol, 1e-8)
    if "json" in formats:
        # json.dumps runs the C encoder; json.dump streams through the pure-Python one
        Path(stem + ".json").write_text(json.dumps(wigner_table_to_json(wt, tol)))
    for fmt, lines in (("csv", wigner_csv_lines), ("pgm", wigner_pgm_lines)):
        if fmt in formats:
            Path(f"{stem}.{fmt}").write_text("\n".join(lines(wt, tol)) + "\n")
    print(f"wrote Wigner table ({conv}) for d={args.p}^{args.n} to {stem}.*")
    return 0


def cmd_check(args) -> int:
    _validate_pn(args.p, args.n)
    rho = load_state(args.input, args.p, args.n, args.seed)
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    report = check_state(rho, args.p, args.n, args.convention, names, args.tol, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    for name, r in report["checks"].items():
        print(f"{name}: {'pass' if r['passed'] else 'FAIL'} {r}")
    return 0 if report["passed"] else 1


def cmd_evolve(args) -> int:
    _validate_pn(args.p, args.n)
    if not (np.isfinite(args.t0) and np.isfinite(args.t1)):
        raise ValueError(f"--t0 and --t1 must be finite, got {args.t0} and {args.t1}")
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    rho = load_state(args.input, args.p, args.n, args.seed)
    H = load_matrix(args.hamiltonian)
    gen = build_char_generator(H, args.p, args.n)
    chi0 = char_dynamics_table(rho, args.p, args.n)
    times = np.linspace(args.t0, args.t1, args.steps)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # tr(A^2) = sum_ij A_ij A_ji, O(d^2) without a matrix product
    purity0 = float(np.sum(rho * rho.T).real)
    trace_drifts, purity_drifts = [], []
    with open(out, "w") as fh:
        for t, chit, rhot in _trajectory(chi0, gen, times.tolist()):
            fh.write(json.dumps(trajectory_record(t, chit, rhot)) + "\n")
            trace_drifts.append(abs(float(np.trace(rhot).real) - 1.0))
            purity_drifts.append(abs(float(np.sum(rhot * rhot.T).real) - purity0))
    # np.max keeps a NaN drift, which the builtin max would drop
    trace_drift = float(np.max(trace_drifts))
    purity_drift = float(np.max(purity_drifts))
    report = {
        "p": args.p, "n": args.n, "convention": chi0.convention,
        "t0": args.t0,
        "t1": args.t1,
        "steps": args.steps,
        "trace_drift": trace_drift,
        "purity_drift": purity_drift,
    }
    report_path = Path(str(out) + ".report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"trajectory with {args.steps} samples; trace drift {trace_drift:.3e}, "
          f"purity drift {purity_drift:.3e}")
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if not 0 < args.tol < float("inf"):  # NaN fails both comparisons
            ap.error(f"argument --tol: must be finite and > 0, got {args.tol}")
        if args.seed < 0:
            ap.error(f"argument --seed: seed must be a non-negative integer, got {args.seed}")
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    commands = {"mub": cmd_mub, "wigner": cmd_wigner, "check": cmd_check, "evolve": cmd_evolve}
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # last resort: a request too large for this machine is a usage error
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
