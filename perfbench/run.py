"""Benchmark entry point.

    python3 perfbench/run.py --workload {tables,dynamics,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; mubwigner is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (for `all`, one such object per workload).
Exit code 0 only when every output passed its oracle and the oracle
self-test held; 2 when the sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tables", "dynamics", "cli")

# One BLAS thread: with the default two, some processes paid ~8 ms per small
# complex mat-vec (see perfbench/README.md). Set before numpy is imported,
# and inherited by every child process.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "mubwigner" / "__init__.py").is_file():
        print(f"error: no mubwigner sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)

    import harness  # imports numpy, so only after the BLAS variables are set

    return harness.run(args, root)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], stdout=subprocess.PIPE, text=True)
        *report, last = proc.stdout.splitlines() or [""]
        print("\n".join(report), flush=True)
        results[name] = json.loads(last) if last.startswith("{") else None
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
