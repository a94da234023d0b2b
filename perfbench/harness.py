"""Runs one workload for a fixed time, checks every output and reports.

Timed run (--trace 0): set-up is timed in cold child processes, then ops run
back to back with tracing off until the time is up. Traced run (--trace 1):
ops alternate between tracing off and on (for `cli`, a cold-subprocess pass
comes first in each round, then in-process replays); the spans give each
layer's self time and the two medians give the tracing overhead.

The metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from cli_workload import Cli
from spans import NullTracer, Tracer, per_op_median
from workloads import Dynamics, Tables

WORKLOADS = {w.name: w for w in (Tables, Dynamics, Cli)}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
BENCH_DIR = Path(__file__).resolve().parent


# -- provenance ------------------------------------------------------------------


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """Vendor from numpy's build config; thread count asked of the loaded
    OpenBLAS when it exports a getter."""
    info = {"vendor": None, "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        cdll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(root: Path, args, wl, ops: int) -> dict:
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": {"name": wl.name, **wl.params, "ops": ops},
    }


# -- measurement -----------------------------------------------------------------


def setup_probe(workload: str) -> dict:
    """One cold set-up: spawn to ready, in a fresh interpreter."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} exited {proc.returncode}")
    rec = json.loads(out.strip().splitlines()[-1])
    return {"setup_s": rec["ready"] - t0, "import_s": rec["import_s"]}


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, but never
    below the upper quartile. Below 40 samples fewer than ten lie beyond
    p75 (below 20, the ten-beyond percentile would not even reach the
    median), so p75 is reported, and the label says so. The maximum of a
    few samples is one slow op: over ten runs on a shared 2-vCPU VM its
    spread reached 0.27, against 0.14 for p75."""
    s = sorted(samples)
    n = len(s)
    if n >= 40:
        return s[n - 11], f"p{100 * (n - 10) / n:.1f} (10 of {n} samples beyond it)"
    if n == 1:
        return s[0], "the only sample"
    return (statistics.quantiles(s, n=4, method="inclusive")[2],
            f"p75 of {n} samples (below 40, fewer than ten lie beyond p75)")


def check(wl, inp, out) -> list[str]:
    """The oracle's failures; an oracle that raises on an output fails it."""
    try:
        return wl.check(inp, out)
    except Exception:
        return [f"oracle raised:\n{traceback.format_exc()}"]


def selftest(wl, inp, out) -> list[str]:
    """Each corruption of a real output must make the oracle fail."""
    return [f"oracle accepted a corrupted output: {label}"
            for label, bad in wl.corruptions(out) if not check(wl, inp, bad)]


def median_or_none(xs):
    return statistics.median(xs) if xs else None


def run(args, root: Path) -> int:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    work = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, root, bench, results, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, bench, results, work) -> int:
    wl = WORKLOADS[args.workload](work)
    # set-up probes are spread over the run, between ops, so that their
    # median samples the machine's drifting speed across the whole run
    probes: list[dict] = []
    n_probes = SETUP_PROBES if not args.trace or wl.subprocess_ops else 0
    tracer = Tracer() if args.trace else None
    null = NullTracer()
    if not wl.subprocess_ops:
        wl.setup(tracer or null)

    if not args.trace:
        kinds = ["timed"]
    else:
        kinds = (["pass"] if wl.subprocess_ops else []) + ["untraced", "traced"]
    samples: dict[str, list[float]] = {k: [] for k in kinds}  # op wall seconds
    failures: list[str] = []
    attempted = failed = 0
    problems: list[str] = []  # self-test findings
    tested = False
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or i < len(kinds):
        while (len(probes) < n_probes
               and time.perf_counter() - start >= len(probes) * args.seconds / n_probes):
            probes.append(setup_probe(args.workload))
        kind = kinds[i % len(kinds)]
        inp = wl.make_input(args.seed, i)
        fn = wl.traced_op if kind in ("untraced", "traced") else wl.op
        tr = tracer if kind == "traced" else null
        tr.op = i
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(inp, tr)
        except Exception:  # an op that raises is a failed op; the run goes on
            failed += 1
            failures.append(f"op {i} ({kind}) raised:\n{traceback.format_exc()}")
            i += 1
            continue
        dt = time.perf_counter() - t0
        if kind == "traced":
            wl.record_sizes(out, tracer)
        fails = check(wl, inp, out)
        if fails:
            failed += 1
            failures.append(f"op {i} ({kind}): " + "; ".join(fails))
        else:
            samples[kind].append(dt)
            if not tested:
                problems = selftest(wl, inp, out)
                tested = True
        i += 1
    while len(probes) < n_probes:
        probes.append(setup_probe(args.workload))

    correct = failed == 0 and tested and not problems
    if args.trace:
        metrics, report = _per_layer(bench, wl, tracer, samples, probes)
        spans_path = results / f"{wl.name}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        report.append(f"  spans: {spans_path.relative_to(root)} ({len(tracer.spans)} spans)")
    else:
        metrics, report = _end_to_end(bench, wl, samples["timed"], probes)
    report.insert(0, f"{wl.name} {wl.params} seed={args.seed} seconds={args.seconds} "
                     f"trace={args.trace}")
    frac = failed / attempted
    report.append(f"  failed_frac {frac:g} ({failed} of {attempted} ops failed)")
    report += [f"  FAILED {f}" for f in failures[:5]] + [f"  SELF-TEST {p}" for p in problems]
    if not tested:
        report.append("  SELF-TEST not run: no op passed its oracle")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"provenance": provenance(root, args, wl, attempted), **result,
              "failed_frac": frac, "failures": failures, "selftest": problems,
              "samples": samples, "setup_probes": probes, "report": report,
              "commands": getattr(wl, "passes", None)}
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(report))
    print(f"  results: {(results / name).relative_to(root)}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _metric(bench_list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench_list}


def _end_to_end(bench, wl, times, probes):
    if wl.subprocess_ops:
        peak = wl.peak_rss_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [p["setup_s"] for p in probes]
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak,
              "op_s_p50": median_or_none(times), "op_s_tail": None, "ops_per_s": None}
    label = "no op passed"
    if times:
        values["op_s_tail"], label = tail(times)
        values["ops_per_s"] = len(times) / sum(times)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    report = [
        f"  setup_s     {values['setup_s']:.4f} {units['setup_s']}  median of {len(setups)} "
        f"cold set-ups {sorted(round(s, 4) for s in setups)}",
        f"  op_s_p50    {values['op_s_p50']} {units['op_s_p50']}  n={len(times)} ops",
        f"  op_s_tail   {values['op_s_tail']} {units['op_s_tail']}  {label}",
        f"  ops_per_s   {values['ops_per_s']} {units['ops_per_s']}",
        f"  peak_rss_mb {values['peak_rss_mb']:.1f} {units['peak_rss_mb']}"
        + ("  largest child process" if wl.subprocess_ops else ""),
    ]
    return _metric(bench["end_to_end"], values), report


def _per_layer(bench, wl, tracer, samples, probes):
    self_times = tracer.self_times()
    calls = tracer.call_counts()
    sizes = {**tracer.counts, **tracer.gauges}
    traced_ops = {op for _, _, _, _, op in tracer.spans if op != "setup"}
    untraced, traced = median_or_none(samples["untraced"]), median_or_none(samples["traced"])
    values = {"trace.overhead_s": traced - untraced if traced and untraced else None}
    if wl.subprocess_ops:
        values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        for group in ("mub", "wigner", "check", "evolve"):
            values[f"cli.{group}_s"] = median_or_none(wl.command_seconds(group))
    for m in bench["per_layer"]:
        name = m["name"]
        if name in values:
            continue
        if name.endswith(".calls"):
            span = name[: -len(".calls")]
            values[name] = statistics.median(calls.get((op, span), 0) for op in traced_ops)
        elif name.endswith("_s"):
            values[name] = per_op_median(self_times, name[:-2])
        else:
            values[name] = per_op_median(sizes, name)
    report = [f"  {m['name']:<26} {values[m['name']]} {m['unit']}" for m in bench["per_layer"]]
    report.append(f"  op_s_p50 untraced {untraced} s (n={len(samples['untraced'])}), "
                  f"traced {traced} s (n={len(samples['traced'])})")
    others = sorted({name for _, name in self_times} - {m["name"][:-2] for m in bench["per_layer"]})
    report += [f"  (span {name}: median self time {per_op_median(self_times, name):.6f} s per op)"
               for name in others]
    return _metric(bench["per_layer"], values), report
