"""One cold set-up of a workload, for the `setup_s` metric.

Usage: python3 perfbench/setup_probe.py <workload>, with mubwigner on
PYTHONPATH. Imports the package as a CLI command does, fills the caches the
workload's ops use, then prints one JSON line: the monotonic clock at
ready (comparable with the parent's) and the import time.
"""

import time

t0 = time.monotonic()
import mubwigner.cli  # noqa: E402,F401  the import every CLI command pays

import_s = time.monotonic() - t0

import json  # noqa: E402
import sys  # noqa: E402

from harness import WORKLOADS  # noqa: E402
from spans import NullTracer  # noqa: E402

WORKLOADS[sys.argv[1]](None).setup(NullTracer())
print(json.dumps({"ready": time.monotonic(), "import_s": import_s}), flush=True)
