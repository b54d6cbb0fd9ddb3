"""A traced run of the benchmark, at its smallest size, for each workload.  The
benchmark's own tests live in ``bench/test_bench.py``; this one guards the
tracer's view of the package's signatures from the package side.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["gas", "wide", "verify"])
def test_traced_tiny_run_is_correct(workload):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1", "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), out.stdout
