"""The traced benchmark run binds to package names; keep them importable."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_run_installs():
    # bench/trace_run.py wraps module attributes by name (including the
    # eval_cutoff/eval_kernel imports of dual and stationary); a rename
    # would otherwise only surface when the benchmark runs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    code = "import trace_run; trace_run.install(trace_run.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
