"""The traced benchmark run binds to package names; keep them importable."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_run_installs():
    # bench/trace_run.py wraps module attributes by name (including the
    # eval_cutoff/eval_kernel imports of dual and stationary), and its main
    # and layer_metrics read two more stablecdf names outside install; a
    # rename would otherwise only surface when the benchmark runs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    code = (
        "import trace_run; trace_run.install(trace_run.Tracer())\n"
        "from coagsim import stablecdf\n"
        "stablecdf._w_scalar.cache_info().hits\n"
        "assert callable(stablecdf.integrate.quad)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_trace_run_counts_match_dual_check_manifest(tmp_path):
    # trace_run reads the step counts from DualField.diagnostics and the
    # trajectory's diagnostics and counts wrapped _Engine builds; they must
    # agree with what dual-check itself records
    cfg = tmp_path / "dual.cfg"
    cfg.write_text(
        "params.gamma = 0.0\nparams.rho = 0.5\nkernel.family = constant\n"
        "cutoff.lambda = 1e-3\ngrid.x_min = 1e-4\ngrid.x_max = 1e6\n"
        "grid.ratio = 1.0905077326652577\ndual.radius = 10.0\ndual.time = 0.3\n"
    )
    out, result = tmp_path / "out", tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    code = (
        "import sys, trace_run\n"
        f"sys.exit(trace_run.main([{str(result)!r}, 'dual-check', '--config', {str(cfg)!r},"
        f" '--out', {str(out)!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(result.read_text())["metrics"]
    manifest = json.loads((out / "dual_check.json").read_text())
    assert metrics["dual.steps"] == manifest["n_backward_steps"] > 0
    assert metrics["forward.steps"] == manifest["n_forward_steps"] > 0
    assert metrics["forward.engine_builds"] == 1
