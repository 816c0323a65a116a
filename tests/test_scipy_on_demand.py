"""scipy loads on first use: the forward, stationary and dual paths never
import it, not even its package, and stablecdf still calls through its
module name.  Nor do they import numpy.ma."""

import json
import os
import subprocess
import sys
from pathlib import Path

from coagsim import stablecdf
from coagsim.stablecdf import StableProfile, t3e4_residual

SRC = Path(__file__).resolve().parents[1] / "src"

STATIONARY_CFG = """
params.gamma = 0.0
params.rho = 0.5
kernel.family = constant
cutoff.lambda = 1e-2
grid.x_min = 1e-2
grid.x_max = 1e4
grid.ratio = 1.2
"""

DUAL_CFG = """
params.gamma = 0.0
params.rho = 0.5
kernel.family = constant
cutoff.lambda = 1e-2
grid.x_min = 1e-2
grid.x_max = 1e3
grid.ratio = 1.5
dual.radius = 10.0
dual.time = 0.1
"""

PROBE = """
import sys
import coagsim.cli as cli
command, cfg, out = sys.argv[1:]
cli.run_config(cli.load_config(cfg))
cli.main([command, "--config", cfg, "--out", out])  # exit code not checked here
modules = ("scipy", "scipy.special._ufuncs", "scipy.integrate._quadpack", "scipy.interpolate._cubic", "numpy.ma")
print(" ".join(m for m in modules if m in sys.modules))
"""


def run_probe(tmp_path, command, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, command, str(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_stationary_command_loads_no_scipy_submodule(tmp_path):
    assert run_probe(tmp_path, "stationary", STATIONARY_CFG) == ""
    assert (tmp_path / "out" / "stationary.json").exists()


def test_simulate_command_loads_no_scipy_submodule(tmp_path):
    assert run_probe(tmp_path, "simulate", STATIONARY_CFG) == ""
    assert (tmp_path / "out" / "simulate.json").exists()


def test_invariance_suite_command_loads_no_scipy_submodule(tmp_path):
    # the envelope, growth-bound and pairing checks run in numpy, and the
    # JUnit report is written with xml.etree
    assert run_probe(tmp_path, "invariance-suite", STATIONARY_CFG) == ""
    assert json.loads((tmp_path / "out" / "invariance.json").read_text())["n_cases"] > 0


def test_dual_check_command_loads_no_scipy_submodule(tmp_path):
    # the closed-form M* builds a cold W table from Kanter's integral and
    # the numpy PCHIP, with no scipy; the adjoint pairing drops repeated
    # break points without np.unique, which would import numpy.ma
    assert run_probe(tmp_path, "dual-check", DUAL_CFG) == ""
    manifest = json.loads((tmp_path / "out" / "dual_check.json").read_text())
    assert manifest["m_star"] <= 1e4


def test_integrate_imports_nothing_until_read():
    # a fresh interpreter: importing coagsim leaves scipy unloaded, and the
    # first attribute read imports scipy.integrate
    probe = (
        "import sys, coagsim.stablecdf as s\n"
        "print('scipy' in sys.modules)\n"
        "s.integrate.quad\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


class _CountingIntegrate:
    def __init__(self, module):
        self.module = module
        self.quad_calls = 0

    def quad(self, *args, **kwargs):
        self.quad_calls += 1
        return self.module.quad(*args, **kwargs)


def test_integrate_stand_in_sees_quad_calls(monkeypatch):
    # the traced benchmark counts quadratures by swapping this attribute;
    # the identity residual is the only stablecdf path that calls quad
    counting = _CountingIntegrate(stablecdf.integrate)
    monkeypatch.setattr(stablecdf, "integrate", counting)
    assert t3e4_residual(StableProfile(a=0.4321), 1.2345) < 1e-8
    assert counting.quad_calls == 1
