"""scipy's submodules load on first use: the forward and stationary paths
never import them, and stablecdf still calls through its module names."""

import os
import subprocess
import sys
from pathlib import Path

from coagsim import stablecdf
from coagsim.stablecdf import StableProfile, w_eval

SRC = Path(__file__).resolve().parents[1] / "src"

STATIONARY_CFG = """
params.gamma = 0.0
params.rho = 0.5
kernel.family = constant
cutoff.lambda = 1e-2
grid.x_min = 1e-2
grid.x_max = 1e4
grid.ratio = 1.2
run.t_max = 0.5
"""

PROBE = """
import sys
import coagsim.cli as cli
cli.run_config(cli.load_config(sys.argv[1]))
cli.main(["stationary", "--config", sys.argv[1], "--out", sys.argv[2]])  # one chunk, not converged
print(" ".join(m for m in ("scipy.special._ufuncs", "scipy.integrate._quadpack") if m in sys.modules))
"""


def test_stationary_command_loads_no_scipy_submodule(tmp_path):
    cfg = tmp_path / "stationary.cfg"
    cfg.write_text(STATIONARY_CFG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
    assert (tmp_path / "out" / "stationary.json").exists()


class _CountingIntegrate:
    def __init__(self, module):
        self.module = module
        self.quad_calls = 0

    def quad(self, *args, **kwargs):
        self.quad_calls += 1
        return self.module.quad(*args, **kwargs)


def test_integrate_stand_in_sees_quad_calls(monkeypatch):
    # the traced benchmark counts quadratures by swapping this attribute
    counting = _CountingIntegrate(stablecdf.integrate)
    monkeypatch.setattr(stablecdf, "integrate", counting)
    # an index no other test uses, so the W memo cannot answer
    w = w_eval(StableProfile(a=0.4321), 1.2345)
    assert 0.0 < w < 1.0
    assert counting.quad_calls >= 2
