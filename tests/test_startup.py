"""Start-up loads only what the command runs: the set-up path (import
coagsim.cli, then load and validate a config) loads config, kernel and
measure, and each command imports its own solver modules.  Each case runs
in a fresh interpreter and reads sys.modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOLVERS = ("forward", "stationary", "dual", "stablecdf")

CFG = """
params.gamma = 0.0
params.rho = 0.5
kernel.family = constant
cutoff.lambda = 1e-2
grid.x_min = 1e-2
grid.x_max = 1e3
grid.ratio = 1.5
run.t_final = 0.2
run.tol = 5e-3
dual.radius = 10.0
dual.time = 0.1
w.a = 0.5
"""

# the benchmark's set-up probe, then optionally one command; prints the
# solver modules loaded after each step
PROBE = """
import json, sys
def loaded():
    return sorted(m for m in %r if "coagsim." + m in sys.modules)
steps = {}
import coagsim.cli as c
c.run_config(c.load_config(sys.argv[1]))
steps["setup"] = loaded()
if len(sys.argv) > 2:
    steps["code"] = c.main([sys.argv[2], "--config", sys.argv[1], "--out", sys.argv[3]])
    steps["command"] = loaded()
print(json.dumps(steps))
""" % (SOLVERS,)


def run(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_setup_probe_loads_no_solver(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    assert run(PROBE, str(cfg))["setup"] == []


@pytest.mark.parametrize(
    "command, modules",
    [
        ("simulate", ["forward"]),
        ("stationary", ["forward", "stationary"]),
        ("dual-check", ["dual", "forward", "stablecdf"]),
        ("profile-w", ["stablecdf"]),
        ("invariance-suite", ["forward"]),
    ],
)
def test_command_loads_its_own_solvers(tmp_path, command, modules):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    steps = run(PROBE, str(cfg), command, str(tmp_path / "out"))
    assert steps["setup"] == []
    assert steps["code"] in (0, 2)  # ran to its verdict
    assert steps["command"] == modules


def test_package_resolves_solver_names_on_first_read():
    code = (
        "import json, sys, coagsim\n"
        f"loaded = lambda: sorted(m for m in {SOLVERS!r} if 'coagsim.' + m in sys.modules)\n"
        "steps = {'import': loaded()}\n"
        "fn = coagsim.find_stationary\n"
        "steps['name'] = loaded()\n"
        "steps['same'] = fn is sys.modules['coagsim.stationary'].find_stationary\n"
        "steps['dir'] = 'w_eval' in dir(coagsim)\n"
        "coagsim.stablecdf\n"
        "steps['module'] = loaded()\n"
        "print(json.dumps(steps))\n"
    )
    steps = run(code)
    assert steps["import"] == []
    # stationary imports forward, which it steps with
    assert steps["name"] == ["forward", "stationary"]
    assert steps["same"] and steps["dir"]
    assert steps["module"] == ["forward", "stablecdf", "stationary"]


def test_unknown_package_name_is_an_attribute_error():
    import coagsim
    from coagsim import cli

    for module in (coagsim, cli):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name
