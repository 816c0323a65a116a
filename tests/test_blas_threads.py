"""Importing coagsim pins OpenBLAS to one thread before numpy loads it,
unless the user chose a width or numpy was loaded first.  Each case runs
in a fresh interpreter, since a pool is sized once, when its library loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
WIDTH_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# prints, after each step, the thread count of every OpenBLAS library the
# process has loaded (numpy and scipy each bring one), and the variable
PROBE = """
import ctypes, json, os, sys

def threads():
    out = {}
    for path in sorted({ln.split()[-1] for ln in open("/proc/self/maps") if "openblas" in ln}):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                get = getattr(lib, sym)
                get.argtypes, get.restype = [], ctypes.c_int
                out[path.rsplit("/", 1)[-1]] = get()
                break
    return out

steps = {}
if sys.argv[1] == "numpy-first":
    import numpy
import coagsim
steps["import"] = {"threads": threads(), "env": os.environ.get("OPENBLAS_NUM_THREADS")}
coagsim.stablecdf.integrate.quad  # loads scipy.integrate, and scipy's OpenBLAS with it
steps["integrate"] = {"threads": threads(), "env": os.environ.get("OPENBLAS_NUM_THREADS")}
print(json.dumps(steps))
"""


def probe(order="coagsim-first", **preset):
    env = {k: v for k, v in os.environ.items() if k not in WIDTH_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, order], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    if not steps["import"]["threads"]:
        pytest.skip("numpy loads no OpenBLAS here")
    return steps


def test_import_pins_one_thread_for_numpy_and_scipy():
    steps = probe()
    assert steps["import"]["env"] == "1"
    assert set(steps["import"]["threads"].values()) == {1}
    # scipy's own OpenBLAS loads later, on first use, and reads the same variable
    assert set(steps["integrate"]["threads"].values()) == {1}


def test_user_width_is_kept():
    steps = probe(OPENBLAS_NUM_THREADS="2")
    width = min(2, len(os.sched_getaffinity(0)))  # OpenBLAS starts no more threads than CPUs
    for step in steps.values():
        assert step["env"] == "2"
        assert set(step["threads"].values()) == {width}


def test_numpy_loaded_first_leaves_environment_untouched():
    steps = probe("numpy-first")
    for step in steps.values():
        assert step["env"] is None
