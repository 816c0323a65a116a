"""Deterministic simulator and verification suite for self-similar
fat-tail profiles of Smoluchowski's coagulation equation.

Importing the package loads config, kernel and measure, which a run's
set-up reads, and numpy with them.  The four solver modules (forward,
stationary, dual, stablecdf) and their public names load on first
attribute read, so a program loads only the solvers it uses.
"""

import importlib
import os
import sys

# OpenBLAS starts a worker pool as wide as the machine when numpy loads it,
# and reads its width from these variables then and only then.  Every BLAS
# call here is a short matrix-vector product that the pool does not speed
# up, yet starting it costs CPU time that a short CLI run feels.  So pin one
# thread before the first import below loads numpy, unless the user chose
# a width or numpy is already loaded.  The variable stays set for scipy's
# own OpenBLAS and any child process.
if "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import ConfigError, RunConfig, load_config, parse_config, run_config
from .kernel import (
    CutoffParams,
    KernelSpec,
    constant_kernel,
    eval_cutoff,
    eval_kernel,
    eval_regularized,
    product_kernel,
    sum_kernel,
    zero_kernel,
)
from .measure import (
    EnvelopeReport,
    GridMeasure,
    Params,
    cumulative_mass,
    density_at,
    dyadic_tail_integral,
    envelope_check_lower,
    envelope_check_upper,
    from_csv,
    geometric_grid,
    power_law_init,
    to_csv,
    xrho_dist,
    xrho_norm,
)

# the solver modules' public names, each read from its module on first use
_ON_DEMAND = {
    "dual": (
        "DualField",
        "QTailReport",
        "SubsolutionReport",
        "adjoint_consistency",
        "find_m_star",
        "q_tail_bound",
        "solve_dual",
        "subsolution_bound",
    ),
    "forward": (
        "EvolutionState",
        "GronwallReport",
        "IntegrationError",
        "SimulationResult",
        "Trajectory",
        "gain",
        "gronwall_check",
        "rearrangement_residual",
        "rescaled_trajectory",
        "simulate",
    ),
    "stablecdf": ("StableProfile", "WTable", "t3e4_residual", "w_deriv", "w_eval", "w_laplace", "w_table"),
    "stationary": (
        "ContinuationReport",
        "StationaryResult",
        "decay0_residual",
        "find_stationary",
        "gain_flux",
        "lambda_continuation",
        "tail_fit",
    ),
}
_HOME = {name: module for module, names in _ON_DEMAND.items() for name in names}


def __getattr__(name):
    """A solver module, or one of its public names, on first read; the
    value is then bound here, so later reads are plain lookups."""
    if name in _ON_DEMAND:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

# every public name imported above, and no module (os, sys, the submodules),
# with the solver modules' names
__all__ = sorted(
    [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, type(os))] + list(_HOME)
)
