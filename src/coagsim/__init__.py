"""Deterministic simulator and verification suite for self-similar
fat-tail profiles of Smoluchowski's coagulation equation."""

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
from .dual import (
    DualField,
    QTailReport,
    SubsolutionReport,
    adjoint_consistency,
    find_m_star,
    q_tail_bound,
    solve_dual,
    subsolution_bound,
)
from .forward import (
    EvolutionState,
    GronwallReport,
    IntegrationError,
    SimulationResult,
    Trajectory,
    gain,
    gronwall_check,
    rearrangement_residual,
    rescaled_trajectory,
    simulate,
)
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
from .stablecdf import (
    StableProfile,
    WTable,
    t3e4_residual,
    w_deriv,
    w_eval,
    w_laplace,
    w_table,
)
from .stationary import (
    ContinuationReport,
    StationaryResult,
    decay0_residual,
    find_stationary,
    gain_flux,
    lambda_continuation,
    tail_fit,
)

__version__ = "0.1.0"

# every public name imported above, and no module (os, sys, the submodules)
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, type(os)))
