"""The package's export list: the public names of its import blocks and
of its on-demand table (the solver modules' names, read on first use),
each listed once in coagsim/__init__.py."""

import types

import coagsim

EXPORTS = [
    "ConfigError", "ContinuationReport", "CutoffParams", "DualField", "EnvelopeReport",
    "EvolutionState", "GridMeasure", "GronwallReport", "IntegrationError", "KernelSpec",
    "Params", "QTailReport", "RunConfig", "SimulationResult", "StableProfile",
    "StationaryResult", "SubsolutionReport", "Trajectory", "WTable",
    "adjoint_consistency", "constant_kernel", "cumulative_mass", "decay0_residual",
    "density_at", "dyadic_tail_integral", "envelope_check_lower", "envelope_check_upper",
    "eval_cutoff", "eval_kernel", "eval_regularized", "find_m_star", "find_stationary",
    "from_csv", "gain", "gain_flux", "geometric_grid", "gronwall_check",
    "lambda_continuation", "load_config", "parse_config", "power_law_init",
    "product_kernel", "q_tail_bound", "rearrangement_residual", "rescaled_trajectory",
    "run_config", "simulate", "solve_dual", "subsolution_bound", "sum_kernel",
    "t3e4_residual", "tail_fit", "to_csv", "w_deriv", "w_eval", "w_laplace", "w_table",
    "xrho_dist", "xrho_norm", "zero_kernel",
]


def test_export_list_is_the_imported_public_names():
    assert coagsim.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(coagsim, name)
        assert not isinstance(value, types.ModuleType), name
        assert value.__module__.startswith("coagsim."), name


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from coagsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTS
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())
