"""Traced in-process run of one coagsim CLI command, for per-layer metrics.

    PYTHONPATH=src python3 bench/trace_run.py RESULT.json COMMAND --config PATH --out DIR

Wraps the calls into each package module where their callers bind them
(nothing under src/ is edited), runs ``coagsim.cli.main(argv)`` once and
writes the spans and the per-layer metrics derived from them to
RESULT.json.  Spans are (name, start, end, parent) and stay in memory
until the run ends.  A span is named after the module that defines the
called function, so its self time (duration minus the time covered by
its child spans) is charged to that layer.  Counts come from the values
the calls return.
"""

import functools
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import coagsim.cli as cli
import coagsim.dual as dual
import coagsim.forward as forward
import coagsim.stablecdf as stablecdf
import coagsim.stationary as stationary

LAYERS = ("cli", "config", "measure", "kernel", "forward", "stationary", "dual", "stablecdf")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []

    def wrap(self, owner, attr, name, on_result=None):
        """Replace owner.attr with a wrapper that records one span per call.

        on_result(value, args) sees each call's return value and arguments.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out, args)
            return out

        setattr(owner, attr, traced)

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self):
        """Self time per layer: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name.split(".", 1)[0]] += (t1 - t0) - c
        return out


class _CountingModule:
    """Stands in for scipy.integrate inside stablecdf, counting quad calls."""

    def __init__(self, module):
        self._module = module
        self.quad_calls = 0

    def quad(self, *args, **kwargs):
        self.quad_calls += 1
        return self._module.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _array_footprint(obj, seen=None):
    """(entries, bytes) of the numpy arrays an object holds, following
    attributes, containers and package objects."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0, 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.size, obj.nbytes
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif type(obj).__module__.startswith("coagsim") and hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return 0, 0
    entries = nbytes = 0
    for c in children:
        e, b = _array_footprint(c, seen)
        entries, nbytes = entries + e, nbytes + b
    return entries, nbytes


def install(tracer):
    """Wrap every traced call site; returns the dict the collectors fill."""
    acc = {
        "forward.steps": 0,
        "forward.steps_rejected": 0,
        "forward.pairing_residual_max": 0.0,
        "forward.pair_entries": 0,
        "forward.pair_table_mb": 0.0,
        "stationary.chunks": 0,
        "stationary.t_elapsed": 0.0,
        "stationary.tail_exponent_err": 0.0,
        "stationary.tail_amplitude_err": 0.0,
        "stationary.flux_residual_max": 0.0,
        "dual.steps": 0,
        "dual.steps_rejected": 0,
        "dual.adjoint_residual": 0.0,
    }

    def on_forward(n_steps, n_retries, resid):
        acc["forward.steps"] += n_steps
        acc["forward.steps_rejected"] += n_retries
        acc["forward.pairing_residual_max"] = max(acc["forward.pairing_residual_max"], resid)

    def on_simulate(res, args):
        on_forward(res.n_steps, res.n_retries, res.max_pairing_residual)

    def on_trajectory(traj, args):
        d = traj.diagnostics
        on_forward(d["n_steps"], d["n_retries"], d["max_pairing_residual"])

    def on_engine(_, args):
        entries, nbytes = _array_footprint(args[0])
        acc["forward.pair_entries"] = max(acc["forward.pair_entries"], entries)
        acc["forward.pair_table_mb"] = max(acc["forward.pair_table_mb"], nbytes / 1e6)

    def on_stationary(res, args):
        rho = res.profile.tail_exponent
        acc["stationary.chunks"] += len(res.convergence_history)
        acc["stationary.t_elapsed"] += res.t_elapsed
        for key, err in (
            ("stationary.tail_exponent_err", abs(res.tail_exponent_fit - rho)),
            ("stationary.tail_amplitude_err", abs(res.tail_amplitude_fit / (1.0 - rho) - 1.0)),
            ("stationary.flux_residual_max", max(map(abs, res.residual_decay0.values()), default=0.0)),
        ):
            acc[key] = max(acc[key], err)

    def on_dual(field, args):
        acc["dual.steps"] += field.diagnostics["n_steps"]
        acc["dual.steps_rejected"] += field.diagnostics["n_retries"]

    def on_adjoint(residual, args):
        acc["dual.adjoint_residual"] = max(acc["dual.adjoint_residual"], residual)

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "write_json", "cli.write_json")
    w(cli, "load_config", "config.load_config")
    w(cli, "run_config", "config.run_config")
    w(cli, "to_csv", "measure.to_csv")
    w(cli, "geometric_grid", "measure.geometric_grid")
    w(cli, "power_law_init", "measure.power_law_init")
    for mod in (stationary, dual):
        w(mod, "cumulative_mass", "measure.cumulative_mass")
    w(stationary, "xrho_dist", "measure.xrho_dist")
    w(stationary, "envelope_check_upper", "measure.envelope_check")
    w(stationary, "envelope_check_lower", "measure.envelope_check")
    for mod in (forward, stationary, dual):
        w(mod, "eval_cutoff", "kernel.eval_cutoff")
        w(mod, "eval_kernel", "kernel.eval_kernel")
    w(forward._Engine, "__init__", "forward.engine_build", on_engine)
    w(forward._Engine, "rates", "forward.rates")
    w(stationary, "simulate", "forward.simulate", on_simulate)
    w(cli, "rescaled_trajectory", "forward.rescaled_trajectory", on_trajectory)
    for mod in (cli, stationary):
        w(mod, "find_stationary", "stationary.find_stationary", on_stationary)
    w(cli, "lambda_continuation", "stationary.lambda_continuation")
    w(stationary, "decay0_residual", "stationary.decay0_residual")
    w(stationary, "tail_fit", "stationary.tail_fit")
    w(cli, "solve_dual", "dual.solve_dual", on_dual)
    w(cli, "adjoint_consistency", "dual.adjoint_consistency", on_adjoint)
    w(cli, "find_m_star", "dual.find_m_star")
    w(dual, "subsolution_bound", "dual.subsolution_bound")
    w(cli, "q_tail_bound", "dual.q_tail_bound")
    w(stablecdf.WTable, "__init__", "stablecdf.wtable_build")
    w(stablecdf, "w_eval", "stablecdf.w_eval")
    return acc


def layer_metrics(tracer, acc, quad, out_dir):
    """Per-layer metrics of one traced run, keyed by BENCHMARK.json name."""

    def secs(*names):
        return sum(sum(tracer.durations(n)) for n in names)

    def calls(*names):
        return sum(len(tracer.durations(n)) for n in names)

    rates_ms = [1e3 * d for d in tracer.durations("forward.rates")]
    steps, rejected = acc["forward.steps"], acc["forward.steps_rejected"]
    info = stablecdf._w_scalar.cache_info()
    lookups = info.hits + info.misses
    m = dict(acc)
    m.update({
        "forward.rates_calls": len(rates_ms),
        "forward.rates_s": secs("forward.rates"),
        "forward.rates_first_ms": rates_ms[0] if rates_ms else 0.0,
        "forward.rates_ms_p50": statistics.median(rates_ms) if rates_ms else 0.0,
        "forward.engine_builds": calls("forward.engine_build"),
        "forward.engine_build_s": secs("forward.engine_build"),
        "forward.reject_ratio": rejected / (steps + rejected) if steps + rejected else 0.0,
        "forward.simulate_s": secs("forward.simulate"),
        "forward.trajectory_s": secs("forward.rescaled_trajectory"),
        "stationary.search_s": secs("stationary.find_stationary"),
        "stationary.flux_residual_calls": calls("stationary.decay0_residual"),
        "stationary.flux_residual_s": secs("stationary.decay0_residual"),
        "stationary.tail_fit_s": secs("stationary.tail_fit"),
        "kernel.eval_cutoff_calls": calls("kernel.eval_cutoff"),
        "kernel.eval_cutoff_s": secs("kernel.eval_cutoff"),
        "kernel.eval_kernel_calls": calls("kernel.eval_kernel"),
        "kernel.eval_kernel_s": secs("kernel.eval_kernel"),
        "dual.solve_s": secs("dual.solve_dual"),
        "dual.adjoint_s": secs("dual.adjoint_consistency"),
        "dual.m_star_s": secs("dual.find_m_star"),
        "dual.subsolution_calls": calls("dual.subsolution_bound"),
        "dual.q_tail_s": secs("dual.q_tail_bound"),
        "stablecdf.wtable_build_s": secs("stablecdf.wtable_build"),
        "stablecdf.w_eval_calls": calls("stablecdf.w_eval"),
        "stablecdf.w_eval_s": secs("stablecdf.w_eval"),
        "stablecdf.quad_calls": quad.quad_calls,
        "stablecdf.cache_hit_ratio": info.hits / lookups if lookups else 0.0,
        "measure.xrho_dist_calls": calls("measure.xrho_dist"),
        "measure.xrho_dist_s": secs("measure.xrho_dist"),
        "measure.envelope_s": secs("measure.envelope_check"),
        "measure.csv_write_s": secs("measure.to_csv"),
        "cli.write_s": secs("cli.write_json"),
        "cli.artifact_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
        "config.load_s": secs("config.load_config", "config.run_config"),
        "trace.spans": len(tracer.spans),
    })
    for layer, t in tracer.self_times().items():
        m[f"{layer}.self_s"] = t
    return m


def main(argv):
    result_path, cli_argv = Path(argv[0]), argv[1:]
    out_dir = Path(cli_argv[cli_argv.index("--out") + 1])
    tracer = Tracer()
    acc = install(tracer)
    quad = stablecdf.integrate = _CountingModule(stablecdf.integrate)
    code = cli.main(cli_argv)
    result = {
        "exit_code": code,
        "metrics": layer_metrics(tracer, acc, quad, out_dir),
        "spans": tracer.spans,
    }
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
