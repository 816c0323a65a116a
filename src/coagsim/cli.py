"""Command-line interface: experiment orchestration and reporting.

Five subcommands drive the library end to end, all reading the flat
key-value config format of the config module:

    simulate          chunked evolution, snapshot CSVs plus a JSON manifest
    stationary        stationary profile solve (or cutoff continuation)
    dual-check        backward dual solve, adjoint residual, barrier bounds
    profile-w         table of the stable-law profile W, W' and its
                      integral-equation residual on a Y grid
    invariance-suite  envelope, growth-bound and pairing-identity checks,
                      JUnit XML plus JSON summary

Every subcommand takes two flags: --config PATH (required) and --out DIR
(default: out).  The three checking commands pass at fixed gates, the
module constants DUAL_CHECK_TOL (dual-check's adjoint residual),
PROFILE_W_TOL (profile-w's identity residual) and INVARIANCE_SLACK
(invariance-suite's envelope and growth-bound slack), and record them in
their manifests; the stationary search stops at the config's run.tol.
simulate and invariance-suite step at the cap FORWARD_MAX_CHANGE, and
profile-w tabulates on the Y grid np.geomspace(*PROFILE_W_GRID).

Exit codes: 0 success, 1 config error, 2 numerical failure or failed
check, 3 non-convergence.  All artifacts carry a schema_version field and
round-trip bit for bit: manifests are strict JSON, with null for a
non-finite float, and profiles, snapshots and tables are the one tagged
CSV format of the measure module (from_csv, read_table).  Nothing time-
or machine-dependent is written, so identical configs produce
bit-identical artifacts.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, get_float, get_floats, load_config, run_config
from .dual import find_m_star, q_tail_bound, solve_dual, adjoint_consistency
from .forward import (
    IntegrationError,
    gronwall_check,
    rearrangement_residual,
    rescaled_trajectory,
    simulate,
)
from .kernel import kernel_setup
from .measure import (
    envelope_check_lower,
    envelope_check_upper,
    GridMeasure,
    geometric_grid,
    power_law_init,
    read_tagged_csv,
    to_csv,
    write_tagged_csv,
)
from .stablecdf import StableProfile, t3e4_residual, w_deriv, w_eval
from .stationary import find_stationary, lambda_continuation

MANIFEST_SCHEMA_VERSION = 1
# the pass gates of the checking commands
DUAL_CHECK_TOL = 1e-3
PROFILE_W_TOL = 1e-4
INVARIANCE_SLACK = 1e-2
# simulate's and invariance-suite's per-step relative change cap
FORWARD_MAX_CHANGE = 0.05
# profile-w's Y grid: np.geomspace(y_min, y_max, n)
PROFILE_W_GRID = (1e-2, 1e4, 41)


def _jsonable(obj):
    """Recursively convert numpy scalars and dataclasses for json, writing
    a non-finite float as None (null)."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path, obj):
    """Write a manifest dict as deterministic, sorted, strict JSON.

    A non-finite float is written as null; one that escapes _jsonable
    raises ValueError rather than write NaN or Infinity.
    """
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_table(path, kind, meta, columns, rows):
    """Write a numeric table as a tagged CSV ("coagsim-table", kind first).

    meta values must be scalars without whitespace; read_table reproduces
    every float bit for bit.
    """
    write_tagged_csv(path, "table", {"kind": kind, **meta}, columns, rows)


def read_table(path):
    """Read a table written by write_table: (kind, meta, columns, rows)."""
    meta, columns, rows = read_tagged_csv(path, "table")
    if "kind" not in meta:
        raise ValueError("table CSV header lacks kind")
    return meta.pop("kind"), meta, columns, rows


def _setup_dict(cfg):
    return {
        "params": asdict(cfg.params),
        "kernel": kernel_setup(cfg.kernel),
        "cutoff": asdict(cfg.cutoff),
        "grid": list(cfg.grid),
    }


def _result_entry(res):
    """A result dataclass's fields, lam written as lambda, but for the
    measures, which go to CSV."""
    return {
        "lambda" if f.name == "lam" else f.name: getattr(res, f.name)
        for f in fields(res)
        if not _holds_measures(getattr(res, f.name))
    }


def _holds_measures(value):
    return isinstance(value, GridMeasure) or (
        isinstance(value, list) and any(isinstance(v, GridMeasure) for v in value)
    )


def _log(msg):
    print(msg, file=sys.stderr)


def cmd_simulate(cfg, out_dir):
    """Evolve the power-law datum; write snapshot CSVs and a manifest."""
    h0 = power_law_init(cfg.params, geometric_grid(*cfg.grid))
    if cfg.snapshot_dt > 0.0:
        snaps = np.arange(cfg.snapshot_dt, cfg.t_final, cfg.snapshot_dt).tolist()
    else:
        snaps = []
    res = simulate(
        h0,
        cfg.params,
        cfg.kernel,
        cfg.cutoff,
        cfg.t_final,
        snapshot_times=snaps,
        max_change=FORWARD_MAX_CHANGE,
    )
    files = []
    for k, snap in enumerate(res.snapshots):
        name = f"snapshot_{k:04d}.csv"
        to_csv(snap, out_dir / name)
        files.append(name)
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": "simulate",
        "setup": _setup_dict(cfg),
        "t_final": cfg.t_final,
        "snapshot_files": files,
        **_result_entry(res),
    }
    write_json(out_dir / "simulate.json", manifest)
    _log(f"simulate: {len(files)} snapshots, {res.n_steps} steps -> {out_dir}")
    return 0


def cmd_stationary(cfg, out_dir):
    """Run the stationary search; write profile CSV(s) and a manifest.

    Exits 3 if a search did not converge, and otherwise 2 if one failed a
    verdict, naming the failed gates on stderr.
    """
    edges = geometric_grid(*cfg.grid)
    kwargs = {"edges": edges, "tol": cfg.tol}
    setup = _setup_dict(cfg)
    if "stationary.lambdas" in cfg.raw:
        lambdas = get_floats(cfg.raw, "stationary.lambdas")
        report = lambda_continuation(cfg.params, cfg.kernel, lambdas, **kwargs)
        results = report.results
        extra = {"lambdas": list(report.lambdas), "xrho_distances": report.distances}
        # the searches ran at the lambdas, each recorded in its result
        del setup["cutoff"]
    else:
        results = [find_stationary(cfg.params, cfg.kernel, cfg.cutoff, **kwargs)]
        extra = {}
    entries = []
    for k, res in enumerate(results):
        name = f"profile_{k:04d}.csv"
        to_csv(res.profile, out_dir / name)
        entries.append({**_result_entry(res), "profile_file": name})
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": "stationary",
        "setup": setup,
        "tol": cfg.tol,
        "results": entries,
        **extra,
    }
    write_json(out_dir / "stationary.json", manifest)
    failed_gates = False
    for res in results:
        _log(
            f"stationary: lambda={res.lam:g} converged={res.converged}"
            f" t={res.t_elapsed:g} exponent={res.tail_exponent_fit:.4f}"
            f" amplitude={res.tail_amplitude_fit:.4f}"
            f" flux_radii={','.join(f'{R:g}' for R in res.residual_decay0)}"
        )
        failed = [gate for gate, ok in res.verdicts.items() if not ok]
        if failed:
            failed_gates = True
            _log(f"stationary: lambda={res.lam:g} failed gates: {', '.join(failed)}")
    if not all(res.converged for res in results):
        return 3
    return 2 if failed_gates else 0


def cmd_dual_check(cfg, out_dir):
    """Solve the backward dual problem and report pairing/barrier bounds."""
    R = get_float(cfg.raw, "dual.radius")
    t = get_float(cfg.raw, "dual.time", 0.5)
    mc = get_float(cfg.raw, "dual.max_change", 0.0025)
    dump_s = get_floats(cfg.raw, "dual.dump_s", ())
    if not (R > 0.0 and t >= 0.0 and 0.0 < mc < 1.0):
        raise ConfigError("dual: need radius > 0, time >= 0 and 0 < max_change < 1")
    for s_req in dump_s:
        if not 0.0 <= s_req <= t:
            raise ConfigError(f"dual.dump_s value {s_req} outside [0, {t}]")
    h0 = power_law_init(cfg.params, geometric_grid(*cfg.grid))
    # dual.max_change caps the dual alone; the trajectory keeps its own cap
    traj = rescaled_trajectory(h0, cfg.params, cfg.kernel, cfg.cutoff, t)
    field = solve_dual(traj, R, t, max_change=mc)
    residual = adjoint_consistency(traj, field)
    m_star, m_report = find_m_star(field)
    q_report = q_tail_bound(traj, R)
    files = []
    for k, s_req in enumerate(dump_s):
        j = int(np.argmin(np.abs(field.s_values - s_req)))
        name = f"psi_{k:04d}.csv"
        write_table(
            out_dir / name,
            "dual-field",
            {"s": float(field.s_values[j]), "requested_s": float(s_req), "radius": float(R)},
            ["x", "psi"],
            zip(field.nodes, field.psi[j]),
        )
        files.append(name)
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": "dual-check",
        "setup": _setup_dict(cfg),
        "radius": R,
        "time": t,
        "max_change": mc,
        "trajectory_max_change": traj.diagnostics["max_change"],
        "tolerance": DUAL_CHECK_TOL,
        "adjoint_residual": residual,
        "m_star": m_star,
        "subsolution": m_report,
        "k_star": q_report,
        "psi_files": files,
        "n_backward_steps": int(field.s_values.size - 1),
        "n_forward_steps": traj.diagnostics["n_steps"],
    }
    write_json(out_dir / "dual_check.json", manifest)
    _log(
        f"dual-check: R={R:g} t={t:g} adjoint residual {residual:.3e}"
        f" (tolerance {DUAL_CHECK_TOL:g}), M*={m_star:.4g}, K*={q_report.K_star:.4g}"
    )
    return 0 if residual <= DUAL_CHECK_TOL else 2


def cmd_profile_w(cfg, out_dir):
    """Tabulate W, W' and the integral-equation residual on a Y grid."""
    a = get_float(cfg.raw, "w.a")
    try:
        profile = StableProfile(a=a)
    except ValueError as exc:
        raise ConfigError(f"w.a: {exc}") from exc
    rows, worst = [], 0.0
    for y in np.geomspace(*PROFILE_W_GRID):
        w = w_eval(profile, y)
        # beneath the quadrature noise floor both sides of the defining
        # identity vanish; the absolute defect is the meaningful reading
        resid = t3e4_residual(profile, y, relative=w > 1e-10)
        worst = max(worst, resid)
        rows.append((y, w, w_deriv(profile, y), resid))
    write_table(
        out_dir / "w_profile.csv",
        "w-profile",
        {"a": float(a), "c": float(profile.c)},
        ["y", "w", "w_prime", "t3e4_residual"],
        rows,
    )
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": "profile-w",
        "a": a,
        "c": profile.c,
        "tolerance": PROFILE_W_TOL,
        "max_residual": worst,
        "n_points": len(rows),
        "table_file": "w_profile.csv",
    }
    write_json(out_dir / "profile_w.json", manifest)
    _log(f"profile-w: a={a:g}, {len(rows)} points, max residual {worst:.3e}")
    return 0 if worst <= PROFILE_W_TOL else 2


def cmd_invariance_suite(cfg, out_dir):
    """Run envelope, growth-bound and pairing-identity checks.

    Emits a JUnit-style XML report plus a JSON summary; any failing case
    makes the exit status 2.  The trajectory's engine serves every check,
    so the command builds one pair operator.
    """
    edges = geometric_grid(*cfg.grid)
    h0 = power_law_init(cfg.params, edges)
    cases = []

    def case(name, ok, detail):
        cases.append({"name": name, "ok": bool(ok), "detail": detail})

    traj = rescaled_trajectory(h0, cfg.params, cfg.kernel, cfg.cutoff, 1.0, max_change=FORWARD_MAX_CHANGE)
    sample_ts = np.linspace(0.0, 1.0, 10)
    res = simulate(
        h0,
        cfg.params,
        cfg.kernel,
        cfg.cutoff,
        1.0,
        snapshot_times=sample_ts[1:],
        max_change=FORWARD_MAX_CHANGE,
        engine=traj.engine,
    )
    for t, snap in zip([0.0] + res.times, [h0] + res.snapshots):
        up = envelope_check_upper(snap, cfg.params, slack=INVARIANCE_SLACK)
        lo = envelope_check_lower(snap, cfg.params, slack=INVARIANCE_SLACK)
        case(f"envelope_upper_t{t:.3f}", up.ok, f"worst ratio {up.worst_ratio!r} at R={up.location!r}")
        case(f"envelope_lower_t{t:.3f}", lo.ok, f"worst ratio {lo.worst_ratio!r} at R={lo.location!r}")

    gw = gronwall_check(traj, tol=INVARIANCE_SLACK)
    case("gronwall_growth_bound", gw.ok, f"worst ratio {gw.worst_ratio!r} at t={gw.t_at!r}")

    state = traj.state(0)
    res1, _ = rearrangement_residual(state, lambda x: np.ones_like(np.asarray(x, float)))
    case("rearrangement_mass", res1 <= 1e-12, f"relative residual {res1!r}")
    # the first-moment pairing cancels to float-summation noise, whose
    # scale grows with the grid's dynamic range; genuine pairing defects
    # register at 1e-3 and above
    resx, _ = rearrangement_residual(state, lambda x: np.asarray(x, float))
    case("rearrangement_first_moment", resx <= 1e-8, f"relative residual {resx!r}")

    n_fail = sum(not c["ok"] for c in cases)
    _write_junit(out_dir / "invariance.xml", cases)
    write_json(
        out_dir / "invariance.json",
        {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "command": "invariance-suite",
            "setup": _setup_dict(cfg),
            "slack": INVARIANCE_SLACK,
            "n_cases": len(cases),
            "n_failures": n_fail,
            "cases": cases,
        },
    )
    _log(f"invariance-suite: {len(cases) - n_fail}/{len(cases)} checks passed")
    return 0 if n_fail == 0 else 2


def _write_junit(path, cases):
    from xml.etree import ElementTree as ET

    suite = ET.Element(
        "testsuite",
        name="coagsim-invariance",
        tests=str(len(cases)),
        failures=str(sum(not c["ok"] for c in cases)),
        errors="0",
    )
    for c in cases:
        tc = ET.SubElement(suite, "testcase", classname="coagsim.invariance", name=c["name"])
        if not c["ok"]:
            ET.SubElement(tc, "failure", message=c["detail"])
    tree = ET.ElementTree(suite)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)
    with open(path, "a") as fh:
        fh.write("\n")


_COMMANDS = {
    "simulate": cmd_simulate,
    "stationary": cmd_stationary,
    "dual-check": cmd_dual_check,
    "profile-w": cmd_profile_w,
    "invariance-suite": cmd_invariance_suite,
}


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems under the exit-code contract
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    """Entry point; returns the exit code (0/1/2/3)."""
    parser = _Parser(prog="coagsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        p.add_argument("--config", required=True, metavar="PATH", help="run configuration file")
        p.add_argument("--out", default="out", metavar="DIR", help="output directory (default: out)")
    args = parser.parse_args(argv)
    try:
        cfg = run_config(load_config(args.config))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except IntegrationError as exc:
        _log(f"numerical failure: {exc}")
        return 2
    except ValueError as exc:  # ConfigError among them
        _log(f"config error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
