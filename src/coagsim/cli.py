"""Command-line interface: experiment orchestration and reporting.

Five subcommands drive the library end to end, all reading the flat
key-value config format of the config module:

    simulate          chunked evolution, snapshot CSVs plus a JSON manifest
    stationary        long-time stationary search (or cutoff continuation)
    dual-check        backward dual solve, adjoint residual, barrier bounds
    profile-w         table of the stable-law profile W, W' and its
                      integral-equation residual on a Y grid
    invariance-suite  envelope, growth-bound and pairing-identity checks,
                      JUnit XML plus JSON summary

Common flags: --config PATH (required), --out DIR (default: the config's
outputs key), --tolerance X (command-specific pass threshold).

Exit codes: 0 success, 1 config error, 2 numerical failure or failed
check, 3 non-convergence.  All artifacts carry a schema_version field and
round-trip bit for bit: manifests are JSON, and profiles, snapshots and
tables are the one tagged CSV format of the measure module (from_csv,
read_table).  Nothing time- or machine-dependent is written, so identical
configs produce bit-identical artifacts.
"""

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, get_float, get_floats, get_int, load_config, run_config
from .dual import find_m_star, q_tail_bound, solve_dual, adjoint_consistency
from .forward import (
    IntegrationError,
    _Stepper,
    gronwall_check,
    rearrangement_residual,
    rescaled_trajectory,
    simulate,
)
from .measure import (
    envelope_check_lower,
    envelope_check_upper,
    geometric_grid,
    power_law_init,
    read_tagged_csv,
    to_csv,
    write_tagged_csv,
)
from .stablecdf import StableProfile, t3e4_residual, w_deriv, w_eval
from .stationary import find_stationary, lambda_continuation

MANIFEST_SCHEMA_VERSION = 1


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and dataclasses for json."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_json(path, obj):
    """Write a manifest dict as deterministic, sorted, round-trip JSON."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
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
        "kernel": asdict(cfg.kernel),
        "cutoff": asdict(cfg.cutoff),
        "grid": list(cfg.grid),
        "seed": cfg.seed,
    }


def _log(msg):
    print(msg, file=sys.stderr)


def cmd_simulate(cfg, out_dir, tolerance):
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
        max_change=cfg.max_change,
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
        "times": res.times,
        "snapshot_files": files,
        "origin_mass": res.origin_mass,
        "overflow_mass": res.overflow_mass,
        "overflow_moment": res.overflow_moment,
        "n_steps": res.n_steps,
        "n_retries": res.n_retries,
        "max_pairing_residual": res.max_pairing_residual,
    }
    write_json(out_dir / "simulate.json", manifest)
    _log(f"simulate: {len(files)} snapshots, {res.n_steps} steps -> {out_dir}")
    return 0


def cmd_stationary(cfg, out_dir, tolerance):
    """Run the stationary search; write profile CSV(s) and a manifest."""
    tol = tolerance if tolerance is not None else cfg.tol
    edges = geometric_grid(*cfg.grid)
    kwargs = {"edges": edges, "tol": tol, "t_max": cfg.t_max, "max_change": cfg.max_change}
    if "stationary.probe_radii" in cfg.raw:
        kwargs["probe_radii"] = list(get_floats(cfg.raw, "stationary.probe_radii"))
    if "stationary.lambdas" in cfg.raw:
        lambdas = get_floats(cfg.raw, "stationary.lambdas")
        report = lambda_continuation(cfg.params, cfg.kernel, lambdas, cutoff=cfg.cutoff, **kwargs)
        results = report.results
        extra = {"lambdas": list(report.lambdas), "xrho_distances": report.distances}
    else:
        results = [find_stationary(cfg.params, cfg.kernel, cfg.cutoff, **kwargs)]
        extra = {}
    entries, files = [], []
    for k, res in enumerate(results):
        name = f"profile_{k:04d}.csv"
        to_csv(res.profile, out_dir / name)
        files.append(name)
        entries.append(
            {
                "lambda": res.lam,
                "converged": res.converged,
                "t_elapsed": res.t_elapsed,
                "convergence_history": [list(p) for p in res.convergence_history],
                "distance_estimate": res.distance_estimate,
                "residual_decay0": res.residual_decay0,
                "tail_exponent_fit": res.tail_exponent_fit,
                "tail_amplitude_fit": res.tail_amplitude_fit,
                "envelope_upper": res.envelope_upper,
                "envelope_lower": res.envelope_lower,
                "origin_mass": res.origin_mass,
                "n_steps": res.n_steps,
                "n_retries": res.n_retries,
                "max_pairing_residual": res.max_pairing_residual,
                "profile_file": name,
            }
        )
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": "stationary",
        "setup": _setup_dict(cfg),
        "tol": tol,
        "t_max": cfg.t_max,
        "results": entries,
        **extra,
    }
    write_json(out_dir / "stationary.json", manifest)
    ok = all(res.converged for res in results)
    for res in results:
        _log(
            f"stationary: lambda={res.lam:g} converged={res.converged}"
            f" t={res.t_elapsed:g} exponent={res.tail_exponent_fit:.4f}"
            f" amplitude={res.tail_amplitude_fit:.4f}"
        )
    return 0 if ok else 3


def cmd_dual_check(cfg, out_dir, tolerance):
    """Solve the backward dual problem and report pairing/barrier bounds."""
    R = get_float(cfg.raw, "dual.radius")
    t = get_float(cfg.raw, "dual.time", 0.5)
    mc = get_float(cfg.raw, "dual.max_change", 0.0025)
    dump_s = get_floats(cfg.raw, "dual.dump_s", ())
    if not (0.0 < R < np.inf and 0.0 <= t < np.inf and 0.0 < mc < 1.0):
        raise ConfigError("dual: need 0 < radius < inf, 0 <= time < inf and 0 < max_change < 1")
    for s_req in dump_s:
        if not 0.0 <= s_req <= t:
            raise ConfigError(f"dual.dump_s value {s_req} outside [0, {t}]")
    tol = tolerance if tolerance is not None else 1e-3
    h0 = power_law_init(cfg.params, geometric_grid(*cfg.grid))
    # dual.max_change caps the dual alone; the trajectory keeps its own cap
    traj = rescaled_trajectory(h0, cfg.params, cfg.kernel, cfg.cutoff, t)
    field = solve_dual(traj, R, t, max_change=mc)
    residual = adjoint_consistency(h0, traj, R, t, dual_field=field)
    profile = StableProfile(a=cfg.params.a)
    m_star, m_report = find_m_star(field, profile)
    q_report = q_tail_bound(traj, R, t=t)
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
        "tolerance": tol,
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
        f" (tolerance {tol:g}), M*={m_star:.4g}, K*={q_report.K_star:.4g}"
    )
    return 0 if residual <= tol else 2


def cmd_profile_w(cfg, out_dir, tolerance):
    """Tabulate W, W' and the integral-equation residual on a Y grid."""
    a = get_float(cfg.raw, "w.a")
    tol = tolerance if tolerance is not None else 1e-4
    try:
        profile = StableProfile(a=a)
    except ValueError as exc:
        raise ConfigError(f"w.a: {exc}") from exc
    if "w.y_values" in cfg.raw:
        ys = np.array(get_floats(cfg.raw, "w.y_values"))
    else:
        y_lo = get_float(cfg.raw, "w.y_min", 1e-2)
        y_hi = get_float(cfg.raw, "w.y_max", 1e4)
        n = get_int(cfg.raw, "w.n", 41)
        if not (0.0 < y_lo < y_hi and n >= 2):
            raise ConfigError("w: need 0 < y_min < y_max and n >= 2")
        ys = np.geomspace(y_lo, y_hi, n)
    rows, worst = [], 0.0
    for y in ys:
        if y <= 0.0:
            rows.append((y, 0.0, 0.0, 0.0))
            continue
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
        "tolerance": tol,
        "max_residual": worst,
        "n_points": len(rows),
        "table_file": "w_profile.csv",
    }
    write_json(out_dir / "profile_w.json", manifest)
    _log(f"profile-w: a={a:g}, {len(rows)} points, max residual {worst:.3e}")
    return 0 if worst <= tol else 2


def cmd_invariance_suite(cfg, out_dir, tolerance):
    """Run envelope, growth-bound and pairing-identity checks.

    Emits a JUnit-style XML report plus a JSON summary; any failing case
    makes the exit status 2.  The trajectory's engine serves every check,
    so the command builds one pair operator.
    """
    slack = tolerance if tolerance is not None else 1e-2
    edges = geometric_grid(*cfg.grid)
    h0 = power_law_init(cfg.params, edges)
    cases = []

    def case(name, ok, detail):
        cases.append({"name": name, "ok": bool(ok), "detail": detail})

    traj = rescaled_trajectory(h0, cfg.params, cfg.kernel, cfg.cutoff, 1.0, max_change=cfg.max_change)
    sample_ts = np.linspace(0.0, 1.0, 10)
    res = simulate(
        h0,
        cfg.params,
        cfg.kernel,
        cfg.cutoff,
        1.0,
        snapshot_times=sample_ts[1:],
        stepper=_Stepper(traj.engine, max_change=cfg.max_change),
    )
    for t, snap in zip([0.0] + res.times, [h0] + res.snapshots):
        up = envelope_check_upper(snap, cfg.params, slack=slack)
        lo = envelope_check_lower(snap, cfg.params, slack=slack)
        case(f"envelope_upper_t{t:.3f}", up.ok, f"worst ratio {up.worst_ratio!r} at R={up.location!r}")
        case(f"envelope_lower_t{t:.3f}", lo.ok, f"worst ratio {lo.worst_ratio!r} at R={lo.location!r}")

    gw = gronwall_check(traj, tol=slack)
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
            "slack": slack,
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
        p.add_argument("--out", metavar="DIR", help="output directory (default: config outputs key)")
        p.add_argument("--tolerance", type=float, metavar="X", help="pass/fail threshold for this command")
    args = parser.parse_args(argv)
    try:
        cfg = run_config(load_config(args.config))
        out_dir = Path(args.out if args.out is not None else cfg.outputs)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args.tolerance)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 1
    except IntegrationError as exc:
        _log(f"numerical failure: {exc}")
        return 2
    except ValueError as exc:
        _log(f"config error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
