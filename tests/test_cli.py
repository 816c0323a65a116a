"""Config dialect parsing and the command-line interface."""

import io
import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from coagsim import cli, forward, stationary
from coagsim.cli import cmd_dual_check, main, read_table, write_table
from coagsim.config import (
    ConfigError,
    get_floats,
    parse_config,
    run_config,
)
from coagsim.measure import cumulative_mass, from_csv, geometric_grid, power_law_init
from coagsim.stablecdf import StableProfile, w_eval

BASE = """
# constant-kernel test configuration
params.gamma = 0.0
params.rho = 0.5
cutoff.lambda = 1e-2
kernel.family = constant
grid.x_min = 1e-3
grid.x_max = 1e4
run.t_final = 0.2
run.snapshot_dt = 0.1
"""

# stationary.lambdas sets the cutoff scale, so a continuation sets no
# cutoff.lambda
CONTINUATION_BASE = BASE.replace("cutoff.lambda = 1e-2\n", "")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_scalars_and_types(self):
        m = parse_config(BASE + "w.n = 7\n")
        assert m["params.gamma"] == 0.0
        assert m["kernel.family"] == "constant"
        assert m["w.n"] == 7 and isinstance(m["w.n"], int)
        assert isinstance(m["params.rho"], float)

    def test_comments_and_blanks(self):
        m = parse_config("a = 1  # trailing\n\n# whole line\nb.c = 2\n")
        assert m == {"a": 1, "b.c": 2}

    def test_strings_quoted_and_bare(self):
        m = parse_config('p = "a b"\nq = bare\nr = "1.5"\n')
        assert m == {"p": "a b", "q": "bare", "r": "1.5"}

    def test_booleans(self):
        assert parse_config("x = true\ny = false\n") == {"x": True, "y": False}

    def test_lists(self):
        m = parse_config("xs = 1e-1, 1e-2, 1e-3\nys = a, 2\n")
        assert m["xs"] == (0.1, 0.01, 0.001)
        assert m["ys"] == ("a", 2)

    def test_malformed_line_raises(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("no equals sign")

    def test_bad_key_raises(self):
        with pytest.raises(ConfigError, match="invalid key"):
            parse_config("Bad.Key = 1")

    def test_duplicate_key_raises(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("a = 1\na = 2\n")

    def test_unterminated_string_raises(self):
        with pytest.raises(ConfigError, match="unterminated"):
            parse_config('a = "oops\n')

    def test_empty_list_element_raises(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("a = 1,,2")


class TestRunConfig:
    def test_defaults_fill_in(self):
        cfg = run_config(parse_config(BASE))
        assert cfg.params.rho == 0.5 and cfg.cutoff.lam == 1e-2
        assert cfg.kernel.family == "constant"
        assert cfg.grid == (1e-3, 1e4, 2.0 ** (1.0 / 16.0))
        assert cfg.tol == 1e-4 and cfg.t_max == 40.0
        assert cfg.outputs == "out"

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="params.rho"):
            run_config(parse_config("params.gamma = 0.0\nkernel.family = zero\n"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="params.rh"):
            run_config(parse_config(BASE + "params.rh = 0.5\n"))

    def test_rho_not_above_gamma(self):
        text = BASE.replace("params.gamma = 0.0", "params.gamma = 0.6")
        with pytest.raises(ConfigError, match="rho"):
            run_config(parse_config(text.replace("kernel.family = constant", "kernel.family = product")))

    @pytest.mark.parametrize(
        "family, key",
        [
            ("product", "kernel.value"),
            ("sum", "kernel.value"),
            ("zero", "kernel.value"),
            ("product", "kernel.alpha"),
            ("constant", "kernel.alpha"),
            ("zero", "kernel.alpha"),
        ],
    )
    def test_kernel_key_of_another_family_exits_1(self, tmp_path, monkeypatch, capsys, family, key):
        # kernel.value is read by the constant family alone and kernel.alpha
        # by the sum family alone; for any other family the value would go
        # to the manifest's setup although no code read it
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(forward._Engine, "__init__", no_solve)
        text = BASE.replace("kernel.family = constant", f"kernel.family = {family}") + f"{key} = 0.0\n"
        code, out = run_cli(tmp_path, text, "simulate")
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and key in err and repr(family) in err

    def test_kernel_keys_of_their_own_family(self):
        text = BASE.replace("params.gamma = 0.0", "params.gamma = 0.2").replace("family = constant", "family = sum")
        cfg = run_config(parse_config(text + "kernel.alpha = 0.1\n"))
        assert (cfg.kernel.family, cfg.kernel.alpha) == ("sum", 0.1)
        cfg = run_config(parse_config(BASE + "kernel.value = 5.0\n"))
        assert (cfg.kernel.family, cfg.kernel.value) == ("constant", 5.0)

    def test_kernel_gamma_mismatch(self):
        with pytest.raises(ConfigError, match="kernel.gamma"):
            run_config(parse_config(BASE + "kernel.gamma = 0.25\n"))

    @pytest.mark.parametrize(
        "command, extra, names",
        [
            ("simulate", "seed = 0\n", ["seed"]),
            ("simulate", "kernel.gamma = 0.0\n", ["kernel.gamma"]),
            ("profile-w", "w.a = 0.5\nw.y_values = 1.0, 2.0\nw.n = 3\n", ["unknown", "w.y_values"]),
            ("profile-w", "w.a = 0.5\nw.y_values = 1.0, 2.0\nw.y_min = 0.5\n", ["unknown", "w.y_values"]),
            ("profile-w", "w.a = 0.5\nw.y_values = 1.0, 2.0\nw.y_max = 5.0\n", ["unknown", "w.y_values"]),
            ("stationary", "cutoff.profile = cubic\n", ["unknown", "cutoff.profile"]),
            ("stationary", "stationary.lambdas = 5e-2, 1e-2\n", ["stationary.lambdas", "cutoff.lambda"]),
            ("stationary", "stationary.probe_radii = 10.0, 1e9\n", ["stationary.probe_radii", "1000000000.0"]),
            ("stationary", "stationary.probe_radii = 1e-5\n", ["stationary.probe_radii", "1e-05"]),
        ],
        ids=[
            "seed", "kernel_gamma", "y_values_n", "y_values_y_min", "y_values_y_max", "cutoff_profile",
            "lambdas", "radius_high", "radius_low",
        ],
    )
    def test_refused_before_any_solve(self, tmp_path, monkeypatch, capsys, command, extra, names):
        # an unknown or unread key, a second home for one setting, or a
        # probe radius the search would drop, exits 1 naming the keys,
        # before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(forward._Engine, "__init__", no_solve)
        monkeypatch.setattr(cli, "w_eval", no_solve)
        code, out = run_cli(tmp_path, BASE + extra, command)
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and all(name in err for name in names)
        assert not out.exists() or not list(out.iterdir())

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="params.rho"):
            run_config(parse_config(BASE.replace("params.rho = 0.5", "params.rho = hello")))

    def test_get_floats_scalar_and_list(self):
        m = parse_config("a = 2\nb = 1, 2\n")
        assert get_floats(m, "a") == (2.0,)
        assert get_floats(m, "b") == (1.0, 2.0)
        assert get_floats(m, "c", ()) == ()


def oracle_write_table(path, kind, meta, columns, rows):
    """The table writer as a separate format, before it shared the measure CSV's."""
    tokens = " ".join(
        f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in meta.items()
    )
    with open(path, "w") as fh:
        fh.write(f"# coagsim-table schema_version=1 kind={kind}")
        if tokens:
            fh.write(" " + tokens)
        fh.write("\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


TABLE_CASES = [
    ("demo", {}, ["x"], []),
    ("dual-field", {"s": 0.25, "requested_s": 0.2, "radius": 100.0}, ["x", "psi"],
     [(1e-4, 1.0), (np.float64(3.5), 0.0), (1e8, -0.0)]),
    ("w-profile", {"a": 0.5, "c": np.pi, "n": 3, "tag": "x"}, ["y", "w", "w_prime", "t3e4_residual"],
     [(0.0, 0.0, 0.0, 0.0), (1e-300, np.nan, np.inf, -np.inf), (0.1, 1 / 3, 2.0**-1074, 7)]),
]


class TestTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(0.1, np.pi), (2.0, -1e-300)]
        write_table(path, "demo", {"a": 0.5, "n": 2}, ["x", "y"], rows)
        kind, meta, cols, back = read_table(path)
        assert kind == "demo" and cols == ["x", "y"]
        assert meta == {"a": "0.5", "n": "2"}
        assert back == [list(r) for r in rows]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="not a coagsim table"):
            read_table(path)

    def test_missing_kind(self):
        # raised KeyError once
        with pytest.raises(ValueError, match="kind"):
            read_table(io.StringIO("# coagsim-table schema_version=1 a=0.5\nx\n1.0\n"))


    @pytest.mark.parametrize("case", range(len(TABLE_CASES)))
    def test_bytes_match_oracle(self, tmp_path, case):
        kind, meta, cols, rows = TABLE_CASES[case]
        write_table(tmp_path / "got.csv", kind, meta, cols, rows)
        oracle_write_table(tmp_path / "want.csv", kind, meta, cols, rows)
        want = (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "got.csv").read_bytes() == want
        buf = io.StringIO()
        write_table(buf, kind, meta, cols, rows)
        assert buf.getvalue().encode() == want
        buf.seek(0)
        assert read_table(buf)[:3] == read_table(tmp_path / "want.csv")[:3]


def run_cli(tmp_path, text, command, *extra):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


class TestSimulateCommand:
    def test_writes_snapshots_and_manifest(self, tmp_path):
        code, out = run_cli(tmp_path, BASE, "simulate")
        assert code == 0
        manifest = json.loads((out / "simulate.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["times"] == [0.1, 0.2]
        assert manifest["snapshot_files"] == ["snapshot_0000.csv", "snapshot_0001.csv"]
        for name in manifest["snapshot_files"]:
            m = from_csv(out / name)
            assert m.cell_mass.sum() > 0.0

    def test_zero_kernel_matches_transport_law(self, tmp_path):
        text = BASE.replace("kernel.family = constant", "kernel.family = zero")
        code, out = run_cli(tmp_path, text, "simulate")
        assert code == 0
        manifest = json.loads((out / "simulate.json").read_text())
        t = manifest["times"][-1]
        m = from_csv(out / manifest["snapshot_files"][-1])
        cfg = run_config(parse_config(text))
        p = cfg.params
        h0 = power_law_init(p, geometric_grid(*cfg.grid))
        # pure transport: F_t(R) = e^(-beta (1-rho) t) F_0(R e^(beta t))
        for R in (40.0, 200.0, 1000.0):
            exact = np.exp(-p.beta * (1.0 - p.rho) * t) * cumulative_mass(
                h0, R * np.exp(p.beta * t)
            )
            assert cumulative_mass(m, R) == pytest.approx(exact, rel=1e-3)

    def test_t_final_zero_returns_datum(self, tmp_path):
        text = BASE.replace("run.t_final = 0.2", "run.t_final = 0.0")
        code, out = run_cli(tmp_path, text, "simulate")
        assert code == 0
        manifest = json.loads((out / "simulate.json").read_text())
        assert manifest["times"] == [0.0]
        m = from_csv(out / "snapshot_0000.csv")
        assert m.tail_amplitude == 0.5

    def test_malformed_config_exits_1(self, tmp_path):
        text = BASE.replace("params.rho = 0.5", "params.rho = -0.5")
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", cfg]) == 1

    def test_integration_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise forward.IntegrationError("step size collapsed")

        monkeypatch.setattr(cli, "simulate", fail)
        code, out = run_cli(tmp_path, BASE, "simulate")
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "simulate.json").exists()

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("t_final, dt", [(2.2, 0.05), (4.4, 0.1), (0.4, 0.1), (1.0, 0.25)])
    def test_snapshot_times_strictly_increase_to_t_final(self, tmp_path, t_final, dt):
        # np.arange(dt, t_final, dt) can end within the stepping tolerance
        # of t_final (2.1999999999999997 for 2.2 and 0.05), which once
        # stored the final state twice, at that time
        text = BASE.replace("kernel.family = constant", "kernel.family = zero")
        text = text.replace("run.t_final = 0.2", f"run.t_final = {t_final}")
        text = text.replace("run.snapshot_dt = 0.1", f"run.snapshot_dt = {dt}")
        code, out = run_cli(tmp_path, text, "simulate")
        assert code == 0
        manifest = json.loads((out / "simulate.json").read_text())
        times = manifest["times"]
        assert len(times) == len(manifest["snapshot_files"]) == round(t_final / dt)
        assert all(a < b for a, b in zip(times, times[1:]))
        assert times[-1] == t_final


class TestStationaryCommand:
    def test_converged_manifest(self, tmp_path):
        text = BASE + "run.tol = 5e-3\nrun.t_max = 12.0\nstationary.probe_radii = 10.0\n"
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 0
        manifest = json.loads((out / "stationary.json").read_text())
        entry = manifest["results"][0]
        assert entry["converged"] is True
        assert entry["tail_exponent_fit"] == pytest.approx(0.5, abs=0.05)
        assert entry["verdicts"] == dict.fromkeys(["tail_exponent", "tail_amplitude", "flux_residual", "envelopes"], True)
        assert entry["solver"] == "ptc" and (entry["n_steps"], entry["n_retries"]) == (0, 0)
        assert entry["ptc_iterations"] > 0 and entry["krylov_iterations"] > 0 and entry["rates_calls"] > 0
        assert 0.0 <= entry["max_pairing_residual"] <= 1e-12
        profile = from_csv(out / entry["profile_file"])
        assert profile.cell_mass.min() >= 0.0

    def test_non_convergence_exits_3_with_history(self, tmp_path, monkeypatch):
        # the pseudo-transient solve fails, and its fallback, the march,
        # runs out of time
        monkeypatch.setattr(stationary._PseudoTransient, "solve", lambda self, m, tol: None)
        text = BASE + "run.tol = 1e-12\nrun.t_max = 1.0\n"
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 3
        manifest = json.loads((out / "stationary.json").read_text())
        entry = manifest["results"][0]
        assert entry["converged"] is False and entry["solver"] == "march"
        assert len(entry["convergence_history"]) == 2
        (_, r1), (_, r2) = entry["convergence_history"]
        assert r2 < r1
        assert entry["distance_estimate"] == r2 / r1 / (1.0 - r2 / r1) * r2

    def test_log_names_the_default_flux_radii(self, tmp_path, capsys):
        # this grid's top edge lies below x_max = 1e4, so the default radii
        # strictly inside it are 10, 100 and 1000, and the log says so
        text = BASE + "run.tol = 1e-12\nrun.t_max = 0.5\n"
        assert geometric_grid(*run_config(parse_config(text)).grid)[-1] < 1e4
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 0
        entry = json.loads((out / "stationary.json").read_text())["results"][0]
        assert sorted(map(float, entry["residual_decay0"])) == [10.0, 100.0, 1000.0]
        assert " flux_radii=10,100,1000\n" in capsys.readouterr().err

    def test_zero_kernel_exact_profile(self, tmp_path):
        text = BASE.replace("kernel.family = constant", "kernel.family = zero")
        text += "run.tol = 1e-6\nrun.t_max = 30.0\n"
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 0
        manifest = json.loads((out / "stationary.json").read_text())
        entry = manifest["results"][0]
        assert entry["tail_exponent_fit"] == pytest.approx(0.5, abs=1e-6)
        assert entry["tail_amplitude_fit"] == pytest.approx(0.5, rel=1e-6)

    def test_lambda_continuation_manifest(self, tmp_path):
        text = CONTINUATION_BASE + "run.tol = 5e-3\nrun.t_max = 12.0\nstationary.lambdas = 5e-2, 1e-2\n"
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 0
        manifest = json.loads((out / "stationary.json").read_text())
        assert manifest["lambdas"] == [5e-2, 1e-2]
        assert len(manifest["results"]) == 2
        assert len(manifest["xrho_distances"]) == 1
        assert (out / "profile_0001.csv").exists()

    def test_search_error_exits_2(self, tmp_path, monkeypatch, capsys):
        # the second cutoff scale's search fails after the first one ran
        run = stationary.find_stationary

        def failing(params, kernel, cutoff, **kwargs):
            if cutoff.lam == 1e-2:
                raise forward.IntegrationError("step size collapsed")
            return run(params, kernel, cutoff, **kwargs)

        monkeypatch.setattr(stationary, "find_stationary", failing)
        text = CONTINUATION_BASE + "stationary.lambdas = 5e-2, 1e-2\n"
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 2
        assert "numerical failure: step size collapsed" in capsys.readouterr().err
        assert not (out / "stationary.json").exists()


# the theorem's range at (gamma, rho) = (0, 0.1) on the acceptance grid
SMALL_RHO = """
params.gamma = 0.0
params.rho = 0.1
params.delta = 0.05
kernel.family = constant
cutoff.lambda = 1e-3
"""


class TestStationaryVerdicts:
    def test_failed_gates_exit_2_and_are_named(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, SMALL_RHO, "stationary")
        assert code == 2
        entry = json.loads((out / "stationary.json").read_text())["results"][0]
        assert entry["converged"] is True and entry["solver"] == "ptc"
        assert entry["verdicts"] == {
            "tail_exponent": False, "tail_amplitude": False, "flux_residual": True, "envelopes": True,
        }
        err = capsys.readouterr().err
        assert "stationary: lambda=0.001 solver=ptc converged=True" in err
        assert "stationary: lambda=0.001 failed gates: tail_exponent, tail_amplitude\n" in err

    def test_passing_gates_exit_0(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, SMALL_RHO.replace("params.rho = 0.1", "params.rho = 0.9"), "stationary")
        assert code == 0
        entry = json.loads((out / "stationary.json").read_text())["results"][0]
        assert all(entry["verdicts"].values())
        assert "failed gates" not in capsys.readouterr().err


class TestKernelSetup:
    @pytest.mark.parametrize(
        "lines, want",
        [
            ("kernel.family = product\n", {"family": "product", "gamma": 0.5}),
            ("kernel.family = sum\nkernel.alpha = 0.2\n", {"family": "sum", "gamma": 0.5, "alpha": 0.2}),
        ],
        ids=["product", "sum"],
    )
    def test_records_the_fields_the_family_reads(self, tmp_path, lines, want):
        text = BASE.replace("params.gamma = 0.0", "params.gamma = 0.5").replace("params.rho = 0.5", "params.rho = 0.75")
        text = text.replace("kernel.family = constant\n", lines)
        code, out = run_cli(tmp_path, text, "simulate")
        assert code == 0
        assert json.loads((out / "simulate.json").read_text())["setup"]["kernel"] == want


def oracle_setup(cfg):
    """The manifests' setup entry as the CLI first wrote it, without the
    seed, which no code read, and without the kernel's alpha, which the
    constant family of these configs does not read."""
    kernel = asdict(cfg.kernel)
    assert kernel.pop("alpha") == 0.0 and kernel["family"] == "constant"
    return {
        "params": asdict(cfg.params),
        "kernel": kernel,
        "cutoff": asdict(cfg.cutoff),
        "grid": list(cfg.grid),
    }


def oracle_stationary_manifest(cfg, results, extra):
    """stationary.json with each result entry listed by hand, as the CLI
    first wrote it, plus the solver's name and counts and the verdicts."""
    entries = []
    for k, res in enumerate(results):
        entries.append(
            {
                "lambda": res.lam,
                "solver": res.solver,
                "ptc_iterations": res.ptc_iterations,
                "krylov_iterations": res.krylov_iterations,
                "rates_calls": res.rates_calls,
                "verdicts": res.verdicts,
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
                "profile_file": f"profile_{k:04d}.csv",
            }
        )
    return {
        "schema_version": 1,
        "command": "stationary",
        "setup": oracle_setup(cfg),
        "tol": cfg.tol,
        "t_max": cfg.t_max,
        "results": entries,
        **extra,
    }


def oracle_simulate_manifest(cfg, res):
    """simulate.json with its counters listed by hand, as the CLI first
    wrote it."""
    return {
        "schema_version": 1,
        "command": "simulate",
        "setup": oracle_setup(cfg),
        "t_final": cfg.t_final,
        "times": res.times,
        "snapshot_files": [f"snapshot_{k:04d}.csv" for k in range(len(res.snapshots))],
        "origin_mass": res.origin_mass,
        "overflow_mass": res.overflow_mass,
        "overflow_moment": res.overflow_moment,
        "n_steps": res.n_steps,
        "n_retries": res.n_retries,
        "max_pairing_residual": res.max_pairing_residual,
    }


def recording(monkeypatch, name):
    """Wrap cli.<name> so that each call's return value is kept."""
    fn, seen = getattr(cli, name), []

    def wrapped(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, name, wrapped)
    return seen


ORACLE_STATIONARY = BASE + "run.tol = 5e-3\nrun.t_max = 12.0\nstationary.probe_radii = 10.0, 100.0\n"
ORACLE_CONTINUATION = CONTINUATION_BASE + "run.tol = 5e-3\nrun.t_max = 12.0\nstationary.lambdas = 5e-2, 1e-2\n"


class TestManifestOracle:
    def test_stationary_entry(self, tmp_path, monkeypatch):
        seen = recording(monkeypatch, "find_stationary")
        code, out = run_cli(tmp_path, ORACLE_STATIONARY, "stationary")
        assert code == 0 and len(seen) == 1
        cfg = run_config(parse_config(ORACLE_STATIONARY))
        cli.write_json(tmp_path / "want.json", oracle_stationary_manifest(cfg, seen, {}))
        assert (out / "stationary.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_continuation_entries(self, tmp_path, monkeypatch):
        seen = recording(monkeypatch, "lambda_continuation")
        code, out = run_cli(tmp_path, ORACLE_CONTINUATION, "stationary")
        assert code == 0 and len(seen) == 1
        report = seen[0]
        cfg = run_config(parse_config(ORACLE_CONTINUATION))
        extra = {"lambdas": list(report.lambdas), "xrho_distances": report.distances}
        want = oracle_stationary_manifest(cfg, report.results, extra)
        # the searches ran at the lambdas alone, and the cutoff holds
        # nothing else, so the setup records no cutoff
        del want["setup"]["cutoff"]
        cli.write_json(tmp_path / "want.json", want)
        assert (out / "stationary.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_simulate_counters(self, tmp_path, monkeypatch):
        seen = recording(monkeypatch, "simulate")
        code, out = run_cli(tmp_path, BASE, "simulate")
        assert code == 0 and len(seen) == 1
        cfg = run_config(parse_config(BASE))
        cli.write_json(tmp_path / "want.json", oracle_simulate_manifest(cfg, seen[0]))
        assert (out / "simulate.json").read_bytes() == (tmp_path / "want.json").read_bytes()


class TestDualCheckCommand:
    def test_zero_kernel_exact(self, tmp_path):
        text = BASE.replace("kernel.family = constant", "kernel.family = zero")
        text += "dual.radius = 10.0\ndual.time = 0.25\ndual.max_change = 0.02\ndual.dump_s = 0.0, 0.25\n"
        code, out = run_cli(tmp_path, text, "dual-check", "--tolerance", "1e-12")
        assert code == 0
        manifest = json.loads((out / "dual_check.json").read_text())
        assert manifest["adjoint_residual"] <= 1e-12
        kind, meta, cols, rows = read_table(out / "psi_0000.csv")
        assert kind == "dual-field" and cols == ["x", "psi"]
        psi = np.array(rows)[:, 1]
        assert psi.min() >= 0.0 and psi.max() <= 1.0

    def test_coarse_steps_fail_tolerance(self, tmp_path):
        text = BASE + "dual.radius = 10.0\ndual.time = 0.25\ndual.max_change = 0.2\n"
        code, out = run_cli(tmp_path, text, "dual-check", "--tolerance", "1e-6")
        assert code == 2
        manifest = json.loads((out / "dual_check.json").read_text())
        assert manifest["adjoint_residual"] > 1e-6
        assert manifest["m_star"] <= 1e4

    def test_dual_cap_leaves_forward_steps(self, tmp_path):
        # dual.max_change caps the dual alone; the trajectory keeps its own
        # cap, and the manifest names both
        manifests = {}
        for mc in (0.02, 0.005):
            text = BASE + f"dual.radius = 10.0\ndual.time = 0.25\ndual.max_change = {mc}\n"
            run_dir = tmp_path / str(mc)
            run_dir.mkdir()
            code, out = run_cli(run_dir, text, "dual-check", "--tolerance", "1e-2")
            assert code == 0
            manifests[mc] = json.loads((out / "dual_check.json").read_text())
        coarse, fine = manifests[0.02], manifests[0.005]
        assert coarse["trajectory_max_change"] == fine["trajectory_max_change"] == 0.02
        assert coarse["n_forward_steps"] == fine["n_forward_steps"] > 0
        assert fine["n_backward_steps"] > coarse["n_backward_steps"]

    def test_time_zero_checks_the_datum(self, tmp_path):
        # dual.time = 0 is accepted: the trajectory and the dual field hold
        # one state each, and the pairing reduces to the cumulative of the
        # datum
        text = BASE + "dual.radius = 10.0\ndual.time = 0.0\ndual.dump_s = 0.0\n"
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 0
        manifest = json.loads((out / "dual_check.json").read_text())
        assert manifest["adjoint_residual"] <= 1e-12
        assert manifest["m_star"] == 0.0
        assert manifest["n_forward_steps"] == manifest["n_backward_steps"] == 0
        _, meta, _, rows = read_table(out / "psi_0000.csv")
        assert meta["s"] == "0.0" and all(psi == 1.0 for _, psi in rows)

    def test_missing_radius_exits_1(self, tmp_path):
        code, _ = run_cli(tmp_path, BASE, "dual-check")
        assert code == 1

    @pytest.mark.parametrize(
        "bad",
        ["dual.dump_s = 0.0, 0.9", "dual.radius = 0.0", "dual.time = -0.1", "dual.max_change = 0.0"],
        ids=["dump_s", "radius", "time", "max_change"],
    )
    def test_bad_dual_key_exits_1_before_solving(self, tmp_path, bad):
        good = {"dual.radius": "10.0", "dual.time": "0.1"}
        key, value = bad.split(" = ")
        good[key] = value
        text = BASE + "".join(f"{k} = {v}\n" for k, v in good.items())
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 1
        assert not list(out.glob("psi_*.csv"))

    def test_builds_one_engine(self, tmp_path, monkeypatch):
        # the dual reads the pair operator of the engine that stepped the
        # trajectory; a second build would hold a second copy all through
        # the solve
        builds = []
        init = forward._Engine.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(forward._Engine, "__init__", counting_init)
        text = BASE + "dual.radius = 10.0\ndual.time = 0.25\ndual.max_change = 0.02\n"
        cfg = run_config(parse_config(text))
        assert cmd_dual_check(cfg, tmp_path, 1e-2) == 0
        assert len(builds) == 1

    def test_leaves_the_half_band_unbuilt(self, tmp_path, monkeypatch):
        # the dual steps on the engine's per-diagonal vectors; no per-pair
        # half band is built on the engine through the whole command
        engines = []
        init = forward._Engine.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            engines.append((self, set(vars(self))))

        monkeypatch.setattr(forward._Engine, "__init__", recording_init)
        text = BASE + "dual.radius = 10.0\ndual.time = 0.25\ndual.max_change = 0.02\n"
        cfg = run_config(parse_config(text))
        assert cmd_dual_check(cfg, tmp_path, 1e-2) == 0
        assert len(engines) == 1
        engine, keys = engines[0]
        assert "T" not in vars(engine) and not hasattr(engine, "T")
        assert set(vars(engine)) == keys


class TestProfileWCommand:
    def test_half_matches_closed_form(self, tmp_path):
        text = BASE + "w.a = 0.5\nw.y_min = 1.0\nw.y_max = 100.0\nw.n = 7\n"
        code, out = run_cli(tmp_path, text, "profile-w")
        assert code == 0
        kind, meta, cols, rows = read_table(out / "w_profile.csv")
        assert kind == "w-profile" and cols == ["y", "w", "w_prime", "t3e4_residual"]
        prof = StableProfile(a=0.5)
        for y, w, _, _ in rows:
            assert w == pytest.approx(w_eval(prof, y), abs=1e-12)

    def test_half_default_grid_passes(self, tmp_path):
        # the default 41-point grid on [1e-2, 1e4] reaches W = 3e-10 at
        # Y = 0.158, where the identity needs W at full relative accuracy
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, BASE + "w.a = 0.5\n", "profile-w")
        assert code == 0
        assert [str(w.message) for w in caught] == []
        manifest = json.loads((out / "profile_w.json").read_text())
        assert manifest["n_points"] == 41 and manifest["max_residual"] <= 1e-10

    def test_a_outside_range_exits_1(self, tmp_path):
        code, _ = run_cli(tmp_path, BASE + "w.a = 1.5\n", "profile-w")
        assert code == 1

    def test_loose_tolerance_controls_exit(self, tmp_path):
        # at a tolerance beneath quadrature accuracy the command reports failure
        text = BASE + "w.a = 0.3\nw.y_min = 1.0\nw.y_max = 10.0\nw.n = 3\n"
        code, _ = run_cli(tmp_path, text, "profile-w", "--tolerance", "1e-16")
        assert code == 2


class TestInvarianceSuiteCommand:
    def test_passes_and_reports(self, tmp_path):
        code, out = run_cli(tmp_path, BASE, "invariance-suite")
        assert code == 0
        summary = json.loads((out / "invariance.json").read_text())
        assert summary["n_failures"] == 0
        assert summary["n_cases"] == 23
        xml = (out / "invariance.xml").read_text()
        assert 'failures="0"' in xml and 'tests="23"' in xml

    def test_details_print_python_floats(self, tmp_path):
        # the upper envelope's tail limit and the Gronwall ratio once
        # printed as np.float64(1.0)
        code, out = run_cli(tmp_path, BASE, "invariance-suite")
        assert code == 0
        text = (out / "invariance.json").read_text()
        assert "np.float64(" not in text
        assert "worst ratio 1.0 at R=inf" in text
        # the Gronwall check covers the supremum over all R, so its detail
        # names the time alone
        assert '"worst ratio 1.0 at t=0.0"' in text

    def test_builds_one_engine(self, tmp_path, monkeypatch):
        # the trajectory's engine steps the snapshot run and serves the
        # rearrangement checks
        builds = []
        init = forward._Engine.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(forward._Engine, "__init__", counting_init)
        code, _ = run_cli(tmp_path, BASE, "invariance-suite")
        assert code == 0
        assert len(builds) == 1

    def test_zero_kernel_passes(self, tmp_path):
        text = BASE.replace("kernel.family = constant", "kernel.family = zero")
        code, out = run_cli(tmp_path, text, "invariance-suite")
        assert code == 0

    def test_junit_records_failures(self, tmp_path):
        # shrinking the slack to 0 turns roundoff-level envelope excess into failures
        code, out = run_cli(tmp_path, BASE, "invariance-suite", "--tolerance", "-1.0")
        assert code == 2
        summary = json.loads((out / "invariance.json").read_text())
        assert summary["n_failures"] > 0
        xml = (out / "invariance.xml").read_text()
        assert "<failure" in xml


class TestDeterminism:
    def test_identical_config_bit_identical_artifacts(self, tmp_path):
        text = BASE + "run.tol = 5e-3\nrun.t_max = 6.0\n"
        outs = []
        for tag in ("a", "b"):
            cfg = write_cfg(tmp_path, text, name=f"{tag}.cfg")
            out = tmp_path / tag
            assert main(["stationary", "--config", cfg, "--out", str(out)]) in (0, 3)
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


    def test_identical_continuation_bit_identical_artifacts(self, tmp_path):
        text = CONTINUATION_BASE + "stationary.lambdas = 5e-2, 1e-2\n"
        outs = []
        for tag in ("a", "b"):
            cfg = write_cfg(tmp_path, text, name=f"{tag}.cfg")
            out = tmp_path / tag
            assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["profile_0000.csv", "profile_0001.csv", "stationary.json"]
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestArgumentHandling:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x"])
        assert exc.value.code == 1

    def test_missing_config_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_tolerance_only_on_commands_that_read_it(self, tmp_path, capsys, command):
        # simulate has no pass threshold and the stationary search stops at
        # run.tol, so --tolerance is a usage error there; on the checking
        # commands it parses, and the missing config file exits 1
        argv = [command, "--config", str(tmp_path / "nope.cfg"), "--tolerance", "1e-3"]
        if command in ("simulate", "stationary"):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
        else:
            assert main(argv) == 1
            assert "config error" in capsys.readouterr().err
