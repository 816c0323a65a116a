"""Config dialect parsing and the command-line interface."""

import contextlib
import io
import json
import re
import runpy
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coagsim import cli, config, dual, forward, stationary
from coagsim.cli import cmd_dual_check, main, read_table, write_table
from coagsim.config import (
    ConfigError,
    get_floats,
    parse_config,
    run_config,
)
from coagsim.measure import cumulative_mass, from_csv, geometric_grid, power_law_init
from coagsim.stablecdf import W_FLOOR, StableProfile, w_eval

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

BENCH = Path(__file__).resolve().parents[1] / "bench"
# workload name -> (command, manifest), as the benchmark runs them
BENCH_WORKLOADS = runpy.run_path(str(BENCH / "run.py"))["WORKLOADS"]
# an integral literal too large for a float
HUGE = "1" + "0" * 400


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_scalars_and_types(self):
        # every number is a float, integral literals among them
        m = parse_config(BASE + "w.n = 7\n")
        assert m["params.gamma"] == 0.0
        assert m["kernel.family"] == "constant"
        assert m["w.n"] == 7.0 and isinstance(m["w.n"], float)
        assert isinstance(m["params.rho"], float)

    def test_comments_and_blanks(self):
        m = parse_config("a = 1  # trailing\n\n# whole line\nb.c = 2\n")
        assert m == {"a": 1, "b.c": 2}

    def test_strings_quoted_and_bare(self):
        m = parse_config('p = "a b"\nq = bare\nr = "1.5"\n')
        assert m == {"p": "a b", "q": "bare", "r": "1.5"}

    def test_booleans(self):
        # no key takes a boolean: true and false are bare words
        assert parse_config("x = true\ny = false, 1\n") == {"x": "true", "y": ("false", 1)}

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
        assert cfg.tol == 1e-4
        # the step cap and the Y grid are constants, not keys
        assert cli.FORWARD_MAX_CHANGE == 0.05 and cli.PROFILE_W_GRID == (1e-2, 1e4, 41)

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

    @pytest.mark.parametrize("key", ["run.tol"])
    def test_numeric_key_set_to_true_exits_1(self, tmp_path, capsys, key):
        code, _ = run_cli(tmp_path, BASE + f"{key} = true\n", "stationary")
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "'true'" in err

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
            ("stationary", "run.t_max = 12.0\n", ["unknown", "run.t_max"]),
            ("stationary", "stationary.lambdas = 5e-2, 1e-2\n", ["stationary.lambdas", "cutoff.lambda"]),
            ("stationary", "stationary.probe_radii = 10.0\n", ["unknown", "stationary.probe_radii"]),
            ("simulate", "run.t_final = inf\n", ["run", "t_final"]),
            ("simulate", "run.snapshot_dt = nan\n", ["run", "snapshot_dt"]),
            ("stationary", "grid.x_max = inf\n", ["grid", "x_max"]),
            ("simulate", "grid.ratio = inf\n", ["grid", "ratio"]),
            ("stationary", "run.tol = inf\n", ["run.tol", "finite"]),
            ("simulate", "run.max_change = 0.05\n", ["unknown", "run.max_change"]),
            ("profile-w", "w.a = 0.5\nw.y_min = 1e-2\n", ["unknown", "w.y_min"]),
            ("profile-w", "w.a = 0.5\nw.y_max = 1e4\n", ["unknown", "w.y_max"]),
            ("profile-w", "w.a = 0.5\nw.n = 41\n", ["unknown", "w.n"]),
            ("dual-check", "dual.radius = 100.0\ndual.max_change = 0.0025\n", ["unknown", "dual.max_change"]),
            ("dual-check", "params.r0 = inf\ndual.radius = 100.0\n", ["params.r0", "finite"]),
            ("simulate", "kernel.value = inf\n", ["kernel.value", "finite"]),
            ("simulate", 'outputs = "results"\n', ["unknown", "outputs"]),
            ("stationary", "grid.x_max = 90.0\n", ["fit window [100, 10000]", "grid [0.001, 88.75"]),
            ("simulate", "grid.x_min = 5e-324\n", ["grid", "x_min = 5e-324", "normal float"]),
            ("stationary", "grid.x_min = 1e-310\n", ["grid", "x_min = 1e-310", "normal float"]),
            ("dual-check", "grid.x_max = 1.7e308\ndual.radius = 100.0\n", ["grid", "x_max / x_min", "overflows"]),
            ("invariance-suite", "grid.ratio = 1.0000000000000002\n", ["grid", "ratio = 1.0000000000000002",
                                                                        "MAX_CELLS = 262144"]),
            ("profile-w", "w.a = 0.5\ngrid.ratio = 1.0000000000000002\n", ["grid", "MAX_CELLS"]),
        ],
        ids=[
            "seed", "kernel_gamma", "y_values_n", "y_values_y_min", "y_values_y_max", "cutoff_profile",
            "run_t_max", "lambdas", "probe_radii", "t_final_inf", "snapshot_dt_nan",
            "x_max_inf", "ratio_inf", "tol_inf", "max_change", "y_min", "y_max", "n", "dual_max_change", "r0_inf",
            "value_inf", "outputs", "grid_below_fit_window", "x_min_subnormal", "x_min_1e-310",
            "span_overflows", "ratio_next_float", "ratio_next_float_profile_w",
        ],
    )
    def test_refused_before_any_solve(self, tmp_path, monkeypatch, capsys, command, extra, names):
        # an unknown or unread key (the output directory is --out alone;
        # the forward and dual step caps and profile-w's Y grid are cli
        # constants), a second home for one setting, a probe radius the
        # search would drop, a non-finite number, a grid that cannot hold
        # the tail fit, or a grid span whose edges overflow, are subnormal
        # or number more than MAX_CELLS (an OverflowError traceback or an
        # 8e17-byte request once), exits 1 naming the keys, before any
        # solve.  A key of BASE set in extra replaces BASE's line.
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(forward._Engine, "__init__", no_solve)
        monkeypatch.setattr(cli, "w_eval", no_solve)
        keys = set(parse_config(extra))
        text = "".join(f"{line}\n" for line in BASE.splitlines() if line.partition("=")[0].strip() not in keys)
        code, out = run_cli(tmp_path, text + extra, command)
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and all(name in err for name in names)
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("profile-w", BASE.replace("grid.x_max = 1e4", f"grid.x_max = {HUGE}") + "w.a = 0.5\n", "grid.x_max"),
            ("stationary", CONTINUATION_BASE + f"stationary.lambdas = 1e-2, {HUGE}\n", "stationary.lambdas"),
        ],
        ids=["scalar", "list"],
    )
    def test_huge_integral_literal_exits_1(self, tmp_path, monkeypatch, capsys, command, text, key):
        # the literal reads as inf, which the key refuses by name, before
        # any solve; it must not escape as an OverflowError traceback
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(forward._Engine, "__init__", no_solve)
        monkeypatch.setattr(cli, "w_eval", no_solve)
        code, _ = run_cli(tmp_path, text, command)
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("simulate", BASE.replace("cutoff.lambda = 1e-2", "cutoff.lambda = 5e-324")),
            ("stationary", BASE.replace("cutoff.lambda = 1e-2", "cutoff.lambda = 5e-324")),
            ("dual-check", BASE.replace("cutoff.lambda = 1e-2", "cutoff.lambda = 5e-324") + "dual.radius = 100.0\n"),
            ("invariance-suite", BASE.replace("cutoff.lambda = 1e-2", "cutoff.lambda = 5e-324")),
            ("stationary", CONTINUATION_BASE + "stationary.lambdas = 1e-2, 5e-324\n"),
        ],
        ids=["simulate", "stationary", "dual-check", "invariance-suite", "lambdas"],
    )
    def test_subnormal_cutoff_scale_exits_1(self, tmp_path, monkeypatch, capsys, command, text):
        # the partner ratio (2 - lam)/lam is inf, which escaped int() in
        # forward._partners as an OverflowError traceback once; the scale
        # is refused by name before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(forward._Engine, "__init__", no_solve)
        # cli binds its solver names when a command first runs: patch its
        # own too, so that no patched one stays bound after the test
        for module in (cli, stationary):
            monkeypatch.setattr(module, "find_stationary", no_solve)
        code, _ = run_cli(tmp_path, text, command)
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "lam = 5e-324" in err and "partner ratio" in err
        assert "Traceback" not in err

    def test_cutoff_scale_whose_partners_overflow_exits_1(self, tmp_path, capsys):
        # on a ratio-1.5 grid up to 1e3, lam = 1e-305 has a finite partner
        # ratio, but the ghost cells' sizes over lam pass the float range:
        # refused by name, with no overflow warning
        grid = "grid.x_min = 1e-3\ngrid.x_max = 1e3\ngrid.ratio = 1.5\n"
        keep = [ln for ln in BASE.splitlines() if not ln.startswith(("grid.", "cutoff.lambda"))]
        text = "\n".join(keep) + "\ncutoff.lambda = 1e-305\n" + grid
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(tmp_path, text, "simulate")
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "lam = 1e-305" in err
        assert "cutoff argument" not in err
        assert [str(w.message) for w in caught] == []

    def test_later_scale_whose_partners_overflow_exits_1_before_any_search(self, tmp_path, monkeypatch, capsys):
        # the same grid with stationary.lambdas = 0.1, 1e-300: the second
        # scale's partners overflow, which is refused before the first
        # scale's search builds its engine
        built = []
        init = forward._Engine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(forward._Engine, "__init__", counting_init)
        grid = "grid.x_min = 1e-3\ngrid.x_max = 1e3\ngrid.ratio = 1.5\n"
        keep = [ln for ln in CONTINUATION_BASE.splitlines() if not ln.startswith("grid.")]
        text = "\n".join(keep) + "\nstationary.lambdas = 0.1, 1e-300\n" + grid
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "lam = 1e-300" in err
        assert built == []
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "stationary", "dual-check", "invariance-suite"])
    @pytest.mark.parametrize(
        "edit, key",
        [
            ("grid.x_min = 1e-2\ngrid.x_max = 1e300\ngrid.ratio = 1.5\n", "grid.x_max"),
            ("params.r0 = 1.7e308\n", "params.r0"),
        ],
        ids=["grid_top", "r0"],
    )
    def test_overflow_is_refused_by_name_before_any_engine(self, tmp_path, monkeypatch, capsys, command, edit, key):
        # a grid top past about 1.3e154, where the ghost cells'
        # representatives sqrt(a b) overflow, and an R0 whose R0/R
        # overflows at the grid's first edge, ran to exit 0 with overflow
        # warnings and degraded output once
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(forward._Engine, "__init__", no_engine)
        keys = set(parse_config(edit))
        text = "".join(f"{line}\n" for line in BASE.splitlines() if line.partition("=")[0].strip() not in keys)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, text + edit + "dual.radius = 10.0\n", command)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not out.exists() or not any(out.iterdir())

    def test_grid_top_is_refused_at_every_scale_before_any_search(self, tmp_path, monkeypatch, capsys):
        # the continuation checks each scale's partners before its first
        # search, where the representatives overflow too
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(forward._Engine, "__init__", no_engine)
        grid = "grid.x_min = 1e-2\ngrid.x_max = 1e300\ngrid.ratio = 1.5\n"
        keep = [ln for ln in CONTINUATION_BASE.splitlines() if not ln.startswith("grid.")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(tmp_path, "\n".join(keep) + "\nstationary.lambdas = 0.1, 1e-2\n" + grid, "stationary")
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: the grid's top edge" in err and "representatives overflow" in err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["simulate", "stationary", "dual-check", "invariance-suite"])
    def test_ghost_count_is_refused_by_name_before_any_array(self, tmp_path, monkeypatch, capsys, command):
        # 100 cells at a ratio of 1 + 1e-12: their partners at lambda = 1e-3
        # span 7.6e12 ghost cells, whose edges would take 61 TB
        def no_tail(*args, **kwargs):
            raise AssertionError("the ghost cells were built")

        monkeypatch.setattr(forward, "_tail_cells", no_tail)
        grid = "grid.x_min = 1.0\ngrid.x_max = 1.0000000001\ngrid.ratio = 1.000000000001\n"
        keep = [ln for ln in BASE.splitlines() if not ln.startswith(("grid.", "cutoff."))]
        text = "\n".join(keep) + "\ncutoff.lambda = 1e-3\ndual.radius = 1.0\n" + grid
        assert geometric_grid(*run_config(parse_config(text)).grid).size == 101
        code, out = run_cli(tmp_path, text, command)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.ratio = 1.000000000001 with cutoff.lambda = 0.001:")
        assert "7.6e+12 ghost cells, more than MAX_CELLS" in err and err.count("\n") == 1
        assert not any(out.iterdir())
        # a continuation refuses the scale before its first search
        text = "\n".join(keep) + "\nstationary.lambdas = 0.1, 1e-3\n" + grid
        code, _ = run_cli(tmp_path, text, "stationary")
        assert code == 1
        assert "too close to 1 at lam = 0.1" in capsys.readouterr().err

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


class TestBenchConfigs:
    @pytest.mark.parametrize("name", sorted(path.stem for path in (BENCH / "configs").glob("*.cfg")))
    def test_command_reads_the_config_up_to_its_solve(self, tmp_path, monkeypatch, name):
        # each benchmark config loads, validates and passes its command's
        # own reads and checks (stationary.lambdas, dual.radius, dual.time)
        # until the first solve, which is stubbed out, so a config change
        # that breaks a workload shows here rather than in a benchmark run
        class Solve(Exception):
            pass

        def stub(*args, **kwargs):
            raise Solve

        for solver in ("find_stationary", "lambda_continuation", "rescaled_trajectory"):
            monkeypatch.setattr(cli, solver, stub)
        command, _ = BENCH_WORKLOADS[name]
        with pytest.raises(Solve):
            main([command, "--config", str(BENCH / "configs" / f"{name}.cfg"), "--out", str(tmp_path)])


# the fuzz's base: one value for every key that a command reads, on a
# 28-cell grid
FUZZ_BASE = {
    "params.gamma": "0.0", "params.rho": "0.5", "kernel.family": "constant", "cutoff.lambda": "1e-2",
    "grid.x_min": "1e-2", "grid.x_max": "1e3", "grid.ratio": "1.5", "run.t_final": "0.2",
    "run.snapshot_dt": "0.1", "dual.radius": "10.0", "dual.time": "0.25", "w.a": "0.5",
}
FUZZ_KEYS = sorted(f"{section}.{key}" for section, keys in config._KNOWN_KEYS.items() for key in keys)
FUZZ_VALUES = ["0", "-1", "5e-324", "1e-310", "1e-300", "1e300", "1e305", "1.7e308", HUGE, "inf", "nan", "word",
               "0.5, 2"]


class TestConfigFuzz:
    def test_no_config_ends_in_a_traceback(self, tmp_path, monkeypatch):
        # each command runs up to its first solve, which is stubbed out as in
        # TestBenchConfigs, on the base config with one to three keys set to
        # edge values: it exits with a code of the contract or reaches the
        # stub, and any other exception escapes and fails the test
        class Solve(Exception):
            pass

        def stub(*args, **kwargs):
            raise Solve

        for solver in ("find_stationary", "lambda_continuation", "rescaled_trajectory", "simulate", "w_eval"):
            monkeypatch.setattr(cli, solver, stub)

        @settings(max_examples=400, derandomize=True, database=None, deadline=None)
        @given(st.sampled_from(sorted(cli._COMMANDS)),
               st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES), min_size=1, max_size=3))
        def check(command, edits):
            cfg = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in {**FUZZ_BASE, **edits}.items()))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
                except Solve:
                    code = 0
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()

        check()


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

    def test_missing_kind(self, tmp_path):
        # raised KeyError once
        path = tmp_path / "t.csv"
        path.write_text("# coagsim-table schema_version=1 a=0.5\nx\n1.0\n")
        with pytest.raises(ValueError, match="kind"):
            read_table(path)


    @pytest.mark.parametrize("case", range(len(TABLE_CASES)))
    def test_bytes_match_oracle(self, tmp_path, case):
        kind, meta, cols, rows = TABLE_CASES[case]
        write_table(tmp_path / "got.csv", kind, meta, cols, rows)
        oracle_write_table(tmp_path / "want.csv", kind, meta, cols, rows)
        want = (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "got.csv").read_bytes() == want
        assert read_table(tmp_path / "got.csv")[:3] == read_table(tmp_path / "want.csv")[:3]


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
        text = BASE + "run.tol = 5e-3\n"
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 0
        manifest = json.loads((out / "stationary.json").read_text())
        entry = manifest["results"][0]
        assert entry["converged"] is True
        assert entry["tail_exponent_fit"] == pytest.approx(0.5, abs=0.05)
        assert entry["verdicts"] == dict.fromkeys(["tail_exponent", "tail_amplitude", "flux_residual", "envelopes"], True)
        assert entry["ptc_iterations"] > 0 and entry["krylov_iterations"] > 0 and entry["rates_calls"] > 0
        assert 0.0 <= entry["max_pairing_residual"] <= 1e-12
        profile = from_csv(out / entry["profile_file"])
        assert profile.cell_mass.min() >= 0.0

    def test_non_convergence_exits_3_with_history(self, tmp_path, monkeypatch, capsys):
        # one pseudo-transient step cannot reach this tol: the search
        # reports its last positive iterate, and the command exits 3
        monkeypatch.setattr(stationary, "PTC_MAX_ITER", 1)
        text = BASE + "run.tol = 1e-12\n"
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 3
        manifest = json.loads((out / "stationary.json").read_text())
        entry = manifest["results"][0]
        assert entry["converged"] is False and entry["ptc_iterations"] == 1
        assert len(entry["convergence_history"]) == 2
        (_, r1), (_, r2) = entry["convergence_history"]
        assert r2 < r1
        assert from_csv(out / entry["profile_file"]).cell_mass.min() > 0.0
        err = capsys.readouterr().err
        assert "stationary: lambda=0.01 converged=False t=" in err and "solver=" not in err

    def test_stderr_names_the_exact_cutoff_scale(self, tmp_path, monkeypatch, capsys):
        # lambda = 0.0009999999 printed as lambda=0.001 once, on both the
        # summary and the failed-gates line; they name the scale as the
        # manifest records it
        monkeypatch.setattr(stationary, "PTC_MAX_ITER", 1)
        text = BASE.replace("cutoff.lambda = 1e-2", "cutoff.lambda = 0.0009999999") + "run.tol = 1e-12\n"
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 3
        assert json.loads((out / "stationary.json").read_text())["results"][0]["lambda"] == 0.0009999999
        err = capsys.readouterr().err
        assert "stationary: lambda=0.0009999999 converged=False t=" in err
        assert "stationary: lambda=0.0009999999 failed gates: " in err

    def test_log_names_the_default_flux_radii(self, tmp_path, capsys):
        # this grid's top edge lies below x_max = 1e4, so the default radii
        # strictly inside it are 10, 100 and 1000, and the log says so
        text = BASE + "run.tol = 1e-12\n"
        assert geometric_grid(*run_config(parse_config(text)).grid)[-1] < 1e4
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 0
        entry = json.loads((out / "stationary.json").read_text())["results"][0]
        assert sorted(map(float, entry["residual_decay0"])) == [10.0, 100.0, 1000.0]
        assert " flux_radii=10,100,1000\n" in capsys.readouterr().err

    def test_zero_kernel_exact_profile(self, tmp_path):
        text = BASE.replace("kernel.family = constant", "kernel.family = zero")
        text += "run.tol = 1e-6\n"
        code, out = run_cli(tmp_path, text, "stationary")
        assert code == 0
        manifest = json.loads((out / "stationary.json").read_text())
        entry = manifest["results"][0]
        assert entry["tail_exponent_fit"] == pytest.approx(0.5, abs=1e-6)
        assert entry["tail_amplitude_fit"] == pytest.approx(0.5, rel=1e-6)

    def test_lambda_continuation_manifest(self, tmp_path):
        text = CONTINUATION_BASE + "run.tol = 5e-3\nstationary.lambdas = 5e-2, 1e-2\n"
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

        # lambda_continuation calls stationary's name; cli's is patched too,
        # so that no patched one stays bound after the test
        for module in (cli, stationary):
            monkeypatch.setattr(module, "find_stationary", failing)
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
        assert entry["converged"] is True
        assert entry["verdicts"] == {
            "tail_exponent": False, "tail_amplitude": False, "flux_residual": True, "envelopes": True,
        }
        err = capsys.readouterr().err
        assert "stationary: lambda=0.001 converged=True t=" in err
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
    """stationary.json with each result entry's fields listed by hand:
    the search's counts, verdicts and diagnostics."""
    entries = []
    for k, res in enumerate(results):
        entries.append(
            {
                "lambda": res.lam,
                "ptc_iterations": res.ptc_iterations,
                "krylov_iterations": res.krylov_iterations,
                "rates_calls": res.rates_calls,
                "verdicts": res.verdicts,
                "converged": res.converged,
                "t_elapsed": res.t_elapsed,
                "convergence_history": [list(p) for p in res.convergence_history],
                "residual_decay0": res.residual_decay0,
                "tail_exponent_fit": res.tail_exponent_fit,
                "tail_amplitude_fit": res.tail_amplitude_fit,
                "envelope_upper": res.envelope_upper,
                "envelope_lower": res.envelope_lower,
                "max_pairing_residual": res.max_pairing_residual,
                "profile_file": f"profile_{k:04d}.csv",
            }
        )
    return {
        "schema_version": 1,
        "command": "stationary",
        "setup": oracle_setup(cfg),
        "tol": cfg.tol,
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


ORACLE_STATIONARY = BASE + "run.tol = 5e-3\n"
ORACLE_CONTINUATION = CONTINUATION_BASE + "run.tol = 5e-3\nstationary.lambdas = 5e-2, 1e-2\n"


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
        text += "dual.radius = 10.0\ndual.time = 0.25\ndual.dump_s = 0.0, 0.25\n"
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 0
        manifest = json.loads((out / "dual_check.json").read_text())
        assert manifest["adjoint_residual"] <= 1e-12
        kind, meta, cols, rows = read_table(out / "psi_0000.csv")
        assert kind == "dual-field" and cols == ["x", "psi"]
        psi = np.array(rows)[:, 1]
        assert psi.min() >= 0.0 and psi.max() <= 1.0

    def test_dual_defect_fails_the_gate(self, tmp_path, monkeypatch):
        # at a gate of 1e-6 the exact transpose passes, and a dual whose
        # gain is 0.1% short fails.  R = 100: the datum holds no mass below
        # R0 = 10, so at R = 10 every pair it pairs with lands past R and
        # the gain reads zero
        monkeypatch.setattr(cli, "DUAL_CHECK_TOL", 1e-6)
        text = BASE + "dual.radius = 100.0\ndual.time = 0.25\n"
        exact = tmp_path / "exact"
        exact.mkdir()
        code, _ = run_cli(exact, text, "dual-check")
        assert code == 0
        gain = dual._Jumps.gain
        monkeypatch.setattr(dual._Jumps, "gain", lambda self, c, psi: 0.999 * gain(self, c, psi))
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 2
        manifest = json.loads((out / "dual_check.json").read_text())
        assert manifest["tolerance"] == 1e-6 < manifest["adjoint_residual"]
        assert manifest["m_star"] <= 1e4

    def test_dual_walks_the_forward_steps(self, tmp_path):
        # the dual has no step cap of its own: it takes the trajectory's
        # steps, under the trajectory's cap
        text = BASE + "dual.radius = 10.0\ndual.time = 0.25\n"
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 0
        manifest = json.loads((out / "dual_check.json").read_text())
        assert "max_change" not in manifest and manifest["trajectory_max_change"] == 0.02
        assert manifest["n_backward_steps"] == manifest["n_forward_steps"] > 0

    @pytest.mark.parametrize("gamma, rho, family", [(0.0, 0.5, "constant"), (0.5, 0.75, "product")])
    def test_adjoint_roundoff_on_the_acceptance_grid(self, tmp_path, gamma, rho, family):
        # R = 100, t = 0.5 on the acceptance grid at lambda = 1e-3: the
        # transpose of the forward's steps pairs to rounding, where a
        # dual stepped on its own read 7.4e-6 and 1.2e-5
        text = (f"params.gamma = {gamma}\nparams.rho = {rho}\nparams.delta = {min(0.2, (rho - gamma) / 2)}\n"
                f"kernel.family = {family}\ncutoff.lambda = 1e-3\ngrid.x_min = 1e-4\ngrid.x_max = 1e8\n"
                f"grid.ratio = {2.0 ** (1.0 / 16.0)!r}\ndual.radius = 100.0\ndual.time = 0.5\n")
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 0
        manifest = json.loads((out / "dual_check.json").read_text())
        assert manifest["adjoint_residual"] <= 1e-12

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

    def test_stderr_names_the_exact_radius_and_time(self, tmp_path, capsys):
        # R = 100.00001 and t = 0.30000001 printed as R=100 t=0.3 once; the
        # summary names them as the manifest records them
        text = BASE.replace("kernel.family = constant", "kernel.family = zero")
        text += "dual.radius = 100.00001\ndual.time = 0.30000001\n"
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 0
        manifest = json.loads((out / "dual_check.json").read_text())
        assert (manifest["radius"], manifest["time"]) == (100.00001, 0.30000001)
        assert capsys.readouterr().err.startswith("dual-check: R=100.00001 t=0.30000001 adjoint residual ")

    def test_missing_radius_exits_1(self, tmp_path):
        code, _ = run_cli(tmp_path, BASE, "dual-check")
        assert code == 1

    def test_radius_below_every_cell_exits_1(self, tmp_path, capsys):
        # on the acceptance grid no representative lies below R = 1e-6 at
        # t = 0.5, so the dual has no node; it passed once with residual 0
        # and M* = 0, on a field of R alone
        text = "".join(f"{line}\n" for line in BASE.splitlines() if not line.startswith("grid."))
        code, out = run_cli(tmp_path, text + "dual.radius = 1e-6\ndual.time = 0.5\n", "dual-check")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dual.radius = 1e-06 lies below every cell's representative")
        assert not (out / "dual_check.json").exists()

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            # no representative maps below R at t: the dual has no node
            ("dual.radius", "1e-6", "lies below every cell's representative"),
            # R's partner reach R e^(beta t) (2 - lam)/lam overflows in K*'s
            # tail cells: "kernel arguments must be finite", after the solve
            ("dual.radius", "1e305", "reach R e^(beta t) (2 - lam)/lam overflows"),
            # e^(beta t) = e^800 overflows: 5060 RuntimeWarnings in the
            # solves, then "cutoff argument must be finite and >= 0"
            ("dual.time", "400", "overflows the frame factor e^(beta t)"),
        ],
        ids=["radius-below-every-node", "radius-reach-overflows", "time-frame-overflows"],
    )
    def test_cut_no_dual_has_exits_1_before_solving(self, tmp_path, monkeypatch, capsys, key, value, reason):
        # each was refused only after the forward solve, two of them by a
        # message naming no setting
        solves = []
        monkeypatch.setattr(cli, "rescaled_trajectory", lambda *args, **kwargs: solves.append(args))
        text = (BENCH / "configs" / "dual-check-const.cfg").read_text()
        text = "".join(f"{ln}\n" for ln in text.splitlines() if not ln.startswith(key)) + f"{key} = {value}\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} = ") and reason in err and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert solves == [] and not (out / "dual_check.json").exists()

    @pytest.mark.parametrize("radius, time", [(1e304, 0.5), (10.0, 300.0)], ids=["radius-1e304", "time-300"])
    def test_cut_near_the_float_range_reaches_the_solve(self, tmp_path, monkeypatch, radius, time):
        # just inside the refusals of the test above, on a ratio-1.5 grid
        # over [1e-2, 1e3]: at t = 0.5 the tail cells of R = 1e304 end at
        # 1.25e308, and e^(beta t) = e^600 is a float; both runs exit 0, the
        # second in 4 s
        class Solve(Exception):
            pass

        def stub(*args, **kwargs):
            raise Solve

        monkeypatch.setattr(cli, "rescaled_trajectory", stub)
        text = (f"params.gamma = 0.0\nparams.rho = 0.5\nkernel.family = constant\ncutoff.lambda = 1e-3\n"
                f"grid.x_min = 1e-2\ngrid.x_max = 1e3\ngrid.ratio = 1.5\ndual.radius = {radius!r}\ndual.time = {time!r}\n")
        with pytest.raises(Solve):
            run_cli(tmp_path, text, "dual-check")

    @pytest.mark.parametrize(
        "family, gamma, rho",
        [("constant", 0.0, 0.1), ("product", 0.5, 0.6)],
        ids=["constant-0.1", "product-0.6"],
    )
    def test_adjoint_residual_on_the_acceptance_grid(self, tmp_path, family, gamma, rho):
        # R = 100, t = 0.5, lambda = 1e-3, delta = 0.05: a dual node at R
        # and a corner list splitting pairs toward it read 1.018e-3 and
        # 1.884e-3 here, over the 1e-3 gate; on the cells' own nodes, with
        # the dual stepped apart from the forward, 2.2e-5 and 2.3e-5, and
        # as the transpose of the forward's steps it is rounding
        text = (f"params.gamma = {gamma}\nparams.rho = {rho}\nparams.delta = 0.05\n"
                f"kernel.family = {family}\ncutoff.lambda = 1e-3\ndual.radius = 100.0\ndual.time = 0.5\n")
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 0
        assert strict_json(out / "dual_check.json")["adjoint_residual"] <= 5e-5

    def test_radius_above_the_top_cell_passes(self, tmp_path):
        # R = 1e9 lies above the acceptance grid's top representative; with
        # the top cell as a node the residual read 7.04e-3 (exit 2)
        text = ("params.gamma = 0.5\nparams.rho = 0.6\nparams.delta = 0.05\n"
                "kernel.family = product\ncutoff.lambda = 1e-3\ndual.radius = 1e9\ndual.time = 0.5\n")
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 0
        assert strict_json(out / "dual_check.json")["adjoint_residual"] <= 5e-5

    def test_index_whose_scale_overflows_exits_1_before_solving(self, tmp_path, monkeypatch, capsys):
        # (gamma, rho) = (0.5, 0.504) is a valid Params with a = 0.004, whose
        # stable law has no float scale: an OverflowError traceback from
        # find_m_star once, after the solves
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(forward._Engine, "__init__", no_solve)
        text = BASE
        for old, new in [("params.gamma = 0.0", "params.gamma = 0.5"), ("params.rho = 0.5", "params.rho = 0.504"),
                         ("kernel.family = constant", "kernel.family = product")]:
            text = text.replace(old, new)
        text += "params.delta = 0.002\ndual.radius = 100.0\n"
        code, _ = run_cli(tmp_path, text, "dual-check")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config error" in err and "index a = 0.004" in err

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
        text = BASE + "dual.radius = 10.0\ndual.time = 0.25\n"
        cfg = run_config(parse_config(text))
        assert cmd_dual_check(cfg, tmp_path) == 0
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
        text = BASE + "dual.radius = 10.0\ndual.time = 0.25\n"
        cfg = run_config(parse_config(text))
        assert cmd_dual_check(cfg, tmp_path) == 0
        assert len(engines) == 1
        engine, keys = engines[0]
        assert "T" not in vars(engine) and not hasattr(engine, "T")
        assert set(vars(engine)) == keys


class TestProfileWCommand:
    def test_half_matches_closed_form(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "PROFILE_W_GRID", (1.0, 100.0, 7))
        code, out = run_cli(tmp_path, BASE + "w.a = 0.5\n", "profile-w")
        assert code == 0
        kind, meta, cols, rows = read_table(out / "w_profile.csv")
        assert kind == "w-profile" and cols == ["y", "w", "w_prime", "t3e4_residual"]
        prof = StableProfile(a=0.5)
        for y, w, _, _ in rows:
            assert w == pytest.approx(w_eval(prof, y), abs=1e-12)

    def test_half_default_grid_passes(self, tmp_path):
        # the fixed 41-point grid on [1e-2, 1e4] reaches W = 3e-10 at
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

    def test_index_whose_scale_overflows_exits_1(self, tmp_path, capsys):
        # c^(1/a) leaves the float range below a = 0.0070: an OverflowError
        # traceback once
        code, _ = run_cli(tmp_path, BASE + "w.a = 0.006\n", "profile-w")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config error" in err and "index a = 0.006" in err

    def test_nothing_read_relatively_exits_2(self, tmp_path, capsys):
        # at a = 0.9999999 the law's scale is about 1e7, above the grid's
        # top of 1e4: W, W' and the residual are 0.0 at all 41 points,
        # which passed once with max residual 0
        code, out = run_cli(tmp_path, BASE + "w.a = 0.9999999\n", "profile-w")
        assert code == 2
        manifest = json.loads((out / "profile_w.json").read_text())
        assert manifest["n_relative"] == 0 and manifest["max_residual"] == 0.0
        assert "no residual was read relatively" in capsys.readouterr().err

    @pytest.mark.parametrize("a", ["0.9999999", "0.123456789"])
    def test_stderr_names_the_exact_index(self, tmp_path, monkeypatch, capsys, a):
        # the summary line printed a = 0.9999999 as a=1 once, an index the
        # command refuses; it names the index as the manifest records it
        monkeypatch.setattr(cli, "PROFILE_W_GRID", (1.0, 100.0, 3))
        _, out = run_cli(tmp_path, BASE + f"w.a = {a}\n", "profile-w")
        assert json.loads((out / "profile_w.json").read_text())["a"] == float(a)
        assert capsys.readouterr().err.startswith(f"profile-w: a={a}, 3 points, max residual ")

    def test_counts_the_points_read_relatively(self, tmp_path):
        # the residual reads relatively where W is above W_FLOOR, as the
        # table's w column shows
        code, out = run_cli(tmp_path, BASE + "w.a = 0.7\n", "profile-w")
        assert code == 0
        manifest = json.loads((out / "profile_w.json").read_text())
        _, _, _, rows = read_table(out / "w_profile.csv")
        assert manifest["n_relative"] == sum(w > W_FLOOR for _, w, _, _ in rows) == 27

    def test_loose_tolerance_controls_exit(self, tmp_path, monkeypatch):
        # at a gate beneath quadrature accuracy the command reports failure
        monkeypatch.setattr(cli, "PROFILE_W_TOL", 1e-16)
        monkeypatch.setattr(cli, "PROFILE_W_GRID", (1.0, 10.0, 3))
        code, out = run_cli(tmp_path, BASE + "w.a = 0.3\n", "profile-w")
        assert code == 2
        assert json.loads((out / "profile_w.json").read_text())["tolerance"] == 1e-16


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

    def test_junit_records_failures(self, tmp_path, monkeypatch):
        # a negative slack turns every envelope check into a failure
        monkeypatch.setattr(cli, "INVARIANCE_SLACK", -1.0)
        code, out = run_cli(tmp_path, BASE, "invariance-suite")
        assert code == 2
        summary = json.loads((out / "invariance.json").read_text())
        assert summary["slack"] == -1.0 and summary["n_failures"] > 0
        xml = (out / "invariance.xml").read_text()
        assert "<failure" in xml


class TestDeterminism:
    def test_identical_config_bit_identical_artifacts(self, tmp_path):
        text = BASE + "run.tol = 5e-3\n"
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
        # no command reads a tolerance: the checking commands pass at fixed
        # gates, so --tolerance is a usage error everywhere, before the
        # (missing) config is read
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(tmp_path / "nope.cfg"), "--tolerance", "1e-3"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["dual-check", "profile-w", "invariance-suite"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_tolerance_is_a_usage_error(self, tmp_path, capsys, command, value):
        # refused by the parser, before the (missing) config is read, so no
        # solve starts, no gate is moved and no non-standard JSON token is
        # written
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(tmp_path / "nope.cfg"), f"--tolerance={value}"])
        assert exc.value.code == 1
        assert f"unrecognized arguments: --tolerance={value}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_options_are_config_and_out(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert options == {"-h", "--help", "--config", "--out"}

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exits_1(self, tmp_path, monkeypatch, capsys, out):
        # --out naming a file, or a path under one, escaped main as a
        # FileExistsError or NotADirectoryError traceback once; it is
        # refused before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(forward._Engine, "__init__", no_solve)
        (tmp_path / "taken").write_text("")
        cfg = write_cfg(tmp_path, BASE)
        assert main(["stationary", "--config", cfg, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: cannot create output directory ")
        assert (tmp_path / "taken").read_text() == ""

    def test_out_defaults_to_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, BASE)
        assert main(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "out" / "simulate.json").is_file()

    def test_only_the_command_process_freezes_its_objects(self, tmp_path, monkeypatch):
        # main with argv from sys.argv (python -m coagsim.cli, the console
        # script) freezes what it holds before the command runs; a caller
        # passing argv keeps its collector untouched
        frozen = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
        cfg = write_cfg(tmp_path, BASE)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert frozen == []
        monkeypatch.setattr(sys, "argv", ["coagsim", "simulate", "--config", cfg, "--out", str(tmp_path / "b")])
        assert main() == 0
        assert frozen == [True]
        assert (tmp_path / "a" / "simulate.json").read_bytes() == (tmp_path / "b" / "simulate.json").read_bytes()


def strict_json(path):
    """A manifest parsed by a parser that refuses NaN and Infinity."""

    def refuse(token):
        raise ValueError(f"{path.name}: non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictJson:
    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        cli.write_json(tmp_path / "m.json", {"a": float("inf"), "b": [np.float64("nan"), 1.5], "c": -np.inf})
        assert strict_json(tmp_path / "m.json") == {"a": None, "b": [None, 1.5], "c": None}

    def test_escaped_non_finite_raises(self, tmp_path, monkeypatch):
        # a value that escapes the walk raises instead of writing a non-JSON token
        monkeypatch.setattr(cli, "_jsonable", lambda obj: obj)
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.write_json(tmp_path / "m.json", {"a": float("nan")})

    def test_stationary_tail_limit_location_is_null(self, tmp_path):
        # the upper envelope's worst ratio is its tail limit, R = inf
        for text, n in ((BASE, 1), (CONTINUATION_BASE + "stationary.lambdas = 5e-2, 1e-2\n", 2)):
            code, out = run_cli(tmp_path, text, "stationary")
            assert code == 0
            results = strict_json(out / "stationary.json")["results"]
            assert [r["envelope_upper"]["location"] for r in results] == [None] * n
            assert all(r["envelope_upper"]["worst_ratio"] == 1.0 for r in results)

    def test_k_star_location_is_null_without_partners_beyond_r(self, tmp_path):
        # the zero kernel gives no partner beyond R a rate, so K* = 0 and
        # no (X, tau) attains it
        text = BASE.replace("kernel.family = constant", "kernel.family = zero")
        text += "dual.radius = 1e12\ndual.time = 0.25\n"
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 0
        k_star = strict_json(out / "dual_check.json")["k_star"]
        assert k_star == {"K_star": 0.0, "R": 1e12, "X_at": None, "tau_at": None}

    def test_k_star_reads_r_past_the_engine_lattice(self, tmp_path):
        # R = 1e12 lies above the top cell's partner reach: R's partners
        # are the tail past the engine's lattice, and R attains K*
        text = BASE + "dual.radius = 1e12\ndual.time = 0.25\n"
        code, out = run_cli(tmp_path, text, "dual-check")
        assert code == 0
        k_star = strict_json(out / "dual_check.json")["k_star"]
        assert k_star["K_star"] > 0.5 and k_star["X_at"] == 1e12 and k_star["tau_at"] is not None
