"""Grid measures: cumulative mass, weighted norms, envelopes, tail moments."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coagsim.measure import (
    MAX_CELLS,
    GridMeasure,
    Params,
    cumulative_mass,
    dyadic_tail_integral,
    envelope_check_lower,
    envelope_check_upper,
    from_csv,
    geometric_grid,
    power_law_init,
    read_tagged_csv,
    to_csv,
    xrho_dist,
    xrho_norm,
)

PARAMS = Params(gamma=0.0, rho=0.5, delta=0.2, R0=10.0)
# the acceptance grid, handed to the calls that run on it
EDGES = geometric_grid()


def small_grid(n=8, x0=0.5, ratio=2.0):
    return x0 * ratio ** np.arange(n + 1)


def measure_strategy(n=8):
    masses = st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=n, max_size=n
    )
    amps = st.floats(min_value=0.0, max_value=5.0)
    return st.tuples(masses, amps).map(
        lambda t: GridMeasure(small_grid(n), np.array(t[0]), t[1], 0.5)
    )


class TestConstruction:
    def test_geometric_grid_default(self):
        edges = geometric_grid()
        assert edges[0] == 1e-4
        assert edges.size - 1 == 638  # about 40 octaves at 16 cells each
        np.testing.assert_allclose(np.diff(np.log(edges)), np.log(2.0) / 16.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "grid",
        [(1e-4, np.inf, 2.0), (1e-4, 1e8, np.inf), (1e-4, np.nan, 2.0), (np.inf, np.inf, 2.0)],
        ids=["x_max_inf", "ratio_inf", "x_max_nan", "x_min_inf"],
    )
    def test_geometric_grid_refuses_non_finite(self, grid):
        # an infinite top edge overflowed the cell count, and an infinite
        # ratio gave one cell reaching to inf
        with pytest.raises(ValueError, match="finite"):
            geometric_grid(*grid)

    @pytest.mark.parametrize(
        "grid, match",
        [
            ((5e-324, 1e8, 2.0), "x_min = 5e-324 is not a normal float"),
            ((1e-4, 1.7e308, 2.0), "overflows a float"),
            ((1e-4, 1e8, 1.0000000000000002), "1.244e\\+17 cells, more than MAX_CELLS = 262144"),
            ((1e-4, 1e8, 2.0 ** (1.0 / 8000.0)), "3.189e\\+05 cells, more than MAX_CELLS"),
            # 1025 edges are built, and the top one, 2^1024, overflows
            ((1.0, 1.7e308, 2.0), "not finite"),
        ],
        ids=["subnormal", "span", "ratio_next_float", "cells", "top_edge"],
    )
    def test_geometric_grid_refuses_unbuildable_spans(self, grid, match):
        # these escaped as an OverflowError traceback from the cell count, or
        # asked numpy for an array of 1.2e17 floats
        with pytest.raises(ValueError, match=match):
            geometric_grid(*grid)

    def test_geometric_grid_at_max_cells(self):
        # a span near the widest a float holds (x_max / x_min < 2^1024)
        # fits at ratio 2^(1/256)
        assert MAX_CELLS == 2**18
        edges = geometric_grid(1e-154, 1e154, 2.0 ** (1.0 / 256.0))
        assert 2**18 - 256 < edges.size - 1 <= MAX_CELLS and edges[-1] < np.inf

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.5, rho=0.4),
            dict(gamma=0.0, rho=1.0),
            dict(gamma=0.0, rho=0.5, delta=0.6),
            dict(gamma=0.0, rho=0.5, R0=0.0),
            dict(gamma=-0.1, rho=0.5),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            Params(**{"delta": 0.2, "R0": 10.0, **kwargs})

    def test_derived_exponents(self):
        p = Params(gamma=0.5, rho=0.75)
        assert p.a == pytest.approx(0.25)
        assert p.beta == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "edges,mass",
        [
            ([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0]),  # not geometric
            ([2.0, 1.0], [1.0]),  # decreasing
            ([1.0, 2.0], [-1.0]),  # negative mass
            ([1.0, 2.0, 4.0], [1.0]),  # length mismatch
        ],
    )
    def test_invalid_measure(self, edges, mass):
        with pytest.raises(ValueError):
            GridMeasure(np.array(edges), np.array(mass), 0.0, 0.5)

    def test_masses_read_only(self):
        m = GridMeasure(small_grid(), np.ones(8), 0.0, 0.5)
        with pytest.raises(ValueError):
            m.cell_mass[0] = 2.0


class TestCumulative:
    def test_single_cell_edges(self):
        mass = np.zeros(8)
        mass[3] = 2.5
        m = GridMeasure(small_grid(), mass, 0.0, 0.5)
        xl, xr = m.edges[3], m.edges[4]
        assert cumulative_mass(m, xl) == 0.0
        assert cumulative_mass(m, xr) == pytest.approx(2.5, rel=1e-15)
        assert cumulative_mass(m, m.edges[-1]) == pytest.approx(2.5, rel=1e-15)

    def test_partial_cell_power_rule(self):
        mass = np.zeros(8)
        mass[3] = 2.5
        m = GridMeasure(small_grid(), mass, 0.0, 0.5)
        xl, xr = m.edges[3], m.edges[4]
        R = np.sqrt(xl * xr)
        expect = 2.5 * (R**0.5 - xl**0.5) / (xr**0.5 - xl**0.5)
        assert cumulative_mass(m, R) == pytest.approx(expect, rel=1e-14)

    def test_tail_contribution(self):
        m = GridMeasure(small_grid(), np.zeros(8), 1.5, 0.5)
        top = m.edges[-1]
        R = 4.0 * top
        expect = 1.5 * (R**0.5 - top**0.5) / 0.5
        assert cumulative_mass(m, R) == pytest.approx(expect, rel=1e-14)

    def test_vectorized_matches_scalar(self):
        m = power_law_init(PARAMS, small_grid(12, x0=1.0))
        Rs = np.geomspace(0.5, 1e4, 37)
        vec = cumulative_mass(m, Rs)
        np.testing.assert_allclose(vec, [cumulative_mass(m, R) for R in Rs], rtol=1e-14)

    def test_riemann_oracle(self):
        # Fine Riemann sum of the piecewise power-law density implied by
        # random cell masses agrees with the closed-form cell arithmetic.
        rng = np.random.default_rng(5)
        edges = small_grid(10, x0=1.0)
        m = GridMeasure(edges, rng.uniform(0.0, 2.0, 10), 0.0, 0.5)
        R = 37.0
        x = np.linspace(1.0, R, 400001)
        dens = np.zeros_like(x)
        for xl, xr, w in zip(edges[:-1], edges[1:], m.cell_mass):
            c = w * 0.5 / (xr**0.5 - xl**0.5)
            sel = (x >= xl) & (x < xr)
            dens[sel] = c * x[sel] ** -0.5
        oracle = np.trapezoid(dens, x)
        assert cumulative_mass(m, R) == pytest.approx(oracle, rel=1e-5)

    def test_monotone_in_R(self):
        m = power_law_init(PARAMS, small_grid(12, x0=1.0))
        Rs = np.geomspace(0.5, 1e5, 200)
        F = cumulative_mass(m, Rs)
        assert np.all(np.diff(F) >= -1e-15)


class TestNorm:
    def test_pure_power_law_norm(self):
        # Exact profile (1-rho) x^(-rho): F(R) = R^(1-rho), norm 1.
        edges = geometric_grid(1e-2, 1e4)
        F = edges**0.5
        m = GridMeasure(edges, np.diff(F), 0.5, 0.5)
        assert xrho_norm(m) == pytest.approx(1.0, rel=1e-12)

    def test_point_mass_norm(self):
        # One loaded cell: ratio peaks at the cell's right edge.
        mass = np.zeros(8)
        mass[2] = 3.0
        m = GridMeasure(small_grid(), mass, 0.0, 0.5)
        expect = 3.0 / m.edges[3] ** 0.5
        assert xrho_norm(m) == pytest.approx(expect, rel=1e-14)

    def test_dense_scan_oracle(self):
        # The exact edge/tail evaluation dominates a dense sampled scan
        # and the scan approaches it from below.
        rng = np.random.default_rng(7)
        m = GridMeasure(small_grid(), rng.uniform(0, 2, 8), 1.3, 0.5)
        exact = xrho_norm(m)
        Rs = np.geomspace(m.edges[0] * 1.0001, m.edges[-1] * 1e12, 200001)
        scan = np.max(cumulative_mass(m, Rs) / Rs**0.5)
        assert scan <= exact * (1.0 + 1e-12)
        assert scan == pytest.approx(exact, rel=1e-2)

    def test_tail_limit_dominates(self):
        m = GridMeasure(small_grid(), np.zeros(8), 2.0, 0.5)
        assert xrho_norm(m) == pytest.approx(2.0 / 0.5, rel=1e-15)

    @given(measure_strategy(), measure_strategy())
    def test_metric_symmetry(self, m1, m2):
        assert xrho_dist(m1, m2) == xrho_dist(m2, m1)

    @given(measure_strategy(), measure_strategy(), measure_strategy())
    def test_metric_triangle(self, m1, m2, m3):
        d13 = xrho_dist(m1, m3)
        d12 = xrho_dist(m1, m2)
        d23 = xrho_dist(m2, m3)
        assert d13 <= d12 + d23 + 1e-12 * (1.0 + d12 + d23)

    @given(measure_strategy())
    def test_metric_identity(self, m):
        assert xrho_dist(m, m) == 0.0
        assert xrho_dist(m, replace(m, cell_mass=m.cell_mass.copy())) == 0.0

    def test_metric_separates(self):
        m1 = GridMeasure(small_grid(), np.ones(8), 0.0, 0.5)
        bumped = m1.cell_mass.copy()
        bumped[4] += 1e-9
        m2 = replace(m1, cell_mass=bumped)
        assert xrho_dist(m1, m2) > 0.0

    def test_grid_mismatch_rejected(self):
        m1 = GridMeasure(small_grid(8), np.ones(8), 0.0, 0.5)
        m2 = GridMeasure(small_grid(8, x0=0.7), np.ones(8), 0.0, 0.5)
        with pytest.raises(ValueError):
            xrho_dist(m1, m2)


class TestEnvelopes:
    def test_power_law_init_passes_zero_slack(self):
        m = power_law_init(PARAMS, EDGES)
        up = envelope_check_upper(m, PARAMS, slack=0.0)
        lo = envelope_check_lower(m, PARAMS, slack=0.0)
        assert up.ok, f"upper worst {up.worst_ratio} at {up.location}"
        assert lo.ok, f"lower worst {lo.worst_ratio} at {lo.location}"

    def test_upper_violation_detected(self):
        m = power_law_init(PARAMS, EDGES)
        m2 = replace(m, cell_mass=1.5 * m.cell_mass)
        rep = envelope_check_upper(m2, PARAMS, slack=0.0)
        assert not rep.ok
        assert rep.worst_ratio > 1.0
        assert np.isfinite(rep.location)

    def test_tail_violation_detected(self):
        m = power_law_init(PARAMS, EDGES)
        m2 = replace(m, tail_amplitude=0.6)
        rep = envelope_check_upper(m2, PARAMS, slack=0.0)
        assert not rep.ok
        assert rep.location == np.inf

    def test_tail_limit_report_holds_python_floats(self):
        # a numpy tail amplitude (as simulate leaves it) must not leak into
        # the report, whose worst ratio the CLI prints with repr
        m = replace(power_law_init(PARAMS, EDGES), tail_amplitude=np.float64(0.6))
        rep = envelope_check_upper(m, PARAMS, slack=0.0)
        assert rep.location == np.inf
        assert type(rep.worst_ratio) is float and type(rep.ok) is bool

    def test_lower_violation_detected(self):
        m = power_law_init(PARAMS, EDGES)
        drained = m.cell_mass.copy()
        drained[300:] *= 0.9
        rep = envelope_check_lower(replace(m, cell_mass=drained), PARAMS, slack=0.0)
        assert not rep.ok
        assert rep.worst_ratio < 1.0

    def test_slack_tolerates_small_excess(self):
        m = power_law_init(PARAMS, EDGES)
        bumped = m.cell_mass * 1.005
        rep = envelope_check_upper(replace(m, cell_mass=bumped), PARAMS, slack=1e-2)
        assert rep.ok

    def test_no_constraint_below_onset(self):
        # All edges below R0: the lower envelope is vacuous.
        p = Params(gamma=0.0, rho=0.5, R0=1e5, delta=0.2)
        m = GridMeasure(small_grid(), np.zeros(8), 0.0, 0.5)
        assert envelope_check_lower(m, p).ok


class TestDyadicTail:
    def test_closed_form_power_law(self):
        # Pure power measure: int_x^inf z^(-alpha) (1-rho) z^(-rho) dz.
        edges = geometric_grid(1e-2, 1e6)
        m = GridMeasure(edges, np.diff(edges**0.5), 0.5, 0.5)
        for x, alpha in [(0.05, 0.8), (1.0, 0.7), (30.0, 1.5), (2e6, 0.9)]:
            expect = 0.5 * x ** (0.5 - alpha) / (alpha - 0.5)
            assert dyadic_tail_integral(m, x, alpha) == pytest.approx(expect, rel=1e-12)

    def test_log_case(self):
        # alpha + rho = 1 inside a cell still integrates (log form) while
        # the tail diverges, so the measure must have zero amplitude.
        edges = small_grid(4, x0=1.0)
        m = GridMeasure(edges, np.ones(4), 0.0, 0.5)
        with pytest.raises(ValueError):
            dyadic_tail_integral(m, 1.0, 0.5)

    def test_divergent_rejected(self):
        m = GridMeasure(small_grid(), np.ones(8), 1.0, 0.5)
        with pytest.raises(ValueError):
            dyadic_tail_integral(m, 1.0, 0.4)

    def test_riemann_oracle(self):
        rng = np.random.default_rng(3)
        edges = small_grid(8, x0=1.0)
        m = GridMeasure(edges, rng.uniform(0.0, 2.0, 8), 0.7, 0.5)
        x, alpha = 3.0, 1.1
        # integrate the cell densities and the tail numerically
        z = np.geomspace(x, 1e9, 2_000_001)
        dens = np.zeros_like(z)
        for xl, xr, w in zip(edges[:-1], edges[1:], m.cell_mass):
            c = w * 0.5 / (xr**0.5 - xl**0.5)
            sel = (z >= xl) & (z < xr)
            dens[sel] += c * z[sel] ** -0.5
        dens[z >= edges[-1]] += 0.7 * z[z >= edges[-1]] ** -0.5
        oracle = np.trapezoid(dens * z**-alpha, z)
        assert dyadic_tail_integral(m, x, alpha) == pytest.approx(oracle, rel=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(
        measure_strategy(),
        st.floats(min_value=0.56, max_value=2.0),
        st.floats(min_value=0.25, max_value=100.0),
    )
    def test_dyadic_decomposition_bound(self, m, alpha, x):
        # Splitting [x, inf) into dyadic blocks and bounding each block's
        # mass by the weighted norm gives
        #   int_x^inf z^(-alpha) dmu <= C0 x^(1-rho-alpha) 2^(1-rho) / (1 - 2^(1-rho-alpha)).
        rho = 0.5
        C0 = xrho_norm(m)
        val = dyadic_tail_integral(m, x, alpha)
        q = 1.0 - rho - alpha
        bound = C0 * x**q * 2.0 ** (1.0 - rho) / (1.0 - 2.0**q)
        assert val <= bound * (1.0 + 1e-9)


class TestPowerLawInit:
    def test_cumulative_frozen_value(self):
        # gamma 0, rho 0.5, delta 0.2, R0 10: F(20) = 20^0.5 (1 - 2^-0.2).
        # 20 falls inside a cell, so the intra-cell power interpolation is
        # accurate only to O((delta ln r)^2) there; edges are exact.
        m = power_law_init(PARAMS, EDGES)
        assert cumulative_mass(m, 20.0) == pytest.approx(0.5789130998156553, rel=2e-4)

    def test_vanishes_below_onset(self):
        # Every full cell below R0 is empty; only the cell straddling R0
        # carries (tiny) mass below the onset.
        m = power_law_init(PARAMS, EDGES)
        last_below = m.edges[np.searchsorted(m.edges, PARAMS.R0) - 1]
        assert cumulative_mass(m, last_below) == 0.0
        assert cumulative_mass(m, 0.1) == 0.0
        straddle = np.searchsorted(m.edges, PARAMS.R0) - 1
        assert cumulative_mass(m, PARAMS.R0) <= m.cell_mass[straddle]

    def test_edge_cumulative_exact(self):
        m = power_law_init(PARAMS, EDGES)
        for R in [12.0, 100.0, 1e4, 1e7]:
            i = np.searchsorted(m.edges, R)
            Redge = m.edges[i]
            expect = Redge**0.5 * (1.0 - (10.0 / Redge) ** 0.2)
            assert cumulative_mass(m, Redge) == pytest.approx(expect, rel=1e-12)

    def test_tail_amplitude_is_profile_level(self):
        m = power_law_init(PARAMS, EDGES)
        assert m.tail_amplitude == 0.5


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        edges = geometric_grid(1e-3, 1e3)
        m = GridMeasure(edges, rng.uniform(0, 1, edges.size - 1) * np.pi, np.e / 7, 0.5)
        path = tmp_path / "m.csv"
        to_csv(m, path)
        back = from_csv(path)
        assert np.array_equal(back.edges, m.edges)
        assert np.array_equal(back.cell_mass, m.cell_mass)
        assert back.tail_amplitude == m.tail_amplitude
        assert back.tail_exponent == m.tail_exponent

    def test_file_round_trip(self, tmp_path):
        m = power_law_init(PARAMS, geometric_grid(1e-2, 1e2))
        path = tmp_path / "profile.csv"
        to_csv(m, path)
        back = from_csv(path)
        assert np.array_equal(back.cell_mass, m.cell_mass)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            from_csv(path)

    # each malformed file below raised IndexError or KeyError once
    def test_no_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# coagsim-measure schema_version=1 tail_amplitude=0.5 tail_exponent=0.5\n"
                        "x_left,x_right,cell_mass\n")
        with pytest.raises(ValueError, match="rows"):
            from_csv(path)

    @pytest.mark.parametrize("key", ["tail_amplitude", "tail_exponent"])
    def test_missing_tail_key(self, key, tmp_path):
        path = tmp_path / "m.csv"
        to_csv(power_law_init(PARAMS, geometric_grid(1e-2, 1e2)), path)
        head, rest = path.read_text().split("\n", 1)
        head = " ".join(tok for tok in head.split() if not tok.startswith(key))
        path.write_text(head + "\n" + rest)
        with pytest.raises(ValueError, match=key):
            from_csv(path)

    def test_row_shorter_than_column_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# coagsim-measure schema_version=1 tail_amplitude=0.5 tail_exponent=0.5\n"
                        "x_left,x_right,cell_mass\n1.0,2.0\n")
        with pytest.raises(ValueError, match="3 values"):
            from_csv(path)

    def test_header_without_column_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# coagsim-measure schema_version=1\n")
        with pytest.raises(ValueError, match="not a coagsim measure CSV"):
            read_tagged_csv(path, "measure")

    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# coagsim-measure tail_amplitude=0.5\nx_left,x_right,cell_mass\n1.0,2.0,0.5\n")
        with pytest.raises(ValueError, match="schema_version"):
            read_tagged_csv(path, "measure")


def oracle_density_at(m, x):
    """Point density with c_k derived per call from the gathered cells."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xf = np.atleast_1d(x)
    rho = m.tail_exponent
    q = 1.0 - rho
    k = np.searchsorted(m.edges, xf, side="right") - 1
    out = np.zeros(xf.shape)
    inside = (k >= 0) & (k < m.n_cells)
    ki = k[inside]
    el, er = m.edges[ki], m.edges[ki + 1]
    out[inside] = m.cell_mass[ki] * q / (er**q - el**q) * xf[inside] ** (-rho)
    beyond = k >= m.n_cells
    out[beyond] = m.tail_amplitude * xf[beyond] ** (-rho)
    return float(out[0]) if scalar else out


def oracle_amplitudes(m):
    """c_k = m_k (1-rho) / (x_(k+1)^(1-rho) - x_k^(1-rho)), as each caller wrote it."""
    q = 1.0 - m.tail_exponent
    el, er = m.edges[:-1], m.edges[1:]
    return m.cell_mass * q / (er**q - el**q)


def oracle_to_csv_text(m):
    header = (
        f"# coagsim-measure schema_version=1"
        f" tail_amplitude={float(m.tail_amplitude)!r} tail_exponent={float(m.tail_exponent)!r}\n"
    )
    body = ["x_left,x_right,cell_mass\n"]
    for xl, xr, w in zip(m.edges[:-1], m.edges[1:], m.cell_mass):
        body.append(f"{float(xl)!r},{float(xr)!r},{float(w)!r}\n")
    return header + "".join(body)


def random_measure(seed):
    """A measure with some empty cells, an odd grid and a random exponent."""
    rng = np.random.default_rng(seed)
    edges = geometric_grid(10.0 ** rng.uniform(-5, 0), 10.0 ** rng.uniform(1, 8), 1.0 + rng.uniform(0.01, 1.0))
    n = edges.size - 1
    mass = rng.uniform(0.0, 3.0, n) * (rng.uniform(size=n) > 0.3)
    amp = float(rng.uniform(0.0, 2.0)) if seed % 3 else 0.0
    return GridMeasure(edges, mass, amp, float(rng.uniform(0.05, 0.95)))


def probe_points(m, seed):
    """Points below the grid, on every edge, inside cells and in the tail."""
    rng = np.random.default_rng(seed + 1000)
    e = m.edges
    inside = np.exp(rng.uniform(np.log(e[0]), np.log(e[-1]), 200))
    return np.concatenate([[0.0, -1.0, 0.5 * e[0]], e, inside, e[-1] * np.array([1.0, 1.5, 1e3])])


class TestCellAmplitudeOracle:
    """The power-law cell shape c_k x^(-rho) against the per-caller formula."""

    @pytest.mark.parametrize("seed", range(12))
    def test_amplitudes_match_oracle(self, seed):
        m = random_measure(seed)
        assert np.array_equal(m.amplitudes, oracle_amplitudes(m))
        assert np.all(m.amplitudes[m.cell_mass == 0.0] == 0.0)

    def test_density_at_is_one_function(self):
        import coagsim
        from coagsim import measure, stationary

        assert coagsim.density_at is measure.density_at is stationary.density_at

    @pytest.mark.parametrize("seed", range(12))
    def test_density_at_matches_oracle(self, seed):
        from coagsim import density_at

        m = random_measure(seed)
        x = probe_points(m, seed)
        got = density_at(m, x)
        assert np.array_equal(got, oracle_density_at(m, x))
        for xi in x[:: max(1, x.size // 40)]:
            val = density_at(m, float(xi))
            assert isinstance(val, float) and val == oracle_density_at(m, float(xi))


class TestCsvWriterOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_to_csv_bytes(self, seed, tmp_path):
        m = random_measure(seed)
        expected = oracle_to_csv_text(m)
        path = tmp_path / "m.csv"
        to_csv(m, path)
        assert path.read_bytes() == expected.encode()
