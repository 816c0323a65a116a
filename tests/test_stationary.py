"""Stationary profiles: flux identity, tail fits, the pseudo-transient search."""

import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfcx

from coagsim import forward, stationary
from coagsim.config import load_config, run_config
from coagsim.forward import _partners
from coagsim.kernel import (
    CutoffParams,
    _power_terms,
    constant_kernel,
    eval_regularized,
    product_kernel,
    sum_kernel,
    zero_kernel,
)
from coagsim.measure import (
    GridMeasure,
    Params,
    cumulative_mass,
    dyadic_tail_integral,
    geometric_grid,
    power_law_init,
    xrho_dist,
)
from coagsim.stationary import (
    _log_int_with_stub,
    decay0_residual,
    density_at,
    find_stationary,
    gain_flux,
    lambda_continuation,
    tail_fit,
)

PARAMS = Params(gamma=0.0, rho=0.5, delta=0.2, R0=10.0)
CUT = CutoffParams(lam=1e-3)
RATIO = 2.0 ** (1.0 / 16.0)
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def power_measure(edges, amp, rho=0.5):
    q = 1.0 - rho
    mass = amp * np.diff(edges**q) / q
    return GridMeasure(edges, mass, amp, rho)


def ml_profile(edges):
    """Exact stationary profile for K = 2, rho = 1/2, unit tail... mass.

    h(x) = x p(x / pi) / pi with p the density whose Laplace transform is
    1 / (1 + sqrt(s)); its tail amplitude is exactly 1 - rho = 1/2 and it
    satisfies the stationary flux identity without any regularization.
    Cell masses come from the closed-form antiderivative of xi p(xi),
    G(xi) = (1 - xi) erfcx(sqrt(xi)) + 2 sqrt(xi / pi).
    """
    xi = edges / np.pi
    G = (1.0 - xi) * erfcx(np.sqrt(xi)) + 2.0 * np.sqrt(xi / np.pi)
    return GridMeasure(edges, np.pi * np.diff(G), 0.5, 0.5)


@pytest.fixture(scope="module")
def ml():
    return ml_profile(geometric_grid(1e-4, 1e8, RATIO))


class TestDensityAt:
    def test_power_data_exact(self):
        edges = geometric_grid(1e-2, 1e4, RATIO)
        m = power_measure(edges, 0.37)
        x = np.array([0.03, 1.0, 55.0, 9.9e3])
        np.testing.assert_allclose(density_at(m, x), 0.37 * x**-0.5, rtol=1e-12)

    def test_tail_and_below_grid(self):
        edges = geometric_grid(1.0, 1e2, RATIO)
        m = power_measure(edges, 0.5)
        assert density_at(m, 1e4) == pytest.approx(0.5 * 1e-2, rel=1e-12)
        assert density_at(m, 0.5) == 0.0

    def test_scalar_returns_float(self):
        edges = geometric_grid(1.0, 1e2, RATIO)
        m = power_measure(edges, 0.5)
        assert isinstance(density_at(m, 3.0), float)


class TestGainFlux:
    # for rho = 1/2, K = 2 and h = (1 - rho) x^(-1/2) the flux integral
    # collapses to a Beta(1/2, 1/2) integral: I[h](R) = pi at every R
    def test_beta_identity(self):
        edges = geometric_grid(1e-6, 1e6, RATIO)
        m = power_measure(edges, 0.5)
        ker = constant_kernel(2.0)
        assert gain_flux(m, ker, 1.0) == pytest.approx(np.pi, rel=2e-3)
        assert gain_flux(m, ker, 10.0) == pytest.approx(np.pi, rel=1e-3)
        assert gain_flux(m, ker, 100.0) == pytest.approx(np.pi, rel=1e-3)

    def test_quadrature_refinement(self, monkeypatch):
        # the limit in n carries a fixed truncation part from the measure's
        # bottom edge, so refinement is asserted against a fine reference
        edges = geometric_grid(1e-6, 1e6, RATIO)
        m = power_measure(edges, 0.5)
        ker = constant_kernel(2.0)
        flux = {}
        for n in (192, 24, 96):
            monkeypatch.setattr(stationary, "N_PER_DECADE", n)
            flux[n] = gain_flux(m, ker, 1.0)
        assert abs(flux[96] - flux[192]) < abs(flux[24] - flux[192])

    def test_cutoff_reduces_flux(self):
        edges = geometric_grid(1e-6, 1e6, RATIO)
        m = power_measure(edges, 0.5)
        ker = constant_kernel(2.0)
        full = gain_flux(m, ker, 100.0)
        cut = gain_flux(m, ker, 100.0, cutoff=CutoffParams(lam=1e-2))
        assert 0.0 < cut < full

    def test_zero_kernel_and_empty(self):
        edges = geometric_grid(1e-2, 1e2, RATIO)
        m = power_measure(edges, 0.5)
        assert gain_flux(m, zero_kernel(), 1.0) == 0.0
        empty = GridMeasure(edges, np.zeros(edges.size - 1), 0.0, 0.5)
        assert gain_flux(empty, constant_kernel(2.0), 1.0) == 0.0

    def test_rejects_bad_radius(self):
        edges = geometric_grid(1e-2, 1e2, RATIO)
        m = power_measure(edges, 0.5)
        with pytest.raises(ValueError):
            gain_flux(m, constant_kernel(2.0), 0.0)


def pointwise_gain_flux(profile, kernel, R, cutoff, n_per_decade=64):
    """gain_flux with the inner sum evaluated one quadrature point at a time."""
    if cutoff is None:
        def inner(y, u):
            return sum(
                c * y**p * dyadic_tail_integral(profile, u, 1.0 - q)
                for c, p, q in _power_terms(kernel)
            )
    else:
        edges, reps, gpow = _partners(profile.edges, profile.tail_exponent, cutoff.lam)
        qpow = 1.0 - profile.tail_exponent
        base = np.concatenate([profile.cell_mass, profile.tail_amplitude * gpow])
        epow = edges**qpow

        def inner(y, u):
            cut_at = np.maximum(u, edges[:-1]) ** qpow
            frac = np.clip((epow[1:] - cut_at) / (epow[1:] - epow[:-1]), 0.0, 1.0)
            mb = base * frac
            k = eval_regularized(kernel, cutoff, y, reps)
            return float(np.sum(k / reps * mb))

    half = 0.5 * R
    lo = R * 1e-9
    n = max(8, int(np.ceil(np.log10(half / lo) * n_per_decade)) + 1)
    grid = np.geomspace(lo, half, n)
    g_u = density_at(profile, R - grid) * np.array([inner(R - u, u) for u in grid])
    g_y = density_at(profile, grid) * np.array([inner(y, R - y) for y in grid])
    return _log_int_with_stub(grid, g_u) + _log_int_with_stub(grid, g_y)


class TestGainFluxOracle:
    """gain_flux against the per-point evaluation of the inner sum."""

    @pytest.mark.parametrize(
        "kernel, params",
        [
            (constant_kernel(2.0), Params(gamma=0.0, rho=0.5)),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
            (sum_kernel(0.2, 0.5), Params(gamma=0.5, rho=0.75)),
        ],
        ids=["constant", "product", "sum"],
    )
    @pytest.mark.parametrize("lam", [None, 1e-3, 1e-2, 0.1], ids=["bare", "1e-3", "1e-2", "0.1"])
    @pytest.mark.parametrize("R", [10.0, 1e4])
    def test_matches_pointwise_loop(self, monkeypatch, kernel, params, lam, R):
        h = power_law_init(params, geometric_grid(1e-3, 1e5, RATIO))
        rng = np.random.default_rng(11)
        m = replace(h, cell_mass=h.cell_mass * rng.uniform(0.5, 1.5, h.n_cells))
        cutoff = None if lam is None else CutoffParams(lam=lam)
        # 16 points per decade: 141 per half, so the blocks include a partial one
        monkeypatch.setattr(stationary, "N_PER_DECADE", 16)
        got = gain_flux(m, kernel, R, cutoff=cutoff)
        assert got == pointwise_gain_flux(m, kernel, R, cutoff, n_per_decade=16)



class TestGainFluxRadius:
    """Radii the flux cannot evaluate are refused, naming R."""

    def setup_method(self):
        self.h = power_law_init(PARAMS, geometric_grid(1e-2, 1e4, RATIO))

    @pytest.mark.parametrize("lam", [None, 1e-2])
    def test_infinite_radius(self, lam):
        cutoff = None if lam is None else CutoffParams(lam=lam)
        with pytest.raises(ValueError, match="R = inf"):
            gain_flux(self.h, constant_kernel(), np.inf, cutoff=cutoff)
        with pytest.raises(ValueError, match="R = inf"):
            decay0_residual(self.h, PARAMS, constant_kernel(), np.inf, cutoff=cutoff)

    @pytest.mark.parametrize("where", ["top", "above"])
    def test_cutoff_radius_at_or_above_top_edge(self, where):
        # the partner cells end at the top cell's partner reach, so R = 1e9
        # read exactly 0.0 here where the bare kernel reads 1.57
        top = self.h.edges[-1]
        R = top if where == "top" else 1e9
        cutoff = CutoffParams(lam=1e-2)
        for call in (
            lambda: gain_flux(self.h, constant_kernel(), R, cutoff=cutoff),
            lambda: decay0_residual(self.h, PARAMS, constant_kernel(), R, cutoff=cutoff),
        ):
            with pytest.raises(ValueError, match=rf"top edge {top}, got R = {R}"):
                call()
        # the bare kernel's tail moments reach past the grid
        assert gain_flux(self.h, constant_kernel(), R) > 0.0

    def test_cutoff_radius_below_top_edge(self):
        R = 0.999 * self.h.edges[-1]
        assert gain_flux(self.h, constant_kernel(), R, cutoff=CutoffParams(lam=1e-2)) > 0.0


def oracle_inner_64(profile, kernel, cutoff):
    """_make_inner's cutoff branch as it was built: blocks of 64 points,
    each with a fresh 64 x partners terms array summed along its rows."""
    edges, reps, gpow = _partners(profile.edges, profile.tail_exponent, cutoff.lam)
    qpow = 1.0 - profile.tail_exponent
    base = np.concatenate([profile.cell_mass, profile.tail_amplitude * gpow])
    epow = edges**qpow
    lam = cutoff.lam

    def inner(ys, us):
        out = np.zeros(ys.size)
        for b in range(0, ys.size, 64):
            y, u = ys[b : b + 64, None], us[b : b + 64, None]
            if y.max() <= 0.5 * lam:
                continue
            z_lo = max(0.5 * lam, y.min() * lam / (2.0 - lam) * (1.0 - 1e-9))
            k0 = max(np.searchsorted(edges[1:], u.min(), side="right"), np.searchsorted(reps, z_lo, side="right"))
            k1 = np.searchsorted(reps, y.max() * (2.0 - lam) / lam * (1.0 + 1e-9), side="right")
            e, p = edges[k0 : k1 + 1], epow[k0 : k1 + 1]
            frac = np.clip((p[1:] - np.maximum(u, e[:-1]) ** qpow) / (p[1:] - p[:-1]), 0.0, 1.0)
            terms = np.zeros((y.size, reps.size))
            k = eval_regularized(kernel, cutoff, y, reps[k0:k1])
            terms[:, k0:k1] = k / reps[k0:k1] * (base[k0:k1] * frac)
            out[b : b + 64] = np.sum(terms, axis=1)
        return out

    return inner


INNER_GRIDS = {
    "acceptance": geometric_grid(1e-4, 1e8, RATIO),
    "small": geometric_grid(1.0, 10.0, RATIO),
    # off the geometric lattice by up to 1e-10 relative, which GridMeasure accepts
    "off-lattice": geometric_grid(1e-3, 1e3, RATIO)
    * (1.0 + 1e-10 * np.random.default_rng(5).uniform(-1.0, 1.0, 320)),
}


class TestInnerOracle:
    """The flux quadrature's inner sums against the 64-point-block build,
    bit for bit, at the points gain_flux evaluates."""

    @pytest.mark.parametrize(
        "kernel, params",
        [
            (constant_kernel(2.0), Params(gamma=0.0, rho=0.5)),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
            (sum_kernel(0.2, 0.5), Params(gamma=0.5, rho=0.75)),
        ],
        ids=["constant", "product", "sum"],
    )
    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("grid", list(INNER_GRIDS))
    def test_matches_64_point_blocks(self, kernel, params, lam, grid):
        edges = INNER_GRIDS[grid]
        h = power_law_init(params, edges)
        rng = np.random.default_rng(11)
        m = replace(h, cell_mass=h.cell_mass * rng.uniform(0.5, 1.5, h.n_cells))
        cutoff = CutoffParams(lam=lam)
        inner, want = stationary._make_inner(m, kernel, cutoff), oracle_inner_64(m, kernel, cutoff)
        for R in [R for R in (np.sqrt(edges[0] * edges[-1]), 10.0, 1e4) if edges[0] < R < edges[-1]]:
            half, lo = 0.5 * R, R * 1e-9
            grid_pts = np.geomspace(lo, half, max(8, int(np.ceil(np.log10(half / lo) * 64)) + 1))
            for ys, us in ((R - grid_pts, grid_pts), (grid_pts, R - grid_pts)):
                assert inner(ys, us).tobytes() == want(ys, us).tobytes()


class TestInnerPartialChunks:
    """The inner sums against the 64-point-block build, bit for bit, at
    point counts that end in a partial chunk of FLUX_ROWS rows, a partial
    block, or a block holding a single point."""

    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("n", [1, 15, 17, 63, 65, 129])
    def test_matches_64_point_blocks(self, lam, n):
        h = power_law_init(PARAMS, INNER_GRIDS["acceptance"])
        rng = np.random.default_rng(13)
        m = replace(h, cell_mass=h.cell_mass * rng.uniform(0.5, 1.5, h.n_cells))
        cutoff = CutoffParams(lam=lam)
        inner, want = stationary._make_inner(m, constant_kernel(2.0), cutoff), oracle_inner_64(m, constant_kernel(2.0), cutoff)
        for R in (10.0, 1e4):
            pts = np.geomspace(R * 1e-9, 0.5 * R, n)
            assert np.all(inner(R - pts, pts) > 0.0)
            for ys, us in ((R - pts, pts), (pts, R - pts)):
                assert inner(ys, us).tobytes() == want(ys, us).tobytes()


class TestDecay0Residual:
    def test_zero_kernel_power_is_exact(self):
        # pure transport: beta R h(R) = beta (1 - rho) F(R) for exact power
        # data once the sub-grid closure supplies the mass below the grid
        edges = geometric_grid(1e-4, 1e8, RATIO)
        m = power_measure(edges, 0.5)
        for R in (10.0, 1e3, 1e6):
            assert decay0_residual(m, PARAMS, zero_kernel(), R) == pytest.approx(0.0, abs=1e-12)

    def test_exact_stationary_profile(self, ml):
        # closed-form stationary state: the residual is pure quadrature
        ker = constant_kernel(2.0)
        assert abs(decay0_residual(ml, PARAMS, ker, 10.0, cutoff=None)) <= 1e-2
        assert abs(decay0_residual(ml, PARAMS, ker, 100.0, cutoff=None)) <= 3e-3
        assert abs(decay0_residual(ml, PARAMS, ker, 1000.0, cutoff=None)) <= 1e-3

    def test_empty_measure_returns_zero(self):
        edges = geometric_grid(1e-2, 1e2, RATIO)
        empty = GridMeasure(edges, np.zeros(edges.size - 1), 0.0, 0.5)
        assert decay0_residual(empty, PARAMS, constant_kernel(2.0), 1.0) == 0.0

    def test_rejects_params_of_another_rho(self):
        # the closure below the grid reads the profile's tail exponent and
        # the flux identity reads params.rho; they are one rho
        h = power_law_init(PARAMS, geometric_grid(1e-2, 1e4, RATIO))
        ker = constant_kernel(1.0)
        assert np.isfinite(decay0_residual(h, PARAMS, ker, 10.0, cutoff=CUT))
        with pytest.raises(ValueError, match="rho"):
            decay0_residual(h, replace(PARAMS, rho=0.6), ker, 10.0, cutoff=CUT)



class TestFluxWorkingMemory:
    def test_decay0_residual_peak(self):
        # one flux residual on the acceptance grid at lambda = 1e-3 peaks
        # under 1 MiB (2.2 MiB with fresh 64-point blocks)
        h = power_law_init(PARAMS, geometric_grid(1e-4, 1e8, RATIO))
        ker = constant_kernel()
        decay0_residual(h, PARAMS, ker, 10.0, cutoff=CUT)  # warm every import and cache
        tracemalloc.start()
        try:
            value = decay0_residual(h, PARAMS, ker, 10.0, cutoff=CUT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert peak <= 2**20

    @pytest.mark.parametrize("lam, bound", [(0.1, 0.5), (1e-2, 0.625)])
    def test_decay0_residual_peak_continuation_lambdas(self, lam, bound):
        # the continuation's lambdas, bound in MiB: a block's 64 points
        # summed at once peaked at 0.651 and 0.749 MiB, 16 at a time at 0.34
        # and 0.46 MiB
        h = power_law_init(PARAMS, geometric_grid(1e-4, 1e8, RATIO))
        ker, cutoff = constant_kernel(), CutoffParams(lam=lam)
        decay0_residual(h, PARAMS, ker, 10.0, cutoff=cutoff)  # warm every import and cache
        tracemalloc.start()
        try:
            value = decay0_residual(h, PARAMS, ker, 10.0, cutoff=cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert peak <= bound * 2**20


class TestTailFit:
    def test_exact_power(self):
        edges = geometric_grid(1e-2, 1e6, RATIO)
        m = power_measure(edges, 0.37)
        e, a = tail_fit(m)
        assert e == pytest.approx(0.5, abs=1e-12)
        assert a == pytest.approx(0.37, rel=1e-12)

    def test_noisy_power(self):
        edges = geometric_grid(1e-2, 1e6, RATIO)
        m = power_measure(edges, 0.5)
        rng = np.random.default_rng(7)
        noisy = m.cell_mass * (1.0 + 0.01 * rng.standard_normal(m.n_cells))
        e, a = tail_fit(GridMeasure(edges, noisy, 0.5, 0.5))
        assert e == pytest.approx(0.5, abs=0.01)
        assert a == pytest.approx(0.5, rel=0.01)

    def test_exact_stationary_profile_reads_nominal(self, ml):
        # the window estimate must recover rho and 1 - rho from the true
        # profile even though its local slope is still easing toward rho
        e, a = tail_fit(ml)
        assert abs(e - 0.5) <= 0.02
        assert abs(a - 0.5) <= 0.05 * 0.5

    def test_too_few_cells_raises(self):
        # the fit window [1e2, 1e4] holds the first n of its cells populated
        edges = geometric_grid(1e-2, 1e6, RATIO)
        m = power_measure(edges, 0.5)
        inside = np.flatnonzero((edges[:-1] >= 1e2) & (edges[1:] <= 1e4))
        for n in (0, 1, 2, 3):
            mass = m.cell_mass.copy()
            mass[inside[n:]] = 0.0
            if n < 3:
                with pytest.raises(ValueError, match="fewer than 3"):
                    tail_fit(replace(m, cell_mass=mass))
            else:
                assert tail_fit(replace(m, cell_mass=mass))[0] == pytest.approx(0.5, abs=1e-12)



def polyfit_exponent(profile):
    """tail_fit's exponent as np.polyfit reads it from the same window."""
    lo, hi = stationary.FIT_WINDOW
    el, er = profile.edges[:-1], profile.edges[1:]
    sel = (el >= lo) & (er <= hi) & (profile.cell_mass > 0.0)
    x = np.sqrt(el[sel] * er[sel])
    dens = profile.cell_mass[sel] / (er[sel] - el[sel])
    return -float(np.polyfit(np.log(x), np.log(dens), 1)[0])


@pytest.fixture(scope="module")
def bench_profiles():
    """The profiles of the two stationary bench configs: lambda = 1e-3,
    then the continuation's 0.1 and 0.01, on the acceptance grid."""
    cfg = run_config(load_config(BENCH_CONFIGS / "stationary-const.cfg"))
    edges = geometric_grid(*cfg.grid)
    return [
        find_stationary(cfg.params, cfg.kernel, CutoffParams(lam=lam), edges=edges, tol=cfg.tol).profile
        for lam in (1e-3, 0.1, 0.01)
    ]


class TestTailFitOracle:
    """The closed-form slope against np.polyfit's least squares."""

    def test_bench_profiles(self, bench_profiles):
        for h in bench_profiles:
            assert abs(tail_fit(h)[0] - polyfit_exponent(h)) <= 1e-14

    @pytest.mark.parametrize("seed", [7, 8, 9])
    @pytest.mark.parametrize("noise", [1e-2, 0.3])
    def test_noisy_power(self, seed, noise):
        edges = geometric_grid(1e-2, 1e6, RATIO)
        m = power_measure(edges, 0.5)
        rng = np.random.default_rng(seed)
        noisy = GridMeasure(edges, m.cell_mass * np.exp(noise * rng.standard_normal(m.n_cells)), 0.5, 0.5)
        assert abs(tail_fit(noisy)[0] - polyfit_exponent(noisy)) <= 1e-14


class TestFindStationary:
    def test_zero_kernel_reaches_exact_power(self):
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(PARAMS, zero_kernel(), CUT, edges=edges, tol=1e-6)
        assert res.converged
        target = 0.5 * np.diff(edges**0.5) / 0.5
        err = np.abs(res.profile.cell_mass - target) / target
        assert float(np.max(err)) <= 1e-3
        assert res.tail_exponent_fit == pytest.approx(0.5, abs=1e-6)
        assert res.residual_decay0[10.0] == pytest.approx(0.0, abs=1e-10)

    def test_nonconvergence_reports_instead_of_raising(self, monkeypatch):
        # one pseudo-transient step cannot reach this tol
        monkeypatch.setattr(stationary, "PTC_MAX_ITER", 1)
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(PARAMS, constant_kernel(2.0), CUT, edges=edges, tol=1e-12)
        assert not res.converged and res.ptc_iterations == 1
        assert np.all(res.profile.cell_mass > 0.0)
        assert len(res.convergence_history) == 2
        assert res.t_elapsed == res.convergence_history[-1][0] > 0.0
        assert set(res.verdicts) == {"tail_exponent", "tail_amplitude", "flux_residual", "envelopes"}

    def test_constant_kernel_window_readings(self):
        # reduced grid keeps this a unit test; the wide-grid run lives in
        # the acceptance suite
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(PARAMS, constant_kernel(2.0), CUT, edges=edges, tol=2e-4)
        assert res.converged
        assert abs(res.tail_exponent_fit - 0.5) <= 0.02
        assert abs(res.tail_amplitude_fit - 0.5) <= 0.05 * 0.5
        assert res.envelope_upper.ok and res.envelope_lower.ok
        for R in (10.0, 100.0, 1000.0):
            assert abs(res.residual_decay0[R]) <= 1e-2

    def test_flux_verdict_fails_without_a_radius(self):
        # a grid inside the fit window but around no probe radius: the
        # flux identity is checked nowhere, so its verdict cannot pass
        edges = geometric_grid(150.0, 900.0, RATIO)
        res = find_stationary(PARAMS, constant_kernel(), CutoffParams(lam=0.1), edges=edges)
        assert res.converged and res.residual_decay0 == {}
        assert res.verdicts["flux_residual"] is False

@pytest.fixture
def engine_builds(monkeypatch):
    """Count _Engine builds, wrapping __init__ as the traced benchmark
    does; the fixture returns the counter."""
    builds = []
    init = forward._Engine.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(forward._Engine, "__init__", counting)
    return lambda: len(builds)


class TestEngineReuse:
    def test_one_engine_per_search(self, monkeypatch, engine_builds):
        # a failed search builds no second engine either
        monkeypatch.setattr(stationary, "PTC_MAX_ITER", 1)
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(PARAMS, constant_kernel(2.0), CUT, edges=edges, tol=1e-12)
        assert (res.converged, res.ptc_iterations) == (False, 1)
        assert engine_builds() == 1

    def test_one_engine_per_lambda(self, engine_builds):
        edges = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))
        lambda_continuation(
            PARAMS, constant_kernel(2.0), [1e-1, 1e-2], edges=edges, tol=1e-12
        )
        assert engine_builds() == 2

    @pytest.mark.parametrize("continuation", [False, True], ids=["search", "continuation"])
    def test_grid_short_of_the_fit_window_builds_no_engine(self, engine_builds, continuation):
        # x_max = 90 tops the grid at 88.17, below the window's 100: the
        # search is refused before it builds an engine, and the
        # continuation before its first search
        edges = geometric_grid(1e-4, 90.0)
        match = r"fit window \[100, 10000\] covers fewer than 3 cells of grid \[0\.0001, 88\.17"
        with pytest.raises(ValueError, match=match):
            if continuation:
                lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 1e-2], edges=edges)
            else:
                find_stationary(PARAMS, constant_kernel(2.0), CUT, edges=edges)
        assert engine_builds() == 0

class TestLambdaContinuation:
    def test_distances_decrease_with_cutoff(self):
        edges = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))
        rep = lambda_continuation(
            PARAMS, constant_kernel(2.0), [1e-1, 1e-2, 1e-3], edges=edges, tol=2e-4
        )
        assert rep.lambdas == (1e-1, 1e-2, 1e-3)
        assert len(rep.results) == 3 and len(rep.distances) == 2
        assert all(r.converged for r in rep.results)
        assert rep.distances[0] > rep.distances[1] > 0.0

    def test_zero_kernel_profiles_identical(self):
        edges = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))
        rep = lambda_continuation(PARAMS, zero_kernel(), [1e-1, 1e-2], edges=edges)
        assert rep.distances[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("key", ["cutoff", "start"])
    def test_rejects_cutoff_before_any_search(self, monkeypatch, key):
        # the cutoff is built from lambdas and each start is the profile
        # before it; a cutoff= or start= meant for find_stationary is
        # refused here, naming it
        calls = []
        monkeypatch.setattr(stationary, "find_stationary", lambda *a, **k: calls.append(k))
        value, match = {
            "cutoff": (CutoffParams(0.1), r"lambda_continuation\(\).*cutoff"),
            "start": (power_law_init(PARAMS, geometric_grid()), r"lambda_continuation\(\).*start"),
        }[key]
        with pytest.raises(TypeError, match=match):
            lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1], **{key: value})
        assert calls == []

    def test_rejects_bad_lambda_before_any_search(self, monkeypatch):
        # the second scale is outside (0, 1/2): refused before the first
        # search builds an engine
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(forward._Engine, "__init__", no_engine)
        with pytest.raises(ValueError, match="lam must lie in"):
            lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 0.7], edges=geometric_grid(1e-2, 1e5))

    def test_search_error_reaches_caller(self, monkeypatch):
        # the second scale's search fails after the first one ran
        run, lams = stationary.find_stationary, []

        def failing(params, kernel, cutoff, **kwargs):
            lams.append(cutoff.lam)
            if cutoff.lam == 1e-2:
                raise forward.IntegrationError("step size collapsed at lambda=0.01")
            return run(params, kernel, cutoff, **kwargs)

        monkeypatch.setattr(stationary, "find_stationary", failing)
        edges = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))
        with pytest.raises(forward.IntegrationError, match=r"^step size collapsed at lambda=0\.01$"):
            lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 1e-2, 1e-3], edges=edges)
        assert lams == [1e-1, 1e-2]

    def test_never_forks(self, monkeypatch):
        # the scales run in this process, one after the other, whatever
        # the CPUs available
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        edges = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))
        rep = lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 1e-2], edges=edges)
        assert len(rep.results) == 2
        assert rep.results[1].rates_calls < find_stationary(
            PARAMS, constant_kernel(2.0), CutoffParams(lam=1e-2), edges=edges
        ).rates_calls


class TestContinuationProcesses:
    """lambda_continuation runs in this process: with one CPU, or with no
    CPU affinity to read, it neither forks nor leaves a child behind."""

    EDGES = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))

    @pytest.mark.parametrize("affinity", ["one_cpu", "absent"])
    def test_one_cpu_never_forks(self, monkeypatch, affinity):
        if affinity == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)

        def no_fork():
            raise AssertionError("forked with one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        rep = lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 1e-2], edges=self.EDGES)
        assert len(rep.results) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def assert_same_search(got, want):
    """Every field of two StationaryResults agrees bit for bit."""
    for name in vars(want):
        a, b = getattr(got, name), getattr(want, name)
        if name == "profile":
            assert np.array_equal(a.edges, b.edges)
            assert np.array_equal(a.cell_mass, b.cell_mass)
            assert (a.tail_amplitude, a.tail_exponent) == (b.tail_amplitude, b.tail_exponent)
        else:
            assert a == b, name


class TestContinuationOracle:
    """lambda_continuation against a serial loop of find_stationary, each
    search started from the profile before it."""

    LAMBDAS = [1e-1, 3e-2, 1e-2]

    @pytest.mark.parametrize("cpus", [None, 1, 2], ids=["affinity", "one_cpu", "two_cpus"])
    def test_matches_serial_loop(self, monkeypatch, cpus):
        # the CPUs available change nothing: the searches run in this process
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        edges = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))
        kw = {"edges": edges, "tol": 1e-12}
        rep = lambda_continuation(PARAMS, constant_kernel(2.0), self.LAMBDAS, **kw)
        want = []
        for lv in self.LAMBDAS:
            start = want[-1].profile if want else None
            want.append(find_stationary(PARAMS, constant_kernel(2.0), CutoffParams(lam=lv), start=start, **kw))
        assert rep.lambdas == tuple(self.LAMBDAS)
        assert len(rep.results) == len(want)
        for got, ref in zip(rep.results, want):
            assert_same_search(got, ref)
        assert rep.distances == [xrho_dist(a.profile, b.profile) for a, b in zip(want[:-1], want[1:])]

    def test_empty_lambda_list(self):
        rep = lambda_continuation(PARAMS, constant_kernel(2.0), [], geometric_grid())
        assert (rep.lambdas, rep.results, rep.distances) == ((), [], [])


def residual_on(edges, params, kernel, cutoff):
    return stationary._Residual(forward._Engine(edges, params, kernel, cutoff), edges)


def range_point(gamma, rho):
    """A point of the theorem's range (gamma, rho) with its kernel: the
    constant kernel at gamma = 0, the product kernel otherwise, and
    delta = min(0.2, (rho - gamma) / 2)."""
    params = Params(gamma=gamma, rho=rho, delta=min(0.2, (rho - gamma) / 2))
    return params, constant_kernel() if gamma == 0.0 else product_kernel(gamma)


class TestResidual:
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.97])
    @pytest.mark.parametrize("grid", [(1e-4, 1e8, RATIO), (1e-2, 1e3, 2.0**0.5)], ids=["acceptance", "coarse"])
    def test_zero_at_pure_power_law_with_zero_kernel(self, rho, grid):
        edges = geometric_grid(*grid)
        res = residual_on(edges, Params(gamma=0.0, rho=rho, delta=0.05), zero_kernel(), CUT)
        G, A, pairing = res(res.w.copy())
        assert np.all(G == 0.0)
        assert pairing == 0.0

    @pytest.mark.parametrize(
        "gamma, rho, lam", [(0.0, 0.5, 0.1), (0.5, 0.75, 0.05), (0.0, 0.9, 0.2)], ids=["constant", "product", "rho09"]
    )
    def test_two_call_product_matches_dense_difference(self, gamma, rho, lam):
        # 27 cells, fewer than the partner-ratio window: every cell has
        # ghost partners, and the top cells feed the engine's top rows
        edges = geometric_grid(1e-2, 1e2, 2.0**0.5)
        params, kernel = range_point(gamma, rho)
        res = residual_on(edges, params, kernel, CutoffParams(lam=lam))
        rng = np.random.default_rng(3)
        m = res.w * rng.uniform(0.2, 2.0, res.w.size)
        # the dense Jacobian, one column per cell, by central differences
        # of a step far smaller than the product's
        J = np.empty((m.size, m.size))
        for j in range(m.size):
            h = np.zeros(m.size)
            h[j] = 1e-4 * res.w[j]
            J[:, j] = (res(m + h)[0] - res(m - h)[0]) / (2.0 * h[j])
        for _ in range(3):
            z = rng.standard_normal(m.size)
            want = J @ (res.w * z) / res.w
            np.testing.assert_allclose(res.product(m, z), want, rtol=0.0, atol=1e-8 * np.max(np.abs(want)))


class TestGmres:
    @pytest.mark.parametrize("rtol_name", ["KRYLOV_RTOL", "KRYLOV_RTOL_MAX"])
    def test_solves_nonsymmetric_system(self, rtol_name):
        rng = np.random.default_rng(5)
        n = 150
        M = np.eye(n) * 4.0 + rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal(n)
        diag = np.diag(M).copy()
        rtol = getattr(stationary, rtol_name)
        x, iterations = stationary._gmres(lambda z: M @ z, lambda r: r / diag, b, rtol)
        assert np.linalg.norm(M @ x - b) <= rtol * np.linalg.norm(b)
        _, tight = stationary._gmres(lambda z: M @ z, lambda r: r / diag, b, stationary.KRYLOV_RTOL)
        assert 0 < iterations <= tight <= stationary.KRYLOV_MAX_ITER

    def test_stops_at_its_cap(self, monkeypatch):
        # two iterations cannot meet the tolerance: GMRES stops there and
        # returns the minimal-residual iterate of the two-dimensional
        # Krylov space span(b, M b)
        monkeypatch.setattr(stationary, "KRYLOV_MAX_ITER", 2)
        rng = np.random.default_rng(6)
        M = np.eye(80) * 3.0 + rng.standard_normal((80, 80)) / np.sqrt(80)
        b = rng.standard_normal(80)
        products = []

        def product(z):
            products.append(1)
            return M @ z

        x, iterations = stationary._gmres(product, lambda r: r, b, stationary.KRYLOV_RTOL)
        assert iterations == len(products) == 2
        K = np.column_stack([b, M @ b])
        want = K @ np.linalg.lstsq(M @ K, b, rcond=None)[0]
        np.testing.assert_allclose(x, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))
        assert np.linalg.norm(M @ x - b) > stationary.KRYLOV_RTOL * np.linalg.norm(b)

    def test_hardest_sweep_solve_stays_under_the_cap(self, monkeypatch):
        # the range sweep's largest GMRES solve, 40 iterations: (0.5, 0.99)
        # with the sum kernel at alpha = 0.15, lambda = 1e-4, on the coarse
        # acceptance grid.  GMRES no longer restarts, so the cap must stay
        # well above what the solves take.
        counts = []
        gmres = stationary._gmres

        def counting(product, precondition, b, rtol):
            x, iterations = gmres(product, precondition, b, rtol)
            counts.append(iterations)
            return x, iterations

        monkeypatch.setattr(stationary, "_gmres", counting)
        params = Params(gamma=0.5, rho=0.99, delta=0.2)
        edges = geometric_grid(1e-4, 1e8, 2.0 ** (1.0 / 8.0))
        res = find_stationary(params, sum_kernel(0.15, 0.5), CutoffParams(lam=1e-4), edges=edges)
        assert res.converged
        assert sum(counts) == res.krylov_iterations
        assert max(counts) < stationary.KRYLOV_MAX_ITER

    def test_zero_right_hand_side(self):
        x, iterations = stationary._gmres(lambda z: 2.0 * z, lambda r: r, np.zeros(7), stationary.KRYLOV_RTOL)
        assert np.all(x == 0.0) and iterations == 0

    def test_tridiagonal_solve_matches_dense(self):
        rng = np.random.default_rng(7)
        n = 40
        lower, upper = rng.uniform(0.1, 5.0, n - 1), -rng.uniform(0.1, 5.0, n - 1)
        diag = rng.uniform(0.01, 1.0, n)
        T = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        rhs = rng.standard_normal(n)
        got = stationary._tridiagonal_solve(stationary._tridiagonal_factor(lower, diag, upper), rhs)
        np.testing.assert_allclose(got, np.linalg.solve(T, rhs), rtol=1e-10, atol=1e-12)


@pytest.fixture
def rates_calls(monkeypatch):
    """Count _Engine.rates calls; the fixture returns the counter."""
    calls = []
    rates = forward._Engine.rates

    def counting(self, *args, **kwargs):
        calls.append(1)
        return rates(self, *args, **kwargs)

    monkeypatch.setattr(forward._Engine, "rates", counting)
    return lambda: len(calls)


class TestPseudoTransient:
    def test_counts_match_the_calls(self, monkeypatch, rates_calls):
        products = []
        product = stationary._Residual.product

        def counting(self, m, z):
            products.append(1)
            return product(self, m, z)

        monkeypatch.setattr(stationary._Residual, "product", counting)
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(PARAMS, constant_kernel(2.0), CUT, edges=edges)
        assert res.converged
        assert res.rates_calls == rates_calls() == 1 + res.ptc_iterations + 2 * len(products)
        assert 0 < res.ptc_iterations < len(products) and res.krylov_iterations <= len(products)
        assert len(res.convergence_history) <= res.ptc_iterations + 1
        assert res.convergence_history[-1][1] < 1e-4 <= res.convergence_history[-2][1]
        assert res.t_elapsed == res.convergence_history[-1][0] > 0.0

    def test_forcing_follows_the_residual_ratio(self, monkeypatch):
        # the acceptance grid at (0, 0.5), lambda = 1e-3: GMRES starts at
        # the forcing cap; after an accepted step it stops
        # at 0.9 (|G_new| / |G_old|)^2 in [KRYLOV_RTOL, KRYLOV_RTOL_MAX]
        # (Eisenstat-Walker's choice 2), and a rejected step leaves it
        rtols, norms = [], []
        gmres, scaled_norm = stationary._gmres, stationary._Residual.scaled_norm

        def recording_gmres(product, precondition, b, rtol):
            rtols.append(rtol)
            return gmres(product, precondition, b, rtol)

        def recording_norm(self, G):
            norms.append(scaled_norm(self, G))
            return norms[-1]

        monkeypatch.setattr(stationary, "_gmres", recording_gmres)
        monkeypatch.setattr(stationary._Residual, "scaled_norm", recording_norm)
        cfg = run_config(load_config(BENCH_CONFIGS / "stationary-const.cfg"))
        res = find_stationary(cfg.params, cfg.kernel, cfg.cutoff, edges=geometric_grid(*cfg.grid))
        assert res.converged
        # one norm at the start, then one per step tried, each after its solve
        assert len(rtols) == res.ptc_iterations == len(norms) - 1
        want, eta, norm = [], stationary.KRYLOV_RTOL_MAX, norms[0]
        for norm_t in norms[1:]:
            want.append(eta)
            if norm_t <= 2.0 * norm:
                ratio = 0.9 * (norm_t / norm) ** 2
                eta = min(stationary.KRYLOV_RTOL_MAX, max(stationary.KRYLOV_RTOL, ratio))
                norm = norm_t
        assert rtols == want
        assert rtols[0] == stationary.KRYLOV_RTOL_MAX
        assert res.rates_calls <= 80

    def test_failure_is_recorded(self, monkeypatch, rates_calls):
        # one step cannot reach this tol: the search reports the positive
        # iterate it reached, with the counts of the one step it tried
        monkeypatch.setattr(stationary, "PTC_MAX_ITER", 1)
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(PARAMS, constant_kernel(2.0), CUT, edges=edges, tol=1e-12)
        assert (res.converged, res.ptc_iterations) == (False, 1)
        assert res.krylov_iterations > 0
        assert np.all(res.profile.cell_mass > 0.0)
        assert res.rates_calls == rates_calls()
        # the profile is the iterate the history ends on
        residual = residual_on(edges, PARAMS, constant_kernel(2.0), CUT)
        G, _, pairing = residual(res.profile.cell_mass)
        assert res.convergence_history[-1][1] == residual.xrho_norm(G)
        assert res.max_pairing_residual == pairing

    def test_zero_with_a_nonpositive_cell_is_refused(self):
        # the start already meets the tolerance, with a negative cell: it
        # is returned unconverged, and the positive start converges
        edges = geometric_grid(1e-2, 1e3, 2.0**0.5)
        ptc = stationary._PseudoTransient(residual_on(edges, PARAMS, zero_kernel(), CUT))
        m = ptc.residual.w.copy()
        m[3] = -m[3]
        got, converged = ptc.solve(m, np.inf)
        assert got is m and converged is False
        w = ptc.residual.w.copy()
        got, converged = ptc.solve(w, np.inf)
        assert got is w and converged is True

    def test_zero_kernel_takes_no_step(self, rates_calls):
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(PARAMS, zero_kernel(), CUT, edges=edges, tol=1e-12)
        assert (res.converged, res.ptc_iterations, res.rates_calls, rates_calls()) == (True, 0, 1, 1)
        assert res.convergence_history == [(0.0, 0.0)]

    def test_zero_is_a_fixed_point_of_the_march(self):
        # the semi-discrete zero barely moves under half a unit of rescaled
        # time of the forward march, whose own discretization differs
        # (upwind map-back, exponential Heun steps)
        chunk = 0.5
        cfg = run_config(load_config(BENCH_CONFIGS / "stationary-const.cfg"))
        edges = geometric_grid(*cfg.grid)
        res = find_stationary(cfg.params, cfg.kernel, cfg.cutoff, edges=edges)
        assert res.converged
        moved = forward.simulate(res.profile, cfg.params, cfg.kernel, cfg.cutoff, chunk).final
        assert xrho_dist(moved, res.profile) < 1e-3

    def test_start_must_fit_the_grid(self):
        edges = geometric_grid(1e-2, 1e3, 2.0**0.5)
        with pytest.raises(ValueError, match="start"):
            find_stationary(PARAMS, zero_kernel(), CUT, edges=edges, start=power_measure(edges[:-1], 0.5))
        with pytest.raises(ValueError, match="start"):
            find_stationary(PARAMS, zero_kernel(), CUT, edges=edges, start=power_measure(edges, 0.4, rho=0.6))


class TestSolveWorkingMemory:
    def test_one_solve_peak(self):
        # one pseudo-transient solve on the acceptance grid at lambda =
        # 1e-3 holds no dense Jacobian: 638^2 doubles would be 3.3 MB,
        # and the solve peaks at 0.89 MB
        cfg = run_config(load_config(BENCH_CONFIGS / "stationary-const.cfg"))
        edges = geometric_grid(*cfg.grid)
        res = residual_on(edges, cfg.params, cfg.kernel, cfg.cutoff)
        stationary._PseudoTransient(res).solve(res.w.copy(), 1e-4)  # warm every import and cache
        ptc = stationary._PseudoTransient(res)
        tracemalloc.start()
        try:
            _, converged = ptc.solve(res.w.copy(), 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converged
        assert peak <= 1.5 * 2**20


class TestTheoremRange:
    """Edge points of the theorem's range on the acceptance grid."""

    @pytest.mark.parametrize(
        "gamma, rho, lam, max_steps",
        [(0.0, 0.9, 1e-3, 10), (0.0, 0.97, 1e-3, 10), (0.5, 0.95, 1e-3, 10), (0.0, 0.99, 1e-2, 70)],
        ids=["0.0-0.9", "0.0-0.97", "0.5-0.95", "0.0-0.99-lam1e-2"],
    )
    def test_edge_points_pass_every_verdict(self, gamma, rho, lam, max_steps):
        # near rho = 1 the solve is slow, not stuck: (0, 0.99) at lambda =
        # 1e-2 takes 64 steps
        params, kernel = range_point(gamma, rho)
        res = find_stationary(params, kernel, CutoffParams(lam=lam), edges=geometric_grid())
        assert res.converged
        assert all(res.verdicts.values()), res.verdicts
        assert res.ptc_iterations <= max_steps

    def test_small_rho_fails_the_exponent_gate(self):
        # at (0, 0.1) the semi-discrete zero itself reads exponent -0.006
        # on this grid: the failure must surface in the verdicts
        params, kernel = range_point(0.0, 0.1)
        res = find_stationary(params, kernel, CUT, edges=geometric_grid())
        assert res.converged
        assert res.verdicts["tail_exponent"] is False
        assert abs(res.tail_exponent_fit - 0.1) > stationary.EXPONENT_GATE
