"""Stationary profiles: flux identity, tail fits, long-time search."""

import numpy as np
import pytest
from scipy.special import erfcx

from coagsim.kernel import CutoffParams, constant_kernel, product_kernel, zero_kernel
from coagsim.measure import (
    GridMeasure,
    Params,
    cumulative_mass,
    geometric_grid,
    power_law_init,
)
from coagsim.stationary import (
    decay0_residual,
    density_at,
    find_stationary,
    gain_flux,
    lambda_continuation,
    tail_fit,
)

PARAMS = Params(gamma=0.0, rho=0.5, lam=1e-3, delta=0.2, R0=10.0)
RATIO = 2.0 ** (1.0 / 16.0)


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

    def test_quadrature_refinement(self):
        # the limit in n carries a fixed truncation part from the measure's
        # bottom edge, so refinement is asserted against a fine reference
        edges = geometric_grid(1e-6, 1e6, RATIO)
        m = power_measure(edges, 0.5)
        ker = constant_kernel(2.0)
        ref = gain_flux(m, ker, 1.0, n_per_decade=192)
        coarse = abs(gain_flux(m, ker, 1.0, n_per_decade=24) - ref)
        fine = abs(gain_flux(m, ker, 1.0, n_per_decade=96) - ref)
        assert fine < coarse

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
        edges = geometric_grid(1e-2, 1e6, RATIO)
        m = power_measure(edges, 0.5)
        with pytest.raises(ValueError):
            tail_fit(m, fit_window=(1e2, 1.04e2))


class TestFindStationary:
    def test_zero_kernel_reaches_exact_power(self):
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(PARAMS, zero_kernel(), edges=edges, tol=1e-6)
        assert res.converged
        target = 0.5 * np.diff(edges**0.5) / 0.5
        err = np.abs(res.profile.cell_mass - target) / target
        assert float(np.max(err)) <= 1e-3
        assert res.tail_exponent_fit == pytest.approx(0.5, abs=1e-6)
        assert res.residual_decay0[10.0] == pytest.approx(0.0, abs=1e-10)

    def test_stationary_datum_stops_after_one_chunk(self):
        edges = geometric_grid(1e-3, 1e6, RATIO)
        h0 = power_measure(edges, 0.5)
        res = find_stationary(PARAMS, zero_kernel(), edges=edges, h0=h0, chunk=0.5)
        assert res.converged
        assert res.t_elapsed == pytest.approx(0.5)
        assert len(res.convergence_history) == 1

    def test_nonconvergence_reports_instead_of_raising(self):
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(
            PARAMS, constant_kernel(2.0), edges=edges, tol=1e-12, t_max=1.0
        )
        assert not res.converged
        assert res.t_elapsed == pytest.approx(1.0)
        assert len(res.convergence_history) == 2

    def test_constant_kernel_window_readings(self):
        # reduced grid keeps this a unit test; the wide-grid run lives in
        # the acceptance suite
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(PARAMS, constant_kernel(2.0), edges=edges, tol=2e-4)
        assert res.converged
        assert abs(res.tail_exponent_fit - 0.5) <= 0.02
        assert abs(res.tail_amplitude_fit - 0.5) <= 0.05 * 0.5
        assert res.envelope_upper.ok and res.envelope_lower.ok
        for R in (10.0, 100.0, 1000.0):
            assert abs(res.residual_decay0[R]) <= 1e-2

    def test_cutoff_lam_must_match_params(self):
        with pytest.raises(ValueError, match="params.lam"):
            find_stationary(PARAMS, zero_kernel(), cutoff=CutoffParams(lam=1e-2))


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
