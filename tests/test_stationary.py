"""Stationary profiles: flux identity, tail fits, long-time search."""

import os
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erfcx

from coagsim import forward, stationary
from coagsim.forward import _partners
from coagsim.kernel import (
    CutoffParams,
    _z_power_terms,
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


def pointwise_gain_flux(profile, kernel, R, cutoff, n_per_decade=64):
    """gain_flux with the inner sum evaluated one quadrature point at a time."""
    if cutoff is None:
        def inner(y, u):
            return sum(
                coef * dyadic_tail_integral(profile, u, 1.0 - q)
                for coef, q in _z_power_terms(kernel, y)
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
    def test_matches_pointwise_loop(self, kernel, params, lam, R):
        h = power_law_init(params, geometric_grid(1e-3, 1e5, RATIO))
        rng = np.random.default_rng(11)
        m = replace(h, cell_mass=h.cell_mass * rng.uniform(0.5, 1.5, h.n_cells))
        cutoff = None if lam is None else CutoffParams(lam=lam)
        # 16 points per decade: 141 per half, so the blocks include a partial one
        got = gain_flux(m, kernel, R, cutoff=cutoff, n_per_decade=16)
        assert got == pointwise_gain_flux(m, kernel, R, cutoff, n_per_decade=16)


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

    def test_stationary_datum_stops_after_one_chunk(self):
        edges = geometric_grid(1e-3, 1e6, RATIO)
        h0 = power_measure(edges, 0.5)
        res = find_stationary(PARAMS, zero_kernel(), CUT, edges=edges, h0=h0)
        assert res.converged
        assert res.t_elapsed == pytest.approx(0.5)
        assert len(res.convergence_history) == 1

    def test_nonconvergence_reports_instead_of_raising(self):
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(
            PARAMS, constant_kernel(2.0), CUT, edges=edges, tol=1e-12, t_max=1.0
        )
        assert not res.converged
        assert res.t_elapsed == pytest.approx(1.0)
        assert len(res.convergence_history) == 2

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

    @pytest.mark.parametrize(
        "dists, estimate",
        [((0.4,), None), ((0.4, 0.1), 0.25 / 0.75 * 0.2), ((0.1, 0.1), None), ((0.1, 0.3), None)],
        ids=["one_chunk", "contracting", "kappa_one", "growing"],
    )
    def test_distance_estimate_from_last_two_rates(self, monkeypatch, dists, estimate):
        # chunk distances are scripted; rates are distance / chunk
        seq = iter(dists)
        monkeypatch.setattr(stationary, "xrho_dist", lambda *args: next(seq))
        edges = geometric_grid(1e-2, 1e3, 2.0 ** 0.25)
        res = find_stationary(PARAMS, zero_kernel(), CUT, edges=edges, tol=1e-12, t_max=0.5 * len(dists))
        assert [r for _, r in res.convergence_history] == [2.0 * d for d in dists]
        if estimate is None:
            assert res.distance_estimate is None
        else:
            assert res.distance_estimate == pytest.approx(estimate, rel=1e-15)


@pytest.fixture
def engine_builds(monkeypatch, tmp_path):
    """Count _Engine builds, wrapping __init__ as the traced benchmark does.

    Each build appends a line to a file, so that the builds of forked
    cutoff searches count too; the fixture returns the counter.
    """
    log = tmp_path / "engine_builds"
    log.touch()
    init = forward._Engine.__init__

    def counting(self, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write("build\n")
        init(self, *args, **kwargs)

    monkeypatch.setattr(forward._Engine, "__init__", counting)
    return lambda: len(log.read_text().splitlines())


class TestEngineReuse:
    def test_one_engine_per_search(self, engine_builds):
        edges = geometric_grid(1e-3, 1e6, RATIO)
        res = find_stationary(
            PARAMS, constant_kernel(2.0), CUT, edges=edges, tol=1e-12, t_max=1.5
        )
        assert len(res.convergence_history) == 3
        assert engine_builds() == 1

    def test_one_engine_per_lambda(self, engine_builds):
        edges = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))
        lambda_continuation(
            PARAMS, constant_kernel(2.0), [1e-1, 1e-2], edges=edges, tol=1e-12, t_max=1.0
        )
        assert engine_builds() == 2

    def test_chunk_results_are_per_call(self, monkeypatch):
        calls = []
        run = stationary.simulate

        def recording(*args, **kwargs):
            res = run(*args, **kwargs)
            calls.append((res, kwargs["stepper"]))
            return res

        monkeypatch.setattr(stationary, "simulate", recording)
        edges = geometric_grid(1e-3, 1e6, RATIO)
        found = find_stationary(PARAMS, constant_kernel(2.0), CUT, edges=edges, tol=1e-12, t_max=1.5)
        assert len(calls) == 3
        stepper = calls[0][1]
        assert all(st is stepper for _, st in calls)
        results = [res for res, _ in calls]
        assert all(res.n_steps < stepper.n_steps for res in results)
        assert sum(res.n_steps for res in results) == stepper.n_steps
        assert sum(res.n_retries for res in results) == stepper.n_retries
        assert sum(res.overflow_mass for res in results) == pytest.approx(stepper.sink_mass, rel=1e-12)
        assert sum(res.overflow_moment for res in results) == pytest.approx(stepper.sink_moment, rel=1e-12)
        # the search reports its stepper's counts, summed over the chunks
        assert found.n_steps == sum(res.n_steps for res in results) > 0
        assert found.n_retries == sum(res.n_retries for res in results)
        assert found.max_pairing_residual == max(res.max_pairing_residual for res in results)


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


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


class TestContinuationProcesses:
    """lambda_continuation's forked searches: failures, reaping, CPU count."""

    EDGES = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))

    def test_child_error_reaches_caller(self, monkeypatch):
        two_cpus(monkeypatch)
        parent = os.getpid()

        def failing(params, kernel, cutoff, **kwargs):
            if os.getpid() != parent:
                raise forward.IntegrationError(f"step size collapsed at lambda={cutoff.lam:g}")
            return None

        monkeypatch.setattr(stationary, "find_stationary", failing)
        with pytest.raises(forward.IntegrationError, match=r"^step size collapsed at lambda=0\.01$"):
            lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 1e-2], edges=self.EDGES)
        assert_no_child_left()

    def test_child_that_dies_is_reported(self, monkeypatch):
        two_cpus(monkeypatch)
        parent = os.getpid()

        def dying(params, kernel, cutoff, **kwargs):
            if os.getpid() != parent:
                os._exit(1)

        monkeypatch.setattr(stationary, "find_stationary", dying)
        with pytest.raises(RuntimeError, match="ended without sending its results"):
            lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 1e-2], edges=self.EDGES)
        assert_no_child_left()

    def test_parent_error_kills_children(self, monkeypatch, tmp_path):
        two_cpus(monkeypatch)
        parent = os.getpid()
        started = tmp_path / "child.pid"

        def stalling(params, kernel, cutoff, **kwargs):
            if os.getpid() != parent:
                started.write_text(str(os.getpid()))
                time.sleep(60.0)
            while not started.exists() or not started.read_text():
                time.sleep(0.01)
            raise ValueError("parent search failed")

        monkeypatch.setattr(stationary, "find_stationary", stalling)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="parent search failed"):
            lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 1e-2], edges=self.EDGES)
        assert time.monotonic() - t0 < 30.0
        assert_no_child_left()
        with pytest.raises(ProcessLookupError):
            os.kill(int(started.read_text()), 0)

    @pytest.mark.parametrize("affinity", ["one_cpu", "absent"])
    def test_one_cpu_never_forks(self, monkeypatch, affinity):
        if affinity == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)

        def no_fork():
            raise AssertionError("forked with one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        rep = lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 1e-2], edges=self.EDGES, t_max=0.5)
        assert len(rep.results) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("cpus, n_lambdas, forks", [(2, 3, 1), (3, 2, 1), (3, 3, 2), (2, 1, 0)])
    def test_at_most_one_process_per_cpu(self, monkeypatch, cpus, n_lambdas, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        forked = []
        fork = os.fork

        def counting_fork():
            forked.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        h = power_measure(self.EDGES, 0.5)
        # each result names the process that made it
        monkeypatch.setattr(stationary, "find_stationary",
                            lambda params, kernel, cutoff, **kw: SimpleNamespace(profile=h, pid=os.getpid()))
        lams = [10.0**-k for k in range(1, n_lambdas + 1)]
        rep = lambda_continuation(PARAMS, constant_kernel(2.0), lams, edges=self.EDGES)
        assert len(forked) == forks
        pids = [r.pid for r in rep.results]
        # dealt round-robin, the calling process first
        assert len(set(pids)) == forks + 1 and pids[0] == os.getpid()
        assert pids == [pids[k % (forks + 1)] for k in range(n_lambdas)]
        assert_no_child_left()

    @pytest.mark.parametrize("fails_at, owners", [(1, [0, 0, 0]), (2, [0, 1, 0])])
    def test_failed_fork_runs_share_here(self, monkeypatch, fails_at, owners):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        fork, pipe = os.fork, os.pipe
        forks, fds = [], []

        def failing_fork():
            forks.append(1)
            if len(forks) == fails_at:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        def recording_pipe():
            fds.extend(pipe())
            return fds[-2:]

        monkeypatch.setattr(os, "fork", failing_fork)
        monkeypatch.setattr(os, "pipe", recording_pipe)
        h = power_measure(self.EDGES, 0.5)
        monkeypatch.setattr(stationary, "find_stationary",
                            lambda params, kernel, cutoff, **kw: SimpleNamespace(profile=h, pid=os.getpid(),
                                                                                 lam=cutoff.lam))
        rep = lambda_continuation(PARAMS, constant_kernel(2.0), [1e-1, 1e-2, 1e-3], edges=self.EDGES)
        assert len(forks) == fails_at
        assert [r.lam for r in rep.results] == [1e-1, 1e-2, 1e-3]
        pids = [r.pid for r in rep.results]
        assert [pids.index(p) for p in pids] == owners and pids[0] == os.getpid()
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert_no_child_left()


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
    """lambda_continuation against a serial loop of find_stationary."""

    LAMBDAS = [1e-1, 3e-2, 1e-2]

    @pytest.mark.parametrize("cpus", [None, 1, 2], ids=["affinity", "one_cpu", "two_cpus"])
    def test_matches_serial_loop(self, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        edges = geometric_grid(1e-2, 1e5, 2.0 ** (1.0 / 8.0))
        kw = {"edges": edges, "tol": 1e-12, "t_max": 1.0, "probe_radii": [10.0, 100.0]}
        rep = lambda_continuation(PARAMS, constant_kernel(2.0), self.LAMBDAS,
                                  cutoff=CutoffParams(lam=0.25, profile="quintic"), **kw)
        want = [
            find_stationary(PARAMS, constant_kernel(2.0), CutoffParams(lam=lv, profile="quintic"), **kw)
            for lv in self.LAMBDAS
        ]
        assert rep.lambdas == tuple(self.LAMBDAS)
        assert len(rep.results) == len(want)
        for got, ref in zip(rep.results, want):
            assert_same_search(got, ref)
        assert rep.distances == [xrho_dist(a.profile, b.profile) for a, b in zip(want[:-1], want[1:])]

    def test_empty_lambda_list(self):
        rep = lambda_continuation(PARAMS, constant_kernel(2.0), [])
        assert (rep.lambdas, rep.results, rep.distances) == ((), [], [])
