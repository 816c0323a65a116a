"""Forward evolution: loss/gain quadrature, mild stepping, frame restarts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coagsim.forward import (
    EvolutionState,
    GronwallReport,
    _Engine,
    _exp_update,
    _map_back,
    evolve,
    gain,
    gronwall_check,
    loss_rate,
    mild_step,
    rearrangement_residual,
    rescaled_trajectory,
    simulate,
)
from coagsim.kernel import (
    CutoffParams,
    constant_kernel,
    eval_cutoff,
    eval_kernel,
    eval_regularized,
    product_kernel,
    zero_kernel,
)
from coagsim.measure import (
    GridMeasure,
    Params,
    cumulative_mass,
    geometric_grid,
    power_law_init,
    xrho_dist,
    xrho_norm,
)

PARAMS = Params(gamma=0.0, rho=0.5, lam=1e-3, delta=0.2, R0=10.0)
CUT = CutoffParams(lam=1e-3)
RATIO = 2.0 ** (1.0 / 16.0)


def state_of(measure, kernel, t=0.0, params=PARAMS, cutoff=CUT):
    return EvolutionState(measure, t, params, kernel, cutoff)


def atom_measure(edges, loaded, rho=0.5, amp=0.0):
    mass = np.zeros(edges.size - 1)
    for idx, m in loaded.items():
        mass[idx] = m
    return GridMeasure(edges, mass, amp, rho)


class TestLossRate:
    def test_single_cell_constant(self):
        # one loaded cell, all cutoffs inactive at the probe: A = K m / Y - beta rho
        edges = geometric_grid(1.0, 2.0 ** (8.0 / 16.0), ratio=RATIO)
        m = atom_measure(edges, {3: 0.7})
        st_ = state_of(m, constant_kernel(2.0))
        Y3 = np.sqrt(edges[3] * edges[4])
        expected = 2.0 * 0.7 / Y3 - PARAMS.beta * PARAMS.rho
        assert loss_rate(st_, Y3) == pytest.approx(expected, rel=1e-12)

    def test_zero_kernel_is_pure_drift(self):
        edges = geometric_grid(1.0, 4.0, ratio=RATIO)
        m = atom_measure(edges, {0: 1.0})
        st_ = state_of(m, zero_kernel())
        for X in [0.5, 3.0, 1e4]:
            assert loss_rate(st_, X) == -PARAMS.beta * PARAMS.rho

    def test_dead_zone_below_cutoff(self):
        # probe size below lam/2 kills the kernel part entirely
        edges = geometric_grid(1.0, 4.0, ratio=RATIO)
        m = atom_measure(edges, {5: 2.0})
        st_ = state_of(m, constant_kernel(3.0))
        assert loss_rate(st_, 0.25 * CUT.lam) == -PARAMS.beta * PARAMS.rho

    def test_full_window_exact_sum(self):
        # support and probe inside the cutoff-free window: quadrature is an
        # exact weighted sum over representatives
        cut = CutoffParams(lam=0.01)
        edges = geometric_grid(1.0, 100.0, ratio=RATIO)
        rng = np.random.default_rng(7)
        mass = rng.uniform(0.0, 1.0, edges.size - 1)
        m = GridMeasure(edges, mass, 0.0, 0.5)
        st_ = state_of(m, constant_kernel(2.0), cutoff=cut)
        reps = m.reps
        expected = 2.0 * np.sum(mass / reps) - PARAMS.beta * PARAMS.rho
        assert loss_rate(st_, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_dyadic_upper_bound(self):
        # cutoffs only remove mass: kernel part <= value * integral of
        # z^-1 dmu over z > lam/2
        from coagsim.measure import dyadic_tail_integral

        m = power_law_init(PARAMS)
        st_ = state_of(m, constant_kernel(2.0))
        bound = 2.0 * dyadic_tail_integral(m, CUT.lam / 2.0, 1.0)
        for X in [1.0, 25.0, 1e3, 1e6]:
            kernel_part = loss_rate(st_, X) + PARAMS.beta * PARAMS.rho
            assert 0.0 <= kernel_part <= bound * (1.0 + 1e-12)

    def test_fine_grid_oracle(self):
        # midpoint quadrature vs dense sub-cell integration with every
        # cutoff active (large lambda)
        cut = CutoffParams(lam=0.2)
        params = Params(gamma=0.0, rho=0.5, lam=0.2)
        edges = geometric_grid(0.05, 50.0, ratio=RATIO)
        rng = np.random.default_rng(3)
        mass = rng.uniform(0.1, 1.0, edges.size - 1)
        m = GridMeasure(edges, mass, 0.0, 0.5)
        ker = constant_kernel(1.0)
        st_ = EvolutionState(m, 0.0, params, ker, cut)
        X = 1.0
        got = loss_rate(st_, X) + params.beta * params.rho
        # reference: integrate K_lam(X, z)/z against the intra-cell density
        total = 0.0
        for k in range(m.n_cells):
            el, er = edges[k], edges[k + 1]
            sub = np.geomspace(el, er, 401)
            zc = np.sqrt(sub[:-1] * sub[1:])
            frac = np.diff(sub**0.5) / (er**0.5 - el**0.5)
            total += np.sum(eval_regularized(ker, cut, X, zc) / zc * frac) * mass[k]
        assert got == pytest.approx(total, rel=1e-2)

    @pytest.mark.parametrize(
        "kernel, params",
        [
            (constant_kernel(1.0), Params(gamma=0.0, rho=0.5, lam=1e-2)),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75, lam=1e-2)),
        ],
    )
    def test_matches_engine_rates_at_representatives(self, kernel, params):
        # loss_rate evaluates one row of the pair operator that the engine
        # tabulates; t > 0 moves the small-size cutoff front into the grid
        cut = CutoffParams(lam=params.lam)
        m = power_law_init(params, geometric_grid(1e-3, 1e4, ratio=RATIO))
        t = 0.3
        st_ = EvolutionState(m, t, params, kernel, cut)
        A = _Engine(m.edges, params, kernel, cut).rates(m.cell_mass, m.tail_amplitude, t)[0]
        drift = params.beta * params.rho
        got = np.array([loss_rate(st_, Y) for Y in m.reps]) + drift
        assert np.count_nonzero(A + drift) > 0.5 * m.n_cells
        np.testing.assert_allclose(got, A + drift, rtol=1e-12, atol=0.0)

    def test_rejects_bad_probe(self):
        m = atom_measure(geometric_grid(1.0, 4.0, ratio=RATIO), {0: 1.0})
        st_ = state_of(m, constant_kernel(1.0))
        with pytest.raises(ValueError):
            loss_rate(st_, 0.0)


class TestGain:
    def setup_method(self):
        self.edges = geometric_grid(1.0, 2.0 ** (40.0 / 16.0), ratio=RATIO)
        self.m = atom_measure(self.edges, {2: 0.3, 20: 0.5})
        self.state = state_of(self.m, constant_kernel(2.0))
        self.reps = self.m.reps

    def test_two_atom_total(self):
        # ordered-pair rates: cross 2 m1 m2 (1/Y1 + 1/Y2), self 2 mi^2 / Yi
        Y1, Y2 = self.reps[2], self.reps[20]
        expected = (
            2.0 * 0.3 * 0.5 * (1.0 / Y1 + 1.0 / Y2)
            + 2.0 * 0.3**2 / Y1
            + 2.0 * 0.5**2 / Y2
        )
        g = gain(self.state)
        assert g.total_mass() == pytest.approx(expected, rel=1e-12)

    def test_two_atom_deposit_locations(self):
        # each pair sum lands split across the two bracketing cells
        Y1, Y2 = self.reps[2], self.reps[20]
        g = gain(self.state)
        for P, rate in [
            (2.0 * Y1, 2.0 * 0.3**2 / Y1),
            (Y1 + Y2, 2.0 * 0.3 * 0.5 * (1.0 / Y1 + 1.0 / Y2)),
            (2.0 * Y2, 2.0 * 0.5**2 / Y2),
        ]:
            k = np.searchsorted(self.reps, P, side="right") - 1
            got = g.cell_mass[k] + g.cell_mass[k + 1]
            assert got == pytest.approx(rate, rel=1e-12)

    def test_gain_nonnegative_random(self):
        rng = np.random.default_rng(11)
        mass = rng.uniform(0.0, 2.0, self.edges.size - 1)
        m = GridMeasure(self.edges, mass, 0.3, 0.5)
        g = gain(state_of(m, product_kernel(0.0)))
        assert np.all(g.cell_mass >= 0.0)

    def test_zero_kernel_gain_vanishes(self):
        g = gain(state_of(self.m, zero_kernel()))
        assert g.total_mass() == 0.0


class TestRearrangement:
    def setup_method(self):
        edges = geometric_grid(1.0, 2.0 ** (40.0 / 16.0), ratio=RATIO)
        self.m = atom_measure(edges, {2: 0.3, 20: 0.5})
        self.state = state_of(self.m, constant_kernel(2.0))
        self.reps = self.m.reps

    def test_constant_test_function(self):
        res, flux = rearrangement_residual(self.state, lambda x: np.ones_like(np.asarray(x, float)))
        assert res <= 1e-13
        assert flux == 0.0

    def test_first_moment(self):
        # the two-point split conserves each deposit's first moment
        res, _ = rearrangement_residual(self.state, lambda x: np.asarray(x, float))
        assert res <= 1e-13

    def test_indicator_coherent(self):
        # cut far from every deposit bracket: binned and exact pairings agree
        res, _ = rearrangement_residual(
            self.state, lambda x: (np.asarray(x, float) <= 100.0).astype(float)
        )
        assert res <= 1e-13

    def test_indicator_straddling_cut(self):
        # self-pair sums 2 Y_i land exactly on a representative of the
        # dyadic-ratio grid, so only the cross pair can straddle: a cut
        # between its lower bracket and the exact sum smears the deposit
        P = self.reps[2] + self.reps[20]
        k = np.searchsorted(self.reps, P, side="right") - 1
        cut_at = 0.5 * (self.reps[k] + P)
        assert self.reps[k] < cut_at < P
        res, _ = rearrangement_residual(
            self.state, lambda x: (np.asarray(x, float) <= cut_at).astype(float)
        )
        assert res > 1e-3

    def test_full_state_machine_level(self):
        m = power_law_init(PARAMS)
        st_ = state_of(m, constant_kernel(1.0))
        res, flux = rearrangement_residual(st_, lambda x: np.ones_like(np.asarray(x, float)))
        assert res <= 1e-12
        assert flux > 0.0  # ghost-pair deposits always exit the grid

    def test_zero_kernel(self):
        res, flux = rearrangement_residual(state_of(self.m, zero_kernel()), lambda x: x)
        assert res == 0.0 and flux == 0.0


class TestExpUpdate:
    def test_zero_rate_is_euler(self):
        m = np.array([1.0, 2.0])
        out = _exp_update(m, np.zeros(2), np.array([3.0, 0.5]), 0.25)
        np.testing.assert_allclose(out, m + 0.25 * np.array([3.0, 0.5]), rtol=1e-15)

    def test_series_branch_matches_exact(self):
        m = np.array([1.0])
        q = np.array([0.7])
        a_small = np.array([1e-9])
        a_big = np.array([1e-7])
        out_small = _exp_update(m, a_small, q, 1.0)
        out_big = _exp_update(m, a_big, q, 1.0)
        assert out_small[0] == pytest.approx(out_big[0], rel=1e-7)

    @given(
        m=st.floats(min_value=0.0, max_value=1e6),
        a=st.floats(min_value=-50.0, max_value=50.0),
        q=st.floats(min_value=0.0, max_value=1e6),
        dt=st.floats(min_value=1e-12, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_positivity(self, m, a, q, dt):
        out = _exp_update(np.array([m]), np.array([a]), np.array([q]), dt)
        assert out[0] >= 0.0 and np.isfinite(out[0])


class TestMildStep:
    def test_zero_kernel_exact_growth(self):
        m = power_law_init(PARAMS)
        st0 = state_of(m, zero_kernel())
        dt = 0.37
        st1 = mild_step(st0, dt)
        growth = np.exp(PARAMS.beta * PARAMS.rho * dt)
        np.testing.assert_allclose(st1.measure.cell_mass, m.cell_mass * growth, rtol=1e-14)
        assert st1.t == dt

    def test_positivity_large_step(self):
        edges = geometric_grid(1.0, 100.0, ratio=RATIO)
        rng = np.random.default_rng(5)
        m = GridMeasure(edges, rng.uniform(0.0, 5.0, edges.size - 1), 0.0, 0.5)
        st_ = state_of(m, constant_kernel(4.0))
        out = mild_step(st_, 50.0)
        assert np.all(out.measure.cell_mass >= 0.0)

    def test_euler_limit(self):
        # for dt -> 0 the step tends to m + dt (Q - A m)
        edges = geometric_grid(1.0, 50.0, ratio=RATIO)
        rng = np.random.default_rng(9)
        m = GridMeasure(edges, rng.uniform(0.1, 1.0, edges.size - 1), 0.0, 0.5)
        st_ = state_of(m, constant_kernel(1.0))
        dt = 1e-7
        stepped = mild_step(st_, dt).measure.cell_mass
        A = np.array([loss_rate(st_, Y) for Y in m.reps])
        Q = gain(st_).cell_mass
        euler = m.cell_mass + dt * (Q - A * m.cell_mass)
        np.testing.assert_allclose(stepped, euler, rtol=1e-6, atol=1e-18)

    def test_rejects_bad_dt(self):
        m = power_law_init(PARAMS)
        with pytest.raises(ValueError):
            mild_step(state_of(m, zero_kernel()), 0.0)


class TestMapBack:
    def test_zero_shift_identity(self):
        edges = geometric_grid(1.0, 100.0, ratio=RATIO)
        rng = np.random.default_rng(2)
        mass = rng.uniform(0.0, 1.0, edges.size - 1)
        out, amp, spill = _map_back(mass, 0.7, edges, 0.0, 0.5)
        np.testing.assert_allclose(out, mass, rtol=1e-15)
        assert amp == 0.7 and spill == 0.0

    def test_integer_shift_is_index_shift(self):
        edges = geometric_grid(1.0, 2.0 ** (64.0 / 16.0), ratio=RATIO)
        rng = np.random.default_rng(4)
        mass = rng.uniform(0.0, 1.0, edges.size - 1)
        km = 5
        sigma = km * np.log(RATIO)
        out, amp, spill = _map_back(mass, 0.0, edges, sigma, 0.5)
        scale = np.exp(-sigma)
        np.testing.assert_allclose(out[: mass.size - km], mass[km:] * scale, rtol=1e-14)
        np.testing.assert_allclose(out[mass.size - km :], 0.0, atol=0.0)
        assert spill == pytest.approx(scale * mass[:km].sum(), rel=1e-14)

    @pytest.mark.parametrize("sigma", [0.1, np.log(2.0), 0.83, 2.5])
    def test_pure_power_is_exactly_transported(self, sigma):
        # a pure power datum maps to the scaled pure power datum, including
        # the fractional two-cell split and the bottom spill
        rho = 0.6
        edges = geometric_grid(1e-2, 1e4, ratio=RATIO)
        amp0 = 0.4
        mass = amp0 * np.diff(edges ** (1.0 - rho)) / (1.0 - rho)
        out, amp, spill = _map_back(mass, amp0, edges, sigma, rho)
        expected_amp = amp0 * np.exp(-rho * sigma)
        assert amp == pytest.approx(expected_amp, rel=1e-13)
        expected_mass = expected_amp * np.diff(edges ** (1.0 - rho)) / (1.0 - rho)
        np.testing.assert_allclose(out, expected_mass, rtol=1e-11)
        lo = edges[0]
        expected_spill = (
            np.exp(-sigma)
            * amp0
            * ((lo * np.exp(sigma)) ** (1.0 - rho) - lo ** (1.0 - rho))
            / (1.0 - rho)
        )
        assert spill == pytest.approx(expected_spill, rel=1e-11)


class TestSimulate:
    def test_t_zero_identity(self):
        h0 = power_law_init(PARAMS)
        res = simulate(h0, PARAMS, constant_kernel(1.0), CUT, 0.0)
        np.testing.assert_allclose(res.final.cell_mass, h0.cell_mass, rtol=0.0)
        assert res.final.tail_amplitude == h0.tail_amplitude
        assert res.n_steps == 0

    def test_zero_kernel_closed_form(self):
        # transported datum: h(x, t) = e^(rho beta t) h0(x e^(beta t));
        # compare cumulatives above the defect onset and below the region
        # influenced by the top boundary
        h0 = power_law_init(PARAMS)
        res = simulate(h0, PARAMS, zero_kernel(), CUT, 1.0, snapshot_times=(0.5, 1.0))
        for t, snap in zip(res.times, res.snapshots):
            onset = PARAMS.R0 * np.exp(-PARAMS.beta * t)
            Rs = np.logspace(np.log10(2.0 * onset), 6.0, 50)
            lhs = np.array([cumulative_mass(snap, R) for R in Rs])
            rhs = np.exp(-PARAMS.beta * (1.0 - PARAMS.rho) * t) * np.array(
                [cumulative_mass(h0, R * np.exp(PARAMS.beta * t)) for R in Rs]
            )
            assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-3

    def test_zero_kernel_preserves_tail_amplitude(self):
        h0 = power_law_init(PARAMS)
        res = simulate(h0, PARAMS, zero_kernel(), CUT, 2.0)
        assert res.final.tail_amplitude == pytest.approx(1.0 - PARAMS.rho, rel=1e-12)

    def test_zero_kernel_reaches_fixed_point(self):
        # once the datum's defect has advected out, cells are exactly the
        # pure power values
        h0 = power_law_init(PARAMS)
        res = simulate(h0, PARAMS, zero_kernel(), CUT, 30.0)
        target = np.diff(res.final.edges ** (1.0 - PARAMS.rho))
        np.testing.assert_allclose(res.final.cell_mass, target, rtol=1e-12)

    def test_zero_data_stays_zero(self):
        edges = geometric_grid()
        z = GridMeasure(edges, np.zeros(edges.size - 1), 0.0, PARAMS.rho)
        res = simulate(z, PARAMS, constant_kernel(1.0), CUT, 0.3)
        assert res.final.total_mass() == 0.0
        assert res.origin_mass == 0.0 and res.overflow_mass == 0.0

    def test_origin_ledger_single_frame(self):
        # pure power datum, zero kernel, exactly one frame: the spill is
        # the grown bottom cells
        params = Params(gamma=0.0, rho=0.5, lam=1e-3, R0=1e-5)
        h0 = power_law_init(params)
        T = 16.0 * np.log(RATIO) / params.beta
        res = simulate(h0, params, zero_kernel(), CUT, T)
        sigma = params.beta * T
        grown = h0.cell_mass * np.exp(params.beta * params.rho * T)
        expected = np.exp(-sigma) * grown[:16].sum()
        assert res.origin_mass == pytest.approx(expected, rel=1e-12)

    def test_constant_kernel_diagnostics(self):
        h0 = power_law_init(PARAMS)
        res = simulate(h0, PARAMS, constant_kernel(1.0), CUT, 0.5)
        assert res.max_pairing_residual <= 1e-12
        assert np.all(res.final.cell_mass >= 0.0)
        assert res.overflow_mass > 0.0
        # overflow deposits sit beyond the top representative
        top_rep = res.final.reps[-1]
        assert res.overflow_moment >= res.overflow_mass * top_rep

    def test_product_kernel_runs_clean(self):
        params = Params(gamma=0.5, rho=0.75, lam=1e-3)
        cut = CutoffParams(lam=1e-3)
        h0 = power_law_init(params)
        res = simulate(h0, params, product_kernel(0.5), cut, 0.5)
        assert res.max_pairing_residual <= 1e-12
        assert np.all(res.final.cell_mass >= 0.0)

    def test_semigroup_property(self):
        h0 = power_law_init(PARAMS)
        ker = constant_kernel(1.0)
        one = simulate(h0, PARAMS, ker, CUT, 0.25, max_change=0.02)
        two = simulate(one.final, PARAMS, ker, CUT, 0.25, max_change=0.02)
        direct = simulate(h0, PARAMS, ker, CUT, 0.5, max_change=0.02)
        assert xrho_dist(two.final, direct.final) <= 0.05

    def test_evolve_returns_final(self):
        h0 = power_law_init(PARAMS)
        out = evolve(h0, PARAMS, zero_kernel(), CUT, 0.5)
        assert isinstance(out, GridMeasure)

    def test_rejects_mismatched_exponent(self):
        edges = geometric_grid()
        m = GridMeasure(edges, np.zeros(edges.size - 1), 0.0, 0.3)
        with pytest.raises(ValueError):
            simulate(m, PARAMS, zero_kernel(), CUT, 1.0)


class TestTrajectory:
    def test_records_every_step(self):
        h0 = power_law_init(PARAMS)
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.3)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.3, abs=1e-12)
        assert traj.masses.shape == (traj.times.size, h0.n_cells)
        assert traj.diagnostics["n_steps"] == traj.times.size - 1
        assert traj.diagnostics["max_pairing_residual"] <= 1e-12

    def test_interp_endpoints_and_bounds(self):
        h0 = power_law_init(PARAMS)
        traj = rescaled_trajectory(h0, PARAMS, zero_kernel(), CUT, 0.4)
        m0, a0 = traj.interp(0.0)
        np.testing.assert_allclose(m0, h0.cell_mass, rtol=0.0)
        assert a0 == h0.tail_amplitude
        with pytest.raises(ValueError):
            traj.interp(0.5)

    def test_zero_kernel_growth_between_snapshots(self):
        h0 = power_law_init(PARAMS)
        traj = rescaled_trajectory(h0, PARAMS, zero_kernel(), CUT, 0.4)
        k = traj.times.size // 2
        growth = np.exp(PARAMS.beta * PARAMS.rho * traj.times[k])
        np.testing.assert_allclose(traj.masses[k], h0.cell_mass * growth, rtol=1e-12)


class TestGronwall:
    def test_zero_kernel_touches_bound(self):
        # pure drift grows the norm at exactly the admissible rate
        h0 = power_law_init(PARAMS)
        traj = rescaled_trajectory(h0, PARAMS, zero_kernel(), CUT, 0.8)
        rep = gronwall_check(traj)
        assert rep.ok
        assert rep.worst_ratio == pytest.approx(1.0, abs=1e-10)

    def test_constant_kernel_holds(self):
        h0 = power_law_init(PARAMS)
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.5)
        rep = gronwall_check(traj, tol=1e-2)
        assert rep.ok
        assert rep.worst_ratio <= 1.0 + 1e-2

    def test_explicit_radii(self):
        h0 = power_law_init(PARAMS)
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.3)
        rep = gronwall_check(traj, R_values=[1.0, 100.0, 1e4])
        assert rep.ok
        assert rep.R_at in (1.0, 100.0, 1e4)

    def test_zero_data_trivial(self):
        edges = geometric_grid()
        z = GridMeasure(edges, np.zeros(edges.size - 1), 0.0, PARAMS.rho)
        traj = rescaled_trajectory(z, PARAMS, constant_kernel(1.0), CUT, 0.2)
        assert gronwall_check(traj).ok
