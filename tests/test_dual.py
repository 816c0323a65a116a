"""Backward dual field: adjoint pairing, barrier bound, far-jump constant."""

import tracemalloc
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from coagsim import dual
from coagsim.dual import (
    BARRIER_TOL,
    MAX_S_SAMPLES,
    DualField,
    SubsolutionReport,
    _Jumps,
    _m_bound,
    _pairing,
    _sample_blocks,
    _samples,
    adjoint_consistency,
    find_m_star,
    q_tail_bound,
    solve_dual,
    subsolution_bound,
)
from coagsim.forward import (
    IntegrationError,
    Trajectory,
    _Engine,
    _partners,
    _exp_update,
    _ratio_kernel,
    rescaled_trajectory,
)
from coagsim.kernel import (
    CutoffParams,
    constant_kernel,
    eval_cutoff,
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
)
from coagsim.stablecdf import StableProfile, WTable, _kanter_rule, w_table

RATIO = 2.0 ** (1.0 / 16.0)
PARAMS = Params(gamma=0.0, rho=0.5, delta=0.2, R0=10.0)
CUT = CutoffParams(lam=1e-3)
T_FINAL = 0.5


@pytest.fixture(scope="module")
def h0():
    return power_law_init(PARAMS, geometric_grid(1e-3, 1e6, RATIO))


@pytest.fixture(scope="module")
def traj_const(h0):
    return rescaled_trajectory(h0, PARAMS, constant_kernel(2.0), CUT, T_FINAL,
                               max_change=0.005)


@pytest.fixture(scope="module")
def traj_zero(h0):
    return rescaled_trajectory(h0, PARAMS, zero_kernel(), CUT, T_FINAL)


@pytest.fixture(scope="module")
def field_const(traj_const):
    return solve_dual(traj_const, 10.0, T_FINAL, max_change=0.005)


class TestSolveDual:
    def test_loss_evaluated_once_per_time(self, traj_const, monkeypatch):
        # D does not depend on Psi, so a step starting where the previous
        # corrector ended reuses that endpoint's loss half
        eng = traj_const.engine
        loss_times, rates_calls = [], []
        densities, rates = eng.densities, _Jumps.rates

        def counting_densities(masses, amp, s):
            loss_times.append(s)
            return densities(masses, amp, s)

        def counting_rates(self, tau, psi):
            rates_calls.append(tau)
            return rates(self, tau, psi)

        monkeypatch.setattr(eng, "densities", counting_densities)
        monkeypatch.setattr(_Jumps, "rates", counting_rates)
        fld = solve_dual(traj_const, 10.0, T_FINAL, max_change=0.005)
        n, rejected = fld.diagnostics["n_steps"], fld.diagnostics["n_retries"]
        assert rejected > 0
        assert len(rates_calls) == 2 * n + rejected
        # the datum, then one endpoint per trial, never twice in a row
        assert len(loss_times) == 1 + n + rejected
        assert all(a != b for a, b in zip(loss_times, loss_times[1:]))

    def test_datum_is_indicator(self, field_const):
        assert field_const.s_values[0] == 0.0
        assert field_const.s_values[-1] == pytest.approx(T_FINAL)
        np.testing.assert_array_equal(field_const.psi[-1], 1.0)

    def test_nodes_end_at_R(self, field_const):
        assert field_const.nodes[-1] == 10.0
        assert np.all(field_const.nodes <= 10.0)
        assert np.all(np.diff(field_const.nodes) > 0.0)

    def test_maximum_principle_exact(self, field_const):
        assert field_const.psi.min() >= 0.0
        assert field_const.psi.max() <= 1.0 + 1e-12

    def test_monotone_in_size(self, field_const):
        # survival probability decreases toward the cut
        assert field_const.diagnostics["max_monotonicity_violation"] <= 1e-12

    def test_zero_kernel_stays_indicator(self, traj_zero):
        fld = solve_dual(traj_zero, 10.0, T_FINAL)
        np.testing.assert_array_equal(fld.psi, 1.0)
        assert fld.diagnostics["n_steps"] == 1

    def test_radius_below_every_node(self, traj_const):
        # no grid node lies below R, so R is the only node; sizes below
        # lam / 2 do not coagulate, so Psi stays the indicator
        fld = solve_dual(traj_const, 1e-5, T_FINAL, max_change=0.005)
        np.testing.assert_array_equal(fld.nodes, [1e-5])
        np.testing.assert_array_equal(fld.psi, 1.0)
        assert q_tail_bound(traj_const, 1e-5).K_star == 0.0

    def test_rejects_bad_inputs(self, traj_const):
        with pytest.raises(ValueError):
            solve_dual(traj_const, -1.0, T_FINAL)
        with pytest.raises(ValueError):
            solve_dual(traj_const, 10.0, T_FINAL + 1.0)
        for mc in (0.0, -1.0, 1.0):
            with pytest.raises(ValueError, match="max_change"):
                solve_dual(traj_const, 10.0, T_FINAL, max_change=mc)

    def test_q_tail_rejects_bad_inputs(self, traj_const):
        # q_tail_bound checks R as solve_dual does, before any kernel is
        # evaluated
        for R in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="R must be finite and > 0"):
                q_tail_bound(traj_const, R)
            with pytest.raises(ValueError, match="R must be finite and > 0"):
                solve_dual(traj_const, R, T_FINAL)
        for t in (-0.1, T_FINAL + 1.0, np.nan):
            with pytest.raises(ValueError, match="trajectory does not cover"):
                solve_dual(traj_const, 10.0, t)

    def test_step_collapse_raises(self, traj_const):
        # a non-finite rate meets no step cap, however small the step:
        # the solver must fail loudly rather than accept the step
        masses = traj_const.masses.copy()
        masses[1, 100] = np.nan
        broken = replace(traj_const, masses=masses)
        with pytest.raises(IntegrationError, match="step size collapsed"):
            solve_dual(broken, 10.0, T_FINAL, max_change=0.005)


def oracle_solve_dual(trajectory, R, t, max_change=0.02):
    """solve_dual with its own copy of the exponential-Heun step loop."""
    jumps = _Jumps(trajectory, R, t)
    psi = np.ones(jumps.nodes.size)
    taus = [0.0]
    rows = [psi.copy()]
    n_retries = 0
    mono_viol = 0.0
    tau = 0.0
    dt = None
    while tau < t - 1e-14:
        D, G = jumps.rates(tau, psi)
        d_max = float(D.max())
        cap = 0.5 / d_max if d_max > 0.0 else np.inf
        h = min(cap if dt is None else min(dt, cap), t - tau)
        for _ in range(60):
            pred = _exp_update(psi, D, G, h)
            D2, G2 = jumps.rates(tau + h, pred)
            trial = _exp_update(psi, 0.5 * (D + D2), 0.5 * (G + G2), h)
            change = float(np.max(np.abs(trial - psi)))
            if change <= max_change and tau + h > tau:
                break
            h *= 0.5
            n_retries += 1
        else:
            raise IntegrationError(f"dual step size collapsed at tau={tau:.6g} (change={change:.3g})")
        dt = h * min(1.2, 0.9 * max_change / max(change, 1e-300))
        psi = trial
        tau += h
        taus.append(tau)
        rows.append(psi.copy())
        mono_viol = max(mono_viol, float(np.max(np.diff(psi), initial=0.0)))
    taus = np.array(taus)
    psi_all = np.array(rows)
    order = np.argsort(t - taus, kind="stable")
    return DualField(
        nodes=jumps.nodes,
        s_values=(t - taus)[order],
        psi=psi_all[order],
        R=float(R),
        t_final=float(t),
        params=trajectory.params,
        diagnostics={
            "n_steps": taus.size - 1,
            "n_retries": n_retries,
            "max_monotonicity_violation": mono_viol,
        },
    )


def assert_same_field(got, want):
    np.testing.assert_array_equal(got.nodes, want.nodes)
    np.testing.assert_array_equal(got.s_values, want.s_values)
    np.testing.assert_array_equal(got.psi, want.psi)
    assert (got.R, got.t_final) == (want.R, want.t_final)
    assert got.diagnostics == want.diagnostics


class TestSolveDualOracle:
    """solve_dual against its own step loop, bit for bit."""

    @pytest.fixture(scope="class", params=["constant", "product", "sum"])
    def traj(self, request, h0):
        if request.param == "constant":
            return rescaled_trajectory(h0, PARAMS, constant_kernel(2.0), CUT, T_FINAL)
        params = Params(gamma=0.5, rho=0.75, delta=0.2, R0=10.0)
        kernel = product_kernel(0.5) if request.param == "product" else sum_kernel(0.2, 0.5)
        return rescaled_trajectory(power_law_init(params, h0.edges), params, kernel, CUT, T_FINAL)

    @pytest.mark.parametrize("max_change", [0.02, 0.0025])
    @pytest.mark.parametrize("R", [10.0, 100.0])
    def test_matches_own_loop(self, traj, R, max_change):
        want = oracle_solve_dual(traj, R, T_FINAL, max_change=max_change)
        assert_same_field(solve_dual(traj, R, T_FINAL, max_change=max_change), want)
        assert want.diagnostics["n_retries"] > 0  # the halving path runs

    @pytest.mark.parametrize("case", ["zero_kernel", "t0", "zero_kernel_t0"])
    def test_matches_trivial_cases(self, traj_zero, traj_const, case):
        traj = traj_const if case == "t0" else traj_zero
        t = 0.0 if case.endswith("t0") else T_FINAL
        want = oracle_solve_dual(traj, 10.0, t)
        assert_same_field(solve_dual(traj, 10.0, t), want)
        assert want.diagnostics["n_steps"] == (1 if t > 0.0 else 0)


class TestAdjointConsistency:
    def test_zero_kernel_exact(self, traj_zero):
        # both sides reduce to the same closed-form cumulative
        assert adjoint_consistency(traj_zero, solve_dual(traj_zero, 10.0, T_FINAL)) <= 1e-12

    def test_zero_kernel_exact_at_seam_times(self, h0):
        # (R e^(beta t)) / e^(beta t) may round just above R; the pairing
        # must clamp that excess instead of dropping the last piece
        # (t = 0.25 rounds high with beta = 2, R = 10)
        for t in (0.25, 0.37):
            traj = rescaled_trajectory(h0, PARAMS, zero_kernel(), CUT, t)
            assert adjoint_consistency(traj, solve_dual(traj, 10.0, t)) <= 1e-12

    def test_time_zero_identity(self, traj_const):
        # a dual cut at t = 0 pairs with the trajectory's state at 0
        fld = solve_dual(traj_const, 10.0, 0.0)
        assert adjoint_consistency(traj_const, fld) <= 1e-12

    def test_constant_kernel_small(self, traj_const, field_const):
        res = adjoint_consistency(traj_const, field_const)
        assert res <= 2e-3

    def test_second_order_in_step_cap(self, traj_const):
        # on one trajectory, quartering the dual's change cap cuts the error
        # of Psi(., 0) against a finely stepped solve by about 14 (16 for a
        # second-order step; a first-order step gives about 4)
        ref = solve_dual(traj_const, 10.0, T_FINAL, max_change=0.0003125).psi[0]
        err = {mc: np.max(np.abs(solve_dual(traj_const, 10.0, T_FINAL, max_change=mc).psi[0] - ref))
               for mc in (0.02, 0.005)}
        assert err[0.02] / err[0.005] >= 10.0

    @pytest.mark.parametrize("R", [10.0, 100.0])
    def test_small_at_fourfold_dual_cap(self, traj_const, R):
        # the acceptance gate 1e-3 holds with a dual cap four times the
        # acceptance run's 0.0025
        fld = solve_dual(traj_const, R, T_FINAL, max_change=0.01)
        assert adjoint_consistency(traj_const, fld) <= 1e-3


class TestSubsolution:
    def test_m_star_finite_and_small(self, field_const):
        m_star, rep = find_m_star(field_const)
        assert rep.ok
        assert m_star <= 1e4
        # monotone in M: double passes, quarter fails
        assert subsolution_bound(field_const, 2.0 * m_star).ok
        assert not subsolution_bound(field_const, m_star / 4.0).ok

    def test_zero_kernel_trivial(self, traj_zero):
        # Psi equals 1 below R, which dominates any barrier
        fld = solve_dual(traj_zero, 10.0, T_FINAL)
        rep = subsolution_bound(fld, 1e-2)
        assert rep.ok
        assert rep.worst_margin >= 0.0

    def test_rejects_nonpositive_m(self, field_const):
        for M in (-1.0, np.nan):
            with pytest.raises(ValueError):
                subsolution_bound(field_const, M)

    def test_zero_m_compares_with_the_indicator(self, field_const):
        rep = subsolution_bound(field_const, 0.0)
        margin = field_const.psi - np.where(field_const.nodes < field_const.R, 1.0, 0.0)
        assert field_const.s_values.size < 128  # every stored time is sampled
        assert rep.worst_margin == margin.min() < -BARRIER_TOL and not rep.ok
        assert rep.M == 0.0

    def test_m_star_zero_where_no_sample_binds(self, traj_zero, traj_const):
        # Psi = 1 below R for a zero kernel, and t = 0 stores the datum
        # alone: the barrier holds at every M >= 0, so M* is 0
        for fld in (solve_dual(traj_zero, 10.0, T_FINAL), solve_dual(traj_const, 10.0, 0.0)):
            m_star, rep = find_m_star(fld)
            assert m_star == 0.0
            assert rep.ok and rep.M == 0.0 and rep.worst_margin == 0.0


def oracle_subsolution_bound(dual_field, M):
    """The barrier check one sampled time at a time, at the stable index
    a = rho - gamma of the field's params."""
    R, t = dual_field.R, dual_field.t_final
    a = dual_field.params.rho - dual_field.params.gamma
    tab = w_table(StableProfile(a=a))
    inv_a = 1.0 / a
    n = dual_field.s_values.size
    stride = max(1, n // 64)
    idx = sorted(set(range(0, n, stride)) | {n - 1})
    worst, X_at, s_at = np.inf, np.nan, np.nan
    X = dual_field.nodes
    for j in idx:
        sj = float(dual_field.s_values[j])
        tau = t - sj
        if tau <= 0.0:
            barrier = np.where(X < R, 1.0, 0.0)
        else:
            Yarg = (R - X) / (M * tau) ** inv_a
            barrier = np.where(X >= R, 0.0, tab(np.maximum(Yarg, 0.0)))
        margin = dual_field.psi[j] - barrier
        k = int(np.argmin(margin))
        if margin[k] < worst:
            worst, X_at, s_at = float(margin[k]), float(X[k]), sj
    return SubsolutionReport(ok=bool(worst >= -1e-3), worst_margin=worst,
                             X_at=X_at, s_at=s_at, M=M, tol=1e-3)


class TestSubsolutionOracle:
    """One barrier array per M against the per-time loop, bit for bit, on
    the stored field (s = None) and on the field cut down to its one
    stored time nearest s, as a dual solved to t = 0 stores one."""

    @pytest.fixture(scope="class")
    def fields(self, traj_const, field_const):
        # the fine field stores more times than are sampled (stride > 1)
        fine = solve_dual(traj_const, 100.0, T_FINAL, max_change=0.001)
        assert fine.s_values.size > 2 * 64
        return {"coarse": field_const, "fine": fine}

    @pytest.mark.parametrize("which", ["coarse", "fine"])
    @pytest.mark.parametrize("s", [None, 0.0, 0.2, T_FINAL], ids=["all", "s0", "mid", "tau0"])
    @pytest.mark.parametrize("M", [1e-2, 0.1, 0.31, 1.0, 1e4])
    def test_matches_per_time_loop(self, fields, which, s, M):
        fld = fields[which]
        if s is not None:
            j = int(np.argmin(np.abs(fld.s_values - s)))
            fld = replace(fld, s_values=fld.s_values[j : j + 1], psi=fld.psi[j : j + 1])
        got = subsolution_bound(fld, M)
        assert got == oracle_subsolution_bound(fld, M)
        if s == T_FINAL:
            # the tau = 0 row compares Psi with the indicator itself
            assert got.s_at == T_FINAL and got.worst_margin == 0.0


def oracle_m_star(dual_field):
    """M* by bisection in log M: 40 halvings of the bracket [1e-2, 1e4],
    whose ends must fail and pass; the upper end of the last bracket."""
    lo, hi = np.log(1e-2), np.log(1e4)
    assert not subsolution_bound(dual_field, 1e-2).ok
    assert subsolution_bound(dual_field, 1e4).ok
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if subsolution_bound(dual_field, float(np.exp(mid))).ok:
            hi = mid
        else:
            lo = mid
    return float(np.exp(hi))


class TestMStarOracle:
    """find_m_star against the bisection, whose bracket is 1.3e-11 wide in
    relative terms after 40 halvings."""

    @pytest.fixture(scope="class", params=["constant-R10", "constant-R100", "product-R10"])
    def field(self, request, h0, traj_const, field_const):
        if request.param == "constant-R10":
            return field_const
        if request.param == "constant-R100":
            return solve_dual(traj_const, 100.0, T_FINAL, max_change=0.005)
        params = Params(gamma=0.5, rho=0.75, delta=0.2, R0=10.0)
        traj = rescaled_trajectory(power_law_init(params, h0.edges), params, product_kernel(0.5), CUT,
                                   T_FINAL)
        return solve_dual(traj, 10.0, T_FINAL, max_change=0.005)

    def test_matches_bisection(self, field):
        m_star, rep = find_m_star(field)
        assert m_star == pytest.approx(oracle_m_star(field), rel=2e-11, abs=0.0)
        assert rep.M == m_star and rep.ok
        assert not subsolution_bound(field, m_star * (1.0 - 1e-9)).ok



def oracle_m_bound_whole(dual_field):
    """_m_bound over one array of every sampled row at once."""
    R, a = dual_field.R, dual_field.params.a
    idx = _samples(dual_field)
    w = dual_field.psi[idx] + BARRIER_TOL
    X, tau = np.broadcast_arrays(dual_field.nodes, (dual_field.t_final - dual_field.s_values[idx])[:, None])
    live = (X < R) & (tau > 0.0) & (w < 1.0)
    Y = w_table(StableProfile(a=a)).inverse(w[live])
    return float(np.max(((R - X[live]) / Y) ** a / tau[live], initial=0.0))


def oracle_subsolution_whole(dual_field, M):
    """subsolution_bound over one barrier array of every sampled row."""
    R, t = dual_field.R, dual_field.t_final
    a = dual_field.params.a
    tab = w_table(StableProfile(a=a))
    inv_a = 1.0 / a
    idx = _samples(dual_field)
    X = dual_field.nodes
    s_rows = dual_field.s_values[idx]
    taus = t - s_rows
    scale = np.array([(M * float(tau)) ** inv_a if M * tau > 0.0 else 1.0 for tau in taus])
    barrier = np.where(X >= R, 0.0, tab(np.maximum((R - X) / scale[:, None], 0.0)))
    barrier[M * taus <= 0.0] = np.where(X < R, 1.0, 0.0)
    margin = dual_field.psi[idx] - barrier
    k = int(np.argmin(margin))
    row, col = divmod(k, X.size)
    worst, X_at, s_at = float(margin[row, col]), float(X[col]), float(s_rows[row])
    return SubsolutionReport(ok=worst >= -BARRIER_TOL, worst_margin=worst,
                             X_at=X_at, s_at=s_at, M=M, tol=BARRIER_TOL)


BARRIER_CASES = {
    "constant": (PARAMS, constant_kernel(2.0)),
    "product": (Params(gamma=0.5, rho=0.75), product_kernel(0.5)),
    "sum": (Params(gamma=0.5, rho=0.75), sum_kernel(0.2, 0.5)),
}


class TestBarrierWholeArrayOracle:
    """_m_bound and subsolution_bound against their whole-array forms,
    bit for bit, on fields that store more times than are sampled."""

    @pytest.fixture(scope="class", params=[(k, lam) for k in BARRIER_CASES for lam in (1e-3, 1e-2, 0.1)],
                    ids=lambda p: f"{p[0]}-{p[1]:g}")
    def field(self, request):
        family, lam = request.param
        params, kernel = BARRIER_CASES[family]
        h0 = power_law_init(params, geometric_grid(1e-3, 1e4, 2.0**0.125))
        traj = rescaled_trajectory(h0, params, kernel, CutoffParams(lam=lam), T_FINAL)
        return solve_dual(traj, 10.0, T_FINAL, max_change=0.001)

    def test_m_bound(self, field):
        assert field.s_values.size > 2 * MAX_S_SAMPLES  # a sampling stride > 1
        assert _m_bound(field) == oracle_m_bound_whole(field)

    @pytest.mark.parametrize("M", [0.0, 1e-2, "m_star", 1e4])
    def test_subsolution_bound(self, field, M):
        M = find_m_star(field)[0] if M == "m_star" else M
        assert subsolution_bound(field, M) == oracle_subsolution_whole(field, M)

    def test_ties_keep_the_earliest_sample(self, field):
        # Psi = 1 against the indicator (M = 0): every margin below R is 0,
        # in every block, so the report names the first sample and node
        flat = replace(field, psi=np.ones_like(field.psi))
        assert len(_sample_blocks(flat)) > 1
        rep = subsolution_bound(flat, 0.0)
        assert rep == oracle_subsolution_whole(flat, 0.0)
        assert rep.worst_margin == 0.0 and rep.s_at == flat.s_values[0] and rep.X_at == flat.nodes[0]

    def test_dual_check_config(self):
        # the dual-check bench config: acceptance grid, lambda = 1e-3, R = 100
        h0 = power_law_init(PARAMS, geometric_grid(1e-4, 1e8, RATIO))
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(), CUT, T_FINAL, max_change=0.0025)
        fld = solve_dual(traj, 100.0, T_FINAL, max_change=0.0025)
        assert len(_sample_blocks(fld)) > 1
        m_star = _m_bound(fld)
        assert m_star == oracle_m_bound_whole(fld)
        for M in (0.0, m_star, 1e4):
            assert subsolution_bound(fld, M) == oracle_subsolution_whole(fld, M)


class TestQTail:
    def test_matches_tail_moment_oracle(self, traj_const):
        # far-jump rate vs the cutoff-free closed form; the ratio cutoffs
        # clip a ~(lam/2)^rho sliver, so the discrete value sits just below
        p = PARAMS
        for R in (10.0, 100.0):
            rep = q_tail_bound(traj_const, R)
            best = 0.0
            for k in range(traj_const.times.size):
                Hs = GridMeasure(traj_const.edges, traj_const.masses[k],
                                 float(traj_const.amps[k]), p.rho)
                val = 2.0 * dyadic_tail_integral(Hs, R * np.exp(p.beta * T_FINAL), 1.0)
                best = max(best, val * R ** (p.rho - p.gamma))
            assert 0.9 * best <= rep.K_star <= 1.001 * best
            assert rep.X_at == R

    def test_zero_kernel_vanishes(self, traj_zero):
        assert q_tail_bound(traj_zero, 10.0).K_star == 0.0


def oracle_jumps(traj, R, t, tau, psi):
    """Dense nodes x partners jump table in the frame anchored at t:
    (nodes, D, G, far sums) with G from np.interp at the pair sums."""
    p, cut = traj.params, traj.engine.cutoff
    _, Yall, gpow = _partners(traj.edges, p.rho, cut.lam)
    Zk = Yall * np.exp(-p.beta * t)
    n = int(np.count_nonzero(Zk[: traj.edges.size - 1] < R * (1.0 - 1e-12)))
    nodes = np.append(Zk[:n], R)
    Kd = _ratio_kernel(traj.engine.kernel, cut, nodes[:, None], Zk[None, :])
    masses, amp = traj.interp(t - tau)
    grow = np.exp(p.beta * tau)
    u_x = eval_cutoff(nodes * grow / cut.lam)
    u_z = eval_cutoff(Zk * grow / cut.lam)
    col = u_z * np.concatenate([masses, amp * gpow]) / Yall
    q = np.exp(p.gamma * p.beta * tau) * u_x[:, None] * Kd * col[None, :]
    psi_at = np.interp(nodes[:, None] + Zk[None, :], nodes, psi, right=0.0)
    return nodes, q.sum(axis=1), (q * psi_at).sum(axis=1), q[:, Zk > R].sum(axis=1)


class TestDualOracle:
    """_Jumps on the engine's per-diagonal vectors against the dense jump table."""

    @pytest.mark.parametrize(
        "kernel, params",
        [
            (constant_kernel(1.3), Params(gamma=0.0, rho=0.5)),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
            (sum_kernel(0.2, 0.5), Params(gamma=0.5, rho=0.75)),
        ],
        ids=["constant", "product", "sum"],
    )
    @pytest.mark.parametrize("lam", [1e-3, 0.1])
    @pytest.mark.parametrize("t", [0.0, 0.3])
    @pytest.mark.parametrize("R_at", ["edge", "above_rep"])
    def test_matches_dense_table(self, kernel, params, lam, t, R_at):
        edges = geometric_grid(1e-4, 20.0, ratio=2.0 ** 0.25)
        rng = np.random.default_rng(23)
        times = np.array([0.0, 0.3])
        masses = rng.uniform(0.1, 1.0, (2, edges.size - 1))
        cut = CutoffParams(lam=lam)
        traj = Trajectory(edges, times, masses, np.array([0.4, 0.5]), params,
                          _Engine(edges, params, kernel, cut))
        # R just above a representative leaves a sliver interval below R
        Y = np.sqrt(edges[:-1] * edges[1:])
        k = np.searchsorted(edges, np.exp(params.beta * t))
        R = (edges[k] if R_at == "edge" else Y[k] * (1.0 + 1e-9)) * np.exp(-params.beta * t)
        jumps = _Jumps(traj, R, t)
        for tau in sorted({0.0, t / 3.0, t}):
            psi = np.sort(rng.uniform(0.05, 1.0, jumps.nodes.size))[::-1]
            nodes, D, G, far = oracle_jumps(traj, R, t, tau, psi)
            np.testing.assert_array_equal(jumps.nodes, nodes)
            assert D.max() > 0.0 and far.max() > 0.0
            got_D, got_G = jumps.rates(tau, psi)
            np.testing.assert_allclose(got_D, D, rtol=1e-13, atol=0.0)
            # G <= D termwise (Psi <= 1); D is the scale of its rounding
            assert np.all(np.abs(got_G - G) <= 1e-13 * D)
            assert got_G[-1] == 0.0 and G[-1] == 0.0
            np.testing.assert_allclose(jumps.far(tau), far, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "kernel, params",
        [
            (constant_kernel(1.3), Params(gamma=0.0, rho=0.5)),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
        ],
        ids=["constant", "product"],
    )
    @pytest.mark.parametrize(
        "grid, lam, R_x, nodes_below",
        [
            # self pairs tie on the 2^(1/16) grid (2 Y_i = Y_(i+16)), R mid-grid
            ((1e-4, 20.0, 2.0 ** (1.0 / 16.0)), 1e-3, 0.7, "some"),
            # R above the top representative: every cell is a node, and
            # pairs with a ghost partner can land below R
            ((1e-4, 20.0, 2.0**0.25), 1e-2, 60.0, "all"),
            ((1e-4, 20.0, 2.0**0.25), 0.1, 60.0, "all"),
            # R below every node: R is the only node, and it coagulates
            ((1e-2, 20.0, 2.0**0.25), 1e-3, 5e-3, "none"),
        ],
        ids=["tie_mid", "top_lam1e-2", "top_lam0.1", "below"],
    )
    def test_matches_dense_table_at_the_edges(self, kernel, params, grid, lam, R_x, nodes_below):
        edges = geometric_grid(*grid)
        N = edges.size - 1
        rng = np.random.default_rng(29)
        t = 0.3
        masses = rng.uniform(0.1, 1.0, (2, N))
        traj = Trajectory(edges, np.array([0.0, t]), masses, np.array([0.4, 0.5]), params,
                          _Engine(edges, params, kernel, CutoffParams(lam=lam)))
        # R_x is the cut in the trajectory's own frame
        R = R_x * np.exp(-params.beta * t)
        jumps = _Jumps(traj, R, t)
        n = jumps.nodes.size - 1
        assert {"some": 0 < n < N, "all": n == N, "none": n == 0}[nodes_below]
        for tau in (0.0, t / 3.0, t):
            psi = np.sort(rng.uniform(0.05, 1.0, n + 1))[::-1]
            nodes, D, G, far = oracle_jumps(traj, R, t, tau, psi)
            np.testing.assert_array_equal(jumps.nodes, nodes)
            assert D.max() > 0.0 and far.max() > 0.0
            got_D, got_G = jumps.rates(tau, psi)
            np.testing.assert_allclose(got_D, D, rtol=1e-13, atol=0.0)
            assert np.all(np.abs(got_G - G) <= 1e-13 * D)
            assert got_G[-1] == 0.0 and G[-1] == 0.0
            np.testing.assert_allclose(jumps.far(tau), far, rtol=1e-13, atol=0.0)


def dense_corner(jumps):
    """_Jumps.corner as it was built from the dense block of rows
    n - 2 - max k .. n - 1 by every diagonal, verbatim."""
    eng, Z, n, nodes = jumps.engine, jumps.Z, jumps.n, jumps.nodes
    R = nodes[-1]
    L = eng.t.size
    k, f = eng.k[:L], eng.f
    a = np.arange(max(0, n - 2 - int(k.max())), n)[:, None]
    P = Z[a] + Z[a + np.arange(L)]
    j = np.minimum(np.searchsorted(nodes, P, side="right") - 1, n - 1)
    lo = a + k
    ai, d = np.nonzero((eng.t > 0.0) & ((lo == n - 1) | ((P <= R) & (j == n - 1))))
    a, P, j, lo, f = a[ai, 0], P[ai, d], j[ai, d], lo[ai, d], f[d]
    b = a + d
    fe = np.where(P <= R, (nodes[j + 1] - P) / (nodes[j + 1] - nodes[j]), 0.0)
    node = np.concatenate([j, j + 1, lo, lo + 1])
    w = np.concatenate([fe, np.where(P <= R, 1.0 - fe, 0.0),
                        np.where(lo < n, -f, 0.0), np.where(lo + 1 < n, f - 1.0, 0.0)])
    pair = np.tile(np.arange(a.size), 4)
    keep = w != 0.0
    node, pair = node[keep], pair[keep]
    w = w[keep] * eng.Yg[a[pair]] * eng.t[d[pair]]
    both = (d[pair] > 0) & (b[pair] < n)
    return (np.concatenate([a[pair], b[pair][both]]), np.concatenate([b[pair], a[pair][both]]),
            np.concatenate([node, node[both]]), np.concatenate([w, w[both]]))


class TestCornerOracle:
    """The corner list from its candidate rows, bit for bit and in the same
    order as from the dense block, with R from below the grid's first
    representatives to above its ghost cells."""

    @pytest.mark.parametrize(
        "kernel, params",
        [
            (constant_kernel(1.0), Params(gamma=0.0, rho=0.5)),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
            (constant_kernel(2.0), Params(gamma=0.0, rho=0.1, delta=0.05)),
            (sum_kernel(0.1, 0.3), Params(gamma=0.3, rho=0.35, delta=0.02)),
        ],
        ids=["constant", "product", "rho0.1", "sum"],
    )
    @pytest.mark.parametrize("lam", [0.1, 1e-2, 1e-3])
    @pytest.mark.parametrize("ratio", [2.0 ** (1.0 / 8.0), 2.0 ** (1.0 / 16.0)], ids=["r8", "r16"])
    def test_matches_dense_block(self, kernel, params, lam, ratio):
        edges = geometric_grid(1e-4, 1e8, ratio)
        masses = np.ones((2, edges.size - 1))
        traj = Trajectory(edges, np.array([0.0, 0.1]), masses, np.array([0.5, 0.5]), params,
                          _Engine(edges, params, kernel, CutoffParams(lam=lam)))
        sizes = set()
        for R in (0.05, 1.0, 100.0, 1e6, 3e8, 1e12):
            for t in (0.0, 0.1):
                jumps = _Jumps(traj, R, t)
                got, want = jumps.corner, dense_corner(jumps)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape, (R, t)
                    assert g.tobytes() == w.tobytes(), (R, t)
                sizes.add(got[0].size)
        assert len(sizes) > 1 and max(sizes) > 0


def traced_peak(fn):
    """(result, peak): fn's return value and the traced bytes at the peak
    of the call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDualWorkingMemory:
    """Traced peaks on the dual-check bench inputs (acceptance grid,
    lambda = 1e-3, R = 100).  The K* sweep built the dense (rows x taps)
    corner selection that it never reads, 0.883 MiB; a Kanter table
    allocated per block of 64 points peaked at 0.563 MiB."""

    @pytest.fixture(scope="class")
    def traj(self):
        h0 = power_law_init(PARAMS, geometric_grid(1e-4, 1e8, RATIO))
        return rescaled_trajectory(h0, PARAMS, constant_kernel(), CUT, T_FINAL)

    def test_q_tail_bound(self, traj):
        q_tail_bound(traj, 100.0)
        rep, peak = traced_peak(lambda: q_tail_bound(traj, 100.0))
        assert rep.K_star > 0.0
        assert peak <= 2**17

    def test_corner(self, traj):
        # the dense (rows x taps) selection block peaked at 0.84 MiB
        jumps = _Jumps(traj, 100.0, T_FINAL)
        corner, peak = traced_peak(lambda: jumps.corner)
        assert corner[0].size > 0
        assert peak <= 2**17

    def test_cold_w_table(self):
        profile = StableProfile(a=PARAMS.a)
        _kanter_rule(profile.a)  # the rule is cached apart from the table
        _, peak = traced_peak(lambda: WTable(profile))
        assert peak <= 2**19


class TestGainTablesOnDemand:
    def test_q_tail_bound_builds_none(self, traj_const, monkeypatch):
        def refuse(*_args):
            raise AssertionError("gain table built")

        monkeypatch.setattr(dual, "_offset_groups", refuse)
        monkeypatch.setattr(_Jumps, "corner", property(refuse))
        assert q_tail_bound(traj_const, 10.0).K_star > 0.0

    def test_solve_dual_builds_each_once(self, traj_const, monkeypatch):
        calls = []
        groups = dual._offset_groups
        monkeypatch.setattr(dual, "_offset_groups", lambda *args: calls.append("groups") or groups(*args))
        corner = _Jumps.__dict__["corner"].func
        counted = cached_property(lambda jumps: calls.append("corner") or corner(jumps))
        counted.__set_name__(_Jumps, "corner")
        monkeypatch.setattr(_Jumps, "corner", counted)
        fld = solve_dual(traj_const, 10.0, T_FINAL, max_change=0.02)
        assert fld.diagnostics["n_steps"] > 1
        assert sorted(calls) == ["corner", "groups"]


class TestPairingAgainstCumulative:
    def test_indicator_pairing_is_cumulative(self, h0, traj_zero):
        # with the field frozen at the indicator the dual pairing collapses
        # to the initial cumulative mass below R e^(beta t)
        from coagsim.dual import _pairing

        fld = solve_dual(traj_zero, 10.0, T_FINAL)
        got = _pairing(h0, fld.nodes, fld.psi[0], T_FINAL, PARAMS.beta)
        want = cumulative_mass(h0, 10.0 * np.exp(PARAMS.beta * T_FINAL))
        assert got == pytest.approx(want, rel=1e-12)


def oracle_pairing(h0, nodes, psi0, t, beta):
    """_pairing one overlap piece at a time."""
    rho = h0.tail_exponent
    scale = np.exp(beta * t)
    hi = nodes[-1] * scale
    x_break = np.concatenate([h0.edges, nodes * scale])
    x_break = np.unique(x_break[(x_break >= h0.edges[0]) & (x_break <= hi)])
    if x_break.size == 0 or x_break[-1] < hi:
        x_break = np.append(x_break, hi)
    one_m_rho = 1.0 - rho
    two_m_rho = 2.0 - rho
    amps = np.append(h0.amplitudes, h0.tail_amplitude)
    total = 0.0
    for a, b in zip(x_break[:-1], x_break[1:]):
        coeff = amps[np.searchsorted(h0.edges, np.sqrt(a * b), side="right") - 1]
        if coeff == 0.0:
            continue
        mass = coeff * (b**one_m_rho - a**one_m_rho) / one_m_rho
        moment = coeff * (b**two_m_rho - a**two_m_rho) / two_m_rho
        pa = float(np.interp(min(a / scale, nodes[-1]), nodes, psi0, left=psi0[0]))
        pb = float(np.interp(min(b / scale, nodes[-1]), nodes, psi0, left=psi0[0]))
        if b > a:
            kappa = (pb - pa) / (b - a)
            alpha = pa - kappa * a
        else:
            kappa, alpha = 0.0, pa
        total += alpha * mass + kappa * moment
    return total


class TestPairingOracle:
    """The closed-form dual pairing against its per-piece loop."""

    @pytest.fixture(scope="class", params=["constant", "product", "zero"])
    def case(self, request):
        edges = geometric_grid(1e-3, 1e6, 2.0**0.25)
        params, kernel = {
            "constant": (PARAMS, constant_kernel(2.0)),
            "product": (Params(gamma=0.5, rho=0.75), product_kernel(0.5)),
            "zero": (PARAMS, zero_kernel()),
        }[request.param]
        h0 = power_law_init(params, edges)
        return h0, rescaled_trajectory(h0, params, kernel, CUT, T_FINAL)

    @pytest.mark.parametrize("t", [0.0, 0.2, T_FINAL])
    def test_no_break_points_inside_the_range(self, case, t):
        # R e^(beta t) lies below the grid: no edge or node falls in
        # [edges[0], R e^(beta t)], the break list is empty and h0 has no
        # mass there
        h0, traj = case
        fld = solve_dual(traj, 1e-4, t)
        assert fld.nodes[-1] * np.exp(traj.params.beta * t) < h0.edges[0]
        for psi0 in (fld.psi[0], np.full(fld.nodes.size, 0.7)):
            assert _pairing(h0, fld.nodes, psi0, t, traj.params.beta) == 0.0
            assert oracle_pairing(h0, fld.nodes, psi0, t, traj.params.beta) == 0.0

    @pytest.mark.parametrize("R", [1e-3, 1.0, 10.0, 100.0, 1e5])
    @pytest.mark.parametrize("t", [0.0, 0.2, T_FINAL])
    def test_matches_per_piece_loop(self, case, R, t):
        h0, traj = case
        beta = traj.params.beta
        fld = solve_dual(traj, R, t)
        rng = np.random.default_rng(31)
        rows = [fld.psi[0], fld.psi[fld.psi.shape[0] // 2], np.sort(rng.uniform(0.0, 1.0, fld.nodes.size))[::-1]]
        for psi0 in rows:
            got = _pairing(h0, fld.nodes, psi0, t, beta)
            want = oracle_pairing(h0, fld.nodes, psi0, t, beta)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
