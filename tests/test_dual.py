"""Backward dual field: adjoint pairing, barrier bound, far-jump constant."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coagsim import dual
from coagsim.dual import (
    BARRIER_TOL,
    DualField,
    SubsolutionReport,
    _Jumps,
    _cut,
    _m_bound,
    _row_blocks,
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
    rescaled_trajectory,
)
from coagsim.kernel import (
    CutoffParams,
    constant_kernel,
    eval_cutoff,
    eval_kernel,
    product_kernel,
    sum_kernel,
    zero_kernel,
)
from coagsim.measure import (
    GridMeasure,
    Params,
    _tail_cells,
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
    return solve_dual(traj_const, 10.0, T_FINAL)


class TestSolveDual:
    def test_reads_the_forward_states_of_each_step(self, traj_const, monkeypatch):
        # each backward step evaluates the coefficients of its forward
        # step's two states, the stored start and the predicted state, and
        # of no other state; the forward's steps are the dual's
        eng = traj_const.engine
        states = []
        densities = eng.densities

        def recording_densities(masses, amp, s):
            states.append((masses, amp, s))
            return densities(masses, amp, s)

        monkeypatch.setattr(eng, "densities", recording_densities)
        fld = solve_dual(traj_const, 10.0, T_FINAL)
        n = fld.diagnostics["n_steps"]
        assert n == traj_const.diagnostics["n_steps"] == traj_const.times.size - 1
        assert fld.diagnostics["n_retries"] == 0
        np.testing.assert_array_equal(fld.s_values, traj_const.times)
        assert len(states) == 2 * n
        for j, k in enumerate(range(n - 1, -1, -1)):
            (m0, a0, s0), (m1, a1, s1) = states[2 * j], states[2 * j + 1]
            np.testing.assert_array_equal(m0, traj_const.masses[k])
            np.testing.assert_array_equal(m1, traj_const.preds[k])
            assert (a0, s0, a1, s1) == (traj_const.amps[k], traj_const.times[k], traj_const.amps[k + 1],
                                        traj_const.times[k + 1])

    def test_datum_is_indicator(self, field_const):
        assert field_const.s_values[0] == 0.0
        assert field_const.s_values[-1] == pytest.approx(T_FINAL)
        np.testing.assert_array_equal(field_const.psi[-1], 1.0)

    def test_nodes_are_the_representatives_below_R(self, traj_const, field_const):
        # the nodes are the grid's own representatives, mapped to the frame
        # anchored at t, up to the last one below R; the next lies above R
        Z = traj_const.engine.reps * np.exp(-PARAMS.beta * T_FINAL)
        n = field_const.nodes.size
        np.testing.assert_array_equal(field_const.nodes, Z[:n])
        assert 0 < n < traj_const.engine.N
        assert field_const.nodes[-1] < 10.0 < Z[n]
        assert np.all(np.diff(field_const.nodes) > 0.0)

    def test_maximum_principle_exact(self, field_const):
        assert field_const.psi.min() >= 0.0
        assert field_const.psi.max() <= 1.0 + 1e-12
        assert field_const.diagnostics["max_excess"] == 0.0

    def test_monotone_in_size(self, field_const):
        # survival probability decreases toward the cut
        assert field_const.diagnostics["max_monotonicity_violation"] <= 1e-12

    def test_zero_kernel_stays_indicator(self, traj_zero):
        # the drift is the exact scalar e^(-beta rho h) of each step, so no
        # step moves Psi off 1 by a rounding
        fld = solve_dual(traj_zero, 10.0, T_FINAL)
        np.testing.assert_array_equal(fld.psi, 1.0)
        assert fld.diagnostics["n_steps"] == traj_zero.diagnostics["n_steps"] > 1
        assert fld.diagnostics["max_excess"] == fld.diagnostics["max_monotonicity_violation"] == 0.0

    def test_radius_below_every_node(self, traj_const):
        # no representative lies below R, so the dual has no node: refused
        # by name, where it once passed on a field of R alone
        R = traj_const.engine.reps[0] * np.exp(-PARAMS.beta * T_FINAL)
        for cut in (1e-5, R):
            with pytest.raises(ValueError, match="below every cell's representative"):
                solve_dual(traj_const, cut, T_FINAL)
            with pytest.raises(ValueError, match="below every cell's representative"):
                q_tail_bound(traj_const, cut)
        assert solve_dual(traj_const, R * 1.001, T_FINAL).nodes.size == 1

    def test_cut_past_the_float_range(self, traj_const):
        # R = 1e305 reaches R e^(beta t) (2 - lam)/lam = 5.4e308: K* raised
        # "kernel arguments must be finite" from its tail cells.  The frame
        # factor e^(beta t) of t = 400 at beta = 2 overflows.  Both are
        # refused by the one rule that K*, the dual solve and dual-check call
        for solve in (lambda: q_tail_bound(traj_const, 1e305), lambda: solve_dual(traj_const, 1e305, T_FINAL)):
            with pytest.raises(ValueError, match=r"R = 1e\+305: its partners' reach .* overflows a float"):
                solve()
        with pytest.raises(ValueError, match=r"t = 400.0 overflows the frame factor e\^\(beta t\), beta = 2.0"):
            _cut(traj_const.edges, PARAMS, CUT.lam, 10.0, 400.0)
        # the largest reach on this grid that still fits
        assert q_tail_bound(traj_const, 1e304).K_star > 0.0

    def test_one_cell_grid_has_no_node(self):
        # the top cell is never a node, so one cell leaves none at any R
        edges = geometric_grid(1.0, 2.0, 2.0)
        traj = Trajectory(edges, np.array([0.0]), np.ones((1, 1)), np.array([0.4]), PARAMS,
                          _Engine(edges, PARAMS, constant_kernel(), CUT))
        for R in (1.2, 10.0, 1e9):
            with pytest.raises(ValueError, match="one cell leaves the dual no node"):
                solve_dual(traj, R, 0.0)

    def test_evaluates_no_kernel_row(self, traj_const, monkeypatch):
        # the dual steps on the engine's per-diagonal vectors alone
        def refuse(*_args):
            raise AssertionError("kernel row evaluated")

        monkeypatch.setattr(_Engine, "row", refuse)
        assert solve_dual(traj_const, 10.0, T_FINAL).diagnostics["n_steps"] > 1

    def test_rejects_bad_inputs(self, traj_const):
        with pytest.raises(ValueError):
            solve_dual(traj_const, -1.0, T_FINAL)
        with pytest.raises(ValueError):
            solve_dual(traj_const, 10.0, T_FINAL + 1.0)
        # the dual walks stored steps back, so it starts at a stored time
        mid = 0.5 * (traj_const.times[3] + traj_const.times[4])
        with pytest.raises(ValueError, match="with a stored step at t"):
            solve_dual(traj_const, 10.0, mid)
        assert solve_dual(traj_const, 10.0, traj_const.times[4]).diagnostics["n_steps"] == 4

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
        # a non-finite stored state makes a non-finite Psi: the solver
        # must fail loudly rather than return it
        masses = traj_const.masses.copy()
        masses[1, 100] = np.nan
        broken = replace(traj_const, masses=masses)
        with pytest.raises(IntegrationError, match="dual field is not finite at s = 0.00"):
            solve_dual(broken, 10.0, T_FINAL)


def oracle_gain_matrix(traj, R, t, masses, amp, s):
    """(D, BT) of the forward state (masses, amp) at time s, from the
    dense jump table: each node's total jump rate, and the matrix with
    BT @ psi = G for every psi on the nodes, column l the gain of the hat
    function of node l."""
    Zk, n, q = oracle_rate_table(traj, R, t, masses, amp, s)
    P = Zk[:n, None] + Zk[None, :]
    BT = np.stack([(q[:n] * np.interp(P, Zk[: n + 1], e)).sum(axis=1) for e in np.eye(n + 1)[:n]], axis=1)
    return q[:n].sum(axis=1), BT


def oracle_solve_dual(traj, R, t):
    """The dual field by transposing each stored forward step written as a
    dense matrix on the nodes: with D0, B0 at the step's start and D1, B1
    at its predicted state,
    m' = E m + Phi (B0 m + B1 (E0 m + Phi0 B0 m)) / 2 = M m, and Psi at
    the step's start is e^(-beta rho h) M^T Psi'."""
    k = int(np.argmin(np.abs(traj.times - t)))
    grow = traj.params.beta * traj.params.rho
    psi = np.ones(_Jumps(traj, R, t).nodes.size)
    rows = [psi]
    for j in range(k - 1, -1, -1):
        h = traj.times[j + 1] - traj.times[j]
        D0, BT0 = oracle_gain_matrix(traj, R, t, traj.masses[j], traj.amps[j], traj.times[j])
        D1, BT1 = oracle_gain_matrix(traj, R, t, traj.preds[j], traj.amps[j + 1], traj.times[j + 1])
        A0, Abar = D0 - grow, 0.5 * (D0 + D1) - grow
        phi0, phi = (-np.expm1(-A * h) / A for A in (A0, Abar))
        M = np.diag(np.exp(-Abar * h)) + 0.5 * phi[:, None] * (
            BT0.T + BT1.T @ (np.diag(np.exp(-A0 * h)) + phi0[:, None] * BT0.T))
        psi = np.exp(-grow * h) * (M.T @ psi)
        rows.append(psi)
    return np.array(rows[::-1])


SMALL_EDGES = geometric_grid(1e-2, 1e2, 2.0**0.5)
SMALL_T = 0.3


class TestSolveDualOracle:
    """solve_dual against its own loop over the stored steps, written with
    the transpose of dense forward step matrices (oracle_solve_dual), on a
    grid small enough to build them; the forward's step cap sets the
    steps."""

    @pytest.fixture(scope="class", params=["constant", "product", "sum"])
    def kind(self, request):
        return request.param

    @staticmethod
    def trajectory(kind, max_change, t=SMALL_T):
        if kind in ("constant", "zero"):
            params, kernel = PARAMS, constant_kernel(2.0) if kind == "constant" else zero_kernel()
        else:
            params = Params(gamma=0.5, rho=0.75, delta=0.2, R0=10.0)
            kernel = product_kernel(0.5) if kind == "product" else sum_kernel(0.2, 0.5)
        return rescaled_trajectory(power_law_init(params, SMALL_EDGES), params, kernel, CutoffParams(lam=1e-2), t,
                                   max_change=max_change)

    @pytest.mark.parametrize("max_change", [0.02, 0.0025])
    @pytest.mark.parametrize("R", [10.0, 100.0])
    def test_matches_own_loop(self, kind, R, max_change):
        # from the final stored time and from one midway, where the
        # trajectory goes on past the dual's t
        traj = self.trajectory(kind, max_change)
        for t in (traj.t_final, traj.times[traj.times.size // 2]):
            fld = solve_dual(traj, R, t)
            want = oracle_solve_dual(traj, R, t)
            assert fld.psi.shape == want.shape and fld.psi.shape[0] > 2
            np.testing.assert_allclose(fld.psi, want, rtol=1e-12, atol=0.0)
            assert want.min() < 0.99  # the jumps move Psi

    @pytest.mark.parametrize("case", ["zero_kernel", "t0", "zero_kernel_t0"])
    def test_matches_trivial_cases(self, case):
        t = 0.0 if case.endswith("t0") else SMALL_T
        traj = self.trajectory("zero" if case.startswith("zero") else "constant", 0.02, t)
        fld = solve_dual(traj, 10.0, t)
        np.testing.assert_allclose(fld.psi, oracle_solve_dual(traj, 10.0, t), rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(fld.psi, 1.0)  # the zero kernel's drift is an exact scalar
        assert fld.diagnostics["n_steps"] == traj.times.size - 1 == (0 if t == 0.0 else traj.diagnostics["n_steps"])


class TestAdjointConsistency:
    def test_zero_kernel_exact(self, traj_zero):
        # both sides reduce to the same closed-form cumulative
        assert adjoint_consistency(traj_zero, solve_dual(traj_zero, 10.0, T_FINAL)) <= 1e-12

    def test_zero_kernel_exact_at_seam_times(self, h0):
        # (R e^(beta t)) / e^(beta t) may round just above R (t = 0.25
        # rounds high with beta = 2, R = 10); both sides read the same cells
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

    @pytest.mark.parametrize("R", [10.0, 100.0])
    def test_roundoff_at_every_kernel(self, h0, R):
        # the dual is the transpose of the forward's own steps, so the
        # pairing holds to rounding, whatever the forward's step cap
        cases = [(PARAMS, constant_kernel(2.0)), (Params(gamma=0.5, rho=0.75), product_kernel(0.5)),
                 (Params(gamma=0.5, rho=0.75), sum_kernel(0.2, 0.5))]
        for params, kernel in cases:
            traj = rescaled_trajectory(power_law_init(params, h0.edges), params, kernel, CUT, T_FINAL,
                                       max_change=0.05)
            assert adjoint_consistency(traj, solve_dual(traj, R, T_FINAL)) <= 1e-12

    @pytest.mark.parametrize("gamma, rho", [(0.0, 0.1), (0.5, 0.6), (0.0, 0.5)])
    def test_radius_above_the_top_cell(self, gamma, rho):
        # R = 1e9 lies above every representative of the grid (top edge
        # 1e4): the top cell is no node, since the forward sends the pairs
        # it brackets from below to its overflow ledger.  As a node it read
        # 2.4e-2 / 1.9e-2 / 3.7e-3
        params = Params(gamma=gamma, rho=rho, delta=min(0.2, 0.5 * (rho - gamma)))
        kernel = constant_kernel() if gamma == 0.0 else product_kernel(gamma)
        edges = geometric_grid(1e-3, 1e4, 2.0**0.25)
        traj = rescaled_trajectory(power_law_init(params, edges), params, kernel, CutoffParams(lam=1e-2), T_FINAL)
        fld = solve_dual(traj, 1e9, T_FINAL)
        assert fld.nodes.size == edges.size - 2
        assert adjoint_consistency(traj, fld) <= 5e-5


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
    """The barrier check one stored time at a time, at the stable index
    a = rho - gamma of the field's params."""
    R, t = dual_field.R, dual_field.t_final
    a = dual_field.params.rho - dual_field.params.gamma
    tab = w_table(StableProfile(a=a))
    inv_a = 1.0 / a
    worst, X_at, s_at = np.inf, np.nan, np.nan
    X = dual_field.nodes
    for j in range(dual_field.s_values.size):
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
        # the fine field spans more than one row block
        fine = solve_dual(traj_const, 100.0, T_FINAL)
        assert len(_row_blocks(fine)) > 1
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
            return solve_dual(traj_const, 100.0, T_FINAL)
        params = Params(gamma=0.5, rho=0.75, delta=0.2, R0=10.0)
        traj = rescaled_trajectory(power_law_init(params, h0.edges), params, product_kernel(0.5), CUT,
                                   T_FINAL)
        return solve_dual(traj, 10.0, T_FINAL)

    def test_matches_bisection(self, field):
        m_star, rep = find_m_star(field)
        assert m_star == pytest.approx(oracle_m_star(field), rel=2e-11, abs=0.0)
        assert rep.M == m_star and rep.ok
        assert not subsolution_bound(field, m_star * (1.0 - 1e-9)).ok



def oracle_m_bound_whole(dual_field):
    """_m_bound over one array of every stored row at once."""
    R, a = dual_field.R, dual_field.params.a
    w = dual_field.psi + BARRIER_TOL
    X, tau = np.broadcast_arrays(dual_field.nodes, (dual_field.t_final - dual_field.s_values)[:, None])
    live = (X < R) & (tau > 0.0) & (w < 1.0)
    Y = w_table(StableProfile(a=a)).inverse(w[live])
    return float(np.max(((R - X[live]) / Y) ** a / tau[live], initial=0.0))


def oracle_subsolution_whole(dual_field, M):
    """subsolution_bound over one barrier array of every stored row."""
    R, t = dual_field.R, dual_field.t_final
    a = dual_field.params.a
    tab = w_table(StableProfile(a=a))
    inv_a = 1.0 / a
    X = dual_field.nodes
    s_rows = dual_field.s_values
    taus = t - s_rows
    scale = np.array([(M * float(tau)) ** inv_a if M * tau > 0.0 else 1.0 for tau in taus])
    barrier = np.where(X >= R, 0.0, tab(np.maximum((R - X) / scale[:, None], 0.0)))
    barrier[M * taus <= 0.0] = np.where(X < R, 1.0, 0.0)
    margin = dual_field.psi - barrier
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
    """_m_bound and subsolution_bound against their whole-array forms over
    every stored row, bit for bit, on fields that span more than one row
    block.  The barrier check once sampled every (n // 64)-th of n >= 128
    stored times, and its M* fell short of these fields' by up to 5.1e-4
    relative."""

    @pytest.fixture(scope="class", params=[(k, lam) for k in BARRIER_CASES for lam in (1e-3, 1e-2, 0.1)],
                    ids=lambda p: f"{p[0]}-{p[1]:g}")
    def field(self, request):
        family, lam = request.param
        params, kernel = BARRIER_CASES[family]
        h0 = power_law_init(params, geometric_grid(1e-3, 1e4, 2.0**0.125))
        # a fine forward cap, so that the field spans more than one block
        traj = rescaled_trajectory(h0, params, kernel, CutoffParams(lam=lam), T_FINAL, max_change=0.01)
        return solve_dual(traj, 10.0, T_FINAL)

    def test_m_bound(self, field):
        assert len(_row_blocks(field)) > 1
        assert _m_bound(field) == oracle_m_bound_whole(field)

    @pytest.mark.parametrize("M", [0.0, 1e-2, "m_star", 1e4])
    def test_subsolution_bound(self, field, M):
        M = find_m_star(field)[0] if M == "m_star" else M
        assert subsolution_bound(field, M) == oracle_subsolution_whole(field, M)

    def test_ties_keep_the_earliest_sample(self, field):
        # Psi = 1 against the indicator (M = 0): every margin below R is 0,
        # in every block, so the report names the first time and node
        flat = replace(field, psi=np.ones_like(field.psi))
        assert len(_row_blocks(flat)) > 1
        rep = subsolution_bound(flat, 0.0)
        assert rep == oracle_subsolution_whole(flat, 0.0)
        assert rep.worst_margin == 0.0 and rep.s_at == flat.s_values[0] and rep.X_at == flat.nodes[0]

    def test_dual_check_config(self):
        # the dual-check bench config: acceptance grid, lambda = 1e-3, R = 100
        h0 = power_law_init(PARAMS, geometric_grid(1e-4, 1e8, RATIO))
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(), CUT, T_FINAL, max_change=0.0025)
        fld = solve_dual(traj, 100.0, T_FINAL)
        assert len(_row_blocks(fld)) > 1
        m_star = _m_bound(fld)
        assert m_star == oracle_m_bound_whole(fld)
        for M in (0.0, m_star, 1e4):
            assert subsolution_bound(fld, M) == oracle_subsolution_whole(fld, M)


class TestQTail:
    def test_matches_tail_moment_oracle(self, traj_const):
        # far-jump rate vs the cutoff-free closed form; the ratio cutoffs
        # clip a ~(lam/2)^rho sliver, so the discrete value sits just below.
        # R = 1e8 lies above the grid's top edge (1e6), and its partners
        # reach past the engine's lattice (2e9); R = 1e12 lies past it
        p = PARAMS
        for R in (10.0, 100.0, 1e8, 1e12):
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


def oracle_ratio_kernel(kernel, cutoff, Y, Z):
    """The static weight K(Y, Z) zeta(Y / (lam (Y+Z))) zeta(Z / (lam (Y+Z))),
    a verbatim copy of the former forward._ratio_kernel, which evaluated
    both ratio cutoffs on every pair."""
    lam = cutoff.lam
    tot = Y + Z
    return (
        eval_kernel(kernel, Y, Z)
        * eval_cutoff(Y / (lam * tot))
        * eval_cutoff(Z / (lam * tot))
    )


def interp(traj, s):
    """(masses, amplitude) of the trajectory at time s, linear between
    its two stored states; the dual's jump rates read any forward state."""
    w = (s - traj.times[0]) / (traj.times[1] - traj.times[0])
    return (1.0 - w) * traj.masses[0] + w * traj.masses[1], (1.0 - w) * traj.amps[0] + w * traj.amps[1]


def oracle_jumps(traj, R, t, tau, psi):
    """oracle_jumps_at the trajectory's interpolated state of time t - tau."""
    masses, amp = interp(traj, t - tau)
    return oracle_jumps_at(traj, R, t, masses, amp, t - tau, psi)


def oracle_jumps_at(traj, R, t, masses, amp, s, psi):
    """Dense (nodes, then R) x partners jump table in the frame anchored
    at t: (nodes, D, G, far sums), nodes the mapped representatives Z_i
    below R other than the top cell's, i < n <= N - 1, at the forward
    state (masses, amp) of time s, and G from Psi read
    as linear on Z_0 .. Z_n, with Psi(Z_n) = 0, and zero above Z_n.  far
    holds each row's rate toward the partners beyond R, R's row last."""
    Zk, n, q = oracle_rate_table(traj, R, t, masses, amp, s)
    psi_at = np.interp(Zk[:n, None] + Zk[None, :], Zk[: n + 1], np.append(psi, 0.0))
    return Zk[:n], q[:n].sum(axis=1), (q[:n] * psi_at).sum(axis=1), q[:, Zk > R].sum(axis=1)


def oracle_rate_table(traj, R, t, masses, amp, s):
    """(Zk, n, q): the partners Zk in the frame anchored at t, the number
    n of nodes, and the rates q of the nodes, then R, toward every
    partner at the forward state (masses, amp) of time s.  The partners
    are the grid's cells and its tail cells out to the partner reach of
    both the top cell (the engine's ghost cells) and R."""
    p, cut, edges = traj.params, traj.engine.cutoff, traj.edges
    n_ghost = _partners(edges, p.rho, cut.lam)[2].size
    reach = np.log(R * np.exp(p.beta * t) * (2.0 - cut.lam) / cut.lam / edges[-1])
    gedges, gpow = _tail_cells(edges, p.rho, max(n_ghost, int(np.ceil(reach / np.log(edges[1] / edges[0]))) + 1))
    pedges = np.concatenate([edges, gedges[1:]])
    Yall, gpow = np.sqrt(pedges[:-1] * pedges[1:]), gpow / (1.0 - p.rho)
    Zk = Yall * np.exp(-p.beta * t)
    n = int(np.count_nonzero(Zk[: traj.edges.size - 2] < R * (1.0 - 1e-12)))
    X = np.append(Zk[:n], R)
    Kd = oracle_ratio_kernel(traj.engine.kernel, cut, X[:, None], Zk[None, :])
    grow = np.exp(p.beta * (t - s))
    u_x = eval_cutoff(X * grow / cut.lam)
    u_z = eval_cutoff(Zk * grow / cut.lam)
    col = u_z * np.concatenate([masses, amp * gpow]) / Yall
    return Zk, n, np.exp(p.gamma * p.beta * (t - s)) * u_x[:, None] * Kd * col[None, :]


def assert_k_star_is_R_rate(traj, R):
    """q_tail_bound's K* is R's largest dense-table rate toward the
    partners beyond it over the same stored states, times R^(rho - gamma)."""
    p, t = traj.params, traj.t_final
    n = _Jumps(traj, R, t).nodes.size
    rates = [oracle_jumps(traj, R, t, t - s, np.ones(n))[3][-1] for s in traj.times]
    rep = q_tail_bound(traj, R)
    assert rep.K_star == pytest.approx(max(rates) * R ** (p.rho - p.gamma), rel=1e-13, abs=0.0)
    assert rep.X_at == R


def jump_rates(jumps, traj, t, tau, psi):
    """(D, G) of jumps at the trajectory's interpolated state of time
    t - tau: each node's total jump rate, and its gain applied to psi."""
    masses, amp = interp(traj, t - tau)
    coefficients = jumps.coefficients(masses, amp, t - tau)
    return coefficients[0], jumps.gain(coefficients, psi)


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
            got_D, got_G = jump_rates(jumps, traj, t, tau, psi)
            np.testing.assert_allclose(got_D, D, rtol=1e-13, atol=0.0)
            # G <= D termwise (Psi <= 1); D is the scale of its rounding
            assert np.all(np.abs(got_G - G) <= 1e-13 * D)
            # the top node jumps below Z_n too, where Psi is not zero
            assert got_G.shape == D.shape and G[-1] > 0.0
            # no node jumps past R faster than R itself (q_tail_bound)
            assert np.all(far[:-1] <= far[-1])
        assert_k_star_is_R_rate(traj, R)

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
            # R above the top representative: every cell but the top one
            # is a node, and Psi reads zero from the top cell on
            ((1e-4, 20.0, 2.0**0.25), 1e-2, 60.0, "top"),
            ((1e-4, 20.0, 2.0**0.25), 0.1, 60.0, "top"),
            # R just above the first representative: one node, and it
            # coagulates
            ((1e-2, 20.0, 2.0**0.25), 1e-3, 0.0115, "one"),
        ],
        ids=["tie_mid", "top_lam1e-2", "top_lam0.1", "one"],
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
        n = jumps.nodes.size
        assert {"some": 1 < n < N - 1, "top": n == N - 1, "one": n == 1}[nodes_below]
        for tau in (0.0, t / 3.0, t):
            psi = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
            nodes, D, G, far = oracle_jumps(traj, R, t, tau, psi)
            np.testing.assert_array_equal(jumps.nodes, nodes)
            assert D.max() > 0.0 and far.max() > 0.0
            got_D, got_G = jump_rates(jumps, traj, t, tau, psi)
            np.testing.assert_allclose(got_D, D, rtol=1e-13, atol=0.0)
            assert np.all(np.abs(got_G - G) <= 1e-13 * D)
            assert got_G.shape == D.shape == (n,) and far.shape == (n + 1,)
            assert np.all(far[:-1] <= far[-1])
        assert_k_star_is_R_rate(traj, R)


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
    lambda = 1e-3, R = 100).  The K* sweep once built a dense
    (rows x taps) gain table that it never reads, 0.883 MiB; a Kanter
    table allocated per block of 64 points peaked at 0.563 MiB."""

    @pytest.fixture(scope="class")
    def traj(self):
        h0 = power_law_init(PARAMS, geometric_grid(1e-4, 1e8, RATIO))
        return rescaled_trajectory(h0, PARAMS, constant_kernel(), CUT, T_FINAL)

    def test_q_tail_bound(self, traj):
        q_tail_bound(traj, 100.0)
        rep, peak = traced_peak(lambda: q_tail_bound(traj, 100.0))
        assert rep.K_star > 0.0
        assert peak <= 2**17

    def test_cold_w_table(self):
        profile = StableProfile(a=PARAMS.a)
        _kanter_rule(profile.a)  # the rule is cached apart from the table
        _, peak = traced_peak(lambda: WTable(profile))
        assert peak <= 2**19


class TestOperatorsOnDemand:
    def test_q_tail_bound_builds_no_jumps(self, traj_const, monkeypatch):
        # K* is R's own rate, read from the engine: no dual operator
        def refuse(*_args):
            raise AssertionError("dual operator built")

        monkeypatch.setattr(dual, "_Jumps", refuse)
        assert q_tail_bound(traj_const, 10.0).K_star > 0.0

    def test_solve_dual_groups_offsets_once(self, traj_const, monkeypatch):
        # the gain tables, the offset groups, are built with the operator
        # and read by every rates call
        calls = []
        offsets = dual._offset_groups
        monkeypatch.setattr(dual, "_offset_groups", lambda *args: calls.append(args) or offsets(*args))
        fld = solve_dual(traj_const, 10.0, T_FINAL)
        assert fld.diagnostics["n_steps"] > 1
        assert len(calls) == 1
