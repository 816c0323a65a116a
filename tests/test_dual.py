"""Backward dual field: adjoint pairing, barrier bound, far-jump constant."""

from dataclasses import replace

import numpy as np
import pytest

from coagsim.dual import (
    adjoint_consistency,
    find_m_star,
    q_tail_bound,
    solve_dual,
    subsolution_bound,
)
from coagsim.forward import IntegrationError, rescaled_trajectory
from coagsim.kernel import CutoffParams, constant_kernel, zero_kernel
from coagsim.measure import (
    GridMeasure,
    Params,
    cumulative_mass,
    dyadic_tail_integral,
    geometric_grid,
    power_law_init,
)
from coagsim.stablecdf import StableProfile

RATIO = 2.0 ** (1.0 / 16.0)
PARAMS = Params(gamma=0.0, rho=0.5, lam=1e-3, delta=0.2, R0=10.0)
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

    def test_eval_interpolates(self, field_const):
        nodes = field_const.nodes
        psi0 = field_const.psi[0]
        mid = np.sqrt(nodes[3] * nodes[4])
        got = field_const.eval(0, mid)
        w = (mid - nodes[3]) / (nodes[4] - nodes[3])
        assert got == pytest.approx((1 - w) * psi0[3] + w * psi0[4], rel=1e-12)
        assert field_const.eval(0, 11.0) == 0.0
        assert field_const.eval(0, nodes[0] / 2) == psi0[0]

    def test_zero_kernel_stays_indicator(self, traj_zero):
        fld = solve_dual(traj_zero, 10.0, T_FINAL)
        np.testing.assert_array_equal(fld.psi, 1.0)
        assert fld.diagnostics["n_steps"] == 1

    def test_rejects_bad_inputs(self, traj_const):
        with pytest.raises(ValueError):
            solve_dual(traj_const, -1.0, T_FINAL)
        with pytest.raises(ValueError):
            solve_dual(traj_const, 10.0, T_FINAL + 1.0)

    def test_step_collapse_raises(self, traj_const):
        # a non-finite rate meets no step cap, however small the step:
        # the solver must fail loudly rather than accept the step
        masses = traj_const.masses.copy()
        masses[1, 100] = np.nan
        broken = replace(traj_const, masses=masses)
        with pytest.raises(IntegrationError, match="step size collapsed"):
            solve_dual(broken, 10.0, T_FINAL, max_change=0.005)


class TestAdjointConsistency:
    def test_zero_kernel_exact(self, h0, traj_zero):
        # both sides reduce to the same closed-form cumulative
        assert adjoint_consistency(h0, traj_zero, 10.0, T_FINAL) <= 1e-12

    def test_zero_kernel_exact_at_seam_times(self, h0):
        # (R e^(beta t)) / e^(beta t) may round just above R; the pairing
        # must clamp that excess instead of dropping the last piece
        # (t = 0.25 rounds high with beta = 2, R = 10)
        for t in (0.25, 0.37):
            traj = rescaled_trajectory(h0, PARAMS, zero_kernel(), CUT, t)
            assert adjoint_consistency(h0, traj, 10.0, t) <= 1e-12

    def test_time_zero_identity(self, h0, traj_const):
        fld = solve_dual(traj_const, 10.0, 0.0)
        assert adjoint_consistency(h0, traj_const, 10.0, 0.0, dual_field=fld) <= 1e-12

    def test_constant_kernel_small(self, h0, traj_const, field_const):
        res = adjoint_consistency(h0, traj_const, 10.0, T_FINAL, dual_field=field_const)
        assert res <= 2e-3

    def test_first_order_in_step_cap(self, h0):
        # halving the per-step change cap halves the pairing defect
        res = {}
        for mc in (0.02, 0.005):
            traj = rescaled_trajectory(h0, PARAMS, constant_kernel(2.0), CUT,
                                       T_FINAL, max_change=mc)
            fld = solve_dual(traj, 10.0, T_FINAL, max_change=mc)
            res[mc] = adjoint_consistency(h0, traj, 10.0, T_FINAL, dual_field=fld)
        assert res[0.02] / res[0.005] >= 2.5


class TestSubsolution:
    def test_m_star_finite_and_small(self, field_const):
        prof = StableProfile(a=0.5)
        m_star, rep = find_m_star(field_const, prof)
        assert rep.ok
        assert m_star <= 1e4
        # monotone in M: double passes, quarter fails
        assert subsolution_bound(field_const, prof, 2.0 * m_star).ok
        assert not subsolution_bound(field_const, prof, m_star / 4.0).ok

    def test_zero_kernel_trivial(self, traj_zero):
        # Psi equals 1 below R, which dominates any barrier
        fld = solve_dual(traj_zero, 10.0, T_FINAL)
        rep = subsolution_bound(fld, StableProfile(a=0.5), 1e-2)
        assert rep.ok
        assert rep.worst_margin >= 0.0

    def test_single_time_slice(self, field_const):
        rep = subsolution_bound(field_const, StableProfile(a=0.5), 1.0, s=0.0)
        assert rep.s_at == field_const.s_values[0]

    def test_rejects_nonpositive_m(self, field_const):
        with pytest.raises(ValueError):
            subsolution_bound(field_const, StableProfile(a=0.5), 0.0)


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

    def test_rejects_tau_outside_coverage(self, traj_const):
        with pytest.raises(ValueError):
            q_tail_bound(traj_const, 10.0, tau_values=[T_FINAL + 1.0])


class TestPairingAgainstCumulative:
    def test_indicator_pairing_is_cumulative(self, h0, traj_zero):
        # with the field frozen at the indicator the dual pairing collapses
        # to the initial cumulative mass below R e^(beta t)
        from coagsim.dual import _pairing

        fld = solve_dual(traj_zero, 10.0, T_FINAL)
        got = _pairing(h0, fld.nodes, fld.psi[0], T_FINAL, PARAMS.beta)
        want = cumulative_mass(h0, 10.0 * np.exp(PARAMS.beta * T_FINAL))
        assert got == pytest.approx(want, rel=1e-12)
