"""End-to-end acceptance checks for the package's headline guarantees.

Each test asserts one guarantee at its stated tolerance, so `pytest -v`
prints one pass/fail line per guarantee.  The expensive long runs (the
two stationary searches, the cutoff continuation, and the tightly
stepped forward/dual solves) are shared through module-scoped fixtures;
the whole module runs in about two minutes.
"""

import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc

from coagsim import (
    CutoffParams,
    EvolutionState,
    Params,
    StableProfile,
    adjoint_consistency,
    constant_kernel,
    cumulative_mass,
    envelope_check_lower,
    envelope_check_upper,
    find_m_star,
    find_stationary,
    gain,
    geometric_grid,
    gronwall_check,
    lambda_continuation,
    power_law_init,
    product_kernel,
    rearrangement_residual,
    rescaled_trajectory,
    simulate,
    solve_dual,
    t3e4_residual,
    w_deriv,
    w_eval,
    w_laplace,
    zero_kernel,
)

EDGES = geometric_grid()  # 1e-4 .. 1e8 at ratio 2^(1/16), 638 cells
CONST = Params(gamma=0.0, rho=0.5)
PROD = Params(gamma=0.5, rho=0.75)
CUT = CutoffParams(lam=1e-3)
K_CONST = constant_kernel(1.0)
K_PROD = product_kernel(0.5)
SNAP_TIMES = np.linspace(0.1, 1.0, 10)


@pytest.fixture(scope="module")
def stationary_constant():
    t0 = time.monotonic()
    res = find_stationary(CONST, K_CONST, CUT, edges=EDGES)
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def stationary_product():
    t0 = time.monotonic()
    res = find_stationary(PROD, K_PROD, CUT, edges=EDGES)
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def continuation():
    return lambda_continuation(CONST, K_CONST, (1e-1, 1e-2, 1e-3), edges=EDGES)


@pytest.fixture(scope="module")
def evolution_constant():
    h0 = power_law_init(CONST, EDGES)
    return simulate(h0, CONST, K_CONST, CUT, 1.0, snapshot_times=SNAP_TIMES)


@pytest.fixture(scope="module")
def evolution_product():
    h0 = power_law_init(PROD, EDGES)
    return simulate(h0, PROD, K_PROD, CUT, 1.0, snapshot_times=SNAP_TIMES)


@pytest.fixture(scope="module")
def dual_setup():
    # tightly stepped forward run plus backward dual solves at two radii
    h0 = power_law_init(CONST, EDGES)
    traj = rescaled_trajectory(h0, CONST, K_CONST, CUT, 0.5, max_change=0.0025)
    fields = {R: solve_dual(traj, R, 0.5, max_change=0.0025) for R in (10.0, 100.0)}
    return h0, traj, fields


# --- exact zero-kernel baselines -------------------------------------------


def test_zero_kernel_stationary_profile_is_exact_power_law():
    # with no coagulation the stationary profile is the pure power law
    # (1 - rho) x^(-rho); sup relative cell error must be <= 1e-3 and the
    # search must finish inside a minute on the ~640-cell grid
    t0 = time.monotonic()
    res = find_stationary(CONST, zero_kernel(), CUT, edges=EDGES, tol=1e-5)
    elapsed = time.monotonic() - t0
    assert res.converged
    exact_cells = np.diff(EDGES ** (1.0 - CONST.rho))
    rel = np.abs(res.profile.cell_mass - exact_cells) / exact_cells
    assert rel.max() <= 1e-3
    assert abs(res.profile.tail_amplitude - 0.5) <= 1e-3 * 0.5
    assert elapsed < 60.0


def test_zero_kernel_evolution_matches_transport_closed_form():
    # pure rescaling drift has the closed form h(t, x) = e^(rho beta t)
    # h0(x e^(beta t)); compare cumulatives at t = 1 to 1e-3 relative,
    # above the radius where the datum's onset zone has drifted past
    p = CONST
    h0 = power_law_init(p, EDGES)
    res = simulate(h0, p, zero_kernel(), CUT, 1.0)
    radii = EDGES[(EDGES >= 2.0 * p.R0 * np.exp(-p.beta)) & (EDGES <= 1e6)]
    expect = np.exp(-p.beta * (1.0 - p.rho)) * cumulative_mass(h0, radii * np.exp(p.beta))
    got = cumulative_mass(res.final, radii)
    assert np.max(np.abs(got - expect) / expect) <= 1e-3


# --- fat-tail stationary profiles -------------------------------------------


def test_constant_kernel_stationary_tail_exponent_and_amplitude(stationary_constant):
    # converged profile's tail over [1e2, 1e4] must read exponent
    # rho +/- 0.02 and amplitude (1 - rho) within 5%, in under 10 minutes
    res, elapsed = stationary_constant
    assert res.converged
    assert abs(res.tail_exponent_fit - CONST.rho) <= 0.02
    assert abs(res.tail_amplitude_fit - 0.5) <= 0.05 * 0.5
    assert elapsed < 600.0


def test_product_kernel_stationary_tail_exponent_and_amplitude(stationary_product):
    res, elapsed = stationary_product
    assert res.converged
    assert abs(res.tail_exponent_fit - PROD.rho) <= 0.02
    assert abs(res.tail_amplitude_fit - 0.25) <= 0.05 * 0.25
    assert elapsed < 600.0


def test_stationary_search_starts_on_the_conserved_tail(stationary_constant, stationary_product):
    # the default datum already carries the tail amplitude at the top of
    # the grid, so the search does not wait for a deficit to drift down
    # it: at most 18 chunks (constant kernel) and 16 (product kernel),
    # against 28 and 20 from the lower-envelope datum
    assert len(stationary_constant[0].convergence_history) <= 18
    assert len(stationary_product[0].convergence_history) <= 16


# --- invariant envelopes and growth bound -----------------------------------


def _assert_envelopes(result, params):
    for m in result.snapshots:
        assert envelope_check_upper(m, params, slack=1e-2).ok
        assert envelope_check_lower(m, params, slack=1e-2).ok


def test_envelopes_invariant_constant_kernel(evolution_constant):
    # both cumulative envelopes hold with slack 1e-2 at ten times in [0, 1]
    _assert_envelopes(evolution_constant, CONST)


def test_envelopes_invariant_product_kernel(evolution_product):
    _assert_envelopes(evolution_product, PROD)


def test_cumulative_growth_within_gronwall_bound():
    # loss-free growth bound F(R, t) <= (1 + 1e-2) R^(1-rho) e^(beta rho t)
    # at every stored time and radius
    for params, kern in ((CONST, K_CONST), (PROD, K_PROD)):
        traj = rescaled_trajectory(power_law_init(params, EDGES), params, kern, CUT, 1.0)
        assert gronwall_check(traj, tol=1e-2).ok


# --- dual problem ------------------------------------------------------------


def test_adjoint_pairing_conserved_constant_kernel(dual_setup):
    # backward dual freezes the pairing: relative drift of
    # <h(t), psi(t)> against <h0, psi(0)> stays below 1e-3
    h0, traj, fields = dual_setup
    for R, field in fields.items():
        assert adjoint_consistency(traj, field) <= 1e-3


def test_adjoint_pairing_exact_zero_kernel():
    # without jumps the pairing identity is exact to roundoff
    h0 = power_law_init(CONST, EDGES)
    traj = rescaled_trajectory(h0, CONST, zero_kernel(), CUT, 0.5)
    for R in (10.0, 100.0):
        assert adjoint_consistency(traj, solve_dual(traj, R, 0.5)) <= 1e-12


def test_barrier_comparison_constant_found_by_bisection(dual_setup):
    # some finite M* <= 1e4 makes Psi(X, s) >= W((R - X) / (M (t-s))^(1/a))
    # - 1e-3 at every node and stored time
    _, _, fields = dual_setup
    for field in fields.values():
        m_star, report = find_m_star(field)
        assert np.isfinite(m_star) and m_star <= 1e4
        assert report.ok


# --- stable-law subsolution profile -----------------------------------------


def test_stable_cdf_matches_closed_form_at_half():
    # at a = 1/2 the profile is W(Y) = erfc(sqrt(pi / Y))
    prof = StableProfile(0.5)
    ys = np.geomspace(0.5, 5e3, 20)
    got = np.array([w_eval(prof, y) for y in ys])
    assert np.max(np.abs(got - erfc(np.sqrt(np.pi / ys)))) <= 1e-6


def test_stable_cdf_satisfies_defining_identity():
    # residual of the integro-differential identity defining W
    for a in (0.3, 0.5, 0.7):
        prof = StableProfile(a)
        for y in np.geomspace(3.0, 300.0, 10):
            assert t3e4_residual(prof, y) <= 1e-4


def test_stable_cdf_derivative_tail_decay_law():
    # W' decays like Y^(-1-a): pointwise constancy of Y^(1+a) W' within
    # 5% at a = 0.5; at a = 0.4 the slow Y^(-a) correction leaves only
    # the fitted log-log slope inside that band
    ys = np.geomspace(1e2, 1e4, 21)
    half = np.array([w_deriv(StableProfile(0.5), y) for y in ys]) * ys**1.5
    assert half.max() / half.min() - 1.0 <= 0.05
    d4 = np.array([w_deriv(StableProfile(0.4), y) for y in ys])
    slope = np.polyfit(np.log(ys), np.log(d4), 1)[0]
    assert abs(slope + 1.4) <= 0.05 * 1.4


def test_stable_cdf_laplace_round_trip():
    # integrating the profile back recovers the transform within 1e-5
    prof = StableProfile(0.5)
    for p in (0.5, 1.0, 2.0):

        def tail_integrand(Y):
            return np.exp(-p * Y) * (1.0 - w_eval(prof, Y))

        val, _ = integrate.quad(tail_integrand, 0.0, np.inf, limit=200, epsabs=1e-10)
        assert abs(1.0 / p - val - w_laplace(prof, p)) <= 1e-5 * w_laplace(prof, p)


# --- discrete structure -------------------------------------------------------


def test_pairing_identity_machine_exact_every_step(evolution_constant, evolution_product):
    # kernel loss and two-point deposits rearrange exactly: the relative
    # mismatch stays at roundoff (<= 1e-12) on every step of both runs
    assert evolution_constant.max_pairing_residual <= 1e-12
    assert evolution_product.max_pairing_residual <= 1e-12
    state = EvolutionState(power_law_init(CONST, EDGES), 0.0, CONST, K_CONST, CUT)
    resid, _ = rearrangement_residual(state, np.ones_like)
    assert resid <= 1e-12


def test_gain_deposits_nonnegative(evolution_constant):
    # the gain operator deposits nonnegative mass, exactly
    for m in (power_law_init(CONST, EDGES), evolution_constant.final):
        state = EvolutionState(m, 0.0, CONST, K_CONST, CUT)
        assert np.all(gain(state).cell_mass >= 0.0)


def test_refinement_self_convergence_first_order():
    # halving the grid spacing and the step cap together at least halves
    # the weighted-cumulative gap between consecutive solutions; checked
    # at t = 0.5, after the datum's onset kink (a transient first-order
    # feature) has smoothed out
    finals = []
    for ratio, mc in ((2**0.125, 0.04), (2**0.0625, 0.02), (2**0.03125, 0.01)):
        edges = geometric_grid(1e-4, 1e8, ratio)
        res = simulate(
            power_law_init(CONST, edges), CONST, K_CONST, CUT, 0.5, max_change=mc
        )
        finals.append(res.final)
    # probes denser than the finest lattice, so no gap falls between them
    radii = np.geomspace(1e-4, 1e8, 1921)
    weight = radii ** (1.0 - CONST.rho)
    F = [cumulative_mass(m, radii) for m in finals]
    d01 = np.max(np.abs(F[0] - F[1]) / weight)
    d12 = np.max(np.abs(F[1] - F[2]) / weight)
    assert d01 / d12 >= 2.0  # measured 2.68 (order 1.42)


# --- stationarity diagnostics -------------------------------------------------


def test_flux_residual_small_on_converged_profiles(
    stationary_constant, stationary_product, continuation
):
    # the stationarity residual (cumulative flux balance) stays below
    # 1e-2 at R in {10, 1e2, 1e3} on every converged profile produced
    # by the suite
    profiles = [stationary_constant[0], stationary_product[0], *continuation.results]
    for res in profiles:
        assert res.converged
        for R in (10.0, 100.0, 1000.0):
            assert abs(res.residual_decay0[R]) <= 1e-2


def test_cutoff_continuation_contracts(continuation):
    # weighted distances between stationary profiles at lambda = 1e-1,
    # 1e-2, 1e-3 decrease strictly, evidence of a lambda -> 0 limit
    d = continuation.distances
    assert len(d) == 2
    assert d[0] > d[1] > 0.0
