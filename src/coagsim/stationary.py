"""Stationary profiles by long-time evolution, and their flux diagnostics.

A stationary profile of the rescaled equation balances coagulation against
the rescaling drift.  Integrating the stationary equation over (0, R] gives
the flux identity

    I[h](R) - beta R h(R) - beta (rho - 1) F(R) = 0,
    I[h](R) = int_0^R dy h(y) int_{R-y}^inf K(y, z)/z h(z) dz,

where F is the cumulative mass.  find_stationary searches for such a
profile by evolving an envelope-interior datum until the trajectory is
Cauchy in the X_rho metric, then re-verifies the envelopes, the identity
at several radii and the fat-tail asymptotics h(x) ~ (1-rho) x^(-rho).

The double integral I[h](R) has integrable endpoint singularities at both
y -> 0 and y -> R; gain_flux splits it at R/2 and integrates each half on
a logarithmic grid in the distance to its endpoint.  Without cutoffs each
kernel family is a sum of powers of z, so the inner integral reduces to
exact tail moments of the measure; with cutoffs it is summed over cell
representatives with exact partial-cell masses.

Below the grid (and below the kernel cutoff) the stationary dynamics is
pure transport, whose only stationary density is C x^(-rho); the identity
is therefore evaluated with the cumulative closed below the grid by that
power continuation, with C read off the bottom cell.  Without the closure
the residual would measure grid truncation, ~ (x_min/R)^(1-rho), rather
than the equation.
"""

from dataclasses import dataclass, replace

import numpy as np

from .forward import _ghost_partners, simulate
from .kernel import CutoffParams, eval_regularized
from .kernel import eval_cutoff, eval_kernel  # noqa: F401  not called here; bench/trace_run.py wraps both
from .measure import (
    GridMeasure,
    cumulative_mass,
    dyadic_tail_integral,
    envelope_check_lower,
    envelope_check_upper,
    power_law_init,
    xrho_dist,
)

__all__ = [
    "StationaryResult",
    "ContinuationReport",
    "density_at",
    "gain_flux",
    "decay0_residual",
    "find_stationary",
    "tail_fit",
    "lambda_continuation",
]


def density_at(m, x):
    """Pointwise density of a grid measure, power-shape within cells.

    Inside cell k the density is c_k x^(-rho) with c_k matching the cell
    mass; beyond the top edge it is the analytic tail; below the grid it
    is zero.  Accepts scalars or arrays.
    """
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


def _z_power_terms(kernel, y):
    """K(y, z) as a list of (coefficient(y), z-exponent) terms."""
    if kernel.family == "constant":
        return [(kernel.value, 0.0)]
    if kernel.family == "product":
        g2 = 0.5 * kernel.gamma
        return [(y**g2, g2)]
    if kernel.family == "sum":
        a, g = kernel.alpha, kernel.gamma
        return [(y**a, g - a), (y ** (g - a), a)]
    return []


def _log_int_with_stub(x, g):
    """Integral of g over (0, x[-1]] from log-spaced samples.

    Composite trapezoid of g(x) x in log x, plus the power-extrapolated
    stub below x[0] (the integrand is a local power there).
    """
    total = float(np.trapezoid(g * x, np.log(x)))
    if g[0] > 0.0 and g[1] > 0.0:
        p = np.log(g[1] / g[0]) / np.log(x[1] / x[0])
        if p > -1.0 + 1e-9:
            total += g[0] * x[0] / (1.0 + p)
    return total


def gain_flux(profile, kernel, R, cutoff=None, n_per_decade=64):
    """Coagulation mass flux across R, the double integral I[h](R).

    Parameters
    ----------
    profile : GridMeasure
    kernel : KernelSpec
    R : float
        Probe radius, > 0.
    cutoff : CutoffParams or None
        With a cutoff the regularized kernel is used (cell-representative
        sums); without, the inner integral is an exact tail moment.
    n_per_decade : int
        Outer log-grid resolution.

    Returns
    -------
    float
    """
    if not R > 0.0:
        raise ValueError("R must be > 0")
    if kernel.family == "zero" or not np.any(profile.cell_mass > 0.0):
        return 0.0
    inner = _make_inner(profile, kernel, cutoff)
    half = 0.5 * R
    lo = R * 1e-9
    n = max(8, int(np.ceil(np.log10(half / lo) * n_per_decade)) + 1)
    grid = np.geomspace(lo, half, n)
    # near-R half: u = R - y is the small variable
    g_u = density_at(profile, R - grid) * np.array([inner(R - u, u) for u in grid])
    # near-0 half: y itself is the small variable
    g_y = density_at(profile, grid) * np.array([inner(y, R - y) for y in grid])
    return _log_int_with_stub(grid, g_u) + _log_int_with_stub(grid, g_y)


def _make_inner(profile, kernel, cutoff):
    if cutoff is None:
        def inner(y, u):
            return sum(
                coef * dyadic_tail_integral(profile, u, 1.0 - q)
                for coef, q in _z_power_terms(kernel, y)
            )

        return inner
    gedges, _, gpow = _ghost_partners(profile.edges, profile.tail_exponent, cutoff.lam)
    qpow = 1.0 - profile.tail_exponent
    edges = np.concatenate([profile.edges, gedges[1:]])
    reps = np.sqrt(edges[:-1] * edges[1:])
    base = np.concatenate([profile.cell_mass, profile.tail_amplitude * gpow])
    epow = edges**qpow

    def inner(y, u):
        # exact power-shape mass of each cell beyond u
        cut_at = np.maximum(u, edges[:-1]) ** qpow
        frac = np.clip((epow[1:] - cut_at) / (epow[1:] - epow[:-1]), 0.0, 1.0)
        mb = base * frac
        k = eval_regularized(kernel, cutoff, y, reps)
        return float(np.sum(k / reps * mb))

    return inner


def decay0_residual(profile, params, kernel, R, cutoff=None, n_per_decade=64):
    """Signed defect of the stationary flux identity at R, normalized.

    Evaluates I[h](R) - beta R h(R) + beta (1-rho) F(R) over
    beta (1-rho) F(R), with F closed below the grid by the power
    continuation of the transport-stationary dead zone (amplitude from
    the bottom cell).  Degenerate profiles with no mass below R return 0.

    Returns
    -------
    float
    """
    p = params
    F = cumulative_mass(profile, R)
    if profile.n_cells > 0 and profile.cell_mass[0] > 0.0:
        q = 1.0 - profile.tail_exponent
        c0 = profile.cell_mass[0] * q / (profile.edges[1] ** q - profile.edges[0] ** q)
        F += c0 * profile.edges[0] ** q / q
    denom = p.beta * (1.0 - p.rho) * F
    if not denom > 0.0:
        return 0.0
    flux = gain_flux(profile, kernel, R, cutoff=cutoff, n_per_decade=n_per_decade)
    lhs = flux - p.beta * R * density_at(profile, R) + p.beta * (1.0 - p.rho) * F
    return lhs / denom


def tail_fit(profile, fit_window=(1e2, 1e4)):
    """Fit h(x) ~ A x^(-e) over a window from the cell masses.

    The exponent comes from least squares of log cell density against log
    position.  The amplitude is estimated at the nominal tail exponent of
    the profile (geometric mean of the per-cell amplitudes m_k q / d(x^q),
    q = 1 - rho), not from the free-fit intercept: over a few decades the
    intercept is so strongly anti-correlated with the fitted slope that
    even the exact stationary profile, whose local slope is still easing
    toward rho inside the window, would read several percent low.  Pure
    power data returns its exponent and amplitude to roundoff.

    Returns
    -------
    (exponent, amplitude) : tuple of floats
    """
    lo, hi = fit_window
    el, er = profile.edges[:-1], profile.edges[1:]
    sel = (el >= lo) & (er <= hi) & (profile.cell_mass > 0.0)
    if np.count_nonzero(sel) < 3:
        raise ValueError("fit window covers fewer than 3 populated cells")
    x = np.sqrt(el[sel] * er[sel])
    dens = profile.cell_mass[sel] / (er[sel] - el[sel])
    slope, _ = np.polyfit(np.log(x), np.log(dens), 1)
    q = 1.0 - profile.tail_exponent
    local_amp = profile.cell_mass[sel] * q / (er[sel] ** q - el[sel] ** q)
    return -float(slope), float(np.exp(np.mean(np.log(local_amp))))


@dataclass
class StationaryResult:
    """Outcome of the long-time stationary search."""

    profile: GridMeasure
    lam: float
    converged: bool
    t_elapsed: float
    convergence_history: list
    residual_decay0: dict
    tail_exponent_fit: float
    tail_amplitude_fit: float
    envelope_upper: object
    envelope_lower: object
    origin_mass: float


def find_stationary(
    params,
    kernel,
    edges=None,
    tol=1e-4,
    t_max=40.0,
    chunk=0.5,
    h0=None,
    max_change=0.05,
    probe_radii=None,
    fit_window=(1e2, 1e4),
    envelope_slack=1e-2,
    cutoff=None,
):
    """Evolve until Cauchy in X_rho; report the profile and diagnostics.

    The datum (power_law_init unless h0 is given) is advanced in chunks;
    stationarity is declared when the X_rho distance per unit time
    between consecutive chunk ends drops below tol.  Hitting t_max first
    yields converged=False with the full history, never an exception.
    cutoff defaults to the cubic profile at params.lam; a given cutoff
    must have lam == params.lam.

    Returns
    -------
    StationaryResult
    """
    cutoff = cutoff if cutoff is not None else CutoffParams(lam=params.lam)
    if cutoff.lam != params.lam:
        raise ValueError(f"cutoff.lam = {cutoff.lam} must equal params.lam = {params.lam}")
    h = h0 if h0 is not None else power_law_init(params, edges)
    history = []
    origin = 0.0
    t = 0.0
    converged = False
    while t < t_max - 1e-9:
        dt = min(chunk, t_max - t)
        res = simulate(h, params, kernel, cutoff, dt, max_change=max_change)
        t += dt
        origin += res.origin_mass
        rate = xrho_dist(res.final, h, params) / dt
        history.append((t, rate))
        h = res.final
        if rate < tol:
            converged = True
            break
    if probe_radii is None:
        probe_radii = [10.0**k for k in range(1, 5)]
    probe_radii = [R for R in probe_radii if h.edges[0] < R < h.edges[-1]]
    residuals = {
        R: decay0_residual(h, params, kernel, R, cutoff=cutoff) for R in probe_radii
    }
    exponent, amplitude = tail_fit(h, fit_window)
    return StationaryResult(
        profile=h,
        lam=params.lam,
        converged=converged,
        t_elapsed=t,
        convergence_history=history,
        residual_decay0=residuals,
        tail_exponent_fit=exponent,
        tail_amplitude_fit=amplitude,
        envelope_upper=envelope_check_upper(h, params, slack=envelope_slack),
        envelope_lower=envelope_check_lower(h, params, slack=envelope_slack),
        origin_mass=origin,
    )


@dataclass
class ContinuationReport:
    """Stationary profiles along a decreasing cutoff sequence."""

    lambdas: tuple
    results: list
    distances: list


def lambda_continuation(params, kernel, lambdas, edges=None, cutoff=None, **kwargs):
    """Run find_stationary for each cutoff scale; report X_rho gaps.

    Each run replaces lam in both params and cutoff (default: the cubic
    profile).  Distances between consecutive profiles are reported, never
    asserted; a decreasing sequence is evidence of a weak limit as the
    cutoff is removed.

    Returns
    -------
    ContinuationReport
    """
    cutoff = cutoff if cutoff is not None else CutoffParams(lam=params.lam)
    results = [
        find_stationary(replace(params, lam=lv), kernel, edges=edges, cutoff=replace(cutoff, lam=lv), **kwargs)
        for lv in map(float, lambdas)
    ]
    distances = [
        xrho_dist(a.profile, b.profile, params)
        for a, b in zip(results[:-1], results[1:])
    ]
    return ContinuationReport(lambdas=tuple(float(v) for v in lambdas),
                              results=results, distances=distances)
