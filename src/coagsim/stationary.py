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
representatives with exact partial-cell masses, for a block of quadrature
points at a time.

Below the grid (and below the kernel cutoff) the stationary dynamics is
pure transport, whose only stationary density is C x^(-rho); the identity
is therefore evaluated with the cumulative closed below the grid by that
power continuation, with C read off the bottom cell.  Without the closure
the residual would measure grid truncation, ~ (x_min/R)^(1-rho), rather
than the equation.  Point densities and cell amplitudes follow the
power-law cell shape of the measure module (density_at,
GridMeasure.amplitudes).
"""

import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .forward import _Engine, _partners, _Stepper, simulate
from .kernel import CutoffParams, _z_power_terms, eval_regularized
from .kernel import eval_cutoff, eval_kernel  # noqa: F401  not called here; bench/trace_run.py wraps both
from .measure import (
    GridMeasure,
    cumulative_mass,
    density_at,
    dyadic_tail_integral,
    envelope_check_lower,
    envelope_check_upper,
    tail_matched_init,
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

# the search's chunk length in rescaled time, the tail-fit window and the
# envelope slack of its report
CHUNK = 0.5
FIT_WINDOW = (1e2, 1e4)
ENVELOPE_SLACK = 1e-2


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
        0 for a measure with no cell mass (its tail alone is not counted).
    """
    if not R > 0.0:
        raise ValueError("R must be > 0")
    if not np.any(profile.cell_mass > 0.0):
        return 0.0
    inner = _make_inner(profile, kernel, cutoff)
    half = 0.5 * R
    lo = R * 1e-9
    n = max(8, int(np.ceil(np.log10(half / lo) * n_per_decade)) + 1)
    grid = np.geomspace(lo, half, n)
    # near-R half: u = R - y is the small variable
    g_u = density_at(profile, R - grid) * inner(R - grid, grid)
    # near-0 half: y itself is the small variable
    g_y = density_at(profile, grid) * inner(grid, R - grid)
    return _log_int_with_stub(grid, g_u) + _log_int_with_stub(grid, g_y)


def _make_inner(profile, kernel, cutoff):
    """inner(ys, us): int_u^inf K(y, z)/z dmu(z) at each point (y, u)."""
    if cutoff is None:
        def inner(ys, us):
            return np.array([
                sum(coef * dyadic_tail_integral(profile, u, 1.0 - q) for coef, q in _z_power_terms(kernel, y))
                for y, u in zip(ys, us)
            ])

        return inner
    edges, reps, gpow = _partners(profile.edges, profile.tail_exponent, cutoff.lam)
    qpow = 1.0 - profile.tail_exponent
    base = np.concatenate([profile.cell_mass, profile.tail_amplitude * gpow])
    epow = edges**qpow

    lam = cutoff.lam

    def inner(ys, us):
        out = np.zeros(ys.size)
        for b in range(0, ys.size, 64):  # a 64 x partners temporary stays under 0.5 MB
            y, u = ys[b : b + 64, None], us[b : b + 64, None]
            if y.max() <= 0.5 * lam:
                continue  # zeta(y / lam) = 0
            # outside [k0, k1) a partner has no mass beyond u, sits at or
            # under lam/2, or lies outside the partner-ratio window of every
            # y (with a margin for rounding): its term is exactly 0
            z_lo = max(0.5 * lam, y.min() * lam / (2.0 - lam) * (1.0 - 1e-9))
            k0 = max(np.searchsorted(edges[1:], u.min(), side="right"), np.searchsorted(reps, z_lo, side="right"))
            k1 = np.searchsorted(reps, y.max() * (2.0 - lam) / lam * (1.0 + 1e-9), side="right")
            # exact power-shape mass of each cell beyond u
            e, p = edges[k0 : k1 + 1], epow[k0 : k1 + 1]
            frac = np.clip((p[1:] - np.maximum(u, e[:-1]) ** qpow) / (p[1:] - p[:-1]), 0.0, 1.0)
            # zeros elsewhere keep the row sum of every partner bit for bit
            terms = np.zeros((y.size, reps.size))
            k = eval_regularized(kernel, cutoff, y, reps[k0:k1])
            terms[:, k0:k1] = k / reps[k0:k1] * (base[k0:k1] * frac)
            out[b : b + 64] = np.sum(terms, axis=1)
        return out

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
    if profile.cell_mass[0] > 0.0:
        q = 1.0 - profile.tail_exponent
        F += profile.amplitudes[0] * profile.edges[0] ** q / q
    denom = p.beta * (1.0 - p.rho) * F
    if not denom > 0.0:
        return 0.0
    flux = gain_flux(profile, kernel, R, cutoff=cutoff, n_per_decade=n_per_decade)
    lhs = flux - p.beta * R * density_at(profile, R) + p.beta * (1.0 - p.rho) * F
    return lhs / denom


def tail_fit(profile):
    """Fit h(x) ~ A x^(-e) over FIT_WINDOW (1e2 to 1e4) from the cell masses.

    The exponent comes from least squares of log cell density against log
    position.  The amplitude is estimated at the nominal tail exponent of
    the profile (geometric mean of the cell amplitudes c_k), not from the
    free-fit intercept: over a few decades the intercept is so strongly
    anti-correlated with the fitted slope that even the exact stationary
    profile, whose local slope is still easing toward rho inside the
    window, would read several percent low.  Pure power data returns its
    exponent and amplitude to roundoff.

    Returns
    -------
    (exponent, amplitude) : tuple of floats
    """
    lo, hi = FIT_WINDOW
    el, er = profile.edges[:-1], profile.edges[1:]
    sel = (el >= lo) & (er <= hi) & (profile.cell_mass > 0.0)
    if np.count_nonzero(sel) < 3:
        raise ValueError("fit window covers fewer than 3 populated cells")
    x = np.sqrt(el[sel] * er[sel])
    dens = profile.cell_mass[sel] / (er[sel] - el[sel])
    slope, _ = np.polyfit(np.log(x), np.log(dens), 1)
    return -float(slope), float(np.exp(np.mean(np.log(profile.amplitudes[sel]))))


@dataclass
class StationaryResult:
    """Outcome of the long-time stationary search.

    distance_estimate is the a-posteriori bound kappa / (1 - kappa) times
    the last rate, with kappa the ratio of the last two rates: if the
    chunk map contracts by kappa per chunk, it bounds the X_rho distance
    from the profile to the fixed point, per unit chunk time (the units of
    the rate and of tol).  It is None with fewer than two chunks or when
    kappa >= 1.  It is recorded only; the stop rule reads the rate.

    n_steps, n_retries and max_pairing_residual are the search stepper's
    accepted steps, rejected trials and worst pairing residual over all
    chunks.
    """

    profile: GridMeasure
    lam: float
    converged: bool
    t_elapsed: float
    convergence_history: list
    distance_estimate: object
    residual_decay0: dict
    tail_exponent_fit: float
    tail_amplitude_fit: float
    envelope_upper: object
    envelope_lower: object
    origin_mass: float
    n_steps: int
    n_retries: int
    max_pairing_residual: float


def find_stationary(
    params,
    kernel,
    cutoff,
    edges=None,
    tol=1e-4,
    t_max=40.0,
    h0=None,
    max_change=0.05,
    probe_radii=None,
):
    """Evolve until Cauchy in X_rho; report the profile and diagnostics.

    The datum is advanced in chunks of CHUNK (0.5) rescaled time units;
    stationarity is declared when the X_rho distance per unit time
    between consecutive chunk ends drops below tol.  Hitting t_max first
    yields converged=False with the full history, never an exception.
    The tail is fitted over FIT_WINDOW (1e2 to 1e4), and both envelopes
    are checked with slack ENVELOPE_SLACK (1e-2).

    The default datum is tail_matched_init: above R0 it already carries
    the conserved tail (1 - rho) x^(-rho), so the search does not wait
    for a tail deficit to drift down from the top of the grid, as it does
    from power_law_init (constant kernel on the 638-cell grid: 18 chunks
    against 28).  h0 replaces it.

    Returns
    -------
    StationaryResult
    """
    h = h0 if h0 is not None else tail_matched_init(params, edges)
    stepper = _Stepper(_Engine(h.edges, params, kernel, cutoff), max_change=max_change)
    history = []
    origin = 0.0
    t = 0.0
    converged = False
    while t < t_max - 1e-9:
        dt = min(CHUNK, t_max - t)
        res = simulate(h, params, kernel, cutoff, dt, stepper=stepper)
        t += dt
        origin += res.origin_mass
        rate = xrho_dist(res.final, h) / dt
        history.append((t, rate))
        h = res.final
        if rate < tol:
            converged = True
            break
    estimate = None
    if len(history) >= 2 and history[-1][1] < history[-2][1]:
        kappa = history[-1][1] / history[-2][1]
        estimate = kappa / (1.0 - kappa) * history[-1][1]
    if probe_radii is None:
        probe_radii = [10.0**k for k in range(1, 5)]
    probe_radii = [R for R in probe_radii if h.edges[0] < R < h.edges[-1]]
    residuals = {
        R: decay0_residual(h, params, kernel, R, cutoff=cutoff) for R in probe_radii
    }
    exponent, amplitude = tail_fit(h)
    return StationaryResult(
        profile=h,
        lam=cutoff.lam,
        converged=converged,
        t_elapsed=t,
        convergence_history=history,
        distance_estimate=estimate,
        residual_decay0=residuals,
        tail_exponent_fit=exponent,
        tail_amplitude_fit=amplitude,
        envelope_upper=envelope_check_upper(h, params, slack=ENVELOPE_SLACK),
        envelope_lower=envelope_check_lower(h, params, slack=ENVELOPE_SLACK),
        origin_mass=origin,
        n_steps=stepper.n_steps,
        n_retries=stepper.n_retries,
        max_pairing_residual=stepper.max_pairing_residual,
    )


@dataclass
class ContinuationReport:
    """Stationary profiles along a decreasing cutoff sequence."""

    lambdas: tuple
    results: list
    distances: list


def _forked_map(fn, items):
    """[fn(x) for x in items], with the items dealt over one process per CPU.

    n is the number of CPUs this process may run on (os.sched_getaffinity;
    1 where that is missing), at most len(items) and at least 1.  The
    calling process keeps items[0::n] and forks n - 1 children, child k
    taking items[k::n]; should a fork fail, the shares left unforked run
    here after items[0::n].  Each child sends its list of results, or the
    exception it raised, pickled through a pipe and leaves with os._exit;
    a child's exception is raised again here.  Every child is killed and
    reaped before this returns or raises: one that has sent its share has
    only os._exit left to do.  With n = 1 nothing forks.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = max(1, min(len(items), cpus))
    pids, pipes = [], []
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _child(fn, items[k::n], r, w)
            pids.append(pid)
            os.close(w)
            pipes.append(os.fdopen(r, "rb"))
        here = [0] + list(range(len(pids) + 1, n))
        shares = {k: [fn(x) for x in items[k::n]] for k in here}
        for k, fh in enumerate(pipes, 1):
            shares[k] = _receive(fh)
    finally:
        for fh in pipes:
            fh.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    out = [None] * len(items)
    for k, share in shares.items():
        out[k::n] = share
    return out


def _child(fn, share, r, w):
    """A forked child's whole life: run its share, send it, exit."""
    try:
        os.close(r)
        try:
            payload = (True, [fn(x) for x in share])
        except BaseException as exc:  # sent to the parent, which raises it
            payload = (False, exc)
        with os.fdopen(w, "wb") as fh:
            pickle.dump(payload, fh)
    finally:
        os._exit(0)


def _receive(fh):
    """A child's results, read to EOF; its exception is raised instead."""
    data = fh.read()
    if not data:
        raise RuntimeError("a search process ended without sending its results")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def lambda_continuation(params, kernel, lambdas, cutoff=None, **kwargs):
    """Run find_stationary for each cutoff scale; report X_rho gaps.

    Each run uses the cutoff at that scale, with the switching profile of
    cutoff (default: cubic); cutoff's own lam is not used.  kwargs go to
    every find_stationary call.  Distances between consecutive profiles
    are reported, never asserted; a decreasing sequence is evidence of a
    weak limit as the cutoff is removed.

    The searches share nothing, so they run in parallel processes, at
    most one per CPU available to this process (os.sched_getaffinity),
    the calling process included; with one CPU, or where a fork fails,
    they run one after the other here.  The results are identical to
    those of the serial loop, and an exception raised in any search is
    raised here.

    Returns
    -------
    ContinuationReport
    """
    profile = cutoff.profile if cutoff is not None else "cubic"
    lams = [float(v) for v in lambdas]

    def search(lv):
        return find_stationary(params, kernel, CutoffParams(lam=lv, profile=profile), **kwargs)

    results = _forked_map(search, lams)
    distances = [xrho_dist(a.profile, b.profile) for a, b in zip(results[:-1], results[1:])]
    return ContinuationReport(lambdas=tuple(lams), results=results, distances=distances)
