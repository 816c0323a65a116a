"""Stationary profiles by a pseudo-transient Newton-Krylov solve, and
their flux diagnostics.

A stationary profile of the rescaled equation balances coagulation against
the rescaling drift.  Integrating the stationary equation over (0, R] gives
the flux identity

    I[h](R) - beta R h(R) - beta (rho - 1) F(R) = 0,
    I[h](R) = int_0^R dy h(y) int_{R-y}^inf K(y, z)/z h(z) dz,

where F is the cumulative mass.  find_stationary solves the
semi-discrete stationary equation F(m) = -A(m) m + Q(m) + beta (-m + D(m))
= 0 for the cell masses m, with the forward engine's rates and a centred
drift D, by pseudo-transient continuation: linearly implicit pseudo-time
steps, each a matrix-free GMRES solve on the exact two-call Jacobian
products of the quadratic F, numpy only.  Should that fail, the long-time
march (evolving an envelope-interior datum until the trajectory is
Cauchy in the X_rho metric) takes over.  Either way the profile is then
re-verified: the envelopes, the identity at several radii and the
fat-tail asymptotics h(x) ~ (1-rho) x^(-rho), read against the
acceptance gates as verdicts.  lambda_continuation chains the solve
along a cutoff sequence, each scale starting from the profile before.

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

import math
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
    geometric_grid,
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
# envelope slack of its report; the flux quadrature's outer points per
# decade
CHUNK = 0.5
FIT_WINDOW = (1e2, 1e4)
ENVELOPE_SLACK = 1e-2
N_PER_DECADE = 64
# quadrature points per block of the flux's inner sums: a block's arrays,
# 32 x partners and four 32 x window, take about 0.6 MB on the
# acceptance grid at lam = 1e-3
FLUX_BLOCK = 32
# the pseudo-transient solve: its cap on steps tried, its first pseudo-time
# step, and GMRES's restart length, cycles and relative tolerance
PTC_MAX_ITER = 40
DTAU0 = 1.0
KRYLOV_RESTART = 60
KRYLOV_CYCLES = 3
KRYLOV_RTOL = 1e-3
# the acceptance gates of verdicts: |tail exponent - rho|, |tail amplitude
# / (1 - rho) - 1| and |flux residual| at each radius checked
EXPONENT_GATE = 0.02
AMPLITUDE_GATE = 0.05
FLUX_GATE = 1e-2


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


def gain_flux(profile, kernel, R, cutoff=None):
    """Coagulation mass flux across R, the double integral I[h](R).

    Each half is integrated on an outer log grid of N_PER_DECADE (64)
    points per decade.

    Parameters
    ----------
    profile : GridMeasure
    kernel : KernelSpec
    R : float
        Probe radius, > 0.
    cutoff : CutoffParams or None
        With a cutoff the regularized kernel is used (cell-representative
        sums); without, the inner integral is an exact tail moment.

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
    n = max(8, int(np.ceil(np.log10(half / lo) * N_PER_DECADE)) + 1)
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
        # one zeroed terms array for every block: zeros beside each block's
        # partners keep the row sum of every partner bit for bit
        terms = np.zeros((min(FLUX_BLOCK, ys.size), reps.size))
        for b in range(0, ys.size, FLUX_BLOCK):
            y, u = ys[b : b + FLUX_BLOCK, None], us[b : b + FLUX_BLOCK, None]
            if y.max() <= 0.5 * lam:
                continue  # zeta(y / lam) = 0
            # outside [k0, k1) a partner has no mass beyond u, sits at or
            # under lam/2, or lies outside the partner-ratio window of every
            # y (with a margin for rounding): its term is exactly 0
            z_lo = max(0.5 * lam, y.min() * lam / (2.0 - lam) * (1.0 - 1e-9))
            k0 = max(np.searchsorted(edges[1:], u.min(), side="right"), np.searchsorted(reps, z_lo, side="right"))
            k1 = np.searchsorted(reps, y.max() * (2.0 - lam) / lam * (1.0 + 1e-9), side="right")
            k = eval_regularized(kernel, cutoff, y, reps[k0:k1])
            k /= reps[k0:k1]
            # exact power-shape mass of each cell beyond u, in place
            frac = np.maximum(u, edges[k0:k1])
            frac **= qpow
            np.subtract(epow[k0 + 1 : k1 + 1], frac, out=frac)
            frac /= epow[k0 + 1 : k1 + 1] - epow[k0:k1]
            np.clip(frac, 0.0, 1.0, out=frac)
            frac *= base[k0:k1]
            block = terms[: y.size]
            np.multiply(k, frac, out=block[:, k0:k1])
            out[b : b + FLUX_BLOCK] = np.sum(block, axis=1)
            block[:, k0:k1] = 0.0
        return out

    return inner


def decay0_residual(profile, params, kernel, R, cutoff=None):
    """Signed defect of the stationary flux identity at R, normalized.

    Evaluates I[h](R) - beta R h(R) + beta (1-rho) F(R) over
    beta (1-rho) F(R), with F closed below the grid by the power
    continuation of the transport-stationary dead zone (amplitude from
    the bottom cell).  Degenerate profiles with no mass below R return 0.
    A profile whose tail exponent is not params.rho raises ValueError.

    Returns
    -------
    float
    """
    p = params
    if profile.tail_exponent != p.rho:
        raise ValueError("params.rho disagrees with the profile's tail exponent")
    F = cumulative_mass(profile, R)
    if profile.cell_mass[0] > 0.0:
        q = 1.0 - profile.tail_exponent
        F += profile.amplitudes[0] * profile.edges[0] ** q / q
    denom = p.beta * (1.0 - p.rho) * F
    if not denom > 0.0:
        return 0.0
    flux = gain_flux(profile, kernel, R, cutoff=cutoff)
    lhs = flux - p.beta * R * density_at(profile, R) + p.beta * (1.0 - p.rho) * F
    return lhs / denom


def tail_fit(profile):
    """Fit h(x) ~ A x^(-e) over FIT_WINDOW (1e2 to 1e4) from the cell masses.

    The exponent is the least-squares slope of log cell density against
    log position, in closed form about the centred means
    (sum dx dy / sum dx^2): np.polyfit's slope to 1e-14, without starting
    LAPACK.  The amplitude is estimated at the nominal tail exponent of
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
    lx = np.log(np.sqrt(el[sel] * er[sel]))
    ly = np.log(profile.cell_mass[sel] / (er[sel] - el[sel]))
    dx = lx - np.mean(lx)
    slope = np.dot(dx, ly - np.mean(ly)) / np.dot(dx, dx)
    return -float(slope), float(np.exp(np.mean(np.log(profile.amplitudes[sel]))))


@dataclass
class StationaryResult:
    """Outcome of the stationary search.

    solver names what produced the profile: "ptc", the pseudo-transient
    solve of the semi-discrete stationary equation, or "march", the
    long-time evolution it falls back to (see find_stationary).  Under
    "ptc", t_elapsed is the pseudo-time summed over the accepted steps,
    and convergence_history lists (pseudo-time, X_rho norm of F) at the
    start and after each accepted step: F is the rate of the
    semi-discrete flow at the profile, so its norm is an X_rho distance
    per unit time, in the units of the march's rate and of tol.  Under
    "march", t_elapsed is the rescaled time simulated, and
    convergence_history lists (t, X_rho distance per unit time between
    consecutive chunk ends) after each chunk.

    distance_estimate is kappa / (1 - kappa) times the last rate of the
    history, with kappa the ratio of its last two rates: if the solver
    contracts by kappa per entry, it bounds the X_rho distance from the
    profile to the fixed point, in the units of the rate and of tol.  It
    is None with fewer than two entries or when kappa >= 1.  It is
    recorded only; the stop rules read the rate.

    ptc_iterations counts the pseudo-transient steps tried, rejected
    ones included, krylov_iterations the GMRES iterations of their linear
    solves, and rates_calls every _Engine.rates evaluation of the search
    (the pseudo-transient residuals and Jacobian products, then the
    march's steps if it ran).  n_steps, n_retries and origin_mass are the
    march's accepted steps, rejected trials and mass let out through the
    bottom edge, all 0 under "ptc".  max_pairing_residual is the worst
    pairing residual of the rates at the states the solver accepted: the
    march's steps, or the profile that "ptc" returns.

    verdicts holds the acceptance gates at their tolerances, each True
    when it passes: "tail_exponent" (within EXPONENT_GATE of rho),
    "tail_amplitude" (within AMPLITUDE_GATE of 1 - rho, relative),
    "flux_residual" (|residual_decay0| at most FLUX_GATE at every radius
    checked) and "envelopes" (both envelope checks ok).
    """

    profile: GridMeasure
    lam: float
    solver: str
    converged: bool
    t_elapsed: float
    convergence_history: list
    distance_estimate: object
    residual_decay0: dict
    tail_exponent_fit: float
    tail_amplitude_fit: float
    envelope_upper: object
    envelope_lower: object
    verdicts: dict
    origin_mass: float
    ptc_iterations: int
    krylov_iterations: int
    rates_calls: int
    n_steps: int
    n_retries: int
    max_pairing_residual: float


class _Residual:
    """G(m) = -F(m) = A(m) m - Q(m) + beta (m - D(m)) on one engine.

    A and Q are _Engine.rates at rescaled time 0, with the conserved ghost
    amplitude 1 - rho above the grid; A includes the -beta rho growth.  D
    is the drift's centred edge-flux difference.  With the cell
    amplitudes a_i = (1 - rho) m_i / w_i, where w_i = e_(i+1)^(1-rho) -
    e_i^(1-rho) is the cell mass of the pure power law (1 - rho) x^(-rho),
    the drift carries e_i^(1-rho) (a_(i-1) + a_i) / 2 down through edge
    e_i, with a_(-1) = a_0 below the grid and the ghost amplitude above
    it; both closures are exact on a pure power tail.  Since
    a_i w_i = (1 - rho) m_i, m - D = rho m - c with
    c_i = ((a_(i+1) - a_i) e_(i+1)^(1-rho) - (a_(i-1) - a_i) e_i^(1-rho)) / 2,
    the form evaluated here: on the pure power law under the zero kernel
    every term cancels and G is exactly 0.  At a fixed ghost amplitude G
    is quadratic in m.

    The scaled variables are m / w.  drift_diag, lower and upper are the
    drift's part of the scaled preconditioner (row i divided by w_i,
    column j multiplied by w_j): its diagonal, sub-diagonal (rows 1..) and
    super-diagonal (rows ..N-2).
    """

    def __init__(self, engine, edges):
        p = engine.params
        self.engine = engine
        self.beta, self.grow = p.beta, p.beta * p.rho
        self.q = q = 1.0 - p.rho
        self.E = E = edges**q
        self.w = w = np.diff(E)
        half = 0.5 * self.beta * q
        self.drift_diag = np.full(w.size, half)
        self.drift_diag[0] = half * E[1] / w[0]
        self.lower = half * E[1:-1] / w[1:]
        self.upper = -half * E[1:-1] / w[:-1]

    def __call__(self, m):
        """(G, A, pairing residual of the rates) at cell masses m."""
        q, E = self.q, self.E
        A, Q, _, _, pairing = self.engine.rates(m, q, 0.0)
        a = m / self.w * q
        ends = np.concatenate(([a[0]], a, [q]))
        c = 0.5 * ((ends[2:] - a) * E[1:] - (ends[:-2] - a) * E[:-1])
        return A * m - Q + self.grow * m - self.beta * c, A, pairing

    def product(self, m, z):
        """The scaled Jacobian product (G'(m) (w z)) / w, from two calls.

        G is quadratic in m, so the central difference
        (G(m + e w z) - G(m - e w z)) / (2 e) is exact for every e; e
        moves the largest scaled entry by one power-law cell mass.
        """
        e = 1.0 / max(float(np.max(np.abs(z))), 1e-300)
        v = (e * self.w) * z
        return (self(m + v)[0] - self(m - v)[0]) / (2.0 * e * self.w)

    def xrho_norm(self, G):
        """sup over the edges of |cumulative G| / R^(1-rho): the X_rho norm
        of G as a measure without tail (xrho_norm's form, which needs no
        sign)."""
        return float(np.max(np.abs(np.cumsum(G)) / self.E[1:]))

    def scaled_norm(self, G):
        """The 2-norm of G / w, which the step control reads."""
        return float(np.linalg.norm(G / self.w))


def _tridiagonal_factor(lower, diag, upper):
    """Elimination of the tridiagonal matrix with sub-diagonal lower
    (rows 1..), diagonal diag and super-diagonal upper (rows ..n-2), for
    _tridiagonal_solve.  It does not pivot: the preconditioner's
    off-diagonal products are negative, so every pivot is at least its
    diagonal entry, which is positive."""
    lo, up, piv = lower.tolist(), upper.tolist(), diag.tolist()
    mult = []
    for i in range(1, len(piv)):
        mult.append(lo[i - 1] / piv[i - 1])
        piv[i] -= mult[-1] * up[i - 1]
    return mult, up, piv


def _tridiagonal_solve(factor, rhs):
    """The solution x of the factored system for the right-hand side rhs."""
    mult, up, piv = factor
    x = rhs.tolist()
    for i in range(1, len(x)):
        x[i] -= mult[i - 1] * x[i - 1]
    x[-1] /= piv[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = (x[i] - up[i] * x[i + 1]) / piv[i]
    return np.array(x)


def _gmres(product, precondition, b):
    """Solve product(x) = b to KRYLOV_RTOL relative by restarted GMRES.

    Right-preconditioned GMRES(KRYLOV_RESTART) (Saad & Schultz, SIAM J.
    Sci. Stat. Comput. 7, 1986), at most KRYLOV_CYCLES cycles: each runs
    the Arnoldi process on product(precondition(.)), orthogonalizing by
    classical Gram-Schmidt twice, and keeps the least-squares problem
    triangular by Givens rotations.  Returns (x, iterations); x is the
    last iterate, whether or not it met the tolerance.
    """
    n = KRYLOV_RESTART
    x = np.zeros_like(b)
    target = KRYLOV_RTOL * float(np.linalg.norm(b))
    r, iterations = b, 0
    for _ in range(KRYLOV_CYCLES):
        beta = float(np.linalg.norm(r))
        if beta <= target:
            break
        V = np.empty((n + 1, b.size))
        V[0] = r / beta
        R = np.zeros((n, n))
        g, rotations = [beta], []
        k = 0
        while k < n:
            w = product(precondition(V[k]))
            iterations += 1
            h = V[: k + 1] @ w
            w -= h @ V[: k + 1]
            dh = V[: k + 1] @ w
            w -= dh @ V[: k + 1]
            hn = float(np.linalg.norm(w))
            col = (h + dh).tolist() + [hn]
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            d = math.hypot(col[k], col[k + 1])
            if d == 0.0:
                break
            c, s = col[k] / d, col[k + 1] / d
            rotations.append((c, s))
            col[k] = d
            R[: k + 1, k] = col[: k + 1]
            g.append(-s * g[k])
            g[k] *= c
            k += 1
            if abs(g[k]) <= target or hn == 0.0:
                break
            V[k] = w / hn
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - R[i, i + 1 : k] @ y[i + 1 :]) / R[i, i]
        x = x + precondition(y @ V[:k])
        if abs(g[k]) <= target:
            break
        r = b - product(x)
    return x, iterations


class _PseudoTransient:
    """Pseudo-transient continuation for G(m) = 0 (Kelley & Keyes, SIAM J.
    Numer. Anal. 35, 1998; Knoll & Keyes, J. Comput. Phys. 193, 2004).

    Each step solves (I / dtau + G'(m)) d = -G(m) by _gmres in the scaled
    variables, on _Residual.product, right-preconditioned by
    1 / dtau + diag(A) plus the drift's tridiagonal part (A's kernel part
    clipped at 0, so that every pivot is positive).  dtau starts at DTAU0
    and follows switched evolution relaxation: an accepted step
    multiplies it by the ratio of the scaled residual norms before and
    after.  A step whose scaled residual norm is not finite, or more than
    doubles, is rejected and cuts dtau by four.  Iterates may have
    nonpositive cells: G is a polynomial in m, and on the way to a
    positive zero the centred drift's transients cross 0 (at
    (gamma, rho) = (0, 0.9), refusing them pins cells near 1e-94 and the
    solve stalls).  The profile returned must be positive.

    iterations counts the steps tried, krylov_iterations their GMRES
    iterations; history, tau and pairing are those of StationaryResult.
    """

    def __init__(self, residual):
        self.residual = residual
        self.iterations = 0
        self.krylov_iterations = 0
        self.history = []
        self.tau = 0.0
        self.pairing = 0.0

    def solve(self, m, tol):
        """Step from masses m until the X_rho norm of G is below tol.

        Returns the masses, or None when PTC_MAX_ITER steps do not get
        there or the zero found has a nonpositive cell.
        """
        res = self.residual
        G, A, self.pairing = res(m)
        norm = res.scaled_norm(G)
        self.history.append((0.0, res.xrho_norm(G)))
        dtau = DTAU0
        with np.errstate(over="ignore", invalid="ignore"):
            while not self.history[-1][1] < tol:
                if self.iterations == PTC_MAX_ITER:
                    return None
                self.iterations += 1
                trial = m + self._step(m, G, A, dtau)
                G_t, A_t, pairing = res(trial)
                norm_t = res.scaled_norm(G_t)
                if not norm_t <= 2.0 * norm:
                    dtau *= 0.25
                    continue
                self.tau += dtau
                if norm_t > 0.0:
                    dtau *= norm / norm_t
                m, G, A, norm, self.pairing = trial, G_t, A_t, norm_t, pairing
                self.history.append((self.tau, res.xrho_norm(G)))
        return m if np.all(m > 0.0) else None

    def _step(self, m, G, A, dtau):
        """The step d of one linear solve at pseudo-time step dtau."""
        res = self.residual
        diag = (1.0 / dtau + res.drift_diag) + np.maximum(A + res.grow, 0.0)
        factor = _tridiagonal_factor(res.lower, diag, res.upper)
        x, iterations = _gmres(
            lambda z: z / dtau + res.product(m, z),
            lambda r: _tridiagonal_solve(factor, r),
            -G / res.w,
        )
        self.krylov_iterations += iterations
        return res.w * x


def _march(h, stepper, params, kernel, cutoff, tol, t_max):
    """The long-time search from datum h: (profile, converged, t,
    history, origin mass), as StationaryResult reads them under "march".

    The datum is advanced in chunks of CHUNK (0.5) rescaled time units;
    stationarity is declared when the X_rho distance per unit time
    between consecutive chunk ends drops below tol.  Hitting t_max first
    returns converged False with the full history.
    """
    history = []
    origin = 0.0
    t = 0.0
    while t < t_max - 1e-9:
        dt = min(CHUNK, t_max - t)
        res = simulate(h, params, kernel, cutoff, dt, stepper=stepper)
        t += dt
        origin += res.origin_mass
        rate = xrho_dist(res.final, h) / dt
        history.append((t, rate))
        h = res.final
        if rate < tol:
            return h, True, t, history, origin
    return h, False, t, history, origin


def _verdicts(params, exponent, amplitude, residuals, upper, lower):
    """StationaryResult.verdicts from the fits, flux residuals and
    envelope reports."""
    q = 1.0 - params.rho
    return {
        "tail_exponent": bool(abs(exponent - params.rho) <= EXPONENT_GATE),
        "tail_amplitude": bool(abs(amplitude - q) <= AMPLITUDE_GATE * q),
        "flux_residual": all(abs(v) <= FLUX_GATE for v in residuals.values()),
        "envelopes": bool(upper.ok and lower.ok),
    }


def find_stationary(
    params,
    kernel,
    cutoff,
    edges=None,
    tol=1e-4,
    t_max=40.0,
    max_change=0.05,
    probe_radii=None,
    start=None,
):
    """Solve for the stationary profile; report it and its diagnostics.

    The profile is a zero of the semi-discrete stationary equation
    F(m) = -A(m) m + Q(m) + beta (-m + D(m)) on edges (default:
    geometric_grid()), with the rates at rescaled time 0, the conserved
    tail (1 - rho) x^(-rho) above the grid and the centred drift D
    (_Residual).  Pseudo-transient continuation (_PseudoTransient) finds
    it from start's cell masses, or from the pure power law
    (1 - rho) x^(-rho) when start is None, and stops once the X_rho norm
    of F, the flow's distance per unit time, is below tol: the march's
    stop rule, read at the profile itself.

    If that takes more than PTC_MAX_ITER steps, or ends on a profile with
    a nonpositive cell, the long-time march takes over, from
    tail_matched_init, on the same engine: it advances in chunks of CHUNK
    (0.5) rescaled time, each stepped with the change cap max_change,
    until the X_rho distance per unit time between chunk ends is below
    tol; reaching t_max first yields converged=False, never an
    exception.  t_max and max_change bound this fallback only.

    The tail is fitted over FIT_WINDOW (1e2 to 1e4), both envelopes are
    checked with slack ENVELOPE_SLACK (1e-2), and the flux identity at the
    probe_radii strictly inside the grid, by default the powers of ten
    from 10 to 1e4; verdicts reads them against the acceptance gates.

    Returns
    -------
    StationaryResult
    """
    if edges is None:
        edges = geometric_grid()
    if start is not None and (start.tail_exponent != params.rho or start.cell_mass.shape != (edges.size - 1,)):
        raise ValueError("start must have the grid's cell count and tail exponent params.rho")
    eng = _Engine(edges, params, kernel, cutoff)
    residual = _Residual(eng, edges)
    ptc = _PseudoTransient(residual)
    masses = ptc.solve(residual.w.copy() if start is None else start.cell_mass, tol)
    if masses is not None:
        h = GridMeasure(edges, masses, 1.0 - params.rho, params.rho)
        solver, converged, t, history, origin = "ptc", True, ptc.tau, ptc.history, 0.0
        n_steps, n_retries, pairing = 0, 0, ptc.pairing
    else:
        stepper = _Stepper(eng, max_change=max_change)
        h, converged, t, history, origin = _march(
            tail_matched_init(params, edges), stepper, params, kernel, cutoff, tol, t_max
        )
        solver, n_steps, n_retries, pairing = "march", stepper.n_steps, stepper.n_retries, stepper.max_pairing_residual
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
    upper = envelope_check_upper(h, params, slack=ENVELOPE_SLACK)
    lower = envelope_check_lower(h, params, slack=ENVELOPE_SLACK)
    return StationaryResult(
        profile=h,
        lam=cutoff.lam,
        solver=solver,
        converged=converged,
        t_elapsed=t,
        convergence_history=history,
        distance_estimate=estimate,
        residual_decay0=residuals,
        tail_exponent_fit=exponent,
        tail_amplitude_fit=amplitude,
        envelope_upper=upper,
        envelope_lower=lower,
        verdicts=_verdicts(params, exponent, amplitude, residuals, upper, lower),
        origin_mass=origin,
        ptc_iterations=ptc.iterations,
        krylov_iterations=ptc.krylov_iterations,
        rates_calls=eng.rates_calls,
        n_steps=n_steps,
        n_retries=n_retries,
        max_pairing_residual=pairing,
    )


@dataclass
class ContinuationReport:
    """Stationary profiles along a decreasing cutoff sequence."""

    lambdas: tuple
    results: list
    distances: list


def lambda_continuation(params, kernel, lambdas, **kwargs):
    """Run find_stationary at each cutoff scale in turn; report X_rho gaps.

    Each run uses CutoffParams(lam), the cutoff at that scale, and starts
    from the profile of the scale before it (the first from
    find_stationary's default start), in one process.  kwargs go to
    every find_stationary call, except cutoff, which is refused with a
    TypeError before any search, and start, which the chain sets.
    Distances between consecutive profiles are reported, never asserted;
    a decreasing sequence is evidence of a weak limit as the cutoff is
    removed.

    Returns
    -------
    ContinuationReport
    """
    if "cutoff" in kwargs:
        raise TypeError("lambda_continuation() takes its cutoff scales as lambdas, not cutoff")
    lams = [float(v) for v in lambdas]
    results = []
    for lv in lams:
        start = results[-1].profile if results else None
        results.append(find_stationary(params, kernel, CutoffParams(lam=lv), start=start, **kwargs))
    distances = [xrho_dist(a.profile, b.profile) for a, b in zip(results[:-1], results[1:])]
    return ContinuationReport(lambdas=tuple(lams), results=results, distances=distances)
