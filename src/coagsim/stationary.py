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
products of the quadratic F, numpy only, carried only as far as the
step can use (Eisenstat-Walker forcing).  The profile is then
re-verified: the envelopes, the identity at several radii and the
fat-tail asymptotics h(x) ~ (1-rho) x^(-rho), read against the
acceptance gates as verdicts.  lambda_continuation chains the solve
along a cutoff sequence, each scale starting from the profile before.

The double integral I[h](R) has integrable endpoint singularities at both
y -> 0 and y -> R; gain_flux splits it at R/2 and integrates each half on
a logarithmic grid in the distance to its endpoint.  Without cutoffs the
kernel is a sum of power terms c y^p z^q (kernel._power_terms), so the
inner integral reduces to exact tail moments of order 1 - q of the
measure; with cutoffs it is summed over cell
representatives with exact partial-cell masses, for a block of quadrature
points at a time, computing the ratio cutoffs and the partial-cell
fractions only on the partners where some point of the block has them
below 1; the ratio cutoffs' band skip is kernel._ratio_cutoffs, which the
engine's static weights share.

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

from .forward import _Engine, _partners
from .forward import simulate  # noqa: F401  bench/trace_run.py wraps stationary.simulate
from .kernel import CutoffParams, _partner_ratio, _power_terms, _ratio_cutoffs, eval_cutoff, eval_kernel
from .measure import (
    GridMeasure,
    _xrho_sup,
    cumulative_mass,
    density_at,
    dyadic_tail_integral,
    envelope_check_lower,
    envelope_check_upper,
    xrho_dist,
)

# the tail-fit window, the envelope slack and the flux identity's radii
# (those strictly inside the grid) of the search's report; the flux
# quadrature's outer points per decade
FIT_WINDOW = (1e2, 1e4)
ENVELOPE_SLACK = 1e-2
PROBE_RADII = (1e1, 1e2, 1e3, 1e4)
N_PER_DECADE = 64
# quadrature points per block of the flux's inner sums, whose kernel,
# cutoffs and partial-cell fractions are evaluated once (64 x window); and
# the points of a block summed at a time over every partner (16 x
# partners).  One flux residual on the acceptance grid peaks at 0.34 /
# 0.46 / 0.57 MiB of traced allocations at lam = 0.1 / 1e-2 / 1e-3, against
# 0.65 / 0.75 / 0.83 MiB with a block's 64 points summed at once
FLUX_BLOCK = 64
FLUX_ROWS = 16
# the pseudo-transient solve: its cap on steps tried, its first pseudo-time
# step, GMRES's cap on iterations (one Arnoldi cycle, no restarts), and the
# floor and cap of the forcing term, GMRES's relative tolerance
PTC_MAX_ITER = 100
DTAU0 = 1.0
KRYLOV_MAX_ITER = 60
KRYLOV_RTOL = 1e-3
KRYLOV_RTOL_MAX = 0.1
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
        Probe radius: finite and > 0, and with a cutoff below the grid's
        top edge, since the cell-representative sums take partners only
        out to the top cell's partner reach.  Any other R raises
        ValueError.
    cutoff : CutoffParams or None
        With a cutoff the regularized kernel is used (cell-representative
        sums); without, the inner integral is an exact tail moment.

    Returns
    -------
    float
        0 for a measure with no cell mass (its tail alone is not counted).
    """
    _check_radius(profile, R, cutoff)
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


def _check_radius(profile, R, cutoff):
    """Raise ValueError for a radius gain_flux cannot evaluate."""
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be finite and > 0, got R = {R}")
    if cutoff is not None and not R < profile.edges[-1]:
        raise ValueError(f"with a cutoff R must lie below the top edge {profile.edges[-1]}, got R = {R}")


def _make_inner(profile, kernel, cutoff):
    """inner(ys, us): int_u^inf K(y, z)/z dmu(z) at each point (y, u)."""
    if cutoff is None:
        def inner(ys, us):
            return np.array([
                sum(c * y**p * dyadic_tail_integral(profile, u, 1.0 - q) for c, p, q in _power_terms(kernel))
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
        # one zeroed FLUX_ROWS x partners buffer for every chunk of rows:
        # each row is summed over every partner, the zeros beside its
        # block's window included, which keeps every sum bit for bit
        rows = np.zeros((min(FLUX_ROWS, ys.size), reps.size))
        for b in range(0, ys.size, FLUX_BLOCK):
            y, u = ys[b : b + FLUX_BLOCK, None], us[b : b + FLUX_BLOCK, None]
            if y.max() <= 0.5 * lam:
                continue  # zeta(y / lam) = 0
            # outside [k0, k1) a partner has no mass beyond u, sits at or
            # under lam/2, or lies outside the partner-ratio window of every
            # y (with a margin for rounding): its term is exactly 0
            z_lo = max(0.5 * lam, y.min() / _partner_ratio(lam) * (1.0 - 1e-9))
            k0 = max(np.searchsorted(edges[1:], u.min(), side="right"), np.searchsorted(reps, z_lo, side="right"))
            k1 = np.searchsorted(reps, y.max() * _partner_ratio(lam) * (1.0 + 1e-9), side="right")
            z = reps[k0:k1]
            # eval_regularized's product, factor by factor in its order
            k = eval_kernel(kernel, y, z)
            k *= eval_cutoff(y / lam)
            k *= eval_cutoff(z / lam)
            _ratio_cutoffs(k, y, z, lam)
            k /= z
            # exact power-shape mass of each cell beyond u, in place; from
            # the first edge at or above every u on, that mass is the whole
            # cell's, its fraction exactly 1
            kc = k0 + np.searchsorted(edges[k0:k1], u.max())
            frac = np.maximum(u, edges[k0:kc])
            frac **= qpow
            np.subtract(epow[k0 + 1 : kc + 1], frac, out=frac)
            frac /= epow[k0 + 1 : kc + 1] - epow[k0:kc]
            np.clip(frac, 0.0, 1.0, out=frac)
            frac *= base[k0:kc]
            for r in range(0, y.size, FLUX_ROWS):
                kr = k[r : r + FLUX_ROWS]
                n = len(kr)
                np.multiply(kr[:, : kc - k0], frac[r : r + n], out=rows[:n, k0:kc])
                np.multiply(kr[:, kc - k0 :], base[kc:k1], out=rows[:n, kc:k1])
                out[b + r : b + r + n] = np.sum(rows[:n], axis=1)
            rows[:, k0:k1] = 0.0
        return out

    return inner


def decay0_residual(profile, params, kernel, R, cutoff=None):
    """Signed defect of the stationary flux identity at R, normalized.

    Evaluates I[h](R) - beta R h(R) + beta (1-rho) F(R) over
    beta (1-rho) F(R), with F closed below the grid by the power
    continuation of the transport-stationary dead zone (amplitude from
    the bottom cell).  Degenerate profiles with no mass below R return 0.
    A profile whose tail exponent is not params.rho, or an R that
    gain_flux does not accept, raises ValueError.

    Returns
    -------
    float
    """
    p = params
    if profile.tail_exponent != p.rho:
        raise ValueError("params.rho disagrees with the profile's tail exponent")
    _check_radius(profile, R, cutoff)
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

    The profile is the pseudo-transient solve's zero of the semi-discrete
    stationary equation, or, when converged is False, its last accepted
    iterate with every cell positive (see find_stationary).  t_elapsed is
    the pseudo-time summed over the accepted steps, and
    convergence_history lists (pseudo-time, X_rho norm of F) at the start
    and after each accepted step: F is the rate of the semi-discrete flow
    at the profile, so its norm is an X_rho distance per unit of rescaled
    time, in the units of tol.

    ptc_iterations counts the pseudo-transient steps tried, rejected
    ones included, krylov_iterations the GMRES iterations of their linear
    solves, each solved to the forcing term of _PseudoTransient (between
    KRYLOV_RTOL and KRYLOV_RTOL_MAX), and rates_calls every _Engine.rates
    evaluation of the search (the residuals and Jacobian products).
    max_pairing_residual is the pairing residual of the rates at the
    profile returned.

    verdicts holds the acceptance gates at their tolerances, each True
    when it passes: "tail_exponent" (within EXPONENT_GATE of rho),
    "tail_amplitude" (within AMPLITUDE_GATE of 1 - rho, relative),
    "flux_residual" (|residual_decay0| at most FLUX_GATE at every radius
    checked) and "envelopes" (both envelope checks ok).
    """

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
    verdicts: dict
    ptc_iterations: int
    krylov_iterations: int
    rates_calls: int
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
    every term cancels and G is exactly 0.  That needs a_i formed as
    (m_i / w_i) (1 - rho), exactly 1 - rho at m = w, not in the order of
    GridMeasure.amplitudes, m_i (1 - rho) / w_i, which misses 1 - rho in
    114 of the 638 acceptance-grid cells at rho = 0.1 and in 82 at
    rho = 0.9.  At a fixed ghost amplitude G is quadratic in m.

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
        of G as a measure without tail (measure._xrho_sup)."""
        return float(_xrho_sup(np.cumsum(G), self.E[1:], 0.0))

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


def _gmres(product, precondition, b, rtol):
    """Solve product(x) = b to rtol relative by GMRES.

    rtol is the forcing term of the pseudo-transient step that calls it
    (_PseudoTransient), between KRYLOV_RTOL and KRYLOV_RTOL_MAX.

    Right-preconditioned GMRES (Saad & Schultz, SIAM J. Sci. Stat.
    Comput. 7, 1986), one cycle of at most KRYLOV_MAX_ITER iterations
    without restarts: the Arnoldi process on product(precondition(.)),
    orthogonalizing by classical Gram-Schmidt twice, keeps the
    least-squares problem triangular by Givens rotations.  Returns
    (x, iterations); x is the last iterate, whether or not it met the
    tolerance, and 0 when b is.
    """
    n = KRYLOV_MAX_ITER
    beta = float(np.linalg.norm(b))
    target = rtol * beta
    if beta <= target:
        return np.zeros_like(b), 0
    V = np.empty((n + 1, b.size))
    V[0] = b / beta
    R = np.zeros((n, n))
    g, rotations = [beta], []
    k = 0
    while k < n:
        w = product(precondition(V[k]))
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
    return precondition(y @ V[:k]), k


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
    doubles, is rejected and cuts dtau by four.  GMRES stops at the
    forcing term eta of inexact Newton (Eisenstat & Walker, SIAM J. Sci.
    Comput. 17, 1996), not at a fixed tolerance: eta starts at
    KRYLOV_RTOL_MAX, and an accepted step that takes the scaled norm from
    |G_old| to |G_new| sets it to 0.9 (|G_new| / |G_old|)^2, their choice
    2, clipped to [KRYLOV_RTOL, KRYLOV_RTOL_MAX] (with this cap their
    safeguard never acts); a rejected step leaves it.  Iterates may have
    nonpositive cells: G is a polynomial in m, and on the way to a
    positive zero the centred drift's transients cross 0 (at
    (gamma, rho) = (0, 0.9), refusing them pins cells near 1e-94 and the
    solve stalls).  The zero must be positive, and so is every iterate
    that solve returns short of one.

    iterations counts the steps tried, krylov_iterations their GMRES
    iterations; history and tau are those of StationaryResult, pairing
    the pairing residual at the masses solve returns.
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

        Returns (masses, converged): the zero and True, or, when
        PTC_MAX_ITER steps do not get there or the zero found has a
        nonpositive cell, the last accepted iterate whose cells are all
        positive (at worst m itself) and False.
        """
        res = self.residual
        G, A, self.pairing = res(m)
        kept = m
        norm = res.scaled_norm(G)
        self.history.append((0.0, res.xrho_norm(G)))
        dtau, eta = DTAU0, KRYLOV_RTOL_MAX
        with np.errstate(over="ignore", invalid="ignore"):
            while not self.history[-1][1] < tol:
                if self.iterations == PTC_MAX_ITER:
                    return kept, False
                self.iterations += 1
                trial = m + self._step(m, G, A, dtau, eta)
                G_t, A_t, pairing = res(trial)
                norm_t = res.scaled_norm(G_t)
                if not norm_t <= 2.0 * norm:
                    dtau *= 0.25
                    continue
                self.tau += dtau
                if norm_t > 0.0:
                    dtau *= norm / norm_t
                    eta = min(KRYLOV_RTOL_MAX, max(KRYLOV_RTOL, 0.9 * (norm_t / norm) ** 2))
                m, G, A, norm = trial, G_t, A_t, norm_t
                if np.all(m > 0.0):
                    kept, self.pairing = m, pairing
                self.history.append((self.tau, res.xrho_norm(G)))
        return kept, bool(np.all(m > 0.0))

    def _step(self, m, G, A, dtau, eta):
        """The step d of one linear solve at pseudo-time step dtau, to
        relative tolerance eta."""
        res = self.residual
        diag = (1.0 / dtau + res.drift_diag) + np.maximum(A + res.grow, 0.0)
        factor = _tridiagonal_factor(res.lower, diag, res.upper)
        x, iterations = _gmres(
            lambda z: z / dtau + res.product(m, z),
            lambda r: _tridiagonal_solve(factor, r),
            -G / res.w,
            eta,
        )
        self.krylov_iterations += iterations
        return res.w * x


def _verdicts(params, exponent, amplitude, residuals, upper, lower):
    """StationaryResult.verdicts from the fits, flux residuals and
    envelope reports."""
    q = 1.0 - params.rho
    return {
        "tail_exponent": bool(abs(exponent - params.rho) <= EXPONENT_GATE),
        "tail_amplitude": bool(abs(amplitude - q) <= AMPLITUDE_GATE * q),
        "flux_residual": bool(residuals) and all(abs(v) <= FLUX_GATE for v in residuals.values()),
        "envelopes": bool(upper.ok and lower.ok),
    }


def find_stationary(
    params,
    kernel,
    cutoff,
    edges,
    tol=1e-4,
    start=None,
):
    """Solve for the stationary profile; report it and its diagnostics.

    The profile is a zero of the semi-discrete stationary equation
    F(m) = -A(m) m + Q(m) + beta (-m + D(m)) on edges, with the rates at
    rescaled time 0, the conserved tail (1 - rho) x^(-rho) above the grid
    and the centred drift D (_Residual).  Pseudo-transient continuation
    (_PseudoTransient) finds it from start's cell masses, or from the pure
    power law (1 - rho) x^(-rho) when start is None, and stops once the
    X_rho norm of F, the flow's distance per unit time, is below tol.

    If that takes more than PTC_MAX_ITER steps, or ends on a zero with a
    nonpositive cell, the search yields converged=False, never an
    exception, and reports the last accepted iterate whose cells are all
    positive (at worst the start).

    The tail is fitted over FIT_WINDOW (1e2 to 1e4), both envelopes are
    checked with slack ENVELOPE_SLACK (1e-2), and the flux identity at the
    PROBE_RADII (the powers of ten from 10 to 1e4) strictly inside the
    grid; verdicts reads them against the acceptance gates, and the flux
    verdict fails on a grid that holds none of them.  A grid with fewer
    than 3 cells inside FIT_WINDOW is refused with a ValueError before
    any solve.

    Returns
    -------
    StationaryResult
    """
    if start is not None and (start.tail_exponent != params.rho or start.cell_mass.shape != (edges.size - 1,)):
        raise ValueError("start must have the grid's cell count and tail exponent params.rho")
    lo, hi = FIT_WINDOW
    if np.count_nonzero((edges[:-1] >= lo) & (edges[1:] <= hi)) < 3:
        raise ValueError(f"fit window [{lo:g}, {hi:g}] covers fewer than 3 cells of grid [{edges[0]:g}, {edges[-1]:g}]")
    eng = _Engine(edges, params, kernel, cutoff)
    residual = _Residual(eng, edges)
    ptc = _PseudoTransient(residual)
    masses, converged = ptc.solve(residual.w.copy() if start is None else start.cell_mass, tol)
    h = GridMeasure(edges, masses, 1.0 - params.rho, params.rho)
    residuals = {
        R: decay0_residual(h, params, kernel, R, cutoff=cutoff) for R in PROBE_RADII if edges[0] < R < edges[-1]
    }
    exponent, amplitude = tail_fit(h)
    upper = envelope_check_upper(h, params, slack=ENVELOPE_SLACK)
    lower = envelope_check_lower(h, params, slack=ENVELOPE_SLACK)
    return StationaryResult(
        profile=h,
        lam=cutoff.lam,
        converged=converged,
        t_elapsed=ptc.tau,
        convergence_history=ptc.history,
        residual_decay0=residuals,
        tail_exponent_fit=exponent,
        tail_amplitude_fit=amplitude,
        envelope_upper=upper,
        envelope_lower=lower,
        verdicts=_verdicts(params, exponent, amplitude, residuals, upper, lower),
        ptc_iterations=ptc.iterations,
        krylov_iterations=ptc.krylov_iterations,
        rates_calls=eng.rates_calls,
        max_pairing_residual=ptc.pairing,
    )


@dataclass
class ContinuationReport:
    """Stationary profiles along a decreasing cutoff sequence."""

    lambdas: tuple
    results: list
    distances: list


def lambda_continuation(params, kernel, lambdas, edges, tol=1e-4):
    """Run find_stationary at each cutoff scale in turn; report X_rho gaps.

    Each run uses CutoffParams(lam), the cutoff at that scale, on edges to
    tol, and starts from the profile of the scale before it (the first
    from find_stationary's default start), in one process.  A scale that
    CutoffParams refuses, or whose partners overflow a float on the grid
    (_partners), is refused with a ValueError before the first search.
    Distances between consecutive profiles are reported, never asserted;
    a decreasing sequence is evidence of a weak limit as the cutoff is
    removed.

    Returns
    -------
    ContinuationReport
    """
    cutoffs = [CutoffParams(lam=float(v)) for v in lambdas]
    for cutoff in cutoffs:
        _partners(edges, params.rho, cutoff.lam)
    results = []
    for cutoff in cutoffs:
        start = results[-1].profile if results else None
        results.append(find_stationary(params, kernel, cutoff, edges=edges, tol=tol, start=start))
    distances = [xrho_dist(a.profile, b.profile) for a, b in zip(results[:-1], results[1:])]
    return ContinuationReport(lambdas=tuple(c.lam for c in cutoffs), results=results, distances=distances)
