"""Forward evolution of the coagulation equation in self-similar variables.

The rescaled density H(X, t) on a geometric grid evolves by

    dH/dt = -A(X, t) H + Q[H](X, t),

    A(X, t) = int K_lam(X e^(-bt), Z e^(-bt)) / Z * H(Z, t) dZ - beta rho,
    Q[H](X, t) = int_0^X K_lam(Y e^(-bt), (X-Y) e^(-bt)) / (X-Y)
                 * H(X-Y, t) H(Y, t) dY,

with b = beta the rescaling rate.  Homogeneity factors the kernel as
K(Y e^(-s), Z e^(-s)) = e^(-gamma s) K(Y, Z) and the ratio cutoffs are
scale-invariant, so the pair matrix K(Y_i, Y_j) * zeta_ratio is static; only
the scalar e^(-gamma s) and the small-size cutoff vector change per step.

Each step applies the exact exponential update with frozen coefficients,
H+ = H e^(-A dt) + Q (1 - e^(-A dt))/A, in predictor-corrector form: the
rates are re-evaluated at the predicted endpoint and the update repeated
with the averaged A and Q (second order, and still unconditionally
nonnegativity-preserving since the averages are nonnegative).  Gain from
a cell pair is deposited at the representative
sum P = Y_i + Y_j, split between the two bracketing representatives so that
both mass and first moment are conserved; deposits beyond the top
representative accumulate in an overflow ledger.  Partners beyond the grid
top (up to the cutoff's partner-ratio bound) are synthesized from the
analytic tail amplitude as loss-only ghost cells, and their pair gain also
goes to the overflow ledger.

The pair operator is built once here: _ghost_partners synthesizes the tail
partners and _ratio_kernel the static part of the regularized kernel, which
the dual tables and the flux residual share; _Engine.pair_weights gives the
loss rates and pair weights to rates and rearrangement_residual.

Long runs restart the rescaled frame periodically: after a frame of duration
T the variables are mapped back to physical scale (an exact index shift when
beta T is an integer number of cells, a two-cell power-law split otherwise),
mass leaving through the bottom edge accumulates in an origin ledger, and
vacated top cells are refilled from the tail extension.  The tail amplitude
needs no fitting: coagulation shuts off at X -> inf (the partner-ratio
cutoff leaves no partners), so the far tail is pure drift, the X-frame
amplitude grows by exactly e^(beta rho T) within a frame, and the map-back
divides the same factor out; the physical tail amplitude is a conserved
boundary condition.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .kernel import eval_cutoff, eval_kernel
from .measure import GridMeasure

logger = logging.getLogger(__name__)


class IntegrationError(RuntimeError):
    """Step-size control failed to meet the accuracy target."""


@dataclass(frozen=True)
class EvolutionState:
    """Snapshot of the rescaled density within one frame.

    measure holds the X-variable masses; t is the rescaled time elapsed
    since the frame epoch (physical sizes are X e^(-beta t)).
    """

    measure: GridMeasure
    t: float
    params: object
    kernel: object
    cutoff: object


@dataclass
class Trajectory:
    """Stored evolution of one rescaled frame (no frame restarts).

    masses[k] are the X-frame cell masses at times[k]; linear
    interpolation between stored steps is the sanctioned accuracy model
    for consumers (the dual solver and barrier checks).
    """

    edges: np.ndarray
    times: np.ndarray
    masses: np.ndarray
    amps: np.ndarray
    params: object
    kernel: object
    cutoff: object
    diagnostics: dict = field(default_factory=dict)

    @property
    def t_final(self):
        return float(self.times[-1])

    def measure_at(self, k):
        return GridMeasure(self.edges, self.masses[k], float(self.amps[k]), self.params.rho)

    def interp(self, s):
        """Linearly interpolated (masses, amplitude) at rescaled time s."""
        ts = self.times
        if not (ts[0] - 1e-12 <= s <= ts[-1] + 1e-12):
            raise ValueError(f"time {s} outside stored range [{ts[0]}, {ts[-1]}]")
        s = min(max(s, ts[0]), ts[-1])
        k = min(np.searchsorted(ts, s, side="right") - 1, ts.size - 2)
        w = (s - ts[k]) / (ts[k + 1] - ts[k])
        return (1.0 - w) * self.masses[k] + w * self.masses[k + 1], (1.0 - w) * self.amps[
            k
        ] + w * self.amps[k + 1]


@dataclass
class SimulationResult:
    """Outcome of a chunked physical-variable run."""

    times: list
    snapshots: list
    final: GridMeasure
    origin_mass: float
    overflow_mass: float
    overflow_moment: float
    n_steps: int
    n_retries: int
    max_pairing_residual: float
    params: object
    kernel: object
    cutoff: object


def _partner_ratio(lam):
    """Largest partner ratio Z/Y on the support of the ratio cutoffs."""
    return (2.0 - lam) / lam


def _ghost_partners(edges, rho, lam):
    """Loss-only tail cells continuing the grid out to the partner-ratio
    bound of its top cell: (edges, representatives, mass per unit tail
    amplitude)."""
    r = edges[1] / edges[0]
    n_ghost = int(np.ceil(np.log(_partner_ratio(lam)) / np.log(r))) + 2
    gedges = edges[-1] * r ** np.arange(n_ghost + 1)
    one_m_rho = 1.0 - rho
    return gedges, np.sqrt(gedges[:-1] * gedges[1:]), np.diff(gedges**one_m_rho) / one_m_rho


def _ratio_kernel(kernel, cutoff, Y, Z):
    """K(Y, Z) zeta(Y / (lam (Y+Z))) zeta(Z / (lam (Y+Z))), static under rescaling."""
    lam = cutoff.lam
    tot = Y + Z
    return (
        eval_kernel(kernel, Y, Z)
        * eval_cutoff(cutoff, Y / (lam * tot))
        * eval_cutoff(cutoff, Z / (lam * tot))
    )


class _Engine:
    """Static pair tables for one grid/kernel/cutoff combination."""

    def __init__(self, edges, params, kernel, cutoff):
        self.edges = edges
        self.params = params
        self.kernel = kernel
        self.cutoff = cutoff
        self.N = edges.size - 1
        self.Y = np.sqrt(edges[:-1] * edges[1:])
        _, self.Yg, self.ghost_pow = _ghost_partners(edges, params.rho, cutoff.lam)
        self.Yall = np.concatenate([self.Y, self.Yg])
        self.trivial = kernel.family == "zero"
        if self.trivial:
            return
        self.B = _ratio_kernel(kernel, cutoff, self.Y[:, None], self.Yall[None, :])
        # deposit brackets: P between representatives Y[k] <= P < Y[k+1]
        P = (self.Y[:, None] + self.Y[None, :]).ravel()
        k = np.searchsorted(self.Y, P, side="right") - 1
        self.sink = k >= self.N - 1
        k_in = np.where(self.sink, 0, k)
        self.lo = k_in
        self.hi = k_in + 1
        with np.errstate(invalid="ignore"):
            f = (self.Y[self.hi] - P) / (self.Y[self.hi] - self.Y[self.lo])
        self.f = np.where(self.sink, 0.0, f)
        self.P = P

    def cutoff_vector(self, s):
        """Small-size cutoff at rescaled time s for all partners."""
        lam_eff = self.cutoff.lam * np.exp(self.params.beta * s)
        return eval_cutoff(self.cutoff, self.Yall / lam_eff)

    def pair_weights(self, masses, amp, s):
        """(Lk, W, Wg) at time s: per-unit-mass kernel loss rates and the
        ordered pair weights with real partners and with ghost partners."""
        N = self.N
        p = self.params
        u = self.cutoff_vector(s)
        m_all = np.concatenate([masses, amp * self.ghost_pow])
        v = u * m_all / self.Yall
        esc = np.exp(-p.gamma * p.beta * s)
        Lk = esc * u[:N] * (self.B @ v)
        a_vec = esc * u[:N] * masses
        # Wg before W: this allocation order lets the heap be reused across
        # calls instead of being trimmed and page-faulted back each time
        Wg = a_vec[:, None] * (self.B[:, N:] * v[None, N:])
        W = a_vec[:, None] * (self.B[:, :N] * v[None, :N])
        return Lk, W, Wg

    def rates(self, masses, amp, s):
        """Frozen-coefficient rates at time s.

        Returns (A, Q, sink_rate, sink_moment_rate, pairing_residual):
        per-unit-mass net loss A_i (including the -beta rho drift), gain
        deposit rates Q_i, the overflow rates, and the relative mismatch
        between kernel loss and total deposits (machine-level identity).
        """
        N = self.N
        p = self.params
        if self.trivial:
            A = np.full(N, -p.beta * p.rho)
            return A, np.zeros(N), 0.0, 0.0, 0.0
        Lk, W, Wg = self.pair_weights(masses, amp, s)
        A = Lk - p.beta * p.rho
        w = W.ravel()
        live = ~self.sink
        Q = np.bincount(self.lo[live], w[live] * self.f[live], minlength=N) + np.bincount(
            self.hi[live], w[live] * (1.0 - self.f[live]), minlength=N
        )
        sink_rate = float(np.sum(w[self.sink]))
        sink_moment = float(np.sum(w[self.sink] * self.P[self.sink]))
        # ghost partners: every deposit lands beyond the grid
        g_rate = float(np.sum(Wg))
        g_moment = float(np.sum(Wg * (self.Y[:, None] + self.Yg[None, :])))
        loss_total = float(np.sum(Lk * masses))
        dep_total = float(np.sum(Q)) + sink_rate + g_rate
        resid = abs(loss_total - dep_total) / max(loss_total, 1e-300)
        return A, Q, sink_rate + g_rate, sink_moment + g_moment, resid


def _exp_update(masses, A, Q, dt):
    """Exact frozen-coefficient update; positivity-preserving."""
    x = A * dt
    decay = np.exp(-x)
    small = np.abs(x) < 1e-8
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = -np.expm1(-x) / A
    phi = np.where(small, dt * (1.0 - 0.5 * x), phi)
    return masses * decay + phi * Q


class _Stepper:
    """Adaptive frozen-coefficient stepping within one frame."""

    def __init__(self, engine, max_change=0.05, mass_floor_frac=1e-12):
        self.engine = engine
        self.max_change = max_change
        self.mass_floor_frac = mass_floor_frac
        self.n_steps = 0
        self.n_retries = 0
        self.max_pairing_residual = 0.0
        self.sink_mass = 0.0
        self.sink_moment = 0.0

    def run(self, masses, amp, s0, s1, record=None):
        """Advance masses from rescaled time s0 to s1; returns masses."""
        eng = self.engine
        if eng.trivial:
            # pure drift: the update is exact for any step size; a modest
            # cadence is kept so trajectories sample intermediate times
            n_seg = max(1, int(np.ceil((s1 - s0) / 0.1)))
            ds = (s1 - s0) / n_seg
            growth = np.exp(eng.params.beta * eng.params.rho * ds)
            for k in range(n_seg):
                masses = masses * growth
                self.n_steps += 1
                if record is not None:
                    record(s0 + (k + 1) * ds, masses)
            return masses
        s = s0
        dt = None
        grow = eng.params.beta * eng.params.rho
        while s < s1 - 1e-14 * max(1.0, abs(s1)):
            # beyond the partner-ratio reach the dynamics is pure drift, so
            # the X-frame tail amplitude at time s is the frame-start value
            # grown by exp(beta rho (s - s0))
            A, Q, sink_r, sink_mom_r, resid = eng.rates(
                masses, amp * np.exp(grow * (s - s0)), s
            )
            self.max_pairing_residual = max(self.max_pairing_residual, resid)
            a_max = float(np.max(np.abs(A)))
            cap = 0.5 / a_max if a_max > 0.0 else np.inf
            dt = cap if dt is None else min(1.2 * dt, cap)
            dt = min(dt, s1 - s)
            floor = self.mass_floor_frac * max(float(np.sum(masses)), 1e-300)
            for attempt in range(60):
                # exponential Heun: predict with frozen rates, re-evaluate at
                # the endpoint, correct with the averaged coefficients.  The
                # averages stay nonnegative, so positivity is unconditional,
                # and the endpoint balancing removes the first-order defect
                # that would otherwise bleed mass out of every cell at a
                # constant rate (a log-growing flux bias at stationarity).
                pred = _exp_update(masses, A, Q, dt)
                A2, Q2, sink_r2, sink_mom_r2, resid2 = eng.rates(
                    pred, amp * np.exp(grow * (s + dt - s0)), s + dt
                )
                trial = _exp_update(
                    masses, 0.5 * (A + A2), 0.5 * (Q + Q2), dt
                )
                scale = np.maximum(masses, floor)
                change = float(np.max(np.abs(trial - masses) / scale))
                if change <= self.max_change:
                    break
                dt *= 0.5
                self.n_retries += 1
            else:
                raise IntegrationError(
                    f"step size collapsed at s={s:.6g} (change={change:.3g}, dt={dt:.3g})"
                )
            self.max_pairing_residual = max(self.max_pairing_residual, resid2)
            masses = trial
            self.sink_mass += dt * 0.5 * (sink_r + sink_r2)
            self.sink_moment += dt * 0.5 * (sink_mom_r + sink_mom_r2)
            s += dt
            self.n_steps += 1
            if record is not None:
                record(s, masses)
        return masses


def loss_rate(state, X):
    """Net per-unit-mass loss rate A(X, t) at an arbitrary size X > 0.

    Midpoint quadrature over the measure's cells plus tail ghost cells out
    to the partner-ratio bound, beyond which the regularized kernel
    vanishes identically.

    Parameters
    ----------
    state : EvolutionState
    X : float

    Returns
    -------
    float
    """
    if not X > 0.0:
        raise ValueError("X must be > 0")
    p = state.params
    m = state.measure
    cutoff = state.cutoff
    if state.kernel.family == "zero":
        return -p.beta * p.rho
    _, Yg, gpow = _ghost_partners(m.edges, p.rho, cutoff.lam)
    Yall = np.concatenate([m.reps, Yg])
    lam_eff = cutoff.lam * np.exp(p.beta * state.t)
    u = eval_cutoff(cutoff, Yall / lam_eff)
    m_all = np.concatenate([m.cell_mass, m.tail_amplitude * gpow])
    row = _ratio_kernel(state.kernel, cutoff, X, Yall)
    esc = np.exp(-p.gamma * p.beta * state.t)
    ux = eval_cutoff(cutoff, X / lam_eff)
    val = esc * ux * float(np.sum(row * u * m_all / Yall))
    return val - p.beta * p.rho


def gain(state):
    """Gain deposit rates Q[H] as a measure on the state's grid.

    The returned cell values are rates (mass per unit rescaled time);
    deposits beyond the top representative are excluded (they belong to
    the overflow ledger).
    """
    p = state.params
    m = state.measure
    eng = _Engine(m.edges, p, state.kernel, state.cutoff)
    _, Q, _, _, _ = eng.rates(m.cell_mass, m.tail_amplitude, state.t)
    return GridMeasure(m.edges, Q, 0.0, p.rho)


def mild_step(state, dt):
    """One frozen-coefficient exponential step of size dt.

    Positivity-preserving for any dt > 0; accuracy is the caller's
    concern (evolve applies adaptive control).
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    p = state.params
    m = state.measure
    eng = _Engine(m.edges, p, state.kernel, state.cutoff)
    A, Q, _, _, _ = eng.rates(m.cell_mass, m.tail_amplitude, state.t)
    new_mass = _exp_update(m.cell_mass, A, Q, dt)
    return EvolutionState(
        measure=m.with_cell_mass(new_mass),
        t=state.t + dt,
        params=p,
        kernel=state.kernel,
        cutoff=state.cutoff,
    )


def _map_back(masses, amp, edges, sigma, rho):
    """Map an X-frame state of age sigma/beta to physical variables.

    Returns (new_masses, new_amp, spilled_mass).  The grid shift is
    sigma / ln(r) cells; the integer part is an index shift and the
    fractional part a constant two-cell power-law split (exact for data
    following the intra-cell shape).  Vacated top cells are synthesized
    from the tail amplitude before the shift.
    """
    n = masses.size
    r = edges[1] / edges[0]
    lnr = np.log(r)
    shift = sigma / lnr
    km = int(np.floor(shift + 1e-12))
    theta = shift - km
    if abs(theta) < 1e-12:
        theta = 0.0
    one_m_rho = 1.0 - rho
    # synthesize tail source cells so every target has full coverage
    gedges = edges[-1] * r ** np.arange(km + 3)
    ext = np.concatenate([masses, amp * np.diff(gedges**one_m_rho) / one_m_rho])
    if theta == 0.0:
        shifted = ext[km : km + n]
        spill = float(np.sum(ext[:km]))
    else:
        fb = (1.0 - r ** (-theta * one_m_rho)) / (
            r ** ((1.0 - theta) * one_m_rho) - r ** (-theta * one_m_rho)
        )
        shifted = fb * ext[km + 1 : km + 1 + n] + (1.0 - fb) * ext[km : km + n]
        spill = float(np.sum(ext[:km])) + fb * float(ext[km])
    scale = np.exp(-sigma)
    return shifted * scale, amp * np.exp(-rho * sigma), spill * scale


def simulate(h0, params, kernel, cutoff, t_final, snapshot_times=(), frame_octaves=1.0, max_change=0.05):
    """Chunked physical-variable evolution up to rescaled time t_final.

    The run is split into frames of duration frame_octaves * ln(2)/beta
    (so each frame's map-back is an exact index shift), with extra frame
    boundaries at requested snapshot times.  The physical tail amplitude
    is conserved across frames (the far tail sees no coagulation under
    the partner-ratio cutoff) and the ledger records mass leaving
    through the bottom edge.

    Parameters
    ----------
    h0 : GridMeasure
        Initial datum in physical variables.
    params : measure.Params
    kernel : kernel.KernelSpec
    cutoff : kernel.CutoffParams
    t_final : float
    snapshot_times : iterable of float
        Times (in (0, t_final]) at which physical snapshots are stored.
    frame_octaves : float
        Frame length in octaves of drift; 1.0 gives one-octave frames.
    max_change : float
        Per-step relative change cap of the adaptive stepper.

    Returns
    -------
    SimulationResult
    """
    if h0.tail_exponent != params.rho:
        raise ValueError("h0 tail exponent must equal params.rho")
    if not t_final >= 0.0:
        raise ValueError("t_final must be >= 0")
    edges = h0.edges
    r = edges[1] / edges[0]
    k_per_frame = max(1, round(frame_octaves * np.log(2.0) / np.log(r)))
    T_frame = k_per_frame * np.log(r) / params.beta
    snaps = sorted(set(float(t) for t in snapshot_times if 0.0 < t <= t_final))
    boundaries = sorted(set(snaps + [t_final]))
    eng = _Engine(edges, params, kernel, cutoff)
    stepper = _Stepper(eng, max_change=max_change)
    masses = h0.cell_mass.copy()
    amp = h0.tail_amplitude
    origin = 0.0
    t_done = 0.0
    out_times, out_snaps = [], []
    for t_stop in boundaries:
        while t_done < t_stop - 1e-12:
            T = min(T_frame, t_stop - t_done)
            masses = stepper.run(masses, amp, 0.0, T)
            # tail closure: the partner-ratio cutoff silences coagulation
            # at X -> inf, so the far tail is pure drift and the physical
            # tail amplitude is conserved.  The X-frame amplitude grows by
            # exactly e^(beta rho T); the map-back divides it out again.
            amp *= np.exp(params.beta * params.rho * T)
            sigma = params.beta * T
            masses, amp, spill = _map_back(masses, amp, edges, sigma, params.rho)
            origin += spill
            t_done = min(t_stop, t_done + T)
        if t_stop in snaps or t_stop == t_final:
            out_times.append(t_done)
            out_snaps.append(GridMeasure(edges, masses.copy(), amp, params.rho))
    final = out_snaps[-1] if out_snaps else GridMeasure(edges, masses, amp, params.rho)
    return SimulationResult(
        times=out_times,
        snapshots=out_snaps,
        final=final,
        origin_mass=origin,
        overflow_mass=stepper.sink_mass,
        overflow_moment=stepper.sink_moment,
        n_steps=stepper.n_steps,
        n_retries=stepper.n_retries,
        max_pairing_residual=stepper.max_pairing_residual,
        params=params,
        kernel=kernel,
        cutoff=cutoff,
    )


def evolve(h0, params, kernel, cutoff, t_final, **kwargs):
    """Evolved physical measure at rescaled time t_final (see simulate)."""
    return simulate(h0, params, kernel, cutoff, t_final, **kwargs).final


def rescaled_trajectory(h0, params, kernel, cutoff, t_final, max_change=0.02):
    """Single-frame evolution storing every accepted step.

    No frame restarts occur, so the stored masses are X-variable data in
    the frame anchored at t = 0; valid while the cutoff front
    lam e^(beta t) stays well inside the grid.  The per-step relative
    change cap bounds the linear-interpolation error between stored
    states by about (max_change)^2 / 8.

    Returns
    -------
    Trajectory
    """
    if h0.tail_exponent != params.rho:
        raise ValueError("h0 tail exponent must equal params.rho")
    eng = _Engine(h0.edges, params, kernel, cutoff)
    stepper = _Stepper(eng, max_change=max_change)
    times = [0.0]
    masses = [h0.cell_mass.copy()]

    def record(s, m):
        times.append(s)
        masses.append(m.copy())

    stepper.run(h0.cell_mass.copy(), h0.tail_amplitude, 0.0, t_final, record=record)
    ts = np.array(times)
    ms = np.array(masses)
    # the tail beyond the partner-ratio reach drifts freely, so the frame
    # amplitude grows at the exact drift rate
    amps = h0.tail_amplitude * np.exp(params.beta * params.rho * ts)
    diag = {
        "n_steps": stepper.n_steps,
        "n_retries": stepper.n_retries,
        "max_pairing_residual": stepper.max_pairing_residual,
        "overflow_mass": stepper.sink_mass,
    }
    return Trajectory(
        edges=h0.edges,
        times=ts,
        masses=ms,
        amps=amps,
        params=params,
        kernel=kernel,
        cutoff=cutoff,
        diagnostics=diag,
    )


def rearrangement_residual(state, psi):
    """Pairing defect of the loss/gain rearrangement for a test function.

    Compares the discrete weak pairing <psi, deposits> - <psi, loss>
    (in-grid deposits evaluated at the split representatives, overflow
    and ghost-pair deposits at their exact positions P) against the
    collapsed double sum over ordered pairs of W_ij [psi(P) - psi(Y_i)]
    with exact P throughout.  The two agree to roundoff whenever the
    two-point split represents psi exactly at each deposit, hence for
    constants (mass conservation), for psi = x (the split conserves the
    first moment), and for indicators that do not cut between the two
    bracketing representatives of any active pair.  The out-of-grid part
    <psi, overflow> is returned separately as the boundary flux.

    Parameters
    ----------
    state : EvolutionState
    psi : callable
        Vectorized test function of size.

    Returns
    -------
    (residual, boundary_flux) : tuple of float
        residual is normalized by the total kernel loss rate.
    """
    p = state.params
    m = state.measure
    eng = _Engine(m.edges, p, state.kernel, state.cutoff)
    if eng.trivial:
        return 0.0, 0.0
    N = eng.N
    masses = m.cell_mass
    Lk, W, Wg = eng.pair_weights(masses, m.tail_amplitude, state.t)
    psi_rep = np.asarray(psi(eng.Y), dtype=float)
    loss_w = float(np.sum(psi_rep * Lk * masses))
    w = W.ravel()
    live = ~eng.sink
    dep_in = float(
        np.sum(w[live] * (eng.f[live] * psi_rep[eng.lo[live]] + (1.0 - eng.f[live]) * psi_rep[eng.hi[live]]))
    )
    psi_P = np.asarray(psi(eng.P), dtype=float)
    flux = float(np.sum(w[eng.sink] * psi_P[eng.sink]))
    Pg = eng.Y[:, None] + eng.Yg[None, :]
    psi_Pg = np.asarray(psi(Pg), dtype=float)
    flux += float(np.sum(Wg * psi_Pg))
    # collapsed form: sum over ordered pairs of W [psi(P) - psi(source)]
    psi_src = np.repeat(psi_rep, N)
    collapsed = float(np.sum(w * (psi_P - psi_src)))
    collapsed += float(np.sum(Wg * (psi_Pg - psi_rep[:, None])))
    scale = max(float(np.sum(Lk * masses)), 1e-300)
    residual = abs(dep_in + flux - loss_w - collapsed) / scale
    return residual, flux


@dataclass(frozen=True)
class GronwallReport:
    ok: bool
    worst_ratio: float
    t_at: float
    R_at: float
    tol: float


def gronwall_check(trajectory, R_values=None, tol=1e-2):
    """Check cumulative mass growth against the loss-free bound.

    For every stored time t the cumulative of H(t) must satisfy
    F(R) <= (1 + tol) R^(1-rho) e^(beta rho t) whenever the initial
    datum lies under the upper envelope.  With R_values omitted the
    supremum over all R (the weighted norm) is checked; otherwise only
    the given R.

    Returns
    -------
    GronwallReport
    """
    from .measure import cumulative_mass, xrho_norm

    p = trajectory.params
    worst, t_at, R_at = -np.inf, np.nan, np.nan
    for k in range(trajectory.times.size):
        t = float(trajectory.times[k])
        bound = np.exp(p.beta * p.rho * t)
        mk = trajectory.measure_at(k)
        if R_values is None:
            ratio = xrho_norm(mk) / bound
            if ratio > worst:
                worst, t_at, R_at = ratio, t, np.inf
        else:
            for R in R_values:
                ratio = cumulative_mass(mk, R) / (R ** (1.0 - p.rho) * bound)
                if ratio > worst:
                    worst, t_at, R_at = ratio, t, R
    return GronwallReport(ok=worst <= 1.0 + tol, worst_ratio=worst, t_at=t_at, R_at=R_at, tol=tol)
