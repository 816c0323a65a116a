"""Forward evolution of the coagulation equation in self-similar variables.

The rescaled density H(X, t) on a geometric grid evolves by

    dH/dt = -A(X, t) H + Q[H](X, t),

    A(X, t) = int K_lam(X e^(-bt), Z e^(-bt)) / Z * H(Z, t) dZ - beta rho,
    Q[H](X, t) = int_0^X K_lam(Y e^(-bt), (X-Y) e^(-bt)) / (X-Y)
                 * H(X-Y, t) H(Y, t) dY,

with b = beta the rescaling rate.  Homogeneity factors the kernel as
K(Y e^(-s), Z e^(-s)) = e^(-gamma s) K(Y, Z) and the ratio cutoffs are
scale-invariant, so the pair weights K(Y_i, Y_j) * zeta_ratio are static;
only the scalar e^(-gamma s) and the small-size cutoff vector change per
step.

Each step applies the exact exponential update with frozen coefficients,
H+ = H e^(-A dt) + Q (1 - e^(-A dt))/A, in predictor-corrector form: the
rates are re-evaluated at the predicted endpoint and the update repeated
with the averaged A and Q (second order, and still unconditionally
nonnegativity-preserving since the averages are nonnegative).  A step is
accepted iff its largest relative mass change is at most max_change, and the
next step size is proposed from the measured change (Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.4); it carries across frames and run
calls.  Every kernel takes these steps, the zero kernel included: there
A = -beta rho is constant and Q = 0, so each update is exact and the
controller only sets the cadence of the stored steps.  This step loop
(_Stepper.run) is the package's one time integrator.  A stored run
(rescaled_trajectory) keeps each accepted step's predicted state beside
its masses, so that the step's frozen coefficients at both of its ends
can be read again bit for bit: the dual solve steps backward through the
transpose of these very steps.

Gain from a cell pair is deposited at the representative sum
P = Y_i + Y_j, split between the two
bracketing representatives so that both mass and first moment are
conserved; deposits beyond the top representative accumulate in an
overflow ledger.  Partners beyond the grid top (up to the cutoff's
partner-ratio bound) are synthesized from the analytic tail amplitude as
loss-only ghost cells, and their pair gain also goes to the overflow
ledger.  A grid ratio so close to 1 that these ghost cells would
outnumber MAX_CELLS is refused before any is built (_n_ghost).

The pair operator is built once here: _partners continues the grid with
the tail cells, and kernel._ratio_cutoffs gives the ratio cutoffs of the
static part of the regularized kernel; the flux residual shares both.
Its consumers read one _Engine:
the stepper, the diagnostics gain and rearrangement_residual (through
EvolutionState.engine), and the dual (through Trajectory.engine:
densities, pair_sums, row, and the per-diagonal vectors as _offset_groups
groups them).  The ratio cutoffs vanish past the partner ratio (2-lam)/lam, a
fixed number of cells on the geometric grid, and every pair (i, i + d)
is a scaled copy of (0, d): its weight is Y_i^gamma t_d and its sum P
lands at the fixed offsets k_d and k_d + 1 from i with the fixed split
f_d.  So _Engine keeps per-diagonal vectors (t, k, f) and nothing per
pair: rates takes the loss as one correlation and one convolution with
t (pair_sums), and the gain as one short convolution per deposit offset
from the larger partner.  The overflow ledger takes a small static block
over the top rows for in-grid pairs and two convolutions of the top
cells with t for ghost pairs; rearrangement_residual weighs each pair by
Y_i^gamma t_d too.  The convolutions are direct sums: v spans many
decades, and FFT rounding, relative to the largest entry, would swamp
the small cells.

Long runs restart the rescaled frame periodically: after a frame of duration
T the variables are mapped back to physical scale (an exact index shift when
beta T is an integer number of cells, a two-cell power-law split otherwise),
mass leaving through the bottom edge accumulates in an origin ledger, and
vacated top cells are refilled from the tail extension.  The tail amplitude
needs no fitting: coagulation shuts off at X -> inf (the partner-ratio
cutoff leaves no partners), so the far tail is pure drift and the physical
tail amplitude is a conserved boundary condition, which simulate never
updates.  Within a frame the X-frame amplitude is the physical one times
e^(beta rho s); the map-back refills the vacated cells from it at the
frame's end.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernel import _partner_ratio, _ratio_cutoffs, eval_cutoff, eval_kernel
from .measure import MAX_CELLS, GridMeasure, _tail_cells, _xrho_sup

class IntegrationError(RuntimeError):
    """Step-size control failed to meet the accuracy target, or a solve
    read a non-finite state."""


@dataclass(frozen=True)
class EvolutionState:
    """Snapshot of the rescaled density within one frame.

    measure holds the X-variable masses; t is the rescaled time elapsed
    since the frame epoch (physical sizes are X e^(-beta t)).  engine is
    the pair operator of its grid, kernel and cutoff, built on first use.
    """

    measure: GridMeasure
    t: float
    params: object
    kernel: object
    cutoff: object

    @cached_property
    def engine(self):
        return _Engine(self.measure.edges, self.params, self.kernel, self.cutoff)


@dataclass
class Trajectory:
    """Stored evolution of one rescaled frame (no frame restarts).

    masses[k] are the X-frame cell masses at times[k], and preds[k] the
    predicted state of the accepted step from times[k] to times[k + 1],
    at which that step's corrector evaluated its rates (None for a
    trajectory built without them).  The dual solve walks these steps
    back, and K* reads every stored state.  engine is the _Engine that
    stepped the run, with its kernel and cutoff; the dual reads its pair
    operator.
    """

    edges: np.ndarray
    times: np.ndarray
    masses: np.ndarray
    amps: np.ndarray
    params: object
    engine: object
    preds: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def t_final(self):
        return float(self.times[-1])

    def measure_at(self, k):
        return GridMeasure(self.edges, self.masses[k], float(self.amps[k]), self.params.rho)

    def state(self, k):
        """EvolutionState at stored step k, on this run's engine."""
        eng = self.engine
        st = EvolutionState(self.measure_at(k), float(self.times[k]), self.params, eng.kernel, eng.cutoff)
        st.__dict__["engine"] = eng  # fills the cached property
        return st

    def index(self, t):
        """The stored step at time t, to within 1e-12; any other t is
        refused with ValueError."""
        k = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[k] - t) <= 1e-12:
            raise ValueError(f"trajectory does not cover [0, t] with a stored step at t = {t!r}")
        return k


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


def _n_ghost(edges, lam):
    """The number of ghost cells that span the partner ratio (2 - lam)/lam
    above the grid's top cell, two more than the grid's ratio needs; a
    ratio so close to 1 that they outnumber MAX_CELLS is refused with
    ValueError before any array is built."""
    r = float(edges[1] / edges[0])
    n = np.ceil(np.log(_partner_ratio(lam)) / np.log(r)) + 2
    if not n <= MAX_CELLS:
        raise ValueError(f"the grid's ratio {r!r} is too close to 1 at lam = {lam}: its partners span {n:.4g}"
                         f" ghost cells, more than MAX_CELLS = {MAX_CELLS}")
    return int(n)


def _partners(edges, rho, lam):
    """The grid continued by loss-only tail (ghost) cells out to the
    partner-ratio bound of its top cell: (edges, representatives, mass of
    each ghost cell per unit tail amplitude).  The cutoffs read each
    partner's size over lam, so a lam for which the top ghost edge over
    lam overflows a float is refused with ValueError, as is a grid top
    whose ghost cells' representatives sqrt(a b) overflow one, and a
    ratio whose ghost cells outnumber MAX_CELLS (_n_ghost)."""
    n_ghost = _n_ghost(edges, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        gedges, gpow = _tail_cells(edges, rho, n_ghost)
        top = gedges[-1] / lam
        pedges = np.concatenate([edges, gedges[1:]])
        reps = np.sqrt(pedges[:-1] * pedges[1:])
    if not top < np.inf:
        raise ValueError(f"lam = {lam} is too small for the grid: its partners' sizes over lam overflow a float")
    if not reps[-1] < np.inf:
        raise ValueError(f"the grid's top edge {float(edges[-1])!r} is too large at lam = {lam}:"
                         " its partners' representatives overflow a float")
    return pedges, reps, gpow / (1.0 - rho)


def _offset_groups(w, k, f):
    """Per-diagonal weights w_d grouped by deposit offset o = k_d - d from
    the larger member of each pair: group o takes w_d f_d from the
    diagonals of offset o (their lower bracket) and w_d (1 - f_d) from
    those of offset o - 1 (their upper bracket).  Returns (o, d0, taps)
    for each group with weight, taps[j] belonging to diagonal d0 + j."""
    off = k - np.arange(k.size)
    groups = []
    for o in range(off.max() + 2):
        h = np.where(off == o, w * f, 0.0) + np.where(off == o - 1, w * (1.0 - f), 0.0)
        nz = np.flatnonzero(h)
        if nz.size:
            groups.append((o, nz[0], h[nz[0] : nz[-1] + 1]))
    return groups


class _Engine:
    """Shift-invariant pair operator for one grid/kernel/cutoff combination.

    The engine places its partners (cells, then ghost cells) on the exact
    lattice Y_i = Y_0 r^i through the grid's end edges, so that on a grid
    off the lattice by rounding (GridMeasure accepts 1e-9) the pairing
    identities still hold to machine level.  The kernel is homogeneous of
    degree gamma and the ratio cutoffs are scale-free, so the static weight
    of cell i with partner i + d is Y_i^gamma t_d, and the pair's sum
    P = Y_i (1 + r^d) sits at the fixed offset k_d from i,
    Y[i + k_d] <= P < Y[i + k_d + 1] (a tie takes the upper bracket,
    f_d = 1), splitting the mass and moment as f_d and 1 - f_d.  Both
    ordered pairs of (i, i + d) weigh esc v_i v_(i+d) Y_i^gamma t_d times
    their source size, so with z = Y^(gamma+1) v a pair deposits
    esc v_(i+d) g_d z_i, g_d = t_d (1 + r^d) (t_0 for the self pair).
    The loss is one correlation and one convolution with t; the gain is one
    convolution per offset c = k_d - d from the larger member, whose
    group merges the lo-weights of offset c with the hi-weights of c - 1
    (_offset_groups, which also groups t for the dual's gain).  Groups
    without weight are dropped.  Only the pairs whose larger member p
    lies within max c + 2 of the top reach the overflow ledger or the hi
    half of the top cell.  A pair with a ghost partner p >= N deposits all
    of its mass in the ledger, so rates takes those pairs as two
    convolutions of the top cells' z and z Y with t.  The in-grid ones
    sit in a static (top, over, over moment) block top[:, p, d], rows
    p = N - rows .. N - 1, against the partners top_partners[p, d] =
    p - d.  So the pairing residual compares two independent sums.
    """

    def __init__(self, edges, params, kernel, cutoff):
        if kernel.gamma != params.gamma:
            raise ValueError(f"kernel.gamma = {kernel.gamma} must equal params.gamma = {params.gamma}")
        self.params, self.kernel, self.cutoff = params, kernel, cutoff
        self.rates_calls = 0  # the calls of rates, which the stationary search reports
        self.N = N = edges.size - 1
        # the grid's own representatives continued by the ghost cells (the
        # dual's nodes), and the ghost cells' mass per unit tail amplitude
        _, self.reps, self.ghost_pow = _partners(edges, params.rho, cutoff.lam)
        # pairs with weight lie within n_ghost - 2 cells (the partner-ratio
        # bound), so t, cut after its last weight, fits in dmax + 1 taps
        self.dmax = dmax = self.ghost_pow.size - 1
        r = (edges[-1] / edges[0]) ** (1.0 / N)  # exact to rounding on geometric_grid
        self.Yall = edges[0] * r ** (np.arange(N + dmax + 1) + 0.5)
        self.Y = Y = self.Yall[:N]
        self.Yg = Y**kernel.gamma
        rd = r ** np.arange(dmax + 1)
        t = _ratio_cutoffs(eval_kernel(kernel, 1.0, rd), 1.0, rd, cutoff.lam)
        # t, k and f are cut after t's last weight
        L = 1 + np.max(np.flatnonzero(t), initial=0)
        d = np.arange(L)
        rd = rd[:L]
        self.t = t = t[:L]
        # P / Y_(i+d) = r^c; a tie (c whole up to the rounding of the log,
        # e.g. 2 Y_i = Y_(i+n) on a 2^(1/n) grid) takes the upper bracket
        c = np.log1p(1.0 / rd) / np.log(r)
        off = np.floor(c + 1e-12)
        self.f = f = np.where(np.abs(c - off) < 1e-12, 1.0, (r ** (off + 1) - 1 - 1 / rd) / (r ** (off + 1) - r**off))
        self.k = k = d + off.astype(int)
        g = t * np.where(d > 0, 1.0 + rd, 1.0)
        # (first target, first larger member, taps)
        self.groups = [(o + d0, d0, h) for o, d0, h in _offset_groups(g, k, f) if o + d0 < N - 1]
        # the top rows: larger members p whose pairs (p - d, p) feed the top
        # cell's hi half (lo = p + o_d = N - 2) or the ledger (lo >= N - 1),
        # with the mass weights S of both ordered pairs; a row's partners
        # below cell 0 weigh nothing
        p = np.arange(max(0, N - 2 - int(np.max(k - d))), N)[:, None]
        i = np.maximum(p - d, 0)
        Yi, Yp = Y[i], Y[p]
        S = np.where(p >= d, self.Yg[i] * t * (Yi + np.where(d > 0, Yp, 0.0)), 0.0)
        lo = p + k - d
        over = lo >= N - 1
        top = np.where(lo == N - 2, S * (1.0 - f), 0.0)
        self.top = np.stack([top, np.where(over, S, 0.0), np.where(over, S * (Yi + Yp), 0.0)])
        self.top_partners = i

    def row(self, X):
        """Static weights of size X with every partner (cells, then ghosts)."""
        return _ratio_cutoffs(eval_kernel(self.kernel, X, self.Yall), X, self.Yall, self.cutoff.lam)

    def densities(self, masses, amp, s):
        """(u, v, esc) at time s: small-size cutoffs u and densities
        v = u m / Y of all partners (cells, then ghosts), esc = e^(-gamma beta s)."""
        p = self.params
        u = eval_cutoff(self.Yall / (self.cutoff.lam * np.exp(p.beta * s)))
        v = u * np.concatenate([masses, amp * self.ghost_pow]) / self.Yall
        return u, v, np.exp(-p.gamma * p.beta * s)

    def pair_sums(self, v):
        """sum over partners k of each cell's static weight with k times
        v_k: partners above the cell by one correlation with t, those
        below it by kernel symmetry, one convolution."""
        N, t = self.N, self.t
        out = self.Yg * np.correlate(v[: N + t.size - 1], t, "valid")
        out += np.convolve(self.Yg * v[:N], np.concatenate([[0.0], t[1:]]))[:N]
        return out

    def _loss(self, masses, amp, s):
        """(Lk, v, esc) at time s: per-unit-mass kernel loss rates, and v
        and esc of densities()."""
        u, v, esc = self.densities(masses, amp, s)
        Lk = self.pair_sums(v)
        Lk *= esc * u[: self.N]
        return Lk, v, esc

    def rates(self, masses, amp, s):
        """Frozen-coefficient rates at time s.

        Returns (A, Q, sink_rate, sink_moment_rate, pairing_residual):
        per-unit-mass net loss A_i (including the -beta rho drift), gain
        deposit rates Q_i, the overflow rates, and the relative mismatch
        between kernel loss and total deposits (machine-level identity).
        """
        self.rates_calls += 1
        N = self.N
        Lk, v, esc = self._loss(masses, amp, s)
        A = Lk - self.params.beta * self.params.rho
        z = self.Yg * self.Y * v[:N]
        Q = np.zeros(N)
        # group (j0, p0, h) deposits at j = p + c from each larger member p
        # >= p0, up to cell N - 2, where lo and hi halves are all in-grid
        for j0, p0, h in self.groups:
            n = N - 1 - j0
            Q[j0:-1] += v[p0 : p0 + n] * np.convolve(z[:n], h)[:n]
        rows, L = self.top_partners.shape
        Q[N - 1], over_rate, over_moment = np.tensordot(self.top, v[N - rows : N, None] * v[self.top_partners], 2)
        # a ghost partner p >= N always deposits the pair's mass in the
        # ledger: one convolution of the top cells' z with t, and one of
        # z Y for the moment
        a = max(0, N - L)
        zt, vg, Yh = z[a:], v[N : N + L - 1], self.Yall[N : N + L - 1]
        zc = np.convolve(zt, self.t)[N - a :]
        over_rate += vg @ zc
        over_moment += vg @ (np.convolve(zt * self.Y[a:], self.t)[N - a :] + Yh * zc)
        Q *= esc
        over_rate, over_moment = esc * float(over_rate), esc * float(over_moment)
        loss_total = float(np.sum(Lk * masses))
        dep_total = float(np.sum(Q)) + over_rate
        resid = abs(loss_total - dep_total) / max(loss_total, 1e-300)
        return A, Q, over_rate, over_moment, resid


def _phi(A, dt):
    """(1 - e^(-A dt)) / A, the weight of a frozen source over a step of
    dt, and its expansion dt (1 - A dt / 2) where |A dt| < 1e-8."""
    x = A * dt
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = -np.expm1(-x) / A
    return np.where(np.abs(x) < 1e-8, dt * (1.0 - 0.5 * x), phi)


def _exp_update(masses, A, Q, dt):
    """Exact frozen-coefficient update; positivity-preserving."""
    return masses * np.exp(-(A * dt)) + _phi(A, dt) * Q


class _Stepper:
    """Adaptive exponential-Heun stepping within one frame on one engine,
    the package's one time integrator.

    Changes are relative to the cell masses, floored at mass_floor_frac of
    the total mass.  The stepper keeps the step proposal dt across run
    calls, and counts steps, rejected trials, the worst pairing residual
    and the overflow ledger over all of them.  There is no separate
    pure-drift path: under the zero kernel the controller's steps are
    exact, with a zero pairing residual and sink.  pred is the predicted
    state of the last accepted step, which record may read.
    """

    mass_floor_frac = 1e-12

    def __init__(self, engine, max_change=0.05):
        if not 0.0 < max_change < 1.0:
            raise ValueError("max_change must lie in (0, 1)")
        self.engine = engine
        self.max_change = max_change
        self.dt = None
        self.n_steps = 0
        self.n_retries = 0
        self.max_pairing_residual = 0.0
        self.sink_mass = 0.0
        self.sink_moment = 0.0
        self.pred = None

    def run(self, masses, amp, s0, s1, record=None):
        """Advance masses from rescaled time s0 to s1; returns masses.

        A step of dm/ds = -A m + Q predicts with frozen rates,
        re-evaluates them at the predicted endpoint and corrects with their
        averages.  It starts from min(dt, 0.5 / max|A|) and is halved until
        it moves s and its change max|trial - m| / scale(m) is at most
        max_change (60 halvings raise IntegrationError).  It then proposes
        dt = h min(1.2, 0.9 max_change / change), unless it was cut short
        to land on s1.  record(s, m) sees each accepted step's end.
        """
        eng, max_change = self.engine, self.max_change
        grow = eng.params.beta * eng.params.rho
        s, dt, n_rejected = s0, self.dt, 0
        while s < s1 - 1e-14 * max(1.0, abs(s1)):
            # beyond the partner-ratio reach the dynamics is pure drift, so
            # the X-frame tail amplitude at time s is the frame-start value
            # grown by exp(beta rho (s - s0))
            r0 = eng.rates(masses, amp * np.exp(grow * (s - s0)), s)
            A, Q = r0[0], r0[1]
            a_max = float(np.max(np.abs(A)))
            cap = 0.5 / a_max if a_max > 0.0 else np.inf
            h = min(cap if dt is None else min(dt, cap), s1 - s)
            cut = h == s1 - s  # a cut step leaves dt, the uncut proposal
            denom = np.maximum(masses, self.mass_floor_frac * max(float(np.sum(masses)), 1e-300))
            for _ in range(60):
                # the averages stay nonnegative, so positivity is unconditional,
                # and the endpoint balancing removes the first-order defect
                # that would otherwise bleed mass out of every cell at a
                # constant rate (a log-growing flux bias at stationarity)
                pred = _exp_update(masses, A, Q, h)
                r1 = eng.rates(pred, amp * np.exp(grow * (s + h - s0)), s + h)
                trial = _exp_update(masses, 0.5 * (A + r1[0]), 0.5 * (Q + r1[1]), h)
                change = float(np.max(np.abs(trial - masses) / denom))
                # a step too short to move s is no step
                if change <= max_change and s + h > s:
                    break
                h *= 0.5
                cut = False
                n_rejected += 1
            else:
                raise IntegrationError(
                    f"step size collapsed at s={s:.6g} (change={change:.3g}, dt={h:.3g})"
                )
            if not cut:
                dt = h * min(1.2, 0.9 * max_change / max(change, 1e-300))
            masses = trial
            s += h
            self.max_pairing_residual = max(self.max_pairing_residual, r0[4], r1[4])
            self.sink_mass += h * 0.5 * (r0[2] + r1[2])
            self.sink_moment += h * 0.5 * (r0[3] + r1[3])
            self.n_steps += 1
            self.pred = pred
            if record is not None:
                record(s, masses)
        self.dt = dt
        self.n_retries += n_rejected
        return masses


def gain(state):
    """Gain deposit rates Q[H] as a measure on the state's grid.

    The returned cell values are rates (mass per unit rescaled time);
    deposits beyond the top representative are excluded (they belong to
    the overflow ledger).
    """
    m = state.measure
    Q = state.engine.rates(m.cell_mass, m.tail_amplitude, state.t)[1]
    return GridMeasure(m.edges, Q, 0.0, state.params.rho)


def _map_back(masses, amp, edges, sigma, rho):
    """Map an X-frame state of age sigma/beta, with X-frame tail amplitude
    amp, to physical variables.

    Returns (new_masses, spilled_mass).  The grid shift is
    sigma / ln(r) cells; the integer part is an index shift and the
    fractional part a constant two-cell power-law split (exact for data
    following the intra-cell shape; its weight is exactly 0 at a whole
    number of cells).  Vacated top cells are synthesized from the tail
    amplitude before the shift.
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
    ext = np.concatenate([masses, amp * _tail_cells(edges, rho, km + 2)[1] / one_m_rho])
    fb = (1.0 - r ** (-theta * one_m_rho)) / (
        r ** ((1.0 - theta) * one_m_rho) - r ** (-theta * one_m_rho)
    )
    shifted = fb * ext[km + 1 : km + 1 + n] + (1.0 - fb) * ext[km : km + n]
    spill = float(np.sum(ext[:km])) + fb * float(ext[km])
    scale = np.exp(-sigma)
    return shifted * scale, spill * scale


def simulate(h0, params, kernel, cutoff, t_final, snapshot_times=(), max_change=0.05, *, engine=None):
    """Chunked physical-variable evolution up to rescaled time t_final.

    The run is split into frames of one octave of drift, ln(2)/beta
    (so each frame's map-back is an exact index shift), with extra frame
    boundaries at requested snapshot times.  Such a boundary ends a frame
    of less than an octave, whose map-back is a two-cell split that
    smears the datum's support edge, so the state at t_final moves with
    the snapshot times requested.  The physical tail amplitude
    is conserved (the far tail sees no coagulation under the
    partner-ratio cutoff), so every snapshot carries h0's bit for bit,
    and the ledger records mass leaving through the bottom edge.

    Parameters
    ----------
    h0 : GridMeasure
        Initial datum in physical variables.
    params : measure.Params
    kernel : kernel.KernelSpec
    cutoff : kernel.CutoffParams
    t_final : float
    snapshot_times : iterable of float
        Times (in (0, t_final]) at which physical snapshots are stored;
        the state at t_final is always stored, as the last snapshot.  A
        time within 1e-12 of the next one, or of t_final, merges into it,
        so the stored times strictly increase.
    max_change : float
        Per-step relative change cap of the adaptive stepper.
    engine : _Engine or None
        Internal: step on this engine, which must have been built for
        params, kernel and cutoff on a grid of h0's size (ValueError
        otherwise), instead of building one.

    Returns
    -------
    SimulationResult
    """
    if h0.tail_exponent != params.rho:
        raise ValueError("h0 tail exponent must equal params.rho")
    if not 0.0 <= t_final < np.inf:
        raise ValueError("t_final must be finite and >= 0")
    edges = h0.edges
    r = edges[1] / edges[0]
    k_per_frame = max(1, round(np.log(2.0) / np.log(r)))
    T_frame = k_per_frame * np.log(r) / params.beta
    # a requested time within the loop's 1e-12 of the next one merges into
    # it, so that no boundary is reached without a step
    times = sorted({float(t) for t in snapshot_times if 0.0 < t < t_final})
    boundaries = [t for t, t_next in zip(times, times[1:] + [t_final]) if t < t_next - 1e-12] + [t_final]
    if engine is None:
        engine = _Engine(edges, params, kernel, cutoff)
    elif (engine.params, engine.kernel, engine.cutoff, engine.N) != (params, kernel, cutoff, edges.size - 1):
        raise ValueError("the engine was built for another grid size, params, kernel or cutoff")
    stepper = _Stepper(engine, max_change=max_change)
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
            # tail amplitude is conserved.  The X-frame amplitude has grown
            # by exactly e^(beta rho T) by the frame's end.
            sigma = params.beta * T
            masses, spill = _map_back(masses, amp * np.exp(params.beta * params.rho * T), edges, sigma, params.rho)
            origin += spill
            t_done = min(t_stop, t_done + T)
        out_times.append(t_done)
        out_snaps.append(GridMeasure(edges, masses.copy(), amp, params.rho))
    return SimulationResult(
        times=out_times,
        snapshots=out_snaps,
        final=out_snaps[-1],
        origin_mass=origin,
        overflow_mass=stepper.sink_mass,
        overflow_moment=stepper.sink_moment,
        n_steps=stepper.n_steps,
        n_retries=stepper.n_retries,
        max_pairing_residual=stepper.max_pairing_residual,
    )


def rescaled_trajectory(h0, params, kernel, cutoff, t_final, max_change=0.02):
    """Single-frame evolution storing every accepted step, with its
    predicted state (Trajectory.preds).

    No frame restarts occur, so the stored masses are X-variable data in
    the frame anchored at t = 0; valid while the cutoff front
    lam e^(beta t) stays well inside the grid.

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
    preds = []

    def record(s, m):
        times.append(s)
        masses.append(m.copy())
        preds.append(stepper.pred)

    stepper.run(h0.cell_mass.copy(), h0.tail_amplitude, 0.0, t_final, record=record)
    ts = np.array(times)
    # the tail beyond the partner-ratio reach drifts freely, so the frame
    # amplitude grows at the exact drift rate
    amps = h0.tail_amplitude * np.exp(params.beta * params.rho * ts)
    diag = {"max_change": max_change, "n_steps": stepper.n_steps, "n_retries": stepper.n_retries,
            "max_pairing_residual": stepper.max_pairing_residual}
    return Trajectory(edges=h0.edges, times=ts, masses=np.array(masses), amps=amps, params=params, engine=eng,
                      preds=np.array(preds).reshape(-1, h0.n_cells), diagnostics=diag)


def rearrangement_residual(state, psi):
    """Pairing defect of the loss/gain rearrangement for a test function.

    Compares the discrete weak pairing <psi, deposits> - <psi, loss>
    (the loss and in-grid deposits that the stepper reads from
    _Engine.rates, the deposits evaluated at the split representatives;
    overflow and ghost-pair deposits at their exact positions P) against
    the collapsed double sum over ordered pairs of W_ij [psi(P) - psi(Y_i)]
    with exact P throughout, each pair weighed from the engine's
    per-diagonal vectors.  The two agree to roundoff whenever the
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
    m, eng = state.measure, state.engine
    N, Y, t = eng.N, eng.Y, eng.t
    masses = m.cell_mass
    Lk, v, esc = eng._loss(masses, m.tail_amplitude, state.t)
    Q = eng.rates(masses, m.tail_amplitude, state.t)[1]
    # partners j = i + d on the diagonals with weight; the ordered pairs of
    # (i, j) weigh esc v_i v_j Y_i^gamma t_d times their source size, i
    # (Wa) or j (Wb; zero for d = 0, where the two coincide, and for
    # loss-only ghosts)
    i = np.arange(N)[:, None]
    j = i + np.arange(t.size)
    TW = (esc * eng.Yg * v[:N])[:, None] * t * v[j]
    Wa = TW * Y[:, None]
    Wb = np.where((j > i) & (j < N), TW * eng.Yall[j], 0.0)
    W = Wa + Wb
    psi_all = np.asarray(psi(eng.Yall), dtype=float)
    psi_rep = psi_all[:N]
    loss_w = float(np.sum(psi_rep * Lk * masses))
    # the stepped deposits; psi is 0 in the overflow bins
    dep_in = float(psi_rep @ Q)
    # collapsed form: sum over ordered pairs of W [psi(P) - psi(source)]
    psi_P = np.asarray(psi(Y[:, None] + eng.Yall[j]), dtype=float)
    # P >= Y[N - 1], with ties bracketed as the engine brackets them
    over = i + eng.k >= N - 1
    flux = float(np.sum(W[over] * psi_P[over]))
    collapsed = float(np.sum(W * psi_P - Wa * psi_rep[:, None] - Wb * psi_all[j]))
    scale = max(float(np.sum(Lk * masses)), 1e-300)
    residual = abs(dep_in + flux - loss_w - collapsed) / scale
    return residual, flux


@dataclass(frozen=True)
class GronwallReport:
    ok: bool
    worst_ratio: float
    t_at: float
    tol: float


def gronwall_check(trajectory, tol=1e-2):
    """Check cumulative mass growth against the loss-free bound.

    For every stored time t the cumulative of H(t) must satisfy
    F(R) <= (1 + tol) R^(1-rho) e^(beta rho t) for all R whenever the
    initial datum lies under the upper envelope.  The supremum over R is
    the weighted norm of xrho_norm (measure._xrho_sup), taken for every
    stored step at once.

    Returns
    -------
    GronwallReport
    """
    p = trajectory.params
    q = 1.0 - p.rho
    norms = _xrho_sup(np.cumsum(trajectory.masses, axis=1), trajectory.edges[1:] ** q, trajectory.amps / q)
    ratios = norms / np.exp(p.beta * p.rho * trajectory.times)
    k = int(np.argmax(ratios))
    worst = float(ratios[k])
    return GronwallReport(ok=worst <= 1.0 + tol, worst_ratio=worst, t_at=float(trajectory.times[k]),
                          tol=float(tol))
