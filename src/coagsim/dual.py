"""Backward dual problem along a stored forward trajectory.

The dual field Psi(X, s) lives in the frame anchored at the final time t
(X = x e^(beta(s-t))) and solves the pure-jump equation

    d Psi / d tau = int Q(X, Z, tau) [Psi(X+Z) - Psi(X)] dZ,   tau = t - s,

backward from the indicator datum Psi(X, t) = 1 below R, where
Q(X, Z, tau) = K_lam(X e^(beta tau), Z e^(beta tau)) / Z * h(Z e^(beta tau), s).

In this frame the jump sizes contributed by the forward grid are static:
the forward representative Y_k at time s sits at physical size
Y_k e^(-beta s), which is Z_k = Y_k e^(-beta t) in dual coordinates at
every s.  By homogeneity the jump rates are then those of the forward
engine that stepped the trajectory (_Jumps), and they take the same
per-diagonal form: one correlation and one convolution with the
engine's weights t for the total rate, and one of each per deposit
offset for the Psi-weighted rate.  The dual's nodes are the mapped
representatives Z_i below R, other than the top cell's, and nothing
else; Psi reads zero from the first representative at or above R on, or
from the top cell's.  The top cell is no node because the forward sends
every pair it brackets from below to its overflow ledger.  Psi is linear
between nodes, so its value at a pair sum is the forward split of that
pair (the engine's f_d) over the same two cells: both sides use one set
of pair weights, pair sums and splits, and the datum is the indicator
of the nodes' cells, so the forward quantity it pairs with is those
cells' mass.

The dual has no time stepping of its own.  Each forward step, its
coefficients frozen at its start and at its predicted state (both
stored in the trajectory), is a linear map of the masses, and the dual
steps back through its transpose (solve_dual): it reads the forward's
partner densities at those two states, so its jump rates are the
transposed gain of the very step the forward took.  Its steps and times
are the forward's.  So by construction, for every kernel and every R:
the pairing of Psi with the masses is the same at both ends of every
step to rounding (adjoint_consistency reads the whole run's defect),
Psi >= 0, and under the zero kernel Psi stays 1 bit for bit, since the
drift enters as the exact scalar e^(-beta rho h) of each step.  Psi <= 1
and Psi's decrease in X are not built in: the exponential update does
not factor the drift out of its weights exactly, and they are measured,
never clipped (DualField.diagnostics' max_excess and
max_monotonicity_violation; both read 0 on the dual-check bench
config).

The barrier check (subsolution_bound) and the smallest constant M* for
which it holds (find_m_star) read the whole stored field: every node at
every stored time, in blocks of whole rows.

The bound K* on the jumps past R (q_tail_bound) needs no dual operator:
R's own rate bounds every node's, so it reads R's row of the engine over
R's whole partner reach, the grid's cells and the ghost cells and, past
the engine's lattice, the tail cells, whose small-size cutoff is 1.

A cut R and a final time t that no dual on the grid has are refused by
one set of rules (_cut), which the dual solve, K* and the dual-check
command, before its forward solve, all run: R at or below every cell's
representative, and a frame factor e^(beta t) or a partner reach
R e^(beta t) (2 - lam)/lam past the float range.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .forward import IntegrationError, _offset_groups, _partners, _phi
from .kernel import _ratio_cutoffs, eval_cutoff, eval_kernel
from .measure import GridMeasure, _tail_cells, cumulative_mass
from .stablecdf import StableProfile, w_table


@dataclass
class DualField:
    """Backward dual field stored at every step of the forward.

    psi[j] holds Psi(nodes, s_values[j]); s_values are the trajectory's
    stored times from 0 to t_final, and nodes are the mapped
    representatives below R other than the top cell's, ascending.  Psi
    reads zero from the next representative on, which lies at or above R
    or is the top cell's.  params are the trajectory's; the barrier check
    reads its stable index a from them.  diagnostics holds n_steps (the
    forward steps walked back), n_retries (0: no step is rejected),
    max_excess (the largest Psi - 1, else 0) and
    max_monotonicity_violation (the largest increase of Psi from a node
    to the next).
    """

    nodes: np.ndarray
    s_values: np.ndarray
    psi: np.ndarray
    R: float
    t_final: float
    params: object
    diagnostics: dict = field(default_factory=dict)


def _cut(edges, params, lam, R, t, names=("R", "t")):
    """The rules that a cut R and a final time t obey on a grid of edges
    at cutoff scale lam, checked before any kernel is evaluated; each
    refusal is a ValueError that calls R and t by names.  R is finite and
    > 0, t >= 0 and the frame factor e^(beta t) is a float.  Some
    representative other than the top cell's maps below R, so the dual
    has a node.  R's partners reach X (2 - lam)/lam, X = R e^(beta t): the
    tail cells past both the engine's lattice and X, as many as its ghost
    cells, which span that ratio, end inside the float range.

    Returns (Z, n, X, tail): the representatives of the cells and ghost
    cells in the frame anchored at t, the number of nodes, X, and the tail
    cells' edges and increments of x^(1 - rho) (measure._tail_cells).
    """
    r_name, t_name = names
    if not (0.0 < R < np.inf and t >= 0.0):
        raise ValueError(f"{r_name} must be finite and > 0, and {t_name} >= 0")
    with np.errstate(all="ignore"):
        _, reps, ghost_pow = _partners(edges, params.rho, lam)
        frame = np.exp(params.beta * t)
        X = R * frame
        ln_r = np.log(edges[1] / edges[0])
        j0 = max(ghost_pow.size, np.floor(np.log(X / edges[-1]) / ln_r + 0.5))
        tail = _tail_cells(edges * np.exp(j0 * ln_r), params.rho, ghost_pow.size)
    if frame == np.inf:
        raise ValueError(f"{t_name} = {t!r} overflows the frame factor e^(beta t), beta = {params.beta!r}")
    Z = reps * np.exp(-params.beta * t)
    # the top cell is no node: the forward sends the pairs it brackets
    # from below to its overflow ledger
    n = int(np.count_nonzero(Z[: edges.size - 2] < R * (1.0 - 1e-12)))
    if n == 0 and edges.size == 2:
        raise ValueError("a grid of one cell leaves the dual no node: its top cell is never one")
    if n == 0:
        raise ValueError(f"{r_name} = {R!r} lies below every cell's representative at {t_name} = {t!r}: no dual node")
    if not tail[0][-1] < np.inf:
        raise ValueError(f"{r_name} = {R!r}: its partners' reach R e^(beta t) (2 - lam)/lam overflows a float")
    return Z, n, X, tail


class _Jumps:
    """The dual jump operator in the frame anchored at t, on the forward
    engine of the trajectory.  The nodes are the Z_i below R other than
    the top cell's, i < n <= N - 1, and Psi reads zero from node n on: the
    forward sends every pair whose lower bracket is the top cell N - 1 to
    its overflow ledger, so that cell is never a node.  At a forward state
    of time s node i jumps toward partner k at rate c_i W(i, k) v_k:
    c = esc u on the nodes and v the partner densities, both from
    _Engine.densities, and W(i, k) the engine's static pair weight, so D
    is c times _Engine.pair_sums, the forward's kernel loss on the nodes.
    The pair of cells a and a + d takes either member to
    P = Z_a + Z_(a+d), which sits at offset k_d - d from the larger member
    with the engine's lattice split f_d, where Psi is
    f_d Psi_j + (1 - f_d) Psi_(j+1).  So the gain takes one correlation
    (node a the smaller member) and one convolution (node a + d the
    larger) per deposit offset, with the engine's offset groups of t.
    The convolutions from below do not depend on Psi and are kept with D
    for each state (coefficients).  An R at or below every
    representative, or a grid of one cell, leaves no node and is refused,
    as is every other cut that _cut refuses.
    """

    def __init__(self, trajectory, R, t):
        # a cut R and t that no dual on the trajectory's grid has is
        # refused before any kernel is evaluated
        eng = self.engine = trajectory.engine
        # the grid's own representatives, which the engine's lattice
        # matches to rounding
        Z, n, _, _ = _cut(trajectory.edges, trajectory.params, eng.cutoff.lam, R, t)
        self.n, self.nodes = n, Z[:n]
        # the engine's offset groups of t, as the correlations from above
        # and the convolutions from below read them, and the number of
        # offsets that low holds
        self.above, self.below = [], []
        for o, d0, h in _offset_groups(eng.t, eng.k, eng.f):
            # node i with partner i + d above it reads Psi at i + d + o < n
            if n - o - d0 > 0:
                self.above.append((d0, n - o, o, h))
            # node i with partner i - d below it (d > 0) reads it at i + o
            if d0 == 0:
                d0, h = 1, h[1:]
            if h.size and n - o - d0 > 0:
                self.below.append((o, d0, h))
        self.n_off = 1 + max((o for o, _, _ in self.below), default=0)

    def coefficients(self, masses, amp, s):
        """(D, c, v, low) of the forward state (masses, amp) at time s: each
        node's total jump rate, c and v, and low[o, i], node i's sum over
        the partners below it of the larger-member taps of offset o times
        Y^gamma v.  None of it depends on Psi."""
        eng, n = self.engine, self.n
        u, v, esc = eng.densities(masses, amp, s)
        c = esc * u[:n]
        y = eng.Yg[:n] * v[:n]
        low = np.zeros((self.n_off, n))
        for o, d1, h in self.below:
            m = n - o - d1
            low[o, d1 : n - o] = np.convolve(y[:m], h)[:m]
        return c * eng.pair_sums(v)[:n], c, v, low

    def gain(self, coefficients, psi):
        """Each node's jump rates weighted by psi at the targets: the
        transpose of the forward's gain, with its partner densities
        frozen, applied to psi."""
        _, c, v, low = coefficients
        n = self.n
        up = np.zeros(n)
        for d0, e, o, h in self.above:
            up[: e - d0] += np.correlate(v[d0:e] * psi[d0 + o : e + o], h, "full")[h.size - 1 :]
        up *= self.engine.Yg[:n]
        # low is zero wherever i + o is node n or the padding
        psi_ext = np.concatenate([psi, np.zeros(self.n_off)])
        up += np.einsum("oi,io->i", low, sliding_window_view(psi_ext, self.n_off)[:n])
        return c * up


def solve_dual(trajectory, R, t):
    """The dual field from s = t back to s = 0, through the transpose of
    each stored forward step.

    A forward step from s to s + h with frozen coefficients is linear in
    the masses: with A0 and the gain matrix B0 at (m, s), and A1 and B1
    at the step's predicted state pred = E0 m + Phi0 B0 m,

        m' = E m + Phi (B0 m + B1 pred) / 2,

    E0 = e^(-A0 h), E = e^(-Abar h), Abar = (A0 + A1)/2, and Phi0 and Phi
    the exponential update's weights (forward._phi) at A0 and Abar.  Its
    transpose, with Psi = e^(-beta rho (t - s)) psi and
    w = B1^T (Phi Psi') / 2, is

        Psi = e^(-(Abar + beta rho) h) Psi' + e^(-(A0 + beta rho) h) w
              + e^(-beta rho h) B0^T (Phi Psi' / 2 + Phi0 w),

    where B^T is _Jumps.gain at the coefficients of the same state, so
    sum_i m_i Psi_i e^(-beta rho s) is the same at both ends of every
    step to rounding.

    Parameters
    ----------
    trajectory : forward.Trajectory
        Single-frame forward run with its predicted states
        (rescaled_trajectory).
    R : float
        Indicator cut; the datum is 1 at every node, the mapped
        representatives below R other than the top cell's.  An R at or
        below every representative, or a grid of one cell, leaves no node
        and is refused with ValueError, as is an R or t whose frame factor
        or partner reach overflows a float (_cut).
    t : float
        Final time, a stored time of the trajectory (Trajectory.index;
        ValueError otherwise).

    Returns
    -------
    DualField
        Psi at every stored time from 0 to t.  A non-finite Psi, which
        only a non-finite stored state brings about, raises
        IntegrationError.
    """
    k = trajectory.index(t)
    ts, amps = trajectory.times, trajectory.amps
    t = float(ts[k])
    jumps = _Jumps(trajectory, R, t)
    grow = trajectory.params.beta * trajectory.params.rho
    psi = np.ones(jumps.n)  # indicator datum: every node is below R
    rows = [psi]
    for j in range(k - 1, -1, -1):
        h = ts[j + 1] - ts[j]
        c0 = jumps.coefficients(trajectory.masses[j], amps[j], ts[j])
        c1 = jumps.coefficients(trajectory.preds[j], amps[j + 1], ts[j + 1])
        A0 = c0[0] - grow
        Abar = 0.5 * (A0 + (c1[0] - grow))
        phi0, phi = _phi(A0, h), _phi(Abar, h)
        w = 0.5 * jumps.gain(c1, phi * psi)
        psi = (np.exp(-(Abar + grow) * h) * psi + np.exp(-(A0 + grow) * h) * w
               + np.exp(-grow * h) * jumps.gain(c0, 0.5 * phi * psi + phi0 * w))
        if not np.all(np.isfinite(psi)):
            raise IntegrationError(f"the dual field is not finite at s = {ts[j]:.6g}: the stored trajectory is not")
        rows.append(psi)
    psi = np.array(rows[::-1])
    diagnostics = {"n_steps": k, "n_retries": 0, "max_excess": max(float(np.max(psi)) - 1.0, 0.0),
                   "max_monotonicity_violation": float(np.max(np.diff(psi, axis=1), initial=0.0))}
    return DualField(nodes=jumps.nodes, s_values=ts[: k + 1].copy(), psi=psi, R=float(R), t_final=t,
                     params=trajectory.params, diagnostics=diagnostics)


def adjoint_consistency(trajectory, dual_field):
    """Relative defect of the forward/dual conservation pairing.

    Compares F_t(R), the mass of the evolved state in the n cells whose
    representatives are the dual's nodes, against the dual pairing with
    the initial datum m(0),

        e^(-beta t) sum_(i<n) m_i(t)
            vs  e^(-beta (1-rho) t) sum_(i<n) m_i(0) Psi_i(0),

    normalized by the former.  t is the dual field's final time, a stored
    time of the trajectory, and m(0) is the trajectory's first stored
    state, the datum that rescaled_trajectory was given.  The dual steps
    through the transpose of the forward's own steps, so the two agree to
    rounding for every kernel.

    Returns
    -------
    float
    """
    p = trajectory.params
    n, t = dual_field.nodes.size, dual_field.t_final
    k = trajectory.index(t)
    Ht = GridMeasure(trajectory.edges, trajectory.masses[k], float(trajectory.amps[k]), p.rho)
    # at an edge the cumulative mass is the plain sum of the cells below it
    lhs = np.exp(-p.beta * t) * cumulative_mass(Ht, trajectory.edges[n])
    rhs = np.exp(-p.beta * (1.0 - p.rho) * t) * float(trajectory.masses[0][:n] @ dual_field.psi[0])
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


@dataclass(frozen=True)
class SubsolutionReport:
    ok: bool
    worst_margin: float
    X_at: float
    s_at: float
    M: float
    tol: float


# the margin the barrier check allows; entries (stored rows x nodes) that
# the check and the M* bound take at a time
BARRIER_TOL = 1e-3
ROW_BLOCK = 4096


def _row_blocks(dual_field):
    """Slices of whole stored rows, about ROW_BLOCK entries (rows x nodes)
    each, in order."""
    n, step = dual_field.s_values.size, max(1, ROW_BLOCK // dual_field.nodes.size)
    return [slice(j, j + step) for j in range(0, n, step)]


def subsolution_bound(dual_field, M):
    """Verify Psi(X, s) >= W((R - X) / (M (t - s))^(1/a)) - BARRIER_TOL.

    W is the stable-law profile of index a = rho - gamma, the field's
    params.a.  Checks every node X < R at every stored s value, and
    reports the worst margin min(Psi - W), the earliest time and then the
    lowest node on a tie; BARRIER_TOL is 1e-3.  M may be 0: where
    M (t - s) = 0 the barrier is its limit, 1 at every node.

    Returns
    -------
    SubsolutionReport
    """
    if not M >= 0.0:
        raise ValueError("M must be >= 0")
    R, t, a = dual_field.R, dual_field.t_final, dual_field.params.a
    tab = w_table(StableProfile(a=a))
    inv_a = 1.0 / a
    X = dual_field.nodes
    worst, X_at, s_at = np.inf, np.nan, np.nan
    for rows in _row_blocks(dual_field):
        s_rows = dual_field.s_values[rows]
        taus = t - s_rows
        # one barrier array over the block's times, each row scaled by the
        # same scalar power as a per-time evaluation would use
        scale = np.array([(M * float(tau)) ** inv_a if M * tau > 0.0 else 1.0 for tau in taus])
        barrier = tab((R - X) / scale[:, None])
        barrier[M * taus <= 0.0] = 1.0
        margin = dual_field.psi[rows] - barrier
        k = int(np.argmin(margin))  # row-major: the earliest time, then the lowest node
        row, col = divmod(k, X.size)
        if margin[row, col] < worst:  # a later block must be strictly lower
            worst, X_at, s_at = float(margin[row, col]), float(X[col]), float(s_rows[row])
    return SubsolutionReport(ok=worst >= -BARRIER_TOL, worst_margin=worst,
                             X_at=X_at, s_at=s_at, M=M, tol=BARRIER_TOL)


def _m_bound(dual_field):
    """Largest ((R - X) / W^(-1)(Psi + BARRIER_TOL))^a / tau over the
    nodes X at the stored rows with tau > 0 and Psi + BARRIER_TOL < 1;
    0 when there are none.  Each entry's W^(-1) lies in its
    WTable.bracket, which bounds the entry from both sides, so only the
    entries whose upper bound reaches the best lower bound, less 1e-9
    relative for rounding, take the inverse's bisection; the largest of
    them is the largest of all, bit for bit.  Kept apart from find_m_star
    so that its block arrays are freed before the report, which holds a
    barrier array of its own, is built."""
    R, a = dual_field.R, dual_field.params.a
    table = w_table(StableProfile(a=a))
    bound = 0.0
    for rows in _row_blocks(dual_field):
        w = dual_field.psi[rows] + BARRIER_TOL
        X, tau = np.broadcast_arrays(dual_field.nodes, (dual_field.t_final - dual_field.s_values[rows])[:, None])
        live = (tau > 0.0) & (w < 1.0)
        w, dX, tau = w[live], R - X[live], tau[live]
        lo, hi = table.bracket(w)
        floor = max(bound, float(np.max((dX / hi) ** a / tau, initial=0.0)))
        keep = (dX / lo) ** a / tau >= floor * (1.0 - 1e-9)
        Y = table.inverse(w[keep])
        bound = max(bound, float(np.max((dX[keep] / Y) ** a / tau[keep], initial=0.0)))
    return bound


def find_m_star(dual_field):
    """Smallest comparison constant M for which the barrier bound of
    subsolution_bound holds, and the report at it.

    W increases, so a node X at a stored time s with tau = t - s > 0 and
    Psi + BARRIER_TOL < 1 passes iff M >= ((R - X) / Y)^a / tau, where Y
    is the largest point with W(Y) <= Psi + BARRIER_TOL (WTable.inverse);
    every other entry passes at every M >= 0.  M* is the largest of these
    bounds over the whole stored field, or 0 when no entry has one (a zero
    kernel, or t = 0), raised by 1e-12 relative: at the bound itself the
    check can fail by the rounding of the barrier's scale (M tau)^(1/a).

    Returns
    -------
    (m_star, SubsolutionReport)
    """
    m_star = _m_bound(dual_field) * (1.0 + 1e-12)
    return m_star, subsolution_bound(dual_field, m_star)


@dataclass(frozen=True)
class QTailReport:
    K_star: float
    X_at: float
    tau_at: float
    R: float


def q_tail_bound(trajectory, R):
    """Smallest K with int_R^inf Q(X, Z, tau) dZ <= K R^(gamma - rho)
    for every X <= R, at every stored state of the trajectory, from its
    t_final (tau = 0) back to 0; the latest time wins a tie.

    R's own jump rate toward the partners beyond it is the supremum over
    X <= R, term by term at every tau.  Take a partner Z > R, both in the
    frame anchored at t_final: K(X, Z) <= K(R, Z), since every power term
    c y^p z^q has p >= 0; zeta(X / (lam (X+Z))) <= zeta(R / (lam (R+Z)));
    zeta(Z / (lam (X+Z))) = zeta(Z / (lam (R+Z))) = 1, since
    Z / (X+Z) > 1/2 and lam < 1/2; and the small-size factor obeys
    zeta(X e^(beta tau) / lam) <= zeta(R e^(beta tau) / lam).  Both rates
    sum over the same partners with the same densities.  So K* is the
    largest of R's rates times R^(rho - gamma); X_at is R, and X_at and
    tau_at are NaN when K* = 0.

    R's partners reach out to R (2 - lam)/lam.  Those on the engine's
    lattice, the grid's cells and its ghost cells, weigh R's row of the
    engine (_Engine.row).  Past the lattice they are the tail cells of the
    grid's ratio, whose small-size cutoff is exactly 1, so they add the
    tail amplitude at s = t_final - tau times one static sum; that sum is
    0.0 wherever the lattice holds R's reach.  An R that _cut refuses for
    the dual at t_final is refused here too, with ValueError.

    Returns
    -------
    QTailReport
    """
    p, eng, t = trajectory.params, trajectory.engine, trajectory.t_final
    lam = eng.cutoff.lam
    # the partners in the frame anchored at t, X = R e^(beta t), and the
    # tail cells past both the lattice and X, of which those past X's
    # reach weigh 0
    Z, _, X, (gedges, gpow) = _cut(trajectory.edges, p, lam, R, t)
    # R's row toward the partners beyond R
    row = np.where(Z > R, eng.row(X), 0.0)
    Yc = np.sqrt(gedges[:-1]) * np.sqrt(gedges[1:])
    tail = _ratio_cutoffs(eval_kernel(eng.kernel, X, Yc), X, Yc, lam) @ (gpow / (1.0 - p.rho) / Yc)
    worst, tau_at = 0.0, np.nan
    for masses, amp, s in zip(trajectory.masses[::-1], trajectory.amps[::-1], trajectory.times[::-1]):
        tau = t - s
        _, v, esc = eng.densities(masses, amp, s)
        rate = esc * eval_cutoff(R * np.exp(p.beta * tau) / lam) * (row @ v + amp * tail)
        if rate > worst:
            worst, tau_at = float(rate), float(tau)
    return QTailReport(K_star=worst * R ** (p.rho - p.gamma), X_at=float(R) if worst > 0.0 else np.nan,
                       tau_at=tau_at, R=float(R))
