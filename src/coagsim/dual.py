"""Backward dual problem along a stored forward trajectory.

The dual field Psi(X, s) lives in the frame anchored at the final time t
(X = x e^(beta(s-t))) and solves the pure-jump equation

    d Psi / d tau = int Q(X, Z, tau) [Psi(X+Z) - Psi(X)] dZ,   tau = t - s,

backward from the indicator datum Psi(X, t) = 1 on [0, R], where
Q(X, Z, tau) = K_lam(X e^(beta tau), Z e^(beta tau)) / Z * h(Z e^(beta tau), s).

In this frame the jump sizes contributed by the forward grid are static:
the forward representative Y_k at time s sits at physical size
Y_k e^(-beta s), which is Z_k = Y_k e^(-beta t) in dual coordinates at
every s.  By homogeneity the jump rates are then those of the forward
engine that stepped the trajectory (_Jumps), and they take the same
per-diagonal form: one correlation and one convolution with the
engine's weights t for the total rate, and one of each per deposit
offset for the Psi-weighted rate.  With the dual nodes at the mapped
representatives below R, plus R itself, Psi's interpolation weight at a
pair sum is the forward split weight of that pair (the engine's f_d),
except next to R, where a static corner list splits toward R itself:
both sides use one set of pair weights and pair sums, so the adjoint
holds by construction.  The backward solve steps with the forward
controller itself (forward._heun_run), not a copy of it: predict with the
frozen-coefficient exponential update, re-evaluate the rates at the
predicted endpoint, and correct with the averaged coefficients.  Both
updates are convex combinations of old values, so Psi stays in [0, 1]
exactly.  A pair sum above R reads Psi = 0; below the grid's top
representative that holds for every ghost partner, and with R above it
the corner list carries the ghost pairs that land below R.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .forward import _heun_run, _offset_groups
from .kernel import eval_cutoff, eval_kernel  # noqa: F401  eval_kernel: bench/trace_run.py wraps dual.eval_kernel
from .measure import GridMeasure, cumulative_mass
from .stablecdf import StableProfile, w_table


@dataclass
class DualField:
    """Backward dual field stored at every accepted step.

    psi[j] holds Psi(nodes, s_values[j]); s_values ascend from 0 to
    t_final and nodes ascend with nodes[-1] == R.  Psi vanishes
    identically above R.  params are the trajectory's; the barrier check
    reads its stable index a from them.
    """

    nodes: np.ndarray
    s_values: np.ndarray
    psi: np.ndarray
    R: float
    t_final: float
    params: object
    diagnostics: dict = field(default_factory=dict)


class _Jumps:
    """The dual jump operator in the frame anchored at t, on the forward
    engine of the trajectory.  Nodes i < n are the Z_i below R; node n is
    R, with its own kernel row (_Engine.row).  At backward time tau node i
    jumps toward partner k at rate c_i W(i, k) v_k: c = esc u on the
    nodes, v the forward partner densities at s = t - tau, and W(i, k) the
    engine's static pair weight, so D is c times _Engine.pair_sums.  The
    pair of cells a and a + d takes either member to P = Z_a + Z_(a+d),
    where Psi is f Psi_j + (1 - f) Psi_(j+1); targets above R read zero.

    Below node n - 1 the split is the engine's lattice split: P sits at
    offset k_d - d from the larger member with weight f_d.  So the gain
    takes one correlation (node a the smaller member) and one convolution
    (node a + d the larger) per deposit offset, with the engine's offset
    groups of t, reading Psi as zero from node n on.  The convolutions
    from below do not depend on Psi and are kept with D for each tau.  A
    static corner list carries the pairs whose lattice bracket is
    [n - 1, n] or whose sum lies between node n - 1 and R: per pair and
    gaining member, the node weights of the exact split toward R (none,
    above R) less the lattice weights that the convolutions read.

    The constructor keeps what far and rates both read: Z, n, nodes and
    row.  The gain tables, the offset groups and the corner list, are
    built once, on the first rates call (groups, corner), so a sweep of
    far alone, as in q_tail_bound, builds neither.
    """

    def __init__(self, trajectory, R, t):
        # a cut R or final time t that no dual on trajectory has is refused
        # before any kernel is evaluated
        if not 0.0 < R < np.inf:
            raise ValueError("R must be finite and > 0")
        if not 0.0 <= t <= trajectory.t_final + 1e-12:
            raise ValueError("trajectory does not cover [0, t]")
        self.trajectory, self.t = trajectory, t
        eng = self.engine = trajectory.engine
        beta = trajectory.params.beta
        # the grid's own representatives, which the engine's lattice
        # matches to rounding
        self.Z = Z = eng.reps * np.exp(-beta * t)
        self.n = n = int(np.count_nonzero(Z[: eng.N] < R * (1.0 - 1e-12)))
        self.nodes = np.append(Z[:n], R)
        self.row = eng.row(R * np.exp(beta * t))
        self._memo = (None, None)

    @cached_property
    def groups(self):
        """(above, below, n_off): the engine's offset groups of t, as the
        correlations from above and the convolutions from below read them,
        and the number of offsets that low holds."""
        eng, n = self.engine, self.n
        above, below = [], []
        for o, d0, h in _offset_groups(eng.t, eng.k, eng.f):
            # node i with partner i + d above it reads Psi at i + d + o < n
            if n - o - d0 > 0:
                above.append((d0, n - o, o, h))
            # node i with partner i - d below it (d > 0) reads it at i + o
            if d0 == 0:
                d0, h = 1, h[1:]
            if h.size and n - o - d0 > 0:
                below.append((o, d0, h))
        return above, below, 1 + max((o for o, _, _ in below), default=0)

    @cached_property
    def corner(self):
        """(rows, partners, nodes, w): the static corner list, one entry
        per pair, gaining member and node weight."""
        eng, Z, n, nodes = self.engine, self.Z, self.n, self.nodes
        R = nodes[-1]
        L, k, f = eng.t.size, eng.k, eng.f
        # the corner: the pairs whose lattice bracket is [n - 1, n], where
        # the convolutions read Psi_(n-1) and zero, and those whose sum
        # lies between node n - 1 and R.  Only candidates are tested: per
        # diagonal d, the rows a >= n - 2 - max k whose bracket a + k_d is
        # n - 3 or above and whose larger member Z_(a+d) is at or below R.
        # No other pair is selected.  A sum at or above Z_(n-1) lies below
        # the upper end of its bracket, so the bracket is n - 1 or above
        # (n - 3 leaves two cells for the rounding of Z against the
        # engine's lattice), and a sum at or below R has its larger member
        # below R.  A bracket of n - 1 has its larger member at or below
        # Z_(n-1) < R.  The candidates are sorted back to the (a, d) order
        # of the rows x diagonals block, in which bincount sums them.
        d = np.arange(L)
        first = np.maximum(max(0, n - 2 - int(k.max())), n - 3 - k)
        count = np.maximum(np.minimum(n - 1, np.searchsorted(Z, R, side="right") - 1 - d) - first + 1, 0)
        d = np.repeat(d, count)
        a = np.repeat(first - np.cumsum(count) + count, count) + np.arange(d.size)
        order = np.argsort(a * L + d)
        a, d = a[order], d[order]
        P = Z[a] + Z[a + d]
        j = np.minimum(np.searchsorted(nodes, P, side="right") - 1, n - 1)
        lo = a + k[d]
        sel = (eng.t[d] > 0.0) & ((lo == n - 1) | ((P <= R) & (j == n - 1)))
        a, d, P, j, lo, f = a[sel], d[sel], P[sel], j[sel], lo[sel], f[d[sel]]
        b = a + d
        fe = np.where(P <= R, (nodes[j + 1] - P) / (nodes[j + 1] - nodes[j]), 0.0)
        node = np.concatenate([j, j + 1, lo, lo + 1])
        w = np.concatenate([fe, np.where(P <= R, 1.0 - fe, 0.0),
                            np.where(lo < n, -f, 0.0), np.where(lo + 1 < n, f - 1.0, 0.0)])
        pair = np.tile(np.arange(a.size), 4)
        keep = w != 0.0
        node, pair = node[keep], pair[keep]
        w = w[keep] * eng.Yg[a[pair]] * eng.t[d[pair]]
        # both members gain, the larger only if it is a node below R
        both = (d[pair] > 0) & (b[pair] < n)
        return (np.concatenate([a[pair], b[pair][both]]), np.concatenate([b[pair], a[pair][both]]),
                np.concatenate([node, node[both]]), np.concatenate([w, w[both]]))

    def _densities(self, tau):
        """(c, v) at backward time tau."""
        eng, p = self.engine, self.trajectory.params
        s = self.t - tau
        _, v, esc = eng.densities(*self.trajectory.interp(s), s)
        return esc * eval_cutoff(self.nodes * np.exp(p.beta * tau) / eng.cutoff.lam), v

    def _total(self, c, w):
        """Each node's jump rate toward partners of density w."""
        return c * np.append(self.engine.pair_sums(w)[: self.n], self.row @ w)

    def _loss(self, tau):
        """(D, c, v, low) at backward time tau: each node's total jump
        rate, c and v, and low[o, i], node i's sum over the partners
        below it of the larger-member taps of offset o times Y^gamma v.

        The last result is kept: none of it depends on Psi, and a step
        starts at the exact tau where the previous step's corrector
        evaluated its endpoint.
        """
        if self._memo[0] == tau:
            return self._memo[1]
        c, v = self._densities(tau)
        n = self.n
        _, below, n_off = self.groups
        y = self.engine.Yg[:n] * v[:n]
        low = np.zeros((n_off, n))
        for o, d1, h in below:
            m = n - o - d1
            low[o, d1 : n - o] = np.convolve(y[:m], h)[:m]
        out = self._total(c, v), c, v, low
        self._memo = (tau, out)
        return out

    def rates(self, tau, psi):
        """(D, G) at backward time tau: each node's total jump rate, and
        its jump rates weighted by Psi at the targets."""
        # the corner first, so its build overlaps no array of this call
        rows, partners, nodes, w = self.corner
        D, c, v, low = self._loss(tau)
        n = self.n
        above, _, n_off = self.groups
        up = np.zeros(n)
        for d0, e, o, h in above:
            up[: e - d0] += np.correlate(v[d0:e] * psi[d0 + o : e + o], h, "full")[h.size - 1 :]
        up *= self.engine.Yg[:n]
        # low is zero wherever i + o is node n or the padding
        psi_ext = np.concatenate([psi, np.zeros(n_off)])
        up += np.einsum("oi,io->i", low, sliding_window_view(psi_ext, n_off)[:n])
        up += np.bincount(rows, w * v[partners] * psi[nodes], minlength=n)
        return D, np.append(c[:n] * up, 0.0)

    def far(self, tau):
        """Each node's jump rate at backward time tau toward partners beyond R."""
        c, v = self._densities(tau)
        return self._total(c, np.where(self.Z > self.nodes[-1], v, 0.0))


def solve_dual(trajectory, R, t, max_change=0.02):
    """Integrate the dual field backward from s = t to s = 0.

    Parameters
    ----------
    trajectory : forward.Trajectory
        Single-frame forward run covering [0, t].
    R : float
        Indicator cut; the datum is 1 on [0, R].
    t : float
        Final time, <= trajectory.t_final.
    max_change : float
        Absolute per-step change cap on Psi (Psi is order one), in (0, 1).
        The steps are the forward controller's (forward._heun_run), with
        the same step proposal; they are second order, so quartering the
        cap cuts the time-stepping error about sixteenfold.

    Returns
    -------
    DualField
    """
    if not 0.0 < max_change < 1.0:
        raise ValueError("max_change must lie in (0, 1)")
    jumps = _Jumps(trajectory, R, t)
    psi = np.ones(jumps.nodes.size)  # indicator datum: every node is <= R
    taus = [0.0]
    rows = [psi]
    mono_viol = 0.0

    def accepted(tau, psi, _h, _r0, _r1):
        nonlocal mono_viol
        taus.append(tau)
        rows.append(psi)
        mono_viol = max(mono_viol, float(np.max(np.diff(psi), initial=0.0)))

    # G <= D max(Psi) at both ends of a step, so the averaged update keeps
    # Psi in [0, 1]; the change cap is absolute, and dividing by 1.0 is exact
    _, _, n_retries = _heun_run(
        jumps.rates, psi, 0.0, t, None, max_change, lambda _psi: 1.0, accepted
    )
    taus = np.array(taus)
    # every accepted step moves tau, so reversing gives ascending s = t - tau
    return DualField(
        nodes=jumps.nodes,
        s_values=(t - taus)[::-1],
        psi=np.array(rows)[::-1],
        R=float(R),
        t_final=float(t),
        params=trajectory.params,
        diagnostics={
            "n_steps": taus.size - 1,
            "n_retries": n_retries,
            "max_monotonicity_violation": mono_viol,
        },
    )


def _pairing(h0, nodes, psi0, t, beta):
    """Exact integral of h0(x) Psi(x e^(-beta t)) dx.

    Psi is the piecewise-linear field on nodes (zero above nodes[-1],
    constant below nodes[0]); h0 cells carry the intra-cell power shape,
    so each overlap piece integrates in closed form against a linear
    function of x.
    """
    rho = h0.tail_exponent
    scale = np.exp(beta * t)
    hi = nodes[-1] * scale
    x_break = np.concatenate([h0.edges, nodes * scale])
    x_break = np.sort(x_break[(x_break >= h0.edges[0]) & (x_break <= hi)])
    distinct = np.ones(x_break.size, dtype=bool)
    distinct[1:] = x_break[1:] != x_break[:-1]
    x_break = x_break[distinct]  # as np.unique, which would import numpy.ma
    if x_break.size == 0 or x_break[-1] < hi:
        x_break = np.append(x_break, hi)
    a, b = x_break[:-1], x_break[1:]
    one_m_rho = 1.0 - rho
    two_m_rho = 2.0 - rho
    amps = np.append(h0.amplitudes, h0.tail_amplitude)
    coeff = amps[np.searchsorted(h0.edges, np.sqrt(a * b), side="right") - 1]
    mass = coeff * (b**one_m_rho - a**one_m_rho) / one_m_rho
    moment = coeff * (b**two_m_rho - a**two_m_rho) / two_m_rho
    # Psi restricted to a piece is linear in x; reconstruct the line.
    # Pieces end at hi = nodes[-1] * scale, so division by scale may only
    # exceed nodes[-1] by roundoff: clamp rather than fall off the right=0
    # cliff of the interpolant.
    pa = np.interp(np.minimum(a / scale, nodes[-1]), nodes, psi0, left=psi0[0])
    pb = np.interp(np.minimum(b / scale, nodes[-1]), nodes, psi0, left=psi0[0])
    kappa = (pb - pa) / (b - a)  # the breaks are distinct, so b > a
    return float(np.sum((pa - kappa * a) * mass + kappa * moment))


def adjoint_consistency(trajectory, dual_field):
    """Relative defect of the forward/dual conservation pairing.

    Compares the cumulative mass of the evolved state on [0, R] against
    the dual pairing with the initial datum h0,

        F_t(R)  vs  e^(-beta (1-rho) t) * <h0, Psi(. e^(-beta t), 0)>,

    normalized by the former.  R and t are the dual field's cut and final
    time, and h0 is the trajectory's first stored state, the datum that
    rescaled_trajectory was given.  Machine-level for a zero kernel (the
    dual field stays the indicator and both sides reduce to the same
    cumulative).  Otherwise it is no longer limited by the dual's time
    stepping, which is second order: it settles at the level the grid and
    the forward solve leave as the dual cap shrinks (constant kernel,
    R = 10, 16 cells per octave: 1.3e-5 at a dual cap of 0.01, 1.7e-5 at
    6.25e-4), and a coarse cap can land below that level by cancellation.

    Returns
    -------
    float
    """
    p = trajectory.params
    R, t = dual_field.R, dual_field.t_final
    masses_t, amp_t = trajectory.interp(t)
    Ht = GridMeasure(trajectory.edges, masses_t, float(amp_t), p.rho)
    lhs = np.exp(-p.beta * t) * cumulative_mass(Ht, R * np.exp(p.beta * t))
    rhs = np.exp(-p.beta * (1.0 - p.rho) * t) * _pairing(
        trajectory.measure_at(0), dual_field.nodes, dual_field.psi[0], t, p.beta
    )
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


@dataclass(frozen=True)
class SubsolutionReport:
    ok: bool
    worst_margin: float
    X_at: float
    s_at: float
    M: float
    tol: float


# stored times the barrier check samples and the margin it allows;
# entries (sampled rows x nodes) that the check and the M* bound take at a
# time; backward times of the K* sweep
MAX_S_SAMPLES = 64
BARRIER_TOL = 1e-3
SAMPLE_BLOCK = 4096
N_TAU = 5


def _samples(dual_field):
    """Indices of the stored times the barrier check samples: every
    max(1, n // MAX_S_SAMPLES)-th of the n stored s values, and the last."""
    n = dual_field.s_values.size
    return sorted(set(range(0, n, max(1, n // MAX_S_SAMPLES))) | {n - 1})


def _sample_blocks(dual_field):
    """_samples in blocks of whole rows, about SAMPLE_BLOCK entries
    (rows x nodes) each, in order."""
    idx = _samples(dual_field)
    step = max(1, SAMPLE_BLOCK // dual_field.nodes.size)
    return [idx[j : j + step] for j in range(0, len(idx), step)]


def subsolution_bound(dual_field, M):
    """Verify Psi(X, s) >= W((R - X) / (M (t - s))^(1/a)) - BARRIER_TOL.

    W is the stable-law profile of index a = rho - gamma, the field's
    params.a.  Checks every node X <= R at every
    max(1, n // MAX_S_SAMPLES)-th of the n stored s values and the last
    (MAX_S_SAMPLES = 64; all of them when n < 128), and reports the worst
    margin min(Psi - W); BARRIER_TOL is 1e-3.  M may be 0: where
    M (t - s) = 0 the barrier is its limit, the indicator of X < R.

    Returns
    -------
    SubsolutionReport
    """
    if not M >= 0.0:
        raise ValueError("M must be >= 0")
    R, t = dual_field.R, dual_field.t_final
    a = dual_field.params.a
    tab = w_table(StableProfile(a=a))
    inv_a = 1.0 / a
    X = dual_field.nodes
    worst, X_at, s_at = np.inf, np.nan, np.nan
    for idx in _sample_blocks(dual_field):
        s_rows = dual_field.s_values[idx]
        taus = t - s_rows
        # one barrier array over the block's times, each row scaled by the
        # same scalar power as a per-time evaluation would use
        scale = np.array([(M * float(tau)) ** inv_a if M * tau > 0.0 else 1.0 for tau in taus])
        barrier = np.where(X >= R, 0.0, tab(np.maximum((R - X) / scale[:, None], 0.0)))
        barrier[M * taus <= 0.0] = np.where(X < R, 1.0, 0.0)
        margin = dual_field.psi[idx] - barrier
        k = int(np.argmin(margin))  # row-major: the earliest sample, then the lowest node
        row, col = divmod(k, X.size)
        if margin[row, col] < worst:  # a later block must be strictly lower
            worst, X_at, s_at = float(margin[row, col]), float(X[col]), float(s_rows[row])
    return SubsolutionReport(ok=worst >= -BARRIER_TOL, worst_margin=worst,
                             X_at=X_at, s_at=s_at, M=M, tol=BARRIER_TOL)


def _m_bound(dual_field):
    """Largest ((R - X) / W^(-1)(Psi + BARRIER_TOL))^a / tau over the
    samples of subsolution_bound with X < R, tau > 0 and
    Psi + BARRIER_TOL < 1; 0 when there are none.  Kept apart from
    find_m_star so that its sample arrays are freed before the report,
    which holds a barrier array of its own, is built."""
    R, a = dual_field.R, dual_field.params.a
    table = w_table(StableProfile(a=a))
    bound = 0.0
    for idx in _sample_blocks(dual_field):
        w = dual_field.psi[idx] + BARRIER_TOL
        X, tau = np.broadcast_arrays(dual_field.nodes, (dual_field.t_final - dual_field.s_values[idx])[:, None])
        live = (X < R) & (tau > 0.0) & (w < 1.0)
        Y = table.inverse(w[live])
        bound = max(bound, float(np.max(((R - X[live]) / Y) ** a / tau[live], initial=0.0)))
    return bound


def find_m_star(dual_field):
    """Smallest comparison constant M for which the barrier bound of
    subsolution_bound holds, and the report at it.

    W increases, so a sample (X, s) with tau = t - s > 0, X < R and
    Psi + BARRIER_TOL < 1 passes iff M >= ((R - X) / Y)^a / tau, where Y
    is the largest point with W(Y) <= Psi + BARRIER_TOL (WTable.inverse);
    every other sample passes at every M >= 0.  M* is the largest of these
    bounds, or 0 when no sample has one (a zero kernel, or t = 0), raised
    by 1e-12 relative: at the bound itself the check can fail by the
    rounding of the barrier's scale (M tau)^(1/a).

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
    """Smallest K with int_R^inf Q(X, Z, tau) dZ <= K R^(gamma - rho).

    Sweeps the jump rates toward partners beyond R over all nodes X <= R
    and N_TAU (5) evenly spaced backward times over the whole trajectory,
    from 0 to its t_final; the supremum of the left side times
    R^(rho - gamma) is the reported constant.  It reads only _Jumps.far,
    so no gain table (offset groups or corner list) is built.

    Returns
    -------
    QTailReport
    """
    p = trajectory.params
    t = trajectory.t_final
    jumps = _Jumps(trajectory, R, t)
    worst, X_at, tau_at = 0.0, np.nan, np.nan
    for tau in np.linspace(0.0, t, N_TAU):
        left = jumps.far(float(tau))
        k = int(np.argmax(left))
        if left[k] > worst:
            worst, X_at, tau_at = float(left[k]), float(jumps.nodes[k]), float(tau)
    K_star = worst * R ** (p.rho - p.gamma)
    return QTailReport(K_star=K_star, X_at=X_at, tau_at=tau_at, R=float(R))
