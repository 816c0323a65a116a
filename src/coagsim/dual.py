"""Backward dual problem along a stored forward trajectory.

The dual field Psi(X, s) lives in the frame anchored at the final time t
(X = x e^(beta(s-t))) and solves the pure-jump equation

    d Psi / d tau = int Q(X, Z, tau) [Psi(X+Z) - Psi(X)] dZ,   tau = t - s,

backward from the indicator datum Psi(X, t) = 1 on [0, R], where
Q(X, Z, tau) = K_lam(X e^(beta tau), Z e^(beta tau)) / Z * h(Z e^(beta tau), s).

In this frame the jump sizes contributed by the forward grid are static:
the forward representative Y_k at time s sits at physical size
Y_k e^(-beta s), which is Z_k = Y_k e^(-beta t) in dual coordinates at
every s.  Placing the dual nodes at exactly these mapped representatives
(plus an explicit node at R) makes the discrete jump operator the adjoint
of the forward deposit rule: the forward two-point split weight of a pair
sum and the linear interpolation weight of Psi at the jump target are the
same ratio.  Each backward step uses the frozen-coefficient exponential
update, a convex combination of old values, so Psi stays in [0, 1]
exactly.  Partners beyond the stored grid come from the same synthesized
tail cells the forward loss term uses (forward._ghost_partners), and the
static jump kernel is the forward one (forward._ratio_kernel); ghost jump
targets land above R where Psi vanishes, so they act as pure decay.
"""

from dataclasses import dataclass, field

import numpy as np

from .forward import IntegrationError, _exp_update, _ghost_partners, _partner_ratio, _ratio_kernel
from .kernel import eval_cutoff
from .kernel import eval_kernel  # noqa: F401  not called here; bench/trace_run.py wraps dual.eval_kernel
from .measure import GridMeasure, cumulative_mass
from .stablecdf import w_table

__all__ = [
    "DualField",
    "solve_dual",
    "adjoint_consistency",
    "subsolution_bound",
    "find_m_star",
    "q_tail_bound",
    "SubsolutionReport",
    "QTailReport",
]


@dataclass
class DualField:
    """Backward dual field stored at every accepted step.

    psi[j] holds Psi(nodes, s_values[j]); s_values ascend from 0 to
    t_final and nodes ascend with nodes[-1] == R.  Psi vanishes
    identically above R.
    """

    nodes: np.ndarray
    s_values: np.ndarray
    psi: np.ndarray
    R: float
    t_final: float
    params: object
    diagnostics: dict = field(default_factory=dict)

    def eval(self, j, X):
        """Piecewise-linear Psi(X, s_values[j]); zero above R, constant
        below the lowest node."""
        return np.interp(np.asarray(X, dtype=float), self.nodes, self.psi[j],
                         left=self.psi[j][0], right=0.0)


class _DualTables:
    """Static pair tables in the frame anchored at time t."""

    def __init__(self, trajectory, R, t):
        p = trajectory.params
        cutoff = trajectory.cutoff
        kernel = trajectory.kernel
        edges = trajectory.edges
        lam = cutoff.lam
        Y = np.sqrt(edges[:-1] * edges[1:])
        # synthesized tail partners, as in the forward loss term
        _, Yg, gpow = _ghost_partners(edges, p.rho, lam)
        Yall = np.concatenate([Y, Yg])
        scale = np.exp(-p.beta * t)
        Zall = Yall * scale
        # dual nodes: mapped grid representatives up to R, then R itself
        n_grid = Y.size
        below = Zall[:n_grid] < R * (1.0 - 1e-12)
        self.nodes = np.concatenate([Zall[:n_grid][below], [R]])
        # partner columns beyond the ratio support of any node are dead
        keep = Zall <= R * _partner_ratio(lam) * 1.01
        self.k_idx = np.nonzero(keep)[0]
        self.Zk = Zall[keep]
        self.Yk = Yall[keep]
        self.gpow = gpow
        self.trivial = kernel.family == "zero"
        if self.trivial:
            self.Kd = np.zeros((self.nodes.size, self.Zk.size))
        else:
            self.Kd = _ratio_kernel(kernel, cutoff, self.nodes[:, None], self.Zk[None, :])
        self.P = self.nodes[:, None] + self.Zk[None, :]
        self.params = p
        self.cutoff = cutoff
        self.t = t

    def q_matrix(self, trajectory, tau):
        """Jump rate table q[i, k] at backward time tau = t - s."""
        p = self.params
        s = self.t - tau
        masses, amp = trajectory.interp(s)
        m_all = np.concatenate([masses, amp * self.gpow])[self.k_idx]
        grow = np.exp(p.beta * tau)
        u_x = eval_cutoff(self.cutoff, self.nodes * grow / self.cutoff.lam)
        u_z = eval_cutoff(self.cutoff, self.Zk * grow / self.cutoff.lam)
        esc = np.exp(p.gamma * p.beta * tau)
        col = u_z * m_all / self.Yk
        return esc * u_x[:, None] * (self.Kd * col[None, :])


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
        Absolute per-step change cap on Psi (Psi is order one).

    Returns
    -------
    DualField
    """
    if not R > 0.0:
        raise ValueError("R must be > 0")
    if not 0.0 <= t <= trajectory.t_final + 1e-12:
        raise ValueError("trajectory does not cover [0, t]")
    tab = _DualTables(trajectory, R, t)
    nodes = tab.nodes
    psi = np.ones(nodes.size)  # indicator datum: every node is <= R
    taus = [0.0]
    rows = [psi.copy()]
    n_retries = 0
    mono_viol = 0.0
    if tab.trivial or t == 0.0:
        if t > 0.0:
            taus.append(t)
            rows.append(psi.copy())
    else:
        tau = 0.0
        dtau = None
        while tau < t - 1e-14:
            q = tab.q_matrix(trajectory, tau)
            D = q.sum(axis=1)
            psi_at = np.interp(tab.P.ravel(), nodes, psi, right=0.0).reshape(tab.P.shape)
            G = np.sum(q * psi_at, axis=1)
            d_max = float(D.max())
            cap = 0.5 / d_max if d_max > 0.0 else np.inf
            dtau = cap if dtau is None else min(1.2 * dtau, cap)
            dtau = min(dtau, t - tau)
            for _ in range(60):
                trial = _exp_update(psi, D, G, dtau)
                change = float(np.max(np.abs(trial - psi)))
                if change <= max_change:
                    break
                dtau *= 0.5
                n_retries += 1
            else:
                raise IntegrationError(f"dual step size collapsed at tau={tau:.6g} (change={change:.3g})")
            psi = trial
            tau += dtau
            taus.append(tau)
            rows.append(psi.copy())
            mono_viol = max(mono_viol, float(np.max(np.diff(psi), initial=0.0)))
    taus = np.array(taus)
    psi_all = np.array(rows)
    # flip to ascending s = t - tau
    order = np.argsort(t - taus, kind="stable")
    return DualField(
        nodes=nodes,
        s_values=(t - taus)[order],
        psi=psi_all[order],
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
    x_break = np.unique(x_break[(x_break >= h0.edges[0]) & (x_break <= hi)])
    if x_break.size == 0 or x_break[-1] < hi:
        x_break = np.append(x_break, hi)
    one_m_rho = 1.0 - rho
    two_m_rho = 2.0 - rho
    total = 0.0
    for a, b in zip(x_break[:-1], x_break[1:]):
        xm = np.sqrt(a * b)
        k = np.searchsorted(h0.edges, xm, side="right") - 1
        if k >= h0.n_cells:
            coeff = h0.tail_amplitude
        else:
            el, er = h0.edges[k], h0.edges[k + 1]
            denom = er**one_m_rho - el**one_m_rho
            coeff = h0.cell_mass[k] * one_m_rho / denom if denom > 0 else 0.0
        if coeff == 0.0:
            continue
        mass = coeff * (b**one_m_rho - a**one_m_rho) / one_m_rho
        moment = coeff * (b**two_m_rho - a**two_m_rho) / two_m_rho
        # Psi restricted to the piece is linear in x; reconstruct the line.
        # Pieces end at hi = nodes[-1] * scale, so division by scale may
        # only exceed nodes[-1] by roundoff: clamp rather than fall off
        # the right=0 cliff of the interpolant.
        pa = float(np.interp(min(a / scale, nodes[-1]), nodes, psi0, left=psi0[0]))
        pb = float(np.interp(min(b / scale, nodes[-1]), nodes, psi0, left=psi0[0]))
        if b > a:
            kappa = (pb - pa) / (b - a)
            alpha = pa - kappa * a
        else:
            kappa, alpha = 0.0, pa
        total += alpha * mass + kappa * moment
    return total


def adjoint_consistency(h0, trajectory, R, t, dual_field=None):
    """Relative defect of the forward/dual conservation pairing.

    Compares the cumulative mass of the evolved state on [0, R] against
    the dual pairing with the initial datum,

        F_t(R)  vs  e^(-beta (1-rho) t) * <h0, Psi(. e^(-beta t), 0)>,

    normalized by the former.  Machine-level for a zero kernel (the dual
    field stays the indicator and both sides reduce to the same
    cumulative); otherwise limited by the time stepping on both sides.

    Returns
    -------
    float
    """
    p = trajectory.params
    if dual_field is None:
        dual_field = solve_dual(trajectory, R, t)
    masses_t, amp_t = trajectory.interp(t)
    Ht = GridMeasure(trajectory.edges, masses_t, float(amp_t), p.rho)
    lhs = np.exp(-p.beta * t) * cumulative_mass(Ht, R * np.exp(p.beta * t))
    rhs = np.exp(-p.beta * (1.0 - p.rho) * t) * _pairing(
        h0, dual_field.nodes, dual_field.psi[0], t, p.beta
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


def subsolution_bound(dual_field, profile, M, s=None, tol=1e-3, max_s_samples=64):
    """Verify Psi(X, s) >= W((R - X) / (M (t - s))^(1/a)) - tol.

    Checks every node X <= R at the given s (or a spread of stored s
    values including both endpoints when s is None) and reports the worst
    margin min(Psi - W).

    Returns
    -------
    SubsolutionReport
    """
    if not M > 0.0:
        raise ValueError("M must be > 0")
    R, t = dual_field.R, dual_field.t_final
    tab = w_table(profile)
    inv_a = 1.0 / profile.a
    if s is None:
        n = dual_field.s_values.size
        stride = max(1, n // max_s_samples)
        idx = sorted(set(range(0, n, stride)) | {n - 1})
    else:
        idx = [int(np.argmin(np.abs(dual_field.s_values - s)))]
    worst, X_at, s_at = np.inf, np.nan, np.nan
    X = dual_field.nodes
    for j in idx:
        sj = float(dual_field.s_values[j])
        tau = t - sj
        if tau <= 0.0:
            barrier = np.where(X < R, 1.0, 0.0)
        else:
            Yarg = (R - X) / (M * tau) ** inv_a
            barrier = np.where(X >= R, 0.0, tab(np.maximum(Yarg, 0.0)))
        margin = dual_field.psi[j] - barrier
        k = int(np.argmin(margin))
        if margin[k] < worst:
            worst, X_at, s_at = float(margin[k]), float(X[k]), sj
    return SubsolutionReport(ok=bool(worst >= -tol), worst_margin=worst,
                             X_at=X_at, s_at=s_at, M=M, tol=tol)


def find_m_star(dual_field, profile, tol=1e-3, m_lo=1e-2, m_hi=1e4, iters=40):
    """Smallest comparison constant M for which the barrier bound holds.

    The barrier decreases in M, so bisection in log M applies.  Returns
    (m_star, report_at_m_star); m_star is inf when even m_hi fails.
    """
    hi_rep = subsolution_bound(dual_field, profile, m_hi, tol=tol)
    if not hi_rep.ok:
        return np.inf, hi_rep
    lo_rep = subsolution_bound(dual_field, profile, m_lo, tol=tol)
    if lo_rep.ok:
        return m_lo, lo_rep
    lo, hi = np.log(m_lo), np.log(m_hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if subsolution_bound(dual_field, profile, float(np.exp(mid)), tol=tol).ok:
            hi = mid
        else:
            lo = mid
    m_star = float(np.exp(hi))
    return m_star, subsolution_bound(dual_field, profile, m_star, tol=tol)


@dataclass(frozen=True)
class QTailReport:
    K_star: float
    X_at: float
    tau_at: float
    R: float


def q_tail_bound(trajectory, R, tau_values=None, t=None):
    """Smallest K with int_R^inf Q(X, Z, tau) dZ <= K R^(gamma - rho).

    Sweeps the jump rates toward partners beyond R over all nodes X <= R
    and the given backward times; the supremum of the left side times
    R^(rho - gamma) is the reported constant.

    Returns
    -------
    QTailReport
    """
    p = trajectory.params
    if t is None:
        t = trajectory.t_final
    if tau_values is None:
        tau_values = np.linspace(0.0, t, 5) if t > 0.0 else [0.0]
    tab = _DualTables(trajectory, R, t)
    far = tab.Zk > R
    worst, X_at, tau_at = 0.0, np.nan, np.nan
    for tau in tau_values:
        if not 0.0 <= tau <= t + 1e-12:
            raise ValueError("tau outside trajectory coverage")
        q = tab.q_matrix(trajectory, min(float(tau), t))
        left = q[:, far].sum(axis=1)
        k = int(np.argmax(left))
        if left[k] > worst:
            worst, X_at, tau_at = float(left[k]), float(tab.nodes[k]), float(tau)
    K_star = worst * R ** (p.rho - p.gamma)
    return QTailReport(K_star=K_star, X_at=X_at, tau_at=tau_at, R=float(R))
