"""Size distributions on a geometric grid, with a power-law tail extension.

A distribution is stored as nonnegative masses on geometrically spaced cells
[x_i, x_{i+1}) plus an analytic tail A x^(-rho) dx beyond the last edge.
Within a cell the mass is assumed to follow the same power-law shape x^(-rho),
which makes partial-cell masses, weighted norms and inverse-power moments
available in closed form.

The weighted quantities all refer to the target self-similar profile
h(x) = (1 - rho) x^(-rho): the normalized cumulative F(R)/R^(1-rho), the
weighted sup distance between two distributions, and upper/lower envelope
checks against F(R) = R^(1-rho) and R^(1-rho) (1 - (R0/R)^delta)_+.
"""

from dataclasses import dataclass

import numpy as np

CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Params:
    """Exponents and scales of the self-similar problem.

    Parameters
    ----------
    gamma : float
        Kernel homogeneity degree, in [0, 1).
    rho : float
        Tail exponent of the target profile, in (gamma, 1).
    lam : float
        Kernel cutoff scale, in (0, 1/2).
    delta : float
        Lower-envelope correction exponent, in (0, rho - gamma).
    R0 : float
        Lower-envelope onset scale, > 0.
    """

    gamma: float
    rho: float
    lam: float = 1e-3
    delta: float = 0.2
    R0: float = 10.0

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not (self.gamma < self.rho < 1.0):
            raise ValueError(f"rho must lie in (gamma, 1), got {self.rho}")
        if not (0.0 < self.lam < 0.5):
            raise ValueError(f"lam must lie in (0, 1/2), got {self.lam}")
        if not (0.0 < self.delta < self.rho - self.gamma):
            raise ValueError(f"delta must lie in (0, rho - gamma), got {self.delta}")
        if not self.R0 > 0.0:
            raise ValueError(f"R0 must be > 0, got {self.R0}")

    @property
    def a(self):
        """Stable-law index rho - gamma, in (0, 1)."""
        return self.rho - self.gamma

    @property
    def beta(self):
        """Self-similar rescaling rate 1 / (rho - gamma)."""
        return 1.0 / (self.rho - self.gamma)


def geometric_grid(x_min=1e-4, x_max=1e8, ratio=2.0 ** (1.0 / 16.0)):
    """Geometric cell edges from x_min up to (approximately) x_max.

    The number of cells is rounded so edges stay an exact geometric
    sequence x_min * ratio^i; the realized top edge is the lattice point
    closest to x_max.
    """
    if not (x_min > 0.0 and x_max > x_min and ratio > 1.0):
        raise ValueError("need 0 < x_min < x_max and ratio > 1")
    n = max(1, round(np.log(x_max / x_min) / np.log(ratio)))
    return x_min * ratio ** np.arange(n + 1)


@dataclass(frozen=True)
class GridMeasure:
    """Nonnegative masses on geometric cells plus an analytic power tail.

    Attributes
    ----------
    edges : ndarray
        Cell edges, strictly increasing, positive, geometric.
    cell_mass : ndarray
        Nonnegative mass in each cell [edges[i], edges[i+1]).
    tail_amplitude : float
        A >= 0; the distribution continues as A x^(-tail_exponent) dx
        beyond the last edge.
    tail_exponent : float
        rho in (0, 1); also the intra-cell density shape exponent.
    """

    edges: np.ndarray
    cell_mass: np.ndarray
    tail_amplitude: float
    tail_exponent: float

    def __post_init__(self):
        edges = np.ascontiguousarray(np.asarray(self.edges, dtype=float))
        mass = np.ascontiguousarray(np.asarray(self.cell_mass, dtype=float))
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must be a 1-d array with at least 2 entries")
        if mass.shape != (edges.size - 1,):
            raise ValueError("cell_mass length must equal len(edges) - 1")
        if not np.all(edges > 0.0) or not np.all(np.diff(edges) > 0.0):
            raise ValueError("edges must be positive and strictly increasing")
        ratios = edges[1:] / edges[:-1]
        if not np.allclose(ratios, ratios[0], rtol=1e-9, atol=0.0):
            raise ValueError("edges must form a geometric sequence")
        if np.any(mass < 0.0) or not np.all(np.isfinite(mass)):
            raise ValueError("cell masses must be finite and >= 0")
        if not (np.isfinite(self.tail_amplitude) and self.tail_amplitude >= 0.0):
            raise ValueError("tail_amplitude must be finite and >= 0")
        if not (0.0 < self.tail_exponent < 1.0):
            raise ValueError("tail_exponent must lie in (0, 1)")
        edges.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "cell_mass", mass)

    @property
    def n_cells(self):
        return self.cell_mass.size

    @property
    def ratio(self):
        return self.edges[1] / self.edges[0]

    @property
    def reps(self):
        """Geometric cell midpoints, used as collision representatives."""
        return np.sqrt(self.edges[:-1] * self.edges[1:])

    def total_mass(self):
        """Mass carried by the cells (the analytic tail is infinite)."""
        return float(np.sum(self.cell_mass))

    def with_cell_mass(self, cell_mass, tail_amplitude=None):
        """Copy with replaced masses (and optionally tail amplitude)."""
        amp = self.tail_amplitude if tail_amplitude is None else tail_amplitude
        return GridMeasure(self.edges, cell_mass, amp, self.tail_exponent)


def _edge_powers(m):
    """edges^(1 - rho), the cumulative of the unit power-law density."""
    return m.edges ** (1.0 - m.tail_exponent)


def edge_cumulative(m):
    """Cumulative mass at every edge (length n_cells + 1, starts at 0)."""
    out = np.empty(m.edges.size)
    out[0] = 0.0
    np.cumsum(m.cell_mass, out=out[1:])
    return out


def cumulative_mass(m, R):
    """Mass of [x_0, R], resolving partial cells with the power-law shape.

    Below the first edge the result is 0; beyond the last edge the
    analytic tail contributes A (R^(1-rho) - x_N^(1-rho)) / (1-rho).

    Parameters
    ----------
    m : GridMeasure
    R : float or ndarray
        Nonnegative threshold(s).

    Returns
    -------
    float or ndarray
    """
    R = np.asarray(R, dtype=float)
    if np.any(R < 0.0) or not np.all(np.isfinite(R)):
        raise ValueError("R must be finite and >= 0")
    one_m_rho = 1.0 - m.tail_exponent
    cums = edge_cumulative(m)
    ep = _edge_powers(m)
    Rc = np.clip(R, m.edges[0], m.edges[-1])
    idx = np.clip(np.searchsorted(m.edges, Rc, side="right") - 1, 0, m.n_cells - 1)
    frac = (Rc**one_m_rho - ep[idx]) / (ep[idx + 1] - ep[idx])
    out = cums[idx] + frac * m.cell_mass[idx]
    out = np.where(R <= m.edges[0], 0.0, out)
    tail = cums[-1] + m.tail_amplitude * (R**one_m_rho - ep[-1]) / one_m_rho
    out = np.where(R >= m.edges[-1], tail, out)
    return out if out.ndim else float(out)


def xrho_norm(m, params=None):
    """Weighted sup norm sup_R F(R) / R^(1-rho), including the tail limit.

    Inside a cell F(R)/R^(1-rho) is monotone in R (it equals
    B + A R^(rho-1) for cell constants A, B), so the supremum over all R
    is attained at a cell edge or in the R -> inf limit
    tail_amplitude / (1-rho); the returned value is exact for the stored
    representation, not a sampled estimate.
    """
    rho = m.tail_exponent
    if params is not None and params.rho != rho:
        raise ValueError("params.rho disagrees with the measure's tail exponent")
    cums = edge_cumulative(m)
    ep = _edge_powers(m)
    edge_vals = cums[1:] / ep[1:]
    tail_limit = m.tail_amplitude / (1.0 - rho)
    return float(max(np.max(edge_vals, initial=0.0), tail_limit))


def xrho_dist(m1, m2, params=None):
    """Weighted sup distance sup_R |F1(R) - F2(R)| / R^(1-rho).

    Requires both measures on the same grid with the same tail exponent;
    the supremum is then again attained at cell edges or in the tail
    limit, and is evaluated exactly.
    """
    if m1.tail_exponent != m2.tail_exponent:
        raise ValueError("measures must share the tail exponent")
    if m1.edges.shape != m2.edges.shape or not np.allclose(
        m1.edges, m2.edges, rtol=1e-12, atol=0.0
    ):
        raise ValueError("measures must live on the same grid")
    rho = m1.tail_exponent
    diff = edge_cumulative(m1) - edge_cumulative(m2)
    ep = _edge_powers(m1)
    edge_vals = np.abs(diff[1:]) / ep[1:]
    tail_limit = abs(m1.tail_amplitude - m2.tail_amplitude) / (1.0 - rho)
    return float(max(np.max(edge_vals, initial=0.0), tail_limit))


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of an envelope check.

    ok is True when every probed ratio respects the envelope within the
    requested slack (plus a 1e-12 roundoff allowance); worst_ratio is the
    extremal ratio F(R) / envelope(R) and location the R where it occurs
    (inf for the tail limit).
    """

    ok: bool
    worst_ratio: float
    location: float
    slack: float


_ROUNDOFF = 1e-12


def envelope_check_upper(m, params, slack=0.0):
    """Check F(R) <= (1 + slack) R^(1-rho) at all edges and in the tail.

    The upper envelope is the cumulative of the target profile
    (1-rho) x^(-rho); the check covers every cell edge and the
    R -> inf limit of the ratio.
    """
    rho = params.rho
    if m.tail_exponent != rho:
        raise ValueError("params.rho disagrees with the measure's tail exponent")
    cums = edge_cumulative(m)
    ep = _edge_powers(m)
    ratios = cums[1:] / ep[1:]
    i = int(np.argmax(ratios))
    worst, where = float(ratios[i]), float(m.edges[1 + i])
    tail_limit = m.tail_amplitude / (1.0 - rho)
    if tail_limit > worst:
        worst, where = tail_limit, np.inf
    ok = worst <= 1.0 + slack + _ROUNDOFF
    return EnvelopeReport(ok=ok, worst_ratio=worst, location=where, slack=slack)


def envelope_check_lower(m, params, slack=0.0):
    """Check F(R) >= (1 - slack) R^(1-rho) (1 - (R0/R)^delta)_+ at all edges.

    Edges at or below R0 impose no constraint (the envelope vanishes
    there); worst_ratio is the minimal F(R)/envelope(R) over the rest.
    """
    rho = params.rho
    if m.tail_exponent != rho:
        raise ValueError("params.rho disagrees with the measure's tail exponent")
    cums = edge_cumulative(m)
    ep = _edge_powers(m)
    edges = m.edges
    live = edges[1:] > params.R0
    if not np.any(live):
        return EnvelopeReport(ok=True, worst_ratio=np.inf, location=np.nan, slack=slack)
    target = ep[1:][live] * (1.0 - (params.R0 / edges[1:][live]) ** params.delta)
    ratios = cums[1:][live] / target
    i = int(np.argmin(ratios))
    worst, where = float(ratios[i]), float(edges[1:][live][i])
    ok = worst >= 1.0 - slack - _ROUNDOFF
    return EnvelopeReport(ok=ok, worst_ratio=worst, location=where, slack=slack)


def dyadic_tail_integral(m, x, alpha):
    """Inverse-power tail moment int_x^inf z^(-alpha) dmu(z), in closed form.

    Each (partial) cell contributes with its power-law shape integrated
    exactly; the analytic tail converges only for alpha > 1 - rho, and
    alpha <= 1 - rho raises ValueError.

    Parameters
    ----------
    m : GridMeasure
    x : float
        Lower limit, > 0.
    alpha : float
        Moment exponent, > 1 - rho.

    Returns
    -------
    float
    """
    rho = m.tail_exponent
    if not x > 0.0:
        raise ValueError("x must be > 0")
    if not alpha > 1.0 - rho:
        raise ValueError(f"alpha must exceed 1 - rho = {1.0 - rho} for a finite tail moment")
    edges = m.edges
    one_m_rho = 1.0 - rho
    q = one_m_rho - alpha  # exponent of the integrated power, < 0 in the tail
    lo = np.maximum(edges[:-1], x)
    hi = edges[1:]
    live = hi > x
    total = 0.0
    if np.any(live):
        dens = m.cell_mass[live] * one_m_rho / (hi[live] ** one_m_rho - edges[:-1][live] ** one_m_rho)
        if abs(q) < 1e-13:
            seg = np.log(hi[live] / lo[live])
        else:
            seg = (hi[live] ** q - lo[live] ** q) / q
        total += float(np.sum(dens * seg))
    start = max(x, edges[-1])
    total += m.tail_amplitude * start**q / (-q)
    return total


def power_law_init(params, edges=None):
    """Initial datum with cumulative F(R) = R^(1-rho) (1 - (R0/R)^delta)_+.

    Cell masses reproduce that cumulative exactly at every edge, and the
    analytic tail amplitude is the asymptotic density level (1 - rho),
    so both envelope checks pass with zero slack.
    """
    if edges is None:
        edges = geometric_grid()
    rho, delta, R0 = params.rho, params.delta, params.R0
    F = edges ** (1.0 - rho) * np.clip(1.0 - (R0 / edges) ** delta, 0.0, None)
    mass = np.clip(np.diff(F), 0.0, None)
    return GridMeasure(edges, mass, tail_amplitude=1.0 - rho, tail_exponent=rho)


def refit_tail(m, n_cells=8, skip_top=0):
    """Refit the tail amplitude from the top cells, pinning the exponent.

    Takes the geometric mean of the per-cell amplitudes
    m_i (1-rho) / (x_r^(1-rho) - x_l^(1-rho)) over the last n_cells cells
    (optionally ignoring skip_top synthetic cells at the very top); exact
    for data that is a pure power law there.  Returns the current
    amplitude unchanged when the window holds no positive mass.
    """
    one_m_rho = 1.0 - m.tail_exponent
    hi = m.n_cells - skip_top
    lo = max(0, hi - n_cells)
    mass = m.cell_mass[lo:hi]
    dpow = m.edges[lo + 1 : hi + 1] ** one_m_rho - m.edges[lo:hi] ** one_m_rho
    amps = mass * one_m_rho / dpow
    pos = amps > 0.0
    if not np.any(pos):
        return m.tail_amplitude
    return float(np.exp(np.mean(np.log(amps[pos]))))


def to_csv(m, path_or_file):
    """Write the measure as CSV with a self-describing header comment.

    Floats are rendered with repr, so from_csv reproduces the measure
    bit for bit.
    """
    header = (
        f"# coagsim-measure schema_version={CSV_SCHEMA_VERSION}"
        f" tail_amplitude={float(m.tail_amplitude)!r} tail_exponent={float(m.tail_exponent)!r}\n"
    )
    body = ["x_left,x_right,cell_mass\n"]
    for xl, xr, w in zip(m.edges[:-1], m.edges[1:], m.cell_mass):
        body.append(f"{float(xl)!r},{float(xr)!r},{float(w)!r}\n")
    text = header + "".join(body)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)


def from_csv(path_or_file):
    """Read a measure written by to_csv."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as fh:
            lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# coagsim-measure"):
        raise ValueError("not a coagsim measure CSV")
    meta = dict(tok.split("=", 1) for tok in lines[0][2:].split()[1:])
    if int(meta["schema_version"]) != CSV_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {meta['schema_version']}")
    rows = [ln.split(",") for ln in lines[2:] if ln.strip()]
    left = np.array([float(r[0]) for r in rows])
    right = np.array([float(r[1]) for r in rows])
    edges = np.append(left, right[-1])
    mass = np.array([float(r[2]) for r in rows])
    return GridMeasure(
        edges,
        mass,
        tail_amplitude=float(meta["tail_amplitude"]),
        tail_exponent=float(meta["tail_exponent"]),
    )
