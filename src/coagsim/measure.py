"""Size distributions on a geometric grid, with a power-law tail extension.

A distribution is stored as nonnegative masses on geometrically spaced cells
[x_i, x_{i+1}) plus an analytic tail A x^(-rho) dx beyond the last edge.
Within a cell the mass is assumed to follow the same power-law shape x^(-rho):
cell k carries the density c_k x^(-rho) with
c_k = m_k (1-rho) / (x_(k+1)^(1-rho) - x_k^(1-rho)) (GridMeasure.amplitudes,
density_at), which makes partial-cell masses, weighted norms and
inverse-power moments available in closed form.  Every other module reads
c_k from here.

Measures and numeric tables share one self-describing CSV format
(write_tagged_csv / read_tagged_csv): a header line
"# coagsim-<tag> schema_version=1 k=v ...", a column line, and rows of
repr-rendered floats, so a file reads back bit for bit.

The weighted quantities all refer to the target self-similar profile
h(x) = (1 - rho) x^(-rho): the normalized cumulative F(R)/R^(1-rho), the
weighted sup distance between two distributions, and upper/lower envelope
checks against F(R) = R^(1-rho) and R^(1-rho) (1 - (R0/R)^delta)_+.

Three conventions of the invariant set live here alone, and the forward
evolution and the stationary search read them from here:

- the X_rho supremum sup_R |F(R)| / R^(1-rho) is the largest value at a
  cell edge or the tail limit (_xrho_sup, one value per row, so a whole
  trajectory at once);
- the lower envelope R^(1-rho) (1 - (R0/R)^delta)_+ (_lower_envelope),
  which the initial datum and its check share; no other module reads
  R0 or delta;
- the tail cells: the grid continued above its top edge at its own
  ratio, where a tail A x^(-rho) dx puts A times each cell's
  x^(1-rho) increment, divided by 1 - rho (_tail_cells).
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
    delta : float
        Lower-envelope correction exponent, in (0, rho - gamma).
    R0 : float
        Lower-envelope onset scale, > 0.
    """

    gamma: float
    rho: float
    delta: float = 0.2
    R0: float = 10.0

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not (self.gamma < self.rho < 1.0):
            raise ValueError(f"rho must lie in (gamma, 1), got {self.rho}")
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
    if not (0.0 < x_min < x_max < np.inf and 1.0 < ratio < np.inf):
        raise ValueError("need finite 0 < x_min < x_max and finite ratio > 1")
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
    def amplitudes(self):
        """Density level c_k of each cell: the density is c_k x^(-rho) inside it."""
        q = 1.0 - self.tail_exponent
        return self.cell_mass * q / np.diff(_edge_powers(self))


def _edge_powers(m):
    """edges^(1 - rho), the cumulative of the unit power-law density."""
    return m.edges ** (1.0 - m.tail_exponent)


def _tail_cells(edges, rho, n):
    """The grid's ratio continued for n tail cells above its top edge:
    (their n + 1 edges, the increment of x^(1-rho) across each).  A tail
    A x^(-rho) dx puts A times the increment, divided by 1 - rho, in each
    cell; callers scale and divide in that order."""
    gedges = edges[-1] * (edges[1] / edges[0]) ** np.arange(n + 1)
    return gedges, np.diff(gedges ** (1.0 - rho))


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


def density_at(m, x):
    """Pointwise density of a grid measure, power-shape within cells.

    Inside cell k the density is c_k x^(-rho) (GridMeasure.amplitudes);
    from the top edge on it is the analytic tail; below the grid it is
    zero.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    xf = np.atleast_1d(x)
    k = np.searchsorted(m.edges, xf, side="right") - 1
    live = k >= 0
    out = np.zeros(xf.shape)
    out[live] = np.append(m.amplitudes, m.tail_amplitude)[k[live]] * xf[live] ** (-m.tail_exponent)
    return float(out[0]) if x.ndim == 0 else out


def _xrho_sup(cum, ep, tail):
    """sup_R |F(R)| / R^(1-rho), row by row along the last axis.

    cum is F at the upper cell edges, ep those edges^(1-rho) and tail the
    R -> inf limit of the ratio, one per row.  Inside a cell
    F(R)/R^(1-rho) is monotone in R (it equals B + A R^(rho-1) for cell
    constants A, B), so the supremum over all R is the largest edge value
    or the tail limit: exact for the stored representation, not a sampled
    estimate.
    """
    return np.maximum(np.max(np.abs(cum) / ep, axis=-1, initial=0.0), tail)


def xrho_norm(m):
    """Weighted sup norm sup_R F(R) / R^(1-rho), including the tail limit
    tail_amplitude / (1-rho) (_xrho_sup)."""
    tail = m.tail_amplitude / (1.0 - m.tail_exponent)
    return float(_xrho_sup(np.cumsum(m.cell_mass), _edge_powers(m)[1:], tail))


def xrho_dist(m1, m2):
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
    tail = abs(m1.tail_amplitude - m2.tail_amplitude) / (1.0 - m1.tail_exponent)
    return float(_xrho_sup(np.cumsum(m1.cell_mass) - np.cumsum(m2.cell_mass), _edge_powers(m1)[1:], tail))


def _lower_envelope(params, R):
    """The lower envelope R^(1-rho) (1 - (R0/R)^delta)_+ at R."""
    return R ** (1.0 - params.rho) * np.clip(1.0 - (params.R0 / R) ** params.delta, 0.0, None)


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
    (1-rho) x^(-rho), so worst_ratio is xrho_norm(m); its location is the
    first edge that attains it, else the R -> inf limit.
    """
    if m.tail_exponent != params.rho:
        raise ValueError("params.rho disagrees with the measure's tail exponent")
    worst = xrho_norm(m)
    ratios = np.cumsum(m.cell_mass) / _edge_powers(m)[1:]
    i = int(np.argmax(ratios))
    where = float(m.edges[1 + i]) if ratios[i] == worst else np.inf
    ok = worst <= 1.0 + slack + _ROUNDOFF
    return EnvelopeReport(ok=ok, worst_ratio=worst, location=where, slack=slack)


def envelope_check_lower(m, params, slack=0.0):
    """Check F(R) >= (1 - slack) R^(1-rho) (1 - (R0/R)^delta)_+ at all edges.

    Edges at or below R0 impose no constraint (the envelope vanishes
    there); worst_ratio is the minimal F(R)/envelope(R) over the rest.
    """
    if m.tail_exponent != params.rho:
        raise ValueError("params.rho disagrees with the measure's tail exponent")
    live = m.edges[1:] > params.R0
    if not np.any(live):
        return EnvelopeReport(ok=True, worst_ratio=np.inf, location=np.nan, slack=slack)
    edges = m.edges[1:][live]
    ratios = np.cumsum(m.cell_mass)[live] / _lower_envelope(params, edges)
    i = int(np.argmin(ratios))
    worst, where = float(ratios[i]), float(edges[i])
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
    q = 1.0 - rho - alpha  # exponent of the integrated power, < 0 in the tail
    lo = np.maximum(edges[:-1], x)
    hi = edges[1:]
    live = hi > x
    total = 0.0
    if np.any(live):
        if abs(q) < 1e-13:
            seg = np.log(hi[live] / lo[live])
        else:
            seg = (hi[live] ** q - lo[live] ** q) / q
        total += float(np.sum(m.amplitudes[live] * seg))
    start = max(x, edges[-1])
    total += m.tail_amplitude * start**q / (-q)
    return total


def power_law_init(params, edges=None):
    """Initial datum with cumulative F(R) = R^(1-rho) (1 - (R0/R)^delta)_+.

    Cell masses reproduce that cumulative exactly at every edge, and the
    analytic tail amplitude is the asymptotic density level (1 - rho).
    It sits on the lower envelope, so both envelope checks pass with zero
    slack and the invariance checks start at the edge of the set.
    """
    if edges is None:
        edges = geometric_grid()
    mass = np.clip(np.diff(_lower_envelope(params, edges)), 0.0, None)
    return GridMeasure(edges, mass, tail_amplitude=1.0 - params.rho, tail_exponent=params.rho)


def write_tagged_csv(path_or_file, tag, meta, columns, rows):
    """Write rows of floats as CSV under a "# coagsim-<tag>" header line.

    The header carries schema_version and then the meta items as k=v
    tokens, in order; float values are rendered with repr, others with
    str, and none may contain whitespace.  Row values are rendered with
    repr(float(v)) so read_tagged_csv reproduces them bit for bit.
    path_or_file is a path or an open text file.
    """
    tokens = "".join(f" {k}={v!r}" if isinstance(v, float) else f" {k}={v}" for k, v in meta.items())
    lines = [f"# coagsim-{tag} schema_version={CSV_SCHEMA_VERSION}{tokens}", ",".join(columns)]
    lines += [",".join(map(repr, map(float, row))) for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)


def read_tagged_csv(path_or_file, tag):
    """Read a CSV written by write_tagged_csv with this tag.

    Returns (meta, columns, rows): meta maps each header key after
    schema_version to its string value, rows are lists of floats, one per
    column.  A malformed file raises ValueError.
    """
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as fh:
            lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith(f"# coagsim-{tag}"):
        raise ValueError(f"not a coagsim {tag} CSV")
    meta = dict(tok.split("=", 1) for tok in lines[0][2:].split()[1:])
    version = meta.pop("schema_version", None)
    if version != str(CSV_SCHEMA_VERSION):
        raise ValueError(f"unsupported {tag} schema_version {version}")
    columns = lines[1].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[2:] if ln.strip()]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"{tag} CSV rows must have {len(columns)} values")
    return meta, columns, rows


def to_csv(m, path_or_file):
    """Write the measure as a tagged CSV, one row per cell.

    from_csv reproduces the measure bit for bit.
    """
    meta = {"tail_amplitude": float(m.tail_amplitude), "tail_exponent": float(m.tail_exponent)}
    rows = zip(m.edges[:-1].tolist(), m.edges[1:].tolist(), m.cell_mass.tolist())
    write_tagged_csv(path_or_file, "measure", meta, ["x_left", "x_right", "cell_mass"], rows)


def from_csv(path_or_file):
    """Read a measure written by to_csv; a malformed file raises ValueError."""
    meta, columns, rows = read_tagged_csv(path_or_file, "measure")
    if len(columns) != 3 or not rows:
        raise ValueError("measure CSV needs rows of x_left, x_right, cell_mass")
    missing = sorted({"tail_amplitude", "tail_exponent"} - meta.keys())
    if missing:
        raise ValueError(f"measure CSV header lacks {', '.join(missing)}")
    cells = np.array(rows)
    return GridMeasure(
        np.append(cells[:, 0], cells[-1, 1]),
        cells[:, 2],
        tail_amplitude=float(meta["tail_amplitude"]),
        tail_exponent=float(meta["tail_exponent"]),
    )
