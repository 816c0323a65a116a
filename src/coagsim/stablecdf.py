"""One-sided stable-law CDF W and its density, from Kanter's integral.

W is the distribution function on (0, inf) whose ordinary Laplace transform
is int_0^inf e^(-pY) W(Y) dY = exp(-c p^a) / p with index a in (0, 1) and
scale c = Gamma(1-a) / a.  Kanter's representation (Kanter, Ann. Probab. 3,
1975; Zolotarev, One-dimensional Stable Distributions, 1986, sec. 2.2)
writes it as an integral of a positive integrand over a finite interval,

    W(Y) = (1/pi) int_0^pi exp(-z A(phi)) d phi,    z = (Y / s)^(-a/(1-a)),

with s = c^(1/a) and

    A(phi) = (sin(a phi)^a sin((1-a) phi)^(1-a) / sin(phi))^(1/(1-a)),

which increases from (1-a) a^(a/(1-a)) at phi = 0 to infinity at phi = pi.
Differentiating in Y gives W'(Y) = (a/(1-a)) (z/Y) (1/pi) int A exp(-z A) d phi.
Nothing cancels, so neither needs a guard zone: where exp(-z A) underflows
at every node both are exactly 0.  Both are summed on one fixed rule,
vectorized over Y.  For large Y the integrand's boundary layer sits at
phi -> pi, where the rule clusters its nodes.

W satisfies the integro-differential identity

    (1/a) Y W'(Y) = int_0^inf eta^(-1-a) [W(Y) - W(Y - eta)] d eta

and the tail laws 1 - W(Y) ~ Y^(-a)/a, W'(Y) ~ Y^(-1-a); t3e4_residual
checks the identity pointwise with QUADPACK, the only scipy code this
module runs.  The module name integrate stands for scipy.integrate and
imports it on its first attribute read, so a run that never checks the
identity never imports scipy at all.  The scaled profile
W((R - X) / (M tau)^(1/a)) is the comparison barrier used alongside the
dual transport problem; WTable interpolates W for it in numpy, and inverts
the interpolant for the closed-form comparison constant M*.
"""

import importlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class _OnDemand:
    """Stands for the module name, imported on the first attribute read:
    scipy is slow to import and heavy to hold, and only t3e4_residual
    calls it.  Nothing is imported, not even the scipy package, before."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


integrate = _OnDemand("scipy.integrate")


@dataclass(frozen=True)
class StableProfile:
    """Stable-law index.

    Parameters
    ----------
    a : float
        Index in (0, 1); the CDF has tail 1 - W(Y) ~ Y^(-a)/a.
    """

    a: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"index a must lie in (0, 1), got {self.a}")
        if not self.scale < math.inf:
            raise ValueError(f"index a = {self.a} is too small: the scale c^(1/a) overflows a float")

    @property
    def c(self):
        """Transform scale Gamma(1-a)/a."""
        return math.gamma(1.0 - self.a) / self.a

    @property
    def scale(self):
        """Kanter's scale s = c^(1/a); inf where it overflows a float (a < 0.006997)."""
        with np.errstate(over="ignore"):
            return float(np.float64(self.c) ** (1.0 / self.a))


def w_laplace(profile, p):
    """Laplace transform exp(-c p^a)/p of W, for p > 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("transform variable p must be > 0")
    out = np.exp(-profile.c * p**profile.a) / p
    return out if out.ndim else float(out)


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=8)
def _kanter_rule(a):
    """A(phi) at the nodes of the fixed rule for index a, and the weights of (1/pi) d phi.

    phi = pi (1 - r^8) with r = (1 - x) / 2 and x the 400 Gauss-Legendre
    nodes on [-1, 1], so (1/pi) d phi = 4 r^7 dx.  The nodes come from
    Newton's method started at the asymptotic estimates (four steps reach
    full precision; numpy's leggauss weights are off by up to 6e-10
    relative at this n).  phi and pi - phi are both formed without
    cancellation and sin(phi) is taken from the smaller of the two.  A is
    capped at 1e250 where it overflows (a near 1); exp(-z A) is 0 there
    either way unless z < 1e-247.
    """
    n = 400
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(4):
        p, dp = _legendre(n, x)
        x = x - p / dp
    p, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    xi, r = (1.0 + x) / 2.0, (1.0 - x) / 2.0
    phi = -np.pi * np.expm1(8.0 * np.log1p(-xi))
    u = np.pi * r**8
    with np.errstate(over="ignore"):
        A = (np.sin(a * phi) ** a * np.sin((1.0 - a) * phi) ** (1.0 - a)
             / np.sin(np.minimum(phi, u))) ** (1.0 / (1.0 - a))
    return np.minimum(A, 1e250), 4.0 * r**7 * w


def _kanter(profile, Y):
    """W and W' at the points of the 1-d array Y, from Kanter's integral.

    The integrand exp(-z A) is formed 64 points at a time in one
    (64, nodes) buffer, by the operations of np.exp(-np.outer(z, A)) done
    in place, so no block's table is alive while the next is formed."""
    a = profile.a
    A, wq = _kanter_rule(a)
    wqA = wq * A
    k = a / (1.0 - a)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = (Y / profile.scale) ** -k
    W, D = np.zeros(Y.shape), np.zeros(Y.shape)
    # A is smallest at the first node, and exp(-x) is 0 in floating point for x > 745.2
    live = np.flatnonzero((Y > 0.0) & (z * A[0] < 750.0))
    buf = np.empty((min(64, live.size), A.size))
    for i in range(0, live.size, 64):
        j = live[i : i + 64]
        E = np.multiply(z[j, None], A, out=buf[: j.size])
        np.negative(E, out=E)
        np.exp(E, out=E)
        W[j] = E @ wq
        D[j] = k * z[j] / Y[j] * (E @ wqA)
    return np.minimum(W, 1.0), D


# t3e4_residual's W at one point, memoized: its quadrature revisits points
@lru_cache(maxsize=200_000)
def _w_scalar(profile, Y):
    return float(_kanter(profile, np.array([Y]))[0][0])


def w_eval(profile, Y):
    """CDF W(Y); 0 for Y <= 0, increasing to 1.

    Full relative accuracy down to W ~ 1e-300: against erfc(sqrt(pi / Y))
    at a = 1/2 the relative error is at most 3e-13 on [1e-3, 1e8] (W down
    to 1e-298), and against the Talbot-inversion oracle of the tests (a =
    0.3 and 0.7, W down to 3.4e-38) at most 3e-14.  Exactly 0 where
    exp(-z A) underflows at every node, e.g. Y <= 0.05 at a = 0.7.  For
    large a and Y the layer at phi -> pi thins below the rule's spacing:
    on [1e-2, 1e8] the absolute error of W stays below 5e-10 up to a = 0.9,
    but that of 1 - W reaches 4e-10, 3e-7 and 5e-4 relative at a = 0.7,
    0.8 and 0.9 (measured against a 3000-node rule).

    Parameters
    ----------
    profile : StableProfile
    Y : float or ndarray

    Returns
    -------
    float or ndarray
    """
    Y = np.asarray(Y, dtype=float)
    out = _kanter(profile, Y.ravel())[0].reshape(Y.shape)
    return out if out.ndim else float(out)


def w_deriv(profile, Y):
    """Density W'(Y) >= 0; same conventions as w_eval.

    Relative error at most 5e-14 against Y^(-3/2) exp(-pi / Y) at a = 1/2
    on [1e-2, 1e8], and 7e-11 against the Talbot oracle of the tests (the
    largest at a = 0.7, Y = 1e7).  At Y = 1e8 it reaches 1.3e-9, 1.3e-5
    and 2e-2 at a = 0.7, 0.8 and 0.9 (see w_eval).
    """
    Y = np.asarray(Y, dtype=float)
    out = _kanter(profile, Y.ravel())[1].reshape(Y.shape)
    return out if out.ndim else float(out)


# t3e4_residual reads its defect relatively where W exceeds this floor
W_FLOOR = 1e-10


def t3e4_residual(profile, Y):
    """Residual of (1/a) Y W'(Y) = int_0^inf eta^(-1-a) [W(Y) - W(Y-eta)] d eta.

    The eta > Y part is W(Y) Y^(-a)/a in closed form; on [0, Y] the
    integrable eta^(-a) endpoint singularity is handled by the QUADPACK
    algebraic-weight rule applied to [W(Y) - W(Y-eta)]/eta.

    The defect is read relatively, |lhs - rhs| / |lhs|, where W(Y) is
    above W_FLOOR (1e-10), and absolutely, |lhs - rhs|, at or below it:
    there the QUADPACK tolerances (absolute 1e-12) dominate both sides,
    which vanish together where W underflows to 0 (e.g. Y <= 0.05 at
    a = 0.7), and the relative normalization degenerates.

    Parameters
    ----------
    profile : StableProfile
    Y : float
        Point where the identity is tested, > 0.

    Returns
    -------
    float
        The relative or absolute defect, as W(Y) selects.  A W'(Y) that
        underflows to 0 where W(Y) is above the floor raises ValueError.
    """
    Y = float(Y)
    a = profile.a
    wY = _w_scalar(profile, Y)
    wpY = w_deriv(profile, Y)
    lhs = Y * wpY / a
    relative = wY > W_FLOOR
    if lhs == 0.0 and relative:
        raise ValueError(f"identity degenerate at Y = {Y} (W' underflows to 0)")

    def g(eta):
        if eta < 1e-7 * Y:
            return wpY
        return (wY - _w_scalar(profile, Y - eta)) / eta

    mid, _ = integrate.quad(
        g, 0.0, Y, weight="alg", wvar=(-a, 0.0), limit=200, epsabs=1e-12, epsrel=1e-9
    )
    rhs = mid + wY * Y**-a / a
    return abs(lhs - rhs) / abs(lhs) if relative else abs(lhs - rhs)


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant through (x, y), x increasing.

    The knot derivatives follow scipy's PchipInterpolator (Fritsch &
    Carlson, SIAM J. Numer. Anal. 17, 1980): inside, the weighted harmonic
    mean of the two neighbouring slopes, or 0 where they differ in sign or
    one is 0; at each end, the three-point formula limited to keep its
    sign and monotonicity.  Needs at least three knots, spaced as they
    come; each point finds its cell by binary search.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0)
        d = np.zeros_like(y)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(inner, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
        d[0] = self._end(h[0], h[1], m[0], m[1])
        d[-1] = self._end(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.x, self.y, self.d = x, y, d
        self.c2, self.c3 = (m - d[:-1]) / h - t, t / h

    @staticmethod
    def _end(h0, h1, m0, m1):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, xv):
        i = np.clip(np.searchsorted(self.x, xv, side="right") - 1, 0, self.x.size - 2)
        s = xv - self.x[i]
        s2 = s * s
        return self.y[i] + self.d[i] * s + self.c2[i] * s2 + self.c3[i] * (s2 * s)


WTABLE_N = 1200
WTABLE_Y_HI = 1e8


class WTable:
    """Monotone interpolant of W for fast batched evaluation, and its inverse.

    Exact w_eval values at WTABLE_N (1200) points ys of a log grid from
    1e-6 (a <= 1/2) or 0.05 (a > 1/2), below which W is negligible, to
    WTABLE_Y_HI (1e8); monotone cubic (PCHIP) in log Y between them,
    spliced to W = 0 below the grid and above it to the tail law
    1 - Y^(-a)/a, held at the last knot value until the law reaches it
    (at a = 0.25 the law starts 6.7e-4 below it), so the whole table is
    monotone.  The interpolation error against w_eval is at most 1.1e-7,
    1.1e-7 and 3.4e-7 at a = 0.3, 0.5 and 0.7, ample for barrier
    comparisons at 1e-3 tolerances.  Built in numpy alone; a cold table,
    Kanter's rule included, takes 12-18 ms in a fresh process (2-CPU
    Xeon, numpy 2.4).  inverse(w) is the largest Y at which the table
    does not exceed w, which dual.find_m_star reads.
    """

    def __init__(self, profile):
        ys = np.geomspace(1e-6 if profile.a <= 0.5 else 0.05, WTABLE_Y_HI, WTABLE_N)
        ws = w_eval(profile, ys)
        ws[ws < 1e-10] = 0.0  # negligible for barrier comparisons; start the knots above
        keep = ws > 0.0
        first = int(np.argmax(keep)) if np.any(keep) else WTABLE_N - 1
        self.profile = profile
        self.ys = ys[first:]
        self._interp = _Pchip(np.log(self.ys), ws[first:])

    def __call__(self, Y):
        Y = np.asarray(Y, dtype=float)
        a = self.profile.a
        flat = np.atleast_1d(Y)
        res = np.zeros(flat.shape)
        upper = flat >= self.ys[-1]
        res[upper] = np.maximum(1.0 - flat[upper] ** -a / a, self._interp.y[-1])
        mid = (flat > self.ys[0]) & ~upper
        res[mid] = self._interp(np.log(flat[mid]))
        res = np.clip(res, 0.0, 1.0)
        return res.reshape(Y.shape) if Y.ndim else float(res[0])

    def _cell(self, w):
        """(i, tail, closed): the knot cell [ys[i], ys[i + 1]] whose values
        bracket w, whether w lies on the tail law, at or above
        self(ys[-1]), and the law's inverse."""
        a, p = self.profile.a, self._interp
        i = np.clip(np.searchsorted(p.y, w, side="right") - 1, 0, p.x.size - 2)
        return i, w >= self(self.ys[-1]), np.maximum((a * (1.0 - w)) ** (-1.0 / a), self.ys[-1])

    def bracket(self, w):
        """(lo, hi) with lo <= inverse(w) <= hi up to rounding, without the
        bisection: the knot cell that inverse bisects, or inverse itself
        on the tail law."""
        i, tail, closed = self._cell(w)
        return np.where(tail, closed, self.ys[i]), np.where(tail, closed, self.ys[i + 1])

    def inverse(self, w):
        """Largest Y with self(Y) <= w, for an array w in [0, 1).

        At and above self(ys[-1]) it is the tail law's inverse
        (a (1 - w))^(-1/a).  Below, searchsorted on the knot values finds
        the cell [ys[i], ys[i + 1]] whose values bracket w, and 60
        bisections in log Y on that cell's cubic, its coefficients
        gathered once, close in on the crossing to rounding.  The cubic is
        evaluated at log Y in self's own arithmetic, so self(Y) <= w holds
        at the returned Y wherever self picks the same cell.  Below the
        first knot value it is ys[0], where self is 0.
        """
        p = self._interp
        i, tail, closed = self._cell(w)
        x, y, d, c2, c3 = p.x[i], p.y[i], p.d[i], p.c2[i], p.c3[i]
        lo, hi = self.ys[i], self.ys[i + 1]
        for _ in range(60):
            mid = np.sqrt(lo * hi)
            s = np.log(mid) - x
            below = y + d * s + c2 * (s * s) + c3 * (s * s * s) <= w
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return np.where(tail, closed, lo)


@lru_cache(maxsize=8)
def w_table(profile):
    """Memoized WTable for the profile (module-level cache)."""
    return WTable(profile)
