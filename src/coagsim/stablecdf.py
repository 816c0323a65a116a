"""One-sided stable-law CDF W and its density, from a real-axis
Laplace-transform inversion.

W is the distribution function on (0, inf) whose ordinary Laplace transform
is int_0^inf e^(-pY) W(Y) dY = exp(-c p^a) / p with index a in (0, 1) and
scale c = Gamma(1-a) / a.  Rotating the Bromwich contour onto the negative
real axis gives the convergent real integral

    W(Y) = 1 - (1/pi) int_0^inf (1/p) exp(-Y p - c cos(pi a) p^a)
                                 * sin(c sin(pi a) p^a) dp,

and the density W' drops the 1/p factor.  For a > 1/2 the cos(pi a) factor
turns negative and the integrand grows before the e^(-Yp) decay wins, so for
small Y the integral suffers catastrophic cancellation; there W is
doubly-exponentially small and is returned as exactly 0 once the positive
exponent peak exceeds a guard threshold (absolute error below ~1e-9).

W satisfies the integro-differential identity

    (1/a) Y W'(Y) = int_0^inf eta^(-1-a) [W(Y) - W(Y - eta)] d eta

and the tail laws 1 - W(Y) ~ Y^(-a)/a, W'(Y) ~ Y^(-1-a); t3e4_residual
checks the identity pointwise.  The scaled profile W((R - X) / (M tau)^(1/a))
is the comparison barrier used alongside the dual transport problem.
"""

import importlib.util
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _lazy_import(name):
    """Module name, executed on first attribute access (scipy's are slow to import)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


integrate = _lazy_import("scipy.integrate")
interpolate = _lazy_import("scipy.interpolate")
special = _lazy_import("scipy.special")


@dataclass(frozen=True)
class StableProfile:
    """Stable-law index and quadrature policy.

    Parameters
    ----------
    a : float
        Index in (0, 1); the CDF has tail 1 - W(Y) ~ Y^(-a)/a.
    y_switch : float
        Above this argument the non-oscillatory large-Y representation is
        used (both branches agree to ~1e-14 near the default seam).
    guard : float
        For a > 1/2, when the positive-exponent peak of the oscillatory
        integrand exceeds this value, W (doubly-exponentially small
        there) is returned as 0.
    epsabs, epsrel, limit : quadrature tolerances/subdivision budget.
    """

    a: float
    y_switch: float = 30.0
    guard: float = 9.0
    epsabs: float = 1e-13
    epsrel: float = 1e-11
    limit: int = 200

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"index a must lie in (0, 1), got {self.a}")

    @property
    def c(self):
        """Transform scale Gamma(1-a)/a."""
        return special.gamma(1.0 - self.a) / self.a

    @property
    def cos_term(self):
        return self.c * np.cos(np.pi * self.a)

    @property
    def sin_term(self):
        return self.c * np.sin(np.pi * self.a)


def w_laplace(profile, p):
    """Laplace transform exp(-c p^a)/p of W, for p > 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("transform variable p must be > 0")
    out = np.exp(-profile.c * p**profile.a) / p
    return out if out.ndim else float(out)


def w_laplace_ode_residual(profile, p):
    """Relative residual of the transform ODE p What' + (1 + Gamma(1-a) p^a) What = 0.

    The derivative is taken by central differences with an eps^(1/3) step,
    so the residual is limited by roundoff near 1e-10, not by the model.
    """
    p = float(p)
    h = p * float(np.finfo(float).eps) ** (1.0 / 3.0)
    dnum = (w_laplace(profile, p + h) - w_laplace(profile, p - h)) / (2.0 * h)
    rhs = -w_laplace(profile, p) * (1.0 + special.gamma(1.0 - profile.a) * p**profile.a) / p
    return abs(dnum - rhs) / abs(rhs)


def _guard_exponent(profile, Y):
    """Peak of the positive exponent -Y u^(1/a) + |cos_term| u over u > 0."""
    cc = profile.cos_term
    if cc >= 0.0:
        return 0.0
    ustar = (profile.a * abs(cc) / Y) ** (profile.a / (1.0 - profile.a))
    return abs(cc) * ustar * (1.0 - profile.a)


def _inversion_integral(profile, Y):
    """The contour integral I(Y) with W(Y) = 1 - I(Y), for Y > 0.

    Small/moderate Y: substitute u = p^a so the sine phase is linear and
    integrate the oscillatory part with the QUADPACK Fourier rule.  Large
    Y: the z = Yp variable gives a non-oscillatory integrand under the
    e^(-z) window.
    """
    a, cc, om = profile.a, profile.cos_term, profile.sin_term
    kw = dict(epsabs=profile.epsabs, epsrel=profile.epsrel, limit=profile.limit)
    ia = 1.0 / a
    if Y >= profile.y_switch:
        ya = Y**a

        def g_small(v):
            # v = z^a near the origin; sin(x)/x regular limit
            if v == 0.0:
                return om / (a * ya)
            return np.exp(-(v**ia) - cc * v / ya) * np.sin(om * v / ya) / (a * v)

        def f_large(z):
            w = (z / Y) ** a
            return np.exp(-z - cc * w) * np.sin(om * w) / z

        i1, _ = integrate.quad(g_small, 0.0, 1.0, **kw)
        i2, _ = integrate.quad(f_large, 1.0, np.inf, **kw)
        return (i1 + i2) / np.pi

    def g_head(u):
        if u == 0.0:
            return om / a
        return np.exp(-Y * u**ia - cc * u) * np.sin(om * u) / (a * u)

    def envelope(u):
        return np.exp(-Y * u**ia - cc * u) / (a * u)

    u0 = min(0.5 * np.pi / om, 1.0)
    i1, _ = integrate.quad(g_head, 0.0, u0, **kw)
    i2, _ = integrate.quad(
        envelope, u0, np.inf, weight="sin", wvar=om, limlst=100, limit=profile.limit
    )
    return (i1 + i2) / np.pi


def _deriv_integral(profile, Y):
    """Contour integral for the density W'(Y), Y > 0."""
    a, cc, om = profile.a, profile.cos_term, profile.sin_term
    kw = dict(epsabs=profile.epsabs, epsrel=profile.epsrel, limit=profile.limit)
    ia = 1.0 / a
    if Y >= profile.y_switch:

        def f_large(z):
            w = (z / Y) ** a
            return np.exp(-z - cc * w) * np.sin(om * w)

        val, _ = integrate.quad(f_large, 0.0, np.inf, **kw)
        return val / (np.pi * Y)

    def g_head(u):
        return np.exp(-Y * u**ia - cc * u) * np.sin(om * u) * u ** (ia - 1.0) / a

    def envelope(u):
        return np.exp(-Y * u**ia - cc * u) * u ** (ia - 1.0) / a

    u0 = min(0.5 * np.pi / om, 1.0)
    i1, _ = integrate.quad(g_head, 0.0, u0, **kw)
    i2, _ = integrate.quad(
        envelope, u0, np.inf, weight="sin", wvar=om, limlst=100, limit=profile.limit
    )
    return (i1 + i2) / np.pi


@lru_cache(maxsize=200_000)
def _w_scalar(profile, Y):
    if Y <= 0.0:
        return 0.0
    if profile.a > 0.5 and Y < profile.y_switch and _guard_exponent(profile, Y) > profile.guard:
        return 0.0
    w = 1.0 - _inversion_integral(profile, Y)
    return float(np.clip(w, 0.0, 1.0))


@lru_cache(maxsize=200_000)
def _w_deriv_scalar(profile, Y):
    if Y <= 0.0:
        return 0.0
    if profile.a > 0.5 and Y < profile.y_switch and _guard_exponent(profile, Y) > profile.guard:
        return 0.0
    return float(max(_deriv_integral(profile, Y), 0.0))


def w_eval(profile, Y):
    """CDF W(Y); 0 for Y <= 0, increasing to 1, absolute accuracy ~1e-9.

    Parameters
    ----------
    profile : StableProfile
    Y : float or ndarray

    Returns
    -------
    float or ndarray
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 0:
        return _w_scalar(profile, float(Y))
    return np.array([_w_scalar(profile, float(y)) for y in Y.ravel()]).reshape(Y.shape)


def w_deriv(profile, Y):
    """Density W'(Y) >= 0; same conventions as w_eval."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 0:
        return _w_deriv_scalar(profile, float(Y))
    return np.array([_w_deriv_scalar(profile, float(y)) for y in Y.ravel()]).reshape(Y.shape)


def t3e4_residual(profile, Y, relative=True):
    """Relative residual of (1/a) Y W'(Y) = int_0^inf eta^(-1-a) [W(Y) - W(Y-eta)] d eta.

    The eta > Y part is W(Y) Y^(-a)/a in closed form; on [0, Y] the
    integrable eta^(-a) endpoint singularity is handled by the QUADPACK
    algebraic-weight rule applied to [W(Y) - W(Y-eta)]/eta.

    Parameters
    ----------
    profile : StableProfile
    Y : float
        Point where the identity is tested, > 0 and outside the
        guarded doubly-exponentially-small zone.
    relative : bool
        When False the raw defect |lhs - rhs| is returned instead of
        |lhs - rhs| / |lhs|; that is the meaningful reading where W sits
        beneath the quadrature noise floor and the relative
        normalization degenerates (both sides of the identity vanish).

    Returns
    -------
    float
        |lhs - rhs| / |lhs| (or |lhs - rhs| when relative is False).
    """
    Y = float(Y)
    a = profile.a
    wY = _w_scalar(profile, Y)
    wpY = _w_deriv_scalar(profile, Y)
    lhs = Y * wpY / a
    if lhs == 0.0 and relative:
        raise ValueError("identity degenerate at this Y (guarded zone?)")

    def g(eta):
        if eta < 1e-7 * Y:
            return wpY
        return (wY - _w_scalar(profile, Y - eta)) / eta

    mid, _ = integrate.quad(
        g, 0.0, Y, weight="alg", wvar=(-a, 0.0), limit=profile.limit, epsabs=1e-12, epsrel=1e-9
    )
    rhs = mid + wY * Y**-a / a
    return abs(lhs - rhs) / abs(lhs) if relative else abs(lhs - rhs)


def subsolution_profile(profile, X, R, M, tau):
    """Scaled barrier W((R - X) / (M tau)^(1/a)).

    At tau = 0 this degenerates to the indicator of X < R (taking
    W(inf) = 1); for X >= R the value is 0 at every tau.

    Parameters
    ----------
    profile : StableProfile
    X : float or ndarray
        Evaluation points.
    R : float
        Barrier location, > 0.
    M : float
        Comparison constant, > 0.
    tau : float
        Elapsed dual time, >= 0.

    Returns
    -------
    float or ndarray
    """
    if not (R > 0.0 and M > 0.0 and tau >= 0.0):
        raise ValueError("need R > 0, M > 0, tau >= 0")
    X = np.asarray(X, dtype=float)
    if tau == 0.0:
        out = np.where(X < R, 1.0, 0.0)
        return out if out.ndim else float(out)
    Y = (R - X) / (M * tau) ** (1.0 / profile.a)
    out = w_eval(profile, np.maximum(Y, 0.0))
    out = np.where(X >= R, 0.0, out)
    return out if out.ndim else float(out)


class WTable:
    """Monotone interpolant of W for fast batched evaluation.

    Exact w_eval values on a log grid over [y_lo, y_hi], monotone cubic
    (PCHIP) in log Y between them, spliced to W = 0 below the grid and to
    the tail law 1 - Y^(-a)/a above; interpolation error ~1e-7, which is
    ample for barrier comparisons at 1e-3 tolerances.
    """

    def __init__(self, profile, y_lo=None, y_hi=1e8, n=1200):
        a = profile.a
        if y_lo is None:
            # below the guard zone W vanishes anyway; keep the grid useful
            y_lo = 1e-6 if a <= 0.5 else 0.05
        ys = np.geomspace(y_lo, y_hi, n)
        ws = w_eval(profile, ys)
        ws[ws < 1e-10] = 0.0  # below the quadrature noise floor
        keep = ws > 0.0
        first = int(np.argmax(keep)) if np.any(keep) else n - 1
        self.profile = profile
        self.y_lo = ys[first]
        self.y_hi = y_hi
        self._interp = interpolate.PchipInterpolator(np.log(ys[first:]), ws[first:], extrapolate=False)

    def __call__(self, Y):
        Y = np.asarray(Y, dtype=float)
        a = self.profile.a
        flat = np.atleast_1d(Y)
        res = np.zeros(flat.shape)
        upper = flat >= self.y_hi
        res[upper] = 1.0 - flat[upper] ** -a / a
        mid = (flat > self.y_lo) & ~upper
        res[mid] = self._interp(np.log(flat[mid]))
        res = np.clip(res, 0.0, 1.0)
        return res.reshape(Y.shape) if Y.ndim else float(res[0])


@lru_cache(maxsize=8)
def w_table(profile):
    """Memoized WTable for the profile (module-level cache)."""
    return WTable(profile)
