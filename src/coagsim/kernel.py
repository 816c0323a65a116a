"""Homogeneous coagulation rate kernels and their small-particle regularization.

A kernel K(y, z) gives the rate density at which particles of sizes y and z
merge.  All families here are symmetric, continuous on (0, inf)^2 and
homogeneous of degree gamma in (y, z), with gamma in [0, 1).  Each family is
stated once, as its power terms K(y, z) = sum c y^p z^q (_power_terms):

    constant   (value, 0, 0)
    product    (1, gamma/2, gamma/2)
    sum        (1, alpha, gamma - alpha) and (1, gamma - alpha, alpha)
    zero       (0, 0, 0)

which the bare kernel, the growth constant and the bare flux's tail
moments read.  Every term has p + q = gamma and is symmetric or one of a
mirror pair, so K(y, z) <= C (y^gamma + z^gamma) with C half the sum of
the coefficients.

The regularized kernel multiplies K by smooth cutoff factors that switch off
collisions involving very small particles (absolute size below a threshold
lam) as well as collisions where one partner carries less than a fraction
lam/2 of the combined size.  The cutoff profile zeta is the C^1 smoothstep
in 2s - 1: it is monotone, vanishes on [0, 1/2] and equals 1 on [1, inf),
so the regularized kernel vanishes identically on a neighborhood of the
axes and of the degenerate rays.  Only the scale lam is settable.

The ratio cutoffs are scale-free and exactly 1 on a band of partner
ratios about 1.  eval_regularized evaluates them on every pair, as the
reference; the pair operator and the flux residual apply them through
_ratio_cutoffs, which skips that band.
"""

from dataclasses import dataclass

import numpy as np

# each family, with the fields of KernelSpec besides gamma that it reads
FAMILY_FIELDS = {"constant": ("value",), "product": (), "sum": ("alpha",), "zero": ()}


@dataclass(frozen=True)
class KernelSpec:
    """Parameters selecting one homogeneous symmetric kernel.

    Parameters
    ----------
    family : str
        One of "constant" (K = value, degree 0), "product"
        (K = (y z)^(gamma/2)), "sum" (K = y^alpha z^(gamma-alpha) +
        z^alpha y^(gamma-alpha)) or "zero" (K = 0, pure transport).
    gamma : float
        Homogeneity degree, in [0, 1).  Must be 0 for "constant" and "zero".
    alpha : float
        Exponent split for the "sum" family, in [0, gamma].  Ignored
        otherwise.
    value : float
        Level of the "constant" family, > 0.  Ignored otherwise.
    """

    family: str
    gamma: float = 0.0
    alpha: float = 0.0
    value: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILY_FIELDS:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.family in ("constant", "zero") and self.gamma != 0.0:
            raise ValueError(f"{self.family} kernel has degree 0, got gamma={self.gamma}")
        if self.family == "constant" and not self.value > 0.0:
            raise ValueError(f"constant kernel needs value > 0, got {self.value}")
        if self.family == "sum" and not (0.0 <= self.alpha <= self.gamma):
            raise ValueError(f"sum kernel needs 0 <= alpha <= gamma, got alpha={self.alpha}")

    @property
    def growth_constant(self):
        """Smallest convenient C with K(y, z) <= C (y^gamma + z^gamma): half
        the sum of the power terms' coefficients."""
        # each term with p + q = gamma, symmetric or one of a mirror pair, is
        # at most c (y^gamma + z^gamma) / 2 by the AM-GM inequality
        return 0.5 * sum(c for c, _, _ in _power_terms(self))


def kernel_setup(spec):
    """The settings spec's family reads: family, gamma and the family's
    FAMILY_FIELDS, as a dict for a manifest."""
    return {"family": spec.family, "gamma": spec.gamma, **{f: getattr(spec, f) for f in FAMILY_FIELDS[spec.family]}}


def constant_kernel(value=1.0):
    """Constant kernel K = value."""
    return KernelSpec(family="constant", value=value)


def product_kernel(gamma):
    """Product kernel K = (y z)^(gamma/2)."""
    return KernelSpec(family="product", gamma=gamma)


def sum_kernel(alpha, gamma):
    """Generalized sum kernel K = y^alpha z^(gamma-alpha) + z^alpha y^(gamma-alpha)."""
    return KernelSpec(family="sum", gamma=gamma, alpha=alpha)


def zero_kernel():
    """Zero kernel; evolution reduces to the rescaling drift."""
    return KernelSpec(family="zero")


@dataclass(frozen=True)
class CutoffParams:
    """Cutoff scale of the switching profile.

    Parameters
    ----------
    lam : float
        Cutoff scale, in (0, 1/2).  Collisions with a particle of size
        below lam/2, or where one partner holds less than (roughly) a
        fraction lam/2 of the pair, are switched off.
    """

    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam < 0.5):
            raise ValueError(f"lam must lie in (0, 1/2), got {self.lam}")
        if not _partner_ratio(self.lam) < np.inf:
            raise ValueError(f"lam = {self.lam} is too small: the partner ratio (2 - lam)/lam overflows a float")


def _partner_ratio(lam):
    """Largest partner ratio Z/Y on the support of the ratio cutoffs."""
    return (2.0 - lam) / lam


def eval_cutoff(s):
    """Evaluate the switching profile zeta at s >= 0.

    zeta is the C^1 smoothstep 3u^2 - 2u^3 with u = clip(2s - 1, 0, 1):
    0 on [0, 1/2], 1 on [1, inf) and strictly increasing in between; the
    plateaus are exact (no rounding fuzz).

    Parameters
    ----------
    s : float or ndarray
        Nonnegative argument(s).

    Returns
    -------
    float or ndarray
    """
    s = np.array(s, dtype=float)
    if np.any(s < 0.0) or not np.all(np.isfinite(s)):
        raise ValueError("cutoff argument must be finite and >= 0")
    z = _zeta(s)
    return z if z.ndim else float(z)


def _zeta(s):
    """eval_cutoff's zeta, computed in the float array s, which it
    overwrites and returns, with one array of scratch.  s is not
    validated: its callers pass finite, nonnegative arguments."""
    s *= 2.0
    s -= 1.0
    u = np.clip(s, 0.0, 1.0, out=s)
    w = np.empty_like(u)
    np.multiply(u, 2.0, out=w)
    np.subtract(3.0, w, out=w)
    u *= u
    u *= w  # u u (3 - 2 u)
    return u


def _ratio_cutoffs(k, y, z, lam):
    """Multiply k in place by the ratio cutoffs of K_lam,
    zeta(y / (lam (y+z))) zeta(z / (lam (y+z))) in that order, and return
    it; y is a scalar or a column, z an ascending row.  Both factors are
    exactly 1 for y / ratio <= z <= y ratio, ratio = (1 - lam)/lam, so they
    are evaluated only on the columns outside that band (with a margin for
    rounding)."""
    ratio = (1.0 - lam) / lam
    j0 = np.searchsorted(z, np.max(y) / ratio * (1.0 + 1e-9))
    j1 = max(j0, np.searchsorted(z, np.min(y) * ratio * (1.0 - 1e-9), side="right"))
    for c in (slice(0, j0), slice(j1, z.size)):
        tot = (y + z[c]) * lam
        k[..., c] *= _zeta(y / tot)
        k[..., c] *= _zeta(np.divide(z[c], tot, out=tot))
    return k


def eval_kernel(spec, y, z):
    """Evaluate the bare kernel K(y, z) for positive sizes.

    Parameters
    ----------
    spec : KernelSpec
    y, z : float or ndarray
        Particle sizes, > 0, finite.  Arrays broadcast.

    Returns
    -------
    float or ndarray
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(y <= 0.0) or np.any(z <= 0.0):
        raise ValueError("kernel arguments must be > 0")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
        raise ValueError("kernel arguments must be finite")
    (c, p, q), *rest = _power_terms(spec)
    # the first term fills the result in place, so a one-term kernel
    # allocates little beyond its result (the flux evaluates it per block)
    k = np.broadcast_to(c * y**p, np.broadcast_shapes(y.shape, z.shape)).copy()
    if q:
        k *= z**q
    for c, p, q in rest:
        k += c * y**p * z**q
    return k if k.ndim else float(k)


def _power_terms(spec):
    """K(y, z) = sum of c y^p z^q over the (c, p, q) terms of spec's family."""
    if spec.family == "constant":
        return [(spec.value, 0.0, 0.0)]
    if spec.family == "product":
        return [(1.0, 0.5 * spec.gamma, 0.5 * spec.gamma)]
    if spec.family == "sum":
        a, g = spec.alpha, spec.gamma
        return [(1.0, a, g - a), (1.0, g - a, a)]
    return [(0.0, 0.0, 0.0)]


def eval_regularized(spec, cutoff, y, z):
    """Evaluate the regularized kernel K_lam(y, z).

    K_lam(y, z) = K(y, z) * zeta(y/lam) * zeta(z/lam)
                  * zeta(y / (lam (y+z))) * zeta(z / (lam (y+z))).

    Vanishes identically where y <= lam/2, z <= lam/2, or where the
    smaller partner carries at most a fraction lam/2 of y + z; in
    particular the partner ratio y/z is confined to
    [lam/(2-lam), (2-lam)/lam] on the support.

    Parameters
    ----------
    spec : KernelSpec
    cutoff : CutoffParams
    y, z : float or ndarray
        Particle sizes, > 0, finite.  Arrays broadcast.

    Returns
    -------
    float or ndarray
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    k = np.asarray(eval_kernel(spec, y, z))
    lam = cutoff.lam
    # factor by factor into k, in the order of the product above; the ratio
    # arguments share one array of lam (y + z)
    k *= eval_cutoff(y / lam)
    k *= eval_cutoff(z / lam)
    tot = np.add(y, z, out=np.empty_like(k))
    tot *= lam
    k *= _zeta(np.divide(y, tot, out=np.empty_like(k)))
    k *= _zeta(np.divide(z, tot, out=tot))
    return k if k.ndim else float(k)
