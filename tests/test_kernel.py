"""Kernel families, the smooth cutoff, and the regularized kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coagsim.kernel import (
    CutoffParams,
    KernelSpec,
    constant_kernel,
    eval_cutoff,
    eval_kernel,
    eval_regularized,
    product_kernel,
    sum_kernel,
    zero_kernel,
)

sizes = st.floats(min_value=1e-8, max_value=1e8, allow_nan=False, allow_infinity=False)
gammas = st.floats(min_value=0.0, max_value=0.999)
lams = st.floats(min_value=1e-4, max_value=0.499)


def any_kernel():
    """Strategy over all kernel families with valid parameters."""
    const = st.floats(min_value=1e-3, max_value=1e3).map(constant_kernel)
    prod = gammas.map(product_kernel)
    gsum = st.tuples(gammas, st.floats(min_value=0.0, max_value=1.0)).map(
        lambda t: sum_kernel(t[0] * t[1], t[0])
    )
    return st.one_of(const, prod, gsum, st.just(zero_kernel()))


class TestBareKernel:
    def test_constant_value(self):
        assert eval_kernel(constant_kernel(2.0), 3.0, 7.0) == 2.0

    def test_product_example(self):
        # (4 * 1)^(0.5/2) = 4^0.25 = sqrt(2)
        assert eval_kernel(product_kernel(0.5), 4.0, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_sum_example(self):
        k = eval_kernel(sum_kernel(0.2, 0.5), 2.0, 3.0)
        expect = 2.0**0.2 * 3.0**0.3 + 3.0**0.2 * 2.0**0.3
        assert k == pytest.approx(expect, rel=1e-15)

    def test_zero(self):
        assert eval_kernel(zero_kernel(), 1.0, 1.0) == 0.0

    def test_broadcasting(self):
        y = np.array([1.0, 2.0, 4.0])
        k = eval_kernel(product_kernel(0.5), y[:, None], y[None, :])
        assert k.shape == (3, 3)
        np.testing.assert_allclose(k, (y[:, None] * y[None, :]) ** 0.25, rtol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            eval_kernel(constant_kernel(1.0), bad, 1.0)

    @given(any_kernel(), sizes, sizes)
    def test_symmetry(self, spec, y, z):
        a = eval_kernel(spec, y, z)
        b = eval_kernel(spec, z, y)
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    @given(any_kernel(), sizes, sizes, st.floats(min_value=1e-3, max_value=1e3))
    def test_homogeneity(self, spec, y, z, c):
        scaled = eval_kernel(spec, c * y, c * z)
        expect = c**spec.gamma * eval_kernel(spec, y, z)
        assert scaled == pytest.approx(expect, rel=1e-12, abs=1e-300)

    @given(any_kernel(), sizes, sizes)
    def test_growth_bound(self, spec, y, z):
        k = eval_kernel(spec, y, z)
        bound = spec.growth_constant * (y**spec.gamma + z**spec.gamma)
        assert k <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="constant", gamma=0.3),
            dict(family="constant", value=0.0),
            dict(family="zero", gamma=0.1),
            dict(family="sum", gamma=0.5, alpha=0.6),
            dict(family="sum", gamma=0.5, alpha=-0.1),
            dict(family="product", gamma=1.0),
            dict(family="product", gamma=-0.2),
            dict(family="nope"),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            KernelSpec(**kwargs)


class TestCutoffProfile:
    def test_plateaus_exact(self):
        s = np.array([0.0, 0.2, 0.5, 1.0, 2.0, 1e9])
        z = eval_cutoff(s)
        np.testing.assert_array_equal(z[:3], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(z[3:], [1.0, 1.0, 1.0])

    def test_midpoint_value(self):
        # u = 0.5 -> 3/4 - 2/8 = 0.5 for the cubic profile
        assert eval_cutoff(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_monotone(self):
        s = np.linspace(0.0, 1.5, 4001)
        z = eval_cutoff(s)
        assert np.all(np.diff(z) >= 0.0)
        assert np.all((z >= 0.0) & (z <= 1.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eval_cutoff(-0.01)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.7, -0.1])
    def test_invalid_scale(self, lam):
        with pytest.raises(ValueError):
            CutoffParams(lam=lam)


def _cubic_zeta_oracle(s):
    """A frozen copy of the cubic switching profile's in-place arithmetic:
    u = clip(2s - 1, 0, 1), zeta = u u (3 - 2 u)."""
    s = np.array(s, dtype=float)
    s *= 2.0
    s -= 1.0
    u = np.clip(s, 0.0, 1.0, out=s)
    w = np.empty_like(u)
    np.multiply(u, 2.0, out=w)
    np.subtract(3.0, w, out=w)
    u *= u
    u *= w
    return u if u.ndim else float(u)


class TestCutoffOracle:
    # both plateaus, the switching region between them, and the floats
    # next to its two ends
    S = np.concatenate(
        [
            np.linspace(0.0, 0.5, 1001),
            np.linspace(0.5, 1.0, 20001),
            np.geomspace(1.0, 1e12, 1001),
            np.nextafter([0.5, 0.5, 1.0, 1.0], [0.0, 1.0, 0.0, 2.0]),
        ]
    )

    def test_array_bit_for_bit(self):
        got = eval_cutoff(self.S.copy())
        want = _cubic_zeta_oracle(self.S)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_array_leaves_its_argument(self):
        s = self.S.copy()
        eval_cutoff(s)
        assert np.array_equal(s, self.S)

    def test_2d_array_bit_for_bit(self):
        s = self.S[:22000].reshape(40, 550)
        got = eval_cutoff(s)
        assert got.shape == (40, 550)
        assert np.array_equal(got.view(np.uint64), _cubic_zeta_oracle(s).view(np.uint64))

    def test_scalar_bit_for_bit(self):
        for s in self.S[::97].tolist() + [0.0, 0.5, 0.75, 1.0, 3, np.float64(0.6)]:
            got = eval_cutoff(s)
            want = _cubic_zeta_oracle(s)
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), s


class TestRegularizedKernel:
    def test_all_factors_on(self):
        # y = z = 1, lam = 0.1: sizes well above lam, ratio factors at
        # zeta(1/(0.1*2)) = zeta(5) = 1, so K_lam = K.
        cut = CutoffParams(lam=0.1)
        spec = constant_kernel(3.0)
        assert eval_regularized(spec, cut, 1.0, 1.0) == 3.0

    def test_ratio_cut_vanishes(self):
        # lam = 0.4: partner with share below lam/2 = 0.2 of the total is
        # switched off; y = 1, z = 9 gives share 0.1.
        cut = CutoffParams(lam=0.4)
        spec = constant_kernel(1.0)
        assert eval_regularized(spec, cut, 1.0, 9.0) == 0.0
        assert eval_regularized(spec, cut, 9.0, 1.0) == 0.0

    def test_small_size_vanishes(self):
        cut = CutoffParams(lam=0.2)
        spec = constant_kernel(1.0)
        assert eval_regularized(spec, cut, 0.1, 0.1) == 0.0
        assert eval_regularized(spec, cut, 0.05, 5.0) == 0.0

    @given(any_kernel(), lams, sizes, sizes)
    def test_vanishing_region_exact(self, spec, lam, y, z):
        cut = CutoffParams(lam=lam)
        k = eval_regularized(spec, cut, y, z)
        half = 0.5 * lam
        dead = (
            y <= half
            or z <= half
            or (1.0 - half) * z <= half * y
            or (1.0 - half) * y <= half * z
        )
        if dead:
            assert k == 0.0
        else:
            assert k >= 0.0

    @given(any_kernel(), lams, sizes, sizes)
    def test_regularized_below_bare(self, spec, lam, y, z):
        cut = CutoffParams(lam=lam)
        assert eval_regularized(spec, cut, y, z) <= eval_kernel(spec, y, z) * (1.0 + 1e-12)

    @given(any_kernel(), lams, sizes, sizes)
    def test_regularized_symmetry(self, spec, lam, y, z):
        cut = CutoffParams(lam=lam)
        a = eval_regularized(spec, cut, y, z)
        b = eval_regularized(spec, cut, z, y)
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    @settings(deadline=None)
    @given(sizes, sizes)
    def test_cutoff_converges_to_bare(self, y, z):
        # As lam -> 0 the regularized kernel recovers K pointwise.
        spec = product_kernel(0.5)
        bare = eval_kernel(spec, y, z)
        small = min(y, z, y / (y + z), z / (y + z))
        lam = min(0.49, 0.25 * small)
        cut = CutoffParams(lam=lam)
        assert eval_regularized(spec, cut, y, z) == pytest.approx(bare, rel=1e-12)

    def test_partner_ratio_support(self):
        # On the support the ratio y/z stays within [lam/(2-lam), (2-lam)/lam].
        lam = 0.2
        cut = CutoffParams(lam=lam)
        spec = constant_kernel(1.0)
        z = 1.0
        ratios = np.geomspace(1e-3, 1e3, 1001)
        k = eval_regularized(spec, cut, ratios * z, np.full_like(ratios, z))
        live = k > 0.0
        lo, hi = lam / (2.0 - lam), (2.0 - lam) / lam
        assert np.all(ratios[live] > lo)
        assert np.all(ratios[live] < hi)
