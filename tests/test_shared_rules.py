"""The X_rho supremum rule, the lower envelope and the tail cells, bit for
bit against verbatim copies of the forms each caller used to compute
them in: measure's norms and envelope checks, forward's gronwall_check,
_partners and _map_back, and the stationary residual's norm."""

from types import SimpleNamespace

import numpy as np
import pytest

from coagsim import stationary
from coagsim.forward import GronwallReport, _Engine, _map_back, _partner_ratio, _partners, gronwall_check
from coagsim.kernel import CutoffParams, constant_kernel
from coagsim.measure import (
    EnvelopeReport,
    GridMeasure,
    Params,
    edge_cumulative,
    envelope_check_lower,
    envelope_check_upper,
    geometric_grid,
    power_law_init,
    xrho_dist,
    xrho_norm,
)

RHOS = [0.1, 0.3, 0.5, 0.75, 0.9]
_ROUNDOFF = 1e-12


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_report(a, b):
    """Equal reports, their float fields equal bit for bit."""
    assert type(a) is type(b)
    for name, va in vars(a).items():
        vb = getattr(b, name)
        assert type(va) is type(vb), name
        assert same_bits(va, vb) if isinstance(va, float) else va == vb, name


# --- verbatim copies of the earlier forms ---------------------------------


def oracle_xrho_norm(m):
    rho = m.tail_exponent
    cums = edge_cumulative(m)
    ep = m.edges ** (1.0 - m.tail_exponent)
    edge_vals = cums[1:] / ep[1:]
    tail_limit = m.tail_amplitude / (1.0 - rho)
    return float(max(np.max(edge_vals, initial=0.0), tail_limit))


def oracle_xrho_dist(m1, m2):
    rho = m1.tail_exponent
    diff = edge_cumulative(m1) - edge_cumulative(m2)
    ep = m1.edges ** (1.0 - m1.tail_exponent)
    edge_vals = np.abs(diff[1:]) / ep[1:]
    tail_limit = abs(m1.tail_amplitude - m2.tail_amplitude) / (1.0 - rho)
    return float(max(np.max(edge_vals, initial=0.0), tail_limit))


def oracle_envelope_check_upper(m, params, slack=0.0):
    rho = params.rho
    cums = edge_cumulative(m)
    ep = m.edges ** (1.0 - m.tail_exponent)
    ratios = cums[1:] / ep[1:]
    i = int(np.argmax(ratios))
    worst, where = float(ratios[i]), float(m.edges[1 + i])
    tail_limit = float(m.tail_amplitude / (1.0 - rho))
    if tail_limit > worst:
        worst, where = tail_limit, np.inf
    ok = worst <= 1.0 + slack + _ROUNDOFF
    return EnvelopeReport(ok=ok, worst_ratio=worst, location=where, slack=slack)


def oracle_envelope_check_lower(m, params, slack=0.0):
    cums = edge_cumulative(m)
    ep = m.edges ** (1.0 - m.tail_exponent)
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


def oracle_power_law_init(params, edges):
    rho, R0 = params.rho, params.R0
    F = edges ** (1.0 - rho) * np.clip(1.0 - (R0 / edges) ** params.delta, 0.0, None)
    mass = np.clip(np.diff(F), 0.0, None)
    return GridMeasure(edges, mass, tail_amplitude=1.0 - rho, tail_exponent=rho)


def oracle_gronwall_check(trajectory, tol=1e-2):
    p = trajectory.params
    edge_pow = trajectory.edges ** (1.0 - p.rho)
    norms = np.max(np.cumsum(trajectory.masses, axis=1) / edge_pow[1:], axis=1, initial=0.0)
    norms = np.maximum(norms, trajectory.amps / (1.0 - p.rho))
    ratios = norms / np.exp(p.beta * p.rho * trajectory.times)
    k = int(np.argmax(ratios))
    worst = float(ratios[k])
    return GronwallReport(ok=worst <= 1.0 + tol, worst_ratio=worst, t_at=float(trajectory.times[k]),
                          tol=float(tol))


def oracle_residual_xrho_norm(G, edges, rho):
    E = edges ** (1.0 - rho)
    return float(np.max(np.abs(np.cumsum(G)) / E[1:]))


def oracle_partners(edges, rho, lam):
    r = edges[1] / edges[0]
    n_ghost = int(np.ceil(np.log(_partner_ratio(lam)) / np.log(r))) + 2
    gedges = edges[-1] * r ** np.arange(n_ghost + 1)
    one_m_rho = 1.0 - rho
    pedges = np.concatenate([edges, gedges[1:]])
    return pedges, np.sqrt(pedges[:-1] * pedges[1:]), np.diff(gedges**one_m_rho) / one_m_rho


def oracle_map_back(masses, amp, edges, sigma, rho, divide_first=False):
    # divide_first=True is the same map with the ghost cells' masses
    # written amp * (diff / (1 - rho)): a rounding-order slip the oracle
    # comparison must catch
    n = masses.size
    r = edges[1] / edges[0]
    lnr = np.log(r)
    shift = sigma / lnr
    km = int(np.floor(shift + 1e-12))
    theta = shift - km
    if abs(theta) < 1e-12:
        theta = 0.0
    one_m_rho = 1.0 - rho
    gedges = edges[-1] * r ** np.arange(km + 3)
    if divide_first:
        ext = np.concatenate([masses, amp * (np.diff(gedges**one_m_rho) / one_m_rho)])
    else:
        ext = np.concatenate([masses, amp * np.diff(gedges**one_m_rho) / one_m_rho])
    fb = (1.0 - r ** (-theta * one_m_rho)) / (
        r ** ((1.0 - theta) * one_m_rho) - r ** (-theta * one_m_rho)
    )
    shifted = fb * ext[km + 1 : km + 1 + n] + (1.0 - fb) * ext[km : km + n]
    spill = float(np.sum(ext[:km])) + fb * float(ext[km])
    scale = np.exp(-sigma)
    return shifted * scale, spill * scale


# --- inputs ---------------------------------------------------------------

GRIDS = {
    "coarse": geometric_grid(1e-2, 1e3, 2.0**0.5),
    "acceptance": geometric_grid(),
}


def random_measure(edges, rho, seed, amp=None):
    """Random cell masses spanning decades, about a third of them empty."""
    rng = np.random.default_rng(seed)
    n = edges.size - 1
    mass = 10.0 ** rng.uniform(-6.0, 2.0, n) * (rng.uniform(size=n) > 0.35)
    amp = float(rng.uniform(0.0, 3.0)) if amp is None else amp
    return GridMeasure(edges, mass, amp, rho)


def tied_measure(edges, rho, seed):
    """A random measure whose tail limit A / (1 - rho) equals its largest
    edge value exactly: the first seed from seed on that admits such an A
    within 8 ulps of best (1 - rho)."""
    while True:
        m = random_measure(edges, rho, seed, amp=0.0)
        best = float(np.max(edge_cumulative(m)[1:] / m.edges[1:] ** (1.0 - rho)))
        amp = best * (1.0 - rho)
        for _ in range(8):
            amp = np.nextafter(amp, -np.inf)
        for _ in range(17):
            if amp / (1.0 - rho) == best:
                return GridMeasure(edges, m.cell_mass, float(amp), rho)
            amp = np.nextafter(amp, np.inf)
        seed += 100


def zero_measure(edges, rho):
    return GridMeasure(edges, np.zeros(edges.size - 1), 0.0, rho)


def measures(edges, rho):
    """(name, measure) pairs: random ones, a tie of tail and best edge,
    the zero measure and the lower-envelope datum."""
    params = Params(gamma=0.0, rho=rho, delta=min(0.2, rho / 2))
    return [
        ("random0", random_measure(edges, rho, 0)),
        ("random1", random_measure(edges, rho, 1, amp=0.0)),
        ("tied", tied_measure(edges, rho, 2)),
        ("zero", zero_measure(edges, rho)),
        ("power_law", power_law_init(params, edges)),
    ]


@pytest.fixture(params=RHOS, ids=lambda rho: f"rho{rho}")
def rho(request):
    return request.param


@pytest.fixture(params=sorted(GRIDS))
def edges(request):
    return GRIDS[request.param]


# --- the supremum rule ----------------------------------------------------


class TestSupremumOracle:
    def test_xrho_norm(self, edges, rho):
        for name, m in measures(edges, rho):
            assert same_bits(xrho_norm(m), oracle_xrho_norm(m)), name
            assert type(xrho_norm(m)) is float

    def test_xrho_dist(self, edges, rho):
        ms = measures(edges, rho)
        for na, a in ms:
            for nb, b in ms:
                assert same_bits(xrho_dist(a, b), oracle_xrho_dist(a, b)), (na, nb)

    def test_envelope_check_upper(self, edges, rho):
        params = Params(gamma=0.0, rho=rho, delta=min(0.2, rho / 2))
        for name, m in measures(edges, rho):
            for slack in (0.0, 1e-2):
                got = envelope_check_upper(m, params, slack=slack)
                same_report(got, oracle_envelope_check_upper(m, params, slack=slack))
                assert got.worst_ratio == xrho_norm(m), name

    def test_tie_reports_the_edge(self, rho):
        m = tied_measure(GRIDS["coarse"], rho, 2)
        params = Params(gamma=0.0, rho=rho, delta=min(0.2, rho / 2))
        assert np.isfinite(envelope_check_upper(m, params).location)

    def test_gronwall_check(self, edges, rho):
        ms = [m for _, m in measures(edges, rho)]
        traj = SimpleNamespace(
            params=Params(gamma=0.0, rho=rho, delta=min(0.2, rho / 2)),
            edges=edges,
            masses=np.array([m.cell_mass for m in ms]),
            amps=np.array([m.tail_amplitude for m in ms]),
            times=np.linspace(0.0, 0.5, len(ms)),
        )
        # every step, then the tied step and the zero measure alone
        for k in (slice(None), slice(2, 3), slice(3, 4)):
            part = SimpleNamespace(**{**vars(traj), "masses": traj.masses[k], "amps": traj.amps[k],
                                      "times": traj.times[k]})
            for tol in (1e-2, 0.0):
                same_report(gronwall_check(part, tol=tol), oracle_gronwall_check(part, tol=tol))

    def test_residual_norm_of_signed_g(self, rho):
        edges = GRIDS["coarse"]
        params = Params(gamma=0.0, rho=rho, delta=min(0.2, rho / 2))
        res = stationary._Residual(_Engine(edges, params, constant_kernel(), CutoffParams(lam=0.1)), edges)
        rng = np.random.default_rng(7)
        n = edges.size - 1
        for G in (
            rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 1.0, n),
            rng.normal(size=n) * (rng.uniform(size=n) > 0.5),
            np.zeros(n),
            -np.abs(rng.normal(size=n)),
        ):
            assert same_bits(res.xrho_norm(G), oracle_residual_xrho_norm(G, edges, rho))
            assert type(res.xrho_norm(G)) is float


# --- the lower envelope ---------------------------------------------------


ENVELOPES = [(0.05, 10.0), (0.2, 10.0), (0.04, 1e-3), (0.1, 123.4), (0.05, 1e9)]


class TestLowerEnvelopeOracle:
    @pytest.mark.parametrize("delta, R0", ENVELOPES)
    def test_power_law_init(self, edges, rho, delta, R0):
        params = Params(gamma=0.0, rho=rho, delta=min(delta, rho / 2), R0=R0)
        got, want = power_law_init(params, edges), oracle_power_law_init(params, edges)
        assert same_bits(got.cell_mass, want.cell_mass) and same_bits(got.edges, want.edges)
        assert same_bits(got.tail_amplitude, want.tail_amplitude) and got.tail_exponent == want.tail_exponent

    @pytest.mark.parametrize("delta, R0", ENVELOPES)
    def test_envelope_check_lower(self, edges, rho, delta, R0):
        params = Params(gamma=0.0, rho=rho, delta=min(delta, rho / 2), R0=R0)
        for _, m in measures(edges, rho):
            for slack in (0.0, 1e-2):
                same_report(envelope_check_lower(m, params, slack=slack), oracle_envelope_check_lower(m, params, slack=slack))


# --- the tail cells -------------------------------------------------------


class TestTailCellsOracle:
    @pytest.mark.parametrize("lam", [0.4, 0.1, 1e-3])
    def test_partners(self, edges, rho, lam):
        got, want = _partners(edges, rho, lam), oracle_partners(edges, rho, lam)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert same_bits(g, w)

    SHIFTS = [("whole", 0), ("whole", 1), ("whole", 5), ("whole", 40), ("frac", 0.37), ("frac", 1.3), ("frac", 2.9)]

    @staticmethod
    def sigma_of(edges, kind, value):
        return value * np.log(edges[1] / edges[0]) if kind == "whole" else value

    @pytest.mark.parametrize("kind, value", SHIFTS)
    def test_map_back(self, edges, rho, kind, value):
        sigma = self.sigma_of(edges, kind, value)
        for name, m in measures(edges, rho):
            got = _map_back(m.cell_mass, m.tail_amplitude, edges, sigma, rho)
            want = oracle_map_back(m.cell_mass, m.tail_amplitude, edges, sigma, rho)
            assert same_bits(got[0], want[0]), name
            assert all(type(v) is type(w) and same_bits(v, w) for v, w in zip(got[1:], want[1:])), name

    @pytest.mark.parametrize("rho", [0.3, 0.9])
    def test_divide_first_order_differs(self, rho):
        # at these rho, dividing the tail cells by 1 - rho before scaling
        # by the amplitude moves the last bit, so test_map_back would catch
        # a helper that changed the order
        edges = GRIDS["acceptance"]
        differs = 0
        for kind, value in self.SHIFTS:
            sigma = self.sigma_of(edges, kind, value)
            m = random_measure(edges, rho, 0)
            want = oracle_map_back(m.cell_mass, m.tail_amplitude, edges, sigma, rho)
            slip = oracle_map_back(m.cell_mass, m.tail_amplitude, edges, sigma, rho, divide_first=True)
            differs += not same_bits(want[0], slip[0])
        assert differs > 0
