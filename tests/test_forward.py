"""Forward evolution: loss/gain quadrature, the pair engine, stepping, frame restarts."""

import bisect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from coagsim import forward
from coagsim.dual import solve_dual
from coagsim.forward import (
    EvolutionState,
    GronwallReport,
    IntegrationError,
    _Engine,
    _Stepper,
    _exp_update,
    _map_back,
    _partners,
    gain,
    gronwall_check,
    rearrangement_residual,
    rescaled_trajectory,
    simulate,
)
from coagsim.kernel import (
    CutoffParams,
    _ratio_cutoffs,
    constant_kernel,
    eval_cutoff,
    eval_kernel,
    eval_regularized,
    product_kernel,
    sum_kernel,
    zero_kernel,
)
from coagsim.measure import (
    GridMeasure,
    Params,
    cumulative_mass,
    geometric_grid,
    power_law_init,
    xrho_dist,
    xrho_norm,
)

PARAMS = Params(gamma=0.0, rho=0.5, delta=0.2, R0=10.0)
CUT = CutoffParams(lam=1e-3)
RATIO = 2.0 ** (1.0 / 16.0)
# the acceptance grid, handed to the calls that run on it
EDGES = geometric_grid()


def state_of(measure, kernel, t=0.0, params=PARAMS, cutoff=CUT):
    return EvolutionState(measure, t, params, kernel, cutoff)


def midpoints(m):
    """Geometric midpoints of a measure's cells, the collision representatives."""
    return np.sqrt(m.edges[:-1] * m.edges[1:])


def oracle_ratio_kernel(kernel, cutoff, Y, Z):
    """The static weight K(Y, Z) zeta(Y / (lam (Y+Z))) zeta(Z / (lam (Y+Z))),
    a verbatim copy of the former forward._ratio_kernel, which evaluated
    both ratio cutoffs on every pair."""
    lam = cutoff.lam
    tot = Y + Z
    return (
        eval_kernel(kernel, Y, Z)
        * eval_cutoff(Y / (lam * tot))
        * eval_cutoff(Z / (lam * tot))
    )


def atom_measure(edges, loaded, rho=0.5, amp=0.0):
    mass = np.zeros(edges.size - 1)
    for idx, m in loaded.items():
        mass[idx] = m
    return GridMeasure(edges, mass, amp, rho)


def engine_loss_rate(state, X):
    """A(X, t) on the state's engine, read as the dual's _Jumps._total
    reads a node's rate: esc u(X) times the row of X against the partner
    densities, less the drift."""
    p, m, eng = state.params, state.measure, state.engine
    _, v, esc = eng.densities(m.cell_mass, m.tail_amplitude, state.t)
    ux = eval_cutoff(X / (state.cutoff.lam * np.exp(p.beta * state.t)))
    return esc * ux * float(eng.row(X) @ v) - p.beta * p.rho


def oracle_loss_rate(state, X):
    """A(X, t) by midpoint quadrature over the cells and the tail ghost
    cells, with its own ghost cells and cutoff vector."""
    p, m, cutoff = state.params, state.measure, state.cutoff
    _, Yall, gpow = _partners(m.edges, p.rho, cutoff.lam)
    lam_eff = cutoff.lam * np.exp(p.beta * state.t)
    u = eval_cutoff(Yall / lam_eff)
    m_all = np.concatenate([m.cell_mass, m.tail_amplitude * gpow])
    row = oracle_ratio_kernel(state.kernel, cutoff, X, Yall)
    esc = np.exp(-p.gamma * p.beta * state.t)
    ux = eval_cutoff(X / lam_eff)
    return esc * ux * float(np.sum(row * u * m_all / Yall)) - p.beta * p.rho


class TestLossRate:
    def test_single_cell_constant(self):
        # one loaded cell, all cutoffs inactive at the probe: A = K m / Y - beta rho
        edges = geometric_grid(1.0, 2.0 ** (8.0 / 16.0), ratio=RATIO)
        m = atom_measure(edges, {3: 0.7})
        st_ = state_of(m, constant_kernel(2.0))
        Y3 = np.sqrt(edges[3] * edges[4])
        expected = 2.0 * 0.7 / Y3 - PARAMS.beta * PARAMS.rho
        assert engine_loss_rate(st_, Y3) == pytest.approx(expected, rel=1e-12)

    def test_zero_kernel_is_pure_drift(self):
        edges = geometric_grid(1.0, 4.0, ratio=RATIO)
        m = atom_measure(edges, {0: 1.0})
        st_ = state_of(m, zero_kernel())
        for X in [0.5, 3.0, 1e4]:
            assert engine_loss_rate(st_, X) == -PARAMS.beta * PARAMS.rho

    def test_dead_zone_below_cutoff(self):
        # probe size below lam/2 kills the kernel part entirely
        edges = geometric_grid(1.0, 4.0, ratio=RATIO)
        m = atom_measure(edges, {5: 2.0})
        st_ = state_of(m, constant_kernel(3.0))
        assert engine_loss_rate(st_, 0.25 * CUT.lam) == -PARAMS.beta * PARAMS.rho

    def test_full_window_exact_sum(self):
        # support and probe inside the cutoff-free window: quadrature is an
        # exact weighted sum over representatives
        cut = CutoffParams(lam=0.01)
        edges = geometric_grid(1.0, 100.0, ratio=RATIO)
        rng = np.random.default_rng(7)
        mass = rng.uniform(0.0, 1.0, edges.size - 1)
        m = GridMeasure(edges, mass, 0.0, 0.5)
        st_ = state_of(m, constant_kernel(2.0), cutoff=cut)
        reps = midpoints(m)
        expected = 2.0 * np.sum(mass / reps) - PARAMS.beta * PARAMS.rho
        assert engine_loss_rate(st_, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_dyadic_upper_bound(self):
        # cutoffs only remove mass: kernel part <= value * integral of
        # z^-1 dmu over z > lam/2
        from coagsim.measure import dyadic_tail_integral

        m = power_law_init(PARAMS, EDGES)
        st_ = state_of(m, constant_kernel(2.0))
        bound = 2.0 * dyadic_tail_integral(m, CUT.lam / 2.0, 1.0)
        for X in [1.0, 25.0, 1e3, 1e6]:
            kernel_part = engine_loss_rate(st_, X) + PARAMS.beta * PARAMS.rho
            assert 0.0 <= kernel_part <= bound * (1.0 + 1e-12)

    def test_fine_grid_oracle(self):
        # midpoint quadrature vs dense sub-cell integration with every
        # cutoff active (large lambda)
        cut = CutoffParams(lam=0.2)
        params = Params(gamma=0.0, rho=0.5)
        edges = geometric_grid(0.05, 50.0, ratio=RATIO)
        rng = np.random.default_rng(3)
        mass = rng.uniform(0.1, 1.0, edges.size - 1)
        m = GridMeasure(edges, mass, 0.0, 0.5)
        ker = constant_kernel(1.0)
        st_ = EvolutionState(m, 0.0, params, ker, cut)
        X = 1.0
        got = engine_loss_rate(st_, X) + params.beta * params.rho
        # reference: integrate K_lam(X, z)/z against the intra-cell density
        total = 0.0
        for k in range(m.n_cells):
            el, er = edges[k], edges[k + 1]
            sub = np.geomspace(el, er, 401)
            zc = np.sqrt(sub[:-1] * sub[1:])
            frac = np.diff(sub**0.5) / (er**0.5 - el**0.5)
            total += np.sum(eval_regularized(ker, cut, X, zc) / zc * frac) * mass[k]
        assert got == pytest.approx(total, rel=1e-2)

    @pytest.mark.parametrize(
        "kernel, params",
        [
            (constant_kernel(1.0), Params(gamma=0.0, rho=0.5)),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
        ],
    )
    def test_matches_engine_rates_at_representatives(self, kernel, params):
        # a representative's row, as the dual reads R's, against the loss
        # that rates takes by pair_sums; t > 0 moves the small-size cutoff
        # front into the grid
        cut = CutoffParams(lam=1e-2)
        m = power_law_init(params, geometric_grid(1e-3, 1e4, ratio=RATIO))
        t = 0.3
        st_ = EvolutionState(m, t, params, kernel, cut)
        A = _Engine(m.edges, params, kernel, cut).rates(m.cell_mass, m.tail_amplitude, t)[0]
        drift = params.beta * params.rho
        got = np.array([engine_loss_rate(st_, Y) for Y in midpoints(m)]) + drift
        assert np.count_nonzero(A + drift) > 0.5 * m.n_cells
        np.testing.assert_allclose(got, A + drift, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "kernel, params, lam",
        [
            (constant_kernel(1.3), Params(gamma=0.0, rho=0.5), 1e-2),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75), 1e-2),
            (sum_kernel(0.2, 0.5), Params(gamma=0.5, rho=0.75), 0.1),
        ],
        ids=["constant", "product", "sum"],
    )
    @pytest.mark.parametrize("t", [0.3, 1.1])
    def test_matches_cell_quadrature_oracle(self, kernel, params, lam, t):
        # random masses and tail, probes from below the cutoff front to
        # past the partner reach of the top cell
        cut = CutoffParams(lam=lam)
        edges = geometric_grid(1e-3, 1e3, ratio=RATIO)
        rng = np.random.default_rng(23)
        m = GridMeasure(edges, rng.uniform(0.0, 1.0, edges.size - 1), 0.6, params.rho)
        st_ = EvolutionState(m, t, params, kernel, cut)
        drift = params.beta * params.rho
        probes = np.geomspace(1e-4, 1e6, 41)
        want = np.array([oracle_loss_rate(st_, X) for X in probes])
        got = np.array([engine_loss_rate(st_, X) for X in probes])
        assert 10 < np.count_nonzero(want + drift) < probes.size
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=4e-16 * drift)

    def test_rejects_bad_probe(self):
        m = atom_measure(geometric_grid(1.0, 4.0, ratio=RATIO), {0: 1.0})
        st_ = state_of(m, constant_kernel(1.0))
        with pytest.raises(ValueError):
            engine_loss_rate(st_, 0.0)


class TestGain:
    def setup_method(self):
        self.edges = geometric_grid(1.0, 2.0 ** (40.0 / 16.0), ratio=RATIO)
        self.m = atom_measure(self.edges, {2: 0.3, 20: 0.5})
        self.state = state_of(self.m, constant_kernel(2.0))
        self.reps = midpoints(self.m)

    def test_two_atom_total(self):
        # ordered-pair rates: cross 2 m1 m2 (1/Y1 + 1/Y2), self 2 mi^2 / Yi
        Y1, Y2 = self.reps[2], self.reps[20]
        expected = (
            2.0 * 0.3 * 0.5 * (1.0 / Y1 + 1.0 / Y2)
            + 2.0 * 0.3**2 / Y1
            + 2.0 * 0.5**2 / Y2
        )
        g = gain(self.state)
        assert np.sum(g.cell_mass) == pytest.approx(expected, rel=1e-12)

    def test_two_atom_deposit_locations(self):
        # each pair sum lands split across the two bracketing cells
        Y1, Y2 = self.reps[2], self.reps[20]
        g = gain(self.state)
        for P, rate in [
            (2.0 * Y1, 2.0 * 0.3**2 / Y1),
            (Y1 + Y2, 2.0 * 0.3 * 0.5 * (1.0 / Y1 + 1.0 / Y2)),
            (2.0 * Y2, 2.0 * 0.5**2 / Y2),
        ]:
            k = np.searchsorted(self.reps, P, side="right") - 1
            got = g.cell_mass[k] + g.cell_mass[k + 1]
            assert got == pytest.approx(rate, rel=1e-12)

    def test_gain_nonnegative_random(self):
        rng = np.random.default_rng(11)
        mass = rng.uniform(0.0, 2.0, self.edges.size - 1)
        m = GridMeasure(self.edges, mass, 0.3, 0.5)
        g = gain(state_of(m, product_kernel(0.0)))
        assert np.all(g.cell_mass >= 0.0)

    def test_zero_kernel_gain_vanishes(self):
        g = gain(state_of(self.m, zero_kernel()))
        assert np.sum(g.cell_mass) == 0.0


NEAR_GEOMETRIC_KERNELS = pytest.mark.parametrize(
    "kernel, params",
    [
        (constant_kernel(1.0), Params(gamma=0.0, rho=0.5)),
        (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
    ],
    ids=["constant", "product"],
)


def near_geometric_state(kernel, params):
    """The power-law measure at t = 0.3 on [1e-3, 1e3], with edges off the
    geometric lattice by up to 1e-10 relative, which GridMeasure accepts."""
    rng = np.random.default_rng(5)
    edges = geometric_grid(1e-3, 1e3)
    edges = edges * (1.0 + 1e-10 * rng.uniform(-1.0, 1.0, edges.size))
    one_m_rho = 1.0 - params.rho
    m = GridMeasure(edges, np.diff(edges**one_m_rho), one_m_rho, params.rho)
    return EvolutionState(m, 0.3, params, kernel, CUT)


class TestRearrangement:
    def setup_method(self):
        edges = geometric_grid(1.0, 2.0 ** (40.0 / 16.0), ratio=RATIO)
        self.m = atom_measure(edges, {2: 0.3, 20: 0.5})
        self.state = state_of(self.m, constant_kernel(2.0))
        self.reps = midpoints(self.m)

    def test_constant_test_function(self):
        res, flux = rearrangement_residual(self.state, lambda x: np.ones_like(np.asarray(x, float)))
        assert res <= 1e-13
        assert flux == 0.0

    def test_first_moment(self):
        # the two-point split conserves each deposit's first moment
        res, _ = rearrangement_residual(self.state, lambda x: np.asarray(x, float))
        assert res <= 1e-13

    def test_indicator_coherent(self):
        # cut far from every deposit bracket: binned and exact pairings agree
        res, _ = rearrangement_residual(
            self.state, lambda x: (np.asarray(x, float) <= 100.0).astype(float)
        )
        assert res <= 1e-13

    def test_indicator_straddling_cut(self):
        # self-pair sums 2 Y_i land exactly on a representative of the
        # dyadic-ratio grid, so only the cross pair can straddle: a cut
        # between its lower bracket and the exact sum smears the deposit
        P = self.reps[2] + self.reps[20]
        k = np.searchsorted(self.reps, P, side="right") - 1
        cut_at = 0.5 * (self.reps[k] + P)
        assert self.reps[k] < cut_at < P
        res, _ = rearrangement_residual(
            self.state, lambda x: (np.asarray(x, float) <= cut_at).astype(float)
        )
        assert res > 1e-3

    def test_full_state_machine_level(self):
        m = power_law_init(PARAMS, EDGES)
        st_ = state_of(m, constant_kernel(1.0))
        res, flux = rearrangement_residual(st_, lambda x: np.ones_like(np.asarray(x, float)))
        assert res <= 1e-12
        assert flux > 0.0  # ghost-pair deposits always exit the grid

    def test_zero_kernel(self):
        res, flux = rearrangement_residual(state_of(self.m, zero_kernel()), lambda x: x)
        assert res == 0.0 and flux == 0.0

    @NEAR_GEOMETRIC_KERNELS
    def test_near_geometric_grid(self, kernel, params):
        # The engine places its partners on the exact lattice through the
        # grid's end edges and takes the splits from r^d, and
        # rearrangement_residual evaluates psi at those lattice positions:
        # so this checks that the engine stays self-consistent on a grid
        # off the lattice, its pairing identities holding to machine level.
        # The psi = x pairing cancels to summation noise of order
        # x_max * 1e-16, hence the six decades of sizes.
        st_ = near_geometric_state(kernel, params)
        for psi in (np.ones_like, lambda x: np.asarray(x, float)):
            res, _ = rearrangement_residual(st_, psi)
            assert res <= 1e-12


class TestStateEngine:
    """An EvolutionState builds its pair operator once, on first use."""

    def test_diagnostics_share_one_build(self, monkeypatch):
        builds = []
        init = forward._Engine.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(forward._Engine, "__init__", counting_init)
        st_ = state_of(power_law_init(PARAMS, EDGES), constant_kernel(1.0), t=0.2)
        engine_loss_rate(st_, 10.0)
        gain(st_)
        rearrangement_residual(st_, np.ones_like)
        rearrangement_residual(st_, lambda x: np.asarray(x, float))
        assert len(builds) == 1
        assert st_.engine is st_.engine

    def test_trajectory_state_reads_its_engine(self):
        h0 = power_law_init(PARAMS, EDGES)
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.1)
        k = traj.times.size - 1
        st_ = traj.state(k)
        assert st_.engine is traj.engine
        assert st_.t == traj.times[k]
        np.testing.assert_array_equal(st_.measure.cell_mass, traj.masses[k])
        fresh = state_of(st_.measure, constant_kernel(1.0), t=st_.t)
        np.testing.assert_array_equal(gain(st_).cell_mass, gain(fresh).cell_mass)


class TestRatioKernelSymmetry:
    """The engine reads the partners below a cell through K(Y, Z) = K(Z, Y)."""

    @given(
        st.sampled_from(
            [constant_kernel(1.3), product_kernel(0.5), sum_kernel(0.2, 0.5)]
        ),
        st.floats(1e-3, 0.5, exclude_max=True),
        st.floats(1e-4, 1e10),
        st.floats(1e-4, 1e10),
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_symmetric(self, kernel, lam, Y, Z):
        def weight(a, b):
            return _ratio_cutoffs(eval_kernel(kernel, a, np.array([b])), a, np.array([b]), lam)

        assert weight(Y, Z).tobytes() == weight(Z, Y).tobytes()


class TestRatioCutoffsOracle:
    """The engine's static weights t and its rows, bit for bit against
    oracle_ratio_kernel, which evaluates both ratio cutoffs on every
    partner: on grids whose partner lattice hits the support band's edges
    exactly (ratio 2^(1/8), where 2 Y_i = Y_(i+8)) or not, for a size
    below lam/2, sizes inside the grid and sizes above it."""

    KERNELS = {
        "constant": (constant_kernel(1.3), 0.0),
        "product": (product_kernel(0.5), 0.5),
        "sum": (sum_kernel(0.2, 0.5), 0.5),
        "zero": (zero_kernel(), 0.0),
    }

    @pytest.mark.parametrize("ratio", [2.0 ** (1 / 16), 2.0 ** (1 / 32), 1.5, 2.0 ** (1 / 8)], ids=["r16", "r32", "r1.5", "r8"])
    @pytest.mark.parametrize("lam", [0.3, 0.1, 1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("family", KERNELS)
    def test_bitwise(self, family, lam, ratio):
        kernel, gamma = self.KERNELS[family]
        edges = geometric_grid(1e-3, 1e3, ratio)
        cut = CutoffParams(lam=lam)
        eng = _Engine(edges, Params(gamma=gamma, rho=0.75), kernel, cut)
        r = (edges[-1] / edges[0]) ** (1.0 / eng.N)
        t = oracle_ratio_kernel(kernel, cut, 1.0, r ** np.arange(eng.dmax + 1))
        assert eng.t.tobytes() == t[: eng.t.size].tobytes()
        assert not np.any(t[eng.t.size :])
        for X in (0.25 * lam, edges[0] * 1.01, 0.7, eng.Y[eng.N // 2], eng.Y[-1], 5e3, 1e6):
            assert eng.row(X).tobytes() == oracle_ratio_kernel(kernel, cut, X, eng.Yall).tobytes(), X


def array_entries(obj, seen=None, owned=False):
    """Entries of the numpy arrays an object holds, following attributes,
    containers and package objects.  With owned, each array counts its base
    buffer once instead (views hold no entries of their own)."""
    seen = set() if seen is None else seen
    if owned and isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif type(obj).__module__.startswith("coagsim") and hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return 0
    return sum(array_entries(c, seen, owned) for c in children)


class TestEngineMemory:
    def test_smaller_than_one_dense_pair_table(self):
        # the acceptance grid at lambda = 1e-3: the per-diagonal vectors,
        # the offset groups and the top rows together hold less than one
        # cell-by-partner table
        eng = _Engine(geometric_grid(), PARAMS, constant_kernel(1.0), CUT)
        assert eng.N == 638
        assert array_entries(eng) < eng.N * eng.Yall.size

    def test_owned_buffers_smaller_than_one_dense_pair_table(self):
        # the same bound on the buffers the engine owns, so that padding
        # around a stored view counts and views of it do not
        eng = _Engine(geometric_grid(), PARAMS, constant_kernel(1.0), CUT)
        assert eng.N * eng.Yall.size == 520_608
        assert array_entries(eng, owned=True) < eng.N * eng.Yall.size


def oracle_rates(m, params, kernel, cutoff, s):
    """Brute-force rates over ordered pairs, from the forward module's model.

    Returns (Lk, Q, sink_rate, sink_moment, ghost_rate, ghost_moment): the
    kernel loss rate per unit mass, the in-grid deposits, and the overflow
    ledgers of in-grid pairs summing past the top representative and of
    pairs with a tail (ghost) partner.
    """
    Y = midpoints(m)
    N = Y.size
    lam = cutoff.lam
    r = m.edges[1] / m.edges[0]
    # tail cells continue the grid until every partner is past the ratio bound
    gedges = [m.edges[-1]]
    while gedges[-1] <= Y[-1] * (2.0 - lam) / lam * r:
        gedges.append(gedges[-1] * r)
    gedges = np.array(gedges)
    one_m_rho = 1.0 - params.rho
    Yp = np.concatenate([Y, np.sqrt(gedges[:-1] * gedges[1:])])
    mp = np.concatenate([m.cell_mass, m.tail_amplitude * np.diff(gedges**one_m_rho) / one_m_rho])
    lam_eff = lam * np.exp(params.beta * s)
    esc = np.exp(-params.gamma * params.beta * s)
    Lk = np.zeros(N)
    Q = np.zeros(N)
    sink = sink_mom = ghost = ghost_mom = 0.0
    Yl = list(Y)
    for i in range(N):
        tot = Y[i] + Yp
        K = (
            esc
            * eval_kernel(kernel, Y[i], Yp)
            * eval_cutoff(Y[i] / lam_eff)
            * eval_cutoff(Yp / lam_eff)
            * eval_cutoff(Y[i] / (lam * tot))
            * eval_cutoff(Yp / (lam * tot))
        )
        for j in range(Yp.size):
            rate = K[j] * mp[j] / Yp[j]
            Lk[i] += rate
            w = rate * m.cell_mass[i]
            P = Y[i] + Yp[j]
            if j >= N:
                ghost += w
                ghost_mom += w * P
                continue
            lo = bisect.bisect_right(Yl, P) - 1
            if lo >= N - 1:
                sink += w
                sink_mom += w * P
                continue
            f = (Y[lo + 1] - P) / (Y[lo + 1] - Y[lo])
            Q[lo] += w * f
            Q[lo + 1] += w * (1.0 - f)
    return Lk, Q, sink, sink_mom, ghost, ghost_mom


class TestEngineOracle:
    """_Engine.rates against the ordered-pair double loop."""

    @pytest.mark.parametrize(
        "kernel, params",
        [
            (constant_kernel(1.3), Params(gamma=0.0, rho=0.5)),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
            (sum_kernel(0.2, 0.5), Params(gamma=0.5, rho=0.75)),
        ],
        ids=["constant", "product", "sum"],
    )
    @pytest.mark.parametrize("lam", [1e-3, 0.1, 0.3])
    @pytest.mark.parametrize("s", [0.0, 0.7])
    @pytest.mark.parametrize(
        "x_min, x_max, ratio",
        # 70 and 159 cells: at lambda = 1e-3 both grids are narrower than
        # the partner reach (91 and 355 diagonals), at 0.1 and 0.3 wider;
        # 53 cells: narrower than the partner reach at lambda <= 0.1 too
        # (68 diagonals at 0.1), so every cell has ghost partners there
        [(1e-4, 20.0, 2.0 ** 0.25), (1e-2, 10.0, RATIO), (1.0, 10.0, RATIO)],
        ids=["coarse", "fine", "small"],
    )
    def test_matches_double_loop(self, kernel, params, lam, s, x_min, x_max, ratio):
        edges = geometric_grid(x_min, x_max, ratio=ratio)
        rng = np.random.default_rng(17)
        m = GridMeasure(edges, rng.uniform(0.1, 1.0, edges.size - 1), 0.4, params.rho)
        cut = CutoffParams(lam=lam)
        A, Q, over, over_mom, resid = _Engine(edges, params, kernel, cut).rates(
            m.cell_mass, m.tail_amplitude, s
        )
        Lk, Qo, sink, sink_mom, ghost, ghost_mom = oracle_rates(m, params, kernel, cut, s)
        drift = params.beta * params.rho
        assert sink > 0.0 and ghost > 0.0  # the top cells feed both ledgers
        # A carries -beta rho, so adding it back costs a rounding of drift
        np.testing.assert_allclose(A + drift, Lk, rtol=1e-13, atol=4e-16 * drift)
        np.testing.assert_allclose(Q, Qo, rtol=1e-13, atol=0.0)
        assert over == pytest.approx(sink + ghost, rel=1e-13)
        assert over_mom == pytest.approx(sink_mom + ghost_mom, rel=1e-13)
        assert resid <= 1e-12



def traced_peak(fn):
    """(result, peak, kept): fn's return value, and the traced bytes at
    the peak of the call and still allocated after it."""
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, kept


class TestEngineWorkingMemory:
    """The engine build holds at most 1 MiB beyond the tables it keeps,
    and keeps little: a table of every pair near the grid top, ghost
    pairs included, kept 0.66 MiB on the acceptance grid and 4.25 MiB on
    the 32-per-octave grid at lambda = 1e-4, growing with the square of
    the partner reach."""

    @pytest.mark.parametrize(
        "ratio, lam, kept_max",
        [(RATIO, 1e-3, 2**18), (2.0 ** (1.0 / 32.0), 1e-4, 2**20)],
        ids=["acceptance", "fine"],
    )
    def test_build_peak_over_kept(self, ratio, lam, kept_max):
        edges = geometric_grid(1e-4, 1e8, ratio)
        cut = CutoffParams(lam=lam)
        _Engine(edges, PARAMS, constant_kernel(), cut)  # warm every import and cache
        eng, peak, kept = traced_peak(lambda: _Engine(edges, PARAMS, constant_kernel(), cut))
        assert np.any(eng.top[0] > 0.0) and np.any(eng.top[1] > 0.0)  # the top rows feed both
        assert kept <= kept_max
        assert peak - kept <= 2**20


def _band(x, lead, width, rows):
    """Read-only windows out[i, k] = x[i + k - lead], zero outside x."""
    buf = np.zeros(rows + width, dtype=x.dtype)
    n = min(x.size, buf.size - lead)
    buf[lead : lead + n] = x[:n]
    return sliding_window_view(buf, width)[:rows]


def band_oracle_rates(edges, params, kernel, cutoff, masses, amp, s):
    """The per-pair half-band operator: static weights T[i, d] of cell i
    with partner i + d, and per-pair deposit tables scattered by bincount,
    with the bracket Y[lo] <= P < Y[lo + 1] found by searchsorted on the
    grid's own representatives.  Returns the tuple of _Engine.rates."""
    N = edges.size - 1
    _, Yall, ghost_pow = _partners(edges, params.rho, cutoff.lam)
    Y = Yall[:N]
    dmax = ghost_pow.size - 1
    listed = _band(np.ones(Yall.size, dtype=bool), 0, dmax + 1, N)
    Z = np.where(listed, _band(Yall, 0, dmax + 1, N), Yall[-1])
    T = np.where(listed, oracle_ratio_kernel(kernel, cutoff, Y[:, None], Z), 0.0)
    P = Y[:, None] + Z
    k = np.searchsorted(Y, P, side="right") - 1
    live = k < N - 1
    k_in = np.where(live, k, 0)
    f = (Y[k_in + 1] - P) / (Y[k_in + 1] - Y[k_in])
    Y2 = np.where(np.arange(dmax + 1) > 0, _band(Y, 0, dmax + 1, N), 0.0)
    S = T * (Y[:, None] + Y2)
    lo = np.where(live, k, N).ravel()
    F_lo = np.where(live, S * f, S)
    F_hi = np.where(live, S * (1.0 - f), S * P)
    u = eval_cutoff(Yall / (cutoff.lam * np.exp(params.beta * s)))
    v = u * np.concatenate([masses, amp * ghost_pow]) / Yall
    esc = np.exp(-params.gamma * params.beta * s)
    # partners above each cell, then below it by kernel symmetry
    Lk = np.einsum("id,id->i", T, _band(v, 0, dmax + 1, N))
    for d in range(1, min(dmax + 1, N)):
        Lk[d:] += T[: N - d, d] * v[: N - d]
    Lk *= esc * u[:N]
    vv = _band(v, 0, dmax + 1, N) * (esc * v[:N, None])
    dep_lo = np.bincount(lo, (vv * F_lo).ravel(), minlength=N + 1)
    dep_hi = np.bincount(lo, (vv * F_hi).ravel(), minlength=N + 1)
    Q = dep_lo[:N].copy()
    Q[1:] += dep_hi[: N - 1]
    over_rate, over_moment = float(dep_lo[N]), float(dep_hi[N])
    loss_total = float(np.sum(Lk * masses))
    resid = abs(loss_total - float(np.sum(Q)) - over_rate) / max(loss_total, 1e-300)
    return Lk - params.beta * params.rho, Q, over_rate, over_moment, resid


def assert_rates_close(got, want, rtol=1e-13):
    """A and Q within rtol of their sup norms, the overflow ledger within
    rtol of itself, and the pairing residual at machine level."""
    for g, w in zip(got[:2], want[:2]):
        assert np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w))
    assert got[2] == pytest.approx(want[2], rel=rtol, abs=1e-300)
    assert got[3] == pytest.approx(want[3], rel=rtol, abs=1e-300)
    assert got[4] <= 1e-12


ORACLE_KERNELS = [
    (constant_kernel(1.3), Params(gamma=0.0, rho=0.5)),
    (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
    (sum_kernel(0.2, 0.5), Params(gamma=0.5, rho=0.75)),
    (zero_kernel(), Params(gamma=0.0, rho=0.5)),
]


def random_measure(edges, rho, seed):
    """Masses spread over six decades, and a tail."""
    rng = np.random.default_rng(seed)
    n = edges.size - 1
    return GridMeasure(edges, rng.uniform(0.1, 1.0, n) * 10.0 ** rng.uniform(-6.0, 0.0, n), 0.4, rho)


class TestBandOracle:
    """_Engine.rates against the per-pair band operator on random measures."""

    @pytest.mark.parametrize("kernel, params", ORACLE_KERNELS, ids=["constant", "product", "sum", "zero"])
    # each id names the cubic switching profile the case runs
    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1, 0.45], ids=lambda lam: f"{lam}-cubic")
    # 160, 40 and 10 cells on [1e-2, 10]: at lambda = 1e-3 every grid is
    # narrower than the largest deposit offset, at 0.45 every one wider
    @pytest.mark.parametrize("ratio", [RATIO, 2.0**0.25, 2.0], ids=["r16", "r4", "r1"])
    def test_matches_band_operator(self, kernel, params, lam, ratio):
        edges = geometric_grid(1e-2, 10.0, ratio=ratio)
        cut = CutoffParams(lam=lam)
        eng = _Engine(edges, params, kernel, cut)
        for s in (0.0, 0.7):
            m = random_measure(edges, params.rho, seed=round(100 * s))
            got = eng.rates(m.cell_mass, m.tail_amplitude, s)
            want = band_oracle_rates(edges, params, kernel, cut, m.cell_mass, m.tail_amplitude, s)
            assert_rates_close(got, want)


def band_weights(eng):
    """The per-pair half band: T[i, d] is the static weight of cell i with
    partner i + d, d = 0..dmax, each evaluated from its own pair of sizes."""
    N, dmax, Y = eng.N, eng.dmax, eng.Y
    listed = _band(np.ones(eng.Yall.size, dtype=bool), 0, dmax + 1, N)
    # band positions off the partner list get weight zero, and the
    # largest partner size, so that they are never in-grid pairs
    Z = np.where(listed, _band(eng.Yall, 0, dmax + 1, N), eng.Yall[-1])
    T = np.zeros((dmax + N, dmax + 1))[dmax:]
    T[:] = np.where(listed, oracle_ratio_kernel(eng.kernel, eng.cutoff, Y[:, None], Z), 0.0)
    return T


def band_rearrangement_residual(state, psi):
    """rearrangement_residual with its ordered-pair weights read from the
    per-pair half band (band_weights).  Returns (residual, boundary_flux)."""
    m, eng = state.measure, state.engine
    N, dmax = eng.N, eng.dmax
    masses = m.cell_mass
    Lk, v, esc = eng._loss(masses, m.tail_amplitude, state.t)
    Q = eng.rates(masses, m.tail_amplitude, state.t)[1]
    # ordered-pair weights of (i, i + d) with source i (Wa) and i + d (Wb;
    # zero for d = 0, where the two coincide, and for loss-only ghosts)
    TW = band_weights(eng) * _band(v, 0, dmax + 1, N) * (esc * v[:N, None])
    Wa = TW * eng.Y[:, None]
    Wb = TW * _band(eng.Y, 0, dmax + 1, N)
    Wb[:, 0] = 0.0
    W = Wa + Wb
    psi_rep = np.asarray(psi(eng.Y), dtype=float)
    loss_w = float(np.sum(psi_rep * Lk * masses))
    # the stepped deposits; psi is 0 in the overflow bins
    dep_in = float(psi_rep @ Q)
    # collapsed form: sum over ordered pairs of W [psi(P) - psi(source)]
    psi_P = np.asarray(psi(eng.Y[:, None] + _band(eng.Yall, 0, dmax + 1, N)), dtype=float)
    # P >= Y[N - 1], with ties bracketed as the engine brackets them; the
    # engine keeps the brackets of its diagonals with weight, past which
    # the band has none
    L = eng.k.size
    assert not np.any(W[:, L:])
    over = np.arange(N)[:, None] + eng.k >= N - 1
    flux = float(np.sum(W[:, :L][over] * psi_P[:, :L][over]))
    psi_partner = _band(psi_rep, 0, dmax + 1, N)
    collapsed = float(np.sum(W * psi_P - Wa * psi_rep[:, None] - Wb * psi_partner))
    scale = max(float(np.sum(Lk * masses)), 1e-300)
    residual = abs(dep_in + flux - loss_w - collapsed) / scale
    return residual, flux


def assert_residuals_match(state, cut_at):
    """rearrangement_residual against band_rearrangement_residual for
    psi = 1, psi = x and the indicator of [0, cut_at], which straddles a
    deposit: the flux within 1e-12 relative, a residual at noise level at
    most 1e-12, and the indicator's real defect within 1e-9 relative."""

    def ind(x):
        return (np.asarray(x, float) <= cut_at).astype(float)

    for psi in (np.ones_like, lambda x: np.asarray(x, float), ind):
        got, want = rearrangement_residual(state, psi), band_rearrangement_residual(state, psi)
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)
        if psi is ind:
            assert want[0] >= 1e-6
            assert got[0] == pytest.approx(want[0], rel=1e-9)
        else:
            assert want[0] <= 1e-12 and got[0] <= 1e-12


class TestRearrangementOracle:
    """rearrangement_residual against a copy of its per-pair half-band form."""

    @pytest.mark.parametrize("kernel, params", ORACLE_KERNELS[:3], ids=["constant", "product", "sum"])
    @pytest.mark.parametrize("lam", [1e-3, 0.1])
    @pytest.mark.parametrize("s", [0.0, 0.7])
    def test_matches_half_band(self, kernel, params, lam, s):
        edges = geometric_grid(1e-2, 10.0, ratio=RATIO)
        m = random_measure(edges, params.rho, seed=round(100 * (lam + s)))
        st_ = EvolutionState(m, s, params, kernel, CutoffParams(lam=lam))
        # midway between two representatives near the top, which the
        # sums of active pairs reach at every lambda and s here
        reps = midpoints(m)
        k = 9 * reps.size // 10
        assert_residuals_match(st_, 0.5 * (reps[k] + reps[k + 1]))

    @NEAR_GEOMETRIC_KERNELS
    def test_near_geometric_grid(self, kernel, params):
        st_ = near_geometric_state(kernel, params)
        reps = midpoints(st_.measure)
        k = 9 * reps.size // 10
        assert_residuals_match(st_, 0.5 * (reps[k] + reps[k + 1]))


def index_bracket_oracle(m, params, kernel, cutoff, s, per_octave):
    """Ordered-pair double loop on a grid of per_octave cells per octave,
    with each sum P = Y_i + Y_j bracketed by index arithmetic: 2 Y_i is
    exactly Y_(i + per_octave), a tie that takes the upper bracket (f = 1),
    and for i != j the offset from the smaller index is the integer part of
    per_octave log2(1 + 2^(|i - j| / per_octave)).  Returns the tuple of
    _Engine.rates."""
    Y = midpoints(m)
    N = Y.size
    _, Yp, gpow = _partners(m.edges, params.rho, cutoff.lam)
    mp = np.concatenate([m.cell_mass, m.tail_amplitude * gpow])
    lam_eff = cutoff.lam * np.exp(params.beta * s)
    esc = np.exp(-params.gamma * params.beta * s)
    Lk, Q = np.zeros(N), np.zeros(N)
    over = over_mom = 0.0
    for i in range(N):
        K = esc * oracle_ratio_kernel(kernel, cutoff, Y[i], Yp) * eval_cutoff(Yp / lam_eff)
        rate = K * eval_cutoff(Y[i] / lam_eff) * mp / Yp
        Lk[i] = np.sum(rate)
        for j in range(Yp.size):
            w, P = rate[j] * m.cell_mass[i], Y[i] + Yp[j]
            d = abs(i - j)
            x = per_octave * np.log2(1.0 + 2.0 ** (d / per_octave))
            assert d == 0 or 1e-9 < x % 1.0 < 1.0 - 1e-9  # the only tie is d = 0
            lo = min(i, j) + (per_octave if d == 0 else int(x))
            if j >= N or lo >= N - 1:
                over, over_mom = over + w, over_mom + w * P
                continue
            f = 1.0 if d == 0 else (Y[lo + 1] - P) / (Y[lo + 1] - Y[lo])
            Q[lo] += w * f
            Q[lo + 1] += w * (1.0 - f)
    loss_total = float(np.sum(Lk * m.cell_mass))
    resid = abs(loss_total - float(np.sum(Q)) - over) / max(loss_total, 1e-300)
    return Lk - params.beta * params.rho, Q, over, over_mom, resid


class TestTieGrids:
    """On 2^(1/n) grids the self pair sums exactly to a representative."""

    @pytest.mark.parametrize("kernel, params", ORACLE_KERNELS[:3], ids=["constant", "product", "sum"])
    @pytest.mark.parametrize("lam", [1e-3, 0.1])
    @pytest.mark.parametrize("per_octave", [2, 8])
    def test_matches_index_brackets(self, kernel, params, lam, per_octave):
        edges = geometric_grid(1e-2, 10.0, ratio=2.0 ** (1.0 / per_octave))
        cut = CutoffParams(lam=lam)
        eng = _Engine(edges, params, kernel, cut)
        for s in (0.0, 0.7):
            m = random_measure(edges, params.rho, seed=round(10 * s) + per_octave)
            got = eng.rates(m.cell_mass, m.tail_amplitude, s)
            assert_rates_close(got, index_bracket_oracle(m, params, kernel, cut, s, per_octave))


class TestEngineBuild:
    @pytest.mark.parametrize("kernel", [constant_kernel(1.0), zero_kernel(), product_kernel(0.25)])
    def test_kernel_degree_must_match_params(self, kernel):
        # e^(-gamma beta s) rescales the kernel with params.gamma, so a
        # kernel of another degree would evolve silently wrong
        params = Params(gamma=0.5, rho=0.75)
        with pytest.raises(ValueError, match="kernel.gamma"):
            _Engine(geometric_grid(1e-2, 1e2), params, kernel, CUT)
        with pytest.raises(ValueError, match="kernel.gamma"):
            simulate(power_law_init(params, geometric_grid(1e-2, 1e2)), params, kernel, CUT, 0.1)

    def test_equal_inputs_give_identical_rates(self):
        eng = _Engine(geometric_grid(), PARAMS, constant_kernel(1.0), CUT)
        m = power_law_init(PARAMS, EDGES)
        first = eng.rates(m.cell_mass.copy(), m.tail_amplitude, 0.3)
        second = eng.rates(m.cell_mass.copy(), m.tail_amplitude, 0.3)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_consumers_cache_nothing_on_the_engine(self, monkeypatch):
        # the stepper, the diagnostics and the dual read the engine's
        # per-diagonal vectors and keep no table of their own on it
        keys = []
        init = forward._Engine.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            keys.append(set(vars(self)))

        monkeypatch.setattr(forward._Engine, "__init__", recording_init)
        params = Params(gamma=0.0, rho=0.5)
        h0 = power_law_init(params, geometric_grid(1e-3, 1e4))
        traj = rescaled_trajectory(h0, params, constant_kernel(1.0), CutoffParams(lam=1e-2), 0.25)
        eng = traj.engine
        eng.rates(h0.cell_mass, h0.tail_amplitude, 0.1)
        rearrangement_residual(traj.state(0), np.ones_like)
        rearrangement_residual(traj.state(0), lambda x: np.asarray(x, float))
        solve_dual(traj, 10.0, 0.25)
        assert keys == [set(vars(eng))]

    def test_rates_leave_the_half_band_unbuilt(self):
        # rates steps on the per-diagonal vectors and builds no per-pair
        # half band, on the engine or lazily behind it
        eng = _Engine(geometric_grid(), PARAMS, constant_kernel(1.0), CUT)
        before = set(vars(eng))
        m = power_law_init(PARAMS, EDGES)
        eng.rates(m.cell_mass, m.tail_amplitude, 0.0)
        assert "T" not in vars(eng) and not hasattr(eng, "T")
        assert set(vars(eng)) == before


class TestStepperCarry:
    """The step size carries across _Stepper.run calls."""

    def spans(self, stepper_for, n=10, span=0.05):
        # consecutive spans of one frame; the stepper is asked for per span
        h0 = power_law_init(PARAMS, EDGES)
        grow = PARAMS.beta * PARAMS.rho
        masses = h0.cell_mass.copy()
        for k in range(n):
            amp = h0.tail_amplitude * np.exp(grow * k * span)
            masses = stepper_for(k).run(masses, amp, k * span, (k + 1) * span)
        return masses

    def test_shared_stepper_rejects_fewer_trials(self):
        eng = _Engine(geometric_grid(), PARAMS, constant_kernel(1.0), CUT)
        shared = _Stepper(eng)
        self.spans(lambda k: shared)
        fresh = [_Stepper(eng) for _ in range(10)]
        self.spans(lambda k: fresh[k])
        assert shared.n_retries < sum(st.n_retries for st in fresh)

    def test_cut_step_leaves_uncut_proposal(self):
        eng = _Engine(geometric_grid(), PARAMS, constant_kernel(1.0), CUT)
        st = _Stepper(eng)
        h0 = power_law_init(PARAMS, EDGES)
        log = []
        st.run(h0.cell_mass.copy(), h0.tail_amplitude, 0.0, 0.3,
               record=lambda s, m: log.append((s, m.copy(), st.n_retries)))
        (s_a, m_a, _), (s_b, m_b, n_b), (s_c, _, n_c) = log[-3:]
        last = 0.3 - s_b
        assert s_c == pytest.approx(0.3) and n_c == n_b  # no rejected trial on the last step
        # the proposal after the step from s_a to s_b, scaled by its change
        scale = np.maximum(m_a, st.mass_floor_frac * float(np.sum(m_a)))
        change = float(np.max(np.abs(m_b - m_a) / scale))
        proposal = (s_b - s_a) * min(1.2, 0.9 * st.max_change / change)
        A = eng.rates(m_b, h0.tail_amplitude * np.exp(PARAMS.beta * PARAMS.rho * s_b), s_b)[0]
        cap = 0.5 / float(np.max(np.abs(A)))
        assert min(proposal, cap) > 1.01 * last  # the last step was cut short
        assert st.dt == pytest.approx(proposal, rel=1e-12)

    def test_fresh_run_rejects_few_trials(self):
        # proposals from the measured change: few trials fail, and every
        # accepted step keeps within the change cap
        eng = _Engine(geometric_grid(), PARAMS, constant_kernel(1.0), CUT)
        st = _Stepper(eng)
        h0 = power_law_init(PARAMS, EDGES)
        log = [h0.cell_mass.copy()]
        st.run(h0.cell_mass.copy(), h0.tail_amplitude, 0.0, 1.0,
               record=lambda s, m: log.append(m.copy()))
        assert st.n_retries < 6
        for m0, m1 in zip(log, log[1:]):
            scale = np.maximum(m0, st.mass_floor_frac * float(np.sum(m0)))
            assert float(np.max(np.abs(m1 - m0) / scale)) <= st.max_change

    def test_zero_kernel_steps_are_exact_drift(self):
        # K = 0: A = -beta rho and Q = 0, so every exponential update is
        # exact and the controller only chooses the step sizes
        eng = _Engine(geometric_grid(), PARAMS, zero_kernel(), CUT)
        st = _Stepper(eng)
        h0 = power_law_init(PARAMS, EDGES)
        s0, s1 = 0.2, 1.0
        amp = h0.tail_amplitude * np.exp(PARAMS.beta * PARAMS.rho * s0)
        log = [h0.cell_mass.copy()]
        out = st.run(h0.cell_mass.copy(), amp, s0, s1, record=lambda s, m: log.append(m.copy()))
        growth = np.exp(PARAMS.beta * PARAMS.rho * (s1 - s0))
        np.testing.assert_allclose(out, h0.cell_mass * growth, rtol=1e-13, atol=0.0)
        assert st.n_steps == len(log) - 1 > 1
        for m0, m1 in zip(log, log[1:]):
            scale = np.maximum(m0, st.mass_floor_frac * float(np.sum(m0)))
            assert float(np.max(np.abs(m1 - m0) / scale)) <= st.max_change
        assert st.max_pairing_residual == 0.0
        assert st.sink_mass == 0.0 and st.sink_moment == 0.0


class OracleStepper(_Stepper):
    """_Stepper with its own copy of the exponential-Heun step loop."""

    def run(self, masses, amp, s0, s1, record=None):
        eng = self.engine
        s = s0
        dt = self.dt
        grow = eng.params.beta * eng.params.rho
        while s < s1 - 1e-14 * max(1.0, abs(s1)):
            A, Q, sink_r, sink_mom_r, resid = eng.rates(
                masses, amp * np.exp(grow * (s - s0)), s
            )
            self.max_pairing_residual = max(self.max_pairing_residual, resid)
            a_max = float(np.max(np.abs(A)))
            cap = 0.5 / a_max if a_max > 0.0 else np.inf
            h = min(cap if dt is None else min(dt, cap), s1 - s)
            cut = h == s1 - s
            floor = self.mass_floor_frac * max(float(np.sum(masses)), 1e-300)
            for attempt in range(60):
                pred = _exp_update(masses, A, Q, h)
                A2, Q2, sink_r2, sink_mom_r2, resid2 = eng.rates(
                    pred, amp * np.exp(grow * (s + h - s0)), s + h
                )
                trial = _exp_update(masses, 0.5 * (A + A2), 0.5 * (Q + Q2), h)
                scale = np.maximum(masses, floor)
                change = float(np.max(np.abs(trial - masses) / scale))
                if change <= self.max_change:
                    break
                h *= 0.5
                cut = False
                self.n_retries += 1
            else:
                raise IntegrationError(
                    f"step size collapsed at s={s:.6g} (change={change:.3g}, dt={h:.3g})"
                )
            if not cut:
                dt = h * min(1.2, 0.9 * self.max_change / max(change, 1e-300))
            self.max_pairing_residual = max(self.max_pairing_residual, resid2)
            masses = trial
            self.sink_mass += h * 0.5 * (sink_r + sink_r2)
            self.sink_moment += h * 0.5 * (sink_mom_r + sink_mom_r2)
            s += h
            self.n_steps += 1
            if record is not None:
                record(s, masses)
        self.dt = dt
        return masses


class TestStepperOracle:
    """_Stepper against its own step loop, bit for bit, on the acceptance grid."""

    @pytest.mark.parametrize(
        "kernel, params",
        [
            (constant_kernel(1.0), PARAMS),
            (product_kernel(0.5), Params(gamma=0.5, rho=0.75)),
            (sum_kernel(0.2, 0.5), Params(gamma=0.5, rho=0.75)),
            (zero_kernel(), PARAMS),
        ],
        ids=["constant", "product", "sum", "zero"],
    )
    @pytest.mark.parametrize("max_change", [0.05, 0.01])
    def test_matches_own_loop(self, kernel, params, max_change):
        eng = _Engine(geometric_grid(), params, kernel, CUT)
        h0 = power_law_init(params, EDGES)
        grow = params.beta * params.rho
        out = []
        for cls in (_Stepper, OracleStepper):
            st = cls(eng, max_change=max_change)
            log = []
            masses = h0.cell_mass.copy()
            # the second span starts from the proposal the first one carried
            for s0, s1 in ((0.0, 0.2), (0.2, 0.5)):
                masses = st.run(masses, h0.tail_amplitude * np.exp(grow * s0), s0, s1,
                                record=lambda s, m: log.append((s, m.copy())))
            out.append((st, masses, log))
        (got, m_got, log_got), (want, m_want, log_want) = out
        np.testing.assert_array_equal(m_got, m_want)
        assert [s for s, _ in log_got] == [s for s, _ in log_want]
        for (_, a), (_, b) in zip(log_got, log_want):
            np.testing.assert_array_equal(a, b)
        for name in ("dt", "n_steps", "n_retries", "sink_mass", "sink_moment",
                     "max_pairing_residual"):
            assert getattr(got, name) == getattr(want, name), name
        if kernel.family != "zero":
            assert want.n_retries > 0 and want.sink_mass > 0.0  # both paths run


class TestExpUpdate:
    def test_zero_rate_is_euler(self):
        m = np.array([1.0, 2.0])
        out = _exp_update(m, np.zeros(2), np.array([3.0, 0.5]), 0.25)
        np.testing.assert_allclose(out, m + 0.25 * np.array([3.0, 0.5]), rtol=1e-15)

    def test_series_branch_matches_exact(self):
        m = np.array([1.0])
        q = np.array([0.7])
        a_small = np.array([1e-9])
        a_big = np.array([1e-7])
        out_small = _exp_update(m, a_small, q, 1.0)
        out_big = _exp_update(m, a_big, q, 1.0)
        assert out_small[0] == pytest.approx(out_big[0], rel=1e-7)

    @given(
        m=st.floats(min_value=0.0, max_value=1e6),
        a=st.floats(min_value=-50.0, max_value=50.0),
        q=st.floats(min_value=0.0, max_value=1e6),
        dt=st.floats(min_value=1e-12, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_positivity(self, m, a, q, dt):
        out = _exp_update(np.array([m]), np.array([a]), np.array([q]), dt)
        assert out[0] >= 0.0 and np.isfinite(out[0])


class TestMapBack:
    def test_zero_shift_identity(self):
        edges = geometric_grid(1.0, 100.0, ratio=RATIO)
        rng = np.random.default_rng(2)
        mass = rng.uniform(0.0, 1.0, edges.size - 1)
        out, spill = _map_back(mass, 0.7, edges, 0.0, 0.5)
        np.testing.assert_allclose(out, mass, rtol=1e-15)
        assert spill == 0.0

    def test_integer_shift_is_index_shift(self):
        edges = geometric_grid(1.0, 2.0 ** (64.0 / 16.0), ratio=RATIO)
        rng = np.random.default_rng(4)
        mass = rng.uniform(0.0, 1.0, edges.size - 1)
        km = 5
        sigma = km * np.log(RATIO)
        out, spill = _map_back(mass, 0.0, edges, sigma, 0.5)
        scale = np.exp(-sigma)
        np.testing.assert_allclose(out[: mass.size - km], mass[km:] * scale, rtol=1e-14)
        np.testing.assert_allclose(out[mass.size - km :], 0.0, atol=0.0)
        assert spill == pytest.approx(scale * mass[:km].sum(), rel=1e-14)

    @pytest.mark.parametrize("sigma", [0.1, np.log(2.0), 0.83, 2.5])
    def test_pure_power_is_exactly_transported(self, sigma):
        # a pure power datum maps to the scaled pure power datum, including
        # the fractional two-cell split and the bottom spill
        rho = 0.6
        edges = geometric_grid(1e-2, 1e4, ratio=RATIO)
        amp0 = 0.4
        mass = amp0 * np.diff(edges ** (1.0 - rho)) / (1.0 - rho)
        out, spill = _map_back(mass, amp0, edges, sigma, rho)
        expected_amp = amp0 * np.exp(-rho * sigma)
        expected_mass = expected_amp * np.diff(edges ** (1.0 - rho)) / (1.0 - rho)
        np.testing.assert_allclose(out, expected_mass, rtol=1e-11)
        lo = edges[0]
        expected_spill = (
            np.exp(-sigma)
            * amp0
            * ((lo * np.exp(sigma)) ** (1.0 - rho) - lo ** (1.0 - rho))
            / (1.0 - rho)
        )
        assert spill == pytest.approx(expected_spill, rel=1e-11)

    @pytest.mark.parametrize("rho", [0.5, 0.75])
    @pytest.mark.parametrize("km", [0, 1, 16, 40])
    def test_whole_cell_shift_matches_index_shift_oracle(self, km, rho):
        # at sigma = k ln r the two-cell split weight is exactly 0, so the
        # general formula is the plain index shift, bit for bit
        edges = geometric_grid(1e-2, 1e2, ratio=RATIO)
        rng = np.random.default_rng(km)
        mass = rng.uniform(0.0, 1.0, edges.size - 1)
        sigma = km * np.log(RATIO)
        got = _map_back(mass, 0.3, edges, sigma, rho)
        want = oracle_index_shift_map_back(mass, 0.3, edges, sigma, rho)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert (got[1] > 0.0) == (km > 0)


def oracle_index_shift_map_back(masses, amp, edges, sigma, rho):
    """_map_back at a whole number of cells: an index shift of the masses
    continued by the tail cells, the cells shifted below the grid spilled."""
    n = masses.size
    r = edges[1] / edges[0]
    km = int(np.floor(sigma / np.log(r) + 1e-12))
    gedges = edges[-1] * r ** np.arange(km + 3)
    ext = np.concatenate([masses, amp * np.diff(gedges ** (1.0 - rho)) / (1.0 - rho)])
    scale = np.exp(-sigma)
    return ext[km : km + n] * scale, float(np.sum(ext[:km])) * scale


class TestSimulate:
    def test_t_zero_identity(self):
        h0 = power_law_init(PARAMS, EDGES)
        res = simulate(h0, PARAMS, constant_kernel(1.0), CUT, 0.0)
        np.testing.assert_allclose(res.final.cell_mass, h0.cell_mass, rtol=0.0)
        assert res.final.tail_amplitude == h0.tail_amplitude
        assert res.n_steps == 0

    def test_tail_amplitude_is_the_datum_bit_for_bit(self):
        # the physical tail amplitude is a boundary condition, so no
        # frame's round trip through the X frame may round it
        edges = geometric_grid(1e-4, 1e8, ratio=2.0 ** (1.0 / 8.0))
        h0 = power_law_init(PARAMS, edges)
        snaps = np.linspace(0.1, 3.0, 30)
        res = simulate(h0, PARAMS, constant_kernel(1.0), CutoffParams(lam=1e-2), 3.0, snapshot_times=snaps)
        assert len(res.snapshots) == 30
        assert [m.tail_amplitude for m in res.snapshots] == [h0.tail_amplitude] * 30

    def test_zero_kernel_closed_form(self):
        # transported datum: h(x, t) = e^(rho beta t) h0(x e^(beta t));
        # compare cumulatives above the defect onset and below the region
        # influenced by the top boundary
        h0 = power_law_init(PARAMS, EDGES)
        res = simulate(h0, PARAMS, zero_kernel(), CUT, 1.0, snapshot_times=(0.5, 1.0))
        for t, snap in zip(res.times, res.snapshots):
            onset = PARAMS.R0 * np.exp(-PARAMS.beta * t)
            Rs = np.logspace(np.log10(2.0 * onset), 6.0, 50)
            lhs = np.array([cumulative_mass(snap, R) for R in Rs])
            rhs = np.exp(-PARAMS.beta * (1.0 - PARAMS.rho) * t) * np.array(
                [cumulative_mass(h0, R * np.exp(PARAMS.beta * t)) for R in Rs]
            )
            assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-3

    def test_zero_kernel_preserves_tail_amplitude(self):
        h0 = power_law_init(PARAMS, EDGES)
        res = simulate(h0, PARAMS, zero_kernel(), CUT, 2.0)
        assert res.final.tail_amplitude == pytest.approx(1.0 - PARAMS.rho, rel=1e-12)

    def test_zero_kernel_reaches_fixed_point(self):
        # once the datum's defect has advected out, cells are exactly the
        # pure power values
        h0 = power_law_init(PARAMS, EDGES)
        res = simulate(h0, PARAMS, zero_kernel(), CUT, 30.0)
        target = np.diff(res.final.edges ** (1.0 - PARAMS.rho))
        np.testing.assert_allclose(res.final.cell_mass, target, rtol=1e-12)

    def test_zero_data_stays_zero(self):
        edges = geometric_grid()
        z = GridMeasure(edges, np.zeros(edges.size - 1), 0.0, PARAMS.rho)
        res = simulate(z, PARAMS, constant_kernel(1.0), CUT, 0.3)
        assert np.sum(res.final.cell_mass) == 0.0
        assert res.origin_mass == 0.0 and res.overflow_mass == 0.0

    def test_origin_ledger_single_frame(self):
        # pure power datum, zero kernel, exactly one frame: the spill is
        # the grown bottom cells
        params = Params(gamma=0.0, rho=0.5, R0=1e-5)
        h0 = power_law_init(params, EDGES)
        T = 16.0 * np.log(RATIO) / params.beta
        res = simulate(h0, params, zero_kernel(), CUT, T)
        sigma = params.beta * T
        grown = h0.cell_mass * np.exp(params.beta * params.rho * T)
        expected = np.exp(-sigma) * grown[:16].sum()
        assert res.origin_mass == pytest.approx(expected, rel=1e-12)

    def test_constant_kernel_diagnostics(self):
        h0 = power_law_init(PARAMS, EDGES)
        res = simulate(h0, PARAMS, constant_kernel(1.0), CUT, 0.5)
        assert res.max_pairing_residual <= 1e-12
        assert np.all(res.final.cell_mass >= 0.0)
        assert res.overflow_mass > 0.0
        # overflow deposits sit beyond the top representative
        top_rep = midpoints(res.final)[-1]
        assert res.overflow_moment >= res.overflow_mass * top_rep

    def test_product_kernel_runs_clean(self):
        params = Params(gamma=0.5, rho=0.75)
        cut = CutoffParams(lam=1e-3)
        h0 = power_law_init(params, EDGES)
        res = simulate(h0, params, product_kernel(0.5), cut, 0.5)
        assert res.max_pairing_residual <= 1e-12
        assert np.all(res.final.cell_mass >= 0.0)

    def test_semigroup_property(self):
        h0 = power_law_init(PARAMS, EDGES)
        ker = constant_kernel(1.0)
        one = simulate(h0, PARAMS, ker, CUT, 0.25, max_change=0.02)
        two = simulate(one.final, PARAMS, ker, CUT, 0.25, max_change=0.02)
        direct = simulate(h0, PARAMS, ker, CUT, 0.5, max_change=0.02)
        assert xrho_dist(two.final, direct.final) <= 0.05

    def test_rejects_mismatched_exponent(self):
        edges = geometric_grid()
        m = GridMeasure(edges, np.zeros(edges.size - 1), 0.0, 0.3)
        with pytest.raises(ValueError):
            simulate(m, PARAMS, zero_kernel(), CUT, 1.0)

    @pytest.mark.parametrize(
        "change",
        [
            {"kernel": constant_kernel(5.0)},
            {"cutoff": CutoffParams(lam=0.1)},
            {"params": Params(gamma=0.0, rho=0.5, delta=0.1, R0=10.0)},
            {"edges": geometric_grid(1e-2, 1e3, 2.0 ** 0.25)},
        ],
        ids=["kernel", "cutoff", "params", "grid"],
    )
    def test_engine_must_match_its_arguments(self, change):
        # the engine steps with its own kernel, cutoff, params and grid, so
        # arguments that differ would be ignored without a word
        edges = geometric_grid(1e-2, 1e2, 2.0 ** 0.25)
        ker = constant_kernel(1.0)
        eng = _Engine(edges, PARAMS, ker, CUT)
        args = {"params": PARAMS, "kernel": ker, "cutoff": CUT, "edges": edges, **change}
        h0 = power_law_init(args["params"], args["edges"])
        with pytest.raises(ValueError, match="engine"):
            simulate(h0, args["params"], args["kernel"], args["cutoff"], 0.1, engine=eng)
        assert eng.rates_calls == 0
        h0 = power_law_init(PARAMS, edges)
        same = simulate(h0, PARAMS, ker, CUT, 0.1, engine=eng)
        own = simulate(h0, PARAMS, ker, CUT, 0.1)
        assert same.n_steps == own.n_steps > 0
        assert np.array_equal(same.final.cell_mass, own.final.cell_mass)

    @pytest.mark.parametrize("t_final", [np.inf, np.nan])
    def test_rejects_non_finite_t_final(self, monkeypatch, t_final):
        # an infinite run would step for ever: refused before any step
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(_Stepper, "run", no_step)
        edges = geometric_grid(1e-2, 1e2, 2.0 ** 0.25)
        with pytest.raises(ValueError, match="t_final"):
            simulate(power_law_init(PARAMS, edges), PARAMS, constant_kernel(1.0), CUT, t_final)


class TestTrajectory:
    def test_records_every_step(self):
        h0 = power_law_init(PARAMS, EDGES)
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.3)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.3, abs=1e-12)
        assert traj.masses.shape == (traj.times.size, h0.n_cells)
        assert traj.diagnostics["n_steps"] == traj.times.size - 1
        assert traj.diagnostics["max_pairing_residual"] <= 1e-12
        assert traj.diagnostics["max_change"] == 0.02

    def test_stores_each_accepted_steps_prediction(self, monkeypatch):
        # the exponential updates alternate predictor and corrector; the
        # predictor of each accepted trial is stored, bit for bit, and a
        # rejected trial's is not
        updates = []

        def logging_update(masses, A, Q, dt):
            updates.append(_exp_update(masses, A, Q, dt))
            return updates[-1]

        monkeypatch.setattr(forward, "_exp_update", logging_update)
        h0 = power_law_init(PARAMS, EDGES)
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.3, max_change=0.05)
        n = traj.diagnostics["n_steps"]
        assert traj.preds.shape == (n, h0.n_cells) and traj.diagnostics["n_retries"] > 0
        k = 0
        for pred, trial in zip(updates[::2], updates[1::2]):
            if k < n and np.array_equal(trial, traj.masses[k + 1]):
                np.testing.assert_array_equal(traj.preds[k], pred)
                k += 1
        assert k == n and len(updates) == 2 * (n + traj.diagnostics["n_retries"])
        assert rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.0).preds.shape == (0, h0.n_cells)

    @pytest.mark.parametrize("mc", [0.0, -1.0, 1.0])
    def test_rejects_change_cap_outside_unit_interval(self, mc):
        # a zero cap would accept zero-length steps for ever; the stepper
        # refuses it before stepping
        h0 = power_law_init(PARAMS, EDGES)
        with pytest.raises(ValueError, match="max_change"):
            rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.3, max_change=mc)
        with pytest.raises(ValueError, match="max_change"):
            simulate(h0, PARAMS, constant_kernel(1.0), CUT, 0.3, max_change=mc)

    def test_index_endpoints_and_bounds(self):
        # the stored steps are read at stored times alone: both ends, to
        # within 1e-12, and no time between steps or past the run
        h0 = power_law_init(PARAMS, EDGES)
        traj = rescaled_trajectory(h0, PARAMS, zero_kernel(), CUT, 0.4)
        assert traj.index(0.0) == 0 and traj.index(0.4 + 5e-13) == traj.times.size - 1
        np.testing.assert_array_equal(traj.masses[traj.index(0.0)], h0.cell_mass)
        for t in (0.5, -0.1, 0.5 * (traj.times[1] + traj.times[2]), np.nan):
            with pytest.raises(ValueError, match="trajectory does not cover"):
                traj.index(t)

    def test_index_on_one_stored_state(self):
        # a trajectory to t = 0 holds the datum alone
        h0 = power_law_init(PARAMS, EDGES)
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.0)
        assert traj.times.size == 1 and traj.index(0.0) == 0
        np.testing.assert_array_equal(traj.masses[0], h0.cell_mass)
        assert traj.amps[0] == h0.tail_amplitude
        with pytest.raises(ValueError):
            traj.index(0.1)

    @pytest.mark.parametrize("t_final", [0.0, 0.3])
    @pytest.mark.parametrize("case", ["constant", "product", "zero"])
    def test_first_stored_state_is_the_datum(self, case, t_final):
        # the dual checks read the datum back from the trajectory, so it
        # must be the datum the run was given, bit for bit
        params, kernel = {
            "constant": (PARAMS, constant_kernel(1.0)),
            "product": (Params(gamma=0.5, rho=0.75), product_kernel(0.5)),
            "zero": (PARAMS, zero_kernel()),
        }[case]
        h0 = power_law_init(params, geometric_grid(1e-3, 1e6, 2.0**0.25))
        got = rescaled_trajectory(h0, params, kernel, CUT, t_final).measure_at(0)
        assert got.edges.tobytes() == h0.edges.tobytes()
        assert got.cell_mass.tobytes() == h0.cell_mass.tobytes()
        assert np.float64(got.tail_amplitude).tobytes() == np.float64(h0.tail_amplitude).tobytes()
        assert np.float64(got.tail_exponent).tobytes() == np.float64(h0.tail_exponent).tobytes()

    def test_zero_kernel_growth_between_snapshots(self):
        h0 = power_law_init(PARAMS, EDGES)
        traj = rescaled_trajectory(h0, PARAMS, zero_kernel(), CUT, 0.4)
        k = traj.times.size // 2
        growth = np.exp(PARAMS.beta * PARAMS.rho * traj.times[k])
        np.testing.assert_allclose(traj.masses[k], h0.cell_mass * growth, rtol=1e-12)


class TestGronwall:
    def test_zero_kernel_touches_bound(self):
        # pure drift grows the norm at exactly the admissible rate
        h0 = power_law_init(PARAMS, EDGES)
        traj = rescaled_trajectory(h0, PARAMS, zero_kernel(), CUT, 0.8)
        rep = gronwall_check(traj)
        assert rep.ok
        assert rep.worst_ratio == pytest.approx(1.0, abs=1e-10)

    def test_constant_kernel_holds(self):
        h0 = power_law_init(PARAMS, EDGES)
        traj = rescaled_trajectory(h0, PARAMS, constant_kernel(1.0), CUT, 0.5)
        rep = gronwall_check(traj, tol=1e-2)
        assert rep.ok
        assert rep.worst_ratio <= 1.0 + 1e-2

    def test_report_holds_python_floats(self):
        traj = rescaled_trajectory(power_law_init(PARAMS, EDGES), PARAMS, zero_kernel(), CUT, 0.2)
        rep = gronwall_check(traj)
        assert all(type(v) is float for v in (rep.worst_ratio, rep.t_at, rep.tol))
        assert type(rep.ok) is bool

    def test_zero_data_trivial(self):
        edges = geometric_grid()
        z = GridMeasure(edges, np.zeros(edges.size - 1), 0.0, PARAMS.rho)
        traj = rescaled_trajectory(z, PARAMS, constant_kernel(1.0), CUT, 0.2)
        assert gronwall_check(traj).ok


def oracle_gronwall_check(trajectory, tol=1e-2):
    """gronwall_check one stored step at a time, through xrho_norm."""
    p = trajectory.params
    worst, t_at = -np.inf, np.nan
    for k in range(trajectory.times.size):
        t = float(trajectory.times[k])
        bound = np.exp(p.beta * p.rho * t)
        ratio = xrho_norm(trajectory.measure_at(k)) / bound
        if ratio > worst:
            worst, t_at = ratio, t
    return GronwallReport(ok=worst <= 1.0 + tol, worst_ratio=worst, t_at=t_at, tol=tol)


class TestGronwallOracle:
    """The norm-growth check against its per-step loop, bit for bit."""

    @pytest.fixture(scope="class", params=["constant", "product", "zero", "empty"])
    def traj(self, request):
        edges = geometric_grid(1e-3, 1e6, 2.0**0.25)
        if request.param == "product":
            params = Params(gamma=0.5, rho=0.75)
            return rescaled_trajectory(power_law_init(params, edges), params, product_kernel(0.5), CUT, 0.5)
        h0 = power_law_init(PARAMS, edges)
        if request.param == "empty":
            h0 = GridMeasure(edges, np.zeros(edges.size - 1), 0.0, PARAMS.rho)
        kernel = zero_kernel() if request.param == "zero" else constant_kernel(2.0)
        return rescaled_trajectory(h0, PARAMS, kernel, CUT, 0.5)

    @pytest.mark.parametrize("tol", [1e-2, 0.0, -1e-3])
    def test_matches_per_step_loop(self, traj, tol):
        assert gronwall_check(traj, tol=tol) == oracle_gronwall_check(traj, tol=tol)
