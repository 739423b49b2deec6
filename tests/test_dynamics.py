import numpy as np
import pytest

import sismob.cli as cli
import sismob.dynamics as dynamics
from conftest import count_calls, random_endemic_instance, random_irreducible_generator
from sismob.dynamics import LimitResult, ModelState, Trajectory, integrate, limit_state, rhs
from sismob.equilibria import endemic_fixed_point
from sismob.errors import NumericalError
from sismob.mobility import (
    GRAPH_KINDS,
    PopulationDistribution,
    generator_from_rates,
    make_graph,
    out_edges,
    stationary_distribution,
    uniform_out_rates,
    validate_generator,
)
from sismob.spectral import EpidemicParams, Mobility, analyze


def single_region():
    return validate_generator([[0.0]])


def state_of(p, x):
    return ModelState(p=np.asarray(p, dtype=float),
                      x=PopulationDistribution(x=np.asarray(x, dtype=float)))


def logistic(t, beta=0.3, delta=0.1, p0=0.01):
    k = 1.0 - delta / beta
    r = beta - delta
    return k / (1.0 + (k / p0 - 1.0) * np.exp(-r * t))


DETERMINISTIC_FIGURES = [name for name in cli.FIGURES
                         if cli.load_figure(name).mode == "deterministic"]
NOT_POSITIVE = [0.0, -0.1, float("nan"), float("inf")]


def figure_run(name):
    """(config, initial state, params, generator) of a bundled figure."""
    cfg = cli.load_figure(name)
    a = analyze(cfg.params, Mobility(cfg.generator))
    return cfg, ModelState(p=cfg.p0, x=cfg.x0 or a.mobility.v), a.params, a.mobility.g


def reference_step(p, x, t, dt, qt, bd, beta, dt_safe):
    """One RK4 step with p and x stepped together and nothing reused: the
    reference that integrate and limit_state must match bit for bit."""
    checked = dt_safe is not None
    k1p, k1x = dynamics._rhs(p, x, qt, bd, beta)
    x2 = x + (0.5 * dt) * k1x
    if checked:
        dynamics._check_stage(x2, t, dt, dt_safe)
    k2p, k2x = dynamics._rhs(p + (0.5 * dt) * k1p, x2, qt, bd, beta)
    x3 = x + (0.5 * dt) * k2x
    if checked:
        dynamics._check_stage(x3, t, dt, dt_safe)
    k3p, k3x = dynamics._rhs(p + (0.5 * dt) * k2p, x3, qt, bd, beta)
    x4 = x + dt * k3x
    if checked:
        dynamics._check_stage(x4, t, dt, dt_safe)
    k4p, k4x = dynamics._rhs(p + dt * k3p, x4, qt, bd, beta)
    p_new = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    x_new = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    if checked:
        dynamics._check_stage(x_new, t, dt, dt_safe)
    return p_new, x_new


def reference_setup(params, g, dt):
    return (dynamics._transpose(g), params.beta - params.delta, params.beta,
            dynamics._positive_step_limit(g, dt))


def reference_integrate(initial, params, g, t_end, dt):
    """(p, x) after every step of integrate(..., output_stride=1), taken
    with reference_step, and the full step that first leaves x unchanged
    (None when none does)."""
    qt, bd, beta, dt_safe = reference_setup(params, g, dt)
    n_full = int(np.floor(t_end / dt + 1e-9))
    rem = t_end - n_full * dt
    sizes = [dt] * n_full + ([rem] if rem > 1e-12 * max(1.0, t_end) else [])
    p, x = initial.p, initial.x.x
    ps, xs, fixed_at = [p], [x], None
    with np.errstate(over="ignore", invalid="ignore"):
        for k, h in enumerate(sizes):
            p, x_new = reference_step(p, x, k * dt, h, qt, bd, beta, dt_safe)
            if fixed_at is None and k < n_full and np.array_equal(x_new, x):
                fixed_at = k + 1
            x = x_new
            p, _clipped = dynamics._police_box(p, k * dt + h)
            ps.append(p)
            xs.append(x)
    return np.vstack(ps), np.vstack(xs), fixed_at


def reference_limit_state(g, params, initial, dt, t_max):
    """limit_state's (p, x, t, converged), taken with reference_step."""
    qt, bd, beta, dt_safe = reference_setup(params, g, dt)
    p, x, t = initial.p.copy(), initial.x.x.copy(), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_max - 1e-12:
            for _ in range(max(1, int(round(1.0 / dt)))):
                p, x = reference_step(p, x, t, dt, qt, bd, beta, dt_safe)
                t += dt
                p, _clipped = dynamics._police_box(p, t)
            dp, dx = dynamics._rhs(p, x, qt, bd, beta)
            if float(np.abs(dp).max()) + float(np.abs(dx).max()) < dynamics.LIMIT_TOL:
                return p, x, t, True
    return p, x, t, False


# Once x is fixed, p takes one linear operator per step in place of the
# coupled stages, so each row may drift from the reference by roundoff
# (5.4e-14 of its largest entry at most on the bundled figures)
P_DRIFT = 1e-12


def assert_p_near(p, ref):
    """Each row of p within P_DRIFT of the largest entry of ref's row."""
    p, ref = np.atleast_2d(p), np.atleast_2d(ref)
    assert p.shape == ref.shape
    assert np.all(np.abs(p - ref).max(axis=1) <= P_DRIFT * np.abs(ref).max(axis=1))


def assert_matches_reference(initial, params, g, t_end, dt):
    """x equal to the reference's bit for bit; p too, through the step
    that fixes x, and near it after. Returns that step (None if x never
    stops moving)."""
    tr = integrate(initial, params, g, t_end=t_end, dt=dt)
    p, x, fixed_at = reference_integrate(initial, params, g, t_end, dt)
    assert np.array_equal(tr.x, x)
    exact = len(p) if fixed_at is None else fixed_at + 1
    assert np.array_equal(tr.p[:exact], p[:exact])
    assert_p_near(tr.p[exact:], p[exact:])
    return fixed_at


class TestRhs:
    def test_disease_free_is_invariant(self):
        rng = np.random.default_rng(1)
        g = random_irreducible_generator(rng, 5)
        x = rng.uniform(0.1, 1.0, 5)
        x /= x.sum()
        dp, dx = rhs(state_of(np.zeros(5), x), EpidemicParams.of(5, 0.3, 0.1), g)
        assert np.all(dp == 0.0)
        assert np.allclose(dx, g.q.T @ x)

    def test_scalar_logistic_value(self):
        dp, dx = rhs(state_of([0.5], [1.0]), EpidemicParams.of(1, 0.3, 0.1),
                     single_region())
        assert dp[0] == pytest.approx(0.025)
        assert dx[0] == 0.0

    def test_flat_profile_kills_mobility_term(self):
        # L(x) c 1 = 0, so dp reduces to the uncoupled per-node logistic
        rng = np.random.default_rng(4)
        g = random_irreducible_generator(rng, 6)
        x = rng.uniform(0.1, 1.0, 6)
        x /= x.sum()
        beta = rng.uniform(0.2, 0.5, 6)
        delta = rng.uniform(0.05, 0.4, 6)
        c = 0.37
        dp, _dx = rhs(state_of(np.full(6, c), x), EpidemicParams(beta=beta, delta=delta), g)
        assert np.allclose(dp, c * (beta - delta) - c * c * beta, atol=1e-13)


class TestIntegrate:
    def test_zero_stays_zero_and_x_relaxes(self):
        g = uniform_out_rates(make_graph("complete", 6), 0.3)
        x0 = np.linspace(1.0, 2.0, 6)
        x0 /= x0.sum()
        tr = integrate(state_of(np.zeros(6), x0), EpidemicParams.of(6, 0.3, 0.1), g,
                       t_end=100.0, dt=0.01, output_stride=100)
        assert np.all(tr.p == 0.0)
        v = stationary_distribution(g).x
        assert np.abs(tr.x[-1] - v).max() <= 1e-8

    def test_logistic_oracle(self):
        tr = integrate(state_of([0.01], [1.0]), EpidemicParams.of(1, 0.3, 0.1),
                       single_region(), t_end=50.0, dt=0.01)
        exact = logistic(tr.times)
        assert np.abs(tr.p[:, 0] - exact).max() <= 1e-8

    def test_fourth_order_step_scaling(self):
        params = EpidemicParams.of(1, 0.3, 0.1)
        errs = []
        for dt in (0.4, 0.2, 0.1):
            tr = integrate(state_of([0.01], [1.0]), params, single_region(),
                           t_end=40.0, dt=dt, output_stride=10_000_000)
            errs.append(abs(tr.p[-1, 0] - logistic(40.0)))
        # halving dt should cut the error by about 2^4
        assert 8.0 < errs[0] / errs[1] < 40.0
        assert 8.0 < errs[1] / errs[2] < 40.0

    def test_lands_exactly_on_t_end(self):
        g = single_region()
        tr = integrate(state_of([0.2], [1.0]), EpidemicParams.of(1, 0.3, 0.1), g,
                       t_end=1.05, dt=0.1)
        assert tr.times[-1] == 1.05
        assert np.all(np.diff(tr.times) > 0)

    def test_escaped_box_raises(self):
        line = uniform_out_rates(make_graph("line", 3), 1e-300)
        cases = [
            (state_of([0.9], [1.0]), EpidemicParams.of(1, 3.0, 0.1), single_region(),
             100.0, 10.0),
            # the step overflows p to inf - inf = NaN, which fails both bounds
            (state_of([0.1] * 3, stationary_distribution(line).x),
             EpidemicParams.of(3, 1.0, 0.5), line, 1e200, 1e200),
        ]
        for initial, params, g, t_end, dt in cases:
            with pytest.raises(NumericalError,
                               match=r"left \[0, 1\] at t = .*; step size too large"):
                integrate(initial, params, g, t_end=t_end, dt=dt)

    def test_unstable_step_names_t_and_dt(self):
        # dt times the nonzero eigenvalue -4 nu / 3 of Q^T is -4.4, outside
        # RK4's stability interval, so the stages push x below zero
        g = uniform_out_rates(make_graph("complete", 4), 330.0)
        with pytest.raises(NumericalError, match=r"^RK4 step of dt = 0\.01 from t = 0\.0 drove "
                                                 "the population fraction"):
            integrate(state_of([0.1] * 4, [0.4, 0.2, 0.2, 0.2]),
                      EpidemicParams.of(4, 0.3, 0.4), g, t_end=1.0, dt=0.01)

    def test_box_and_simplex_invariants(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            beta = rng.uniform(0.1, 0.6, n)
            delta = rng.uniform(0.0, 0.6, n)
            p0 = rng.uniform(0.0, 1.0, n)
            x0 = rng.uniform(0.1, 1.0, n)
            x0 /= x0.sum()
            tr = integrate(state_of(p0, x0), EpidemicParams(beta=beta, delta=delta),
                           g, t_end=10.0, dt=0.01, output_stride=10)
            assert np.all(tr.p >= 0.0) and np.all(tr.p <= 1.0)
            assert np.abs(tr.x.sum(axis=1) - 1.0).max() <= 1e-9

    def test_positivity_propagation(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            g = random_irreducible_generator(rng, n)
            p0 = rng.uniform(0.01, 1.0, n)
            v = stationary_distribution(g)
            tr = integrate(ModelState(p=p0, x=v), EpidemicParams.of(n, 0.3, 0.4), g,
                           t_end=5.0, dt=0.01, output_stride=25)
            late = tr.p[tr.times >= 1.0]
            assert np.all(late > 0.0)

    def test_stationary_start_does_not_drift(self):
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        v = stationary_distribution(g)
        beta = np.linspace(0.2, 0.3, 20)
        tr = integrate(ModelState(p=np.full(20, 0.01), x=v),
                       EpidemicParams(beta=beta, delta=beta + 0.05), g,
                       t_end=200.0, dt=0.05, output_stride=400)
        assert np.abs(tr.x - v.x).max() <= 1e-6

    def test_off_target_start_relaxes_by_t200(self):
        g = uniform_out_rates(make_graph("complete", 20), 0.2)
        x0 = np.linspace(1.5, 0.5, 20)
        x0 /= x0.sum()
        tr = integrate(state_of(np.full(20, 0.01), x0),
                       EpidemicParams.of(20, 0.3, 0.35), g,
                       t_end=200.0, dt=0.05, output_stride=400)
        v = stationary_distribution(g).x
        assert np.abs(tr.x[-1] - v).max() <= 1e-6


class TestBoxPolicing:
    def test_drift_within_the_slack_is_clipped(self):
        p = np.array([-5e-10, 0.5, 1.0 + 5e-10])
        clipped, was_clipped = dynamics._police_box(p, 0.3)
        assert np.array_equal(clipped, [0.0, 0.5, 1.0]) and was_clipped
        inside = np.array([0.0, 0.5, 1.0])
        out, was_clipped = dynamics._police_box(inside, 0.3)
        assert out is inside and not was_clipped

    @pytest.mark.parametrize("p, node", [([0.5, -2e-9, 0.5], 2),
                                         ([0.5, 0.5, 1.0 + 2e-9], 3),
                                         ([0.5, float("nan"), 0.5], 2)])
    def test_drift_beyond_the_slack_names_the_node(self, p, node):
        with pytest.raises(NumericalError, match=f"p at node {node} = .* at t = 0.3;"):
            dynamics._police_box(np.array(p), 0.3)

    @pytest.mark.parametrize("path", ["_rk4_step", "_rk4_fixed_step"])
    def test_integrate_counts_clipped_steps(self, monkeypatch, path):
        # x is fixed from the first step, so of the 10 full steps and the
        # shortened one, the first and the last are coupled, the rest not
        step = getattr(dynamics, path)
        moving = path == "_rk4_step"  # returns (p, x, Q^T x)
        drifted = []

        def drifting(*args):
            out = step(*args)
            p = (out[0] if moving else out).copy()
            p[0] = -5e-10
            drifted.append(p)
            return (p, *out[1:]) if moving else p

        cfg, initial, params, g = figure_run("fig1d")
        assert integrate(initial, params, g, t_end=10.5 * cfg.dt, dt=cfg.dt).clips == 0
        monkeypatch.setattr(dynamics, path, drifting)
        tr = integrate(initial, params, g, t_end=10.5 * cfg.dt, dt=cfg.dt)
        assert len(drifted) == {"_rk4_step": 2, "_rk4_fixed_step": 9}[path]
        assert tr.clips == len(drifted)
        assert np.all(tr.p >= 0.0)


class TestStepArguments:
    @pytest.mark.parametrize("value", NOT_POSITIVE)
    def test_integrate_rejects_dt_and_t_end(self, value):
        args = (state_of([0.2], [1.0]), EpidemicParams.of(1, 0.3, 0.1), single_region())
        with pytest.raises(ValueError, match="^dt must be finite and positive"):
            integrate(*args, t_end=1.0, dt=value)
        with pytest.raises(ValueError, match="^t_end must be finite and positive"):
            integrate(*args, t_end=value)

    @pytest.mark.parametrize("value", NOT_POSITIVE)
    def test_limit_state_rejects_dt_and_t_max(self, value):
        args = (single_region(), EpidemicParams.of(1, 0.3, 0.1), state_of([0.2], [1.0]))
        with pytest.raises(ValueError, match="^dt must be finite and positive"):
            limit_state(*args, dt=value)
        with pytest.raises(ValueError, match="^t_max must be finite and positive"):
            limit_state(*args, t_max=value)

    def test_integrate_reads_output_stride_as_an_integer(self):
        args = (state_of([0.2], [1.0]), EpidemicParams.of(1, 0.3, 0.1), single_region())
        for stride in (2.5, 2.0):
            with pytest.raises(TypeError):
                integrate(*args, t_end=1.0, dt=0.01, output_stride=stride)
        tr = integrate(*args, t_end=1.0, dt=0.01, output_stride=np.int64(25))
        np.testing.assert_allclose(tr.times, [0.0, 0.25, 0.5, 0.75, 1.0])


class TestTrajectoryType:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), p=np.zeros((3, 1)), x=np.ones((3, 1)))

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), p=np.zeros((2, 1)), x=np.ones((2, 1)))

    def test_state_accessor(self):
        tr = integrate(state_of([0.3], [1.0]), EpidemicParams.of(1, 0.3, 0.1),
                       single_region(), t_end=1.0, dt=0.1)
        st = tr.final()
        assert isinstance(st, ModelState)
        assert st.p[0] == tr.p[-1, 0]

    def test_model_state_rejects_out_of_box(self):
        with pytest.raises(ValueError):
            state_of([1.2], [1.0])

    def test_model_state_rejects_nan(self):
        with pytest.raises(ValueError, match="infected fractions must lie in"):
            state_of([0.2, float("nan")], [0.5, 0.5])


class TestLimitState:
    def test_stable_instance_goes_disease_free(self):
        g = uniform_out_rates(make_graph("ring", 5), 0.2)
        v = stationary_distribution(g)
        res = limit_state(g, EpidemicParams.of(5, 0.3, 0.4),
                          ModelState(p=np.full(5, 0.3), x=v))
        assert isinstance(res, LimitResult)
        assert res.converged
        assert np.abs(res.state.p).max() <= 1e-8
        assert np.abs(res.state.x.x - v.x).max() <= 1e-8

    def test_endemic_instance_matches_fixed_point(self):
        rng = np.random.default_rng(14)
        params, g = random_endemic_instance(rng, 6)
        v = stationary_distribution(g)
        res = limit_state(g, params, ModelState(p=np.full(6, 0.01), x=v), dt=0.05)
        sol = endemic_fixed_point(analyze(params, Mobility(g)))
        assert res.converged
        assert np.abs(res.state.p - sol.p_star).max() <= 1e-6

    def test_zero_start_stays_disease_free_even_when_unstable(self):
        rng = np.random.default_rng(16)
        params, g = random_endemic_instance(rng, 4)
        v = stationary_distribution(g)
        res = limit_state(g, params, ModelState(p=np.zeros(4), x=v), t_max=50.0)
        assert np.all(res.state.p == 0.0)

    def test_timeout_flag(self):
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        x0 = np.linspace(1.5, 0.5, 20)
        x0 /= x0.sum()
        # the line graph mixes far too slowly to converge by t = 5
        res = limit_state(g, EpidemicParams.of(20, 0.3, 0.4),
                          state_of(np.zeros(20), x0), t_max=5.0)
        assert not res.converged
        assert res.t >= 5.0 - 1e-9


def random_sparse_chain(rng, n, extra):
    """Explicit-rate chain on a directed n-cycle plus `extra` random edges."""
    pairs = {(i, i % n + 1) for i in range(1, n + 1)}
    while len(pairs) < n + extra:
        i, j = (int(k) for k in rng.integers(1, n + 1, size=2))
        if i != j:
            pairs.add((i, j))
    return generator_from_rates(n, [(i, j, rng.uniform(0.01, 2.0)) for (i, j) in sorted(pairs)])


def edge_list_transpose(g):
    """Q^T as an edge list, whatever form _transpose would pick."""
    src, dst, rate = out_edges(g)
    return dynamics._EdgeList(src, dst, rate, -g.nu)


class TestEdgeListProduct:
    def test_rhs_matches_dense_product(self):
        rng = np.random.default_rng(21)
        gens = [uniform_out_rates(make_graph(kind, 1000), rng.uniform(0.05, 1.0, 1000))
                for kind in ("line", "ring", "star")]
        gens += [random_sparse_chain(rng, n, extra)
                 for (n, extra) in ((2, 0), (7, 5), (60, 30), (300, 600), (1000, 3000))]
        for g in gens:
            n = g.n
            p = rng.uniform(0.0, 1.0, n)
            x = rng.uniform(0.1, 1.0, n)
            x /= x.sum()
            beta = rng.uniform(0.1, 0.6, n)
            bd = beta - rng.uniform(0.0, 0.6, n)
            sparse = dynamics._rhs(p, x, edge_list_transpose(g), bd, beta)
            dense = dynamics._rhs(p, x, g.q.T.copy(), bd, beta)
            for a, b in zip(sparse, dense):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    def test_selection_rule(self):
        def is_dense(g):
            return isinstance(dynamics._transpose(g), np.ndarray)

        # Q has at least n nonzeros, so up to n = 64 the dense product is kept
        for n in range(1, 65):
            assert is_dense(validate_generator(np.zeros((n, n))))
            for kind in GRAPH_KINDS:
                if n >= 2:
                    assert is_dense(uniform_out_rates(make_graph(kind, n), 0.3))
        for name in cli.FIGURES:
            assert is_dense(cli.load_figure(name).generator), name
        for kind in ("line", "ring", "star"):
            assert not is_dense(uniform_out_rates(make_graph(kind, 1000), 0.3)), kind
        assert is_dense(uniform_out_rates(make_graph("complete", 300), 0.3))
        # from n = 512 on the dense Q^T leaves the cache, so a random chain
        # with about 17 nonzeros per row takes the edge list; below, it
        # stays dense
        rng = np.random.default_rng(23)
        for n, dense in ((1000, False), (400, True)):
            chain = random_sparse_chain(rng, n, 15 * n)
            assert 16.0 <= np.count_nonzero(chain.q) / n <= 17.0
            assert is_dense(chain) == dense, n
        assert is_dense(validate_generator(np.ones((600, 600)) - 600.0 * np.eye(600)))

    def test_dense_choice_builds_no_edge_list(self, monkeypatch):
        edges = count_calls(monkeypatch, out_edges)
        assert isinstance(dynamics._transpose(uniform_out_rates(make_graph("complete", 600),
                                                                0.3)), np.ndarray)
        assert edges == []
        star = uniform_out_rates(make_graph("star", 600), 0.3)
        assert isinstance(dynamics._transpose(star), dynamics._EdgeList)
        assert len(edges) == 1

    def test_star_trajectory_matches_dense_product(self, monkeypatch):
        g = uniform_out_rates(make_graph("star", 1000), 0.5)
        rng = np.random.default_rng(22)
        beta = rng.uniform(0.2, 0.5, 1000)
        params = EpidemicParams(beta=beta, delta=beta - 0.05)
        x0 = rng.uniform(0.5, 1.5, 1000)
        initial = state_of(rng.uniform(0.0, 0.2, 1000), x0 / x0.sum())
        assert isinstance(dynamics._transpose(g), dynamics._EdgeList)
        sparse = integrate(initial, params, g, t_end=1.0, dt=0.01, output_stride=10)
        monkeypatch.setattr(dynamics, "_transpose", lambda g: g.q.T.copy())
        dense = integrate(initial, params, g, t_end=1.0, dt=0.01, output_stride=10)
        assert len(sparse.times) == len(dense.times) == 11
        assert np.abs(sparse.p - dense.p).max() <= 1e-12
        assert np.abs(sparse.x - dense.x).max() <= 1e-12 * np.abs(dense.x).max()


class TestPositiveStepBound:
    @staticmethod
    def random_flows(seed, count=300):
        """`count` random uniform_out generators (n 3-40, nu ~ U[0.1, 5]) with
        a Dirichlet(0.05) start floored at 1e-300 and p0 = 0, so p stays
        exactly 0 and only the x-flow moves."""
        rng = np.random.default_rng(seed)
        for k in range(count):
            n = int(rng.integers(3, 41))
            g = uniform_out_rates(make_graph(GRAPH_KINDS[k % len(GRAPH_KINDS)], n),
                                  rng.uniform(0.1, 5.0, n))
            x0 = np.maximum(rng.dirichlet(np.full(n, 0.05)), 1e-300)
            yield g, state_of(np.zeros(n), x0 / x0.sum())

    def test_stages_stay_positive_at_the_bound(self, monkeypatch):
        checks = count_calls(monkeypatch, dynamics._check_stage)
        for g, initial in self.random_flows(31):
            nu_max = g.nu.max()
            dt = dynamics.POSITIVE_STEP_BOUND / nu_max
            while dt * nu_max > dynamics.POSITIVE_STEP_BOUND:
                dt = np.nextafter(dt, 0.0)
            params = EpidemicParams.of(g.n, 0.3, 0.1)
            tr = integrate(initial, params, g, t_end=20 * dt, dt=dt)
            assert np.all(tr.x > 0.0)
            assert np.all(tr.p == 0.0)
        assert checks == []

    def test_checked_path_still_fails_above_the_bound(self):
        outcomes = {"ok": 0, "failed": 0}
        for g, initial in self.random_flows(31):
            dt = 1.0 / g.nu.max()
            try:
                tr = integrate(initial, EpidemicParams.of(g.n, 0.3, 0.1), g,
                               t_end=20 * dt, dt=dt)
            except NumericalError as exc:
                bound = 2.0 / (3.0 * g.nu.max())
                assert f"dt <= 2/(3 max nu) = {bound:.6g} keeps" in str(exc)
                outcomes["failed"] += 1
            else:
                assert np.all(tr.x > 0.0)
                outcomes["ok"] += 1
        assert outcomes["failed"] > 0 and outcomes["ok"] > 0

    def test_bundled_figures_make_no_stage_checks(self, monkeypatch):
        checks = count_calls(monkeypatch, dynamics._check_stage)
        for name in cli.FIGURES:
            cfg = cli.load_figure(name)
            a = analyze(cfg.params, Mobility(cfg.generator))
            initial = ModelState(p=cfg.p0, x=cfg.x0 or a.mobility.v)
            # ten full steps and a shortened one, then two limit_state chunks
            integrate(initial, a.params, a.mobility.g, t_end=10.5 * cfg.dt, dt=cfg.dt)
            limit_state(a.mobility.g, a.params, initial, dt=cfg.dt, t_max=2.0)
        assert checks == []

    def test_unstable_step_checks_stages_and_names_the_bound(self, monkeypatch):
        checks = count_calls(monkeypatch, dynamics._check_stage)
        g = uniform_out_rates(make_graph("complete", 4), 330.0)
        with pytest.raises(NumericalError) as exc:
            integrate(state_of([0.1] * 4, [0.4, 0.2, 0.2, 0.2]),
                      EpidemicParams.of(4, 0.3, 0.4), g, t_end=1.0, dt=0.01)
        assert len(checks) > 0
        assert "step size too large" in str(exc.value)
        assert "dt <= 2/(3 max nu) = 0.0020202" in str(exc.value)

    def test_stage_error_counts_nodes_from_1(self):
        with pytest.raises(NumericalError, match="population fraction at node 3 to a "):
            dynamics._check_stage(np.array([0.5, 0.6, -0.1, 0.0]), 0.0, 0.1, 0.05)


class TestFixedOperator:
    """_p_operator at a fixed x is the linear part of _dp there, in the
    dense form and in the edge-list form alike."""

    @staticmethod
    def random_chains(rng):
        yield from (random_irreducible_generator(rng, n) for n in (1, 2, 5, 20, 60))
        yield from (random_sparse_chain(rng, n, extra)
                    for (n, extra) in ((2, 0), (7, 5), (60, 30), (300, 600)))
        yield uniform_out_rates(make_graph("star", 1000), rng.uniform(0.5, 1.5, 1000))

    def test_operator_is_the_linear_part_of_dp(self):
        rng = np.random.default_rng(25)
        for g in self.random_chains(rng):
            n = g.n
            # x away from v, so that every term of A weighs in
            x = rng.uniform(0.1, 1.0, n)
            x /= x.sum()
            bd = rng.uniform(-0.5, 0.5, n)
            for qt in (g.q.T.copy(), edge_list_transpose(g)):
                a = dynamics._p_operator(qt, x, qt @ x, bd)
                assert isinstance(a, type(qt))
                for _ in range(3):
                    y = rng.uniform(0.0, 1.0, n)
                    linear = dynamics._dp(y, x, qt @ x, qt, bd, np.zeros(n))
                    np.testing.assert_allclose(a @ y, linear, rtol=0.0,
                                               atol=1e-14 * np.abs(linear).max())

    def test_fixed_step_matches_the_coupled_step(self):
        rng = np.random.default_rng(26)
        for g in self.random_chains(rng):
            n = g.n
            x = stationary_distribution(g).x
            beta = rng.uniform(0.1, 0.6, n)
            bd = beta - rng.uniform(0.0, 0.6, n)
            p = rng.uniform(0.0, 1.0, n)
            for qt in (g.q.T.copy(), edge_list_transpose(g)):
                coupled, _x, qtx = dynamics._rk4_step(p, x, 0.0, 0.01, qt, bd, beta, None)
                a = dynamics._p_operator(qt, x, qtx, bd)
                assert_p_near(dynamics._rk4_fixed_step(p, 0.01, a, beta), coupled)


class TestStageReuse:
    """integrate and limit_state step p and x together. Once a step leaves x
    bit-for-bit unchanged, they step p alone with the linear part of its
    flow at that x. x must equal the coupled reference step's bit for
    bit, and p too until x is fixed; after that p is within P_DRIFT."""

    @pytest.mark.parametrize("name", DETERMINISTIC_FIGURES)
    def test_bundled_figures_match_the_coupled_step(self, name):
        cfg, initial, params, g = figure_run(name)
        # x starts at v unless the figure sets x0; from x0, x stops moving
        # by step 6274 (fig2_ring) or never (fig2_line). The half step at
        # the end is taken with fresh stages.
        steps = 6300.5 if cfg.x0 is not None else 200.5
        fixed_at = assert_matches_reference(initial, params, g, steps * cfg.dt, cfg.dt)
        assert (fixed_at is None) == (name == "fig2_line")

    def test_stages_are_computed_until_x_stops_moving(self, monkeypatch):
        calls = count_calls(monkeypatch, dynamics._rk4_step)
        dps = count_calls(monkeypatch, dynamics._dp)
        for name, expected in (("fig1d", 1), ("fig2_complete", 328), ("fig2_line", 400)):
            cfg, initial, params, g = figure_run(name)
            calls.clear()
            dps.clear()
            integrate(initial, params, g, t_end=400 * cfg.dt, dt=cfg.dt)
            assert len(calls) == expected, name
            # no coupled stage after the step that fixes x
            assert len(dps) == 4 * expected, name

    def test_checked_path_above_the_bound_matches(self, monkeypatch):
        checks = count_calls(monkeypatch, dynamics._check_stage)
        g = uniform_out_rates(make_graph("complete", 6), np.linspace(0.5, 1.0, 6))
        dt = 0.8 / g.nu.max()
        assert dynamics._positive_step_limit(g, dt) is not None
        params = EpidemicParams.of(6, 0.5, 0.2)
        x0 = np.linspace(1.0, 2.0, 6)
        for x in (x0 / x0.sum(), stationary_distribution(g).x):
            assert_matches_reference(state_of(np.full(6, 0.1), x), params, g, 400.5 * dt, dt)
        assert len(checks) > 0

    def test_edge_list_star_matches(self):
        g = uniform_out_rates(make_graph("star", 1000), 0.5)
        assert isinstance(dynamics._transpose(g), dynamics._EdgeList)
        rng = np.random.default_rng(24)
        beta = rng.uniform(0.2, 0.5, 1000)
        params = EpidemicParams(beta=beta, delta=beta - 0.05)
        x0 = rng.uniform(0.5, 1.5, 1000)
        p0 = rng.uniform(0.0, 0.2, 1000)
        # from x0, x never stops moving in 50 steps, so p is exact throughout
        assert assert_matches_reference(state_of(p0, x0 / x0.sum()), params, g, 0.505, 0.01) is None
        assert assert_matches_reference(state_of(p0, stationary_distribution(g).x),
                                        params, g, 0.505, 0.01) is not None

    @pytest.mark.parametrize("name, t_max", [("fig1d", 3.0), ("fig2_complete", 400.0)])
    def test_limit_state_matches(self, name, t_max):
        cfg, initial, params, g = figure_run(name)
        res = limit_state(g, params, initial, dt=cfg.dt, t_max=t_max)
        p, x, t, converged = reference_limit_state(g, params, initial, cfg.dt, t_max)
        assert_p_near(res.state.p, p)
        assert np.array_equal(res.state.x.x, x / x.sum())
        assert (res.t, res.converged) == (t, converged)
