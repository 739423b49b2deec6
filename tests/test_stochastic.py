import numpy as np
import pytest

import sismob.stochastic
from sismob.equilibria import endemic_fixed_point
from sismob.errors import GridMismatch, StepTooLarge
from sismob.mobility import (
    generator_from_rates,
    make_graph,
    metropolis_hastings_rates,
    stationary_distribution,
    uniform_out_rates,
    validate_generator,
)
from sismob.spectral import EpidemicParams, analyze
from sismob.stochastic import (
    Population,
    _sample_grid,
    SampledRun,
    ensemble_average,
    fixed_step_run,
    gillespie_run,
    run_ensemble,
    seed_population,
    step_size_limit,
)


def single_region():
    return validate_generator([[0.0]])


def small_instance():
    g = validate_generator([[-0.2, 0.2], [0.1, -0.1]])
    return g, EpidemicParams.of(2, 0.4, 0.2)


class TestSeeding:
    def test_uniform_totals(self):
        pop = seed_population(4, 100, 0.25)
        assert np.all(pop.s + pop.i == 100)
        assert np.all(pop.i == 25)
        assert pop.total == 400

    def test_weighted_totals(self):
        pop = seed_population(2, 300, 0.0, x0=[1.0 / 3.0, 2.0 / 3.0])
        assert list(pop.s + pop.i) == [200, 400]
        assert np.all(pop.i == 0)

    def test_fractions(self):
        pop = seed_population(3, 10, [0.0, 0.5, 1.0])
        p, x = pop.fractions()
        assert list(p) == [0.0, 0.5, 1.0]
        assert np.allclose(x, 1.0 / 3.0)

    def test_rejects_bad_p0(self):
        with pytest.raises(ValueError):
            seed_population(2, 10, 1.5)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Population(s=np.array([-1]), i=np.array([0]))


class TestAbsorption:
    def test_gillespie_extinct_stays_extinct(self):
        g, params = small_instance()
        pop = seed_population(2, 50, 0.0)
        run = gillespie_run(pop, params, g, t_end=20.0, seed=7, sample_dt=1.0)
        assert np.all(run.i == 0)
        assert np.all((run.s + run.i).sum(axis=1) == pop.total)

    def test_fixed_step_extinct_stays_extinct(self):
        g, params = small_instance()
        pop = seed_population(2, 50, 0.0)
        run = fixed_step_run(pop, params, g, t_end=20.0, dt=0.05, seed=7,
                             sample_dt=1.0)
        assert np.all(run.i == 0)

    def test_no_spontaneous_infection_after_die_out(self):
        # once i hits zero it must never come back, in every replica
        g = single_region()
        params = EpidemicParams.of(1, 0.05, 1.0)
        pop = seed_population(1, 30, 0.2)
        for r in range(10):
            run = gillespie_run(pop, params, g, t_end=50.0, seed=(3, r),
                                sample_dt=0.5)
            i = run.i[:, 0]
            died = np.flatnonzero(i == 0)
            if died.size:
                assert np.all(i[died[0]:] == 0)


class TestConservationAndDeterminism:
    def test_gillespie_conserves_total(self):
        g, params = small_instance()
        pop = seed_population(2, 200, 0.1)
        run = gillespie_run(pop, params, g, t_end=30.0, seed=11, sample_dt=0.5)
        assert np.all((run.s + run.i).sum(axis=1) == pop.total)
        assert np.all(run.s >= 0) and np.all(run.i >= 0)

    def test_fixed_step_conserves_total(self):
        g, params = small_instance()
        pop = seed_population(2, 200, 0.1)
        run = fixed_step_run(pop, params, g, t_end=30.0, dt=0.02, seed=11,
                             sample_dt=0.5)
        assert np.all((run.s + run.i).sum(axis=1) == pop.total)
        assert np.all(run.s >= 0) and np.all(run.i >= 0)

    def test_same_seed_same_path(self):
        g, params = small_instance()
        pop = seed_population(2, 100, 0.05)
        a = gillespie_run(pop, params, g, t_end=10.0, seed=42, sample_dt=0.5)
        b = gillespie_run(pop, params, g, t_end=10.0, seed=42, sample_dt=0.5)
        assert np.array_equal(a.i, b.i) and np.array_equal(a.s, b.s)
        c = fixed_step_run(pop, params, g, t_end=10.0, dt=0.05, seed=42)
        d = fixed_step_run(pop, params, g, t_end=10.0, dt=0.05, seed=42)
        assert np.array_equal(c.i, d.i) and np.array_equal(c.s, d.s)

    def test_different_seeds_differ(self):
        g, params = small_instance()
        pop = seed_population(2, 100, 0.05)
        a = gillespie_run(pop, params, g, t_end=10.0, seed=1, sample_dt=0.5)
        b = gillespie_run(pop, params, g, t_end=10.0, seed=2, sample_dt=0.5)
        assert not (np.array_equal(a.i, b.i) and np.array_equal(a.s, b.s))


class TestAgainstContinuum:
    def test_gillespie_single_node_endemic_level(self):
        # N = 10000 is deep in the law-of-large-numbers regime, so the
        # late-time infected fraction should sit near the continuum
        # equilibrium 1 - delta/beta = 2/3
        params = EpidemicParams.of(1, 0.3, 0.1)
        pop = seed_population(1, 10_000, 0.05)
        run = gillespie_run(pop, params, single_region(), t_end=120.0,
                            seed=2026, sample_dt=1.0)
        p, _ = run.fractions()
        late = p[run.times >= 80.0, 0]
        assert abs(late.mean() - 2.0 / 3.0) <= 0.02

    def test_methods_agree_when_dt_small(self):
        g, params = small_instance()
        pop = seed_population(2, 400, 0.1)
        t_end = 40.0
        ga = ensemble_average([gillespie_run(pop, params, g, t_end, (5, r), sample_dt=2.0)
                               for r in range(40)])
        fa = run_ensemble(pop, params, g, t_end, replicas=40, base_seed=6,
                          dt=0.005, sample_dt=2.0)
        assert np.array_equal(ga.times, fa.times)
        late = ga.times >= 20.0
        assert np.nanmax(np.abs(ga.mean_p[late] - fa.mean_p[late])) <= 0.03

    def test_occupancy_relaxes_to_stationary(self):
        g = uniform_out_rates(make_graph("complete", 4), 0.5)
        params = EpidemicParams.of(4, 0.3, 0.4)
        x0 = np.array([0.7, 0.1, 0.1, 0.1])
        pop = seed_population(4, 1000, 0.0, x0=x0)
        res = run_ensemble(pop, params, g, t_end=120.0, replicas=50,
                           base_seed=9, dt=0.05,
                           sample_dt=5.0)
        v = stationary_distribution(g).x
        late = res.times >= 100.0
        assert np.abs(res.mean_x[late] - v).max() <= 0.02

    def test_gap_to_continuum_shrinks_with_population(self):
        # finite-size bias plus averaging noise should both fall as the
        # per-node head count grows; allow one inversion from Monte-Carlo
        # luck by requiring 2 of the 3 pairwise orderings
        g, params = small_instance()
        gaps = []
        for per_node in (100, 1_000, 10_000):
            pop = seed_population(2, per_node, 0.1, x0=[1.0 / 3.0, 2.0 / 3.0])
            p0, x0 = pop.fractions()
            res = run_ensemble(pop, params, g, t_end=30.0, replicas=30,
                               base_seed=20260800, dt=0.01, sample_dt=1.0)
            from sismob.dynamics import ModelState, integrate
            from sismob.mobility import PopulationDistribution
            tr = integrate(ModelState(p=p0, x=PopulationDistribution(x=x0)),
                           params, g, t_end=30.0, dt=0.01, output_stride=100)
            assert np.allclose(tr.times, res.times)
            gaps.append(float(np.nanmax(np.abs(res.mean_p - tr.p))))
        orderings = [gaps[1] < gaps[0], gaps[2] < gaps[1], gaps[2] < gaps[0]]
        assert sum(orderings) >= 2, gaps

    def test_fixed_step_tracks_endemic_equilibrium(self):
        g, params = small_instance()
        sol = endemic_fixed_point(analyze(params, g))
        pop = seed_population(2, 2_000, 0.3,
                              x0=stationary_distribution(g).x)
        res = run_ensemble(pop, params, g, t_end=80.0, replicas=20,
                           base_seed=17, dt=0.02,
                           sample_dt=4.0)
        assert np.abs(res.mean_p[-1] - sol.p_star).max() <= 0.05


class TestStepLimit:
    def test_limit_value(self):
        g, params = small_instance()
        # worst node has nu = 0.2 and max(beta, delta) = 0.4
        assert step_size_limit(params, g) == pytest.approx(1.0 / 0.6)

    def test_oversized_step_rejected(self):
        g, params = small_instance()
        pop = seed_population(2, 10, 0.1)
        with pytest.raises(StepTooLarge):
            fixed_step_run(pop, params, g, t_end=5.0, dt=2.0, seed=0)

    def test_limit_is_positive_and_finite(self):
        g = uniform_out_rates(make_graph("star", 5), 0.7)
        lim = step_size_limit(EpidemicParams.of(5, 0.3, 0.1), g)
        assert 0.0 < lim < np.inf
        # hub out-rate dominates: nu = 0.7 at node 1
        assert lim == pytest.approx(1.0 / 1.0)


class TestEnsembleAverage:
    def test_single_replica_identity(self):
        g, params = small_instance()
        pop = seed_population(2, 100, 0.2)
        run = gillespie_run(pop, params, g, t_end=10.0, seed=3, sample_dt=1.0)
        res = ensemble_average([run])
        p, x = run.fractions()
        assert np.allclose(res.mean_p, p, equal_nan=True)
        assert np.allclose(res.mean_x, x)
        assert res.replicas == 1

    def test_grid_mismatch_rejected(self):
        g, params = small_instance()
        pop = seed_population(2, 100, 0.2)
        a = gillespie_run(pop, params, g, t_end=10.0, seed=3, sample_dt=1.0)
        b = gillespie_run(pop, params, g, t_end=10.0, seed=3, sample_dt=2.0)
        with pytest.raises(GridMismatch):
            ensemble_average([a, b])

    def test_empty_node_yields_nan_and_count(self):
        times = np.array([0.0, 1.0])
        a = SampledRun(times=times, s=np.array([[5, 0], [5, 0]]),
                       i=np.array([[1, 0], [1, 0]]))
        b = SampledRun(times=times, s=np.array([[5, 2], [5, 0]]),
                       i=np.array([[1, 2], [1, 0]]))
        res = ensemble_average([a, b])
        assert res.mean_p[0, 1] == pytest.approx(0.5)   # only replica b counts
        assert np.isnan(res.mean_p[1, 1])               # empty in both
        assert res.empty_counts[0, 1] == 1
        assert res.empty_counts[1, 1] == 2
        assert res.empty_counts[0, 0] == 0

    def test_mean_p_stays_in_unit_interval(self):
        g, params = small_instance()
        pop = seed_population(2, 50, 0.3)
        res = ensemble_average([gillespie_run(pop, params, g, 20.0, (77, r), sample_dt=1.0)
                                for r in range(10)])
        finite = np.isfinite(res.mean_p)
        assert np.all(res.mean_p[finite] >= 0.0)
        assert np.all(res.mean_p[finite] <= 1.0)
        assert np.allclose(res.mean_x.sum(axis=1), 1.0)

    def test_replica_streams_are_reproducible(self):
        g, params = small_instance()
        pop = seed_population(2, 100, 0.1)
        r1 = run_ensemble(pop, params, g, t_end=10.0, replicas=3, base_seed=123,
                          dt=0.05, sample_dt=1.0)
        r2 = run_ensemble(pop, params, g, t_end=10.0, replicas=3, base_seed=123,
                          dt=0.05, sample_dt=1.0)
        assert np.allclose(r1.mean_p, r2.mean_p, equal_nan=True)
        assert np.array_equal(r1.empty_counts, r2.empty_counts)


def dense_fixed_step(pop0, params, g, t_end, dt, seed, sample_dt=1.0):
    """Reference form of the fixed-step protocol: per step, one multinomial
    per pool over a dense n x (n + 2) table (migrate to 1..n, disease,
    stay), susceptible pool first."""
    rng = np.random.default_rng(seed)
    n = g.n
    beta, delta = params.beta, params.delta
    times = _sample_grid(t_end, sample_dt)
    target_steps = np.rint(times / dt).astype(np.int64)
    n_steps = int(np.ceil(t_end / dt - 1e-9))
    target_steps[-1] = min(target_steps[-1], n_steps)

    mig = g.q * dt
    np.fill_diagonal(mig, 0.0)
    pv_s = np.zeros((n, n + 2))
    pv_s[:, :n] = mig
    pv_i = np.zeros((n, n + 2))
    pv_i[:, :n] = mig
    pv_i[:, n] = delta * dt
    pv_i[:, n + 1] = np.maximum(0.0, 1.0 - pv_i[:, : n + 1].sum(axis=1))

    s = pop0.s.copy()
    i = pop0.i.copy()
    out_s = np.empty((len(times), n), dtype=np.int64)
    out_i = np.empty((len(times), n), dtype=np.int64)
    ptr = 0
    for step in range(n_steps + 1):
        while ptr < len(times) and target_steps[ptr] == step:
            out_s[ptr] = s
            out_i[ptr] = i
            ptr += 1
        if step == n_steps:
            break
        tot = s + i
        frac = np.divide(i, tot, out=np.zeros(n), where=tot > 0)
        pv_s[:, n] = beta * dt * frac
        pv_s[:, n + 1] = np.maximum(0.0, 1.0 - pv_s[:, : n + 1].sum(axis=1))
        moves_s = rng.multinomial(s, pv_s)
        moves_i = rng.multinomial(i, pv_i)
        mig_s = moves_s[:, :n]
        mig_i = moves_i[:, :n]
        infections = moves_s[:, n]
        recoveries = moves_i[:, n]
        s = s - mig_s.sum(axis=1) - infections + mig_s.sum(axis=0) + recoveries
        i = i - mig_i.sum(axis=1) - recoveries + mig_i.sum(axis=0) + infections
    return SampledRun(times=times, s=out_s, i=out_i)


def _heterogeneous_params(n, seed=0):
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.2, 0.6, n)
    return EpidemicParams(beta=beta, delta=beta * rng.uniform(0.3, 1.2, n))


STREAM_CASES = {
    **{kind: (uniform_out_rates(make_graph(kind, 6), [0.3, 0.5, 0.2, 0.4, 0.6, 0.35]),
              40, 0.02)
       for kind in ("line", "ring", "star", "complete")},
    # directed cycle with a chord: no detailed balance
    "non_reversible": (generator_from_rates(4, [(1, 2, 0.5), (2, 3, 0.3), (3, 4, 0.7),
                                                (4, 1, 0.2), (1, 3, 0.1)]), 40, 0.02),
    "metropolis_hastings": (metropolis_hastings_rates(make_graph("star", 5),
                                                      [0.4, 0.1, 0.2, 0.2, 0.1], 0.8),
                            40, 0.02),
    # no edges: the table holds only the disease and stay columns
    "single_region": (single_region(), 30, 0.05),
    # two people per node, one infected, and fast mobility: nodes empty out
    "emptying": (uniform_out_rates(make_graph("line", 5), 2.0), 2, 0.1),
}


class TestStreamIdentity:
    @pytest.mark.parametrize("case", list(STREAM_CASES))
    def test_matches_dense_two_table_sampler(self, case):
        g, per_node, dt = STREAM_CASES[case]
        params = _heterogeneous_params(g.n)
        pop = seed_population(g.n, per_node, 0.5)
        runs = []
        for r in range(4):
            run = fixed_step_run(pop, params, g, t_end=6.0, dt=dt, seed=(31, r),
                                 sample_dt=0.5)
            ref = dense_fixed_step(pop, params, g, t_end=6.0, dt=dt, seed=(31, r),
                                   sample_dt=0.5)
            assert np.array_equal(run.times, ref.times)
            assert np.array_equal(run.s, ref.s), r
            assert np.array_equal(run.i, ref.i), r
            runs.append(run)
        if case == "emptying":
            assert ensemble_average(runs).empty_counts.sum() > 0


class TestDrawsPerStep:
    def test_one_multinomial_per_step(self, monkeypatch):
        # every draw the sampler makes goes through the Generator that
        # default_rng hands it; record each attribute it reads there
        used = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def __getattr__(self, name):
                used.append(name)
                return getattr(self._rng, name)

        monkeypatch.setattr(sismob.stochastic.np.random, "default_rng", Counting)
        g = uniform_out_rates(make_graph("ring", 5), 0.4)
        params = EpidemicParams.of(5, 0.5, 0.3)
        pop = seed_population(5, 20, 0.3)
        run = fixed_step_run(pop, params, g, t_end=2.0, dt=0.05, seed=8)
        monkeypatch.undo()
        assert used == ["multinomial"] * 40
        again = fixed_step_run(pop, params, g, t_end=2.0, dt=0.05, seed=8)
        assert np.array_equal(run.s, again.s) and np.array_equal(run.i, again.i)
