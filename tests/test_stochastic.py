import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sismob.cli as cli
import sismob.stochastic
from sismob.equilibria import endemic_fixed_point
from sismob.errors import InputError, NumericalError
from sismob.mobility import (
    generator_from_rates,
    make_graph,
    metropolis_hastings_rates,
    out_edges,
    stationary_distribution,
    uniform_out_rates,
    validate_generator,
)
from sismob.spectral import EpidemicParams, Mobility, analyze
from sismob.stochastic import (
    MAX_POPULATION,
    MAX_STEPS,
    Population,
    _fractions,
    _infected_fraction,
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

    def test_rejects_nan_p0(self):
        with pytest.raises(ValueError, match="p0 must lie in"):
            seed_population(2, 10, [0.1, float("nan")])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Population(s=np.array([-1]), i=np.array([0]))

    def test_rejects_an_empty_population(self):
        # its fractions would be 0 / 0
        with pytest.raises(ValueError, match="at least 1"):
            seed_population(4, 0, 0.1)
        with pytest.raises(ValueError, match="at least 1"):
            Population(s=[0, 0], i=[0, 0])

    def test_rejects_a_total_beyond_int64(self):
        # the int64 total once wrapped to -2**63, giving x = -0.5 per node
        with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
            Population(s=[2**62, 2**62], i=[0, 0])

    @pytest.mark.parametrize("n, per_node", [(20, 10**18), (4, 2**61)])
    def test_rejects_totals_above_max_population(self, n, per_node):
        # both once wrapped in int64: a total of 1553255926290448384 with
        # x = 0.6438 per node, and a negative total
        with pytest.raises(ValueError, match="above the limit"):
            seed_population(n, per_node, 0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0", [
        [float("nan"), 0.3, 0.3, 0.4],
        [float("inf"), 0.3, 0.3, 0.4],
        [-0.1, 0.4, 0.3, 0.4],
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.5],
        [[0.25, 0.25], [0.25, 0.25]],
        [1e308, 1e308, 1e308, 0.0],
        [float("inf"), -float("inf"), 0.5, 0.5],
    ], ids=["nan", "inf", "negative", "zero_sum", "short", "matrix", "sum_overflows",
            "inf_minus_inf"])
    def test_rejects_bad_x0(self, x0):
        with pytest.raises(ValueError, match="x0 must be a finite, nonnegative vector of "
                                             "length 4 with a positive, finite sum"):
            seed_population(4, 10, 0.1, x0=x0)

    def test_weighted_seeding_at_max_population(self):
        # rounding the weighted totals places a few more than n * per_node
        pop = seed_population(4, 2**60, 0.0, x0=[0.1, 0.2, 0.3, 0.4])
        assert pop.total > MAX_POPULATION

    def test_max_population_still_runs(self):
        pop = seed_population(4, 2**60, 0.1)
        assert pop.total == MAX_POPULATION
        g = uniform_out_rates(make_graph("ring", 4), 0.2)
        run = fixed_step_run(pop, EpidemicParams.of(4, 0.3, 0.4), g, 2.0, 0.1, (1, 0))
        result = ensemble_average([run])
        assert np.all((run.s + run.i).sum(axis=1) == MAX_POPULATION)
        assert np.allclose(result.mean_x.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(result.mean_x[0], 0.25, rtol=0.0, atol=1e-12)


def reference_fractions(s, i):
    """The count-to-fraction forms the samplers and records once wrote
    out separately, each for its own array rank."""
    tot = s + i
    p = np.divide(i, tot, out=np.zeros(tot.shape), where=tot > 0)
    if tot.ndim == 1:
        return p, tot / tot.sum()
    return p, tot / tot.sum(axis=tot.ndim - 1, keepdims=True)


@pytest.mark.parametrize("shape", [(7,), (5, 7), (3, 5, 7)])
@pytest.mark.parametrize("high", [3, 10**6, 2**58])
def test_fraction_rule_matches_every_former_form(shape, high):
    rng = np.random.default_rng(high % 1000 + len(shape))
    s = rng.integers(0, high, shape, dtype=np.int64)
    i = rng.integers(0, high, shape, dtype=np.int64)
    s[..., 0] = i[..., 0] = 0          # an empty node in every row
    i[..., 1] = 0                      # and an occupied one with no infection
    got, want = _fractions(s, i), reference_fractions(s, i)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


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
        sol = endemic_fixed_point(analyze(params, Mobility(g)))
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
        with pytest.raises(NumericalError, match=r"need dt <= 1\.6666"):
            fixed_step_run(pop, params, g, t_end=5.0, dt=2.0, seed=0)

    def test_overflowing_rates_name_the_node(self):
        # nu + beta overflows at every node; the limit is not 0.0, which no
        # dt could meet, but an error naming float64
        g = uniform_out_rates(make_graph("line", 3), 1e308)
        pop = seed_population(3, 10, 0.1)
        with pytest.raises(NumericalError, match="per-individual event probability "
                                                 "of node 1") as exc:
            fixed_step_run(pop, EpidemicParams.of(3, 1e308, 0.3), g, t_end=1.0, dt=1e-3,
                           seed=0)
        assert "float64" in str(exc.value) and "dt <= 0.0" not in str(exc.value)

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
        with pytest.raises(InputError, match="replica sample grids differ"):
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


def four_block_gillespie(pop0, params, g, t_end, seed, sample_dt=1.0):
    """Reference form of the exact sampler: the rate vector is four blocks
    over separate S and I counts (recoveries, infections, S out-edges, I
    out-edges), and a four-way branch decodes the chosen channel."""
    rng = np.random.default_rng(seed)
    n = g.n
    times = _sample_grid(t_end, sample_dt)
    beta, delta = params.beta, params.delta
    from_k, to_j, edge_rate = out_edges(g)
    s = pop0.s.astype(np.int64).copy()
    i = pop0.i.astype(np.int64).copy()
    out_s = np.empty((len(times), n), dtype=np.int64)
    out_i = np.empty((len(times), n), dtype=np.int64)
    ptr = 0
    t = 0.0
    while True:
        rates = np.concatenate([delta * i, beta * s * _infected_fraction(s, i),
                                edge_rate * s[from_k], edge_rate * i[from_k]])
        total_rate = float(rates.sum())
        if total_rate <= 0.0:
            break
        t += rng.exponential(1.0 / total_rate)
        while ptr < len(times) and times[ptr] <= t:
            out_s[ptr] = s
            out_i[ptr] = i
            ptr += 1
        if t >= t_end:
            break
        cum = np.cumsum(rates)
        ch = int(np.searchsorted(cum, rng.random() * total_rate, side="right"))
        if ch < n:                      # recovery at node ch
            i[ch] -= 1
            s[ch] += 1
        elif ch < 2 * n:                # infection at node ch - n
            k = ch - n
            s[k] -= 1
            i[k] += 1
        elif ch < 2 * n + len(from_k):  # susceptible migration
            e = ch - 2 * n
            s[from_k[e]] -= 1
            s[to_j[e]] += 1
        else:                           # infected migration
            e = ch - 2 * n - len(from_k)
            i[from_k[e]] -= 1
            i[to_j[e]] += 1
    while ptr < len(times):
        out_s[ptr] = s
        out_i[ptr] = i
        ptr += 1
    return SampledRun(times=times, s=out_s, i=out_i)


class TestGillespieStream:
    @pytest.mark.parametrize("per_node", [2, 40])
    @pytest.mark.parametrize("case", list(STREAM_CASES))
    def test_matches_four_block_sampler(self, case, per_node):
        g = STREAM_CASES[case][0]
        params = _heterogeneous_params(g.n)
        pop = seed_population(g.n, per_node, 0.5)
        for r in range(3):
            run = gillespie_run(pop, params, g, t_end=6.0, seed=(37, r), sample_dt=0.5)
            ref = four_block_gillespie(pop, params, g, t_end=6.0, seed=(37, r),
                                       sample_dt=0.5)
            assert np.array_equal(run.times, ref.times)
            assert np.array_equal(run.s, ref.s), r
            assert np.array_equal(run.i, ref.i), r


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


def force_workers(monkeypatch, cpus):
    """Make run_ensemble see `cpus` usable CPUs and fork for any size."""
    monkeypatch.setattr(sismob.stochastic, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(sismob.stochastic, "PARALLEL_MIN_REPLICA_STEPS", 0)


def count_forks(monkeypatch) -> list:
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def figure_ensemble(name):
    cfg = cli.load_figure(name)
    a = analyze(cfg.params, Mobility(cfg.generator))
    pop = seed_population(cfg.n, cfg.population_per_node, cfg.p0, x0=(cfg.x0 or a.mobility.v).x)
    return lambda: run_ensemble(pop, a.params, a.mobility.g, t_end=cfg.t_end, replicas=cfg.replicas,
                                base_seed=cfg.seed, dt=cfg.dt, sample_dt=cfg.sample_dt)


def sparse_ring_ensemble():
    # one person per node and fast mobility: nodes are empty in some
    # replicas and, at some samples, in all of them
    g = uniform_out_rates(make_graph("ring", 6), 1.5)
    params = _heterogeneous_params(6)
    pop = seed_population(6, 1, [1.0, 0.0] * 3)
    return lambda: run_ensemble(pop, params, g, t_end=8.0, replicas=4, base_seed=17,
                                dt=0.05, sample_dt=0.5)


def small_ensemble():
    g, params = small_instance()
    return run_ensemble(seed_population(2, 50, 0.1), params, g, t_end=4.0, replicas=5,
                        base_seed=3, dt=0.05)


def stochastic_scenario(tmp_path) -> str:
    doc = {"schema": 1, "name": "toy", "mode": "stochastic",
           "graph": {"kind": "ring", "n": 4}, "rates": {"uniform_out": {"nu": 0.2}},
           "beta": 0.5, "delta": 0.2, "p0": 0.1, "t_end": 2.0, "dt": 0.05,
           "replicas": 4, "population_per_node": 20, "seed": 1}
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_ensemble(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.mean_p, b.mean_p, equal_nan=True)
    assert np.array_equal(a.mean_x, b.mean_x)
    assert np.array_equal(a.empty_counts, b.empty_counts)
    assert a.replicas == b.replicas


class TestParallelEnsemble:
    @pytest.mark.parametrize("case", ["fig1a", "fig1c", "sparse_ring"])
    def test_workers_match_one_process(self, case, monkeypatch):
        ensemble = sparse_ring_ensemble() if case == "sparse_ring" else figure_ensemble(case)
        force_workers(monkeypatch, 1)
        serial = ensemble()
        # three workers with uneven shares, whatever this machine has
        force_workers(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        parallel = ensemble()
        assert len(forks) == 2
        assert_same_ensemble(parallel, serial)
        if case == "sparse_ring":
            assert np.isnan(serial.mean_p).any()
            assert serial.empty_counts.sum() > 0

    def test_small_ensembles_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(sismob.stochastic, "_usable_cpus", lambda: 4)
        forks = count_forks(monkeypatch)
        small_ensemble()    # 5 x 80 replica-steps
        assert forks == []

    def test_another_thread_keeps_it_in_process(self, monkeypatch):
        force_workers(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            small_ensemble()
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []

    def test_failed_fork_runs_the_share_here(self, monkeypatch):
        force_workers(monkeypatch, 1)
        serial = small_ensemble()
        force_workers(monkeypatch, 3)

        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert_same_ensemble(small_ensemble(), serial)

    def test_no_child_is_left(self, monkeypatch):
        force_workers(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        small_ensemble()
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_worker_error_reaches_the_cli(self, cpus, monkeypatch, tmp_path, capsys):
        # replica 1 runs in a forked child when there are two workers
        sampler = sismob.stochastic.fixed_step_run
        error = NumericalError("per-individual event probability exceeds 1 per step; "
                               "need dt <= 0.125")

        def failing(*args):
            if args[5][1] == 1:
                raise error
            return sampler(*args)

        force_workers(monkeypatch, cpus)
        monkeypatch.setattr(sismob.stochastic, "fixed_step_run", failing)
        code = cli.main(["run", "--scenario", stochastic_scenario(tmp_path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {error}\n"
        assert_no_child_left()

    def test_dead_worker_is_one_error_line(self, monkeypatch, tmp_path, capsys):
        sampler = sismob.stochastic.fixed_step_run

        def dying(*args):
            if args[5][1] == 1:
                os._exit(7)
            return sampler(*args)

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(sismob.stochastic, "fixed_step_run", dying)
        code = cli.main(["run", "--scenario", stochastic_scenario(tmp_path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ensemble worker for replica share 1 of 2 ")
        assert "exit code 7" in err
        assert err.count("\n") == 1
        assert_no_child_left()

    def test_piped_stdout_is_written_once(self, tmp_path):
        src = Path(sismob.stochastic.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        with open(tmp_path / "stdout.txt", "wb") as out:
            proc = subprocess.run([sys.executable, "-m", "sismob.cli", "reproduce",
                                   "--figure", "fig1c", "--out-dir", str(tmp_path / "out")],
                                  stdout=out, stderr=subprocess.PIPE, env=env, timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == b""
        names = ["fig1c.csv", "fig1c_p.svg", "fig1c_report.json", "fig1c_endemic.json",
                 "fig1c_assumptions.txt"]
        expected = "".join(f"wrote {tmp_path / 'out' / name}\n" for name in names)
        assert (tmp_path / "stdout.txt").read_text(encoding="utf-8") == expected


class TestSamplerArguments:
    @pytest.mark.parametrize("replicas, t_end, key", [(10**18, 1.0, "dt"),
                                                      (10**400, 1.0, "dt"),
                                                      (10**18, 1e-12, "sample_dt")],
                             ids=["1e18", "1e400", "t_end_below_sample_dt"])
    def test_ensemble_above_max_steps_names_replicas(self, replicas, t_end, key, monkeypatch):
        # each once raised MemoryError making the list of runs, except
        # 10**400, beyond the float range: OverflowError counting steps
        g, params = small_instance()
        force_workers(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        with pytest.raises(InputError, match=f"^replicas: replicas \\* t_end / {key} = "
                                             f"\\S+ is above the limit of {MAX_STEPS} steps"):
            run_ensemble(seed_population(2, 10, 0.1), params, g, t_end, replicas, 1)
        assert forks == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["dt", "sample_dt", "t_end"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_times_name_the_argument(self, name, value, monkeypatch):
        g, params = small_instance()
        times = {"t_end": 2.0, "dt": 0.05, "sample_dt": 0.5, name: value}
        pop = seed_population(2, 10, 0.1)
        message = f"^{name} must be finite and positive, got"
        with pytest.raises(ValueError, match=message):
            fixed_step_run(pop, params, g, seed=1, **times)
        force_workers(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_ensemble(pop, params, g, replicas=2, base_seed=1, **times)
        assert forks == []
        if name != "dt":
            with pytest.raises(ValueError, match=message):
                gillespie_run(pop, params, g, times["t_end"], 1, sample_dt=times["sample_dt"])
