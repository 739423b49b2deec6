"""Acceptance gate: nine numbered criteria, each printing one pass/fail
line. Lines are emitted with capture suspended so they reach the
terminal even under pytest's default fd-level capture.

Shared tolerances and budgets are stated inline next to each criterion.
"""

import sys
import time

import numpy as np
import pytest

from conftest import (
    abscissa_oracle,
    random_endemic_instance,
    random_irreducible_generator,
    random_metzler,
    stationary_oracle,
)
from sismob.dynamics import ModelState, integrate, limit_state
from sismob.equilibria import endemic_fixed_point, h_map, lower_box_vector
from sismob.mobility import (
    make_graph,
    metropolis_hastings_rates,
    mobility_laplacian,
    stationary_distribution,
    uniform_out_rates,
)
from sismob.spectral import (
    DISEASE_FREE_STABLE,
    EpidemicParams,
    Mobility,
    analyze,
    classify,
    curing_rates_for_margin,
    lambda2_weighted,
    m_lower_bound,
    next_generation_matrix,
    reproduction_number,
    spectral_abscissa,
)
from sismob.stochastic import run_ensemble, seed_population


_CAPTURE = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _announce(num: int, desc: str, budget: float, ok: bool, elapsed: float):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {tag} ({elapsed:.2f} s, budget {budget:.0f} s) {desc}\n"
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
        sys.stdout.flush()


def _criterion(num: int, desc: str, budget: float, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        ok = elapsed < budget
    except BaseException:
        _announce(num, desc, budget, False, time.perf_counter() - start)
        raise
    _announce(num, desc, budget, ok, elapsed)
    assert ok, f"criterion {num} ran {elapsed:.2f} s, over the {budget:.0f} s budget"


def complete20():
    g = uniform_out_rates(make_graph("complete", 20), 0.2)
    beta = np.full(20, 0.3)
    return g, beta


def solved_deltas(g, beta):
    v = stationary_distribution(g)
    lstar = mobility_laplacian(g, v)
    lam2 = lambda2_weighted(lstar, v.x)
    m = 0.8 * m_lower_bound(Mobility(g))
    # margin 1e-9 instead of exact equality: at equality the sign of the
    # condition-(iv) slack is roundoff noise, and the tolerance budget
    # (2e-4) dwarfs the nudge
    delta = curing_rates_for_margin(Mobility(g), beta, m, deficient=(1, 20), margin=1e-9)
    return lam2, m, delta


def test_criterion_1_curing_rate_design_numbers():
    def body():
        g, beta = complete20()
        v = stationary_distribution(g)
        lstar = mobility_laplacian(g, v)
        lam2 = lambda2_weighted(lstar, v.x)
        assert abs(lam2 - 0.2105) <= 1e-4
        mlb = m_lower_bound(Mobility(g))
        assert abs(mlb - (-0.0026)) <= 1e-4
        m = 0.8 * mlb
        assert abs(m - (-0.0021)) <= 1e-4
        _, _, delta = solved_deltas(g, beta)
        assert abs(delta[0] - 0.2979) <= 1e-4
        assert abs(delta[19] - 0.2979) <= 1e-4
        assert np.abs(delta[1:19] - 0.3198).max() <= 2e-4

    _criterion(1, "spectral design numbers on the complete 20-node graph",
               1.0, body)


def test_criterion_2_designed_instance_decays():
    def body():
        g, beta = complete20()
        _, _, delta = solved_deltas(g, beta)
        params = EpidemicParams(beta=beta, delta=delta)
        report = classify(analyze(params, Mobility(g)))
        assert report.verdict == DISEASE_FREE_STABLE
        assert report.condition_iv
        v = stationary_distribution(g)
        tr = integrate(ModelState(p=np.full(20, 0.01), x=v), params, g,
                       t_end=200.0, dt=0.01, output_stride=100)
        assert np.abs(tr.p[-1]).max() < 1e-3

    _criterion(2, "designed instance is classified stable and decays",
               5.0, body)


def test_criterion_3_endemic_solver_agrees_with_ode():
    def body():
        rng = np.random.default_rng(301)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            params, g = random_endemic_instance(rng, n)
            sol = endemic_fixed_point(analyze(params, Mobility(g)))
            assert sol.residual <= 1e-10
            v = stationary_distribution(g)
            res = limit_state(g, params, ModelState(p=np.full(n, 0.2), x=v),
                              dt=0.05)
            assert res.converged
            assert np.abs(res.state.p - sol.p_star).max() <= 1e-6

    _criterion(3, "endemic equilibria match long ODE runs on 50 instances",
               30.0, body)


def test_criterion_4_fixed_point_map_properties():
    def body():
        rng = np.random.default_rng(401)
        pairs = 0
        while pairs < 500:
            n = int(rng.integers(2, 9))
            params, g = random_endemic_instance(rng, n)
            lstar = mobility_laplacian(g, stationary_distribution(g))
            a = next_generation_matrix(params, lstar)
            for _ in range(25):
                p = rng.uniform(0.0, 1.0, n)
                q = np.minimum(p + rng.uniform(0.0, 1.0, n) * (1.0 - p), 1.0)
                hp, hq = h_map(p, a), h_map(q, a)
                assert np.all(hq >= hp - 1e-12), "monotonicity"
                assert np.all(hp >= -1e-12) and np.all(hp <= 1.0 + 1e-12), "box"
                pairs += 1
        for _ in range(10):
            n = int(rng.integers(2, 9))
            params, g = random_endemic_instance(rng, n)
            lstar = mobility_laplacian(g, stationary_distribution(g))
            a = next_generation_matrix(params, lstar)
            top = endemic_fixed_point(analyze(params, Mobility(g))).p_star
            eps, u = lower_box_vector(a)
            p = eps * u
            for _ in range(100_000):
                nxt = h_map(p, a)
                done = np.abs(nxt - p).max() < 1e-13
                p = nxt
                if done:
                    break
            assert np.abs(p - top).max() <= 1e-9, "two-start uniqueness"

    _criterion(4, "H-map monotone, box-preserving, single fixed point",
               10.0, body)


def test_criterion_5_threshold_equivalence():
    def body():
        rng = np.random.default_rng(501)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            params = EpidemicParams(beta=rng.uniform(0.05, 0.6, n),
                                    delta=rng.uniform(0.01, 0.6, n))
            v = stationary_distribution(g)
            lstar = mobility_laplacian(g, v)
            mu = spectral_abscissa(
                np.diag(params.beta - params.delta) - lstar).value
            r0 = reproduction_number(analyze(params, Mobility(g)))
            if abs(r0 - 1.0) > 1e-8:
                assert np.sign(mu) == np.sign(r0 - 1.0)
                checked += 1
        assert checked >= 150, "too many near-threshold draws to be meaningful"

    _criterion(5, "sign of the stability margin equals sign of R0 - 1",
               10.0, body)


def test_criterion_6_invariance_suite():
    def body():
        rng = np.random.default_rng(601)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            g = random_irreducible_generator(rng, n)
            params = EpidemicParams(beta=rng.uniform(0.05, 0.8, n),
                                    delta=rng.uniform(0.0, 0.8, n))
            p0 = rng.uniform(0.0, 1.0, n)
            x0 = rng.uniform(0.05, 1.0, n)
            x0 /= x0.sum()
            from sismob.mobility import PopulationDistribution
            tr = integrate(ModelState(p=p0, x=PopulationDistribution(x=x0)),
                           params, g, t_end=8.0, dt=0.01, output_stride=20)
            assert np.all(tr.p >= -1e-9) and np.all(tr.p <= 1.0 + 1e-9)
            assert np.abs(tr.x.sum(axis=1) - 1.0).max() <= 1e-9
            if p0.min() > 0.0:
                assert np.all(tr.p[tr.times >= 1.0] > 0.0)

    _criterion(6, "box, simplex and positivity invariants on 100 trajectories",
               60.0, body)


def test_criterion_7_stochastic_matches_continuum():
    def body():
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        beta = np.linspace(0.2, 0.3, 20)
        v = stationary_distribution(g)
        for regime_delta in (beta + 0.05, beta - 0.12):
            params = EpidemicParams(beta=beta, delta=regime_delta)
            pop = seed_population(20, 1000, 0.01, x0=v.x)
            p0, x0 = pop.fractions()
            res = run_ensemble(pop, params, g, t_end=100.0, replicas=20,
                               base_seed=20260815, dt=0.01, sample_dt=1.0)
            from sismob.mobility import PopulationDistribution
            tr = integrate(ModelState(p=p0, x=PopulationDistribution(x=x0)),
                           params, g, t_end=100.0, dt=0.01, output_stride=100)
            assert np.allclose(tr.times, res.times)
            late = res.times >= 50.0
            gap = np.nanmax(np.abs(res.mean_p[late] - tr.p[late]))
            assert gap <= 0.05

    _criterion(7, "ensemble mean tracks the continuum in both regimes",
               300.0, body)


def test_criterion_8_mobility_reaches_uniform_target():
    def body():
        uniform = np.full(20, 0.05)
        for kind in ("line", "ring", "star", "complete"):
            g = metropolis_hastings_rates(make_graph(kind, 20), uniform, 0.2)
            balance = np.abs(uniform[:, None] * g.q - (uniform[:, None] * g.q).T)
            assert balance.max() <= 1e-12
            x0 = np.linspace(1.5, 0.5, 20)
            x0 /= x0.sum()
            from sismob.mobility import PopulationDistribution
            tr = integrate(ModelState(p=np.full(20, 0.01),
                                      x=PopulationDistribution(x=x0)),
                           EpidemicParams.of(20, 0.3, 0.35), g,
                           t_end=6000.0, dt=0.5, output_stride=1200)
            assert np.abs(tr.x[-1] - uniform).max() <= 1e-6

    _criterion(8, "Metropolis-Hastings rates drive all four graphs to uniform",
               10.0, body)


def test_criterion_9_solvers_match_dense_oracles():
    def body():
        rng = np.random.default_rng(901)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            assert np.abs(stationary_distribution(g).x
                          - stationary_oracle(g.q)).max() <= 1e-9
            m = random_metzler(rng, n)
            assert abs(spectral_abscissa(m).value - abscissa_oracle(m)) <= 1e-9

    _criterion(9, "stationary and abscissa solvers agree with dense oracles",
               10.0, body)
