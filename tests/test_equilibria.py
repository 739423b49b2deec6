import json

import numpy as np
import pytest

import sismob.equilibria
from conftest import random_endemic_instance, random_irreducible_generator
from sismob.dynamics import ModelState, integrate, rhs
from sismob.equilibria import (
    EndemicSolution,
    disease_free,
    endemic_fixed_point,
    h_map,
    lower_box_vector,
)
from sismob.errors import RegimeError
from sismob.mobility import (
    make_graph,
    mobility_laplacian,
    stationary_distribution,
    uniform_out_rates,
    validate_generator,
)
from sismob.spectral import EpidemicParams, Mobility, analyze, classify, next_generation_matrix


def two_region():
    return validate_generator([[-0.2, 0.2], [0.1, -0.1]])


def ngm(g, params):
    return next_generation_matrix(params, mobility_laplacian(g, stationary_distribution(g)))


class TestDiseaseFree:
    def test_is_equilibrium_of_rhs(self):
        rng = np.random.default_rng(3)
        g = random_irreducible_generator(rng, 5)
        st = disease_free(Mobility(g))
        dp, dx = rhs(st, EpidemicParams.of(5, 0.3, 0.1), g)
        assert np.abs(dp).max() <= 1e-12
        assert np.abs(dx).max() <= 1e-12

    def test_two_region_values(self):
        st = disease_free(Mobility(two_region()))
        assert st.x.x == pytest.approx([1.0 / 3.0, 2.0 / 3.0])
        assert np.all(st.p == 0.0)

    def test_single_region(self):
        st = disease_free(Mobility(validate_generator([[0.0]])))
        assert st.p[0] == 0.0
        assert st.x.x[0] == 1.0


class TestHMap:
    def test_fixes_zero(self):
        a = ngm(two_region(), EpidemicParams.of(2, 0.3, 0.1))
        assert np.all(h_map(np.zeros(2), a) == 0.0)

    def test_maps_box_into_box(self):
        rng = np.random.default_rng(5)
        params, g = random_endemic_instance(rng, 5)
        a = ngm(g, params)
        for _ in range(20):
            p = rng.uniform(0.0, 1.0, 5)
            hp = h_map(p, a)
            assert np.all(hp >= 0.0)
            assert np.all(hp <= 1.0 + 1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(6)
        params, g = random_endemic_instance(rng, 4)
        a = ngm(g, params)
        for _ in range(20):
            p = rng.uniform(0.0, 0.9, 4)
            q = p + rng.uniform(0.0, 0.1, 4)
            assert np.all(h_map(q, a) >= h_map(p, a) - 1e-12)


class TestEndemicFixedPoint:
    def test_scalar_closed_form(self):
        sol = endemic_fixed_point(analyze(EpidemicParams.of(1, 0.3, 0.1),
                                          Mobility(validate_generator([[0.0]]))))
        assert sol.p_star[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert sol.residual <= 1e-10

    def test_homogeneous_closed_form(self):
        # identical rates everywhere: mobility cancels and each node solves
        # the scalar balance beta p (1 - p) = delta p
        g = uniform_out_rates(make_graph("ring", 7), 0.4)
        sol = endemic_fixed_point(analyze(EpidemicParams.of(7, 0.5, 0.2), Mobility(g)))
        assert np.abs(sol.p_star - 0.6).max() <= 1e-10

    def test_matches_long_integration(self):
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        beta = np.linspace(0.25, 0.35, 20)
        params = EpidemicParams(beta=beta, delta=beta - 0.12)
        sol = endemic_fixed_point(analyze(params, Mobility(g)))
        v = stationary_distribution(g)
        tr = integrate(ModelState(p=np.full(20, 0.01), x=v), params, g,
                       t_end=400.0, dt=0.05, output_stride=800)
        assert np.abs(tr.p[-1] - sol.p_star).max() <= 1e-6

    def test_unique_limit_from_two_starts(self):
        rng = np.random.default_rng(9)
        params, g = random_endemic_instance(rng, 6)
        sol = endemic_fixed_point(analyze(params, Mobility(g)))
        a = ngm(g, params)
        eps, u = lower_box_vector(a)
        p = eps * u
        for _ in range(200_000):
            nxt = h_map(p, a)
            if np.abs(nxt - p).max() < 1e-13:
                p = nxt
                break
            p = nxt
        assert np.abs(p - sol.p_star).max() <= 1e-9

    def test_rejects_subcritical(self):
        g = two_region()
        with pytest.raises(RegimeError, match=r"no endemic equilibrium: stability margin "
                                              r"-0\.1\d* is not positive"):
            endemic_fixed_point(analyze(EpidemicParams.of(2, 0.3, 0.4), Mobility(g)))

    def test_zero_curing_gives_all_ones(self):
        # with every delta 0, F(1) = 0, so the first Newton step is zero
        cycle = validate_generator([[-0.5, 0.5, 0.0], [0.0, -0.5, 0.5], [0.5, 0.0, -0.5]])
        gens = [two_region(), cycle] + [uniform_out_rates(make_graph(kind, 20), 0.3)
                                        for kind in ("line", "ring", "star", "complete")]
        for g in gens:
            sol = endemic_fixed_point(analyze(EpidemicParams.of(g.n, 0.3, 0.0), Mobility(g)))
            assert sol.iterations == 1
            assert np.abs(sol.p_star - 1.0).max() <= 1e-13
            assert sol.residual <= 1e-10

    def test_uniform_rates_take_the_closed_form(self, monkeypatch):
        # p* = (1 - delta / beta) 1 with no Newton step; with
        # params.uniform_rates reporting no shared value the same instance
        # takes Newton
        n = 1000
        g = uniform_out_rates(make_graph("star", n),
                              np.random.default_rng(17).uniform(0.5, 1.5, n))
        a = analyze(EpidemicParams.of(n, 0.5, 0.2), Mobility(g))
        sol = endemic_fixed_point(a)
        assert sol.iterations == 0
        assert np.array_equal(sol.p_star, np.full(n, 1.0 - 0.2 / 0.5))
        assert sol.residual <= 1e-10
        monkeypatch.setitem(a.params.__dict__, "uniform_rates", (None, None))
        newton = endemic_fixed_point(a)
        assert newton.iterations > 0
        assert np.abs(sol.p_star / newton.p_star - 1.0).max() <= 1e-13

    def test_boundary_error_counts_nodes_from_1(self, monkeypatch):
        g = uniform_out_rates(make_graph("line", 4), 0.3)
        a = analyze(EpidemicParams.of(4, 0.5, np.array([0.2, 0.2, 0.2, 0.1])), Mobility(g))
        monkeypatch.setattr(sismob.equilibria, "_newton",
                            lambda jac, beta, n: (np.array([0.5, 0.4, -1e-3, 0.2]), 3))
        with pytest.raises(RegimeError, match="nonpositive value at node 3;"):
            endemic_fixed_point(a)

    def test_strictly_interior(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            params, g = random_endemic_instance(rng, n)
            sol = endemic_fixed_point(analyze(params, Mobility(g)))
            assert np.all(sol.p_star > 0.0)
            assert np.all(sol.p_star < 1.0)
            assert sol.residual <= 1e-10

    def test_success_tracks_classify_verdict(self):
        # the solver and the spectral verdict must agree on which side of
        # the threshold every instance sits
        rng = np.random.default_rng(21)
        endemic = stable = 0
        for _ in range(40):
            n = int(rng.integers(2, 7))
            g = random_irreducible_generator(rng, n)
            params = EpidemicParams(beta=rng.uniform(0.1, 0.4, n),
                                    delta=rng.uniform(0.1, 0.5, n))
            report = classify(analyze(params, Mobility(g)))
            try:
                endemic_fixed_point(analyze(params, Mobility(g)))
                assert report.verdict == "EndemicStable"
                endemic += 1
            except RegimeError:
                assert report.verdict == "DiseaseFreeStable"
                stable += 1
        assert endemic >= 5 and stable >= 5

    def test_is_fixed_point_of_h_map(self):
        rng = np.random.default_rng(17)
        instances = [random_endemic_instance(rng, int(rng.integers(2, 9)))
                     for _ in range(5)]
        for kind in ("line", "star"):
            n = 15
            beta = rng.uniform(0.2, 0.5, n)
            instances.append((EpidemicParams(beta=beta, delta=beta - 0.05),
                              uniform_out_rates(make_graph(kind, n), 0.3)))
        for params, g in instances:
            sol = endemic_fixed_point(analyze(params, Mobility(g)))
            assert np.abs(h_map(sol.p_star, ngm(g, params)) - sol.p_star).max() <= 1e-10

    def test_newton_needs_few_steps(self):
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        beta = np.linspace(0.25, 0.35, 20)
        for shift in (1e-1, 1e-2, 1e-3, 1e-4):
            sol = endemic_fixed_point(analyze(EpidemicParams(beta=beta, delta=beta - shift),
                                              Mobility(g)))
            assert sol.iterations <= 30

    def test_to_json_round_trips(self):
        sol = endemic_fixed_point(analyze(EpidemicParams.of(1, 0.3, 0.1),
                                          Mobility(validate_generator([[0.0]]))))
        doc = json.loads(sol.to_json())
        assert doc["p_star"] == pytest.approx([2.0 / 3.0])
        assert doc["iterations"] == sol.iterations
        assert doc["residual"] == sol.residual


class TestLowerBoxVector:
    def test_scalar_example(self):
        eps, u = lower_box_vector(np.array([[3.0]]))
        assert u[0] == 1.0
        # H(eps) >= eps means 3 eps / (1 + 3 eps) >= eps, true iff eps <= 2/3
        assert 0.0 < eps <= 2.0 / 3.0

    def test_brackets_the_fixed_point(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            params, g = random_endemic_instance(rng, n)
            a = ngm(g, params)
            eps, u = lower_box_vector(a)
            sol = endemic_fixed_point(analyze(params, Mobility(g)))
            assert np.all(h_map(eps * u, a) >= eps * u - 1e-15)
            assert np.all(sol.p_star >= eps * u - 1e-12)

    def test_rejects_subcritical_matrix(self):
        with pytest.raises(RegimeError, match="stability margin -0.5 is not positive"):
            lower_box_vector(np.array([[0.5]]))


class TestEndemicSolutionType:
    def test_fields(self):
        sol = EndemicSolution(p_star=np.array([0.5]), iterations=3, residual=1e-12)
        assert sol.iterations == 3
        assert sol.p_star[0] == 0.5
