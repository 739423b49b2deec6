import json

import numpy as np
import pytest

import sismob.cli as cli
from conftest import (
    abscissa_oracle,
    random_endemic_instance,
    random_irreducible_generator,
    random_metzler,
)
from sismob.equilibria import endemic_fixed_point
from sismob.errors import InputError, NumericalError
from sismob.mobility import (
    GRAPH_KINDS,
    generator_from_rates,
    make_graph,
    metropolis_hastings_rates,
    mobility_laplacian,
    stationary_distribution,
    uniform_out_rates,
    validate_generator,
)
from sismob.spectral import (
    DISEASE_FREE_STABLE,
    ENDEMIC_STABLE,
    EpidemicParams,
    analyze,
    classify,
    curing_rates_for_margin,
    jacobian,
    lambda2_weighted,
    m_lower_bound,
    next_generation_matrix,
    reproduction_number,
    spectral_abscissa,
)


def complete20():
    return uniform_out_rates(make_graph("complete", 20), 0.2)


def solved_instance(margin=1e-9):
    """Complete graph, n=20, recovery rates solved from the sufficient
    condition with m = 0.8 * m_lower; nodes 1 and 20 carry the deficit."""
    g = complete20()
    m = 0.8 * m_lower_bound(g)
    delta = curing_rates_for_margin(g, 0.3, m, deficient=[1, 20], margin=margin)
    return EpidemicParams.of(20, 0.3, delta), g


class TestEpidemicParams:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            EpidemicParams.of(2, 0.0, 0.1)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            EpidemicParams.of(2, 0.3, -0.1)

    def test_rejects_nan_rates(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="beta_i must be strictly positive"):
            EpidemicParams.of(4, nan, 0.2)
        with pytest.raises(ValueError, match="delta_i must be nonnegative"):
            EpidemicParams(beta=np.full(2, 0.3), delta=np.array([0.1, nan]))

    def test_broadcast(self):
        p = EpidemicParams.of(3, 0.3, [0.1, 0.2, 0.3])
        assert p.n == 3
        assert np.allclose(p.beta, 0.3)


class TestSpectralAbscissa:
    def test_scalar(self):
        pair = spectral_abscissa(np.array([[0.2]]))
        assert pair.value == pytest.approx(0.2, abs=1e-14)
        assert np.allclose(pair.vector, [1.0])

    def test_negated_laplacian_has_zero_abscissa(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_irreducible_generator(rng, int(rng.integers(2, 8)))
            v = stationary_distribution(g)
            lstar = mobility_laplacian(g, v)
            pair = spectral_abscissa(-lstar)
            assert abs(pair.value) <= 1e-10
            # the Laplacian kills constants, so the dominant vector is flat
            assert np.abs(pair.vector - 1.0 / g.n).max() <= 1e-8

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            m = random_metzler(rng, n)
            pair = spectral_abscissa(m)
            assert pair.value == pytest.approx(abscissa_oracle(m), abs=1e-9)
            assert np.all(pair.vector > 0)
            assert pair.vector.sum() == pytest.approx(1.0)
            assert np.abs(m @ pair.vector - pair.value * pair.vector).max() <= 1e-10

    def test_rejects_non_metzler(self):
        with pytest.raises(InputError, match="negative off-diagonal entry"):
            spectral_abscissa(np.array([[0.0, -0.1], [0.2, 0.0]]))

    def test_rejects_reducible(self):
        with pytest.raises(InputError, match="spectral_abscissa needs an irreducible matrix"):
            spectral_abscissa(np.array([[0.1, 0.0], [0.2, 0.3]]))


class TestReproductionNumber:
    def test_scalar_ratio(self):
        params = EpidemicParams.of(1, 0.3, 0.1)
        a = analyze(params, validate_generator([[0.0]]))
        assert reproduction_number(a) == pytest.approx(3.0)

    def test_overflowing_closed_form_names_r0(self):
        # no eigen-solve runs here, so the message says what R0 came out as
        g = uniform_out_rates(make_graph("line", 3), 0.2)
        with pytest.raises(NumericalError,
                           match=r"^R0 = 1e\+308 / 0.4 = inf is not finite and positive; "
                                 "the rates are too large or too small for float64$"):
            reproduction_number(analyze(EpidemicParams.of(3, 1e308, 0.4), g))

    def test_all_zero_delta_is_singular(self):
        g = complete20()
        with pytest.raises(NumericalError, match=r"L\* \+ D is singular because all recovery "
                                                 "rates are zero"):
            reproduction_number(analyze(EpidemicParams.of(20, 0.3, 0.0), g))

    def test_equal_rates_sit_at_threshold(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            g = random_irreducible_generator(rng, n)
            beta = rng.uniform(0.2, 0.6, n)
            params = EpidemicParams(beta=beta, delta=beta.copy())
            rep = classify(analyze(params, g))
            assert rep.r0 <= 1.0 + 1e-10
            assert rep.mu <= 1e-10

    def test_sign_agreement_on_solved_instance(self):
        params, g = solved_instance()
        rep = classify(analyze(params, g))
        assert np.sign(rep.r0 - 1.0) == np.sign(rep.mu)

    def test_next_generation_matrix_nonnegative(self):
        rng = np.random.default_rng(13)
        params, g = random_endemic_instance(rng, 6)
        lstar = mobility_laplacian(g, stationary_distribution(g))
        a = next_generation_matrix(params, lstar)
        assert np.all(a >= -1e-14)


def heterogeneous_params(rng, n, mu_shift):
    beta = rng.uniform(0.2, 0.5, n)
    delta = beta - mu_shift + rng.uniform(-0.005, 0.005, n)
    return EpidemicParams(beta=beta, delta=delta)


def ngm_radius_oracle(params, lstar) -> float:
    ngm = np.linalg.solve(lstar + np.diag(params.delta), np.diag(params.beta))
    return float(np.abs(np.linalg.eigvals(ngm)).max())


def solver_calls(monkeypatch) -> dict:
    """Count numpy's symmetric and general eigenvalue solves."""
    calls = {"eigvalsh": 0, "eigvals": 0}
    for name in calls:
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSolverPaths:
    """Reversible chains take mu and R0 from symmetric eigen-solves;
    every other chain from general ones. Both paths must match the Perron
    pair of spectral_abscissa and the next-generation matrix's spectral
    radius."""

    def assert_matches_oracles(self, a):
        assert abs(a.mu - spectral_abscissa(jacobian(a.params, a.lstar)).value) <= 1e-10
        r0, r0_oracle = classify(a).r0, ngm_radius_oracle(a.params, a.lstar)
        assert abs(r0 - r0_oracle) <= 1e-10 * r0_oracle

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_uniform_out_is_reversible(self, kind, monkeypatch):
        rng = np.random.default_rng(31)
        calls = solver_calls(monkeypatch)
        for n in (3, 7, 30):
            g = uniform_out_rates(make_graph(kind, n), rng.uniform(0.1, 2.0, n))
            for shift in (-0.05, 0.01, 0.1):
                self.assert_matches_oracles(analyze(heterogeneous_params(rng, n, shift), g))
        # analyze and classify never fall back to the general solve; the
        # oracles make one general solve each per instance
        assert calls["eigvals"] == 9

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_metropolis_hastings_is_reversible(self, kind, monkeypatch):
        rng = np.random.default_rng(37)
        calls = solver_calls(monkeypatch)
        for n in (3, 12):
            target = rng.uniform(0.5, 5.0, n)
            g = metropolis_hastings_rates(make_graph(kind, n), target / target.sum(),
                                          rng.uniform(0.2, 2.0))
            self.assert_matches_oracles(analyze(heterogeneous_params(rng, n, 0.02), g))
        assert calls["eigvals"] == 2

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_directed_cycle_takes_the_general_path(self, scale, monkeypatch):
        # a one-way cycle breaks detailed balance; at scale 1e-6 its
        # mobility is tiny next to beta - delta = 0.3
        g = generator_from_rates(3, [(1, 2, 0.4 * scale), (2, 3, 0.7 * scale),
                                     (3, 1, 0.2 * scale)])
        params = EpidemicParams(beta=np.array([0.6, 0.5, 0.4]),
                                delta=np.array([0.3, 0.2, 0.1]))
        calls = solver_calls(monkeypatch)
        a = analyze(params, g)
        rep = classify(a)
        assert calls["eigvals"] == 2
        assert abs(a.mu - abscissa_oracle(jacobian(a.params, a.lstar))) <= 1e-12
        r0_oracle = ngm_radius_oracle(params, a.lstar)
        assert abs(rep.r0 - r0_oracle) <= 1e-12 * r0_oracle

    def test_reversible_analyze_makes_no_lu_call(self, monkeypatch):
        # v comes from detailed balance and L* = -Q exactly; a one-way ring
        # takes the bordered LU (two solves) and L(v)
        rng = np.random.default_rng(53)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: solves.append(args) or solve(*args))
        n = 200
        for kind in GRAPH_KINDS:
            g = uniform_out_rates(make_graph(kind, n), rng.uniform(0.5, 1.5, n))
            a = analyze(heterogeneous_params(rng, n, 0.01), g)
            assert a.v.reversible and solves == []
            assert np.array_equal(a.lstar, -g.q)
        a = analyze(heterogeneous_params(rng, 40, 0.01), one_way_ring(rng, 40))
        assert not a.v.reversible and len(solves) == 2
        assert np.array_equal(a.lstar, mobility_laplacian(a.g, a.v))

    def test_random_generators_match_oracles(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            params, g = random_endemic_instance(rng, 6)
            a = analyze(params, g)
            assert abs(a.mu - abscissa_oracle(jacobian(a.params, a.lstar))) <= 1e-12
            self.assert_matches_oracles(a)


def one_way_ring(rng, n):
    """A directed cycle with random rates: irreducible, not reversible."""
    return generator_from_rates(
        n, [(k, k % n + 1, rate) for k, rate in enumerate(rng.uniform(0.1, 2.0, n), 1)])


class TestUniformRates:
    """Uniform beta and delta give mu = beta - delta and R0 = beta / delta
    exactly, and a uniform beta alone gives R0 = beta / (beta - mu); none
    of them needs an eigen-solve."""

    RATES = [(0.3, 0.35), (0.3, 0.1), (0.7, 0.9), (1.3, 0.4)]

    def assert_exact(self, g, monkeypatch):
        calls = solver_calls(monkeypatch)
        for beta, delta in self.RATES:
            calls.update(eigvalsh=0, eigvals=0)
            a = analyze(EpidemicParams.of(g.n, beta, delta), g)
            assert (a.mu, reproduction_number(a)) == (beta - delta, beta / delta)
            assert calls == {"eigvalsh": 0, "eigvals": 0}
            assert classify(a).r0 == beta / delta

    @pytest.mark.parametrize("n", [5, 20, 57, 200])
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_closed_forms_are_exact(self, kind, n, monkeypatch):
        rng = np.random.default_rng(n)
        self.assert_exact(uniform_out_rates(make_graph(kind, n), rng.uniform(0.1, 2.0, n)),
                          monkeypatch)

    def test_one_way_ring_is_exact(self, monkeypatch):
        self.assert_exact(one_way_ring(np.random.default_rng(3), 40), monkeypatch)

    def test_uniform_beta_r0_matches_oracle(self, monkeypatch):
        rng = np.random.default_rng(47)
        graphs = [uniform_out_rates(make_graph(kind, 30), rng.uniform(0.1, 2.0, 30))
                  for kind in GRAPH_KINDS] + [one_way_ring(rng, 30)]
        calls = solver_calls(monkeypatch)
        for g in graphs:
            for beta in (0.3, 1.1):
                params = EpidemicParams.of(g.n, beta, rng.uniform(0.05, 0.6, g.n))
                a = analyze(params, g)
                calls.update(eigvalsh=0, eigvals=0)
                r0 = reproduction_number(a)
                assert calls == {"eigvalsh": 0, "eigvals": 0}
                r0_oracle = ngm_radius_oracle(params, a.lstar)
                assert abs(r0 - r0_oracle) <= 1e-12 * r0_oracle


class TestLibraryMatchesReport:
    """The public R0 and m_lower are the numbers classify reports."""

    @pytest.mark.parametrize("name", cli.FIGURES)
    def test_bundled_figures(self, name):
        cfg = cli.load_figure(name)
        a = analyze(cfg.params, cfg.generator)
        report = classify(a)
        assert reproduction_number(a) == report.r0
        assert m_lower_bound(a.g) == report.m_lower

    def test_heterogeneous_line_r0_takes_the_symmetric_path(self, monkeypatch):
        # v is not uniform here, so only a similarity with v in it
        # symmetrizes B^{-1}(L* + D)
        rng = np.random.default_rng(43)
        n = 200
        g = uniform_out_rates(make_graph("line", n), rng.uniform(0.1, 2.0, n))
        a = analyze(heterogeneous_params(rng, n, 0.01), g)
        calls = solver_calls(monkeypatch)
        r0 = reproduction_number(a)
        assert calls == {"eigvalsh": 1, "eigvals": 0}
        r0_oracle = ngm_radius_oracle(a.params, a.lstar)
        assert abs(r0 - r0_oracle) <= 1e-10 * r0_oracle


class TestHeterogeneousLines:
    """Long heterogeneous lines have a small spectral gap, on which an
    iterative eigen-solver converges slowly or not at all."""

    @pytest.mark.parametrize("n", [100, 200])
    def test_gets_verdict_and_endemic_profile(self, n):
        g = uniform_out_rates(make_graph("line", n), 0.2)
        for seed in range(3):
            a = analyze(heterogeneous_params(np.random.default_rng(seed), n, 0.01), g)
            rep = classify(a)
            assert abs(rep.mu - max(np.linalg.eigvals(jacobian(a.params, a.lstar)).real)) <= 1e-10
            assert rep.verdict == ENDEMIC_STABLE
            sol = endemic_fixed_point(a)
            assert sol.residual <= 1e-10
            assert np.all(sol.p_star > 0.0)


class TestLambda2:
    def test_complete_20(self):
        g = complete20()
        lam2 = lambda2_weighted(mobility_laplacian(g, stationary_distribution(g)),
                                stationary_distribution(g))
        assert lam2 == pytest.approx(0.2105, abs=1e-4)

    def test_complete_closed_form(self):
        # uniform complete graph: L* is nu/(n-1) * (n I - J), eigenvalues
        # 0 and nu * n/(n-1)
        for n in (3, 5, 12):
            g = uniform_out_rates(make_graph("complete", n), 0.2)
            v = stationary_distribution(g)
            lam2 = lambda2_weighted(mobility_laplacian(g, v), v)
            assert lam2 == pytest.approx(0.2 + 0.2 / (n - 1), abs=1e-12)

    def test_two_node_symmetric(self):
        g = validate_generator([[-0.2, 0.2], [0.2, -0.2]])
        v = stationary_distribution(g)
        assert lambda2_weighted(mobility_laplacian(g, v), v) == pytest.approx(0.4)

    def test_nonnegative_with_zero_ground_state(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_irreducible_generator(rng, int(rng.integers(2, 9)))
            v = stationary_distribution(g)
            lstar = mobility_laplacian(g, v)
            w = v.x / v.x.max()
            s = 0.5 * (w[:, None] * lstar + lstar.T * w[None, :])
            eig = np.linalg.eigvalsh(s)
            assert abs(eig[0]) <= 1e-10
            assert lambda2_weighted(lstar, v) >= 0.0

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_reversible_matrix_is_not_symmetrized(self, kind):
        # W L* is symmetric in detailed balance, so it matches the
        # symmetrized S that a plain array v gets
        rng = np.random.default_rng(59)
        g = uniform_out_rates(make_graph(kind, 50), rng.uniform(0.5, 1.5, 50))
        v = stationary_distribution(g)
        lstar = -g.q
        assert v.reversible
        assert lambda2_weighted(lstar, v) == pytest.approx(lambda2_weighted(lstar, v.x),
                                                           rel=1e-12)

    def test_overflowing_matrix_is_a_solve_failure(self):
        # W L* + L*^T W overflows; under filterwarnings = error a numpy
        # warning would fail this before the solve failure is raised
        lstar = np.array([[1e308, -1e308], [-1e308, 1e308]])
        with pytest.raises(NumericalError, match="eigen-solve for lambda2 failed"):
            lambda2_weighted(lstar, [0.5, 0.5])


class TestMLowerBound:
    def test_complete_20(self):
        assert m_lower_bound(complete20()) == pytest.approx(-0.0026, abs=1e-4)

    def test_two_node(self):
        g = validate_generator([[-0.2, 0.2], [0.2, -0.2]])
        assert m_lower_bound(g) == pytest.approx(-0.4 / 9)

    def test_always_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_irreducible_generator(rng, int(rng.integers(2, 9)))
            assert m_lower_bound(g) < 0.0


class TestClassify:
    def test_recovery_dominant_is_disease_free(self):
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        beta = np.linspace(0.2, 0.3, 20)
        rep = classify(analyze(EpidemicParams(beta=beta, delta=beta + 0.05), g))
        assert rep.verdict == DISEASE_FREE_STABLE
        assert rep.condition_i and rep.condition_ii and rep.condition_iii

    def test_infection_dominant_is_endemic(self):
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        beta = np.linspace(0.25, 0.35, 20)
        rep = classify(analyze(EpidemicParams(beta=beta, delta=beta - 0.12), g))
        assert rep.verdict == ENDEMIC_STABLE
        assert not rep.condition_ii and not rep.condition_iii

    def test_solved_instance_is_stable_with_condition_iv(self):
        params, g = solved_instance()
        rep = classify(analyze(params, g))
        assert rep.verdict == DISEASE_FREE_STABLE
        assert rep.condition_iv
        assert abs(rep.condition_iv_margin) <= 1e-6  # equality by construction
        assert not rep.condition_iii  # two nodes sit below their beta

    def test_single_node_degenerates_to_scalar_threshold(self):
        g = validate_generator([[0.0]])
        rep = classify(analyze(EpidemicParams.of(1, 0.3, 0.4), g))
        assert rep.lambda2 is None and rep.m_lower is None
        assert rep.verdict == DISEASE_FREE_STABLE
        assert rep.condition_iv

    def test_report_json_fields(self):
        params, g = solved_instance()
        doc = json.loads(classify(analyze(params, g)).to_json())
        assert list(doc) == ["mu", "r0", "lambda2", "m", "m_lower", "verdict",
                             "condition_i", "condition_ii", "condition_iii",
                             "condition_iv", "condition_iv_margin"]

    def test_r0_none_when_all_delta_zero(self):
        g = uniform_out_rates(make_graph("ring", 4), 0.2)
        rep = classify(analyze(EpidemicParams.of(4, 0.3, 0.0), g))
        assert rep.r0 is None
        assert rep.verdict == ENDEMIC_STABLE


class TestCorollaryConditions:
    def test_recovery_dominant(self):
        g = uniform_out_rates(make_graph("ring", 5), 0.2)
        rep = classify(analyze(EpidemicParams.of(5, 0.3, 0.3), g))
        assert rep.condition_i and rep.condition_ii and rep.condition_iii

    def test_necessity_violation_forces_instability(self):
        # beta_1 - delta_1 = 0.25 exceeds nu_1 = 0.2, so condition (i)
        # fails and the disease-free state cannot be stable
        g = validate_generator([[-0.2, 0.2], [0.2, -0.2]])
        params = EpidemicParams(beta=np.array([1.0, 0.3]), delta=np.array([0.75, 0.3]))
        rep = classify(analyze(params, g))
        assert not rep.condition_i
        assert rep.mu > 0.0
        assert rep.verdict == ENDEMIC_STABLE

    def test_necessary_conditions_hold_for_stable_instances(self):
        rng = np.random.default_rng(17)
        found = 0
        for _ in range(60):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            beta = rng.uniform(0.2, 0.5, n)
            slack = rng.uniform(-0.05, 0.15, n)
            params = EpidemicParams(beta=beta, delta=np.maximum(beta + slack, 0.0))
            rep = classify(analyze(params, g))
            if rep.verdict == DISEASE_FREE_STABLE:
                found += 1
                assert rep.condition_i and rep.condition_ii
        assert found > 10

    def test_sufficiency_of_condition_iv(self):
        rng = np.random.default_rng(19)
        found = 0
        for _ in range(60):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            beta = rng.uniform(0.2, 0.5, n)
            delta = beta + rng.uniform(-0.002, 0.05, n)
            rep = classify(analyze(EpidemicParams(beta=beta, delta=delta), g))
            if rep.condition_iv:
                found += 1
                assert rep.mu <= 1e-8
        assert found > 10

    def test_gershgorin_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            beta = rng.uniform(0.2, 0.5, n)
            delta = beta + rng.uniform(0.0, 0.3, n)
            rep = classify(analyze(EpidemicParams(beta=beta, delta=delta), g))
            assert rep.mu <= 1e-10

    def test_degenerate_sigma_reduces_to_m(self):
        # equal deficit everywhere leaves no surplus term
        g = uniform_out_rates(make_graph("ring", 6), 0.2)
        rep = classify(analyze(EpidemicParams.of(6, 0.3, 0.28), g))
        assert rep.condition_iv_margin == pytest.approx(-0.02)
        assert not rep.condition_iv
        rep2 = classify(analyze(EpidemicParams.of(6, 0.3, 0.31), g))
        assert rep2.condition_iv_margin == pytest.approx(0.01)
        assert rep2.condition_iv


class TestCuringRateSolver:
    def test_solved_values(self):
        g = complete20()
        m_low = m_lower_bound(g)
        delta = curing_rates_for_margin(g, 0.3, 0.8 * m_low, deficient=[1, 20],
                                        margin=1e-9)
        assert 0.8 * m_low == pytest.approx(-0.0021, abs=1e-4)
        assert delta[0] == pytest.approx(0.2979, abs=1e-4)
        assert delta[19] == pytest.approx(0.2979, abs=1e-4)
        assert np.allclose(delta[1:19], 0.3198, atol=2e-4)

    def test_margin_is_attained(self):
        params, g = solved_instance(margin=1e-9)
        rep = classify(analyze(params, g))
        assert rep.condition_iv_margin == pytest.approx(1e-9, rel=0.05)

    def test_margin_supremum_rejected(self):
        g = complete20()
        m_low = m_lower_bound(g)
        with pytest.raises(ValueError):
            # at m = 0.8 m_lower the reachable margin tops out below
            # 0.2 * |m_lower|; asking for more must fail
            curing_rates_for_margin(g, 0.3, 0.8 * m_low, deficient=[1, 20],
                                    margin=0.3 * abs(m_low))

    def test_m_above_margin_rejected(self):
        g = complete20()
        with pytest.raises(ValueError):
            curing_rates_for_margin(g, 0.3, 0.01, deficient=[1], margin=0.0)


class TestThresholdEquivalence:
    def test_sign_of_mu_matches_r0(self):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(80):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            beta = rng.uniform(0.1, 0.6, n)
            delta = rng.uniform(0.05, 0.6, n)
            rep = classify(analyze(EpidemicParams(beta=beta, delta=delta), g))
            if abs(rep.r0 - 1.0) > 1e-8:
                checked += 1
                assert np.sign(rep.mu) == np.sign(rep.r0 - 1.0)
        assert checked > 60
