import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_irreducible_generator, stationary_oracle
from sismob.errors import (
    AsymmetricGraph,
    IsolatedNode,
    NegativeOffDiagonal,
    NonzeroRowSum,
    NotIrreducible,
    TooFewNodes,
    ZeroPopulationEntry,
    ZeroTargetEntry,
)
from sismob.mobility import (
    PopulationDistribution,
    RegionGraph,
    generator_from_rates,
    is_irreducible,
    make_graph,
    metropolis_hastings_rates,
    mobility_laplacian,
    stationary_distribution,
    uniform_out_rates,
    validate_generator,
)

CHAIN_2NODE = [[-0.2, 0.2], [0.1, -0.1]]


class TestValidateGenerator:
    def test_valid_two_node(self):
        g = validate_generator(CHAIN_2NODE)
        assert g.n == 2
        assert np.allclose(g.nu, [0.2, 0.1])

    def test_nonzero_row_sum_names_row(self):
        with pytest.raises(NonzeroRowSum) as exc:
            validate_generator([[-0.2, 0.1], [0.1, -0.1]])
        assert exc.value.row == 0

    def test_single_isolated_region(self):
        g = validate_generator([[0.0]])
        assert g.n == 1 and g.nu[0] == 0.0

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal) as exc:
            validate_generator([[0.1, -0.1], [0.2, -0.2]])
        assert (exc.value.row, exc.value.col) == (0, 1)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            validate_generator(np.zeros((2, 3)))


class TestIrreducibility:
    def test_two_node_bidirectional(self):
        assert is_irreducible(validate_generator(CHAIN_2NODE))

    def test_two_node_one_way(self):
        g = validate_generator([[-0.2, 0.2], [0.0, 0.0]])
        assert not is_irreducible(g)

    def test_line_20(self):
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        assert is_irreducible(g)


class TestMakeGraph:
    def test_line_3(self):
        g = make_graph("line", 3)
        assert set(g.edges) == {(1, 2), (2, 1), (2, 3), (3, 2)}

    def test_complete_3(self):
        g = make_graph("complete", 3)
        assert len(g.edges) == 6

    def test_star_4(self):
        g = make_graph("star", 4)
        assert set(g.edges) == {(1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1)}

    def test_ring_4(self):
        g = make_graph("ring", 4)
        assert (4, 1) in g.edges and (1, 4) in g.edges
        assert g.out_degree(1) == 2

    def test_ring_2_is_line_2(self):
        assert make_graph("ring", 2) == make_graph("line", 2)

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes):
            make_graph("ring", 1)

    def test_unknown_kind(self):
        for n in (4, 1):
            with pytest.raises(ValueError, match="torus"):
                make_graph("torus", n)

    def test_no_self_loops_allowed(self):
        with pytest.raises(ValueError):
            RegionGraph(n=2, edges=((1, 1),))


class TestUniformOutRates:
    def test_ring_4(self):
        g = uniform_out_rates(make_graph("ring", 4), 0.2)
        off = g.q[~np.eye(4, dtype=bool)]
        assert np.allclose(off[off > 0], 0.1)
        assert np.allclose(g.nu, 0.2)

    def test_star_3(self):
        g = uniform_out_rates(make_graph("star", 3), 0.2)
        assert g.q[0, 1] == pytest.approx(0.1)
        assert g.q[1, 0] == pytest.approx(0.2)

    def test_line_2(self):
        g = uniform_out_rates(make_graph("line", 2), 0.2)
        assert g.q[0, 1] == pytest.approx(0.2)
        assert g.q[1, 0] == pytest.approx(0.2)

    def test_isolated_node(self):
        graph = RegionGraph(n=2, edges=((1, 2),))
        with pytest.raises(IsolatedNode) as exc:
            uniform_out_rates(graph, 0.2)
        assert exc.value.node == 2

    def test_rows_sum_exactly_zero(self):
        g = uniform_out_rates(make_graph("line", 7), 0.3)
        assert np.all(g.q.sum(axis=1) == 0.0)


class TestStationaryDistribution:
    def test_symmetric_two_node(self):
        g = validate_generator([[-0.2, 0.2], [0.2, -0.2]])
        assert np.allclose(stationary_distribution(g).x, [0.5, 0.5])

    def test_asymmetric_two_node(self):
        v = stationary_distribution(validate_generator(CHAIN_2NODE))
        assert np.allclose(v.x, [1 / 3, 2 / 3], atol=1e-14)

    def test_complete_uniform(self):
        g = uniform_out_rates(make_graph("complete", 20), 0.2)
        assert np.allclose(stationary_distribution(g).x, 1 / 20, atol=1e-14)

    def test_line_20_closed_form(self):
        # out-degree weighting doubles the mass of interior nodes
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        expect = np.array([1.0] + [2.0] * 18 + [1.0]) / 38.0
        assert np.allclose(stationary_distribution(g).x, expect, atol=1e-12)

    def test_not_irreducible(self):
        g = validate_generator([[-0.2, 0.2], [0.0, 0.0]])
        with pytest.raises(NotIrreducible):
            stationary_distribution(g)

    def test_random_against_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            v = stationary_distribution(g)
            assert np.all(v.x > 0)
            assert np.abs(g.q.T @ v.x).max() <= 1e-12
            assert np.abs(v.x - stationary_oracle(g.q)).max() <= 1e-9


class TestMetropolisHastings:
    def test_complete_uniform_rates_equal(self):
        g = metropolis_hastings_rates(make_graph("complete", 3), np.full(3, 1 / 3), 0.3)
        off = g.q[~np.eye(3, dtype=bool)]
        assert np.allclose(off, off[0])

    def test_line_uniform_target(self):
        g = metropolis_hastings_rates(make_graph("line", 20), np.full(20, 0.05), 0.2)
        v = stationary_distribution(g)
        assert np.abs(v.x - 0.05).max() <= 1e-10

    def test_two_node_detailed_balance(self):
        target = np.array([1 / 3, 2 / 3])
        g = metropolis_hastings_rates(make_graph("line", 2), target, 0.3)
        assert g.q[0, 1] == pytest.approx(0.3)
        assert g.q[1, 0] == pytest.approx(0.15)
        assert target[0] * g.q[0, 1] == pytest.approx(target[1] * g.q[1, 0])

    def test_asymmetric_graph_rejected(self):
        graph = RegionGraph(n=2, edges=((1, 2),))
        with pytest.raises(AsymmetricGraph):
            metropolis_hastings_rates(graph, np.array([0.5, 0.5]), 0.3)

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTargetEntry):
            metropolis_hastings_rates(make_graph("line", 2), np.array([1.0, 0.0]), 0.3)

    @settings(max_examples=25, deadline=None)
    @given(
        weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=8),
        base=st.floats(0.05, 1.0),
    )
    def test_detailed_balance_property(self, weights, base):
        n = len(weights)
        target = np.array(weights) / np.sum(weights)
        g = metropolis_hastings_rates(make_graph("ring", n), target, base)
        balance = target[:, None] * g.q - (target[:, None] * g.q).T
        assert np.abs(balance).max() <= 1e-12
        v = stationary_distribution(g)
        assert np.abs(v.x - target).max() <= 1e-10


class TestMobilityLaplacian:
    def test_two_node_at_stationarity(self):
        g = validate_generator(CHAIN_2NODE)
        v = stationary_distribution(g)
        lstar = mobility_laplacian(g, v)
        assert np.allclose(lstar, [[0.2, -0.2], [-0.1, 0.1]], atol=1e-14)

    def test_single_node(self):
        lstar = mobility_laplacian(validate_generator([[0.0]]), np.ones(1))
        assert lstar == pytest.approx(0.0)

    def test_diagonal_equals_exit_rates_at_v(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            v = stationary_distribution(g)
            lstar = mobility_laplacian(g, v)
            assert np.abs(np.diag(lstar) - g.nu).max() <= 1e-12
            assert np.abs(lstar.sum(axis=1)).max() <= 1e-12
            assert np.abs(v.x @ lstar).max() <= 1e-10

    def test_row_sums_zero_any_x(self):
        rng = np.random.default_rng(6)
        g = random_irreducible_generator(rng, 6)
        x = rng.uniform(0.05, 1.0, 6)
        x /= x.sum()
        lstar = mobility_laplacian(g, x)
        assert np.abs(lstar.sum(axis=1)).max() <= 1e-12
        off = lstar[~np.eye(6, dtype=bool)]
        assert np.all(off <= 0.0)

    def test_zero_population_rejected(self):
        g = validate_generator(CHAIN_2NODE)
        with pytest.raises(ZeroPopulationEntry):
            mobility_laplacian(g, np.array([1.0, 0.0]))


class TestPopulationDistribution:
    def test_rejects_zero_entry(self):
        with pytest.raises(ZeroPopulationEntry) as exc:
            PopulationDistribution(x=np.array([1.0, 0.0]))
        assert exc.value.node == 1

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PopulationDistribution(x=np.array([0.5, 0.6]))


class TestGeneratorFromRates:
    def test_round_trips_a_generator(self):
        g = uniform_out_rates(make_graph("star", 4), 0.2)
        triples = [[i + 1, j + 1, g.q[i, j]]
                   for i in range(4) for j in range(4) if i != j and g.q[i, j] > 0.0]
        assert np.array_equal(generator_from_rates(4, triples).q, g.q)

    def test_uses_one_based_indices(self):
        g = generator_from_rates(2, [[1, 2, 0.2], [2, 1, 0.1]])
        assert np.array_equal(g.q, [[-0.2, 0.2], [0.1, -0.1]])

    @pytest.mark.parametrize("triple", [[0, 1, 0.5], [1, 3, 0.5], [-1, 2, 0.5]])
    def test_rejects_out_of_range_node(self, triple):
        with pytest.raises(ValueError, match="outside node range"):
            generator_from_rates(2, [[1, 2, 0.2], [2, 1, 0.1], triple])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            generator_from_rates(2, [[1, 2, 0.2], [2, 1, 0.1], [1, 1, 0.3]])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            generator_from_rates(2, [[1, 2, 0.2], [2, 1, 0.1], [1, 2, 0.3]])

    @pytest.mark.parametrize("rate", [-0.1, float("nan"), float("inf")])
    def test_rejects_negative_or_nonfinite_rate(self, rate):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            generator_from_rates(2, [[1, 2, rate], [2, 1, 0.1]])

    def test_rejects_fractional_index(self):
        with pytest.raises(TypeError):
            generator_from_rates(2, [[1.5, 2, 0.2]])
