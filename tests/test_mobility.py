import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sismob.mobility
from conftest import random_irreducible_generator, stationary_oracle
from sismob.errors import InputError, NumericalError
from sismob.mobility import (
    DETAILED_BALANCE_RTOL,
    GRAPH_KINDS,
    GeneratorMatrix,
    PopulationDistribution,
    RegionGraph,
    _out_degrees,
    generator_from_rates,
    is_irreducible,
    make_graph,
    metropolis_hastings_rates,
    mobility_laplacian,
    out_edges,
    stationary_distribution,
    strongly_connected,
    uniform_out_rates,
    validate_generator,
)

CHAIN_2NODE = [[-0.2, 0.2], [0.1, -0.1]]
NAN = float("nan")

# a strongly connected 4-node chain whose bordered solve overflows to a
# NaN residual
EXTREME_RATES_4NODE = [
    (1, 2, 3.239555570315383e-29), (2, 1, 7.253328085587859e+173),
    (2, 3, 3.577704592499509e+252), (3, 2, 4.305269544486299e+241),
    (3, 4, 5.773994854996126e+182), (4, 3, 6.07293370327395e-107),
    (4, 1, 3.7826719437929046e+247), (1, 4, 1.0089379440452083e-208),
]


def edge_set(g):
    return {tuple(e) for e in g.edges.tolist()}


class TestValidateGenerator:
    def test_valid_two_node(self):
        g = validate_generator(CHAIN_2NODE)
        assert g.n == 2
        assert np.allclose(g.nu, [0.2, 0.1])

    def test_nonzero_row_sum_names_row(self):
        with pytest.raises(InputError, match="generator row 0 sums to "):
            validate_generator([[-0.2, 0.1], [0.1, -0.1]])

    def test_single_isolated_region(self):
        g = validate_generator([[0.0]])
        assert g.n == 1 and g.nu[0] == 0.0

    def test_negative_off_diagonal(self):
        with pytest.raises(InputError, match=r"generator entry \(0, 1\) = -0.1 is negative"):
            validate_generator([[0.1, -0.1], [0.2, -0.2]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            validate_generator(np.zeros((2, 3)))

    def test_rejects_nan_and_inf_entries(self):
        with pytest.raises(InputError, match=r"generator entry \(0, 1\) = nan is negative"):
            validate_generator([[-0.1, NAN], [0.2, -0.2]])
        with pytest.raises(InputError, match="generator row 1 sums to nan"):
            validate_generator([[-0.2, 0.2], [0.1, NAN]])
        # a NaN rate whose reverse rate is 0 is in neither direction an
        # edge of Q's positive entries, so the edge-list detailed-balance
        # check never sees it
        with pytest.raises(InputError, match=r"generator entry \(1, 2\) = nan is negative"):
            validate_generator([[-0.2, 0.2, 0.0], [0.1, -0.1, NAN], [0.3, 0.0, -0.3]])

    def test_infinite_rate_is_a_row_sum_error_without_warning(self):
        # the row sums to inf - inf; under filterwarnings = error a numpy
        # warning would fail this before the row-sum error is raised
        with pytest.raises(InputError, match="generator row 0 sums to nan"):
            validate_generator([[-np.inf, np.inf], [0.1, -0.1]])

    @pytest.mark.parametrize("big", [1e308, np.inf])
    def test_row_sum_tolerance_is_per_row(self, big):
        # row 0 sums to 1; a huge rate in row 1 must not widen its tolerance
        with pytest.raises(InputError, match="generator row 0 sums to 1.0,"):
            validate_generator([[-1.0, 2.0], [big, -big]])


def reference_strongly_connected(adjacency) -> bool:
    """The depth-first search with one numpy row scan per node that
    strongly_connected replaced, kept as its reference."""
    n = adjacency.shape[0]
    if n <= 1:
        return True

    def reachable(adj):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            nxt = np.flatnonzero(adj[u] & ~seen)
            seen[nxt] = True
            stack.extend(int(k) for k in nxt)
        return seen.all()

    return reachable(adjacency) and reachable(adjacency.T)


class TestIrreducibility:
    def test_two_node_bidirectional(self):
        assert is_irreducible(validate_generator(CHAIN_2NODE))

    def test_two_node_one_way(self):
        g = validate_generator([[-0.2, 0.2], [0.0, 0.0]])
        assert not is_irreducible(g)

    def test_line_20(self):
        g = uniform_out_rates(make_graph("line", 20), 0.2)
        assert is_irreducible(g)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 80), density=st.floats(0.0, 0.3), cycle=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_the_reference_search(self, n, density, cycle, seed):
        # sparse random digraphs are mostly reducible; a Hamiltonian cycle
        # through a random order makes them strongly connected, and a
        # dropped edge of it usually breaks that again
        rng = np.random.default_rng(seed)
        adj = rng.random((n, n)) < density
        if cycle:
            order = rng.permutation(n)
            adj[order, np.roll(order, -1)] = True
            if rng.random() < 0.5:
                k = rng.integers(n)
                adj[order[k], order[(k + 1) % n]] = False
        np.fill_diagonal(adj, rng.random() < 0.5)
        assert strongly_connected(adj) == reference_strongly_connected(adj)

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 300])
    def test_graph_kinds_agree_with_the_reference_search(self, kind, n):
        adj = uniform_out_rates(make_graph(kind, n), 1.0).q > 0.0
        assert strongly_connected(adj)
        assert reference_strongly_connected(adj)
        adj[0] = False                      # node 0 reaches nothing
        assert not strongly_connected(adj)
        assert not strongly_connected(adj.T)


class TestMakeGraph:
    def test_line_3(self):
        g = make_graph("line", 3)
        assert edge_set(g) == {(1, 2), (2, 1), (2, 3), (3, 2)}

    def test_complete_3(self):
        g = make_graph("complete", 3)
        assert len(g.edges) == 6

    def test_star_4(self):
        g = make_graph("star", 4)
        assert edge_set(g) == {(1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1)}

    def test_ring_4(self):
        g = make_graph("ring", 4)
        assert (4, 1) in edge_set(g) and (1, 4) in edge_set(g)
        assert _out_degrees(g)[0] == 2

    def test_ring_2_is_line_2(self):
        ring, line = make_graph("ring", 2), make_graph("line", 2)
        assert ring.n == line.n and np.array_equal(ring.edges, line.edges)

    def test_edges_are_a_readonly_int_array(self):
        g = RegionGraph(n=3, edges=((1, 2), (2, 3)))
        assert g.edges.dtype == np.int64 and g.edges.shape == (2, 2)
        assert not g.edges.flags.writeable
        assert RegionGraph(n=1, edges=()).edges.shape == (0, 2)

    def test_too_few_nodes(self):
        with pytest.raises(InputError, match="ring graph needs n >= 2, got 1"):
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
        with pytest.raises(InputError, match="node 2 has no outgoing edges"):
            uniform_out_rates(graph, 0.2)

    def test_rows_sum_exactly_zero(self):
        g = uniform_out_rates(make_graph("line", 7), 0.3)
        assert np.all(g.q.sum(axis=1) == 0.0)

    def test_rejects_nan_rate(self):
        for nu in (NAN, [0.2, NAN, 0.2]):
            with pytest.raises(ValueError, match="exit rates must be strictly positive"):
                uniform_out_rates(make_graph("line", 3), nu)


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
        with pytest.raises(InputError, match="needs an irreducible generator"):
            stationary_distribution(g)

    def test_underflowed_entry_is_named(self):
        # irreducible, but v_2 = 1e-600 underflows while the residual is fine
        g = generator_from_rates(2, [(1, 2, 1e-300), (2, 1, 1e300)])
        with pytest.raises(InputError, match=r"stationary probability of node 2 came out "
                                             r"as 0\.0: .* span too many orders of magnitude"):
            stationary_distribution(g)

    def test_failed_solve_of_irreducible_chain_is_not_called_reducible(self):
        g = generator_from_rates(4, EXTREME_RATES_4NODE)
        assert is_irreducible(g)
        with pytest.raises(NumericalError,
                           match="stationary solve .* span too many orders of magnitude"):
            stationary_distribution(g)

    def test_extreme_rates_never_report_reducible(self):
        # strongly connected chains with rates from 1e-300 to 1e300: the
        # solve succeeds or names the float64 range, never reducibility
        rng = np.random.default_rng(3)
        failures = 0
        for _ in range(400):
            n = int(rng.integers(3, 6))
            pairs = [(k, k % n + 1) for k in range(1, n + 1)]
            pairs += [(j, i) for i, j in pairs if rng.random() < 0.5]
            rates = [(i, j, 10.0 ** rng.uniform(-300, 300)) for i, j in pairs]
            try:
                v = stationary_distribution(generator_from_rates(n, rates))
            except (InputError, NumericalError) as exc:
                assert "orders of magnitude" in str(exc)
                failures += 1
            else:
                assert np.all(v.x > 0.0)
        assert failures > 0

    def test_random_against_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = random_irreducible_generator(rng, n)
            v = stationary_distribution(g)
            assert np.all(v.x > 0)
            assert np.abs(g.q.T @ v.x).max() <= 1e-12
            assert np.abs(v.x - stationary_oracle(g.q)).max() <= 1e-9


def solve_calls(monkeypatch) -> list:
    """Count np.linalg.solve calls, which only the bordered LU makes here."""
    calls = []
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def dense_balance(q, v) -> bool:
    """The n x n detailed-balance rule, the reference for `_balanced`:
    (1 - tol) p_ij <= (1 + tol) p_ji for every (i, j), p = diag(v) Q."""
    tol = DETAILED_BALANCE_RTOL * q.shape[0]
    p = q * v[:, None]
    np.fill_diagonal(p, 0.0)
    pt = p.T * (1.0 + tol)
    p *= 1.0 - tol
    p -= pt
    return bool(p.max() <= 0.0)


def reversible_chain(rng, n, density):
    """(g, v) with q_ij = f_ij / v_i for a random symmetric flux f on a
    connected support holding about `density` of the n^2 entries."""
    f = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < density)
    f[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.1, 1.0, n - 1)
    f = np.triu(f, 1)
    f += f.T
    v = rng.uniform(0.5, 2.0, n)
    q = f / v[:, None]
    np.fill_diagonal(q, -q.sum(axis=1))
    return validate_generator(q), v / v.sum()


class TestDetailedBalance:
    """Reversible chains take v from detailed balance along a spanning
    tree, with no linear solve; every other chain takes the bordered LU."""

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_uniform_out_matches_degree_over_nu(self, kind, monkeypatch):
        rng = np.random.default_rng(61)
        n = 1000
        nu = rng.uniform(0.5, 1.5, n)
        g = uniform_out_rates(make_graph(kind, n), nu)
        calls = solve_calls(monkeypatch)
        v = stationary_distribution(g)
        exact = _out_degrees(make_graph(kind, n)) / nu
        exact /= exact.sum()
        assert v.reversible and calls == []
        assert np.abs(v.x / exact - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_metropolis_hastings_returns_its_target(self, kind, monkeypatch):
        rng = np.random.default_rng(67)
        n = 300
        target = rng.uniform(0.5, 5.0, n)
        target /= target.sum()
        g = metropolis_hastings_rates(make_graph(kind, n), target, 0.7)
        calls = solve_calls(monkeypatch)
        v = stationary_distribution(g)
        assert v.reversible and calls == []
        assert np.abs(v.x / target - 1.0).max() <= 1e-14

    def test_one_way_ring_with_chords_takes_the_lu(self, monkeypatch):
        rng = np.random.default_rng(71)
        n = 60
        ring = [(k, k % n + 1) for k in range(1, n + 1)]
        chords = [(k, (k + 7) % n + 1) for k in range(1, n + 1, 5)]
        g = generator_from_rates(n, [(i, j, rng.uniform(0.1, 2.0)) for i, j in ring + chords])
        calls = solve_calls(monkeypatch)
        v = stationary_distribution(g)
        assert not v.reversible and len(calls) == 2
        assert np.abs(g.q.T @ v.x).max() <= 1e-12

    def test_one_sided_rate_takes_the_lu(self, monkeypatch):
        # q_13 > 0 but q_31 = 0 on a line that is reversible on its own
        g = generator_from_rates(3, [(1, 2, 0.3), (2, 1, 0.2), (2, 3, 0.5), (3, 2, 0.4),
                                     (1, 3, 0.1)])
        calls = solve_calls(monkeypatch)
        v = stationary_distribution(g)
        assert not v.reversible and len(calls) == 2
        assert np.abs(v.x - stationary_oracle(g.q)).max() <= 1e-14

    def test_disconnected_reversible_chain_is_not_irreducible(self):
        # two symmetric pairs: the tree from node 0 misses nodes 3 and 4
        g = generator_from_rates(4, [(1, 2, 0.3), (2, 1, 0.3), (3, 4, 0.5), (4, 3, 0.5)])
        with pytest.raises(InputError, match="needs an irreducible generator"):
            stationary_distribution(g)

    def test_complete_graph_is_no_slower_than_the_lu(self, monkeypatch):
        n = 1000
        g = uniform_out_rates(make_graph("complete", n),
                              np.random.default_rng(73).uniform(0.5, 1.5, n))

        def best_of(k):
            times = []
            for _ in range(k):
                start = time.perf_counter()
                v = stationary_distribution(g)
                times.append(time.perf_counter() - start)
            return min(times), v.reversible

        tree = best_of(5)
        monkeypatch.setattr(sismob.mobility, "_detailed_balance", lambda g: None)
        lu = best_of(5)
        assert tree[1] and not lu[1]
        assert tree[0] <= lu[0]


    @pytest.mark.parametrize("density", [0.05, 0.5])
    def test_edge_list_check_matches_the_dense_rule(self, density):
        rng = np.random.default_rng(79)
        seen = set()
        for _ in range(30):
            n = int(rng.integers(3, 60))
            rev, v = reversible_chain(rng, n, density)
            other = random_irreducible_generator(rng, n, extra_edge_prob=density)
            for g, x in ((rev, v), (other, v), (other, stationary_oracle(other.q))):
                edges = np.flatnonzero(g.q > 0.0)
                balanced = sismob.mobility._balanced(g.q, x, edges)
                assert balanced == dense_balance(g.q, x)
                seen.add(balanced)
        assert seen == {True, False}

    @pytest.mark.parametrize("density", [0.05, 0.5])
    def test_scaled_rate_meets_the_dense_rule_at_the_tolerance(self, density):
        # scaling a rate q_ji off the spanning tree leaves v as it is and
        # moves the pair (i, j) across the tolerance near k = +-2
        rng = np.random.default_rng(89)
        n = 40
        g, _ = reversible_chain(rng, n, density)
        v = sismob.mobility._detailed_balance(g)
        edges = np.flatnonzero(g.q > 0.0)
        _, parent = sismob.mobility._spanning_tree(edges, n)
        i, j = next((i, j) for i, j in zip(*np.divmod(edges, n))
                    if parent[j] != i and parent[i] != j)
        tol = DETAILED_BALANCE_RTOL * n
        seen = set()
        for k in (-3.0, -2.01, -2.0, -1.99, -1.0, 1.0, 1.99, 2.0, 2.01, 3.0):
            q = g.q.copy()
            q[j, i] *= 1.0 + k * tol
            q[j, j] = 0.0
            q[j, j] = -q[j].sum()
            got = sismob.mobility._detailed_balance(GeneratorMatrix(q))
            balanced = dense_balance(q, v)
            assert (got is not None) == balanced
            assert not balanced or np.array_equal(got, v)
            seen.add(balanced)
        assert seen == {True, False}


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
        with pytest.raises(InputError, match="needs a symmetric edge set"):
            metropolis_hastings_rates(graph, np.array([0.5, 0.5]), 0.3)

    def test_zero_target_rejected(self):
        with pytest.raises(InputError, match="target distribution entry 2 is not strictly"):
            metropolis_hastings_rates(make_graph("line", 2), np.array([1.0, 0.0]), 0.3)

    def test_nan_target_or_base_rate_rejected(self):
        with pytest.raises(InputError, match="target distribution entry 1 is not strictly"):
            metropolis_hastings_rates(make_graph("line", 2), np.array([NAN, 0.5]), 0.3)
        with pytest.raises(ValueError, match="base_rate must be strictly positive"):
            metropolis_hastings_rates(make_graph("line", 2), np.array([0.5, 0.5]), NAN)

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
        with pytest.raises(InputError, match="population fraction at node 2 is not strictly"):
            mobility_laplacian(g, np.array([1.0, 0.0]))

    def test_nan_population_rejected(self):
        g = validate_generator(CHAIN_2NODE)
        with pytest.raises(InputError, match="population fraction at node 2 is not strictly"):
            mobility_laplacian(g, np.array([0.5, NAN]))


class TestPopulationDistribution:
    def test_rejects_zero_entry(self):
        with pytest.raises(InputError, match="population fraction at node 2 is not strictly"):
            PopulationDistribution(x=np.array([1.0, 0.0]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PopulationDistribution(x=np.array([0.5, 0.6]))

    def test_rejects_nan_entry(self):
        with pytest.raises(InputError, match="population fraction at node 1 is not strictly"):
            PopulationDistribution(x=np.array([NAN, 0.5, 0.25, 0.25]))


class TestOutEdges:
    def test_rebuilds_the_generator_in_row_major_order(self):
        rng = np.random.default_rng(5)
        for g in (random_irreducible_generator(rng, 9), validate_generator([[0.0]]),
                  uniform_out_rates(make_graph("star", 6), 0.4)):
            src, dst, rate = out_edges(g)
            assert (src.dtype, dst.dtype, rate.dtype) == (np.intp, np.intp, np.float64)
            assert np.all(np.diff(src * g.n + dst) > 0)
            q = np.zeros((g.n, g.n))
            q[src, dst] = rate
            np.fill_diagonal(q, -g.nu)
            assert np.array_equal(q, g.q)


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


# ---- the per-edge tuple builder that the edge arrays replaced -----------
# Kept as the reference: the array graph layer must build bit-identical
# generators and reject malformed edge lists with the same messages.

def tuple_edges(kind, n):
    if kind == "line":
        pairs = [(i, i + 1) for i in range(1, n)]
    elif kind == "ring":
        pairs = [(i, i + 1) for i in range(1, n)] + ([(n, 1)] if n >= 3 else [])
    elif kind == "star":
        pairs = [(1, j) for j in range(2, n + 1)]
    else:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [e for (i, j) in pairs for e in ((i, j), (j, i))]


def tuple_check(n, edges):
    seen = set()
    for (i, j) in edges:
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) is not allowed in the edge list")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i}, {j}) outside node range 1..{n}")
        seen.add((i, j))
    if len(seen) != len(edges):
        raise ValueError("duplicate edges in edge list")


def tuple_symmetric(edges):
    s = set(edges)
    return all((j, i) in s for (i, j) in s)


def tuple_generator(n, entries):
    q = np.zeros((n, n))
    for (i, j, rate) in entries:
        q[i - 1, j - 1] = rate
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def tuple_degrees(n, edges):
    deg = np.zeros(n, dtype=int)
    for (i, _) in edges:
        deg[i - 1] += 1
    return deg


def tuple_uniform_out(n, edges, nu):
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (n,))
    deg = tuple_degrees(n, edges)
    return tuple_generator(n, [(i, j, nu[i - 1] / deg[i - 1]) for (i, j) in edges])


def tuple_metropolis_hastings(n, edges, t, base_rate):
    deg = tuple_degrees(n, edges)
    entries = []
    for (i, j) in edges:
        a, b = i - 1, j - 1
        accept = min(1.0, (t[b] * deg[a]) / (t[a] * deg[b]))
        entries.append((i, j, base_rate * accept / deg[a]))
    return tuple_generator(n, entries)


class TestTupleBuilderIdentity:
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 7, 40, 64])
    def test_rate_rules_match(self, kind, n):
        rng = np.random.default_rng(n)
        g, edges = make_graph(kind, n), tuple_edges(kind, n)
        assert [tuple(e) for e in g.edges.tolist()] == edges
        for nu in (0.37, rng.uniform(0.01, 3.0, n)):
            assert np.array_equal(uniform_out_rates(g, nu).q, tuple_uniform_out(n, edges, nu))
        weights = rng.uniform(0.01, 1.0, n)
        for target in (np.full(n, 1.0 / n), weights / weights.sum()):
            assert np.array_equal(metropolis_hastings_rates(g, target, 0.3).q,
                                  tuple_metropolis_hastings(n, edges, target, 0.3))

    @pytest.mark.parametrize("n", [3, 7, 40])
    def test_explicit_rates_match(self, n):
        rng = np.random.default_rng(100 + n)
        all_pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        chosen = [all_pairs[k] for k in rng.permutation(len(all_pairs))[: len(all_pairs) // 2]]
        triples = [(i, j, rng.uniform(0.0, 2.0)) for (i, j) in chosen]
        assert np.array_equal(generator_from_rates(n, triples).q, tuple_generator(n, triples))

    @pytest.mark.parametrize("n, edges", [
        (3, [(1, 2), (2, 2), (0, 1)]),
        (3, [(1, 2), (0, 1), (2, 2)]),
        (3, [(1, 2), (2, 1), (2, 4)]),
        (3, [(1, 2), (2, 1), (1, 2)]),
        (4, [(1, 2), (1, 2), (3, 5), (4, 4)]),
        (3, [(0, 0), (1, 2)]),
        (3, [(1, 2), (-10**30, 10**30)]),
        (3, [(1, 2), (10**30, 10**30)]),
    ], ids=["self_loop", "node_0", "node_n_plus_1", "duplicate", "mixed", "loop_at_0",
            "beyond_int64", "loop_beyond_int64"])
    def test_malformed_edges_raise_the_same_error(self, n, edges):
        with pytest.raises(ValueError) as ref:
            tuple_check(n, edges)
        with pytest.raises(ValueError) as exc:
            RegionGraph(n=n, edges=tuple(edges))
        assert str(exc.value) == str(ref.value)

    def test_symmetry_matches(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            all_pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            edges = [p for p in all_pairs if rng.random() < 0.7]
            assert RegionGraph(n=n, edges=edges).is_symmetric() == tuple_symmetric(edges)
