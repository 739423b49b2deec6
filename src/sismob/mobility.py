"""Mobility networks: region graphs, CTMC generator matrices, stationary
distributions, and the population-dependent mobility Laplacian L(x).

Nodes are numbered 1..n in graphs and JSON documents; matrices use the
usual 0-based array indexing internally.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from sismob.errors import InputError, NumericalError

ROW_SUM_TOL = 1e-12        # structural identities
RESIDUAL_TOL = 1e-12       # solved stationary distribution
# detailed balance is accepted to this tolerance times n, relative (4 n u
# with u = eps / 2): each step of a path from node 0 rounds v twice, and
# every cycle of the graph is closed by two such paths and one edge
DETAILED_BALANCE_RTOL = 2.0 * np.finfo(float).eps
SIMPLEX_TOL = 1e-12

GRAPH_KINDS = ("line", "ring", "star", "complete")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RegionGraph:
    """Directed graph over regions 1..n; self-loops are not edges. Built
    from (i, j) pairs, `edges` is a read-only (E, 2) int64 array of them."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"need at least 1 node, got {self.n}")
        try:
            e = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            # a node too large for int64 is out of range, and stays so
            # when clipped to n + 1 (or to 0 when negative)
            e = np.clip(np.array(self.edges, dtype=object), 0, self.n + 1)
            e = e.astype(np.int64).reshape(-1, 2)
        i, j = e[:, 0], e[:, 1]
        bad = np.flatnonzero((i == j) | (np.minimum(i, j) < 1) | (np.maximum(i, j) > self.n))
        if bad.size:
            # name the first bad edge as given, not as clipped
            a, b = self.edges[bad[0]]
            if a == b:
                raise ValueError(f"self-loop ({a}, {b}) is not allowed in the edge list")
            raise ValueError(f"edge ({a}, {b}) outside node range 1..{self.n}")
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)
        if np.count_nonzero(self._adjacency()) != len(e):
            raise ValueError("duplicate edges in edge list")

    def _adjacency(self) -> np.ndarray:
        """Dense n x n boolean adjacency, 0-based. At n bytes per row it is
        an eighth of the generator any rate rule builds from the graph."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[self.edges[:, 0] - 1, self.edges[:, 1] - 1] = True
        return adj

    def is_symmetric(self) -> bool:
        adj = self._adjacency()
        return np.array_equal(adj, adj.T)


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Validated CTMC transition-rate matrix: zero row sums, q_ij >= 0 off
    the diagonal. Entry (i, j) is the instantaneous rate from i to j."""

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _readonly(self.q))

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def nu(self) -> np.ndarray:
        """Total exit rate per node, nu_i = -q_ii."""
        return -np.diag(self.q)


def _zero_population(index: int) -> InputError:
    return InputError(f"population fraction at node {index + 1} is not strictly positive")


@dataclass(frozen=True, eq=False)
class PopulationDistribution:
    """Strictly positive fractions on the open simplex (sum 1)."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(self.x))
        # the guards below are written so that NaN fails them
        bad = np.flatnonzero(~(self.x > 0.0))
        if bad.size:
            raise _zero_population(int(bad[0]))
        if abs(float(self.x.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"fractions sum to {self.x.sum()}, expected 1")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True, eq=False)
class StationaryDistribution(PopulationDistribution):
    """The stationary distribution v of a generator; `reversible` is True
    when v is in detailed balance with it, v_i q_ij = v_j q_ji."""

    reversible: bool = False


# ---- construction and validation ----------------------------------------

def validate_generator(q) -> GeneratorMatrix:
    """Check sign pattern and zero row sums, returning the validated matrix.

    Raises InputError naming the offending row.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"generator must be square, got shape {q.shape}")
    n = q.shape[0]
    if n < 1:
        raise InputError("generator must have at least one row")
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    # both guards are written so that a NaN entry fails them
    neg = np.argwhere(~(off >= 0.0))
    if neg.size:
        i, j = map(int, neg[0])
        raise InputError(
            f"generator entry ({i}, {j}) = {float(q[i, j])} is negative off the diagonal"
        )
    # each row's tolerance scales with that row's largest rate, so one
    # large rate elsewhere cannot hide a bad row
    scale = np.maximum(1.0, np.abs(q).max(axis=1))
    # an infinite rate leaves its row a sum of inf and -inf, NaN, which
    # the guard below rejects
    with np.errstate(invalid="ignore"):
        sums = q.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums) <= ROW_SUM_TOL * scale))
    if bad.size:
        i = int(bad[0])
        raise InputError(f"generator row {i} sums to {float(sums[i])}, expected 0")
    return GeneratorMatrix(q=q)


def out_edges(g: GeneratorMatrix):
    """The sparse form of a generator: (src, dst, rate) of every positive
    off-diagonal rate, 0-based, row-major, so each node's out-edges come
    in increasing destination order."""
    # the diagonal is nonpositive, so it never shows up as an edge
    flat = np.flatnonzero(g.q > 0.0)
    return *np.divmod(flat, g.n), g.q.ravel()[flat]


def strongly_connected(adjacency: np.ndarray) -> bool:
    """True iff the boolean adjacency matrix describes a strongly
    connected digraph (forward and reverse reachability from node 0)."""
    n = adjacency.shape[0]
    if n <= 1:
        return True
    return _reaches_all(adjacency, n) and _reaches_all(adjacency.T, n)


def _reaches_all(adj: np.ndarray, n: int) -> bool:
    """True iff node 0 reaches every node of the n x n boolean adjacency."""
    return _spanning_tree(np.flatnonzero(adj), n) is not None


def _spanning_tree(edges: np.ndarray, n: int) -> tuple[list, list] | None:
    """Breadth-first spanning tree from node 0 of the digraph whose edges
    are the flat indices u * n + k of an n x n adjacency, grouped by
    source u in increasing order as `flatnonzero` lists them, returned as
    (order, parent): the nodes in the order they are reached, and the
    node each was reached from (parent[0] = 0). None when some node is
    unreached.

    The walk runs over Python ints and stops once every node is seen, so
    a dense graph reads the edges of a few nodes only; a node's edges
    become ints when it is visited, since turning all n^2 edges of a
    complete graph into ints would cost more than the walk."""
    starts = np.searchsorted(edges, np.arange(0, n * n + 1, n)).tolist()
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    # order grows while it is walked, so the walk is breadth-first
    for u in order:
        if len(order) == n:
            return order, parent
        base = u * n
        for k in edges[starts[u]:starts[u + 1]].tolist():
            k -= base
            if parent[k] < 0:
                parent[k] = u
                order.append(k)
    return None


def is_irreducible(g: GeneratorMatrix) -> bool:
    """True iff the digraph of strictly positive off-diagonal rates is
    strongly connected (Markov-chain irreducibility)."""
    # diagonal entries are <= 0, so they never show up as edges
    return strongly_connected(g.q > 0.0)


def make_graph(kind: str, n: int) -> RegionGraph:
    """Bidirectional line, ring, star (hub = node 1), or complete graph."""
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")
    if n < 2:
        raise InputError(f"{kind} graph needs n >= 2, got {n}")
    if kind == "line":
        i = np.arange(1, n)
        j = i + 1
    elif kind == "ring":
        # for n = 2 the closing edge n -> 1 would repeat the edge 1-2
        i = np.arange(1, n + 1 if n >= 3 else n)
        j = i % n + 1
    elif kind == "star":
        j = np.arange(2, n + 1)
        i = np.ones_like(j)
    else:
        i, j = np.triu_indices(n, k=1)
        i, j = i + 1, j + 1
    # each pair (i, j) followed by its reverse (j, i)
    return RegionGraph(n=n, edges=np.stack([i, j, j, i], axis=1).reshape(-1, 2))


def _out_degrees(g: RegionGraph) -> np.ndarray:
    """Out-degree of every node; raises InputError for a node with none."""
    deg = np.bincount(g.edges[:, 0] - 1, minlength=g.n)
    lonely = np.flatnonzero(deg == 0)
    if lonely.size:
        raise InputError(f"node {int(lonely[0]) + 1} has no outgoing edges")
    return deg


def _generator(g: RegionGraph, rates: np.ndarray) -> GeneratorMatrix:
    """Dense generator with rate k on the graph's edge k; the diagonal
    makes every row sum to zero."""
    q = np.zeros((g.n, g.n))
    q[g.edges[:, 0] - 1, g.edges[:, 1] - 1] = rates
    np.fill_diagonal(q, -q.sum(axis=1))
    return GeneratorMatrix(q=q)


def uniform_out_rates(g: RegionGraph, nu) -> GeneratorMatrix:
    """Split each node's total exit rate nu_i equally among its out-edges:
    q_ij = nu_i / outdegree(i)."""
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (g.n,))
    if not np.all(nu > 0.0):
        raise ValueError("exit rates must be strictly positive")
    src = g.edges[:, 0] - 1
    return _generator(g, nu[src] / _out_degrees(g)[src])


def generator_from_rates(n: int, rates) -> GeneratorMatrix:
    """Generator from explicit `(i, j, rate)` triples with 1-based nodes.

    Each ordered pair (i, j) with i != j in 1..n may appear once, and its
    rate must be finite and nonnegative; unlisted pairs get rate 0.
    """
    pairs, values = [], []
    for (i, j, rate) in rates:
        i, j, rate = operator.index(i), operator.index(j), float(rate)
        if not (np.isfinite(rate) and rate >= 0.0):
            raise ValueError(f"rate ({i}, {j}) = {rate} is not finite and nonnegative")
        pairs.append((i, j))
        values.append(rate)
    # RegionGraph rejects out-of-range nodes, self-loops and duplicate pairs
    return _generator(RegionGraph(n=n, edges=pairs), np.array(values))


def metropolis_hastings_rates(g: RegionGraph, target, base_rate: float) -> GeneratorMatrix:
    """Degree-corrected Metropolis-Hastings rates on a symmetric graph:

        q_ij = base_rate * min(1, target_j d_i / (target_i d_j)) / d_i

    The resulting chain satisfies detailed balance with respect to
    `target`, so `target` is its stationary distribution.
    """
    if not g.is_symmetric():
        raise InputError("Metropolis-Hastings construction needs a symmetric edge set")
    t = target.x if isinstance(target, PopulationDistribution) else np.asarray(target, dtype=float)
    if t.shape != (g.n,):
        raise ValueError(f"target has length {t.shape}, expected {g.n}")
    bad = np.flatnonzero(~(t > 0.0))
    if bad.size:
        raise InputError(f"target distribution entry {int(bad[0])} is not strictly "
                         "positive")
    if not base_rate > 0.0:
        raise ValueError("base_rate must be strictly positive")
    deg = _out_degrees(g)
    src, dst = g.edges[:, 0] - 1, g.edges[:, 1] - 1
    # fmin, like min(1.0, r), gives 1 where r is NaN
    accept = np.fmin(1.0, (t[dst] * deg[src]) / (t[src] * deg[dst]))
    return _generator(g, base_rate * accept / deg[src])


# ---- solved quantities ----------------------------------------------------

def _detailed_balance(g: GeneratorMatrix) -> np.ndarray | None:
    """The v of a reversible chain, summing to 1, or None when Q is not
    reversible to working precision or v leaves the float64 range.

    Kolmogorov's criterion made constructive (Kelly, Reversibility and
    Stochastic Networks, 1979, sec. 1.5): v_k = v_u q_uk / q_ku along a
    spanning tree of Q's support fixes v up to scale, and v is accepted
    only if detailed balance then holds on all of Q (`_balanced`). A
    q_ji of 0 leaves v infinite or fails the check."""
    n = g.n
    edges = np.flatnonzero(g.q > 0.0)
    tree = _spanning_tree(edges, n)
    if tree is None:
        return None
    order, parent = tree
    child = np.array(order[1:])
    up = np.array(parent)[child]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = (g.q[up, child] / g.q[child, up]).tolist()
        w = [1.0] * n
        for k, r in zip(order[1:], ratio):
            w[k] = w[parent[k]] * r
        v = np.array(w)
        v /= v.sum()
    # written so that NaN fails it
    if not np.all(v > 0.0):
        return None
    return v if _balanced(g.q, v, edges) else None


def _balanced(q: np.ndarray, v: np.ndarray, edges: np.ndarray) -> bool:
    """True iff (1 - tol) p_ij <= (1 + tol) p_ji for every (i, j), with
    p = diag(v) Q and tol = DETAILED_BALANCE_RTOL * n. `edges` lists the
    positive q_ij as flat indices (`flatnonzero`); a zero p_ij passes, so
    a sparse Q is checked on `edges` only."""
    n = q.shape[0]
    tol = DETAILED_BALANCE_RTOL * n
    # the edge list costs about 19 ns an edge and the dense check 4 ns an
    # entry (n = 1000), so the list is the cheaper below a fifth of n^2
    if 5 * edges.size < n * n:
        i, j = np.divmod(edges, n)
        p = q.ravel()[edges] * v[i] * (1.0 - tol)
        pt = q[j, i] * v[j] * (1.0 + tol)
    else:
        # two n x n float arrays, as many as the bordered LU holds at once
        p = q * v[:, None]
        np.fill_diagonal(p, 0.0)
        pt = p.T * (1.0 + tol)
        p *= 1.0 - tol
    return bool(np.all(p <= pt))


def stationary_distribution(g: GeneratorMatrix) -> StationaryDistribution:
    """The strictly positive solution of Q^T v = 0, 1^T v = 1 for an
    irreducible generator.

    A reversible chain takes v from detailed balance (`_detailed_balance`)
    with no linear solve, and is marked `reversible`. Any other chain
    takes a dense LU on Q^T with the last row replaced by the
    normalization constraint, plus one iterative-refinement pass to push
    the residual below 1e-12.
    """
    if g.n == 1:
        return StationaryDistribution(x=np.ones(1), reversible=True)
    v = _detailed_balance(g)
    if v is not None:
        return StationaryDistribution(x=v, reversible=True)
    if not is_irreducible(g):
        raise InputError("stationary distribution needs an irreducible generator")
    n = g.n
    m = g.q.T.copy()
    m[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    # the chain is irreducible, so a singular bordered system, or a
    # solution that overflows (leaving a NaN residual) or misses the
    # residual bound, means rates near the float limits
    too_wide = "the mobility rates span too many orders of magnitude for float64"
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            v = np.linalg.solve(m, rhs)
            # one refinement step on the bordered system
            r = g.q.T @ v
            corr = np.concatenate([-r[:-1], [1.0 - v.sum()]])
            v = v + np.linalg.solve(m, corr)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"stationary solve singular: {exc}; {too_wide}") from exc
        resid = float(np.abs(g.q.T @ v).max())
    scale = max(1.0, float(np.abs(g.q).max()))
    if not resid <= RESIDUAL_TOL * scale:
        raise NumericalError(f"stationary solve residual {resid} is above "
                             f"{RESIDUAL_TOL * scale}; {too_wide}")
    # the chain is irreducible, so a nonpositive entry with a small
    # residual is an entry too small for float64
    low = np.flatnonzero(v <= 0.0)
    if low.size:
        raise InputError(f"stationary probability of node {int(low[0]) + 1} came out "
                         f"as {float(v[low[0]])}: {too_wide}")
    return StationaryDistribution(x=v / v.sum())


def mobility_laplacian(g: GeneratorMatrix, x) -> np.ndarray:
    """L(x) with l_ij = -q_ji x_j / x_i off the diagonal and row sums zero,
    as a read-only array.

    At x = v (the stationary distribution) the diagonal equals the exit
    rates nu_i.
    """
    xv = x.x if isinstance(x, PopulationDistribution) else np.asarray(x, dtype=float)
    if xv.shape != (g.n,):
        raise ValueError(f"x has shape {xv.shape}, expected ({g.n},)")
    bad = np.flatnonzero(~(xv > 0.0))
    if bad.size:
        raise _zero_population(int(bad[0]))
    l = -(g.q.T * xv[None, :]) / xv[:, None]
    np.fill_diagonal(l, 0.0)
    np.fill_diagonal(l, -l.sum(axis=1))
    l.setflags(write=False)
    return l
