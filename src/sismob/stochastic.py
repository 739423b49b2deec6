"""Finite-population stochastic simulation of the coupled SIS/mobility
process.

Two samplers are provided. `gillespie_run` is the exact event-driven
reference. `fixed_step_run` is the discrete-time protocol with one
categorical draw per individual per step (migrate, change disease
state, or stay); it is biased for finite dt but matches the exact
sampler as dt -> 0.

Event channels at node k, with s_k susceptible and i_k infected:

    recovery            delta_k * i_k
    infection           beta_k * i_k * s_k / (s_k + i_k)   (0 if empty)
    migration S, k->j   q_kj * s_k
    migration I, k->j   q_kj * i_k

The frequency-dependent infection rate has per-node mean field
beta p (1 - p), matching the continuum model.

Both samplers take their migration channels from `mobility.out_edges`,
the generator's one sparse form (the positive off-diagonal entries of q
in row-major order), which the RK4 integrator reads too.

`fixed_step_run` makes one `Generator.multinomial` call per step over
a (2n, w + 2) table, w being the largest out-degree. Rows are the
susceptible pool of each node, then the infected pool. Columns are the
node's out-edges in increasing destination order (q_kj dt), padded with
p = 0 up to w, then the disease transition (infection beta_k dt
i_k/(s_k+i_k) on S rows, recovery delta_k dt on I rows), then "stay".
numpy draws one conditional binomial per column, row by row; a p = 0
column draws nothing from the bit generator and leaves the remaining
probability unchanged, and the last column is never read. So the
stream is consumed exactly as by two multinomials, S pool then I pool,
over the dense columns (migrate to 1..n, disease, stay), the protocol's
original form: every replica is bit-identical to it, and the
(base_seed, replica_index) seed contract is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sismob.errors import GridMismatch, StepTooLarge
from sismob.mobility import GeneratorMatrix, out_edges
from sismob.spectral import EpidemicParams

DEFAULT_SAMPLE_DT = 1.0


@dataclass(frozen=True, eq=False)
class Population:
    """Integer counts per node; susceptible in `s`, infected in `i`."""

    s: np.ndarray
    i: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.int64)
        i = np.asarray(self.i, dtype=np.int64)
        s.setflags(write=False)
        i.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "i", i)
        if s.shape != i.shape or s.ndim != 1:
            raise ValueError("s and i must be 1-d arrays of equal length")
        if np.any(s < 0) or np.any(i < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def total(self) -> int:
        return int(self.s.sum() + self.i.sum())

    def fractions(self):
        """(p, x): infected fraction per node (0 where empty) and node
        occupancy fraction of the grand total."""
        tot = self.s + self.i
        p = np.divide(self.i, tot, out=np.zeros(self.n), where=tot > 0)
        return p, tot / tot.sum()


def seed_population(n: int, per_node: int, p0, x0=None) -> Population:
    """Deterministic integer seeding: node totals follow x0 (uniform when
    omitted) scaled to n * per_node individuals, infected counts are
    round(p0 * total) per node."""
    if x0 is None:
        totals = np.full(n, per_node, dtype=np.int64)
    else:
        x0 = np.asarray(x0, dtype=float)
        totals = np.rint(x0 / x0.sum() * n * per_node).astype(np.int64)
    p0 = np.broadcast_to(np.asarray(p0, dtype=float), (n,))
    if np.any(p0 < 0.0) or np.any(p0 > 1.0):
        raise ValueError("p0 must lie in [0, 1]")
    i = np.rint(p0 * totals).astype(np.int64)
    return Population(s=totals - i, i=i)


@dataclass(frozen=True, eq=False)
class SampledRun:
    """One replica sampled on a uniform grid; counts are (m, n) arrays."""

    times: np.ndarray
    s: np.ndarray
    i: np.ndarray

    def fractions(self):
        tot = self.s + self.i
        p = np.divide(self.i, tot, out=np.zeros(tot.shape), where=tot > 0)
        x = tot / tot.sum(axis=1, keepdims=True)
        return p, x


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Replica-averaged infected fractions. Grid points where a node was
    empty in every replica hold NaN in mean_p (no fraction is defined
    there); empty_counts records how many replicas were excluded per
    sample."""

    times: np.ndarray
    mean_p: np.ndarray
    mean_x: np.ndarray
    replicas: int
    empty_counts: np.ndarray


def _sample_grid(t_end: float, sample_dt: float) -> np.ndarray:
    if sample_dt <= 0.0 or t_end <= 0.0:
        raise ValueError("t_end and sample_dt must be positive")
    m = int(np.floor(t_end / sample_dt + 1e-9))
    times = sample_dt * np.arange(m + 1)
    if times[-1] < t_end - 1e-9 * max(1.0, t_end):
        times = np.append(times, t_end)
    return times


def gillespie_run(
    pop0: Population,
    params: EpidemicParams,
    g: GeneratorMatrix,
    t_end: float,
    seed,
    sample_dt: float = DEFAULT_SAMPLE_DT,
) -> SampledRun:
    """Exact continuous-time simulation, sampled on a uniform grid.

    Each grid point records the state that held at that instant (the
    state just before the first event beyond it).
    """
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
        tot = s + i
        frac = np.divide(i, tot, out=np.zeros(n), where=tot > 0)
        rates = np.concatenate(
            [delta * i, beta * s * frac, edge_rate * s[from_k], edge_rate * i[from_k]]
        )
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


def step_size_limit(params: EpidemicParams, g: GeneratorMatrix) -> float:
    """Largest dt for which every per-individual event probability per
    step stays at or below 1."""
    # beta is validated strictly positive, so worst > 0 always; a sum that
    # overflows leaves worst = inf and a limit of 0, which no dt meets
    with np.errstate(over="ignore"):
        worst = float(np.max(g.nu + np.maximum(params.beta, params.delta)))
    return 1.0 / worst


def fixed_step_run(
    pop0: Population,
    params: EpidemicParams,
    g: GeneratorMatrix,
    t_end: float,
    dt: float,
    seed,
    sample_dt: float = DEFAULT_SAMPLE_DT,
) -> SampledRun:
    """Discrete-time protocol: per step, every individual takes a single
    categorical draw over (migrate to j, change disease state, stay)
    with probabilities q_kj dt, beta_k (i_k/(s_k+i_k)) dt or delta_k dt,
    and the remainder.

    The draws of one step are one multinomial over the (2n, w + 2)
    table of the module docstring: S rows then I rows, each with the
    node's out-edges padded to the largest out-degree w, the disease
    column and the stay column. The state is the length-2n vector of
    S and I counts, rebuilt from the moved counts by an integer sum
    over the cells that land in each row. A step costs O(n w) in the
    multinomial and O(n + E) elsewhere.

    Samples are recorded at the whole step nearest each grid time, so
    grids line up exactly with gillespie_run's for cross-method
    comparisons.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    limit = step_size_limit(params, g)
    if dt > limit:
        raise StepTooLarge(limit)
    rng = np.random.default_rng(seed)
    n = g.n
    beta, delta = params.beta, params.delta

    times = _sample_grid(t_end, sample_dt)
    target_steps = np.rint(times / dt).astype(np.int64)
    n_steps = int(np.ceil(t_end / dt - 1e-9))
    target_steps[-1] = min(target_steps[-1], n_steps)

    src, dst, rate = out_edges(g)
    deg = np.bincount(src, minlength=n)
    w = int(deg.max(initial=0))
    col = np.arange(src.size) - (np.cumsum(deg) - deg)[src]
    rows = np.arange(2 * n)
    width = w + 2
    pv = np.zeros((2 * n, width))
    pv[src, col] = rate * dt
    pv[n + src, col] = rate * dt
    pv[n:, w] = delta * dt
    # the cells that can hold individuals (edges, disease, stay) as flat
    # indices into the table, with the row each one lands in
    cell = np.concatenate([src * width + col, (n + src) * width + col,
                           rows * width + w, rows * width + w + 1])
    lands = np.concatenate([dst, n + dst, (rows + n) % (2 * n), rows])
    order = np.argsort(lands, kind="stable")
    cell = cell[order]
    # every row receives its own stay cell, so no segment is empty
    starts = np.searchsorted(lands[order], rows)
    infect_dt = beta * dt

    si = np.concatenate([pop0.s, pop0.i])
    out_s = np.empty((len(times), n), dtype=np.int64)
    out_i = np.empty((len(times), n), dtype=np.int64)
    ptr = 0
    for step in range(n_steps + 1):
        while ptr < len(times) and target_steps[ptr] == step:
            out_s[ptr] = si[:n]
            out_i[ptr] = si[n:]
            ptr += 1
        if step == n_steps:
            break
        s, i = si[:n], si[n:]
        pv[:n, w] = infect_dt * (i / np.maximum(s + i, 1))
        moves = rng.multinomial(si, pv)
        si = np.add.reduceat(moves.ravel()[cell], starts)
    return SampledRun(times=times, s=out_s, i=out_i)


def ensemble_average(runs) -> EnsembleResult:
    """Per-node infected fractions averaged across replicas; empty-node
    samples are left out of the average and tallied."""
    if not runs:
        raise ValueError("need at least one run")
    times = runs[0].times
    for r in runs[1:]:
        if r.times.shape != times.shape or not np.array_equal(r.times, times):
            raise GridMismatch("replica sample grids differ")
    s = np.stack([r.s for r in runs])           # (replicas, m, n)
    i = np.stack([r.i for r in runs])
    tot = s + i
    occupied = tot > 0
    p = np.divide(i, tot, out=np.zeros(tot.shape), where=occupied)
    counts = occupied.sum(axis=0)
    with np.errstate(invalid="ignore"):
        mean_p = np.where(
            counts > 0,
            p.sum(axis=0) / np.maximum(counts, 1),
            np.nan,
        )
    x = tot / tot.sum(axis=2, keepdims=True)
    return EnsembleResult(
        times=times,
        mean_p=mean_p,
        mean_x=x.mean(axis=0),
        replicas=len(runs),
        empty_counts=(~occupied).sum(axis=0),
    )


def run_ensemble(
    pop0: Population,
    params: EpidemicParams,
    g: GeneratorMatrix,
    t_end: float,
    replicas: int,
    base_seed: int,
    dt: float = 0.01,
    sample_dt: float = DEFAULT_SAMPLE_DT,
) -> EnsembleResult:
    """Run independent `fixed_step_run` replicas with per-replica streams
    seeded by (base_seed, replica_index) and average them. An ensemble of
    exact `gillespie_run` replicas is `ensemble_average` of a list of them."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    runs = [fixed_step_run(pop0, params, g, t_end, dt, (base_seed, r), sample_dt)
            for r in range(replicas)]
    return ensemble_average(runs)
