"""Finite-population stochastic simulation of the coupled SIS/mobility
process.

Two samplers are provided. `gillespie_run` is the exact event-driven
reference. `fixed_step_run` is the discrete-time protocol with one
categorical draw per individual per step (migrate, change disease
state, or stay); it is biased for finite dt but matches the exact
sampler as dt -> 0.

Both samplers step one count vector (S_1..S_n, I_1..I_n) through the
event channels that `_channels` lists.

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

`run_ensemble` splits the replicas across the usable CPUs: share k
holds the replicas r with r = k mod w, the caller runs share 0 and a
forked child each other share. Every replica still draws from its own
(base_seed, r) stream, and the runs are averaged in replica order, so
the result is bit-identical to running them one after another.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from dataclasses import dataclass

import numpy as np

# MAX_STEPS is not used here; it stays importable from this module
from sismob.dynamics import DEFAULT_DT, MAX_STEPS, _require_positive
from sismob.errors import InputError, NumericalError
from sismob.mobility import GeneratorMatrix, out_edges
from sismob.spectral import EpidemicParams

DEFAULT_SAMPLE_DT = 1.0

# the most individuals seed_population places. Head counts are int64, so
# a Population's total must stay below 2**63; the headroom absorbs the
# rounding of weighted seeding, which can place a few more than asked.
MAX_POPULATION = 2**62

# ensembles of fewer replica-steps than this run in the calling process.
# Forking a worker, pickling its runs and reaping it took 2.9 ms, the
# time of about 120 replica-steps at n = 20 (2-core VM, 1 BLAS thread),
# so two workers lose below about 250; this keeps a margin of 8x.
PARALLEL_MIN_REPLICA_STEPS = 2000


def _infected_fraction(s, i):
    """i / (s + i), 0 at an empty node (where i = 0 as well)."""
    return i / np.maximum(s + i, 1)


def _channels(params: EpidemicParams, g: GeneratorMatrix):
    """(leave, lands, rate) per event channel: the entries of the count
    vector (S_1..S_n, I_1..I_n) that the channel moves one individual
    from and to, and its rate per individual there. In this order:

        recovery            I_k -> S_k   delta_k
        infection           S_k -> I_k   beta_k, times i_k / (s_k + i_k)
        migration S, k->j   S_k -> S_j   q_kj
        migration I, k->j   I_k -> I_j   q_kj

    Each block lists the nodes k in order, and each node's out-edges in
    increasing j, as `mobility.out_edges` gives them. The order fixes
    which channel a uniform draw of `gillespie_run` picks, so it is part
    of that sampler's stream. The samplers apply the infected fraction
    (0 at an empty node); its mean field beta p (1 - p) is the
    continuum model's."""
    n = g.n
    src, dst, rate = out_edges(g)
    nodes = np.arange(n)
    leave = np.concatenate([n + nodes, nodes, src, n + src])
    lands = np.concatenate([nodes, n + nodes, dst, n + dst])
    return leave, lands, np.concatenate([params.delta, params.beta, rate, rate])


def _fractions(s, i):
    """(p, x) of counts with nodes on the last axis: the infected fraction
    and each node's share of the total."""
    tot = s + i
    return _infected_fraction(s, i), tot / tot.sum(axis=-1, keepdims=True)


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
        # a Python-int sum, so that a total beyond int64 is seen, not wrapped
        total = sum(s.tolist()) + sum(i.tolist())
        if not 1 <= total <= np.iinfo(np.int64).max:
            raise ValueError(f"the population holds {total} individuals; it needs "
                             f"at least 1 and at most 2**63 - 1")

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def total(self) -> int:
        return int(self.s.sum() + self.i.sum())

    def fractions(self):
        """(p, x): infected fraction per node (0 where empty) and node
        occupancy fraction of the grand total."""
        return _fractions(self.s, self.i)


def seed_population(n: int, per_node: int, p0, x0=None) -> Population:
    """Deterministic integer seeding: node totals follow x0 (uniform when
    omitted) scaled to n * per_node individuals, infected counts are
    round(p0 * total) per node. n * per_node may be at most
    MAX_POPULATION, and the seeded total must be at least 1. x0 must be
    a finite, nonnegative length-n vector with a positive, finite sum."""
    if int(n) * int(per_node) > MAX_POPULATION:
        raise ValueError(f"n * per_node is above the limit of {MAX_POPULATION} individuals")
    if x0 is None:
        totals = np.full(n, per_node, dtype=np.int64)
    else:
        x0 = np.asarray(x0, dtype=float)
        # a sum that overflows, or meets inf - inf, is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            total = x0.sum()
        if not (x0.shape == (n,) and np.all(np.isfinite(x0) & (x0 >= 0.0))
                and 0.0 < total < np.inf):
            raise ValueError(f"x0 must be a finite, nonnegative vector of length {n} "
                             f"with a positive, finite sum")
        totals = np.rint(x0 / total * n * per_node).astype(np.int64)
    p0 = np.broadcast_to(np.asarray(p0, dtype=float), (n,))
    if not np.all((p0 >= 0.0) & (p0 <= 1.0)):
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
        return _fractions(self.s, self.i)


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
    _require_positive(t_end=t_end, sample_dt=sample_dt)
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
    leave, lands, per_head = _channels(params, g)
    si = np.concatenate([pop0.s, pop0.i])
    out = np.empty((len(times), 2 * n), dtype=np.int64)
    ptr = 0
    t = 0.0
    while True:
        rates = per_head * si[leave]
        rates[n:2 * n] *= _infected_fraction(si[:n], si[n:])
        total_rate = float(rates.sum())
        if total_rate <= 0.0:
            break
        t += rng.exponential(1.0 / total_rate)
        while ptr < len(times) and times[ptr] <= t:
            out[ptr] = si
            ptr += 1
        if t >= t_end:
            break
        c = int(np.searchsorted(np.cumsum(rates), rng.random() * total_rate, side="right"))
        si[leave[c]] -= 1
        si[lands[c]] += 1
    out[ptr:] = si
    return SampledRun(times=times, s=out[:, :n], i=out[:, n:])


def step_size_limit(params: EpidemicParams, g: GeneratorMatrix) -> float:
    """Largest dt for which every per-individual event probability per
    step stays at or below 1. A node whose nu_k + max(beta_k, delta_k)
    overflows admits no dt > 0 and raises NumericalError."""
    # beta is validated strictly positive, so every sum is > 0
    with np.errstate(over="ignore"):
        rates = g.nu + np.maximum(params.beta, params.delta)
    if not np.isfinite(rates).all():
        node = int(np.argmin(np.isfinite(rates))) + 1
        raise NumericalError(
            f"per-individual event probability of node {node} has no step limit: "
            "its rates nu + max(beta, delta) are too large for float64")
    return 1.0 / float(rates.max())


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
    _require_positive(t_end=t_end, dt=dt)
    limit = step_size_limit(params, g)
    if dt > limit:
        raise NumericalError("per-individual event probability exceeds 1 per step; "
                             f"need dt <= {limit}")
    rng = np.random.default_rng(seed)
    n = g.n
    times = _sample_grid(t_end, sample_dt)
    target_steps = np.rint(times / dt).astype(np.int64)
    n_steps = int(np.ceil(t_end / dt - 1e-9))
    target_steps[-1] = min(target_steps[-1], n_steps)

    leave, lands, per_head = _channels(params, g)
    # a row's migration channels fill its first columns in channel order,
    # up to the largest out-degree w; its disease channel takes column w
    mig = leave[2 * n:]
    deg = np.bincount(mig, minlength=2 * n)
    w = int(deg.max(initial=0))
    col = np.full(leave.size, w)
    col[2 * n:] = np.arange(mig.size) - (np.cumsum(deg) - deg)[mig]
    rows = np.arange(2 * n)
    width = w + 2
    pv = np.zeros((2 * n, width))
    pv[leave, col] = per_head * dt
    # the cells that can hold individuals (channels, stay) as flat
    # indices into the table, with the row each one lands in
    cell = np.concatenate([leave * width + col, rows * width + w + 1])
    lands = np.concatenate([lands, rows])
    order = np.argsort(lands, kind="stable")
    cell = cell[order]
    # every row receives its own stay cell, so no segment is empty
    starts = np.searchsorted(lands[order], rows)
    infect_dt = params.beta * dt

    si = np.concatenate([pop0.s, pop0.i])
    out = np.empty((len(times), 2 * n), dtype=np.int64)
    ptr = 0
    for step in range(n_steps + 1):
        while ptr < len(times) and target_steps[ptr] == step:
            out[ptr] = si
            ptr += 1
        if step == n_steps:
            break
        s, i = si[:n], si[n:]
        pv[:n, w] = infect_dt * _infected_fraction(s, i)
        moves = rng.multinomial(si, pv)
        si = np.add.reduceat(moves.ravel()[cell], starts)
    return SampledRun(times=times, s=out[:, :n], i=out[:, n:])


def ensemble_average(runs) -> EnsembleResult:
    """Per-node infected fractions averaged across replicas; empty-node
    samples are left out of the average and tallied."""
    if not runs:
        raise ValueError("need at least one run")
    times = runs[0].times
    for r in runs[1:]:
        if r.times.shape != times.shape or not np.array_equal(r.times, times):
            raise InputError("replica sample grids differ")
    s = np.stack([r.s for r in runs])           # (replicas, m, n)
    i = np.stack([r.i for r in runs])
    p, x = _fractions(s, i)
    occupied = s + i > 0
    counts = occupied.sum(axis=0)
    mean_p = np.where(counts > 0, p.sum(axis=0) / np.maximum(counts, 1), np.nan)
    return EnsembleResult(
        times=times,
        mean_p=mean_p,
        mean_x=x.mean(axis=0),
        replicas=len(runs),
        empty_counts=(~occupied).sum(axis=0),
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no CPU affinity on this platform
        return os.cpu_count() or 1


def _worker_count(replicas: int, steps: float) -> int:
    """How many processes share an ensemble: one per usable CPU, or the
    caller alone when it cannot fork safely or the ensemble is too small
    to repay a fork."""
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or replicas * steps < PARALLEL_MIN_REPLICA_STEPS):
        return 1
    return min(_usable_cpus(), replicas)


def _share_child(fd: int, share, k: int):
    """Body of a forked worker: pickle share(k), or the exception that
    stopped it, into the pipe fd. It always leaves through os._exit, so it
    never returns into its caller's frames nor flushes what the parent
    had buffered."""
    status = 1
    try:
        try:
            payload = (True, share(k))
        except Exception as exc:    # the parent raises it
            payload = (False, exc)
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _run_shares(share, w: int) -> list:
    """[share(0), ..., share(w - 1)]. Share 0 runs here and every other
    share in a forked child that sends its result through a pipe; a share
    whose fork fails runs here as well. Every child is reaped before this
    returns or raises."""
    # so that no buffered line is written twice, by the parent and a child
    sys.stdout.flush()
    sys.stderr.flush()
    children = []               # (k, pid, read end of the pipe)
    status = {}
    try:
        for k in range(1, w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:     # no process to spare: run the rest here
                os.close(r)
                os.close(wr)
                break
            if pid == 0:
                os.close(r)
                for _, _, reader in children:
                    reader.close()
                _share_child(wr, share, k)
            os.close(wr)
            children.append((k, pid, os.fdopen(r, "rb")))
        results = {k: share(k) for k in [0, *range(len(children) + 1, w)]}
        sent = {k: reader.read() for k, _, reader in children}
    finally:
        for k, pid, reader in children:
            reader.close()
            status[k] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for k, _, _ in children:
        if status[k] != 0 or not sent[k]:
            raise NumericalError(f"ensemble worker for replica share {k} of {w} ended "
                                 f"with exit code {status[k]} before sending its runs")
        ok, results[k] = pickle.loads(sent[k])
        if not ok:
            raise results[k]
    return [results[k] for k in range(w)]


def run_ensemble(
    pop0: Population,
    params: EpidemicParams,
    g: GeneratorMatrix,
    t_end: float,
    replicas: int,
    base_seed: int,
    dt: float = DEFAULT_DT,
    sample_dt: float = DEFAULT_SAMPLE_DT,
) -> EnsembleResult:
    """Run independent `fixed_step_run` replicas with per-replica streams
    seeded by (base_seed, replica_index) and average them. An ensemble of
    exact `gillespie_run` replicas is `ensemble_average` of a list of them.

    Replica r runs in worker r mod w, with one worker per usable CPU (the
    caller and w - 1 forked children) unless the ensemble is small; the
    result does not depend on w."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    # checked here, NaN and inf included, so that an invalid time never forks
    _require_positive(t_end=t_end, dt=dt, sample_dt=sample_dt)
    # a run records at least one sample, so sample_dt counts as at most
    # t_end, as in the scenario parser
    _require_positive(replicas=replicas, t_end=t_end, dt=dt, sample_dt=min(sample_dt, t_end))
    w = _worker_count(replicas, t_end / dt)

    def share(k):
        return [fixed_step_run(pop0, params, g, t_end, dt, (base_seed, r), sample_dt)
                for r in range(k, replicas, w)]

    runs = [None] * replicas
    for k, share_runs in enumerate(_run_shares(share, w)):
        runs[k::w] = share_runs
    return ensemble_average(runs)
