"""Shared fixtures and random-instance builders.

Random generators are built around a permutation cycle so strong
connectivity holds by construction; extra edges are sprinkled on top.
"""

import sys

import numpy as np

from sismob.mobility import GeneratorMatrix, validate_generator
from sismob.spectral import EpidemicParams


def random_irreducible_generator(rng, n, rate_lo=0.1, rate_hi=1.0,
                                 extra_edge_prob=0.3) -> GeneratorMatrix:
    q = np.zeros((n, n))
    perm = rng.permutation(n)
    for a, b in zip(perm, np.roll(perm, -1)):
        if a != b:
            q[a, b] = rng.uniform(rate_lo, rate_hi)
    extra = rng.random((n, n)) < extra_edge_prob
    np.fill_diagonal(extra, False)
    q[extra] = rng.uniform(rate_lo, rate_hi, size=int(extra.sum()))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return validate_generator(q)


def random_endemic_instance(rng, n):
    """(params, generator) guaranteed endemic: beta - delta > 0 everywhere
    forces the stability margin positive (row sums of B - D - L* are
    beta - delta, a lower bound on the dominant eigenvalue)."""
    g = random_irreducible_generator(rng, n)
    beta = rng.uniform(0.3, 0.5, n)
    delta = beta * rng.uniform(0.2, 0.5, n)
    return EpidemicParams(beta=beta, delta=delta), g


def random_metzler(rng, n):
    """Dense-ish irreducible Metzler matrix with mixed-sign diagonal."""
    m = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
    perm = rng.permutation(n)
    for a, b in zip(perm, np.roll(perm, -1)):
        if a != b:
            m[a, b] = max(m[a, b], rng.uniform(0.1, 1.0))
    np.fill_diagonal(m, rng.uniform(-1.0, 1.0, n))
    return m


def stationary_oracle(q: np.ndarray) -> np.ndarray:
    """Null space of Q^T via SVD, normalized to sum 1."""
    _u, _s, vt = np.linalg.svd(q.T)
    v = vt[-1]
    v = v / v.sum()
    return v


def abscissa_oracle(m: np.ndarray) -> float:
    """Dominant real part from a dense eigensolver."""
    return float(np.linalg.eigvals(m).real.max())


def count_calls(monkeypatch, fn) -> list:
    """Wrap `fn` at every sismob module that holds it; the returned list
    grows by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sismob" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls
