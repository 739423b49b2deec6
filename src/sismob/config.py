"""Scenario configuration: strict JSON schema (version 1) for runnable
experiments.

Unknown keys are rejected rather than ignored; a typo in a rate name
should fail loudly, not silently run a different experiment. Error
messages carry the offending key path for the CLI to surface.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from sismob.dynamics import DEFAULT_DT
from sismob.errors import ConfigError, SismobError
from sismob.mobility import (
    GeneratorMatrix,
    PopulationDistribution,
    RegionGraph,
    generator_from_rates,
    make_graph,
    metropolis_hastings_rates,
    stationary_distribution,  # not called here; perfbench/trace.py wraps this import site
    uniform_out_rates,
)
from sismob.spectral import EpidemicParams
from sismob.stochastic import DEFAULT_SAMPLE_DT, MAX_POPULATION, MAX_STEPS

MODES = ("deterministic", "stochastic", "analyze")

# the numerics hold dense n x n arrays (generator, Jacobian, eigen-solves),
# so graph.n is bounded before anything of size n is built
MAX_NODES = 2048

# artifact names are built from the scenario name, so it must stay a
# plain file name inside --out-dir
_SAFE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,99}")

_TOP_KEYS = {
    "schema", "name", "notes", "mode", "graph", "rates", "beta", "delta",
    "p0", "x0", "t_end", "dt", "sample_dt", "replicas",
    "population_per_node", "seed", "expected",
}
_GRAPH_SOURCES = {"kind", "edges", "rates"}
_GRAPH_KEYS = _GRAPH_SOURCES | {"n"}
_RATES_KEYS = {"uniform_out", "metropolis_hastings"}
_UNIFORM_OUT_KEYS = {"nu"}
_MH_KEYS = {"target", "base_rate"}
_EXPECTED_KEYS = {
    "verdict", "condition_iv", "final_max_p_below", "final_p_endemic_tol",
    "x_target", "final_x_gap_below",
}


def _finite(token: str) -> float:
    """JSON number hook: NaN, Infinity and literals beyond the float range
    are rejected before they reach the numerics."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError("<document>", f"non-finite number {token} is not allowed")
    return value


def _finite_int(token: str) -> int:
    _finite(token)
    return int(token)


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key fails instead of keeping its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError("<document>", f"key {key!r} is repeated")
        doc[key] = value
    return doc


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    return value


def _reject_unknown(doc: dict, allowed: set, path: str):
    for key in doc:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(where, "unknown key")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        where = f"{path}.{key}" if path else key
        raise ConfigError(where, "required key is missing")
    return doc[key]


def _by_mode(doc: dict, key: str, required: bool, parse):
    """parse(doc[key]), or None when the key is absent and not required."""
    if key in doc or required:
        return parse(_require(doc, key, ""))
    return None


def _scalar(value, path: str, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    v = float(value)
    if positive and v <= 0.0:
        raise ConfigError(path, f"must be positive, got {v}")
    return v


def _int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be at least {minimum}, got {value}")
    return value


def _vector(value, n: int, path: str, lo=None, hi=None) -> np.ndarray:
    """Scalar or length-n list of numbers, broadcast to a length-n array."""
    if isinstance(value, list):
        if len(value) != n:
            raise ConfigError(path, f"expected length {n}, got {len(value)}")
        arr = np.array([_scalar(v, path) for v in value])
    else:
        arr = np.full(n, _scalar(value, path))
    if lo is not None and np.any(arr < lo):
        raise ConfigError(path, f"entries must be >= {lo}")
    if hi is not None and np.any(arr > hi):
        raise ConfigError(path, f"entries must be <= {hi}")
    return arr


def _weights(value, n: int, path: str) -> np.ndarray:
    """`_vector` of strictly positive entries with a finite sum, divided by
    that sum. Checked after the division, all-negative entries would pass,
    all-zero ones would warn, and an overflowed sum would read as zeros."""
    w = _vector(value, n, path)
    if np.any(w <= 0.0):
        raise ConfigError(path, "entries must be strictly positive")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        raise ConfigError(path, "entries must sum to less than the float64 limit")
    return w / total


@contextmanager
def _reported_as(path: str):
    """Report the errors that bad input raises inside the block as
    ConfigError(path)."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, SismobError) as exc:
        raise ConfigError(path, str(exc)) from exc


@dataclass(eq=False)
class ScenarioConfig:
    """Parsed and validated scenario. `x0` is None when the scenario gives
    none; runs then start from the stationary distribution."""

    name: str
    mode: str
    generator: GeneratorMatrix
    params: EpidemicParams
    p0: np.ndarray | None
    x0: PopulationDistribution | None
    t_end: float | None
    dt: float
    sample_dt: float
    replicas: int | None
    population_per_node: int | None
    seed: int | None
    notes: list = field(default_factory=list)
    expected: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.generator.n


def _build_generator(doc: dict) -> GeneratorMatrix:
    graph_doc = _object(_require(doc, "graph", ""), "graph")
    _reject_unknown(graph_doc, _GRAPH_KEYS, "graph")
    n = _int(_require(graph_doc, "n", "graph"), "graph.n", minimum=1)
    if n > MAX_NODES:
        raise ConfigError("graph.n", f"must be at most {MAX_NODES}, got {n}")
    if len(graph_doc.keys() & _GRAPH_SOURCES) != 1:
        raise ConfigError("graph", "give exactly one of kind, edges or rates")

    rates_doc = doc.get("rates")
    if "rates" in graph_doc:
        if rates_doc is not None:
            raise ConfigError("rates", "graph.rates already assigns rates explicitly")
        path = "graph.rates"
        with _reported_as(path):
            triples = [(_int(i, path), _int(j, path), _scalar(rate, path))
                       for (i, j, rate) in graph_doc["rates"]]
            return generator_from_rates(n, triples)
    if "kind" in graph_doc:
        with _reported_as("graph"):
            graph = make_graph(graph_doc["kind"], n)
    else:
        path = "graph.edges"
        with _reported_as(path):
            edges = tuple((_int(i, path), _int(j, path)) for (i, j) in graph_doc["edges"])
            graph = RegionGraph(n=n, edges=edges)

    if rates_doc is None:
        raise ConfigError("rates", "required key is missing")
    _object(rates_doc, "rates")
    _reject_unknown(rates_doc, _RATES_KEYS, "rates")
    if len(rates_doc) != 1:
        raise ConfigError("rates", "give exactly one rate assignment")

    if "uniform_out" in rates_doc:
        sub = _object(rates_doc["uniform_out"], "rates.uniform_out")
        _reject_unknown(sub, _UNIFORM_OUT_KEYS, "rates.uniform_out")
        nu = _vector(_require(sub, "nu", "rates.uniform_out"), n, "rates.uniform_out.nu")
        with _reported_as("rates.uniform_out"):
            return uniform_out_rates(graph, nu)

    sub = _object(rates_doc["metropolis_hastings"], "rates.metropolis_hastings")
    _reject_unknown(sub, _MH_KEYS, "rates.metropolis_hastings")
    target = _require(sub, "target", "rates.metropolis_hastings")
    base = _scalar(
        _require(sub, "base_rate", "rates.metropolis_hastings"),
        "rates.metropolis_hastings.base_rate",
        positive=True,
    )
    if target == "uniform":
        tvec = np.full(n, 1.0 / n)
    else:
        tvec = _weights(target, n, "rates.metropolis_hastings.target")
    with _reported_as("rates.metropolis_hastings"):
        return metropolis_hastings_rates(graph, tvec, base)


def parse_scenario(text: str) -> ScenarioConfig:
    try:
        doc = json.loads(text, parse_constant=_finite, parse_float=_finite,
                         parse_int=_finite_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    _object(doc, "<document>")
    _reject_unknown(doc, _TOP_KEYS, "")

    schema = _require(doc, "schema", "")
    if schema != 1:
        raise ConfigError("schema", f"unsupported schema version {schema!r}")
    mode = _require(doc, "mode", "")
    if mode not in MODES:
        raise ConfigError("mode", f"expected one of {MODES}, got {mode!r}")

    generator = _build_generator(doc)
    n = generator.n

    beta = _vector(_require(doc, "beta", ""), n, "beta")
    if np.any(beta <= 0.0):
        raise ConfigError("beta", "entries must be strictly positive")
    delta = _vector(_require(doc, "delta", ""), n, "delta", lo=0.0)

    runs, stochastic = mode != "analyze", mode == "stochastic"
    p0 = _by_mode(doc, "p0", runs, lambda v: _vector(v, n, "p0", lo=0.0, hi=1.0))

    x0 = None
    if "x0" in doc:
        x = _weights(doc["x0"], n, "x0")
        with _reported_as("x0"):
            x0 = PopulationDistribution(x=x)

    t_end = _by_mode(doc, "t_end", runs, lambda v: _scalar(v, "t_end", positive=True))
    dt = _scalar(doc.get("dt", DEFAULT_DT), "dt", positive=True)
    sample_dt = _scalar(doc.get("sample_dt", DEFAULT_SAMPLE_DT), "sample_dt", positive=True)
    if t_end is not None and sample_dt > t_end:
        sample_dt = t_end
    if runs:
        # a run takes t_end / dt steps; a stochastic run also allocates
        # t_end / sample_dt samples up front, a deterministic one records
        # at most one per step. An overflowing quotient is inf and fails.
        for key, step in (("dt", dt), ("sample_dt", sample_dt)):
            if (key == "dt" or stochastic) and not t_end / step <= MAX_STEPS:
                raise ConfigError(key, f"t_end / {key} = {t_end / step:.3g} is above "
                                       f"the limit of {MAX_STEPS} steps")

    replicas = _by_mode(doc, "replicas", stochastic, lambda v: _int(v, "replicas", minimum=1))
    pop_per_node = _by_mode(doc, "population_per_node", stochastic,
                            lambda v: _int(v, "population_per_node", minimum=1))
    if stochastic and n * pop_per_node > MAX_POPULATION:
        raise ConfigError("population_per_node",
                          f"n * population_per_node = {n * pop_per_node} is above "
                          f"the limit of {MAX_POPULATION} individuals")
    seed = _by_mode(doc, "seed", stochastic, lambda v: _int(v, "seed", minimum=0))
    if stochastic:
        # an ensemble takes replicas times one run's steps and samples
        for key, step in (("dt", dt), ("sample_dt", sample_dt)):
            if not replicas * t_end / step <= MAX_STEPS:
                raise ConfigError("replicas", f"replicas * t_end / {key} = "
                                  f"{replicas * t_end / step:.3g} is above the limit "
                                  f"of {MAX_STEPS} steps")

    notes = doc.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(s, str) for s in notes):
        raise ConfigError("notes", "expected a list of strings")
    expected = _object(doc.get("expected", {}), "expected")
    _reject_unknown(expected, _EXPECTED_KEYS, "expected")

    name = doc.get("name", "scenario")
    if not isinstance(name, str) or not _SAFE_NAME.fullmatch(name):
        raise ConfigError(
            "name", "expected a file name of letters, digits, '.', '_' or '-' "
            "that starts with a letter or digit (at most 100 characters)"
        )

    return ScenarioConfig(
        name=name,
        mode=mode,
        generator=generator,
        params=EpidemicParams(beta=beta, delta=delta),
        p0=p0,
        x0=x0,
        t_end=t_end,
        dt=dt,
        sample_dt=sample_dt,
        replicas=replicas,
        population_per_node=pop_per_node,
        seed=seed,
        notes=list(notes),
        expected=dict(expected),
    )


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    return parse_scenario(text)
