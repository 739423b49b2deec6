"""The benchmark's tracer wraps sismob functions at their import sites
(`perfbench.trace.SITES`); every site must still hold the function its
span is named after, or a traced benchmark run fails to install. The
counts it reads from the calls' arguments and results must also match
what the run did."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import count_calls

import sismob.dynamics
from sismob.cli import run_scenario
from sismob.config import parse_scenario
from sismob.equilibria import endemic_fixed_point
from sismob.spectral import Mobility, analyze
from sismob.stochastic import fixed_step_run, seed_population

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.trace import SITES, Tracer, summarize  # noqa: E402


@pytest.mark.parametrize("modname, attr, span", [site[:3] for site in SITES],
                         ids=[f"{site[0]}.{site[1]}" for site in SITES])
def test_trace_site_resolves(modname, attr, span):
    fn = getattr(importlib.import_module(modname), attr)
    layer, name = span.split(".")
    assert (fn.__module__, fn.__name__) == (f"sismob.{layer}", name)


def scenario(**overrides):
    doc = {"schema": 1, "name": "traced", "graph": {"kind": "line", "n": 4},
           "rates": {"uniform_out": {"nu": 0.3}}, "beta": 0.5, "delta": 0.2, "p0": 0.2}
    doc.update(overrides)
    return parse_scenario(json.dumps(doc))


def test_traced_counts_match_the_run(tmp_path, monkeypatch):
    # both instances are endemic, so each run also solves for p*; one
    # person per node leaves nodes empty in some samples
    det = scenario(name="det", mode="deterministic", t_end=5.0, dt=0.01)
    sto = scenario(name="sto", mode="stochastic", t_end=2.0, dt=0.05, replicas=3,
                   population_per_node=1, seed=7)
    rk4_steps = count_calls(monkeypatch, sismob.dynamics._rk4_step)
    tracer = Tracer()
    tracer.install()
    try:
        for cfg in (det, sto):
            run_scenario(cfg, tmp_path, fmt="all")
    finally:
        tracer.uninstall()
    summary = summarize(tracer.spans)
    counts = {name: agg["counts"] for name, agg in summary.items()}

    # one Mobility record per run: one stationary solve and one lambda2
    assert summary["mobility.stationary_distribution"]["calls"] == 2
    assert summary["spectral.lambda2_weighted"]["calls"] == 2

    assert counts["dynamics.integrate"]["rk4_steps"] == len(rk4_steps) == 500
    assert counts["stochastic.fixed_step_run"]["replica_steps"] == 3 * 40
    empty = 0
    for r in range(3):
        x0 = analyze(sto.params, Mobility(sto.generator)).mobility.v.x
        pop = seed_population(4, 1, sto.p0, x0=x0)
        run = fixed_step_run(pop, sto.params, sto.generator, 2.0, 0.05, (7, r), 1.0)
        empty += int(np.count_nonzero(run.s + run.i == 0))
    assert empty > 0
    assert counts["stochastic.run_ensemble"]["empty_samples"] == empty
    iters = sum(endemic_fixed_point(analyze(cfg.params, Mobility(cfg.generator))).iterations
                for cfg in (det, sto))
    assert counts["equilibria.endemic_fixed_point"]["endemic_iters"] == iters
