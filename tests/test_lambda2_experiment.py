"""Smoke test of scripts/lambda2_experiment.py: it runs to the end and
prints the lambda2 that a dense eigen-solve gives."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sismob
from sismob.mobility import make_graph, stationary_distribution, uniform_out_rates

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "lambda2_experiment.py"


@pytest.mark.parametrize("graph, n", [("complete", 20), ("star", 300)])
def test_prints_the_eigvalsh_lambda2(graph, n):
    args = [] if graph == "complete" else ["--graph", graph, "--n", str(n)]
    src = Path(sismob.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, str(SCRIPT), *args, "--t-end", "1"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    printed = dict(line.split(None, 1) for line in proc.stdout.splitlines())
    assert printed["graph"] == f"{graph}, n = {n}, nu = 0.2"
    assert printed["verdict"] == "DiseaseFreeStable"
    g = uniform_out_rates(make_graph(graph, n), 0.2)
    v = stationary_distribution(g)
    w = v.x / v.x.max()
    expected = np.linalg.eigvalsh(w[:, None] * -g.q)[1]
    assert abs(float(printed["lambda2"]) - expected) <= 1e-12 * expected
