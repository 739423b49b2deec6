"""Smoke test of scripts/lambda2_experiment.py: it runs to the end,
prints the lambda2 that a dense eigen-solve gives, and solves v and
lambda2 once."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import count_calls

import sismob
import sismob.spectral
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


def test_solves_stationary_and_lambda2_once(monkeypatch, capsys):
    # m_lower, the designed rates, the report and the initial state all
    # read one Mobility record
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--graph", "line", "--n", "300",
                                      "--t-end", "1"])
    stationary = count_calls(monkeypatch, stationary_distribution)
    lambda2 = count_calls(monkeypatch, sismob.spectral.lambda2_weighted)
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert done.value.code == 0
    assert "verdict              DiseaseFreeStable" in capsys.readouterr().out
    assert len(stationary) == 1
    assert len(lambda2) == 1
