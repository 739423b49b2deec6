"""Tests of the benchmark itself: span self-time arithmetic, generator
determinism, the dense oracle on hand-solved cases, and the output checks.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import checks, oracle  # noqa: E402
from perfbench.trace import Span, Tracer, self_times, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [
        Span(0, -1, "cli.run_scenario", 0.0, 10.0),
        Span(1, 0, "spectral.classify", 1.0, 4.0),
        Span(2, 1, "spectral.spectral_abscissa", 2.0, 3.0),
        Span(3, 0, "dynamics.integrate", 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    agg = summarize(spans)
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(10.0)
    assert agg["spectral.classify"]["total_s"] == 3.0
    assert agg["spectral.classify"]["self_s"] == 2.0


def test_tracer_records_parents_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("x.inner", lambda k: k + 1, lambda out, a, kw: {"n": out})
    outer = tracer.wrap("x.outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("x.outer", -1), ("x.inner", 0), ("x.inner", 0)]
    assert summarize(tracer.spans)["x.inner"]["counts"]["n"] == 5
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(tracer.spans[0].duration - tracer.spans[1].duration
                                   - tracer.spans[2].duration)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    a = generate(name, 7, tmp_path / "a")
    b = generate(name, 7, tmp_path / "b")
    c = generate(name, 8, tmp_path / "c")
    assert a["sha256"] == b["sha256"]
    assert a["blocks"] == b["blocks"]
    for fname, digest in a["sha256"].items():
        data = (tmp_path / "a" / fname).read_bytes()
        assert data == (tmp_path / "b" / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    assert a["sha256"] != c["sha256"]
    assert len(a["blocks"]) == WORKLOADS[name].blocks


def test_sweep_design_is_balanced(tmp_path):
    manifest = generate("sweep", 3, tmp_path)
    files = [f for block in manifest["blocks"] for f in block]
    assert len(files) == 96
    expect = json.loads((tmp_path / "expect.json").read_text())
    endemic = sum(1 for f in files if expect[f]["mu"] > 0)
    assert endemic == 72  # 3:1
    mus = sorted(abs(expect[f]["mu"]) for f in files)
    assert 1e-3 <= mus[0] and mus[-1] <= 1e-1


def _two_node_doc(a, b, beta, delta):
    # a line with n = 2: node 1 leaves at rate a, node 2 at rate b
    return {"graph": {"kind": "line", "n": 2}, "rates": {"uniform_out": {"nu": [a, b]}},
            "beta": beta, "delta": delta}


def test_oracle_two_node_hand_case():
    a, b = 0.3, 0.7
    r1, r2 = 0.2, -0.1
    doc = _two_node_doc(a, b, [0.5, 0.4], [0.5 - r1, 0.4 - r2])
    q = oracle.generator(doc)
    np.testing.assert_allclose(q, [[-a, a], [b, -b]])
    v = oracle.stationary(q)
    np.testing.assert_allclose(v, [b / (a + b), a / (a + b)], rtol=1e-14)
    # two nodes are always reversible, so L* = -Q and J = diag(r) + Q
    jac = oracle.jacobian(q, v, doc["beta"], doc["delta"])
    np.testing.assert_allclose(jac, [[r1 - a, a], [b, r2 - b]], atol=1e-15)
    tr, det = r1 - a + r2 - b, (r1 - a) * (r2 - b) - a * b
    mu = tr / 2 + math.sqrt(tr * tr / 4 - det)
    assert oracle.abscissa(jac) == pytest.approx(mu, abs=1e-14)


def test_oracle_endemic_symmetric_hand_case():
    # equal rates everywhere: p* = (beta - delta) / beta at every node
    doc = _two_node_doc(0.4, 0.4, [0.5, 0.5], [0.3, 0.3])
    q = oracle.generator(doc)
    jac = oracle.jacobian(q, oracle.stationary(q), doc["beta"], doc["delta"])
    assert oracle.abscissa(jac) == pytest.approx(0.2, abs=1e-14)
    assert oracle.reproduction_number(q, oracle.stationary(q), doc["beta"], doc["delta"]) \
        == pytest.approx(0.5 / 0.3, rel=1e-14)
    p = oracle.endemic(jac, doc["beta"])
    np.testing.assert_allclose(p, [0.4, 0.4], rtol=1e-13)
    assert oracle.residual(jac, doc["beta"], p) < 1e-15


def _analyze_case(tmp_path, mu_reported, verdict, r0_reported=0.5 / 0.7):
    doc = _two_node_doc(0.4, 0.4, [0.5, 0.5], [0.7, 0.7])
    doc["name"] = "case"
    expect = {"check": "analyze", "mu": -0.2, "r0": 0.5 / 0.7}
    path = tmp_path / "case_report.json"
    path.write_text(json.dumps({"mu": mu_reported, "r0": r0_reported, "verdict": verdict}))
    return checks.check_instance(doc, expect, [path], parse_trajectory_csv=None)


def test_checks_accept_right_report(tmp_path):
    assert _analyze_case(tmp_path, -0.2 + 1e-12, "DiseaseFreeStable") == []


def test_checks_flag_wrong_mu_r0_verdict_and_missing_files(tmp_path):
    assert _analyze_case(tmp_path, -0.2 + 1e-6, "DiseaseFreeStable")
    assert _analyze_case(tmp_path, -0.2, "EndemicStable")
    assert _analyze_case(tmp_path, -0.2, "DiseaseFreeStable", r0_reported=0.5 / 0.7 * (1 + 1e-6))
    doc = _two_node_doc(0.4, 0.4, [0.5, 0.5], [0.3, 0.3])
    doc["name"] = "case"
    expect = {"check": "analyze", "mu": 0.2, "r0": 0.5 / 0.3, "p_star": [0.4, 0.4]}
    report = tmp_path / "case_report.json"
    report.write_text(json.dumps({"mu": 0.2, "r0": 0.5 / 0.3, "verdict": "EndemicStable"}))
    assert checks.check_instance(doc, expect, [report], parse_trajectory_csv=None)
