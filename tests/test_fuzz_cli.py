"""scripts/fuzz_cli.py runs the CLI fuzz strategies undeterministically
and prints each falsifying document as one JSON line."""

import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

from hypothesis import strategies as st

import sismob

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fuzz_cli.py"


def test_a_few_examples_pass():
    src = Path(sismob.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--examples", "8", "--seed", "27"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"{name}: 8 examples, seed 27, 0 falsifying"
                                        for name in ("analyze_docs", "run_docs")]


def test_each_failure_is_reported_once_shrunk():
    falsifying = runpy.run_path(str(SCRIPT))["falsifying"]

    def check(doc):
        print("output is discarded")
        if doc["k"] >= 10:
            raise ValueError("too large")
        if doc["k"] == 3:
            warnings.warn("three", RuntimeWarning)

    docs = st.integers(0, 100).map(lambda k: {"k": k})
    found = falsifying(docs, check, 200, 1)
    assert sorted(json.dumps(doc) for doc in found) == ['{"k": 10}', '{"k": 3}']
