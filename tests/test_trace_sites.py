"""The benchmark's tracer wraps sismob functions at their import sites
(`perfbench.trace.SITES`); every site must still hold the function its
span is named after, or a traced benchmark run fails to install."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.trace import SITES  # noqa: E402


@pytest.mark.parametrize("modname, attr, span", [site[:3] for site in SITES],
                         ids=[f"{site[0]}.{site[1]}" for site in SITES])
def test_trace_site_resolves(modname, attr, span):
    fn = getattr(importlib.import_module(modname), attr)
    layer, name = span.split(".")
    assert (fn.__module__, fn.__name__) == (f"sismob.{layer}", name)
