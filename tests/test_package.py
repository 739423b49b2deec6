"""The package namespace: a public export must not shadow a submodule."""

import types

import sismob

SUBMODULES = ("cli", "config", "dynamics", "equilibria", "errors", "mobility", "output",
              "spectral", "stochastic")


def test_submodules_stay_module_attributes():
    # `sismob.mobility._detailed_balance` and the like are looked up
    # through the package, so an export named after a submodule breaks them
    for name in SUBMODULES:
        assert isinstance(getattr(sismob, name), types.ModuleType), name
