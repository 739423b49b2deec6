"""In-memory spans around sismob's public functions, and self-time sums.

`Tracer.install` replaces module attributes at their import sites (for
example `sismob.cli.integrate`), so every call sismob makes through that
name opens a span. Nothing in sismob changes, and an untraced run never
installs the wrappers. A span records its id, its parent's id, a name of
the form `<layer>.<function>`, its start and end, and counts read from
the call's arguments or result.
"""

from __future__ import annotations

import importlib
import math
import statistics
from collections import defaultdict
from time import perf_counter


def _steps(t_end: float, dt: float) -> int:
    # the step count integrate() and fixed_step_run() take for (t_end, dt)
    return int(math.ceil(t_end / dt - 1e-9))


def _integrate_counts(out, args, kwargs):
    return {"rk4_steps": _steps(kwargs["t_end"], kwargs["dt"]), "clips": out.clips}


def _sampler_counts(out, args, kwargs):
    return {"replica_steps": _steps(args[3], args[4])}


def _ensemble_counts(out, args, kwargs):
    return {"empty_samples": int(out.empty_counts.sum())}


def _iterations(key):
    def counts(out, args, kwargs):
        return {key: int(out.iterations)}
    return counts


# (import site, attribute, span name, counter); the layer is the module
# that defines the function, which is not always the module calling it
SITES = (
    ("sismob.cli", "classify", "spectral.classify", None),
    ("sismob.cli", "endemic_fixed_point", "equilibria.endemic_fixed_point",
     _iterations("endemic_iters")),
    ("sismob.cli", "integrate", "dynamics.integrate", _integrate_counts),
    ("sismob.cli", "run_ensemble", "stochastic.run_ensemble", _ensemble_counts),
    ("sismob.cli", "seed_population", "stochastic.seed_population", None),
    ("sismob.cli", "trajectory_csv", "output.trajectory_csv", None),
    ("sismob.cli", "line_plot_svg", "output.line_plot_svg", None),
    ("sismob.config", "stationary_distribution", "mobility.stationary_distribution", None),
    ("sismob.spectral", "stationary_distribution", "mobility.stationary_distribution", None),
    ("sismob.spectral", "mobility_laplacian", "mobility.mobility_laplacian", None),
    ("sismob.spectral", "spectral_abscissa", "spectral.spectral_abscissa",
     _iterations("power_iters")),
    ("sismob.spectral", "reproduction_number", "spectral.reproduction_number", None),
    ("sismob.spectral", "next_generation_matrix", "spectral.next_generation_matrix", None),
    ("sismob.spectral", "lambda2_weighted", "spectral.lambda2_weighted", None),
    ("sismob.equilibria", "stationary_distribution", "mobility.stationary_distribution", None),
    ("sismob.equilibria", "mobility_laplacian", "mobility.mobility_laplacian", None),
    ("sismob.equilibria", "spectral_abscissa", "spectral.spectral_abscissa",
     _iterations("power_iters")),
    ("sismob.equilibria", "next_generation_matrix", "spectral.next_generation_matrix", None),
    ("sismob.equilibria", "h_map", "equilibria.h_map", None),
    ("sismob.stochastic", "fixed_step_run", "stochastic.fixed_step_run", _sampler_counts),
    ("sismob.stochastic", "ensemble_average", "stochastic.ensemble_average", None),
)


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "counts")

    def __init__(self, sid, parent, name, start=0.0, end=0.0, counts=None):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, name)
            spans.append(span)
            stack.append(span.sid)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(out, args, kwargs)
            return out

        return traced

    def install(self):
        """Wrap every site in SITES; `uninstall` puts the originals back."""
        for modname, attr, name, counter in SITES:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig, counter))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)


def self_times(spans) -> list:
    """Per span, its duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def summarize(spans) -> dict:
    """Totals by span name: calls, total and self seconds, summed counts, and
    the list of durations (for medians)."""
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "counts": defaultdict(int), "durations": []})
    for s, own in zip(spans, self_times(spans)):
        agg = out[s.name]
        agg["calls"] += 1
        agg["total_s"] += s.duration
        agg["self_s"] += own
        agg["durations"].append(s.duration)
        for key, val in (s.counts or {}).items():
            agg["counts"][key] += val
    return out


# run-phase layers; their self times add up to the traced block time
RUN_LAYERS = ("cli", "mobility", "spectral", "equilibria", "dynamics", "stochastic", "output")


def layer_metrics(spans, setup_spans, traced: dict, untraced: dict) -> dict:
    """Per-layer figures of a traced phase, per block like run_s.

    `traced` and `untraced` are run_phase results from one process;
    setup_spans are the config.load_scenario spans of its set-up.
    """
    blocks = len(traced["block_s"])
    agg = summarize(spans)

    def total(name):
        return agg[name]["total_s"] / blocks if name in agg else 0.0

    def own(name):
        return agg[name]["self_s"] / blocks if name in agg else 0.0

    def calls(name):
        return agg[name]["calls"] / blocks if name in agg else 0.0

    def count(name, key):
        return agg[name]["counts"][key] / blocks if name in agg else 0.0

    def per(seconds, n):
        return seconds / n * 1e6 if n else 0.0

    run_s = sum(traced["block_s"]) / blocks
    layer_self = {layer: sum(a["self_s"] for name, a in agg.items()
                             if name.split(".")[0] == layer) / blocks
                  for layer in RUN_LAYERS}
    sampler = agg.get("stochastic.fixed_step_run")
    m = {
        "config.parse_s": sum(s.duration for s in setup_spans),
        "config.parse_calls": len(setup_spans),
        "mobility.stationary_s": total("mobility.stationary_distribution"),
        "mobility.stationary_calls": calls("mobility.stationary_distribution"),
        "mobility.laplacian_s": total("mobility.mobility_laplacian"),
        "mobility.laplacian_calls": calls("mobility.mobility_laplacian"),
        "spectral.classify_self_s": own("spectral.classify"),
        "spectral.abscissa_s": total("spectral.spectral_abscissa"),
        "spectral.abscissa_calls": calls("spectral.spectral_abscissa"),
        "spectral.power_iters": count("spectral.spectral_abscissa", "power_iters"),
        "spectral.ngm_s": total("spectral.next_generation_matrix"),
        "spectral.lambda2_s": total("spectral.lambda2_weighted"),
        "equilibria.endemic_self_s": own("equilibria.endemic_fixed_point"),
        "equilibria.endemic_iters": count("equilibria.endemic_fixed_point", "endemic_iters"),
        "equilibria.hmap_s": total("equilibria.h_map"),
        "dynamics.integrate_s": total("dynamics.integrate"),
        "dynamics.rk4_steps": count("dynamics.integrate", "rk4_steps"),
        "dynamics.us_per_step": per(total("dynamics.integrate"),
                                    count("dynamics.integrate", "rk4_steps")),
        "dynamics.clips": count("dynamics.integrate", "clips"),
        "stochastic.sampler_s": total("stochastic.fixed_step_run"),
        "stochastic.replica_p50_s": statistics.median(sampler["durations"]) if sampler else 0.0,
        "stochastic.replica_steps": count("stochastic.fixed_step_run", "replica_steps"),
        "stochastic.us_per_replica_step": per(
            total("stochastic.fixed_step_run"),
            count("stochastic.fixed_step_run", "replica_steps")),
        "stochastic.average_s": total("stochastic.ensemble_average"),
        "stochastic.empty_samples": count("stochastic.run_ensemble", "empty_samples"),
        "output.csv_s": total("output.trajectory_csv"),
        "output.svg_s": total("output.line_plot_svg"),
        "output.bytes_written": traced["bytes_written"] / blocks,
        "trace.run_s": run_s,
        "trace.overhead_s": run_s - sum(untraced["block_s"]) / len(untraced["block_s"]),
        "trace.unaccounted_s": run_s - sum(layer_self.values()),
        "trace.spans": len(spans) / blocks,
    }
    m.update({f"{layer}.self_s": val for layer, val in layer_self.items()})
    return m
