"""Command-line front end.

Subcommands:

    sismob run --scenario cfg.json [--out-dir DIR] [--seed S] [--format F]
    sismob reproduce --figure fig1a [--out-dir DIR] [--seed S] [--format F]

Both parse a scenario, apply `--seed` to it, and hand it to
`run_scenario`, the one run path: solve v and L* (`Mobility`) and mu
(`analyze`), run the mode's simulation and write its CSV and SVGs,
classify (lambda2) and write the report, then p* when it is endemic.
`reproduce` adds the figure's assumption note.

Exit codes: 0 success, 2 configuration or input error (InputError,
including an output directory that cannot be written), 3 numerical
failure (NumericalError), 4 regime error (RegimeError: an endemic
quantity was requested where no endemic equilibrium exists). Each
failure prints one `error: <message>` line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from sismob.config import ScenarioConfig, load_scenario, parse_scenario
from sismob.dynamics import ModelState, integrate
from sismob.equilibria import endemic_fixed_point
from sismob.errors import InputError, NumericalError, RegimeError
from sismob.output import line_plot_svg, trajectory_csv
from sismob.spectral import ENDEMIC_STABLE, Analysis, Mobility, analyze, classify
from sismob.stochastic import run_ensemble, seed_population

FIGURES = (
    "fig1a", "fig1b", "fig1c", "fig1d",
    "fig2_line", "fig2_ring", "fig2_star", "fig2_complete",
    "fig3",
)


@contextmanager
def _writing_to(path: Path):
    """Report an OSError inside the block as an InputError naming path."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write to {path}: {exc}") from exc


def _write(path: Path, text: str, created: list):
    with _writing_to(path):
        path.write_text(text, encoding="utf-8")
    created.append(path)


def _report_table(report) -> str:
    lines = []
    for name, val in dataclasses.asdict(report).items():
        if isinstance(val, float):
            lines.append(f"{name:<22}{val: .17g}")
        else:
            lines.append(f"{name:<22}{val}")
    return "\n".join(lines)


def _simulate(cfg: ScenarioConfig, a: Analysis):
    """Run the scenario's deterministic or stochastic mode, returning
    (times, p, x, plots), each plot a (suffix, series, title, ylabel)."""
    g, x0 = a.mobility.g, cfg.x0 or a.mobility.v
    if cfg.mode == "deterministic":
        stride = max(1, int(round(cfg.sample_dt / cfg.dt)))
        traj = integrate(
            ModelState(p=cfg.p0, x=x0), a.params, g,
            t_end=cfg.t_end, dt=cfg.dt, output_stride=stride,
        )
        return traj.times, traj.p, traj.x, [
            ("p", traj.p, f"{cfg.name}: infected fraction", "p_i(t)"),
            ("x", traj.x, f"{cfg.name}: population fraction", "x_i(t)"),
        ]
    pop0 = seed_population(cfg.n, cfg.population_per_node, cfg.p0, x0=x0.x)
    result = run_ensemble(
        pop0, a.params, g,
        t_end=cfg.t_end, replicas=cfg.replicas, base_seed=cfg.seed,
        dt=cfg.dt, sample_dt=cfg.sample_dt,
    )
    return result.times, result.mean_p, result.mean_x, [
        ("p", result.mean_p, f"{cfg.name}: ensemble mean infected fraction "
                             f"({result.replicas} replicas)", "mean p_i(t)"),
    ]


def run_scenario(cfg: ScenarioConfig, out_dir: Path, fmt: str = "all") -> list:
    """Execute a parsed scenario, returning the list of files written:
    analyze, then the mode's simulation (its CSV and SVGs), then the
    stability report and, for an endemic instance, p*."""
    with _writing_to(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    created = []
    a = analyze(cfg.params, Mobility(cfg.generator))
    if cfg.mode != "analyze":
        times, p, x, plots = _simulate(cfg, a)
        if fmt in ("csv", "all"):
            _write(out_dir / f"{cfg.name}.csv", trajectory_csv(times, p, x), created)
        if fmt in ("svg", "all"):
            for suffix, series, title, ylabel in plots:
                _write(out_dir / f"{cfg.name}_{suffix}.svg",
                       line_plot_svg(times, series, title=title, ylabel=ylabel), created)
    report = classify(a)
    if fmt in ("json", "all"):
        _write(out_dir / f"{cfg.name}_report.json", report.to_json() + "\n", created)
        if report.verdict == ENDEMIC_STABLE:
            sol = endemic_fixed_point(a)
            _write(out_dir / f"{cfg.name}_endemic.json", sol.to_json() + "\n", created)
    if cfg.mode == "analyze":
        print(_report_table(report))
    for path in created:
        print(f"wrote {path}")
    return created


def _assumption_note(cfg: ScenarioConfig) -> str:
    lines = [f"scenario: {cfg.name}", f"mode: {cfg.mode}", ""]
    lines.append("assumed values (not fixed by the model itself):")
    for note in cfg.notes:
        lines.append(f"  - {note}")
    if not cfg.notes:
        lines.append("  - none recorded")
    if cfg.expected:
        lines.append("")
        lines.append("asserted outcome:")
        for key, val in cfg.expected.items():
            lines.append(f"  - {key}: {val}")
    return "\n".join(lines) + "\n"


def load_figure(figure: str) -> ScenarioConfig:
    if figure not in FIGURES:
        raise InputError(f"unknown figure {figure!r}; known figures: {', '.join(FIGURES)}")
    ref = resources.files("sismob") / "scenarios" / f"{figure}.json"
    return parse_scenario(ref.read_text(encoding="utf-8"))


def reproduce_figure(cfg: ScenarioConfig, out_dir: Path, fmt: str = "all") -> list:
    """Run a bundled figure's parsed scenario and write its assumption note."""
    created = run_scenario(cfg, out_dir, fmt=fmt)
    note = out_dir / f"{cfg.name}_assumptions.txt"
    _write(note, _assumption_note(cfg), created)
    print(f"wrote {note}")
    return created


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sismob",
        description="SIS epidemics over Markovian mobility networks: "
                    "deterministic runs, stability analysis, stochastic ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    _common_flags(run_p)

    rep_p = sub.add_parser("reproduce", help="run a bundled demonstration scenario")
    rep_p.add_argument("--figure", required=True,
                       help=f"one of: {', '.join(FIGURES)}")
    _common_flags(rep_p)
    return parser


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--out-dir", default=".", help="directory for artifacts")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's base seed (stochastic mode)")
    p.add_argument("--format", default="all", choices=("csv", "svg", "json", "all"))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a negative seed is rejected before anything is written, as the
        # scenario's own seed is
        if args.seed is not None and args.seed < 0:
            raise InputError(f"--seed: must be at least 0, got {args.seed}")
        out_dir = Path(args.out_dir)
        if args.command == "run":
            cfg, run = load_scenario(args.scenario), run_scenario
        else:
            cfg, run = load_figure(args.figure), reproduce_figure
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        run(cfg, out_dir, fmt=args.format)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
