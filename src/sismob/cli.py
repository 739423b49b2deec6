"""Command-line front end.

Subcommands:

    sismob run --scenario cfg.json [--out-dir DIR] [--seed S] [--format F]
    sismob reproduce --figure fig1a [--out-dir DIR] [--seed S] [--format F]

Exit codes: 0 success, 2 configuration or input error, 3 numerical
failure, 4 regime error (an endemic quantity was requested where no
endemic equilibrium exists).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import resources
from pathlib import Path

from sismob.config import ScenarioConfig, load_scenario, parse_scenario
from sismob.dynamics import ModelState, integrate
from sismob.equilibria import endemic_fixed_point
from sismob.errors import (
    DegenerateSolution,
    NotEndemicRegime,
    NumericalError,
    SismobError,
    UnknownFigure,
)
from sismob.output import line_plot_svg, trajectory_csv
from sismob.spectral import ENDEMIC_STABLE, Analysis, analyze, classify
from sismob.stochastic import run_ensemble, seed_population

FIGURES = (
    "fig1a", "fig1b", "fig1c", "fig1d",
    "fig2_line", "fig2_ring", "fig2_star", "fig2_complete",
    "fig3",
)


def _write(path: Path, text: str, created: list):
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


def _analysis_artifacts(cfg: ScenarioConfig, a: Analysis, out_dir: Path, fmt: str,
                        created: list):
    report = classify(a)
    if fmt in ("json", "all"):
        _write(out_dir / f"{cfg.name}_report.json", report.to_json() + "\n", created)
        if report.verdict == ENDEMIC_STABLE:
            sol = endemic_fixed_point(a)
            _write(out_dir / f"{cfg.name}_endemic.json", sol.to_json() + "\n", created)
    return report


def _run_deterministic(cfg: ScenarioConfig, a: Analysis, out_dir: Path, fmt: str,
                       created: list):
    stride = max(1, int(round(cfg.sample_dt / cfg.dt)))
    traj = integrate(
        ModelState(p=cfg.p0, x=cfg.x0 or a.v), a.params, a.g,
        t_end=cfg.t_end, dt=cfg.dt, output_stride=stride,
    )
    if fmt in ("csv", "all"):
        _write(
            out_dir / f"{cfg.name}.csv",
            trajectory_csv(traj.times, traj.p, traj.x),
            created,
        )
    if fmt in ("svg", "all"):
        _write(
            out_dir / f"{cfg.name}_p.svg",
            line_plot_svg(traj.times, traj.p, title=f"{cfg.name}: infected fraction",
                          ylabel="p_i(t)"),
            created,
        )
        _write(
            out_dir / f"{cfg.name}_x.svg",
            line_plot_svg(traj.times, traj.x, title=f"{cfg.name}: population fraction",
                          ylabel="x_i(t)"),
            created,
        )
    return traj


def _run_stochastic(cfg: ScenarioConfig, a: Analysis, out_dir: Path, fmt: str,
                    created: list, seed_override=None):
    seed = cfg.seed if seed_override is None else seed_override
    x0 = (cfg.x0 or a.v).x
    pop0 = seed_population(cfg.n, cfg.population_per_node, cfg.p0, x0=x0)
    result = run_ensemble(
        pop0, a.params, a.g,
        t_end=cfg.t_end, replicas=cfg.replicas, base_seed=seed,
        dt=cfg.dt, sample_dt=cfg.sample_dt,
    )
    if fmt in ("csv", "all"):
        _write(
            out_dir / f"{cfg.name}.csv",
            trajectory_csv(result.times, result.mean_p, result.mean_x),
            created,
        )
    if fmt in ("svg", "all"):
        _write(
            out_dir / f"{cfg.name}_p.svg",
            line_plot_svg(result.times, result.mean_p,
                          title=f"{cfg.name}: ensemble mean infected fraction "
                                f"({result.replicas} replicas)",
                          ylabel="mean p_i(t)"),
            created,
        )
    return result


def run_scenario(cfg: ScenarioConfig, out_dir: Path, fmt: str = "all",
                 seed_override=None) -> list:
    """Execute a parsed scenario, returning the list of files written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    created = []
    a = analyze(cfg.params, cfg.generator)
    if cfg.mode == "analyze":
        print(_report_table(_analysis_artifacts(cfg, a, out_dir, fmt, created)))
    elif cfg.mode == "deterministic":
        _run_deterministic(cfg, a, out_dir, fmt, created)
        _analysis_artifacts(cfg, a, out_dir, fmt, created)
    else:
        _run_stochastic(cfg, a, out_dir, fmt, created, seed_override=seed_override)
        _analysis_artifacts(cfg, a, out_dir, fmt, created)
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


def bundled_scenario_text(figure: str) -> str:
    if figure not in FIGURES:
        raise UnknownFigure(figure, FIGURES)
    ref = resources.files("sismob") / "scenarios" / f"{figure}.json"
    return ref.read_text(encoding="utf-8")


def load_figure(figure: str) -> ScenarioConfig:
    return parse_scenario(bundled_scenario_text(figure))


def reproduce_figure(figure: str, out_dir: Path, fmt: str = "all",
                     seed_override=None) -> list:
    cfg = load_figure(figure)
    created = run_scenario(cfg, out_dir, fmt=fmt, seed_override=seed_override)
    note = out_dir / f"{cfg.name}_assumptions.txt"
    note.write_text(_assumption_note(cfg), encoding="utf-8")
    print(f"wrote {note}")
    created.append(note)
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
        out_dir = Path(args.out_dir)
        if args.command == "run":
            cfg = load_scenario(args.scenario)
            run_scenario(cfg, out_dir, fmt=args.format, seed_override=args.seed)
        else:
            reproduce_figure(args.figure, out_dir, fmt=args.format,
                             seed_override=args.seed)
        return 0
    except (NotEndemicRegime, DegenerateSolution) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SismobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
