#!/usr/bin/env python3
"""Solve recovery rates from the lambda2 sufficient condition and verify
the resulting instance is stable.

For a complete graph with uniform exit rates, picks m = 0.8 * m_lower,
pins a set of deficient nodes at delta = beta + m, solves the surplus
for the remaining nodes so the condition-(iv) margin equals a small
positive target, and then confirms the verdict three ways: the margin
itself, the spectral abscissa, and a trajectory from p_i(0) = 0.01.

Run from the repository root:

    python3 scripts/lambda2_experiment.py
    python3 scripts/lambda2_experiment.py --n 30 --nu 0.3 --out-dir out/
"""

import argparse
from pathlib import Path

import numpy as np

from sismob import (
    EpidemicParams,
    Mobility,
    analyze,
    classify,
    curing_rates_for_margin,
    integrate,
    m_lower_bound,
    make_graph,
    uniform_out_rates,
)
from sismob.dynamics import ModelState
from sismob.output import line_plot_svg, trajectory_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20, help="number of regions")
    ap.add_argument("--graph", default="complete",
                    choices=("line", "ring", "star", "complete"))
    ap.add_argument("--nu", type=float, default=0.2, help="total exit rate per node")
    ap.add_argument("--beta", type=float, default=0.3, help="uniform infection rate")
    ap.add_argument("--m-factor", type=float, default=0.8,
                    help="m = m_factor * m_lower (must be in (0, 1))")
    ap.add_argument("--margin", type=float, default=1e-9,
                    help="target condition-(iv) margin; exact equality (0) has a "
                         "floating-point-ambiguous sign")
    ap.add_argument("--t-end", type=float, default=200.0)
    ap.add_argument("--out-dir", default=None,
                    help="also write trajectory CSV and SVG here")
    args = ap.parse_args()

    gen = uniform_out_rates(make_graph(args.graph, args.n), args.nu)
    mob = Mobility(gen)
    m_low = m_lower_bound(mob)
    m = args.m_factor * m_low

    deficient = [1, args.n]
    delta = curing_rates_for_margin(mob, args.beta, m, deficient, margin=args.margin)
    params = EpidemicParams.of(args.n, args.beta, delta)
    a = analyze(params, mob)
    report = classify(a)

    print(f"graph                {args.graph}, n = {args.n}, nu = {args.nu}")
    print(f"lambda2              {report.lambda2:.17g}")
    print(f"m_lower              {m_low:.17g}")
    print(f"m = {args.m_factor} * m_lower   {m:.17g}")
    print(f"delta (deficient)    {delta[0]:.17g}  at nodes {deficient}")
    print(f"delta (surplus)      {delta[1]:.17g}  at the remaining nodes")
    print(f"condition_iv margin  {report.condition_iv_margin:.17g}")
    print(f"condition_iv         {report.condition_iv}")
    print(f"mu                   {report.mu:.17g}")
    print(f"r0                   {report.r0:.17g}")
    print(f"verdict              {report.verdict}")

    state = ModelState(p=np.full(args.n, 0.01), x=mob.v)
    traj = integrate(state, params, gen, t_end=args.t_end, dt=0.01, output_stride=50)
    print(f"||p({args.t_end:g})||_inf      {np.abs(traj.p[-1]).max():.17g}")

    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "lambda2_experiment.csv").write_text(
            trajectory_csv(traj.times, traj.p, traj.x), encoding="utf-8")
        (out / "lambda2_experiment.svg").write_text(
            line_plot_svg(traj.times, traj.p,
                          title="infected fractions under solved recovery rates",
                          ylabel="p_i(t)"),
            encoding="utf-8")
        print(f"wrote {out / 'lambda2_experiment.csv'}")
        print(f"wrote {out / 'lambda2_experiment.svg'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
