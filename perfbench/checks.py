"""Output checks for one scenario run.

`check_instance` compares the artifacts sismob wrote against the dense
numpy oracle's answers stored in `expect.json`, and returns a list of
problems; an empty list means the run's outputs are right.
"""

from __future__ import annotations

import json

import numpy as np

from perfbench import oracle

MU_TOL = 1e-8            # reported mu against the dense eigen-solve
R0_RTOL = 1e-8           # reported R0 against the dense eigen-solve, relative
RESIDUAL_TOL = 1e-10     # endemic residual, reported and recomputed
X_TOL = 1e-9             # deterministic final x against the stationary v
ENDEMIC_P_TOL = 1e-4     # traj_small final p against p* after t = 200
DECAY_P_MAX = 1e-3       # traj_large final max p, decay rate >= 4 over t = 3
TRAJ_RTOL = 1e-9         # sampled p against the oracle's RK4, relative to each row's max
ENSEMBLE_P_TOL = 0.03    # ensemble mean p against p*, 20 replicas x ~1000 people
ENSEMBLE_X_TOL = 0.005

ENDEMIC_VERDICT = "EndemicStable"
DISEASE_FREE_VERDICT = "DiseaseFreeStable"

# artifact suffixes run_scenario(fmt="all") writes for each check kind
ARTIFACTS = {
    "analyze": ("_report.json",),
    "endemic_trajectory": (".csv", "_p.svg", "_x.svg", "_report.json", "_endemic.json"),
    "decay_trajectory": (".csv", "_p.svg", "_x.svg", "_report.json"),
    "ensemble": (".csv", "_p.svg", "_report.json", "_endemic.json"),
}


def expected_files(doc: dict, expect: dict) -> set:
    suffixes = ARTIFACTS[expect["check"]]
    if expect["check"] == "analyze" and "p_star" in expect:
        suffixes += ("_endemic.json",)
    return {doc["name"] + s for s in suffixes}


def _report(doc, expect, path) -> list:
    rep = json.loads(path.read_text(encoding="utf-8"))
    mu = expect["mu"]
    want = ENDEMIC_VERDICT if mu > 0.0 else DISEASE_FREE_VERDICT
    problems = []
    if rep["verdict"] != want:
        problems.append(f"verdict {rep['verdict']} but oracle mu = {mu:.3e}")
    if not abs(rep["mu"] - mu) <= MU_TOL:
        problems.append(f"mu {rep['mu']!r} differs from oracle {mu!r} by more than {MU_TOL}")
    r0 = expect["r0"]
    if not abs(rep["r0"] - r0) <= R0_RTOL * r0:
        problems.append(f"r0 {rep['r0']!r} differs from oracle {r0!r} by more than {R0_RTOL:g} relative")
    return problems


def _endemic(doc, expect, path) -> list:
    sol = json.loads(path.read_text(encoding="utf-8"))
    p = np.asarray(sol["p_star"], dtype=float)
    q = oracle.generator(doc)
    jac = oracle.jacobian(q, oracle.stationary(q), doc["beta"], doc["delta"])
    recomputed = oracle.residual(jac, doc["beta"], p)
    problems = []
    if not sol["residual"] <= RESIDUAL_TOL:
        problems.append(f"reported endemic residual {sol['residual']!r} above {RESIDUAL_TOL}")
    if not recomputed <= RESIDUAL_TOL:
        problems.append(f"recomputed endemic residual {recomputed!r} above {RESIDUAL_TOL}")
    if not (np.all(p > 0.0) and np.all(p <= 1.0)):
        problems.append("endemic p* outside (0, 1]")
    return problems


def _trajectory(doc, expect, path, parse_trajectory_csv) -> list:
    times, p, x = parse_trajectory_csv(path.read_text(encoding="utf-8"))
    rows = round(doc["t_end"] / doc["sample_dt"]) + 1
    n = doc["graph"]["n"]
    if p.shape != (rows, n) or x.shape != (rows, n) or times.shape != (rows,):
        return [f"csv shapes {times.shape} {p.shape} {x.shape}, expected ({rows}, {n})"]
    if abs(times[-1] - doc["t_end"]) > 1e-9:
        return [f"csv ends at t = {times[-1]!r}, expected {doc['t_end']!r}"]
    p_end, x_end = p[-1], x[-1]
    v = np.asarray(expect["v"])
    check = expect["check"]
    problems = []
    if check == "endemic_trajectory":
        gap = float(np.abs(p_end - expect["p_star"]).max())
        if not gap <= ENDEMIC_P_TOL:
            problems.append(f"final p is {gap:.2e} from p*, above {ENDEMIC_P_TOL}")
    elif check == "decay_trajectory":
        if not float(p_end.max()) <= DECAY_P_MAX:
            problems.append(f"final max p {p_end.max():.2e} above {DECAY_P_MAX}")
        ref = np.asarray(expect["p_traj"])
        rel = float((np.abs(p - ref).max(axis=1) / np.abs(ref).max(axis=1)).max())
        if not rel <= TRAJ_RTOL:
            problems.append(f"p differs from the oracle's RK4 by {rel:.2e} relative, "
                            f"above {TRAJ_RTOL}")
    elif check == "ensemble":
        gap = float(np.abs(p_end - expect["p_star"]).max())
        if not gap <= ENSEMBLE_P_TOL:
            problems.append(f"final ensemble mean p is {gap:.3f} from p*, above {ENSEMBLE_P_TOL}")
    x_tol = ENSEMBLE_X_TOL if check == "ensemble" else X_TOL
    x_gap = float(np.abs(x_end - v).max())
    if not x_gap <= x_tol:
        problems.append(f"final x is {x_gap:.2e} from the stationary v, above {x_tol}")
    return problems


def _svg(path) -> list:
    text = path.read_text(encoding="utf-8")
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return [f"{path.name} is not a complete SVG document"]
    return []


def check_instance(doc: dict, expect: dict, created, parse_trajectory_csv) -> list:
    """Problems with the files one run_scenario call returned as created."""
    by_name = {p.name: p for p in created}
    want = expected_files(doc, expect)
    if set(by_name) != want:
        return [f"wrote {sorted(by_name)}, expected {sorted(want)}"]
    problems = []
    for name, path in by_name.items():
        if name.endswith("_report.json"):
            problems += _report(doc, expect, path)
        elif name.endswith("_endemic.json"):
            problems += _endemic(doc, expect, path)
        elif name.endswith(".csv"):
            problems += _trajectory(doc, expect, path, parse_trajectory_csv)
        else:
            problems += _svg(path)
    return problems
