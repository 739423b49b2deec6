"""Seeded scenario generator for the benchmark workloads.

A workload is a list of blocks and a block is a list of scenario JSON
files. The benchmark times whole blocks, so each block is a
representative slice of its workload. Files are written from Python's
`random.Random`, whose stream is fixed across platforms, so one seed
gives byte-identical scenario files. The dense numpy oracle runs here,
once, and its answers go to `expect.json` beside the scenarios; the
program under test only ever sees the scenario files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import oracle

SWEEP_KINDS = ("line", "ring", "star", "complete")
SWEEP_N = (22, 40, 58)     # n is one of these, jittered by up to 2
# six endemic cells and two disease-free cells (3:1), each a log slice of
# |mu| in [1e-3, 1e-1]; mu sits near the cell's centre
SWEEP_MU_CELLS = tuple((+1, k, 6) for k in range(6)) + tuple((-1, k, 2) for k in range(2))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    blocks: int


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "ensemble",
            "stochastic line n=20, 20 replicas x 1000 people per node: the fixed-step "
            "sampler takes nearly all of the run",
            "replica_steps", 6,
        ),
        Workload(
            "traj_small",
            "deterministic line n=20 over 20000 RK4 steps: per-step Python overhead "
            "dominates, so a rewrite that slows small n shows",
            "rk4_steps", 6,
        ),
        Workload(
            "traj_large",
            "deterministic star n=1000, short horizon: dense Q^T x matvec, n=1000 LU "
            "and eigen work in classify, 1000-series SVG",
            "rk4_steps", 4,
        ),
        Workload(
            "sweep",
            "96 analyze instances, 4 kinds x n 20-60 x |mu| 1e-3..1e-1 (3:1 endemic): "
            "power iteration and the H-map endemic solve",
            "instances", 8,
        ),
    )
}


def _base(name: str, mode: str, kind: str, n: int, nu, beta, delta) -> dict:
    return {
        "schema": 1,
        "name": name,
        "mode": mode,
        "graph": {"kind": kind, "n": n},
        "rates": {"uniform_out": {"nu": nu}},
        "beta": beta,
        "delta": delta,
    }


def _steps(doc: dict) -> int:
    steps = round(doc["t_end"] / doc["dt"])
    if abs(steps * doc["dt"] - doc["t_end"]) > 1e-9:
        raise ValueError("t_end must be a whole number of steps")
    return steps


def _oracle(doc: dict, check: str, endemic: bool) -> dict:
    q = oracle.generator(doc)
    v = oracle.stationary(q)
    jac = oracle.jacobian(q, v, doc["beta"], doc["delta"])
    out = {"v": v.tolist()}
    if np.ndim(doc["beta"]) == 0 and np.ndim(doc["delta"]) == 0:
        # scalar rates: J = (beta - delta) I - L* and L* 1 = 0, so mu and
        # R0 = rho(beta (L* + delta I)^{-1}) are exact, which spares two
        # dense eigen-solves at n = 1000
        out["mu"] = doc["beta"] - doc["delta"]
        out["r0"] = doc["beta"] / doc["delta"]
    else:
        out["mu"] = oracle.abscissa(jac)
        out["r0"] = oracle.reproduction_number(q, v, doc["beta"], doc["delta"])
    if endemic:
        out["p_star"] = oracle.endemic(jac, doc["beta"]).tolist()
    if check == "decay_trajectory":
        stride = round(doc["sample_dt"] / doc["dt"])
        out["p_traj"] = oracle.trajectory(q, v, doc["beta"], doc["delta"], doc["p0"],
                                          doc["t_end"], doc["dt"], stride).tolist()
    return out


def _ensemble(rng: random.Random, b: int):
    n = 20
    beta = [rng.uniform(0.25, 0.35) for _ in range(n)]
    doc = _base(f"ensemble_b{b}", "stochastic", "line", n, 0.2, beta,
                [x - 0.05 for x in beta])
    # start at the continuum equilibrium, rounded so platform-level
    # roundoff in the oracle cannot change the file
    p_star = _oracle(doc, "ensemble", endemic=True)["p_star"]
    doc.update(p0=[round(p, 3) for p in p_star], t_end=10.0, dt=0.01, sample_dt=1.0,
               replicas=20, population_per_node=1000, seed=rng.randrange(2**31))
    return [(doc, "ensemble", doc["replicas"] * _steps(doc), True)]


def _traj_small(rng: random.Random, b: int):
    n = 20
    beta = [rng.uniform(0.25, 0.35) for _ in range(n)]
    doc = _base(f"traj_small_b{b}", "deterministic", "line", n, 0.2, beta,
                [x - 0.12 for x in beta])
    doc.update(p0=0.01, t_end=200.0, dt=0.01, sample_dt=1.0)
    return [(doc, "endemic_trajectory", _steps(doc), True)]


def _traj_large(rng: random.Random, b: int):
    n = 1000
    # scalar beta and delta: heterogeneous beta on this star stalls the
    # reproduction-number power iteration (NoConvergence) at this commit
    beta = rng.uniform(0.2, 0.5)
    doc = _base(f"traj_large_b{b}", "deterministic", "star", n, rng.uniform(0.5, 1.5),
                beta, beta + rng.uniform(4.0, 6.0))
    doc.update(p0=[round(rng.uniform(0.2, 0.8), 6) for _ in range(n)],
               t_end=3.0, dt=0.01, sample_dt=0.25)
    return [(doc, "decay_trajectory", _steps(doc), False)]


def _sweep(rng: random.Random, b: int):
    """Block b of a full factorial kind x n-level x mu-cell design.

    Every block holds each (kind, n-level) pair once; the mu cell is
    rotated so that over the eight blocks each pair meets every cell
    once. Every block is then a similar mix, and a run that stops after
    any whole block has measured a balanced slice of the design. The
    seed draws beta and jitters n, mu and nu only slightly, because the
    cost of an instance grows steeply with n and 1/mu, and a wide jitter
    would make one seed's sweep much slower than another's.
    """
    out = []
    pairs = [(kind, n0) for kind in SWEEP_KINDS for n0 in SWEEP_N]
    for k, (kind, n0) in enumerate(pairs):
        sign, cell, cells = SWEEP_MU_CELLS[(b + k) % len(SWEEP_MU_CELLS)]
        mu_t = sign * 10.0 ** (-3.0 + 2.0 * (cell + rng.uniform(0.4, 0.6)) / cells)
        n = n0 + rng.randint(-2, 2)
        beta = [rng.uniform(0.2, 0.5) for _ in range(n)]
        # B - D - L* = mu_t I - L*, and L* has zero row sums, so mu = mu_t.
        # nu >= 0.8 keeps the reproduction-number power iteration on a line at
        # n = 60 under a third of its 1e5 cap; at nu = 0.2 it hits the cap
        doc = _base(f"sweep_b{b}_i{k:02d}", "analyze", kind, n, rng.uniform(0.8, 1.0),
                    beta, [x - mu_t for x in beta])
        out.append((doc, "analyze", 1, sign > 0))
    return out


_MAKERS = {
    "ensemble": _ensemble,
    "traj_small": _traj_small,
    "traj_large": _traj_large,
    "sweep": _sweep,
}


def scenario_text(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def generate(name: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's scenarios and `expect.json` into out_dir.

    Returns the manifest: blocks of file names, the check and work units
    of each file, and the SHA-256 of every scenario file.
    """
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    blocks, expect, sha = [], {}, {}
    for b in range(spec.blocks):
        files = []
        for doc, check, work, endemic in _MAKERS[name](rng, b):
            fname = doc["name"] + ".json"
            text = scenario_text(doc)
            (out_dir / fname).write_text(text, encoding="utf-8")
            sha[fname] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            expect[fname] = {"check": check, "work": work, **_oracle(doc, check, endemic)}
            files.append(fname)
        blocks.append(files)
    manifest = {"workload": name, "seed": seed, "work_unit": spec.work_unit,
                "blocks": blocks, "sha256": sha}
    (out_dir / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest

