"""scripts/trajectory_drift.py pairs the CSVs of two artifact trees and
prints, per pair, whether t and x are equal and how far p drifted."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import sismob
from sismob.output import parse_trajectory_csv, trajectory_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trajectory_drift.py"


def run(*dirs):
    src = Path(sismob.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, dirs)],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout.splitlines()


def write_tree(root: Path):
    rng = np.random.default_rng(27)
    for name, n in (("a/a.csv", 3), ("b/b.csv", 5)):
        times = np.linspace(0.0, 1.0, 6)
        p = rng.uniform(0.0, 1.0, (6, n))
        p[0] = 0.0
        x = np.tile(rng.dirichlet(np.ones(n)), (6, 1))
        (root / name).parent.mkdir(parents=True)
        (root / name).write_text(trajectory_csv(times, p, x), encoding="utf-8")


def test_a_tree_against_itself_and_a_perturbed_copy(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write_tree(old)
    assert run(old, old) == (0, ["a/a.csv  t equal  x equal  p drift 0",
                                 "b/b.csv  t equal  x equal  p drift 0"])
    shutil.copytree(old, new)
    times, p, x = parse_trajectory_csv((old / "b/b.csv").read_text(encoding="utf-8"))
    p = p.copy()
    p[3, 2] += 1e-13 * np.abs(p[3]).max()
    (new / "b/b.csv").write_text(trajectory_csv(times, p, x), encoding="utf-8")
    code, lines = run(old, new)
    assert code == 0
    assert lines[0] == "a/a.csv  t equal  x equal  p drift 0"
    name, t_eq, x_eq, drift = lines[1].split("  ")
    assert (name, t_eq, x_eq) == ("b/b.csv", "t equal", "x equal")
    assert abs(float(drift.removeprefix("p drift ")) - 1e-13) <= 1e-14


def test_different_file_sets_exit_1(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write_tree(old)
    shutil.copytree(old, new)
    (new / "a/a.csv").rename(new / "a/c.csv")
    code, lines = run(old, new)
    assert code == 1
    assert lines[:2] == [f"a/a.csv  only in {old}", f"a/c.csv  only in {new}"]
    assert lines[2] == "b/b.csv  t equal  x equal  p drift 0"
