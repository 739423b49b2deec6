#!/usr/bin/env python3
"""Compare the trajectory CSVs of two artifact trees, such as the output
directories of `sismob reproduce` run from two checkouts.

CSVs are paired by their path below each tree's root. Each pair prints
one line,

    <path>  t equal|differs  x equal|differs  p drift <d>

where d is the largest, over rows, of max_i |p_new - p_old| divided by
the largest |p_old| in that row (0 when the rows are equal, inf when
only an all-zero old row differs). A CSV found in one tree only, or a
pair whose tables differ in shape, prints a line naming it, and the
script then exits 1. Run from the repository root:

    python3 scripts/trajectory_drift.py OLD_DIR NEW_DIR
"""

import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def _csvs(root: Path) -> set:
    return {path.relative_to(root).as_posix() for path in root.rglob("*.csv")}


def p_drift(old: np.ndarray, new: np.ndarray) -> float:
    """The largest row-relative difference of new from old, (m, n) each."""
    diff = np.abs(new - old).max(axis=1, initial=0.0)
    scale = np.abs(old).max(axis=1, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / scale)
    return float(rel.max(initial=0.0))


def compare(old_dir: Path, new_dir: Path):
    """One line per CSV of the two trees, and whether every CSV paired
    with one of the same shape."""
    from sismob.output import parse_trajectory_csv

    old_names, new_names = _csvs(old_dir), _csvs(new_dir)
    ok = old_names == new_names
    lines = [f"{name}  only in {old_dir}" for name in sorted(old_names - new_names)]
    lines += [f"{name}  only in {new_dir}" for name in sorted(new_names - old_names)]
    for name in sorted(old_names & new_names):
        t0, p0, x0 = parse_trajectory_csv((old_dir / name).read_text(encoding="utf-8"))
        t1, p1, x1 = parse_trajectory_csv((new_dir / name).read_text(encoding="utf-8"))
        if p0.shape != p1.shape:
            lines.append(f"{name}  shape {p0.shape} vs {p1.shape}")
            ok = False
            continue
        t_eq = "equal" if np.array_equal(t0, t1) else "differs"
        x_eq = "equal" if np.array_equal(x0, x1) else "differs"
        lines.append(f"{name}  t {t_eq}  x {x_eq}  p drift {p_drift(p0, p1):.2g}")
    return lines, ok


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: trajectory_drift.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines, ok = compare(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main(sys.argv[1:]))
