#!/usr/bin/env python3
"""Print the SHA-256 of every file that `sismob reproduce` writes for the
nine bundled figures, and of what it prints, once as the figures are and
once with `--seed 7 --format csv`.

Each line reads `<sha256>  <variant>/<figure>/<file>`; the printed text
is the file `stdout`, and a run that exits nonzero adds an `exit` line.
Two checkouts write the same bytes exactly when this script prints the
same lines on both, so compare them with `diff`. Each run is a fresh
`python3 -m sismob.cli` process in an empty directory, with the `src/`
beside this script on its path. Run from the repository root:

    python3 scripts/artifact_digest.py > digests.txt
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
VARIANTS = (
    ("as_is", ()),
    ("seed7_csv", ("--seed", "7", "--format", "csv")),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(figures):
    """The digest lines of `sismob reproduce` for each figure, in every
    variant, files in sorted order."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for variant, flags in VARIANTS:
        for figure in figures:
            with tempfile.TemporaryDirectory() as tmp:
                # a relative --out-dir keeps the printed paths the same
                # from one run to the next
                proc = subprocess.run(
                    [sys.executable, "-m", "sismob.cli", "reproduce", "--figure", figure,
                     "--out-dir", "out", *flags],
                    cwd=tmp, env=env, capture_output=True,
                )
                prefix = f"{variant}/{figure}"
                yield f"{_sha256(proc.stdout)}  {prefix}/stdout"
                if proc.returncode != 0:
                    yield f"exit {proc.returncode}  {prefix}"
                out = Path(tmp) / "out"
                for path in sorted(out.rglob("*")):
                    if path.is_file():
                        yield f"{_sha256(path.read_bytes())}  {prefix}/{path.relative_to(out).as_posix()}"


def main() -> int:
    from sismob.cli import FIGURES

    for line in digest_lines(FIGURES):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
