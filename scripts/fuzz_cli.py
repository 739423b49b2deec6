#!/usr/bin/env python3
"""Randomized fuzz campaign over the CLI, with warnings as errors.

Runs the strategies of the two tier-1 CLI fuzz tests (`analyze_docs`
and `run_docs` in tests/test_config_cli.py) without derandomization:
each scenario document is run by `sismob run`, which must exit 0, 2, 3
or 4 and write nothing outside its --out-dir, with every warning raised
as an error. Each falsifying document, as Hypothesis shrank it, prints
as one JSON line, ready to become an `@example` of its test; the script
then exits 1. Run from the repository root:

    python3 scripts/fuzz_cli.py --examples 1000 --seed 1
"""

import argparse
import contextlib
import io
import json
import sys
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def falsifying(strategy, check, examples: int, seed: int) -> list:
    """The values of `strategy` on which `check` raises, with warnings
    as errors and its output discarded: one per distinct failure
    (exception type and the line that raised it), the last value
    Hypothesis ran for it, which is the shrunk example it reports."""
    from hypothesis import given, settings
    from hypothesis import seed as with_seed

    found = {}

    @with_seed(seed)
    @settings(derandomize=False, max_examples=examples, deadline=None, database=None)
    @given(strategy)
    def run(value):
        sink = io.StringIO()
        try:
            with (warnings.catch_warnings(), contextlib.redirect_stdout(sink),
                  contextlib.redirect_stderr(sink)):
                warnings.simplefilter("error")
                check(value)
        except Exception as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            found[type(exc), frame.filename, frame.lineno] = value
            raise

    try:
        run()
    except Exception:
        if not found:       # Hypothesis itself failed, not the check
            raise
    return list(found.values())


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=1000,
                        help="examples per strategy (default 1000)")
    parser.add_argument("--seed", type=int, default=0, help="Hypothesis seed (default 0)")
    args = parser.parse_args(argv)
    from test_config_cli import analyze_docs, exits_cleanly_inside_out_dir, run_docs

    failed = False
    for name, strategy in (("analyze_docs", analyze_docs()), ("run_docs", run_docs())):
        docs = falsifying(strategy, exits_cleanly_inside_out_dir, args.examples, args.seed)
        print(f"{name}: {args.examples} examples, seed {args.seed}, {len(docs)} falsifying",
              file=sys.stderr)
        for doc in docs:
            print(json.dumps(doc))
        failed |= bool(docs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.exit(main(sys.argv[1:]))
