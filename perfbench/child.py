"""The measured process: import sismob, parse a workload's scenarios, run
them block by block in a closed loop, and check every output.

    python3 perfbench/child.py --work DIR --src SRC --setup-only
    python3 perfbench/child.py --work DIR --src SRC --seconds S --trace 0|1

run.py starts it with BLAS pinned to one thread and `SRC` on PYTHONPATH.
`--setup-only` stops after parsing and prints `ready`; otherwise the last
line of standard output is one JSON object with the run's raw figures.
With `--trace 1` the loop runs untraced for half the time, then with
spans installed for the other half.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if none is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": blas_threads(),
    }


def run_phase(blocks, seconds, run, check, work) -> dict:
    """Run whole blocks, cycling through them, until `seconds` have passed.

    `run(f)` runs scenario file f and returns the paths it wrote, `check(f,
    paths)` lists problems with them, and `work[f]` is f's units of work.
    Only `run` is timed.
    """
    stats = {"block_s": [], "latency_s": [], "work": 0, "attempted": 0, "failed": 0,
             "bytes_written": 0, "problems": []}
    start = perf_counter()
    b = 0
    with open(os.devnull, "w", encoding="utf-8") as sink:
        while True:
            block_s = 0.0
            for f in blocks[b % len(blocks)]:
                stats["attempted"] += 1
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(sink):
                        created = run(f)
                except Exception as exc:  # a failed scenario is counted; the loop goes on
                    elapsed = perf_counter() - t0
                    problems = [f"{type(exc).__name__}: {exc}"]
                else:
                    elapsed = perf_counter() - t0
                    try:
                        problems = check(f, created)
                        stats["bytes_written"] += sum(p.stat().st_size for p in created)
                    except Exception as exc:  # malformed or missing output fails the check
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
                block_s += elapsed
                stats["latency_s"].append(elapsed)
                if problems:
                    stats["failed"] += 1
                    stats["problems"] += [f"{f}: {p}" for p in problems][:5]
                else:
                    stats["work"] += work[f]
            stats["block_s"].append(block_s)
            b += 1
            if perf_counter() - start >= seconds:
                return stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--src", required=True, type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    manifest = json.loads((args.work / "manifest.json").read_text(encoding="utf-8"))
    blocks = manifest["blocks"]
    files = [f for block in blocks for f in block]

    import sismob
    if not Path(sismob.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"error: imported sismob from {sismob.__file__}, not from {args.src}",
              file=sys.stderr)
        return 2
    from sismob.cli import run_scenario
    from sismob.config import load_scenario
    from sismob.output import parse_trajectory_csv

    if args.setup_only:
        for f in files:
            load_scenario(args.work / f)
        print("ready", flush=True)
        return 0

    # the benchmark's own modules load only after the part set-up probes time
    sys.path.insert(0, str(ROOT))
    from perfbench.checks import check_instance
    from perfbench.trace import Tracer, layer_metrics

    setup_tracer = Tracer()
    load = setup_tracer.wrap("config.load_scenario", load_scenario) if args.trace else load_scenario
    cfgs = {f: load(args.work / f) for f in files}
    docs = {f: json.loads((args.work / f).read_text(encoding="utf-8")) for f in files}
    expect = json.loads((args.work / "expect.json").read_text(encoding="utf-8"))
    work = {f: expect[f]["work"] for f in files}
    out_dir = args.work / "out"

    def runner(run):
        return lambda f: run(cfgs[f], out_dir, fmt="all")

    def check(f, created):
        return check_instance(docs[f], expect[f], created, parse_trajectory_csv)

    result = {"env": environment()}
    if args.trace:
        result["untraced"] = run_phase(blocks, args.seconds / 2, runner(run_scenario), check, work)
        tracer = Tracer()
        tracer.install()
        try:
            traced_run = runner(tracer.wrap("cli.run_scenario", run_scenario))
            result["traced"] = run_phase(blocks, args.seconds / 2, traced_run, check, work)
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, setup_tracer.spans,
                                         result["traced"], result["untraced"])
    else:
        result["untraced"] = run_phase(blocks, args.seconds, runner(run_scenario), check, work)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
