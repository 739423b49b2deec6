"""Benchmark entry point for sismob.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's scenario files from the seed, times set-up in fresh
interpreters, then runs the workload in one child process with BLAS
pinned to one thread, in a closed loop for S seconds. Every output is
checked against a dense numpy oracle. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`, which
holds the `end_to_end` metrics of BENCHMARK.json with `--trace 0` and the
`per_layer` metrics with `--trace 1`. The full record (environment, seed,
scenario SHA-256s, raw samples) goes to perfbench/_runs/<run>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, generate  # noqa: E402

SETUP_PROBES = 4          # timed set-up probes before the run and again after it
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def child_cmd(work: Path, *extra) -> list:
    return [sys.executable, str(ROOT / "perfbench" / "child.py"),
            "--work", str(work), "--src", str(ROOT / "src"), *extra]


def time_setup(work: Path, warm_up: bool) -> list:
    """Seconds from process start to `ready` (sismob imported, every scenario
    parsed), once per probe. A warm-up probe fills the bytecode and page
    caches, which a user pays once, and is left out."""
    samples = []
    for k in range(SETUP_PROBES + warm_up):
        t0 = perf_counter()
        with subprocess.Popen(child_cmd(work, "--setup-only"), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=child_env()) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("set-up probe did not exit") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        if k or not warm_up:
            samples.append(elapsed)
    return samples


def run_child(work: Path, seconds: float, trace: int) -> dict:
    cmd = child_cmd(work, "--seconds", str(seconds), "--trace", str(trace))
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env()) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"run did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"run failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(setup: list, res: dict) -> dict:
    u = res["untraced"]
    lat = u["latency_s"]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(u["block_s"]),
        "work_per_s": u["work"] / sum(lat),
        "instance_p50_s": statistics.median(lat),
        "instance_p90_s": p90,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (u["attempted"] - u["failed"]) / u["attempted"],
    }


def declared(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sismob" / "__init__.py").is_file():
        print(f"error: no sismob source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared(args.trace)
    work = ROOT / "perfbench" / "_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = generate(args.workload, args.seed, work)
        # probes on both sides of the run, so a slow spell of the machine
        # moves fewer of them
        setup = time_setup(work, warm_up=True)
        res = run_child(work, args.seconds, args.trace)
        setup += time_setup(work, warm_up=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(work / "out", ignore_errors=True)

    values = res["layers"] if args.trace else end_to_end(setup, res)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    phases = [res[k] for k in ("untraced", "traced") if k in res]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": WORKLOADS[args.workload].why,
        "work_unit": manifest["work_unit"], "env": res["env"],
        "scenario_sha256": manifest["sha256"], "setup_s": setup,
        "phases": phases, "peak_rss_mb": res["peak_rss_mb"], "metrics": values,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    env = res["env"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} scenario runs, "
          f"{failed} failed (fail_frac {failed / attempted:.3g}); work unit "
          f"{manifest['work_unit']}; nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas_name']} {env['blas_version']} "
          f"threads={env['blas_threads_reported']}")
    for p in phases:
        for problem in p["problems"][:10]:
            print(f"  FAILED {problem}")
    for name in units:
        print(f"  {name:<34}{values[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
