#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload build|read|ingest --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, one after another

Run it from the root of the repository. It builds the measuring program
(`perfbench/`, a cargo package of its own that uses the program's crates as
path dependencies) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs
one workload with the parameters in `perfbench/spec.json`, and prints the
workload's figures as `#` lines followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` ones of BENCHMARK.json,
with `--trace 1` the `per_layer` ones (spans are written to
`.perfbench_out/trace-<workload>.jsonl`). The exit code is nonzero when
the build fails, an output is wrong, or the metric names disagree with
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if res.returncode != 0:
        fail("building the benchmark failed")
    return target / "release" / "perfbench"


def run_one(binary, spec, bench, workload, seed, seconds, trace):
    params = spec["workloads"][workload]["params"]
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    out = ROOT / ".perfbench_out"
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--out", str(out)]
    for key, value in params.items():
        cmd += ["--param", f"{key}={value}"]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"workload {workload} printed nothing (exit {res.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"workload {workload}: last line is not JSON: {lines[-1]!r}")
    table = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail(f"workload {workload}: metrics {sorted(got)} disagree with "
             f"BENCHMARK.json {sorted(want)}")
    return res.returncode, lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "spec.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"reading the benchmark description: {e}")
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; have {names}")
    binary = build()

    if args.workload is not None:
        code, notes, result = run_one(binary, spec, bench, args.workload,
                                      args.seed, seconds, args.trace)
        for line in notes:
            print(line)
        print(json.dumps(result))
        sys.exit(code)

    # Every workload: print each metric by name with its unit.
    worst = 0
    for w in names:
        code, notes, result = run_one(binary, spec, bench, w, args.seed,
                                      seconds, args.trace)
        worst = max(worst, code)
        print(f"== {w}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for line in notes:
            print(line)
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
