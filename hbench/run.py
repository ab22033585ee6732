#!/usr/bin/env python3
"""Builds hbench from this checkout and runs one workload.

    python3 hbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
libraries and the hbench binary into .bench_build/hbench (Release, the
repository's own flags); later calls only rebuild what changed.

Prints the binary's metric table, then one `meta:` line that records how the
result was obtained (workload and why it exists, seed, nproc, CPU model,
build type, whether the kernel TU got -march=native, git commit or source
digest, the share of CPU time stolen by the hypervisor during the run),
then the result as the last line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

The same record is written to .bench_build/results/. With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list; a per-layer metric of a layer the workload does not run is
reported as 0. Exits non-zero without a result if the build fails, and with
the binary's code (1) when a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
# A run measures for --seconds, plus set-up, warm-up and the checks; at
# the benchmark's 20 s this stays inside a 180 s budget.
MIN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    # A configure that failed leaves a cache but no build system behind.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "hbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "hbench")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def git_commit():
    # A checkout without .git must not pick up an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "hbench"):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        fail(f"unknown workload {args.workload!r}; known: {sorted(why)}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    ticks0 = cpu_ticks()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group: on a timeout the forked dist workers go too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout = max(MIN_TIMEOUT_S, 3 * args.seconds + 60)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"hbench did not finish within {timeout:.0f} s")
    ticks1 = cpu_ticks()
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"hbench printed no result (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"hbench printed no result (exit code {proc.returncode})")

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - {m["name"] for m in wanted})
    if unknown:
        fail(f"hbench reported metrics BENCHMARK.json does not list: {unknown}")
    for m in wanted:
        if m["name"] in metrics:
            continue
        if not args.trace:
            fail(f"hbench did not report end-to-end metric {m['name']}")
        metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}

    meta = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": cmake_cache("CMAKE_CXX_COMPILER"),
        "kernel_march_native": cmake_cache("HOGA_HAS_MARCH_NATIVE") == "1",
        # Share of CPU time the hypervisor gave to other guests during the
        # run; slow runs on a shared host coincide with a high share.
        "steal_frac": (round((ticks1[0] - ticks0[0]) /
                             max(1, ticks1[1] - ticks0[1]), 4)
                       if ticks0 and ticks1 else None),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1)
    print("meta: " + json.dumps(meta))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
