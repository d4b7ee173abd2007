#!/usr/bin/env python3
"""Benchmark of the ScalableBulk simulator: one workload, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench.cc) and the simulator library from source into
.bench_build/perfbench, runs the workload as a fixed number of passes (one
process per pass), checks the outputs, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. README.md in this directory defines every metric and workload.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# Host seconds of one pass (untraced) and of one (untraced, traced) pair,
# measured on a shared 4-CPU Xeon VM with a Release build, at the slow end
# of what that host showed. --seconds buys round(seconds / nominal) of
# them, so every run of a workload measures the same op set on both
# commits of a comparison whatever their speed.
NOMINAL_PASS_S = {
    "matrix-64p": 18.0,
    "radix-256p-sharded": 3.8,
    "check-faulted-4p": 5.7,
}
NOMINAL_PAIR_S = {
    "matrix-64p": 55.0,
    "radix-256p-sharded": 14.0,
    "check-faulted-4p": 15.0,
}
# A run must end within 180 s; stop starting passes after this.
DEADLINE_S = 150.0
PASS_TIMEOUT_S = 170.0
OPTIMIZED_TYPES = ("Release", "RelWithDebInfo")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(values):
    """The highest percentile with at least 10 values beyond it.

    Returns (value, percentile, n), or None when n <= 10. Sorted ascending,
    the value is the one with exactly ten values above it; its percentile
    is the share of values at or below it.
    """
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def op_tail(passes):
    """op_ms_tail: the median over windows of each window's tail.

    A window is one pass (the whole workload) when a pass has more than 10
    ops, which keeps one host hiccup from setting the run's figure;
    otherwise the run's ops pool into one window. Returns (value,
    percentile, ops per window, windows), or None without a tail.
    """
    windows = [p["op_ms"] for p in passes]
    if len(windows[0]) <= 10:
        windows = [[x for w in windows for x in w]]
    tails = [tail(w) for w in windows]
    if any(t is None for t in tails):
        return None
    return (statistics.median(t[0] for t in tails), tails[0][1],
            tails[0][2], len(tails))


def failure_share(passes):
    """(attempted, failed, ok share) summed over pass outputs."""
    attempted = sum(len(p["op_ms"]) for p in passes)
    failed = sum(int(p["failed"]) for p in passes)
    if attempted < 1:
        raise BenchError("no op was attempted")
    return attempted, failed, (attempted - failed) / attempted


def end_to_end(passes):
    """End-to-end metric values from untraced pass outputs."""
    op_ms = [x for p in passes for x in p["op_ms"]]
    t = op_tail(passes)
    if t is None:
        raise BenchError(f"{len(op_ms)} ops leave no tail (need > 10)")
    _, _, ok_share = failure_share(passes)
    return {
        "commits_per_s": statistics.median(
            p["pass"]["commits"] / p["pass"]["sim_s"] for p in passes),
        "wall_s": statistics.median(p["pass"]["wall_s"] for p in passes),
        "setup_s": statistics.median(
            x for p in passes for x in p["op_setup_s"]),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": t[0],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_ok_share": ok_share,
    }


def per_layer(passes):
    """Per-layer values: the median of each over the traced pairs."""
    names = set(passes[0]["layers"])
    for p in passes[1:]:
        if set(p["layers"]) != names:
            raise BenchError("traced passes emitted different metrics")
    return {n: statistics.median(p["layers"][n] for p in passes)
            for n in sorted(names)}


def result(spec, passes, trace):
    """The result object, with every metric BENCHMARK.json names."""
    kind = "per_layer" if trace else "end_to_end"
    values = per_layer(passes) if trace else end_to_end(passes)
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(wanted):
        missing = sorted(set(wanted) - set(values))
        extra = sorted(set(values) - set(wanted))
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")
    attempted, failed, _ = failure_share(passes)
    errors = [e for p in passes for e in p["errors"]]
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": wanted[n]}
                    for n in sorted(values)},
    }


def run_quiet(cmd):
    """Run a build step; its output goes to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no simulator sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
               "-j", jobs])


def source_hash():
    """SHA-256 over the simulator and benchmark sources, for the record."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            # Bytecode caches hold source mtimes, not source.
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    """Host and build identity; refuses unoptimized or sanitizer builds."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(\w+):\w+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper())).strip()
    if (build_type not in OPTIMIZED_TYPES
            or not re.search(r"-O[123s]", flags) or "-fsanitize" in flags):
        raise BenchError(f"refusing to time a '{build_type}' build with "
                         f"flags '{flags}'")
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": cache.get("CMAKE_CXX_COMPILER", "unknown"),
        "build_type": build_type,
        "cxx_flags": flags,
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
    }


def run_pass(args, index, started):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--pass", str(index), "--trace", str(args.trace)]
    timeout = max(1.0, min(PASS_TIMEOUT_S,
                           PASS_TIMEOUT_S - (time.monotonic() - started)))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"pass timed out after {timeout:.0f} s") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    fp = fingerprint()
    started = time.monotonic()
    nominal = (NOMINAL_PAIR_S if args.trace else NOMINAL_PASS_S)
    count = max(1, round(args.seconds / nominal[args.workload]))
    passes = []
    i = 0
    while i < count:
        if i > 0 and time.monotonic() - started > DEADLINE_S:
            print(f"note: stopped after {i} of {count} passes at the "
                  f"{DEADLINE_S:.0f} s deadline")
            break
        passes.append(run_pass(args, i, started))
        if i == 0 and not args.trace:
            # Enough passes for a tail: more than 10 ops.
            count = max(count, math.ceil(11 / len(passes[0]["op_ms"])))
        i += 1

    fp["compiler_version"] = passes[0]["build"]["compiler"]
    print("host: " + json.dumps(fp, sort_keys=True))
    op_ms = [x for p in passes for x in p["op_ms"]]
    t = op_tail(passes)
    if t is not None:
        print(f"ops: n={len(op_ms)} p50={statistics.median(op_ms):.4f} ms; "
              f"tail p{t[1]:.2f} over {t[3]} window(s) of n={t[2]}: "
              f"{t[0]:.4f} ms; passes={len(passes)} (op times untraced)")
    for line in dict.fromkeys(r for p in passes for r in p["replays"]):
        print(f"failing schedule: {line}")
    for line in dict.fromkeys(e for p in passes for e in p["errors"]):
        print(f"error: {line}")
    out = result(spec, passes, args.trace)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
