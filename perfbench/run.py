#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake project over the msoc sources one directory
up) into .bench_build/perfbench, runs one workload in its own process
with a private temp directory under .bench_build/tmp, and prints that
process's output; its last line is the result JSON.  Run it from the
repository root.  --self-test runs every workload briefly and checks
that each emits exactly the metrics BENCHMARK.json names, with their
units, and that an injected wrong output is counted as failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
TMP_ROOT = os.path.join(".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "msoc_perfbench")
WORKLOADS = ("frontier_cold", "eco_warm", "daemon_mix", "scale_pack")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def scratch_env():
    """Child-process environment with TMPDIR inside the checkout, so
    neither the compilers nor the benchmark write anywhere else."""
    tmp = os.path.join(ROOT, TMP_ROOT)
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "plan", "CMakeLists.txt")):
        raise RuntimeError("no msoc sources next to perfbench/")
    cache = os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        command = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, cwd=ROOT, stdout=sys.stderr, check=True,
                       env=scratch_env())
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "msoc_perfbench",
                    "-j", jobs], cwd=ROOT, stdout=sys.stderr, check=True,
                   env=scratch_env())


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs one workload process; returns (stdout lines, result dict)."""
    env = scratch_env()
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, TMP_ROOT))
    try:
        command = [BINARY, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--tmp", os.path.relpath(tmp, ROOT),
                   "--revision", revision(), *extra]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload} printed a malformed result")
    return lines, result


def self_test():
    """Smoke-checks every workload, also scale_pack, which BENCHMARK.json
    leaves out, and the oracle; returns an exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = list(WORKLOADS)
    problems = []
    for workload in names:
        for trace in (0, 1):
            _, result = run_workload(workload, 1, 1, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics/units "
                                f"differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace {trace}: outputs wrong")
        # A broken output must not pass: corrupt op 0's output.
        _, result = run_workload(workload, 1, 1, 1, ("--inject-wrong", "0"))
        if (result["correct"] or result["failed"] < 1
                or result["metrics"]["failed_ratio"]["value"] <= 0):
            problems.append(f"{workload}: injected wrong output not caught")
        log(f"self-test {workload}: done")
    for problem in problems:
        log("FAIL " + problem)
    print(json.dumps({"self_test": "fail" if problems else "pass",
                      "workloads": names}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced run's spans "
                        "as Chrome trace JSON (with --trace 1)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        extra = (("--trace-out", os.path.abspath(args.trace_out))
                 if args.trace_out else ())
        lines, _ = run_workload(args.workload, args.seed, args.seconds,
                                args.trace, extra)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as error:
        log(f"error: {error}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
