#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py
        --workload <chain_paper|sessions_laned|dag_blackout>
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (Release) into
.bench_build/perfbench; later runs reuse the build. The run record (machine
facts, source identity, seeds) goes to stdout ahead of the benchmark's own
output, whose last line is the JSON result. Spans of a traced run are written
to .bench_build/spans/. The exit code is the benchmark's: non-zero when the
build fails, an argument is wrong or a correctness check fails.
"""
import argparse
import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("chain_paper", "sessions_laned", "dag_blackout")


def build():
    """Configure and build; returns False (after printing the log tail)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources (src/CMakeLists.txt) in "
              + ROOT, file=sys.stderr)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    # Configure once; the build step re-runs CMake itself when a build file
    # changes.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT)
            if result.returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    tail = failed.readlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" + "".join(tail))
                return False
    return True


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10)
            if commit.returncode == 0 and commit.stdout.strip():
                return "commit " + commit.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "source sha256 " + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2
    print("machine: nproc %d, cpu %s, %s" % (os.cpu_count() or 0, cpu_model(),
                                             source_identity()), flush=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(span_dir, exist_ok=True)
        command += ["--span-dir", span_dir]
    # The benchmark's stdout passes straight through; its last line is the
    # JSON result. call() waits for the process to end.
    return subprocess.call(command, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
