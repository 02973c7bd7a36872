#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload <meta_spine|fleet_replay|mmap_aged> \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the simulator libraries under src/) into
.bench_build/perfbench as an optimized build, runs the workload with a clean
environment, and passes its output through. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Earlier lines
record the build type, compiler, host CPU count, source revision and seed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("meta_spine", "fleet_replay", "mmap_aged")
RUN_TIMEOUT_S = 170
# Settings that would change host speed or leak cached state between runs.
CLEARED_ENV = ("WINEFS_SNAP_DIR", "WINEFS_SNAP_REBUILD", "WINEFS_TRACE_DIR",
               "WINEFS_HOST_THREADS", "BENCH_OUT_DIR")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr)


def source_digest():
    """SHA-256 over every file the benchmark is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; never look above ROOT
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(args):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["WINEFS_REFERENCE_SIM"] = "0"  # time the fast simulator
    work_dir = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    os.makedirs(work_dir)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(BUILD_DIR, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 1, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources at %s; run from the root of a full checkout"
            % os.path.join(ROOT, "src"))
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 2

    code, lines = run(args)
    if code != 0 or not lines:
        log("workload exited with code %d" % code)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("malformed result line: %r" % lines[-1])
        return 1
    for line in lines[:-1]:
        print(line)
    # The binary's first line already names the build type and compiler.
    record = {
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
    }
    print("perfbench: env " + json.dumps(record, sort_keys=True))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
