#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark program (Release) with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
program in a fresh working directory under the build directory and
passes its output through. The last line of standard output is the
result object; see perfbench/src/main.cpp for the metrics.

Exits non-zero without a result when the library sources are missing,
the build fails, or the program fails or runs past its time limit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_warm", "edit_loop")
# A timed run may go on to three times --seconds; this much more covers
# its set-up, or a whole traced run.
SETUP_MARGIN_S = 60


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        # A cache left by a checkout at another path; start over once.
        shutil.rmtree(build_dir, ignore_errors=True)
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (works without git)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("library sources not found next to", HERE)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 2

    work = os.path.join(build_root, "perfbench-run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traces = os.path.join(build_root, "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(
        traces, "%s-seed%d.jsonl" % (args.workload, args.seed))
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--trace-out", trace_out, "--git-commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    timeout_s = 3 * args.seconds + SETUP_MARGIN_S
    proc = subprocess.Popen(command, cwd=work)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("timed out after", timeout_s, "s")
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
