#!/usr/bin/env python3
"""Build perfbench (Release) from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--keys <n>] [--corrupt-reference]

Workloads: lookup_uniform, rw_concurrent, server_pipelined, disk_rw (see
perfbench/METHODOLOGY.md). The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the checkout root; disk_rw's index
file lives in a per-run directory there that is removed on exit. The last
line of standard output is the result JSON; everything this script says
itself goes to standard error. Exit status is the benchmark's: 0 when
every check passed, nonzero otherwise (2 for usage or build errors).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Sources the benchmark compiles against; their absence means this is not
# a checkout of the whole repository.
REQUIRED = ["core/fiting_tree.h", "common/sink.cc", "telemetry/telemetry.cc",
            "storage/disk_fiting_tree.h", "server/sharded_index.h"]
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def source_identity():
    """Commit and dirty flag when this is a git checkout, plus a hash of
    every C++ source and build file, which identifies a plain copy too."""
    commit, dirty = "none", "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
        if status.returncode == 0:
            dirty = "1" if status.stdout.strip() else "0"
    skip = {os.path.basename(build_root())}
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and d not in skip
                             and not d.startswith("build"))
        for name in sorted(filenames):
            if name.endswith((".h", ".cc")) or name == "CMakeLists.txt":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, dirty, h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--keys", type=int)
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("repository sources missing (" + ", ".join(missing) +
             "); run from a full checkout")

    out = build_root()
    binary = build(os.path.join(out, "perfbench"))
    commit, dirty, digest = source_identity()

    # The engines must run with their shipped defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FITREE_")}
    scrubbed = sorted(set(os.environ) - set(env))
    if scrubbed:
        print("perfbench: ignoring " + ", ".join(scrubbed), file=sys.stderr)

    tmpdir = os.path.join(out, f"run-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--tmpdir", tmpdir, "--commit", commit, "--dirty", dirty,
           "--source-sha256", digest]
    if args.keys is not None:
        cmd += ["--keys", str(args.keys)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")

    sys.stdout.flush()
    child = subprocess.Popen(cmd, env=env)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        shutil.rmtree(tmpdir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        code = 3
        print("perfbench: run did not finish in time", file=sys.stderr)
    except KeyboardInterrupt:
        child.kill()
        child.wait()
        code = 130
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
