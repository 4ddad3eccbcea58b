#!/usr/bin/env python3
"""Builds and runs the SNB benchmark from the root of a checkout.

    python3 snbbench/run.py --workload sf-b-reads --seed 1 --seconds 20 --trace 0

Builds snbbench/ (and with it the graphbench sources) into
$CARGO_TARGET_DIR, default .bench_build, then runs one benchmark process.
Build output goes to stderr; the benchmark's last stdout line is its JSON
result. Durable workloads write under .bench_data/, which is removed when
the run ends, however it ends.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
WORKLOADS = ("sf-b-reads", "sf-a-realtime", "sf-a-durable")


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                "--target", "snbbench"]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "snbbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("snbbench: build failed", file=sys.stderr)
        return 1

    os.makedirs(".bench_data", exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix="run-", dir=".bench_data")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--dir", data_dir]
    child = subprocess.Popen(cmd)
    # A termination request ends the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: child.kill())
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("snbbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_data")
        except OSError:
            pass  # another run's files are still there
    return code


if __name__ == "__main__":
    sys.exit(main())
