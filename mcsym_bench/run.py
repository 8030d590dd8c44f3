#!/usr/bin/env python3
"""Build mcsym-bench from this source checkout and run it.

    python3 mcsym_bench/run.py --workload dpor_parallel --seed 1 --seconds 10 --trace 0
    python3 mcsym_bench/run.py --selftest
    python3 mcsym_bench/run.py --make-table

Run from the root of the checkout. The build goes to .bench_build/ (the
library is compiled from src/ by mcsym_bench/CMakeLists.txt); build output
goes to stderr, so the last line of stdout is the benchmark's result object.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mcsym_bench")
TABLE = os.path.join(HERE, "expected_verdicts.tsv")
EXAMPLES = os.path.join(ROOT, "examples")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "none"


def source_digest():
    """sha256 over src/ (paths and bytes): what was measured, with or without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the benchmark's tests")
    ap.add_argument("--make-table", action="store_true",
                    help="regenerate expected_verdicts.tsv (slow; review the diff)")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"mcsym-bench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [os.path.join(BUILD, "mcsym_bench_selftest"),
               "--examples", EXAMPLES, "--table", TABLE]
    elif args.make_table:
        cmd = [os.path.join(BUILD, "mcsym_bench"), "--make-table", TABLE]
    else:
        if not args.workload:
            ap.error("--workload is required")
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd = [os.path.join(BUILD, "mcsym_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--examples", EXAMPLES, "--table", TABLE,
               "--commit", git_commit(), "--source-digest", source_digest()]
        if args.trace:
            cmd += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
