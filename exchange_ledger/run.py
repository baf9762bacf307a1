#!/usr/bin/env python3
"""Build and run the exchange cost ledger.

Run from the repository root:

    python3 exchange_ledger/run.py --workload exchange_saturate \
        --seed 1 --seconds 25 --trace 0

Builds the BcWAN libraries and the ledger binary from source (Release) into
.bench_build/exchange_ledger, runs one workload, and passes the binary's
stdout through: an info line (fingerprint, counts) and, last, the result
object. Exits non-zero without a result if the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exchange_saturate", "exchange_paced", "chain_sync")


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "exchange_ledger"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "exchange_ledger")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(base, "exchange_ledger")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"exchange_ledger build failed: {err}", file=sys.stderr)
        return 1

    workdir = os.path.join(base, "exchange_ledger_work", str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir, f"spans-{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("exchange_ledger timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{\"correct\""):
        sys.stderr.write(proc.stdout)
        print(f"exchange_ledger exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
