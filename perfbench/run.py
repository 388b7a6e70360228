#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
simulator libraries from src/ plus the benchmark program (Release) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse the
build.  Build output goes to standard error.  The program's standard output
passes through unchanged: human-readable lines, then one JSON line.  A traced
run leaves its host-time spans in <build dir>/traces/.

    python3 perfbench/run.py --selftest

builds and runs the tests of the benchmark's own helpers.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_churn", "svc_storm", "paper_reclaim")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(out, target)


def check_names(line, traced):
    """The metrics printed must be exactly those BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = set(json.loads(line)["metrics"])
    if got != want:
        fail(f"printed metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - got)}, extra {sorted(got - want)}")


def check_meta():
    """meta.json must describe every workload and metric BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "meta.json")) as f:
        meta = json.load(f)
    gaps = []
    for key in ("workloads", "end_to_end", "per_layer"):
        want = {m["name"] for m in spec[key]}
        gaps += [f"{key}: {n}" for n in sorted(want ^ set(meta[key]))]
    for g in gaps:
        print(f"  FAIL  meta.json and BENCHMARK.json disagree on {g}")
    print("meta.json: " + ("FAIL" if gaps else "PASS"))
    return 1 if gaps else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        rc = subprocess.run([build("perfbench_selftest")]).returncode
        sys.exit(rc or check_meta())
    if args.workload is None:
        ap.error("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        check_names(lines[-1], args.trace == 1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
