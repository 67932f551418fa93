#!/usr/bin/env python3
"""SKIP-Sim host-performance benchmark.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles
the simulator from ../src) into .bench_build/perfbench, runs one
workload, checks the simulated outputs against the reference digests
in perfbench/refs/, and prints the result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|tiny] [--iterations N] [--refs DIR]
    python3 perfbench/run.py --record-refs

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(and writes the benchmark's own spans to .bench_build/spans/).
--size tiny, --iterations and --refs exist for the benchmark's tests.
--record-refs regenerates every reference file from the current code;
do that only for a change that is meant to alter simulated results.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("characterize", "datacenter", "traced-sessions")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources not found at %s" % (ROOT / "src"))
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "skipbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD / "skipbench"


def run_driver(binary, argv, timeout=RUN_TIMEOUT_S):
    """Run the driver; return (lines before the last, parsed last line)."""
    proc = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: driver failed (exit %d)" % proc.returncode)
        sys.exit(1)
    return lines[:-1], json.loads(lines[-1])


def ref_path(refs_dir, workload):
    return Path(refs_dir) / ("%s.json" % workload)


def check_outputs(out, refs):
    """Count ops whose digests differ from the references.

    An op's digests are named "<op>" or "<op>#<output>"; an op fails
    once per run of it in which any of its outputs mismatched.
    """
    failed = {}
    for name, digest, count in out["ops"]:
        expected = refs.get(name)
        if expected == digest:
            continue
        print("digest mismatch: %s: expected %s, got %s"
              % (name, expected, digest))
        op = name.split("#")[0]
        failed[op] = max(failed.get(op, 0), int(count))
    return sum(failed.values()) + int(out["errors"])


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def record_refs(binary):
    for workload in WORKLOADS:
        digests = {}
        sizes = ("full",) if workload == "characterize" else ("full", "tiny")
        for size in sizes:
            log("recording %s (%s)" % (workload, size))
            _, out = run_driver(binary, ["--workload", workload,
                                         "--size", size, "--emit-refs"],
                                timeout=None)
            for name, digest, _ in out["ops"]:
                digests[name] = digest
        path = ref_path(HERE / "refs", workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--iterations", type=int, default=0)
    ap.add_argument("--refs", default=str(HERE / "refs"))
    ap.add_argument("--record-refs", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if args.record_refs:
        record_refs(binary)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--iterations", str(args.iterations)]
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        argv += ["--span-out", str(spans / ("%s-seed%d.json"
                                            % (args.workload, args.seed)))]
    start = time.monotonic()
    notes, out = run_driver(binary, argv)
    for line in notes:
        print(line)

    refs = json.loads(ref_path(args.refs, args.workload).read_text())
    failed = check_outputs(out, refs)
    metrics = out["metrics"]
    missing = [m for m in expected_metrics(args.trace) or []
               if m not in metrics]
    for name in missing:
        print("metric missing: %s" % name)
    samples = out["samples"]
    print("%s seed %d: %d iterations (%d traced), %d op samples "
          "(op p50 %.4g ms), %d ops, %.1f s"
          % (args.workload, args.seed, samples["iterations"],
             samples["traced_iterations"], samples["op_samples"],
             samples["op_ms_p50"], out["attempted"],
             time.monotonic() - start))
    if "completed_share" in samples:
        print("simulated requests completed within the horizon: %.3f"
              % samples["completed_share"])
    result = {
        "correct": failed == 0 and not missing,
        "attempted": int(out["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
