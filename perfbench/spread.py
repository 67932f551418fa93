#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

For every workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the interquartile spread as a share of
the median (--out also keeps each run's value, in run order), and flags end-to-end metrics whose spread exceeds a third
of their bound in BENCHMARK.json (setup_s excepted, as the bound on it
applies to medians only).

Usage:
    python3 perfbench/spread.py --seeds 1,2,3,4,5 [--workloads a,b]
        [--trace 0|1] [--out summary.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"seconds": spec["run_seconds"], "seeds": seeds,
               "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                proc.check_returncode()
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect result" % (workload, seed))
                steady = False
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "iqr_share": share, "values": vals}
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound and name != "setup_s" and share > bound / 3:
                flag = "  <-- above bound/3 (%.3f)" % (bound / 3)
                steady = False
            print("%-16s %-28s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %.4f%s" % (workload, name, med, q1, q3, share,
                                     flag))
        summary["workloads"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
