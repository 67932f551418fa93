#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs.

    python3 perfbench/test_perfbench.py

- every workload prints every metric named in BENCHMARK.json, traced
  and untraced, with correct outputs;
- a wrong reference digest fails exactly the op it belongs to;
- on characterize the traced layer spans cover >= 90% of the wall time.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.ROOT / ".bench_build" / "test"


def bench(workload, *extra, trace=0, seed=3, seconds=1):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace",
            str(trace), "--size", "tiny"] + list(extra)
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def tampered_refs(workload, names):
    """A copy of the reference files with @p names' digests flipped."""
    refs_dir = SCRATCH / "refs"
    shutil.rmtree(refs_dir, ignore_errors=True)
    shutil.copytree(HERE / "refs", refs_dir)
    path = refs_dir / ("%s.json" % workload)
    refs = json.loads(path.read_text())
    for name in names:
        refs[name] = "0" * 16 if refs[name] != "0" * 16 else "1" * 16
    path.write_text(json.dumps(refs))
    return refs_dir


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        cls.binary = run.build()

    def test_every_metric_is_printed(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, result = bench(workload, trace=trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = [m["name"] for m in SPEC[key]]
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(names))
                    units = {m["name"]: m["unit"] for m in SPEC[key]}
                    for name, entry in result["metrics"].items():
                        self.assertEqual(entry["unit"], units[name])
                        self.assertTrue(math.isfinite(entry["value"]))
                        if trace == 0:
                            self.assertGreater(entry["value"], 0, name)

    def test_wrong_digest_fails_one_profile(self):
        # One (model, platform, mode) point runs once per tiny pass, at
        # one of its sequence lengths: flip the digests of all of them.
        proc = subprocess.run(
            [str(self.binary), "--workload", "characterize", "--size",
             "tiny", "--emit-refs"],
            stdout=subprocess.PIPE, text=True, check=True)
        names = [op[0] for op in json.loads(proc.stdout)["ops"]]
        point = names[0].rsplit("/", 1)[0] + "/"
        refs = tampered_refs("characterize",
                             [n for n in names if n.startswith(point)])
        notes, result = bench("characterize", "--iterations", "1",
                              "--refs", str(refs))
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertTrue(any(n.startswith("digest mismatch: " + point)
                            for n in notes))

    def test_wrong_digest_fails_one_cluster_run(self):
        # Seed 5 runs arrival variant 5 first.
        refs = tampered_refs("datacenter", ["datacenter/tiny/v5#report"])
        notes, result = bench("datacenter", "--iterations", "1",
                              "--refs", str(refs), seed=5)
        self.assertEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 1)
        self.assertIn("digest mismatch: datacenter/tiny/v5#report",
                      "\n".join(notes))

    def test_layers_cover_characterize_wall_time(self):
        _, result = bench("characterize", trace=1)
        coverage = result["metrics"]["layers.coverage_pct"]["value"]
        self.assertGreaterEqual(coverage, 90.0)


if __name__ == "__main__":
    unittest.main()
