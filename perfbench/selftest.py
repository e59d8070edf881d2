"""Self-tests of the benchmark, on tiny batches.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run_tiny(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)


class SpansNest(unittest.TestCase):
    def test_spans_nest_and_self_times_add_up(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                run_tiny(workload, 1)
                out = os.path.join(ROOT, ".perfbench", workload)
                with open(os.path.join(out, "spans.json")) as handle:
                    data = json.load(handle)
                with open(os.path.join(out, "result-traced.json")) as handle:
                    wall_ns = sum(json.load(handle)["check_s"]) * 1e9
                spans = {s[0]: dict(zip(data["fields"], s)) for s in data["spans"]}
                self.assertTrue(spans)
                for span in spans.values():
                    self.assertGreaterEqual(span["self_ns"], 0)
                    self.assertLessEqual(span["start_ns"], span["end_ns"])
                    if span["parent"] != -1:
                        parent = spans[span["parent"]]
                        self.assertEqual(parent["check"], span["check"])
                        self.assertLessEqual(parent["start_ns"], span["start_ns"])
                        self.assertLessEqual(span["end_ns"], parent["end_ns"])
                    else:
                        self.assertEqual(span["name"], "cli.main")
                self.assertLessEqual(sum(s["self_ns"] for s in spans.values()), wall_ns)


class WrongVerdictCounts(unittest.TestCase):
    def test_a_wrong_expected_verdict_is_a_failure(self):
        from ctxlab import cli

        out = os.path.join(ROOT, ".perfbench", "selftest")
        batch = workloads.build("net-fock", 7, "tiny", out)
        weyl = next(i for i, c in enumerate(batch) if c["kind"] == "gft-weyl")
        other = 1 if weyl == 0 else 0
        batch[other] = dict(batch[other], exit_code=1 - batch[other]["exit_code"])
        batch[weyl] = dict(batch[weyl], expect=dict(batch[weyl]["expect"], cutoffs=[2, 3, 4, 5]))
        phase = run_pass(cli, batch)
        self.assertEqual(phase["attempted"], len(batch))
        self.assertEqual(phase["failed"], len(phase["failures"]))
        self.assertEqual({f["check"] for f in phase["failures"]}, {batch[other]["name"], batch[weyl]["name"]})


if __name__ == "__main__":
    unittest.main()
