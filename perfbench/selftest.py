"""Self-test of the benchmark, at toy sizes; stdlib unittest only.

    python3 perfbench/selftest.py

Run from the root of a checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NULL_TRACER, Tracer, layer_totals  # noqa: E402

SCRATCH = ROOT / ".perfbench_out" / "selftest"


def toy(name):
    workdir = SCRATCH / name
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.build(name, workloads.make_inputs(name, 7, "toy", str(workdir)), "toy")


def run_pass(workload, tracer=NULL_TRACER, replay=False):
    workload.before_pass()
    return [vars(workloads.run_op(op, tracer, replay)) for op in workload.ops]


class PinnedOutcomes(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_every_op_passes_its_pin_except_the_known_cli_defect(self):
        for name in workloads.WORKLOADS:
            records = run_pass(toy(name))
            failed = [r["name"] for r in records if r["failure"]]
            expected = ["extract-induced", "verify/extract"] if name == "cli-files" else []
            self.assertEqual(failed, expected, name)
            self.assertEqual(run.tally(records)[2], 0, name)

    def assert_one_more_unexpected_failure(self, name, spoil):
        """spoil(ops) changes one op; the run must count it as failed and
        as a failure that makes the run incorrect."""
        workload = toy(name)
        before = run.tally(run_pass(workload))
        spoil(workload.ops)
        after = run.tally(run_pass(workload))
        self.assertEqual(after[0], before[0], name)
        self.assertEqual(after[2], before[2] + 1, name)
        return before, after

    def test_wrong_pin_is_counted_in_error_rate(self):
        def spoil(ops):
            ops[0].expect = dict(ops[0].expect, outcome="something else")

        for name in workloads.WORKLOADS:
            before, after = self.assert_one_more_unexpected_failure(name, spoil)
            self.assertEqual(after[1], before[1] + 1, name)

    def test_crash_makes_the_run_incorrect(self):
        def crash(tracer):
            raise RuntimeError("crash")

        def spoil(ops):
            ops[-1].run = crash  # the last op: no later op reads its output

        for name in workloads.WORKLOADS:
            before, after = self.assert_one_more_unexpected_failure(name, spoil)
            self.assertEqual(after[1], before[1] + 1, name)

    def test_input_error_where_a_result_is_pinned_makes_the_run_incorrect(self):
        def spoil(ops):
            op = next(op for op in ops if op.name == "verify/find")
            op.run = lambda tracer: workloads.RwResult(workloads.EXIT_INPUT, "no such file", None)

        self.assert_one_more_unexpected_failure("cli-files", spoil)

    def test_known_defect_failing_another_way_makes_the_run_incorrect(self):
        def spoil(ops):
            op = next(op for op in ops if op.name == "extract-induced")
            op.run = lambda tracer: workloads.RwResult(2, "usage", None)

        before, after = self.assert_one_more_unexpected_failure("cli-files", spoil)
        self.assertEqual(after[1], before[1])

    def test_wrong_pinned_value_is_an_unexpected_failure(self):
        workload = toy("search-micro")
        op = next(op for op in workload.ops if op.name == "ramsey(2,2,3,6)")
        op.expect = workloads.describe_value(7)
        record = vars(workloads.run_op(op, NULL_TRACER))
        self.assertFalse(record["known"])
        self.assertIn("'value': 6", record["failure"])

    def test_replay_matches_pipeline_and_fills_layers(self):
        for name in ("setgraph-constant", "setgraph-planted", "cli-files"):
            tracer = Tracer()
            records = run_pass(toy(name), tracer, replay=True)
            self.assertEqual(run.tally(records)[2], 0, name)
            totals = layer_totals(tracer.spans, ["hypergraph.derive_coloring.subsets"])
            self.assertGreater(totals["hypergraph.derive_coloring.subsets"], 0, name)

    def test_same_seed_same_inputs(self):
        size = workloads.SIZES["toy"]["setgraph-planted"]
        first, second = (
            workloads.make_inputs("setgraph-planted", 3, "toy", None)["cases"] for _ in range(2)
        )
        self.assertEqual([bits for _, bits in first], [bits for _, bits in second])
        self.assertEqual(len(first), size["ops"])


class Checkout(unittest.TestCase):
    def test_fails_without_the_library(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "search-micro",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=""),
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
