"""Self-tests of the benchmark itself (stdlib unittest).

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import hashlib
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as w  # noqa: E402
from tracing import SpanStats, Tracer, targets  # noqa: E402


class OutOfRangeLinks(w.EffectorScript):
    """The workload script, except one set_active_links beyond total_links."""

    def command(self, t, observed):
        kind, fields = super().command(t, observed)
        if t == 5:
            return "set_active_links", {"active_links": self.total_links + 1}
        return kind, fields


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.config = w.write_base_config()

    def test_tiny_runs_of_all_workloads_complete(self):
        for workload, size in (("long_threshold", 300), ("sweep", 1), ("wire_effector", 40)):
            with self.subTest(workload=workload):
                unit = run.run_unit(w, workload, self.config, 3, size)
                self.assertEqual(unit.failed, 0)
                self.assertGreater(unit.attempted, 0)
                self.assertEqual(len(unit.digest), 64)
                self.assertGreater(unit.steps_per_s, 0)
                self.assertTrue(unit.rounds)
        checks = run.Checks()
        unit = run.run_unit(w, "wire_effector", self.config, 3, 40)
        run.wire_cross_check(w, checks, self.config, 3, 40, unit.digest, unit.detail["errors"])
        self.assertEqual(checks.failures, 0, checks.results)

    def test_rounds_are_scaled_window_by_window(self):
        for workload, size in (("long_threshold", 5_000), ("wire_effector", 1_200)):
            with self.subTest(workload=workload):
                unit = run.run_unit(w, workload, self.config, 3, size)
                blocks = -(-len(unit.rounds) // unit.block)
                self.assertEqual(len(unit.calibrations), blocks)
        unit = w.Unit(steps=6, wall_ns=1, digest="", stats={}, block=2, window=2,
                      rounds=w.array("q", [10, 20, 30, 40, 50, 60]),
                      calibrations=w.array("d", [1.0] * 3))
        stats = run.window_stats(unit)
        self.assertEqual([(p50, p99) for _, p50, p99 in stats], [(10, 20), (30, 40), (50, 60)])
        for (rate, _, _), total in zip(stats, (30, 70, 110)):
            self.assertAlmostEqual(rate, 2e9 / total)
        unit.calibrations = w.array("d", [2.0] * 3)
        rate, p50, p99 = run.window_stats(unit)[0]
        self.assertEqual((p50, p99), (5, 10))
        self.assertAlmostEqual(rate, 4e9 / 30)
        self.assertEqual(run.window_stats(unit, scaled=False)[0][1:], (10, 20))

    def test_digest_gate_trips_on_a_perturbed_trace(self):
        unit = w.long_threshold(self.config, 3, 300, keep=True)
        text = w.mirrorsim.render_trace_csv(unit.detail["result"].trace)
        lines = text.splitlines(keepends=True)
        cells = lines[10].split(",")
        cells[3] = f"{float(cells[3]) + 1e-6:.6f}"
        lines[10] = ",".join(cells)
        perturbed = hashlib.sha256("".join(lines).encode()).hexdigest()
        goldens = {"long_threshold": {"3@300": unit.digest}}

        checks = run.Checks()
        run.golden_check(checks, goldens, "long_threshold", 3, 300, unit.digest, required=True)
        self.assertEqual(checks.failures, 0)
        run.golden_check(checks, goldens, "long_threshold", 3, 300, perturbed, required=True)
        self.assertEqual(checks.failures, 1)
        run.golden_check(checks, goldens, "long_threshold", 4, 300, unit.digest, required=True)
        self.assertEqual(checks.failures, 2, "a missing pinned digest must fail the gate")

    def test_error_rate_counts_an_injected_out_of_range_reply(self):
        unit = w.wire_effector(self.config, 3, 40, script=OutOfRangeLinks)
        self.assertEqual(unit.detail["errors"], 1)
        self.assertEqual(unit.failed, 1)
        self.assertGreater(unit.failed / unit.attempted, 0)
        digest, replay_digest, rejected, _ = w.wire_redrive(
            self.config, 3, 40, script=OutOfRangeLinks)
        self.assertEqual(rejected, 1)
        self.assertEqual(digest, unit.digest)
        self.assertEqual(replay_digest, unit.digest)

    def test_tracer_restores_targets_and_records_self_time(self):
        originals = [owner.__dict__[attr] for owner, attr, *_ in targets()]
        tracer = Tracer()
        with tracer.installed():
            unit = w.long_threshold(self.config, 3, 50)
        restored = [owner.__dict__[attr] for owner, attr, *_ in targets()]
        self.assertEqual(originals, restored)
        spans = SpanStats([tracer])
        self.assertEqual(spans.count("runner.step"), 50)
        self.assertEqual(spans.count("managers.decide"), 50)
        self.assertEqual(spans.units["managers.decide"], unit.stats["switches"])
        self.assertLess(spans.median_us("runner.step", self_time=True),
                        spans.median_us("runner.step"))


if __name__ == "__main__":
    unittest.main()
