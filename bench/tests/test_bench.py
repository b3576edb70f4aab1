"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import algebra  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, start, end, name="n", tag=None, settled=None):
    return (sid, parent, 1, name, start, end, end if settled is None else settled, tag)


def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        # root 0..100 has children 10..30 and 40..90; the second has a
        # grandchild 50..60 that counts against it, not against the root.
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 40, 90), span(4, 3, 50, 60)]
        self.assertEqual(tracing.self_times(spans), {1: 30, 2: 20, 3: 40, 4: 10})

    def test_overlapping_and_overhanging_children_cover_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 40, 60), span(4, 1, 90, 120)]
        self.assertEqual(tracing.self_times(spans)[1], 100 - 50 - 10)

    def test_counting_after_a_child_ends_is_charged_to_neither(self):
        # The child's counts took 30..40 after its call ended at 30.
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30, settled=40)]
        self.assertEqual(tracing.self_times(spans), {1: 70, 2: 20})

    def test_layer_metrics_sum_self_time_and_reason_tags(self):
        spans = [
            span(1, 0, 0, 1_000_000_000, "cli.main"),
            span(2, 1, 0, 400_000_000, "decision.decide", "SemigroupMember"),
            span(3, 2, 0, 100_000_000, "polynomials.mul"),
        ]
        values = tracing.layer_metrics(spans, {"polynomials.mul.term_pairs": 6}, 1.5,
                                       per_layer_names())
        self.assertAlmostEqual(values["cli.main.self_s"], 0.6)
        self.assertAlmostEqual(values["decision.decide.self_s"], 0.3)
        self.assertEqual(values["decision.reason.SemigroupMember"], 1)
        self.assertAlmostEqual(values["decision.reason_s.SemigroupMember"], 0.4)
        self.assertEqual(values["polynomials.mul.term_pairs"], 6)
        self.assertEqual(values["trace.overhead_ratio"], 1.5)
        self.assertEqual(values["reduction.found_ratio"], 0)


class TailTest(unittest.TestCase):
    def test_none_below_a_hundred_samples(self):
        self.assertIsNone(harness.tail_percentile(range(99)))

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(harness.tail_percentile(range(1, 101)), ("p90", 90, 10))
        self.assertEqual(harness.tail_percentile(range(1, 1000))[0], "p90")
        self.assertEqual(harness.tail_percentile(range(1, 1001)), ("p99", 990, 10))
        self.assertEqual(harness.tail_percentile(range(1, 10001)), ("p99.9", 9990, 10))

    def test_limits_keep_the_percentile_of_each_workload(self):
        for name, limits in harness.LIMITS.items():
            ops = len(workloads.GENERATORS[name](1).ops)
            lowest = max(ops, -(-limits.min_ops // ops) * ops)
            highest = max(ops, limits.max_ops // ops * ops)
            self.assertEqual(harness.tail_percentile(range(lowest))[0],
                             harness.tail_percentile(range(min(highest, 10**5)))[0], name)


class SpeedClockTest(unittest.TestCase):
    def clock(self):
        # Probes at 0, 100 and 200 ms; the last one runs at a third of the
        # reference speed, so the stretch before it counts at half speed.
        ref = speed.REFERENCE_NS
        clock = speed.SpeedClock()
        clock.starts = [0, 100_000_000, 200_000_000]
        clock.probes_ns = [ref, ref, 3 * ref]
        clock.settle()
        return clock

    def test_span_between_probes_at_reference_speed(self):
        self.assertEqual(self.clock().span(10_000_000, 50_000_000), (40_000_000, 40_000_000))

    def test_probe_time_is_cut_out_and_each_stretch_scaled(self):
        raw, scaled = self.clock().span(50_000_000, 150_000_000)
        self.assertEqual(raw, 50_000_000 + 150_000_000 - 100_000_000 - speed.REFERENCE_NS)
        self.assertAlmostEqual(scaled, 50_000_000 + (raw - 50_000_000) / 2)

    def test_running_clock_probes_inside_a_long_op(self):
        with speed.SpeedClock() as clock:
            end = time.perf_counter_ns() + int(3 * speed.PROBE_EVERY_S * 1e9)
            while time.perf_counter_ns() < end:
                pass
        self.assertGreaterEqual(len(clock.probes_ns), 4)
        self.assertEqual(clock.starts, sorted(clock.starts))


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, generate in workloads.GENERATORS.items():
            self.assertEqual(generate(7).digest(), generate(7).digest(), name)

    def test_seed_changes_only_seeded_workloads(self):
        for name, generate in workloads.GENERATORS.items():
            same = generate(7).digest() == generate(8).digest()
            self.assertEqual(same, not workloads.SEEDED[name], name)

    def test_deep_strata(self):
        triples = workloads.deep_triples(3)
        self.assertEqual(len(triples), 700)
        for d1 in workloads.DEEP_D1:
            self.assertEqual(sum(1 for t in triples if t[0] == d1), workloads.DEEP_PER_D1)
        self.assertTrue(all(t[0] < t[1] <= 30 and 100 <= t[2] <= 600 for t in triples))

    def test_example_inputs_are_the_paper_map(self):
        f1, f2, f3 = workloads.example_map()
        self.assertEqual([algebra.degree(p) for p in (f1, f2, f3)], [10, 23, 25])


class FailureAccountingTest(unittest.TestCase):
    def test_wrong_decision_counts_every_pass(self):
        inputs = workloads.Inputs([[3, 5, 8], [3, 4, 5]])
        good = SimpleNamespace(triple=(3, 5, 8), verdict="Tame", reason="SemigroupMember",
                               representation=(1, 1), witness=("word",))
        wrong = SimpleNamespace(triple=(3, 4, 5), verdict="Tame", reason="SemigroupMember",
                                representation=(1, 1), witness=("word",))
        log = harness.PassLog()
        for _ in range(3):
            harness.run_pass(inputs.ops, lambda spec: good if spec[2] == 8 else wrong, log)
            harness.record(log, [good, wrong])
        errors = [oracles.ScanOracle(inputs, 0).check(s, o) for s, o in zip(inputs.ops, log.reference)]
        self.assertIsNone(errors[0])
        self.assertIsNotNone(errors[1])
        failed, reasons = harness.count_failures(log, errors)
        self.assertEqual(failed, 3)

    def test_output_that_changes_between_passes_fails(self):
        log = harness.PassLog()
        harness.run_pass([["a"]], lambda spec: (0, "x"), log)
        harness.record(log, [(0, "x")])
        harness.run_pass([["a"]], lambda spec: (0, "y"), log)
        harness.record(log, [(0, "y")])
        self.assertEqual(harness.count_failures(log, [None])[0], 1)

    def test_raising_op_is_a_failure(self):
        log = harness.PassLog()
        outputs = harness.run_pass([["a"]], lambda spec: 1 / 0, log)
        self.assertIsInstance(outputs[0], oracles.Failure)
        self.assertEqual(len(log.latencies_ns), 1)

    def test_wrong_residual_is_rejected(self):
        inputs = workloads.reduce_inputs(1)
        name = inputs.ops[0][1]
        comps = inputs.context["maps"][name]
        wrong = json.dumps({"found": True, "target": 3, "g": "u", "residual": "x + 1",
                            "residual_degree": 1})
        self.assertIsNotNone(oracles.ReduceOracle(inputs, 0).check(["reduce", name], (0, wrong)))
        self.assertIsNotNone(oracles.ReduceOracle(inputs, 0).check(["reduce", name], (1, "")))
        self.assertEqual(len(comps), 3)

    def test_word_map_without_a_reduction_is_rejected(self):
        inputs = workloads.reduce_inputs(1)
        none = json.dumps({"found": False, "target": None, "g": None, "residual": None,
                           "residual_degree": None})
        oracle = oracles.ReduceOracle(inputs, 0)
        random_maps = {f"map{i:03d}.txt" for i in range(3, workloads.REDUCE_MAPS, 4)}
        for spec in inputs.ops:
            rejected = oracle.check(spec, (0, none)) is not None
            self.assertEqual(rejected, spec[1] not in random_maps, spec[1])

    def test_decision_claims(self):
        error = oracles.decision_error
        self.assertIsNone(error((3, 5, 7), "NotTame", "Theorem3Exclusion", None, False))
        self.assertIsNone(error((3, 5, 8), "Tame", "SemigroupMember", (1, 1), True))
        # 8 = 3 + 5 is a member, so no exclusion or Unknown may be claimed.
        self.assertIsNotNone(error((3, 5, 8), "Unknown", "HypothesesFail", None, False))
        self.assertIsNotNone(error((3, 5, 8), "NotTame", "Theorem3Exclusion", None, False))
        self.assertIsNotNone(error((3, 5, 7), "Tame", "SemigroupMember", (1, 1), True))
        self.assertIsNotNone(error((3, 5, 7), "Tame", "NoSuchReason", None, False))


class TracerTest(unittest.TestCase):
    def test_install_records_nested_spans_and_uninstall_restores(self):
        harness.import_tamedeg()
        decision = sys.modules["tamedeg.decision"]
        polynomial = sys.modules["tamedeg.polynomials"].Polynomial
        originals = (decision.decide, polynomial.__mul__, polynomial.__rmul__)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = decision.decide((4, 4, 9))
        finally:
            tracer.uninstall()
        self.assertEqual((decision.decide, polynomial.__mul__, polynomial.__rmul__), originals)
        names = {s[3] for s in tracer.spans}
        self.assertLessEqual({"decision.decide", "automorphisms.witness_equal_pair",
                              "automorphisms.compose_word", "polynomials.mul"}, names)
        root = next(s for s in tracer.spans if s[3] == "decision.decide")
        self.assertEqual(root[1], 0)
        self.assertEqual(root[7], result.reason)
        self.assertTrue(all(start <= end <= settled for _, _, _, _, start, end, settled, _ in tracer.spans))

    def test_computed_counts(self):
        self.assertEqual(tracing.membership_steps(8, 3, 5, (1, 1)), 2)
        self.assertEqual(tracing.membership_steps(7, 3, 5, None), 2)
        self.assertEqual(tracing.membership_steps(7, 4, 6, None), 0)
        # (s, t) != (0, 0) with 2s + 3t <= 6: s<=3 at t=0 (3), t=1 s<=1 (2), t=2 s=0 (1).
        self.assertEqual(tracing.support_cols([2, 3, 3], 2, 6), 6)
        self.assertEqual(tracing.support_cols([2, 3, 1], 2, None), 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_workloads_match_the_benchmark_file(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.GENERATORS))

    def test_every_span_name_has_its_per_layer_metrics(self):
        names = set(per_layer_names())
        for span_name, *_ in tracing.TRACED:
            self.assertIn(f"{span_name}.self_s", names)


if __name__ == "__main__":
    unittest.main()
