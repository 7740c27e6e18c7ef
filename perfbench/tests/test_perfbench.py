"""Tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.percentile(range(1, 1001), 99), (990, 10))
        self.assertIsNone(stats.percentile(range(1, 1000), 99))

    def test_median_is_reported_from_eleven_samples(self):
        self.assertIsNone(stats.percentile(range(10), 50))
        self.assertEqual(stats.percentile(range(20), 50), (9, 10))

    def test_tail_states_the_sample_count(self):
        value, note = run.tail([1.0, 2.0, 3.0])
        self.assertIsNone(value)
        self.assertIn("3 samples", note)
        value, note = run.tail(range(1, 2001))
        self.assertAlmostEqual(value, 1980.0)
        self.assertIn("2000 samples, 20 beyond the p99", note)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_files(self):
        for workload in gen.WORKLOADS:
            self.assertEqual(gen.workload_files(workload, 7), gen.workload_files(workload, 7))

    def test_other_seed_other_files(self):
        for workload in gen.WORKLOADS:
            self.assertNotEqual(gen.workload_files(workload, 7), gen.workload_files(workload, 8))

    def test_committed_inputs_are_seed_one(self):
        inputs = os.path.join(PERFBENCH, "inputs")
        for workload in gen.WORKLOADS:
            for name, text in gen.workload_files(workload, 1).items():
                with open(os.path.join(inputs, name), encoding="utf-8") as f:
                    self.assertEqual(f.read(), text, name)

    def test_serve_mix(self):
        lines = gen.serve_log(gen.SplitMix64(3), lines=50_000).splitlines()
        snapshots = [i for i, l in enumerate(lines) if '"snapshot"' in l]
        restores = [i for i, l in enumerate(lines) if '"restore"' in l]
        steps = [i for i, l in enumerate(lines) if '"step"' in l]
        self.assertEqual((len(snapshots), len(restores), len(steps)), (20, 5, 250))
        self.assertLess(snapshots[0], restores[0])
        places = sum(1 for l in lines if '"place"' in l)
        self.assertTrue(0.5 < places / len(lines) < 0.6, places)


class OracleTest(unittest.TestCase):
    REQUESTS = ['{"op":"place"}', '{"op":"query"}', "not json"]
    EXPECTED = [
        '{"ok":true,"bin":3,"load":2,"balls":5}',
        '{"ok":true,"n":4,"round":0,"balls":5}',
        '{"ok":false,"error":"bad request"}',
    ]

    def test_identical_responses_pass_including_expected_errors(self):
        got = oracle.compare_responses(self.REQUESTS, self.EXPECTED, list(self.EXPECTED))
        self.assertEqual(got, (3, 0, None))

    def test_one_flipped_byte_fails_one_response(self):
        flipped = list(self.EXPECTED)
        flipped[1] = flipped[1].replace('"round":0', '"round":1')
        attempted, failed, problem = oracle.compare_responses(self.REQUESTS, self.EXPECTED, flipped)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("response 2", problem)

    def test_missing_and_extra_responses_fail(self):
        self.assertEqual(oracle.compare_responses(self.REQUESTS, self.EXPECTED, self.EXPECTED[:2])[:2], (3, 1))
        self.assertEqual(oracle.compare_responses(self.REQUESTS, self.EXPECTED, self.EXPECTED + ["{}"])[:2], (4, 1))

    def test_stats_replies_are_not_compared(self):
        requests = ['{"op":"stats"}']
        self.assertEqual(oracle.compare_responses(requests, ['{"ok":true,"t":1}'], ['{"ok":true,"t":2}']), (0, 0, None))

    def test_sim_output_with_one_flipped_byte_fails(self):
        out = "scenario 'x': n = 8, 8 balls, horizon 3 rounds, seed = 1\n  rounds run           : 3\n"
        self.assertEqual(oracle.check_sim(out, out, 0, 3, 8), (1, 0, None))
        flipped = out.replace("seed = 1", "seed = 2")
        self.assertEqual(oracle.check_sim(out, flipped, 0, 3, 8)[:2], (1, 1))
        self.assertEqual(oracle.check_sim(out, out, 0, 4, 8)[:2], (1, 1))
        self.assertEqual(oracle.check_sim(out, out, 0, 3, 9)[:2], (1, 1))
        self.assertEqual(oracle.check_sim(out, out, 1, 3, 8)[:2], (1, 1))


class ServeProtocolTest(unittest.TestCase):
    REQUESTS = [
        '{"op":"place"}',
        '{"op":"place","count":2}',
        '{"op":"depart","bin":1}',
        '{"op":"step"}',
        '{"op":"query","bin":1}',
        "not json",
        '{"op":"restore","path":"s.json"}',
        '{"op":"snapshot"}',
    ]
    RESPONSES = [
        '{"ok":true,"bin":1,"load":2,"balls":5}',
        '{"ok":true,"bins":[0,3],"balls":7}',
        '{"ok":true,"removed":true,"load":1,"balls":6}',
        '{"ok":true,"round":1,"moved":3}',
        '{"ok":true,"n":4,"round":1,"balls":6,"max_load":3,"empty_bins":1,"nonempty_bins":3,"load":1}',
        '{"ok":false,"error":"bad request"}',
        '{"ok":true,"engine":"dense","n":4,"round":9,"balls":8}',
        '{"ok":true,"state":{"n":4,"round":9,"balls":8}}',
    ]

    def check(self, responses):
        return oracle.check_serve_protocol(
            self.REQUESTS, responses, 4, 4, {"balls": 8, "round": 9}, ("not json",)
        )

    def test_consistent_transcript_passes(self):
        self.assertEqual(self.check(self.RESPONSES), (8, 0, None))

    def test_wrong_ball_count_fails(self):
        wrong = list(self.RESPONSES)
        wrong[2] = wrong[2].replace('"balls":6', '"balls":7')
        attempted, failed, problem = self.check(wrong)
        self.assertEqual((attempted, failed), (8, 1))
        self.assertIn("response 3", problem)

    def test_unexpected_error_and_missing_reply_fail(self):
        wrong = list(self.RESPONSES)
        wrong[3] = '{"ok":false,"error":"x"}'
        self.assertEqual(self.check(wrong[:-1])[:2], (8, 2))


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        rows = [
            (0, "parent", 0, 100, None, 0),
            (1, "child", 10, 30, 0, 0),
            (2, "child", 20, 50, 0, 1),
            (3, "child", 90, 120, 0, 2),
            (4, "grandchild", 12, 18, 1, 0),
        ]
        selfs = spans.self_times(rows)
        # Children cover [10, 50) and [90, 100) of the parent: 50 ns.
        self.assertEqual(selfs[0], 50)
        self.assertEqual(selfs[1], 20 - 6)
        self.assertEqual(selfs[3], 30)
        summary = spans.summary(rows)
        self.assertEqual(summary["child"], (3, 20 + 30 + 30, 14 + 30 + 30))

    def test_reads_the_helper_file_format(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("id\tname\tstart_ns\tend_ns\tparent\trun\n0\tworkload\t0\t10\t-\t0\n1\tstep\t2\t5\t0\t3\n")
            self.assertEqual(spans.read_tsv(path), [(0, "workload", 0, 10, None, 0), (1, "step", 2, 5, 0, 3)])


class SpeedTest(unittest.TestCase):
    def speed(self, probes):
        speed = run.Speed.__new__(run.Speed)
        speed.probes = probes
        return speed

    def test_index_is_the_median_over_the_probes(self):
        mem0, alu0 = run.CALIBRATE_NOMINAL_NS
        speed = self.speed([(mem0, alu0), (4 * mem0, alu0), (mem0, 9 * alu0), (2 * mem0, 2 * alu0), (mem0, alu0)])
        self.assertAlmostEqual(speed.index, 2.0)
        self.assertEqual(speed.scaled([4.0, 6.0]), [2.0, 3.0])

    def test_a_nominal_machine_leaves_times_unscaled(self):
        speed = self.speed([run.CALIBRATE_NOMINAL_NS])
        self.assertEqual(speed.scaled([0.25, 3.0]), [0.25, 3.0])


if __name__ == "__main__":
    unittest.main()
