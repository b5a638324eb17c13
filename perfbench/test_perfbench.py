"""Self-tests of the benchmark, at a tiny size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, scenario_seeds  # noqa: E402

TINY = 12
SEEDS = scenario_seeds(0, 2)


def tiny_run(workload):
    return run.Run(workload, TINY, seconds=0)


def declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_and_passes_its_checks(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                r = tiny_run(name)
                metrics, detail = run.end_to_end(r, SEEDS)
                self.assertEqual(r.errors, [])
                self.assertEqual(r.attempted, len(SEEDS))
                self.assertGreater(metrics["sim_cmd_per_s"], 0)
                self.assertGreater(detail["append_samples"], 0)


class NamesTest(unittest.TestCase):
    def test_emitted_names_match_benchmark_json(self):
        r = tiny_run("bfs-partition")
        e2e, _ = run.end_to_end(r, SEEDS[:1])
        self.assertEqual(set(e2e), declared("end_to_end"))
        layers, _ = run.per_layer(r, SEEDS[0])
        self.assertEqual(set(layers), declared("per_layer"))
        self.assertEqual(r.errors, [])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(set(WORKLOADS), declared("workloads"))


class TracerTest(unittest.TestCase):
    def test_every_wrapped_function_is_restored(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                tracer = Tracer()
                result = rep.traced_run(name, SEEDS[0], TINY, tracer)
                self.assertGreaterEqual(len(tracer._patched), 20)
                self.assertEqual(tracer.unrestored(), [])
                self.assertTrue(result["ok"])
                self.assertEqual(result["negative_self"], 0)

    def test_exact_counts_repeat_across_processes(self):
        deadline = run.time.monotonic() + 120
        a, err_a = run.spawn("traced", "fair-partition", SEEDS[0], TINY,
                             deadline)
        b, err_b = run.spawn("traced", "fair-partition", SEEDS[0], TINY,
                             deadline)
        self.assertIsNotNone(a, err_a)
        self.assertIsNotNone(b, err_b)
        counts = {k: v for k, v in a["metrics"].items()
                  if not k.endswith(run.TIMINGS)}
        self.assertEqual(counts, {k: b["metrics"][k] for k in counts})
        self.assertEqual(a["growth_counts"], b["growth_counts"])
        self.assertEqual(a["fingerprint"], b["fingerprint"])


class FingerprintTest(unittest.TestCase):
    def test_mismatch_with_the_record_is_a_failure(self):
        r = tiny_run("nfs-continuous")
        r.stored = {str(SEEDS[0]): "0" * 16}
        self.assertIsNone(r.rep("plain", SEEDS[0]))
        self.assertEqual((r.attempted, r.failed), (1, 1))

    def test_delta_histories_decode_like_full_ones(self):
        full = [{"kind": "history", "replica": 1, "h": [[1, 1], [2, 1]]},
                {"kind": "history", "replica": 1, "h": [[2, 1], [1, 1]]}]
        delta = [{"kind": "history", "replica": 1, "keep": 0,
                  "add": [[1, 1], [2, 1]]},
                 {"kind": "history", "replica": 1, "keep": 0,
                  "add": [[2, 1], [1, 1]]}]

        class T:
            def __init__(self, events):
                self.events = events
        self.assertEqual(rep.final_histories(T(full)),
                         rep.final_histories(T(delta)))


if __name__ == "__main__":
    unittest.main()
