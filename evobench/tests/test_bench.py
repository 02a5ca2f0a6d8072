"""Tests of the benchmark itself (a minute or two).  From the root of a checkout:

    python3 -m unittest discover -s evobench/tests
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout(ROOT)

import compare  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import OP_SPAN, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SmokeTest(unittest.TestCase):
    """One short run of every workload through the benchmark's command line."""

    def test_every_workload(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [sys.executable, *SPEC["command"][1:], "--workload", workload,
                     "--seed", "7", "--seconds", "0", "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=300)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(list(result["metrics"]), names)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0.0)
                # the bundled coordination config's escape run is a known defect
                expected = result["attempted"] // 12 if workload == "cli" else 0
                self.assertEqual(result["failed"], expected)

    def test_metric_lists_match_benchmark_json(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in SPEC[key]}, table)


class ReferenceTest(unittest.TestCase):
    def run_first_case(self, refs) -> run.Tally:
        ensemble = wl.Ensemble(refs, ROOT, ROOT / ".bench_work")
        ensemble.setup(seed=1)
        tally = run.Tally()
        run.execute(ensemble.ops[0], tally)
        return tally

    def test_stored_reference_passes(self):
        tally = self.run_first_case(wl.load_refs())
        self.assertEqual((tally.attempted, tally.failed), (1, 0))
        self.assertGreater(tally.err_max, 0.0)

    def test_perturbed_reference_fails(self):
        refs = copy.deepcopy(wl.load_refs())
        spec = refs["ensemble"]
        case = spec["cases"][0]
        case["ref"][1] += 10 * spec["tolerance"][case["protocol"]["kind"]]
        tally = self.run_first_case(refs)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 1))
        self.assertFalse(tally.correct)


class CrashTest(unittest.TestCase):
    """A program that raises, or exits with another code, makes the run incorrect."""

    def test_raising_integrate_is_wrong(self):
        from evodyn import dynamics

        def broken(*args, **kwargs):
            raise TypeError("broken integrate")

        ensemble = wl.Ensemble(wl.load_refs(), ROOT, ROOT / ".bench_work")
        ensemble.setup(seed=1)
        original, dynamics.integrate = dynamics.integrate, broken
        self.addCleanup(setattr, dynamics, "integrate", original)
        tally = run.Tally()
        run.execute(ensemble.ops[0], tally)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 1))
        self.assertFalse(tally.correct)

    def test_cli_exit_codes(self):
        cli = wl.Cli(wl.load_refs(), ROOT, ROOT / ".bench_work")
        cli.setup(seed=1)
        ops = {op.key: op for op in cli.ops}

        def judge(key, code):
            chk = wl.Check()
            ops[key].check((code, "message"), chk)
            return bool(chk.wrong), chk.refused is not None

        # the seed's known refusal is a failed op, not a wrong one
        self.assertEqual(judge("escape:coordination_logistic", 3), (False, True))
        self.assertEqual(judge("escape:coordination_logistic", 0), (True, False))
        self.assertEqual(judge("escape:coordination_logistic", 2), (True, False))
        self.assertEqual(judge("simulate:entry_sqrt", 3), (True, False))
        self.assertEqual(judge("select:entry_sqrt", 1), (True, False))


class TracingTest(unittest.TestCase):
    def setUp(self):
        self.tracer = Tracer()
        self.tracer.install()
        self.addCleanup(self.tracer.uninstall)

    def test_wrapped_in_every_importing_namespace(self):
        from evodyn import equilibria, flows, stability

        fn = equilibria.find_aggregate_equilibria
        self.assertIs(stability.find_aggregate_equilibria, fn)
        self.assertIs(flows.find_aggregate_equilibria, fn)
        self.assertTrue(hasattr(fn, "__wrapped__"))

    def test_self_times_within_op_wall_time(self):
        certify = wl.Certify({}, ROOT, ROOT / ".bench_work")
        certify.setup(seed=3)
        tally = run.Tally()
        walls = {}
        for i, op in enumerate(certify.next_pass()[:4]):
            walls[i] = run.execute(op, tally, self.tracer, op_id=i)
        self.assertEqual(tally.failed, 0)
        spans, own = self.tracer.spans, self.tracer.self_times()
        self.assertGreater(len(spans), 4 * 2000)
        per_op = dict.fromkeys(walls, 0.0)
        for (name, start, end, parent, op), self_s in zip(spans, own):
            self.assertGreaterEqual(self_s, -1e-9, name)
            self.assertLessEqual(self_s, walls[op] + 1e-9, name)
            per_op[op] += self_s
            if name == OP_SPAN:
                self.assertEqual(parent, -1)
        for op, wall in walls.items():
            self.assertAlmostEqual(per_op[op], wall, delta=1e-6)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
        faster = [v * 0.8 for v in parent]
        slower = [v * 1.3 for v in parent]
        noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]

        def judge(p, c):
            return compare.verdict(p, c, list(zip(p, c)), "lower", 0.1)[0]

        self.assertEqual(judge(parent, faster), "improved")
        self.assertEqual(judge(parent, slower), "worse")
        self.assertEqual(judge(parent, parent), "unchanged")
        self.assertEqual(judge(noisy, noisy), "unresolved")


if __name__ == "__main__":
    unittest.main()
