"""Self-tests of the benchmark.  Run from anywhere:

    python3 hopfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import unittest
from unittest import mock

import run

ROOT = os.path.dirname(run.HERE)
run.load_program(ROOT)

from hopfcheck import catalog  # noqa: E402
from hopfcheck.hopf import compute_antipode  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class RelabellingTest(unittest.TestCase):
    def test_relabelled_algebras_validate(self):
        for seed in (0, 1, 7, 12345):
            for name in ("sweedler", "group-s3", "functions-z6", "taft-2", "taft-3"):
                h = inputs.relabel(catalog.builtin(name),
                                   inputs.choose_relabelling(seed, name, catalog.builtin(name).dim))
                with self.subTest(seed=seed, name=name):
                    self.assertTrue(h.validate().ok)

    def test_relabelled_antipode_is_the_synthesized_one(self):
        for seed in (0, 3):
            h = catalog.builtin("sweedler")
            r = inputs.choose_relabelling(seed, "sweedler", h.dim)
            self.assertEqual(compute_antipode(inputs.relabel(h, r)), inputs.relabel(h, r).antipode)

    def test_seed_determines_relabelling(self):
        self.assertEqual(inputs.choose_relabelling(5, "taft-3", 9),
                         inputs.choose_relabelling(5, "taft-3", 9))
        self.assertNotEqual(inputs.choose_relabelling(5, "taft-3", 9),
                            inputs.choose_relabelling(6, "taft-3", 9))

    def test_stripped_file_has_no_antipode(self):
        with tempfile.TemporaryDirectory() as d:
            inp = inputs.write_input(d, 4, "group-s3", strip_antipode=True)
            with open(inp.path, encoding="utf-8") as fh:
                self.assertNotIn("antipode", json.load(fh))
            self.assertEqual(catalog.read_algebra(inp.path).antipode, inp.algebra.antipode)


class SelfTimeTest(unittest.TestCase):
    # root [0, 10] has children a [1, 4] and b [3, 6]; a has child c [2, 3]
    SPANS = [
        ["root", 0.0, 10.0, -1, "j", None],
        ["a", 1.0, 4.0, 0, "j", 16],
        ["c", 2.0, 3.0, 1, "j", None],
        ["b", 3.0, 6.0, 0, "j", 256],
        ["a", 7.0, 8.0, 0, "j", 4],
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        self.assertEqual(spans.self_times(self.SPANS), [4.0, 2.0, 1.0, 3.0, 1.0])

    def test_aggregate(self):
        stats = spans.aggregate(self.SPANS)
        self.assertEqual(stats["a"].calls, 2)
        self.assertEqual(stats["a"].self_s, 3.0)
        self.assertEqual(stats["a"].max_s, 3.0)
        self.assertEqual(stats["a"].note_max, 16)
        self.assertEqual(stats["root"].self_s, 4.0)

    def test_tracer_records_nesting_and_restores(self):
        import hopfcheck.hopf as hopf
        import hopfcheck.linalg as linalg
        original = linalg.solve
        tracer = spans.Tracer()
        with spans.Patches() as patches:
            tracer.install(patches)
            self.assertIsNot(hopf.solve, original)
            h = catalog.builtin("sweedler")
            hopf.compute_antipode(h)
        self.assertIs(hopf.solve, original)
        self.assertIs(linalg.solve, original)
        names = [s[0] for s in tracer.spans]
        self.assertIn("hopf.compute_antipode", names)
        solve_span = tracer.spans[names.index("linalg.solve")]
        self.assertEqual(tracer.spans[solve_span[3]][0], "hopf.compute_antipode")
        self.assertEqual(solve_span[5], 16)


class FailureCountingTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.workload = workloads.build("report-rational", run.DEFAULT_SEED, self.tmp.name,
                                        run.trap_corpus())
        self.workload.jobs[:] = self.workload.jobs[:2]

    def tearDown(self):
        self.tmp.cleanup()

    def ledger_for(self, passes):
        ledger = run.Ledger()
        run.check_passes(passes, self.workload, run.DEFAULT_SEED, ledger)
        return ledger

    def test_clean_passes_count_no_failure(self):
        passes = [workloads.run_pass(self.workload) for _ in range(2)]
        ledger = self.ledger_for(passes)
        self.assertEqual((ledger.attempted, ledger.failed), (4, 0))

    def test_tampered_report_is_a_failure(self):
        passes = [workloads.run_pass(self.workload) for _ in range(2)]
        job = passes[1].jobs[0]
        job.text = job.text.replace("PASS", "PASS ", 1)
        ledger = self.ledger_for(passes)
        self.assertEqual(ledger.failed, 1)
        self.assertIn("text differs between passes", ledger.problems[0][1])

    def test_digest_mismatch_is_a_failure(self):
        passes = [workloads.run_pass(self.workload)]
        passes[0].jobs[1].text += "\n"
        self.assertEqual(self.ledger_for(passes).failed, 1)

    def test_wrong_exit_code_or_summary_is_a_failure(self):
        job = self.workload.jobs[0]
        good = workloads.run_job(job)
        self.assertIsNone(good.problem)
        self.assertIsNotNone(job.check(1, good.text))
        self.assertIsNotNone(job.check(0, good.text.replace("PASS ==", "FAIL ==")))

    def test_negative_controls_must_fail_their_way(self):
        trap = workloads.expect_trap("taft-3")
        self.assertIsNone(trap(1, "radford_swapped taft-3 FAIL at a=x\n"))
        self.assertIsNotNone(trap(0, "radford_swapped taft-3 PASS\n"))
        self.assertIsNone(workloads.expect_no_antipode(
            2, "error: idempotent-monoid: no antipode exists\n"))
        self.assertIsNotNone(workloads.expect_no_antipode(0, "wrote dual(x) to y\n"))

    def test_wrong_dual_antipode_is_a_failure(self):
        inp = inputs.write_input(self.tmp.name, 2, "sweedler", strip_antipode=True)
        out = os.path.join(self.tmp.name, "sweedler.dual.alg")
        job = workloads.Job("dual", ("dual", inp.path, "-o", out),
                            workloads.expect_dual(inp, out))
        self.assertIsNone(workloads.run_job(job).problem)
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["antipode"][0][2] = "2"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.assertIsNotNone(job.check(0, f"wrote dual(sweedler) to {out}\n"))

    def test_exception_is_a_failure(self):
        with mock.patch.object(workloads.cli, "run", side_effect=RuntimeError("boom")):
            result = workloads.run_job(self.workload.jobs[0])
        self.assertEqual(result.problem, "raised RuntimeError: boom")


class MicroTest(unittest.TestCase):
    def test_captured_system_solves_to_the_known_antipode(self):
        import micro
        from hopfcheck.linalg import solve
        for seed, name in ((1, "sweedler"), (4, "taft-3")):
            source = catalog.builtin(name)
            h = inputs.relabel(source, inputs.choose_relabelling(seed, name, source.dim))
            m, rhs = micro.antipode_system(seed, name)
            with self.subTest(seed=seed, name=name):
                self.assertEqual(m.rows, h.dim ** 2)
                n = h.dim
                flat = solve(m, rhs)
                self.assertEqual([[flat[l * n + j] for j in range(n)] for l in range(n)],
                                 [list(row) for row in h.antipode.data])


class PaceTest(unittest.TestCase):
    def test_scale_is_nominal_over_mean_reference(self):
        import pace
        sampler = pace.Sampler()
        sampler.wall, sampler.cpu = [1.0, 3.0], [2.0, 2.0]
        self.assertEqual(sampler.scales(), (pace.NOMINAL_S / 2.0, pace.NOMINAL_S / 2.0))
        self.assertEqual((sampler.wall, sampler.cpu), ([], []))

    def test_armed_sampler_samples_during_work_and_restores_the_handler(self):
        import pace
        import signal
        before = signal.getsignal(signal.SIGALRM)
        sampler = pace.Sampler()
        t0 = time.perf_counter()
        with sampler:
            while time.perf_counter() - t0 < 0.3:
                pass
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreaterEqual(len(sampler.wall), 5)
        spent_wall, _ = sampler.take_spent()
        self.assertAlmostEqual(spent_wall, sum(sampler.wall))
        self.assertEqual(sampler.take_spent(), (0.0, 0.0))

    def test_signal_during_the_loop_is_dropped(self):
        import pace
        sampler = pace.Sampler()
        sampler._busy = True
        sampler._on_alarm(None, None)
        self.assertEqual(sampler.wall, [])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         run.per_layer_specs())
        self.assertEqual([m["name"] for m in doc["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
