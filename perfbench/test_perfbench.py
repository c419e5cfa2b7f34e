"""The benchmark's own tests: every workload runs end to end on tiny
inputs, and every check rejects a deliberately wrong answer.

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from curvealg import ainfinity, curves, hochschild  # noqa: E402
from curvealg.ainfinity import AnStructure, GaugeTransform  # noqa: E402
from curvealg.hochschild import Cochain  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402


def bench(*args, cwd=None):
    cmd = [sys.executable, os.path.join(cwd or HERE, "run.py")] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


class QuickRuns(unittest.TestCase):
    def test_every_workload_runs_and_checks(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--quick")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]), [n for n, _ in names])

    def test_inputs_depend_only_on_the_seed(self):
        for workload in run.WORKLOADS:
            a = workloads.make_inputs(workload, 5)
            self.assertEqual(a, workloads.make_inputs(workload, 5))
            self.assertNotEqual(a, workloads.make_inputs(workload, 6))

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench_dir = os.path.join(tmp, "perfbench")
            os.mkdir(bench_dir)
            for name in ("run.py", "workloads.py", "spans.py"):
                shutil.copy(os.path.join(HERE, name), bench_dir)
            proc = bench("--workload", "curve-basis", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bench_dir)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


class ChecksRejectWrongAnswers(unittest.TestCase):
    def test_hh_check(self):
        op = workloads.make_inputs("hh-crosscheck", 1, quick=True)[0]
        E = workloads._algebra(op)
        reduced = workloads.hh_table(hochschild.reduced_complex(E), op["t_min"])
        oracle = workloads.hh_table(hochschild.unnormalized_complex(E), op["oracle_t_min"])
        self.assertEqual(workloads.check_hh(1, 1, reduced, oracle), [])
        for table, cell in ((oracle, (2, -1)), (reduced, (1, -2)), (reduced, (2, -4))):
            wrong = dict(table)
            wrong[cell] += 1
            args = (reduced, wrong) if table is oracle else (wrong, oracle)
            with self.subTest(cell=cell):
                self.assertNotEqual(workloads.check_hh(1, 1, *args), [])

    def test_gauge_check(self):
        op = workloads.make_inputs("gauge-normalize", 1, quick=True)[0]
        E = workloads._algebra(op)
        f = GaugeTransform.from_json(E, op["gauge"])
        m = ainfinity.gauge_act(f, AnStructure.trivial(E, op["order"]))
        nf, witness = ainfinity.normalize(m)
        self.assertEqual(workloads.check_gauge(f, m, nf, witness), [])
        # the witness with one coefficient's sign flipped
        k = min(witness.comps)
        values = {key: dict(vec) for key, vec in witness.comps[k].values.items()}
        key = min(values)
        w = min(values[key])
        values[key][w] = -values[key][w]
        comps = dict(witness.comps)
        comps[k] = Cochain(E, k, 1 - k, values)
        flipped = GaugeTransform(E, witness.N, comps)
        self.assertNotEqual(workloads.check_gauge(f, m, nf, flipped), [])
        # m itself claimed as its own normal form
        self.assertNotEqual(workloads.check_gauge(f, m, m, witness), [])

    def test_curve_check(self):
        op = next(o for o in workloads.make_inputs("curve-basis", 1, quick=True)
                  if o["kind"] == "curve" and o["n"] == 2 and o["S"] == [1])
        data = workloads._curve_data(op)
        E = workloads.quiver.build_ew(curves.grassmannian_point(data))
        good = curves.verify_basis(data, op["degree"])
        self.assertEqual(workloads.check_curve(data, op["degree"], good, E), [])
        # hS_2 mapped to x_2 alone, dropping its a_12 x_1 term
        bad = curves.verify_basis(data, op["degree"],
                                  corrupt={"hS_2": {(1, 1): workloads.rat(1)}})
        self.assertNotEqual(workloads.check_curve(data, op["degree"], bad, E), [])
        self.assertEqual(workloads.check_control(bad), [])
        self.assertNotEqual(workloads.check_control(good), [])


class Tracing(unittest.TestCase):
    def test_counts_repeat_and_uninstall_restores(self):
        originals = [getattr(owner, attr) for _, owner, attr in TARGETS]
        ops = workloads.make_inputs("curve-basis", 2, quick=True)
        tracer = Tracer()
        tracer.install()
        try:
            rounds = []
            for _ in range(2):
                before = tracer.snapshot()
                for op in ops:
                    self.assertEqual(workloads.run_op(op), [])
                after = tracer.snapshot()
                rounds.append({k: after[k] - before[k] for k in after
                               if not k.endswith("_s")})
        finally:
            tracer.uninstall()
        self.assertEqual(rounds[0], rounds[1])
        self.assertGreater(rounds[0]["poly.normal_form_calls"], 0)
        self.assertGreater(rounds[0]["curves.monomials"], 0)
        self.assertEqual([getattr(owner, attr) for _, owner, attr in TARGETS], originals)
        self.assertIs(hochschild.rank_of_columns, curves.rank_of_columns)


if __name__ == "__main__":
    unittest.main()
