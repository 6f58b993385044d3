"""Fast self-test of the benchmark; not part of the repository's test suite.

    python3 bench/selftest.py

Checks the reference route against known closed forms, checks that the
output checks reject wrong outputs, runs every workload at a tiny size in
both modes, and checks that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class ReferenceRoute(unittest.TestCase):
    def test_sigma_z_family(self):
        for x in (1.0, 1.5, 2.0, 10.0, 1e3):
            expected = np.diag([0.5 + 0.5 / x, 0.5 - 0.5 / x])
            np.testing.assert_allclose(ref.embed(ref.PAULI[2], x), expected, rtol=0, atol=1e-15)

    def test_area_values(self):
        self.assertAlmostEqual(ref.chord_picture([0.5, 0.5, 0.5])[2], 1.5, delta=1e-15)
        self.assertAlmostEqual(ref.chord_picture([0.5, 0.5, 1.0])[2], 2.5, delta=1e-15)

    def test_triples_and_projectors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = workloads.ball_triple(rng).as_array()
            rho = ref.density(p)
            np.testing.assert_allclose(ref.triples_of(rho), p, atol=1e-15)
            n = ref.unit_vector(1.1, 4.0)
            self.assertAlmostEqual(ref.tomogram(rho, n) + ref.tomogram(rho, -n), 1.0, delta=1e-15)
        pure = workloads.ball_triple(rng, pure=True).as_array()
        self.assertAlmostEqual(ref.ball_residual(pure), 0.0, delta=1e-15)

    def test_heisenberg_evolution(self):
        rng = np.random.default_rng(1)
        h, a0 = workloads.random_hermitian(rng), workloads.random_hermitian(rng)
        times = np.linspace(0.0, 3.0, 7)
        u = ref.expm_i(h, times)
        np.testing.assert_allclose(u @ np.conj(np.swapaxes(u, -1, -2)), np.broadcast_to(ref.I2, u.shape), atol=1e-14)
        a_t = ref.heisenberg(a0, h, times)
        np.testing.assert_allclose(np.linalg.eigvalsh(a_t), np.broadcast_to(np.linalg.eigvalsh(a0), (7, 2)), atol=1e-13)
        # sigma_z precesses about x under H = sigma_x: exp(i sigma_x t) sigma_z exp(-i sigma_x t)
        t = 0.3
        expected = math.cos(2 * t) * ref.PAULI[2] + math.sin(2 * t) * ref.PAULI[1]
        np.testing.assert_allclose(ref.heisenberg(ref.PAULI[2], ref.PAULI[0], t), expected, atol=1e-15)

    def test_channel_mixture_stays_in_ball(self):
        rho = ref.density([1.0, 0.5, 0.5])
        out = ref.triples_of(ref.mixture(workloads.GATE_CHANNELS["depolarize(0.3)"], rho))
        np.testing.assert_allclose(out, [0.5 + 0.5 * 0.7, 0.5, 0.5], atol=1e-15)


class ChecksReject(unittest.TestCase):
    def test_trajectory_check_rejects_wrong_samples(self):
        rng = np.random.default_rng(2)
        h, p0 = workloads.random_hermitian(rng), workloads.ball_triple(rng)
        times = np.linspace(0.0, 2.0, 11)
        probs = ref.triples_of(ref.heisenberg(ref.density(p0.as_array()), h, times))
        self.assertTrue(workloads.trajectory_ok(times, probs, h, p0, 2.0, 10))
        probs[5, 1] += 1e-7
        self.assertFalse(workloads.trajectory_ok(times, probs, h, p0, 2.0, 10))
        self.assertFalse(workloads.trajectory_ok(times[:-1], probs[:-1], h, p0, 2.0, 10))

    def test_strict_formats(self):
        with self.assertRaises(ValueError):
            ref.strict_json('{"w_plus": NaN}')
        with self.assertRaises(ValueError):
            ref.csv_rows("t,p1,p2,p3\n0,1,2\n", "t,p1,p2,p3")
        with self.assertRaises(ValueError):
            ref.csv_rows("t,p1,p2,p3\n0,1,2,nan\n", "t,p1,p2,p3")
        self.assertFalse(ref.svg_ok("<svg"))
        self.assertFalse(ref.svg_ok("<html/>"))

    def test_failed_call_counts_and_continues(self):
        doc = workloads.Doc()
        doc.op("observable_map", lambda: doc.call(math.sqrt, -1.0))
        doc.op("observable_map", lambda: False, known_fault=True)
        doc.op("observable_map", lambda: True)
        self.assertEqual((doc.attempted, doc.failed, doc.unexpected), (3, 2, 1))
        self.assertEqual(doc.rejected_layers, ["observable_map"])


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def check_run(self, workload: str, trace: int) -> dict:
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_every_workload_both_modes(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.check_run(workload, trace)
                    if workload == "observables":
                        # per round: 40 documents of 6 operations and 38 sweep round trips, 20 of which fail
                        self.assertEqual(result["failed"] * 278, result["attempted"] * 20)
                    else:
                        self.assertEqual(result["failed"], 0)

    def test_refuses_without_sources(self):
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=out)
        try:
            shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = run_bench("gates", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
