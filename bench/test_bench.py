"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tempdir() -> tempfile.TemporaryDirectory:
    out = BENCH / "_out"
    out.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted_without_failures(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = _run(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    if trace:
                        self.assertEqual(result["metrics"]["error_rate"]["value"], 0)
                        calls = result["metrics"]["polygon_core.validate_walk.calls_per_classify"]
                        self.assertEqual(calls["value"], 4)

    def test_runs_without_sources_fail_without_a_result(self):
        with _tempdir() as tmp:
            (Path(tmp) / "bench").mkdir()
            (Path(tmp) / "BENCHMARK.json").write_text(json.dumps(SPEC))
            for path in BENCH.glob("*.py"):
                (Path(tmp) / "bench" / path.name).write_text(path.read_text())
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class GateTest(unittest.TestCase):
    def _pass(self, jobs):
        with _tempdir() as scratch:
            return workloads.run_pass(jobs, scratch)

    def test_corrupted_expectation_counts_as_failed_command(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                jobs = workloads.build(workload, 7, "smoke")
                self.assertEqual(self._pass(jobs).failures, [])
                first = jobs[0]
                if first.kind == "verify":
                    results = [dict(r) for r in first.expected["results"]]
                    key = next(k for k, v in results[0].items() if isinstance(v, int) and k != "ok")
                    results[0][key] += 1
                    bad = {**first.expected, "results": results}
                elif first.kind == "classify":
                    bad = {**first.expected, "rc": 1 - first.expected["rc"]}
                else:
                    bad = {**first.expected, "count": first.expected["count"] + 1}
                jobs[0] = dataclasses.replace(first, expected=bad)
                self.assertEqual(len(self._pass(jobs).failures), 1)

    def test_output_of_the_wrong_shape_counts_as_failed_command(self):
        job = workloads.build("sweep", 7, "smoke")[0]
        self.assertIsNotNone(workloads.check(job, 0, "[]\n", None))
        self.assertIsNotNone(workloads.check(job, 0, '{"mode": "sweep", "ok": true, "results": [1]}\n', None))

    def test_same_seed_same_outputs(self):
        a = self._pass(workloads.build("classify", 3, "smoke"))
        b = self._pass(workloads.build("classify", 3, "smoke"))
        c = self._pass(workloads.build("classify", 4, "smoke"))
        self.assertEqual(a.digest, b.digest)
        self.assertNotEqual(a.digest, c.digest)


class TracerTest(unittest.TestCase):
    def test_traced_pass_covers_layers_and_restores_polysym(self):
        before = tracer.snapshot()
        t = tracer.Tracer()
        with t:
            self.assertNotEqual(tracer.snapshot(), before)
            with _tempdir() as scratch:
                workloads.run_pass(workloads.build("gallery", 1, "smoke"), scratch)
        self.assertEqual(tracer.snapshot(), before)
        layers = tracer.summarize(t.spans)["layers"]
        for layer in ("polygon_core", "enumeration", "render", "cli"):
            self.assertGreater(layers[layer]["calls"], 0, layer)
        self.assertTrue(all(span[5] >= span[4] for span in t.spans))

    def test_restore_after_a_failing_call(self):
        before = tracer.snapshot()
        from polysym import polygon_core

        with self.assertRaises(polygon_core.WalkError):
            with tracer.Tracer():
                polygon_core.validate_walk(polygon_core.SideTuple(4, (2, 2, 2, 2)))
        self.assertEqual(tracer.snapshot(), before)


if __name__ == "__main__":
    unittest.main()
