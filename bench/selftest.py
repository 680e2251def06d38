#!/usr/bin/env python3
"""Self-test of the benchmark's own checks; run from the repository root:

    python3 bench/selftest.py

It shows that a corrupted output, a failing exit code and an unknown op are
counted as failed, failed and unverified respectively, and that
BENCHMARK.json lists exactly the metrics and workloads the harness reports.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
import unittest
from pathlib import Path

import run
import worker

ROOT = Path.cwd()
FIELD = worker.RANGE_FIELDS[0]


class OutputCheckTest(unittest.TestCase):
    def setUp(self) -> None:
        refs = json.loads(run.REFERENCE.read_text())
        self.run = run.Run(ROOT, "range-warm", 0, 1, False, refs)
        D, x, y, den = FIELD
        self.field_file = self.run.dir / "field.json"
        self.field_file.write_text(json.dumps({"D": D, "delta": {"x": x, "y": y, "den": den}}))

    def tearDown(self) -> None:
        shutil.rmtree(self.run.dir, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass

    def query(self, m: str) -> tuple[str, run.Proc]:
        argv = ["intersect", "--field", str(self.field_file), "--m", m, "--format", "json"]
        p, _ = self.run.cli(argv, self.run.cache_dir(), False, 0)
        return worker.query_key(worker.field_key(*FIELD), argv), p

    def test_cli_output_digests(self) -> None:
        key, p = self.query("2")
        expected = self.run.refs["range-cli"][key]
        self.assertTrue(self.run.check_proc("genuine", p, expected))
        self.assertEqual(self.run.failed, 0)

        corrupted = run.Proc(p.rc, p.wall, p.rss_mb, p.t0, p.stdout.replace(b"1", b"3", 1), p.stderr)
        self.assertFalse(self.run.check_proc("corrupted", corrupted, expected))
        self.assertEqual(self.run.failed, 1)

        crashed = run.Proc(3, p.wall, p.rss_mb, p.t0, p.stdout, b'{"error": "internal-consistency"}')
        self.assertFalse(self.run.check_proc("exit 3", crashed, expected))
        self.assertEqual(self.run.failed, 2)

        self.assertTrue(self.run.check_proc("no reference", p, None))
        self.assertEqual((self.run.failed, self.run.unverified, self.run.checked), (2, 1, 4))

    def test_marked_cli(self) -> None:
        # range-warm times its ops through marked_cli.py: the same stdout as
        # the plain command, and segments that add up to the op's time
        argv = ["intersect", "--field", str(self.field_file), "--m", "2", "--format", "json"]
        p, segments = self.run.marked_cli(argv, self.run.cache_dir())
        key = worker.query_key(worker.field_key(*FIELD), argv)
        self.assertTrue(self.run.check_proc("marked", p, self.run.refs["range-cli"][key]))
        self.assertGreater(len(segments), 10)
        self.assertAlmostEqual(sum(segments), p.wall, places=6)

    def test_in_process_op_digests(self) -> None:
        # range-cold runs its ops inside one worker; their captured stdout must
        # hash like the same command run as a process, which reference.json holds
        ops = [["intersect", "--field", str(self.field_file), "--m", m] for m in ("1-10", "0")]
        inputs = self.run.dir / "inputs.json"
        inputs.write_text(json.dumps({"field": worker.field_key(*FIELD), "ops": ops}))
        out = self.run.dir / "ops.json"
        p = self.run.spawn([sys.executable, str(run.WORKER), "ops", str(inputs), str(out)], self.run.cache_dir())
        self.assertEqual(p.rc, 0, p.stderr)
        block, invalid = json.loads(out.read_text())["ops"]
        expected = self.run.refs["range-cli"][block["key"]]
        self.assertTrue(self.run.check("genuine", block["error"] is None, block["digest"], expected))
        self.assertFalse(self.run.check("corrupted", True, run.sha256(b"[]"), expected))
        self.assertEqual(invalid["error"], "exit 2")
        self.assertFalse(self.run.check("exit 2", False, invalid["digest"], None, invalid["error"]))
        self.assertEqual((self.run.failed, self.run.checked), (2, 3))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_harness(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_metrics())


if __name__ == "__main__":
    unittest.main()
