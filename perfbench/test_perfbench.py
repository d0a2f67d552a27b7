#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny size, untraced and
traced, must print every metric BENCHMARK.json names and pass its
oracle; a planted corrupt chunk read must fail the run.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics whose layer a workload does not reach: the traced
# report names them on its "not measured:" line and the result line
# reads 0 for them. kvstore.* joins them unless the backend is kLsm.
REPLICATION = {"replication.quorum_wait_us", "replication.shipments_per_commit",
               "replication.records_per_shipment", "replication.quorum_timeouts",
               "cluster.replica_read_share"}
NO_CLIENT_CACHE_OR_DIFF = {"rpc.client_cache_hit_ratio", "api.execute_us.diff"}
NOT_MEASURED = {
    "kv_serve": REPLICATION | NO_CLIENT_CACHE_OR_DIFF,
    "wiki": REPLICATION,
    "quorum": NO_CLIENT_CACHE_OR_DIFF,
    # Embedded, on a store the benchmark cannot wrap: no server, no
    # in-process samples, no decorator and no block cache.
    "ledger": REPLICATION | NO_CLIENT_CACHE_OR_DIFF | {
        "rpc.frames_per_op", "rpc.overhead_us.put", "rpc.overhead_us.get",
        "rpc.overhead_us.version_read", "api.execute_us.put",
        "api.execute_us.get", "api.execute_us.version_read",
        "chunk.put_calls_per_op", "chunk.put_bytes_per_op",
        "chunk.put_busy_us_per_op", "chunk.get_calls_per_op",
        "chunk.get_busy_us_per_op", "chunk.block_cache_hit_ratio",
        "chunk.block_cache_rejections"},
}
KVSTORE = {"kvstore.flushes", "kvstore.compactions",
           "kvstore.sst_bytes_per_user_byte"}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = proc.stdout.strip().split("\n")
    return proc.returncode, lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_workload(self, name):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run(name, trace)
            self.assertEqual(code, 0, "\n".join(lines[-20:]))
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            want = {m["name"]: m["unit"] for m in self.spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            text = "\n".join(lines)
            for metric in want:
                prefix = "metric " if trace == 0 else "layer "
                self.assertIn(prefix + metric + " = ", text)
            for key in ("nproc=", "build_type=", "git_sha=", "seed=7",
                        "backend=", "durability="):
                self.assertIn(key, text)
            if trace == 0:
                for metric, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, metric)
            else:
                self.assertIn("spans written to", text)
                self.assertNotIn("trace.overhead = n/a", text)
                want_missing = set(NOT_MEASURED[name])
                if name == "ledger" or "backend=kLsm" not in text:
                    want_missing |= KVSTORE
                self.assertTrue(lines[-2].startswith("not measured:"))
                missing = set(lines[-2].split(":", 1)[1].split())
                self.assertEqual(missing, want_missing)
                for metric in missing:
                    self.assertIn("layer " + metric + " = n/a", text)
                    self.assertEqual(result["metrics"][metric]["value"], 0)

    def test_kv_serve(self):
        self.check_workload("kv_serve")

    def test_wiki(self):
        self.check_workload("wiki")

    def test_ledger(self):
        self.check_workload("ledger")

    def test_quorum(self):
        self.check_workload("quorum")

    def test_corrupt_chunk_is_reported(self):
        code, lines, result = run("kv_serve", 0, "--corrupt")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("error_rate = ", "\n".join(lines))


if __name__ == "__main__":
    unittest.main()
