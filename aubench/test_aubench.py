"""Tests of the benchmark itself (not of the library).

Run from the root of an aujoin checkout:

    python3 -m unittest discover -s aubench -p 'test_*.py'

They build the benchmark the way run.py does and write only under
.bench_work/ in the checkout.
"""

import filecmp
import json
import os
import shutil
import struct
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (aubench/run.py)

WORK = os.path.join(ROOT, ".bench_work", "tests")


def comparable_bytes(path):
    """A file's bytes, with the one field of an aujoin snapshot that is
    measured rather than derived from the inputs zeroed: the snapshot
    meta section records how long the prepare took (SnapshotMeta::
    prepare_seconds, see src/storage/snapshot_format.h), so that field
    and the meta section's checksum differ between two generations of
    the same seed. Everything else must match byte for byte."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    if data[:8] != b"AUJSNAP1":
        return bytes(data)
    (sections,) = struct.unpack_from("<I", data, 12)
    for i in range(sections):
        entry = 64 + 32 * i
        section_id, _, offset, _, _ = struct.unpack_from("<IIQQQ", data, entry)
        if section_id == 1:  # kSectionMeta
            data[entry + 24:entry + 32] = bytes(8)    # its checksum
            data[offset + 80:offset + 88] = bytes(8)  # prepare_seconds
    return bytes(data)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build(ROOT)
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def gen(self, workload, seed, name, seconds=6):
        out = os.path.join(WORK, name)
        shutil.rmtree(out, ignore_errors=True)
        cmd = [self.binary, "gen", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--dir", out]
        self.assertEqual(subprocess.run(cmd).returncode, 0)
        return out

    def run_workload(self, workload, seed, work, trace, seconds=4):
        cmd = [self.binary, "run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--dir", work]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0)
        return bench.last_json(proc.stdout)

    def test_generation_is_deterministic(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.gen(workload, 7, workload + "-a")
                b = self.gen(workload, 7, workload + "-b")
                names = sorted(os.listdir(a))
                self.assertEqual(names, sorted(os.listdir(b)))
                for name in names:
                    self.assertEqual(comparable_bytes(os.path.join(a, name)),
                                     comparable_bytes(os.path.join(b, name)), name)
                shutil.rmtree(a)
                shutil.rmtree(b)

    def test_seeds_give_different_inputs(self):
        a = self.gen("selfjoin_verify", 7, "seed-7")
        b = self.gen("selfjoin_verify", 8, "seed-8")
        self.assertFalse(filecmp.cmp(os.path.join(a, "s.txt"),
                                     os.path.join(b, "s.txt"), shallow=False))

    def test_result_line_names_every_metric(self):
        work = self.gen("serve_append", 3, "metrics")
        plain = self.run_workload("serve_append", 3, work, 0)
        self.assertEqual(set(plain), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(plain["attempted"], 1)
        self.assertEqual(set(plain["metrics"]),
                         {m["name"] for m in spec()["end_to_end"]})
        for m in spec()["end_to_end"]:
            self.assertEqual(plain["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(plain["metrics"][m["name"]]["value"], 0)
        traced = self.run_workload("serve_append", 3, work, 1)
        names = set(traced["metrics"]) - {"trace.join_s"} | {"trace.overhead"}
        self.assertEqual(names, {m["name"] for m in spec()["per_layer"]})

    def test_traced_layers_cover_the_join(self):
        # signature + probe + verify + emit (plus block prepare on the
        # sharded path, per worker) must account for join_s; a gap means
        # a layer the trace does not measure.
        for workload in ("selfjoin_verify", "rxs_sharded"):
            with self.subTest(workload=workload):
                work = self.gen(workload, 5, workload + "-cover")
                traced = self.run_workload(workload, 5, work, 1)
                coverage = traced["metrics"]["join.coverage"]["value"]
                self.assertLess(abs(coverage - 1), 0.1, coverage)
                shutil.rmtree(work)

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "aubench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "aubench/run.py", "--workload", "selfjoin_verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
