#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (BES_BENCH_SMOKE=1).

    python3 perfbench/selftest.py

Run from the repository root; builds the benchmark first if needed. Checks
that a corrupted answer is caught and fails the command, that two runs with
one seed print identical exact-repeat counts, that the traced and untraced
runs print exactly the metrics BENCHMARK.json names, and that the command
refuses to run without the engine sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(workload, seed=7, trace=0, extra=(), cwd=ROOT, script=RUN):
    env = dict(os.environ, BES_BENCH_SMOKE="1")
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)
    return done.returncode, done.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Benchmark(unittest.TestCase):
    def test_wrong_answer_is_caught(self):
        for workload in ("scan_cold", "zipf_ingest", "net_fanout"):
            code, lines = bench(workload, extra=["--inject-wrong-answer"])
            self.assertNotEqual(code, 0, workload)
            r = result(lines)
            self.assertFalse(r["correct"], workload)
            self.assertGreaterEqual(r["failed"], 1, workload)

    def test_clean_run_is_correct(self):
        code, lines = bench("scan_cold")
        self.assertEqual(code, 0)
        r = result(lines)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertTrue(any("negative control caught" in l for l in lines))

    def test_counts_repeat_exactly(self):
        for workload in ("scan_cold", "zipf_ingest"):
            runs = []
            for _ in range(2):
                code, lines = bench(workload, seed=11)
                self.assertEqual(code, 0, workload)
                runs.append([l for l in lines
                             if l.startswith("counts[first")
                             or l.startswith("# request_stream_digest")])
            self.assertEqual(len(runs[0]), 2, workload)
            self.assertEqual(runs[0], runs[1], workload)

    def test_metric_names_match_spec(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        self.assertEqual(names, ["scan_cold", "zipf_ingest", "net_fanout"])
        for workload in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                code, lines = bench(workload, trace=trace)
                self.assertEqual(code, 0, (workload, trace))
                r = result(lines)
                self.assertTrue(r["correct"], (workload, trace))
                want = {m["name"]: m["unit"] for m in s[key]}
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, want, (workload, trace))
                if trace:
                    self.assertTrue(any(", 0 differ" in l for l in lines))

    def test_refuses_without_engine_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = bench("scan_cold", cwd=bare,
                            script=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
