"""Tests of the service benchmark itself (not of flex_serve).

    python3 -m unittest svcbench/test_svcbench.py     # from the repo root

Each test runs the benchmark command with --requests, which measures a
fixed number of requests per connection with no warm-up, so everything the
benchmark counts is a function of the seed alone.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(workload, seed, requests=20):
    r = subprocess.run(
        [sys.executable, os.path.join("svcbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--requests", str(requests)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise AssertionError("benchmark failed (%d): %s" % (r.returncode, r.stderr[-2000:]))
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    return json.loads(lines[0])["report"]


def exact_counts(rep):
    # audit events carry stage timings, so their byte count is measured,
    # not exact; every other count must repeat
    return {k: v for k, v in rep["counts"].items() if k != "audit_bytes"}


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_counts(self):
        # two analysts on two connections: the least deterministic workload
        a = report("analyst_cold", 11)
        b = report("analyst_cold", 11)
        self.assertEqual(a["fingerprints"], b["fingerprints"])
        self.assertEqual(exact_counts(a), exact_counts(b))
        self.assertEqual(a["counts"]["answers"], {"granted": 40})

    def test_different_seed_different_stream(self):
        a = report("dashboard_replay", 11)
        b = report("dashboard_replay", 12)
        self.assertNotEqual(a["fingerprints"]["stream"], b["fingerprints"]["stream"])
        self.assertNotEqual(a["fingerprints"]["data"], b["fingerprints"]["data"])
        self.assertEqual(a["counts"]["epsilon_charged"], 0.0)


if __name__ == "__main__":
    unittest.main()
