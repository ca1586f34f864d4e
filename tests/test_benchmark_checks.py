"""The benchmark's own output checks, in the test suite.

Each workload of BENCHMARK.json is built at one seed from
perfbench/record.json and runs round 0 through the benchmark's runner; every
task's check must report no problem.  A change that moves a recorded output
(a gap certificate, the variational reference cost, a shipped config's
report) fails here, not first in the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402

RECORD = json.loads((ROOT / "perfbench" / "record.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_round_zero_passes_the_output_checks(name, tmp_path):
    workload = workloads.build(name, 0, ROOT, RECORD, tmp_path)
    out = worker.run_rounds(workload, rounds=1)
    assert out["attempted"] > 0
    assert out["problems"] == [] and out["failed"] == 0
