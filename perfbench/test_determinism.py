"""Two traced runs at one seed must give identical counters.

Run from the repository root:

    python3 -m pytest perfbench -q

Each run makes the untimed first pass, then one untraced and one traced
pass (--seconds 1 is shorter than any pass), so the operation counts
repeat as well.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(RUN.parent))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_counters(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    counters = {key: m["value"] for key, m in result["metrics"].items()
                if m["unit"] == "count"}
    counters["attempted"] = result["attempted"]
    counters["failed"] = result["failed"]
    return counters


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_at_one_seed(workload):
    first = traced_counters(workload, 3)
    assert first["cli.main.calls"] > 0
    assert first == traced_counters(workload, 3)


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
