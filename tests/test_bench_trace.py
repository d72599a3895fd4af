"""The traced benchmark runs from a source checkout, and every flow it
makes goes through `FlowNetwork.max_flow`.

A span name in `bench/tracer.py` that no longer resolves makes the run
fail; a flow loop outside the core makes `flow.max_flow.calls` read 0.
The run writes its span dump under the git-ignored `.bench_work/`.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_decompose_cli_flows_through_the_core():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decompose_cli",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["flow.max_flow.calls"] > 0
    assert metrics["flow.bfs_rounds"] >= metrics["flow.max_flow.calls"]
