"""The benchmark script runs and checks its workloads end to end."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

GRAPH_N256_TRAJECTORY_SHA256 = "a093bbdfd51b23c8a663910fe72349d6816a504788c881c49ff2d89ff325166d"


@pytest.mark.parametrize("workload", ["graph-n256", "oracle-grid"])
def test_one_checked_pass(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True, done.stdout
    if workload == "graph-n256":
        assert f"sha256 solve/trajectory.csv {GRAPH_N256_TRAJECTORY_SHA256}" in lines
        assert f"sha256 solve_decentralized/trajectory.csv {GRAPH_N256_TRAJECTORY_SHA256}" in lines
