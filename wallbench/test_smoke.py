"""Smoke test of the wall-clock benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest -q wallbench/test_smoke.py

For each workload, one untraced and one traced run must print every
metric the benchmark defines, with its unit, pass the correctness check,
and decide identically with and without the layer wrappers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sched_account", "sched_qstack", "cluster_r3")

END_TO_END = {
    "throughput_rps": "req/s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "op_p99_us": "us",
    "commit_ratio": "ratio",
    "sim_goodput": "ops/sim-unit",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "serve.loop_self_s", "serve.backend_calls", "serve.retries",
    "serve.ops_per_commit", "serve.late_rps_ratio",
    "cc.scheduler.calls", "cc.scheduler.self_s", "cc.scheduler.blocked_share",
    "cc.dependencies.calls", "cc.dependencies.self_s", "cc.dependencies.edges",
    "cc.objects.executes", "cc.objects.replays", "cc.objects.replay_self_s",
    "cc.objects.residual_log",
    "perf.shadow.calls", "perf.shadow.self_s",
    "perf.cache.lookups", "perf.cache.hit_rate", "perf.cache.size",
    "perf.cache.self_s",
    "dist.coordinator.calls", "dist.coordinator.self_s",
    "dist.bus.rpcs", "dist.bus.sends", "dist.bus.msgs_per_commit",
    "dist.bus.self_s",
    "dist.node.handles", "dist.node.self_s",
    "dist.replication.backup_applies", "dist.replication.backup_self_s",
    "dist.replication.ship_self_s", "dist.replication.max_lag",
    "robust.decision_log.records", "robust.decision_log.self_s",
    "trace.overhead",
)

#: Layers that run only on the cluster workload.
CLUSTER_ONLY = ("dist.", "robust.")


def run(workload: str, trace: int, tmp_path) -> tuple[dict, str]:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "1991", "--seconds", "0",
            "--trace", str(trace),
            "--segment-requests", "16", "--segments", "2",
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), completed.stdout


def digest_of(stdout: str) -> str:
    line = next(l for l in stdout.splitlines() if l.startswith("passes:"))
    return line.split("digest=")[1].split()[0]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} >= set(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, tmp_path):
    plain, plain_out = run(workload, 0, tmp_path)
    traced, traced_out = run(workload, 1, tmp_path)
    for result in (plain, traced):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 32
    assert {name: m["unit"] for name, m in plain["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert set(traced["metrics"]) >= set(PER_LAYER)
    for name in PER_LAYER:
        assert traced["metrics"][name]["unit"]
        assert f"  {name} " in traced_out
    # The layers that run on this workload did work.
    for name in ("cc.scheduler.calls", "cc.objects.executes",
                 "serve.backend_calls"):
        assert traced["metrics"][name]["value"] > 0
    if workload == "cluster_r3":
        for name in ("dist.coordinator.calls", "dist.bus.sends",
                     "dist.node.handles", "dist.replication.backup_applies",
                     "robust.decision_log.records"):
            assert traced["metrics"][name]["value"] > 0
    else:
        for name in PER_LAYER:
            if name.startswith(CLUSTER_ONLY):
                assert traced["metrics"][name]["value"] == 0
    # The wrappers do not perturb decisions: the traced run's untraced
    # and traced passes agreed (correct above), and both runs served the
    # same outcomes.
    assert digest_of(plain_out) == digest_of(traced_out)
    assert "deterministic=True" in traced_out
