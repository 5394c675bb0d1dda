"""Smoke test of the benchmark at toy size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for one second at toy size (channels 8,16,32, 16 frames,
one epoch per training run, one gradcheck seed per unit), untraced and traced,
and checks the output against BENCHMARK.json: every end-to-end metric prints
with its unit, and the traced run emits every per-layer metric.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    printed = {f[1]: f[3] for f in (line.split() for line in lines) if f[0] == "e2e"}
    for m in SPEC["end_to_end"]:
        assert printed.get(m["name"]) == m["unit"], m["name"]
    assert any(line.startswith("e2e failed_share 0 share n=") for line in lines)
    if trace == "1":
        assert any(line.startswith("overhead op_ms_mean ") for line in lines)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_wrappers_cover_every_rebound_name():
    from skelpool import blocks, gradcheck, model, train
    from tracer import Tracer

    rebound = [(train, "cross_entropy"), (train, "gradients"), (train, "to_arrays"),
               (gradcheck, "gradients")]
    rebound += [(blocks, n) for n in ("gcn_block", "batch_normalize", "spatial_graph_conv",
                                      "st_pool")]
    rebound += [(model, n) for n in ("gcn_block", "st_pool", "classifier_head",
                                     "cross_fusion_block", "cross_fusion_split",
                                     "fuse_branches", "global_average",
                                     "information_supplement")]
    rebound.append((model.Model, "forward"))
    before = [getattr(owner, name) for owner, name in rebound]
    with Tracer().installed():
        for (owner, name), original in zip(rebound, before):
            assert getattr(getattr(owner, name), "__wrapped__", None) is original, name
    assert [getattr(owner, name) for owner, name in rebound] == before
