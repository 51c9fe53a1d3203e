"""Byte-identity gate: CLI and library reports must match the benchmark's
recorded goldens.

Replays operations of `perfbench/workloads.make_plan` in a scratch working
directory and checks each one's exit code and report sha256 against
`perfbench/goldens.json`, which is only read here. Every workload is replayed
at seed 0 and in its tiny form. The `offline` `sample` report carries the
sha256 of the dataset file it writes, so dataset bytes are checked too; the
rest of its 16-seed pool is left to the benchmark.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import shortsight
import shortsight.cli
import shortsight.serialize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize(
    "workload, seed, tiny",
    [
        ("verify-grid", 0, False),
        ("verify-grid", 0, True),
        ("check-families", 0, False),
        ("check-families", 0, True),
        ("random-dense", 0, False),
        ("random-dense", 1, False),
        ("random-dense", 0, True),
        ("offline", 0, False),
        ("offline", 0, True),
    ],
)
def test_reports_match_the_benchmark_goldens(tmp_path, monkeypatch, workload, seed, tiny):
    goldens = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))["ops"]
    monkeypatch.chdir(tmp_path)
    plan = workloads.make_plan(workload, seed, tiny=tiny)
    state = plan.setup(shortsight)
    for op in plan.ops:
        code, report = op.render(op.call(shortsight, state))
        golden = goldens[op.key]
        assert (op.key, code, hashlib.sha256(report).hexdigest()) == (op.key, golden["exit"], golden["sha256"])
