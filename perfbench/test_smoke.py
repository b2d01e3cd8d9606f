"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import LAYER_METRICS  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in LAYER_METRICS
    ]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + list(WORKLOADS))
    predicted = {p for *_, preds in LAYER_METRICS for p, _ in preds}
    assert predicted <= {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--size", "tiny", "--seconds", "0.1",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(NAME.fullmatch(n) for n in result["metrics"])
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _originals():
    found = {}
    for _, module_name, path, _ in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        found[(module_name, path)] = owner.__dict__[attr]
    return found


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_pass_gives_the_same_outputs(workload):
    spec = WORKLOADS[workload]
    before = _originals()
    plain = spec.run_pass(spec.setup(2004, "tiny"))
    tracer = Tracer()
    tracer.install()
    try:
        traced = spec.run_pass(spec.setup(2004, "tiny"), tracer)
    finally:
        tracer.uninstall()
    assert traced.outputs == plain.outputs
    assert traced.failures == plain.failures == []
    assert len(tracer.span_start) > 0
    assert _originals() == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "fig18_5-sweep", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
