"""Smoke tests for the benchmark: every workload at a tiny n with all its checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tracing import Tracer
from workloads import REPEATED_COUNTS, SPECS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SPECS))
def test_workload_passes_its_checks(workload, trace):
    res = result_of(bench(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_counts_repeat_for_a_seed():
    first, second = (result_of(bench("pipeline_w20", 1, seed=5))["metrics"] for _ in range(2))
    for name in REPEATED_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench("fit_exact", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_cover_the_root_span():
    tr = Tracer(detail=True)
    with tr.span("pipeline"):
        with tr.layer("fitting.structure"):
            time.sleep(0.01)
        with tr.span("fit"):
            with tr.layer("fitting.e_step"):
                time.sleep(0.01)
    summary = tr.summary(0)
    assert sum(summary["self"].values()) == pytest.approx(summary["totals"]["pipeline"])
    assert summary["self"]["fitting"] == pytest.approx(
        summary["totals"]["fitting.structure"] + summary["totals"]["fitting.e_step"])
    untraced = Tracer(detail=False)
    with untraced.layer("fitting.e_step"):
        pass
    assert untraced.spans == []
