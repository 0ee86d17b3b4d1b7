"""The benchmark's own checks: exact answers, repeatable counts, isolation.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload is run traced twice at one seed with a short ``--seconds``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Stats that are counts of work, not times: they must repeat exactly.
EXACT_STATS = ("calls", "terms", "cells", "max_bits", "iterations", "diverged",
               "points", "early_exits", "cross_checked_ratio", "bytes")


def bench(workload, trace, seed=3, seconds=2):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    (lines1, res1), (lines2, res2) = bench(workload, 1), bench(workload, 1)
    for res in (res1, res2):
        assert res["correct"] and res["failed"] == 0, lines1 + lines2
        assert set(res["metrics"]) == {m["name"] for m in manifest()["per_layer"]}
    counts = {name for name in res1["metrics"] if name.rsplit(".", 1)[1] in EXACT_STATS}
    assert counts
    for name in counts:
        assert res1["metrics"][name] == res2["metrics"][name], name
    digest = [line for line in lines1 if line.startswith("# payload_sha256")]
    assert digest == [line for line in lines2 if line.startswith("# payload_sha256")]
    checks = [line for line in lines1 if line.startswith("# check")]
    assert checks and all(line.startswith("# check ok") for line in checks), checks


def test_end_to_end_metrics_match_manifest():
    lines, res = bench("bundle-stream", 0, seconds=1)
    assert res["correct"] and res["attempted"] > 0
    want = manifest()["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert any(line.startswith("failed_share 0 ") for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
