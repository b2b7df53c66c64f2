"""The committed BENCH_<n>.json files: each records, for the parent commit
and for the change, the final result line of every run of every workload
that BENCHMARK.json declares, and every recorded run must be a correct,
failure-free run reporting exactly the declared end-to-end metrics."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_is_committed():
    assert TRAJECTORY


@pytest.mark.parametrize("path", TRAJECTORY, ids=lambda p: p.name)
def test_trajectory_file_holds_correct_runs(path):
    doc = json.loads(path.read_text())
    for side in ("parent", "change"):
        runs = doc[side]["runs"]
        assert set(runs) == WORKLOADS, (side, sorted(runs))
        for workload, results in runs.items():
            assert results, (side, workload)
            for run in results:
                where = (side, workload)
                assert run["correct"] is True, where
                assert run["failed"] == 0, where
                units = {name: metric["unit"] for name, metric in run["metrics"].items()}
                assert units == METRICS, where
                assert all(isinstance(m["value"], (int, float)) for m in run["metrics"].values()), where
