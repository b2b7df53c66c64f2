"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Every count the traced run reports must repeat exactly for a seed and move
when the seed changes; the metric names must agree across BENCHMARK.json,
manifest.json and the tracer; and the result line must follow its format.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MANIFEST = json.loads((HERE / "manifest.json").read_text())

# The counts that measure each workload's own work; each must change with the
# seed.  Counts fixed by a workload's shape (cli.commands, rules.instances)
# and counts of layers a workload does not use are left out.
MOVES = {
    "build-dense": ["hierarchy.games.k1", "hierarchy.games.k2", "hierarchy.pruned_game",
                    "embedding.searches", "ordinals.compare_calls", "ordinals.terms_built"],
    "core-enum": ["patterns.iso_checks", "patterns.validations", "cores.closed_subsets",
                  "cores.classes", "cores.covers_enumerated", "embedding.searches",
                  "ordinals.compare_calls"],
    "rule-probe": ["covering.coverings", "covering.extensions", "covering.maps_generated",
                   "embedding.searches", "embedding.yields", "ordinals.compare_calls"],
    "cli-pipeline": ["io.bytes_written", "io.bytes_read", "ordinals.parse_calls",
                     "hierarchy.games.k1", "patterns.iso_checks"],
}


def counts(workload, seed):
    run.import_library()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        tracer, _, results, _ = run.traced_round(run.WORKLOADS[workload], seed, Path(workdir))
    assert not any(isinstance(out, Exception) for _, _, out, _ in results)
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit in ("count", "1")}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_for_a_seed_and_move_with_it(workload):
    first = counts(workload, 3)
    assert counts(workload, 3) == first
    # a sum over many inputs can tie between two seeds by chance; a count
    # that does not move with the seed ties on all of them
    others = [counts(workload, seed) for seed in (4, 5)]
    assert [k for k in MOVES[workload] if all(o[k] == first[k] for o in others)] == []


def test_metric_names_agree():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(MANIFEST["workloads"]) == list(run.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why == MANIFEST["workloads"][w["name"]]["why"]
    traced = list(Tracer().metrics()) + ["trace.overhead_s"]
    assert sorted(m["name"] for m in BENCHMARK["per_layer"]) == sorted(traced)
    mapped = [m for row in MANIFEST["layers"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(traced)
    assert MANIFEST["default_seed"] == run.DEFAULT_SEED


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-pipeline",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
