"""The committed benchmark records `BENCH_<n>.json` at the repository root.

Each record compares a change with its parent commit on the benchmark that
`BENCHMARK.json` declares, so it may name only the workloads and metrics
declared there, and every compared run must carry its seed, the machine's
core count and the values of both sides.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _check_summary(summary: dict) -> None:
    """One side of a pair: `bench/run.py`'s last stdout line."""
    assert isinstance(summary["correct"], bool)
    assert isinstance(summary["attempted"], int) and summary["attempted"] > 0
    assert isinstance(summary["failed"], int) and summary["failed"] >= 0
    assert summary["metrics"]
    for name, metric in summary["metrics"].items():
        assert END_TO_END.get(name) == metric["unit"], name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["workloads"]
    for workload, entry in record["workloads"].items():
        assert workload in WORKLOADS
        assert isinstance(entry["nproc"], int) and entry["nproc"] > 0
        seeds = entry["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds)
        assert [pair["seed"] for pair in entry["pairs"]] == seeds
        for pair in entry["pairs"]:
            assert pair["first"] in SIDES
            for side in SIDES:
                _check_summary(pair[side])
            assert pair["parent"]["metrics"].keys() == pair["change"]["metrics"].keys()
        for name, stats in entry.get("summary", {}).items():
            assert name in END_TO_END
            assert 0 <= stats["change_wins"] <= len(seeds)
    for workload, entry in record.get("trace", {}).items():
        assert workload in WORKLOADS
        assert isinstance(entry["seed"], int)
        assert isinstance(entry["nproc"], int) and entry["nproc"] > 0
        for side in SIDES:
            assert entry[side]
            for name, metric in entry[side].items():
                assert PER_LAYER.get(name) == metric["unit"], name
                assert isinstance(metric["value"], (int, float)), name
