"""Committed speed records: every ``BENCH_*.json`` at the repository root
holds runs of the parent and of the change, each run with the record of
where and how it was measured."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ENV_FIELDS = ("host", "nproc", "python", "numpy", "commit", "source_sha256", "seed", "command")


def test_records_exist():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_both_sides_with_env(path):
    data = json.loads(path.read_text())
    for side in ("parent", "change"):
        runs = data[side]["runs"]
        assert runs, f"{path.name}: no {side} runs"
        for run in runs:
            missing = [f for f in ENV_FIELDS if f not in run["env"]]
            assert not missing, f"{path.name} {side} {run.get('workload')}: missing {missing}"
            assert run["metrics"] and run["wall_s"] > 0
        # one side is one source tree
        assert len({run["env"]["source_sha256"] for run in runs}) == 1
    # the runs pair up: the same workloads, seeds and trace settings
    keys = {side: sorted((r["workload"], r["env"]["seed"], r["trace"]) for r in data[side]["runs"])
            for side in ("parent", "change")}
    assert keys["parent"] == keys["change"]
