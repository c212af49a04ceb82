"""Tests of the benchmark itself: inputs, oracle, checks, metric names and
a tiny run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_ops(name, seed, count=3):
    ops = workloads.ops(name, seed, 2, oracle.Emission())
    return [op.argv for op in itertools.islice(ops, count)]


def run_bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done


def test_inputs_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert first_ops(name, 7) == first_ops(name, 7), name
        assert first_ops(name, 7) != first_ops(name, 8), name


def test_historical_headers_verify_with_hashlib():
    for i, block in enumerate(oracle.HISTORICAL_BLOCKS):
        raw = oracle.historical_header(i)
        digest = oracle.sha256d(raw)
        assert oracle.display_hex(digest) == block[6]
        assert oracle.hash_int(digest) < oracle.DIFF1_TARGET
        assert raw[76:80] == struct.pack("<I", block[5])


def test_emission_oracle_matches_known_values():
    em = oracle.Emission()
    assert em.reward_proposed(419_999) == 25 * oracle.SAT
    assert em.reward_proposed(420_336) == 2_496_000_000  # 25 BTC * 0.9984
    assert em.total_sat("original") == 2_099_999_997_690_000
    assert em.supply_sat(210_000, "proposed") == 210_000 * 50 * oracle.SAT
    assert abs(em.total_sat("proposed") - oracle.CAP_SAT) < oracle.SAT


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span(1, None, "cli.main", 0, 100, 0)
    overlapping = [spans.Span(2, 1, "kernel.scan", 10, 40, 0),
                   spans.Span(3, 1, "kernel.complete_nonce", 30, 60, 0)]
    assert spans.self_seconds([parent, *overlapping])[1] == 50 / 1e9


def test_checks_reject_wrong_answers():
    cli = run.load_cli()
    op = next(workloads.ops("genesis-window", 3, 2, oracle.Emission()))
    good = run.execute(cli, op)
    assert good.problem is None
    winner = f"nonce: 0x{op.info['winner']:08x}"
    assert op.check(op, good.out.replace(winner, "nonce: 0x00000000")) is not None
    tried = f"nonces_tried: {good.nonces}"
    assert op.check(op, good.out.replace(tried, f"nonces_tried: {good.nonces + 1}")) is not None

    op = next(workloads.ops("supply-queries", 3, 2, oracle.Emission()))
    good = run.execute(cli, op)
    assert good.problem is None
    assert op.check(op, good.out.replace("cumulative_satoshis: ", "cumulative_satoshis: 1")) \
        is not None


def test_metric_names_match_benchmark_json():
    gated = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert gated == {name: workloads.WORKLOADS[name] for name in gated}
    assert set(workloads.WORKLOADS) - set(gated) == {"supply-queries"}  # see README
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_smoke_every_workload():
    for name in workloads.WORKLOADS:
        done = run_bench("--workload", name, "--seed", "2", "--seconds", "0.5", "--trace", "0")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, done.stderr
        assert set(result["metrics"]) == set(run.END_TO_END)
        for name_, unit in run.END_TO_END.items():
            assert f"{name_} = " in done.stdout and result["metrics"][name_]["unit"] == unit
            assert result["metrics"][name_]["value"] > 0


def test_smoke_trace():
    done = run_bench("--workload", "find-desk", "--seed", "2", "--seconds", "2", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["kernel.compressions_per_nonce"]["value"] >= 1.90625
    assert result["metrics"]["trace.span_coverage"]["value"] > 0.9


def test_fails_without_the_program():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_bench("--workload", "scan-early", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(bare)
