"""minerlab benchmark: one client in a closed loop, each op an in-process
call to ``minerlab.cli.main(argv)``.

    python3 perfbench/run.py --workload scan-early --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the named workload untraced and prints the
end-to-end metrics.  ``--trace 1`` runs the traced tour (every workload,
each op once untraced and once traced) and prints the per-layer metrics.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with host and
versions, goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
import workloads
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
REFERENCE_NONCES = 1 << 16  # per header, for the hashlib and naive rates

END_TO_END = {
    "nonces_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernel.scan_ns_per_nonce": "ns",
    "kernel.prepare_us": "us",
    "kernel.referee_calls": "count",
    "kernel.referee_ms_per_call": "ms",
    "kernel.stage1_survivors": "count",
    "kernel.stage2_survivors": "count",
    "kernel.compressions_per_nonce": "count",
    "kernel.useful_lane_frac": "ratio",
    "kernel.past_winner_frac": "ratio",
    "kernel.parallel_efficiency": "ratio",
    "kernel.naive_nonces_per_s": "1/s",
    "kernel.speedup_vs_naive": "ratio",
    "kernel.speedup_vs_hashlib": "ratio",
    "sha256.sha256d_ms_per_call": "ms",
    "sha256.compress_us_per_call": "us",
    "header.parse_us_per_op": "us",
    "cli.self_ms_per_op": "ms",
    "rewards.supply_ms_per_query_below_1e7": "ms",
    "rewards.supply_ms_per_query_from_1e7": "ms",
    "rewards.total_emission_ms": "ms",
    "costs.predicted_compressions_per_nonce": "count",
    "costs.executed_rounds": "count",
    "costs.computed_schedule_words": "count",
    "host.hashlib_nonces_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.span_coverage": "ratio",
}


@dataclass
class Result:
    op: Op
    rc: int | None
    wall: float
    out: str
    problem: str | None
    nonces: int


def load_cli():
    """Import minerlab.cli from this checkout's sources, never elsewhere."""
    if not (SRC / "minerlab" / "cli.py").is_file():
        sys.exit(f"perfbench: no minerlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import minerlab
    import minerlab.cli

    if Path(minerlab.__file__).resolve().parent != SRC / "minerlab":
        sys.exit(f"perfbench: imported minerlab from {minerlab.__file__}, not {SRC}")
    return minerlab.cli


def execute(cli, op: Op) -> Result:
    """One op through ``cli.main``; only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except Exception as exc:  # a traceback is a failed op, never a crash
            rc, failure = None, exc
        wall = time.perf_counter() - start
    text = out.getvalue()
    if failure is not None:
        problem = "traceback: " + traceback.format_exception_only(failure)[-1].strip()
    elif rc != op.expect_rc:
        problem = f"exit {rc}, expected {op.expect_rc}: {err.getvalue().strip()[:200]}"
    elif err.getvalue():
        problem = f"unexpected stderr: {err.getvalue().strip()[:200]}"
    else:
        problem = op.check(op, text)
    nonces = op.info.get("nonces", 0)
    if op.argv[0] == "mine" and problem is None:
        nonces = int(workloads.parse_kv(text)["nonces_tried"])
    return Result(op, rc, wall, text, problem, nonces)


def closed_loop(cli, passes, seconds: float) -> tuple[Result, list[list[Result]]]:
    """A warm-up op, then whole passes back to back until ``seconds`` of
    op time have been measured."""
    batch = next(passes)
    warm = execute(cli, batch[0])
    done, busy = [], 0.0
    while True:
        done.append([execute(cli, op) for op in batch])
        busy += sum(r.wall for r in done[-1])
        if busy >= seconds:
            return warm, done
        batch = next(passes)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    which percentile that is (the maximum when there are too few)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(header_hex: str) -> list[float]:
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        spawned = time.monotonic()
        done = subprocess.run([sys.executable, str(probe), header_hex], cwd=ROOT,
                              capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - spawned)
    return times


def end_to_end(done: list[list[Result]], setup: list[float]) -> tuple[dict, dict]:
    """Rates are medians over passes, so a burst of load from elsewhere on
    the host moves them less; op times are taken over every op."""
    walls = [r.wall for batch in done for r in batch]
    tail_value, tail_pct = tail(walls)
    values = {
        "nonces_per_s": statistics.median(sum(r.nonces for r in batch) / sum(r.wall for r in batch)
                                          for batch in done),
        "ops_per_s": statistics.median(len(batch) / sum(r.wall for r in batch) for batch in done),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"nonces_per_s": f"median of {len(done)} passes",
             "ops_per_s": f"median of {len(done)} passes",
             "op_s_tail": f"p{tail_pct:.1f} of {len(walls)} ops",
             "setup_s": f"median of {len(setup)} fresh interpreters"}
    return values, notes


def exact_counts(results: list[Result], first: int = 8) -> dict:
    """Counters of the first ops.  They repeat exactly for a given seed,
    except on genesis-window: there the threads scanning above the winner
    stop when they notice the find, so their share varies."""
    totals = defaultdict(int)
    for r in results[:first]:
        if r.problem is not None:
            continue
        kv = workloads.parse_kv(r.out)
        for key in ("nonces_tried", "rounds_executed", "stage1_survivors", "stage2_survivors"):
            if key in kv:
                totals[key] += int(kv[key])
    return {"ops": min(first, len(results)), **totals}


# ---------------------------------------------------------------------------
# Traced tour.


def trace_tour(cli, seed: int, seconds: float, nproc: int, emission) -> tuple[list, spans.Tracer]:
    """Every workload for an equal share of ``seconds``; each op runs once
    untraced and once traced, in alternating order, and genesis-window
    windows once more traced on one thread for the parallel efficiency."""
    tracer = spans.Tracer()
    records = []  # (workload, variant, traced, Result, op sequence number)
    budget = seconds / (2 * len(WORKLOADS))
    for name in WORKLOADS:
        ops = workloads.ops(name, seed, nproc, emission)
        records.append((name, "warm", False, execute(cli, next(ops)), None))
        busy, k = 0.0, 0
        while busy < budget:
            op = next(ops)
            variants = [("n", op, k % 2 == 1), ("n", op, k % 2 == 0)]
            if name == "genesis-window":
                variants.append(("1", workloads.reconfigured(op, 1), True))
            for variant, run_op, is_traced in variants:
                seq = len(records)
                if is_traced:
                    tracer.op = seq
                    with spans.traced(tracer):
                        result = execute(cli, run_op)
                    tracer.op = None
                    if variant == "n":
                        busy += result.wall
                else:
                    result = execute(cli, run_op)
                records.append((name, variant, is_traced, result, seq))
            k += 1
    return records, tracer


def reference_rates(seed: int, emission) -> tuple[dict, list[str]]:
    """Plain hashlib and the program's naive pipeline on two scan-early
    headers, with the problems found in the naive scans' counters."""
    from minerlab import kernel

    ops = workloads.ops("scan-early", seed, 1, emission)
    hashlib_s = naive_s = 0.0
    problems = []
    for op in (next(ops), next(ops)):
        i = op.info
        hashlib_s += oracle.hashlib_seconds(i["header76"], REFERENCE_NONCES, i["lo"])
        start = time.perf_counter()
        res = kernel.scan_naive(i["header76"], i["target"], i["lo"], i["lo"] + REFERENCE_NONCES - 1)
        naive_s += time.perf_counter() - start
        if res.found is not None or res.nonces_tried != REFERENCE_NONCES:
            problems.append(f"scan_naive#{op.index}: found {res.found}, "
                            f"nonces_tried {res.nonces_tried}")
    return {"hashlib": 2 * REFERENCE_NONCES / hashlib_s,
            "naive": 2 * REFERENCE_NONCES / naive_s}, problems


def layer_metrics(records, tracer: spans.Tracer, nproc: int, chunk: int, refs: dict) -> dict:
    from minerlab import costs

    selfs = spans.self_seconds(tracer.spans)
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)

    def traced(workload=None, variant="n"):
        return [(seq, r) for w, v, t, r, seq in records if t and v == variant
                and r.problem is None and (workload is None or w == workload)]

    def untraced(workload=None):
        return [r for w, v, t, r, seq in records if not t and v == "n"
                and r.problem is None and (workload is None or w == workload)]

    def named(seq, name):
        return [s for s in by_op[seq] if s.name == name]

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_seconds(name):
        hits = [s.seconds for s in tracer.spans if s.name == name]
        return ratio(sum(hits), len(hits))

    early = traced("scan-early")
    early_kv = [workloads.parse_kv(r.out) for _, r in early]
    early_nonces = sum(r.nonces for _, r in early)
    scan_self = sum(selfs[s.sid] for seq, _ in early for s in named(seq, "kernel.scan"))

    genesis = traced("genesis-window")
    past = sum(r.nonces - (r.op.info["winner"] - r.op.info["lo"] + 1) for _, r in genesis)
    one_thread = sum(r.wall for _, r in traced("genesis-window", "1"))

    desk = traced("find-desk")
    lanes = sum(min(math.ceil(r.nonces / chunk) * chunk, r.op.info["hi"] - r.op.info["lo"] + 1)
                for _, r in desk)

    parse_ops = [sum(s.seconds for s in by_op[seq]
                     if s.name in ("header.header_from_hex", "header.serialize_header",
                                   "header.decode_nbits"))
                 for seq, _ in traced()]
    parse_ops = [x for x in parse_ops if x > 0]

    bands = defaultdict(list)
    for seq, r in traced("supply-queries"):
        if r.op.info.get("kind") == "supply":
            band = "from" if r.op.info["height"] >= workloads.SUPPLY_BAND_SPLIT else "below"
            bands[band] += [s.seconds for s in named(seq, "rewards.cumulative_supply")]

    cli_self = [selfs[s.sid] for seq, _ in traced() for s in named(seq, "cli.main")]
    coverage = [ratio(sum(s.seconds for s in named(seq, "cli.main")), r.wall)
                for seq, r in traced()]

    optimized = ratio(sum(r.nonces for r in untraced("scan-early")),
                      sum(r.wall for r in untraced("scan-early")))
    full = costs.ImprovementSet.full()
    return {
        "kernel.scan_ns_per_nonce": 1e9 * ratio(scan_self, early_nonces),
        "kernel.prepare_us": 1e6 * mean_seconds("kernel.prepare_header_work"),
        "kernel.referee_calls": ratio(sum(len(named(seq, "kernel.complete_nonce"))
                                          for seq, _ in genesis), len(genesis)),
        "kernel.referee_ms_per_call": 1e3 * mean_seconds("kernel.complete_nonce"),
        "kernel.stage1_survivors": sum(int(kv["stage1_survivors"]) for kv in early_kv),
        "kernel.stage2_survivors": sum(int(kv["stage2_survivors"]) for kv in early_kv),
        "kernel.compressions_per_nonce": ratio(
            sum(int(kv["rounds_executed"]) for kv in early_kv) / 64, early_nonces),
        "kernel.useful_lane_frac": ratio(sum(r.nonces for _, r in desk), lanes),
        "kernel.past_winner_frac": ratio(past, sum(r.nonces for _, r in genesis)),
        "kernel.parallel_efficiency": ratio(one_thread, nproc * sum(r.wall for _, r in genesis)),
        "kernel.naive_nonces_per_s": refs["naive"],
        "kernel.speedup_vs_naive": ratio(optimized, refs["naive"]),
        "kernel.speedup_vs_hashlib": ratio(optimized, refs["hashlib"]),
        "sha256.sha256d_ms_per_call": 1e3 * mean_seconds("sha256.sha256d"),
        "sha256.compress_us_per_call": 1e6 * mean_seconds("sha256.compress"),
        "header.parse_us_per_op": 1e6 * ratio(sum(parse_ops), len(parse_ops)),
        "cli.self_ms_per_op": 1e3 * ratio(sum(cli_self), len(cli_self)),
        "rewards.supply_ms_per_query_below_1e7": 1e3 * ratio(sum(bands["below"]),
                                                             len(bands["below"])),
        "rewards.supply_ms_per_query_from_1e7": 1e3 * ratio(sum(bands["from"]),
                                                            len(bands["from"])),
        "rewards.total_emission_ms": 1e3 * mean_seconds("rewards.total_emission"),
        "costs.predicted_compressions_per_nonce": float(costs.compression_equivalents(full)),
        "costs.executed_rounds": costs.executed_rounds(full),
        "costs.computed_schedule_words": costs.computed_schedule_words(full),
        "host.hashlib_nonces_per_s": refs["hashlib"],
        "trace.overhead_frac": ratio(sum(r.wall for _, r in traced()),
                                     sum(r.wall for r in untraced())) - 1.0,
        "trace.span_coverage": min(coverage, default=0.0),
    }


# ---------------------------------------------------------------------------
# Record.


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, nproc: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "minerlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "command": [Path(sys.executable).name] + sys.argv,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cli = load_cli()
    nproc = len(os.sched_getaffinity(0))
    chunk = cli.build_parser().parse_args(["mine", "--header", "00"]).chunk
    emission = oracle.Emission()
    env = environment(args.seed, nproc)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        records, tracer = trace_tour(cli, args.seed, args.seconds, nproc, emission)
        results = [r for _, _, _, r, _ in records]
        refs, problems = reference_rates(args.seed, emission)
        values = layer_metrics(records, tracer, nproc, chunk, refs)
        units, notes, counts = PER_LAYER, {}, {}
        attempted = len(results) + 2  # the two naive reference scans
    else:
        probe = next(workloads.ops("scan-early", args.seed, 1, emission))
        setup = measure_setup((probe.info["header76"] + bytes(4)).hex())
        passes = workloads.passes(args.workload, args.seed, nproc, emission)
        warm, done = closed_loop(cli, passes, args.seconds)
        results = [warm] + [r for batch in done for r in batch]
        values, notes = end_to_end(done, setup)
        units, counts, problems = END_TO_END, exact_counts(results[1:]), []
        attempted = len(results)

    failed = [f"{r.op.workload}#{r.op.index}: {r.problem}" for r in results if r.problem]
    failed += problems
    for line in failed[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    print(f"failed_frac = {len(failed) / attempted:.6g}  ({len(failed)} of {attempted} ops)")
    if counts:
        print("exact counts " + json.dumps(counts, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
        "notes": notes, "exact_counts": counts,
        "failed": failed,
        "ops": [{"workload": r.op.workload, "index": r.op.index, "argv0": r.op.argv[0],
                 "rc": r.rc, "wall_s": r.wall, "nonces": r.nonces} for r in results],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
    print(f"record {stem.with_suffix('.json').relative_to(ROOT)}")

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
