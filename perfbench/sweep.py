"""Thread and chunk sweep; informative only, it gates nothing.

Runs the first ops of the scan-early and find-desk streams at every thread
count 1..nproc and chunk size 2^12..2^18 through ``minerlab mine``, next to
the naive pipeline (per chunk) and a plain hashlib loop on the same
headers, then the cost of one proposed-schedule supply query at heights up
to MAX_SUPPLY_HEIGHT, above the range the gated supply-queries workload
draws from.  Every op is checked as in the benchmark.

    python3 perfbench/sweep.py [--seed N]

Prints a table and writes perfbench/out/sweep-seed<N>.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time

import oracle
import run
import workloads

CHUNKS = [1 << b for b in range(12, 19)]
SCAN_OPS = 4
DESK_OPS = 8
SUPPLY_HEIGHTS = (10**4, 10**5, 10**6, 10**7, 1 << 25, 5 * 10**7, 10**8)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    cli = run.load_cli()
    from minerlab import kernel

    nproc = len(os.sched_getaffinity(0))
    emission = oracle.Emission()
    inputs = {
        name: list(itertools.islice(workloads.ops(name, args.seed, 1, emission), count))
        for name, count in (("scan-early", SCAN_OPS), ("find-desk", DESK_OPS))
    }
    rows, failures = [], []
    print(f"{'workload':<12} {'threads':>7} {'chunk':>7} {'nonces/s':>10} {'op_s_p50':>9}")
    for name, ops in inputs.items():
        for threads in range(1, nproc + 1):
            for chunk in CHUNKS:
                results = [run.execute(cli, workloads.reconfigured(op, threads, chunk)) for op in ops]
                failures += [f"{name} t{threads} c{chunk}: {r.problem}" for r in results if r.problem]
                busy = sum(r.wall for r in results)
                row = {"workload": name, "threads": threads, "chunk": chunk,
                       "nonces_per_s": sum(r.nonces for r in results) / busy,
                       "op_s_p50": statistics.median(r.wall for r in results)}
                rows.append(row)
                print(f"{name:<12} {threads:>7} {chunk:>7} {row['nonces_per_s']:>10.0f} "
                      f"{row['op_s_p50']:>9.4f}")

    count = run.REFERENCE_NONCES
    seconds = [oracle.hashlib_seconds(op.info["header76"], count, op.info["lo"])
               for op in inputs["scan-early"][:2]]
    baselines = {"hashlib_nonces_per_s": 2 * count / sum(seconds), "naive_nonces_per_s": {}}
    print(f"hashlib loop: {baselines['hashlib_nonces_per_s']:.0f} nonces/s")
    for chunk in CHUNKS:
        start = time.perf_counter()
        for op in inputs["scan-early"][:2]:
            i = op.info
            kernel.scan_naive(i["header76"], i["target"], i["lo"], i["lo"] + count - 1, chunk=chunk)
        rate = 2 * count / (time.perf_counter() - start)
        baselines["naive_nonces_per_s"][chunk] = rate
        print(f"naive pipeline, chunk {chunk:>6}: {rate:.0f} nonces/s")

    supply = []
    for height in SUPPLY_HEIGHTS:
        op = workloads.Op("supply-queries", 0,
                          ["supply", "--schedule", "proposed", "--height", str(height),
                           "--format", "kv"], 0, workloads.check_supply,
                          dict(kind="supply", schedule="proposed", height=height,
                               emission=emission))
        result = run.execute(cli, op)
        if result.problem:
            failures.append(f"supply {height}: {result.problem}")
        supply.append({"height": height, "op_s": result.wall})
        print(f"supply --schedule proposed --height {height:>9}: {result.wall:.4f} s")

    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / f"sweep-seed{args.seed}.json"
    path.write_text(json.dumps({"env": run.environment(args.seed, nproc), "rows": rows,
                                "baselines": baselines, "supply": supply,
                                "failed": failures}, indent=1) + "\n")
    print(f"record {path.relative_to(run.ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
