"""Seeded workloads: the argv each op hands to ``minerlab.cli.main`` and
the independent check of what comes back.

An op's stable contract is its argv, its ``--format kv`` output (``csv`` for
``table``, whose kv form is a free-text layout) and the 0/1/2 exit code.
The program only ever sees the generated headers, targets, ranges and
heights; expected answers are computed by :mod:`oracle` without minerlab.

Ops come in passes. A pass covers a workload's input distribution once,
with the parameters that drive cost (window length and offset, query
height, solution depth) stratified, so that each pass costs about the same
whatever the seed and a run of whole passes measures a steady mix.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

import oracle

MASK32 = 0xFFFFFFFF

SCAN_EARLY_RANGE = 1 << 17  # nonces per scan-early op
SCAN_EARLY_PASS = 10
DESK_TARGET = 1 << 240  # the bundled work template's target
DESK_DEPTH_BINS = 10  # equal-probability depth strata, one op each per pass
GENESIS_MIN_WINDOW = 1 << 17
GENESIS_MAX_WINDOW = 1 << 18
GENESIS_PASS = 12
SUPPLY_TOP_HEIGHT = 1 << 25  # see README: queries above cost seconds each
SUPPLY_DECK = 16  # cycles of six ops per pass
SUPPLY_BAND_SPLIT = 10_000_000  # height band split for rewards timings

WORKLOADS = {
    "scan-early": "early-exit scans of an unreachable target: the numpy lane "
                  "pipeline does nearly all the work",
    "find-desk": "generic-mode mining at the desk target 2^240 to the first "
                 "solution: per-op fixed costs and chunk overshoot",
    "genesis-window": "early-exit finds of blocks 0-2 in seeded windows on "
                      "nproc threads: referee, partition, abort and merge",
    "supply-queries": "supply, reward, table and verify ops at log-uniform "
                      "heights: the rewards layer, with no kernel work",
}


@dataclass
class Op:
    workload: str
    index: int
    argv: list[str]
    expect_rc: int
    check: Callable[["Op", str], str | None]  # output -> first problem
    info: dict = field(default_factory=dict)


def parse_kv(text: str) -> dict:
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            pairs[key.strip()] = value.strip()
    return pairs


def log_uniform(u: float, top: int) -> int:
    return max(1, min(top, round(math.exp(u * math.log(top)))))


def partition(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """The CLI's documented split of a range into contiguous near-equal
    subranges, one per thread, the first ones one longer."""
    n = hi - lo + 1
    parts = max(1, min(parts, n))
    base, rem = divmod(n, parts)
    spans, start = [], lo
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        spans.append((start, start + size - 1))
        start += size
    return spans


# ---------------------------------------------------------------------------
# Checks. Each returns None when the output is right, else the first problem.


def _counters(kv: dict, target: int, mode: str) -> str | None:
    """Round accounting under the kernel's documented convention: 61 + 61
    rounds per early-exit nonce, 61 + 64 generic, plus the rounds each
    stage-1 survivor costs to finish."""
    try:
        n = int(kv["nonces_tried"])
        rounds = int(kv["rounds_executed"])
        s1 = int(kv["stage1_survivors"])
        s2 = int(kv["stage2_survivors"])
    except (KeyError, ValueError):
        return "counter fields missing"
    if mode == "generic":
        expected = 125 * n
        if s1 or s2:
            return "survivors reported in generic mode"
    elif target < 1 << 192:
        expected = 122 * n + s1 + 2 * s2
        if s2 > s1:
            return "more stage-2 than stage-1 survivors"
    else:
        expected = 122 * n + 3 * s1
        if s2:
            return "stage-2 survivors with the round-61 filter off"
    if rounds != expected:
        return f"rounds_executed {rounds} != {expected}"
    if n and kv.get("compressions_per_nonce") != f"{rounds / 64 / n:.6f}":
        return "compressions_per_nonce disagrees with rounds"
    return None


def check_exhausted(op: Op, text: str) -> str | None:
    kv = parse_kv(text)
    i = op.info
    if kv.get("result") != "exhausted":
        return f"result {kv.get('result')!r}, expected exhausted"
    if kv.get("mode") != "early-exit" or kv.get("target") != f"{i['target']:064x}":
        return "mode or target echo wrong"
    if kv.get("nonces_tried") != str(i["hi"] - i["lo"] + 1):
        return f"nonces_tried {kv.get('nonces_tried')} != range length"
    return _counters(kv, i["target"], "early-exit")


def check_found(op: Op, text: str) -> str | None:
    """A find: the known first solution, re-hashed with hashlib, and
    counters consistent with the thread partition."""
    kv = parse_kv(text)
    i = op.info
    winner, target = i["winner"], i["target"]
    if kv.get("result") != "found" or kv.get("verified") != "reference-ok":
        return f"result {kv.get('result')!r}, expected a verified find"
    if kv.get("mode") != i["mode"] or kv.get("target") != f"{target:064x}":
        return "mode or target echo wrong"
    if kv.get("nonce") != f"0x{winner:08x}":
        return f"nonce {kv.get('nonce')} != first solution 0x{winner:08x}"
    solved = i["header76"] + winner.to_bytes(4, "big")
    digest = oracle.sha256d(solved)
    if kv.get("header") != solved.hex() or kv.get("digest") != oracle.display_hex(digest):
        return "header or digest differs from hashlib"
    if oracle.hash_int(digest) >= target:
        return "hashlib digest does not meet the target"
    try:
        tried = int(kv["nonces_tried"])
    except (KeyError, ValueError):
        return "nonces_tried missing"
    needed = winner - i["lo"] + 1
    spans = partition(i["lo"], i["hi"], i["threads"])
    above = sum(hi - lo + 1 for lo, hi in spans if lo > winner)
    if not needed <= tried <= needed + above:
        return f"nonces_tried {tried} outside [{needed}, {needed + above}]"
    return _counters(kv, target, i["mode"])


def check_verify(op: Op, text: str) -> str | None:
    kv = parse_kv(text)
    digest = oracle.sha256d(op.info["header"])
    if kv.get("digest") != oracle.display_hex(digest):
        return "verify digest differs from hashlib"
    if kv.get("target") != f"{oracle.DIFF1_TARGET:064x}" or kv.get("meets_target") != "yes":
        return "verify target or verdict wrong"
    return None


def check_supply(op: Op, text: str) -> str | None:
    kv = parse_kv(text)
    em, h, sched = op.info["emission"], op.info["height"], op.info["schedule"]
    sat = em.supply_sat(h, sched)
    if kv.get("schedule") != sched or kv.get("height") != str(h):
        return "supply echo wrong"
    if kv.get("cumulative_satoshis") != str(sat):
        return f"cumulative_satoshis {kv.get('cumulative_satoshis')} != {sat}"
    if kv.get("cap_delta_satoshis") != str(oracle.CAP_SAT - sat):
        return "cap_delta_satoshis wrong"
    if not oracle.btc_close(kv.get("cumulative_btc", ""), sat):
        return "cumulative_btc wrong"
    try:
        exact = float(kv["exact_btc"])
    except (KeyError, ValueError):
        return "exact_btc missing"
    if abs(exact - em.supply_exact_btc(h, sched)) > 1e-6:
        return "exact_btc wrong"
    return None


def check_total(op: Op, text: str) -> str | None:
    kv = parse_kv(text)
    total = op.info["emission"].total_sat(op.info["schedule"])
    if kv.get("closed_form_btc") != "21000000":
        return f"closed_form_btc {kv.get('closed_form_btc')} != 21000000"
    if kv.get("iterated_satoshis") != str(total):
        return "iterated_satoshis wrong"
    if kv.get("iterated_delta_satoshis") != str(total - oracle.CAP_SAT):
        return "iterated_delta_satoshis wrong"
    return None


def check_reward(op: Op, text: str) -> str | None:
    kv = parse_kv(text)
    h, em = op.info["height"], op.info["emission"]
    old, new = oracle.reward_original(h), em.reward_proposed(h)
    if kv.get("original_satoshis") != str(old) or kv.get("proposed_satoshis") != str(new):
        return "reward satoshis wrong"
    if not (oracle.btc_close(kv.get("original_btc", ""), old)
            and oracle.btc_close(kv.get("proposed_btc", ""), new)):
        return "reward btc wrong"
    return None


def check_table(op: Op, text: str) -> str | None:
    em = op.info["emission"]
    lines = text.strip().splitlines()
    want = [f"{h},{oracle.reward_original(h)},{em.reward_proposed(h)}"
            for h in op.info["heights"]]
    got = []
    for line in lines[1:]:
        cells = line.split(",")
        got.append(",".join((cells[0], cells[3], cells[4])) if len(cells) == 5 else line)
    if lines[:1] != ["height,old_btc,new_btc,old_sat,new_sat"] or got != want:
        return "table rows differ from the oracle"
    return None


# ---------------------------------------------------------------------------
# Streams. Each yields passes: lists of ops that together cover the
# workload's input distribution once.


def _mine_argv(header76: bytes, lo: int, hi: int | None, threads: int,
               target: int | None = None, mode: str | None = None) -> list[str]:
    argv = ["mine", "--header", (header76 + bytes(4)).hex()]
    if target is not None:
        argv += ["--target", f"{target:064x}"]
    argv += ["--nonce-start", str(lo)]
    if hi is not None:
        argv += ["--nonce-end", str(hi)]
    argv += ["--threads", str(threads)]
    if mode is not None:
        argv += ["--mode", mode]
    return argv + ["--format", "kv"]


def reconfigured(op: Op, threads: int, chunk: int | None = None) -> Op:
    """The same mine op on another thread count, optionally another chunk."""
    argv = list(op.argv)
    argv[argv.index("--threads") + 1] = str(threads)
    if chunk is not None:
        argv[-2:-2] = ["--chunk", str(chunk)]
    return Op(op.workload, op.index, argv, op.expect_rc, op.check, {**op.info, "threads": threads})


def strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw from each of ``n`` equal slices of [0, 1), shuffled."""
    points = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(points)
    return points


def scan_early(seed: int) -> Iterator[list[Op]]:
    """Fixed-length early-exit scans below 2^192, so both the round-60 and
    the round-61 filters are armed; every op ends exhausted."""
    rng = random.Random(f"scan-early/{seed}")
    counter = itertools.count()
    while True:
        ops = []
        for _ in range(SCAN_EARLY_PASS):
            header76 = rng.randbytes(76)
            target = rng.randrange(1 << 150, 1 << 160)
            lo = rng.randrange(0, MASK32 + 2 - SCAN_EARLY_RANGE)
            hi = lo + SCAN_EARLY_RANGE - 1
            info = dict(header76=header76, target=target, lo=lo, hi=hi, threads=1)
            ops.append(Op("scan-early", next(counter),
                          _mine_argv(header76, lo, hi, 1, target, "early-exit"),
                          1, check_exhausted, info))
        yield ops


def _depth_bin(nonces: int) -> int:
    """Equal-probability stratum of a solution found after ``nonces`` tries."""
    p = DESK_TARGET / (1 << 256)
    q = 1.0 - (1.0 - p) ** nonces
    return min(int(q * DESK_DEPTH_BINS), DESK_DEPTH_BINS - 1)


def find_desk(seed: int) -> Iterator[list[Op]]:
    """Seeded headers mined from nonce 0 to their first solution.

    Solution depth is geometric, so a run's cost would swing with the few
    deep ops it happens to draw.  Candidate headers are solved with hashlib
    first and dealt out so that each pass holds one header from each of
    DESK_DEPTH_BINS equal-probability depth strata: the natural depth
    distribution, without its sampling noise.
    """
    rng = random.Random(f"find-desk/{seed}")
    pools: list[list] = [[] for _ in range(DESK_DEPTH_BINS)]
    counter = itertools.count()
    while True:
        ops = []
        for want in rng.sample(range(DESK_DEPTH_BINS), DESK_DEPTH_BINS):
            while not pools[want]:
                header76 = rng.randbytes(76)
                winner = oracle.first_solution(header76, DESK_TARGET)
                pools[_depth_bin(winner + 1)].append((header76, winner))
            header76, winner = pools[want].pop(0)
            info = dict(header76=header76, target=DESK_TARGET, lo=0, hi=MASK32,
                        winner=winner, mode="generic", threads=1)
            ops.append(Op("find-desk", next(counter),
                          _mine_argv(header76, 0, None, 1, DESK_TARGET), 0, check_found, info))
        yield ops


def genesis_window(seed: int, threads: int) -> Iterator[list[Op]]:
    """Windows of seeded length and offset around the known nonce of
    blocks 0, 1 and 2 at nbits 1d00ffff (only the round-60 filter armed).
    Lengths and offsets are stratified per pass, independently."""
    rng = random.Random(f"genesis-window/{seed}")
    headers = [oracle.historical_header(i) for i in range(len(oracle.HISTORICAL_BLOCKS))]
    counter = itertools.count()
    span = GENESIS_MAX_WINDOW - GENESIS_MIN_WINDOW
    while True:
        ops = []
        for u_len, u_off in zip(strata(rng, GENESIS_PASS), strata(rng, GENESIS_PASS)):
            k = next(counter)
            raw = headers[k % len(headers)]
            winner = oracle.scanner_nonce(raw)
            length = GENESIS_MIN_WINDOW + int(u_len * span)
            lo = winner - int(u_off * length)
            hi = lo + length - 1
            info = dict(header76=raw[:76], target=oracle.DIFF1_TARGET, lo=lo, hi=hi,
                        winner=winner, mode="early-exit", threads=threads)
            ops.append(Op("genesis-window", k,
                          _mine_argv(raw[:76], lo, hi, threads, mode="early-exit"),
                          0, check_found, info))
        yield ops


def supply_queries(seed: int, emission: oracle.Emission) -> Iterator[list[Op]]:
    """Decks of SUPPLY_DECK cycles of six ops: cumulative supply under the
    proposed and the original schedule, a reward query, a table, a
    reference verify of a historical block, and an all-time total.

    A proposed-schedule query costs about height^2 (a few ms at 10^6, a
    second at 2^25), so a deck's time rests on its few highest queries.
    Supply heights are therefore the log-space midpoints of SUPPLY_DECK
    equal strata, a fixed grid the seed only reorders; reward and table
    heights are drawn from the seed.
    """
    rng = random.Random(f"supply-queries/{seed}")
    grid = [log_uniform((j + 0.5) / SUPPLY_DECK, SUPPLY_TOP_HEIGHT) for j in range(SUPPLY_DECK)]
    counter = itertools.count()
    while True:
        proposed = rng.sample(grid, SUPPLY_DECK)
        original = rng.sample(grid, SUPPLY_DECK)
        rewards = [log_uniform(u, SUPPLY_TOP_HEIGHT) for u in strata(rng, SUPPLY_DECK)]
        ops = []
        for cycle in range(SUPPLY_DECK):
            for sched, h in (("proposed", proposed[cycle]), ("original", original[cycle])):
                ops.append(Op("supply-queries", next(counter),
                              ["supply", "--schedule", sched, "--height", str(h), "--format", "kv"],
                              0, check_supply,
                              dict(kind="supply", schedule=sched, height=h, emission=emission)))
            h = rewards[cycle]
            ops.append(Op("supply-queries", next(counter), ["reward", str(h), "--format", "kv"],
                          0, check_reward, dict(kind="reward", height=h, emission=emission)))
            heights = sorted(log_uniform(rng.random(), SUPPLY_TOP_HEIGHT) for _ in range(4))
            ops.append(Op("supply-queries", next(counter),
                          ["table", "--heights", ",".join(map(str, heights)), "--format", "csv"],
                          0, check_table, dict(kind="table", heights=heights, emission=emission)))
            raw = oracle.historical_header(cycle % len(oracle.HISTORICAL_BLOCKS))
            ops.append(Op("supply-queries", next(counter),
                          ["verify", "--header", raw.hex(), "--format", "kv"],
                          0, check_verify, dict(kind="verify", header=raw, nonces=1)))
            sched = ("proposed", "original")[cycle % 2]
            ops.append(Op("supply-queries", next(counter),
                          ["supply", "--schedule", sched, "--format", "kv"],
                          0, check_total, dict(kind="total", schedule=sched, emission=emission)))
        yield ops


def passes(name: str, seed: int, threads: int, emission: oracle.Emission) -> Iterator[list[Op]]:
    """The passes of workload ``name``; ``threads`` is the thread count
    genesis-window uses (nproc in the benchmark)."""
    if name == "scan-early":
        return scan_early(seed)
    if name == "find-desk":
        return find_desk(seed)
    if name == "genesis-window":
        return genesis_window(seed, threads)
    if name == "supply-queries":
        return supply_queries(seed, emission)
    raise ValueError(f"unknown workload {name!r}")


def ops(name: str, seed: int, threads: int, emission: oracle.Emission) -> Iterator[Op]:
    """The ops of workload ``name`` one by one, pass after pass."""
    return itertools.chain.from_iterable(passes(name, seed, threads, emission))
