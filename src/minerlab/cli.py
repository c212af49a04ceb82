"""Operator command line: mining runs, verification, benchmarks, reports.

Exit codes are a stable scripting contract: 0 success, 1 domain negative
(nothing found, check failed), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import string
import sys
import time

from . import costs, header as hdr, rewards as rw
from . import sha256 as sha

# ``mine --mode auto`` runs early exit only below this target.  Early exit is
# sound at any target, but the benchmark's find-desk check
# (perfbench/workloads.py) expects desk targets to report ``mode: generic``
# and 125 rounds per nonce.
WORD7_TARGET_BOUND = 1 << 224
BENCH_ROUNDS = 5  # timed runs of each pipeline in ``bench``; odd, so one is the median

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error:`` line to stderr, without the usage
    text; subcommand parsers inherit this."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _csv_rows(rows) -> None:
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _emit(pairs, fmt: str) -> None:
    """``key: value`` lines for ``kv``; a header row and a value row for ``csv``."""
    if fmt == "csv":
        _csv_rows(zip(*pairs))
    else:
        for k, v in pairs:
            print(f"{k}: {v}")


def _btc_str(satoshis: int) -> str:
    return f"{satoshis / rw.SATOSHI_PER_BTC:.8f}"


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer (decimal, or 0x hex), got {text!r}") from None


def _int_list(text: str) -> list[int]:
    return [_parse_int(item) for item in text.split(",")]


def _positive_int(text: str) -> int:
    value = _parse_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _is_hex(text: str) -> bool:
    return bool(text) and set(text) <= set(string.hexdigits)


def _target_hex(text: str) -> int:
    """A nonzero target of at most 64 hex digits, without prefix or sign;
    all 64 if it starts with 0, since ``00ff`` could be 0xff or 0x00ff00..00."""
    if not _is_hex(text) or len(text) > 64 or int(text, 16) == 0:
        raise argparse.ArgumentTypeError(
            f"target must be a nonzero hex number of at most 64 digits, got {text!r}")
    if text[0] == "0" and len(text) < 64:
        raise argparse.ArgumentTypeError(
            f"a target with a leading zero needs all 64 digits, got {len(text)}: {text!r}")
    return int(text, 16)


def _nbits_hex(text: str) -> int:
    if not _is_hex(text) or len(text) != 8:
        raise argparse.ArgumentTypeError(f"nbits must be 8 hex digits, got {text!r}")
    return int(text, 16)


def _load_work(args) -> tuple[bytes, int]:
    """``--header`` as bytes and the target: ``--target`` if given, else the
    header's nbits decoded."""
    block_header = hdr.header_from_hex(args.header)
    target = args.target if args.target is not None else hdr.decode_nbits(block_header.nbits)
    return hdr.serialize_header(block_header), target


def cmd_mine(args) -> int:
    from . import kernel as kern
    raw, target = _load_work(args)
    threads = args.threads or kern.CPUS  # by default every CPU the scan may use
    full = costs.ImprovementSet.full()
    early = args.mode == "early-exit" or (args.mode == "auto" and target < WORD7_TARGET_BOUND)
    improvements = full if early else costs.ImprovementSet(full.flags - {"2"})
    work = kern.prepare_header_work(raw, target)
    started = time.perf_counter()
    res = kern.scan(work, args.nonce_start, args.nonce_end, improvements=improvements,
                    threads=threads, chunk=args.chunk)
    elapsed = time.perf_counter() - started

    pairs = [
        ("target", f"{target:064x}"),
        ("mode", "early-exit" if early else "generic"),
        ("threads", threads),
        ("chunk", args.chunk),
        ("nonces_tried", res.nonces_tried),
        ("rounds_executed", res.rounds_executed),
        ("compressions_per_nonce", f"{res.compressions_equivalent:.6f}"),
        ("stage1_survivors", res.stage1_survivors),
        ("stage2_survivors", res.stage2_survivors),
        ("elapsed_s", f"{elapsed:.3f}"),
        ("nonces_per_s", f"{res.nonces_tried / elapsed:.0f}" if elapsed else "inf"),
    ]
    if res.found is None:
        _emit([("result", "exhausted")] + pairs, args.format)
        return EXIT_NEGATIVE

    # the digest is complete_nonce's reference hash of exactly these bytes
    solved = work.header + res.found.nonce.to_bytes(4, "big")
    _emit(
        [("result", "found")]
        + pairs
        + [
            ("nonce", f"0x{res.found.nonce:08x}"),
            ("digest", hdr.digest_hex(res.found.digest)),
            ("header", solved.hex()),
            ("verified", "reference-ok"),
        ],
        args.format,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    raw, target = _load_work(args)
    digest = sha.sha256d(raw)  # reference path only
    ok = hdr.meets_target(digest, target)
    _emit(
        [
            ("digest", hdr.digest_hex(digest)),
            ("target", f"{target:064x}"),
            ("meets_target", "yes" if ok else "no"),
        ],
        args.format,
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_bench(args) -> int:
    from . import kernel as kern
    threads = args.threads or kern.CPUS
    if args.count > 1 << 32:  # before the warm-up scans, which stop short of it
        raise ValueError(f"--count {args.count} scans nonces 0..{args.count - 1}, "
                         f"past the 32-bit range [0, {sha.MASK32}]")
    improvements = costs.ImprovementSet.parse(args.set)
    # 76 zero bytes at the unreachable target 1: a pure throughput measurement
    work = kern.prepare_header_work(bytes(76), 1)
    pipelines = (improvements, costs.ImprovementSet.none())

    def run(s, end):
        t0 = time.perf_counter()
        res = kern.scan(work, 0, end, threads=threads, chunk=args.chunk, improvements=s)
        return res, time.perf_counter() - t0

    # one untimed chunk of each warms the process; then the two alternate
    # and the medians damp speed drift between runs
    for s in pipelines:
        run(s, min(args.count, args.chunk) - 1)
    timed = [[run(s, args.count - 1) for s in pipelines] for _ in range(BENCH_ROUNDS)]
    fast, slow = timed[0][0][0], timed[0][1][0]
    fast_s, slow_s = (sorted(r[i][1] for r in timed)[BENCH_ROUNDS // 2] for i in (0, 1))

    _emit(
        [
            ("count", args.count),
            ("threads", threads),
            ("chunk", args.chunk),
            ("improvements", str(improvements)),
            ("optimized_compressions_per_nonce", f"{fast.compressions_equivalent:.6f}"),
            ("optimized_nonces_per_s", f"{args.count / fast_s:.0f}"),
            ("optimized_stage1_survivors", fast.stage1_survivors),
            ("naive_compressions_per_nonce", f"{slow.compressions_equivalent:.6f}"),
            ("naive_nonces_per_s", f"{args.count / slow_s:.0f}"),
            ("wallclock_speedup", f"{slow_s / fast_s:.3f}"),
        ],
        args.format,
    )
    return EXIT_OK


def cmd_reward(args) -> int:
    pairs = [("height", args.height)]
    for name, reward in (("original", rw.reward_original), ("proposed", rw.reward_proposed)):
        sat = reward(args.height)
        pairs += [(f"{name}_satoshis", sat), (f"{name}_btc", _btc_str(sat))]
    _emit(pairs, args.format)
    return EXIT_OK


def cmd_supply(args) -> int:
    if args.height is not None:
        rep = rw.cumulative_supply(args.height, args.schedule)
        _emit(
            [
                ("schedule", args.schedule),
                ("height", args.height),
                ("cumulative_satoshis", rep.cumulative_satoshis),
                ("cumulative_btc", _btc_str(rep.cumulative_satoshis)),
                ("cap_delta_satoshis", rw.CAP_SATOSHIS - rep.cumulative_satoshis),
                ("exact_btc", f"{rep.exact_btc:.8f}"),  # half-even under the default context
            ],
            args.format,
        )
        return EXIT_OK
    total = rw.total_emission(args.schedule)
    _emit(
        [
            ("schedule", args.schedule),
            ("closed_form_btc", str(total.closed_form_btc)),
            ("iterated_satoshis", total.iterated_satoshis),
            ("iterated_btc", _btc_str(total.iterated_satoshis)),
            ("iterated_delta_satoshis", total.iterated_satoshis - rw.CAP_SATOSHIS),
        ],
        args.format,
    )
    return EXIT_OK


def cmd_table(args) -> int:
    rows = rw.schedule_table(args.heights)
    if args.format == "csv":
        _csv_rows([("height", "old_btc", "new_btc", "old_sat", "new_sat")]
                  + [(r.height, _btc_str(r.old_satoshis), _btc_str(r.new_satoshis),
                      r.old_satoshis, r.new_satoshis) for r in rows])
        return EXIT_OK
    print(f"{'height':>9}  {'old BTC':>12}  {'new BTC':>12}  {'published':>9}  {'delta':>9}")
    for r in rows:
        published = rw.PUBLISHED_NEW_SATOSHIS.get(r.height)
        if published is None:
            pub_s, delta_s = "-", "-"
        else:
            pub_s = f"{published / rw.SATOSHI_PER_BTC:.4f}"
            delta_s = f"{(r.new_satoshis - published) / rw.SATOSHI_PER_BTC:+.4f}"
        print(
            f"{r.height:>9}  {_btc_str(r.old_satoshis):>12}  {_btc_str(r.new_satoshis):>12}"
            f"  {pub_s:>9}  {delta_s:>9}"
        )
    print(f"first height where the new subsidy is lower: {rw.first_lower_height()}")
    return EXIT_OK


def cmd_adders(args) -> int:
    improvements = costs.ImprovementSet.parse(args.set)
    comp = costs.compression_equivalents(improvements)
    _emit(
        [
            ("improvements", str(improvements)),
            ("compressions_per_nonce", f"{comp.numerator}/{comp.denominator}"),
            ("compressions_decimal", f"{float(comp):.6f}"),
            ("amortized_per_nonce", f"{float(costs.amortized_overhead(improvements)):.3e}"),
            ("adders_per_nonce", costs.adder_count(improvements)),
            ("savings_fraction", f"{float(costs.savings_fraction(improvements)):.6f}"),
        ],
        args.format,
    )
    return EXIT_OK


def cmd_energy(args) -> int:
    rep = costs.energy_savings(args.power_per_ghs, args.rate_ghs, args.price_per_kwh)
    _emit(
        [
            ("power_mw", f"{rep.power_mw:.4f}"),
            ("mwh_per_day", f"{rep.mwh_per_day:.4f}"),
            ("cost_per_day", f"{rep.cost_per_day:.2f}"),
            ("savings_fraction", f"{rep.savings_fraction:.6f}"),
            ("savings_per_day", f"{rep.savings_per_day:.2f}"),
        ],
        args.format,
    )
    return EXIT_OK


def cmd_retarget_sim(args) -> int:
    target = hdr.decode_nbits(args.nbits)
    steps = []  # the whole walk first, so a bad step fails before anything prints
    for span in args.spans:
        # each step starts from the compact target the network stored
        nbits = hdr.encode_nbits(rw.retarget(target, span))
        target = hdr.decode_nbits(nbits)
        steps.append((span, target, nbits, hdr.difficulty_of(target)))
    if args.format == "csv":
        _csv_rows([("step", "span_s", "target", "nbits", "difficulty")]
                  + [(i, span, f"{target:064x}", f"{nbits:08x}", f"{difficulty:.6f}")
                     for i, (span, target, nbits, difficulty) in enumerate(steps)])
        return EXIT_OK
    print(f"{'step':>4}  {'span_s':>9}  {'nbits':>8}  {'difficulty':>14}")
    for i, (span, target, nbits, difficulty) in enumerate(steps):
        print(f"{i:>4}  {span:>9}  {nbits:08x}  {difficulty:>14.6f}")
    return EXIT_OK


# one parser per process, shared by every caller, which must not change it:
# building it took about 2 ms, a few percent of a short `mine`
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minerlab",
        description="double-SHA-256 mining lab: scan, verify, benchmark, report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("kv", "csv")):
        p.add_argument("--format", choices=choices, default=choices[0])

    def add_set(p):
        p.add_argument("--set", default="full",
                       help="improvement flags to measure: none, full or a list such as 1,2,3")

    def add_chunk(p):
        p.add_argument("--chunk", type=_positive_int, default=costs.DEFAULT_CHUNK,
                       help=f"lanes per numpy call in each span, at most {costs.MAX_CHUNK} "
                            f"(default: {costs.DEFAULT_CHUNK})")

    p = sub.add_parser("mine", help="scan a nonce range for a qualifying header")
    p.add_argument("--header", required=True, help="160-char header hex (nonce field ignored)")
    p.add_argument("--target", type=_target_hex, help="target hex override")
    p.add_argument("--nonce-start", type=_parse_int, default=0)
    p.add_argument("--nonce-end", type=_parse_int, default=0xFFFFFFFF)
    p.add_argument("--threads", type=_positive_int)
    p.add_argument("--mode", choices=("auto", "early-exit", "generic"), default="auto",
                   help="early-exit keeps improvement 2, generic drops it, auto keeps it "
                        "below 2^224")
    add_chunk(p)
    add_format(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("verify", help="recheck a solved header via the reference path")
    p.add_argument("--header", required=True)
    p.add_argument("--target", type=_target_hex, help="target hex override")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="an improvement set's throughput versus the naive pipeline")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--threads", type=_positive_int)
    add_set(p)
    add_chunk(p)
    add_format(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("reward", help="block subsidy at a height")
    p.add_argument("height", type=_parse_int)
    add_format(p)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("supply", help="cumulative or total issuance")
    p.add_argument("--schedule", choices=("original", "proposed"), default="proposed")
    p.add_argument("--height", type=_parse_int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_supply)

    p = sub.add_parser("table", help="old versus proposed subsidy table")
    p.add_argument("--heights", type=_int_list,
                   help="comma-separated heights (default: standard grid)")
    add_format(p, ("text", "csv"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("adders", help="gate-model cost report for an improvement set")
    add_set(p)
    add_format(p)
    p.set_defaults(func=cmd_adders)

    p = sub.add_parser("energy", help="fleet electricity cost and savings")
    p.add_argument("--power-per-ghs", type=_finite_float, required=True, help="watts per GH/s")
    p.add_argument("--rate-ghs", type=_finite_float, required=True, help="fleet rate in GH/s")
    p.add_argument("--price-per-kwh", type=_finite_float, required=True)
    add_format(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("retarget-sim", help="difficulty retarget walk-through")
    p.add_argument("--nbits", type=_nbits_hex, required=True,
                   help="8-char compact target hex start")
    p.add_argument("--spans", type=_int_list, required=True,
                   help="comma-separated window spans in seconds")
    add_format(p, ("text", "csv"))
    p.set_defaults(func=cmd_retarget_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader is gone: exit 1 quietly; the shutdown flush goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_NEGATIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # Ctrl-C: one line, no traceback
        print("error: interrupted", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
