"""Operator command line: mining runs, verification, benchmarks, reports.

Exit codes are a stable scripting contract: 0 success, 1 domain negative
(nothing found, check failed), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import string
import sys
import time
from fractions import Fraction

from . import costs, header as hdr, kernel as kern, rewards as rw
from . import sha256 as sha

DEFAULT_SEED = 0x6D696E65726C61B5  # fixed 64-bit seed, recorded in reports
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


def _emit(pairs, fmt: str, out=None) -> None:
    """``key: value`` lines for ``kv``; a header row and a value row for ``csv``."""
    out = out or sys.stdout
    if fmt == "csv":
        print(",".join(str(k) for k, _ in pairs), file=out)
        print(",".join(str(v) for _, v in pairs), file=out)
    else:
        for k, v in pairs:
            print(f"{k}: {v}", file=out)


def _btc_str(satoshis: int) -> str:
    return f"{satoshis / 10**8:.8f}"


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer (decimal, or 0x hex), got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _parse_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


class _PickedChunk(int):
    """The ``--chunk`` default: reads as the one-thread chunk, and lets the
    scan pick the chunk from the thread count."""


def _chunk_arg(args) -> int | None:
    return None if isinstance(args.chunk, _PickedChunk) else args.chunk


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
    """A nonzero target of at most 64 hex digits, without prefix or sign."""
    if not _is_hex(text) or len(text) > 64 or int(text, 16) == 0:
        raise argparse.ArgumentTypeError(
            f"target must be a nonzero hex number of at most 64 digits, got {text!r}")
    return int(text, 16)


def _nbits_hex(text: str) -> int:
    if not _is_hex(text) or len(text) != 8:
        raise argparse.ArgumentTypeError(f"nbits must be 8 hex digits, got {text!r}")
    return int(text, 16)


def _resolve_target(args, template_target, nbits) -> int:
    if args.target is not None:
        return args.target
    if args.nbits is not None:
        return hdr.decode_nbits(args.nbits)
    if template_target is not None:
        return template_target
    return hdr.decode_nbits(nbits)


def _load_work(args) -> tuple[bytes, int]:
    """Header bytes (nonce field zeroed) and the effective target."""
    if args.template:
        with open(args.template, "r", encoding="utf-8") as fh:
            block_header, template_target = hdr.parse_work_template(fh.read())
        raw = hdr.serialize_header(block_header)
    elif args.header:
        block_header = hdr.header_from_hex(args.header)
        template_target = None
        raw = hdr.serialize_header(block_header)
    else:
        raise ValueError("either --template or --header is required")
    return raw, _resolve_target(args, template_target, block_header.nbits)


def cmd_mine(args) -> int:
    raw, target = _load_work(args)
    lo, hi = args.nonce_start, args.nonce_end
    if not 0 <= lo <= 0xFFFFFFFF or not 0 <= hi <= 0xFFFFFFFF:
        raise ValueError("nonce bounds out of 32-bit range")
    pairs = [("target", f"{target:064x}"), ("mode", args.mode)]
    if lo > hi:
        _emit(pairs + [("result", "exhausted"), ("nonces_tried", 0)], args.format)
        return EXIT_NEGATIVE

    work = kern.prepare_header_work(raw, target)
    started = time.perf_counter()
    res = kern.scan(work, lo, hi, mode=args.mode, threads=args.threads, chunk=_chunk_arg(args))
    elapsed = time.perf_counter() - started

    pairs = [("target", f"{target:064x}"), ("mode", res.mode)]
    pairs += [
        ("threads", res.threads),
        ("chunk", res.chunk),
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

    solved = raw[:76] + res.found.nonce.to_bytes(4, "big")
    # the reference path is the referee: recompute the digest from scratch
    ref_digest = sha.sha256d(solved)
    if ref_digest != res.found.digest or not hdr.meets_target(ref_digest, target):
        print("error: optimized result failed reference verification", file=sys.stderr)
        return EXIT_NEGATIVE
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
    block_header = hdr.header_from_hex(args.header)
    raw = hdr.serialize_header(block_header)
    if args.target is not None:
        target = args.target
    else:
        target = hdr.decode_nbits(block_header.nbits)
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
    improvements = costs.ImprovementSet.parse(args.set)
    rng = random.Random(args.seed)
    raw = rng.randbytes(76) + b"\x00" * 4
    target = 1  # unreachable: pure throughput measurement

    work = kern.prepare_header_work(raw, target)
    pipelines = (improvements, costs.ImprovementSet.none())
    chunk = kern.effective_chunk(args.threads, _chunk_arg(args))

    def run(s, end):
        t0 = time.perf_counter()
        res = kern.scan(work, 0, end, threads=args.threads, chunk=chunk, improvements=s)
        return res, time.perf_counter() - t0

    # one untimed chunk of each warms the process; then the two alternate
    # and the medians damp speed drift between runs
    for s in pipelines:
        run(s, min(args.count, chunk) - 1)
    timed = [[run(s, args.count - 1) for s in pipelines] for _ in range(BENCH_ROUNDS)]
    fast, slow = timed[0][0][0], timed[0][1][0]
    fast_s, slow_s = (sorted(r[i][1] for r in timed)[BENCH_ROUNDS // 2] for i in (0, 1))

    predicted = costs.compression_equivalents(improvements)
    _emit(
        [
            ("seed", f"0x{args.seed:016x}"),
            ("count", args.count),
            ("threads", fast.threads),
            ("chunk", fast.chunk),
            ("improvements", str(improvements)),
            ("predicted_compressions_per_nonce", f"{predicted} = {float(predicted):.6f}"),
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
    if args.schedule in ("original", "both"):
        sat = rw.reward_original(args.height, args.rounding)
        if isinstance(sat, Fraction):
            pairs += [("original_satoshis", f"{sat.numerator}/{sat.denominator}")]
            pairs += [("original_btc", f"{float(sat) / 10**8:.8f}")]
        else:
            pairs += [("original_satoshis", sat), ("original_btc", _btc_str(sat))]
    if args.schedule in ("proposed", "both"):
        sat = rw.reward_proposed(args.height)
        pairs += [("proposed_satoshis", sat), ("proposed_btc", _btc_str(sat))]
    _emit(pairs, args.format)
    return EXIT_OK


def cmd_supply(args) -> int:
    if args.height is not None:
        rep = rw.cumulative_supply(args.height, args.schedule)
        _emit(
            [
                ("schedule", args.schedule),
                ("height", rep.height),
                ("cumulative_satoshis", rep.cumulative_satoshis),
                ("cumulative_btc", _btc_str(rep.cumulative_satoshis)),
                ("cap_delta_satoshis", rep.cap_delta_satoshis),
                ("exact_btc", f"{float(rep.exact_btc):.8f}"),
            ],
            args.format,
        )
        return EXIT_OK
    total = rw.total_emission(args.schedule)
    closed = total.closed_form_btc
    _emit(
        [
            ("schedule", args.schedule),
            ("closed_form_btc", f"{closed.numerator}/{closed.denominator}"
             if closed.denominator != 1 else str(closed.numerator)),
            ("iterated_satoshis", total.iterated_satoshis),
            ("iterated_btc", _btc_str(total.iterated_satoshis)),
            ("iterated_delta_satoshis", total.iterated_delta_satoshis),
        ],
        args.format,
    )
    return EXIT_OK


def cmd_table(args) -> int:
    heights = None
    if args.heights:
        heights = [_parse_int(h) for h in args.heights.split(",")]
    rows = rw.schedule_table(heights)
    if args.format == "csv":
        print("height,old_btc,new_btc,old_sat,new_sat")
        for r in rows:
            print(
                f"{r.height},{_btc_str(r.old_satoshis)},{_btc_str(r.new_satoshis)},"
                f"{r.old_satoshis},{r.new_satoshis}"
            )
        return EXIT_OK
    print(f"{'height':>9}  {'old BTC':>12}  {'new BTC':>12}  {'published':>9}  {'delta':>9}")
    for r in rows:
        published = rw.PUBLISHED_NEW_BTC.get(r.height)
        if published is None:
            pub_s, delta_s = "-", "-"
        else:
            delta = r.new_btc - published
            pub_s = f"{float(published):.4f}"
            delta_s = f"{float(delta):+.4f}"
        print(
            f"{r.height:>9}  {float(r.old_btc):>12.8f}  {float(r.new_btc):>12.8f}"
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
    fraction = args.fraction
    if fraction is None:
        fraction = float(costs.savings_fraction(costs.ImprovementSet.full()))
    rep = costs.energy_savings(args.power_per_ghs, args.rate_ghs, args.price_per_kwh, fraction)
    _emit(
        [
            ("power_mw", f"{rep.power_mw:.4f}"),
            ("mwh_per_day", f"{rep.mwh_per_day:.4f}"),
            ("cost_per_day", f"{rep.cost_per_day:.2f}"),
            ("savings_fraction", f"{fraction:.6f}"),
            ("savings_per_day", f"{rep.savings_per_day:.2f}"),
        ],
        args.format,
    )
    return EXIT_OK


def cmd_retarget_sim(args) -> int:
    if args.target is not None:
        target = args.target
    elif args.nbits is not None:
        target = hdr.decode_nbits(args.nbits)
    else:
        raise ValueError("retarget-sim needs --nbits or --target")
    clamp = None if args.clamp == 0 else args.clamp
    spans = [_parse_int(s) for s in args.spans.split(",")]
    if args.format == "csv":
        print("step,span_s,target,nbits,difficulty")
    else:
        print(f"{'step':>4}  {'span_s':>9}  {'nbits':>8}  {'difficulty':>14}")
    for i, span in enumerate(spans):
        target = rw.retarget(target, span, args.expected, clamp)
        nbits = hdr.encode_nbits(target)
        difficulty = hdr.difficulty_of(target)
        if args.format == "csv":
            print(f"{i},{span},{target:064x},{nbits:08x},{difficulty:.6f}")
        else:
            print(f"{i:>4}  {span:>9}  {nbits:08x}  {difficulty:>14.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minerlab",
        description="double-SHA-256 mining lab: scan, verify, benchmark, report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("kv", "csv")):
        p.add_argument("--format", choices=choices, default=choices[0])

    def add_chunk(p):
        p.add_argument("--chunk", type=_positive_int, default=_PickedChunk(kern.DEFAULT_CHUNK),
                       help=f"lanes per numpy call (default: {kern.DEFAULT_CHUNK} on one thread, "
                            f"{kern.THREADED_CHUNK} on more)")

    p = sub.add_parser("mine", help="scan a nonce range for a qualifying header")
    p.add_argument("--template", help="work template file (key: value document)")
    p.add_argument("--header", help="160-char header hex (nonce field ignored)")
    p.add_argument("--target", type=_target_hex, help="target hex override")
    p.add_argument("--nbits", type=_nbits_hex, help="8-char compact target hex override")
    p.add_argument("--nonce-start", type=_parse_int, default=0)
    p.add_argument("--nonce-end", type=_parse_int, default=0xFFFFFFFF)
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1)
    p.add_argument("--mode", choices=("auto", "early-exit", "generic"), default="auto")
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
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1)
    p.add_argument("--set", default="full", help="improvement flags to measure, e.g. 1,2,3 or full")
    p.add_argument("--seed", type=_parse_int, default=DEFAULT_SEED)
    add_chunk(p)
    add_format(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("reward", help="block subsidy at a height")
    p.add_argument("height", type=_parse_int)
    p.add_argument("--schedule", choices=("original", "proposed", "both"), default="both")
    p.add_argument("--rounding", choices=("floor", "exact"), default="floor")
    add_format(p)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("supply", help="cumulative or total issuance")
    p.add_argument("--schedule", choices=("original", "proposed"), default="proposed")
    p.add_argument("--height", type=_parse_int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_supply)

    p = sub.add_parser("table", help="old versus proposed subsidy table")
    p.add_argument("--heights", help="comma-separated heights (default: standard grid)")
    add_format(p, ("text", "csv"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("adders", help="gate-model cost report for an improvement set")
    p.add_argument("--set", default="full")
    add_format(p)
    p.set_defaults(func=cmd_adders)

    p = sub.add_parser("energy", help="fleet electricity cost and savings")
    p.add_argument("--power-per-ghs", type=_finite_float, required=True, help="watts per GH/s")
    p.add_argument("--rate-ghs", type=_finite_float, required=True, help="fleet rate in GH/s")
    p.add_argument("--price-per-kwh", type=_finite_float, required=True)
    p.add_argument("--fraction", type=_finite_float, default=None,
                   help="cost fraction saved (default: full improvement set)")
    add_format(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("retarget-sim", help="difficulty retarget walk-through")
    p.add_argument("--nbits", type=_nbits_hex, help="8-char compact target hex start")
    p.add_argument("--target", type=_target_hex, help="target hex start")
    p.add_argument("--spans", required=True, help="comma-separated window spans in seconds")
    p.add_argument("--expected", type=_parse_int, default=2016 * 600)
    p.add_argument("--clamp", type=int, default=4, help="0 disables clamping")
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
        return args.func(args)
    except (ValueError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
