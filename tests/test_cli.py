
import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minerlab.cli as cli
import minerlab.costs as costs
import minerlab.header as hdr
import minerlab.kernel as kern
import minerlab.rewards as rw
import minerlab.sha256 as sha

# A desk-scale work fixture: a version-2 header at nbits 1d00ffff, mined at
# target 2^240.
FIXTURE_HEADER = (
    "02000000d41df5331a07eed39340854a033a02592345070111b028ccdd6584b6c54c5d1b"
    "a364ed49cfa1f29657a2d051c3405cc9b0465a96230b3648a30666de3f7f93a700c06552"
    "ffff001d00000000"
)
FIXTURE_TARGET = 1 << 240
FIXTURE = ("--header", FIXTURE_HEADER, "--target", f"{FIXTURE_TARGET:064x}")
# The genesis block's header, nonce field zeroed; nbits 1d00ffff.
GENESIS_HEADER = (
    "010000000000000000000000000000000000000000000000000000000000000000000000"
    "3ba3edfd7a7b12b27ac72c3e67768f617fc81bc3888a51323a9fb8aa4b1e5e4a29ab5f49"
    "ffff001d00000000"
)
SEED = 0xC11_0001

def run_cli(*argv) -> int:
    return cli.main(list(argv))

def kv(capsys) -> dict:
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        if ": " in line:
            k, v = line.split(": ", 1)
            pairs[k.strip()] = v.strip()
    return pairs

@pytest.fixture(scope="module")
def solved():
    """Mine the bundled fixture once; reuse the solved header everywhere."""
    raw, target = bytes.fromhex(FIXTURE_HEADER), FIXTURE_TARGET
    res = kern.scan(kern.prepare_header_work(raw, target), 0, 0x1FFFF)
    assert res.found is not None
    return raw[:76] + res.found.nonce.to_bytes(4, "big"), target, res.found

# The fixture's find is nonce 0x11883: a bound past it makes a broken
# referee fail fast instead of scanning toward 2^32.
FIXTURE_END = ("--nonce-end", "0x20000")

class TestMine:
    def test_fixture_found_and_verified(self, capsys):
        assert run_cli("mine", *FIXTURE, "--threads", "1", *FIXTURE_END) == 0
        report = kv(capsys)
        assert report["result"] == "found"
        assert report["verified"] == "reference-ok"
        assert run_cli("verify", "--header", report["header"],
                       "--target", report["target"]) == 0

    def test_digest_is_hash_of_printed_header(self, monkeypatch, capsys):
        # a corrupted midstate misleads only the lanes: the reported digest
        # is still the double hash of the reported header bytes
        prepare = kern.prepare_header_work
        monkeypatch.setattr(kern, "prepare_header_work", lambda raw, target:
                            dataclasses.replace(prepare(raw, target), midstate=sha.IV))
        assert run_cli("mine", "--header", FIXTURE_HEADER, "--threads", "1",
                       "--target", "8" + "0" * 63) == 0
        report = kv(capsys)
        header = bytes.fromhex(report["header"])
        dsha = hashlib.sha256(hashlib.sha256(header).digest()).digest()
        assert report["digest"] == dsha[::-1].hex()
        assert report["verified"] == "reference-ok"

    def test_one_referee_pass_per_find(self, monkeypatch, capsys):
        # one compression prepares the work; the referee's double hash of
        # the 80 header bytes takes three, and nothing hashes the find again
        calls = {"compress": 0, "sha256d": 0}
        for name in calls:
            real = getattr(sha, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(sha, name, counted)
        assert run_cli("mine", *FIXTURE, "--threads", "1", *FIXTURE_END) == 0
        assert kv(capsys)["result"] == "found"
        assert calls == {"compress": 4, "sha256d": 1}

    def test_empty_range_exits_1(self, capsys):
        code = run_cli(
            "mine", *FIXTURE,
            "--nonce-start", "10", "--nonce-end", "9",
        )
        assert code == 1
        report = kv(capsys)
        # the report of any exhausted scan, with zero counters
        assert run_cli("mine", "--header", FIXTURE_HEADER, "--target", "1",
                       "--nonce-end", "15") == 1
        assert list(report) == list(kv(capsys))
        assert report["result"] == "exhausted"
        for key in ("nonces_tried", "rounds_executed", "stage1_survivors",
                    "stage2_survivors", "nonces_per_s"):
            assert report[key] == "0"
        # the mode a scan of that target would run, as in every other report
        assert report["mode"] == "generic"  # the fixture's target is 2^240
        assert run_cli("mine", "--header", FIXTURE_HEADER, "--target", "1",
                       "--nonce-start", "10", "--nonce-end", "9") == 1
        assert kv(capsys)["mode"] == "early-exit"

    def test_not_found_range_exits_1(self, capsys):
        code = run_cli(
            "mine", "--header", FIXTURE_HEADER,
            "--nonce-start", "0", "--nonce-end", "255",
            "--target", "0" * 63 + "1", "--threads", "1",
        )
        assert code == 1
        report = kv(capsys)
        assert report["result"] == "exhausted"
        assert report["nonces_tried"] == "256"

    def test_header_and_nbits_flags(self, solved, capsys):
        raw, target, _found = solved
        zeroed = raw[:76] + b"\x00\x00\x00\x00"
        code = run_cli(
            "mine", "--header", zeroed.hex(), "--target", f"{target:064x}",
            "--threads", "1", *FIXTURE_END,
        )
        assert code == 0
        assert kv(capsys)["header"] == raw.hex()

    # Genesis-header windows of several 16384-nonce chunks, chunk k dealt to
    # span k mod spans: the window, --target (None: the header's nbits), the
    # find's nonce and digest prefix or None, and the five counters, which
    # end at the winner and so are the same on one span and on two
    COUNTERS = ("nonces_tried", "rounds_executed", "compressions_per_nonce",
                "stage1_survivors", "stage2_survivors")
    WINDOWS = [
        # the find in chunk 3 is dealt to the child, and the parent merges
        # the child's report
        ("0x1dab4000", "0x1dacffff", None, ("0x1dac2b7c", "000000000019d668"),
         (60285, 7354773, "1.906251", 1, 0)),
        # the find in chunk 2 is span 0's; the child abandons chunk 3 above
        # span 0's winner once the find is published, uncounted either way
        ("0x1dab8000", "0x1dacffff", None, ("0x1dac2b7c", "000000000019d668"),
         (43901, 5355925, "1.906251", 1, 0)),
        # exhausted: 7 full chunks and a 4,660-nonce chunk 7, which the child
        # runs at full width; the lanes past the window's end reach neither
        # the referee nor the counters
        ("0x1dab4000", "0x1dad1233", "1", None, (119348, 14560457, "1.906250", 1, 0)),
        # 7.5 chunks up to 0xFFFFFFFF: the last chunk's upper 8,192 lanes
        # wrap to nonces 0..8191, and neither span referees or counts them
        ("0xfffe2000", "0xffffffff", "1", None, (122880, 14991360, "1.906250", 0, 0)),
        # of all 2^32 nonces, only 0x1dac2b7c (the genesis block) and
        # 0xebac96be give the genesis header a hash with 32 leading zero bits
        ("0xebac0000", "0xebacffff", None, ("0xebac96be", "00000000ea532922"),
         (38591, 4708105, "1.906251", 1, 0)),
    ]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_window_known_answers(self, threads, monkeypatch, capsys):
        monkeypatch.setattr(kern, "CPUS", 2)
        for start, end, target, find, counters in self.WINDOWS:
            code = run_cli("mine", "--header", GENESIS_HEADER, "--threads", threads,
                           "--nonce-start", start, "--nonce-end", end,
                           *(("--target", target) if target else ()))
            report = kv(capsys)
            assert report["target"] == (f"{int(target, 16):064x}" if target
                                        else f"{hdr.decode_nbits(0x1D00FFFF):064x}")
            assert (report["threads"], report["chunk"]) == (threads, "16384")
            assert [report[k] for k in self.COUNTERS] == list(map(str, counters)), start
            if find is None:
                assert (code, report["result"]) == (1, "exhausted"), start
            else:
                assert (code, report["result"], report["nonce"]) == (0, "found", find[0])
                assert report["digest"].startswith(find[1])

class TestModeMapping:
    """``mine --mode`` picks the improvement set: early-exit keeps flag 2,
    generic drops it, auto keeps it only below 2^224."""

    def test_desk_target(self, solved, capsys):
        # the fixture's target is 2^240
        _raw, _target, found = solved
        assert run_cli("mine", *FIXTURE, "--threads", "1", *FIXTURE_END) == 0
        auto = kv(capsys)
        assert auto["mode"] == "generic" and auto["nonce"] == f"0x{found.nonce:08x}"
        assert int(auto["rounds_executed"]) == 125 * int(auto["nonces_tried"])
        assert run_cli("mine", *FIXTURE, "--threads", "1",
                       "--mode", "early-exit", *FIXTURE_END) == 0
        early = kv(capsys)
        assert early["mode"] == "early-exit" and early["nonce"] == auto["nonce"]
        assert early["nonces_tried"] == auto["nonces_tried"]
        # above 2^192 each filter survivor also runs rounds 61..63
        n, survivors = int(early["nonces_tried"]), int(early["stage1_survivors"])
        assert int(early["rounds_executed"]) == 122 * n + 3 * survivors

    @pytest.mark.parametrize("extra, mode", [((), "early-exit"),
                                             (("--mode", "generic"), "generic")])
    def test_below_word7_bound(self, extra, mode, capsys):
        assert run_cli("mine", "--header", FIXTURE_HEADER, "--target", "1", "--threads", "1",
                       "--nonce-end", "4095", *extra) == 1
        assert kv(capsys)["mode"] == mode

    @pytest.mark.parametrize("target, auto", [(1 << 224, "generic"),
                                              ((1 << 224) - 1, "early-exit")])
    @pytest.mark.parametrize("mode", ["auto", "early-exit", "generic"])
    def test_word7_bound_same_for_any_range(self, mode, target, auto, capsys):
        # an empty range prints the mode a 256-nonce scan runs
        want = auto if mode == "auto" else mode
        for end in ("9", "265"):
            assert run_cli("mine", "--header", FIXTURE_HEADER, "--target", f"{target:x}",
                           "--mode", mode, "--threads", "1",
                           "--nonce-start", "10", "--nonce-end", end) in (0, 1)
            assert kv(capsys)["mode"] == want


class TestScanShape:
    """mine and bench report the chunk and thread count the scan ran with."""

    @pytest.mark.parametrize("extra, chunk", [
        (("--threads", "1"), "16384"),
        (("--threads", "2", "--chunk", "65536"), "65536"),
        (("--threads", "2", "--chunk", "4096"), "4096"),
        (("--threads", "1", "--chunk", "65536"), "65536"),
    ])
    def test_mine_reports_chunk(self, extra, chunk, capsys, monkeypatch):
        monkeypatch.setattr(kern, "CPUS", 2)
        assert run_cli("mine", "--header", FIXTURE_HEADER, "--target", "1",
                       "--nonce-end", "255", *extra) == 1
        report = kv(capsys)
        assert report["chunk"] == chunk
        assert report["threads"] == extra[1]

    def test_mine_csv_has_chunk_and_threads(self, capsys, monkeypatch):
        monkeypatch.setattr(kern, "CPUS", 2)
        assert run_cli("mine", "--header", FIXTURE_HEADER, "--target", "1", "--nonce-end", "255",
                       "--threads", "2", "--format", "csv") == 1
        keys, values = capsys.readouterr().out.splitlines()
        row = dict(zip(keys.split(","), values.split(",")))
        assert row["chunk"] == "16384" and row["threads"] == "2"

    @pytest.mark.parametrize("cpus, threads, chunk", [(1, "1", "16384"), (2, "2", "16384")])
    @pytest.mark.parametrize("argv", [
        ("mine", "--header", FIXTURE_HEADER, "--target", "1", "--nonce-end", "255"),
        ("bench", "--count", "4096"),
    ])
    def test_threads_default_to_cpus(self, argv, cpus, threads, chunk, capsys, monkeypatch):
        monkeypatch.setattr(kern, "CPUS", cpus)
        assert run_cli(*argv) in (0, 1)
        report = kv(capsys)
        assert (report["threads"], report["chunk"]) == (threads, chunk)

    @pytest.mark.parametrize("fmt", ["kv", "csv"])
    def test_bench_reports_chunk(self, fmt, capsys):
        assert run_cli("bench", "--count", "4096", "--threads", "1", "--format", fmt) == 0
        out = capsys.readouterr().out
        if fmt == "kv":
            assert "chunk: 16384" in out.splitlines() and "threads: 1" in out.splitlines()
        else:
            assert out.splitlines()[0].startswith("count,threads,chunk,")
            assert out.splitlines()[1].split(",")[1:3] == ["1", "16384"]

    @pytest.mark.parametrize("argv", [
        ("bench", "--count", "4096", "--threads", "1"),
        ("adders", "--set", "1,2"),
    ])
    def test_csv_quotes_improvement_sets(self, argv, capsys):
        # the comma-separated improvement set is one quoted field
        assert run_cli(*argv, "--format", "csv") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2 and len(rows[0]) == len(rows[1])
        assert dict(zip(*rows))["improvements"] in ("1,2", "1,2,3,4,5,6,7,8,X,X2")

    def test_parser_default_reads_as_one_thread_chunk(self):
        chunk = cli.build_parser().parse_args(["mine", "--header", "00"]).chunk
        assert isinstance(chunk, int) and chunk == 16384


class TestVerify:
    def test_solved_header_passes(self, solved, capsys):
        raw, target, _ = solved
        assert run_cli("verify", "--header", raw.hex(), "--target", f"{target:064x}") == 0
        assert kv(capsys)["meets_target"] == "yes"

    def test_nonce_plus_one_fails(self, solved):
        raw, target, found = solved
        bumped = raw[:76] + ((found.nonce + 1) & 0xFFFFFFFF).to_bytes(4, "big")
        assert run_cli("verify", "--header", bumped.hex(),
                       "--target", f"{target:064x}") == 1

    def test_bad_hex_exits_2(self):
        assert run_cli("verify", "--header", "ab" * 79) == 2
        assert run_cli("verify", "--header", "zz" * 80) == 2

    def test_digest_is_reference_path(self, solved, capsys):
        raw, target, _ = solved
        run_cli("verify", "--header", raw.hex(), "--target", f"{target:064x}")
        assert kv(capsys)["digest"] == hdr.digest_hex(sha.sha256d(raw))

class TestBench:
    def test_reports_ratio_and_costs(self, capsys):
        assert run_cli("bench", "--count", "20000", "--threads", "1") == 0
        report = kv(capsys)
        assert report["naive_compressions_per_nonce"] == "3.000000"
        assert float(report["optimized_compressions_per_nonce"]) == pytest.approx(
            1.90625, abs=1e-4
        )
        assert float(report["wallclock_speedup"]) > 0

    def test_zero_count_rejected(self):
        assert run_cli("bench", "--count", "0") == 2

    def test_count_past_32_bits_scans_nothing(self, monkeypatch, capsys):
        # the range check comes before the untimed warm-up scans
        calls = []
        monkeypatch.setattr(kern, "scan", lambda *args, **kwargs: calls.append(args))
        assert run_cli("bench", "--count", str((1 << 32) + 1), "--threads", "1") == 2
        assert calls == []
        assert capsys.readouterr().err == ("error: --count 4294967297 scans nonces "
                                           "0..4294967296, past the 32-bit range [0, 4294967295]\n")

    def test_set_none_measures_naive_pipeline(self, capsys):
        assert run_cli("bench", "--count", "4096", "--threads", "1",
                       "--set", "none", "--format", "kv") == 0
        assert kv(capsys)["optimized_compressions_per_nonce"] == "3.000000"

    def test_set_full_measures_full_pipeline(self, capsys):
        assert run_cli("bench", "--count", "4096", "--threads", "1",
                       "--set", "full", "--format", "kv") == 0
        assert kv(capsys)["optimized_compressions_per_nonce"] == "1.906250"

    @pytest.mark.parametrize("improvements", ["none", "1", "1,2,3", "1,2,3,4", "full"])
    def test_lanes_add_only_round_3_to_model(self, capsys, improvements):
        # bench reports the rounds its lanes ran; adders the paper's model,
        # which leaves flag 4's incremental round 3 out
        assert run_cli("adders", "--set", improvements) == 0
        model = Fraction(kv(capsys)["compressions_per_nonce"])
        assert run_cli("bench", "--count", "4096", "--threads", "1",
                       "--set", improvements) == 0
        report = kv(capsys)
        assert "predicted_compressions_per_nonce" not in report
        round3 = Fraction(1, 64) if "4" in costs.ImprovementSet.parse(improvements) else 0
        assert report["optimized_compressions_per_nonce"] == f"{float(model + round3):.6f}"

class TestReports:
    def test_reward_defaults(self, capsys):
        assert run_cli("reward", "630000") == 0
        report = kv(capsys)
        assert report["original_btc"] == "6.25000000"
        assert report["proposed_btc"] == "9.18962353"

    def test_reward_genesis(self, capsys):
        assert run_cli("reward", "0") == 0
        assert kv(capsys)["original_btc"] == "50.00000000"

    def test_supply_closed_form(self, capsys):
        assert run_cli("supply", "--schedule", "original") == 0
        assert kv(capsys)["closed_form_btc"] == "21000000"
        assert run_cli("supply", "--schedule", "proposed") == 0
        assert kv(capsys)["closed_form_btc"] == "21000000"

    def test_supply_at_height(self, capsys):
        assert run_cli("supply", "--schedule", "proposed", "--height", "420000") == 0
        assert kv(capsys)["cumulative_btc"] == "15750000.00000000"

    def test_original_supply_has_no_height_limit(self, capsys):
        # the original schedule's supply is closed form at any height
        assert run_cli("supply", "--schedule", "original", "--height", str(10**12)) == 0
        report = kv(capsys)
        assert report["cumulative_satoshis"] == "2099999997690000"
        assert report["cap_delta_satoshis"] == "2310000"
        assert report["exact_btc"] == "20999999.99877764"

    @pytest.mark.parametrize("schedule", ["original", "proposed"])
    def test_supply_prints_the_rational_closed_form(self, schedule, capsys):
        # perfbench's supply grid, the smooth start and the deep heights up
        # to the limit: exact_btc is the exact rational rounded half-even to
        # 8 places. A float misrounds 4,472,242 (proposed), its ulp there
        # being 3.7e-9; 2,100,001 (original) is an exact tie at the 9th place.
        grid = [max(1, min(2**25, round(math.exp((j + 0.5) / 16 * math.log(2**25)))))
                for j in range(16)]
        heights = grid + [420_000, 420_001, 420_336, 2_100_001, 4_472_242,
                          10**7, 5 * 10**7, 10**8]
        printed, want = {}, {}
        for h in heights:
            assert run_cli("supply", "--schedule", schedule, "--height", str(h)) == 0
            printed[h] = kv(capsys)["exact_btc"]
            want[h] = _half_even_8(_rational_supply(h, schedule))
        assert printed == want

    def test_table_text(self, capsys):
        assert run_cli("table") == 0
        out = capsys.readouterr().out
        assert "420336" in out and "24.96000000" in out and "published" in out
        assert "565488" in out  # crossover footer

    def test_table_csv(self, capsys):
        assert run_cli("table", "--format", "csv", "--heights", "630000") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "height,old_btc,new_btc,old_sat,new_sat"
        assert lines[1] == "630000,6.25000000,9.18962353,625000000,918962353"

    def test_adders_kv(self, capsys):
        assert run_cli("adders", "--set", "none", "--format", "kv") == 0
        report = kv(capsys)
        assert report["adders_per_nonce"] == "1800"
        assert report["compressions_per_nonce"] == "3/1"

    def test_adders_csa_only(self, capsys):
        assert run_cli("adders", "--set", "x,x2") == 0
        assert kv(capsys)["adders_per_nonce"] == "552"

    def test_energy_remark_scenario(self, capsys):
        assert run_cli(
            "energy", "--power-per-ghs", "3.2", "--rate-ghs", "3000000",
            "--price-per-kwh", "0.1",
        ) == 0
        report = kv(capsys)
        assert report["power_mw"] == "9.6000"
        assert report["mwh_per_day"] == "230.4000"

    def test_energy_bad_input(self):
        assert run_cli(
            "energy", "--power-per-ghs", "-1", "--rate-ghs", "1",
            "--price-per-kwh", "1",
        ) == 2

    def test_retarget_sim(self, capsys):
        assert run_cli(
            "retarget-sim", "--nbits", "1d00ffff",
            "--spans", "1209600,604800,151200", "--format", "csv",
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[3] == "1d00ffff"  # on-schedule window leaves nbits alone
        # 604800 halves the target; 151200 hits the 4x clamp
        assert float(lines[2].split(",")[4]) == pytest.approx(
            2 * float(first[4]), rel=1e-6
        )
        assert float(lines[3].split(",")[4]) == pytest.approx(
            8 * float(first[4]), rel=1e-6
        )

    def test_retarget_sim_steps_from_stored_nbits(self, capsys):
        # 1000000 s scales 0xffff << 208 to a target compact form cannot hold;
        # the network stores the rounded nbits and the next step starts there
        assert run_cli(
            "retarget-sim", "--nbits", "1d00ffff",
            "--spans", "1000000,1000000,1300000", "--format", "csv",
        ) == 0
        out = capsys.readouterr().out
        assert out == (
            "step,span_s,target,nbits,difficulty\n"
            f"0,1000000,00000000d3a3{'0' * 52},1d00d3a3,1.209620\n"
            f"1,1000000,00000000aef6{'0' * 52},1d00aef6,1.463184\n"
            f"2,1300000,00000000bc09{'0' * 52},1d00bc09,1.361448\n"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        previous = 0x1D00FFFF
        for row in rows:
            expected = hdr.decode_nbits(
                hdr.encode_nbits(rw.retarget(hdr.decode_nbits(previous), int(row["span_s"]))))
            assert int(row["target"], 16) == expected
            assert hdr.difficulty_of(expected) == pytest.approx(float(row["difficulty"]))
            previous = int(row["nbits"], 16)

def _rational_supply(t: int, schedule: str) -> Fraction:
    # the supply closed forms as Fractions: 50 * 2^-f BTC a block in era f,
    # and 25 * (624/625)^m in smooth period m from height 420,000 on
    if schedule == "proposed" and t > 420_000:
        m, partial = divmod(t - 420_000, 336)
        decay = Fraction(624, 625)
        return 21_000_000 - (336 / (1 - decay) - partial) * 25 * decay**m
    f, partial = divmod(min(t, 34 * 210_000), 210_000)
    return 21_000_000 - Fraction(50 * (420_000 - partial), 1 << f)


def _half_even_8(x: Fraction) -> str:
    # a nonnegative rational rounded half-even to 8 decimal places, in
    # integers: Fraction arithmetic would take a gcd of million-digit terms
    units, rest = divmod(x.numerator * 10**8, x.denominator)
    if 2 * rest > x.denominator or (2 * rest == x.denominator and units % 2):
        units += 1
    return f"{units // 10**8}.{units % 10**8:08d}"


class TestUsage:
    def test_no_subcommand_exits_2(self):
        assert run_cli() == 2

    def test_unknown_subcommand_exits_2(self):
        assert run_cli("fly") == 2

    def test_mine_requires_source(self):
        assert run_cli("mine") == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "minerlab", "reward", "840000", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "312500000" in proc.stdout

    def test_commands_that_never_scan_import_no_numpy(self):
        # numpy comes in with the kernel, which mine and bench import when they run
        argvs = [["reward", "630000"], ["supply", "--height", "1000"], ["table"], ["adders"],
                 ["energy", "--power-per-ghs", "1", "--rate-ghs", "1", "--price-per-kwh", "1"],
                 ["retarget-sim", "--nbits", "1d00ffff", "--spans", "1209600"],
                 ["verify", "--header", FIXTURE_HEADER]]
        code = (f"import sys, minerlab.cli as cli; codes = [cli.main(a) for a in {argvs}]; "
                "sys.exit(codes != [0, 0, 0, 0, 0, 0, 1] or 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_closed_stdout_before_a_short_report(self):
        # the read end closes before the command starts: its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "minerlab", "reward", "5"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_closed_stdout_after_one_line(self):
        # 10,001 lines of about 42 bytes overrun a 64 KB pipe buffer, so the
        # command is still writing when the reader stops after one line
        spans = ",".join(["1209600"] * 10_000)
        with subprocess.Popen(
            [sys.executable, "-m", "minerlab", "retarget-sim", "--nbits", "1d00ffff",
             "--spans", spans],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            assert proc.stdout.readline().startswith("step")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == ""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="sets a CPU affinity")
    def test_one_cpu_affinity_runs_one_span(self):
        # kernel.CPUS reads the affinity mask at import: a process allowed one
        # CPU defaults to one thread, and runs one span at the default chunk
        code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "import minerlab.cli as cli; "
                f"sys.exit(cli.main(['mine', *{FIXTURE}, *{FIXTURE_END}]))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert "threads: 1" in lines and "chunk: 16384" in lines

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc/<pid>/stat")
    def test_ctrl_c_ends_a_scan_in_one_line(self):
        # a terminal's Ctrl-C signals the whole process group: the scanning
        # parent and, with two CPUs, the child process of span 1
        with subprocess.Popen(
            [sys.executable, "-m", "minerlab", "mine", "--header", FIXTURE_HEADER,
             "--target", "1", "--threads", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        ) as proc:
            try:
                # 1.5 s of CPU is well past the imports (about 0.25 s): the lanes run
                deadline = time.monotonic() + 120
                while _cpu_seconds(proc.pid) < 1.5:
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.05)
                os.killpg(proc.pid, signal.SIGINT)
                out, err = proc.communicate(timeout=60)
                assert (proc.returncode, out, err) == (1, "", "error: interrupted\n")
                with pytest.raises(ProcessLookupError):  # no span's child outlives the scan
                    os.killpg(proc.pid, 0)
            finally:  # a failed check leaves no scan running for hours
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc/<pid>/stat")
    def test_killed_parent_leaves_no_child_running(self):
        # SIGTERM to the scanning parent alone skips scan's cleanup; span 1's
        # child, re-parented, stops before its next chunk instead of hashing
        # the rest of its 2^31-nonce span.  CPUS is set so that a child forks
        # on one pinned CPU too
        code = ("import sys, minerlab.cli as cli, minerlab.kernel as kern; kern.CPUS = 2; "
                f"sys.exit(cli.main(['mine', '--header', '{FIXTURE_HEADER}', "
                "'--target', '1', '--threads', '2']))")
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, start_new_session=True) as proc:
            try:
                deadline = time.monotonic() + 120
                while _cpu_seconds(proc.pid) < 1.5:
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.05)
                child = int(Path(f"/proc/{proc.pid}/task/{proc.pid}/children").read_text())
                proc.terminate()
                assert proc.wait(timeout=60) == -signal.SIGTERM
                deadline = time.monotonic() + 5
                while _state(child) not in ("", "Z"):  # gone, or exited and not yet reaped
                    assert time.monotonic() < deadline, "the child outlived its killed parent"
                    time.sleep(0.1)
            finally:  # a failed check leaves no scan running for hours
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

def _cpu_seconds(pid: int) -> float:
    # utime and stime, the 12th and 13th fields after the parenthesised name
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

def _state(pid: int) -> str:
    # the state letter after the parenthesised name, or "" once pid is gone
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return ""

class TestInputChecks:
    @pytest.mark.parametrize("argv", [
        ("retarget-sim", "--nbits", "1d00ffff", "--spans", "100,0"),
        ("table", "--heights", "5,-1"),
        ("mine", *FIXTURE, "--nonce-end", "0x100000000"),
        ("energy", "--power-per-ghs", "1e308", "--rate-ghs", "1e308",
         "--price-per-kwh", "1e308"),
        # an empty range still meets the chunk bound
        ("mine", *FIXTURE, "--nonce-start", "5", "--nonce-end", "4",
         "--chunk", "2097152"),
    ])
    def test_fails_before_printing(self, argv, capsys):
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, got", [
        (("mine", *FIXTURE, "--nonce-start", "4294967296"), "4294967296..4294967295"),
        (("bench", "--count", "4294967297", "--threads", "1"), "0..4294967296"),
    ])
    def test_nonce_range_error_gives_bound_and_values(self, argv, got, capsys):
        # the message speaks of the options' values, not of scan()'s parameters
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "32-bit" in err and "4294967295]" in err and got in err
        assert "nonce_lo" not in err and "nonce_hi" not in err

    def test_retarget_sim_needs_a_start(self, capsys):
        assert run_cli("retarget-sim", "--spans", "100") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--power-per-ghs", "--rate-ghs", "--price-per-kwh"])
    def test_energy_rejects_non_finite(self, option, value):
        argv = {"--power-per-ghs": "3.2", "--rate-ghs": "3000000", "--price-per-kwh": "0.1"}
        argv[option] = value
        assert run_cli("energy", *(x for pair in argv.items() for x in pair)) == 2

    @pytest.mark.parametrize("bad", ["0" * 65, "0" * 64, "0x" + "f" * 8, "zz", "-1",
                                     " ff", "1_0", "", "00ff", "01"])
    def test_target_form_checked(self, bad):
        assert run_cli("mine", "--header", FIXTURE_HEADER, "--target", bad) == 2
        assert run_cli("verify", "--header", "00" * 80, "--target", bad) == 2

    @pytest.mark.parametrize("bad", ["1d00fff", "1d00ffff0", "0x1d00ff", "1d00fffg"])
    def test_nbits_form_checked(self, bad):
        assert run_cli("retarget-sim", "--nbits", bad, "--spans", "100") == 2

    @pytest.mark.parametrize("argv", [
        ("energy", "--power-per-ghs", "nan", "--rate-ghs", "1", "--price-per-kwh", "1"),
        ("mine", "--target", "0x1f"),
        ("mine", "--mode", "turbo"),
        ("reward",),
        ("fly",),
    ])
    def test_usage_error_is_one_line(self, argv, capsys):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("mine", *FIXTURE, "--format", "text"),
        ("table", "--format", "kv"),
    ])
    def test_format_choices_differ(self, argv):
        assert run_cli(*argv) == 2

    @pytest.mark.parametrize("option,value", [
        ("--threads", "0"), ("--threads", "-1"), ("--chunk", "0"),
        ("--chunk", "1048577"),  # above kernel.MAX_CHUNK
    ])
    def test_below_one_rejected(self, option, value, capsys):
        # 16 nonces allocate at most 16 lanes, whatever the chunk
        assert run_cli("mine", *FIXTURE, "--nonce-end", "15",
                       option, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("bench", "--count", "1", "--seed", "1"),
        ("reward", "5", "--rounding", "floor"),
        ("mine", "--header", FIXTURE_HEADER, "--nbits", "1d00ffff", "--nonce-end", "15"),
        ("reward", "5", "--schedule", "original"),
        ("retarget-sim", "--target", "1", "--spans", "100"),
        ("adders", "--set", "all"),
        ("adders", "--set", ""),
        ("retarget-sim", "--nbits", "1d00ffff", "--spans", "100", "--expected", "1209600"),
        ("retarget-sim", "--nbits", "1d00ffff", "--spans", "100", "--clamp", "4"),
        ("energy", "--power-per-ghs", "3.2", "--rate-ghs", "3000000", "--price-per-kwh", "0.1",
         "--fraction", "0.5"),
    ])
    def test_removed_options_rejected(self, argv, capsys):
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_template_option_removed(self, tmp_path, capsys):
        # a well-formed work template of the fixture's fields
        h = hdr.header_from_hex(FIXTURE_HEADER)
        template = tmp_path / "work.txt"
        template.write_text(f"version: {h.version}\nprev_block: {h.prev_block.hex()}\n"
                            f"merkle_root: {h.merkle_root.hex()}\ntimestamp: {h.timestamp}\n"
                            f"nbits: {h.nbits:08x}\n")
        assert run_cli("mine", "--template", str(template), "--nonce-end", "15") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, same_as", [
        (("table", "--heights", ""), None),
        (("retarget-sim", "--nbits", "1d00ffff", "--spans", "0x64"),
         ("retarget-sim", "--nbits", "1d00ffff", "--spans", "100")),
    ])
    def test_integer_options_read_alike(self, argv, same_as, capsys):
        # an empty list is an error, not the default; 0x hex reads as its number
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        if same_as is None:
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
        else:
            assert code == run_cli(*same_as) == 0
            assert out == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("mine", "--threads", "x"),
        ("mine", "--nonce-start", "x"),
        ("mine", "--nonce-end", "1.5"),
        ("mine", "--chunk", "x"),
        ("bench", "--count", "x"),
        ("reward", "x"),
        ("supply", "--height", "x"),
        ("table", "--heights", "1,x"),
        ("retarget-sim", "--nbits", "1d00ffff", "--spans", "x"),
        ("energy", "--power-per-ghs", "x", "--rate-ghs", "1", "--price-per-kwh", "1"),
    ])
    def test_errors_name_no_private_helper(self, argv, capsys):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not re.search(r"(?<![\w'])_[a-z]", err), err

    def test_short_target_is_a_number(self, capsys):
        # fewer than 64 digits read as a plain hex number: the benchmark's
        # set-up probe (perfbench/setup_probe.py) passes --target 1
        assert run_cli("mine", "--header", FIXTURE_HEADER, "--target", "1",
                       "--nonce-end", "15", "--threads", "1", "--format", "kv") == 1
        assert kv(capsys)["target"] == "0" * 63 + "1"


# Per subcommand: a valid start, its options, and the tails of which one ends
# every drawn argv to keep its work small (argparse keeps an option's last
# value).  Half the mine argvs end in an empty range, which still meets the
# drawn --chunk.
_COMMANDS = {
    "mine": (FIXTURE,
             ("--header", "--target", "--nonce-start", "--nonce-end", "--threads", "--mode",
              "--chunk", "--format"),
             [("--nonce-start", "0", "--nonce-end", "255"),
              ("--nonce-start", "255", "--nonce-end", "0")]),
    "verify": (("--header", "00" * 80), ("--header", "--target", "--format"), [()]),
    "bench": ((), ("--count", "--threads", "--set", "--chunk", "--format"),
              [("--count", "256")]),
    "reward": (("5",), ("--format",), [()]),
    "supply": ((), ("--schedule", "--height", "--format"), [()]),
    "table": ((), ("--heights", "--format"), [()]),
    "adders": ((), ("--set", "--format"), [()]),
    "energy": (("--power-per-ghs", "3.2", "--rate-ghs", "1", "--price-per-kwh", "0.1"),
               ("--power-per-ghs", "--rate-ghs", "--price-per-kwh", "--format"), [()]),
    "retarget-sim": (("--nbits", "1d00ffff", "--spans", "100"),
                     ("--nbits", "--spans", "--format"), [()]),
}
_TOKENS = st.one_of(
    st.sampled_from(["", "-", "+", "0x", "nan", "-inf", "1e308", "0.5", "1,2", "1d00ffff",
                     "f" * 64, "early-exit", "generic", "original", "full", "none",
                     "kv", "csv", "text"]),
    st.from_regex(r"[-+]?(0x)?[0-9a-f]{1,12}", fullmatch=True),
    st.integers(-(1 << 40), 1 << 40).map(str),
)
# Values that size the work come from bounded sets: a chunk below 256 lanes
# would split the 256-nonce scans into many chunks of ~6,000 numpy calls each.
_VALUES = {
    "--chunk": st.sampled_from(["0", "-1", "x", "256", "0x10000", str(kern.MAX_CHUNK),
                                str(kern.MAX_CHUNK + 1), str(1 << 32)]),
    "--height": st.one_of(st.integers(-10, 10**6).map(str), st.sampled_from(["", "x", "0x"])),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    start, options, tails = _COMMANDS[command]
    argv = [command, *(start if draw(st.booleans()) else ())]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 3)):
            option = draw(st.sampled_from(options))
            argv += [option, draw(_VALUES.get(option, _TOKENS))]
        else:
            argv.append(draw(_TOKENS))
    return argv + list(draw(st.sampled_from(tails)))


class TestExitContract:
    def test_commands_name_every_option(self):
        # an option the parser lacks still exits 2, so the property alone
        # would pass on a stale list
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        assert sorted(subparsers) == sorted(_COMMANDS)
        for name, p in subparsers.items():
            options = [o for a in p._actions for o in a.option_strings
                       if o not in ("-h", "--help")]
            assert sorted(options) == sorted(_COMMANDS[name][1]), name

    @settings(max_examples=150, deadline=None)
    @given(_argv())
    def test_any_argv_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()


def _readme_argvs() -> list:
    """The argv of each ``minerlab`` line in README's fenced blocks, less its
    trailing comment, with the placeholders filled in."""
    argvs, fenced = [], False
    for line in (Path(__file__).parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("minerlab "):
            line = line.split("#", 1)[0]
            line = line.replace("<160 hex chars>", "00" * 80).replace("<64 hex>", "f" * 64)
            argvs.append(line.split()[1:])
    return argvs


class TestDocs:
    def test_readme_commands_parse(self):
        argvs = _readme_argvs()
        assert argvs
        parser = cli.build_parser()
        unparsed = []
        for argv in argvs:
            try:
                parser.parse_args(argv)
            except SystemExit:
                unparsed.append(" ".join(argv))
        assert unparsed == []

    def test_readme_shows_every_option(self):
        # an option no example shows is one a reader cannot find
        shown = {}
        for argv in _readme_argvs():
            shown.setdefault(argv[0], set()).update(a for a in argv[1:] if a.startswith("--"))
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        missing = [f"{name} {o}" for name, p in subparsers.items() for a in p._actions
                   for o in a.option_strings
                   if o not in ("-h", "--help", "--format") and o not in shown.get(name, ())]
        assert missing == []

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_subcommand_help(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: minerlab {command} ")
