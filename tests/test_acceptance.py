"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Random data derives
from the fixed seed below; stated runtime budgets are asserted.
"""

import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np

import minerlab.cli as cli
import minerlab.costs as costs
import minerlab.header as hdr
import minerlab.kernel as kern
import minerlab.rewards as rw
import minerlab.sha256 as sha
from minerlab.costs import ImprovementSet

SEED = 0xACCE_97A4_CE00_0001


def _pass(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


def _dsha(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _header_at(base: bytes, nonce_word: int) -> bytes:
    return base[:76] + nonce_word.to_bytes(4, "big")


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(SEED + 1)
    mismatches = 0
    triples = 0

    # 100 headers x 10 targets x 100-nonce windows = 100,000 triples: the
    # scan decision for every triple must match the reference double hash,
    # and every digest the kernel reports must be bit-exact.
    for _ in range(100):
        base = rng.randbytes(80)
        work0 = kern.prepare_header_work(base, 1 << 220)
        nonces = []
        windows = []
        for _ in range(10):
            target = rng.randrange(1, 1 << 224)
            n0 = rng.randrange(0, (1 << 32) - 100)
            windows.append((target, n0))
            nonces.extend(range(n0, n0 + 100))

        reference = [_dsha(_header_at(base, n)) for n in nonces]

        for w_idx, (target, n0) in enumerate(windows):
            work = dataclasses.replace(work0, target=target)
            res = kern.scan(work, n0, n0 + 99)
            assert res.mode == "early-exit"
            ref_hit = None
            for k in range(100):
                if hdr.meets_target(reference[w_idx * 100 + k], target):
                    ref_hit = n0 + k
                    break
            kern_hit = res.found.nonce if res.found else None
            if kern_hit != ref_hit:
                mismatches += 1
            if res.found and res.found.digest != reference[w_idx * 100 + (kern_hit - n0)]:
                mismatches += 1
            triples += 100

    # 500 fully independent (header, nonce, target) triples, single-point
    for _ in range(500):
        base = rng.randbytes(80)
        nonce = rng.getrandbits(32)
        target = rng.randrange(1, 1 << 224)
        work = kern.prepare_header_work(base, target)
        res = kern.scan(work, nonce, nonce)
        want = hdr.meets_target(_dsha(_header_at(base, nonce)), target)
        if (res.found is not None) != want:
            mismatches += 1
        triples += 1

    # boundary probes in generic mode: target exactly at / one above the
    # digest value must flip the strict comparison
    generic = ImprovementSet(ImprovementSet.full().flags - {"2"})
    for _ in range(100):
        base = rng.randbytes(80)
        nonce = rng.getrandbits(32)
        digest = _dsha(_header_at(base, nonce))
        h = hdr.hash_to_int(digest)
        if not 0 < h < (1 << 256) - 1:
            continue
        at = kern.scan(kern.prepare_header_work(base, h), nonce, nonce, improvements=generic)
        above = kern.scan(kern.prepare_header_work(base, h + 1), nonce, nonce,
                          improvements=generic)
        if at.found is not None or above.found is None:
            mismatches += 1
        elif above.found.digest != digest:
            mismatches += 1
        triples += 2

    # the reference module itself is pinned to the published standard via
    # an independent implementation
    for _ in range(300):
        data = rng.randbytes(rng.randrange(0, 200))
        if sha.sha256d(data) != _dsha(data):
            mismatches += 1

    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert triples >= 100_000
    assert elapsed < 60
    _pass(1, f"{triples} triples, 0 mismatches, {elapsed:.1f}s")


def test_criterion_02_fact1_constant():
    started = time.perf_counter()
    assert costs.compression_equivalents(ImprovementSet.full()) == Fraction(121, 64)
    assert float(costs.compression_equivalents(ImprovementSet.full())) == 1.890625
    assert Fraction(121, 64) == 2 - Fraction(7, 64)

    rng = random.Random(SEED + 2)
    work = kern.prepare_header_work(rng.randbytes(80), target=1)
    res = kern.scan(work, 0, (1 << 20) - 1, threads=1)
    assert res.nonces_tried == 1 << 20
    assert 1.87 <= res.compressions_equivalent <= 1.92
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _pass(
        2,
        f"closed form 121/64, instrumented {res.compressions_equivalent:.6f} "
        f"over 2^20 nonces, {elapsed:.1f}s",
    )


def test_criterion_03_intermediate_figures():
    assert costs.compression_equivalents(ImprovementSet.none()) == Fraction(3)
    one = ImprovementSet.of("1")
    assert costs.compression_equivalents(one) == Fraction(2)
    assert costs.amortized_overhead(one) == Fraction(1, 2**32)
    assert costs.compression_equivalents(ImprovementSet.of("1", "2")) == Fraction(125, 64)
    assert abs(float(Fraction(125, 64)) - 1.953125) == 0
    _pass(3, "cost figures 3, 2 (+2^-32), 125/64 all exact")


def test_criterion_04_rejection_constants():
    e60, e61 = (1 << 32) - sha.IV.h, (1 << 32) - sha.IV.g
    assert (e60 + 0x5BE0CD19) % 2**32 == 0
    assert (e61 + 0x1F83D9AB) % 2**32 == 0
    assert (e60, e61) == (0xA41F32E7, 0xE07C2655)

    rng = random.Random(SEED + 4)
    checked = 0
    for _ in range(150):
        a, b, c, f, g, h = (rng.getrandbits(32) for _ in range(6))
        w61, w62, w63 = (rng.getrandbits(32) for _ in range(3))
        # force the round-60 E value, then pick D so round 61 forces E too
        e = e60
        t1 = (h + sha.big_sigma1(e) + sha.choice(e, f, g) + sha.K[61] + w61) % 2**32
        d = (e61 - t1) % 2**32
        state = sha.State(a, b, c, d, e, f, g, h)
        for w, k in ((w61, sha.K[61]), (w62, sha.K[62]), (w63, sha.K[63])):
            state = sha.compression_round(state, w, k)
        digest = sha.state_bytes(
            sha.State(*((x + y) % 2**32 for x, y in zip(state, sha.IV)))
        )
        assert digest[28:32] == bytes(4)  # word 7
        assert digest[24:28] == bytes(4)  # word 6
        checked += 1
    assert checked >= 100
    _pass(4, f"constants negate IV words; {checked} forced states zero words 7 and 6")


def test_criterion_05_stage1_filter_statistics():
    started = time.perf_counter()
    rng = random.Random(SEED + 5)
    work = kern.prepare_header_work(rng.randbytes(80), target=1)
    res = kern.scan(work, 0, (1 << 24) - 1, threads=1)
    elapsed = time.perf_counter() - started
    assert res.found is None
    assert res.nonces_tried == 1 << 24
    # expected survivors 2^24 / 2^32 = 0.0039; four or more is a ~1e-8 event
    assert res.stage1_survivors <= 3
    assert res.stage2_survivors <= res.stage1_survivors
    assert elapsed < 120
    _pass(
        5,
        f"2^24-nonce scan: {res.stage1_survivors} stage-1 survivors "
        f"(expected 0.0039), {elapsed:.1f}s",
    )


def test_criterion_06_desk_scale_mining(capsys):
    started = time.perf_counter()
    rng = random.Random(SEED + 6)
    target_hex = f"{1 << 240:064x}"
    verified = 0
    attempts = []
    for _ in range(100):
        base = rng.randbytes(76) + bytes(4)
        code = cli.main(
            ["mine", "--header", base.hex(), "--target", target_hex,
             "--threads", "1", "--format", "kv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        report = dict(
            line.split(": ", 1) for line in out.splitlines() if ": " in line
        )
        assert report["result"] == "found"
        assert report["mode"] == "generic"
        attempts.append(int(report["nonces_tried"]))
        code = cli.main(
            ["verify", "--header", report["header"], "--target", target_hex]
        )
        capsys.readouterr()
        verified += code == 0
    elapsed = time.perf_counter() - started
    assert verified == 100
    mean_attempts = sum(attempts) / len(attempts)
    # expected 2^16 tries per find; the mean of 100 exponentials stays close
    assert 0.6 * 2**16 < mean_attempts < 1.6 * 2**16
    assert elapsed < 60
    with capsys.disabled():
        _pass(
            6,
            f"100/100 mined headers reference-verified, mean attempts "
            f"{mean_attempts:.0f} (expected 65536), {elapsed:.1f}s",
        )


def test_criterion_07_supply_caps():
    started = time.perf_counter()
    original = rw.total_emission("original")
    proposed = rw.total_emission("proposed")

    assert original.closed_form_btc == 21_000_000
    assert proposed.closed_form_btc == 21_000_000

    # telescoping of the halving series
    acc = Fraction(0)
    for f in range(50):
        acc += 210_000 * 50 * Fraction(1, 2**f)
        assert acc == 21_000_000 * (1 - Fraction(1, 2 ** (f + 1)))

    # the smooth-schedule identity
    assert Fraction(1) / (1 - Fraction(624, 625)) == 625
    assert Fraction(15_750_000) + 336 * 25 * 625 == 21_000_000

    delta_btc = Fraction(proposed.iterated_delta_satoshis, 10**8)
    assert abs(delta_btc) <= Fraction(5, 100)
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _pass(
        7,
        f"both closed forms exactly 21,000,000 BTC; proposed iterated drift "
        f"{proposed.iterated_delta_satoshis} satoshis ({float(delta_btc):+.6f} BTC), "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_published_table_reproduction():
    published = {
        525_000: Fraction("15.16"),
        630_000: Fraction("9.18"),
        840_000: Fraction("3.378"),
        1_050_000: Fraction("1.2417"),
    }
    for height, want in published.items():
        got = Fraction(rw.reward_proposed(height), 10**8)
        assert abs(got - want) <= Fraction(1, 100), (height, float(got))

    exact_420336 = Fraction(rw.reward_proposed(420_336), 10**8)
    assert exact_420336 == Fraction("24.96")  # 25 * 624/625 exactly
    flagged = rw.PUBLISHED_NEW_BTC[420_336]
    assert flagged == Fraction("24.97")
    assert flagged != exact_420336  # documented discrepancy, not asserted
    _pass(
        8,
        "proposed rewards within 0.01 BTC of the published grid; 420336 is "
        "exactly 24.96 with the published 24.97 flagged as a discrepancy",
    )


def test_criterion_09_difficulty_identity():
    rng = random.Random(SEED + 9)
    for _ in range(10_000):
        t = rng.randrange(1, 1 << 256)
        assert abs(hdr.difficulty_of(t) * 2**32 * hdr.probability_of(t) - 1.0) < 1e-9

    difficulty = 267_731_249
    assert abs(math.log2(difficulty) - 28.0) < 0.01
    target = (1 << 224) // difficulty
    decoded = hdr.decode_nbits(hdr.encode_nbits(target))
    assert abs(math.log2(1 / hdr.probability_of(decoded)) - 60.00) < 0.01
    assert abs(math.log2(hdr.difficulty_of(decoded)) - 28.0) < 0.01
    _pass(9, "difficulty * 2^32 * probability = 1 on 10^4 targets; 2^28 <-> 2^-60 anchor")


def test_criterion_10_csa_validity():
    # exhaustive over all 2^24 triples of 8-bit words
    v = np.arange(256, dtype=np.uint32)
    a, b, c = v[:, None, None], v[None, :, None], v[None, None, :]
    ps, sc = costs.csa(a, b, c, width=8)
    total = (ps.astype(np.uint64) + sc) & 0xFF
    want = (a.astype(np.uint64) + b + c) & 0xFF
    assert total.shape == (256, 256, 256)
    assert np.array_equal(total, np.broadcast_to(want, total.shape))

    rng = random.Random(SEED + 10)
    for _ in range(100_000):
        x, y, z = (rng.getrandbits(32) for _ in range(3))
        ps, sc = costs.csa(x, y, z)
        assert (ps + sc) % 2**32 == (x + y + z) % 2**32
    _pass(10, "2^24 exhaustive 8-bit triples and 10^5 random 32-bit triples, 0 failures")


def test_criterion_11_adder_model():
    assert costs.adder_count(ImprovementSet.none()) == 1800
    assert costs.adder_count(ImprovementSet.of("X", "X2")) == 552
    full = ImprovementSet.full()
    best = costs.adder_count(full)
    checked = 0
    for s in costs.all_valid_sets():
        if s != full:
            assert costs.adder_count(s) > best
        checked += 1
    assert checked == 576  # every dependency-valid flag combination
    _pass(11, f"1800 / 552 anchors hold; full set ({best}) minimal over {checked} sets")


def test_criterion_12_performance_informative(capsys):
    # non-gating: machine-dependent throughput, reported but not asserted
    code = cli.main(["bench", "--count", str(1 << 18), "--threads", "1"])
    out = capsys.readouterr().out
    assert code == 0
    report = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    speedup = float(report["wallclock_speedup"])
    assert speedup > 0  # sanity only
    with capsys.disabled():
        _pass(
            12,
            f"informative: optimized/naive wall-clock ratio {speedup:.2f} "
            "at 2^18 nonces",
        )
