import hashlib
import random
import struct

import numpy as np
import pytest

import minerlab.costs as costs
import minerlab.header as hdr
import minerlab.kernel as kern
import minerlab.sha256 as sha

SEED = 0x4EE1_0001

def _rand_header(rng) -> bytes:
    return rng.randbytes(80)

def _dsha(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()

def _header_at(base: bytes, nonce_word: int) -> bytes:
    # the scanner's nonce is the word the hash consumes, i.e. the four
    # nonce bytes read big-endian
    return base[:76] + nonce_word.to_bytes(4, "big")

class TestMidstate:
    def test_matches_reference_compress(self):
        rng = random.Random(SEED)
        for _ in range(20):
            prefix = rng.randbytes(64)
            want = sha.compress(sha.IV, struct.unpack(">16I", prefix))
            assert kern.compute_midstate(prefix) == want

    def test_independent_of_trailing_bytes(self):
        rng = random.Random(SEED + 1)
        base = _rand_header(rng)
        m0 = kern.compute_midstate(base[:64])
        for _ in range(10):
            other = base[:64] + rng.randbytes(16)
            assert kern.compute_midstate(other[:64]) == m0

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            kern.compute_midstate(b"\x00" * 63)

    def test_amortized_cost_model(self):
        from fractions import Fraction

        from minerlab import costs

        s = costs.ImprovementSet.of("1")
        assert costs.compression_equivalents(s) + costs.amortized_overhead(s) == Fraction(
            2
        ) + Fraction(1, 2**32)

class TestPrepareWork:
    def test_round3_state_matches_reference(self):
        rng = random.Random(SEED + 2)
        for _ in range(20):
            base = _rand_header(rng)
            work = kern.prepare_header_work(base, target=1 << 200)
            state = kern.compute_midstate(base[:64])
            w = struct.unpack(">3I", base[64:76])
            for t in range(3):
                state = sha.compression_round(state, w[t], sha.K[t])
            assert work.state_r3 == state

    def test_w16_w17_match_schedule_for_any_nonce(self):
        rng = random.Random(SEED + 3)
        base = _rand_header(rng)
        work = kern.prepare_header_work(base, target=1 << 200)
        for _ in range(20):
            nonce = rng.getrandbits(32)
            block2 = struct.unpack(">3I", base[64:76]) + (nonce,) + kern._COMP2_PAD
            w = sha.expand_schedule(block2)
            assert work.w16 == w[16]
            assert work.w17 == w[17]

    def test_w16_zero_word_reduction(self):
        # with words 9 and 14 zero the recurrence collapses to
        # sigma0(w1) + w0, a timestamp-dependent constant
        rng = random.Random(SEED + 4)
        base = _rand_header(rng)
        work = kern.prepare_header_work(base, target=1 << 200)
        w0, w1, _ = struct.unpack(">3I", base[64:76])
        assert work.w16 == (sha.little_sigma0(w1) + w0) % 2**32

    def test_fold_table_covers_constant_rounds(self):
        base = random.Random(SEED + 5).randbytes(80)
        work = kern.prepare_header_work(base, target=1 << 200)
        folded2 = [t for t, kw in enumerate(work.kw_comp2) if kw is not None]
        folded3 = [t for t, kw in enumerate(kern.KW_COMP3) if kw is not None]
        assert folded2 == list(range(4, 18))
        assert folded3 == list(range(8, 16))
        # 16 zero words + 2 marker words + 2 length words + W16 + W17
        assert len(folded2) + len(folded3) == 22

    def test_fold_values(self):
        base = random.Random(SEED + 6).randbytes(80)
        work = kern.prepare_header_work(base, target=1 << 200)
        assert work.kw_comp2[4] == (sha.K[4] + 0x80000000) % 2**32
        assert work.kw_comp2[5] == sha.K[5]
        assert work.kw_comp2[15] == (sha.K[15] + 640) % 2**32
        assert kern.KW_COMP3[8] == (sha.K[8] + 0x80000000) % 2**32
        assert kern.KW_COMP3[15] == (sha.K[15] + 256) % 2**32

    def test_zero_target_rejected(self):
        base = random.Random(SEED + 7).randbytes(80)
        with pytest.raises(ValueError, match="zero target"):
            kern.prepare_header_work(base, target=0)

    def test_bad_tail_length(self):
        with pytest.raises(ValueError):
            kern.prepare_work(bytes(64), b"\x00" * 11, 1 << 200)

class TestRejectionConstants:
    def test_complements_of_iv(self):
        e60, e61 = kern.REJECT_E60, kern.REJECT_E61
        assert e60 == 0xA41F32E7
        assert e61 == 0xE07C2655
        assert (0x5BE0CD19 + e60) % 2**32 == 0
        assert (0x1F83D9AB + e61) % 2**32 == 0

    def test_forced_states_zero_digest_words(self):
        # build round-61 states that hit both constants and complete them:
        # digest words 7 and 6 must come out zero regardless of the rest
        rng = random.Random(SEED + 8)
        e60, e61 = kern.REJECT_E60, kern.REJECT_E61
        for _ in range(120):
            a, b, c, f, g, h = (rng.getrandbits(32) for _ in range(6))
            e = e60
            w61, w62, w63 = (rng.getrandbits(32) for _ in range(3))
            t1 = (h + sha.big_sigma1(e) + sha.choice(e, f, g) + sha.K[61] + w61) % 2**32
            d = (e61 - t1) % 2**32
            state = sha.State(a, b, c, d, e, f, g, h)
            state = sha.compression_round(state, w61, sha.K[61])
            assert state.e == e61
            state = sha.compression_round(state, w62, sha.K[62])
            state = sha.compression_round(state, w63, sha.K[63])
            digest = sha.state_bytes(
                sha.State(*((x + y) % 2**32 for x, y in zip(state, sha.IV)))
            )
            assert digest[28:32] == b"\x00\x00\x00\x00"  # word 7
            assert digest[24:28] == b"\x00\x00\x00\x00"  # word 6
            assert hdr.hash_to_int(digest) < 1 << 192

class TestScanDecisions:
    def test_single_point_matches_reference(self):
        rng = random.Random(SEED + 13)
        for _ in range(150):
            base = _rand_header(rng)
            nonce = rng.getrandbits(32)
            target = rng.randrange(1, 1 << 224)
            work = kern.prepare_header_work(base, target)
            res = kern.scan(work, nonce, nonce)
            assert res.nonces_tried == 1
            want = hdr.meets_target(sha.sha256d(_header_at(base, nonce)), target)
            assert (res.found is not None) == want

    def test_generic_single_point_matches_reference(self):
        rng = random.Random(SEED + 14)
        for _ in range(60):
            base = _rand_header(rng)
            nonce = rng.getrandbits(32)
            target = rng.randrange(1 << 224, 1 << 250)
            work = kern.prepare_header_work(base, target)
            res = kern.scan(work, nonce, nonce)
            assert res.mode == "generic"
            digest = sha.sha256d(_header_at(base, nonce))
            want = hdr.meets_target(digest, target)
            assert (res.found is not None) == want
            if res.found:
                assert res.found.digest == digest

    def test_desk_scale_mining_verifies(self):
        rng = random.Random(SEED + 15)
        target = 1 << 240
        for _ in range(5):
            base = _rand_header(rng)
            work = kern.prepare_header_work(base, target)
            res = kern.scan(work, 0, 0xFFFFFFFF)
            assert res.found is not None
            solved = _header_at(base, res.found.nonce)
            digest = sha.sha256d(solved)
            assert digest == res.found.digest
            assert hdr.meets_target(digest, target)
            # smallest in range: nothing below qualifies
            assert res.found.nonce == res.nonces_tried - 1

    def test_found_nonce_is_smallest(self):
        rng = random.Random(SEED + 16)
        base = _rand_header(rng)
        work = kern.prepare_header_work(base, 1 << 242)
        res = kern.scan(work, 0, 0xFFFFFFFF)
        assert res.found is not None
        n = res.found.nonce
        for probe in range(max(0, n - 3), n):
            assert not hdr.meets_target(sha.sha256d(_header_at(base, probe)), 1 << 242)

    def test_partition_determinism(self):
        rng = random.Random(SEED + 17)
        base = _rand_header(rng)
        work = kern.prepare_header_work(base, 1 << 241)
        whole = kern.scan(work, 0, 1 << 18)
        assert whole.found is not None
        lo = 0
        partial_founds = []
        for hi in (1 << 14, 3 << 14, 1 << 17, 1 << 18):
            r = kern.scan(work, lo, hi, chunk=5000)
            if r.found:
                partial_founds.append(r.found.nonce)
            lo = hi + 1
        assert min(partial_founds) == whole.found.nonce

    def test_threads_agree_with_single(self):
        rng = random.Random(SEED + 18)
        base = _rand_header(rng)
        work = kern.prepare_header_work(base, 1 << 241)
        one = kern.scan(work, 0, 1 << 18, threads=1)
        four = kern.scan(work, 0, 1 << 18, threads=4)
        assert one.found is not None
        assert four.found is not None
        assert one.found.nonce == four.found.nonce
        assert one.found.digest == four.found.digest

    @staticmethod
    def _counters(res):
        return (res.nonces_tried, res.rounds_executed,
                res.stage1_survivors, res.stage2_survivors)

    def test_threads_keep_counters_exact(self):
        base = random.Random(SEED + 36).randbytes(80)
        work = kern.prepare_header_work(base, target=1)
        one = kern.scan(work, 0, (1 << 16) - 1, threads=1, chunk=4096)
        three = kern.scan(work, 0, (1 << 16) - 1, threads=3, chunk=4096)
        assert one.found is None and three.found is None
        assert one.nonces_tried == 1 << 16
        assert self._counters(three) == self._counters(one)

    def test_winner_in_highest_subrange(self):
        # the calling thread scans the lowest subrange and exhausts it; the
        # only winner lies in the last, which a pool thread scans
        nonce = int.from_bytes(GENESIS[76:80], "big")
        work = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        lo, hi = nonce - 8191, nonce + 100
        assert kern._partition(lo, hi, 3)[2][0] < nonce
        one = kern.scan(work, lo, hi, threads=1, chunk=1024)
        three = kern.scan(work, lo, hi, threads=3, chunk=1024)
        assert three.found == one.found
        assert three.found.digest == _dsha(GENESIS)
        assert one.nonces_tried == 8192
        assert self._counters(three) == self._counters(one)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # six spans on a two-CPU host: the pool gets two workers and the
        # other spans queue, with the same winner and counters
        sizes = []
        real_pool = kern.ThreadPoolExecutor

        def pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(kern.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(kern, "ThreadPoolExecutor", pool)
        nonce = int.from_bytes(GENESIS[76:80], "big")
        work = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        lo, hi = nonce - 8191, nonce + 100
        assert kern._partition(lo, hi, 6)[5][0] < nonce
        one = kern.scan(work, lo, hi, threads=1, chunk=512)
        six = kern.scan(work, lo, hi, threads=6, chunk=512)
        assert sizes == [1, 2]
        assert six.found == one.found and one.found.digest == _dsha(GENESIS)
        assert self._counters(six) == self._counters(one)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        base = random.Random(SEED + 22).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 200)
        with pytest.raises(ValueError, match="threads"):
            kern.scan(work, 0, 10, threads=threads)

    def test_early_exit_mode_forced_unsound(self):
        base = random.Random(SEED + 19).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 224)
        with pytest.raises(ValueError, match="unsound"):
            kern.scan(work, 0, 10, mode="early-exit")

    def test_empty_range_rejected(self):
        base = random.Random(SEED + 20).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 200)
        with pytest.raises(ValueError, match="empty"):
            kern.scan(work, 5, 4)

    def test_nonce_bounds_checked(self):
        base = random.Random(SEED + 21).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 200)
        with pytest.raises(ValueError):
            kern.scan(work, 0, 1 << 32)

    def test_early_exit_mode_needs_flag_2(self):
        base = random.Random(SEED + 31).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 200)
        with pytest.raises(ValueError, match="improvement 2"):
            kern.scan(work, 0, 10, mode="early-exit",
                      improvements=costs.ImprovementSet.of("1", "3"))

    def test_unknown_mode(self):
        base = random.Random(SEED + 22).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 200)
        with pytest.raises(ValueError, match="mode"):
            kern.scan(work, 0, 1, mode="turbo")

class TestChunkRule:
    """Without a chunk the scan picks one from the thread count; the chunk
    never changes what a scan finds or counts."""

    @staticmethod
    def _outcome(res):
        return (res.found, res.nonces_tried, res.rounds_executed,
                res.stage1_survivors, res.stage2_survivors)

    @pytest.mark.parametrize("threads, chunk", [(1, 1 << 14), (2, 1 << 16), (3, 1 << 16)])
    def test_default_follows_threads(self, threads, chunk):
        work = kern.prepare_header_work(random.Random(SEED + 40).randbytes(80), 1 << 150)
        res = kern.scan(work, 0, 255, threads=threads)
        assert kern.effective_chunk(threads) == chunk
        assert (res.chunk, res.threads) == (chunk, threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1000, 1 << 14, 1 << 16])
    def test_explicit_chunk_kept(self, threads, chunk):
        work = kern.prepare_header_work(random.Random(SEED + 41).randbytes(80), 1 << 150)
        res = kern.scan(work, 0, 255, threads=threads, chunk=chunk)
        assert kern.effective_chunk(threads, chunk) == chunk
        assert (res.chunk, res.threads) == (chunk, threads)

    def test_early_exit_exhaustive_scan_same_at_any_chunk(self):
        work = kern.prepare_header_work(random.Random(SEED + 42).randbytes(80), 1 << 155)
        results = [kern.scan(work, 0, (1 << 17) - 1, mode="early-exit", threads=1, chunk=c)
                   for c in (None, 1 << 14, 1 << 16)]
        assert results[0].found is None and results[0].nonces_tried == 1 << 17
        assert len({self._outcome(r) for r in results}) == 1

    def test_generic_find_same_at_any_chunk(self):
        base = random.Random(SEED + 43).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 240)
        results = [kern.scan(work, 0, kern.MASK32, threads=1, chunk=c)
                   for c in (None, 1 << 14, 1 << 16)]
        found = results[0].found
        assert found is not None and results[0].mode == "generic"
        assert results[0].nonces_tried == found.nonce + 1
        assert found.digest == _dsha(_header_at(base, found.nonce))
        assert len({self._outcome(r) for r in results}) == 1


class TestInstrumentation:
    def test_early_round_accounting(self):
        base = random.Random(SEED + 23).randbytes(80)
        work = kern.prepare_header_work(base, target=1)
        n = 1 << 16
        res = kern.scan(work, 0, n - 1)
        assert res.nonces_tried == n
        extra = res.rounds_executed - 2 * 61 * n
        assert 0 <= extra <= 4 * res.stage1_survivors + 64 * res.stage2_survivors
        assert res.compressions_equivalent == res.rounds_executed / 64 / n

    def test_generic_round_accounting(self):
        base = random.Random(SEED + 24).randbytes(80)
        work = kern.prepare_header_work(base, target=1 << 230)
        res = kern.scan(work, 0, (1 << 14) - 1, mode="generic")
        if res.found is None:
            assert res.rounds_executed == 125 * res.nonces_tried
        assert abs(res.compressions_equivalent - 125 / 64) < 1e-12

    def test_survivor_rate_small_scan(self):
        # lambda = 2^20 / 2^32, so even two survivors is a 1e-8 event
        base = random.Random(SEED + 25).randbytes(80)
        work = kern.prepare_header_work(base, target=1)
        res = kern.scan(work, 0, (1 << 20) - 1)
        assert res.found is None
        assert res.stage1_survivors <= 2
        assert res.stage2_survivors <= res.stage1_survivors

class TestEvaluateDigests:
    def test_against_hashlib(self):
        rng = random.Random(SEED + 26)
        base = _rand_header(rng)
        work = kern.prepare_header_work(base, target=1 << 200)
        nonces = [rng.getrandbits(32) for _ in range(500)]
        words = kern.evaluate_digests(work, nonces)
        assert words.shape == (8, 500)
        for j in (0, 1, 7, 499, 250):
            want = _dsha(_header_at(base, nonces[j]))
            got = b"".join(int(words[i, j]).to_bytes(4, "big") for i in range(8))
            assert got == want

    def test_validates_input(self):
        base = random.Random(SEED + 27).randbytes(80)
        work = kern.prepare_header_work(base, target=1 << 200)
        with pytest.raises(ValueError):
            kern.evaluate_digests(work, [1 << 32])
        with pytest.raises(ValueError):
            kern.evaluate_digests(work, [[1, 2]])

    def test_empty_input(self):
        base = random.Random(SEED + 28).randbytes(80)
        work = kern.prepare_header_work(base, target=1 << 200)
        assert kern.evaluate_digests(work, []).shape == (8, 0)

class TestNaiveScan:
    def test_agrees_with_optimized(self):
        rng = random.Random(SEED + 29)
        base = _rand_header(rng)
        target = 1 << 240
        work = kern.prepare_header_work(base, target)
        fast = kern.scan(work, 0, 1 << 17)
        slow = kern.scan_naive(base, target, 0, 1 << 17)
        assert (fast.found is None) == (slow.found is None)
        if fast.found:
            assert fast.found.nonce == slow.found.nonce
            assert fast.found.digest == slow.found.digest

    def test_cost_is_three_compressions(self):
        base = random.Random(SEED + 30).randbytes(80)
        res = kern.scan_naive(base, 1, 0, 4095)
        assert res.compressions_equivalent == 3.0
        assert res.rounds_executed == 192 * 4096

    def test_range_past_32_bits_rejected(self):
        base = random.Random(SEED + 32).randbytes(80)
        with pytest.raises(ValueError, match="32-bit"):
            kern.scan_naive(base, 1, 0xFFFFFFF0, 2**32 + 5)

    def test_negative_start_rejected(self):
        base = random.Random(SEED + 33).randbytes(80)
        with pytest.raises(ValueError, match="32-bit"):
            kern.scan_naive(base, 1, -1, 10)

# Every dependency-valid combination of the lane flags 1-8 (X and X2 exist
# only in the gate model): 2^8 sets less those with 4 but not 3 or with 8
# but not 7.
LANE_SETS = [s for s in costs.all_valid_sets() if not {"X", "X2"} & s.flags]

# Block 0 of the deployed chain, serialized without minerlab
GENESIS = struct.pack(
    "<I32s32sIII", 1, bytes(32),
    bytes.fromhex("4a5e1e4baab89f3a32518a88c31bc87f618f76673e2cc77ab2127b7afdeda33b")[::-1],
    1231006505, 0x1D00FFFF, 2083236893,
)
GENESIS_HASH = "000000000019d6689c085ae165831e934ff763ae46a2a6c172b3f1b60a8ce26f"

class TestImprovementSubsets:
    """The one lane pipeline under every subset of flags 1-8, against
    hashlib: this covers the incremental round 3 (flag 4) and W19 (flag 8)
    stepping rules as well as each flag's switch back to plain rounds."""

    def test_subset_count(self):
        assert len(LANE_SETS) == 144

    def test_early_exit_subsets_find_genesis(self):
        nonce = int.from_bytes(GENESIS[76:80], "big")
        digest = _dsha(GENESIS)
        assert digest[::-1].hex() == GENESIS_HASH
        work = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        lo = nonce - 2048
        for s in (s for s in LANE_SETS if "2" in s):
            res = kern.scan(work, lo, lo + 4095, mode="early-exit", improvements=s)
            assert res.found is not None, str(s)
            assert (res.found.nonce, res.found.digest) == (nonce, digest), str(s)
            assert res.nonces_tried == nonce - lo + 1

    def test_generic_subsets_match_hashlib(self):
        rng = random.Random(SEED + 34)
        base = _rand_header(rng)
        target = 1 << 240
        winner = 0
        while int.from_bytes(_dsha(_header_at(base, winner)), "little") >= target:
            winner += 1
        lo = max(0, winner - 3000)
        work = kern.prepare_header_work(base, target)
        for s in (s for s in LANE_SETS if "2" not in s):
            res = kern.scan(work, lo, lo + 4095, chunk=1000, improvements=s)
            assert res.mode == "generic"
            assert res.found is not None, str(s)
            assert res.found.nonce == winner, str(s)
            assert res.found.digest == _dsha(_header_at(base, winner)), str(s)

    def test_accounting_matches_cost_model(self):
        from fractions import Fraction

        base = random.Random(SEED + 35).randbytes(80)
        work = kern.prepare_header_work(base, target=1)
        for s in LANE_SETS:
            res = kern.scan(work, 1 << 20, (1 << 20) + 4095, improvements=s)
            assert res.found is None and res.nonces_tried == 4096
            incremental = 1 if "4" in s else 0
            assert res.rounds_executed == 4096 * (costs.executed_rounds(s) + incremental), str(s)
            assert res.compressions_equivalent == float(
                costs.compression_equivalents(s) + Fraction(incremental, 64)
            ), str(s)
