import array
import collections
import dataclasses
import hashlib
import os
import random
import signal
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minerlab.costs as costs
import minerlab.header as hdr
import minerlab.kernel as kern
import minerlab.sha256 as sha

SEED = 0x4EE1_0001

# The sets ``mine --mode`` maps to: early exit keeps flag 2, generic drops it.
FULL = costs.ImprovementSet.full()
GENERIC = costs.ImprovementSet(FULL.flags - {"2"})
MODE_SETS = {"early-exit": FULL, "generic": GENERIC}

# One header at target 2^248: about one find per 256 nonces.
_SPLIT_WORK = kern.prepare_header_work(random.Random(SEED + 46).randbytes(80), 1 << 248)

@st.composite
def _cut_range(draw):
    """``lo``, ``hi`` and a cut ``k`` in ``lo..hi+1``; the range may be empty."""
    lo = draw(st.integers(1, (1 << 32) - 1100))
    hi = lo + draw(st.integers(0, 1024)) - 1
    return lo, hi, draw(st.integers(lo, hi + 1))

def _rand_header(rng) -> bytes:
    return rng.randbytes(80)

def _dsha(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()

def _header_at(base: bytes, nonce_word: int) -> bytes:
    # the scanner's nonce is the word the hash consumes, i.e. the four
    # nonce bytes read big-endian
    return base[:76] + nonce_word.to_bytes(4, "big")

@pytest.fixture
def span_log(tmp_path, monkeypatch):
    """Reads the ``(starts, stop, chunk)`` of every span scanned since the
    last read, ``starts`` the range of its chunks' first nonces and ``stop``
    that range's stop, sorted by first chunk, in whichever process scanned
    it: ``_scan_range`` is wrapped to append one line per span to a file."""
    path = tmp_path / "spans"
    path.touch()
    scan_range = kern._scan_range

    def recording(work, starts, s, chunk, *rest):
        with open(path, "a") as log:
            log.write(f"{starts.start} {starts.stop} {starts.step} {chunk}\n")
        return scan_range(work, starts, s, chunk, *rest)

    def read():
        lines = path.read_text().splitlines()
        path.write_text("")
        spans = sorted(tuple(map(int, line.split())) for line in lines)
        return [(range(*span[:3]), span[1], span[3]) for span in spans]

    monkeypatch.setattr(kern, "_scan_range", recording)
    return read

def _assert_dealt(spans, lo, hi, chunk):
    """The logged ``spans`` deal the chunks of ``lo..hi`` in nonce order:
    chunk k, starting at ``lo + k * chunk``, to span k mod spans, and
    every span's chunks end at ``hi``."""
    parts = len(spans)
    assert [starts for starts, _, _ in spans] == [
        range(lo + idx * chunk, hi + 1, parts * chunk) for idx in range(parts)]
    # range equality compares elements, so the stop is checked on its own
    assert all(stop == hi + 1 and c == chunk for _, stop, c in spans)

@pytest.fixture
def forks(monkeypatch):
    """The pid of every child ``kern.os.fork`` makes during the test."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(kern.os, "fork", counting)
    return pids

class TestMidstate:
    def test_matches_reference_compress(self):
        rng = random.Random(SEED)
        for _ in range(20):
            prefix = rng.randbytes(64)
            want = sha.compress(sha.IV, struct.unpack(">16I", prefix))
            assert kern.prepare_header_work(prefix + bytes(12), 1).midstate == want

    def test_independent_of_trailing_bytes(self):
        rng = random.Random(SEED + 1)
        base = _rand_header(rng)
        m0 = kern.prepare_header_work(base, 1).midstate
        for _ in range(10):
            other = base[:64] + rng.randbytes(16)
            assert kern.prepare_header_work(other, 1).midstate == m0

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            kern.prepare_header_work(b"\x00" * 63, 1)

    def test_amortized_cost_model(self):
        from fractions import Fraction

        from minerlab import costs

        s = costs.ImprovementSet(frozenset({"1"}))
        assert costs.compression_equivalents(s) + costs.amortized_overhead(s) == Fraction(
            2
        ) + Fraction(1, 2**32)

class TestPrepareWork:
    def test_round3_state_matches_reference(self):
        rng = random.Random(SEED + 2)
        for _ in range(20):
            base = _rand_header(rng)
            work = kern.prepare_header_work(base, target=1 << 200)
            state = work.midstate
            w = struct.unpack(">3I", base[64:76])
            for t in range(3):
                state = sha.compression_round(state, w[t], sha.K[t])
            assert work.state_r3 == state

    def test_w16_w17_match_schedule_for_any_nonce(self):
        # the nonce-0 bases plus the nonce terms the lanes add give the
        # reference schedule words 16..19 and round-3 state at any nonce
        rng = random.Random(SEED + 3)
        base = _rand_header(rng)
        work = kern.prepare_header_work(base, target=1 << 200)
        for _ in range(20):
            nonce = rng.getrandbits(32)
            block2 = sha.pad_message(base[:76] + nonce.to_bytes(4, "big"))[1]
            w = sha.expand_schedule(block2)
            assert work.sched0[16] == w[16]
            assert work.sched0[17] == w[17]
            assert (work.sched0[18] + sha.little_sigma0(nonce)) % 2**32 == w[18]
            assert (work.sched0[19] + nonce) % 2**32 == w[19]
            r4 = work.state_r4
            assert sha.compression_round(work.state_r3, nonce, sha.K[3]) == r4._replace(
                a=(r4.a + nonce) % 2**32, e=(r4.e + nonce) % 2**32)

    def test_w16_zero_word_reduction(self):
        # with words 9 and 14 zero the recurrence collapses to
        # sigma0(w1) + w0, a timestamp-dependent constant
        rng = random.Random(SEED + 4)
        base = _rand_header(rng)
        work = kern.prepare_header_work(base, target=1 << 200)
        w0, w1, _ = struct.unpack(">3I", base[64:76])
        assert work.sched0[16] == (sha.little_sigma0(w1) + w0) % 2**32

    @staticmethod
    def _full_tables(work):
        return (kern._kw_table(work.sched0, costs.FOLDED_ROUNDS[2], FULL),
                kern._kw_table(kern._COMP3_BLOCK, costs.FOLDED_ROUNDS[3], FULL))

    def test_fold_table_covers_constant_rounds(self):
        base = random.Random(SEED + 5).randbytes(80)
        work = kern.prepare_header_work(base, target=1 << 200)
        kw2, kw3 = self._full_tables(work)
        folded2 = [t for t, kw in enumerate(kw2) if kw is not None]
        folded3 = [t for t, kw in enumerate(kw3) if kw is not None]
        assert folded2 == list(range(4, 18))
        assert folded3 == list(range(8, 16))
        # 16 zero words + 2 marker words + 2 length words + W16 + W17
        assert len(folded2) + len(folded3) == 22

    def test_fold_values(self):
        base = random.Random(SEED + 6).randbytes(80)
        work = kern.prepare_header_work(base, target=1 << 200)
        kw2, kw3 = self._full_tables(work)
        assert kw2[4] == (sha.K[4] + 0x80000000) % 2**32
        assert kw2[5] == sha.K[5]
        assert kw2[15] == (sha.K[15] + 640) % 2**32
        assert kw3[8] == (sha.K[8] + 0x80000000) % 2**32
        assert kw3[15] == (sha.K[15] + 256) % 2**32

    def test_zero_target_rejected(self):
        base = random.Random(SEED + 7).randbytes(80)
        with pytest.raises(ValueError, match="zero target"):
            kern.prepare_header_work(base, target=0)

    def test_bad_tail_length(self):
        with pytest.raises(ValueError):
            kern.prepare_header_work(bytes(75), 1 << 200)

class TestRejectionConstants:
    def test_complements_of_iv(self):
        e60, e61 = (1 << 32) - sha.IV.h, (1 << 32) - sha.IV.g
        assert e60 == 0xA41F32E7
        assert e61 == 0xE07C2655
        assert (0x5BE0CD19 + e60) % 2**32 == 0
        assert (0x1F83D9AB + e61) % 2**32 == 0

    def test_forced_states_zero_digest_words(self):
        # build round-61 states that hit both constants and complete them:
        # digest words 7 and 6 must come out zero regardless of the rest
        rng = random.Random(SEED + 8)
        e60, e61 = (1 << 32) - sha.IV.h, (1 << 32) - sha.IV.g
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
            res = kern.scan(work, nonce, nonce, improvements=GENERIC)
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
            res = kern.scan(work, 0, 0x3FFFF)
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
        res = kern.scan(work, 0, 0x3FFFF)
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

    def test_winner_in_highest_subrange(self, monkeypatch, span_log):
        # the only winner lies in the last chunk, chunk 8, dealt to the
        # highest of three spans, which a child process scans; the calling
        # thread scans chunks 0, 3 and 6 and finds nothing
        nonce = int.from_bytes(GENESIS[76:80], "big")
        work = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        lo, hi = nonce - 8191 - 50, nonce + 50
        one = kern.scan(work, lo, hi, threads=1, chunk=1024)
        span_log()
        monkeypatch.setattr(kern, "CPUS", 3)
        three = kern.scan(work, lo, hi, threads=3, chunk=1024)
        spans = span_log()
        _assert_dealt(spans, lo, hi, 1024)
        assert spans[-1][0][-1] == lo + 8 * 1024 <= nonce <= hi
        assert three.found == one.found
        assert three.found.digest == _dsha(GENESIS)
        assert one.nonces_tried == 8192 + 50
        assert self._counters(three) == self._counters(one)

    @pytest.mark.parametrize("cpus, threads", [(1, 2), (2, 6)])
    def test_spans_capped_at_cpus(self, monkeypatch, span_log, forks, cpus, threads):
        # more threads asked for than the process has CPUs: one span per CPU,
        # the calling thread's and one per child process, dealt the range's
        # chunks at the full chunk; the winner is in the last chunk, so the
        # winner and counters are the one-thread scan's
        nonce = int.from_bytes(GENESIS[76:80], "big")
        work = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        lo, hi = nonce - 8191, nonce + 100
        one = kern.scan(work, lo, hi, threads=1, chunk=1024)
        assert forks == [] and len(span_log()) == 1
        monkeypatch.setattr(kern, "CPUS", cpus)
        many = kern.scan(work, lo, hi, threads=threads, chunk=1024)
        spans = span_log()
        assert len(forks) == cpus - 1 and len(spans) == cpus
        _assert_dealt(spans, lo, hi, 1024)
        assert many.found == one.found and one.found.digest == _dsha(GENESIS)
        assert one.nonces_tried == 8192
        assert self._counters(many) == self._counters(one)

    def test_one_chunk_forks_nothing(self, monkeypatch, forks):
        # 64 threads asked for over 64 nonces on two CPUs: one chunk at the
        # default chunk, so one span on the calling thread and no child; at
        # chunk 32, two chunks, so two spans, one of them in the single
        # child process, which scans the winner's chunk
        nonce = int.from_bytes(GENESIS[76:80], "big")
        work = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        one = kern.scan(work, nonce - 63, nonce, threads=1)
        monkeypatch.setattr(kern, "CPUS", 2)
        many = kern.scan(work, nonce - 63, nonce, threads=64)
        assert forks == []
        assert many == one and one.found.digest == _dsha(GENESIS)
        assert one.nonces_tried == 64
        assert kern.scan(work, nonce - 63, nonce, threads=64, chunk=32) == one
        assert len(forks) == 1

    def test_threads_past_cpu_count_keep_the_chunk(self, monkeypatch, span_log):
        # 64 threads asked for on two CPUs: two spans dealt the range's
        # chunks, each running the default chunk, and the one-thread result
        nonce = int.from_bytes(GENESIS[76:80], "big")
        work = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        lo, hi = nonce - 40000, nonce + 100
        one = kern.scan(work, lo, hi, threads=1)
        span_log()
        monkeypatch.setattr(kern, "CPUS", 2)
        many = kern.scan(work, lo, hi, threads=64)
        spans = span_log()
        assert len(spans) == 2
        _assert_dealt(spans, lo, hi, kern.DEFAULT_CHUNK)
        assert many.found == one.found and one.found.digest == _dsha(GENESIS)
        assert self._counters(many) == self._counters(one)

    def test_span_claims_under_contention(self, monkeypatch):
        # 32 threads asked for on eight CPUs: eight spans, the calling
        # thread's and seven child processes, forked from a worker thread
        # while the interpreter switches threads every 10 us; a span scanned
        # twice or never changes the exhaustive counters, and a lost or
        # misread find can hand the win to a higher nonce or change the
        # counters, which end at the winner
        monkeypatch.setattr(kern, "CPUS", 8)
        base = random.Random(SEED + 37).randbytes(80)
        none = kern.prepare_header_work(base, target=1)
        some = kern.prepare_header_work(base, target=1 << 249)
        want_none = kern.scan(none, 0, 2047, threads=1, chunk=32)
        want_some = kern.scan(some, 0, 2047, threads=1, chunk=32)
        assert want_some.found is not None and want_some.nonces_tried < 1024
        results = []

        def scans():
            for _ in range(3):
                results.append((kern.scan(none, 0, 2047, threads=32, chunk=32),
                                kern.scan(some, 0, 2047, threads=32, chunk=32)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=scans, daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(results) == 3
        for got_none, got_some in results:
            assert self._counters(got_none) == self._counters(want_none)
            assert got_some == want_some

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("chunk", [64, 1000, 4096])
    def test_threads_equal_one_thread(self, monkeypatch, cpus, chunk):
        # dealt chunks and counters that end at the winner make a scan on
        # any number of spans the one-span scan, field for field: the
        # genesis winner in the first chunk, in a chunk of every span and in
        # the last chunk, ranges with no find, and finds in several spans at
        # once, on the full and the none sets
        nonce = int.from_bytes(GENESIS[76:80], "big")
        genesis = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        never = kern.prepare_header_work(GENESIS, 1)
        rng = random.Random(SEED + 47 + 7 * cpus + chunk)
        cases = []
        for k in range(cpus + 2):  # the winner in chunk k, dealt to span k mod cpus
            lo = nonce - k * chunk - rng.randrange(chunk)
            cases.append((genesis, lo, lo + (cpus + 2) * chunk + rng.randrange(chunk)))
        # the winner in the last chunk, chunk cpus + 1, which a child scans
        cases.append((genesis, lo, nonce + rng.randrange(lo + (cpus + 2) * chunk - nonce)))
        lo = rng.randrange(1 << 31)
        cases += [(genesis, nonce + 1, nonce + cpus * chunk + rng.randrange(chunk)),
                  (never, lo, lo + cpus * chunk + rng.randrange(chunk))]
        # about one find per cpus chunks, so spans also find above the winner
        some = kern.prepare_header_work(GENESIS, (1 << 256) // (cpus * chunk))
        for start in range(lo, lo + 9 * cpus * chunk, 3 * cpus * chunk):
            cases.append((some, start, start + 4 * cpus * chunk))
        monkeypatch.setattr(kern, "CPUS", cpus)
        for work, lo, hi in cases:
            for s in (FULL, costs.ImprovementSet.none()):
                one = kern.scan(work, lo, hi, improvements=s, threads=1, chunk=chunk)
                assert kern.scan(work, lo, hi, improvements=s, threads=cpus, chunk=chunk) == one
                assert one.nonces_tried == (hi if one.found is None else one.found.nonce) - lo + 1
                if work is genesis:
                    assert (one.found is not None) == (lo <= nonce <= hi)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_scan_to_the_top_of_the_nonce_space(self, monkeypatch, cpus):
        # 1,100 nonces up to 0xFFFFFFFF at chunk 64: 17 full chunks and a
        # 12-lane last chunk, whose other 52 lanes wrap to nonces 0..51.
        # One header has its one find at 2^247 in chunk 13; the other has
        # none, but nonces 28 and 45 pass its filter in the wrapped lanes
        lo = sha.MASK32 - 1099
        found, wrapped = (random.Random(SEED + k).randbytes(80) for k in (69, 129))
        cases = [(found, 1 << 247), (wrapped, 1 << 247), (wrapped, 1)]
        assert _word7_lanes(kern.prepare_header_work(wrapped, 1 << 247), 0, 52) == [28, 45]
        monkeypatch.setattr(kern, "CPUS", cpus)
        for header, target in cases:
            work = kern.prepare_header_work(header, target)
            first = next((n for n in range(lo, sha.MASK32 + 1)
                          if hdr.meets_target(_dsha(_header_at(header, n)), target)), None)
            assert first == (0xFFFFFF05 if header is found and target > 1 else None)
            for s in (FULL, costs.ImprovementSet.none()):
                one = kern.scan(work, lo, sha.MASK32, improvements=s, threads=1, chunk=64)
                assert kern.scan(work, lo, sha.MASK32, improvements=s, threads=3, chunk=64) == one
                assert (one.found and one.found.nonce) == first, str(s)
                assert one.nonces_tried == (sha.MASK32 if first is None else first) - lo + 1

    def test_span_reports_hold_nothing_per_chunk(self, monkeypatch):
        # a span reports its find, the rounds each lane ran and its
        # survivors, however many chunks it scanned
        reports = []
        scan_range = kern._scan_range

        def recording(*args):
            reports.append(scan_range(*args))
            return reports[-1]

        monkeypatch.setattr(kern, "_scan_range", recording)
        work = kern.prepare_header_work(random.Random(SEED + 48).randbytes(80), target=1)
        for chunks in (1, 64):
            assert kern.scan(work, 0, 32 * chunks - 1, chunk=32).nonces_tried == 32 * chunks
        assert reports == [(None, costs.executed_rounds(FULL) + 1, [])] * 2

    def test_span_publishes_and_stops_on_finds(self):
        # a span stores its find in its own slot, and stops before a chunk
        # that starts above a find in any slot
        nonce = int.from_bytes(GENESIS[76:80], "big")
        work = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        finds = array.array("I", [sha.MASK32] * 2)
        starts, owner = range(nonce - 200, nonce + 64, 64), os.getpid()
        found = kern._scan_range(work, starts, FULL, 64, finds, 1, owner)[0]
        assert found.nonce == nonce and list(finds) == [sha.MASK32, nonce]
        # a find at nonce - 100 ends span 0 before its chunk at nonce - 72
        finds[1] = nonce - 100
        assert kern._scan_range(work, starts, FULL, 64, finds, 0, owner) == (
            None, costs.executed_rounds(FULL) + 1, [])
        assert list(finds) == [sha.MASK32, nonce - 100]

    def test_span_stops_once_its_owner_died(self):
        # an owner that is neither the span's process nor its parent (no
        # process has pid 0) has died: the span runs no chunk
        work = kern.prepare_header_work(GENESIS, 1)
        finds = array.array("I", [sha.MASK32])
        assert kern._scan_range(work, range(0, 128, 64), FULL, 64, finds, 0, 0) == (None, 0, [])

    def test_failed_child_span_raises(self, monkeypatch, forks):
        # a span that raises in its child fails the whole scan, never a short
        # result, and the child is reaped
        scan_range = kern._scan_range

        def failing(work, starts, *rest):
            if starts.start:
                raise MemoryError("no bank")
            return scan_range(work, starts, *rest)

        monkeypatch.setattr(kern, "CPUS", 2)
        monkeypatch.setattr(kern, "_scan_range", failing)
        work = kern.prepare_header_work(random.Random(SEED + 38).randbytes(80), target=1)
        with pytest.raises(RuntimeError, match=r"span 1 of 2 \(first chunk at nonce 1024\) failed "
                                               r"in its child process: MemoryError: no bank"):
            kern.scan(work, 0, 4095, threads=2, chunk=1024)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_dead_without_report_raises(self, monkeypatch, forks):
        # a child killed before it reports fails the scan with its exit
        # status, and is reaped
        scan_range = kern._scan_range

        def killed(work, starts, *rest):
            if starts.start:
                os.kill(os.getpid(), signal.SIGKILL)
            return scan_range(work, starts, *rest)

        monkeypatch.setattr(kern, "CPUS", 2)
        monkeypatch.setattr(kern, "_scan_range", killed)
        work = kern.prepare_header_work(random.Random(SEED + 38).randbytes(80), target=1)
        with pytest.raises(RuntimeError, match=r"span 1 of 2 \(first chunk at nonce 1024\) failed "
                                               r"in its child process: exit status -9"):
            kern.scan(work, 0, 4095, threads=2, chunk=1024)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupted_scan_reaps_children(self, monkeypatch, forks):
        # the calling thread's span is interrupted while the child's still
        # runs: the scan kills the child and reaps it before it raises
        def interrupted(work, starts, *rest):
            if starts.start == 0:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(kern, "CPUS", 2)
        monkeypatch.setattr(kern, "_scan_range", interrupted)
        work = kern.prepare_header_work(random.Random(SEED + 39).randbytes(80), target=1)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            kern.scan(work, 0, 4095, threads=2, chunk=1024)
        assert len(forks) == 1 and time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_write_nothing(self, monkeypatch, forks, tmp_path, capfd):
        # a child leaves with os._exit: it writes nothing to stdout or stderr
        # and does not flush a copy of the parent's unwritten buffers
        monkeypatch.setattr(kern, "CPUS", 2)
        work = kern.prepare_header_work(random.Random(SEED + 40).randbytes(80), target=1)
        with open(tmp_path / "out", "w") as out:
            out.write("written once")
            assert kern.scan(work, 0, 4095, threads=2, chunk=1024).nonces_tried == 4096
        assert len(forks) == 1
        assert (tmp_path / "out").read_text() == "written once"
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        base = random.Random(SEED + 22).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 200)
        with pytest.raises(ValueError, match="threads"):
            kern.scan(work, 0, 10, threads=threads)

    @pytest.mark.parametrize("target_bits", [240, 248, 255])
    def test_early_exit_sound_at_desk_targets(self, target_bits):
        # the word-7 filter keeps every lane whose top limb can still win,
        # so early exit finds what generic mode and hashlib find
        base = random.Random(SEED + 19 + target_bits).randbytes(80)
        target = 1 << target_bits
        work = kern.prepare_header_work(base, target)
        early = kern.scan(work, 0, (1 << 20) - 1, chunk=4096)
        generic = kern.scan(work, 0, (1 << 20) - 1, improvements=GENERIC, chunk=4096)
        want = next(n for n in range(1 << 20)
                    if hdr.meets_target(_dsha(_header_at(base, n)), target))
        assert early.found == generic.found
        assert early.found.nonce == want
        assert early.found.digest == _dsha(_header_at(base, want))
        assert early.nonces_tried == generic.nonces_tried == want + 1

    @pytest.mark.parametrize("mode", ["generic", "early-exit"])
    def test_target_tie_goes_to_referee(self, mode):
        # a digest equal to the target ties the filter's top limb; the
        # referee decides, and hash < target is strict
        base = random.Random(SEED + 23).randbytes(80)
        digest = _dsha(_header_at(base, 77))
        value = hdr.hash_to_int(digest)
        for target, found in ((value, False), (value + 1, True)):
            work = kern.prepare_header_work(base, target)
            res = kern.scan(work, 77, 77, improvements=MODE_SETS[mode])
            assert (res.found is not None) is found
            assert res.nonces_tried == 1
            if found:
                assert res.found == kern.FoundNonce(77, digest)

    def test_referee_hashes_header_bytes(self):
        # the referee reads only the header bytes: a corrupted midstate
        # misleads the lanes' filter but never the reported digest
        base = random.Random(SEED + 24).randbytes(80)
        work = dataclasses.replace(kern.prepare_header_work(base, 1 << 255), midstate=sha.IV)
        finds = 0
        for lo in range(0, 64 * 16, 16):
            res = kern.scan(work, lo, lo + 15)
            if res.found is not None:
                finds += 1
                assert res.found.digest == _dsha(_header_at(base, res.found.nonce))
        assert finds >= 48

    def test_empty_range_scans_nothing(self):
        base = random.Random(SEED + 20).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 200)
        assert kern.scan(work, 5, 4) == kern.ScanResult()
        # the thread and chunk checks still hold on an empty range
        with pytest.raises(ValueError, match="threads"):
            kern.scan(work, 5, 4, threads=0)
        with pytest.raises(ValueError, match="chunk"):
            kern.scan(work, 5, 4, chunk=kern.MAX_CHUNK + 1)

    @settings(max_examples=40, deadline=None)
    @given(cut=_cut_range(), improvements=st.sampled_from([FULL, GENERIC]))
    def test_split_scan_composes(self, cut, improvements):
        # a scan cut at k, its empty ends included, is the scan of the whole
        # range: the first part's find wins, else the counters add up and
        # the second part's find is the find
        lo, hi, k = cut
        scan = lambda a, b: kern.scan(_SPLIT_WORK, a, b, improvements=improvements,
                                      threads=1, chunk=256)
        want = first = scan(lo, k - 1)
        if first.found is None:
            second = scan(k, hi)
            want = kern.ScanResult(found=second.found, **{
                name: getattr(first, name) + getattr(second, name)
                for name in ("nonces_tried", "rounds_executed",
                             "stage1_survivors", "stage2_survivors")})
        assert scan(lo, hi) == want

    def test_nonce_bounds_checked(self):
        base = random.Random(SEED + 21).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 200)
        # empty ranges too: both ends must be 32-bit values
        for lo, hi in ((0, 1 << 32), (0, -1), (1 << 32, (1 << 32) - 1)):
            with pytest.raises(ValueError, match="32-bit"):
                kern.scan(work, lo, hi)

class TestChunkRule:
    """Every span runs the chunk given, :data:`kernel.DEFAULT_CHUNK` without
    one, whatever the thread count; the chunk never changes what a scan
    finds or counts."""

    @staticmethod
    def _outcome(res):
        return (res.found, res.nonces_tried, res.rounds_executed,
                res.stage1_survivors, res.stage2_survivors)

    @pytest.mark.parametrize("threads, chunk", [(1, 1 << 14), (2, 1 << 14), (3, 1 << 14)])
    def test_default_chunk_on_every_span(self, threads, chunk, monkeypatch, span_log):
        # spans in child processes do not contend for the GIL, so the
        # default chunk is the same on every span at every thread count
        work = kern.prepare_header_work(random.Random(SEED + 45).randbytes(80), 1)
        for cpus in (2, 1):  # on one CPU every thread count runs one span
            monkeypatch.setattr(kern, "CPUS", cpus)
            assert kern.scan(work, 0, 2 * chunk - 1, threads=threads).nonces_tried == 2 * chunk
            spans = span_log()
            assert len(spans) == min(threads, cpus)
            assert {c for _, _, c in spans} == {chunk}

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1000, 1 << 14, 1 << 16])
    def test_explicit_chunk_kept(self, threads, chunk, monkeypatch, span_log):
        # 100 nonces are one chunk, so one span at any thread count; one
        # chunk more makes two chunks, and as many spans as the CPUs allow
        monkeypatch.setattr(kern, "CPUS", 2)
        work = kern.prepare_header_work(random.Random(SEED + 45).randbytes(80), 1)
        assert kern.scan(work, 0, 99, threads=threads, chunk=chunk).nonces_tried == 100
        assert [c for _, _, c in span_log()] == [chunk]
        two = kern.scan(work, 0, chunk + 99, threads=threads, chunk=chunk)
        assert two.nonces_tried == chunk + 100
        spans = span_log()
        assert len(spans) == min(threads, 2)
        assert {c for _, _, c in spans} == {chunk}

    @pytest.mark.parametrize("chunk", [0, (1 << 20) + 1])
    def test_chunk_out_of_bounds_rejected(self, chunk):
        # a small range allocates min(chunk, range) lanes, so this fails safely
        # even where the bound is missing
        work = kern.prepare_header_work(random.Random(SEED + 44).randbytes(80), 1)
        with pytest.raises(ValueError, match="chunk"):
            kern.scan(work, 0, 15, chunk=chunk)
        assert kern.scan(work, 0, 15, chunk=1 << 20).nonces_tried == 16

    def test_early_exit_exhaustive_scan_same_at_any_chunk(self):
        work = kern.prepare_header_work(random.Random(SEED + 42).randbytes(80), 1 << 155)
        results = [kern.scan(work, 0, (1 << 17) - 1, threads=1, chunk=c)
                   for c in (1 << 12, 1 << 14, 1 << 16)]
        assert results[0].found is None and results[0].nonces_tried == 1 << 17
        assert len({self._outcome(r) for r in results}) == 1

    def test_generic_find_same_at_any_chunk(self):
        base = random.Random(SEED + 43).randbytes(80)
        work = kern.prepare_header_work(base, 1 << 240)
        results = [kern.scan(work, 0, 0x3FFFF, improvements=GENERIC, threads=1, chunk=c)
                   for c in (1 << 12, 1 << 14, 1 << 16)]
        found = results[0].found
        assert found is not None
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
        res = kern.scan(work, 0, (1 << 14) - 1, improvements=GENERIC)
        if res.found is None:
            assert res.rounds_executed == 125 * res.nonces_tried
        assert abs(res.compressions_equivalent - 125 / 64) < 1e-12

    @pytest.mark.parametrize("target_bits, extra_rounds", [(191, 1), (200, 3)])
    def test_genesis_survivor_rounds(self, target_bits, extra_rounds):
        # the genesis hash is about 2^212.7, so its nonce is the one filter
        # survivor of the window: below 2^192 its nonzero word 6 stops it
        # after round 61, above it runs rounds 61..63 and misses the target
        nonce = int.from_bytes(GENESIS[76:80], "big")
        work = kern.prepare_header_work(GENESIS, 1 << target_bits)
        res = kern.scan(work, nonce - 1000, nonce + 1000, threads=1)
        n = 2001
        assert res.found is None and res.nonces_tried == n
        assert (res.stage1_survivors, res.stage2_survivors) == (1, 0)
        assert res.rounds_executed == 122 * n + extra_rounds

    def test_survivor_rate_small_scan(self):
        # lambda = 2^20 / 2^32, so even two survivors is a 1e-8 event
        base = random.Random(SEED + 25).randbytes(80)
        work = kern.prepare_header_work(base, target=1)
        res = kern.scan(work, 0, (1 << 20) - 1)
        assert res.found is None
        assert res.stage1_survivors <= 2
        assert res.stage2_survivors <= res.stage1_survivors

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
            res = kern.scan(work, lo, lo + 4095, improvements=s)
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

class _UfuncCounter:
    """Stands in for numpy in :mod:`minerlab.kernel` and counts each ufunc
    call by name; everything else passes through."""

    def __init__(self):
        self.calls = collections.Counter()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not isinstance(attr, np.ufunc):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted

def _count_chunk(monkeypatch, s, lanes: int = 1):
    """The ufunc calls and the scan result of one ``lanes``-wide chunk of
    set ``s`` at an unreachable target."""
    work = kern.prepare_header_work(random.Random(SEED + 36).randbytes(80), 1)
    counter = _UfuncCounter()
    with monkeypatch.context() as m:
        m.setattr(kern, "np", counter)
        res = kern.scan(work, 0, lanes - 1, improvements=s, chunk=lanes)
    assert res.found is None and res.nonces_tried == lanes
    return counter.calls, res

def _lane_adder_departures(s) -> int:
    """Where the lanes' additions per nonce depart from ``costs.adder_count``."""
    return (-7  # the final feedforward: the lanes add digest word 7 only
            - 8 * ("7" in s)  # W16 and W17 are filled, W18 is base + sigma0(nonce)
            - 1 * ("8" in s)  # W19 is base + nonce
            + 1 * ("4" in s))  # two increments; the model charges one adder

class TestCostConvention:
    """The lanes against the paper's cost model: the same rounds and
    additions but for the departures named here."""

    def test_lane_additions_match_model(self, monkeypatch):
        for s in LANE_SETS:
            calls, res = _count_chunk(monkeypatch, s)
            adds = calls["add"] - 1  # less the nonce fill
            assert adds == costs.adder_count(s) + _lane_adder_departures(s), str(s)
            round3 = 1 if "4" in s else 0
            assert res.rounds_executed == costs.executed_rounds(s) + round3, str(s)
        assert _count_chunk(monkeypatch, FULL)[0]["add"] - 1 == 1105
        assert _count_chunk(monkeypatch, costs.ImprovementSet.none())[0]["add"] - 1 == 1793

    @pytest.mark.parametrize("lanes", [1, 4096])
    def test_ufunc_calls_per_chunk(self, monkeypatch, lanes):
        # with the nonce fill and the word-7 add; the baseline of the fold floor
        for s, want in ((FULL, 6226), (costs.ImprovementSet.none(), 9954)):
            assert sum(_count_chunk(monkeypatch, s, lanes)[0].values()) == want, str(s)

def _cover_sets():
    """Each of flags 1-8 on and off: none, full, and per flag the largest
    lane set without it and the smallest with it."""
    sets = {costs.ImprovementSet.none(), FULL}
    for f in "12345678":
        sets.add(max((s for s in LANE_SETS if f not in s), key=lambda s: len(s.flags)))
        sets.add(min((s for s in LANE_SETS if f in s), key=lambda s: len(s.flags)))
    return sorted(sets, key=str)

def _word7_lanes(work, pos, width):
    """The lanes ``i < width`` whose nonce ``(pos + i) mod 2^32`` passes the
    word-7 filter, by hashlib: digest word 7 at most the target's top limb."""
    limb = work.target >> 224
    return [i for i in range(width) if int.from_bytes(
        _dsha(_header_at(work.header, (pos + i) & sha.MASK32))[28:32], "little") <= limb]

class TestLaneSeam:
    """``_Lanes(work, s, width)`` and its ``chunk(pos)``, the one seam
    between the lanes and the scan loop: lane i hashes nonce ``(pos + i)
    mod 2^32``, and a chunk returns exactly the lanes whose digest word 7
    is at most the target's top limb, and the rounds each lane ran."""

    COVER = _cover_sets()

    @staticmethod
    def _check(lanes, work, pos, width, s):
        candidates, rounds = lanes.chunk(pos)
        want = _word7_lanes(work, pos, width)
        assert candidates == want, str(s)
        assert rounds == costs.executed_rounds(s) + ("4" in s), str(s)
        return want

    def test_candidates_are_the_word7_filter(self):
        rng = random.Random(SEED + 60)
        passed = 0
        for s in self.COVER:
            # about 1 lane in 64 passes at a target near 2^250
            work = kern.prepare_header_work(rng.randbytes(80), (1 << 250) + rng.getrandbits(248))
            pos = rng.randrange((1 << 32) - 377)
            lanes = kern._Lanes(work, s, 300)
            passed += len(self._check(lanes, work, pos, 300, s))
            # the same lanes from 77 below 2^32 wrap to nonces 0..222
            passed += len(self._check(lanes, work, (1 << 32) - 77, 300, s))
        assert passed > 2 * len(self.COVER)

    @pytest.mark.parametrize("width", [1, 77, 1 << 14])
    def test_bank_rows_start_on_cache_lines(self, width):
        # numpy's loops ran a chunk about 15% slower with the rows 16 bytes
        # off a 32-byte boundary, so no row may start where malloc happens to
        for s in (FULL, costs.ImprovementSet.none()):
            lanes = kern._Lanes(_SPLIT_WORK, s, width)
            rows = lanes.regs + lanes.ring + lanes.mids + [
                lanes.t1, lanes.t2, lanes.ta, lanes.tb, lanes.nonces, lanes.offsets]
            assert len({row.ctypes.data for row in rows}) == (30 if "1" in s else 38)
            assert all(row.shape == (width,) and row.ctypes.data % 64 == 0 for row in rows)

    def test_one_lanes_per_span_and_no_lane_past_the_end(self, monkeypatch, tmp_path):
        # a range that ends just below a lane passing the filter, in its
        # last chunk: every span makes one _Lanes and calls chunk once per
        # chunk start, at full width, and the lanes past the range's end
        # reach neither the referee nor the counters
        log = tmp_path / "log"
        log.touch()

        def note(*words):  # appends from any span's process
            with open(log, "a") as out:
                out.write(" ".join(map(str, words)) + "\n")

        class Recorded(kern._Lanes):
            def __init__(self, work, s, width):
                super().__init__(work, s, width)
                note("lanes", width)

            def chunk(self, pos):
                note("chunk", pos)
                return super().chunk(pos)

        complete_nonce = kern.complete_nonce

        def referee(work, nonce):
            note("referee", nonce)
            return complete_nonce(work, nonce)

        monkeypatch.setattr(kern, "_Lanes", Recorded)
        monkeypatch.setattr(kern, "complete_nonce", referee)
        monkeypatch.setattr(kern, "CPUS", 2)
        rng = random.Random(SEED + 61)
        work = kern.prepare_header_work(rng.randbytes(80), (1 << 250) + rng.getrandbits(248))
        # two lanes that pass with none between, a gap that is not whole chunks
        passing = _word7_lanes(work, 0, 4096)
        lo, hi = next((a + 1, b - 1) for a, b in zip(passing, passing[1:])
                      if b - a > 40 and (b - a - 1) % 16)
        for threads in (1, 2):
            res = kern.scan(work, lo, hi, chunk=16, threads=threads)
            assert (res.found, res.nonces_tried, res.stage1_survivors) == (None, hi - lo + 1, 0)
            calls = sorted(line.split() for line in log.read_text().splitlines())
            log.write_text("")
            assert calls == sorted([["chunk", str(pos)] for pos in range(lo, hi + 1, 16)]
                                   + [["lanes", "16"]] * threads)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_second_backend_scans_like_numpy(self, monkeypatch, cpus):
        # a backend with only the seam's two calls, hashing each lane with
        # hashlib, scans every range as the numpy lanes do, field for field
        class HashlibLanes:
            def __init__(self, work, s, width):
                self.work, self.s, self.width = work, s, width

            def chunk(self, pos):
                return _word7_lanes(self.work, pos, self.width), (
                    costs.executed_rounds(self.s) + ("4" in self.s))

        nonce = int.from_bytes(GENESIS[76:80], "big")
        genesis = kern.prepare_header_work(GENESIS, hdr.decode_nbits(0x1D00FFFF))
        some = kern.prepare_header_work(GENESIS, 1 << 247)
        never = kern.prepare_header_work(GENESIS, 1)
        monkeypatch.setattr(kern, "CPUS", cpus)
        for chunk in (64, 100, 128):
            cases = [(genesis, nonce - 10, nonce + 5 * chunk + 9),  # the find in span 0
                     (genesis, nonce - chunk - 10, nonce + 3 * chunk + 1),  # in chunk 1
                     (some, 4100, 4100 + 12 * chunk + 33),  # 3-4 finds, the first in a child
                     (never, 7, 7 + 6 * chunk + 50)]  # exhausted
            for work, lo, hi in cases:
                for s in (FULL, costs.ImprovementSet.none()):
                    want = kern.scan(work, lo, hi, improvements=s, threads=cpus, chunk=chunk)
                    with monkeypatch.context() as m:
                        m.setattr(kern, "_Lanes", HashlibLanes)
                        got = kern.scan(work, lo, hi, improvements=s, threads=cpus, chunk=chunk)
                    assert got == want, (chunk, lo, hi, str(s))
                    if work is not never:
                        assert want.found is not None
