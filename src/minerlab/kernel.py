"""Double-SHA-256 nonce scanner: one lane pipeline, switched by improvement flags.

Hashing an 80-byte header costs three compression functions when done
naively: two for the 640-bit first hash, one for the 256-bit second hash.
Every scan runs one vectorized pipeline whose steps a
:class:`~minerlab.costs.ImprovementSet` selects.  With no flags it is the
by-the-book three-compression miner; with every flag it is the 121/64
pipeline.  Whatever the set, results are bit-identical to the reference in
:mod:`minerlab.sha256`.  Each flag switches one step:

* 1: the first compression covers header bytes 0..63 only, so its output
  (the midstate) is computed once per work item and shared by all 2^32
  nonces.  Off, every lane recomputes it.
* 3: the nonce is message word 3 of the second compression, so rounds 0..2
  are nonce-independent; they run once, at preparation time, and the lanes
  start at round 3.  Off, the lanes start at round 0.
* 4: round 3 is incremental: word 3 enters the round additively in exactly
  one place, so the post-round-3 A and E registers are precomputed bases
  plus the nonce, and the lanes start at round 4.
* 7: schedule words W16 and W17 depend only on nonce-independent words and
  are precomputed; W18 is a precomputed base plus one sigma0 of the nonce.
  Off, the lanes run the schedule recurrence for them.
* 8: W19 is a precomputed base plus the nonce.  Off, the recurrence.
* 5 and 6: every round whose message word is a known constant adds a
  pre-folded K_t + W_t, one addition less per round: the zeros and the
  0x80000000 marker under 5, the two length words under 6, and W16/W17
  when 7 precomputes them.  Off, W and K are added separately.
* 2: the third compression stops after round 60, whose E value plus the
  IV constant 0x5BE0CD19 is digest word 7: rounds 61..63 only shift it on
  into register H.  Off, all 64 rounds run.

Flags X and X2 (carry-save adders) exist only in the gate-level model of
:mod:`minerlab.costs`; they have no effect on the lanes.

The nonce-independent bases are the reference of :mod:`minerlab.sha256`
run at nonce 0: the second compression's schedule and its state after
round 3.  The lanes add only the nonce terms.

Every pipeline filters on that one word.  Byteswapped, digest word 7 is
the hash's most significant 32-bit limb, so a lane can qualify only when
it is at most ``target >> 224``.  Below 2^224 that limb is zero and only
lanes whose round-60 E value is 0xA41F32E7 = 2^32 - 0x5BE0CD19 pass, about
one in 2^32.  The referee (:func:`complete_nonce`) hashes each passing
lane's header bytes with the reference :func:`~minerlab.sha256.sha256d`
and decides exactly.  Nothing the lanes or the preparation computed enters
it, so the reported digest is the reference hash of the reported bytes;
the filter passes at most 2^-32 extra lanes per nonce, those whose word 7
ties the target's top limb.
Under flag 2 a target below 2^192 also needs word 6 zero, which pins the
E value of round 61 to 0xE07C2655; the referee reads word 6 off the digest
it completes and counts the lanes that pass as stage-2 survivors.  Early
exit is thus sound at every target: a scan runs exactly the set it is
given, and which set suits which target is the caller's choice (``mine
--mode``).

The per-nonce arithmetic is vectorized over chunks of nonces as numpy
uint32 lanes.  At these widths numpy's per-call dispatch outweighs the
arithmetic (a chunk of the full set makes 6,226 ufunc calls; 64 lanes take
2.5-6 ms on a 2-vCPU x86-64 VM), so every operand in the round and schedule
loops is an array: numpy converts a Python int operand on every call, about
0.5 us of a 1.2 us call.  Ch is g ^ (e & (f ^ g)) and Maj (a & b) | (c & (a | b)), 3 and 4
calls where the textbook forms take 4 and 5.

Cost instrumentation counts block-cipher rounds; one :class:`ScanResult`
per scanning thread holds them, and :func:`scan` returns the sum, whose
``compressions_equivalent`` is the count in units of whole 64-round
compressions per nonce.  The rounds are counted from the rounds the lanes
run: each compression returns how many it ran, and the chunk adds the
incremental round 3 under flag 4.  Under flag 2 every filter survivor is
a stage-1 survivor and adds rounds 61..63, or only round 61 when its word
6 rejects it.  The subset tests check the count against the rounds per
nonce of the cost model in :mod:`minerlab.costs`, which leaves round 3 out.
Schedule work and feedforward additions are not counted separately.
"""

from __future__ import annotations

import copy
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import sha256 as sha
from .costs import ImprovementSet
from .header import meets_target

MASK32 = 0xFFFFFFFF
# Lanes per numpy call when the caller gives no chunk.  One thread: the 29
# lane buffers of 64 KB fit a 2 MB L2, and a find computes at most 2^14 - 1
# lanes past its winner.  Several threads: 2^14 calls make the threads convoy
# on the GIL, so they keep 2^16.
DEFAULT_CHUNK = 1 << 14
THREADED_CHUNK = 1 << 16
# The largest chunk a scan accepts, 4x the largest perfbench/sweep.py
# measures: 4 MiB for each of a thread's 29 lane buffers (37 without flag 1).
MAX_CHUNK = 1 << 20

WORD6_TARGET_BOUND = 1 << 192  # round-61 constant check sound below this

# Second-compression constant message words: 0x80000000 marker, ten zeros,
# and the 640-bit length of the 80-byte header.
_COMP2_PAD = (0x80000000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 640)
# Third-compression constant words by slot, behind the 8 hash words: marker,
# six zeros, and the 256-bit length.
_COMP3_PAD = dict(enumerate((0x80000000, 0, 0, 0, 0, 0, 0, 256), start=8))

# The flag under which each constant-word round adds its folded K+W.
_FOLD_FLAGS_COMP2 = {**dict.fromkeys(range(4, 15), "5"), 15: "6", 16: "7", 17: "7"}
_FOLD_FLAGS_COMP3 = {**dict.fromkeys(range(8, 15), "5"), 15: "6"}


def _u32(value: int) -> np.ndarray:
    """``value`` as a read-only 0-d uint32 array, the operand form the lanes pass."""
    arr = np.array(value, dtype=np.uint32)
    arr.flags.writeable = False
    return arr


_SHIFTS = tuple(_u32(n) for n in range(33))  # _SHIFTS[n] shifts by n
_K = tuple(_u32(k) for k in sha.K)


@dataclass(frozen=True)
class PreparedWork:
    """Everything nonce-independent, computed once per work item: the
    reference run at nonce 0.

    Immutable and safe to share across concurrent scanners.
    """

    midstate: sha.State
    header: bytes  # the 76 header bytes before the nonce
    sched0: tuple  # second-compression schedule W0..W63 at nonce 0
    state_r3: sha.State  # state entering round 3
    state_r4: sha.State  # state after round 3 at nonce 0; nonce n adds n to A and E
    target: int


@dataclass(frozen=True)
class FoundNonce:
    nonce: int
    digest: bytes


@dataclass
class ScanResult:
    """A scan's find and counters.  Each worker of :func:`scan` fills one,
    and the scan returns their sum."""

    found: FoundNonce | None = None
    nonces_tried: int = 0
    rounds_executed: int = 0
    stage1_survivors: int = 0
    stage2_survivors: int = 0

    @property
    def compressions_equivalent(self) -> float:
        """Rounds executed per nonce tried, in 64-round compressions."""
        return self.rounds_executed / 64 / self.nonces_tried if self.nonces_tried else 0.0


def prepare_header_work(header: bytes, target: int) -> PreparedWork:
    """Fold all nonce-independent work for one (header, target) pair.

    ``header`` is the serialized header, 76 bytes or 80 with the nonce
    field, which is ignored.  Bytes 0..63 are the first compression's
    block; its output, the midstate, is the same for every nonce, so its
    cost amortizes to 2^-32 compressions per nonce.  Bytes 64..75 (the
    last merkle-root word, the timestamp and the compact target) are the
    nonce-bearing block less the nonce itself.
    """
    if len(header) not in (76, 80):
        raise ValueError("header must be 76 or 80 bytes")
    if target <= 0:
        raise ValueError("zero target")
    if target >= 1 << 256:
        raise ValueError("target overflows 256 bits")
    midstate = sha.compress(sha.IV, struct.unpack(">16I", header[:64]))
    sched0 = tuple(sha.expand_schedule(struct.unpack(">3I", header[64:76]) + (0,) + _COMP2_PAD))
    state_r3 = midstate
    for t in range(3):
        state_r3 = sha.compression_round(state_r3, sched0[t], sha.K[t])
    return PreparedWork(
        midstate=midstate,
        header=header[:76],
        sched0=sched0,
        state_r3=state_r3,
        state_r4=sha.compression_round(state_r3, 0, sha.K[3]),
        target=target,
    )


# ---------------------------------------------------------------------------
# Vectorized engine: numpy uint32 lanes, preallocated buffers, in-place ops.


def _vrotr(x, n, out, tmp):
    np.right_shift(x, _SHIFTS[n], out)
    np.left_shift(x, _SHIFTS[32 - n], tmp)
    np.bitwise_or(out, tmp, out)


def _vbig_sigma0(x, out, t1, t2):
    _vrotr(x, 2, out, t1)
    _vrotr(x, 13, t1, t2)
    np.bitwise_xor(out, t1, out)
    _vrotr(x, 22, t1, t2)
    np.bitwise_xor(out, t1, out)


def _vbig_sigma1(x, out, t1, t2):
    _vrotr(x, 6, out, t1)
    _vrotr(x, 11, t1, t2)
    np.bitwise_xor(out, t1, out)
    _vrotr(x, 25, t1, t2)
    np.bitwise_xor(out, t1, out)


def _vlittle_sigma0(x, out, t1, t2):
    _vrotr(x, 7, out, t1)
    _vrotr(x, 18, t1, t2)
    np.bitwise_xor(out, t1, out)
    np.right_shift(x, _SHIFTS[3], t1)
    np.bitwise_xor(out, t1, out)


def _vlittle_sigma1(x, out, t1, t2):
    _vrotr(x, 17, out, t1)
    _vrotr(x, 19, t1, t2)
    np.bitwise_xor(out, t1, out)
    np.right_shift(x, _SHIFTS[10], t1)
    np.bitwise_xor(out, t1, out)


class _Lanes:
    """Preallocated uint32 lane buffers for one scanning thread, and the
    in-place pipeline steps that run over them."""

    def __init__(self, width: int, recompute_midstate: bool = False):
        mk = lambda: np.zeros(width, dtype=np.uint32)
        self.regs = [mk() for _ in range(8)]
        self.ring = [mk() for _ in range(16)]
        # per-lane midstates, allocated only for pipelines without flag 1
        self.mids = [mk() for _ in range(8)] if recompute_midstate else []
        self.t1, self.t2 = mk(), mk()
        self.ta, self.tb = mk(), mk()
        self.nonces = mk()

    def view(self, m: int) -> "_Lanes":
        """The first ``m`` lanes of every buffer, sharing their memory."""
        lanes = copy.copy(self)
        for name, buf in vars(self).items():
            setattr(lanes, name, [a[:m] for a in buf] if isinstance(buf, list) else buf[:m])
        return lanes

    def round(self, kw, w_vec, k):
        """One cipher round across all lanes; registers rotate by renaming."""
        a, b, c, d, e, f, g, h = self.regs
        t1, t2, ta, tb = self.t1, self.t2, self.ta, self.tb
        _vbig_sigma1(e, t1, ta, tb)
        np.bitwise_xor(f, g, ta)  # Ch = g ^ (e & (f ^ g))
        np.bitwise_and(ta, e, ta)
        np.bitwise_xor(ta, g, ta)
        np.add(t1, ta, t1)
        np.add(t1, h, t1)
        if kw is not None:
            np.add(t1, kw, t1)
        else:
            np.add(t1, w_vec, t1)
            np.add(t1, k, t1)
        _vbig_sigma0(a, t2, ta, tb)
        np.bitwise_or(a, b, ta)  # Maj = (a & b) | (c & (a | b))
        np.bitwise_and(ta, c, ta)
        np.bitwise_and(a, b, tb)
        np.bitwise_or(ta, tb, ta)
        np.add(t2, ta, t2)
        np.add(d, t1, d)  # becomes the new E
        np.add(t1, t2, h)  # becomes the new A
        self.regs = [h, a, b, c, d, e, f, g]

    def sched(self, t):
        """w[t] = sigma1(w[t-2]) + w[t-7] + sigma0(w[t-15]) + w[t-16],
        written over the ring slot holding w[t-16].  The sigmas take their
        scratch from t1 and t2, which :meth:`round` writes before it reads."""
        ring, ta, tb, t1, t2 = self.ring, self.ta, self.tb, self.t1, self.t2
        _vlittle_sigma1(ring[(t - 2) & 15], ta, t1, t2)
        np.add(ta, ring[(t - 7) & 15], ta)
        _vlittle_sigma0(ring[(t - 15) & 15], tb, t1, t2)
        np.add(ta, tb, ta)
        np.add(ta, ring[t & 15], ring[t & 15])

    def fill_regs(self, values):
        for reg, value in zip(self.regs, values):
            reg[:] = value

    def compress(self, kw_table, first=0, last=63, fixed_words=None) -> int:
        """Rounds ``first``..``last`` from the registers over the message in
        the ring; returns the number of rounds run.  ``kw_table`` holds the
        folded K+W of each round, None where W and K are added separately;
        ``fixed_words`` maps a round to a writer that fills its schedule
        word in place of the recurrence."""
        ring = self.ring
        for t in range(first, last + 1):
            if t >= 16:
                if fixed_words and t in fixed_words:
                    fixed_words[t](ring[t & 15])
                else:
                    self.sched(t)
            self.round(kw_table[t], ring[t & 15], _K[t])
        return last - first + 1

    def feedforward(self, base, out):
        """out[i] = register i + base[i]: the compression's output words."""
        for reg, add, dst in zip(self.regs, base, out):
            np.add(reg, add, dst)


def _kw_table(words, fold_flags, s: ImprovementSet) -> list:
    """Per round, the folded K_t + W_t as a lane operand where ``s`` holds
    the round's flag in ``fold_flags``, else None: the round adds W and K
    separately.  ``words[t]`` is round t's constant message word."""
    return [_u32((sha.K[t] + words[t]) & MASK32) if fold_flags.get(t) in s else None
            for t in range(64)]


def _chunk(work: PreparedWork, lanes: _Lanes, s: ImprovementSet, kw) -> int:
    """Hash the nonces loaded in ``lanes`` through the pipeline ``s`` selects
    and return the rounds each lane ran.  ``kw`` holds the :func:`_kw_table`
    of each of the three compressions under ``s``.

    Afterwards the registers hold the third compression's state after
    round 60 under flag 2 and after round 63 otherwise, before the
    feedforward.
    """
    n, ring, sched0 = lanes.nonces, lanes.ring, work.sched0
    kw1, kw2, kw3 = kw
    midstate = work.midstate
    rounds = 0
    if "1" not in s:  # first compression, recomputed per lane
        for slot, w in enumerate(struct.unpack(">16I", work.header[:64])):
            ring[slot][:] = w
        lanes.fill_regs(sha.IV)
        rounds += lanes.compress(kw1)
        lanes.feedforward(sha.IV, lanes.mids)
        midstate = lanes.mids

    # second compression: header tail, nonce, padding
    for slot in range(16):
        ring[slot][:] = sched0[slot]
    np.copyto(ring[3], n)
    if "4" in s:  # round 3 at nonce n: the nonce-0 state with n added to A and E
        lanes.fill_regs(work.state_r4)
        np.add(lanes.regs[0], n, lanes.regs[0])
        np.add(lanes.regs[4], n, lanes.regs[4])
        # the incremental round 3 counts as a round (61 per compression, not
        # 60), matching the convention that early exit alone brings the
        # per-nonce cost to 2 * 61/64 = 1.906 compressions
        rounds += 1
        first = 4
    elif "3" in s:
        lanes.fill_regs(work.state_r3)
        first = 3
    else:
        lanes.fill_regs(midstate)
        first = 0

    fixed_words = {}
    if "7" in s:

        def w18(out):
            _vlittle_sigma0(n, out, lanes.t1, lanes.t2)
            np.add(out, sched0[18], out)

        fixed_words[16] = lambda out: out.fill(sched0[16])
        fixed_words[17] = lambda out: out.fill(sched0[17])
        fixed_words[18] = w18
    if "8" in s:
        fixed_words[19] = lambda out: np.add(n, sched0[19], out)
    rounds += lanes.compress(kw2, first, 63, fixed_words)
    lanes.feedforward(midstate, ring)

    # third compression: the first hash in ring slots 0..7, then padding
    for slot, w in _COMP3_PAD.items():
        ring[slot][:] = w
    lanes.fill_regs(sha.IV)
    rounds += lanes.compress(kw3, 0, 60 if "2" in s else 63)
    return rounds


# ---------------------------------------------------------------------------
# Scanning.


def complete_nonce(work: PreparedWork, nonce: int) -> bytes:
    """The reference double hash of the header bytes at one nonce."""
    return sha.sha256d(work.header + nonce.to_bytes(4, "big"))


def _scan_range(work, lo, hi, s, chunk, should_abort) -> ScanResult:
    """Scan ``lo..hi`` up to its first find: the find and the counts of the
    nonces consumed."""
    res = ScanResult()
    width = min(chunk, hi - lo + 1)
    buffers = _Lanes(width, recompute_midstate="1" not in s)
    offsets = np.arange(width, dtype=np.uint32)
    early = "2" in s
    e60 = 4 if early else 7  # the register holding round 60's E value
    top_limb = np.uint32(work.target >> 224)
    stage2_active = work.target < WORD6_TARGET_BOUND
    kw = (_kw_table((), {}, s),  # the first compression folds nothing
          _kw_table(work.sched0, _FOLD_FLAGS_COMP2, s),
          _kw_table(_COMP3_PAD, _FOLD_FLAGS_COMP3, s))
    pos = lo
    while pos <= hi and res.found is None and not should_abort():
        m = min(chunk, hi - pos + 1)
        lanes = buffers.view(m)
        np.add(offsets[:m], np.uint32(pos), out=lanes.nonces)
        per_lane = _chunk(work, lanes, s, kw)
        # digest word 7 byteswapped is the hash's top limb; the referee decides ties
        word7 = np.add(lanes.regs[e60], np.uint32(sha.IV.h), lanes.t1)
        candidates = np.nonzero(word7.byteswap(inplace=True) <= top_limb)[0]
        for lane in candidates.tolist():
            digest = complete_nonce(work, pos + lane)  # scalar referee
            if early:
                res.stage1_survivors += 1
                if stage2_active and digest[24:28] != bytes(4):
                    res.rounds_executed += 1  # round 61 rejects it: word 6 is nonzero
                    continue
                res.stage2_survivors += stage2_active
                res.rounds_executed += 3  # rounds 61..63 finish the compression
            if meets_target(digest, work.target):
                res.found = FoundNonce(pos + lane, digest)
                m = lane + 1  # the lanes past the find are not consumed
                break
        res.nonces_tried += m
        res.rounds_executed += per_lane * m
        pos += m
    return res


def _span(lo: int, hi: int, parts: int, idx: int) -> tuple[int, int]:
    """Span ``idx`` of ``lo..hi`` cut into ``parts`` contiguous spans; the
    first ``(hi - lo + 1) % parts`` are one nonce longer."""
    base, rem = divmod(hi - lo + 1, parts)
    start = lo + idx * base + min(idx, rem)
    return start, start + base - (idx >= rem)


def effective_chunk(threads: int, chunk: int | None = None) -> int:
    """``chunk`` if given, else :data:`DEFAULT_CHUNK` on one thread and
    :data:`THREADED_CHUNK` on several."""
    if chunk is not None:
        return chunk
    return DEFAULT_CHUNK if threads == 1 else THREADED_CHUNK


def scan(
    work: PreparedWork,
    nonce_lo: int,
    nonce_hi: int,
    *,
    improvements: ImprovementSet = ImprovementSet.full(),
    threads: int = 1,
    chunk: int | None = None,
) -> ScanResult:
    """Scan the inclusive nonce range, returning the smallest qualifying
    nonce if one exists; an empty range (``nonce_lo > nonce_hi``) tries
    nothing.

    The lanes run exactly the pipeline ``improvements`` selects, at any
    target; the caller names the mode (``mine`` prints ``early-exit`` when
    the set holds flag 2 and ``generic`` otherwise).  ``chunk`` lanes run
    per numpy call, at most :data:`MAX_CHUNK`; None picks
    :func:`effective_chunk`.

    The range is split into ``threads`` contiguous spans, but never more
    than ``1 + os.cpu_count()``: the calling thread scans the lowest span and
    a pool thread each of the others.  A find stops the spans above it.  The
    merge takes the minimum found nonce, so partitioning never changes the
    winner.  Counters cover the nonces each span actually consumed.
    """
    for name, v in (("nonce_lo", nonce_lo), ("nonce_hi", nonce_hi)):
        if not 0 <= v <= MASK32:
            raise ValueError(f"{name} out of 32-bit range")
    if threads < 1:
        raise ValueError("threads must be positive")
    chunk = effective_chunk(threads, chunk)
    if not 1 <= chunk <= MAX_CHUNK:
        raise ValueError(f"chunk must lie in [1, {MAX_CHUNK}], got {chunk}")
    if nonce_lo > nonce_hi:
        return ScanResult()

    parts = min(threads, nonce_hi - nonce_lo + 1, 1 + (os.cpu_count() or 1))
    lock = threading.Lock()
    lowest_found = parts  # the lowest span that found a nonce, parts while none has

    def worker(idx: int) -> ScanResult:
        nonlocal lowest_found
        # a find in a lower span always wins; stop wasting work
        res = _scan_range(work, *_span(nonce_lo, nonce_hi, parts, idx), improvements, chunk,
                          lambda: lowest_found < idx)
        if res.found is not None:
            with lock:
                lowest_found = min(lowest_found, idx)
        return res

    with ThreadPoolExecutor(max_workers=max(1, parts - 1)) as pool:
        rest = pool.map(worker, range(1, parts))
        results = [worker(0), *rest]

    return ScanResult(
        found=min((r.found for r in results if r.found is not None),
                  key=lambda f: f.nonce, default=None),
        nonces_tried=sum(r.nonces_tried for r in results),
        rounds_executed=sum(r.rounds_executed for r in results),
        stage1_survivors=sum(r.stage1_survivors for r in results),
        stage2_survivors=sum(r.stage2_survivors for r in results),
    )


def scan_naive(
    header: bytes,
    target: int,
    nonce_lo: int,
    nonce_hi: int,
    *,
    chunk: int | None = None,
) -> ScanResult:
    """The unoptimized three-compression baseline: :func:`scan` on one
    thread with no improvements, so every lane recomputes the first
    compression and runs all 64 rounds of each, as a by-the-book miner
    would."""
    return scan(
        prepare_header_work(header, target),
        nonce_lo,
        nonce_hi,
        threads=1,
        chunk=chunk,
        improvements=ImprovementSet.none(),
    )
