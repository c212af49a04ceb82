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
* 2: the third compression stops after round 60: digest word 7 equals the
  E value produced at round 60 plus the IV constant 0x5BE0CD19, and any
  target below 2^224 accepts only digests whose word 7 is zero, so every
  lane whose round-60 E value differs from 0xA41F32E7 = 2^32 - 0x5BE0CD19
  is rejected three rounds early.  When the target is below 2^192 word 6
  must be zero as well, which pins the E value of round 61 to 0xE07C2655
  and rejects stage-1 survivors after one more round.  Survivors (about one
  in 2^32) are completed and compared exactly.  Off, all 64 rounds run and
  the full 256-bit comparison decides.

Flags X and X2 (carry-save adders) exist only in the gate-level model of
:mod:`minerlab.costs`; they have no effect on the lanes.

Targets of 2^224 and above (desk-scale difficulty) make flag 2 unsound, so
generic mode runs the requested set without it.

The per-nonce arithmetic is vectorized over chunks of nonces as numpy
uint32 lanes.  Candidates that pass the vector filter are re-derived
through the scalar reference path before being reported, so the lanes
never act as their own referee.

Cost instrumentation counts block-cipher rounds and reports them in units
of whole 64-round compressions.  The rounds are counted from the rounds
the lanes run: each compression returns how many it ran, and the chunk
adds the incremental round 3 under flag 4.  The subset tests check the
count against the rounds per nonce of the cost model in
:mod:`minerlab.costs`, which leaves that round out.
Schedule work and feedforward additions are not counted separately.
"""

from __future__ import annotations

import copy
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sha256 as sha
from .costs import ImprovementSet
from .header import meets_target

MASK32 = 0xFFFFFFFF
# Lanes per numpy call when the caller gives no chunk.  One thread: the 31
# lane buffers of 64 KB fit a 2 MB L2, and a find computes at most 2^14 - 1
# lanes past its winner.  Several threads: 2^14 calls make the threads convoy
# on the GIL, so they keep 2^16.
DEFAULT_CHUNK = 1 << 14
THREADED_CHUNK = 1 << 16

WORD7_TARGET_BOUND = 1 << 224  # early exit sound strictly below this
WORD6_TARGET_BOUND = 1 << 192  # round-61 constant check sound below this

# Second-compression constant message words: 0x80000000 marker, ten zeros,
# and the 640-bit length of the 80-byte header.
_COMP2_PAD = (0x80000000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 640)
# Third-compression constants behind the 8 hash words: marker, six zeros,
# and the 256-bit length.
_COMP3_PAD = (0x80000000, 0, 0, 0, 0, 0, 0, 256)

# The flag under which each constant-word round adds its folded K+W.
_FOLD_FLAGS_COMP2 = {**dict.fromkeys(range(4, 15), "5"), 15: "6", 16: "7", 17: "7"}
_FOLD_FLAGS_COMP3 = {**dict.fromkeys(range(8, 15), "5"), 15: "6"}
_UNFOLDED = (None,) * 64

# Third-compression folded K+W, None where W varies: the same for every work item.
KW_COMP3 = tuple(
    (sha.K[t] + _COMP3_PAD[t - 8]) & MASK32 if 8 <= t < 16 else None for t in range(64)
)

REJECT_E60 = (1 << 32) - sha.IV.h  # 0xA41F32E7
REJECT_E61 = (1 << 32) - sha.IV.g  # 0xE07C2655


@dataclass(frozen=True)
class PreparedWork:
    """Everything nonce-independent, computed once per work item.

    Immutable and safe to share across concurrent scanners.
    """

    midstate: sha.State
    block1: tuple  # header words 0..15, for lanes that recompute the midstate
    w_head: tuple[int, int, int]  # second-compression words 0..2
    state_r3: sha.State  # state entering round 3
    t1_base: int  # h + Sigma1(e) + Ch(e,f,g) + K[3] at round 3
    t2_r3: int  # Sigma0(a) + Maj(a,b,c) at round 3
    w16: int
    w17: int
    w18_base: int  # sigma1(W16) + W2; add sigma0(nonce) per nonce
    w19_base: int  # sigma1(W17) + sigma0(0x80000000); add nonce
    kw_comp2: tuple  # per-round folded K+W, None where W varies
    target: int


@dataclass(frozen=True)
class FoundNonce:
    nonce: int
    digest: bytes


@dataclass(frozen=True)
class ScanResult:
    found: FoundNonce | None
    nonces_tried: int
    rounds_executed: int
    compressions_equivalent: float  # rounds_executed / 64 per nonce tried
    stage1_survivors: int
    stage2_survivors: int
    mode: str
    chunk: int  # lanes per numpy call
    threads: int


def compute_midstate(header_prefix: bytes) -> sha.State:
    """Compress the first 64 header bytes from the IV.

    Identical for every nonce of the work item; its cost amortizes to
    2^-32 compressions per nonce.
    """
    if len(header_prefix) != 64:
        raise ValueError(f"midstate needs exactly 64 bytes, got {len(header_prefix)}")
    return sha.compress(sha.IV, struct.unpack(">16I", header_prefix))


def prepare_work(header_prefix: bytes, header_tail: bytes, target: int) -> PreparedWork:
    """Fold all nonce-independent work for one (header, target) pair.

    ``header_prefix`` is header bytes 0..63, the first compression's block.
    ``header_tail`` is header bytes 64..75: the last merkle-root word, the
    timestamp and the compact target, i.e. everything in the nonce-bearing
    block except the nonce itself.
    """
    if len(header_tail) != 12:
        raise ValueError(f"header tail must be 12 bytes, got {len(header_tail)}")
    if target <= 0:
        raise ValueError("zero target")
    if target >= 1 << 256:
        raise ValueError("target overflows 256 bits")
    midstate = compute_midstate(header_prefix)
    w0, w1, w2 = struct.unpack(">3I", header_tail)

    state = midstate
    for t, w in enumerate((w0, w1, w2)):
        state = sha.compression_round(state, w, sha.K[t])

    t1_base = (
        state.h
        + sha.big_sigma1(state.e)
        + sha.choice(state.e, state.f, state.g)
        + sha.K[3]
    ) & MASK32
    t2_r3 = (sha.big_sigma0(state.a) + sha.majority(state.a, state.b, state.c)) & MASK32

    # W16/W17 from the schedule recurrence; the nonce (word 3) is not an
    # input to either.  Words 9, 10 and 12 are padding zeros.
    w16 = (sha.little_sigma0(w1) + w0) & MASK32
    w17 = (sha.little_sigma1(640) + sha.little_sigma0(w2) + w1) & MASK32
    w18_base = (sha.little_sigma1(w16) + w2) & MASK32
    w19_base = (sha.little_sigma1(w17) + sha.little_sigma0(0x80000000)) & MASK32

    kw_comp2 = [None] * 64
    for t, w in enumerate(_COMP2_PAD, start=4):
        kw_comp2[t] = (sha.K[t] + w) & MASK32
    kw_comp2[16] = (sha.K[16] + w16) & MASK32
    kw_comp2[17] = (sha.K[17] + w17) & MASK32

    return PreparedWork(
        midstate=midstate,
        block1=struct.unpack(">16I", header_prefix),
        w_head=(w0, w1, w2),
        state_r3=state,
        t1_base=t1_base,
        t2_r3=t2_r3,
        w16=w16,
        w17=w17,
        w18_base=w18_base,
        w19_base=w19_base,
        kw_comp2=tuple(kw_comp2),
        target=target,
    )


def prepare_header_work(header: bytes, target: int) -> PreparedWork:
    """Prepare work directly from serialized header bytes (nonce ignored)."""
    if len(header) not in (76, 80):
        raise ValueError("header must be 76 or 80 bytes")
    return prepare_work(header[:64], header[64:76], target)


# ---------------------------------------------------------------------------
# Vectorized engine: numpy uint32 lanes, preallocated buffers, in-place ops.


def _vrotr(x, n, out, tmp):
    np.right_shift(x, n, out)
    np.left_shift(x, 32 - n, tmp)
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
    np.right_shift(x, 3, t1)
    np.bitwise_xor(out, t1, out)


def _vlittle_sigma1(x, out, t1, t2):
    _vrotr(x, 17, out, t1)
    _vrotr(x, 19, t1, t2)
    np.bitwise_xor(out, t1, out)
    np.right_shift(x, 10, t1)
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
        self.ta, self.tb, self.tc, self.td = mk(), mk(), mk(), mk()
        self.nonces = mk()
        self.blt = np.zeros(width, dtype=bool)
        self.beq = np.zeros(width, dtype=bool)
        self.btmp = np.zeros(width, dtype=bool)

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
        np.bitwise_and(e, f, ta)
        np.bitwise_not(e, tb)
        np.bitwise_and(tb, g, tb)
        np.bitwise_xor(ta, tb, ta)
        np.add(t1, ta, t1)
        np.add(t1, h, t1)
        if kw is not None:
            np.add(t1, kw, t1)
        else:
            np.add(t1, w_vec, t1)
            np.add(t1, k, t1)
        _vbig_sigma0(a, t2, ta, tb)
        np.bitwise_and(a, b, ta)
        np.bitwise_and(a, c, tb)
        np.bitwise_xor(ta, tb, ta)
        np.bitwise_and(b, c, tb)
        np.bitwise_xor(ta, tb, ta)
        np.add(t2, ta, t2)
        np.add(d, t1, d)  # becomes the new E
        np.add(t1, t2, h)  # becomes the new A
        self.regs = [h, a, b, c, d, e, f, g]

    def sched(self, t):
        """w[t] = sigma1(w[t-2]) + w[t-7] + sigma0(w[t-15]) + w[t-16],
        written over the ring slot holding w[t-16]."""
        ring, ta, tb, tc, td = self.ring, self.ta, self.tb, self.tc, self.td
        _vlittle_sigma1(ring[(t - 2) & 15], ta, tc, td)
        np.add(ta, ring[(t - 7) & 15], ta)
        _vlittle_sigma0(ring[(t - 15) & 15], tb, tc, td)
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
            self.round(kw_table[t], ring[t & 15], sha.K[t])
        return last - first + 1

    def feedforward(self, base, out):
        """out[i] = register i + base[i]: the compression's output words."""
        for reg, add, dst in zip(self.regs, base, out):
            np.add(reg, add, dst)

    def accept_mask(self, target: int) -> np.ndarray:
        """Vector hash < target over the digest words currently in regs.

        The hash integer reads the digest little-endian, so its 32-bit
        limbs are the byteswapped words, word 7 most significant.
        Byteswaps the register buffers in place.
        """
        lt, eq, tmp = self.blt, self.beq, self.btmp
        lt[:] = False
        eq[:] = True
        for i in range(7, -1, -1):
            word = self.regs[i].byteswap(inplace=True)
            limb = (target >> (32 * i)) & MASK32
            np.less(word, limb, tmp)
            np.logical_and(tmp, eq, tmp)
            np.logical_or(lt, tmp, lt)
            np.equal(word, limb, tmp)
            np.logical_and(eq, tmp, eq)
        return lt


def _folded(kw_table, fold_flags, s: ImprovementSet) -> list:
    """``kw_table`` with the folds whose flag ``s`` lacks undone."""
    return [kw if fold_flags.get(t) in s else None for t, kw in enumerate(kw_table)]


def _chunk(work: PreparedWork, lanes: _Lanes, s: ImprovementSet) -> int:
    """Hash the nonces loaded in ``lanes`` through the pipeline ``s`` selects
    and return the rounds each lane ran.

    Afterwards the registers hold the third compression's state after
    round 60 under flag 2, and the digest words otherwise.
    """
    n, ring = lanes.nonces, lanes.ring
    midstate = work.midstate
    rounds = 0
    if "1" not in s:  # first compression, recomputed per lane
        for slot, w in enumerate(work.block1):
            ring[slot][:] = w
        lanes.fill_regs(sha.IV)
        rounds += lanes.compress(_UNFOLDED)
        lanes.feedforward(sha.IV, lanes.mids)
        midstate = lanes.mids

    # second compression: header tail, nonce, padding
    for slot, w in enumerate(work.w_head):
        ring[slot][:] = w
    np.copyto(ring[3], n)
    for slot, w in enumerate(_COMP2_PAD, start=4):
        ring[slot][:] = w
    if "4" in s:
        r3 = work.state_r3
        lanes.fill_regs((0, r3.a, r3.b, r3.c, 0, r3.e, r3.f, r3.g))
        np.add(n, work.t1_base, lanes.t1)
        np.add(lanes.t1, work.t2_r3, lanes.regs[0])
        np.add(lanes.t1, r3.d, lanes.regs[4])
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
            _vlittle_sigma0(n, out, lanes.tc, lanes.td)
            np.add(out, work.w18_base, out)

        fixed_words[16] = lambda out: out.fill(work.w16)
        fixed_words[17] = lambda out: out.fill(work.w17)
        fixed_words[18] = w18
    if "8" in s:
        fixed_words[19] = lambda out: np.add(n, work.w19_base, out)
    rounds += lanes.compress(_folded(work.kw_comp2, _FOLD_FLAGS_COMP2, s), first, 63, fixed_words)
    lanes.feedforward(midstate, ring)

    # third compression: the first hash in ring slots 0..7, then padding
    for slot, w in enumerate(_COMP3_PAD, start=8):
        ring[slot][:] = w
    lanes.fill_regs(sha.IV)
    rounds += lanes.compress(_folded(KW_COMP3, _FOLD_FLAGS_COMP3, s), 0, 60 if "2" in s else 63)
    if "2" not in s:
        lanes.feedforward(sha.IV, lanes.regs)
    return rounds


# ---------------------------------------------------------------------------
# Scanning.


def _lane_set(target: int, mode: str, improvements: ImprovementSet) -> ImprovementSet:
    """The set the lanes run: ``mode`` decides only whether flag 2 stays."""
    if mode == "auto":
        early = "2" in improvements and target < WORD7_TARGET_BOUND
    elif mode == "early-exit":
        if "2" not in improvements:
            raise ValueError("early-exit mode needs improvement 2")
        if target >= WORD7_TARGET_BOUND:
            raise ValueError("early-exit filter unsound for target >= 2^224")
        early = True
    elif mode == "generic":
        early = False
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    return improvements if early else ImprovementSet(improvements.flags - {"2"})


def complete_nonce(work: PreparedWork, nonce: int) -> bytes:
    """Full double hash of the work item at one nonce via the reference
    rounds, starting from the shared midstate."""
    w0, w1, w2 = work.w_head
    block2 = (w0, w1, w2, nonce) + _COMP2_PAD
    h1 = sha.compress(work.midstate, block2)
    block3 = tuple(h1) + _COMP3_PAD
    return sha.state_bytes(sha.compress(sha.IV, block3))


@dataclass
class _RangeTally:
    found: FoundNonce | None = None
    consumed: int = 0
    rounds: int = 0
    stage1: int = 0
    stage2: int = 0


def _scan_range(work, lo, hi, s, chunk, should_abort) -> _RangeTally:
    width = min(chunk, hi - lo + 1)
    buffers = _Lanes(width, recompute_midstate="1" not in s)
    offsets = np.arange(width, dtype=np.uint32)
    tally = _RangeTally()
    early = "2" in s
    stage2_active = work.target < WORD6_TARGET_BOUND
    pos = lo
    while pos <= hi:
        if should_abort():
            break
        m = min(chunk, hi - pos + 1)
        lanes = buffers.view(m)
        np.add(offsets[:m], np.uint32(pos), out=lanes.nonces)
        per_lane = _chunk(work, lanes, s)
        if early:
            candidates = np.nonzero(lanes.regs[4] == np.uint32(REJECT_E60))[0]
        else:
            candidates = np.nonzero(lanes.accept_mask(work.target))[0]
        for lane in candidates.tolist():
            digest = complete_nonce(work, pos + lane)  # scalar referee
            if early:
                if stage2_active:
                    tally.rounds += 1  # round 61 reveals the second constant
                    if int.from_bytes(digest[24:28], "big") != 0:
                        tally.stage1 += 1
                        continue
                    tally.stage2 += 1
                    tally.rounds += 2  # rounds 62..63 finish the compression
                else:
                    tally.rounds += 3
                tally.stage1 += 1
            if meets_target(digest, work.target):
                tally.found = FoundNonce(pos + lane, digest)
                tally.consumed += lane + 1
                tally.rounds += per_lane * (lane + 1)
                return tally
        tally.consumed += m
        tally.rounds += per_lane * m
        pos += m
    return tally


def _partition(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    n = hi - lo + 1
    parts = max(1, min(parts, n))
    base, rem = divmod(n, parts)
    spans = []
    start = lo
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        spans.append((start, start + size - 1))
        start += size
    return spans


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
    mode: str = "auto",
    threads: int = 1,
    chunk: int | None = None,
    improvements: ImprovementSet = ImprovementSet.full(),
) -> ScanResult:
    """Scan the inclusive nonce range, returning the smallest qualifying
    nonce if one exists.

    The lanes run the pipeline ``improvements`` selects; ``mode="generic"``
    (or ``"auto"`` at a target of 2^224 or above) drops flag 2.  ``chunk``
    lanes run per numpy call; None picks :func:`effective_chunk`.

    The range is split into ``threads`` contiguous subranges: the calling
    thread scans the lowest and a pool of up to ``os.cpu_count()`` threads
    the rest.  The merge takes the minimum found nonce, so partitioning
    never changes the winner.  Counters cover the nonces each subrange
    actually consumed.
    """
    for name, v in (("nonce_lo", nonce_lo), ("nonce_hi", nonce_hi)):
        if not 0 <= v <= MASK32:
            raise ValueError(f"{name} out of 32-bit range")
    if nonce_lo > nonce_hi:
        raise ValueError("empty nonce range")
    if threads < 1:
        raise ValueError("threads must be positive")
    chunk = effective_chunk(threads, chunk)
    if chunk < 1:
        raise ValueError("chunk must be positive")
    s = _lane_set(work.target, mode, improvements)

    spans = _partition(nonce_lo, nonce_hi, threads)
    found_flags = [False] * len(spans)

    def run(idx: int) -> _RangeTally:
        def should_abort() -> bool:
            # a find in a lower subrange always wins; stop wasting work
            return any(found_flags[:idx])

        tally = _scan_range(work, *spans[idx], s, chunk, should_abort)
        if tally.found is not None:
            found_flags[idx] = True
        return tally

    # one span starts no pool thread; spans past os.cpu_count() queue in order
    with ThreadPoolExecutor(max_workers=max(1, min(len(spans) - 1, os.cpu_count() or 1))) as pool:
        rest = [pool.submit(run, idx) for idx in range(1, len(spans))]
        tallies = [run(0)] + [f.result() for f in rest]

    found = min(
        (t.found for t in tallies if t.found is not None),
        key=lambda f: f.nonce,
        default=None,
    )
    consumed = sum(t.consumed for t in tallies)
    rounds = sum(t.rounds for t in tallies)
    return ScanResult(
        found=found,
        nonces_tried=consumed,
        rounds_executed=rounds,
        compressions_equivalent=rounds / 64 / consumed if consumed else 0.0,
        stage1_survivors=sum(t.stage1 for t in tallies),
        stage2_survivors=sum(t.stage2 for t in tallies),
        mode="early-exit" if "2" in s else "generic",
        chunk=chunk,
        threads=threads,
    )


def evaluate_digests(work: PreparedWork, nonces: Sequence[int] | np.ndarray) -> np.ndarray:
    """Digest words for arbitrary nonces via the vector pipeline.

    Returns an (8, n) uint32 array, row i holding digest word i. Intended
    for verification and batch analysis; scanning should use :func:`scan`.
    """
    arr = np.asarray(nonces, dtype=np.uint64)
    if arr.ndim != 1:
        raise ValueError("nonces must be one-dimensional")
    if arr.size and int(arr.max()) > MASK32:
        raise ValueError("nonce out of 32-bit range")
    arr = arr.astype(np.uint32)
    out = np.empty((8, arr.size), dtype=np.uint32)
    s = _lane_set(work.target, "generic", ImprovementSet.full())
    width = min(DEFAULT_CHUNK, max(arr.size, 1))
    buffers = _Lanes(width)
    for start in range(0, arr.size, width):
        part = arr[start : start + width]
        lanes = buffers.view(part.size)
        np.copyto(lanes.nonces, part)
        _chunk(work, lanes, s)
        for i in range(8):
            out[i, start : start + part.size] = lanes.regs[i]
    return out


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
