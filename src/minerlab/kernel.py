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
arithmetic (a chunk makes thousands of ufunc calls; 64 lanes of the full
set take 2.5-6 ms on a 2-vCPU x86-64 VM), so every operand in the round
and schedule loops is an array: numpy converts a Python int operand on
every call, about 0.5 us of a 1.2 us call.  Ch is g ^ (e & (f ^ g)) and
Maj (a & b) | (c & (a | b)), 3 and 4 calls where the textbook forms take
4 and 5.

Cost instrumentation counts block-cipher rounds in the
:class:`ScanResult` that :func:`scan` returns, whose
``compressions_equivalent`` is the count in units of whole 64-round
compressions per nonce.  The rounds are counted from the rounds the lanes
run: each compression returns how many it ran, and the chunk adds the
incremental round 3 under flag 4.  Under flag 2 every filter survivor is
a stage-1 survivor and adds rounds 61..63, or only round 61 when its word
6 rejects it.  The model in :mod:`minerlab.costs` keeps the paper's
accounting.  The lanes' rounds and additions depart from it in four
places, named once in ``tests/test_kernel.py::TestCostConvention``, which
checks them over every lane set and pins the ufunc calls per chunk;
README's "Performance notes" tables them.

numpy takes the GIL back after every ufunc call, so span threads would
queue on it: :func:`scan` runs span 0 on the calling thread and each other
span in a child process made with ``os.fork``.  It deals the range's chunks
in nonce order, chunk k to span k mod spans; a span abandons its chunk at
the next round once a find below it is published, and the counters end at
the winner, so the result is the same at every thread count.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import sha256 as sha
from .costs import DEFAULT_CHUNK, FOLDED_ROUNDS, MAX_CHUNK, ImprovementSet
from .header import meets_target

# The CPUs this process may run on: every scan's span cap reads it.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

WORD6_TARGET_BOUND = 1 << 192  # round-61 constant check sound below this

# The third compression's block with the 8 hash words zeroed: words 8..15
# are the padding of a 32-byte message.
_COMP3_BLOCK = sha.pad_message(bytes(32))[0]


def _u32(value: int) -> np.ndarray:
    """``value`` as a read-only 0-d uint32 array, the operand form the lanes pass."""
    arr = np.array(value, dtype=np.uint32)
    arr.flags.writeable = False
    return arr


_SHIFTS = tuple(_u32(n) for n in range(33))  # _SHIFTS[n] shifts by n
_K = tuple(_u32(k) for k in sha.K)
_NO_FOLDS = (None,) * 64  # the fold table of the first compression


@dataclass(frozen=True)
class PreparedWork:
    """Everything nonce-independent, computed once per work item: the
    reference run at nonce 0.

    Immutable: a forked span reads its copy and changes nothing.
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
    """A scan's find and counters, which cover the nonces from the start
    of the range up to the find, or the whole range without one."""

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
    block1, block2 = sha.pad_message(header[:76] + bytes(4))
    midstate = sha.compress(sha.IV, block1)
    sched0 = tuple(sha.expand_schedule(block2))
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


# Rotation amounts of Sigma0, Sigma1 (rounds) and sigma0, sigma1 (schedule);
# a negative last amount is a plain right shift by its magnitude.
_BIG_SIGMA0, _BIG_SIGMA1 = (2, 13, 22), (6, 11, 25)
_LITTLE_SIGMA0, _LITTLE_SIGMA1 = (7, 18, -3), (17, 19, -10)


def _vsigma(x, amounts, out, t1, t2):
    a, b, c = amounts
    _vrotr(x, a, out, t1)
    _vrotr(x, b, t1, t2)
    np.bitwise_xor(out, t1, out)
    if c < 0:
        np.right_shift(x, _SHIFTS[-c], t1)
    else:
        _vrotr(x, c, t1, t2)
    np.bitwise_xor(out, t1, out)


def _kw_table(words, folded, s: ImprovementSet) -> list:
    """Per round, the folded K_t + W_t as a lane operand where ``s`` holds
    the round's flag in ``folded``, a ``FOLDED_ROUNDS`` entry, else None: the
    round adds W and K separately.  ``words[t]`` is round t's message word."""
    return [_u32((sha.K[t] + words[t]) & sha.MASK32) if folded.get(t) in s else None
            for t in range(64)]


def _bank(rows: int, width: int) -> np.ndarray:
    """A zeroed ``rows`` x ``width`` uint32 bank whose every row starts on a
    64-byte boundary.  malloc aligns to 16 bytes only, and on a 2-vCPU
    AVX-512 Xeon a chunk ran about 15% slower with its rows 16 bytes off a
    32-byte boundary, so the scan's speed followed where the heap put it."""
    stride = -(-width // 16) * 16  # lanes per row, rounded up to 64 bytes
    raw = np.zeros(rows * stride + 16, dtype=np.uint32)
    skip = -raw.ctypes.data % 64 // 4
    return raw[skip:skip + rows * stride].reshape(rows, stride)[:, :width]


class _Lanes:
    """One span's pipeline of set ``s`` over one work item, ``width`` lanes
    wide for its whole life: every lane buffer is a row of one uint32 bank
    (8 registers, 16 schedule-ring words, 4 scratch rows, the nonces, the
    lane offsets, and without flag 1 the 8 per-lane midstates).  Its
    constructor and :meth:`chunk` are the seam a second backend implements;
    it may ignore ``finds``, the published finds, as abandoning only saves time."""

    def __init__(self, work: PreparedWork, s: ImprovementSet, width: int, finds):
        rows = list(_bank(30 if "1" in s else 38, width))
        self.regs, self.ring, self.mids = rows[:8], rows[8:24], rows[30:]
        self.t1, self.t2, self.ta, self.tb, self.nonces, self.offsets = rows[24:30]
        self.offsets[:] = np.arange(width)
        self.work, self.s, self.finds = work, s, finds
        self.kw2 = _kw_table(work.sched0, FOLDED_ROUNDS[2], s)
        self.kw3 = _kw_table(_COMP3_BLOCK, FOLDED_ROUNDS[3], s)
        # second-compression words 16..19 built from their nonce-0 bases
        self.fixed = {t for t, flag in ((16, "7"), (17, "7"), (18, "7"), (19, "8")) if flag in s}
        self.top_limb = np.uint32(work.target >> 224)

    def round(self, kw, w_vec, k):
        """One cipher round across all lanes; registers rotate by renaming."""
        a, b, c, d, e, f, g, h = self.regs
        t1, t2, ta, tb = self.t1, self.t2, self.ta, self.tb
        _vsigma(e, _BIG_SIGMA1, t1, ta, tb)
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
        _vsigma(a, _BIG_SIGMA0, t2, ta, tb)
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
        _vsigma(ring[(t - 2) & 15], _LITTLE_SIGMA1, ta, t1, t2)
        np.add(ta, ring[(t - 7) & 15], ta)
        _vsigma(ring[(t - 15) & 15], _LITTLE_SIGMA0, tb, t1, t2)
        np.add(ta, tb, ta)
        np.add(ta, ring[t & 15], ring[t & 15])

    def fixed_word(self, t, out):
        """Second-compression word ``t`` from its nonce-0 base: W16 and W17
        are the bases (flag 7), W18 adds sigma0 of the nonce (flag 7) and
        W19 the nonce (flag 8)."""
        base = self.work.sched0[t]
        if t == 18:
            _vsigma(self.nonces, _LITTLE_SIGMA0, out, self.t1, self.t2)
            np.add(out, base, out)
        elif t == 19:
            np.add(self.nonces, base, out)
        else:
            out.fill(base)

    def fill_regs(self, values):
        for reg, value in zip(self.regs, values):
            reg[:] = value

    def compress(self, kw_table, first=0, last=63, fixed=()) -> int:
        """Rounds ``first``..``last`` over the message in the ring, until a
        find below the chunk is published; returns the rounds run.
        ``kw_table`` holds the folded K+W of each round, None where W and K
        are added separately; :meth:`fixed_word` writes the words in ``fixed``."""
        ring = self.ring
        for t in range(first, last + 1):
            if min(self.finds) < self.pos:
                return t - first
            if t in fixed:
                self.fixed_word(t, ring[t & 15])
            elif t >= 16:
                self.sched(t)
            self.round(kw_table[t], ring[t & 15], _K[t])
        return last - first + 1

    def feedforward(self, base, out):
        """out[i] = register i + base[i]: the compression's output words."""
        for reg, add, dst in zip(self.regs, base, out):
            np.add(reg, add, dst)

    def chunk(self, pos: int) -> tuple[list, int] | None:
        """Hash every lane, lane i at nonce ``(pos + i) mod 2^32``, and filter
        on digest word 7: the ascending indices of the lanes that pass, and
        the rounds each lane ran.  Lanes past the range's end run too; the
        scan loop referees and counts none of them.  None, abandoned, once a
        find below ``pos`` is published: no lane would be counted."""
        work, s, n, ring = self.work, self.s, self.nonces, self.ring
        self.pos = pos
        np.add(self.offsets, np.uint32(pos), n)  # uint32 addition wraps at 2^32
        midstate = work.midstate
        rounds = 0
        if "1" not in s:  # first compression, recomputed per lane
            for slot, w in enumerate(struct.unpack(">16I", work.header[:64])):
                ring[slot][:] = w
            self.fill_regs(sha.IV)
            rounds += self.compress(_NO_FOLDS)
            self.feedforward(sha.IV, self.mids)
            midstate = self.mids

        # second compression: header tail, nonce, padding
        for slot in range(16):
            ring[slot][:] = work.sched0[slot]
        np.copyto(ring[3], n)
        if "4" in s:  # round 3 at nonce n: the nonce-0 state with n added to A and E
            self.fill_regs(work.state_r4)
            np.add(self.regs[0], n, self.regs[0])
            np.add(self.regs[4], n, self.regs[4])
            # the incremental round 3 counts as a round (61 per compression, not
            # 60), matching the convention that early exit alone brings the
            # per-nonce cost to 2 * 61/64 = 1.906 compressions
            rounds += 1
            first = 4
        elif "3" in s:
            self.fill_regs(work.state_r3)
            first = 3
        else:
            self.fill_regs(midstate)
            first = 0
        rounds += self.compress(self.kw2, first, 63, self.fixed)
        self.feedforward(midstate, ring)

        # third compression: the first hash in ring slots 0..7, then padding
        for slot in range(8, 16):
            ring[slot][:] = _COMP3_BLOCK[slot]
        self.fill_regs(sha.IV)
        if "2" in s:  # round 60's E is in register E; rounds 61..63 would shift it into H
            rounds += self.compress(self.kw3, 0, 60)
            e60 = self.regs[4]
        else:
            rounds += self.compress(self.kw3)
            e60 = self.regs[7]
        if min(self.finds) < pos:
            return None
        # digest word 7 byteswapped is the hash's top limb; the referee decides ties
        word7 = np.add(e60, np.uint32(sha.IV.h), self.t1)
        return np.nonzero(word7.byteswap(inplace=True) <= self.top_limb)[0].tolist(), rounds


# ---------------------------------------------------------------------------
# Scanning.


def complete_nonce(work: PreparedWork, nonce: int) -> bytes:
    """The reference double hash of the header bytes at one nonce."""
    return sha.sha256d(work.header + nonce.to_bytes(4, "big"))


def _scan_range(work, starts: range, s, chunk, finds, idx, owner) -> tuple:
    """Scan the chunks of ``chunk`` nonces that begin at ``starts``, in
    order, up to the span's first find, which it publishes in
    ``finds[idx]``, the first chunk above any find there, even mid-chunk,
    or the first chunk after the scan's process ``owner`` has died.  No
    lane past ``starts.stop - 1`` reaches the referee or the report.
    The report holds nothing per chunk: the find, the rounds each lane ran,
    and each referee'd survivor as ``(nonce, extra rounds, passed round 61)``."""
    lanes = _Lanes(work, s, min(chunk, starts.stop - starts.start), finds)
    stage2_active = work.target < WORD6_TARGET_BOUND
    per_lane, survivors = 0, []
    for pos in starts:
        # a span in a child stops once its parent, the owner, has died
        if min(finds) < pos or owner not in (os.getpid(), os.getppid()):
            break
        if (hashed := lanes.chunk(pos)) is None:  # a lower find was published
            break
        candidates, per_lane = hashed
        # the last chunk's lanes past the range's end are not refereed
        for nonce in (pos + lane for lane in candidates if pos + lane < starts.stop):
            digest = complete_nonce(work, nonce)  # scalar referee
            if "2" in s:
                # round 61 rejects it when word 6 is nonzero, which below
                # 2^192 also fails the target; else rounds 61..63 finish
                passed = not stage2_active or digest[24:28] == bytes(4)
                survivors.append((nonce, 3 if passed else 1, passed and stage2_active))
            if meets_target(digest, work.target):
                finds[idx] = nonce
                return FoundNonce(nonce, digest), per_lane, survivors
    return None, per_lane, survivors


def _fork_span(run, idx: int, children: dict) -> None:
    """Run ``run(idx)`` in a child process, entered in ``children[idx]`` as
    its pid and the read end of the pipe that brings back the pickled
    report, or a message if the span raised."""
    read_end, write_end = os.pipe()
    # from Python 3.12 on, os.fork() warns in the parent of a process with
    # threads; the warning is re-issued once the child is in ``children``,
    # so a filter that raises it leaves the scan a child to kill and reap
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pid = os.fork()
    if pid:
        os.close(write_end)
        children[idx] = pid, os.fdopen(read_end, "rb")
        for warning in caught:
            warnings.warn(warning.message)
        return
    # the child never returns into the caller, never writes to stdout or
    # stderr, and leaves without flushing the buffers it inherited
    try:
        # a terminal's Ctrl-C reaches the whole process group: the parent
        # alone ends the scan, and kills and reaps this child
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            report = run(idx)
        except BaseException as exc:
            report = f"{type(exc).__name__}: {exc}"
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(report, pipe)
        os._exit(0)
    finally:
        os._exit(1)


def _join_span(children: dict, idx: int, spans: int, first: int) -> tuple:
    """Read span ``idx``'s report, reap its child and drop it from
    ``children``; raise unless the child exited 0 with a report."""
    pid, pipe = children[idx]
    data = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[idx]
    pipe.close()
    report = pickle.loads(data) if status == 0 else f"exit status {status}"
    if isinstance(report, str):
        raise RuntimeError(f"span {idx} of {spans} (first chunk at nonce {first}) failed "
                           f"in its child process: {report}")
    return report


def scan(
    work: PreparedWork,
    nonce_lo: int,
    nonce_hi: int,
    *,
    improvements: ImprovementSet = ImprovementSet.full(),
    threads: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> ScanResult:
    """Scan the inclusive nonce range, returning the smallest qualifying
    nonce if one exists; an empty range (``nonce_lo > nonce_hi``) tries
    nothing.

    The lanes run exactly the pipeline ``improvements`` selects, at any
    target; the caller names the mode (``mine`` prints ``early-exit`` when
    the set holds flag 2 and ``generic`` otherwise).  Every span runs
    ``chunk`` lanes per numpy call, at most :data:`MAX_CHUNK`.

    Chunk k of the range starts at ``nonce_lo + k * chunk`` and goes to
    span ``k mod spans``, with ``min(threads, chunks, CPUS)`` spans (one
    where the OS has no ``fork``); each span walks its chunks in ascending
    order.  A span publishes its find with one aligned store to its own
    32-bit slot of a shared anonymous ``mmap``, and abandons its chunk at
    the next round once a find below the chunk's start is published: every
    chunk at or below the winner is scanned, so the minimum find is the
    smallest qualifying nonce.  The counters cover ``nonce_lo`` up to the
    winner, or the whole range: as one span does not consume the lanes past
    its find, chunks run above the winner are not counted, and every thread
    count gives the same result.  Each child sends its report back through
    a pipe.  No child outlives the call: a child whose span raises makes the
    scan raise, and if the calling thread raises, the children are killed
    and reaped.  If the calling process is killed, which skips that cleanup,
    each child stops before its next chunk and exits.
    """
    if not (0 <= nonce_lo <= sha.MASK32 and 0 <= nonce_hi <= sha.MASK32):
        raise ValueError(f"nonces must lie in the 32-bit range [0, {sha.MASK32}], "
                         f"got {nonce_lo}..{nonce_hi}")
    if threads < 1:
        raise ValueError("threads must be positive")
    if not 1 <= chunk <= MAX_CHUNK:
        raise ValueError(f"chunk must lie in [1, {MAX_CHUNK}], got {chunk}")
    if nonce_lo > nonce_hi:
        return ScanResult()

    chunks = -(-(nonce_hi - nonce_lo + 1) // chunk)
    spans = min(threads, chunks, CPUS if hasattr(os, "fork") else 1)
    shared = mmap.mmap(-1, 4 * spans)
    shared.write(b"\xff" * 4 * spans)  # slot i: span i's find, 0xFFFFFFFF until then
    finds = memoryview(shared).cast("I")
    owner = os.getpid()

    def run(idx: int) -> tuple:
        return _scan_range(work, range(nonce_lo + idx * chunk, nonce_hi + 1, spans * chunk),
                           improvements, chunk, finds, idx, owner)

    children = {}  # span index -> (pid, pipe from the child) until the child is reaped
    try:
        for idx in range(1, spans):
            _fork_span(run, idx, children)
        reports = [run(0)]
        for idx in range(1, spans):
            reports.append(_join_span(children, idx, spans, nonce_lo + idx * chunk))
    finally:
        for pid, pipe in children.values():  # left only when the scan raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        finds.release()
        shared.close()

    found = min((r[0] for r in reports if r[0] is not None), key=lambda f: f.nonce, default=None)
    last = nonce_hi if found is None else found.nonce
    counted = [sv for r in reports for sv in r[2] if sv[0] <= last]
    return ScanResult(
        found=found,
        nonces_tried=last - nonce_lo + 1,
        # span 0 always runs chunk 0, so its rounds per lane are the scan's
        rounds_executed=reports[0][1] * (last - nonce_lo + 1) + sum(sv[1] for sv in counted),
        stage1_survivors=len(counted),
        stage2_survivors=sum(sv[2] for sv in counted),
    )


def scan_naive(
    header: bytes,
    target: int,
    nonce_lo: int,
    nonce_hi: int,
    *,
    chunk: int = DEFAULT_CHUNK,
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
