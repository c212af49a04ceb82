"""Answers the benchmark checks against, computed without minerlab.

Hashing goes through ``hashlib``; emission figures come from a decimal
recurrence and plain integer sums.  Nothing here imports the program under
test, so a defect in minerlab cannot make its own answers look right.
"""

from __future__ import annotations

import hashlib
import struct
import time
from decimal import Decimal, localcontext
from fractions import Fraction

MASK32 = 0xFFFFFFFF
DIFF1_NBITS = 0x1D00FFFF
DIFF1_TARGET = 0xFFFF << 208  # decode of nbits 1d00ffff

# The first three blocks of the deployed chain: version, previous block
# hash, merkle root (both in display order), timestamp, nbits, nonce field
# and the block hash the header must double-hash to.
HISTORICAL_BLOCKS = (
    (1, "00" * 32,
     "4a5e1e4baab89f3a32518a88c31bc87f618f76673e2cc77ab2127b7afdeda33b",
     1231006505, DIFF1_NBITS, 2083236893,
     "000000000019d6689c085ae165831e934ff763ae46a2a6c172b3f1b60a8ce26f"),
    (1, "000000000019d6689c085ae165831e934ff763ae46a2a6c172b3f1b60a8ce26f",
     "0e3e2357e806b6cdb1f70b54c3a3a17b6714ee1f0e68bebb44a74b1efd512098",
     1231469665, DIFF1_NBITS, 2573394689,
     "00000000839a8e6886ab5951d76f411475428afc90947ee320161bbf18eb6048"),
    (1, "00000000839a8e6886ab5951d76f411475428afc90947ee320161bbf18eb6048",
     "9b0fc92260312ce44e74ef369f5c66bbb85848f2eddd5a7a1cde251e54ccfdd5",
     1231469744, DIFF1_NBITS, 1639830024,
     "000000006a625f06636b8bb6ac7b960a8d03705d1ace08b1a19da3fdcc99ddbd"),
)


def historical_header(index: int) -> bytes:
    """Serialized 80-byte header of historical block ``index``."""
    version, prev, merkle, ts, nbits, nonce, _ = HISTORICAL_BLOCKS[index]
    return struct.pack(
        "<I32s32sIII", version, bytes.fromhex(prev)[::-1],
        bytes.fromhex(merkle)[::-1], ts, nbits, nonce,
    )


def scanner_nonce(header: bytes) -> int:
    """The nonce word as the hash consumes it: bytes 76..79 big-endian."""
    return int.from_bytes(header[76:80], "big")


def sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def hash_int(digest: bytes) -> int:
    """The digest read as the 256-bit integer compared with the target."""
    return int.from_bytes(digest, "little")


def display_hex(digest: bytes) -> str:
    return digest[::-1].hex()


def _nonce_hashes(header: bytes, start: int, stop: int):
    """(nonce, digest) for each scanner nonce in [start, stop)."""
    mid = hashlib.sha256(header[:64])
    block = bytearray(header[64:76] + bytes(4))
    pack = struct.Struct(">I").pack_into
    sha = hashlib.sha256
    for nonce in range(start, stop):
        pack(block, 12, nonce)
        inner = mid.copy()
        inner.update(block)
        yield nonce, sha(inner.digest()).digest()


def first_solution(header: bytes, target: int, start: int = 0) -> int:
    """Smallest scanner nonce >= ``start`` whose header hashes below target."""
    for nonce, digest in _nonce_hashes(header, start, MASK32 + 1):
        if int.from_bytes(digest, "little") < target:
            return nonce
    raise ValueError("no solution in the nonce space")


def hashlib_seconds(header: bytes, count: int, start: int = 0) -> float:
    """Seconds a plain double-SHA loop takes over ``count`` nonces."""
    t0 = time.perf_counter()
    for _ in _nonce_hashes(header, start, start + count):
        pass
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Emission schedules.

SAT = 100_000_000
CAP_SAT = 21_000_000 * SAT
HALVING = 210_000
SMOOTH_START = 420_000
PERIOD = 336
START_PERIOD = SMOOTH_START // PERIOD
BASE_SAT = 25 * SAT


def reward_original(t: int) -> int:
    f = t // HALVING
    return (50 * SAT) >> f if f < 64 else 0


def _original_sum(t: int) -> int:
    total, f = 0, 0
    while t > 0 and f < 64:
        n = min(t, HALVING)
        total += n * ((50 * SAT) >> f)
        t -= n
        f += 1
    return total


def _original_exact_btc(t: int) -> Fraction:
    total, f = Fraction(0), 0
    while t > 0 and f <= 33:
        n = min(t, HALVING)
        total += n * Fraction(50 * SAT, 1 << f)
        t -= n
        f += 1
    return total / SAT


class Emission:
    """Both schedules, with the smooth one tabulated once per process.

    From height 420,000 the proposed subsidy is 25 BTC times 0.9984^j in
    period j (624/625 = 0.9984 exactly), rounded half up.  The decimal
    recurrence below carries 60 significant digits, far more than the
    rounding needs, and a value of the form x.5 cannot occur: for j >= 3
    the exact value has a denominator that is a power of 5.
    """

    def __init__(self) -> None:
        rewards = []
        with localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(BASE_SAT)
            step = Decimal("0.9984")
            while True:
                r = int(x + Decimal("0.5"))  # floor of x + 1/2 for x > 0
                if r == 0:
                    break
                rewards.append(r)
                x *= step
        self.period_rewards = rewards
        self.prefix = [0]
        for r in rewards:
            self.prefix.append(self.prefix[-1] + PERIOD * r)

    def reward_proposed(self, t: int) -> int:
        if t < HALVING:
            return 50 * SAT
        if t < SMOOTH_START:
            return BASE_SAT
        j = t // PERIOD - START_PERIOD
        return self.period_rewards[j] if j < len(self.period_rewards) else 0

    def supply_sat(self, t: int, schedule: str) -> int:
        if schedule == "original" or t <= SMOOTH_START:
            return _original_sum(t)
        m = t // PERIOD - START_PERIOD
        done = self.prefix[min(m, len(self.period_rewards))]
        partial = (t % PERIOD) * (self.period_rewards[m] if m < len(self.period_rewards) else 0)
        return _original_sum(SMOOTH_START) + done + partial

    def supply_exact_btc(self, t: int, schedule: str) -> float:
        if schedule == "original" or t <= SMOOTH_START:
            return float(_original_exact_btc(t))
        m = t // PERIOD - START_PERIOD
        partial = t % PERIOD
        with localcontext() as ctx:
            ctx.prec = 50
            q = Decimal("0.9984")
            q_m = q**m
            full = PERIOD * BASE_SAT * (1 - q_m) / (1 - q)
            tail = partial * BASE_SAT * q_m
            smooth = (full + tail) / SAT
        return float(_original_exact_btc(SMOOTH_START)) + float(smooth)

    def total_sat(self, schedule: str) -> int:
        if schedule == "original":
            return sum(HALVING * ((50 * SAT) >> f) for f in range(33))
        return _original_sum(SMOOTH_START) + self.prefix[-1]


def btc_close(text: str, satoshis: int | float, tol_btc: float = 2e-8) -> bool:
    """True when a printed BTC figure matches a satoshi amount.

    The CLI formats BTC through a float, so the last printed digit may
    differ by one from the exact decimal; satoshi fields are compared
    exactly elsewhere.
    """
    try:
        return abs(float(text) - satoshis / SAT) <= tol_btc
    except ValueError:
        return False
