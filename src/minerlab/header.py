"""Block-header codec, compact targets, difficulty, and digest ordering.

Wire conventions follow the deployed network: the 80-byte header stores
version, timestamp, nbits and nonce little-endian while the two 32-byte
hashes are carried verbatim; the header is hashed as a plain byte string
(so SHA-256 reassembles each 4-byte group big-endian); and the digest is
compared against the target as a little-endian 256-bit integer, which is
the same as displaying the digest byte-reversed and reading it big-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass


HEADER_LEN = 80
MAX_TARGET = (1 << 256) - 1
_HEADER_FMT = "<i32s32sIII"


@dataclass(frozen=True)
class BlockHeader:
    """The 80-byte proof-of-work header.

    ``prev_block`` and ``merkle_root`` are kept in stored (wire) byte
    order. ``nonce`` is the little-endian field value; the word the hash
    function actually consumes is ``byteswap32(nonce)``.
    """

    version: int
    prev_block: bytes
    merkle_root: bytes
    timestamp: int
    nbits: int
    nonce: int

    def __post_init__(self):
        if not -(1 << 31) <= self.version < 1 << 31:
            raise ValueError("version out of signed 32-bit range")
        if len(self.prev_block) != 32:
            raise ValueError("prev_block must be 32 bytes")
        if len(self.merkle_root) != 32:
            raise ValueError("merkle_root must be 32 bytes")
        for name in ("timestamp", "nbits", "nonce"):
            v = getattr(self, name)
            if not 0 <= v <= 0xFFFFFFFF:
                raise ValueError(f"{name} out of unsigned 32-bit range")


def serialize_header(h: BlockHeader) -> bytes:
    return struct.pack(
        _HEADER_FMT, h.version, h.prev_block, h.merkle_root, h.timestamp, h.nbits, h.nonce
    )


def deserialize_header(raw: bytes) -> BlockHeader:
    if len(raw) != HEADER_LEN:
        raise ValueError(f"header must be {HEADER_LEN} bytes, got {len(raw)}")
    version, prev, root, ts, nbits, nonce = struct.unpack(_HEADER_FMT, raw)
    return BlockHeader(version, prev, root, ts, nbits, nonce)


def header_from_hex(text: str) -> BlockHeader:
    text = text.strip()
    if len(text) != 2 * HEADER_LEN:
        raise ValueError(f"header hex must be {2 * HEADER_LEN} characters, got {len(text)}")
    return deserialize_header(bytes.fromhex(text))


def byteswap32(x: int) -> int:
    """Reverse the byte order of a 32-bit word (its own inverse)."""
    if not 0 <= x <= 0xFFFFFFFF:
        raise ValueError("word out of 32-bit range")
    return int.from_bytes(x.to_bytes(4, "little"), "big")


def decode_nbits(raw: int) -> int:
    """Expand a compact target (1-byte exponent, 23-bit mantissa) to 256 bits.

    target = mantissa * 256^(exponent - 3).
    """
    if not 0 <= raw <= 0xFFFFFFFF:
        raise ValueError("nbits out of 32-bit range")
    if raw & 0x00800000:
        raise ValueError("sign bit set in compact target")
    exponent = raw >> 24
    mantissa = raw & 0x007FFFFF
    if mantissa == 0:
        raise ValueError("zero target")
    if exponent <= 3:
        target = mantissa >> (8 * (3 - exponent))
    else:
        target = mantissa << (8 * (exponent - 3))
    if target == 0:
        raise ValueError("zero target")
    if target > MAX_TARGET:
        raise ValueError("compact target overflows 256 bits")
    return target


def encode_nbits(target: int) -> int:
    """Compress a target to canonical compact form.

    Normalizes so the mantissa's top byte is nonzero; when the would-be
    mantissa has its high bit set (which would read as a sign), a leading
    zero byte is inserted by bumping the exponent.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    if target > MAX_TARGET:
        raise ValueError("target overflows 256 bits")
    size = (target.bit_length() + 7) // 8
    if size <= 3:
        mantissa = target << (8 * (3 - size))
    else:
        mantissa = target >> (8 * (size - 3))
    if mantissa & 0x00800000:
        mantissa >>= 8
        size += 1
    return (size << 24) | mantissa


def probability_of(target: int) -> float:
    """Chance that one uniformly random digest falls below the target."""
    if target <= 0:
        raise ValueError("target must be positive")
    return target / (1 << 256)


def difficulty_of(target: int) -> float:
    """difficulty = 2^224 / target, so difficulty * 2^32 = 1 / probability."""
    if target <= 0:
        raise ValueError("target must be positive")
    return (1 << 224) / target


def hash_to_int(digest: bytes) -> int:
    """Interpret a digest as the 256-bit integer the target is compared to.

    The bytes are read in reversed order (equivalently: little-endian), so
    digest words 6 and 7 land in the most significant 64 bits.
    """
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    return int.from_bytes(digest, "little")


def meets_target(digest: bytes, target: int) -> bool:
    """Strict comparison hash < target; equality does not qualify."""
    return hash_to_int(digest) < target


def digest_hex(digest: bytes) -> str:
    """Render a digest the way block explorers do: byte-reversed hex."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    return digest[::-1].hex()
