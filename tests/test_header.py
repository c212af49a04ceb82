import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minerlab.header as hdr
import minerlab.sha256 as sha

SEED = 0x7E57_0000_0001


def _rand_header(rng):
    return hdr.BlockHeader(
        version=rng.randrange(-(1 << 31), 1 << 31),
        prev_block=rng.randbytes(32),
        merkle_root=rng.randbytes(32),
        timestamp=rng.getrandbits(32),
        nbits=rng.getrandbits(32),
        nonce=rng.getrandbits(32),
    )


class TestHeaderCodec:
    def test_round_trip_random(self):
        rng = random.Random(SEED)
        for _ in range(300):
            h = _rand_header(rng)
            assert hdr.deserialize_header(hdr.serialize_header(h)) == h

    def test_length_is_80(self):
        h = _rand_header(random.Random(SEED + 1))
        assert len(hdr.serialize_header(h)) == 80

    def test_version_2_little_endian(self):
        h = _rand_header(random.Random(SEED + 2))
        h = hdr.BlockHeader(2, h.prev_block, h.merkle_root, h.timestamp, h.nbits, h.nonce)
        assert hdr.serialize_header(h)[:4] == b"\x02\x00\x00\x00"

    def test_field_offsets(self):
        h = hdr.BlockHeader(1, b"\xaa" * 32, b"\xbb" * 32, 0x11223344, 0x55667788, 0x99aabbcc)
        raw = hdr.serialize_header(h)
        assert raw[4:36] == b"\xaa" * 32
        assert raw[36:68] == b"\xbb" * 32
        assert raw[68:72] == (0x11223344).to_bytes(4, "little")
        assert raw[72:76] == (0x55667788).to_bytes(4, "little")
        assert raw[76:80] == (0x99AABBCC).to_bytes(4, "little")

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            hdr.deserialize_header(b"\x00" * 79)
        with pytest.raises(ValueError):
            hdr.header_from_hex("ab" * 79)

    def test_nonce_maps_to_word3_of_second_block(self):
        # varying only the nonce changes only word 3 of the second message
        # block, and that word is the big-endian reassembly of the
        # little-endian nonce bytes
        rng = random.Random(SEED + 3)
        h = _rand_header(rng)
        base = sha.pad_message(hdr.serialize_header(h))
        for _ in range(50):
            nonce = rng.getrandbits(32)
            h2 = hdr.BlockHeader(
                h.version, h.prev_block, h.merkle_root, h.timestamp, h.nbits, nonce
            )
            blocks = sha.pad_message(hdr.serialize_header(h2))
            assert blocks[0] == base[0]
            assert blocks[1][:3] == base[1][:3]
            assert blocks[1][4:] == base[1][4:]
            assert blocks[1][3] == hdr.byteswap32(nonce)


class TestCompactTarget:
    def test_max_target_nbits(self):
        assert hdr.decode_nbits(0x1D00FFFF) == 0xFFFF << 208

    def test_identity_scaling(self):
        assert hdr.decode_nbits(0x03000001) == 1

    def test_sign_bit_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            hdr.decode_nbits(0x1D80FFFF)

    def test_zero_mantissa_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            hdr.decode_nbits(0x1D000000)

    def test_underflow_to_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            hdr.decode_nbits(0x01000100)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            hdr.decode_nbits(0xFF00FFFF)

    def test_round_trip_canonical(self):
        rng = random.Random(SEED + 4)
        for _ in range(300):
            t = rng.randrange(1, 1 << 256)
            c = hdr.encode_nbits(t)
            assert hdr.encode_nbits(hdr.decode_nbits(c)) == c

    @given(st.integers(min_value=1, max_value=(1 << 256) - 1))
    @settings(max_examples=200)
    def test_encode_truncates_downward(self, t):
        decoded = hdr.decode_nbits(hdr.encode_nbits(t))
        assert decoded <= t
        # mantissa keeps at least 2^15 of precision
        assert t - decoded <= t >> 15

    def test_high_mantissa_bit_normalized(self):
        # target whose top 3 bytes would set the sign bit
        t = 0x80FFFF << 16
        c = hdr.encode_nbits(t)
        assert not c & 0x00800000
        assert hdr.decode_nbits(c) <= t


class TestDifficulty:
    def test_unit_difficulty(self):
        assert hdr.difficulty_of(1 << 224) == 1.0

    def test_max_target_difficulty(self):
        d = hdr.difficulty_of(hdr.decode_nbits(0x1D00FFFF))
        assert abs(d - 65536 / 65535) < 1e-12

    def test_identity_product(self):
        rng = random.Random(SEED + 5)
        for _ in range(10_000):
            t = rng.randrange(1, 1 << 256)
            assert abs(hdr.difficulty_of(t) * hdr.probability_of(t) * 2**32 - 1.0) < 1e-9

    def test_historical_anchor(self):
        # difficulty around 2^28 pairs with success probability 2^-60
        difficulty = 267_731_249
        assert abs(math.log2(difficulty) - 28.0) < 0.01
        assert abs(math.log2(difficulty * 2**32) - 60.0) < 0.01
        target = (1 << 224) // difficulty
        round_tripped = hdr.decode_nbits(hdr.encode_nbits(target))
        d2 = hdr.difficulty_of(round_tripped)
        assert abs(math.log2(d2 * 2**32) - 60.0) < 0.01

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            hdr.difficulty_of(0)
        with pytest.raises(ValueError):
            hdr.probability_of(0)


class TestHashToInt:
    def test_zero_digest(self):
        assert hdr.hash_to_int(b"\x00" * 32) == 0

    def test_trailing_zero_bytes_mean_small_integer(self):
        rng = random.Random(SEED + 6)
        for _ in range(200):
            d = rng.randbytes(28) + b"\x00" * 4
            assert hdr.hash_to_int(d) < 1 << 224

    def test_reversed_display_leading_byte(self):
        # the display string "01" + 62 zeros denotes raw digest with last
        # byte 1, which sits at the top of the integer
        display = "01" + "00" * 31
        raw = bytes.fromhex(display)[::-1]
        assert hdr.hash_to_int(raw) == 1 << 248
        assert hdr.digest_hex(raw) == display

    def test_monotone_in_high_bytes(self):
        rng = random.Random(SEED + 7)
        for _ in range(200):
            d = bytearray(rng.randbytes(32))
            i = rng.randrange(1, 32)
            if d[i] == 0xFF:
                continue
            bumped = bytes(d[:i]) + bytes([d[i] + 1]) + bytes(d[i + 1 :])
            assert hdr.hash_to_int(bumped) > hdr.hash_to_int(bytes(d))


class TestMeetsTarget:
    def test_zero_digest_meets_any_positive_target(self):
        assert hdr.meets_target(b"\x00" * 32, 1)

    def test_equality_fails(self):
        rng = random.Random(SEED + 8)
        d = rng.randbytes(32)
        assert not hdr.meets_target(d, hdr.hash_to_int(d))
        assert hdr.meets_target(d, hdr.hash_to_int(d) + 1)

    def test_max_target_boundary(self):
        assert not hdr.meets_target(b"\xff" * 32, (1 << 256) - 1)
        assert hdr.meets_target(b"\xfe" + b"\xff" * 31, (1 << 256) - 1)

    def test_acceptance_rate(self):
        rng = random.Random(SEED + 9)
        n, hits = 100_000, 0
        t = 1 << 240
        for _ in range(n):
            hits += hdr.meets_target(rng.randbytes(32), t)
        mean = n * 2**-16
        band = 5 * math.sqrt(mean)
        assert abs(hits - mean) <= band


def test_byteswap_involution():
    rng = random.Random(SEED + 13)
    for _ in range(100):
        x = rng.getrandbits(32)
        assert hdr.byteswap32(hdr.byteswap32(x)) == x
    assert hdr.byteswap32(0x01020304) == 0x04030201
