"""Closed-form cost accounting for the mining pipeline.

Two cost units are modeled:

* compression equivalents - work per nonce measured in whole 64-round
  compression functions, the unit the scanner's instrumentation reports;
* 32-bit full adders - a gate-level proxy that captures the carry-save
  transformations (a round drops from 7 carry-propagating adders to 2, a
  schedule word from 3 to 1) and the constant-folding eliminations.

Ten independently toggleable optimizations are tracked:

  1   midstate caching (first compression amortized over 2^32 nonces)
  2   early exit after round 60/61 of the final compression
  3   precomputed rounds 0..2 of the nonce-bearing compression
  4   incremental round 3 (two register increments per nonce step)
  5   folded K+W constants for zero and 0x80000000 message words (18 adds)
  6   folded K+W for the two length words (2 adds)
  7   precomputed schedule words W16, W17 (2 adds)
  8   incremental schedule word W19 (1 add)
  X   carry-save adders inside the round function (not counted in
      compression equivalents: stock hashing cores already apply it)
  X2  carry-save adders inside the message schedule

Flag 4 builds on the precomputed round-3 state, so it requires 3; flag 8
steps W19 from a precomputed base, so it requires 7.  The fold savings of
flags 5, 6 and 7 are the rounds :data:`FOLDED_ROUNDS` lists, one adder each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple

FLAGS = ("1", "2", "3", "4", "5", "6", "7", "8", "X", "X2")
_REQUIRES = {"4": "3", "8": "7"}

_ROUNDS_PER_COMPRESSION = 64
_SCHEDULE_WORDS_PER_COMPRESSION = 48
_FEEDFORWARD_ADDERS = 8
_ADDERS_PER_ROUND_PLAIN = 7
_ADDERS_PER_ROUND_CSA = 2
_ADDERS_PER_WORD_PLAIN = 3
_ADDERS_PER_WORD_CSA = 1
# Per compression (2: the nonce-bearing one, 3: the second hash), the flag
# under which each round with a constant message word adds one pre-folded
# K_t + W_t: the zeros and the 0x80000000 marker under 5, the length word
# under 6, and W16 and W17 once 7 precomputes them.
FOLDED_ROUNDS = {
    2: {**dict.fromkeys(range(4, 15), "5"), 15: "6", 16: "7", 17: "7"},
    3: {**dict.fromkeys(range(8, 15), "5"), 15: "6"},
}


@dataclass(frozen=True)
class ImprovementSet:
    flags: frozenset[str]

    def __post_init__(self):
        unknown = self.flags - set(FLAGS)
        if unknown:
            raise ValueError(f"unknown improvement flags: {sorted(unknown)}")
        for flag, needed in _REQUIRES.items():
            if flag in self.flags and needed not in self.flags:
                raise ValueError(f"improvement {flag} requires {needed}")

    @classmethod
    def none(cls) -> "ImprovementSet":
        return cls(frozenset())

    @classmethod
    def full(cls) -> "ImprovementSet":
        return cls(frozenset(FLAGS))

    @classmethod
    def parse(cls, text: str) -> "ImprovementSet":
        text = text.strip().lower()
        if text == "none":
            return cls.none()
        if text == "full":
            return cls.full()
        return cls(frozenset(part.strip().upper() for part in text.split(",")))

    def __contains__(self, flag: str) -> bool:
        return flag in self.flags

    def __str__(self) -> str:
        if not self.flags:
            return "none"
        return ",".join(f for f in FLAGS if f in self.flags)


def all_valid_sets() -> Iterator[ImprovementSet]:
    """Every flag combination whose dependencies are satisfied."""
    for r in range(len(FLAGS) + 1):
        for combo in combinations(FLAGS, r):
            chosen = set(combo)
            if all(need in chosen for f, need in _REQUIRES.items() if f in chosen):
                yield ImprovementSet(frozenset(chosen))


def compression_equivalents(s: ImprovementSet) -> Fraction:
    """Whole-compression cost per nonce: :func:`executed_rounds` / 64, so
    the naive pipeline is exactly 3.

    The true residual of improvement 1, 2^-32 per nonce, is reported by
    :func:`amortized_overhead`.
    """
    return Fraction(executed_rounds(s), _ROUNDS_PER_COMPRESSION)


def amortized_overhead(s: ImprovementSet) -> Fraction:
    """Residual per-nonce cost of work hoisted out of the nonce loop."""
    return Fraction(1, 1 << 32) if "1" in s else Fraction(0)


def executed_rounds(s: ImprovementSet) -> int:
    """Full rounds run per nonce: improvement 1 drops the first compression,
    2 and 3 each shave 3 of 64 rounds, and 4 makes round 3 free (it leaves
    this count)."""
    rounds = 0
    if "1" not in s:
        rounds += _ROUNDS_PER_COMPRESSION
    rounds += _ROUNDS_PER_COMPRESSION - (3 if "3" in s else 0) - (1 if "4" in s else 0)
    rounds += _ROUNDS_PER_COMPRESSION - (3 if "2" in s else 0)
    return rounds


def computed_schedule_words(s: ImprovementSet) -> int:
    words = 0
    if "1" not in s:
        words += _SCHEDULE_WORDS_PER_COMPRESSION
    words += _SCHEDULE_WORDS_PER_COMPRESSION
    words += _SCHEDULE_WORDS_PER_COMPRESSION - (3 if "2" in s else 0)
    return words


def adder_count(s: ImprovementSet) -> int:
    """32-bit carry-propagating adders per nonce under the gate model.

    Carry-save layers are free; only full adders are counted. Flag 4's two
    register incrementers are charged as one full-adder equivalent (an
    incrementer carries no addend network, about half the gates), which
    keeps the count integral and every flag strictly profitable.
    """
    per_round = _ADDERS_PER_ROUND_CSA if "X" in s else _ADDERS_PER_ROUND_PLAIN
    per_word = _ADDERS_PER_WORD_CSA if "X2" in s else _ADDERS_PER_WORD_PLAIN
    compressions = 2 if "1" in s else 3
    adders = executed_rounds(s) * per_round
    if "4" in s:
        adders += 1
    adders += computed_schedule_words(s) * per_word
    adders += compressions * _FEEDFORWARD_ADDERS
    adders -= sum(flag in s for folded in FOLDED_ROUNDS.values() for flag in folded.values())
    if "8" in s:  # W19 is a precomputed base plus the nonce
        adders -= 1
    return adders


def savings_fraction(s: ImprovementSet) -> Fraction:
    """Fraction of the naive 3-compression cost removed."""
    return 1 - compression_equivalents(s) / 3


class CsaPair(NamedTuple):
    """Carry-save reduction of three addends: ps + sc = a + b + c mod 2^k."""

    ps: int
    sc: int


def csa(a, b, c, width: int = 32) -> CsaPair:
    """Reduce three k-bit integers to a partial-sum/shift-carry pair.

    Bitwise: ps_i = a_i xor b_i xor c_i and sc_{i+1} = maj(a_i, b_i, c_i);
    the carry out of the top bit is discarded, matching addition mod 2^k.
    Accepts numpy arrays as well as ints (operators only).
    """
    mask = (1 << width) - 1
    ps = (a ^ b ^ c) & mask
    sc = (((a & b) | (a & c) | (b & c)) << 1) & mask
    return CsaPair(ps, sc)


class EnergyReport(NamedTuple):
    power_mw: float
    mwh_per_day: float
    cost_per_day: float
    savings_fraction: float
    savings_per_day: float


def energy_savings(power_per_ghs: float, network_rate_ghs: float,
                   price_per_kwh: float) -> EnergyReport:
    """Fleet-level electricity spend and what the full improvement set saves.

    ``power_per_ghs`` is watts drawn per GH/s of throughput; daily energy
    is the implied megawatts times 24 hours; the saving is the full set's
    share of hashing work eliminated, 71/192 (see :func:`savings_fraction`).
    """
    if power_per_ghs <= 0 or network_rate_ghs <= 0 or price_per_kwh <= 0:
        raise ValueError("power, rate and price must be positive")
    power_mw = network_rate_ghs * power_per_ghs / 1e6
    mwh_per_day = power_mw * 24.0
    cost_per_day = mwh_per_day * 1000.0 * price_per_kwh
    if not math.isfinite(cost_per_day):
        raise ValueError("daily cost overflows a float")
    fraction = float(savings_fraction(ImprovementSet.full()))
    return EnergyReport(
        power_mw=power_mw,
        mwh_per_day=mwh_per_day,
        cost_per_day=cost_per_day,
        savings_fraction=fraction,
        savings_per_day=cost_per_day * fraction,
    )
