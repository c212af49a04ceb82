"""Block-subsidy schedules and supply accounting.

Two emission rules are implemented, both denominated in satoshis
(1 BTC = 100,000,000 satoshis) and both summing to exactly 21,000,000 BTC
in closed form:

* ``original`` - the deployed rule: 50 * 2^-f BTC where f = t // 210000.
  The halving is abrupt; the cap follows from the geometric series
  210000 * 50 * (1 + 1/2 + 1/4 + ...) = 21,000,000.

* ``proposed`` - a smooth replacement that leaves history untouched: the
  subsidy stays 50 then 25 BTC through height 419,999, and from 420,000
  decays by the factor 624/625 every 336 blocks,

      reward(t) = 25 * (625/624)^(1250 - k) BTC,  k = t // 336 >= 1250,

  rounded to the nearest satoshi. 336 = gcd(210000, 2016) aligns the steps
  with both the retarget and halving cycles (210000 = 336 * 625), and the
  same series argument gives 15.75e6 + 336 * 25 * 625 = 21,000,000.

Rounded smooth subsidies come from one table built on first use; exact
supplies are closed forms. Floats appear only in display helpers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal, Sequence

SATOSHI_PER_BTC = 100_000_000
CAP_BTC = 21_000_000
CAP_SATOSHIS = CAP_BTC * SATOSHI_PER_BTC

HALVING_INTERVAL = 210_000
INITIAL_REWARD_SATOSHIS = 50 * SATOSHI_PER_BTC
LAST_NONZERO_HALVING = 32  # 50e8 >> 33 == 0

SMOOTH_START_HEIGHT = 420_000
SMOOTH_PERIOD = 336
SMOOTH_START_PERIOD = SMOOTH_START_HEIGHT // SMOOTH_PERIOD  # 1250
SMOOTH_BASE_SATOSHIS = 25 * SATOSHI_PER_BTC
DECAY = Fraction(624, 625)

MAX_SUPPLY_HEIGHT = 100_000_000  # the exact supply's denominator has 2.75 M bits here

ScheduleKind = Literal["original", "proposed"]

# Heights of the published old-versus-new comparison table, and the new
# schedule's BTC values it printed. The 420,336 entry is known to disagree
# with the exact formula value (printed 24.97; the formula gives
# 25 * 624/625 = 24.96).
TABLE_HEIGHTS = (105_000, 210_000, 420_000, 420_336, 525_000, 630_000, 840_000, 1_050_000)
PUBLISHED_NEW_BTC = {
    105_000: Fraction("50.0"), 210_000: Fraction("25.0"),
    420_000: Fraction("25.0"), 420_336: Fraction("24.97"),
    525_000: Fraction("15.16"), 630_000: Fraction("9.18"),
    840_000: Fraction("3.378"), 1_050_000: Fraction("1.2417"),
}


def _check_height(t: int) -> None:
    if t < 0:
        raise ValueError("height must be nonnegative")


def reward_original(t: int) -> int:
    """Subsidy at height ``t`` under the halving rule, in satoshis: the
    deployed integer right shift, zero from period 33 on."""
    _check_height(t)
    return INITIAL_REWARD_SATOSHIS >> t // HALVING_INTERVAL


def _round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def smooth_reward_exact(t: int) -> Fraction:
    """Pre-rounding proposed subsidy in satoshis, as an exact rational."""
    _check_height(t)
    if t < HALVING_INTERVAL:
        return Fraction(INITIAL_REWARD_SATOSHIS)
    if t < SMOOTH_START_HEIGHT:
        return Fraction(SMOOTH_BASE_SATOSHIS)
    j = t // SMOOTH_PERIOD - SMOOTH_START_PERIOD
    return SMOOTH_BASE_SATOSHIS * DECAY**j


def reward_proposed(t: int) -> int:
    """Proposed subsidy at height ``t`` in satoshis, rounded half-up.

    From 420,000 on it is read from the period table: constant within
    each 336-block window, it changes only at multiples of 336.
    """
    _check_height(t)
    if t < SMOOTH_START_HEIGHT:
        return SMOOTH_BASE_SATOSHIS if t >= HALVING_INTERVAL else INITIAL_REWARD_SATOSHIS
    rewards, _ = _smooth_table()
    j = t // SMOOTH_PERIOD - SMOOTH_START_PERIOD
    return rewards[j] if j < len(rewards) else 0


# Rounded per-period satoshi values via 128-bit fixed point. The scaled
# value is tracked with a one-sided error bound (floor division loses at
# most one scaled unit per step); if a rounding decision were ever
# ambiguous at that precision the exact rational is consulted instead.
_SCALE_BITS = 128
_HALF = 1 << (_SCALE_BITS - 1)


def _smooth_period_satoshis() -> Iterator[int]:
    """Yield the rounded satoshi subsidy for periods j = 0, 1, ... until 0."""
    lo = SMOOTH_BASE_SATOSHIS << _SCALE_BITS
    slack = 0
    j = 0
    while True:
        r_lo = (lo + _HALF) >> _SCALE_BITS
        r_hi = (lo + slack + _HALF) >> _SCALE_BITS
        if r_lo != r_hi:
            r_lo = _round_half_up(smooth_reward_exact((SMOOTH_START_PERIOD + j) * SMOOTH_PERIOD))
        if r_lo == 0:
            return
        yield r_lo
        lo = lo * 624 // 625
        slack = slack * 624 // 625 + 1
        j += 1


@functools.cache
def _smooth_table() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rounded subsidies of the smooth periods before the first zero one (so
    the zero period is its length) and prefix sums ``before[j]`` of 0 .. j-1."""
    rewards = tuple(_smooth_period_satoshis())
    return rewards, tuple(itertools.accumulate(rewards, initial=0))


@dataclass(frozen=True)
class SupplyReport:
    height: int
    cumulative_satoshis: int
    cap_delta_satoshis: int  # satoshis still unissued versus the 21M cap
    exact_btc: Fraction  # pre-rounding accumulator


def _cumulative_original_satoshis(t: int) -> int:
    total = 0
    f = 0
    remaining = t
    while remaining > 0 and f < 64:
        n = min(remaining, HALVING_INTERVAL)
        total += n * (INITIAL_REWARD_SATOSHIS >> f)
        remaining -= n
        f += 1
    return total


def _cumulative_original_exact(t: int) -> Fraction:
    # eras 0 .. f-1 leave 100 * 2^-f of the 100-BTC-per-block series unissued
    # (CAP_BTC is 100 * HALVING_INTERVAL), and era f's first ``partial``
    # blocks take 50 * 2^-f each; exact rewards end after era 33
    f, partial = divmod(min(t, (LAST_NONZERO_HALVING + 2) * HALVING_INTERVAL), HALVING_INTERVAL)
    return CAP_BTC - Fraction(50 * (2 * HALVING_INTERVAL - partial), 1 << f)


def _cumulative_proposed_satoshis(t: int) -> int:
    if t <= SMOOTH_START_HEIGHT:
        return _cumulative_original_satoshis(t)
    _, before = _smooth_table()
    j = min((t - SMOOTH_START_HEIGHT) // SMOOTH_PERIOD, len(before) - 1)
    return (_cumulative_original_satoshis(SMOOTH_START_HEIGHT)
            + SMOOTH_PERIOD * before[j] + t % SMOOTH_PERIOD * reward_proposed(t))


def _cumulative_proposed_exact(t: int) -> Fraction:
    if t <= SMOOTH_START_HEIGHT:
        return _cumulative_original_exact(t)
    m, partial = divmod(t - SMOOTH_START_HEIGHT, SMOOTH_PERIOD)
    # 15.75e6 BTC before 420,000 and the series 336 * 25 / (1 - q) make the
    # cap; after m periods and ``partial`` blocks the series tail is unissued
    return CAP_BTC - (SMOOTH_PERIOD / (1 - DECAY) - partial) * 25 * DECAY**m


def cumulative_supply(t: int, kind: ScheduleKind) -> SupplyReport:
    """Total issuance from the per-block subsidies of heights 0 .. t-1."""
    _check_height(t)
    if t > MAX_SUPPLY_HEIGHT:
        raise ValueError(f"height beyond supported range ({MAX_SUPPLY_HEIGHT})")
    if kind == "original":
        sat = _cumulative_original_satoshis(t)
        exact = _cumulative_original_exact(t)
    elif kind == "proposed":
        sat = _cumulative_proposed_satoshis(t)
        exact = _cumulative_proposed_exact(t)
    else:
        raise ValueError(f"unknown schedule {kind!r}")
    return SupplyReport(
        height=t,
        cumulative_satoshis=sat,
        cap_delta_satoshis=CAP_SATOSHIS - sat,
        exact_btc=exact,
    )


@dataclass(frozen=True)
class EmissionTotal:
    closed_form_btc: Fraction
    iterated_satoshis: int
    iterated_delta_satoshis: int  # iterated total minus the 21M cap


def total_emission(kind: ScheduleKind) -> EmissionTotal:
    """All-time issuance: the exact series limit and the rounded-unit sum.

    The closed forms evaluate the defining geometric series; the iterated
    figure sums rounded satoshi rewards until they reach zero, exposing the
    accumulated rounding drift against the cap.
    """
    if kind == "original":
        closed = HALVING_INTERVAL * 50 * (1 / (1 - Fraction(1, 2)))
        iterated = _cumulative_original_satoshis((LAST_NONZERO_HALVING + 1) * HALVING_INTERVAL)
    elif kind == "proposed":
        pre = HALVING_INTERVAL * 50 + HALVING_INTERVAL * 25
        closed = pre + SMOOTH_PERIOD * 25 * (1 / (1 - DECAY))
        iterated = (_cumulative_original_satoshis(SMOOTH_START_HEIGHT)
                    + SMOOTH_PERIOD * _smooth_table()[1][-1])
    else:
        raise ValueError(f"unknown schedule {kind!r}")
    return EmissionTotal(
        closed_form_btc=closed,
        iterated_satoshis=iterated,
        iterated_delta_satoshis=iterated - CAP_SATOSHIS,
    )


@dataclass(frozen=True)
class TableRow:
    height: int
    old_satoshis: int
    new_satoshis: int

    @property
    def old_btc(self) -> Fraction:
        return Fraction(self.old_satoshis, SATOSHI_PER_BTC)

    @property
    def new_btc(self) -> Fraction:
        return Fraction(self.new_satoshis, SATOSHI_PER_BTC)


def schedule_table(heights: Sequence[int] | None = None) -> list[TableRow]:
    """Old and proposed subsidies side by side at the given heights."""
    if heights is None:
        heights = TABLE_HEIGHTS
    return [
        TableRow(t, reward_original(t), reward_proposed(t))
        for t in heights
    ]


def first_lower_height() -> int:
    """First height where the proposed subsidy drops below the original.

    The smooth curve starts above the halved original (25 versus 12.5 BTC
    at 420,000) and crosses it part way through the cycle.
    """
    k = SMOOTH_START_PERIOD
    while True:
        t = k * SMOOTH_PERIOD
        if reward_proposed(t) < reward_original(t):
            return t
        k += 1


def retarget(
    old_target: int,
    actual_span_seconds: int,
    expected_span_seconds: int,
    clamp: int | None = 4,
) -> int:
    """Difficulty retarget: scale the target by observed over expected time.

    The result is clamped to [old/clamp, old*clamp] (pass ``clamp=None``
    to disable) and saturated below 2^256.
    """
    if old_target <= 0 or old_target >= 1 << 256:
        raise ValueError("old target out of range")
    if actual_span_seconds <= 0 or expected_span_seconds <= 0:
        raise ValueError("spans must be positive")
    if clamp is not None and clamp < 1:
        raise ValueError("clamp factor must be at least 1")
    new = old_target * actual_span_seconds // expected_span_seconds
    if clamp is not None:
        new = min(max(new, old_target // clamp), old_target * clamp)
    return max(1, min(new, (1 << 256) - 1))
