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

Each schedule is one table of equal periods built on first use: 33 eras of
210,000 blocks, or 1,250 + 13,947 periods of 336 blocks, each period's
rounded subsidy and the prefix sums of them. Rounded rewards, supplies and
all-time totals are lookups in it. Every exact value is a ``Decimal`` in
one context, ``_EXACT``, that never rounds: the ratios 1/2 and 624/625 =
0.9984 are finite decimals, so every exact supply and total is one. The
rounded smooth subsidies come from one 128-bit fixed-point pass. Floats
appear only in display helpers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from typing import Iterator, Literal, Sequence

SATOSHI_PER_BTC = 100_000_000
CAP_BTC = 21_000_000
CAP_SATOSHIS = CAP_BTC * SATOSHI_PER_BTC

HALVING_INTERVAL = 210_000
INITIAL_REWARD_SATOSHIS = 50 * SATOSHI_PER_BTC
LAST_NONZERO_HALVING = 32  # 50e8 >> 33 == 0
HALVING_RATIO = Decimal("0.5")

SMOOTH_START_HEIGHT = 420_000
SMOOTH_PERIOD = 336
SMOOTH_START_PERIOD = SMOOTH_START_HEIGHT // SMOOTH_PERIOD  # 1250
SMOOTH_BASE_SATOSHIS = 25 * SATOSHI_PER_BTC
DECAY = Decimal("0.9984")  # 624/625

RETARGET_SPAN_SECONDS = 2016 * 600  # one window of 2016 blocks at 10 minutes
RETARGET_CLAMP = 4  # a retarget moves the target by at most this factor

MAX_SUPPLY_HEIGHT = 100_000_000  # the exact supply has 1.19 M digits here, about 0.07 s
# exact values: with no precision limit no result rounds, and Inexact raises if one would
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])

ScheduleKind = Literal["original", "proposed"]

# Heights of the published old-versus-new comparison table, and the new
# schedule's values it printed, in satoshis. The 420,336 entry is known to
# disagree with the exact formula value (printed 24.97 BTC; the formula gives
# 25 * 624/625 = 24.96).
TABLE_HEIGHTS = (105_000, 210_000, 420_000, 420_336, 525_000, 630_000, 840_000, 1_050_000)
PUBLISHED_NEW_SATOSHIS = {
    105_000: 5_000_000_000, 210_000: 2_500_000_000,
    420_000: 2_500_000_000, 420_336: 2_497_000_000,
    525_000: 1_516_000_000, 630_000: 918_000_000,
    840_000: 337_800_000, 1_050_000: 124_170_000,
}


def reward_original(t: int) -> int:
    """Subsidy at height ``t`` under the halving rule, in satoshis: the
    deployed right shift ``50e8 >> f`` of era f, zero from era 33 on."""
    return _lookup(t, "original")[0]


def reward_proposed(t: int) -> int:
    """Proposed subsidy at height ``t`` in satoshis, rounded half-up:
    constant within each 336-block period, it changes only at multiples
    of 336."""
    return _lookup(t, "proposed")[0]


# Rounded per-period satoshi values via 128-bit fixed point, floored each
# step. Each floor loses under one unit and the carried shortfall shrinks by
# 624/625 a step, so it stays below 625 units (about 1.8e-36 satoshi); no
# exact subsidy 25e8 * 0.9984^j lies within 8.1e-5 satoshi of a rounding tie.
_SCALE_BITS = 128
_HALF = 1 << (_SCALE_BITS - 1)


def _smooth_period_satoshis() -> Iterator[int]:
    """Yield the rounded satoshi subsidy for periods j = 0, 1, ... until 0."""
    scaled = SMOOTH_BASE_SATOSHIS << _SCALE_BITS
    while (satoshis := (scaled + _HALF) >> _SCALE_BITS):
        yield satoshis
        scaled = scaled * 624 // 625


@functools.cache
def _periods(kind: ScheduleKind) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The schedule as equal periods: their length, the rounded subsidy of
    each period before the first zero one (so the zero period is its
    length) and prefix sums ``before[j]`` of periods 0 .. j-1."""
    if kind == "original":
        period = HALVING_INTERVAL
        rewards = tuple(INITIAL_REWARD_SATOSHIS >> f for f in range(LAST_NONZERO_HALVING + 1))
    elif kind == "proposed":
        period = SMOOTH_PERIOD
        per_era = HALVING_INTERVAL // SMOOTH_PERIOD  # 625
        rewards = ((INITIAL_REWARD_SATOSHIS,) * per_era + (SMOOTH_BASE_SATOSHIS,) * per_era
                   + tuple(_smooth_period_satoshis()))
    else:
        raise ValueError(f"unknown schedule {kind!r}")
    return period, rewards, tuple(itertools.accumulate(rewards, initial=0))


def _lookup(t: int, kind: ScheduleKind) -> tuple[int, int]:
    """The rounded subsidy at height ``t`` and the rounded issuance of
    heights 0 .. t-1: whole periods from the prefix sums, then the partial
    period at its subsidy."""
    if t < 0:
        raise ValueError("height must be nonnegative")
    period, rewards, before = _periods(kind)
    j = min(t // period, len(rewards))
    reward = rewards[j] if j < len(rewards) else 0
    return reward, period * before[j] + (t - j * period) * reward


@dataclass(frozen=True)
class SupplyReport:
    cumulative_satoshis: int
    exact_btc: Decimal  # pre-rounding accumulator


def cumulative_supply(t: int, kind: ScheduleKind) -> SupplyReport:
    """Total issuance from the per-block subsidies of heights 0 .. t-1.

    Exactly, a series of ``period``-block periods at ``first`` BTC a block,
    times r each period, has issued its cap less ``(period / (1 - r) - b) *
    first * r**m`` after m periods and b blocks: r is 1/2 from height 0 to
    the end of era 33, and DECAY from 420,000 for proposed heights past it."""
    _, satoshis = _lookup(t, kind)  # rejects a negative height or an unknown schedule
    if kind == "proposed" and t > SMOOTH_START_HEIGHT:
        if t > MAX_SUPPLY_HEIGHT:
            raise ValueError(f"height beyond supported range ({MAX_SUPPLY_HEIGHT})")
        start, period, first, r = SMOOTH_START_HEIGHT, SMOOTH_PERIOD, 25, DECAY
    else:
        t = min(t, (LAST_NONZERO_HALVING + 2) * HALVING_INTERVAL)
        start, period, first, r = 0, HALVING_INTERVAL, 50, HALVING_RATIO
    m, b = divmod(t - start, period)
    with localcontext(_EXACT):
        return SupplyReport(satoshis, CAP_BTC - (period / (1 - r) - b) * first * r**m)


@dataclass(frozen=True)
class EmissionTotal:
    closed_form_btc: Decimal
    iterated_satoshis: int


def total_emission(kind: ScheduleKind) -> EmissionTotal:
    """All-time issuance: the exact series limit and the rounded-unit sum.

    The closed forms evaluate the defining geometric series; the iterated
    figure sums rounded satoshi rewards until they reach zero, exposing the
    accumulated rounding drift against the cap.
    """
    period, _, before = _periods(kind)  # rejects an unknown schedule
    with localcontext(_EXACT):
        closed = (HALVING_INTERVAL * 50 * (1 / (1 - HALVING_RATIO)) if kind == "original"
                  else HALVING_INTERVAL * (50 + 25) + SMOOTH_PERIOD * 25 * (1 / (1 - DECAY)))
    return EmissionTotal(closed_form_btc=closed, iterated_satoshis=period * before[-1])


@dataclass(frozen=True)
class TableRow:
    height: int
    old_satoshis: int
    new_satoshis: int


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


def retarget(old_target: int, actual_span_seconds: int) -> int:
    """The deployed difficulty retarget: scale the target by a window's
    observed time over 2016 * 600 s, clamped to [old/4, old*4].

    No proof-of-work limit applies; the result saturates below 2^256. It is
    not rounded: the network stores each new target as compact nbits, and
    the next retarget starts from that."""
    if old_target <= 0 or old_target >= 1 << 256:
        raise ValueError("old target out of range")
    if actual_span_seconds <= 0:
        raise ValueError("spans must be positive")
    new = old_target * actual_span_seconds // RETARGET_SPAN_SECONDS
    new = min(max(new, old_target // RETARGET_CLAMP), old_target * RETARGET_CLAMP)
    return max(1, min(new, (1 << 256) - 1))
