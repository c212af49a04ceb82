import functools
import math
import random
from fractions import Fraction

import pytest

from minerlab import rewards as rw

SEED = 0x2E4A_0001
DECAY = Fraction(624, 625)  # the proposed schedule's factor per 336-block period


def half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def smooth_exact(t: int) -> Fraction:
    # the proposed subsidy at height t >= 420,000 in satoshis before rounding
    return 25 * 10**8 * DECAY ** (t // 336 - 1250)


@functools.cache
def smooth_table() -> tuple[int, ...]:
    # the rounded subsidies of the smooth periods from height 420,000, until zero
    table, exact = [], Fraction(25 * 10**8)
    while half_up(exact) > 0:
        table.append(half_up(exact))
        exact *= DECAY
    return tuple(table)


class TestOriginalReward:
    def test_genesis_era(self):
        assert rw.reward_original(0) == 50 * 10**8
        assert rw.reward_original(105_000) == 50 * 10**8
        assert rw.reward_original(209_999) == 50 * 10**8

    def test_first_halving(self):
        assert rw.reward_original(210_000) == 25 * 10**8

    def test_later_halvings(self):
        assert rw.reward_original(840_000) == 312_500_000  # 3.125 BTC
        assert rw.reward_original(1_050_000) == 156_250_000  # 1.5625 BTC

    def test_floor_mode_reaches_zero(self):
        assert rw.reward_original(33 * 210_000) == 0
        assert rw.reward_original(32 * 210_000) == 1  # last single satoshi
        assert rw.reward_original(10**8) == 0  # era 476: the shift passes 64 bits

    def test_negative_height(self):
        with pytest.raises(ValueError):
            rw.reward_original(-1)


class TestProposedReward:
    def test_agrees_with_original_before_420k(self):
        rng = random.Random(SEED)
        for _ in range(500):
            t = rng.randrange(0, 420_000)
            assert rw.reward_proposed(t) == rw.reward_original(t)

    def test_no_drop_at_420k(self):
        for t in (420_000, 420_100, 420_335):
            assert rw.reward_proposed(t) == 25 * 10**8

    def test_first_decrement_exact(self):
        # 25 * 624/625 BTC = 24.96 exactly
        assert rw.reward_proposed(420_336) == 2_496_000_000

    def test_constant_within_window(self):
        rng = random.Random(SEED + 1)
        for _ in range(50):
            k = rng.randrange(1250, 10_000)
            base = rw.reward_proposed(k * 336)
            assert rw.reward_proposed(k * 336 + 335) == base
            assert rw.reward_proposed(k * 336 + rng.randrange(336)) == base

    def test_strictly_decreasing_across_windows_pre_rounding(self):
        rng = random.Random(SEED + 2)
        for _ in range(50):
            k = rng.randrange(1250, 20_000)
            assert smooth_exact((k + 1) * 336) < smooth_exact(k * 336)
            assert rw.reward_proposed((k + 1) * 336) <= rw.reward_proposed(k * 336)

    def test_published_values_within_a_cent(self):
        published = {
            525_000: Fraction("15.16"),
            630_000: Fraction("9.18"),
            840_000: Fraction("3.378"),
            1_050_000: Fraction("1.2417"),
        }
        for t, want in published.items():
            got = Fraction(rw.reward_proposed(t), 10**8)
            assert abs(got - want) <= Fraction(1, 100)

    def test_rounding_half_up_on_exact_value(self):
        rng = random.Random(SEED + 3)
        for _ in range(100):
            t = rng.randrange(420_000, 3_000_000)
            exact = smooth_exact(t)
            got = rw.reward_proposed(t)
            assert abs(Fraction(got) - exact) <= Fraction(1, 2)
            # half-up: the rounded value is the unique integer in (x-1/2, x+1/2]
            assert Fraction(got) > exact - Fraction(1, 2)

    def test_reward_hits_zero_and_stays_there(self):
        period, rewards, _ = rw._periods("proposed")
        zero_height = len(rewards) * period
        assert zero_height == (13_947 + rw.SMOOTH_START_PERIOD) * 336
        assert rw.reward_proposed(zero_height) == 0
        assert rw.reward_proposed(zero_height - 1) > 0
        assert rw.reward_proposed(zero_height + 10_000_000) == 0

    def test_never_exceeds_50_btc(self):
        rng = random.Random(SEED + 4)
        for _ in range(300):
            t = rng.randrange(0, 6_000_000)
            assert rw.reward_proposed(t) <= 50 * 10**8


class TestSupply:
    def test_zero_height(self):
        for kind in ("original", "proposed"):
            rep = rw.cumulative_supply(0, kind)
            assert rep.cumulative_satoshis == 0
            assert rep.exact_btc == 0

    def test_first_halving_supply(self):
        rep = rw.cumulative_supply(210_000, "original")
        assert rep.exact_btc == 10_500_000
        assert rep.cumulative_satoshis == 10_500_000 * 10**8

    def test_second_halving_supply_both_schedules(self):
        for kind in ("original", "proposed"):
            rep = rw.cumulative_supply(420_000, kind)
            assert rep.exact_btc == 15_750_000
            assert rep.cumulative_satoshis == 15_750_000 * 10**8
            assert rw.CAP_SATOSHIS - rep.cumulative_satoshis == 5_250_000 * 10**8

    def test_matches_blockwise_sum(self):
        # closed-form accumulators agree with literal per-block summation
        rng = random.Random(SEED + 5)
        for _ in range(5):
            t = rng.randrange(419_000, 423_000)
            want = sum(rw.reward_proposed(u) for u in range(t))
            assert rw.cumulative_supply(t, "proposed").cumulative_satoshis == want

    def test_monotone(self):
        rng = random.Random(SEED + 6)
        heights = sorted(rng.randrange(0, 6_000_000) for _ in range(40))
        for kind in ("original", "proposed"):
            values = [rw.cumulative_supply(t, kind).cumulative_satoshis for t in heights]
            assert values == sorted(values)

    def test_bounded_by_cap(self):
        for kind in ("original", "proposed"):
            rep = rw.cumulative_supply(50_000_000, kind)
            assert rep.cumulative_satoshis <= rw.CAP_SATOSHIS
            assert rw.CAP_SATOSHIS - rep.cumulative_satoshis >= 0

    def test_exact_matches_per_period_sum(self):
        # the closed form against the series summed one period at a time
        acc = Fraction(15_750_000)
        reward_btc = Fraction(25)
        for j in range(400):
            t = rw.SMOOTH_START_HEIGHT + j * 336
            for offset in (0, 1, 335):
                got = rw.cumulative_supply(t + offset, "proposed").exact_btc
                assert got == acc + offset * reward_btc
            acc += 336 * reward_btc
            reward_btc *= DECAY

    def test_at_height_limit(self):
        rep = rw.cumulative_supply(rw.MAX_SUPPLY_HEIGHT, "proposed")
        assert rep.cumulative_satoshis == rw.total_emission("proposed").iterated_satoshis
        assert 0 < rw.CAP_BTC - rep.exact_btc < Fraction(1, 10**8)

    def test_height_limit(self):
        with pytest.raises(ValueError):
            rw.cumulative_supply(rw.MAX_SUPPLY_HEIGHT + 1, "proposed")

    def test_unknown_schedule(self):
        with pytest.raises(ValueError, match="'bogus'"):
            rw.cumulative_supply(1, "bogus")
        with pytest.raises(ValueError, match="'bogus'"):
            rw.total_emission("bogus")

    def test_period_boundaries(self):
        # expected values follow each schedule's rule one era or period at a
        # time, never the module's prefix sums
        supply = 0
        for f in range(36):
            reward = (50 * 10**8) >> f
            for d in (-1, 0, 1):
                t = f * 210_000 + d
                if t < 0:
                    continue
                era_reward = reward if d >= 0 else (50 * 10**8) >> (f - 1)
                want = supply + d * era_reward
                assert rw.reward_original(t) == era_reward
                assert rw.cumulative_supply(t, "original").cumulative_satoshis == want
            supply += 210_000 * reward

        def proposed_rewards():
            # per-period subsidies: 625 at 50 BTC, 625 at 25 BTC, then 25 BTC
            # times (624/625)^j rounded half-up from period 1250, until zero
            yield from [50 * 10**8] * 625 + [25 * 10**8] * 625
            num, den = 25 * 10**8, 1
            while (sat := (2 * num + den) // (2 * den)) > 0:
                yield sat
                num, den = num * 624, den * 625
            yield 0

        supply_at = {}  # first height of each period -> supply and subsidy
        supply = 0
        for k, reward in enumerate(proposed_rewards()):
            supply_at[k * 336] = supply, reward
            supply += 336 * reward
        zero = max(supply_at)
        assert supply_at[zero][1] == 0 and zero == (1250 + 13_947) * 336
        heights = (209_999, 210_000, 419_999, 420_000, 420_335, 420_336,
                   zero - 336, zero, zero + 10**7)
        for t in heights:
            start = min(t, zero) // 336 * 336
            done, reward = supply_at[start]
            assert rw.reward_proposed(t) == reward
            assert rw.cumulative_supply(t, "proposed").cumulative_satoshis == done + (t - start) * reward


class TestSmoothTable:
    def test_entries_round_the_exact_series(self):
        period, rewards, before = rw._periods("proposed")
        assert period == 336
        # 625 periods at 50 BTC and 625 at 25 BTC before the smooth ones
        assert rewards[:rw.SMOOTH_START_PERIOD] == (50 * 10**8,) * 625 + (25 * 10**8,) * 625
        smooth = rewards[rw.SMOOTH_START_PERIOD:]
        assert smooth == smooth_table()  # which ends before the first zero entry
        assert len(smooth) == 13_947
        assert len(before) == len(rewards) + 1 and before[-1] == sum(rewards)
        assert before[rw.SMOOTH_START_PERIOD] * 336 == 15_750_000 * 10**8


class TestTotals:
    def test_original_closed_form_exact(self):
        assert rw.total_emission("original").closed_form_btc == 21_000_000

    def test_original_series_telescopes(self):
        # partial sums 210000*50*(1 + 1/2 + ... + 2^-n) = 21e6 * (1 - 2^-(n+1))
        acc = Fraction(0)
        for f in range(40):
            acc += 210_000 * 50 * Fraction(1, 2**f)
            assert acc == 21_000_000 * (1 - Fraction(1, 2 ** (f + 1)))

    def test_proposed_closed_form_exact(self):
        assert rw.total_emission("proposed").closed_form_btc == 21_000_000

    def test_proposed_identity_terms(self):
        assert rw.DECAY == DECAY
        assert 1 / (1 - DECAY) == 625
        assert 15_750_000 + 336 * 25 * 625 == 21_000_000

    def test_gcd_design_facts(self):
        assert math.gcd(210_000, 2016) == 336
        assert 210_000 == 336 * 625
        assert 2016 == 6 * 336

    def test_proposed_iterated_drift_small(self):
        te = rw.total_emission("proposed")
        assert abs(te.iterated_satoshis - rw.CAP_SATOSHIS) <= Fraction(5, 100) * 10**8

    def test_original_iterated_known_deficit(self):
        te = rw.total_emission("original")
        assert te.iterated_satoshis == 2_099_999_997_690_000
        assert te.iterated_satoshis - rw.CAP_SATOSHIS == -2_310_000

    def test_iterated_matches_deep_cumulative(self):
        deep = (len(rw._periods("proposed")[1]) + 10) * 336
        assert (
            rw.cumulative_supply(deep, "proposed").cumulative_satoshis
            == rw.total_emission("proposed").iterated_satoshis
        )


class TestTable:
    def test_default_heights(self):
        rows = rw.schedule_table()
        assert [r.height for r in rows] == list(rw.TABLE_HEIGHTS)

    def test_agreement_rows(self):
        rows = {r.height: r for r in rw.schedule_table()}
        assert rows[210_000].old_satoshis == rows[210_000].new_satoshis == 25 * 10**8
        assert rows[105_000].old_satoshis == 50 * 10**8

    def test_divergence_at_420k(self):
        rows = {r.height: r for r in rw.schedule_table()}
        assert rows[420_000].old_satoshis == 1_250_000_000
        assert rows[420_000].new_satoshis == 25 * 10**8

    def test_crossover_exists_and_is_reported(self):
        h = rw.first_lower_height()
        assert 420_000 < h
        assert rw.reward_proposed(h) < rw.reward_original(h)
        assert rw.reward_proposed(h - 336) >= rw.reward_original(h - 336)
        assert h == 565_488  # 336 * 1683

    def test_custom_heights(self):
        rows = rw.schedule_table([0, 630_000])
        assert rows[0].old_satoshis == 50 * 10**8
        assert Fraction(rows[1].old_satoshis, rw.SATOSHI_PER_BTC) == Fraction("6.25")


class TestRetarget:
    T = 2016 * 600

    def test_on_schedule_unchanged(self):
        old = 0xFFFF << 208
        assert rw.retarget(old, self.T) == old

    def test_half_time_halves_target(self):
        old = 0xFFFF << 208
        assert rw.retarget(old, self.T // 2) == old // 2

    def test_clamp_limits_drop(self):
        old = 0xFFFF << 208
        assert rw.retarget(old, self.T // 8) == old // 4

    def test_clamp_limits_rise(self):
        old = 1 << 200
        assert rw.retarget(old, self.T * 10) == old * 4

    def test_saturates_below_2_256(self):
        old = (1 << 255) + 12345
        assert rw.retarget(old, self.T * 4) == (1 << 256) - 1

    def test_floor_at_one(self):
        assert rw.retarget(2, 1) == 1

    @pytest.mark.parametrize("actual", [0, -5])
    def test_bad_spans(self, actual):
        with pytest.raises(ValueError):
            rw.retarget(1 << 200, actual)
