import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minerlab import costs
from minerlab.costs import ImprovementSet

SEED = 0xC057_0001

word32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestImprovementSet:
    def test_parse_variants(self):
        assert ImprovementSet.parse("none") == ImprovementSet.none()
        assert ImprovementSet.parse("full") == ImprovementSet.full()
        assert ImprovementSet.parse("1,2,3") == ImprovementSet(frozenset({"1", "2", "3"}))
        assert ImprovementSet.parse("x,x2,1") == ImprovementSet(frozenset({"X", "X2", "1"}))

    @pytest.mark.parametrize("text", ["all", "", "1,,2"])
    def test_parse_takes_one_spelling(self, text):
        # none, full or flag names; no alias and no empty part
        with pytest.raises(ValueError):
            ImprovementSet.parse(text)

    def test_dependency_4_requires_3(self):
        with pytest.raises(ValueError, match="requires"):
            ImprovementSet(frozenset({"4"}))
        ImprovementSet(frozenset({"3", "4"}))

    def test_dependency_8_requires_7(self):
        with pytest.raises(ValueError, match="requires"):
            ImprovementSet(frozenset({"8"}))
        ImprovementSet(frozenset({"7", "8"}))

    def test_unknown_flag(self):
        with pytest.raises(ValueError, match="unknown"):
            ImprovementSet(frozenset({"9"}))

    def test_all_valid_sets_count(self):
        # 10 flags, two of which are gated: 2^6 free * (2^2-1 valid)^2... by
        # direct count: each gated pair (f, dep) admits 3 of 4 states
        sets = list(costs.all_valid_sets())
        assert len(sets) == (2**6) * 3 * 3
        assert len(set(sets)) == len(sets)


class TestCompressionEquivalents:
    def test_empty_set_is_three(self):
        assert costs.compression_equivalents(ImprovementSet.none()) == 3

    def test_midstate_only(self):
        s = ImprovementSet(frozenset({"1"}))
        assert costs.compression_equivalents(s) == 2
        assert costs.amortized_overhead(s) == Fraction(1, 2**32)

    def test_midstate_plus_early_exit(self):
        s = ImprovementSet(frozenset({"1", "2"}))
        assert costs.compression_equivalents(s) == Fraction(125, 64)
        assert abs(float(costs.compression_equivalents(s)) - 1.953125) < 1e-12

    def test_full_set(self):
        assert costs.compression_equivalents(ImprovementSet.full()) == Fraction(121, 64)
        assert float(costs.compression_equivalents(ImprovementSet.full())) == 1.890625

    def test_monotone_nonincreasing(self):
        rng = random.Random(SEED)
        sets = list(costs.all_valid_sets())
        for _ in range(500):
            s = rng.choice(sets)
            for flag in costs.FLAGS:
                if flag in s:
                    continue
                grown = set(s.flags) | {flag}
                grown |= {costs._REQUIRES[f] for f in grown if f in costs._REQUIRES}
                bigger = ImprovementSet(frozenset(grown))
                assert costs.compression_equivalents(bigger) <= costs.compression_equivalents(s)

    def test_amortized_zero_without_midstate(self):
        assert costs.amortized_overhead(ImprovementSet.none()) == 0


class TestAdderCount:
    def test_empty_set(self):
        # 3 x (64 rounds x 7 + 48 words x 3 + 8 feedforward) = 3 x 600
        assert costs.adder_count(ImprovementSet.none()) == 1800

    def test_csa_only(self):
        # 3 x (64 x 2 + 48 x 1 + 8) = 3 x 184
        assert costs.adder_count(ImprovementSet(frozenset({"X", "X2"}))) == 552

    def test_round_csa_alone_helps(self):
        assert costs.adder_count(ImprovementSet(frozenset({"X"}))) < costs.adder_count(
            ImprovementSet.none()
        )

    def test_independent_tally_full_set(self):
        # spreadsheet-style: comp2 runs rounds 4..63 plus the incremental
        # round 3 (one adder-equivalent), comp3 runs rounds 0..60; schedule
        # words 48 + 45; two feedforwards; folds 18+2+2+1
        rounds = (60 + 61) * 2
        incremental_round3 = 1
        words = (48 + 45) * 1
        feedforward = 2 * 8
        folds = 18 + 2 + 2 + 1
        want = rounds + incremental_round3 + words + feedforward - folds
        assert costs.adder_count(ImprovementSet.full()) == want == 329

    def test_full_set_strictly_minimal(self):
        full = ImprovementSet.full()
        best = costs.adder_count(full)
        for s in costs.all_valid_sets():
            if s != full:
                assert costs.adder_count(s) > best

    def test_every_count_positive(self):
        assert all(costs.adder_count(s) > 0 for s in costs.all_valid_sets())


class TestSavings:
    def test_full_set_value(self):
        got = costs.savings_fraction(ImprovementSet.full())
        assert got == Fraction(71, 192)
        assert abs(float(got) - 0.369791666) < 1e-8

    def test_empty_set_zero(self):
        assert costs.savings_fraction(ImprovementSet.none()) == 0

    def test_midstate_third(self):
        assert costs.savings_fraction(ImprovementSet(frozenset({"1"}))) == Fraction(1, 3)


class TestCsa:
    def test_all_zero(self):
        assert costs.csa(0, 0, 0) == (0, 0)

    def test_smallest_carry(self):
        ps, sc = costs.csa(1, 1, 1)
        assert (ps, sc) == (1, 2)
        assert (ps + sc) % 2**32 == 3

    @given(word32, word32, word32)
    @settings(max_examples=500)
    def test_sum_identity(self, a, b, c):
        ps, sc = costs.csa(a, b, c)
        assert (ps + sc) % 2**32 == (a + b + c) % 2**32

    def test_sum_identity_random_bulk(self):
        rng = random.Random(SEED + 1)
        for _ in range(100_000):
            a, b, c = (rng.getrandbits(32) for _ in range(3))
            ps, sc = costs.csa(a, b, c)
            assert (ps + sc) & 0xFFFFFFFF == (a + b + c) & 0xFFFFFFFF

    def test_exhaustive_8_bit(self):
        # all 2^24 triples of 8-bit words through the same code path
        v = np.arange(256, dtype=np.uint32)
        a = v[:, None, None]
        b = v[None, :, None]
        c = v[None, None, :]
        ps, sc = costs.csa(a, b, c, width=8)
        total = (ps.astype(np.uint64) + sc.astype(np.uint64)) & 0xFF
        want = (a.astype(np.uint64) + b + c) & 0xFF
        assert np.array_equal(total, np.broadcast_to(want, total.shape))


class TestEnergy:
    def test_fleet_scenario(self):
        # 3e6 GH/s at 3.2 W per GH/s: 9.6 MW, 230.4 MWh per day
        rep = costs.energy_savings(3.2, 3_000_000, 0.10)
        assert abs(rep.power_mw - 9.6) < 1e-9
        assert abs(rep.mwh_per_day - 230.4) < 1e-9

    def test_2013_scenario(self):
        # 982 MWh/day costing 150k/day; the full set saves 71/192 of it
        rate = 60_000.0
        power_per_ghs = 982e6 / 24.0 / rate
        price = 150_000.0 / 982_000.0
        rep = costs.energy_savings(power_per_ghs, rate, price)
        assert abs(rep.mwh_per_day - 982.0) < 1e-6
        assert abs(rep.cost_per_day - 150_000.0) < 1e-6
        assert rep.savings_fraction == 71 / 192
        assert abs(rep.savings_per_day - 150_000 * 71 / 192) < 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(power_per_ghs=0, network_rate_ghs=1, price_per_kwh=1),
            dict(power_per_ghs=1, network_rate_ghs=-1, price_per_kwh=1),
            dict(power_per_ghs=1, network_rate_ghs=1, price_per_kwh=0),
        ],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(ValueError):
            costs.energy_savings(**kwargs)
