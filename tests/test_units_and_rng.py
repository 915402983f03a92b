"""Tests for unit conversions and seeded RNG derivation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.sim.rng import derive_seed, generator


class TestUnits:
    def test_paper_uplink_conversion(self):
        # The paper's 16 Mbit/s is exactly 2 MB/s (Section 6.1).
        assert units.mbit_s_to_mb_s(16.0) == pytest.approx(2.0)

    def test_two_mb_s_is_7_gb_per_hour(self):
        rate = units.mb_s_to_gb_h(2.0)
        assert rate == pytest.approx(7.03, abs=0.01)

    @given(st.floats(0.001, 1e6))
    def test_rate_conversions_invert(self, mb_s):
        assert units.gb_h_to_mb_s(units.mb_s_to_gb_h(mb_s)) == pytest.approx(
            mb_s, rel=1e-9
        )

    @given(st.floats(0.0, 1e5))
    def test_time_conversions_invert(self, hours):
        seconds = hours * units.SECONDS_PER_HOUR
        assert units.seconds_to_hours(seconds) == pytest.approx(hours, abs=1e-9)


class TestRng:
    def test_derivation_is_stable(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_labels_separate_streams(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", 1) != derive_seed(1, "a", 2)

    def test_root_seed_separates_streams(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_generator_reproducible(self):
        a = generator(7, "trace").normal(size=5)
        b = generator(7, "trace").normal(size=5)
        assert (a == b).all()
