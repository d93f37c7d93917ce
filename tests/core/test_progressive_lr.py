"""Tests for the progressive linear scaling rule (Eqs. 1-3)."""

import pytest

from repro.core import LrRamp, ramp_for_scale


class TestLrRamp:
    def test_equation3_piecewise(self):
        ramp = LrRamp(start_iteration=100, length=50, base_lr=0.1, target_lr=0.4)
        assert ramp.lr_at(50) == pytest.approx(0.1)  # before T_0
        assert ramp.lr_at(100) == pytest.approx(0.1)  # t = T_0
        assert ramp.lr_at(125) == pytest.approx(0.25)  # halfway
        assert ramp.lr_at(150) == pytest.approx(0.4)  # t = T_0 + T
        assert ramp.lr_at(1000) == pytest.approx(0.4)  # afterwards

    def test_monotone_for_scale_up(self):
        ramp = LrRamp(start_iteration=0, length=100, base_lr=0.1, target_lr=0.8)
        values = [ramp.lr_at(t) for t in range(0, 120)]
        assert values == sorted(values)

    def test_scale_down_ramp_decreases(self):
        """Scaling in halves the batch: the LR ramps *down* (Eq. 1 works
        both directions)."""
        ramp = ramp_for_scale(0.4, 0.5, start_iteration=0, length=10)
        assert ramp.target_lr == pytest.approx(0.2)
        assert ramp.lr_at(5) < ramp.lr_at(0)

    def test_zero_length_jumps(self):
        ramp = LrRamp(start_iteration=10, length=0, base_lr=0.1, target_lr=0.2)
        assert ramp.lr_at(10) == pytest.approx(0.2)

    def test_scale_factor_is_k(self):
        ramp = ramp_for_scale(0.1, 4.0, start_iteration=0)
        assert ramp.scale_factor == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LrRamp(start_iteration=0, length=-1, base_lr=0.1, target_lr=0.2)
        with pytest.raises(ValueError):
            LrRamp(start_iteration=0, length=10, base_lr=0.0, target_lr=0.2)
        with pytest.raises(ValueError):
            ramp_for_scale(0.1, 0.0, start_iteration=0)

    def test_unit_scale_has_no_ramp(self):
        ramp = ramp_for_scale(0.1, 1.0, start_iteration=5, length=100)
        assert ramp.length == 0
        assert ramp.lr_at(5) == pytest.approx(0.1)
