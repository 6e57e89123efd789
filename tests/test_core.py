"""Core types: construction invariants, slice, validate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecgdenoise.core import (
    RPeaks,
    Signal,
    slice_signal,
    validate,
    wrap_centered,
    wrap_phase,
)


class TestSignal:
    def test_samples_are_immutable(self):
        s = Signal([1.0, 2.0], 360.0)
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_duration(self):
        assert Signal(np.zeros(720), 360.0).duration_s == 2.0


class TestRPeaks:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RPeaks([10, 10, 20])

    def test_check_against_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            RPeaks([5, 500]).check_against(400, 360.0)

    def test_check_against_refractory(self):
        # 50 samples at 360 Hz is 139 ms, under the 200 ms floor.
        with pytest.raises(ValueError, match="refractory"):
            RPeaks([100, 150]).check_against(1000, 360.0)
        RPeaks([100, 180]).check_against(1000, 360.0)  # 222 ms: fine


class TestWrap:
    @given(st.floats(-100.0, 100.0))
    def test_wrap_phase_range(self, x):
        assert 0.0 <= wrap_phase(x) < 2 * np.pi

    @given(st.floats(-100.0, 100.0))
    def test_wrap_centered_range(self, x):
        w = wrap_centered(x)
        assert -np.pi < w <= np.pi

    def test_wrap_centered_pi_boundary(self):
        assert wrap_centered(np.pi) == np.pi
        assert wrap_centered(-np.pi) == np.pi


class TestSlice:
    def test_basic(self):
        out = slice_signal(Signal([1.0, 2.0, 3.0, 4.0], 100.0), 1, 2)
        assert out.samples.tolist() == [2.0, 3.0]
        assert out.fs == 100.0

    def test_identity(self):
        s = Signal([1.0, 2.0], 100.0)
        assert slice_signal(s, 0, 2).samples.tolist() == s.samples.tolist()

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            slice_signal(Signal([1.0, 2.0], 100.0), 1, 5)

    @given(st.data())
    def test_composition(self, data):
        n = data.draw(st.integers(4, 30))
        s = Signal(np.arange(n, dtype=float), 100.0)
        a = data.draw(st.integers(0, n - 1))
        m = data.draw(st.integers(0, n - a))
        b = data.draw(st.integers(0, m))
        k = data.draw(st.integers(0, m - b))
        inner = slice_signal(slice_signal(s, a, m), b, k)
        direct = slice_signal(s, a + b, k)
        assert inner.samples.tolist() == direct.samples.tolist()


class TestValidate:
    def test_ok(self):
        assert validate(Signal([1.0, 2.0], 360.0)) is None

    def test_non_finite(self):
        assert validate(Signal([1.0, np.nan], 360.0)) == "non-finite at index 1"

    def test_empty(self):
        assert validate(Signal([], 360.0)) == "empty"

    def test_bad_fs(self):
        assert "fs" in validate(Signal([1.0], 0.0))
