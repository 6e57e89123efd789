"""Evaluation metrics and the calibrated noise mixer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgdenoise.core import Signal
from ecgdenoise.metrics import (
    UndefinedMetricError,
    calibrate_gain,
    corr,
    mix,
    prd,
    report,
    rmse,
    snr,
    tile_to_length,
)


def sig(xs):
    return Signal(np.asarray(xs, dtype=float), 360.0)


_pair_arrays = st.integers(5, 80).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-10, 10), min_size=n, max_size=n),
        st.lists(st.floats(-10, 10), min_size=n, max_size=n),
    )
)


class TestSnr:
    def test_identical_is_infinite(self):
        assert snr(sig([1.0, 2.0]), sig([1.0, 2.0])) == math.inf

    def test_zero_output_is_zero_db(self):
        x = sig([1.0, -2.0, 0.5])
        assert snr(x, sig([0.0, 0.0, 0.0])) == 0.0

    def test_ten_db(self):
        x = np.zeros(10)
        x[0] = 1.0
        y = x.copy()
        y[0] = 1.0 - math.sqrt(0.1)  # error energy = signal energy / 10
        assert snr(sig(x), sig(y)) == pytest.approx(10.0, abs=1e-12)

    def test_zero_clean_rejected(self):
        with pytest.raises(UndefinedMetricError):
            snr(sig([0.0, 0.0]), sig([1.0, 1.0]))


class TestRmse:
    def test_identical(self):
        assert rmse(sig([1.0, 2.0]), sig([1.0, 2.0])) == 0.0

    def test_three_four(self):
        assert rmse(sig([0.0, 0.0]), sig([3.0, 4.0])) == pytest.approx(math.sqrt(12.5))

    def test_constant_offset(self):
        x = np.linspace(0, 1, 20)
        assert rmse(sig(x), sig(x + 0.25)) == pytest.approx(0.25)


class TestPrd:
    def test_identical(self):
        assert prd(sig([1.0, 2.0]), sig([1.0, 2.0])) == 0.0

    def test_zero_output_is_100(self):
        x = sig([1.0, -0.5, 2.0])
        assert prd(x, sig([0.0, 0.0, 0.0])) == pytest.approx(100.0)

    def test_double_is_100(self):
        x = np.array([1.0, -2.0, 0.7])
        assert prd(sig(x), sig(2 * x)) == pytest.approx(100.0)


class TestCorr:
    def test_positive_affine(self):
        x = np.sin(np.arange(50) * 0.3)
        assert corr(sig(x), sig(3 * x + 7)) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        x = np.sin(np.arange(50) * 0.3)
        assert corr(sig(x), sig(-x)) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        assert corr(sig([1, -1, 1, -1]), sig([1, 1, -1, -1])) == pytest.approx(0.0, abs=1e-15)

    def test_constant_rejected(self):
        with pytest.raises(UndefinedMetricError):
            corr(sig([1.0, 1.0, 1.0]), sig([1.0, 2.0, 3.0]))


class TestMetricIdentities:
    @given(_pair_arrays)
    def test_snr_prd_relation(self, pair):
        xs, ys = pair
        x, y = sig(xs), sig(ys)
        if float(x.samples @ x.samples) == 0.0 or np.array_equal(x.samples, y.samples):
            return
        assert snr(x, y) == pytest.approx(-20.0 * math.log10(prd(x, y) / 100.0), abs=1e-9)

    @given(_pair_arrays)
    def test_prd_rmse_relation(self, pair):
        xs, ys = pair
        x, y = sig(xs), sig(ys)
        energy = float(x.samples @ x.samples)
        if energy == 0.0:
            return
        n = len(x)
        expected = 100.0 * rmse(x, y) * math.sqrt(n) / math.sqrt(energy)
        got = prd(x, y)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_corr_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=40)
            y = rng.normal(size=40)
            a, b = rng.uniform(0.1, 5), rng.uniform(-3, 3)
            c, d = rng.uniform(0.1, 5), rng.uniform(-3, 3)
            base = corr(sig(x), sig(y))
            mapped = corr(sig(a * x + b), sig(c * y + d))
            assert abs(base - mapped) <= 1e-12


class TestFloatRangeEnds:
    @pytest.mark.parametrize("exponent", [520, -540])
    def test_rescaled_pair_keeps_every_value(self, exponent):
        """Scaled by 2**520 every energy overflows, by 2**-540 every one
        underflows; each metric and the calibrated gain still match the unit
        pair's (rmse and the gain times the factor), and numpy warns of nothing."""
        rng = np.random.default_rng(5)
        x = np.sin(np.linspace(0.0, 40.0, 2000)) + 0.1 * rng.normal(size=2000)
        y = x + 0.05 * rng.normal(size=2000)
        v = rng.normal(size=2000)
        f = 2.0**exponent

        def values(x, y, v, f):
            clean, out = sig(x), sig(y)
            gain = calibrate_gain(clean, sig(v), 12.0)
            return snr(clean, out), rmse(clean, out) / f, prd(clean, out), corr(clean, out), gain / f

        unit = values(x, y, v, 1.0)
        scaled = values(x * f, y * f, v, f)
        assert scaled[0] == pytest.approx(unit[0], abs=1e-9)
        assert scaled[1:] == pytest.approx(unit[1:], rel=1e-9)
        assert calibrate_gain(sig(x * f), sig(v * f), 12.0) == pytest.approx(unit[4], rel=1e-9)


class TestMixer:
    def test_equal_power_zero_db(self):
        x = np.ones(16)
        v = np.concatenate([np.ones(8), -np.ones(8)])
        assert calibrate_gain(sig(x), sig(v), 0.0) == pytest.approx(1.0)

    def test_plus_ten_db(self):
        x = np.ones(16)
        v = np.concatenate([np.ones(8), -np.ones(8)])
        assert calibrate_gain(sig(x), sig(v), 10.0) == pytest.approx(10 ** -0.5)

    @given(st.integers(0, 2**32 - 1), st.floats(-12, 30))
    @settings(max_examples=40)
    def test_mix_hits_target_exactly(self, seed, target):
        rng = np.random.default_rng(seed)
        clean = sig(rng.normal(size=200) + 0.1)
        noise = sig(rng.normal(size=200))
        m = mix(clean, noise, target)
        assert snr(m.clean, m.noisy) == pytest.approx(target, abs=1e-9)

    def test_mix_is_exact_sum(self):
        rng = np.random.default_rng(3)
        clean = sig(rng.normal(size=128))
        noise = sig(rng.normal(size=128))
        m = mix(clean, noise, 6.0)
        assert np.array_equal(m.noisy.samples, m.clean.samples + m.scaled_noise.samples)

    def test_noise_tiled_to_length(self):
        noise = sig([1.0, -1.0, 0.5])
        tiled = tile_to_length(noise, 8)
        assert tiled.samples.tolist() == [1.0, -1.0, 0.5, 1.0, -1.0, 0.5, 1.0, -1.0]

    def test_six_levels(self):
        rng = np.random.default_rng(9)
        clean = sig(rng.normal(size=500))
        noise = sig(rng.normal(size=120))
        for level in (-6.0, 0.0, 6.0, 12.0, 18.0, 24.0):
            m = mix(clean, noise, level)
            assert snr(m.clean, m.noisy) == pytest.approx(level, abs=1e-9)
            assert np.array_equal(m.noisy.samples, m.clean.samples + m.scaled_noise.samples)

    def test_snr_decreases_with_gain(self):
        rng = np.random.default_rng(11)
        clean = sig(rng.normal(size=300))
        noise = rng.normal(size=300)
        values = [
            snr(clean, sig(clean.samples + g * noise)) for g in (0.1, 0.3, 1.0, 3.0, 10.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_energy_noise_rejected(self):
        with pytest.raises(UndefinedMetricError):
            calibrate_gain(sig([1.0, 1.0]), sig([0.0, 0.0]), 6.0)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match=f"^target_snr_db must be finite, got {target}$"):
            calibrate_gain(sig([1.0, -1.0]), sig([0.5, 0.5]), target)

    @pytest.mark.parametrize(
        "score",
        [snr, rmse, prd, corr, lambda clean, noise: calibrate_gain(clean, noise, 6.0)],
        ids=["snr", "rmse", "prd", "corr", "calibrate_gain"],
    )
    def test_partner_at_another_rate_rejected(self, score):
        clean = sig(np.sin(np.arange(16.0)))
        partner = Signal(np.cos(np.arange(16.0)), 250.0)
        message = r"^\w+ must match the signal's length and rate: 16 samples at 250 Hz, signal 16 at 360 Hz$"
        with pytest.raises(ValueError, match=message):
            score(clean, partner)

    def test_sample_rate_mismatch_rejected(self):
        clean = sig(np.ones(16))
        noise = Signal(np.concatenate([np.ones(8), -np.ones(8)]), 250.0)
        with pytest.raises(ValueError, match="250 Hz.*360 Hz"):
            mix(clean, noise, 6.0)


class TestReport:
    def test_improvement_is_difference(self):
        rng = np.random.default_rng(2)
        clean = sig(rng.normal(size=100))
        noisy = sig(clean.samples + 0.5 * rng.normal(size=100))
        den = sig(clean.samples + 0.1 * rng.normal(size=100))
        rep = report(clean, noisy, den)
        assert rep.snr_improvement == pytest.approx(rep.snr_out - rep.snr_in)
        assert -1.0 <= rep.corr <= 1.0
