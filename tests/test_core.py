"""Core types: construction invariants (the Signal sample rule among them), slice; every library setting rule's SettingError."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecgdenoise import baselines, wfdbio
from ecgdenoise.bench import BenchPlan, load_record, run_bench, trim
from ecgdenoise.core import (
    InputError,
    RPeaks,
    SettingError,
    Signal,
    TWO_PI,
    in_near_range,
    paired,
    sample_count,
    slice_signal,
    wrap_centered,
    wrap_centered_near,
    wrap_phase,
)
from ecgdenoise.enkf import FilterConfig
from ecgdenoise.metrics import calibrate_gain
from ecgdenoise.model import default_morphology, mean_beat, synthesize


class TestSignal:
    def test_samples_are_immutable(self):
        s = Signal([1.0, 2.0], 360.0)
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_duration(self):
        """A duration in seconds becomes whole samples the way the bench trims records."""
        sig, peaks = Signal(np.zeros(1000), 360.0), RPeaks([100, 719, 720, 900])
        cut, kept = trim(sig, peaks, 2.0)
        assert len(cut) == 720 and kept.indices.tolist() == [100, 719]
        assert len(trim(sig, peaks, 2.001)[0]) == 720  # 720.36 samples round to 720
        assert len(trim(sig, peaks, 60.0)[0]) == 1000  # never past the end


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


class TestPaired:
    def test_returns_both_sample_arrays(self):
        a, b = Signal([1.0, 2.0], 360.0), Signal([3.0, 4.0], 360.0)
        x, y = paired(a, b, "reference")
        assert x is a.samples and y is b.samples

    @pytest.mark.parametrize(
        "other, message",
        [
            (Signal(np.zeros(9), 360.0), "9 samples at 360 Hz, signal 10 at 360 Hz"),
            (Signal(np.zeros(10), 250.0), "10 samples at 250 Hz, signal 10 at 360 Hz"),
        ],
        ids=["length", "rate"],
    )
    def test_names_the_partner_both_lengths_and_both_rates(self, other, message):
        with pytest.raises(ValueError) as err:
            paired(Signal(np.zeros(10), 360.0), other, "noise")
        assert type(err.value) is InputError
        assert str(err.value) == f"noise must match the signal's length and rate: {message}"


class TestInputError:
    def test_at_names_the_source_and_keeps_the_type(self):
        err = wfdbio.CsvParseError("row 2: bad").at("x.csv").at("noise CSV")
        assert type(err) is wfdbio.CsvParseError and isinstance(err, InputError)
        assert str(err) == "noise CSV: x.csv: row 2: bad"


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

    def test_near_wrap_equals_wrap_centered_over_its_range(self):
        """wrap_centered_near gives wrap_centered's bits, -0.0 included, on
        [-2*pi, 3*pi] (up to the largest x with x - 2*pi <= pi), and near
        holds exactly there."""
        lo = -TWO_PI
        hi = TWO_PI + np.pi
        while hi - TWO_PI > np.pi:
            hi = np.nextafter(hi, -np.inf)
        step = lambda x, toward: np.nextafter(x, toward)
        points = [0.0, np.pi, TWO_PI, 3 * np.pi, lo, hi]
        points = [v for p in points for q in (p, -p) for v in (q, step(q, -np.inf), step(q, np.inf))]
        x = np.array(points + list(np.random.default_rng(0).uniform(lo, hi, 100_000)))
        x = x[(x >= lo) & (x <= hi)]
        assert {0.0, -0.0, np.pi, -np.pi, TWO_PI, lo, hi, step(lo, np.inf), step(hi, -np.inf)} <= set(x)
        assert np.signbit(x[x == 0.0]).any()
        reference = np.mod(x, TWO_PI)  # the floored remainder, +0 for a zero
        reference = np.where(reference > np.pi, reference - TWO_PI, reference)
        assert wrap_centered_near(x).tobytes() == reference.tobytes() == wrap_centered(x).tobytes()
        assert in_near_range(lo, hi) and in_near_range(x.min(), x.max())
        assert not in_near_range(step(lo, -np.inf), hi) and not in_near_range(lo, step(hi, np.inf))


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
        # Slices of at least one sample: a Signal holds at least one.
        n = data.draw(st.integers(4, 30))
        s = Signal(np.arange(n, dtype=float), 100.0)
        a = data.draw(st.integers(0, n - 1))
        m = data.draw(st.integers(1, n - a))
        b = data.draw(st.integers(0, m - 1))
        k = data.draw(st.integers(1, m - b))
        inner = slice_signal(slice_signal(s, a, m), b, k)
        direct = slice_signal(s, a + b, k)
        assert inner.samples.tolist() == direct.samples.tolist()


class TestValidate:
    """A Signal checks its samples and its rate when it is made, so none holds a bad one."""

    def test_ok(self):
        assert Signal([1.0, 2.0], 360.0).samples.tolist() == [1.0, 2.0]

    def test_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^invalid signal: non-finite at index 1$"):
                Signal([1.0, bad, 3.0, bad], 360.0)

    def test_empty(self):
        with pytest.raises(ValueError, match="^invalid signal: empty$"):
            Signal([], 360.0)

    def test_bad_fs(self):
        for fs in (0.0, -360.0, float("nan"), float("inf")):
            with pytest.raises(SettingError, match=f"^fs must be finite and positive, got {fs:g}$"):
                Signal([1.0], fs)


X = Signal(np.sin(np.arange(64) / 5.0), 360.0)
NAN, INF = float("nan"), float("inf")


# Each library rule on a setting, broken once: d is a directory holding the
# header of a two-channel record "x".
@pytest.mark.parametrize(
    "name, call",
    [
        ("fs", lambda d: Signal([1.0], INF)),
        ("fs", lambda d: sample_count(1.0, NAN)),
        ("fs", lambda d: wfdbio.read_csv(b"mv\n1\n", 0.0)),
        ("window", lambda d: baselines.sg_filter(X, 4, 2)),
        ("window", lambda d: baselines.sg_filter(X, 65, 2)),
        ("polyorder", lambda d: baselines.sg_filter(X, 5, -1)),
        ("levels", lambda d: baselines.wavelet_denoise(X, 0)),
        ("levels", lambda d: baselines.wavelet_denoise(X, 7)),
        ("threshold", lambda d: baselines.wavelet_denoise(X, 2, -1.0)),
        ("taps", lambda d: baselines.nlms_batch([X], [X], 0, 0.5)),
        ("mu", lambda d: baselines.nlms_batch([X], [X], 4, 2.0)),
        ("taps", lambda d: baselines.rls_batch([X], [X], 0, 0.999, 100.0)),
        ("forgetting", lambda d: baselines.rls_batch([X], [X], 4, 1.5, 100.0)),
        ("delta", lambda d: baselines.rls_batch([X], [X], 4, 0.999, 0.0)),
        ("lam", lambda d: baselines.tvd_denoise(X, -1.0)),
        ("n_ensemble", lambda d: FilterConfig(n_ensemble=1)),
        ("q_theta", lambda d: FilterConfig(q_theta=-1.0)),
        ("snr_levels", lambda d: BenchPlan(("x",), snr_levels=(6.0, INF))),
        ("duration_s", lambda d: trim(X, RPeaks([]), 0.0)),
        pytest.param("duration_s", lambda d: trim(X, RPeaks([]), 0.001), id="duration_s-trim-keeps-no-sample"),
        pytest.param("duration_s", lambda d: trim(X, RPeaks([]), 1e300), id="duration_s-trim-count"),
        ("n_ensemble", lambda d: BenchPlan(("x",), n_ensemble=1)),
        ("jobs", lambda d: run_bench(BenchPlan(("x",)), d, 0)),
        ("channel", lambda d: load_record(d, "x", -1)),
        ("channel", lambda d: load_record(d, "x", 2)),
        ("n_bins", lambda d: mean_beat(X, np.zeros(len(X)), 8)),
        ("fs", lambda d: synthesize(default_morphology(), [0.8], INF)),
        ("fs", lambda d: synthesize(default_morphology(), [0.3], 1.0)),
        ("rr_intervals", lambda d: synthesize(default_morphology(), [0.8, INF], 360.0)),
        ("noise_std", lambda d: synthesize(default_morphology(), [0.8], 360.0, noise_std=NAN)),
        ("noise_std", lambda d: synthesize(default_morphology(), [0.8], 360.0, noise_std=-1.0)),
        ("target_snr_db", lambda d: calibrate_gain(X, X, NAN)),
        # The sample-count rule names the larger factor.
        pytest.param("fs", lambda d: sample_count(1.0, 1e308), id="fs-count"),
        pytest.param("seconds", lambda d: sample_count(INF, 360.0), id="seconds-count-inf"),
        pytest.param("seconds", lambda d: sample_count(-1.0, 360.0), id="seconds-count-negative"),
        pytest.param(
            "rr_intervals", lambda d: synthesize(default_morphology(), [1e308, 1e308], 360.0), id="rr_intervals-count"
        ),
    ],
)
def test_setting_rule_names_its_parameter(tmp_path, name, call):
    (tmp_path / "x.hea").write_text("x 2 360 64\nx.dat 212 200 11 0 0 0 0 I\nx.dat 212 200 11 0 0 0 0 II\n")
    with pytest.raises(SettingError) as caught:
        call(tmp_path)
    assert caught.value.name == name
    assert str(caught.value).startswith(f"{name} must be ")


def test_setting_error_shows_a_number_by_g_and_anything_else_by_repr():
    assert str(SettingError("duration_s", "finite and positive", -1.0)) == "duration_s must be finite and positive, got -1"
    unknown = SettingError("methods", "one of sg, tvd", "magic")
    assert str(unknown) == "methods must be one of sg, tvd, got 'magic'"
    assert unknown.named("--methods") == "--methods must be one of sg, tvd, got 'magic'"
    assert str(SettingError("records", "non-empty", ())) == "records must be non-empty, got ()"
