"""Beat model: transition, synthesis, phase observation, template fitting,
R-peak detection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ecgdenoise import enkf
from ecgdenoise.core import REFRACTORY_S, RPeaks, SettingError, Signal, TWO_PI, sample_count, wrap_centered
from ecgdenoise.model import (
    MIN_DETECT_S,
    BeatTemplate,
    BinCoverageError,
    DetectionFailureError,
    GaussianWaveParams,
    InsufficientFiducialsError,
    beat_phase,
    default_morphology,
    detect_r_peaks,
    detectable,
    fit_params,
    mean_beat,
    observed_phase,
    synthesize,
    wave_increment,
    wave_sum,
)
from references import observed_phase_loop, transition


def flat_params():
    return GaussianWaveParams(
        alpha=np.zeros(5),
        b=np.array([0.25, 0.1, 0.1, 0.1, 0.4]),
        theta=np.array([-1.0, -0.5, 0.0, 0.5, 1.0]),
    )


class TestGaussianWaveParams:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="width"):
            GaussianWaveParams(np.zeros(5), np.array([0.1, 0.1, 0.0, 0.1, 0.1]), flat_params().theta)

    def test_rejects_unordered_centers(self):
        with pytest.raises(ValueError, match="increasing"):
            GaussianWaveParams(np.zeros(5), np.full(5, 0.1), np.array([-0.5, -1.0, 0.0, 0.5, 1.0]))

    def test_rejects_off_zero_r_center(self):
        with pytest.raises(ValueError, match="R-wave"):
            GaussianWaveParams(np.zeros(5), np.full(5, 0.1), np.array([-1.0, -0.5, 0.1, 0.5, 1.0]))

    def test_json_round_trip(self):
        p = default_morphology()
        q = GaussianWaveParams.from_dict(p.to_dict())
        assert np.array_equal(p.alpha, q.alpha)
        assert np.array_equal(p.b, q.b)
        assert np.array_equal(p.theta, q.theta)


class TestTransition:
    def test_zero_waves_advance_phase_only(self):
        step = (0.05 * 360.0) * (1.0 / 360.0)  # phase step 0.05
        theta, z = transition(0.1, 0.7, flat_params(), step, eta=0.0)
        assert theta == pytest.approx(0.15)
        assert z == 0.7

    def test_r_term_vanishes_at_its_center(self):
        p = GaussianWaveParams(
            alpha=np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
            b=np.full(5, 0.1),
            theta=np.array([-1.0, -0.5, 0.0, 0.5, 1.0]),
        )
        _, z = transition(0.0, 0.3, p, 18.0 * (1 / 360.0), eta=0.0)
        assert z == 0.3  # delta-theta factor is exactly 0 at the center

    def test_phase_wraps(self):
        theta, _ = transition(TWO_PI - 0.01, 0.0, flat_params(), (0.05 * 360.0) * (1.0 / 360.0), 0.0)
        assert theta == pytest.approx(0.04)

    def test_one_revolution_shows_five_alternating_extrema(self):
        # Integrate one beat and count sign-alternating interior extrema of z.
        p = default_morphology()
        n = 720
        step = TWO_PI * (1.0 / n)
        zs = []
        # Start half a cycle before R so all five waves are interior.
        theta, z = np.pi, float(wave_sum(np.pi, p))
        for _ in range(n):
            zs.append(z)
            theta, z = transition(theta, z, p, step, 0.0)
        z = np.asarray(zs)
        d = np.diff(z)
        extrema = [
            k
            for k in range(1, n - 1)
            if (d[k - 1] > 0) != (d[k] > 0) and abs(z[k]) > 1e-3
        ]
        signs = [1 if z[k] > 0 else -1 for k in extrema]
        assert signs == [1, -1, 1, -1, 1]  # P, Q, R, S, T polarity

    @given(st.floats(0, 2 * np.pi - 1e-9), st.floats(-2, 2), st.floats(0.001, 0.3))
    @settings(max_examples=80)
    def test_phase_stays_in_range(self, theta, z, step):
        out_theta, _ = transition(theta, z, default_morphology(), (step * 360.0) * (1.0 / 360.0), 0.0)
        assert 0.0 <= out_theta < TWO_PI

    def test_periodic_z_after_phase_realignment(self):
        p = default_morphology()
        sig, _, _ = synthesize(p, [1.0] * 4, fs=360.0, noise_std=0.0, seed=0)
        assert np.abs(sig.samples[360:720] - sig.samples[720:1080]).max() < 1e-9


class TestSynthesize:
    def test_zero_waves_zero_noise_flat(self):
        sig, _, _ = synthesize(flat_params(), [1.0, 1.0], fs=100.0, noise_std=0.0, seed=0)
        assert np.all(sig.samples == sig.samples[0])

    def test_constant_rr_peak_spacing(self):
        _, _, peaks = synthesize(default_morphology(), [1.0] * 5, fs=360.0, noise_std=0.0, seed=0)
        assert np.all(np.diff(peaks.indices) == 360)

    def test_seed_determinism(self):
        a = synthesize(default_morphology(), [0.8] * 3, 360.0, noise_std=0.01, seed=9)
        b = synthesize(default_morphology(), [0.8] * 3, 360.0, noise_std=0.01, seed=9)
        assert np.array_equal(a[0].samples, b[0].samples)
        assert np.array_equal(a[1], b[1])

    def test_rejects_short_rr(self):
        for rr in (0.1, float("inf"), float("nan")):
            with pytest.raises(SettingError, match=f"^rr_intervals must be finite and above 0.2 s, got {rr}$"):
                synthesize(default_morphology(), [0.8, rr], 360.0)

    def test_rejects_zero_samples(self):
        with pytest.raises(SettingError, match="^fs must be high enough for 0.3 s to hold a sample, got 1$"):
            synthesize(default_morphology(), [0.3], 1.0)

    def test_phase_in_range(self):
        _, phase, _ = synthesize(default_morphology(), [0.7, 0.9, 0.8], 360.0, 0.02, seed=1)
        assert phase.dtype == np.float64
        assert np.all(phase >= 0.0)
        assert np.all(phase < TWO_PI)


class TestObservedPhase:
    def test_linear_midpoint(self):
        ph = observed_phase(RPeaks([0, 100]), 101)
        assert ph[50] == pytest.approx(np.pi)

    def test_wraps_to_zero_at_peak(self):
        ph = observed_phase(RPeaks([0, 100]), 101)
        assert ph[100] == 0.0
        assert ph[0] == 0.0

    def test_backward_extrapolation(self):
        ph = observed_phase(RPeaks([100, 200]), 201)
        assert ph[50] == pytest.approx(np.pi)

    def test_requires_two_peaks(self):
        with pytest.raises(InsufficientFiducialsError):
            observed_phase(RPeaks([10]), 100)

    @settings(max_examples=300)
    @given(
        first=st.integers(0, 3000),
        gaps=st.lists(st.integers(1, 3000), min_size=1, max_size=10),
        past_last=st.integers(-4000, 4000),
    )
    @example(first=0, gaps=[1], past_last=-2)  # an empty signal
    @example(first=500, gaps=[300, 300], past_last=-1000)  # the signal ends before the first peak
    def test_matches_interval_loop(self, first, gaps, past_last):
        # Peak sets that start after sample 0, signals that end before the
        # last peak (or before the first) and signals that run past it.
        peaks = RPeaks(first + np.cumsum([0] + gaps))
        length = max(int(peaks.indices[-1]) + past_last, 0)
        assert np.array_equal(observed_phase(peaks, length), observed_phase_loop(peaks, length))

    def test_piecewise_linear_between_fiducials(self):
        peaks = RPeaks([0, 97, 201, 300])
        ph = observed_phase(peaks, 301)
        unwrapped = np.unwrap(ph)
        for a, b in zip(peaks.indices[:-1], peaks.indices[1:]):
            seg = unwrapped[a : b + 1]
            assert np.abs(np.diff(seg, n=2)).max() < 1e-12


class TestMeanBeat:
    def _dense_phase(self, n):
        return np.mod(np.arange(n) * 0.618, 1.0) * TWO_PI * 0.9999

    def test_constant_signal(self):
        n = 2000
        ph = self._dense_phase(n)
        tpl = mean_beat(Signal(np.full(n, 1.7), 360.0), ph, 32)
        assert np.allclose(tpl.mean, 1.7)
        assert np.array_equal(np.floor(tpl.centers / TWO_PI * 32), np.arange(32))  # each center in its bin

    def test_sine_oracle(self):
        n = 200_000
        rng = np.random.default_rng(0)
        phases = rng.uniform(0.0, TWO_PI, size=n)
        sig = Signal(np.sin(phases), 360.0)
        tpl = mean_beat(sig, phases, 64)
        assert np.abs(tpl.mean - np.sin(tpl.centers)).max() < 0.01

    def test_coverage_error(self):
        ph = np.linspace(0, np.pi, 100)  # only half the cycle
        with pytest.raises(BinCoverageError, match="bin"):
            mean_beat(Signal(np.zeros(100), 360.0), ph, 64)

    def test_min_bins(self):
        ph = np.zeros(4)
        with pytest.raises(ValueError, match="16"):
            mean_beat(Signal(np.zeros(4), 360.0), ph, 8)


class TestFitParams:
    def _template_from(self, params, n_bins=64):
        centers = TWO_PI * (np.arange(n_bins) + 0.5) / n_bins
        return BeatTemplate(centers=centers, mean=wave_sum(centers, params))

    def test_exact_init_returned_unchanged(self):
        p = default_morphology()
        out = fit_params(self._template_from(p), init=p)
        assert np.array_equal(out.alpha, p.alpha)
        assert np.array_equal(out.b, p.b)
        assert np.array_equal(out.theta, p.theta)

    def test_recovers_perturbed_init(self):
        p = default_morphology()
        rng = np.random.default_rng(5)
        init = GaussianWaveParams(
            alpha=p.alpha * (1 + rng.uniform(-0.1, 0.1, 5)),
            b=p.b * (1 + rng.uniform(-0.1, 0.1, 5)),
            theta=np.sort(p.theta + rng.uniform(-0.1, 0.1, 5) * np.abs(p.theta)),
        )
        out = fit_params(self._template_from(p, 128), init=init)
        for got, want in zip(
            (out.alpha, out.b, out.theta), (p.alpha, p.b, p.theta)
        ):
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-9)
            assert rel.max() < 0.02

    def test_zero_template_zeroes_amplitudes(self):
        init = default_morphology()
        tpl = self._template_from(init)
        tpl = BeatTemplate(centers=tpl.centers, mean=np.zeros_like(tpl.mean))
        out = fit_params(tpl, init=init)
        assert np.abs(out.alpha).max() < 1e-6
        assert np.allclose(out.b, init.b, atol=1e-3)

    def test_monotone_descent(self):
        p = default_morphology()
        init = GaussianWaveParams(alpha=p.alpha * 1.1, b=p.b * 0.9, theta=p.theta)
        trace: list = []
        fit_params(self._template_from(p), init=init, objective_trace=trace)
        assert len(trace) >= 2
        assert all(b < a for a, b in zip(trace, trace[1:]))


class TestBeatPhase:
    def test_given_peaks_that_define_a_phase_are_kept(self):
        sig, _, truth = synthesize(default_morphology(), [1.0] * 6, 360.0, 0.0, seed=2)
        given_peaks = RPeaks(truth.indices[1:] + 3)
        peaks, phase = beat_phase(sig, given_peaks)
        assert peaks is given_peaks
        assert np.array_equal(phase, observed_phase(given_peaks, len(sig)))

    @pytest.mark.parametrize("given_peaks", [[], [700]], ids=["none", "one"])
    def test_fewer_than_two_peaks_are_detected(self, given_peaks):
        sig, _, _ = synthesize(default_morphology(), [1.0] * 6, 360.0, 0.0, seed=2)
        peaks, phase = beat_phase(sig, RPeaks(given_peaks))
        assert np.array_equal(peaks.indices, detect_r_peaks(sig).indices)
        assert np.array_equal(phase, observed_phase(peaks, len(sig)))

    @pytest.mark.parametrize(
        "given_peaks, message",
        [
            ([100, 150, 500], "^peaks 100 and 150 violate the 0.2 s refractory floor$"),
            ([100, 2160], r"^peak index out of range \[0, 2160\)$"),
        ],
        ids=["refractory", "range"],
    )
    def test_peaks_are_checked_against_the_signal(self, given_peaks, message):
        sig, _, _ = synthesize(default_morphology(), [1.0] * 6, 360.0, 0.0, seed=2)
        with pytest.raises(ValueError, match=message):
            beat_phase(sig, RPeaks(given_peaks))

    def test_signal_is_validated_first(self):
        # No Signal holds a non-finite sample, so beat_phase never sees one.
        samples = np.zeros(1000)
        samples[7] = np.nan
        with pytest.raises(ValueError, match="^invalid signal: non-finite at index 7$"):
            beat_phase(Signal(samples, 360.0), RPeaks([100, 500]))


class TestDetectRPeaks:
    def test_clean_synthetic_interior_hits(self):
        sig, _, truth = synthesize(default_morphology(), [1.0] * 20, 360.0, 0.0, seed=2)
        det = detect_r_peaks(sig).indices
        margin = int(0.1 * sig.fs)
        interior = [t for t in truth.indices if margin <= t < len(sig) - margin]
        for t in interior:
            assert np.abs(det - t).min() <= 2

    def test_constant_signal_fails(self):
        with pytest.raises(DetectionFailureError):
            detect_r_peaks(Signal(np.ones(4 * 360), 360.0))

    def test_record_matches_annotations(self, data_root):
        from ecgdenoise import bench

        sig, truth = bench.load_record(data_root, "118", 0)
        sig, truth = bench.trim(sig, truth, 60.0)
        det = detect_r_peaks(sig).indices
        tol = int(0.05 * sig.fs)
        matched = sum(1 for t in truth.indices if np.abs(det - t).min() <= tol)
        assert matched / len(truth) >= 0.95

    @pytest.mark.parametrize("fs, rr", [(256.0, 0.2004), (512.0, 0.2002)])
    def test_filters_accept_the_peaks_it_finds(self, fs, rr):
        """Where 0.2 s is not whole samples, the detector and RPeaks.check_against
        share one refractory floor, sample_count(REFRACTORY_S, fs)."""
        sig, _, _ = synthesize(default_morphology(), [rr] * 20, fs, seed=1)
        found = detect_r_peaks(sig)
        assert np.diff(found.indices).min() == sample_count(REFRACTORY_S, fs) < REFRACTORY_S * fs
        found.check_against(len(sig), fs)
        if fs == 512.0:  # at 256 Hz a 51-sample beat leaves a phase bin of the fit empty
            out = enkf.denoise(sig, RPeaks([]), None, enkf.FilterConfig(n_ensemble=10))
            assert len(out) == len(sig)

    def test_too_short(self):
        with pytest.raises(ValueError, match="2 s"):
            detect_r_peaks(Signal(np.zeros(100), 360.0))
        # The CLI bounds fit --seconds by detectable, so it must be this check's limit.
        n = int(MIN_DETECT_S * 360)
        assert detectable(n, 360.0) and not detectable(n - 1, 360.0)
        with pytest.raises(ValueError, match="2 s"):
            detect_r_peaks(Signal(np.ones(n - 1), 360.0))
        with pytest.raises(DetectionFailureError):  # past the length check
            detect_r_peaks(Signal(np.ones(n), 360.0))

    def test_bandpass_taps_equal_scipy_firwin(self):
        firwin = pytest.importorskip("scipy.signal").firwin
        from ecgdenoise.model import _bandpass_fir

        for fs in np.arange(100.0, 2001.0, 7.0):
            numtaps = int(round(0.25 * fs)) | 1
            expected = firwin(numtaps, [5.0, 15.0], pass_zero=False, fs=fs)
            assert np.array_equal(_bandpass_fir(numtaps, 5.0, 15.0, fs), expected), fs
