"""Ensemble filter: prediction, sample covariances, gain, perturbed update,
estimation, and the full denoising loop."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgdenoise import enkf, model
from ecgdenoise.baselines import ekf_denoise
from ecgdenoise.core import RPeaks, Signal, TWO_PI, wrap_phase
from ecgdenoise.enkf import (
    AmbiguousPhaseError,
    DegenerateEnsembleError,
    FilterConfig,
    SingularInnovationError,
    circular_mean,
    denoise,
    denoise_batch,
    draw_noise,
    estimate,
    kalman_gain,
    predict,
    prepare_inputs,
    sample_covariances,
    substream,
    update,
)
from ecgdenoise.metrics import report
from ecgdenoise.model import (
    GaussianWaveParams,
    default_morphology,
    detect_r_peaks,
    fit_params,
    mean_beat,
    observed_phase,
    synthesize,
)
from references import angular_velocity_loop, observed_phase_loop, transition


def brute_force_covariances(theta, z):
    """Two-pass covariance with explicit loops; the oracle for Eqs of the filter."""
    from ecgdenoise.core import wrap_centered

    n = len(theta)
    mean_t = circular_mean(np.asarray(theta))
    mean_z = sum(z) / n
    p = np.zeros((2, 2))
    for i in range(n):
        r = np.array([float(wrap_centered(theta[i] - mean_t)), z[i] - mean_z])
        for a in range(2):
            for b in range(2):
                p[a, b] += r[a] * r[b]
    return p / n


def step_function_loop(noisy, peaks, p, cfg, start=0, stop=None, segment=0):
    """The step functions, one sample at a time, each drawing its sample's
    noise with draw_noise from the row's one stream, substream(seed, segment),
    right after the initial members: the pinned reference for any faster
    kernel.  It filters samples start to stop of the whole record's inputs."""
    phase, omega, p, resolved = prepare_inputs(noisy, peaks, p, cfg)
    size = resolved.n_ensemble
    rng = substream(resolved.seed, segment)
    theta = wrap_phase(phase[start] + rng.normal(0.0, resolved.r_phi, size=size))
    z = noisy.samples[start] + rng.normal(0.0, resolved.r_s, size=size)
    want = [estimate(theta, z)[1]]
    for k in range(start + 1, len(noisy) if stop is None else stop):
        noise = draw_noise(rng, resolved, size, 1)[0]
        theta, z = predict(theta, z, p, float(omega[k]) * (1.0 / noisy.fs), resolved, noise[:2])
        gain = kalman_gain(sample_covariances(theta, z), resolved)
        theta, z = update(theta, z, float(phase[k]), float(noisy.samples[k]), gain, resolved, noise[2:])
        want.append(estimate(theta, z)[1])
    return np.array(want)


class TestFilterConfig:
    def test_rejects_tiny_ensemble(self):
        with pytest.raises(ValueError, match="at least 2"):
            FilterConfig(n_ensemble=1)

    def test_rejects_both_observation_noises_zero(self):
        with pytest.raises(ValueError, match="both"):
            FilterConfig(r_phi=0.0, r_s=0.0)

    @pytest.mark.parametrize("name", ["q_theta", "q_z", "q_z_activity", "r_phi", "r_s"])
    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_rejects_negative_or_nan_noise_level_by_name(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
            FilterConfig(**{name: bad})


class TestSubstream:
    def test_deterministic_and_key_separated(self):
        a = substream(1, 5).normal(size=4)
        b = substream(1, 5).normal(size=4)
        c = substream(1, 6).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("zero", [None, "q_theta", "q_z", "r_phi", "r_s"])
    def test_block_draw_equals_separate_normal_draws(self, zero):
        # The stream separate rng.normal(0, std, N) draws give, sample after
        # sample, one per non-zero std in the order q_theta, q_z (unit draws),
        # r_phi, r_s.
        stds = dict(q_theta=0.01, q_z=0.02, r_phi=0.1, r_s=0.05)
        if zero:
            stds[zero] = 0.0
        cfg = FilterConfig(n_ensemble=30, **stds)
        block = draw_noise(substream(9, 4), cfg, 30, 3)
        assert block.shape == (3, 4, 30)
        rng = substream(9, 4)
        for sample in block:
            for row, (name, std) in enumerate(stds.items()):
                if std == 0.0:
                    assert np.all(sample[row] == 0.0)
                    continue
                want = rng.normal(0.0, std if name != "q_z" else 1.0, size=30)
                assert np.array_equal(want, (std if name != "q_z" else 1.0) * sample[row])
        # Any split of the stream into blocks draws the same samples.
        rng = substream(9, 4)
        assert np.array_equal(block, np.concatenate([draw_noise(rng, cfg, 30, count) for count in (1, 0, 2)]))


class TestPredict:
    def _cfg(self, **kw):
        base = dict(n_ensemble=10, q_theta=0.0, q_z=0.0, r_phi=0.1, r_s=0.1, seed=0)
        base.update(kw)
        return FilterConfig(**base)

    def test_zero_noise_matches_deterministic_transition(self):
        p = default_morphology()
        step = TWO_PI * (1 / 360.0)
        theta = np.linspace(0.1, 5.9, 10)
        z = np.linspace(-1, 1, 10)
        cfg = self._cfg()
        out_theta, out_z = predict(theta, z, p, step, cfg, draw_noise(substream(0, 0), cfg, 10, 1)[0, :2])
        for i in range(10):
            want_theta, want_z = transition(theta[i], z[i], p, step, 0.0)
            assert out_theta[i] == pytest.approx(want_theta, abs=1e-12)
            assert out_z[i] == pytest.approx(want_z, abs=1e-12)

    def test_identical_members_stay_identical_without_noise(self):
        p = default_morphology()
        step = TWO_PI * (1 / 360.0)
        cfg = self._cfg(n_ensemble=8)
        theta, z = predict(np.full(8, 1.0), np.full(8, 0.5), p, step, cfg, draw_noise(substream(0, 1), cfg, 8, 1)[0, :2])
        assert np.all(theta == theta[0])
        assert np.all(z == z[0])

    def test_monte_carlo_mean_tracks_transition(self):
        p = default_morphology()
        step = TWO_PI * (1 / 360.0)
        n = 100_000
        q = 0.02
        cfg = FilterConfig(n_ensemble=n, q_theta=0.0, q_z=q, q_z_activity=0.0, r_phi=0.1, r_s=0.1)
        theta0, z0 = 2.0, 0.3
        _, z = predict(np.full(n, theta0), np.full(n, z0), p, step, cfg, substream(3, 0).standard_normal((2, n)))
        _, want_z = transition(theta0, z0, p, step, 0.0)
        assert abs(float(np.mean(z)) - want_z) < 3 * q / np.sqrt(n)

    def test_phases_stay_in_range(self):
        p = default_morphology()
        step = TWO_PI * (1 / 100.0)
        rng = np.random.default_rng(0)
        theta, z = rng.uniform(0, TWO_PI, 64), rng.normal(size=64)
        cfg = FilterConfig(n_ensemble=64, q_theta=0.5, q_z=0.1, r_phi=0.1, r_s=0.1)
        for k in range(50):
            theta, z = predict(theta, z, p, step, cfg, substream(1, k).standard_normal((2, 64)))
            assert np.all((theta >= 0) & (theta < TWO_PI))


class TestSampleCovariances:
    def test_identical_members_zero(self):
        assert np.all(sample_covariances(np.full(5, 1.0), np.full(5, 2.0)) == 0)

    def test_two_point_variance_with_1_over_n(self):
        p = sample_covariances(np.full(2, 1.0), np.array([-1.0, 1.0]))
        assert p[1, 1] == pytest.approx(1.0)  # ((-1)^2 + 1^2) / 2

    def test_large_cloud_matches_generator(self):
        rng = np.random.default_rng(8)
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        pts = rng.multivariate_normal([3.0, 0.0], cov, size=1_000_000)
        p = sample_covariances(np.mod(pts[:, 0], TWO_PI), pts[:, 1])
        assert np.abs(p - cov).max() / np.abs(cov).max() < 0.01

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            theta = np.mod(rng.normal(3.0, 0.5, n), TWO_PI)
            z = rng.normal(0.0, 1.0, n)
            p = sample_covariances(theta, z)
            oracle = brute_force_covariances(theta, z)
            assert np.abs(p - oracle).max() < 1e-12

    def test_single_member_rejected(self):
        with pytest.raises(DegenerateEnsembleError):
            sample_covariances(np.array([1.0]), np.array([0.0]))

    def test_wraparound_residuals(self):
        # Members straddling 0 must not produce a near-pi variance.
        theta = np.array([TWO_PI - 0.1, 0.1, TWO_PI - 0.05, 0.05])
        assert sample_covariances(theta, np.zeros(4))[0, 0] < 0.02


class TestKalmanGain:
    def _cfg(self, r_phi, r_s):
        return FilterConfig(n_ensemble=4, r_phi=r_phi, r_s=r_s)

    def test_zero_cross_covariance_zero_gain(self):
        assert np.all(kalman_gain(np.zeros((2, 2)), self._cfg(0.1, 0.1)) == 0)

    def test_identity_when_noise_free(self):
        k = kalman_gain(2.0 * np.eye(2), self._cfg(0.0, 1e-12))
        assert np.abs(k - np.eye(2)).max() < 1e-9

    def test_scalar_case(self):
        p = np.diag([0.0, 4.0])
        cfg = self._cfg(1.0, 1.0)
        k = kalman_gain(p, cfg)
        assert k[1, 1] == pytest.approx(0.8)

    def test_singular_innovation_rejected(self):
        cfg = self._cfg(0.0, 1e-200)
        with pytest.raises(SingularInnovationError):
            kalman_gain(np.zeros((2, 2)), cfg)

    def test_gain_monotone_in_observation_noise(self):
        p = np.diag([0.01, 4.0])
        prev = np.inf
        for r_s in (0.5, 1.0, 2.0, 4.0, 8.0):
            k = kalman_gain(p, self._cfg(0.1, r_s))
            assert k[1, 1] < prev
            prev = k[1, 1]


class TestUpdate:
    def test_zero_gain_is_identity(self):
        theta, z = np.array([1.0, 2.0]), np.array([0.5, -0.5])
        cfg = FilterConfig(n_ensemble=2, r_phi=0.3, r_s=0.3)
        out_theta, out_z = update(theta, z, 1.5, 0.0, np.zeros((2, 2)), cfg, substream(0, 0).standard_normal((2, 2)))
        assert np.array_equal(out_theta, theta)
        assert np.array_equal(out_z, z)

    def test_identity_gain_zero_noise_jumps_to_observation(self):
        theta, z = np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.5, 1.5])
        cfg = FilterConfig(n_ensemble=3, r_phi=0.0, r_s=0.1)
        object.__setattr__(cfg, "r_s", 0.0)  # exercise the exact R = 0 degeneracy
        theta, z = update(theta, z, 2.5, 0.75, np.eye(2), cfg, substream(0, 0).standard_normal((2, 3)))
        assert np.allclose(theta, 2.5)
        assert np.allclose(z, 0.75)

    def test_phase_innovation_wraps(self):
        theta = np.array([TWO_PI - 0.1, TWO_PI - 0.1])
        cfg = FilterConfig(n_ensemble=2, r_phi=0.0, r_s=0.5)
        noise = substream(0, 0).standard_normal((2, 2))
        theta, _ = update(theta, np.zeros(2), 0.1, 0.0, np.diag([1.0, 0.0]), cfg, noise)
        # Innovation is +0.2 across the wrap, not -2*pi + 0.2.
        assert np.allclose(theta, 0.1, atol=1e-12)

    def test_updated_phases_wrapped(self):
        cfg = FilterConfig(n_ensemble=2, r_phi=0.0, r_s=0.5)
        noise = substream(0, 1).standard_normal((2, 2))
        theta, _ = update(np.array([6.0, 6.2]), np.zeros(2), 0.3, 0.0, np.diag([1.0, 0.0]), cfg, noise)
        assert np.all((theta >= 0) & (theta < TWO_PI))


class TestEstimate:
    def test_degenerate_members(self):
        theta, z = estimate(np.full(3, 1.2), np.full(3, 0.4))
        assert theta == pytest.approx(1.2)
        assert z == pytest.approx(0.4)

    def test_amplitude_mean(self):
        _, z = estimate(np.full(2, 1.0), np.array([0.0, 2.0]))
        assert z == pytest.approx(1.0)

    def test_circular_phase_mean(self):
        theta, _ = estimate(np.array([TWO_PI - 0.1, 0.1]), np.zeros(2))
        assert theta == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_phases_rejected(self):
        with pytest.raises(AmbiguousPhaseError):
            estimate(np.array([0.0, np.pi]), np.zeros(2))


def _clock(peaks, n, fs):
    """The observed phase and angular velocity the filters get."""
    phase, omega, _, _ = prepare_inputs(Signal(np.zeros(n), fs), RPeaks(peaks), default_morphology(), FilterConfig())
    return phase, omega


class TestBeatAngularVelocities:
    def test_constant_rr(self):
        _, omega = _clock([0, 100, 200], 250, 100.0)
        assert np.allclose(omega, TWO_PI)  # 1 s intervals

    def test_extrapolates_edges(self):
        _, omega = _clock([100, 200], 300, 100.0)
        assert omega[0] == pytest.approx(TWO_PI)
        assert omega[-1] == pytest.approx(TWO_PI)

    @settings(max_examples=100)
    @given(
        fs=st.sampled_from([128.0, 250.0, 360.0, 500.0, 1000.0]),
        first=st.integers(0, 2000),
        rr=st.lists(st.floats(0.21, 2.0), min_size=1, max_size=6),
        past_last=st.integers(1, 2000),
    )
    def test_matches_interval_loop(self, fs, first, rr, past_last):
        # Every peak set prepare_inputs accepts: one that starts after sample
        # 0, at least 0.2 s between peaks, a last peak inside the signal.
        peaks = RPeaks(first + np.cumsum([0] + np.ceil(np.asarray(rr) * fs).astype(np.int64).tolist()))
        n = int(peaks.indices[-1]) + past_last
        phase, omega = _clock(peaks.indices, n, fs)
        assert np.array_equal(omega, angular_velocity_loop(peaks, n, fs))
        assert np.array_equal(phase, observed_phase_loop(peaks, n))


class TestDenoise:
    def test_noise_free_synthetic_high_fidelity(self):
        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.8] * 8, 360.0, noise_std=0.0, seed=4)
        cfg = FilterConfig(n_ensemble=60, r_phi=0.01, r_s=0.005, seed=1)
        out = denoise(clean, peaks, p, cfg)
        from ecgdenoise.metrics import corr

        assert corr(clean, out) >= 0.99

    def test_seed_determinism(self):
        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.8] * 4, 360.0, noise_std=0.0, seed=4)
        rng = np.random.default_rng(0)
        noisy = Signal(clean.samples + 0.1 * rng.normal(size=len(clean)), 360.0)
        cfg = FilterConfig(n_ensemble=40, seed=77)
        a = denoise(noisy, peaks, p, cfg)
        b = denoise(noisy, peaks, p, cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.8] * 4, 360.0, noise_std=0.0, seed=4)
        rng = np.random.default_rng(0)
        noisy = Signal(clean.samples + 0.1 * rng.normal(size=len(clean)), 360.0)
        a = denoise(noisy, peaks, p, FilterConfig(n_ensemble=40, seed=1))
        b = denoise(noisy, peaks, p, FilterConfig(n_ensemble=40, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_improves_noisy_synthetic(self):
        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.8] * 12, 360.0, noise_std=0.0, seed=4)
        rng = np.random.default_rng(5)
        noisy = Signal(clean.samples + 0.15 * rng.normal(size=len(clean)), 360.0)
        out = denoise(noisy, peaks, p, FilterConfig(n_ensemble=80, seed=3))
        from ecgdenoise.metrics import report

        rep = report(clean, noisy, out)
        assert rep.snr_improvement > 3.0

    def test_mid_record_failure_names_the_sample(self):
        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.8] * 4, 360.0, noise_std=0.0, seed=4)
        cfg = FilterConfig(n_ensemble=10, q_theta=0.0, q_z=0.0, r_phi=0.0, r_s=1e-200)
        with pytest.raises(SingularInnovationError, match=r"at sample 1$"):
            denoise(clean, peaks, p, cfg)

    def test_matches_step_function_loop(self):
        # The step functions, one sample at a time, are the pinned reference
        # for any faster kernel: outputs must be equal, not merely close.  The
        # 0.4 s beat makes omega * (1/fs) round differently from omega / fs.
        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.9, 0.7, 0.4], 360.0, noise_std=0.0, seed=4)
        noisy = Signal(clean.samples + 0.1 * np.random.default_rng(2).normal(size=len(clean)), 360.0)
        cfg = FilterConfig(n_ensemble=20, seed=5)
        assert np.array_equal(denoise(noisy, peaks, p, cfg).samples, step_function_loop(noisy, peaks, p, cfg))

    def test_matches_step_function_loop_across_stream_blocks(self, monkeypatch):
        # With 7-sample blocks the 720-sample reference loop crosses 102 block
        # edges and ends on a partial block.
        monkeypatch.setattr(enkf, "NOISE_BLOCK", 7)
        self.test_matches_step_function_loop()

    @settings(max_examples=12)
    @given(data=st.data())
    def test_any_noise_block_gives_the_same_output(self, data):
        """The filter's output, or the error that names its sample, is the
        same for every block size from 1 to past the signal's length, under
        every pattern of zero noise levels, and equals the reference loop."""
        zero = data.draw(
            st.sets(st.sampled_from(["q_theta", "q_z", "r_phi", "r_s"])).filter(lambda s: not {"r_phi", "r_s"} <= s),
            label="zero stds",
        )
        n = data.draw(st.integers(300, 450), label="samples")
        block = data.draw(st.integers(1, n + 10), label="NOISE_BLOCK")
        noisy, peaks, p, cfg = _batch_job([0.8, 0.7, 0.9], 6, default_morphology(), 9, n)
        cfg = dataclasses.replace(cfg, **dict.fromkeys(zero, 0.0))

        def outcome(run):
            try:
                return run().tobytes()
            except (SingularInnovationError, AmbiguousPhaseError) as exc:
                return str(exc)

        want = outcome(lambda: denoise(noisy, peaks, p, cfg).samples)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(enkf, "NOISE_BLOCK", block)
            assert outcome(lambda: denoise(noisy, peaks, p, cfg).samples) == want
        if isinstance(want, bytes):
            assert step_function_loop(noisy, peaks, p, cfg).tobytes() == want


def _batch_job(rr, seed, params, n_ensemble, n):
    """A noisy synthetic job of n samples, filtered with morphology params."""
    clean, _, peaks = synthesize(default_morphology(), rr, 360.0, noise_std=0.0, seed=seed)
    noisy = Signal(clean.samples[:n] + 0.1 * np.random.default_rng(seed).normal(size=n), 360.0)
    return noisy, RPeaks(peaks.indices[peaks.indices < n]), params, FilterConfig(n_ensemble=n_ensemble, seed=seed)


def _sorted_pair(low, high):
    """Two distinct floats in the open interval (low, high), ascending."""
    inside = st.floats(low, high, exclude_min=True, exclude_max=True)
    return st.lists(inside, min_size=2, max_size=2, unique=True).map(sorted)


# Any valid morphology: finite amplitudes, positive widths, and P < Q < R = 0 < S < T in (-pi, pi].
morphologies = st.builds(
    lambda alpha, b, before, after: GaussianWaveParams(np.array(alpha), np.array(b), np.array([*before, 0.0, *after])),
    st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
    st.lists(st.floats(0.01, np.pi), min_size=5, max_size=5),
    _sorted_pair(-np.pi, 0.0),
    _sorted_pair(0.0, np.nextafter(np.pi, 4.0)),
)


class TestDenoiseBatch:
    @settings(max_examples=12)
    @given(data=st.data())
    def test_rows_equal_lone_runs_in_any_order(self, data):
        """Every row of a lockstep batch is bit-identical to its job run
        alone, whatever the other rows and their morphologies are and in
        whatever order."""
        n_rows = data.draw(st.integers(1, 4), label="B")
        n_ensemble = data.draw(st.integers(2, 30), label="N")
        n = data.draw(st.integers(400, 600), label="samples")
        jobs = []
        for row in range(n_rows):
            rr = data.draw(st.lists(st.floats(0.6, 0.9), min_size=3, max_size=3), label=f"rr{row}")
            seed = data.draw(st.integers(0, 2**32 - 1), label=f"seed{row}")
            params = data.draw(morphologies, label=f"morphology{row}")
            jobs.append(_batch_job(rr, seed, params, n_ensemble, n))
        order = data.draw(st.permutations(range(n_rows)), label="order")
        batched = denoise_batch([jobs[i] for i in order])
        for i, out in zip(order, batched):
            alone = denoise(*jobs[i])
            assert out.samples.shape == (n,)
            assert np.all(np.isfinite(out.samples))
            assert np.array_equal(out.samples, alone.samples)

    def test_sixteen_rows_equal_lone_runs(self):
        # A full unit of the bench's default size, each row with its own morphology.
        p = default_morphology()
        scaled = [GaussianWaveParams(p.alpha * (0.8 + 0.025 * row), p.b, p.theta) for row in range(16)]
        jobs = [_batch_job([0.6 + 0.02 * row] * 3, row, scaled[row], 8, 400) for row in range(16)]
        for job, out in zip(jobs, denoise_batch(jobs)):
            assert np.array_equal(out.samples, denoise(*job).samples)

    def test_zero_std_rows_equal_lone_runs_and_step_loop(self):
        """Rows whose q_theta, q_z or r_phi is zero draw only their active
        noise rows (draw_noise's stream), next to an all-active row."""
        p = default_morphology()
        noisy, peaks, _, _ = _batch_job([0.8, 0.7, 0.9], 3, p, 12, 600)
        zero_stds = [{"q_theta": 0.0}, {"q_z": 0.0}, {"r_phi": 0.0}, {}]
        jobs = [(noisy, peaks, p, FilterConfig(n_ensemble=12, seed=row, **zero)) for row, zero in enumerate(zero_stds)]
        for job, out in zip(jobs, denoise_batch(jobs)):
            assert np.array_equal(out.samples, denoise(*job).samples)
            assert np.array_equal(out.samples, step_function_loop(*job))

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("wide", ["q_theta", "r_phi"])
    def test_general_wrap_path_equals_step_loop(self, monkeypatch, rows, wide):
        """With a 50-rad phase noise the phases leave wrap_centered_near's
        range (in wave_increment for q_theta, in the innovations for r_phi),
        so the loop falls back to wrap_centered, and each row still equals
        the reference loop bit for bit."""
        calls = {enkf: 0, model: 0}

        def counted(module, wrap):
            def call(delta):
                calls[module] += 1
                return wrap(delta)

            return call

        for module in calls:
            monkeypatch.setattr(module, "wrap_centered", counted(module, module.wrap_centered))
        p = default_morphology()
        jobs = [_batch_job([0.8, 0.7, 0.9], seed, p, 10, 500) for seed in range(rows)]
        jobs = [(noisy, peaks, p, dataclasses.replace(cfg, **{wide: 50.0})) for noisy, peaks, p, cfg in jobs]
        outs = denoise_batch(jobs)
        assert calls[model if wide == "q_theta" else enkf] > 100
        for job, out in zip(jobs, outs):
            assert np.all(np.isfinite(out.samples))
            assert out.samples.tobytes() == step_function_loop(*job).tobytes()

    def test_ambiguous_phase_names_the_sample(self, monkeypatch):
        predict = enkf.predict
        calls = []

        def antipodal_at_sample_5(*args):
            theta, z = predict(*args)
            calls.append(None)
            if len(calls) == 5:  # predict's k-th call is sample k
                theta = np.zeros_like(theta)
                theta[..., 1::2] = np.pi  # members cancel in pairs
            return theta, z

        monkeypatch.setattr(enkf, "predict", antipodal_at_sample_5)
        jobs = [_batch_job([0.8] * 3, seed, default_morphology(), 10, 500) for seed in (1, 2)]
        with pytest.raises(AmbiguousPhaseError, match=r"^member phases cancel; circular mean undefined at sample 5$"):
            denoise_batch(jobs)

    def test_unequal_lengths_rejected(self):
        a = _batch_job([0.8] * 3, 1, default_morphology(), 5, 500)
        b = _batch_job([0.8] * 3, 2, default_morphology(), 5, 450)
        with pytest.raises(ValueError, match="one signal length"):
            denoise_batch([a, b])

    def test_unequal_rates_rejected(self):
        # The split into segments is computed once per batch, from one rate.
        a = _batch_job([0.8] * 3, 1, default_morphology(), 5, 500)
        noisy, peaks, p, cfg = _batch_job([0.8] * 3, 2, default_morphology(), 5, 500)
        with pytest.raises(ValueError, match="one signal length, one rate"):
            denoise_batch([a, (Signal(noisy.samples, 250.0), peaks, p, cfg)])


def _long_job(seconds, seed, n_ensemble, noise_std=0.1):
    """A noisy synthetic job of whole seconds at 360 Hz, its clean record and
    its filter settings (default morphology)."""
    fs, n = 360.0, int(seconds * 360)
    rr = 0.8 + 0.1 * np.sin(np.arange(int(seconds / 0.7) + 2))
    clean, _, peaks = synthesize(default_morphology(), list(rr), fs, noise_std=0.0, seed=seed)
    clean = Signal(clean.samples[:n], fs)
    noisy = Signal(clean.samples + noise_std * np.random.default_rng(seed).normal(size=n), fs)
    job = (noisy, RPeaks(peaks.indices[peaks.indices < n]), default_morphology(), FilterConfig(n_ensemble, seed=seed))
    return clean, job


class TestSegments:
    """A long job runs as overlapping lockstep segments (enkf.segments)."""

    def test_rule(self):
        # 60 s at 360 Hz: four segments of 5,940 samples, each after the first
        # starting 2 s (720 samples) before the span it keeps.
        assert enkf.segments(21_600, 360.0) == (5940, [(0, 0), (5220, 5940), (10_440, 11_160), (15_660, 16_380)])
        # Shorter than 30 s: one segment, the whole job.
        assert enkf.segments(10_799, 360.0) == (10_799, [(0, 0)])
        # 30 min: sixteen segments.
        length, split = enkf.segments(648_000, 360.0)
        assert len(split) == 16 and length == 41_175
        # 15 s rounds to 0 or 1 samples: one segment, not a division by zero.
        for fs in (0.01, 0.05):
            assert enkf.segments(1000, fs) == (1000, [(0, 0)])

    @settings(max_examples=200)
    @given(n=st.integers(1, 2_000_000), fs=st.floats(0.01, 2000.0))
    def test_kept_spans_tile_the_record(self, n, fs):
        length, split = enkf.segments(n, fs)
        spin, span = round(2 * fs), round(15 * fs)
        assert 1 <= len(split) <= 16 and 1 <= length <= n
        assert len(split) == 1 or len(split) * span <= n
        ends = [kept for _, kept in split[1:]] + [n]
        for (start, kept), end in zip(split, ends):
            assert 0 <= start <= kept <= end <= start + length <= n
            assert kept == 0 or kept - start >= spin  # a spin-up of at least W before the kept span
        assert split[0] == (0, 0) and split[-1][0] + length == n

    @pytest.fixture(scope="class")
    def split_pair(self):
        """Two 30-s jobs (two segments each) and their lone runs."""
        jobs = [_long_job(30, seed, 10)[1] for seed in (3, 4)]
        return jobs, [denoise(*job).samples for job in jobs]

    def test_segment_zero_equals_the_one_segment_run(self, split_pair, monkeypatch):
        jobs, outs = split_pair
        length, split = enkf.segments(len(jobs[0][0]), 360.0)
        assert len(split) == 2
        monkeypatch.setattr(enkf, "MAX_SEGMENTS", 1)
        whole = denoise(*jobs[0]).samples
        assert np.array_equal(outs[0][:length], whole[:length])
        assert not np.array_equal(outs[0][length:], whole[length:])  # segment 1 draws substream(seed, 1)

    def test_segments_equal_the_step_function_loop(self, split_pair):
        """Each segment's kept span is the reference loop over its slice of
        the whole record's inputs, drawing from substream(seed, s)."""
        jobs, outs = split_pair
        length, split = enkf.segments(len(jobs[0][0]), 360.0)
        ends = [kept for _, kept in split[1:]] + [len(outs[0])]
        for s, ((start, kept), end) in enumerate(zip(split, ends)):
            want = step_function_loop(*jobs[0], start=start, stop=start + length, segment=s)
            assert np.array_equal(outs[0][kept:end], want[kept - start : end - start])

    @pytest.mark.parametrize("block", [None, 10_000], ids=["NOISE_BLOCK", "one block"])
    def test_split_jobs_in_a_batch_equal_lone_runs(self, split_pair, monkeypatch, block):
        # In one block a segment's spin-up and the previous segment's end are
        # estimated in the same block: only the kept spans reach the output.
        jobs, outs = split_pair
        if block is not None:
            monkeypatch.setattr(enkf, "NOISE_BLOCK", block)
        for out, alone in zip(denoise_batch(jobs), outs):
            assert np.all(np.isfinite(out.samples))
            assert np.array_equal(out.samples, alone)

    @pytest.mark.parametrize("error", [AmbiguousPhaseError, SingularInnovationError])
    def test_failure_names_the_record_sample(self, monkeypatch, error):
        # 40 s: two segments of 7,560 samples; segment 1 starts at 6,840.  The
        # fault hits row 1 (job 0's segment 1) only, at its local sample 5.
        jobs = [_long_job(40, seed, 10)[1] for seed in (1, 2)]
        assert enkf.segments(len(jobs[0][0]), 360.0)[1][1][0] == 6840
        calls = []
        if error is AmbiguousPhaseError:
            predict = enkf.predict

            def faulty(*args):
                theta, z = predict(*args)
                calls.append(None)
                if len(calls) == 5:  # predict's k-th call is local sample k
                    theta[1] = 0.0
                    theta[1, 1::2] = np.pi  # row 1's members cancel in pairs
                return theta, z

            monkeypatch.setattr(enkf, "predict", faulty)
        else:
            covariances = enkf.sample_covariances

            def faulty(theta, z):
                p = covariances(theta, z)
                calls.append(None)
                if len(calls) == 5:
                    p[1] = 1e150  # row 1's innovation covariance has determinant 0
                return p

            monkeypatch.setattr(enkf, "sample_covariances", faulty)
        with pytest.raises(error, match=r" at sample 6845$"):
            denoise_batch(jobs)

    def test_split_keeps_the_mean_gain(self, monkeypatch):
        """Over 16 filter seeds run as lockstep rows, the split mean SNR gain
        lies within two standard errors of the one-segment run's."""
        clean, (noisy, peaks, p, _) = _long_job(30, 7, 16)
        jobs = [(noisy, peaks, p, FilterConfig(n_ensemble=16, seed=seed)) for seed in range(16)]

        def gains():
            return np.array([report(clean, noisy, out).snr_improvement for out in denoise_batch(jobs)])

        split = gains()
        monkeypatch.setattr(enkf, "MAX_SEGMENTS", 1)
        whole = gains()
        assert whole.mean() > 3.0
        assert abs(split.mean() - whole.mean()) <= 2 * whole.std(ddof=1) / np.sqrt(len(whole))


# The model-based filters, each through prepare_inputs: the EnKF alone, as
# the second row of a lockstep batch, and the EKF.
MODEL_BASED = {
    "denoise": denoise,
    "denoise_batch": lambda *job: denoise_batch([job, job])[1],
    "ekf_denoise": ekf_denoise,
}


class TestFrontEnd:
    @pytest.fixture(scope="class")
    def noisy(self):
        clean, _, peaks = synthesize(default_morphology(), [0.8, 0.75, 0.85] * 4, 360.0, noise_std=0.002, seed=6)
        noise = np.random.default_rng(6).normal(0.0, 0.05, len(clean))
        return Signal(clean.samples + noise, clean.fs), peaks

    @pytest.mark.parametrize("run", MODEL_BASED.values(), ids=MODEL_BASED)
    def test_no_params_fits_the_morphology_on_the_observed_phase(self, noisy, run):
        signal, peaks = noisy
        cfg = FilterConfig(n_ensemble=12, seed=3)
        fitted = fit_params(mean_beat(signal, observed_phase(peaks, len(signal))))
        assert np.array_equal(run(signal, peaks, None, cfg).samples, run(signal, peaks, fitted, cfg).samples)

    @pytest.mark.parametrize("run", MODEL_BASED.values(), ids=MODEL_BASED)
    def test_no_peaks_detects_them(self, noisy, run):
        signal, _ = noisy
        cfg, p = FilterConfig(n_ensemble=12, seed=3), default_morphology()
        detected = detect_r_peaks(signal)
        assert len(detected) >= 2
        assert np.array_equal(run(signal, RPeaks([]), p, cfg).samples, run(signal, detected, p, cfg).samples)


class TestTracerContract:
    def test_every_layer_resolves_and_member_steps_count(self):
        """The per-layer benchmark tracer must find every function it lists and
        count N members per predict call."""
        import ecgdenoise.cli  # noqa: F401  (loads every traced module)

        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)

        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.8, 0.8], 360.0, noise_std=0.0, seed=4)
        tracer = tracer_module.Tracer()
        try:
            tracer.install()
            for layer, names in tracer_module.LAYERS.items():
                module = sys.modules[f"ecgdenoise.{layer}"]
                for name in names:
                    assert hasattr(getattr(module, name), "__wrapped__"), f"{layer}.{name} not traced"
            enkf.denoise(clean, peaks, p, FilterConfig(n_ensemble=7, seed=1))
        finally:
            tracer.uninstall()
        assert tracer.work["enkf.predict"]["member_steps"] == 7 * (len(clean) - 1)
