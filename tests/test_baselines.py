"""Baseline filters: EKF, Savitzky-Golay, wavelet shrinkage, NLMS, RLS, TVD."""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgdenoise import baselines, bench
from ecgdenoise.baselines import (
    _DB_G,
    _DB_H,
    CANCELLER_BLOCK,
    ConditioningError,
    ekf_denoise,
    max_levels,
    nlms_batch,
    nlms_denoise,
    noise_sigma_estimate,
    rls_batch,
    rls_denoise,
    sg_filter,
    tvd_denoise,
    wavedec,
    waverec,
    wavelet_denoise,
)
from ecgdenoise.core import RPeaks, SettingError, Signal, TWO_PI, wrap_centered, wrap_phase
from ecgdenoise.enkf import FilterConfig, prepare_inputs
from ecgdenoise.model import (
    GaussianWaveParams,
    default_morphology,
    synthesize,
    wave_increment,
    wave_sum,
)
from references import wave_increment_dtheta

# Both canceller kernels call BLAS and LAPACK, so CI runs this module again
# under single-thread BLAS.
pytestmark = pytest.mark.single_thread_blas


def sig(xs, fs=360.0):
    return Signal(np.asarray(xs, dtype=float), fs)


def tv_objective(y, x, lam):
    return 0.5 * float(np.sum((y - x) ** 2)) + lam * float(np.sum(np.abs(np.diff(x))))


def taut_string(y, lam):
    """Exact TV denoising as the derivative of the taut string through the
    half-width-lam tube around the running sum of y, pinned at both ends:
    the reference for tvd_denoise."""
    n = y.shape[0]
    r = np.concatenate([[0.0], np.cumsum(y)])
    upper = r + lam
    lower = r - lam
    upper[0] = lower[0] = 0.0
    upper[n] = lower[n] = r[n]

    x = np.empty(n)
    anchor = 0
    s_anchor = 0.0
    # Hulls over the open window (anchor, k]; element 0 is the anchor point.
    up_i = [0]
    up_v = [0.0]
    lo_i = [0]
    lo_v = [0.0]

    def slope(i0, v0, i1, v1):
        return (v1 - v0) / (i1 - i0)

    def push(idx_list, val_list, i, v, convex):
        while len(idx_list) >= 2:
            s_last = slope(idx_list[-2], val_list[-2], idx_list[-1], val_list[-1])
            s_new = slope(idx_list[-1], val_list[-1], i, v)
            if (convex and s_last >= s_new) or (not convex and s_last <= s_new):
                idx_list.pop()
                val_list.pop()
            else:
                break
        idx_list.append(i)
        val_list.append(v)

    for k in range(1, n + 1):
        push(up_i, up_v, k, upper[k], convex=True)
        push(lo_i, lo_v, k, lower[k], convex=False)
        while len(up_i) >= 2 and len(lo_i) >= 2:
            su = slope(up_i[0], up_v[0], up_i[1], up_v[1])
            sl = slope(lo_i[0], lo_v[0], lo_i[1], lo_v[1])
            if sl <= su:
                break
            # The string bends at the earlier first vertex; emit that stretch.
            if up_i[1] <= lo_i[1]:
                j, v, s = up_i[1], up_v[1], su
                bent_upper = True
            else:
                j, v, s = lo_i[1], lo_v[1], sl
                bent_upper = False
            x[anchor:j] = s
            anchor, s_anchor = j, v
            if bent_upper:
                up_i, up_v = up_i[1:], up_v[1:]
                lo_i, lo_v = [anchor], [s_anchor]
                for i in range(anchor + 1, k + 1):
                    push(lo_i, lo_v, i, lower[i], convex=False)
            else:
                lo_i, lo_v = lo_i[1:], lo_v[1:]
                up_i, up_v = [anchor], [s_anchor]
                for i in range(anchor + 1, k + 1):
                    push(up_i, up_v, i, upper[i], convex=True)

    if anchor < n:
        x[anchor:n] = (r[n] - s_anchor) / (n - anchor)
    return x


def matrix_ekf(signal, r_peaks, params, cfg):
    """The EKF recursion written with numpy 2x2 matrices: the reference for
    the scalar ekf_denoise."""
    phase, omega, params, cfg = prepare_inputs(signal, r_peaks, params, cfg)
    q_theta = np.diag([cfg.q_theta**2, 0.0])
    r = np.diag([cfg.r_phi**2, cfg.r_s**2])
    x = np.array([phase[0], signal.samples[0]])
    p = np.diag([max(cfg.r_phi**2, 1e-12), max(cfg.r_s**2, 1e-12)])
    out = np.empty(len(signal))
    out[0] = x[1]
    eye = np.eye(2)
    for k in range(1, len(signal)):
        step = omega[k] / signal.fs
        f = np.array([[1.0, 0.0], [float(wave_increment_dtheta(float(x[0]), params, step)), 1.0]])
        dz = float(wave_increment(x[0], params, step))
        x = np.array([wrap_phase(x[0] + step), x[1] + dz])
        eta_std = cfg.q_z + cfg.q_z_activity * abs(dz) if cfg.q_z > 0 else 0.0
        p = f @ (p + q_theta) @ f.T + np.diag([0.0, eta_std**2])
        s = p + r
        det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
        if not np.isfinite(det) or det <= 0:
            raise ConditioningError(f"innovation covariance not positive definite at sample {k}")
        kgain = p @ (np.array([[s[1, 1], -s[0, 1]], [-s[1, 0], s[0, 0]]]) / det)
        innov = np.array([float(wrap_centered(phase[k] - x[0])), signal.samples[k] - x[1]])
        x = x + kgain @ innov
        x[0] = wrap_phase(x[0])
        p = (eye - kgain) @ p
        p = 0.5 * (p + p.T)
        if p[0, 0] < 0 or p[1, 1] < 0:
            p = 0.5 * (p + p.T) + 1e-12 * np.trace(np.abs(p)) * eye
            if p[0, 0] < 0 or p[1, 1] < 0:
                raise ConditioningError(f"covariance lost positive definiteness at sample {k}")
        out[k] = x[1]
    return Signal(out, signal.fs)


def loop_nlms(primary, reference, taps, mu):
    """The per-sample NLMS loop: the reference for the block nlms_batch.

    Also returns the run's scale S: the largest |y_k| + |w_k| |x_k| over its
    samples (2-norms of the weights and the window; at least 1), which bounds
    the terms each output sums.
    """
    eps = 1e-8
    x = primary.samples
    w = np.zeros(taps)
    out = np.empty(len(x))
    scale = 1.0
    padded = np.concatenate([np.zeros(taps - 1), reference.samples])
    for k in range(len(x)):
        win = padded[k : k + taps][::-1]
        e = x[k] - w @ win
        out[k] = e
        scale = max(scale, abs(x[k]) + np.sqrt((w @ w) * (win @ win)))
        w = w + (mu / (eps + win @ win)) * e * win
    return out, scale


def nlms_tolerance(n, taps, scale):
    """Bound on |nlms_batch - loop_nlms| over a run of n samples.

    Both compute the same recursion and differ only in rounding.  At each
    sample either one forms sums of at most taps + L + 1 products (L =
    CANCELLER_BLOCK) of terms no larger than the scale S (the window dot
    products, one block's forward substitution, the output), so it rounds
    within (taps + L + 1) u S, with u = 2^-53.  Each sample maps the weight
    error by I - s x x^T, of norm at most 1 for 0 < mu < 2, so an earlier
    error is carried forward without growing and the n samples add at most
    once each: |block - loop| <= (n + 1) (taps + L + 1) u S.  Over 1,500
    draws on normal and cumulative-sum references the measured deviation
    stayed below a seventh of this, and below 5.1e-14 S.
    """
    return (n + 1) * (taps + CANCELLER_BLOCK + 1) * 2.0**-53 * scale


def loop_rls(primary, reference, taps, forgetting, delta):
    """The per-sample RLS loop: the reference for the block rls_batch.

    Also returns the run's scale: S (1 + K), with S as in loop_nlms and K the
    largest ||P_k|| max_j |x_j|^2 / lam^CANCELLER_BLOCK, j running over the
    block of windows from sample k on (Frobenius norm of P; K = 0 for a zero
    reference).
    """
    x = primary.samples
    w = np.zeros(taps)
    p = delta * np.eye(taps)
    out = np.empty(len(x))
    scale, cond = 1.0, 0.0
    padded = np.concatenate([np.zeros(taps - 1), reference.samples])
    norms = [padded[k : k + taps] @ padded[k : k + taps] for k in range(len(x))]
    for k in range(len(x)):
        win = padded[k : k + taps][::-1]
        pw = p @ win
        gain = pw / (forgetting + win @ pw)
        e = x[k] - w @ win
        out[k] = e
        scale = max(scale, abs(x[k]) + np.sqrt((w @ w) * norms[k]))
        cond = max(cond, np.linalg.norm(p) * max(norms[k : k + CANCELLER_BLOCK]) / forgetting**CANCELLER_BLOCK)
        w = w + gain * e
        p = (p - np.outer(gain, win @ p)) / forgetting
    return out, scale * (1.0 + cond)


def rls_tolerance(n, taps, scale):
    """Bound on |rls_batch - loop_rls| over a run of n samples.

    The block form takes a block's errors as the innovations of S = X M X^T +
    diag(lam, ..., lam^L), L = CANCELLER_BLOCK, M = P at the block's start.
    Every entry of X M X^T is at most ||M|| max_j |x_j|^2, at most K times the
    smallest variance lam^L, so rounding S, its factor and the substitution
    (at most taps + L + 1 products a term, as in nlms_tolerance) moves the
    errors by at most (taps + L + 1) u S (1 + K); the loop's rounding of P and
    of its gain moves them by no more.  With errors carried forward without
    growing, |block - loop| <= (n + 1) (taps + L + 1) u S (1 + K), u = 2^-53.
    Over 6,289 rows in 2,800 random draws of the batch property below (lam in
    [0.9, 1], delta up to 1e6, normal and cumulative-sum references) the
    measured deviation stayed below 0.011 of this bound.
    """
    return (n + 1) * (taps + CANCELLER_BLOCK + 1) * 2.0**-53 * scale


class TestEkf:
    def test_scalar_recursion_matches_matrix_reference(self):
        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.8, 0.7, 0.9, 0.6] * 3, 360.0, 0.0, seed=1)
        noisy = sig(clean.samples + 0.15 * np.random.default_rng(2).normal(size=len(clean)))
        for cfg in (FilterConfig(seed=0), FilterConfig(q_theta=0.05, q_z=0.0, r_phi=0.2, r_s=0.05)):
            got = ekf_denoise(noisy, peaks, p, cfg).samples
            want = matrix_ekf(noisy, peaks, p, cfg).samples
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize(
        "scale, cfg, message",
        [
            # Overflowing Jacobian: the innovation covariance is not finite.
            (1e200, FilterConfig(q_z=0.0, r_phi=0.1, r_s=0.1), "innovation covariance not positive definite"),
            # Huge phase noise against tiny observation noise: cancellation
            # leaves a negative variance that the one repair cannot lift.
            (1.0, FilterConfig(q_theta=1e3, q_z=0.0, r_phi=1e-3, r_s=1e-3), "covariance lost positive definiteness"),
        ],
    )
    def test_conditioning_errors_name_the_sample(self, scale, cfg, message):
        p = default_morphology()
        params = GaussianWaveParams(alpha=p.alpha * scale, b=p.b, theta=p.theta)
        clean, _, peaks = synthesize(p, [0.8] * 4, 360.0, 0.0, seed=4)
        for run in (ekf_denoise, matrix_ekf):
            with np.errstate(all="ignore"), pytest.raises(ConditioningError, match=message + " at sample 1$"):
                run(clean, peaks, params, cfg)

    def test_jacobian_matches_finite_differences(self):
        p = default_morphology()
        rng = np.random.default_rng(0)
        h = 1e-6
        worst = 0.0
        for _ in range(200):
            theta = rng.uniform(0, TWO_PI)
            step = rng.uniform(0.005, 0.03)
            analytic = float(wave_increment_dtheta(theta, p, step))
            fd = (
                float(wave_increment(theta + h, p, step))
                - float(wave_increment(theta - h, p, step))
            ) / (2 * h)
            worst = max(worst, abs(analytic - fd))
        assert worst < 1e-6

    def test_linear_regime_matches_closed_form_kf(self):
        # All wave amplitudes zero: the transition is the identity on z and
        # the EKF z-track must equal a scalar Kalman filter exactly.
        p = GaussianWaveParams(
            alpha=np.zeros(5),
            b=np.full(5, 0.1),
            theta=np.array([-1.0, -0.5, 0.0, 0.5, 1.0]),
        )
        rng = np.random.default_rng(3)
        n = 400
        fs = 360.0
        obs = rng.normal(0.0, 0.3, size=n)
        peaks = RPeaks(np.arange(0, n, 100))
        cfg = FilterConfig(q_theta=0.0, q_z=0.02, r_phi=0.05, r_s=0.3, seed=0)
        out = ekf_denoise(sig(obs, fs), peaks, p, cfg)

        m = obs[0]
        pvar = cfg.r_s**2
        want = [m]
        for k in range(1, n):
            pv = pvar + cfg.q_z**2
            gain = pv / (pv + cfg.r_s**2)
            m = m + gain * (obs[k] - m)
            pvar = (1 - gain) * pv
            want.append(m)
        assert np.abs(out.samples - np.asarray(want)).max() < 1e-10

    def test_denoises_noisy_synthetic(self):
        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.8] * 12, 360.0, 0.0, seed=1)
        rng = np.random.default_rng(2)
        noisy = sig(clean.samples + 0.15 * rng.normal(size=len(clean)))
        out = ekf_denoise(noisy, peaks, p, FilterConfig(seed=0))
        from ecgdenoise.metrics import report

        rep = report(clean, noisy, out)
        assert np.all(np.isfinite(out.samples))
        assert rep.snr_improvement > 3.0


class TestSavitzkyGolay:
    def test_reproduces_quadratic_everywhere(self):
        t = np.linspace(-2, 2, 80)
        y = 1.5 * t**2 - 0.7 * t + 0.2
        out = sg_filter(sig(y), 15, 2)
        assert np.abs(out.samples - y).max() < 1e-9

    def test_window_one_is_identity(self):
        y = np.random.default_rng(0).normal(size=30)
        assert np.array_equal(sg_filter(sig(y), 1, 0).samples, y)

    def test_constant_preserved(self):
        out = sg_filter(sig(np.full(40, 2.5)), 11, 3)
        assert np.allclose(out.samples, 2.5, atol=1e-12)

    def test_polynomial_reproduction_each_order(self):
        rng = np.random.default_rng(7)
        t = np.linspace(-1, 1, 64)
        for polyorder in (1, 2, 3, 4):
            coefs = rng.normal(size=polyorder + 1)
            y = np.polyval(coefs, t)
            out = sg_filter(sig(y), 2 * polyorder + 3, polyorder)
            assert np.abs(out.samples - y).max() < 1e-9

    def test_preconditions(self):
        y = sig(np.zeros(20))
        with pytest.raises(ValueError, match="odd"):
            sg_filter(y, 4, 2)
        for polyorder in (5, -1, -3):
            rule = "non-negative and below the window of 5"
            with pytest.raises(SettingError, match=rf"^polyorder must be {rule}, got {polyorder}$"):
                sg_filter(y, 5, polyorder)
        with pytest.raises(SettingError, match="^window must be at most 20 for 20 samples, got 21$"):
            sg_filter(y, 21, 2)
        assert len(sg_filter(sig(np.arange(21.0)), 21, 2)) == 21


class TestWavelet:
    def test_filter_pair_identities(self):
        ln = len(_DB_H)
        assert _DB_H.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert (_DB_H @ _DB_H) == pytest.approx(1.0, abs=1e-12)
        for k in (1, 2, 3):
            assert abs(_DB_H[2 * k :] @ _DB_H[: ln - 2 * k]) < 1e-10
        assert abs(_DB_H @ _DB_G) < 1e-10

    def test_perfect_reconstruction_zero_threshold(self):
        rng = np.random.default_rng(1)
        for n in (64, 100, 137, 4096):
            x = rng.normal(size=n) * 3
            out = wavelet_denoise(sig(x), levels=4, threshold=0.0)
            rel = np.abs(out.samples - x).max() / np.abs(x).max()
            assert rel < 1e-8

    def test_multilevel_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=777)
        a, details, lengths = wavedec(x, 5)
        assert np.abs(waverec(a, details, lengths) - x).max() < 1e-10

    def test_zero_signal(self):
        out = wavelet_denoise(sig(np.zeros(256)), levels=4)
        assert np.all(out.samples == 0.0)

    def test_white_noise_energy_collapse(self):
        # Universal soft threshold removes almost all white-noise energy.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=4096)
            out = wavelet_denoise(sig(x), levels=4)
            ratio = float(out.samples @ out.samples) / float(x @ x)
            assert ratio < 0.15

    def test_too_short_rejected(self):
        with pytest.raises(SettingError, match="^levels must be at most 3 for 8 samples, got 4$"):
            wavelet_denoise(sig(np.zeros(8)), levels=4)
        # max_levels(n) is the rule's limit: it is taken, one more is not.
        for n in (2, 8, 9, 100):
            assert len(wavelet_denoise(sig(np.ones(n)), levels=max_levels(n))) == n
            with pytest.raises(SettingError, match="at most"):
                wavelet_denoise(sig(np.ones(n)), levels=max_levels(n) + 1)

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_negative_or_nan_fixed_threshold_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="^threshold must be non-negative"):
            wavelet_denoise(sig(np.zeros(64)), levels=2, threshold=bad)


class TestAdaptive:
    def _scenario(self):
        rng = np.random.default_rng(5)
        n = 4000
        clean = np.sin(2 * np.pi * 1.1 * np.arange(n) / 360.0)
        ref = 2.0 * rng.normal(size=n)
        return clean, ref

    @staticmethod
    def _snr(clean, est):
        return 10 * np.log10(float(clean @ clean) / float((clean - est) @ (clean - est)))

    def test_nlms_zero_reference_identity(self):
        y = sig(np.sin(np.arange(200) * 0.1))
        out = nlms_denoise(y, sig(np.zeros(200)), 8, 0.5)
        assert np.array_equal(out.samples, y.samples)

    def test_rls_zero_reference_identity(self):
        y = sig(np.sin(np.arange(200) * 0.1))
        out = rls_denoise(y, sig(np.zeros(200)), 8, 0.999, 100.0)
        assert np.array_equal(out.samples, y.samples)

    def test_nlms_cancels_correlated_noise(self):
        clean, ref = self._scenario()
        primary = sig(clean + ref)
        out = nlms_denoise(primary, sig(ref), taps=8, mu=0.5)
        q = slice(3 * len(clean) // 4, None)
        gain = self._snr(clean[q], out.samples[q]) - self._snr(clean[q], (clean + ref)[q])
        assert gain >= 10.0

    def test_rls_at_least_as_good_as_nlms(self):
        clean, ref = self._scenario()
        primary = sig(clean + ref)
        nl = nlms_denoise(primary, sig(ref), taps=8, mu=0.5)
        rl = rls_denoise(primary, sig(ref), taps=8, forgetting=0.999, delta=100.0)
        q = slice(3 * len(clean) // 4, None)
        assert self._snr(clean[q], rl.samples[q]) >= self._snr(clean[q], nl.samples[q])

    @staticmethod
    def _draw_case(data, max_rows):
        """Row count, length, taps and step size: lengths below, at and off
        multiples of CANCELLER_BLOCK, step sizes up to just below 2."""
        b = data.draw(st.integers(1, max_rows), label="rows")
        size = CANCELLER_BLOCK
        block_lengths = [size - 1, size, size + 1, 3 * size, 3 * size + 5]
        n = data.draw(st.one_of(st.sampled_from(block_lengths), st.integers(1, 300)), label="n")
        taps = data.draw(st.integers(1, 20), label="taps")
        mu = data.draw(
            st.one_of(
                st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
                st.floats(1.99, 2.0, exclude_max=True),
            ),
            label="mu",
        )
        return b, n, taps, mu

    @staticmethod
    def _pairs(data, b, n):
        """b (primary, reference) pairs; a cumulative-sum reference is strongly
        correlated from sample to sample, the hard case for NLMS."""
        cumulative = data.draw(st.booleans(), label="cumulative")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        primaries = [sig(rng.normal(size=n)) for _ in range(b)]
        references = [rng.uniform(0.1, 3.0) * rng.normal(size=n) for _ in range(b)]
        return primaries, [sig(np.cumsum(r) if cumulative else r) for r in references]

    @settings(max_examples=60)
    @given(data=st.data())
    def test_batch_rows_equal_reference_loop_in_any_order(self, data):
        """Every row of nlms_batch and rls_batch, under any row order, equals
        the per-sample loop run on that row alone within nlms_tolerance and
        rls_tolerance, over forgetting factors where the two forms agree."""
        b, n, taps, mu = self._draw_case(data, 5)
        forgetting = data.draw(st.one_of(st.floats(0.9, 1.0), st.sampled_from([0.9, 1.0])), label="forgetting")
        delta = data.draw(st.one_of(st.floats(0.0, 1e6, exclude_min=True), st.just(1e6)), label="delta")
        primaries, references = self._pairs(data, b, n)
        order = data.draw(st.permutations(range(b)), label="order")
        rows = lambda xs: [xs[i] for i in order]
        nl = nlms_batch(rows(primaries), rows(references), taps, mu)
        rl = rls_batch(rows(primaries), rows(references), taps, forgetting, delta)
        for row, i in enumerate(order):
            want, scale = loop_nlms(primaries[i], references[i], taps, mu)
            assert np.abs(nl[row].samples - want).max() <= nlms_tolerance(n, taps, scale)
            want, scale = loop_rls(primaries[i], references[i], taps, forgetting, delta)
            assert np.abs(rl[row].samples - want).max() <= rls_tolerance(n, taps, scale)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_nlms_rows_equal_lone_runs_in_any_order(self, data):
        """Every row of nlms_batch, under any row order and any chunk size,
        equals a lone nlms_batch run of its pair bit for bit."""
        b, n, taps, mu = self._draw_case(data, 5)
        primaries, references = self._pairs(data, b, n)
        order = data.draw(st.permutations(range(b)), label="order")
        chunk_bytes = data.draw(st.sampled_from([1, 20_000, baselines.NLMS_CHUNK_BYTES]), label="chunk_bytes")
        lone = [nlms_batch([p], [r], taps, mu)[0].samples for p, r in zip(primaries, references)]
        with mock.patch.object(baselines, "NLMS_CHUNK_BYTES", chunk_bytes):
            nl = nlms_batch([primaries[i] for i in order], [references[i] for i in order], taps, mu)
        for row, i in enumerate(order):
            assert np.array_equal(nl[row].samples, lone[i])

    @settings(max_examples=40)
    @given(data=st.data())
    def test_rls_rows_equal_lone_runs_in_any_order(self, data):
        """Every row of rls_batch, under any row order and at any forgetting
        factor, equals a lone rls_batch run of its pair bit for bit; the
        batch raises ConditioningError exactly when some lone run does."""
        b, n, taps, _ = self._draw_case(data, 5)
        every = st.floats(0.0, 1.0, exclude_min=True)
        forgetting = data.draw(st.one_of(every, st.floats(0.9, 1.0)), label="forgetting")
        delta = data.draw(st.floats(0.0, 1e6, exclude_min=True), label="delta")
        primaries, references = self._pairs(data, b, n)
        order = data.draw(st.permutations(range(b)), label="order")

        def run(ps, rs):
            try:
                return [out.samples for out in rls_batch(ps, rs, taps, forgetting, delta)]
            except ConditioningError as exc:
                assert re.fullmatch(r"rls .* in the block from sample \d+", str(exc))
                return None

        lone = [run([p], [r]) for p, r in zip(primaries, references)]
        batch = run([primaries[i] for i in order], [references[i] for i in order])
        assert (batch is None) == any(out is None for out in lone)
        for row, i in enumerate(order):
            assert batch is None or np.array_equal(batch[row], lone[i][0])

    def test_sixteen_rows_equal_reference_loop(self):
        # A full unit of the bench's default size, at the bench's canceller
        # settings: its chunks hold fewer blocks than a lone run's.
        rng = np.random.default_rng(16)
        primaries = [sig(rng.normal(size=500)) for _ in range(16)]
        references = [sig(rng.uniform(0.1, 3.0) * rng.normal(size=500)) for _ in range(16)]
        nlms, rls = bench.METHODS["nlms"].params, bench.METHODS["rls"].params
        nl = nlms_batch(primaries, references, **nlms)
        rl = rls_batch(primaries, references, **rls)
        for row, (primary, reference) in enumerate(zip(primaries, references)):
            want, scale = loop_nlms(primary, reference, **nlms)
            assert np.abs(nl[row].samples - want).max() <= nlms_tolerance(500, nlms["taps"], scale)
            assert np.array_equal(nl[row].samples, nlms_denoise(primary, reference, **nlms).samples)
            want, scale = loop_rls(primary, reference, **rls)
            assert np.abs(rl[row].samples - want).max() <= rls_tolerance(500, rls["taps"], scale)
            assert np.array_equal(rl[row].samples, rls_denoise(primary, reference, **rls).samples)

    @pytest.mark.parametrize("cumulative", [False, True], ids=["white", "cumulative"])
    @pytest.mark.parametrize("forgetting", [0.9, 0.7])
    def test_rls_factors_every_block_of_a_long_run(self, forgetting, cumulative):
        """Symmetrizing M every block keeps S factorable over 2,000 samples
        down to lam = 0.7 (unsymmetrized, each of these runs failed by sample
        320); at 0.9 the output still agrees with the loop within rls_tolerance."""
        rng = np.random.default_rng(4)
        y, ref = sig(rng.normal(size=2000)), rng.normal(size=2000)
        ref = sig(np.cumsum(ref) if cumulative else ref)
        out = rls_denoise(y, ref, 16, forgetting, 100.0).samples
        assert np.isfinite(out).all()
        if forgetting >= 0.9:
            want, scale = loop_rls(y, ref, 16, forgetting, 100.0)
            assert np.abs(out - want).max() <= rls_tolerance(2000, 16, scale)

    @pytest.mark.parametrize(
        "forgetting, zero_reference, failure",
        [
            (0.3, False, "innovation covariance not positive definite"),
            (1e-3, False, "innovation covariance not positive definite"),
            (1e-300, False, "recursion overflows"),
            (0.5, True, "recursion overflows"),
        ],
        ids=["0.3", "1e-3", "1e-300", "0.5-zero-reference"],
    )
    def test_rls_unfactorable_block_named(self, forgetting, zero_reference, failure):
        """Where the block form cannot factor a block's S, or its recursion
        overflows (lam^-L itself at 1e-300; M, never updated, with a zero
        reference at 0.5), rls fails loudly and names the block's first
        sample.  At 0.3 the per-sample loop returned finite but meaningless
        output, |e| up to 79 on a unit-variance primary; with the zero
        reference at 0.5 it returned NaN."""
        rng = np.random.default_rng(3)
        y, ref = sig(rng.normal(size=2000)), sig(np.zeros(2000) if zero_reference else rng.normal(size=2000))
        with pytest.raises(ConditioningError, match=rf"^rls {failure} in the block from sample \d+$") as caught:
            rls_denoise(y, ref, 16, forgetting, 100.0)
        sample = int(str(caught.value).rsplit(" ", 1)[1])
        assert sample % CANCELLER_BLOCK == 0 and sample < 2000
        assert (sample == 0) == (forgetting == 1e-300)

    @pytest.mark.parametrize("method", ["nlms", "rls"])
    def test_non_finite_reference_rejected_by_index(self, method):
        y = sig(np.sin(np.arange(80) * 0.1))
        bad = np.ones(80)
        bad[50] = np.nan
        run = {
            "nlms": lambda refs: nlms_batch([y, y], refs, 8, 0.5),
            "rls": lambda refs: rls_batch([y, y], refs, 8, 0.999, 100.0),
        }[method]
        # The Signal sample rule rejects the reference before either canceller sees it.
        with pytest.raises(ValueError, match=r"^invalid signal: non-finite at index 50$"):
            run([y, sig(bad)])

    @pytest.mark.parametrize(
        "run",
        [
            lambda y, r: nlms_denoise(y, r, 8, 0.5),
            lambda y, r: rls_denoise(y, r, 8, 0.999, 100.0),
            lambda y, r: nlms_batch([y, y], [y, r], 8, 0.5),
            lambda y, r: rls_batch([y, y], [y, r], 8, 0.999, 100.0),
        ],
        ids=["nlms_denoise", "rls_denoise", "nlms_batch", "rls_batch"],
    )
    def test_reference_at_another_rate_rejected(self, run):
        y = sig(np.sin(np.arange(64.0)))
        ref = sig(np.cos(np.arange(64.0)), fs=250.0)
        message = r"^reference must match the signal's length and rate: 64 samples at 250 Hz, signal 64 at 360 Hz$"
        with pytest.raises(ValueError, match=message):
            run(y, ref)

    def test_batch_rejects_unequal_lengths_and_mismatched_references(self):
        a, b = sig(np.ones(10)), sig(np.ones(11))
        with pytest.raises(ValueError, match="one signal length"):
            nlms_batch([a, b], [a, b], 4, 0.5)
        with pytest.raises(ValueError, match="one signal length"):
            rls_batch([a, b], [a, b], 4, 0.999, 100.0)
        with pytest.raises(ValueError, match="reference must match"):
            nlms_batch([a, a], [a, sig(np.ones(9))], 4, 0.5)
        with pytest.raises(ValueError, match="reference must match"):
            rls_batch([a, a], [a], 4, 0.999, 100.0)

    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda y: nlms_denoise(y, y, 8, float("nan")), r"^mu must be in \(0, 2\), got nan$"),
            (lambda y: rls_denoise(y, y, 8, float("nan"), 100.0), r"^forgetting must be in \(0, 1\], got nan$"),
            (lambda y: rls_denoise(y, y, 8, 0.999, float("nan")), r"^delta must be positive, got nan$"),
        ],
        ids=["mu", "forgetting", "delta"],
    )
    def test_nan_parameter_rejected_by_name(self, run, message):
        with pytest.raises(ValueError, match=message):
            run(sig(np.zeros(50)))

    def test_parameter_validation(self):
        y = sig(np.zeros(50))
        with pytest.raises(ValueError, match="mu"):
            nlms_denoise(y, y, 8, 2.5)
        with pytest.raises(ValueError, match="forgetting"):
            rls_denoise(y, y, 8, forgetting=0.0, delta=100.0)
        with pytest.raises(ValueError, match="delta"):
            rls_denoise(y, y, 8, forgetting=0.999, delta=0.0)
        with pytest.raises(ValueError, match="length"):
            nlms_denoise(y, sig(np.zeros(10)), 8, 0.5)


class TestTvd:
    def test_lambda_zero_identity(self):
        y = np.random.default_rng(0).normal(size=50)
        assert np.array_equal(tvd_denoise(sig(y), 0.0).samples, y)

    @pytest.mark.parametrize("lam", [0.0, 0.5, float("inf")])
    def test_one_sample_returned_bit_for_bit(self, lam):
        y = np.array([0.1 + 0.2])
        assert tvd_denoise(sig(y), lam).samples.tobytes() == y.tobytes()

    def test_huge_lambda_gives_mean(self):
        y = np.random.default_rng(1).normal(size=30)
        lam = 30 * (y.max() - y.min())
        out = tvd_denoise(sig(y), lam).samples
        assert np.abs(out - y.mean()).max() < 1e-9

    def test_kkt_conditions_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            y = rng.normal(size=n) * rng.uniform(0.1, 5.0)
            lam = float(rng.uniform(0.0, 3.0))
            x = tvd_denoise(sig(y), lam).samples
            u = np.cumsum(y - x)
            assert np.all(u <= lam + 1e-9)
            assert np.all(u >= -lam - 1e-9)
            assert abs(u[-1]) < 1e-9
            for k in range(n - 1):
                if x[k + 1] - x[k] > 1e-10:
                    assert u[k] == pytest.approx(-lam, abs=1e-9)
                elif x[k + 1] - x[k] < -1e-10:
                    assert u[k] == pytest.approx(lam, abs=1e-9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            tvd_denoise(sig([1.0, 2.0]), -0.1)

    def test_never_above_subgradient_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = rng.normal(size=20)
            lam = float(rng.uniform(0.1, 1.0))
            x = tvd_denoise(sig(y), lam).samples
            # Cheap oracle for the module test; the long run lives in acceptance.
            z = y.copy()
            best = tv_objective(y, z, lam)
            for t in range(1, 20_000):
                g = (z - y) + lam * np.concatenate(
                    [[0.0], np.sign(np.diff(z))]
                ) - lam * np.concatenate([np.sign(np.diff(z)), [0.0]])
                z = z - (0.05 / np.sqrt(t)) * g
                best = min(best, tv_objective(y, z, lam))
            assert tv_objective(y, x, lam) <= best + 1e-6

    def test_infinite_lambda_gives_mean(self):
        y = np.random.default_rng(4).normal(size=40)
        out = tvd_denoise(sig(y), float("inf")).samples
        assert np.abs(out - y.mean()).max() < 1e-12

    def test_nan_lambda_rejected_by_name(self):
        with pytest.raises(ValueError, match="^lam must be non-negative, got nan$"):
            tvd_denoise(sig([1.0, 2.0]), float("nan"))

    @settings(max_examples=150)
    @given(data=st.data())
    def test_kkt_and_objective_against_taut_string(self, data):
        """On ECG-like, ramp-plus-noise, constant-run and random-walk inputs
        and any lam from 0 to far above the signal's range: the running sum
        u of (y - x) stays in [-lam, lam], closes at 0 and sits at -lam / +lam
        at every upward / downward jump of x, and the objective is not above
        the taut string's.  Samples are not compared: on long inputs with a
        large running sum the taut string itself loses digits."""
        n = data.draw(st.integers(1, 2000), label="n")
        kind = data.draw(st.sampled_from(["ecg", "ramp", "runs", "walk"]), label="kind")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        noise = 10 ** rng.uniform(-3, 1) * rng.normal(size=n)
        if kind == "ecg":
            beat = int(rng.integers(150, 400))
            y = wave_sum(TWO_PI * (np.arange(n) % beat) / beat, default_morphology()) + noise
        elif kind == "ramp":
            y = np.linspace(0.0, 10 ** rng.uniform(-2, 4), n) + noise
        elif kind == "runs":
            y = np.repeat(rng.choice(3 * rng.normal(size=4), size=n), rng.integers(1, 50, size=n))[:n]
        else:
            y = np.cumsum(noise)
        y = y + data.draw(st.sampled_from([0.0, -100.0, 1e3]), label="offset")
        decade = data.draw(st.sampled_from([None, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5]), label="log10(lam / range)")
        lam = 0.0 if decade is None else 10 ** (decade + rng.uniform()) * max(np.ptp(y), 1e-3)

        x = tvd_denoise(sig(y), lam).samples
        assert x.shape == y.shape
        assert np.all(np.isfinite(x))
        u = np.cumsum(y - x)
        tol = 1e-12 * (np.abs(y).sum() + lam)  # rounding grows with the running sum
        assert np.all(np.abs(u) <= lam + tol)
        assert abs(u[-1]) <= tol
        jumps = np.diff(x)
        assert np.all(np.abs(u[:-1][jumps > 0] + lam) <= tol)
        assert np.all(np.abs(u[:-1][jumps < 0] - lam) <= tol)
        ref = taut_string(y, lam) if lam > 0 and n > 1 else y
        want = tv_objective(y, ref, lam)
        # The floor covers constant y, where the reference's objective is 0
        # and the mean carries one rounding.
        assert tv_objective(y, x, lam) <= want + 1e-12 * want + 1e-24 * float(y @ y)


class TestCommonInvariants:
    def test_finite_in_finite_out_same_shape(self):
        p = default_morphology()
        clean, _, peaks = synthesize(p, [0.8] * 6, 360.0, 0.0, seed=0)
        rng = np.random.default_rng(1)
        noisy = sig(clean.samples + 0.1 * rng.normal(size=len(clean)))
        ref = sig(0.1 * rng.normal(size=len(clean)))
        ctx = bench.MethodContext(reference=ref, peaks=peaks, morphology=p, cfg=FilterConfig(n_ensemble=20))
        for name in bench.METHODS:
            method = bench.METHODS[name]
            out = method.run(noisy, method.params, ctx)
            assert len(out) == len(noisy), name
            assert out.fs == noisy.fs, name
            assert np.all(np.isfinite(out.samples)), name
