"""Evaluation metrics (SNR, RMSE, PRD, correlation) and the calibrated-SNR
noise mixer used by the noise-stress protocol."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import SettingError, Signal, paired


class UndefinedMetricError(ValueError):
    """Metric is undefined for this input (zero-energy or constant signal)."""


_TINY = sys.float_info.min  # smallest normal double


def snr(clean: Signal, denoised: Signal) -> float:
    """10*log10 of signal energy over error energy, in dB.

    An exactly error-free input returns +inf.  An error energy or energy
    ratio outside the normal double range (an underflowed or subnormal
    error energy, a subnormal or overflowing ratio) is taken in logs.
    """
    x, y = paired(clean, denoised, "denoised")
    sig = float(x @ x)
    if sig == 0.0:
        raise UndefinedMetricError("SNR undefined for an all-zero reference")
    err = x - y
    noise = float(err @ err)
    if _TINY <= noise < math.inf and _TINY <= sig / noise < math.inf:
        return 10.0 * math.log10(sig / noise)
    norm = _error_norm(err, noise)
    if norm == 0.0:
        return math.inf
    return 10.0 * math.log10(sig) - 20.0 * math.log10(norm)


def _error_norm(err: np.ndarray, energy: float) -> float:
    """sqrt(err @ err), from max-scaled samples where the energy left the normal range."""
    if _TINY <= energy < math.inf:
        return math.sqrt(energy)
    peak = float(np.max(np.abs(err)))
    if peak == 0.0:
        return 0.0
    unit = err / peak
    return peak * math.sqrt(float(unit @ unit))


def rmse(clean: Signal, denoised: Signal) -> float:
    x, y = paired(clean, denoised, "denoised")
    err = x - y
    return float(np.sqrt((err @ err) / x.size))


def prd(clean: Signal, denoised: Signal) -> float:
    """Percentage root difference: root of error energy over signal energy, times 100.

    No mean subtraction, so values above 100 are possible.  Out of the normal
    double range the two roots are taken apart, as in snr.
    """
    x, y = paired(clean, denoised, "denoised")
    sig = float(x @ x)
    if sig == 0.0:
        raise UndefinedMetricError("PRD undefined for an all-zero reference")
    err = x - y
    noise = float(err @ err)
    if _TINY <= noise < math.inf and _TINY <= noise / sig < math.inf:
        return 100.0 * math.sqrt(noise / sig)
    return 100.0 * (_error_norm(err, noise) / math.sqrt(sig))


def corr(clean: Signal, denoised: Signal) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1] against rounding."""
    x, y = paired(clean, denoised, "denoised")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedMetricError("correlation undefined for a constant signal")
    return float(np.clip((xc @ yc) / math.sqrt(sx * sy), -1.0, 1.0))


@dataclass(frozen=True)
class MetricReport:
    """One method evaluation: output SNR, input SNR, their difference, RMSE, PRD, Corr."""

    snr_in: float
    snr_out: float
    snr_improvement: float
    rmse: float
    prd: float
    corr: float


def report(clean: Signal, noisy: Signal, denoised: Signal) -> MetricReport:
    s_in = snr(clean, noisy)
    s_out = snr(clean, denoised)
    return MetricReport(
        snr_in=s_in,
        snr_out=s_out,
        snr_improvement=s_out - s_in,
        rmse=rmse(clean, denoised),
        prd=prd(clean, denoised),
        corr=corr(clean, denoised),
    )


def calibrate_gain(clean: Signal, noise: Signal, target_snr_db: float) -> float:
    """Gain g so that snr(clean, clean + g*noise) equals the target exactly."""
    if not math.isfinite(target_snr_db):
        raise SettingError("target_snr_db", "finite", target_snr_db)
    x, v = paired(clean, noise, "noise")
    sig = float(x @ x)
    pwr = float(v @ v)
    if sig == 0.0:
        raise UndefinedMetricError("cannot calibrate against an all-zero clean signal")
    if pwr == 0.0:
        raise UndefinedMetricError("cannot calibrate a zero-energy noise record")
    return math.sqrt(sig / (pwr * 10.0 ** (target_snr_db / 10.0)))


@dataclass(frozen=True)
class NoisyMix:
    """A calibrated contamination: noisy = clean + scaled_noise, at target SNR."""

    noisy: Signal
    clean: Signal
    scaled_noise: Signal
    gain: float


def tile_to_length(noise: Signal, length: int) -> Signal:
    """Repeat the noise record cyclically (or truncate) to the requested length."""
    reps = -(-length // len(noise))
    return Signal(np.tile(noise.samples, reps)[:length], noise.fs)


def mix(clean: Signal, noise: Signal, target_snr_db: float) -> NoisyMix:
    """Contaminate the clean signal at an exactly calibrated SNR.

    The scaled noise is retained as the reference channel for adaptive
    noise cancellation.  Both records must share one sampling rate: the
    tiled noise meets calibrate_gain's pair rule.
    """
    noise = tile_to_length(noise, len(clean))
    g = calibrate_gain(clean, noise, target_snr_db)
    scaled = Signal(g * noise.samples, clean.fs)
    return NoisyMix(
        noisy=Signal(clean.samples + scaled.samples, clean.fs),
        clean=clean,
        scaled_noise=scaled,
        gain=g,
    )
