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


def _unit_exponent(a: np.ndarray) -> int:
    """k with a * 2**-k peaking in [0.5, 1): an exact rescale, unless a sample turns subnormal."""
    return math.frexp(float(np.max(np.abs(a))))[1]


def _energy(a: np.ndarray) -> tuple[float, int]:
    """a @ a as (e, k), a @ a = e * 4**k: the direct sum with k = 0 where it is a
    normal double or a is all zeros, else the energy of a * 2**-k."""
    with np.errstate(over="ignore"):
        e = float(a @ a)
    if _TINY <= e < math.inf:
        return e, 0
    k = _unit_exponent(a)
    unit = np.ldexp(a, -k)
    return float(unit @ unit), k


def snr(clean: Signal, denoised: Signal) -> float:
    """10*log10 of signal energy over error energy, in dB.

    An exactly error-free input returns +inf.  An energy or energy ratio
    outside the normal double range is taken in logs, from _energy's
    rescaled sums.
    """
    x, y = paired(clean, denoised, "denoised")
    sig, ks = _energy(x)
    if sig == 0.0:
        raise UndefinedMetricError("SNR undefined for an all-zero reference")
    noise, kn = _energy(x - y)
    if not (ks or kn) and _TINY <= noise and _TINY <= sig / noise < math.inf:
        return 10.0 * math.log10(sig / noise)
    if noise == 0.0:
        return math.inf
    return 10.0 * (math.log10(sig) - math.log10(noise) + (ks - kn) * math.log10(4.0))


def rmse(clean: Signal, denoised: Signal) -> float:
    x, y = paired(clean, denoised, "denoised")
    noise, k = _energy(x - y)
    return math.ldexp(math.sqrt(noise / x.size), k)


def prd(clean: Signal, denoised: Signal) -> float:
    """Percentage root difference: root of error energy over signal energy, times 100.

    No mean subtraction, so values above 100 are possible.  Out of the normal
    double range the two roots are taken apart, as in snr.
    """
    x, y = paired(clean, denoised, "denoised")
    sig, ks = _energy(x)
    if sig == 0.0:
        raise UndefinedMetricError("PRD undefined for an all-zero reference")
    noise, kn = _energy(x - y)
    if not (ks or kn) and _TINY <= noise and _TINY <= noise / sig < math.inf:
        return 100.0 * math.sqrt(noise / sig)
    try:
        return 100.0 * math.ldexp(math.sqrt(noise) / math.sqrt(sig), kn - ks)
    except OverflowError:
        return math.inf


def corr(clean: Signal, denoised: Signal) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1] against rounding."""
    x, y = paired(clean, denoised, "denoised")
    xc = x - x.mean()
    yc = y - y.mean()
    sx, kx = _energy(xc)
    sy, ky = _energy(yc)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedMetricError("correlation undefined for a constant signal")
    if kx or ky or not _TINY <= sx * sy < math.inf:  # scale-free: take it from both unit-peaked signals
        xc = np.ldexp(xc, -_unit_exponent(xc))
        yc = np.ldexp(yc, -_unit_exponent(yc))
        sx, sy = float(xc @ xc), float(yc @ yc)
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


def _unreachable(target_snr_db: float) -> SettingError:
    """The reachable-level rule, the one place it is stated: a level whose
    power ratio 10^(level/10) the float range holds, whose gain is finite
    and positive, and whose scaled noise changes the clean signal."""
    rule = "reachable by a finite, positive noise gain that changes the signal"
    return SettingError("target_snr_db", rule, target_snr_db)


def calibrate_gain(clean: Signal, noise: Signal, target_snr_db: float) -> float:
    """Gain g so that snr(clean, clean + g*noise) equals the target exactly."""
    if not math.isfinite(target_snr_db):
        raise SettingError("target_snr_db", "finite", target_snr_db)
    x, v = paired(clean, noise, "noise")
    sig, ks = _energy(x)
    pwr, kp = _energy(v)
    if sig == 0.0:
        raise UndefinedMetricError("cannot calibrate against an all-zero clean signal")
    if pwr == 0.0:
        raise UndefinedMetricError("cannot calibrate a zero-energy noise record")
    try:
        gain = math.ldexp(math.sqrt(sig / (pwr * 10.0 ** (target_snr_db / 10.0))), ks - kp)
    except (OverflowError, ZeroDivisionError):  # the power ratio overflows, or underflows to 0
        raise _unreachable(target_snr_db) from None
    if not 0 < gain < math.inf:
        raise _unreachable(target_snr_db)
    return gain


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
    noisy = clean.samples + scaled.samples
    if np.array_equal(noisy, clean.samples):  # a gain too small to change any sample
        raise _unreachable(target_snr_db)
    return NoisyMix(
        noisy=Signal(noisy, clean.fs),
        clean=clean,
        scaled_noise=scaled,
        gain=g,
    )
