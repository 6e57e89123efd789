"""Shared domain types and elementary signal utilities.

Everything downstream trades in two value types: a uniformly sampled
waveform (:class:`Signal`) and R-wave fiducial indices (:class:`RPeaks`).
Both check their rules when made and are immutable after; a per-sample
beat phase is a plain float64 array (see
:func:`ecgdenoise.model.observed_phase`).  Every operation here is a pure
function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Minimum plausible spacing between consecutive R waves.  Anything tighter
# than 200 ms (300 bpm) is a double detection, not a heartbeat.
REFRACTORY_S = 0.2


class SettingError(ValueError):
    """A setting outside its rule; name is the parameter that holds it."""

    def __init__(self, name: str, rule: str, value):
        self.name, self.rule, self.value = name, rule, value
        super().__init__(self.named(name))

    def named(self, name: str) -> str:
        """The message, naming the setting name, such as the flag that fed it."""
        shown = f"{self.value:g}" if isinstance(self.value, numbers.Real) else repr(self.value)
        return f"{name} must be {self.rule}, got {shown}"


class InputError(ValueError):
    """Bad input (a record, a file or a flag's value); the message names it."""

    def at(self, where: str) -> InputError:
        """The same error with where, the source read, in front."""
        return type(self)(f"{where}: {self}")


def check_rate(fs: float) -> None:
    """The sampling-rate rule, the one place it is stated."""
    if not 0 < fs < math.inf:
        raise SettingError("fs", "finite and positive", fs)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)  # copy, so freezing never reaches into a caller's buffer
    out.flags.writeable = False
    return out


def wrap_phase(theta):
    """Wrap angle(s) into [0, 2*pi)."""
    if isinstance(theta, float) or np.ndim(theta) == 0:
        w = float(theta) % TWO_PI  # the floored remainder np.mod gives
        # The remainder rounds up to the modulus itself for tiny negative inputs.
        return 0.0 if w == TWO_PI else w
    w = np.mod(theta, TWO_PI)
    w[w == TWO_PI] = 0.0
    return w


def wrap_centered(delta):
    """Wrap angle difference(s) into (-pi, pi].

    This is the single rule that keeps every phase residual in the package
    free of 2*pi jumps.
    """
    if isinstance(delta, float) or np.ndim(delta) == 0:
        w = float(delta) % TWO_PI
        return w - TWO_PI if w > np.pi else w
    # fmod is exact and leaves (-2*pi, 2*pi), where the near wrap holds.
    return wrap_centered_near(np.fmod(delta, TWO_PI))


def wrap_centered_near(delta: np.ndarray) -> np.ndarray:
    """wrap_centered bit for bit, without its fmod, for an array whose every
    value lies in [-2*pi, 3*pi] (:func:`in_near_range` checks it): there
    fmod changes nothing below 2*pi, and above it subtracts the one period
    that the last line subtracts, exactly either way.  The two lines are
    np.mod's floored remainder (a negative value gains one period, a zero
    becomes +0), then the upper half period moved down."""
    w = delta + (delta < 0.0) * TWO_PI
    w -= (w > np.pi) * TWO_PI
    return w


def in_near_range(lo, hi):
    """Whether values from lo to hi lie in wrap_centered_near's range (per
    element, for arrays of bounds)."""
    return (lo >= -TWO_PI) & (hi - TWO_PI <= np.pi)


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled waveform in millivolts.

    samples: amplitude sequence (mV once WFDB gain conversion has happened);
        at least one sample, every one finite (the sample rule, stated here
        only: no Signal holds a bad sample, so nothing that takes one checks)
    fs: sampling frequency in samples/second (check_rate's rule)
    """

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        check_rate(self.fs)
        samples = _as_readonly(np.asarray(self.samples, dtype=np.float64))
        if not len(samples):
            raise ValueError("invalid signal: empty")
        finite = np.isfinite(samples)
        if not finite.all():
            raise ValueError(f"invalid signal: non-finite at index {int(np.argmin(finite))}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class RPeaks:
    """Strictly increasing sample indices of R-wave fiducials."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("peak indices must be one-dimensional")
        if idx.size > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("peak indices must be strictly increasing")
        object.__setattr__(self, "indices", _as_readonly(idx))

    def __len__(self) -> int:
        return self.indices.shape[0]

    def check_against(self, n_samples: int, fs: float) -> None:
        """Validate placement relative to a signal: bounds and refractory floor."""
        idx = self.indices
        if idx.size and (idx[0] < 0 or idx[-1] >= n_samples):
            raise ValueError(f"peak index out of range [0, {n_samples})")
        if idx.size > 1:
            floor = sample_count(REFRACTORY_S, fs)  # detect_r_peaks' floor, in whole samples
            gaps = np.diff(idx)
            if np.any(gaps < floor):
                k = int(np.argmax(gaps < floor))
                raise ValueError(
                    f"peaks {idx[k]} and {idx[k + 1]} violate the {REFRACTORY_S:.1f} s refractory floor"
                )


# Most samples a signal may hold: up to 2**53 every sample index, and so
# every k / fs sample time written to CSV, is exact in float64.
MAX_SAMPLES = 2**53


def sample_count(seconds: float, fs: float, name: str = "seconds") -> int:
    """Whole samples that seconds of signal at fs round to; name is the
    setting that holds seconds.  A count outside 0 to MAX_SAMPLES breaks the
    size rule, checked before anything is allocated: the error names fs if
    it is the larger factor, else seconds."""
    check_rate(fs)
    n = seconds * fs
    if not 0 <= n <= MAX_SAMPLES:
        if 0 <= seconds < fs:
            raise SettingError("fs", f"at most {MAX_SAMPLES / seconds:g} for {seconds:g} s", fs)
        raise SettingError(name, f"from 0 to {MAX_SAMPLES / fs:g} s at {fs:g} Hz", seconds)
    return int(round(n))


def paired(signal: Signal, other: Signal, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The pair rule, stated once: other (named what) has signal's length and
    rate, or it is bad input, an InputError.  Returns both sample arrays."""
    if len(other) != len(signal) or other.fs != signal.fs:
        raise InputError(
            f"{what} must match the signal's length and rate: {len(other)} samples at {other.fs:g} Hz, "
            f"signal {len(signal)} at {signal.fs:g} Hz"
        )
    return signal.samples, other.samples


def slice_signal(signal: Signal, start: int, length: int) -> Signal:
    """Contiguous subsequence [start, start+length), same sampling rate."""
    if start < 0 or length < 0 or start + length > len(signal):
        raise IndexError(
            f"slice [{start}, {start + length}) out of range for signal of length {len(signal)}"
        )
    return Signal(signal.samples[start : start + length], signal.fs)
