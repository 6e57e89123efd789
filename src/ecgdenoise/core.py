"""Shared domain types and elementary signal utilities.

Everything downstream trades in two value types: a uniformly sampled
waveform (:class:`Signal`) and R-wave fiducial indices (:class:`RPeaks`).
Both are immutable after construction; a per-sample beat phase is a plain
float64 array (see :func:`ecgdenoise.model.observed_phase`).  Every
operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Minimum plausible spacing between consecutive R waves.  Anything tighter
# than 200 ms (300 bpm) is a double detection, not a heartbeat.
REFRACTORY_S = 0.2


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
    # np.mod(delta, TWO_PI) bit for bit (fmod is exact; a negative remainder
    # gains one period, a zero one becomes +0), at half np.mod's cost.
    w = np.fmod(delta, TWO_PI)
    w += (w < 0.0) * TWO_PI
    w -= (w > np.pi) * TWO_PI
    return w


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled waveform in millivolts.

    samples: amplitude sequence (mV once WFDB gain conversion has happened)
    fs: sampling frequency in samples/second
    """

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_readonly(np.asarray(self.samples, dtype=np.float64)))

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
            floor = REFRACTORY_S * fs
            gaps = np.diff(idx)
            if np.any(gaps < floor):
                k = int(np.argmax(gaps < floor))
                raise ValueError(
                    f"peaks {idx[k]} and {idx[k + 1]} violate the {REFRACTORY_S:.1f} s refractory floor"
                )


def validate(signal: Signal) -> str | None:
    """Check Signal invariants; return None if ok, else a diagnostic naming the first violation."""
    if len(signal) == 0:
        return "empty"
    if not (signal.fs > 0):
        return f"fs must be positive, got {signal.fs}"
    finite = np.isfinite(signal.samples)
    if not finite.all():
        return f"non-finite at index {int(np.argmin(finite))}"
    return None


def require_valid(signal: Signal, what: str = "signal") -> None:
    diag = validate(signal)
    if diag is not None:
        raise ValueError(f"invalid {what}: {diag}")


def slice_signal(signal: Signal, start: int, length: int) -> Signal:
    """Contiguous subsequence [start, start+length), same sampling rate."""
    if start < 0 or length < 0 or start + length > len(signal):
        raise IndexError(
            f"slice [{start}, {start + length}) out of range for signal of length {len(signal)}"
        )
    return Signal(signal.samples[start : start + length], signal.fs)
