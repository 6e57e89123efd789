"""Scalar reference implementations that only the tests use, kept as oracles
for the vectorized and block code in ``ecgdenoise``."""

from __future__ import annotations

import numpy as np

from ecgdenoise.core import RPeaks, Signal, TWO_PI, wrap_centered, wrap_phase
from ecgdenoise.model import GaussianWaveParams, wave_increment
from ecgdenoise.wfdbio import CsvParseError


def transition(theta: float, z: float, params: GaussianWaveParams, phase_step: float, eta: float) -> tuple[float, float]:
    """Advance one sample: phase rotates by phase_step = omega*delta, z accumulates the wave derivative."""
    dz = wave_increment(theta, params, phase_step)
    return float(wrap_phase(theta + phase_step)), float(z + dz + eta)


def wave_increment_dtheta(theta, params: GaussianWaveParams, phase_step: float):
    """Derivative of ``model.wave_increment`` with respect to theta: the EKF's
    Jacobian entry, which ``baselines.ekf_denoise`` writes out inline."""
    th = np.asarray(theta, dtype=np.float64)
    d = wrap_centered(th[..., None] - params.theta)
    b2 = params.b**2
    e = np.exp(-(d * d) / (2.0 * b2))
    return -np.sum(params.alpha * (phase_step / b2) * e * (1.0 - (d * d) / b2), axis=-1)


def observed_phase_loop(r_peaks: RPeaks, length: int) -> np.ndarray:
    """``model.observed_phase`` as one Python loop over the R-R intervals."""
    idx = r_peaks.indices
    k = np.arange(length, dtype=np.float64)
    phases = np.empty(length)
    first, last = int(idx[0]), int(idx[-1])
    first_rr = float(idx[1] - idx[0])
    last_rr = float(idx[-1] - idx[-2])
    if first > 0:
        head = slice(0, min(first, length))
        phases[head] = wrap_phase(TWO_PI * (k[head] - first) / first_rr)
    for j in range(idx.size - 1):
        a, bnd = int(idx[j]), int(idx[j + 1])
        if a >= length:
            break
        seg = slice(a, min(bnd, length))
        phases[seg] = TWO_PI * (k[seg] - a) / (bnd - a)
    if last < length:
        tail = slice(last, length)
        phases[tail] = wrap_phase(TWO_PI * (k[tail] - last) / last_rr)
    return phases


def angular_velocity_loop(r_peaks: RPeaks, length: int, fs: float) -> np.ndarray:
    """The angular velocity of ``enkf.prepare_inputs`` as one Python loop over
    the R-R intervals."""
    idx = r_peaks.indices
    omega = np.empty(length)
    first_rr = (idx[1] - idx[0]) / fs
    last_rr = (idx[-1] - idx[-2]) / fs
    omega[: min(int(idx[0]), length)] = TWO_PI / first_rr
    for j in range(idx.size - 1):
        a, b = int(idx[j]), int(idx[j + 1])
        if a >= length:
            break
        omega[a : min(b, length)] = TWO_PI / ((b - a) / fs)
    if idx[-1] < length:
        omega[int(idx[-1]) :] = TWO_PI / last_rr
    return omega


def read_csv_rows(data: bytes, fs: float) -> Signal:
    """``wfdbio.read_csv`` as one Python loop over the rows."""
    lines = [ln.strip() for ln in data.decode("utf-8", "surrogateescape").splitlines() if ln.strip()]
    if not lines:
        raise CsvParseError("empty CSV")
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header not in (["mv"], ["t", "mv"]):
        raise CsvParseError(f'unrecognized CSV header {lines[0]!r}; expected "mv" or "t,mv"')
    width = len(header)
    timed = width == 2
    values = np.empty(len(lines) - 1)
    times = np.empty(len(lines) - 1)
    for k, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) != width:
            raise CsvParseError(f"row {k + 1}: expected {width} cells, got {len(cells)}")
        try:
            values[k] = float(cells[-1])
            if timed:
                times[k] = float(cells[0])
        except ValueError:
            what = "invalid UTF-8" if any(0xDC80 <= ord(c) <= 0xDCFF for c in ln) else "non-numeric value"
            raise CsvParseError(f"row {k + 1}: {what} in {ln!r}") from None
    if not len(values):
        raise CsvParseError("no data rows after the header")
    if timed:
        finite = np.isfinite(times)
        if not finite.all():
            k = int(np.argmin(finite))
            raise CsvParseError(f"row {k + 1}: t = {times[k]:g} is not a finite time")
        with np.errstate(over="ignore"):  # times 1e308 apart are inf apart: a bad row like any other
            off = np.abs((times - times[0]) - np.arange(len(times)) / fs)
        bad = np.flatnonzero(~(off <= 1e-6))  # NaN counts as bad
        if bad.size:
            k = int(bad[0])
            span = float(times[k]) - float(times[0])
            raise CsvParseError(
                f"row {k + 1}: t = {times[k]:.9g} s is not sample {k} at {fs:g} Hz; "
                f"the t column runs at {k / span if span else float('inf'):.6g} Hz"
            )
    for k, v in enumerate(values):
        if not np.isfinite(v):
            raise CsvParseError(f"row {k + 1}: mv = {v:g} is not a finite sample")
    return Signal(values, fs)


def write_csv_rows(signal: Signal, with_time: bool = True) -> bytes:
    """``wfdbio.write_csv`` (or, without time, ``wfdbio.format_rows`` under
    an "mv" head) as one f-string per row."""
    out = []
    if with_time:
        out.append("t,mv")
        for k, v in enumerate(signal.samples):
            out.append(f"{k / signal.fs:.9f},{v:.17g}")
    else:
        out.append("mv")
        for v in signal.samples:
            out.append(f"{v:.17g}")
    return ("\n".join(out) + "\n").encode("utf-8")
