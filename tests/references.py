"""Scalar reference implementations that only the tests use, kept as oracles
for the vectorized and block code in ``ecgdenoise``."""

from __future__ import annotations

import numpy as np

from ecgdenoise.core import Signal, wrap_phase
from ecgdenoise.model import GaussianWaveParams, wave_increment
from ecgdenoise.wfdbio import CsvParseError


def transition(theta: float, z: float, params: GaussianWaveParams, phase_step: float, eta: float) -> tuple[float, float]:
    """Advance one sample: phase rotates by phase_step = omega*delta, z accumulates the wave derivative."""
    dz = wave_increment(theta, params, phase_step)
    return float(wrap_phase(theta + phase_step)), float(z + dz + eta)


def read_csv_rows(data: bytes | str, fs: float) -> Signal:
    """``wfdbio.read_csv`` as one Python loop over the rows."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = [ln.strip() for ln in data.splitlines() if ln.strip()]
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
            raise CsvParseError(f"row {k + 1}: non-numeric value in {ln!r}") from None
    if timed and len(times):
        off = np.abs((times - times[0]) - np.arange(len(times)) / fs)
        bad = np.flatnonzero(~(off <= 1e-6))  # NaN counts as bad
        if bad.size:
            k = int(bad[0])
            span = float(times[k] - times[0])
            raise CsvParseError(
                f"row {k + 1}: t = {times[k]:.9g} s is not sample {k} at {fs:g} Hz; "
                f"the t column runs at {k / span if span else float('inf'):.6g} Hz"
            )
    return Signal(values, fs)


def write_csv_rows(signal: Signal, with_time: bool = True) -> bytes:
    """``wfdbio.write_csv`` as one f-string per row."""
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
