"""Scalar reference implementations that only the tests use, kept as oracles
for the vectorized code in ``ecgdenoise``."""

from __future__ import annotations

from ecgdenoise.core import wrap_phase
from ecgdenoise.model import GaussianWaveParams, wave_increment


def transition(theta: float, z: float, params: GaussianWaveParams, phase_step: float, eta: float) -> tuple[float, float]:
    """Advance one sample: phase rotates by phase_step = omega*delta, z accumulates the wave derivative."""
    dz = wave_increment(theta, params, phase_step)
    return float(wrap_phase(theta + phase_step)), float(z + dz + eta)
