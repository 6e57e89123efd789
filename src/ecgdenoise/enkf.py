"""Ensemble Kalman filter with perturbed observations over the beat model.

The filtering distribution of the 2-D state (theta, z) is carried by N
sampled members.  Each step: propagate every member through the stochastic
beat-model transition, form sample cross- and innovation covariances, compute
the gain, then update each member against an independently perturbed copy of
the observation (phase, amplitude).  The output sample is the ensemble mean.

Phase is an angle: every residual anywhere in the filter is wrapped to
(-pi, pi] before arithmetic, ensemble phase means are circular, and member
phases are re-wrapped to [0, 2*pi) after each update.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .core import PhaseSeries, RPeaks, Signal, TWO_PI, _as_readonly, require_valid, wrap_centered, wrap_phase
from .model import (
    BeatClock,
    GaussianWaveParams,
    ModelState,
    observed_phase,
    wave_increment,
    wave_sum,
)


class DegenerateEnsembleError(ValueError):
    """Fewer than two members: sample covariances are undefined."""


class SingularInnovationError(RuntimeError):
    """Innovation covariance is not invertible; observation noise is mis-sized."""


class AmbiguousPhaseError(RuntimeError):
    """Circular mean undefined: member phases cancel out."""


@dataclass(frozen=True)
class FilterConfig:
    """Ensemble size, noise levels and master seed.

    q_z, r_phi and r_s may be None, in which case they are resolved from the
    fitted morphology and the first two seconds of the input (see
    :func:`resolve_config`).  All defaults are explicit after resolution and
    appear in the serialized form.
    """

    n_ensemble: int = 100
    q_theta: float = 0.01  # process noise on phase, rad
    q_z: float | None = None  # process noise on amplitude, mV
    q_z_activity: float = 0.5  # extra amplitude noise per unit |model increment|
    r_phi: float | None = None  # observation noise on phase, rad
    r_s: float | None = None  # observation noise on amplitude, mV
    seed: int = 0

    def __post_init__(self):
        if self.n_ensemble < 2:
            raise ValueError("ensemble size must be at least 2")
        for name in ("q_theta", "q_z", "q_z_activity", "r_phi", "r_s"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.r_phi == 0.0 and self.r_s == 0.0:
            raise ValueError("r_phi and r_s cannot both be zero")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_ensemble": self.n_ensemble,
                "q_theta": self.q_theta,
                "q_z": self.q_z,
                "q_z_activity": self.q_z_activity,
                "r_phi": self.r_phi,
                "r_s": self.r_s,
                "seed": self.seed,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FilterConfig":
        return cls(**json.loads(text))


@dataclass(frozen=True)
class Ensemble:
    """N copies of the model state: member phases and amplitudes."""

    theta: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        z = np.asarray(self.z, dtype=np.float64)
        if theta.shape != z.shape or theta.ndim != 1:
            raise ValueError("theta and z must be 1-D arrays of equal length")
        if theta.shape[0] < 2:
            raise DegenerateEnsembleError("need at least 2 ensemble members")
        object.__setattr__(self, "theta", _as_readonly(theta))
        object.__setattr__(self, "z", _as_readonly(z))

    @property
    def size(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class GainMatrices:
    """Sample cross covariance, innovation covariance and the resulting gain."""

    p_xy: np.ndarray
    p_yy: np.ndarray
    k: np.ndarray | None = None


def substream(master_seed: int, *key) -> np.random.Generator:
    """Deterministic generator for a named substream of the master seed.

    The stream identity depends only on (master_seed, key), never on call
    order, so concurrent evaluation cannot change results.
    """
    digest = hashlib.sha256(repr((int(master_seed),) + tuple(key)).encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "little")))


def circular_mean(theta: np.ndarray) -> float:
    s = float(np.mean(np.sin(theta)))
    c = float(np.mean(np.cos(theta)))
    if s * s + c * c < 1e-24:
        raise AmbiguousPhaseError("member phases cancel; circular mean undefined")
    return float(wrap_phase(np.arctan2(s, c)))


def predict(
    ens: Ensemble,
    params: GaussianWaveParams,
    clock: BeatClock,
    cfg: FilterConfig,
    rng: np.random.Generator,
) -> Ensemble:
    """Propagate every member through the stochastic transition.

    The phase perturbation is folded into each member's theta before the
    transition runs, so the amplitude increment is evaluated at the perturbed
    phase.  The amplitude noise std is q_z plus q_z_activity times the local
    |increment|: the discretized model is least trustworthy on the steep QRS
    flanks, and inflating eta there keeps the ensemble spread (and thus the
    gain) honest about it.  Because that spread is uncorrelated with the
    member phases, the joint update cannot explain it away via the
    observed phase.  Setting q_z to zero disables amplitude noise entirely.
    Member order is preserved; draws come from `rng` in member order.
    """
    n = ens.size
    xi = rng.normal(0.0, cfg.q_theta, size=n) if cfg.q_theta > 0 else np.zeros(n)
    theta_pert = ens.theta + xi
    dz = wave_increment(theta_pert, params, clock.phase_step)
    if cfg.q_z > 0:
        eta = rng.normal(0.0, 1.0, size=n) * (cfg.q_z + cfg.q_z_activity * np.abs(dz))
    else:
        eta = np.zeros(n)
    return Ensemble(
        theta=wrap_phase(theta_pert + clock.phase_step),
        z=ens.z + dz + eta,
    )


def sample_covariances(pred: Ensemble) -> GainMatrices:
    """Sample covariances of the predicted ensemble with the 1/N normalizer.

    The observation map is the identity on (theta, z), so the predicted
    observations are the members themselves.  Phase residuals are taken
    against the circular ensemble mean and wrapped to (-pi, pi] before the
    outer products.
    """
    n = pred.size
    if n < 2:
        raise DegenerateEnsembleError("need at least 2 members for sample covariances")
    r_theta = wrap_centered(pred.theta - circular_mean(pred.theta))
    r_z = pred.z - pred.z.mean()
    resid = np.stack([r_theta, r_z])  # (2, N)
    p = (resid @ resid.T) / n
    return GainMatrices(p_xy=p, p_yy=p.copy())


def kalman_gain(g: GainMatrices, cfg: FilterConfig) -> GainMatrices:
    """K = P_xy (P_yy + R)^-1 with R = diag(r_phi^2, r_s^2).

    Adding R keeps the gain consistent with the perturbed-observation update;
    a singular innovation covariance signals a mis-sized noise configuration.
    """
    s = g.p_yy + np.diag([cfg.r_phi**2, cfg.r_s**2])
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    if not np.isfinite(det) or abs(det) < 1e-300:
        raise SingularInnovationError("innovation covariance is singular; increase r_phi/r_s")
    inv = np.array([[s[1, 1], -s[0, 1]], [-s[1, 0], s[0, 0]]]) / det
    return GainMatrices(p_xy=g.p_xy, p_yy=g.p_yy, k=g.p_xy @ inv)


def update(
    ens: Ensemble,
    y_phi: float,
    y_s: float,
    g: GainMatrices,
    cfg: FilterConfig,
    rng: np.random.Generator,
) -> Ensemble:
    """Perturbed-observation update.

    Each member sees its own noised copy of the observation, with the drawn
    perturbation set re-centered to exactly zero mean so the update adds no
    sampling bias.  The phase innovation is wrapped to (-pi, pi] and member
    phases are re-wrapped to [0, 2*pi) afterwards.
    """
    if g.k is None:
        raise ValueError("gain not computed; call kalman_gain first")
    n = ens.size

    def draws(std: float) -> np.ndarray:
        if std == 0.0:
            return np.zeros(n)
        v = rng.normal(0.0, std, size=n)
        return v - v.mean()  # exactly zero-mean perturbation set

    v_phi = draws(cfg.r_phi)
    v_s = draws(cfg.r_s)
    innov_phi = wrap_centered(y_phi + v_phi - ens.theta)
    innov_s = (y_s + v_s) - ens.z
    k = g.k
    return Ensemble(
        theta=wrap_phase(ens.theta + k[0, 0] * innov_phi + k[0, 1] * innov_s),
        z=ens.z + k[1, 0] * innov_phi + k[1, 1] * innov_s,
    )


def estimate(ens: Ensemble) -> ModelState:
    """Ensemble mean: circular over phase, arithmetic over amplitude."""
    return ModelState(theta=circular_mean(ens.theta), z=float(ens.z.mean()))


def beat_angular_velocities(r_peaks: RPeaks, length: int, fs: float) -> np.ndarray:
    """Per-sample angular velocity from the R-R interval surrounding each sample."""
    idx = r_peaks.indices
    if idx.size < 2:
        raise ValueError("need at least 2 R peaks")
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


def resolve_config(
    cfg: FilterConfig,
    signal: Signal,
    phase: PhaseSeries,
    params: GaussianWaveParams,
    omega: np.ndarray,
) -> FilterConfig:
    """Fill in data-driven defaults for any noise level left as None.

    q_z defaults to 10% of the mean absolute model increment over one beat at
    the record's mean rate.  r_s defaults to the residual std of the first
    two seconds against the fitted template; r_phi to the std of the observed
    phase-increment irregularity over the same window.  Small floors keep the
    filter away from exactly-zero observation noise.
    """
    fs = signal.fs
    head = slice(0, max(int(2 * fs), 2))
    q_z, r_phi, r_s = cfg.q_z, cfg.r_phi, cfg.r_s
    if q_z is None:
        mean_step = float(np.mean(omega)) / fs
        grid = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        q_z = 0.1 * float(np.mean(np.abs(wave_increment(grid, params, mean_step))))
    if r_s is None:
        resid = signal.samples[head] - wave_sum(phase.phases[head], params)
        resid = resid - resid.mean()  # the isoelectric offset is not noise
        r_s = max(float(np.std(resid)), 1e-6)
    if r_phi is None:
        dphi = wrap_centered(np.diff(phase.phases[head]))
        r_phi = max(float(np.std(dphi - omega[head][:-1] / fs)), 1e-3)
    return replace(cfg, q_z=q_z, r_phi=r_phi, r_s=r_s)


def prepare_inputs(
    signal: Signal,
    r_peaks: RPeaks,
    params: GaussianWaveParams,
    cfg: FilterConfig,
) -> tuple[PhaseSeries, np.ndarray, FilterConfig]:
    """Front end shared with the EKF: validate the inputs, then return the
    observed phase, per-sample angular velocity and resolved configuration."""
    require_valid(signal)
    r_peaks.check_against(len(signal), signal.fs)
    phase = observed_phase(r_peaks, len(signal))
    omega = beat_angular_velocities(r_peaks, len(signal), signal.fs)
    return phase, omega, resolve_config(cfg, signal, phase, params, omega)


def denoise(
    signal: Signal,
    r_peaks: RPeaks,
    params: GaussianWaveParams,
    cfg: FilterConfig = FilterConfig(),
) -> Signal:
    """Run the full filter over a noisy recording.

    Builds the observed phase from the R peaks, initializes the ensemble from
    the first observation, then per sample: predict, sample covariances,
    gain, perturbed update, ensemble mean.  Deterministic given cfg.seed.
    """
    phase, omega, cfg = prepare_inputs(signal, r_peaks, params, cfg)
    n = len(signal)
    fs = signal.fs

    rng0 = substream(cfg.seed, 0)
    size = cfg.n_ensemble
    theta0 = wrap_phase(phase.phases[0] + rng0.normal(0.0, cfg.r_phi, size=size))
    z0 = signal.samples[0] + rng0.normal(0.0, cfg.r_s, size=size)
    ens = Ensemble(theta=theta0, z=z0)

    out = np.empty(n)
    out[0] = estimate(ens).z
    delta = 1.0 / fs
    for k in range(1, n):
        rng = substream(cfg.seed, k)
        clock = BeatClock(omega=float(omega[k]), delta=delta)
        ens = predict(ens, params, clock, cfg, rng)
        g = kalman_gain(sample_covariances(ens), cfg)
        ens = update(ens, float(phase.phases[k]), float(signal.samples[k]), g, cfg, rng)
        out[k] = estimate(ens).z
    return Signal(out, fs)
