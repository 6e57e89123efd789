"""Ensemble Kalman filter with perturbed observations over the beat model.

The filtering distribution of the 2-D state (theta, z) is carried by N
sampled members.  Each step: propagate every member through the stochastic
beat-model transition, form sample cross- and innovation covariances, compute
the gain, then update each member against an independently perturbed copy of
the observation (phase, amplitude).  The output sample is the ensemble's
amplitude mean.

Phase is an angle: every residual anywhere in the filter is wrapped to
(-pi, pi] before arithmetic, ensemble phase means are circular, and member
phases are re-wrapped to [0, 2*pi) after each update.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .core import RPeaks, SettingError, Signal, TWO_PI, require_valid, wrap_centered, wrap_phase
from .model import (
    GaussianWaveParams,
    beat_intervals,
    fit_params,
    mean_beat,
    observed_phase,
    phase_peaks,
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
    :func:`resolve_config`).  All defaults are explicit after resolution.
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
            raise SettingError("n_ensemble", "at least 2 for a sample covariance", self.n_ensemble)
        for name in ("q_theta", "q_z", "q_z_activity", "r_phi", "r_s"):
            v = getattr(self, name)
            if v is not None and not v >= 0:
                raise SettingError(name, "non-negative", v)
        if self.r_phi == 0.0 and self.r_s == 0.0:
            raise ValueError("r_phi and r_s cannot both be zero")


def substream(master_seed: int, *key) -> np.random.Generator:
    """Deterministic generator for a named substream of the master seed.

    The stream identity depends only on (master_seed, key), never on call
    order, so concurrent evaluation cannot change results.
    """
    digest = hashlib.sha256(repr((int(master_seed),) + tuple(key)).encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "little")))


# Samples whose noise an EnKF row draws at once (see :func:`denoise_batch`):
# each row holds a (NOISE_BLOCK, 4, N) float64 block, 205 kB at N = 100.
NOISE_BLOCK = 64


def circular_mean(theta: np.ndarray):
    """Circular mean over the last (member) axis, one value per leading index."""
    n = theta.shape[-1]
    s = np.add.reduce(np.sin(theta), axis=-1) / n
    c = np.add.reduce(np.cos(theta), axis=-1) / n
    if (s * s + c * c < 1e-24).any():
        raise AmbiguousPhaseError("member phases cancel; circular mean undefined")
    return wrap_phase(np.arctan2(s, c))


def draw_noise(rng: np.random.Generator, cfg: FilterConfig, n: int, samples: int) -> np.ndarray:
    """Standard normal draws for n members over the given number of
    successive samples, shape (samples, 4, n): per sample, phase and amplitude
    process noise, then phase and amplitude observation noise.  cfg is
    resolved (see :func:`resolve_config`): no noise level is None.

    A noise whose std is zero draws nothing and its row stays zero.  The
    draws fill sample by sample, so each sample's draws are the same however
    the stream is split into blocks: the stream that separate
    rng.normal(0, std, n) draws give, sample after sample.
    """
    active = [cfg.q_theta > 0, cfg.q_z > 0, cfg.r_phi != 0, cfg.r_s != 0]
    if all(active):
        return rng.standard_normal((samples, 4, n))
    out = np.zeros((samples, 4, n))
    out[:, active] = rng.standard_normal((samples, sum(active), n))
    return out


def predict(
    theta: np.ndarray,
    z: np.ndarray,
    params: GaussianWaveParams,
    phase_step,
    cfg: FilterConfig,
    noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate every member (phases theta, amplitudes z) through the
    stochastic transition; phase_step is omega * delta for this sample and
    noise[..., :2, :] is the process part of this sample's draw_noise slab
    (zero where a std is zero).

    The phase perturbation is folded into each member's theta before the
    transition runs, so the amplitude increment is evaluated at the perturbed
    phase.  The amplitude noise std is q_z plus q_z_activity times the local
    |increment|: the discretized model is least trustworthy on the steep QRS
    flanks, and inflating eta there keeps the ensemble spread (and thus the
    gain) honest about it.  Because that spread is uncorrelated with the
    member phases, the joint update cannot explain it away via the
    observed phase.  Setting q_z to zero disables amplitude noise entirely.

    Members lie along the last axis.  Leading axes are independent rows,
    with params, phase_step and the cfg noise levels given per row (see
    :func:`denoise_batch`).
    """
    theta_pert = theta + cfg.q_theta * noise[..., 0, :]
    dz = wave_increment(theta_pert, params, phase_step)
    eta = noise[..., 1, :] * (cfg.q_z + cfg.q_z_activity * np.abs(dz))
    return wrap_phase(theta_pert + phase_step), z + dz + eta


def sample_covariances(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """2x2 sample covariance of the predicted members with the 1/N normalizer.

    The observation map is the identity on (theta, z), so the predicted
    observations are the members themselves and this one matrix is both the
    state-observation cross covariance and the innovation covariance.  Phase
    residuals are taken against the circular ensemble mean and wrapped to
    (-pi, pi] before the outer products.  Leading axes are rows: (B, N)
    members give (B, 2, 2).
    """
    n = theta.shape[-1]
    if n < 2:
        raise DegenerateEnsembleError("need at least 2 members for sample covariances")
    resid = np.empty(theta.shape[:-1] + (2, n))
    resid[..., 0, :] = wrap_centered(theta - np.asarray(circular_mean(theta))[..., None])
    np.subtract(z, np.add.reduce(z, axis=-1, keepdims=True) / n, out=resid[..., 1, :])
    return (resid @ resid.swapaxes(-1, -2)) / n


# Sign pattern of the 2x2 adjugate.
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def kalman_gain(p: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """K = P (P + R)^-1 with R = diag(r_phi^2, r_s^2), per row of a (..., 2, 2) stack.

    Adding R keeps the gain consistent with the perturbed-observation update;
    a singular innovation covariance signals a mis-sized noise configuration.
    """
    rows = p.shape[:-2]
    s = p.copy()
    s[..., 0, 0] += np.square(cfg.r_phi).reshape(rows)
    s[..., 1, 1] += np.square(cfg.r_s).reshape(rows)
    det = s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0]
    size = np.abs(det)
    if not ((size >= 1e-300) & (size < np.inf)).all():
        raise SingularInnovationError("innovation covariance is singular; increase r_phi/r_s")
    adjugate = s.swapaxes(-1, -2)[..., ::-1, ::-1] * _ADJUGATE_SIGNS
    return p @ (adjugate / det[..., None, None])


def update(
    theta: np.ndarray,
    z: np.ndarray,
    y_phi,
    y_s,
    k: np.ndarray,
    cfg: FilterConfig,
    noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed-observation update of the members with the 2x2 gain k;
    noise[..., :2, :] is the observation part of this sample's draw_noise slab.

    Each member sees its own noised copy of the observation, with the drawn
    perturbation set re-centered to exactly zero mean so the update adds no
    sampling bias.  The phase innovation is wrapped to (-pi, pi] and member
    phases are re-wrapped to [0, 2*pi) afterwards.  Leading axes are rows,
    with the observation, gain and noise levels given per row.
    """
    n = theta.shape[-1]
    v_phi = cfg.r_phi * noise[..., 0, :]
    v_s = cfg.r_s * noise[..., 1, :]
    v_phi -= np.add.reduce(v_phi, axis=-1, keepdims=True) / n  # exactly zero-mean perturbation sets
    v_s -= np.add.reduce(v_s, axis=-1, keepdims=True) / n
    innov_phi = wrap_centered(y_phi + v_phi - theta)
    innov_s = (y_s + v_s) - z
    k = k[..., None]  # gain entries broadcast over the member axis
    return (
        wrap_phase(theta + k[..., 0, 0, :] * innov_phi + k[..., 0, 1, :] * innov_s),
        z + k[..., 1, 0, :] * innov_phi + k[..., 1, 1, :] * innov_s,
    )


def estimate(theta: np.ndarray, z: np.ndarray):
    """Ensemble mean: circular over phase, arithmetic over amplitude (per row)."""
    return circular_mean(theta), np.add.reduce(z, axis=-1) / z.shape[-1]


def resolve_config(
    cfg: FilterConfig,
    signal: Signal,
    phase: np.ndarray,
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
        resid = signal.samples[head] - wave_sum(phase[head], params)
        resid = resid - resid.mean()  # the isoelectric offset is not noise
        r_s = max(float(np.std(resid)), 1e-6)
    if r_phi is None:
        dphi = wrap_centered(np.diff(phase[head]))
        r_phi = max(float(np.std(dphi - omega[head][:-1] / fs)), 1e-3)
    return replace(cfg, q_z=q_z, r_phi=r_phi, r_s=r_s)


def prepare_inputs(
    signal: Signal,
    r_peaks: RPeaks,
    params: GaussianWaveParams | None,
    cfg: FilterConfig,
) -> tuple[np.ndarray, np.ndarray, GaussianWaveParams, FilterConfig]:
    """Front end shared with the EKF, the one place a model-based run's
    inputs are decided: validate the signal, pick the R peaks by
    :func:`ecgdenoise.model.phase_peaks` and check them, build the observed
    phase once, fit the morphology on that phase's mean beat when params is
    None (binning across all beats averages the additive noise away), then
    return the phase, per-sample angular velocity, morphology and resolved
    configuration.  Phase and omega come from each sample's R-R interval
    (see :func:`ecgdenoise.model.beat_intervals`): omega is 2*pi over its
    length in seconds."""
    require_valid(signal)
    r_peaks = phase_peaks(signal, r_peaks)
    r_peaks.check_against(len(signal), signal.fs)
    phase = observed_phase(r_peaks, len(signal))
    if params is None:
        params = fit_params(mean_beat(signal, phase))
    omega = TWO_PI / (beat_intervals(r_peaks, len(signal))[1] / signal.fs)
    return phase, omega, params, resolve_config(cfg, signal, phase, params, omega)


def denoise(
    signal: Signal,
    r_peaks: RPeaks,
    params: GaussianWaveParams | None,
    cfg: FilterConfig = FilterConfig(),
) -> Signal:
    """Run the full filter over a noisy recording: a batch of one, see :func:`denoise_batch`."""
    return denoise_batch([(signal, r_peaks, params, cfg)])[0]


def denoise_batch(jobs) -> list[Signal]:
    """Run the filter over equal-length recordings in lockstep.

    jobs: (signal, r_peaks, params, cfg) tuples, the arguments of
    :func:`denoise`, all with one length and one ensemble size.  Row b of
    the (B, N) member arrays is job b's ensemble; its morphology (wave
    arrays stacked to (5, B, 1)), observed phase, phase steps and resolved
    noise levels ((B, 1) columns) are its own, from :func:`prepare_inputs`.
    Each row draws all its noise from one stream, substream(seed, 0): first
    its initial members around the first observation, then draw_noise's
    draws for samples 1, 2, ... in order.  Those draws, the observed phase
    and amplitude and the phase step omega * delta are stacked NOISE_BLOCK
    samples at a time, so per sample all rows take one predict, sample
    covariances, gain and perturbed update together on views of the blocks.
    The output sample is the members' amplitude mean; the circular phase mean
    is taken only of the predicted members, by sample_covariances.  Rows
    never mix, so each output equals a lone run of its job bit for bit, for
    any block size.  A SingularInnovationError or AmbiguousPhaseError in any
    row names the sample index.
    """
    signals = [job[0] for job in jobs]
    inputs = [prepare_inputs(*job) for job in jobs]
    cfgs = [resolved for *_, resolved in inputs]
    n, size = len(signals[0]), cfgs[0].n_ensemble
    if any(len(sig) != n for sig in signals) or any(c.n_ensemble != size for c in cfgs):
        raise ValueError("a lockstep batch needs one signal length and one ensemble size")

    levels = SimpleNamespace(
        **{f: np.array([[getattr(c, f)] for c in cfgs]) for f in ("q_theta", "q_z", "q_z_activity", "r_phi", "r_s")}
    )
    morphology = SimpleNamespace(
        **{f: np.stack([getattr(p, f) for _, _, p, _ in inputs], axis=1)[..., None] for f in ("alpha", "b", "theta")}
    )
    rows = [
        (c, phase, sig.samples, omega, 1.0 / sig.fs, substream(c.seed, 0))
        for (phase, omega, _, c), sig in zip(inputs, signals)
    ]

    theta = np.empty((len(jobs), size))
    z = np.empty((len(jobs), size))
    for row, (c, phases, samples, _, _, rng) in enumerate(rows):
        theta[row] = wrap_phase(phases[0] + rng.normal(0.0, c.r_phi, size=size))
        z[row] = samples[0] + rng.normal(0.0, c.r_s, size=size)

    noise = np.empty((min(NOISE_BLOCK, n - 1), len(jobs), 4, size))
    obs = np.empty(noise.shape[:2] + (3,))  # per sample and row: observed phase and amplitude, phase step
    estimates = np.empty(noise.shape[:2])  # per sample and row: the output, copied to each row's buffer per block
    outs = [np.empty(n) for _ in jobs]
    k = 0
    try:
        for out, first in zip(outs, np.add.reduce(z, axis=-1) / size):
            out[0] = first
        for start in range(1, n, NOISE_BLOCK):
            count = min(NOISE_BLOCK, n - start)
            ahead = slice(start, start + count)
            for row, (c, phases, samples, omega, delta, rng) in enumerate(rows):
                noise[:count, row] = draw_noise(rng, c, size, count)
                obs[:count, row, 0] = phases[ahead]
                obs[:count, row, 1] = samples[ahead]
                np.multiply(omega[ahead], delta, out=obs[:count, row, 2])
            for k in range(start, start + count):
                drawn, seen = noise[k - start], obs[k - start]
                theta, z = predict(theta, z, morphology, seen[:, 2:], levels, drawn[:, :2])
                gain = kalman_gain(sample_covariances(theta, z), levels)
                theta, z = update(theta, z, seen[:, :1], seen[:, 1:2], gain, levels, drawn[:, 2:])
                estimates[k - start] = np.add.reduce(z, axis=-1) / size  # the amplitude half of estimate
            for row, out in enumerate(outs):
                out[ahead] = estimates[:count, row]
    except (SingularInnovationError, AmbiguousPhaseError) as exc:
        raise type(exc)(f"{exc} at sample {k}") from None
    # Signal copies its samples; popping each row's buffer frees it once
    # copied, so only one row's output ever exists twice.
    return [Signal(outs.pop(0), sig.fs) for sig in signals]
