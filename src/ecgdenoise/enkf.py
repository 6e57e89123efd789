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

from .core import RPeaks, SettingError, Signal, TWO_PI, in_near_range, wrap_centered, wrap_centered_near, wrap_phase
from .model import (
    GaussianWaveParams,
    beat_intervals,
    beat_phase,
    fit_params,
    mean_beat,
    wave_increment,
    wave_sum,
)


class DegenerateEnsembleError(ValueError):
    """Fewer than two members: sample covariances are undefined."""


class StepError(RuntimeError):
    """A filter step failed; rows holds the flat indices of the failing rows
    over the leading (batch) axes, so a caller can name where it failed."""

    def __init__(self, message: str, failed=True):
        super().__init__(message)
        self.rows = np.flatnonzero(failed)


class SingularInnovationError(StepError):
    """Innovation covariance is not invertible; observation noise is mis-sized."""


class AmbiguousPhaseError(StepError):
    """Circular mean undefined: member phases cancel out."""


# FilterConfig's noise levels: each non-negative, one column per lockstep row.
NOISE_LEVELS = ("q_theta", "q_z", "q_z_activity", "r_phi", "r_s")


@dataclass(frozen=True)
class FilterConfig:
    """Ensemble size, noise levels and master seed.

    q_z and r_s may be None, in which case they are resolved from the
    fitted morphology and the first two seconds of the input (see
    :func:`resolve_config`).  All defaults are explicit after resolution.
    r_phi is a constant: the observed phase and the angular velocity share
    one R-R interval rule (model.beat_intervals), so their mismatch is rounding.
    """

    n_ensemble: int = 100
    q_theta: float = 0.01  # process noise on phase, rad
    q_z: float | None = None  # process noise on amplitude, mV
    q_z_activity: float = 0.5  # extra amplitude noise per unit |model increment|
    r_phi: float = 1e-3  # observation noise on phase, rad
    r_s: float | None = None  # observation noise on amplitude, mV
    seed: int = 0

    def __post_init__(self):
        if self.n_ensemble < 2:
            raise SettingError("n_ensemble", "at least 2 for a sample covariance", self.n_ensemble)
        for name in NOISE_LEVELS:
            v = getattr(self, name)
            if v is not None and not v >= 0:
                raise SettingError(name, "non-negative", v)
        if self.r_phi == 0.0 and self.r_s == 0.0:
            raise SettingError("r_s", "non-zero when r_phi is zero: both cannot be zero", self.r_s)


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

# The split of a long job into lockstep segments (see :func:`segments`): at
# most MAX_SEGMENTS of them, each keeping at least MIN_SEGMENT_S seconds of
# output and starting SPIN_UP_S seconds before the span it keeps, long enough
# for the filter to forget its initial members (an exponentially stable
# filter forgets its initial condition: Anderson & Moore, Optimal Filtering,
# 1979).  The spin-up is a cheap stand-in for the exact temporal
# parallelization of Sarkka & Garcia-Fernandez (IEEE TAC 66(1), 2021).
SPIN_UP_S = 2.0
MIN_SEGMENT_S = 15.0
MAX_SEGMENTS = 16


def circular_mean(theta: np.ndarray):
    """Circular mean over the last (member) axis, one value per leading index."""
    n = theta.shape[-1]
    s = np.add.reduce(np.sin(theta), axis=-1) / n
    c = np.add.reduce(np.cos(theta), axis=-1) / n
    cancel = s * s + c * c < 1e-24
    if cancel.any():
        raise AmbiguousPhaseError("member phases cancel; circular mean undefined", cancel)
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
    (-pi, pi] before the outer products.  Every theta must lie in [0, 2*pi],
    as predict and update leave it, so the residuals lie in (-2*pi, 2*pi]
    and wrap_centered_near wraps them.  Leading axes are rows: (B, N)
    members give (B, 2, 2).
    """
    n = theta.shape[-1]
    if n < 2:
        raise DegenerateEnsembleError("need at least 2 members for sample covariances")
    resid = np.empty(theta.shape[:-1] + (2, n))
    resid[..., 0, :] = wrap_centered_near(theta - np.asarray(circular_mean(theta))[..., None])
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
    invertible = (size >= 1e-300) & (size < np.inf)
    if not invertible.all():
        raise SingularInnovationError("innovation covariance is singular; increase r_phi/r_s", ~invertible)
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

    Each member sees its own noised copy of the observation (see
    :func:`perturbed`), and :func:`assimilate` moves the members toward
    those copies.  Leading axes are rows, with the observation, gain and
    noise levels given per row.
    """
    obs = perturbed(np.array(noise[..., :2, :]), cfg.r_phi, cfg.r_s, y_phi, y_s)
    return assimilate(theta, z, obs[..., 0, :], obs[..., 1, :], k)


def perturbed(noise: np.ndarray, r_phi, r_s, y_phi, y_s) -> np.ndarray:
    """Each member's noised copy of the observation (y_phi, y_s), made in
    place from noise (..., 2, N), the observation part of draw_noise slabs:
    the draws scaled by r_phi and r_s, the set re-centered to exactly zero
    mean so the update adds no sampling bias, then the observation added.
    Leading axes broadcast against the levels and the observation."""
    noise[..., 0, :] *= r_phi
    noise[..., 1, :] *= r_s
    noise -= np.add.reduce(noise, axis=-1, keepdims=True) / noise.shape[-1]
    noise[..., 0, :] += y_phi
    noise[..., 1, :] += y_s
    return noise


def assimilate(
    theta: np.ndarray, z: np.ndarray, obs_phi, obs_s, k: np.ndarray, near: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """update's core: move each member toward its own perturbed observation
    (obs_phi, obs_s) with the 2x2 gain k.  The phase innovation is wrapped
    to (-pi, pi], by wrap_centered_near when near says every obs_phi - theta
    lies in its range, and member phases are re-wrapped to [0, 2*pi)
    afterwards."""
    innov_phi = (wrap_centered_near if near else wrap_centered)(obs_phi - theta)
    innov_s = obs_s - z
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
    two seconds against the fitted template, with a small floor that keeps
    the filter away from exactly-zero observation noise.
    """
    fs = signal.fs
    head = slice(0, max(int(2 * fs), 2))
    q_z, r_s = cfg.q_z, cfg.r_s
    if q_z is None:
        mean_step = float(np.mean(omega)) / fs
        grid = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        q_z = 0.1 * float(np.mean(np.abs(wave_increment(grid, params, mean_step))))
    if r_s is None:
        resid = signal.samples[head] - wave_sum(phase[head], params)
        resid = resid - resid.mean()  # the isoelectric offset is not noise
        r_s = max(float(np.std(resid)), 1e-6)
    return replace(cfg, q_z=q_z, r_s=r_s)


def prepare_inputs(
    signal: Signal,
    r_peaks: RPeaks,
    params: GaussianWaveParams | None,
    cfg: FilterConfig,
) -> tuple[np.ndarray, np.ndarray, GaussianWaveParams, FilterConfig]:
    """Front end shared with the EKF, the one place a model-based run's
    inputs are decided: pick and check the R peaks and build their observed
    phase once (:func:`ecgdenoise.model.beat_phase`), fit the morphology on
    that phase's mean beat when params is None (binning across all beats
    averages the additive noise away), then return the phase, per-sample
    angular velocity, morphology and resolved configuration.  Phase and
    omega come from each sample's R-R interval (see
    :func:`ecgdenoise.model.beat_intervals`): omega is 2*pi over its
    length in seconds."""
    r_peaks, phase = beat_phase(signal, r_peaks)
    if params is None:
        params = fit_params(mean_beat(signal, phase))
    omega = TWO_PI / (beat_intervals(r_peaks, len(signal))[1] / signal.fs)
    return phase, omega, params, resolve_config(cfg, signal, phase, params, omega)


def segments(n: int, fs: float) -> tuple[int, list[tuple[int, int]]]:
    """Split n samples at rate fs into lockstep segments of one length L.

    S = min(MAX_SEGMENTS, n // round(MIN_SEGMENT_S * fs)), at least 1 (and 1
    when that span rounds to fewer than 2 samples); with the spin-up
    W = round(SPIN_UP_S * fs), L = ceil((n + (S - 1) * W) / S).  Segment s
    starts at min(s * (L - W), n - L) and keeps its samples from the previous
    segment's end onward, so the kept spans tile [0, n).  Returns L and each
    segment's (start, first kept sample), both record sample indices.
    """
    span = round(MIN_SEGMENT_S * fs)
    count = max(1, min(MAX_SEGMENTS, n // span)) if span >= 2 else 1
    spin = round(SPIN_UP_S * fs)
    length = -(-(n + (count - 1) * spin) // count)
    starts = [min(s * (length - spin), n - length) for s in range(count)]
    return length, list(zip(starts, [0] + [start + length for start in starts[:-1]]))


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
    :func:`denoise`, all with one length, one rate and one ensemble size.
    Each job is cut into the segments of :func:`segments`, one row each: a
    slice of the job's samples, observed phase and omega from
    :func:`prepare_inputs` over the whole record, with the job's morphology
    (wave arrays stacked to (5, rows, 1)) and resolved noise levels ((rows,
    1) columns).  Row b of the (rows, N) member arrays is one segment's
    ensemble.  Segment s of a job draws all its noise from one stream,
    substream(seed, s): first its initial members around its first
    observation, then draw_noise's draws for its samples 1, 2, ... in order.
    Those draws, and the phase step omega * delta, are stacked NOISE_BLOCK
    samples at a time.  Once per block, row by row and in place, the
    observation draws become update's perturbed observations
    (:func:`perturbed`), which depend only on the draws, the levels and the
    observations.  So per sample all rows take one predict, sample
    covariances and gain, then update's core (:func:`assimilate`), together
    on views of the blocks.  The innovations skip fmod
    (core.wrap_centered_near) in the samples whose perturbed observed phases
    pass core.in_near_range.  The output sample is the members' amplitude
    mean, written into the job's output only over the segment's kept span;
    the circular phase mean is taken only of the predicted members, by
    sample_covariances.  Rows never mix and the split depends only on the
    length and rate, so each output equals a lone run of its job bit for
    bit, for any block size; a job of one segment is the whole record
    filtered from its first sample.  A SingularInnovationError or
    AmbiguousPhaseError names the record sample of the first failing row.
    """
    signals = [job[0] for job in jobs]
    inputs = [prepare_inputs(*job) for job in jobs]
    cfgs = [resolved for *_, resolved in inputs]
    n, fs, size = len(signals[0]), signals[0].fs, cfgs[0].n_ensemble
    if any(len(sig) != n or sig.fs != fs for sig in signals) or any(c.n_ensemble != size for c in cfgs):
        raise ValueError("a lockstep batch needs one signal length, one rate and one ensemble size")

    # One row per segment of each job: (job, start, first kept sample, stream).
    length, split = segments(n, fs)
    rows = [
        (job, start, kept, substream(cfgs[job].seed, s))
        for job in range(len(jobs))
        for s, (start, kept) in enumerate(split)
    ]
    levels = SimpleNamespace(**{f: np.array([[getattr(cfgs[job], f)] for job, *_ in rows]) for f in NOISE_LEVELS})
    morphology = SimpleNamespace(
        **{
            f: np.stack([getattr(inputs[job][2], f) for job, *_ in rows], axis=1)[..., None]
            for f in ("alpha", "b", "theta")
        }
    )

    delta = 1.0 / fs
    theta = np.empty((len(rows), size))
    z = np.empty((len(rows), size))
    for row, (job, start, _, rng) in enumerate(rows):
        theta[row] = wrap_phase(inputs[job][0][start] + rng.normal(0.0, cfgs[job].r_phi, size=size))
        z[row] = signals[job].samples[start] + rng.normal(0.0, cfgs[job].r_s, size=size)

    outs = [np.empty(n) for _ in jobs]

    def keep(estimates, first):
        """Write each row's estimates of its samples first, first + 1, ...
        into its job's output, over the row's kept span only."""
        for row, (job, start, kept, _) in enumerate(rows):
            lo, hi = max(start + first, kept), start + first + len(estimates)
            if lo < hi:
                outs[job][lo:hi] = estimates[lo - start - first :, row]

    noise = np.empty((min(NOISE_BLOCK, length - 1), len(rows), 4, size))
    steps = np.empty(noise.shape[:2] + (1,))  # per sample and row: the phase step omega * delta
    near = np.empty(noise.shape[:2], dtype=bool)  # per sample and row: innovations in wrap_centered_near's range
    estimates = np.empty(noise.shape[:2])  # per sample and row: the output, kept once per block
    k = 0
    try:
        keep((np.add.reduce(z, axis=-1) / size)[None], 0)
        for first in range(1, length, NOISE_BLOCK):
            count = min(NOISE_BLOCK, length - first)
            for row, (job, start, _, rng) in enumerate(rows):
                phases, omega, _, c = inputs[job]
                ahead = slice(start + first, start + first + count)
                np.multiply(omega[ahead], delta, out=steps[:count, row, 0])
                noise[:count, row] = draw_noise(rng, c, size, count)
                # Row by row, so that no temporary grows with the rows.
                seen = phases[ahead, None], signals[job].samples[ahead, None]
                obs = perturbed(noise[:count, row, 2:], c.r_phi, c.r_s, *seen)
                # Members lie in [0, 2*pi), so the phase innovations lie above
                # the lowest perturbed phase minus 2*pi and below the highest.
                near[:count, row] = in_near_range(obs[:, 0].min(axis=-1) - TWO_PI, obs[:, 0].max(axis=-1))
            near_all = near[:count].all(axis=1).tolist()
            for k in range(first, first + count):
                drawn = noise[k - first]
                theta, z = predict(theta, z, morphology, steps[k - first], levels, drawn[:, :2])
                gain = kalman_gain(sample_covariances(theta, z), levels)
                theta, z = assimilate(theta, z, drawn[:, 2], drawn[:, 3], gain, near_all[k - first])
                estimates[k - first] = np.add.reduce(z, axis=-1) / size  # the amplitude half of estimate
            keep(estimates[:count], first)
    except StepError as exc:
        raise type(exc)(f"{exc} at sample {rows[exc.rows[0]][1] + k}") from None
    # Signal copies its samples; popping each job's buffer frees it once
    # copied, so only one job's output ever exists twice.
    return [Signal(outs.pop(0), sig.fs) for sig in signals]
