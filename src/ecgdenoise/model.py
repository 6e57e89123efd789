"""Sum-of-Gaussians beat model: state transition, phase observation, synthesis,
morphology fitting and R-peak detection.

The model state is (theta, z): theta advances around the beat cycle at the
angular velocity implied by the local R-R interval, and z accumulates the
derivative of five Gaussian bumps (P, Q, R, S, T) centered at fixed phases.
Projecting z over time yields a synthetic ECG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    REFRACTORY_S,
    RPeaks,
    SettingError,
    Signal,
    TWO_PI,
    _as_readonly,
    in_near_range,
    sample_count,
    wrap_centered,
    wrap_centered_near,
    wrap_phase,
)


class InsufficientFiducialsError(ValueError):
    """Too few R peaks to construct a phase or fit a morphology."""


class BinCoverageError(SettingError):
    """A phase bin received no samples: n_bins is more than the beats fill."""


class FitDivergenceError(RuntimeError):
    """The least-squares objective became non-finite during fitting."""


class DetectionFailureError(RuntimeError):
    """R-peak detection found no usable peaks."""


@dataclass(frozen=True)
class GaussianWaveParams:
    """Morphology of one subject's beat: amplitude, width and center per wave.

    Arrays are ordered P, Q, R, S, T.  Centers are strictly increasing in
    (-pi, pi] with the R wave pinned at phase zero.
    """

    alpha: np.ndarray  # mV
    b: np.ndarray  # rad, > 0
    theta: np.ndarray  # rad in (-pi, pi]

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        theta = np.asarray(self.theta, dtype=np.float64)
        for name, arr in (("alpha", alpha), ("b", b), ("theta", theta)):
            if arr.shape != (5,):
                raise ValueError(f"{name} must have exactly 5 entries (P,Q,R,S,T)")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        if np.any(b <= 0):
            raise ValueError("all wave widths must be positive")
        if theta[2] != 0.0:
            raise ValueError("R-wave center must be exactly 0 by convention")
        if np.any(np.diff(theta) <= 0):
            raise ValueError("wave centers must be strictly increasing P < Q < R < S < T")
        if theta[0] <= -np.pi or theta[-1] > np.pi:
            raise ValueError("wave centers must lie in (-pi, pi]")
        object.__setattr__(self, "alpha", _as_readonly(alpha))
        object.__setattr__(self, "b", _as_readonly(b))
        object.__setattr__(self, "theta", _as_readonly(theta))

    def to_dict(self) -> dict:
        return {"alpha": self.alpha.tolist(), "b": self.b.tolist(), "theta": self.theta.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianWaveParams":
        return cls(np.asarray(d["alpha"]), np.asarray(d["b"]), np.asarray(d["theta"]))


def default_morphology() -> GaussianWaveParams:
    """Initializer morphology for fitting, scaled to unit R amplitude.

    These are starting values only; fitted parameters replace them.
    """
    alpha = np.array([1.2, -5.0, 30.0, -7.5, 0.75]) / 30.0
    b = np.array([0.25, 0.1, 0.1, 0.1, 0.4])
    theta = np.array([-np.pi / 3.0, -np.pi / 12.0, 0.0, np.pi / 12.0, np.pi / 2.0])
    return GaussianWaveParams(alpha=alpha, b=b, theta=theta)


def wave_sum(theta, params: GaussianWaveParams):
    """Limit-cycle amplitude g(theta) = sum of the five Gaussian bumps."""
    th = np.asarray(theta, dtype=np.float64)
    d = wrap_centered(th[..., None] - params.theta)
    return np.sum(params.alpha * np.exp(-(d * d) / (2.0 * params.b**2)), axis=-1)


def wave_increment(theta, params: GaussianWaveParams, phase_step):
    """Per-sample z increment: the discretized derivative of the Gaussian sum.

    Evaluated at the pre-update phase; equals d g/d theta * omega * delta.
    The wave axis leads, so params arrays may also be per-row stacks shaped
    (5, B, 1) against (B, N) phases and a (B, 1) phase_step.
    """
    th = np.asarray(theta, dtype=np.float64)
    alpha, b, centers = params.alpha, params.b, params.theta
    if centers.ndim <= th.ndim:  # one morphology for all phases: waves lead, phases follow
        lead = (5,) + (1,) * th.ndim
        alpha, b, centers = alpha.reshape(lead), b.reshape(lead), centers.reshape(lead)
    d = th - centers
    near = in_near_range(d.min(initial=np.inf), d.max(initial=-np.inf))  # two reductions cost less than fmod
    d = (wrap_centered_near if near else wrap_centered)(d)
    b2 = b**2
    return -np.add.reduce(alpha * d * (phase_step / b2) * np.exp((d * d) / -(2.0 * b2)), axis=0)


def synthesize(
    params: GaussianWaveParams,
    rr_intervals,
    fs: float,
    noise_std: float = 0.0,
    seed: int = 0,
) -> tuple[Signal, np.ndarray, RPeaks]:
    """Generate a synthetic ECG by iterating the transition over the given beats.

    rr_intervals: beat durations in seconds, each above REFRACTORY_S.  The angular
    velocity is 2*pi / rr for the current beat; the state noise eta is drawn
    i.i.d. Gaussian(0, noise_std^2) from a generator seeded with `seed`, so
    identical arguments give bit-identical output.

    Returns the z trace, the true phase trace, and the samples where the
    phase wrapped (the R peaks, including sample 0).
    """
    rr = np.asarray(rr_intervals, dtype=np.float64)
    if rr.ndim != 1 or rr.size == 0:
        raise ValueError("rr_intervals must be a non-empty 1-D sequence")
    bad = ~((rr > REFRACTORY_S) & (rr < np.inf))
    if bad.any():
        raise SettingError("rr_intervals", f"finite and above {REFRACTORY_S:g} s", rr[np.argmax(bad)])
    if not 0 <= noise_std < np.inf:
        raise SettingError("noise_std", "finite and non-negative", noise_std)

    with np.errstate(over="ignore"):  # an infinite total breaks sample_count's size rule
        n = sample_count(float(rr.sum()), fs, "rr_intervals")  # checks fs
    if n == 0:
        raise SettingError("fs", f"high enough for {rr.sum():g} s to hold a sample", fs)
    rng = np.random.default_rng(seed)
    eta = rng.normal(0.0, noise_std, size=n) if noise_std > 0 else np.zeros(n)

    z = np.empty(n)
    phase = np.empty(n)
    peaks = [0]
    zk = float(wave_sum(0.0, params))
    beat = 0
    beat_len = rr[0] * fs  # samples per beat, possibly fractional
    pos = 0.0  # position within the current beat, in samples
    for k in range(n):
        # Phase from the within-beat position keeps the wrap exact: an
        # integer-length beat puts its R peaks exactly beat_len samples apart.
        theta = TWO_PI * pos / beat_len
        phase[k] = theta
        z[k] = zk
        zk = zk + float(wave_increment(theta, params, TWO_PI / beat_len)) + eta[k]
        pos += 1.0
        if pos >= beat_len:
            pos -= beat_len
            if k + 1 < n:
                peaks.append(k + 1)
            beat = min(beat + 1, rr.size - 1)
            beat_len = rr[beat] * fs

    return Signal(z, fs), phase, RPeaks(np.asarray(peaks, dtype=np.int64))


def defines_phase(r_peaks: RPeaks) -> bool:
    """Whether R peaks define a beat phase: at least 2 of them."""
    return len(r_peaks) >= 2


def beat_phase(signal: Signal, r_peaks: RPeaks) -> tuple[RPeaks, np.ndarray]:
    """The R peaks a beat phase comes from, and that phase: take the given
    peaks if they define a phase, else detect them, check them against
    signal (bounds, refractory floor), return them and their observed_phase."""
    r_peaks = r_peaks if defines_phase(r_peaks) else detect_r_peaks(signal)
    r_peaks.check_against(len(signal), signal.fs)
    return r_peaks, observed_phase(r_peaks, len(signal))


def beat_intervals(r_peaks: RPeaks, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The R-R interval of each sample 0..length-1: its start peak and its
    length, both in samples.

    A sample belongs to the interval between the last peak at or before it
    and the next peak.  Before the first peak the first interval is
    extrapolated, counted from the first peak; from the last peak on, the
    last interval, counted from the last peak.  Phase and angular velocity
    both follow this one rule (Sameni et al., IEEE TBME 2007).
    """
    if not defines_phase(r_peaks):
        raise InsufficientFiducialsError("need at least 2 R peaks to define a phase")
    idx = r_peaks.indices
    j = np.searchsorted(idx, np.arange(length), side="right") - 1
    return idx[np.clip(j, 0, idx.size - 1)], np.diff(idx)[np.clip(j, 0, idx.size - 2)]


def observed_phase(r_peaks: RPeaks, length: int) -> np.ndarray:
    """Linear time-wrapping of each R-R interval onto [0, 2*pi), one float64
    per sample.

    Phase is exactly 0 at every peak, linear in the sample index up to 2*pi
    at the next peak.  Before the first peak and after the last the nearest
    interval is extrapolated, then wrapped (see :func:`beat_intervals`).
    """
    start, span = beat_intervals(r_peaks, length)
    return wrap_phase(TWO_PI * (np.arange(length, dtype=np.float64) - start) / span)


@dataclass(frozen=True)
class BeatTemplate:
    """Phase-binned mean beat: one (center, mean) pair per bin.

    `centers` holds each bin's empirical mean phase rather than the geometric
    midpoint, so a fit evaluated at the centers is unbiased even when the
    samples cluster unevenly inside a bin.
    """

    centers: np.ndarray
    mean: np.ndarray


MIN_BINS = 16  # fewest phase bins a template may have


def mean_beat(signal: Signal, phase: np.ndarray, n_bins: int = 64) -> BeatTemplate:
    """Average the signal into n_bins uniform phase bins.

    Every bin must receive at least one sample; an unfilled bin means the
    record is too short (or n_bins too large) to define a template.
    """
    if n_bins < MIN_BINS:
        raise SettingError("n_bins", f"at least {MIN_BINS}", n_bins)
    if len(phase) != len(signal):
        raise ValueError("phase and signal must have equal length")
    which = np.minimum((phase / TWO_PI * n_bins).astype(np.int64), n_bins - 1)
    counts = np.bincount(which, minlength=n_bins)
    if np.any(counts == 0):
        rule = f"few enough for every phase bin to receive a sample (bin {int(np.argmax(counts == 0))} received none)"
        raise BinCoverageError("n_bins", rule, n_bins)
    means = np.bincount(which, weights=signal.samples, minlength=n_bins) / counts
    centers = np.bincount(which, weights=phase, minlength=n_bins) / counts
    return BeatTemplate(centers=centers, mean=means)


def _pack(params: GaussianWaveParams) -> np.ndarray:
    # Free parameters: 5 alphas, 5 widths, 4 centers (theta_R pinned at 0),
    # plus one isoelectric offset.  The offset is a nuisance parameter: the
    # beat model is derivative-form and carries no DC, but real templates do,
    # and fitting without it pushes the offset into the wide waves.
    return np.concatenate([params.alpha, params.b, np.delete(params.theta, 2), [0.0]])


def _unpack(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    alpha = vec[0:5]
    b = np.maximum(vec[5:10], 0.01)  # width floor
    theta = np.insert(vec[10:14], 2, 0.0)
    return alpha, b, theta, float(vec[14])


_ORDER_PENALTY = 10.0
_ORDER_MARGIN = 0.05  # rad; waves closer than this start paying
_AMP_PENALTY = 10.0
_MAX_ITER = 200  # Levenberg-Marquardt iterations
_REL_TOL = 1e-8  # converged once an accepted step lowers the objective by less than this fraction


def _fit_residuals(
    vec: np.ndarray, centers: np.ndarray, target: np.ndarray, amp_cap: float
) -> np.ndarray:
    alpha, b, theta, offset = _unpack(vec)
    d = wrap_centered(centers[:, None] - theta)
    g = np.sum(alpha * np.exp(-(d * d) / (2.0 * b**2)), axis=1) + offset
    data = target - g
    # Soft guards: centers keep their order with a little separation, and no
    # amplitude may dwarf the template (kills compensating-Gaussian fits).
    order = _ORDER_PENALTY * np.maximum(theta[:-1] - theta[1:] + _ORDER_MARGIN, 0.0)
    amp = _AMP_PENALTY * np.maximum(np.abs(alpha) - amp_cap, 0.0)
    return np.concatenate([data, order, amp])


def _fit_jacobian(vec: np.ndarray, centers: np.ndarray, amp_cap: float) -> np.ndarray:
    alpha, b, theta, _ = _unpack(vec)
    n = centers.shape[0]
    d = wrap_centered(centers[:, None] - theta)
    b2 = b**2
    e = np.exp(-(d * d) / (2.0 * b2))
    jac = np.zeros((n + 9, 15))
    jac[:n, 0:5] = -e  # d residual / d alpha
    jac[:n, 5:10] = -alpha * e * (d * d) / (b2 * b)  # d / d b
    jac[:n, 5:10] *= vec[5:10] >= 0.01  # width floor: clamped entries are flat
    dg_dth = alpha * e * d / b2  # d g / d theta_i
    jac[:n, 10:14] = -np.delete(dg_dth, 2, axis=1)  # residual = target - g
    jac[:n, 14] = -1.0  # d / d offset
    # Ordering-penalty rows; free-center layout: columns 10..13 hold
    # theta_P, theta_Q, theta_S, theta_T.
    t_cols = {0: 10, 1: 11, 3: 12, 4: 13}
    for j in range(4):
        if theta[j] - theta[j + 1] + _ORDER_MARGIN <= 0.0:
            continue
        if j in t_cols:
            jac[n + j, t_cols[j]] += _ORDER_PENALTY
        if (j + 1) in t_cols:
            jac[n + j, t_cols[j + 1]] -= _ORDER_PENALTY
    for i in range(5):
        if np.abs(alpha[i]) > amp_cap:
            jac[n + 4 + i, i] = _AMP_PENALTY * np.sign(alpha[i])
    return jac


def _objective(res: np.ndarray) -> float:
    """Sum of squared residuals; one that overflows is non-finite, which fit_params reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(res @ res)


def fit_params(
    template: BeatTemplate,
    init: GaussianWaveParams | None = None,
    objective_trace: list | None = None,
) -> GaussianWaveParams:
    """Fit wave amplitudes, widths and centers to a binned mean beat.

    Damped Gauss-Newton (Levenberg-Marquardt): steps that do not decrease the
    sum of squared residuals are rejected and the damping raised, so the
    objective is monotone over accepted iterations.  The R-wave center stays
    pinned at phase zero; width floors and a soft ordering penalty keep the
    result inside the parameter invariants.
    """
    if init is None:
        init = default_morphology()
    vec = _pack(init)
    centers, target = template.centers, template.mean
    amp_cap = 5.0 * max(float(np.abs(target).max()), 1e-9)

    res = _fit_residuals(vec, centers, target, amp_cap)
    obj = _objective(res)
    if not np.isfinite(obj):
        raise FitDivergenceError("objective non-finite at the initial point")
    if objective_trace is not None:
        objective_trace.append(obj)

    # The model is linear in amplitudes and offset: solve that subproblem
    # exactly at the initial widths/centers and keep the result if it helps.
    _, b0, theta0, _ = _unpack(vec)
    d0 = wrap_centered(centers[:, None] - theta0)
    design = np.column_stack(
        [np.exp(-(d0 * d0) / (2.0 * b0**2)), np.ones(centers.shape[0])]
    )
    linear = np.linalg.lstsq(design, target, rcond=None)[0]
    cand = vec.copy()
    cand[0:5] = linear[:5]
    cand[14] = linear[5]
    cand_res = _fit_residuals(cand, centers, target, amp_cap)
    cand_obj = _objective(cand_res)
    if cand_obj < obj:
        vec, res, obj = cand, cand_res, cand_obj
        if objective_trace is not None:
            objective_trace.append(obj)

    lam = 1e-3
    for _ in range(_MAX_ITER):
        jac = _fit_jacobian(vec, centers, amp_cap)
        jtj = jac.T @ jac
        jtr = jac.T @ res
        stepped = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12)), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = vec + delta
            cand_res = _fit_residuals(cand, centers, target, amp_cap)
            cand_obj = _objective(cand_res)
            if not np.isfinite(cand_obj):
                raise FitDivergenceError("objective became non-finite during iteration")
            if cand_obj < obj:
                rel = (obj - cand_obj) / max(obj, 1e-300)
                vec, res, obj = cand, cand_res, cand_obj
                if objective_trace is not None:
                    objective_trace.append(obj)
                lam = max(lam * 0.3, 1e-12)
                stepped = True
                if rel < _REL_TOL:
                    stepped = False  # converged
                break
            lam *= 10.0
        if not stepped:
            break

    alpha, b, theta, _ = _unpack(vec)
    order = np.argsort(theta, kind="stable")
    alpha, b, theta = alpha[order], b[order], theta[order]
    # The soft penalty keeps ties possible at exhaustion; nudge apart to
    # restore strict ordering without altering the fit visibly.
    for j in range(1, 5):
        if theta[j] <= theta[j - 1]:
            theta[j] = theta[j - 1] + 1e-9
    theta[2] = 0.0
    if np.any(np.diff(theta) <= 0):
        raise FitDivergenceError("fitted centers could not be ordered around the pinned R wave")
    return GaussianWaveParams(alpha=alpha, b=b, theta=theta)


def fit_residual_rms(template: BeatTemplate, params: GaussianWaveParams) -> float:
    """Root-mean-square misfit of a morphology against a template."""
    g = wave_sum(template.centers, params)
    return float(np.sqrt(np.mean((template.mean - g) ** 2)))


def _bandpass_fir(numtaps: int, low_hz: float, high_hz: float, fs: float) -> np.ndarray:
    """Hamming-windowed sinc band-pass, scaled to unit gain at the band center.

    The same taps, bit for bit, as scipy.signal.firwin(numtaps, [low_hz,
    high_hz], pass_zero=False, fs=fs): every operation follows its order.
    """
    low, high = low_hz / (0.5 * fs), high_hz / (0.5 * fs)
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    h = (high * np.sinc(high * m) - low * np.sinc(low * m)) * window
    return h / np.sum(h * np.cos(np.pi * m * (0.5 * (low + high))))


# Seconds of envelope the detector's thresholds are learned from: the shortest
# signal it takes.
MIN_DETECT_S = 2.0


def detectable(n: int, fs: float) -> bool:
    """Whether n samples at fs are long enough for detect_r_peaks."""
    return n >= MIN_DETECT_S * fs


def detect_r_peaks(signal: Signal) -> RPeaks:
    """Find R peaks in an unannotated recording.

    Band-pass (5-15 Hz linear-phase FIR), differentiate, square, integrate
    over a 150 ms window, then pick peaks of the envelope with an adaptive
    dual threshold and a REFRACTORY_S refractory period.  Each accepted envelope
    peak is localized at the raw-signal maximum within +-50 ms.
    """
    fs = signal.fs
    if not detectable(len(signal), fs):
        raise ValueError(f"need at least {MIN_DETECT_S:g} s of signal to detect R peaks")
    if signal.samples.max() == signal.samples.min():
        raise DetectionFailureError("constant signal has no QRS energy")

    numtaps = int(round(0.25 * fs)) | 1
    taps = _bandpass_fir(numtaps, 5.0, 15.0, fs)
    band = np.convolve(signal.samples, taps, mode="same")
    deriv = np.gradient(band)
    squared = deriv * deriv
    win = max(int(round(0.150 * fs)), 1)
    envelope = np.convolve(squared, np.ones(win) / win, mode="same")

    refractory = sample_count(REFRACTORY_S, fs)
    interior = envelope[1:-1]
    raw_cand = np.nonzero((interior >= envelope[:-2]) & (interior > envelope[2:]))[0] + 1
    if raw_cand.size == 0:
        raise DetectionFailureError("no envelope peaks found")
    # One candidate per QRS: within any refractory window keep only the
    # tallest envelope maximum, so a leading shoulder cannot shadow the peak.
    order = raw_cand[np.argsort(envelope[raw_cand])[::-1]]
    kept = np.zeros(len(envelope), dtype=bool)
    cand = []
    for k in order:
        lo, hi = max(k - refractory + 1, 0), min(k + refractory, len(envelope))
        if not kept[lo:hi].any():
            kept[k] = True
            cand.append(int(k))
    cand.sort()

    head = envelope[: int(MIN_DETECT_S * fs)]
    spki = float(head.max())
    npki = float(head.mean()) * 0.5
    threshold = npki + 0.25 * (spki - npki)

    # Candidates lie a refractory floor apart and the searchback starts one
    # floor past the last beat, so no accepted pair breaks the floor.
    accepted: list[int] = []
    for k in cand:
        if envelope[k] > threshold:
            accepted.append(k)
            spki = 0.125 * envelope[k] + 0.875 * spki
        else:
            npki = 0.125 * envelope[k] + 0.875 * npki
        threshold = npki + 0.25 * (spki - npki)
        # Searchback: if no beat for 1.66x the running average R-R, take the
        # largest envelope peak in the gap at half threshold.
        if len(accepted) >= 2:
            mean_rr = (accepted[-1] - accepted[0]) / (len(accepted) - 1)
            if k - accepted[-1] > 1.66 * mean_rr:
                lo = accepted[-1] + refractory
                if lo < k:
                    back = lo + int(np.argmax(envelope[lo:k]))
                    if envelope[back] > 0.5 * threshold:
                        accepted.append(back)
                        spki = 0.125 * envelope[back] + 0.875 * spki

    if not accepted:
        raise DetectionFailureError("no envelope peak exceeded the adaptive threshold")

    half = int(round(0.05 * fs))
    located = []
    for k in accepted:
        lo = max(k - half, 0)
        hi = min(k + half + 1, len(signal))
        located.append(lo + int(np.argmax(signal.samples[lo:hi])))
    located = sorted(set(located))
    pruned: list[int] = []
    for k in located:
        if pruned and k - pruned[-1] < refractory:
            if signal.samples[k] > signal.samples[pruned[-1]]:
                pruned[-1] = k
        else:
            pruned.append(k)
    return RPeaks(np.asarray(pruned, dtype=np.int64))
