"""Comparison filters: model-based EKF, Savitzky-Golay, wavelet soft
thresholding, NLMS, RLS and exact 1-D total-variation denoising.

Parameter choices are explicit everywhere; nothing is tuned silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RPeaks, Signal, require_valid, wrap_centered, wrap_phase
from .enkf import FilterConfig, prepare_inputs
from .model import GaussianWaveParams


class ConditioningError(RuntimeError):
    """EKF covariance lost positive definiteness and could not be repaired."""


@dataclass(frozen=True)
class SgParams:
    window: int = 15
    polyorder: int = 3


@dataclass(frozen=True)
class WaveletParams:
    levels: int = 4


@dataclass(frozen=True)
class NlmsParams:
    taps: int = 16
    mu: float = 0.5


@dataclass(frozen=True)
class RlsParams:
    taps: int = 16
    forgetting: float = 0.999
    delta: float = 100.0


@dataclass(frozen=True)
class TvdParams:
    lam: float | None = None  # None: 0.2 * noise-std estimate from the finest wavelet details


# ---------------------------------------------------------------------------
# Extended Kalman filter on the beat model
# ---------------------------------------------------------------------------


def ekf_denoise(
    signal: Signal,
    r_peaks: RPeaks,
    params: GaussianWaveParams,
    cfg: FilterConfig = FilterConfig(),
) -> Signal:
    """Standard EKF recursion over the beat model with identity observation map.

    Uses the same wrap rules and noise-default resolution as the ensemble
    filter, so the two are directly comparable.  The 2x2 algebra is written
    out on Python floats: the state Jacobian is [[1, 0], [j, 1]] with j the
    phase derivative of the amplitude increment (model.wave_increment_dtheta),
    and the covariance [[a, c], [c, d]] stays symmetric.
    """
    phase, omega, cfg = prepare_inputs(signal, r_peaks, params, cfg)
    fs = signal.fs
    waves = [
        (center, alpha / (b * b), 1.0 / (b * b), 0.5 / (b * b))
        for alpha, b, center in zip(params.alpha.tolist(), params.b.tolist(), params.theta.tolist())
    ]

    # Phase noise enters before the nonlinearity (the increment is evaluated
    # at the perturbed phase), amplitude noise after, matching the ensemble
    # filter's transition semantics, including the activity-scaled eta std.
    q_theta2, r_phi2, r_s2 = cfg.q_theta**2, cfg.r_phi**2, cfg.r_s**2
    q_z, q_z_activity = cfg.q_z, cfg.q_z_activity
    x0, x1 = float(phase[0]), float(signal.samples[0])
    a, c, d = max(r_phi2, 1e-12), 0.0, max(r_s2, 1e-12)

    out = np.empty(len(signal))
    out_floats = memoryview(out)  # memoryviews read and write plain floats, without per-sample lists
    out_floats[0] = x1
    observed = zip(memoryview(omega)[1:], memoryview(phase)[1:], memoryview(signal.samples)[1:])
    for k, (w, y_phi, y_s) in enumerate(observed, start=1):
        step = w / fs
        dz = j = 0.0
        for center, alpha_b2, inv_b2, half_inv_b2 in waves:
            u = wrap_centered(x0 - center)
            g = alpha_b2 * step * math.exp(-u * u * half_inv_b2)
            dz -= g * u
            j -= g * (1.0 - u * u * inv_b2)
        x0 = wrap_phase(x0 + step)
        x1 += dz
        eta_std = q_z + q_z_activity * abs(dz) if q_z > 0 else 0.0
        # P <- F (P + Q_theta) F^T + diag(0, eta^2)
        a += q_theta2
        c_pred = j * a + c
        d = c_pred * j + (j * c + d) + eta_std * eta_std
        c = c_pred
        s00, s11 = a + r_phi2, d + r_s2
        det = s00 * s11 - c * c
        if not (math.isfinite(det) and det > 0):
            raise ConditioningError(f"innovation covariance not positive definite at sample {k}")
        # Gain K = P S^-1, then x += K (y - x) and P <- (I - K) P, symmetrized.
        i00, i01, i11 = s11 / det, -c / det, s00 / det
        k00, k01 = a * i00 + c * i01, a * i01 + c * i11
        k10, k11 = c * i00 + d * i01, c * i01 + d * i11
        e0 = wrap_centered(y_phi - x0)
        e1 = y_s - x1
        x0 = wrap_phase(x0 + (k00 * e0 + k01 * e1))
        x1 += k10 * e0 + k11 * e1
        a, c, d = (
            (1.0 - k00) * a - k01 * c,
            0.5 * (((1.0 - k00) * c - k01 * d) + ((1.0 - k11) * c - k10 * a)),
            (1.0 - k11) * d - k10 * c,
        )
        if a < 0 or d < 0:
            # One repair attempt: pull the covariance back to the PSD cone.
            bump = 1e-12 * (abs(a) + abs(d))
            a, d = a + bump, d + bump
            if a < 0 or d < 0:
                raise ConditioningError(f"covariance lost positive definiteness at sample {k}")
        out_floats[k] = x1
    return Signal(out, fs)


# ---------------------------------------------------------------------------
# Savitzky-Golay
# ---------------------------------------------------------------------------


def sg_filter(signal: Signal, window: int, polyorder: int) -> Signal:
    """Least-squares polynomial smoothing.

    Interior samples use the symmetric convolution kernel; samples within
    half a window of either edge are fit on the truncated asymmetric window
    (no zero padding), which preserves polynomial reproduction at the edges.
    """
    require_valid(signal)
    n = len(signal)
    if window % 2 == 0 or window < 1:
        raise ValueError("window must be odd and positive")
    if polyorder >= window:
        raise ValueError("polyorder must be less than window")
    if window > n:
        raise ValueError("window exceeds signal length")
    x = signal.samples
    if window == 1:
        return Signal(x.copy(), signal.fs)

    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    vand = np.vander(offsets, polyorder + 1, increasing=True)
    # Row of the projection matrix that evaluates the fit at offset 0.
    kernel = np.linalg.lstsq(vand.T @ vand, vand.T, rcond=None)[0][0]
    out = np.convolve(x, kernel[::-1], mode="same")

    for k in range(min(half, n)):
        seg = x[: k + half + 1]
        out[k] = _sg_edge_value(seg, np.arange(len(seg)) - k, polyorder)
    for k in range(max(n - half, 0), n):
        seg = x[k - half :]
        out[k] = _sg_edge_value(seg, np.arange(k - half, n) - k, polyorder)
    return Signal(out, signal.fs)


def _sg_edge_value(seg: np.ndarray, offsets: np.ndarray, polyorder: int) -> float:
    vand = np.vander(offsets.astype(np.float64), polyorder + 1, increasing=True)
    coef = np.linalg.lstsq(vand, seg, rcond=None)[0]
    return float(coef[0])


# ---------------------------------------------------------------------------
# Wavelet soft thresholding
# ---------------------------------------------------------------------------


def _daubechies_filter(n_moments: int = 4) -> np.ndarray:
    """Minimum-phase orthonormal Daubechies scaling filter with 2*n_moments taps.

    Built by spectral factorization of the maxflat half-band polynomial, so
    the coefficients carry full double precision rather than copied digits.
    """
    nm = n_moments
    k = np.arange(nm)
    from math import comb

    pc = np.array([comb(nm - 1 + j, j) for j in k], dtype=np.float64)
    # Roots of P(y), then map y -> z via y = (2 - z - 1/z)/4 and keep the
    # root of each pair inside the unit circle.
    yroots = np.roots(pc[::-1])
    zroots = []
    for y in yroots:
        c = np.array([1.0, -(2.0 - 4.0 * y), 1.0])
        r1, r2 = np.roots(c)
        zroots.append(r1 if abs(r1) < 1.0 else r2)
    poly = np.array([1.0], dtype=complex)
    for _ in range(nm):
        poly = np.convolve(poly, [1.0, 1.0])  # (1 + z)^nm
    for z in zroots:
        poly = np.convolve(poly, [1.0, -z])
    h = np.real(poly)
    return h * (np.sqrt(2.0) / h.sum())


_DB_H = _daubechies_filter(4)
_DB_G = np.array([(-1.0) ** v * _DB_H[len(_DB_H) - 1 - v] for v in range(len(_DB_H))])


def _dwt_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ln = len(_DB_H)
    ext = np.pad(x, (ln - 1, ln - 1), mode="symmetric")
    a = np.convolve(ext, _DB_H[::-1], mode="valid")[1::2]
    d = np.convolve(ext, _DB_G[::-1], mode="valid")[1::2]
    return a, d


def _idwt_step(a: np.ndarray, d: np.ndarray, out_len: int) -> np.ndarray:
    ln = len(_DB_H)
    ua = np.zeros(2 * len(a))
    ua[::2] = a
    ud = np.zeros(2 * len(d))
    ud[::2] = d
    rec = np.convolve(ua, _DB_H) + np.convolve(ud, _DB_G)
    return rec[ln - 2 : ln - 2 + out_len]


def wavedec(x: np.ndarray, levels: int) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """Multi-level DWT; returns (approximation, details fine->coarse, input lengths)."""
    details = []
    lengths = []
    a = x
    for _ in range(levels):
        lengths.append(len(a))
        a, d = _dwt_step(a)
        details.append(d)
    return a, details, lengths


def waverec(a: np.ndarray, details: list[np.ndarray], lengths: list[int]) -> np.ndarray:
    for d, ln in zip(reversed(details), reversed(lengths)):
        a = _idwt_step(a, d, ln)
    return a


def wavelet_denoise(
    signal: Signal,
    levels: int,
    threshold_rule: str = "universal",
    threshold: float | None = None,
) -> Signal:
    """Daubechies-4 decomposition, soft-threshold the details, reconstruct.

    The universal rule uses sigma*sqrt(2 ln n) with sigma estimated as
    median(|finest details|)/0.6745.
    """
    require_valid(signal)
    n = len(signal)
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if n < 2**levels:
        raise ValueError(f"signal of length {n} too short for {levels} levels")
    a, details, lengths = wavedec(signal.samples, levels)
    if threshold_rule == "universal":
        t = noise_sigma_estimate(signal) * np.sqrt(2.0 * np.log(n))
    elif threshold_rule == "fixed":
        if threshold is None:
            raise ValueError("fixed threshold rule requires a threshold value")
        t = float(threshold)
        if not t >= 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
    else:
        raise ValueError(f"unknown threshold rule: {threshold_rule!r}")
    shrunk = [np.sign(d) * np.maximum(np.abs(d) - t, 0.0) for d in details]
    return Signal(waverec(a, shrunk, lengths), signal.fs)


def noise_sigma_estimate(signal: Signal) -> float:
    """Robust noise-std estimate from the finest-scale detail coefficients."""
    _, d1 = _dwt_step(signal.samples)
    return float(np.median(np.abs(d1)) / 0.6745)


# ---------------------------------------------------------------------------
# Adaptive noise cancellation
# ---------------------------------------------------------------------------


def _check_batch(primaries, references, taps: int) -> None:
    for primary in primaries:
        require_valid(primary)
    n = len(primaries[0])
    if any(len(primary) != n for primary in primaries):
        raise ValueError("a lockstep batch needs one signal length")
    if len(references) != len(primaries) or any(len(ref) != n for ref in references):
        raise ValueError("reference must match the primary signal length")
    if taps < 1:
        raise ValueError("taps must be at least 1")


def _lockstep_arrays(primaries, references, taps: int):
    """The (n, B) stacked primaries, which the canceller overwrites with its
    output, and each row's reference window at every sample, newest sample
    first, as (n, B, 1, taps) row and (n, B, taps, 1) column views of one
    zero-padded (B, n + taps) buffer.

    The windows run backwards through memory, so numpy sums every dot product
    with them in its sequential loop, never BLAS: a row's arithmetic is the
    same for any batch size, and rows never mix.
    """
    n = len(primaries[0])
    out = np.empty((n, len(primaries)))
    padded = np.zeros((len(references), n + taps))
    for b, (primary, ref) in enumerate(zip(primaries, references)):
        out[:, b] = primary.samples
        padded[b, taps:] = ref.samples
    # Row b's window at sample k is padded[b, k + taps : k : -1].
    windows = np.lib.stride_tricks.sliding_window_view(padded, taps, axis=1)[:, 1:, ::-1].transpose(1, 0, 2)
    return out, windows[:, :, None, :], windows[:, :, :, None]


def _signals(out: np.ndarray, primaries) -> list[Signal]:
    # Called once the windows are freed, so they never coexist with the copies.
    return [Signal(out[:, b], primary.fs) for b, primary in enumerate(primaries)]


def nlms_batch(primaries: list[Signal], references: list[Signal], taps: int, mu: float) -> list[Signal]:
    """NLMS over equal-length (primary, reference) pairs in lockstep; row b
    equals a lone run of pair b bit for bit."""
    _check_batch(primaries, references, taps)
    if not 0.0 < mu < 2.0:
        raise ValueError(f"mu must lie in (0, 2), got {mu}")
    return _signals(_nlms_loop(*_lockstep_arrays(primaries, references, taps), mu), primaries)


def _nlms_loop(out: np.ndarray, rows: np.ndarray, cols: np.ndarray, mu: float) -> np.ndarray:
    # The step size mu / (eps + |window|^2) depends on the reference alone.
    steps = rows @ cols
    steps += 1e-8
    np.divide(mu, steps, out=steps)
    x, w = out.reshape(*out.shape, 1, 1), np.zeros(rows.shape[1:])
    # A lone run (the `denoise` path) drops the row axes, so its per-sample
    # values are numpy scalars, whose arithmetic costs far less than a ufunc call.
    if out.shape[1] == 1:
        x, rows, cols, steps, w = x[:, 0, 0, 0], rows[:, 0, 0], cols[:, 0, :, 0], steps[:, 0, 0, 0], w[0, 0]
    for k, (row, col, step) in enumerate(zip(rows, cols, steps)):
        e = x[k] - w @ col
        x[k] = e
        w += step * e * row
    return out


def nlms_denoise(primary: Signal, reference: Signal, taps: int, mu: float) -> Signal:
    """Normalized LMS canceller: subtract the adaptively filtered reference.

    The output is the residual e_k = primary_k - w . ref_window_k, which is
    the denoised signal when the reference correlates with the contamination
    and not with the ECG.
    """
    return nlms_batch([primary], [reference], taps, mu)[0]


def rls_batch(
    primaries: list[Signal], references: list[Signal], taps: int, forgetting: float, delta: float
) -> list[Signal]:
    """RLS over equal-length (primary, reference) pairs in lockstep; row b
    equals a lone run of pair b bit for bit."""
    _check_batch(primaries, references, taps)
    if not 0.0 < forgetting <= 1.0:
        raise ValueError(f"forgetting factor must lie in (0, 1], got {forgetting}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return _signals(_rls_loop(*_lockstep_arrays(primaries, references, taps), forgetting, delta), primaries)


def _rls_loop(out: np.ndarray, rows: np.ndarray, cols: np.ndarray, forgetting: float, delta: float) -> np.ndarray:
    b, _, taps = rows.shape[1:]
    w = np.zeros((b, taps, 1))
    p = np.zeros((b, taps, taps))
    p[:] = delta * np.eye(taps)
    for row, col, e in zip(rows, cols, out[:, :, None, None]):
        pw = p @ col
        gain = pw / (forgetting + row @ pw)
        e -= row @ w
        w += gain * e
        p -= gain * (row @ p)
        p /= forgetting
    return out


def rls_denoise(primary: Signal, reference: Signal, taps: int, forgetting: float, delta: float) -> Signal:
    """Recursive least squares canceller with the same topology as NLMS."""
    return rls_batch([primary], [reference], taps, forgetting, delta)[0]


# ---------------------------------------------------------------------------
# Total variation denoising (exact, Condat's direct algorithm)
# ---------------------------------------------------------------------------


def tvd_denoise(signal: Signal, lam: float) -> Signal:
    """Exact minimizer of 0.5*||y - x||^2 + lam * sum |x[k+1] - x[k]|.

    Computed by Condat's direct algorithm (IEEE SPL 20(11), 2013): one
    forward pass that grows the current segment while some constant value
    keeps the running sum of (y - x) inside [-lam, lam], and emits the
    segment when it cannot.  Non-iterative; optimality is checkable through
    the KKT conditions on that running sum.
    """
    require_valid(signal)
    if not lam >= 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    y = signal.samples
    if lam == 0.0 or len(y) == 1:
        return Signal(y.copy(), signal.fs)
    # The constant mean is optimal once lam bounds every partial sum of
    # (y - mean); this also keeps an infinite or overflowing lam out of the loop.
    mean = y.mean()
    if lam >= np.abs(np.cumsum(y - mean)).max():
        return Signal(np.full(len(y), mean), signal.fs)
    return Signal(np.array(_condat(y.tolist(), lam)), signal.fs)


def _condat(y: list[float], lam: float) -> list[float]:
    # Segment [k0, k] is open; x on it lies in [vmin, vmax].  umin and umax are
    # the running sums of (y - vmin) and (y - vmax), clipped at lam and -lam;
    # kminus and kplus are the last samples where those clips moved vmin and
    # vmax.  A sum leaving [-lam, lam] ends the segment at kminus or kplus with
    # a jump, and the scan restarts just after it.
    x: list[float] = []
    last = len(y) - 1
    k = k0 = kminus = kplus = 0
    umin, umax = lam, -lam
    vmin, vmax = y[0] - lam, y[0] + lam
    while True:
        while k < last:
            yk = y[k + 1]
            umin += yk - vmin
            if umin < -lam:  # vmin too high: negative jump after kminus
                x += [vmin] * (kminus + 1 - k0)
                k = k0 = kminus = kplus = kminus + 1
                vmin = y[k]
                vmax = vmin + 2.0 * lam
                umin, umax = lam, -lam
                continue
            umax += yk - vmax
            if umax > lam:  # vmax too low: positive jump after kplus
                x += [vmax] * (kplus + 1 - k0)
                k = k0 = kminus = kplus = kplus + 1
                vmax = y[k]
                vmin = vmax - 2.0 * lam
                umin, umax = lam, -lam
                continue
            k += 1
            if umin >= lam:
                kminus = k
                vmin += (umin - lam) / (k - k0 + 1)
                umin = lam
            if umax <= -lam:
                kplus = k
                vmax += (umax + lam) / (k - k0 + 1)
                umax = -lam
        # At the right end the running sum must close at 0.
        if umin < 0.0:
            x += [vmin] * (kminus + 1 - k0)
            k = k0 = kminus = kminus + 1
            vmin = y[k]
            umin, umax = lam, vmin + lam - vmax
        elif umax > 0.0:
            x += [vmax] * (kplus + 1 - k0)
            k = k0 = kplus = kplus + 1
            vmax = y[k]
            umin, umax = vmax - lam - vmin, -lam
        else:
            x += [vmin + umin / (k - k0 + 1)] * (len(y) - k0)
            return x
