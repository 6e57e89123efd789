"""Comparison filters: model-based EKF, Savitzky-Golay, wavelet soft
thresholding, NLMS, RLS and exact 1-D total-variation denoising.

Parameter choices are explicit everywhere; nothing is tuned silently.  The
benchmark's default settings for each filter are in bench.METHODS.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RPeaks, SettingError, Signal, paired, wrap_centered, wrap_phase
from .enkf import FilterConfig, prepare_inputs
from .model import GaussianWaveParams


class ConditioningError(RuntimeError):
    """A recursion left its defined range: an EKF covariance lost positive
    definiteness beyond repair, or an RLS block has no Cholesky factor or overflows."""


# ---------------------------------------------------------------------------
# Extended Kalman filter on the beat model
# ---------------------------------------------------------------------------


def ekf_denoise(
    signal: Signal,
    r_peaks: RPeaks,
    params: GaussianWaveParams | None,
    cfg: FilterConfig = FilterConfig(),
) -> Signal:
    """Standard EKF recursion over the beat model with identity observation map.

    Takes its R peaks, morphology (fitted when params is None), beat clock
    and noise levels from the ensemble filter's front end,
    :func:`ecgdenoise.enkf.prepare_inputs`, and uses its wrap rules, so the
    two are directly comparable.  The 2x2 algebra is written out on Python
    floats: the state Jacobian is [[1, 0], [j, 1]] with j the phase
    derivative of the amplitude increment, and the covariance [[a, c],
    [c, d]] stays symmetric.
    """
    phase, omega, params, cfg = prepare_inputs(signal, r_peaks, params, cfg)
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
    n = len(signal)
    if window % 2 == 0 or window < 1:
        raise SettingError("window", "odd and positive", window)
    if not 0 <= polyorder < window:
        raise SettingError("polyorder", f"non-negative and below the window of {window}", polyorder)
    if window > n:
        raise SettingError("window", f"at most {n} for {n} samples", window)
    x = signal.samples
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    vand = np.vander(offsets, polyorder + 1, increasing=True)
    # Row of the projection matrix that evaluates the fit at offset 0.
    kernel = np.linalg.lstsq(vand.T @ vand, vand.T, rcond=None)[0][0]
    out = np.convolve(x, kernel[::-1], mode="same")

    for k in range(half):
        seg = x[: k + half + 1]
        out[k] = _sg_edge_value(seg, np.arange(len(seg)) - k, polyorder)
    for k in range(n - half, n):
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


# Daubechies-4 (db4) scaling filter, minimum phase, orthonormal (sum sqrt(2)):
# the spectral factor of the maxflat half-band polynomial with four vanishing
# moments (Daubechies, CPAM 41(7), 1988), each tap the repr of its float64.
_DB_H = np.array([
    0.23037781330889642, 0.7148465705529156, 0.6308807679298589, -0.027983769416859483,
    -0.187034811719093, 0.030841381835560643, 0.03288301166688516, -0.010597401785069016,
])  # fmt: skip
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


def max_levels(n: int) -> int:
    """Most levels wavelet_denoise takes for n samples: each halves the signal."""
    return n.bit_length() - 1


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


def wavelet_denoise(signal: Signal, levels: int, threshold: float | None = None) -> Signal:
    """Daubechies-4 decomposition, soft-threshold the details, reconstruct.

    threshold None means the universal rule, sigma*sqrt(2 ln n) with sigma
    estimated as median(|finest details|)/0.6745 (noise_sigma_estimate).
    """
    n = len(signal)
    if levels < 1:
        raise SettingError("levels", "at least 1", levels)
    if levels > max_levels(n):
        raise SettingError("levels", f"at most {max_levels(n)} for {n} samples", levels)
    a, details, lengths = wavedec(signal.samples, levels)
    t = noise_sigma_estimate(signal) * np.sqrt(2.0 * np.log(n)) if threshold is None else float(threshold)
    if not t >= 0:
        raise SettingError("threshold", "non-negative", t)
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
    n = len(primaries[0])
    if any(len(primary) != n for primary in primaries):
        raise ValueError("a lockstep batch needs one signal length")
    if len(references) != len(primaries):
        raise ValueError(f"reference must match each primary: {len(references)} for {len(primaries)}")
    for primary, ref in zip(primaries, references):
        paired(primary, ref, "reference")
    if taps < 1:
        raise SettingError("taps", "at least 1", taps)


def _signals(out: np.ndarray, primaries) -> list[Signal]:
    # Called once the windows are freed, so they never coexist with the copies.
    return [Signal(row[: len(primary)], primary.fs) for row, primary in zip(out, primaries)]


# Samples per block of both cancellers, which step only from block to block.
CANCELLER_BLOCK = 16
# Bytes of the NLMS kernel's per-chunk arrays, summed over every row of a
# unit; a chunk holds at least one block per row.
NLMS_CHUNK_BYTES = 1 << 19


def _block_arrays(primaries, references, taps: int):
    """The cancellers' front end: a (B, n padded to whole blocks) output holding
    the primaries until the errors overwrite them, also as (blocks, B, L, 1)
    columns (L = CANCELLER_BLOCK), and the windows, newest first, as (blocks, B,
    L, taps) views of one zero-padded buffer.  Padding comes last: no output."""
    rows, n, size = len(primaries), len(primaries[0]), CANCELLER_BLOCK
    blocks = -(-n // size)
    out = np.zeros((rows, blocks * size))
    padded = np.zeros((rows, blocks * size + taps))
    for b, (primary, ref) in enumerate(zip(primaries, references)):
        out[b, :n] = primary.samples
        padded[b, taps : taps + n] = ref.samples
    # windows[q, b, j] is row b's reference window at sample q * size + j.
    windows = np.lib.stride_tricks.sliding_window_view(padded, taps, axis=1)[:, 1:, ::-1]
    windows = windows.reshape(rows, blocks, size, taps).swapaxes(0, 1)
    return out, out.reshape(rows, blocks, size, 1).swapaxes(0, 1), windows


def _substitute(neg_lower: np.ndarray, z: np.ndarray, row: np.ndarray) -> None:
    """In place z <- L^-1 z, L = I - strict_lower(neg_lower); row is scratch."""
    for j in range(1, z.shape[-2]):
        np.matmul(neg_lower[..., j : j + 1, :j], z[..., :j, :], out=row)
        z[..., j : j + 1, :] += row


def nlms_batch(primaries: list[Signal], references: list[Signal], taps: int, mu: float) -> list[Signal]:
    """NLMS over equal-length (primary, reference) pairs in lockstep; row b
    equals a lone run of pair b bit for bit."""
    _check_batch(primaries, references, taps)
    if not 0.0 < mu < 2.0:
        raise SettingError("mu", "in (0, 2)", mu)
    return _signals(_nlms_blocks(primaries, references, taps, mu), primaries)


def _nlms_blocks(primaries, references, taps: int, mu: float) -> np.ndarray:
    """The NLMS errors by the exact block form of the per-sample recursion
    (Benesty & Duhamel, IEEE TSP 40(12), 1992).  With x_j the window at a
    block's sample j, s_j = mu / (1e-8 + |x_j|^2) and w the weights at the
    block's start, e_j = y_j - x_j.w - sum_{i<j} s_i (x_j.x_i) e_i, a unit
    lower-triangular system: substitution on [y | X] gives [c | H], e = c - H w,
    and the next block starts at F w + g, F = I - (sX)^T H, g = (sX)^T c.
    Chunks of blocks keep their arrays within NLMS_CHUNK_BYTES per unit.  Each
    product takes one row's block, in shapes that depend on neither the batch
    nor the chunk, so a row's arithmetic is the same in any batch.
    """
    out, errors, windows = _block_arrays(primaries, references, taps)
    blocks, rows, size = windows.shape[:3]

    # Per block and row: z = [y | X], solved into [c | H]; xt = X^T, scaled
    # into -(sX)^T; gram = X X^T, scaled into -T (the signs round the same);
    # a = [[1, 0], [-g, F]] maps v = [1; -w] to the next block's, e = z v.
    # Blocks lead, so each sequential step reads contiguous arrays.
    per_block = 8 * (size * (taps + 1) + taps * size + size * size + (taps + 1) ** 2 + 2 * (taps + 1) + size)
    chunk = min(blocks, max(1, NLMS_CHUNK_BYTES // (rows * per_block)))
    z = np.empty((chunk, rows, size, taps + 1))
    xt = np.empty((chunk, rows, taps, size))
    gram = np.empty((chunk, rows, size, size))
    a = np.zeros((chunk, rows, taps + 1, taps + 1))
    a[..., 0, 0] = 1.0
    v = np.zeros((chunk + 1, rows, taps + 1, 1))
    v[0, :, 0] = 1.0
    steps = np.empty((chunk, rows, 1, size))
    row_term = np.empty((chunk, rows, 1, taps + 1))
    for q0 in range(0, blocks, chunk):
        c = min(chunk, blocks - q0)
        zc, xc, gc, ac, sc = z[:c], xt[:c], gram[:c], a[:c], steps[:c]
        zc[..., 0] = errors[q0 : q0 + c, ..., 0]
        zc[..., 1:] = windows[q0 : q0 + c]
        xc[...] = windows[q0 : q0 + c].swapaxes(-1, -2)
        np.matmul(zc[..., 1:], xc, out=gc)
        np.add(gc.reshape(c, rows, size * size)[..., :: size + 1], 1e-8, out=sc[..., 0, :])
        np.divide(-mu, sc, out=sc)
        gc *= sc
        _substitute(gc, zc, row_term[:c])
        xc *= sc
        np.matmul(xc, zc, out=ac[..., 1:, :])
        ac.reshape(c, rows, (taps + 1) ** 2)[..., taps + 2 :: taps + 2] += 1.0  # F = I - (sX)^T H
        for aq, vq, vn in zip(ac, v[:c], v[1 : c + 1]):
            np.matmul(aq, vq, out=vn)
        np.matmul(zc, v[:c], out=errors[q0 : q0 + c])
        v[0] = v[c]
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
        raise SettingError("forgetting", "in (0, 1]", forgetting)
    if not 0 < delta < math.inf:
        raise SettingError("delta", "finite and positive", delta)
    return _signals(_rls_blocks(primaries, references, taps, forgetting, delta), primaries)


def _rls_blocks(primaries, references, taps: int, forgetting: float, delta: float) -> np.ndarray:
    """The RLS errors by the exact block form of the per-sample recursion, a
    Kalman filter on a static state (Sayed & Kailath, IEEE SPM 11(3), 1994).
    With M = P and w at a block's start, its errors are the innovations of
    y = X w + v, var(v_j) = lam^(j+1), with covariance S = X M X^T + diag(lam,
    ..., lam^L) = L D L^T, L unit lower-triangular: substitution on [y | X | X M]
    gives [c | H | H M], e = c - H w, and the next block starts at w + M H^T
    D^-1 e and lam^-L (M - M H^T D^-1 H M), symmetrized.  A zero reference
    gives L = I, so e = y exactly.  Each product and Cholesky factor takes one
    row's block, so a row's arithmetic is the same in any batch.
    """
    out, errors, windows = _block_arrays(primaries, references, taps)
    blocks, rows, size = windows.shape[:3]
    v = np.zeros((rows, taps + 1, 1))  # [1; -w], so that e = z v
    v[:, 0] = 1.0
    m = np.repeat(delta * np.eye(taps)[None], rows, axis=0)
    z = np.empty((rows, size, 2 * taps + 1))
    x, xm = z[..., 1 : taps + 1], z[..., taps + 1 :]
    s, neg_lower = np.empty((rows, size, size)), np.empty((rows, size, size))
    gain, row = np.empty((rows, taps, size)), np.empty((rows, 1, 2 * taps + 1))
    variances = forgetting ** np.arange(1.0, size + 1)
    q = 0
    try:
        grow = 0.5 * forgetting**-size
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for q in range(blocks):
                z[..., :1] = errors[q]
                x[...] = windows[q]
                np.matmul(x, m, out=xm)
                np.matmul(xm, x.swapaxes(-1, -2), out=s)
                s.reshape(rows, size * size)[:, :: size + 1] += variances
                chol = np.linalg.cholesky(s)
                d = chol.diagonal(0, -2, -1)
                np.divide(chol, -d[:, None, :], out=neg_lower)
                _substitute(neg_lower, z, row)
                np.matmul(z[..., : taps + 1], v, out=errors[q])
                np.divide(xm.swapaxes(-1, -2), (d * d)[:, None, :], out=gain)  # M H^T D^-1
                v[:, 1:] -= gain @ errors[q]
                m -= gain @ xm
                m += m.swapaxes(-1, -2)
                m *= grow
    except (OverflowError, FloatingPointError):
        failure = "recursion overflows"
    except np.linalg.LinAlgError:
        failure = "innovation covariance not positive definite"
    else:
        return out
    raise ConditioningError(f"rls {failure} in the block from sample {q * size}")


def rls_denoise(primary: Signal, reference: Signal, taps: int, forgetting: float, delta: float) -> Signal:
    """Recursive least squares canceller with the same topology as NLMS."""
    return rls_batch([primary], [reference], taps, forgetting, delta)[0]


# ---------------------------------------------------------------------------
# Total variation denoising (exact, Condat's direct algorithm)
# ---------------------------------------------------------------------------


def tvd_denoise(signal: Signal, lam: float | None) -> Signal:
    """Exact minimizer of 0.5*||y - x||^2 + lam * sum |x[k+1] - x[k]|; lam
    None means 0.2 times the noise-std estimate (noise_sigma_estimate).

    Computed by Condat's direct algorithm (IEEE SPL 20(11), 2013): one
    forward pass that grows the current segment while some constant value
    keeps the running sum of (y - x) inside [-lam, lam], and emits the
    segment when it cannot.  Non-iterative; optimality is checkable through
    the KKT conditions on that running sum.
    """
    if lam is None:
        lam = 0.2 * noise_sigma_estimate(signal)
    if not lam >= 0:
        raise SettingError("lam", "non-negative", lam)
    y = signal.samples
    if lam == 0.0:
        return Signal(y, signal.fs)
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
