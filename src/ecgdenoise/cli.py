"""Command-line front end: synth | fit | mix | denoise | bench.

Exit codes: 0 success, 1 computational failure, 2 usage or I/O error.
Dataset root comes from --data-root or the ECGDENOISE_DATA environment
variable; record arguments name WFDB records under that root, anything
ending in .csv is read as CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import baselines, bench, metrics, wfdbio
from .core import REFRACTORY_S, RPeaks, Signal, sample_count
from .model import (
    MIN_BINS,
    MIN_DETECT_S,
    FitDivergenceError,
    GaussianWaveParams,
    default_morphology,
    detect_r_peaks,
    detectable,
    fit_params,
    fit_residual_rms,
    mean_beat,
    observed_phase,
    synthesize,
)

DATA_ENV = "ECGDENOISE_DATA"


class UsageError(Exception):
    """Bad arguments or unreadable files; exits with status 2."""


def _data_root(args) -> Path:
    root = args.data_root or os.environ.get(DATA_ENV)
    if not root:
        raise UsageError(f"no dataset root: pass --data-root or set {DATA_ENV}")
    path = Path(root)
    if not path.is_dir():
        raise UsageError(f"dataset root {path} is not a directory")
    return path


def _load_input(args, name: str) -> tuple[Signal, RPeaks | None]:
    """Resolve an input argument: .csv path or WFDB record name."""
    if name.endswith(".csv"):
        path = Path(name)
        if not path.is_file():
            raise UsageError(f"input file {path} does not exist")
        return _read_csv(path, args.fs), None
    try:
        signal, peaks = bench.load_record(_data_root(args), name, args.channel)
    except FileNotFoundError as exc:
        raise UsageError(f"cannot read record {name!r}: {exc}") from None
    return signal, peaks if len(peaks) else None


def _read_csv(path: Path, fs: float) -> Signal:
    try:
        return wfdbio.read_csv(path.read_bytes(), fs=fs)
    except wfdbio.CsvParseError as exc:
        raise wfdbio.CsvParseError(f"{path}: {exc}") from None


def _write(path: Path, data: bytes | str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)


def _require(ok: bool, flag: str, value, rule: str) -> None:
    if not ok:
        raise UsageError(f"{flag} must be {rule}, got {value:g}")


# What each method setting must hold, by params field: its flag, the test on
# the parsed arguments, and the rule the error states.
_SETTINGS = {
    "window": ("--window", lambda a: a.window >= 1 and a.window % 2 == 1, "odd and positive"),
    "polyorder": ("--polyorder", lambda a: 0 <= a.polyorder < a.window, "non-negative and below --window"),
    "levels": ("--levels", lambda a: a.levels >= 1, "at least 1"),
    "taps": ("--taps", lambda a: a.taps >= 1, "at least 1"),
    "mu": ("--mu", lambda a: 0 < a.mu < 2, "in (0, 2)"),
    "forgetting": ("--forgetting", lambda a: 0 < a.forgetting <= 1, "in (0, 1]"),
    "delta": ("--delta", lambda a: a.delta > 0, "positive"),
    "lam": ("--lambda", lambda a: a.lam is None or a.lam >= 0, "non-negative"),
}

# The method settings an input of n samples bounds, by params field: the most
# the filter takes for n.
_LIMITS = {"window": baselines.max_window, "levels": baselines.max_levels}


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _load_params(path: str | None) -> GaussianWaveParams:
    if path is None:
        return default_morphology()
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"params file {p} does not exist")
    return GaussianWaveParams.from_dict(json.loads(p.read_text()))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    _require(args.beats >= 1, "--beats", args.beats, "at least 1")
    _require(0 < args.fs < math.inf, "--fs", args.fs, "finite and positive")
    _require(0 <= args.noise_std < math.inf, "--noise-std", args.noise_std, "finite and non-negative")
    if args.rr is not None:
        _require(REFRACTORY_S < args.rr < math.inf, "--rr", args.rr, f"finite and above {REFRACTORY_S:g} s")
        rr = [args.rr] * args.beats
    else:  # R-R intervals drawn around 0.85 s (about 70 bpm)
        rr = np.clip(np.random.default_rng(args.seed).normal(0.85, 0.04, size=args.beats), 0.3, 3.0).tolist()
    seconds = float(np.sum(rr))  # the length synthesize rounds to samples
    _require(sample_count(seconds, args.fs) > 0, "--fs", args.fs, f"high enough for {seconds:g} s to hold a sample")
    params = _load_params(args.params)
    signal, phase, peaks = synthesize(params, rr, fs=args.fs, noise_std=args.noise_std, seed=args.seed)
    out = Path(args.out_dir)
    _write(out / "signal.csv", wfdbio.write_csv(signal))
    _write(out / "phase.csv", wfdbio.format_rows(phase, head=b"phase_rad\n"))
    _write(out / "peaks.csv", "sample\n" + "\n".join(str(int(i)) for i in peaks.indices) + "\n")
    print(
        f"synthesized {len(signal)} samples at {args.fs:g} Hz: {len(peaks)} beats, "
        f"p2p {float(signal.samples.max() - signal.samples.min()):.4g} mV -> {out}/"
    )
    return 0


def cmd_fit(args) -> int:
    if args.seconds is not None:
        _require(0 < args.seconds < math.inf, "--seconds", args.seconds, "finite and positive")
    _require(args.bins >= MIN_BINS, "--bins", args.bins, f"at least {MIN_BINS}")
    signal, peaks = _load_input(args, args.input)
    if args.seconds is not None:
        signal, peaks = bench.trim(signal, RPeaks([]) if peaks is None else peaks, args.seconds)
        _require(len(signal) > 0, "--seconds", args.seconds, f"long enough to keep a sample at {signal.fs:g} Hz")
    if peaks is None or len(peaks) < 2:
        if args.seconds is not None:
            enough = detectable(sample_count(args.seconds, signal.fs), signal.fs)
            _require(enough, "--seconds", args.seconds, f"at least {MIN_DETECT_S:g} s to detect R peaks")
        peaks = detect_r_peaks(signal)
    if len(peaks) < 10:
        print(f"error: need at least 10 beats to fit, found {len(peaks)}", file=sys.stderr)
        return 1
    phase = observed_phase(peaks, len(signal))
    template = mean_beat(signal, phase, n_bins=args.bins)
    trace: list = []
    try:
        fitted = fit_params(template, objective_trace=trace)
    except FitDivergenceError as exc:
        trace_path = Path(args.out or "fit").with_suffix(".trace.txt")
        _write(trace_path, wfdbio.format_rows(trace) or b"\n")  # an empty trace is one empty line
        print(f"error: {exc}; objective trace written to {trace_path}", file=sys.stderr)
        return 1
    doc = json.dumps(fitted.to_dict(), indent=2)
    if args.out:
        _write(Path(args.out), doc + "\n")
    else:
        print(doc)
    rms = fit_residual_rms(template, fitted)
    r_amp = float(np.max(np.abs(template.mean)))
    print(
        f"fit over {len(peaks)} beats, {args.bins} bins: residual rms {rms:.5g} mV "
        f"({100 * rms / r_amp:.1f}% of peak template amplitude)"
    )
    return 0


def cmd_mix(args) -> int:
    _require(math.isfinite(args.level), "--level", args.level, "finite")
    clean, _ = _load_input(args, args.clean)
    noise, _ = _load_input(args, args.noise)
    mixed = metrics.mix(clean, noise, args.level)
    out = Path(args.out_dir)
    _write(out / "noisy.csv", wfdbio.write_csv(mixed.noisy))
    _write(out / "reference.csv", wfdbio.write_csv(mixed.scaled_noise))
    if args.check:
        measured = metrics.snr(mixed.clean, mixed.noisy)
        print(f"measured SNR {measured:.6f} dB (target {args.level:g} dB), gain {mixed.gain:.6g}")
    else:
        print(f"mixed at {args.level:g} dB -> {out}/noisy.csv, {out}/reference.csv")
    return 0


def cmd_denoise(args) -> int:
    signal, peaks = _load_input(args, args.input)
    method = bench.METHODS[args.method]
    reference = morphology = params = None
    if method.needs_reference:
        if not args.reference:
            raise UsageError(f"--method {args.method} requires --reference (the noise channel)")
        reference = _read_csv(Path(args.reference), signal.fs)
    if method.params is None:  # the model-based filters
        _require(args.n_ensemble >= 2, "--n-ensemble", args.n_ensemble, "at least 2 for a sample covariance")
        morphology = _load_params(args.params) if args.params else None
    else:
        for f in fields(method.params):
            flag, ok, rule = _SETTINGS[f.name]
            value = getattr(args, f.name)
            _require(ok(args), flag, value, rule)
            if f.name in _LIMITS:
                limit = _LIMITS[f.name](len(signal))
                _require(value <= limit, flag, value, f"at most {limit} for {len(signal)} samples")
        params = method.params(**{f.name: getattr(args, f.name) for f in fields(method.params)})
    ctx = bench.MethodContext(reference, peaks, morphology, args.seed, args.n_ensemble)
    denoised = bench.run_method(args.method, signal, ctx, params)

    _write(Path(args.out), wfdbio.write_csv(denoised))
    if args.clean:
        clean, _ = _load_input(args, args.clean)
        rep = metrics.report(clean, signal, denoised)
        print(
            f"snr_in {rep.snr_in:.4f} dB, snr_out {rep.snr_out:.4f} dB, "
            f"improvement {rep.snr_improvement:.4f} dB, rmse {rep.rmse:.6g} mV, "
            f"prd {rep.prd:.4f}%, corr {rep.corr:.6f}"
        )
    else:
        print(f"denoised {len(signal)} samples with {args.method} -> {args.out}")
    return 0


def cmd_bench(args) -> int:
    try:
        plan = bench.BenchPlan(
            records=tuple(args.records.split(",")),
            methods=tuple(args.methods.split(",")) if args.methods else tuple(bench.METHODS),
            snr_levels=tuple(float(v) for v in args.levels.split(",")) if args.levels else bench.DEFAULT_LEVELS,
            channel=args.channel,
            noise=args.noise,
            seed=args.seed,
            duration_s=args.duration,
            n_ensemble=args.n_ensemble,
        )
    except ValueError as exc:
        raise UsageError(exc) from None
    _require(args.jobs >= 1, "--jobs", args.jobs, "at least 1")
    t0 = time.perf_counter()
    cells = bench.run_bench(plan, _data_root(args), args.jobs)
    wall = time.perf_counter() - t0
    out = Path(args.out_dir)
    _write(out / "bench.csv", bench.table_csv(cells, plan))
    for name, svg in bench.render_plots(cells, plan).items():
        _write(out / f"{name}.svg", svg)
    failed = [c for c in cells if c.report is None]
    cell_time = sum(c.wall_time for c in cells)
    print(
        f"{len(cells)} cells ({len(failed)} failed) in {wall:.1f} s wall with --jobs {args.jobs} "
        f"({cell_time:.1f} s of cell time) -> {out}/bench.csv",
        file=sys.stderr,
    )
    for c in failed:
        print(f"  failed: {c.record_id}/{c.method}@{c.input_snr:g}dB: {c.error}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgdenoise",
        description="ECG denoising with an ensemble Kalman filter, classical baselines, "
        "and a calibrated noise-stress benchmark.",
    )
    parser.add_argument("--data-root", help=f"dataset directory (default: ${DATA_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ECG from the beat model")
    p.add_argument("--params", help="morphology JSON (default: built-in)")
    p.add_argument("--out-dir", default="synth_out")
    p.add_argument("--beats", type=int, default=30)
    p.add_argument("--rr", type=float, help="constant R-R interval in seconds")
    p.add_argument("--fs", type=float, default=360.0)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit the Gaussian-wave morphology of a record")
    p.add_argument("input", help="record name or .csv path")
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--fs", type=float, default=360.0, help="sampling rate for CSV input")
    p.add_argument("--seconds", type=float, help="use only the first S seconds")
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--out", help="write params JSON here instead of stdout")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mix", help="contaminate a clean record at a calibrated SNR")
    p.add_argument("clean", help="record name or .csv path")
    p.add_argument("noise", help="noise record name or .csv path")
    p.add_argument("--level", type=float, required=True, help="target SNR in dB")
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--fs", type=float, default=360.0)
    p.add_argument("--out-dir", default="mix_out")
    p.add_argument("--check", action="store_true", help="print the measured SNR of the mix")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("denoise", help="denoise one input with one method")
    p.add_argument("input", help="record name or .csv path")
    p.add_argument("--method", required=True, choices=bench.METHODS)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--fs", type=float, default=360.0)
    p.add_argument("--out", default="denoised.csv")
    p.add_argument("--clean", help="clean reference (record or csv); prints metrics")
    p.add_argument("--reference", help="noise reference csv for nlms/rls")
    p.add_argument("--params", help="morphology JSON for enkf/ekf")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-ensemble", type=int, default=100)
    # Method settings: each dest is a params-dataclass field, defaults from the dataclasses.
    p.add_argument("--window", type=int, default=baselines.SgParams.window)
    p.add_argument("--polyorder", type=int, default=baselines.SgParams.polyorder)
    p.add_argument("--levels", type=int, default=baselines.WaveletParams.levels, help="wavelet decomposition levels")
    p.add_argument("--taps", type=int, default=baselines.NlmsParams.taps)  # shared with RlsParams.taps
    p.add_argument("--mu", type=float, default=baselines.NlmsParams.mu)
    p.add_argument("--forgetting", type=float, default=baselines.RlsParams.forgetting)
    p.add_argument("--delta", type=float, default=baselines.RlsParams.delta)
    p.add_argument("--lambda", dest="lam", type=float, default=baselines.TvdParams.lam, help="TV regularization")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("bench", help="run the records x methods x levels benchmark")
    p.add_argument("--records", required=True, help="comma-separated record names")
    p.add_argument("--methods", help=f"comma-separated subset of {','.join(bench.METHODS)}")
    p.add_argument("--levels", help="comma-separated SNR levels in dB")
    p.add_argument("--noise", default="em", help="noise record name or .csv path")
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=60.0, help="seconds per record")
    p.add_argument("--n-ensemble", type=int, default=100)
    p.add_argument("--out-dir", default="bench_out")
    p.add_argument("--jobs", type=int, default=_usable_cpus(), help="processes running work units (default: CPUs)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        UsageError,
        FileNotFoundError,
        PermissionError,
        wfdbio.HeaderParseError,
        wfdbio.CsvParseError,
        wfdbio.AnnotationParseError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
