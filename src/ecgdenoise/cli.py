"""Command-line front end: synth | fit | mix | denoise | bench.

Exit codes: 0 success, 1 computational failure, 2 usage or I/O error.
Dataset root comes from --data-root or the ECGDENOISE_DATA environment
variable; record arguments name WFDB records under that root, anything
ending in .csv is read as CSV.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bench, enkf, metrics, model, wfdbio
from .core import RPeaks, SettingError, Signal, sample_count
from .model import (
    MIN_DETECT_S,
    FitDivergenceError,
    GaussianWaveParams,
    default_morphology,
    defines_phase,
    detectable,
    fit_params,
    fit_residual_rms,
    mean_beat,
    observed_phase,
    phase_peaks,
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


def _load_input(args, name: str) -> tuple[Signal, RPeaks]:
    """Resolve an input argument: .csv path (no R peaks) or WFDB record name."""
    if name.endswith(".csv"):
        path = Path(name)
        if not path.is_file():
            raise UsageError(f"input file {path} does not exist")
        return _read_csv(path, args.fs), RPeaks([])
    try:
        return bench.load_record(_data_root(args), name, args.channel)
    except FileNotFoundError as exc:
        raise UsageError(f"cannot read record {name!r}: {exc}") from None


def _read_csv(path: Path, fs: float) -> Signal:
    return wfdbio.read_named_csv(path.read_bytes(), fs, str(path))


def _write(path: Path, data: bytes | str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)


def _require(ok: bool, flag: str, value, rule: str) -> None:
    if not ok:
        raise UsageError(f"{flag} must be {rule}, got {value:g}")


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
    try:  # broken JSON, a missing key, a wrong shape or an invalid morphology
        return GaussianWaveParams.from_dict(json.loads(p.read_text()))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"params file {p}: {type(exc).__name__}: {exc}") from None


def _default(function, name: str):
    """The default value of one of a library function's parameters."""
    return inspect.signature(function).parameters[name].default


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    _require(args.beats >= 1, "--beats", args.beats, "at least 1")
    if args.rr_intervals is not None:
        rr = [args.rr_intervals] * args.beats
    else:  # R-R intervals drawn around 0.85 s (about 70 bpm)
        rr = np.clip(np.random.default_rng(args.seed).normal(0.85, 0.04, size=args.beats), 0.3, 3.0).tolist()
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
    signal, peaks = _load_input(args, args.input)
    if args.seconds is not None:
        signal, peaks = bench.trim(signal, peaks, args.seconds)
        _require(len(signal) > 0, "--seconds", args.seconds, f"long enough to keep a sample at {signal.fs:g} Hz")
        if not defines_phase(peaks):  # so phase_peaks detects them
            enough = detectable(sample_count(args.seconds, signal.fs), signal.fs)
            _require(enough, "--seconds", args.seconds, f"at least {MIN_DETECT_S:g} s to detect R peaks")
    peaks = phase_peaks(signal, peaks)
    if len(peaks) < 10:
        print(f"error: need at least 10 beats to fit, found {len(peaks)}", file=sys.stderr)
        return 1
    phase = observed_phase(peaks, len(signal))
    template = mean_beat(signal, phase, n_bins=args.n_bins)
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
        f"fit over {len(peaks)} beats, {args.n_bins} bins: residual rms {rms:.5g} mV "
        f"({100 * rms / r_amp:.1f}% of peak template amplitude)"
    )
    return 0


def cmd_mix(args) -> int:
    clean, _ = _load_input(args, args.clean)
    noise, _ = _load_input(args, args.noise)
    mixed = metrics.mix(clean, noise, args.target_snr_db)
    out = Path(args.out_dir)
    _write(out / "noisy.csv", wfdbio.write_csv(mixed.noisy))
    _write(out / "reference.csv", wfdbio.write_csv(mixed.scaled_noise))
    if args.check:
        measured = metrics.snr(mixed.clean, mixed.noisy)
        print(f"measured SNR {measured:.6f} dB (target {args.target_snr_db:g} dB), gain {mixed.gain:.6g}")
    else:
        print(f"mixed at {args.target_snr_db:g} dB -> {out}/noisy.csv, {out}/reference.csv")
    return 0


def cmd_denoise(args) -> int:
    signal, peaks = _load_input(args, args.input)
    method = bench.METHODS[args.method]
    reference = morphology = None
    if method.needs_reference:
        if not args.reference:
            raise UsageError(f"--method {args.method} requires --reference (the noise channel)")
        reference = _read_csv(Path(args.reference), signal.fs)
    if not method.params and args.params:  # the model-based filters take a morphology, no settings
        morphology = _load_params(args.params)
    ctx = bench.MethodContext(reference, peaks, morphology, args.seed, args.n_ensemble)
    settings = {name: getattr(args, name) for name in method.params}  # each setting's flag has its name as dest
    denoised = bench.run_method(args.method, signal, ctx, settings)

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
        lists = {
            "methods": args.methods and tuple(args.methods.split(",")),
            "snr_levels": args.snr_levels and tuple(float(v) for v in args.snr_levels.split(",")),
        }
        plan = bench.BenchPlan(
            records=tuple(args.records.split(",")),
            channel=args.channel,
            noise=args.noise,
            seed=args.seed,
            duration_s=args.duration_s,
            n_ensemble=args.n_ensemble,
            **{name: v for name, v in lists.items() if v},  # an empty or absent list: the plan's default
        )
    except SettingError:
        raise
    except ValueError as exc:  # an unreadable level, an empty list or an unknown method
        raise UsageError(exc) from None
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

    # The input flags of fit, mix and denoise, declared once.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--channel", type=int, default=bench.BenchPlan.channel)
    fs = inputs.add_argument("--fs", type=float, default=360.0, help="sampling rate for CSV input")

    # synth's and fit's library defaults are read from model's own functions, which no name rebound here shadows.
    p = sub.add_parser("synth", help="generate a synthetic ECG from the beat model")
    p.add_argument("--params", help="morphology JSON (default: built-in)")
    p.add_argument("--out-dir", default="synth_out")
    p.add_argument("--beats", type=int, default=30)
    p.add_argument("--rr", dest="rr_intervals", type=float, help="constant R-R interval in seconds")
    p.add_argument("--fs", type=float, default=fs.default)
    p.add_argument("--noise-std", type=float, default=_default(model.synthesize, "noise_std"))
    p.add_argument("--seed", type=int, default=_default(model.synthesize, "seed"))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", parents=[inputs], help="fit the Gaussian-wave morphology of a record")
    p.add_argument("input", help="record name or .csv path")
    p.add_argument("--seconds", type=float, help="use only the first S seconds")
    p.add_argument("--bins", dest="n_bins", type=int, default=_default(model.mean_beat, "n_bins"))
    p.add_argument("--out", help="write params JSON here instead of stdout")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mix", parents=[inputs], help="contaminate a clean record at a calibrated SNR")
    p.add_argument("clean", help="record name or .csv path")
    p.add_argument("noise", help="noise record name or .csv path")
    p.add_argument("--level", dest="target_snr_db", type=float, required=True, help="target SNR in dB")
    p.add_argument("--out-dir", default="mix_out")
    p.add_argument("--check", action="store_true", help="print the measured SNR of the mix")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("denoise", parents=[inputs], help="denoise one input with one method")
    p.add_argument("input", help="record name or .csv path")
    p.add_argument("--method", required=True, choices=bench.METHODS)
    p.add_argument("--out", default="denoised.csv")
    p.add_argument("--clean", help="clean reference (record or csv); prints metrics")
    p.add_argument("--reference", help="noise reference csv for nlms/rls")
    p.add_argument("--params", help="morphology JSON for enkf/ekf")
    p.add_argument("--seed", type=int, default=enkf.FilterConfig.seed)
    p.add_argument("--n-ensemble", type=int, default=enkf.FilterConfig.n_ensemble)
    # Method settings: each dest is a filter keyword, each default its METHODS
    # entry's (--taps is one flag, so nlms and rls share one default).
    defaults = {name: v for m in bench.METHODS.values() for name, v in m.params.items()}
    p.add_argument("--window", type=int, default=defaults["window"])
    p.add_argument("--polyorder", type=int, default=defaults["polyorder"])
    p.add_argument("--levels", type=int, default=defaults["levels"], help="wavelet decomposition levels")
    p.add_argument("--taps", type=int, default=defaults["taps"])
    p.add_argument("--mu", type=float, default=defaults["mu"])
    p.add_argument("--forgetting", type=float, default=defaults["forgetting"])
    p.add_argument("--delta", type=float, default=defaults["delta"])
    p.add_argument("--lambda", dest="lam", type=float, default=defaults["lam"], help="TV regularization")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("bench", help="run the records x methods x levels benchmark")
    p.add_argument("--records", required=True, help="comma-separated record names")
    p.add_argument("--methods", help=f"comma-separated subset of {','.join(bench.METHODS)}")
    p.add_argument("--levels", dest="snr_levels", help="comma-separated SNR levels in dB")
    plan = bench.BenchPlan  # its fields' defaults are the flags'
    p.add_argument("--noise", default=plan.noise, help="noise record name or .csv path")
    p.add_argument("--channel", type=int, default=plan.channel)
    p.add_argument("--seed", type=int, default=plan.seed)
    p.add_argument("--duration", dest="duration_s", type=float, default=plan.duration_s, help="seconds per record")
    p.add_argument("--n-ensemble", type=int, default=plan.n_ensemble)
    p.add_argument("--out-dir", default="bench_out")
    p.add_argument("--jobs", type=int, default=_usable_cpus(), help="processes running work units (default: CPUs)")
    p.set_defaults(func=cmd_bench)

    # A library SettingError names a parameter; the subcommand's option with
    # that dest is the flag its error names.
    for p in sub.choices.values():
        p.set_defaults(flags={a.dest: a.option_strings[0] for a in p._actions if a.option_strings})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SettingError as exc:
        if exc.name not in args.flags:  # no flag fed it: a computational failure
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        print(f"error: {args.flags[exc.name]} must be {exc.rule}, got {exc.value:g}", file=sys.stderr)
        return 2
    except (
        UsageError,
        FileNotFoundError,
        PermissionError,
        wfdbio.HeaderParseError,
        wfdbio.CsvParseError,
        wfdbio.AnnotationParseError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
