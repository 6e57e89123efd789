"""Benchmark harness: run records x methods x SNR levels, aggregate, and emit
deterministic CSV tables and SVG plots.  METHODS is the one table of
denoisers; the `bench` command calls it via run_cell, `denoise` via run_method.

Every cell derives its own seed from the master seed and its coordinates, so
results are independent of execution order and of which other cells run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import threading
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from signal import SIGKILL
from typing import Any, BinaryIO, Callable

from . import baselines, enkf, metrics, wfdbio
from .core import RPeaks, SettingError, Signal, require_valid, sample_count, slice_signal
from .model import GaussianWaveParams
from .svgplot import Series, render_line_chart


@dataclass(frozen=True)
class MethodContext:
    """What only some methods read: the noise reference (nlms, rls; None for a
    method without needs_reference); and for enkf and ekf, the R peaks and
    morphology they pass to enkf.prepare_inputs as given (which detects the
    peaks unless at least 2 are given, and fits the morphology on the noisy
    signal when it is None), the seed and N."""

    reference: Signal | None = None
    peaks: RPeaks = RPeaks([])
    morphology: GaussianWaveParams | None = None
    seed: int = enkf.FilterConfig.seed
    n_ensemble: int = enkf.FilterConfig.n_ensemble


@dataclass(frozen=True)
class Method:
    """The default settings, keyword arguments of the filter (none for the
    model-based filters); a callable (noisy, settings, ctx) and, for a method
    that runs equal-length cells in lockstep, a batch callable (noisy
    signals, settings, contexts) -> outputs.  Both look their filter up in its
    module at call time, so a rebound module attribute (the per-layer
    tracer's) is what runs.  Nothing mutates the settings."""

    params: dict[str, Any]
    run: Callable[[Signal, dict[str, Any], MethodContext], Signal]
    needs_reference: bool = False
    batch: Callable[[list[Signal], dict[str, Any], list[MethodContext]], list[Signal]] | None = None


def _config(ctx: MethodContext) -> enkf.FilterConfig:
    """A model-based filter's config, built (so its rules checked) before the filter runs."""
    return enkf.FilterConfig(n_ensemble=ctx.n_ensemble, seed=ctx.seed)


METHODS: dict[str, Method] = {
    "enkf": Method(
        {},
        lambda x, p, c: enkf.denoise(x, c.peaks, c.morphology, _config(c)),
        batch=lambda xs, p, cs: enkf.denoise_batch([(x, c.peaks, c.morphology, _config(c)) for x, c in zip(xs, cs)]),
    ),
    "ekf": Method({}, lambda x, p, c: baselines.ekf_denoise(x, c.peaks, c.morphology, _config(c))),
    "sg": Method({"window": 15, "polyorder": 3}, lambda x, p, c: baselines.sg_filter(x, **p)),
    "wavelet": Method({"levels": 4}, lambda x, p, c: baselines.wavelet_denoise(x, **p)),
    "nlms": Method(
        {"taps": 16, "mu": 0.5},
        lambda x, p, c: baselines.nlms_denoise(x, c.reference, **p),
        True,
        lambda xs, p, cs: baselines.nlms_batch(xs, [c.reference for c in cs], **p),
    ),
    "rls": Method(
        {"taps": 16, "forgetting": 0.999, "delta": 100.0},
        lambda x, p, c: baselines.rls_denoise(x, c.reference, **p),
        True,
        lambda xs, p, cs: baselines.rls_batch(xs, [c.reference for c in cs], **p),
    ),
    "tvd": Method({"lam": None}, lambda x, p, c: baselines.tvd_denoise(x, **p)),
}


def run_method(name: str, noisy: Signal, ctx: MethodContext, params: dict[str, Any] | None = None) -> Signal:
    """Denoise with one table entry (params default to its default settings).
    Non-finite output is an error, never a plausible-looking result."""
    method = METHODS[name]
    denoised = method.run(noisy, method.params if params is None else params, ctx)
    require_valid(denoised, f"{name} output")
    return denoised


CSV_COLUMNS = (
    "record",
    "channel",
    "method",
    "snr_in_db",
    "snr_out_db",
    "snr_improvement_db",
    "rmse_mv",
    "prd_pct",
    "corr",
    "params_digest",
    "seed",
    "status",
)


class BenchError(RuntimeError):
    pass


# Leading seconds of each cell left out of its score while the filters settle.
WARMUP_S = 2.0


@dataclass(frozen=True)
class BenchPlan:
    records: tuple[str, ...]
    methods: tuple[str, ...] = tuple(METHODS)
    snr_levels: tuple[float, ...] = (-6.0, 0.0, 6.0, 12.0, 18.0, 24.0)
    channel: int = 0
    noise: str = "em"  # record name under the dataset root (channel 0), or a CSV path
    seed: int = 0
    duration_s: float = 60.0
    n_ensemble: int = enkf.FilterConfig.n_ensemble

    def __post_init__(self):
        if not self.records or not self.methods or not self.snr_levels:
            raise ValueError("records, methods and snr_levels must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
        for level in self.snr_levels:
            if not math.isfinite(level):
                raise SettingError("snr_levels", "finite", level)
        if not 0 < self.duration_s < math.inf:
            raise SettingError("duration_s", "finite and positive", self.duration_s)
        enkf.FilterConfig(n_ensemble=self.n_ensemble)  # its rule, checked before any cell runs


@dataclass(frozen=True)
class BenchCell:
    record_id: str
    channel: int
    method: str
    input_snr: float
    report: metrics.MetricReport | None
    seed: int
    wall_time: float
    error: str | None = None


def cell_seed(master_seed: int, record: str, method: str, level: float) -> int:
    """Order-independent per-cell seed."""
    key = f"{master_seed}|{record}|{method}|{level:.6g}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def params_digest(plan: BenchPlan) -> str:
    """Short hash of every knob that shapes a cell, for auditable rows."""
    payload = {
        "channel": plan.channel,
        "noise": plan.noise,
        "noise_channel": 0,  # fixed, like skip_warmup_s; kept so earlier digests still match
        "duration_s": plan.duration_s,
        "skip_warmup_s": WARMUP_S,
        "n_ensemble": plan.n_ensemble,
        "baselines": {name: m.params for name, m in METHODS.items() if m.params},
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def load_record(root: Path, name: str, channel: int = 0) -> tuple[Signal, RPeaks]:
    """Read {root}/{name}.hea/.dat[/.atr] and return one channel plus its beats."""
    hea = (root / f"{name}.hea").read_text()
    header = wfdbio.read_header(hea)
    if not 0 <= channel < header.n_signals:
        raise SettingError("channel", f"from 0 to {header.n_signals - 1} in record {name}", channel)
    dat = (root / header.signals[channel].filename).read_bytes()
    atr_path = root / f"{name}.atr"
    atr = atr_path.read_bytes() if atr_path.exists() else None
    record = wfdbio.assemble_record(header, dat, atr)
    return record.channels[channel], record.r_peaks


def trim(signal: Signal, peaks: RPeaks, duration_s: float) -> tuple[Signal, RPeaks]:
    """The first duration_s seconds (rounded to whole samples; all of a
    shorter signal) and their peaks."""
    n = len(signal) if duration_s * signal.fs >= len(signal) else sample_count(duration_s, signal.fs)
    kept = peaks.indices[peaks.indices < n]
    return slice_signal(signal, 0, n), RPeaks(kept)


def _score(clean: Signal, noisy: Signal, denoised: Signal) -> metrics.MetricReport:
    skip = int(round(WARMUP_S * clean.fs))
    if skip >= len(clean):
        raise BenchError("warm-up skip covers the whole evaluation segment")
    seg = lambda s: slice_signal(s, skip, len(s) - skip)
    return metrics.report(seg(clean), seg(noisy), seg(denoised))


def plan_cells(plan: BenchPlan) -> list[tuple[str, str, float]]:
    """Every (record, method, level) coordinate the plan will evaluate."""
    return [
        (record_id, method, level)
        for record_id in plan.records
        for method in plan.methods
        for level in plan.snr_levels
    ]


# Most cells one lockstep unit holds.  Each row keeps its noisy signal (and
# an nlms or rls row its reference) until the unit is scored, and at its peak
# the kernel adds float64 arrays of the row's length: nlms and rls the output
# buffer and zero-padded reference; enkf the observed phase, angular velocity
# and output buffer (which becomes the output Signal one row at a time), plus
# one noise block (enkf.NOISE_BLOCK samples, 205 kB at N = 100).  That is
# 32 B per sample for all three (tracemalloc on run_cell units reads 32, 32
# and 29; tests hold all three to it); an nlms unit adds at most
# baselines.NLMS_CHUNK_BYTES of chunk arrays, an rls row about 19 kB of state
# at 16 taps.  At the full 648,000 samples (30 min at 360 Hz) a row holds
# 20.7 MB: 332 MB for 16 rows, and bench --jobs J holds up to J units at once.
BATCH_ROWS = 16


def plan_units(plan: BenchPlan, lengths: dict[str, int]) -> list[list[int]]:
    """Split the plan's cells (indices into plan_cells) into work units.

    Cells of a method with a batch callable (enkf, nlms, rls) form lockstep
    units of up to BATCH_ROWS cells of one method and one record length
    (lengths maps record to samples), in plan order; every other cell is a
    unit of one.  The lockstep units go first because their stacked buffers
    are the run's largest: allocated before the streaming cells have churned
    the heap, they leave the peak RSS near the streaming path's.
    """
    batches: dict[tuple[str, int], list[list[int]]] = {}
    alone: list[list[int]] = []
    for i, (record_id, method, _) in enumerate(plan_cells(plan)):
        if METHODS[method].batch is None:
            alone.append([i])
            continue
        groups = batches.setdefault((method, lengths[record_id]), [[]])
        if len(groups[-1]) == BATCH_ROWS:
            groups.append([])
        groups[-1].append(i)
    return [unit for groups in batches.values() for unit in groups] + alone


def run_bench(plan: BenchPlan, data_root: Path, jobs: int = 1) -> list[BenchCell]:
    """Execute every cell, one work unit at a time; failures become failed rows.
    A lockstep unit is bit-identical to its cells run one at a time.

    With jobs > 1 the units are dealt round-robin into min(jobs, units)
    shares: this process runs share 0 and a forked child runs each other
    share (see _fork_share).  A cell's numbers depend only on its
    coordinates, so the result does not depend on jobs; up to jobs units are
    in memory at once.  Without os.fork, or while other threads run, every
    share runs in this process.
    """
    if jobs < 1:
        raise SettingError("jobs", "at least 1", jobs)
    loaded = {rid: trim(*load_record(data_root, rid, plan.channel), plan.duration_s) for rid in plan.records}
    noise = _load_noise(plan, data_root, loaded[plan.records[0]][0].fs)
    coords = plan_cells(plan)
    units = plan_units(plan, {rid: len(clean) for rid, (clean, _) in loaded.items()})
    jobs = min(jobs, len(units)) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    shares = [units[j::jobs] for j in range(jobs)]

    def run_share(share: list[list[int]]) -> list[tuple[int, BenchCell]]:
        return [pair for unit in share for pair in zip(unit, run_cell([coords[i] for i in unit], loaded, noise, plan))]

    children: dict[int, tuple[BinaryIO, list[list[int]]]] = {}  # unreaped pid -> (its pipe, its share)
    try:
        for share in shares[1:]:
            pid, pipe = _fork_share(run_share, share)
            children[pid] = (pipe, share)
        cells = dict(run_share(shares[0]))
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            try:
                if status == 0:
                    cells.update(pickle.loads(data))
            except (EOFError, pickle.UnpicklingError):
                status = None
            if status != 0:
                how = "sent a short result" if status is None else f"exited with status {status}"
                named = ", ".join(f"{r}/{m}@{lv:g}dB" for unit in share for r, m, lv in (coords[i] for i in unit))
                raise BenchError(f"bench worker {pid} for cells {named} {how}")
    finally:  # a raise, KeyboardInterrupt included, leaves no child running
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return [cells[i] for i in range(len(coords))]


def _fork_share(run_share, share) -> tuple[int, BinaryIO]:
    """Fork a child that runs one share and sends its (cell index, BenchCell)
    pairs back pickled over a pipe; return its pid and the pipe's read end.
    The child never returns into the caller's stack and never flushes the
    stdio it inherited: whatever it raises, KeyboardInterrupt included, it
    leaves through os._exit, with status 0 only once its whole result is
    written."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(run_share(share), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def run_cell(unit: list[tuple[str, str, float]], loaded, noise: Signal, plan: BenchPlan) -> list[BenchCell]:
    """Mix, denoise, validate and score a work unit: (record, method, level)
    coordinates of one method, with loaded mapping record to (clean, peaks).

    A unit of several cells makes one call to the method's batch callable, a
    unit of one calls its run callable.  If mixing or the call raises, a unit
    of several reruns as units of one, so only a faulty cell becomes a failed
    row, with the error a lone run gives.  A cell's wall time is an equal
    share of the mixing and the call plus its own scoring.
    """
    name = unit[0][1]
    method = METHODS[name]
    seeds = [cell_seed(plan.seed, *coord) for coord in unit]
    t0 = time.perf_counter()
    try:
        # No NoisyMix outlives this list; only a method with needs_reference keeps the scaled noise.
        mixed = [
            (m.noisy, m.scaled_noise if method.needs_reference else None)
            for m in (metrics.mix(loaded[rid][0], noise, level) for rid, _, level in unit)
        ]
        noisy = [x for x, _ in mixed]
        ctxs = [
            MethodContext(reference=ref, peaks=loaded[rid][1], seed=seed, n_ensemble=plan.n_ensemble)
            for (_, ref), (rid, _, _), seed in zip(mixed, unit, seeds)
        ]
        params = method.params
        outputs = method.batch(noisy, params, ctxs) if len(unit) > 1 else [method.run(noisy[0], params, ctxs[0])]
    except Exception as exc:  # cell failures must not kill the run
        if len(unit) > 1:
            return [cell for coord in unit for cell in run_cell([coord], loaded, noise, plan)]
        rid, _, level = unit[0]
        err = f"{type(exc).__name__}: {exc}"
        return [BenchCell(rid, plan.channel, name, level, None, seeds[0], time.perf_counter() - t0, err)]
    share = (time.perf_counter() - t0) / len(unit)
    cells = []
    for (rid, _, level), seed, x, y in zip(unit, seeds, noisy, outputs):
        t0 = time.perf_counter()
        try:
            require_valid(y, f"{name} output")
            rep, err = _score(loaded[rid][0], x, y), None
        except Exception as exc:
            rep, err = None, f"{type(exc).__name__}: {exc}"
        cells.append(BenchCell(rid, plan.channel, name, level, rep, seed, share + time.perf_counter() - t0, err))
    return cells


def _load_noise(plan: BenchPlan, data_root: Path, fs: float) -> Signal:
    """The noise record, or a "t,mv" CSV checked against the records' rate fs."""
    if plan.noise.endswith(".csv"):
        path = Path(plan.noise)
        data = path.read_bytes()
        if data.lstrip().split(b"\n", 1)[0].strip().lower() == b"mv":
            raise BenchError(
                f"noise CSV {path} has no t column, so its rate cannot be checked against the records' {fs:g} Hz"
            )
        return wfdbio.read_named_csv(data, fs, f"noise CSV {path}")
    return load_record(data_root, plan.noise)[0]


def aggregate(cells: list[BenchCell]) -> list[BenchCell]:
    """Mean metric values across records for each (method, level) pair."""
    groups: dict[tuple[str, float], list[BenchCell]] = {}
    for c in cells:
        if c.report is not None:
            groups.setdefault((c.method, c.input_snr), []).append(c)
    rows = []
    for (method, level), grp in sorted(groups.items()):
        per_metric = zip(*(astuple(c.report) for c in grp))
        rows.append(
            BenchCell(
                record_id="mean",
                channel=grp[0].channel,
                method=method,
                input_snr=level,
                report=metrics.MetricReport(*(sum(values) / len(grp) for values in per_metric)),
                seed=0,
                wall_time=sum(c.wall_time for c in grp),
            )
        )
    return rows


def _sort_key(cell: BenchCell):
    rec_rank = (1, "") if cell.record_id == "mean" else (0, cell.record_id)
    return (rec_rank, list(METHODS).index(cell.method), cell.input_snr)


def table_csv(cells: list[BenchCell], plan: BenchPlan) -> str:
    """Deterministic CSV: canonical row order, fixed float formatting, no wall times."""
    digest = params_digest(plan)
    lines = [",".join(CSV_COLUMNS)]
    for c in sorted(cells + aggregate(cells), key=_sort_key):
        if c.report is None:
            # Keep the target SNR visible so failed cells stay identifiable.
            vals = [f"{c.input_snr:.12g}", "", "", "", "", ""]
            status = f"failed: {c.error}"
        else:
            vals = [f"{v:.12g}" for v in astuple(c.report)]  # field order is the column order
            status = "ok"
        lines.append(
            ",".join(
                [c.record_id, str(c.channel), c.method, *vals, digest, str(c.seed), status]
            )
        )
    return "\n".join(lines) + "\n"


_PLOT_SPECS = (
    ("snr_improvement", "SNR improvement vs input SNR", "SNR improvement (dB)", lambda r: r.snr_improvement),
    ("corr", "Correlation vs input SNR", "correlation", lambda r: r.corr),
    ("prd", "PRD vs input SNR", "PRD (%)", lambda r: r.prd),
    ("rmse", "RMSE vs input SNR", "RMSE (mV)", lambda r: r.rmse),
)


def render_plots(cells: list[BenchCell], plan: BenchPlan) -> dict[str, str]:
    """One SVG per metric: mean-across-records value per method over the level sweep."""
    agg = {(c.method, c.input_snr): c for c in aggregate(cells)}
    levels = sorted(set(plan.snr_levels))
    out = {}
    for name, title, ylabel, pick in _PLOT_SPECS:
        series = []
        for method in plan.methods:
            pts = [(lv, agg[(method, lv)]) for lv in levels if (method, lv) in agg]
            if len(pts) >= 2:
                series.append(
                    Series(
                        label=method,
                        x=tuple(lv for lv, _ in pts),
                        y=tuple(pick(c.report) for _, c in pts),
                    )
                )
        if series:
            out[name] = render_line_chart(series, title, "input SNR (dB)", ylabel)
    return out
