"""Benchmark harness: run records x methods x SNR levels, aggregate, and emit
deterministic CSV tables and SVG plots.  METHODS is the one table of
denoisers; the `bench` command calls it via run_cell, `denoise` calls an
entry's run directly.

Every cell derives its own seed from the master seed and its coordinates, so
results are independent of execution order and of which other cells run.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import pickle
import tempfile
import threading
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from signal import SIGKILL
from typing import Any, BinaryIO, Callable

from . import baselines, enkf, metrics, wfdbio
from .core import InputError, RPeaks, SettingError, Signal, sample_count, slice_signal
from .model import GaussianWaveParams
from .svgplot import Series, render_line_chart


@dataclass(frozen=True)
class MethodContext:
    """What only some methods read: the noise reference (nlms, rls; None for a
    method without needs_reference); and for enkf and ekf, the R peaks and
    morphology they pass to enkf.prepare_inputs as given (which detects the
    peaks unless at least 2 are given, and fits the morphology on the noisy
    signal when it is None), and the FilterConfig of the seed and N."""

    reference: Signal | None = None
    peaks: RPeaks = RPeaks([])
    morphology: GaussianWaveParams | None = None
    cfg: enkf.FilterConfig = enkf.FilterConfig()


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


METHODS: dict[str, Method] = {
    "enkf": Method(
        {},
        lambda x, p, c: enkf.denoise(x, c.peaks, c.morphology, c.cfg),
        batch=lambda xs, p, cs: enkf.denoise_batch([(x, c.peaks, c.morphology, c.cfg) for x, c in zip(xs, cs)]),
    ),
    "ekf": Method({}, lambda x, p, c: baselines.ekf_denoise(x, c.peaks, c.morphology, c.cfg)),
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
NOISE_CHANNEL = 0  # the channel load_noise reads a noise record from


@dataclass(frozen=True)
class BenchPlan:
    records: tuple[str, ...]
    methods: tuple[str, ...] = tuple(METHODS)
    snr_levels: tuple[float, ...] = (-6.0, 0.0, 6.0, 12.0, 18.0, 24.0)
    channel: int = 0
    noise: str = "em"  # record name under the dataset root (NOISE_CHANNEL), or a CSV path
    seed: int = 0
    duration_s: float = 60.0
    n_ensemble: int = enkf.FilterConfig.n_ensemble

    def __post_init__(self):
        for name in ("records", "methods", "snr_levels"):
            if not getattr(self, name):
                raise SettingError(name, "non-empty", getattr(self, name))
        for r in self.records:
            if not r:
                raise SettingError("records", "non-empty record names", r)
        for m in self.methods:
            if m not in METHODS:
                raise SettingError("methods", f"one of {', '.join(METHODS)}", m)
        for level in self.snr_levels:
            if not math.isfinite(level):
                raise SettingError("snr_levels", "finite", level)
        for name in ("records", "methods", "snr_levels"):  # a repeat would run and average the same cells twice
            values = getattr(self, name)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise SettingError(name, "free of repeats", v)
        # duration_s is bench.trim's and run_bench's, checked before any cell runs.
        enkf.FilterConfig(n_ensemble=self.n_ensemble)  # its rule, checked before any cell runs


@dataclass(frozen=True)
class BenchCell:
    record_id: str
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
        "noise_channel": NOISE_CHANNEL,  # fixed, like skip_warmup_s; kept so earlier digests still match
        "duration_s": plan.duration_s,
        "skip_warmup_s": WARMUP_S,
        "n_ensemble": plan.n_ensemble,
        "baselines": {name: m.params for name, m in METHODS.items() if m.params},
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def load_record(root: Path, name: str, channel: int = 0) -> tuple[Signal, RPeaks]:
    """One channel of {root}/{name}.hea/.dat[/.atr] and its beats; an InputError names the record."""
    try:
        # A byte that is not UTF-8 fails the field that holds it, and no comment.
        header = wfdbio.read_header((root / f"{name}.hea").read_text(errors="surrogateescape"))
        if not 0 <= channel < header.n_signals:
            raise SettingError("channel", f"from 0 to {header.n_signals - 1} in record {name}", channel)
        # A file holds the frames of the signals whose lines name it, in line order.
        spec = header.signals[channel]
        mine = tuple(s for s in header.signals if s.filename == spec.filename)
        dat = (root / spec.filename).read_bytes()
        atr_path = root / f"{name}.atr"
        header = wfdbio.RecordHeader(len(mine), header.fs, header.n_samples, mine)
        record = wfdbio.assemble_record(header, dat, atr_path.read_bytes() if atr_path.exists() else None)
    except InputError as exc:
        raise exc.at(f"record {name}") from None
    return record.channels[mine.index(spec)], record.r_peaks


def trim(signal: Signal, peaks: RPeaks, duration_s: float) -> tuple[Signal, RPeaks]:
    """The first duration_s seconds (rounded to whole samples; all of a
    shorter signal) and their peaks.  The duration_s rule, the one place it
    is stated: finite and positive, core.sample_count's size rule, and
    keeping a sample."""
    if not 0 < duration_s < math.inf:
        raise SettingError("duration_s", "finite and positive", duration_s)
    n = min(sample_count(duration_s, signal.fs, "duration_s"), len(signal))
    if n == 0:
        raise SettingError("duration_s", f"long enough to keep a sample at {signal.fs:g} Hz", duration_s)
    kept = peaks.indices[peaks.indices < n]
    return slice_signal(signal, 0, n), RPeaks(kept)


def _warmup_samples(fs: float) -> int:
    """The samples WARMUP_S rounds to at fs, left out of each cell's score."""
    return sample_count(WARMUP_S, fs)


def load_csv(path: str | Path, fs: float, timed: bool = False) -> Signal:
    """The CSV file at path, read at fs by wfdbio.read_csv; an InputError names the file by its path."""
    path = Path(path)
    try:
        return wfdbio.read_csv(path.read_bytes(), fs, timed)
    except InputError as exc:
        raise exc.at(str(path)) from None


def load_noise(name: str, fs: float, root: Callable[[], Path], of: str) -> Signal:
    """The noise added to a signal at fs, named of: a "t,mv" CSV whose t
    column runs at fs, or channel NOISE_CHANNEL of record name under root()
    (called only then), sampled at fs.  The noise rule of bench and mix."""
    if name.endswith(".csv"):
        return load_csv(name, fs, timed=True)
    return _at_rate(f"record {name}", load_record(root(), name, NOISE_CHANNEL)[0], fs, of)


def _at_rate(what: str, signal: Signal, fs: float, of: str) -> Signal:
    """The one-rate rule: signal, a record or noise named what, is at fs, the rate of of."""
    if signal.fs != fs:
        raise InputError(f"{what}: sampled at {signal.fs:g} Hz, not at the {fs:g} Hz of {of}")
    return signal


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
# and output buffer (one per cell, however many segments enkf.segments cuts
# it into; it becomes the output Signal one cell at a time), plus one noise
# block (enkf.NOISE_BLOCK samples, 205 kB at N = 100) per segment: at most 16
# blocks, 3.3 MB, for a cell of 4 min or more at 360 Hz.  That is 32 B per
# sample for all three (tracemalloc on run_cell units reads 32, 32 and 29;
# tests hold all three to it, and a split enkf cell to it plus its blocks);
# an nlms unit adds at most baselines.NLMS_CHUNK_BYTES of chunk arrays, an
# rls row about 19 kB of state at 16 taps.  At the full 648,000 samples
# (30 min at 360 Hz) a row holds 20.7 MB, an enkf row 24.0 MB with its 16
# blocks: 384 MB for 16 rows, and bench --jobs J holds up to J units at once.
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
    A lockstep unit is bit-identical to its cells run one at a time.  The
    plan rules, one rate (records, then noise) and 2 samples per record to
    score past the warm-up, are checked before any cell runs or worker forks.

    With jobs > 1, min(jobs, units) - 1 forked children (see _fork_worker)
    and this process each take the next unit from one queue (_UnitQueue),
    in plan_units order, until none is left: a process that holds a long
    unit runs nothing else while the others drain the rest (list
    scheduling: Graham, SIAM J. Appl. Math. 17(2), 1969).  A cell's numbers
    depend only on its coordinates, so the result does not depend on jobs
    or on which process ran what; up to jobs units are in memory at once.
    Once every child is reaped, a failed child raises a BenchError naming
    the cells that did not arrive, those of the units it took.  Without
    os.fork, or while other threads run, this process takes every unit.
    """
    if jobs < 1:
        raise SettingError("jobs", "at least 1", jobs)
    loaded = {rid: trim(*load_record(data_root, rid, plan.channel), plan.duration_s) for rid in plan.records}
    fs, first = loaded[plan.records[0]][0].fs, "the plan's first record"
    need = _warmup_samples(fs) + 2
    if sample_count(plan.duration_s, fs) < need:
        rule = f"long enough to score 2 samples past the {WARMUP_S:g} s warm-up at {fs:g} Hz"
        raise SettingError("duration_s", rule, plan.duration_s)
    for rid, (clean, _) in loaded.items():
        _at_rate(f"record {rid}", clean, fs, first)
        if len(clean) < need:  # a correlation needs two samples
            raise InputError(f"record {rid}: {len(clean)} samples, too few to score 2 past the {WARMUP_S:g} s warm-up")
    noise = load_noise(plan.noise, fs, lambda: data_root, first)
    coords = plan_cells(plan)
    units = plan_units(plan, {rid: len(clean) for rid, (clean, _) in loaded.items()})
    jobs = min(jobs, len(units)) if hasattr(os, "fork") and threading.active_count() == 1 else 1

    def work(queue: _UnitQueue) -> list[tuple[int, BenchCell]]:
        return [
            pair
            for u in iter(queue.take, None)
            for pair in zip(units[u], run_cell([coords[i] for i in units[u]], loaded, noise, plan))
        ]

    queue = _UnitQueue(len(units))
    children: dict[int, BinaryIO] = {}  # unreaped pid -> its result pipe
    failed: dict[int, str] = {}  # failed child's pid -> how it failed
    try:
        for _ in range(jobs - 1):
            pid, pipe = _fork_worker(work, queue)
            children[pid] = pipe
        cells = dict(work(queue))
        for pid, pipe in list(children.items()):
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
                failed[pid] = "sent a short result" if status is None else f"exited with status {status}"
    finally:  # a raise, KeyboardInterrupt included, leaves no child running
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        queue.close()
    if failed:  # every cell is delivered but those of the units a failed child took
        lost = (coords[i] for unit in units if unit[0] not in cells for i in unit)
        named = ", ".join(f"{r}/{m}@{lv:g}dB" for r, m, lv in lost)
        raise BenchError(f"bench worker {', '.join(map(str, failed))} for cells {named} {', '.join(failed.values())}")
    return [cells[i] for i in range(len(coords))]


class _UnitQueue:
    """Unit indices 0, 1, ... count - 1, each taken once by whichever
    process asks next, this one or a forked child.

    The next index is kept in an unlinked temporary file that the forked
    children share by its inherited descriptor.  A taker holds a POSIX
    record lock on the file while it reads the index and writes back its
    successor.  The kernel drops the lock of a process that dies, so a
    worker killed mid-take blocks no other taker."""

    def __init__(self, count: int):
        self.count = count
        self._file = tempfile.TemporaryFile()
        os.pwrite(self._file.fileno(), bytes(8), 0)

    def take(self) -> int | None:
        """The next unit index, or None once every unit is taken."""
        fd = self._file.fileno()
        fcntl.lockf(fd, fcntl.LOCK_EX)
        try:
            i = int.from_bytes(os.pread(fd, 8, 0), "little")
            if i < self.count:
                os.pwrite(fd, (i + 1).to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)
        return i if i < self.count else None

    def close(self) -> None:
        self._file.close()


def _fork_worker(work, queue: _UnitQueue) -> tuple[int, BinaryIO]:
    """Fork a child that takes units from queue until none is left and
    sends their (cell index, BenchCell) pairs back pickled over a pipe;
    return its pid and the pipe's read end.  The child never returns into
    the caller's stack and never flushes the stdio it inherited: whatever
    it raises, KeyboardInterrupt included, it leaves through os._exit, with
    status 0 only once its whole result is written."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(work(queue), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def run_cell(unit: list[tuple[str, str, float]], loaded, noise: Signal, plan: BenchPlan) -> list[BenchCell]:
    """Mix, denoise and score a work unit: (record, method, level)
    coordinates of one method, with loaded mapping record to (clean, peaks).

    A unit of several cells makes one call to the method's batch callable, a
    unit of one calls its run callable.  If mixing or the call raises (as it
    does for a non-finite output, which no Signal holds), a unit of several
    reruns as units of one, so only a faulty cell becomes a failed row, with
    the error a lone run gives.  A cell's wall time is an equal share of the
    mixing and the call plus its own scoring.
    """
    name = unit[0][1]
    method = METHODS[name]
    cfgs = [enkf.FilterConfig(n_ensemble=plan.n_ensemble, seed=cell_seed(plan.seed, *coord)) for coord in unit]
    t0 = time.perf_counter()
    try:
        # No NoisyMix outlives this list; only a method with needs_reference keeps the scaled noise.
        mixed = [
            (m.noisy, m.scaled_noise if method.needs_reference else None)
            for m in (metrics.mix(loaded[rid][0], noise, level) for rid, _, level in unit)
        ]
        noisy = [x for x, _ in mixed]
        ctxs = [MethodContext(ref, loaded[rid][1], cfg=cfg) for (_, ref), (rid, _, _), cfg in zip(mixed, unit, cfgs)]
        params = method.params
        outputs = method.batch(noisy, params, ctxs) if len(unit) > 1 else [method.run(noisy[0], params, ctxs[0])]
    except Exception as exc:  # cell failures must not kill the run
        if len(unit) > 1:
            return [cell for coord in unit for cell in run_cell([coord], loaded, noise, plan)]
        rid, _, level = unit[0]
        err = f"{type(exc).__name__}: {exc}"
        return [BenchCell(rid, name, level, None, cfgs[0].seed, time.perf_counter() - t0, err)]
    share = (time.perf_counter() - t0) / len(unit)
    cells = []
    for (rid, _, level), cfg, x, y in zip(unit, cfgs, noisy, outputs):
        t0 = time.perf_counter()
        try:
            skip = _warmup_samples(x.fs)
            rep, err = metrics.report(*(slice_signal(s, skip, len(s) - skip) for s in (loaded[rid][0], x, y))), None
        except Exception as exc:
            rep, err = None, f"{type(exc).__name__}: {exc}"
        cells.append(BenchCell(rid, name, level, rep, cfg.seed, share + time.perf_counter() - t0, err))
    return cells


def aggregate(cells: list[BenchCell]) -> list[BenchCell]:
    """Mean metric values across records for each (method, level) pair."""
    groups: dict[tuple[str, float], list[BenchCell]] = {}
    for c in cells:
        if c.report is not None:
            groups.setdefault((c.method, c.input_snr), []).append(c)
    rows = []
    for (method, level), grp in sorted(groups.items()):
        per_metric = zip(*(astuple(c.report) for c in grp))
        report = metrics.MetricReport(*(sum(values) / len(grp) for values in per_metric))
        rows.append(BenchCell("mean", method, level, report, 0, sum(c.wall_time for c in grp)))
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
                [c.record_id, str(plan.channel), c.method, *vals, digest, str(c.seed), status]
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
    levels = sorted(plan.snr_levels)
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
