"""Per-layer spans for the traced benchmark run, installed from outside.

The layers are the ecgdenoise modules.  `Tracer.install` rebinds each
public function listed in LAYERS to a recording wrapper, in its own module
and in every ecgdenoise module that imported it by name (bench and cli bind
fit_params, mean_beat, observed_phase and detect_r_peaks that way; enkf
looks its step functions up as module globals at call time).  A function
reached only through a data structure built at import time would escape the
wrapper; none is today.  `core` gets no span: its validation and Signal
construction land in the callers' self time.

Spans are kept in memory as (name, start, end, parent) tuples and written
out after the traced pass.  Stdlib only, so importing it does not disturb
the import that setup_s measures.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = {
    "enkf": (
        "denoise",
        "predict",
        "sample_covariances",
        "kalman_gain",
        "update",
        "estimate",
        "substream",
        "resolve_config",
    ),
    "baselines": (
        "ekf_denoise",
        "sg_filter",
        "wavelet_denoise",
        "nlms_denoise",
        "rls_denoise",
        "tvd_denoise",
        "noise_sigma_estimate",
    ),
    "wfdbio": ("read_header", "assemble_record", "decode_212", "read_annotations", "read_csv", "write_csv"),
    "model": ("detect_r_peaks", "observed_phase", "mean_beat", "fit_params"),
    "metrics": ("mix", "report"),
    "bench": ("run_bench", "run_cell", "load_record", "table_csv", "render_plots"),
    "svgplot": ("render_line_chart",),
    "cli": ("main",),
}


def _first_len(args, kwargs, result):
    return {"samples": len(args[0])}


# Work done per call, by span name: the denominators of the per-unit times
# and the counters that must repeat exactly between runs at one seed.
WORK = {
    "enkf.denoise": _first_len,
    "enkf.predict": lambda a, k, r: {"member_steps": a[0].size},
    "baselines.ekf_denoise": _first_len,
    "baselines.sg_filter": _first_len,
    "baselines.wavelet_denoise": _first_len,
    "baselines.nlms_denoise": _first_len,
    "baselines.rls_denoise": _first_len,
    "baselines.tvd_denoise": _first_len,
    "wfdbio.decode_212": lambda a, k, r: {"samples": r.shape[0]},
    "wfdbio.assemble_record": lambda a, k, r: {"samples": len(r.channels[0])},
    "wfdbio.read_annotations": lambda a, k, r: {"beats": len(r)},
    "wfdbio.read_csv": lambda a, k, r: {"samples": len(r)},
    "wfdbio.write_csv": lambda a, k, r: {"samples": len(a[0]), "bytes": len(r)},
    "model.observed_phase": lambda a, k, r: {"samples": len(r)},
    "metrics.mix": lambda a, k, r: {"samples": len(r.noisy)},
    "metrics.report": _first_len,
    "bench.run_bench": lambda a, k, r: {
        "cells": len(r),
        "failed_cells": sum(c.report is None for c in r),
    },
}

# Named counters, as (metric name, span name, work key).
COUNTS = (
    ("enkf.member_steps", "enkf.predict", "member_steps"),
    ("model.fit_params.accepted_steps", "model.fit_params", "accepted_steps"),
    ("bench.cells", "bench.run_bench", "cells"),
    ("bench.failed_cells", "bench.run_bench", "failed_cells"),
    ("wfdbio.bytes_written", "wfdbio.write_csv", "bytes"),
)

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.work: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._bound: list = []

    def _wrap(self, name, fn):
        measure = WORK.get(name)
        spans, stack, work = self.spans, self._stack, self.work
        clock = time.perf_counter
        fit = name == "model.fit_params"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fit:
                # Count accepted steps through the public objective_trace argument.
                trace = kwargs.get("objective_trace")
                if trace is None:
                    trace = kwargs["objective_trace"] = []
                n_before = len(trace)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent)
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    work[name][key] += value
            if fit:
                # The first entry is the starting objective, not a step.
                work[name]["accepted_steps"] += len(trace) - n_before - 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function wherever an ecgdenoise module holds it."""
        package = [m for n, m in sys.modules.items() if n == "ecgdenoise" or n.startswith("ecgdenoise.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"ecgdenoise.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for holder in package:
                    if vars(holder).get(fname) is original:
                        setattr(holder, fname, wrapped)
                        self._bound.append((holder, fname, original))

    def uninstall(self) -> None:
        for holder, fname, original in reversed(self._bound):
            setattr(holder, fname, original)
        self._bound.clear()

    def write_spans(self, path, run_id: str) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"run": run_id, "id": sid, "parent": parent, "name": name, "start": t0 - base, "end": t1 - base}
                    )
                    + "\n"
                )

    def layer_table(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-function and per-layer metrics, as name -> (value, unit).

        A span's self time is its duration minus its children's; children of
        one span never overlap because the program is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        cell_s = []
        for sid, (name, t0, t1, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[sid]
            if name == "bench.run_cell":
                cell_s.append(t1 - t0)

        out: dict[str, tuple[float, str]] = {}
        for name in sorted(calls):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (total[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
            out[f"{name}.us_per_call"] = (1e6 * total[name] / calls[name], "us")
            for key, unit in (("samples", "sample"), ("beats", "beat")):
                n = self.work[name].get(key, 0)
                if n:
                    out[f"{name}.us_per_{unit}"] = (1e6 * total[name] / n, "us")
        for metric, name, key in COUNTS:
            out[metric] = (self.work[name].get(key, 0), "count" if key != "bytes" else "bytes")

        if cell_s:
            cell_s.sort()
            out["bench.cell_s.p50"] = (_percentile(cell_s, 50.0), "s")
            for q in TAIL_PERCENTILES:
                if len(cell_s) * (1.0 - q / 100.0) >= 10:
                    out[f"bench.cell_s.p{q:g}"] = (_percentile(cell_s, q), "s")
                    break

        roots = sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)
        for layer in LAYERS:
            layer_self = sum((v for n, v in own.items() if n.startswith(layer + ".")), 0.0)
            out[f"layer.{layer}.self_s"] = (layer_self, "s")
            out[f"layer.{layer}.self_frac"] = (layer_self / wall_s, "ratio")
        out["layer.harness.self_s"] = (wall_s - roots, "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
