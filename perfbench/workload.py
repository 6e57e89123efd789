"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload protocol --data DIR --work DIR \
        --seed 1 --seconds 25 --trace 0 --out result.json

Times the cold `import ecgdenoise.cli`, then runs passes of the workload
through `ecgdenoise.cli.main` in-process until the next pass would end past
--seconds (at least one pass; with --trace 1, untraced and traced passes
alternate, at least one of each).  After every pass, outside the timed
region, it checks the outputs.  The result file holds the pass wall times,
the peak RSS, the checks, the quality values, the output digests and, when
traced, the per-layer table.  run.py starts this process and reads the file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

_t0 = time.perf_counter()
import ecgdenoise.cli as cli  # noqa: E402  (timed: the set-up every CLI invocation pays)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ecgdenoise import bench  # noqa: E402
from tracer import Tracer  # noqa: E402

ALL_METHODS = ("enkf", "ekf", "sg", "wavelet", "nlms", "rls", "tvd")
FIXTURE_RECORDS = ("102", "108", "118", "119", "121", "122", "215", "220", "232")

# The reduced acceptance plan at 20-s slices instead of 60 s (see README.md).
PROTOCOL = dict(records=("118", "119"), methods=ALL_METHODS, levels=(12.0, 18.0), noise="em", duration=20.0)
SWEEP = dict(
    records=FIXTURE_RECORDS,
    methods=("sg", "wavelet", "nlms", "rls", "tvd"),
    levels=(-6.0, 0.0, 6.0, 12.0, 18.0, 24.0),
    noise="ma",
    duration=20.0,
)
BENCH_PLANS = {"protocol": PROTOCOL, "sweep": SWEEP}
# Single-record CLI path: (clean record, noise, level, denoise methods).
RECORD = (("long", "em", 12.0, ("tvd", "nlms")), ("short", "em", 12.0, ("enkf",)))
PRINTED_TOL_DB = 1e-4  # the CLI prints SNRs with four decimals


def bench_argv(spec: dict, data: str, out: str, seed: int) -> list[list[str]]:
    return [
        [
            "--data-root", data, "bench",
            "--records", ",".join(spec["records"]),
            "--methods", ",".join(spec["methods"]),
            "--levels=" + ",".join(f"{v:g}" for v in spec["levels"]),  # "=": levels may start with "-"
            "--noise", spec["noise"],
            "--duration", f"{spec['duration']:g}",
            "--seed", str(seed),
            "--out-dir", out,
        ]
    ]  # fmt: skip


def record_argv(data: str, out: str, seed: int) -> list[list[str]]:
    argv = []
    for clean, noise, level, methods in RECORD:
        mixed = f"{out}/{clean}"
        argv.append(["--data-root", data, "mix", clean, noise, "--level", f"{level:g}", "--out-dir", mixed])
        for method in methods:
            extra = ["--reference", f"{mixed}/reference.csv"] if method in ("nlms", "rls") else []
            argv.append(
                ["--data-root", data, "denoise", f"{mixed}/noisy.csv", "--method", method, *extra,
                 "--clean", clean, "--seed", str(seed), "--out", f"{mixed}/{method}.csv"]
            )  # fmt: skip
    return argv


class Checks:
    """Output checks of one pass; each check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(values)))


def check_bench(spec: dict, out: Path, check: Checks) -> dict:
    """Every planned cell ok and finite, the SNR identity, the aggregates and the plots."""
    path = out / "bench.csv"
    if not check(path.is_file(), "bench.csv missing"):
        return {}
    rows = list(csv.DictReader(path.read_text().splitlines()))
    cells = [r for r in rows if r["record"] != "mean"]
    means = [r for r in rows if r["record"] == "mean"]
    cols = ("snr_in_db", "snr_out_db", "snr_improvement_db", "rmse_mv", "prd_pct", "corr")
    n_levels = len(spec["levels"])
    for record in spec["records"]:
        for method in spec["methods"]:
            got = [r for r in cells if r["record"] == record and r["method"] == method]
            check(len(got) == n_levels, f"{record}/{method}: {len(got)} rows for {n_levels} levels")
    check(len(cells) == len(spec["records"]) * len(spec["methods"]) * n_levels, "unplanned cell rows")
    check(len(means) == len(spec["methods"]) * n_levels, "aggregate row count")
    gains, outs, enkf = [], [], []
    for r in cells + means:
        where = f"{r['record']}/{r['method']}@{r['snr_in_db']}"
        if not check(r["status"] == "ok", f"{where}: {r['status']}"):
            continue
        vals = [float(r[c]) for c in cols]
        if not check(_finite(vals), f"{where}: non-finite value"):
            continue
        snr_in, snr_out, gain = vals[:3]
        check(abs(gain - (snr_out - snr_in)) <= 1e-9, f"{where}: snr_improvement_db != snr_out_db - snr_in_db")
        if r["record"] != "mean":
            gains.append(gain)
            outs.append(snr_out)
            if r["method"] == "enkf":
                enkf.append(gain)
    for plot in ("snr_improvement", "corr", "prd", "rmse"):
        check((out / f"{plot}.svg").is_file(), f"{plot}.svg missing")
    return _quality(gains, outs, enkf)


def _read_mv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, -1]


def _snr_db(clean: np.ndarray, x: np.ndarray) -> float:
    err = clean - x
    return 10.0 * math.log10(float(clean @ clean) / float(err @ err))


def check_record(data: Path, out: Path, stdout: str, check: Checks) -> dict:
    """Output CSVs present, full length and finite; printed SNRs match the files."""
    printed = [line for line in stdout.splitlines() if line.startswith("snr_in ")]
    gains, outs, enkf = [], [], []
    k = 0
    for clean_name, _, _, methods in RECORD:
        clean = bench.load_record(data, clean_name)[0].samples
        mixed = out / clean_name
        files = {name: mixed / f"{name}.csv" for name in ("noisy", "reference", *methods)}
        series = {}
        for name, path in files.items():
            if not check(path.is_file(), f"{path.name} missing"):
                continue
            v = _read_mv(path)
            if check(v.shape == clean.shape and _finite(v), f"{clean_name}/{path.name}: bad length or non-finite"):
                series[name] = v
        for method in methods:
            line = printed[k] if k < len(printed) else ""
            k += 1
            if not check(bool(line) and "noisy" in series and method in series, f"{clean_name}/{method}: no report"):
                continue
            snr_in = _snr_db(clean, series["noisy"])
            snr_out = _snr_db(clean, series[method])
            fields = line.replace(",", "").split()
            try:
                shown = [float(fields[i]) for i in (1, 4, 7)]  # snr_in, snr_out, improvement
            except (IndexError, ValueError):
                shown = []
            check(
                len(shown) == 3
                and all(abs(a - b) <= PRINTED_TOL_DB for a, b in zip(shown, (snr_in, snr_out, snr_out - snr_in))),
                f"{clean_name}/{method}: printed {line!r} does not match the written output",
            )
            gains.append(snr_out - snr_in)
            outs.append(snr_out)
            if method == "enkf":
                enkf.append(snr_out - snr_in)
    return _quality(gains, outs, enkf)


def _quality(gains: list, outs: list, enkf: list) -> dict:
    q = {}
    if gains:
        q["snr_gain_db"] = statistics.fmean(gains)
        q["snr_out_db"] = statistics.fmean(outs)
    if enkf:
        q["enkf_snr_gain_db"] = statistics.fmean(enkf)
    return q


def digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(argvs: list[list[str]]) -> tuple[float, float, list[int], str]:
    """Run the CLI commands back to back; wall and CPU time cover exactly the calls."""
    codes = []
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0, c0 = time.perf_counter(), cpu_seconds()
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejects a command line
                codes.append(exc.code if isinstance(exc.code, int) else 2)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    return wall, cpu, codes, stdout.getvalue() + stderr.getvalue()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("protocol", "sweep", "record"))
    ap.add_argument("--data", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    shutil.rmtree(args.work, ignore_errors=True)
    passes, failures = [], []
    attempted = 0
    first_digests = quality = layers = peak_rss_mb = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        out = args.work / f"pass{k}"
        if args.workload == "record":
            argvs = record_argv(str(args.data), str(out), args.seed)
        else:
            argvs = bench_argv(BENCH_PLANS[args.workload], str(args.data), str(out), args.seed)
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            wall, cpu, codes, text = run_pass(argvs)
        finally:
            if tracer:
                tracer.uninstall()
        if peak_rss_mb is None:  # before any check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        check = Checks()
        for argv, code in zip(argvs, codes):
            check(code == 0, f"exit code {code}: ecgdenoise {' '.join(argv)}\n{text[-2000:]}")
        digest = digests(out)
        if first_digests is None:
            if args.workload == "record":
                quality = check_record(args.data, out, text, check)
            else:
                quality = check_bench(BENCH_PLANS[args.workload], out, check)
            first_digests = digest
        else:
            check(digest == first_digests, f"pass {k}: outputs differ from pass 0")
        if tracer:
            layers = tracer.layer_table(wall)
            tracer.write_spans(args.work / "spans.jsonl.gz", f"{args.workload}-seed{args.seed}-pass{k}")
        attempted += check.attempted
        failures += check.failures
        passes.append({"wall_s": wall, "cpu_s": cpu, "traced": traced})
        if k > 0:
            shutil.rmtree(args.work / f"pass{k - 1}", ignore_errors=True)
        k += 1
        if check.failures:
            break
        if args.trace and k % 2:  # every untraced pass is followed by a traced one
            continue
        # Stop when one more round would end past --seconds.
        next_round = sum(
            statistics.median(p["wall_s"] for p in passes if p["traced"] == kind) for kind in {p["traced"] for p in passes}
        )
        if time.perf_counter() - start + next_round > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": IMPORT_S,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "quality": quality,
        "digests": first_digests,
        "layers": layers,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
