"""The repository benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload protocol|sweep|record|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The inputs are generated from --seed in a
separate process and cached per seed under perfbench/_out/inputs; their
generation time is reported on its own, never inside setup_s or wall_s.
setup_s is the median cold `import ecgdenoise.cli` over several fresh
interpreters; the workload itself runs in one more fresh interpreter
(perfbench/workload.py) with single-threaded BLAS.  Every output is checked,
and outputs must be byte-identical to those of every earlier run at the same
seed and source.  The last line printed is one JSON object: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "_out"
SRC = ROOT / "src" / "ecgdenoise"
WFDBGEN = ROOT / "tests" / "wfdbgen.py"
WORKLOADS = ("protocol", "sweep", "record")
SETUP_PROBES = 2  # plus the workload process's own import: three samples
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 150
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Counts that must repeat exactly between traced runs at one seed.
REPEATING_COUNTS = (*(name for name, _, _ in COUNTS), "cli.main.calls")
PROBE = "import time; t = time.perf_counter(); import ecgdenoise.cli; print(time.perf_counter() - t)"


class BenchFailure(Exception):
    """A step of the benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], what: str) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout subprocess.run kills and reaps it."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchFailure(f"{what}: no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchFailure(f"{what}: exit code {proc.returncode}\n{proc.stderr[-3000:]}")
    return proc


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def ensure_inputs(seed: int) -> tuple[Path, float, bool]:
    """Generated WFDB inputs for the seed, the generation time, and whether cached."""
    key = file_digest([BENCH / "gen.py", WFDBGEN])
    data = OUT / "inputs" / f"seed{seed}-{key}"
    done = data / "GEN_SECONDS"
    if done.is_file():
        return data, float(done.read_text()), True
    tmp = data.with_name(data.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    run_child([str(BENCH / "gen.py"), "--seed", str(seed), "--out", str(tmp)], "input generation")
    gen_s = time.perf_counter() - t0
    (tmp / "GEN_SECONDS").write_text(repr(gen_s))
    tmp.rename(data)
    return data, gen_s, False


def import_times() -> dict[str, float]:
    """import.scipy_signal.s and import.ecgdenoise.self_s from `python -X importtime`."""
    samples = []
    for _ in range(IMPORTTIME_PROBES):
        err = run_child(["-X", "importtime", "-c", "import ecgdenoise.cli"], "import-time probe").stderr
        scipy_signal = own = 0.0
        for m in re.finditer(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", err, re.M):
            self_us, cum_us, name = int(m[1]), int(m[2]), m[4]
            if name == "scipy.signal":
                scipy_signal = cum_us / 1e6
            if name == "ecgdenoise" or name.startswith("ecgdenoise."):
                own += self_us / 1e6
        samples.append((scipy_signal, own))
    return {
        "import.scipy_signal.s": statistics.median(s for s, _ in samples),
        "import.ecgdenoise.self_s": statistics.median(o for _, o in samples),
    }


def environment(workload_env: dict) -> dict:
    cpu = "unknown"
    try:
        m = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = m[1] if m else cpu
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {
        **workload_env,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_rev": rev,
        "src_digest": file_digest(sorted(SRC.glob("*.py"))),
        "bench_digest": file_digest(sorted(BENCH.glob("*.py"))),
    }


def must_repeat(path: Path, value, record: bool) -> list[str]:
    """Compare with the value stored by an earlier run; store it if none (and record)."""
    if path.is_file():
        if json.loads(path.read_text()) != value:
            return [f"{path.name}: differs from an earlier run at the same seed and source"]
    elif record:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(value, indent=1, sort_keys=True))
    return []


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: inputs, set-up probes, the workload process, checks, metrics."""
    data, gen_s, cached = ensure_inputs(seed)
    setup = [float(run_child(["-c", PROBE], "set-up probe").stdout) for _ in range(SETUP_PROBES)]

    work = OUT / "work" / workload
    result_file = OUT / "work" / f"{workload}.json"
    result_file.unlink(missing_ok=True)
    run_child(
        [
            str(BENCH / "workload.py"), "--workload", workload, "--data", str(data), "--work", str(work),
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace), "--out", str(result_file),
        ],
        f"workload {workload}",
    )  # fmt: skip
    res = json.loads(result_file.read_text())
    env = environment(res["env"])
    setup.append(res["import_s"])
    failures = list(res["failures"])
    attempted = res["attempted"]

    # Outputs, and the traced counts, must repeat exactly across runs at one
    # seed, source and benchmark version.
    known = OUT / "digests" / f"{workload}-seed{seed}-{env['src_digest']}-{env['bench_digest']}"
    if res["digests"]:
        attempted += 1
        failures += must_repeat(known.with_suffix(".outputs.json"), res["digests"], not failures)
    untraced = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    traced = [p["wall_s"] for p in res["passes"] if p["traced"]]
    layers = None
    if trace and res["layers"]:
        layers = {k: tuple(v) for k, v in res["layers"].items()}
        layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        layers.update({k: (v, "s") for k, v in import_times().items()})
        attempted += 1
        counts = {name: layers[name][0] for name in REPEATING_COUNTS}
        failures += must_repeat(known.with_suffix(".counts.json"), counts, not failures)

    e2e = {
        "wall_s": (statistics.median(untraced), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in res["passes"] if not p["traced"]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "failed_frac": (len(failures) / attempted, "ratio"),
    }
    units = {"snr_gain_db": "dB", "snr_out_db": "dB", "enkf_snr_gain_db": "dB"}
    e2e.update({k: (v, units[k]) for k, v in (res["quality"] or {}).items()})
    run = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": res["passes"],
        "setup_samples": setup,
        "gen_s": gen_s,
        "inputs_cached": cached,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "layers": {k: v for k, (v, _) in layers.items()} if layers else None,
        "env": env,
    }
    if layers:
        reports = OUT / "reports"
        reports.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}"
        (reports / f"{stem}-layers.json").write_text(json.dumps(run, indent=1, sort_keys=True))
        shutil.move(work / "spans.jsonl.gz", reports / f"{stem}-spans.jsonl.gz")
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(run, sort_keys=True) + "\n")
    return {**run, "_e2e": e2e, "_layers": layers}


def print_report(run: dict) -> None:
    passes = run["passes"]
    n_traced = sum(p["traced"] for p in passes)
    print(
        f"== {run['workload']}  seed {run['seed']}  {len(passes) - n_traced} untraced + {n_traced} traced passes  "
        f"inputs {'cached' if run['inputs_cached'] else 'generated'} (generation {run['gen_s']:.3f} s, not timed)"
    )
    for name, (value, unit) in run["_e2e"].items():
        print(f"  {name:<18} {value:>14.6g} {unit}")
    print(f"  operations: {run['attempted']} attempted, {run['failed']} failed")
    for f in run["failures"][:20]:
        print(f"  FAILED: {f}")
    env = run["env"]
    print(
        f"  env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']} "
        f"cpu '{env['cpu_model']}' blas threads {env['blas_threads']} rev {env['git_rev']} src {env['src_digest']}"
    )
    layers = run["_layers"]
    if layers:
        walls = [p["wall_s"] for p in passes if p["traced"]]
        print(f"  traced wall {statistics.median(walls):.4f} s, tracing overhead {layers['trace.overhead_s'][0]:+.4f} s")
        print("  self time by layer:")
        fracs = sorted(((v[0], k) for k, v in layers.items() if k.endswith(".self_frac")), reverse=True)
        for frac, name in fracs:
            layer = name.split(".")[1]
            print(f"    {layer:<10} {frac:7.2%}  {layers[f'layer.{layer}.self_s'][0]:10.4f} s")
        ekf = layers.get("baselines.ekf_denoise.self_s", (0.0,))[0] / statistics.median(walls)
        csv_io = sum(layers.get(f"wfdbio.{f}.self_s", (0.0,))[0] for f in ("read_csv", "write_csv"))
        print(
            f"  enkf + ekf share {layers['layer.enkf.self_frac'][0] + ekf:.2%}; "
            f"wfdbio CSV I/O {csv_io:.4f} s ({csv_io / statistics.median(walls):.2%})"
        )
        print(f"  full table: perfbench/_out/reports/{run['workload']}-seed{run['seed']}-layers.json")


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in (SRC / "cli.py", WFDBGEN) if not p.is_file()]
    if missing:
        print(f"error: not a checkout of the program: {', '.join(missing)} missing", file=sys.stderr)
        return 2
    wanted = declared("per_layer" if args.trace else "end_to_end")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in names:
            run = run_workload(workload, args.seed, args.seconds, args.trace)
            print_report(run)
            table = (run["_layers"] or {}) if args.trace else run["_e2e"]
            prefix = f"{workload}." if len(names) > 1 else ""
            for name, unit in wanted.items():
                value = table.get(name, (0, unit))[0]
                metrics[prefix + name] = {"value": value, "unit": unit}
            attempted += run["attempted"]
            failed += run["failed"]
    except BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
