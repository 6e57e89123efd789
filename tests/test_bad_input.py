"""Every input that exits 2, with its exact message: one row per bad record,
file, flag, plan or level, run inside the conftest world (a synthetic WFDB
root that ECGDENOISE_DATA points at, and the working directory).

A row is (argv, message).  A message starting "ecgdenoise " is argparse's
line, printed after its usage lines; any other is one of ours, printed as
exactly "error: {message}".  ROOT stands for the world's path.  Every row
exits 2, prints exactly that, writes nothing and runs no bench cell, in
process and, for the CONSOLE rows, through `python -m ecgdenoise.cli`.  A new
rule on a record, file, flag or level gets a row here.

run_in_process is the one in-process runner.  INPUT_ROWS and FLAG_ROWS keep
the test names their checks had in test_bench_cli.py
(TestBadInput::test_bad_input_exits_2_naming_it and
TestCliMixDenoise::test_bad_size_or_encoding_is_a_usage_error), which run them;
test_in_process runs the other rows.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecgdenoise import bench, cli

PAIR = "must match the signal's length and rate: {} samples at 360 Hz, signal 2000 at 360 Hz"
BAD_RECORDS = {
    "trunc": "record trunc: signal payload truncated: need 21600 bytes, have 1000",
    "sum": "record sum: channel 0: checksum 5505 does not match header 6528",
    "empty": "record empty: no samples in 0 bytes of signal data",
    "late": "record late: beat at sample 7200 lies outside samples 0 to 7199",
    "badhea": "record badhea: line 2: unsupported format code 16 (only 212 is handled)",
    "latin": "record latin: line 2: unreadable format code '2\\udcb512'",
    "nope": "[Errno 2] No such file or directory: 'ROOT/nope.hea'",
}
BAD_PARAMS = {
    "no-b": "KeyError: 'b'",
    "list": "TypeError: list indices must be integers or slices, not str",
    "3-waves": "ValueError: alpha must have exactly 5 entries (P,Q,R,S,T)",
    "nan-width": "ValueError: b contains non-finite values",
    "broken-json": "JSONDecodeError: Expecting value: line 1 column 14 (char 13)",
}
SG, RLS = ["--method", "sg"], ["--method", "rls", "--reference", "signal.csv"]
BENCH = ["bench", "--records", "121", "--methods", "sg", "--levels", "12", "--duration", "4"]
PLAN = ["bench", "--records", "121", "--methods", "sg,enkf", "--levels", "12", "--duration", "4", "--jobs", "2"]
METHODS = ", ".join(bench.METHODS)
WARM = "--duration must be long enough to score 2 samples past the 2 s warm-up at 360 Hz, got"
RATE, FIRST = "record {}: sampled at {} Hz, not at the {} Hz of {}", "the plan's first record"
UNTIMED = "{}: no t column, so its rate cannot be checked against {} Hz"
LEVEL = "--level must be reachable by a finite, positive noise gain that changes the signal, got {}"
ENSEMBLE = " for a sample covariance, got 1"
WINDOW = " and below the window of 15, got"
UNREADABLE = "ecgdenoise bench: error: argument --levels: invalid float list value:"
TIMED_250 = "noise250.csv: row 2: t = 0.004 s is not sample 1 at 360 Hz; the t column runs at 250 Hz"
P = pytest.param
# Each place a CSV file is read; BAD stands for the file.
CSV_READS = [
    ["denoise", "BAD", *SG],
    ["denoise", "long.csv", "--method", "nlms", "--reference", "BAD"],
    ["denoise", "long.csv", *SG, "--clean", "BAD"],
    ["mix", "BAD", "long.csv", "--level", "6"],
    ["mix", "long.csv", "BAD", "--level", "6"],
]
_reading = lambda argv, bad: [bad if a == "BAD" else a for a in argv]


def _was(k: int, argv: list[str], matched: str, rest: str = ""):
    """A row whose pytest id was pytest's own, argv{k}-{matched}: matched is
    the message the row checked before, a fragment when rest is not empty;
    the row now checks matched + rest exactly."""
    return P(argv, matched + rest, id=f"argv{k}-{matched}")


# A bad record or a missing file, or a --clean or --reference that does not
# pair with the signal.
INPUT_ROWS = [
    # A bad record, by each command that reads one.
    *(
        P(cmd, message, id=f"{cmd[0]}-{name}")
        for name, message in BAD_RECORDS.items()
        for cmd in (["denoise", name, "--method", "ekf"], ["fit", name], [*BENCH[:2], f"121,{name}", *BENCH[3:]])
    ),
    _was(21, ["denoise", "long.csv", *SG, "--clean", "short.csv"], "--clean " + PAIR.format(1000)),
    _was(22, ["denoise", "long.csv", *SG, "--clean", "121"], "--clean " + PAIR.format(7200)),
    _was(23, ["denoise", "long.csv", "--method", "nlms", "--reference", "short.csv"], "--reference " + PAIR.format(1000)),
    _was(24, ["denoise", "long.csv", "--method", "rls", "--reference", "short.csv"], "--reference " + PAIR.format(1000)),
    # A missing file: the read's own OSError names it.
    *(
        P(argv, "[Errno 2] No such file or directory: 'nope.csv'", id=f"missing-{flag}")
        for flag, argv in {
            "input": ["denoise", "nope.csv", *SG],
            "reference": ["denoise", "long.csv", "--method", "nlms", "--reference", "nope.csv"],
            "clean": ["denoise", "long.csv", *SG, "--clean", "nope.csv"],
            "params": ["denoise", "long.csv", "--method", "ekf", "--params", "nope.csv"],
            "noise": [*BENCH[:-2], "--noise", "nope.csv"],
            "mix-noise": ["mix", "121", "nope.csv", "--level", "6"],
        }.items()
    ),
]
# A bad --params file, a CSV file that is not UTF-8, or a flag's value outside
# its rule.
FLAG_ROWS = [
    # A bad --params file, on both subcommands that read one.
    *(
        P([*cmd, "--params", f"{name}.json"], f"params file {name}.json: {err}", id=f"{cmd[0]}-{name}")
        for cmd in (["synth", "--out-dir", "new"], ["denoise", "signal.csv", "--method", "ekf"])
        for name, err in BAD_PARAMS.items()
    ),
    _was(5, ["denoise", "latin1.csv", *SG], "latin1.csv: row 2: invalid UTF-8", " in '\\udcb5'"),
    # A flag's value outside its rule, stated by the library or the CLI.
    _was(0, ["fit", "signal.csv", "--seconds", "-1"], "--seconds must be finite and positive, got -1"),
    _was(1, ["fit", "signal.csv", "--seconds", "nan"], "--seconds must be finite and positive, got nan"),
    _was(2, ["fit", "signal.csv", "--seconds", "0"], "--seconds must be finite and positive, got 0"),
    _was(3, ["denoise", "signal.csv", "--method", "enkf", "--n-ensemble", "1"], "--n-ensemble must be at least 2", ENSEMBLE),
    _was(4, ["denoise", "signal.csv", "--method", "ekf", "--n-ensemble", "1"], "--n-ensemble must be at least 2", ENSEMBLE),
    _was(6, ["fit", "signal.csv", "--seconds", "0.001"], "--seconds must be long enough to keep a sample at 360 Hz",
         ", got 0.001"),
    _was(7, ["fit", "signal.csv", "--bins", "0"], "--bins must be at least 16, got 0"),
    _was(8, ["denoise", "signal.csv", *SG, "--window", "0"], "--window must be odd and positive, got 0"),
    _was(9, ["denoise", "signal.csv", *SG, "--polyorder", "40"], "--polyorder must be non-negative", f"{WINDOW} 40"),
    _was(10, ["denoise", "signal.csv", "--method", "wavelet", "--levels", "0"], "--levels must be at least 1, got 0"),
    _was(11, ["denoise", "signal.csv", "--method", "tvd", "--lambda", "-1"], "--lambda must be non-negative, got -1"),
    _was(12, ["denoise", "signal.csv", "--method", "nlms", "--reference", "signal.csv", "--mu", "3"], "--mu must be in",
         " (0, 2), got 3"),
    _was(13, ["denoise", "signal.csv", *RLS, "--taps", "0"], "--taps must be", " at least 1, got 0"),
    P(["denoise", "signal.csv", *RLS, "--delta", "inf"], "--delta must be finite and positive, got inf", id="rls-delta-inf"),
    _was(14, ["synth", "--out-dir", "new", "--beats", "0"], "--beats must be at least 1, got 0"),
    _was(15, ["synth", "--out-dir", "new", "--fs", "0"], "--fs must be finite and positive, got 0"),
    _was(16, ["synth", "--out-dir", "new", "--rr", "0.1"], "--rr must be finite and above 0.2 s, got 0.1"),
    _was(17, ["synth", "--out-dir", "new", "--noise-std", "-1"], "--noise-std must be finite and non-negative, got -1"),
    _was(18, ["mix", "signal.csv", "signal.csv", "--level", "nan"], "--level must be finite, got nan"),
    # In range, but too large (or small) for the input: 12 beats hold 3,676 samples at 360 Hz.
    _was(19, ["synth", "--out-dir", "new", "--beats", "12", "--fs", "0.01"], "--fs must be high enough for 10.21",
         "06 s to hold a sample, got 0.01"),
    P(["synth", "--out-dir", "new", "--fs", "1", "--rr", "0.3", "--beats", "1"],
      "--fs must be high enough for 0.3 s to hold a sample, got 1", id="synth-beats-round-to-0-samples"),
    _was(21, ["denoise", "signal.csv", *SG, "--window", "99999"], "--window must be at most 3676 for 3676",
         " samples, got 99999"),
    _was(22, ["fit", "signal.csv", "--seconds", "1"], "--seconds must be at least 2 s to detect R peaks, got 1"),
    _was(23, ["denoise", "signal.csv", "--method", "wavelet", "--levels", "20"], "--levels must be at most 11 for 3676",
         " samples, got 20"),
    *(
        _was(24 + 3 * i + j, [*cmd, "--fs", fs], f"--fs must be finite and positive, got {fs}")
        for i, cmd in enumerate(
            (["fit", "signal.csv"], ["mix", "signal.csv", "signal.csv", "--level", "6"], ["denoise", "signal.csv", *SG])
        )
        for j, fs in enumerate(("0", "nan", "inf"))
    ),
    _was(33, ["denoise", "signal.csv", *SG, "--polyorder", "-1"], "--polyorder must be non-negative", f"{WINDOW} -1"),
    _was(34, ["synth", "--out-dir", "new", "--noise-std", "nan"], "--noise-std must be finite and non-negative, got nan"),
    _was(35, ["synth", "--out-dir", "new", "--rr", "inf"], "--rr must be finite and above 0.2 s, got inf"),
    # These two read record 118 when their ids were given; the world's record is 121.
    *(
        P([*cmd, "--channel", "-1"], "--channel must be from 0 to 1 in record 121, got -1",
          id=f"argv{k}---channel must be from 0 to 1 in record 118, got -1")
        for k, cmd in ((36, ["fit", "121"]), (37, ["bench", "--records", "121", "--methods", "sg"]))
    ),
    # Sample counts above core.MAX_SAMPLES, rejected before anything is allocated.
    P(["synth", "--out-dir", "new", "--fs", "1e308"], "--fs must be at most 3.55254e+14 for 25.3542 s, got 1e+308",
      id="synth-fs-count"),
    P(["synth", "--out-dir", "new", "--beats", "2", "--rr", "1e308"],
      "--rr must be from 0 to 2.502e+13 s at 360 Hz, got inf", id="synth-rr-count-inf"),  # the intervals' total
    P(["synth", "--out-dir", "new", "--beats", "2", "--rr", "1e300"],
      "--rr must be from 0 to 2.502e+13 s at 360 Hz, got 2e+300", id="synth-rr-count"),
    P(["fit", "signal.csv", "--seconds", "1e300"], "--seconds must be from 0 to 2.502e+13 s at 360 Hz, got 1e+300",
      id="fit-seconds-count"),
    # More bins than the beats fill: model.mean_beat's size rule on n_bins.
    P(["fit", "signal.csv", "--bins", "5000"],
      "--bins must be few enough for every phase bin to receive a sample (bin 1 received none), got 5000", id="fit-bins-unfilled"),
    # denoise builds its FilterConfig before it reads any input, whatever the method.
    *(
        P(["denoise", "signal.csv", "--method", m, "--n-ensemble", "1", *more], f"--n-ensemble must be at least 2{ENSEMBLE}",
          id=f"denoise-{m}-n_ensemble")
        for m, more in (("sg", []), ("wavelet", []), ("tvd", []), ("nlms", ["--reference", "signal.csv"]))
    ),
    # A level the mix cannot reach: its power ratio overflows or underflows, or its gain changes no sample.
    *(
        P(["mix", "signal.csv", "noise360.csv", f"--level={v}"], LEVEL.format(v), id=f"level-{v}")
        for v in ("4000", "-4000", "-3100", "3070", "3000")
    ),
]
# A bad CSV file, a bad bench plan, or noise that breaks the noise rule.
PLAN_AND_FILE_ROWS = [
    # A bad CSV file, in each place a CSV file is read.
    *(
        P(_reading(CSV_READS[i], f"{bad}.csv"), f"{bad}.csv: {message}", id=f"argv{k}-{content}-{message}")
        for k, i in enumerate((0, 1, 2, 4))
        for bad, content, message in (
            ("inf", "t,mv\n0,1\n0.002777778,inf\n", "row 2: mv = inf is not a finite sample"),
            ("headonly", "t,mv\n", "no data rows after the header"),
        )
    ),
    *(
        P(_reading(argv, "abc.csv"), "abc.csv: row 2: non-numeric value in '0.002777778,abc'", id=f"argv{k}")
        for k, argv in enumerate(CSV_READS)
    ),
    P(
        ["denoise", "signal.csv", "--method", "nlms", "--reference", "ref250.csv"],
        "ref250.csv: row 2: t = 0.004 s is not sample 1 at 360 Hz; the t column runs at 250 Hz",
        id="reference-rate-mismatch",
    ),
    *(
        P(["denoise", "long.csv", "--method", m, "--reference", "nanref.csv"], "nanref.csv: row 51: mv = nan is not a finite sample",
          id=m)
        for m in ("nlms", "rls")
    ),
    P(["denoise", "signal.csv", "--method", "nlms"], "--method nlms requires --reference (the noise channel)",
      id="nlms-requires-reference"),
    # A bad bench plan.  An entry that a list flag's type cannot read is argparse's error.
    P([*BENCH, "--methods", "magic"], f"--methods must be one of {METHODS}, got 'magic'", id="flags0-method 'magic'"),
    *(
        P([*BENCH, "--duration", v], f"--duration must be finite and positive, got {v}", id=f"flags{k}-duration_s")
        for k, v in enumerate(("-1", "nan", "inf", "0"), 1)
    ),
    P([*BENCH, "--n-ensemble", "1"], f"--n-ensemble must be at least 2{ENSEMBLE}", id="flags5-n_ensemble"),
    P([*BENCH, "--levels", "inf"], "--levels must be finite, got inf", id="flags6-snr_levels"),
    P([*BENCH, "--jobs", "0"], "--jobs must be at least 1, got 0", id="flags7---jobs must be at least 1, got 0"),
    P([*BENCH, "--jobs", "-2"], "--jobs must be at least 1, got -2", id="flags8---jobs must be at least 1, got -2"),
    P([*BENCH, "--duration", "0.001"], "--duration must be long enough to keep a sample at 360 Hz, got 0.001",
      id="flags9-duration_s"),  # bench.trim's rule
    P([*BENCH, "--methods", ","], f"--methods must be one of {METHODS}, got ''", id="methods-empty-entry"),
    P([*BENCH, "--levels", "12,abc"], f"{UNREADABLE} '12,abc'", id="snr_levels-unreadable"),
    P([*BENCH, "--levels", ","], f"{UNREADABLE} ','", id="snr_levels-empty-entry"),
    P([*BENCH, "--duration", "1e300"], "--duration must be from 0 to 2.502e+13 s at 360 Hz, got 1e+300",
      id="duration_s-count"),  # core.sample_count's rule
    P([*BENCH, "--records", "121,"], "--records must be non-empty record names, got ''", id="records-empty-entry"),
    P([*BENCH, "--records", "121,119,121"], "--records must be free of repeats, got '121'", id="records-repeat"),
    P([*BENCH, "--methods", "sg,tvd,sg"], "--methods must be free of repeats, got 'sg'", id="methods-repeat"),
    P([*BENCH, "--levels", "12,6,12.0"], "--levels must be free of repeats, got 12", id="snr_levels-repeat"),
    # The plan rules (one rate, records before noise; 2 samples per record to score past the warm-up).
    P([*PLAN, "--duration", "2"], f"{WARM} 2", id="duration-scores-nothing"),
    P([*PLAN, "--duration", "2.003"], f"{WARM} 2.003", id="duration-scores-1-sample"),  # round(2.003 * 360) = 721 samples
    P([*PLAN, "--records", "121,brief"], "record brief: 540 samples, too few to score 2 past the 2 s warm-up",
      id="record-shorter-than-warm-up"),
    *(
        P([*PLAN, "--records", records, "--noise", noise], RATE.format(*bad, FIRST), id=f"{records}-{noise}")
        for noise in ("em", "noise360.csv")
        for records, bad in (("121,r250", ("r250", 250, 360)), ("r250,121", ("121", 360, 250)))
    ),
    P([*PLAN, "--noise", "em250"], RATE.format("em250", 250, 360, FIRST), id="bench-noise-record-250"),
    # The noise rule, one for mix and bench: a noise record at the signal's rate, or a "t,mv" CSV timed at it.
    P(["mix", "121", "em250", "--level", "12"], RATE.format("em250", 250, 360, "record 121"), id="mix-noise-record-250"),
    P(["mix", "r250", "em", "--level", "12"], RATE.format("em", 360, 250, "record r250"), id="record-250"),
    P(["mix", "121", "noise_mv.csv", "--level", "12"], UNTIMED.format("noise_mv.csv", 360), id="untimed-csv"),
    P([*BENCH[:-2], "--noise", "noise_mv.csv"], UNTIMED.format("noise_mv.csv", 360), id="bench-untimed-csv"),
    P(["mix", "121", "noise250.csv", "--level", "12"], TIMED_250, id="csv-250"),
    P([*BENCH[:-2], "--noise", "noise250.csv"], TIMED_250, id="bench-csv-250"),
    # --fs is the rate of a CSV input, not of the noise: an mv-only noise file is refused at any --fs.
    P(["mix", "r250", "noise_mv.csv", "--level", "12", "--fs", "250"], UNTIMED.format("noise_mv.csv", 250),
      id="untimed-csv-fs-250"),
    # An untimed noise CSV, whatever its line break.
    *(
        P([*BENCH[:-2], "--noise", f"noise_{nl}.csv"], UNTIMED.format(f"noise_{nl}.csv", 360), id=nl)
        for nl in ("lf", "crlf", "cr", "ff")
    ),
]
ROWS = [*INPUT_ROWS, *FLAG_ROWS, *PLAN_AND_FILE_ROWS]

# The rows also run through the console script: each case the shell step of
# CI once checked, and a missing file's OSError.
CONSOLE = {
    f"argv21---clean {PAIR.format(1000)}",
    "snr_levels-unreadable",
    "records-empty-entry",
    "denoise-sg-n_ensemble",
    "fit-bins-unfilled",
    "untimed-csv",
    "missing-input",
}


def _check(world: Path, status, err: str, before: list[Path], message: str) -> None:
    """Exit 2, exactly the row's message on stderr, and nothing written."""
    assert status == 2
    message = message.replace("ROOT", str(world))
    if message.startswith("ecgdenoise "):  # argparse's error: its usage lines, then the row's line
        assert err.startswith("usage: ecgdenoise ") and err.endswith(f"\n{message}\n"), err
    else:
        assert err == f"error: {message}\n"
    assert sorted(world.rglob("*")) == before


def run_in_process(world: Path, monkeypatch, capsys, argv: list[str], message: str) -> None:
    """Run cli.main on the row from the world directory, with bench's cells replaced by a recorder."""
    ran = []
    monkeypatch.setattr(bench, "run_cell", lambda *a: ran.append("run_cell"))
    monkeypatch.setattr(bench, "_fork_worker", lambda *a: ran.append("_fork_worker"))
    monkeypatch.chdir(world)
    monkeypatch.setenv(cli.DATA_ENV, str(world))
    before = sorted(world.rglob("*"))
    try:
        status = cli.main(argv)
    except SystemExit as exc:  # argparse's error
        status = exc.code
    _check(world, status, capsys.readouterr().err, before, message)
    assert ran == []


@pytest.mark.parametrize("argv, message", PLAN_AND_FILE_ROWS)
def test_in_process(world, monkeypatch, capsys, argv, message):
    run_in_process(world, monkeypatch, capsys, argv, message)


# Imported at the child's start-up, so a call of either leaves an exit status and a message no row expects.
NO_CELLS = """import ecgdenoise.bench as bench
def _never(*args):
    raise SystemExit("bench.run_cell or bench._fork_worker was called")
bench.run_cell = bench._fork_worker = _never
"""


@pytest.mark.parametrize("argv, message", [row for row in ROWS if row.id in CONSOLE])
def test_console_script(world, tmp_path, argv, message):
    (tmp_path / "sitecustomize.py").write_text(NO_CELLS)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [str(tmp_path), src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, cli.DATA_ENV: str(world), "PYTHONPATH": path}
    before = sorted(world.rglob("*"))
    argv = [sys.executable, "-m", "ecgdenoise.cli", *argv]
    done = subprocess.run(argv, cwd=world, env=env, capture_output=True, text=True)
    _check(world, done.returncode, done.stderr, before, message)
