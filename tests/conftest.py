"""Shared fixtures: the dataset root resolves to real PhysioNet files when
ECGDENOISE_DATA points at them, otherwise a deterministic synthetic WFDB
dataset is generated once per session; the bad-input world is synthetic
whatever ECGDENOISE_DATA holds."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import wfdbgen
from ecgdenoise import cli, wfdbio
from ecgdenoise.core import Signal
from ecgdenoise.model import default_morphology

settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")


@dataclass
class Dataset:
    root: Path
    generated: bool
    truth: dict  # record name -> wfdbgen.RecordTruth; empty for real data


@pytest.fixture(scope="session")
def dataset(tmp_path_factory) -> Dataset:
    env = os.environ.get("ECGDENOISE_DATA")
    if env and (Path(env) / "118.hea").exists():
        return Dataset(root=Path(env), generated=False, truth={})
    root = tmp_path_factory.mktemp("wfdb_fixtures")
    truth = wfdbgen.build_dataset(root)
    return Dataset(root=root, generated=True, truth=truth)


@pytest.fixture(scope="session")
def data_root(dataset) -> Path:
    return dataset.root


_WAVES = default_morphology().to_dict()


@pytest.fixture(scope="module")
def world(tmp_path_factory) -> Path:
    """One synthetic WFDB root holding every input the bad-input table names,
    each a file or record the rows refer to by relative name:
    - records 121 (7,200 samples at 360 Hz) and em; r250 (an ECG record at
      250 Hz), em250 (the em noise at 250 Hz) and brief (1.5 s at 360 Hz,
      shorter than bench's warm-up);
    - one bad record per way a WFDB record can be wrong, each but "empty" and
      "badhea" built on 121: trunc, sum, late, empty, badhea and latin; and
      comment, 121 with a header comment that is not UTF-8;
    - signal.csv (12 synthetic beats, 3,676 samples, with phase.csv and
      peaks.csv), long.csv and short.csv (2,000 and 1,000 samples), and bad
      CSV files: inf.csv, headonly.csv, abc.csv, latin1.csv, nanref.csv (a
      NaN in row 51) and ref250.csv (signal.csv's length at 250 Hz);
    - noise CSVs: noise360.csv (timed at 360 Hz), noise250.csv (timed at
      250 Hz), noise_mv.csv and noise_{lf,crlf,cr,ff}.csv (untimed);
    - morphology files that are not valid: no-b, list, 3-waves, nan-width
      and broken-json (.json)."""
    root = tmp_path_factory.mktemp("world")
    wfdbgen.make_ecg_record(root, "121", wfdbgen.RECORD_SECONDS["121"])
    wfdbgen.make_noise_record(root, "em", wfdbgen.NOISE_SECONDS["em"])
    wfdbgen.make_ecg_record(root, "r250", wfdbgen.RECORD_SECONDS["121"], fs=250.0)
    wfdbgen.make_ecg_record(root, "brief", 1.5)
    slow = tmp_path_factory.mktemp("em250")
    wfdbgen.make_noise_record(slow, "em", wfdbgen.NOISE_SECONDS["em"], fs=250.0)
    head, body = (slow / "em.hea").read_text().split("\n", 1)
    (root / "em250.hea").write_text(head.replace("em", "em250", 1) + "\n" + body.replace("em.dat", "em250.dat"))
    (root / "em250.dat").write_bytes((slow / "em.dat").read_bytes())

    hea, dat = (root / "121.hea").read_text(), (root / "121.dat").read_bytes()
    for name in ("trunc", "sum", "late"):
        (root / f"{name}.hea").write_text(hea.replace("121.dat", f"{name}.dat"))
    (root / "trunc.dat").write_bytes(dat[:1000])
    assert dat[3000:3003] != bytes(3)
    (root / "sum.dat").write_bytes(dat[:3000] + bytes(3) + dat[3003:])
    (root / "late.dat").write_bytes(dat)
    beats = wfdbio.read_annotations((root / "121.atr").read_bytes()).indices.tolist()
    (root / "late.atr").write_bytes(wfdbgen.write_annotations([(b, 1) for b in beats + [7200]]))
    (root / "empty.hea").write_text("empty 1 360 0\nempty.dat 212\n")
    (root / "empty.dat").write_bytes(b"")
    (root / "badhea.hea").write_text("badhea 1 360\nbadhea.dat 16\n")
    # Bytes that are not UTF-8: in a field, and (a good record) in a comment.
    (root / "latin.hea").write_bytes(hea.replace("121.dat 212", "121.dat 2\xb512", 1).encode("latin-1"))
    (root / "comment.hea").write_bytes((hea + "# caf\xe9\n").encode("latin-1"))

    assert cli.main(["synth", "--out-dir", str(root), "--beats", "12"]) == 0
    n = len(wfdbio.read_csv((root / "signal.csv").read_bytes(), 360.0))
    files = {
        "long.csv": wfdbio.write_csv(Signal(np.sin(np.arange(2000) / 9.0), 360.0)),
        "short.csv": wfdbio.write_csv(Signal(np.sin(np.arange(1000) / 9.0), 360.0)),
        "inf.csv": b"t,mv\n0,1\n0.002777778,inf\n",
        "headonly.csv": b"t,mv\n",
        "abc.csv": b"t,mv\n0,1\n0.002777778,abc\n",
        "latin1.csv": b"mv\n1\n\xb5\n",
        "ref250.csv": wfdbio.write_csv(Signal(np.zeros(n), 250.0)),
        "noise360.csv": wfdbio.write_csv(Signal(np.random.default_rng(0).normal(size=30000), 360.0)),
        "no-b.json": json.dumps({"alpha": _WAVES["alpha"], "theta": _WAVES["theta"]}),
        "list.json": "[1, 2]",
        "3-waves.json": json.dumps({k: v[:3] for k, v in _WAVES.items()}),
        "nan-width.json": json.dumps({**_WAVES, "b": [0.25, float("nan"), 0.1, 0.1, 0.4]}),
        "broken-json.json": '{"alpha": [1,',
    }
    reference = np.random.default_rng(0).normal(size=2000)
    reference[50] = np.nan
    files["nanref.csv"] = wfdbio.format_rows(reference, 360.0, head=b"t,mv\n")
    noise = np.random.default_rng(0).normal(size=3000)
    files["noise_mv.csv"] = wfdbio.format_rows(noise, head=b"mv\n")
    files["noise250.csv"] = wfdbio.write_csv(Signal(noise, 250.0))
    for name, newline in {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r", "ff": b"\x0c"}.items():
        files[f"noise_{name}.csv"] = newline.join([b"mv", *(b"%d" % (k % 7) for k in range(3000))]) + newline
    for name, content in files.items():
        (root / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return root
