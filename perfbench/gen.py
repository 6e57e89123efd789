"""Build the benchmark's WFDB inputs from a seed.

    python3 perfbench/gen.py --seed 1 --out DIR

Writes the nine fixture records and the bw/ma/em noise records of
tests/wfdbgen.py, plus `short` (60 s) and `long` (30 min, 648,000 samples,
MIT-BIH length).  wfdbgen keys its generator on the record name; this
wrapper salts that key with the seed, so one seed always gives the same
bytes.  run.py calls it in its own process, because wfdbgen imports
ecgdenoise and would warm the import that setup_s measures.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

import wfdbgen  # noqa: E402

EXTRA_RECORDS = {"short": 60, "long": 1800}
MAX_ATTEMPTS = 20


def seeded_rng(seed: int, attempt: int):
    def record_rng(name: str, salt: str = "") -> np.random.Generator:
        digest = hashlib.sha256(f"perfbench|{seed}|{attempt}|{name}|{salt}".encode()).digest()
        return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "little")))

    return record_rng


def make_record(out: Path, seed: int, name: str, seconds: float) -> None:
    # wfdbgen draws one R-R interval per beat with two beats of margin; over a
    # long record the drawn beats can fall short of the length, which it
    # rejects with ValueError.  Redraw under the next attempt's key then.
    for attempt in range(MAX_ATTEMPTS):
        wfdbgen._record_rng = seeded_rng(seed, attempt)
        try:
            wfdbgen.make_ecg_record(out, name, seconds)
            return
        except ValueError:
            continue
    raise RuntimeError(f"record {name}: no valid draw in {MAX_ATTEMPTS} attempts")


def build(out: Path, seed: int) -> None:
    for name, seconds in {**wfdbgen.RECORD_SECONDS, **EXTRA_RECORDS}.items():
        make_record(out, seed, name, seconds)
    wfdbgen._record_rng = seeded_rng(seed, 0)
    for kind, seconds in wfdbgen.NOISE_SECONDS.items():
        wfdbgen.make_noise_record(out, kind, seconds)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    build(args.out, args.seed)
