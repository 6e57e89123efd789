"""Bit-exact ingestion of PhysioNet WFDB records (header, format-212 signal
data, MIT annotation files) plus CSV import/export.

Only format 212 is supported; anything else is rejected loudly rather than
silently misdecoded.  All functions parse in-memory buffers; file access
belongs to the CLI layer.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .core import RPeaks, Signal

# Annotation codes that mark a beat (the standard WFDB beat set).
BEAT_CODES = frozenset(range(1, 14)) | {25, 34, 38}

_SKIP, _NUM, _SUB, _CHAN, _AUX = 59, 60, 61, 62, 63


class HeaderParseError(ValueError):
    """Malformed or unsupported header content; names the offending line."""


class SignalDataError(ValueError):
    """Signal payload truncated or inconsistent with the header."""


class AnnotationParseError(ValueError):
    """Malformed annotation stream; names the byte offset."""


class ChecksumError(ValueError):
    """Decoded samples do not match the header checksum."""


class CsvParseError(ValueError):
    """Non-numeric CSV cell; names the data row."""


@dataclass(frozen=True)
class SignalSpec:
    """One signal line of a header."""

    filename: str
    fmt: int
    gain: float  # ADC units per mV
    baseline: int  # ADC units at 0 mV
    adc_zero: int
    init_value: int
    checksum: int | None
    description: str


@dataclass(frozen=True)
class RecordHeader:
    record_name: str
    n_signals: int
    fs: float
    n_samples: int
    signals: tuple[SignalSpec, ...]


def read_header(text: str) -> RecordHeader:
    """Parse a WFDB .hea file.

    Defaults follow the WFDB conventions: gain 200 ADC/mV when absent or
    zero, baseline falling back to the ADC zero, which itself defaults to 0.
    """
    lines = [
        (i + 1, ln.strip())
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise HeaderParseError("line 1: empty header")

    lineno, record_line = lines[0]
    tok = record_line.split()
    if len(tok) < 2:
        raise HeaderParseError(f"line {lineno}: record line needs at least a name and signal count")
    name = tok[0]
    if "/" in name:
        raise HeaderParseError(f"line {lineno}: multi-segment records are not supported")
    try:
        n_signals = int(tok[1])
        fs = float(tok[2].split("/")[0].split("(")[0]) if len(tok) > 2 else 250.0
        n_samples = int(tok[3]) if len(tok) > 3 else 0
    except ValueError as exc:
        raise HeaderParseError(f"line {lineno}: {exc}") from None
    if n_signals < 1:
        raise HeaderParseError(f"line {lineno}: signal count must be at least 1")
    if fs <= 0:
        raise HeaderParseError(f"line {lineno}: sampling frequency must be positive")

    if len(lines) - 1 < n_signals:
        raise HeaderParseError(
            f"line {lines[-1][0]}: header declares {n_signals} signals but has {len(lines) - 1} signal lines"
        )
    specs = []
    for lineno, sig_line in lines[1 : 1 + n_signals]:
        specs.append(_parse_signal_line(lineno, sig_line))
    return RecordHeader(
        record_name=name,
        n_signals=n_signals,
        fs=fs,
        n_samples=n_samples,
        signals=tuple(specs),
    )


def _parse_signal_line(lineno: int, line: str) -> SignalSpec:
    tok = line.split()
    if len(tok) < 2:
        raise HeaderParseError(f"line {lineno}: signal line needs a filename and format")
    filename = tok[0]
    fmt_txt = tok[1]
    for sep in ("x", ":", "+"):
        fmt_txt = fmt_txt.split(sep)[0]
    try:
        fmt = int(fmt_txt)
    except ValueError:
        raise HeaderParseError(f"line {lineno}: unreadable format code {tok[1]!r}") from None
    if fmt != 212:
        raise HeaderParseError(f"line {lineno}: unsupported format code {fmt} (only 212 is handled)")

    gain = 200.0
    paren_baseline: int | None = None
    if len(tok) > 2:
        spec = tok[2].split("/")[0]
        if "(" in spec:
            gain_txt, rest = spec.split("(", 1)
            try:
                paren_baseline = int(rest.rstrip(")"))
            except ValueError:
                raise HeaderParseError(f"line {lineno}: unreadable baseline in {tok[2]!r}") from None
        else:
            gain_txt = spec
        try:
            gain = float(gain_txt)
        except ValueError:
            raise HeaderParseError(f"line {lineno}: unreadable gain {tok[2]!r}") from None
        if gain == 0.0:
            gain = 200.0
    if gain < 0:
        raise HeaderParseError(f"line {lineno}: gain must be positive")

    def _int_field(pos: int, default: int | None) -> int | None:
        if len(tok) > pos:
            try:
                return int(tok[pos])
            except ValueError:
                raise HeaderParseError(f"line {lineno}: unreadable integer field {tok[pos]!r}") from None
        return default

    adc_zero = _int_field(4, 0)
    init_value = _int_field(5, adc_zero)
    checksum = _int_field(6, None)
    description = " ".join(tok[8:]) if len(tok) > 8 else ""
    return SignalSpec(
        filename=filename,
        fmt=fmt,
        gain=gain,
        baseline=paren_baseline if paren_baseline is not None else adc_zero,
        adc_zero=adc_zero,
        init_value=init_value,
        checksum=checksum,
        description=description,
    )


def decode_212(data: bytes, n_samples: int, n_signals: int) -> np.ndarray:
    """Unpack format-212 bytes into an (n_samples, n_signals) int array of ADC counts.

    Two 12-bit two's-complement samples per 3 bytes: byte 0 carries the low 8
    bits of the first sample, the low nibble of byte 1 its high 4 bits; the
    high nibble of byte 1 carries the high 4 bits of the second sample and
    byte 2 its low 8 bits.
    """
    total = n_samples * n_signals
    pairs, odd = divmod(total, 2)
    needed = pairs * 3 + (2 if odd else 0)
    if len(data) < needed:
        raise SignalDataError(f"signal payload truncated: need {needed} bytes, have {len(data)}")
    raw = np.frombuffer(data, dtype=np.uint8, count=needed)
    flat = np.empty(total, dtype=np.int32)
    trip = raw[: pairs * 3].reshape(-1, 3).astype(np.int32)
    flat[0 : 2 * pairs : 2] = trip[:, 0] | ((trip[:, 1] & 0x0F) << 8)
    flat[1 : 2 * pairs : 2] = trip[:, 2] | ((trip[:, 1] & 0xF0) << 4)
    if odd:
        flat[-1] = int(raw[pairs * 3]) | ((int(raw[pairs * 3 + 1]) & 0x0F) << 8)
    flat[flat >= 2048] -= 4096
    return flat.reshape(n_samples, n_signals)


def signal_checksum(adc: np.ndarray) -> int:
    """16-bit signed sum with two's-complement wraparound, as stored in headers."""
    s = int(np.sum(adc, dtype=np.int64))
    return ((s + 0x8000) & 0xFFFF) - 0x8000


def to_millivolts(adc: np.ndarray, header: RecordHeader) -> list[Signal]:
    """Convert decoded ADC frames to one millivolt Signal per channel."""
    out = []
    for ch, spec in enumerate(header.signals):
        if spec.gain <= 0:
            raise ValueError(f"channel {ch}: gain must be positive")
        out.append(Signal((adc[:, ch] - spec.baseline) / spec.gain, header.fs))
    return out


def read_annotations(data: bytes) -> RPeaks:
    """Extract beat sample times from an MIT annotation stream.

    Times are cumulative deltas; SKIP extends the time base by a 32-bit
    interval, NUM/SUB/CHAN/AUX modifiers are consumed and ignored, and a zero
    word terminates the stream.  Only beat-class annotation codes contribute.
    """
    times: list[int] = []
    t = 0
    pos = 0
    n = len(data)
    while pos + 1 < n:
        b0, b1 = data[pos], data[pos + 1]
        code = b1 >> 2
        delta = ((b1 & 0x03) << 8) | b0
        if code == 0 and delta == 0:
            break
        if code == _SKIP:
            if pos + 6 > n:
                raise AnnotationParseError(f"byte {pos}: truncated SKIP interval")
            interval = (
                (data[pos + 3] << 24)
                | (data[pos + 2] << 16)
                | (data[pos + 5] << 8)
                | data[pos + 4]
            )
            if interval >= 1 << 31:
                interval -= 1 << 32
            t += interval
            pos += 6
            continue
        if code in (_NUM, _SUB, _CHAN):
            # Modifier without a preceding annotation is tolerated; skip it.
            pos += 2
            continue
        if code == _AUX:
            payload = delta + (delta & 1)
            if pos + 2 + payload > n:
                raise AnnotationParseError(f"byte {pos}: truncated AUX payload")
            pos += 2 + payload
            continue
        t += delta
        if code in BEAT_CODES:
            if times and t <= times[-1]:
                raise AnnotationParseError(f"byte {pos}: non-increasing beat time {t}")
            times.append(t)
        pos += 2
    return RPeaks(np.asarray(times, dtype=np.int64))


@dataclass(frozen=True)
class AnnotatedRecord:
    channels: tuple[Signal, ...]
    r_peaks: RPeaks


def assemble_record(
    header: RecordHeader,
    dat: bytes,
    atr: bytes | None = None,
) -> AnnotatedRecord:
    """Decode a record's signal payload and annotations against its header."""
    n_samples = header.n_samples
    if n_samples == 0:
        frames_bytes = len(dat)
        n_samples = (frames_bytes * 2) // (3 * header.n_signals)
    adc = decode_212(dat, n_samples, header.n_signals)
    for ch, spec in enumerate(header.signals):
        if spec.checksum is None:
            continue
        got = signal_checksum(adc[:, ch])
        if got != spec.checksum:
            raise ChecksumError(f"channel {ch}: checksum {got} does not match header {spec.checksum}")
    channels = tuple(to_millivolts(adc, header))
    peaks = read_annotations(atr) if atr is not None else RPeaks(np.empty(0, dtype=np.int64))
    return AnnotatedRecord(channels=channels, r_peaks=peaks)


CSV_BLOCK_ROWS = 16_384  # rows formatted by one % operation
_PLAIN = b"0123456789.eE+-,\r\n"  # finite numbers, commas and line breaks


def read_csv(data: bytes, fs: float) -> Signal:
    """Read a one-sample-per-row CSV with header "mv" or "t,mv".

    A "t" column must be finite and put data row k (from 0) at t_0 + k/fs
    within 1 us, so a file sampled at another rate is rejected rather than
    relabelled as fs.

    A file whose first line is "mv" or "t,mv" and whose other bytes are all
    in _PLAIN, as write_csv writes finite samples, is parsed by np.loadtxt.
    Any other file, and any that np.loadtxt rejects, goes through a per-row
    loop that accepts what Python's float accepts and names the first bad
    row.  Both parse a plain cell with CPython's string-to-double, so both
    give the same floats.
    """
    table = _read_plain(data)
    if table is None:
        table = _read_rows(data.decode("utf-8"))
    values = table[:, -1]
    if table.shape[1] == 2 and len(table):
        times = table[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite t or an inf span is a bad row
            off = np.abs((times - times[0]) - np.arange(len(times)) / fs)
        bad = np.flatnonzero(~(off <= 1e-6))  # NaN counts as bad
        if bad.size:
            # Every non-finite t is a bad row; searching only the bad rows
            # keeps a full-size mask out of the common path.
            nonfinite = bad[~np.isfinite(times[bad])]
            if nonfinite.size:
                k = int(nonfinite[0])
                raise CsvParseError(f"row {k + 1}: t = {times[k]:g} is not a finite time")
            k = int(bad[0])
            span = float(times[k]) - float(times[0])
            raise CsvParseError(
                f"row {k + 1}: t = {times[k]:.9g} s is not sample {k} at {fs:g} Hz; "
                f"the t column runs at {k / span if span else float('inf'):.6g} Hz"
            )
    return Signal(values, fs)


def _read_plain(data: bytes) -> np.ndarray | None:
    """The (rows, cells) table of a plain file, or None for read_csv's loop."""
    head, _, body = data.partition(b"\n")
    width = {b"mv": 1, b"t,mv": 2}.get(head.rstrip(b"\r"))
    if width is None or body.translate(None, _PLAIN):
        return None
    if not body.strip(b"\r\n"):  # np.loadtxt warns on an empty file
        return np.empty((0, width))
    try:
        table = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a bad cell or a changed cell count
        return None
    return table if table.shape[1] == width else None


def _read_rows(text: str) -> np.ndarray:
    """Parse row by row; the error names the first bad row."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CsvParseError("empty CSV")
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header not in (["mv"], ["t", "mv"]):
        raise CsvParseError(f'unrecognized CSV header {lines[0]!r}; expected "mv" or "t,mv"')
    width = len(header)
    table = np.empty((len(lines) - 1, width))
    for k, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) != width:
            raise CsvParseError(f"row {k + 1}: expected {width} cells, got {len(cells)}")
        try:
            table[k] = [float(c) for c in cells]
        except ValueError:
            raise CsvParseError(f"row {k + 1}: non-numeric value in {ln!r}") from None
    return table


def write_csv(signal: Signal) -> bytes:
    """Serialize a Signal as "t,mv" rows; samples carry 17 significant
    digits so a write-then-read round trip is exact."""
    return format_rows(signal.samples, signal.fs, head=b"t,mv\n")


def format_rows(values: np.ndarray | list[float], fs: float | None = None, head: bytes = b"") -> bytes:
    """head, then one line of "%.17g" text per value, which reads back as the
    same float; with fs, each line starts with the time k/fs as "%.9f,".

    Each block of CSV_BLOCK_ROWS lines is one % operation over the repeated
    line format, so no line or Python float exists for all values at once.
    """
    values = np.asarray(values, dtype=np.float64)
    line = "%.17g\n" if fs is None else "%.9f,%.17g\n"
    blocks = [head]
    for a in range(0, len(values), CSV_BLOCK_ROWS):
        b = min(a + CSV_BLOCK_ROWS, len(values))
        cells = values[a:b].tolist()
        if fs is not None:
            timed = [0.0] * (2 * len(cells))
            timed[0::2] = (np.arange(a, b) / fs).tolist()  # k / fs bit for bit, for k < 2**53
            timed[1::2] = cells
            cells = timed
        blocks.append((line * (b - a) % tuple(cells)).encode("ascii"))
    return b"".join(blocks)
