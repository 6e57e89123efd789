"""WFDB header/signal/annotation parsing and CSV interchange.

The round-trip oracle is the test-only writer in wfdbgen: two independent
implementations of the same bit layouts must agree exactly.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wfdbgen
from ecgdenoise import wfdbio
from ecgdenoise.core import InputError, Signal
from references import read_csv_rows, write_csv_rows


class TestReadHeader:
    def test_field_mapping(self):
        text = "x 1 360 650000\nx.dat 212 200 11 1024 995 -22131 0 MLII\n"
        h = wfdbio.read_header(text)
        assert h.n_signals == 1
        assert h.fs == 360.0
        assert h.n_samples == 650000
        spec = h.signals[0]
        assert spec.gain == 200.0
        assert spec.baseline == 1024  # falls back to the ADC zero
        assert spec.checksum == -22131

    def test_record_118(self, data_root):
        h = wfdbio.read_header((data_root / "118.hea").read_text())
        assert h.n_signals == 2
        assert h.fs == 360.0

    def test_unsupported_format(self):
        text = "x 1 360 100\nx.dat 16 200 11 0 0 0 0 lead\n"
        with pytest.raises(wfdbio.HeaderParseError, match="line 2.*format"):
            wfdbio.read_header(text)

    @pytest.mark.parametrize("fields", ["x 995 -22131", "1024 x -22131", "1024 995 x"])
    def test_unreadable_integer_field_names_its_line(self, fields):
        # The ADC zero, the initial value and the checksum.
        text = f"x 1 360 4\nx.dat 212 200 11 {fields} 0 MLII\n"
        with pytest.raises(wfdbio.HeaderParseError, match="^line 2: unreadable integer field 'x'$"):
            wfdbio.read_header(text)

    def test_parenthesized_gain_and_units(self):
        text = "y 1 250 10\ny.dat 212 100(512)/mV 11 0 0 0 0 lead\n"
        spec = wfdbio.read_header(text).signals[0]
        assert spec.gain == 100.0
        assert spec.baseline == 512

    @pytest.mark.parametrize("rate", ["nan", "inf", "0", "-360"])
    def test_bad_rate_names_its_line(self, rate):
        text = f"# a comment\nx 1 {rate} 100\nx.dat 212 200 11 0 0 0 0 L\n"
        with pytest.raises(wfdbio.HeaderParseError, match=f"^line 2: fs must be finite and positive, got {rate}$"):
            wfdbio.read_header(text)

    @pytest.mark.parametrize("gain", ["nan", "inf", "-200"])
    def test_bad_gain_names_its_line(self, gain):
        # A nan gain would decode to all-NaN millivolts, an inf one to all zeros.
        text = f"x 1 360 100\nx.dat 212 {gain} 11 0 0 0 0 L\n"
        with pytest.raises(wfdbio.HeaderParseError, match=f"^line 2: gain must be finite and positive, got {gain}$"):
            wfdbio.read_header(text)

    def test_missing_signal_lines(self):
        with pytest.raises(wfdbio.HeaderParseError, match="declares 2"):
            wfdbio.read_header("x 2 360 100\nx.dat 212 200\n")

    def test_comment_lines_ignored(self):
        text = "# hello\nx 1 360 4\n# mid comment\nx.dat 212 200 11 0 0 0 0 L\n"
        assert wfdbio.read_header(text).n_samples == 4

    def test_gain_defaults(self):
        spec = wfdbio.read_header("x 1 360 4\nx.dat 212\n").signals[0]
        assert spec.gain == 200.0
        assert spec.baseline == 0


class TestDecode212:
    def test_zero_bytes(self):
        assert wfdbio.decode_212(bytes([0, 0, 0]), 2, 1).ravel().tolist() == [0, 0]

    def test_twos_complement(self):
        assert wfdbio.decode_212(bytes([0xFF, 0x0F, 0x00]), 2, 1).ravel().tolist() == [-1, 0]

    def test_truncated_payload(self):
        with pytest.raises(wfdbio.SignalDataError, match="truncated"):
            wfdbio.decode_212(bytes([0, 0, 0]), 4, 1)

    def test_odd_total(self):
        data = wfdbgen.encode_212(np.array([[5], [-7], [100]]))
        assert wfdbio.decode_212(data, 3, 1).ravel().tolist() == [5, -7, 100]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 40))
    @settings(max_examples=60)
    def test_encode_decode_round_trip(self, seed, n_signals, n_samples):
        rng = np.random.default_rng(seed)
        frames = rng.integers(-2048, 2048, size=(n_samples, n_signals))
        data = wfdbgen.encode_212(frames)
        assert np.array_equal(wfdbio.decode_212(data, n_samples, n_signals), frames)

    def test_checksum_matches_writer(self):
        rng = np.random.default_rng(1)
        adc = rng.integers(-2048, 2048, size=500)
        assert wfdbio.signal_checksum(adc) == wfdbgen.checksum16(adc)
        assert -0x8000 <= wfdbio.signal_checksum(adc) <= 0x7FFF


class TestAnnotations:
    def test_empty_stream(self):
        assert len(wfdbio.read_annotations(bytes([0, 0]))) == 0

    def test_single_normal_beat(self):
        word = bytes([77, (1 << 2) | 0])  # code 1, delta 77
        peaks = wfdbio.read_annotations(word + bytes([0, 0]))
        assert peaks.indices.tolist() == [77]

    def test_non_beat_codes_skipped(self):
        data = bytes([10, 1 << 2])  # beat at 10
        data += bytes([5, 28 << 2])  # rhythm change at 15: not a beat
        data += bytes([20, 1 << 2])  # beat at 35
        data += bytes([0, 0])
        assert wfdbio.read_annotations(data).indices.tolist() == [10, 35]

    def test_skip_interval(self):
        events = [(100, 1), (200_000, 1), (200_300, 1)]
        data = wfdbgen.write_annotations(events)
        assert wfdbio.read_annotations(data).indices.tolist() == [100, 200_000, 200_300]

    def test_aux_and_modifiers_consumed(self):
        data = bytes([50, 1 << 2])  # beat at 50
        data += bytes([3, 63 << 2]) + b"(N)\x00"  # AUX: 3 payload bytes plus pad
        data += bytes([2, 62 << 2])  # CHAN modifier
        data += bytes([7, 60 << 2])  # NUM modifier
        data += bytes([100, 1 << 2])  # beat at 150
        data += bytes([0, 0])
        assert wfdbio.read_annotations(data).indices.tolist() == [50, 150]

    def test_truncated_aux_is_error(self):
        data = bytes([50, 1 << 2]) + bytes([30, 63 << 2]) + b"xx"
        with pytest.raises(wfdbio.AnnotationParseError, match="byte"):
            wfdbio.read_annotations(data)

    def test_record_118_first_beats(self, dataset):
        data = (dataset.root / "118.atr").read_bytes()
        got = wfdbio.read_annotations(data).indices
        assert np.all(np.diff(got) > 0)
        if dataset.generated:
            expected = dataset.truth["118"].beats
            assert np.array_equal(got[:10], expected[:10])

    @given(st.data())
    @settings(max_examples=40)
    def test_writer_reader_round_trip(self, data):
        deltas = data.draw(st.lists(st.integers(1, 3000), min_size=1, max_size=30))
        samples = np.cumsum(deltas)
        events = [(int(s), 1) for s in samples]
        decoded = wfdbio.read_annotations(wfdbgen.write_annotations(events))
        assert decoded.indices.tolist() == [int(s) for s in samples]


class TestToMillivolts:
    def _header(self, gain=200.0, baseline=1024):
        text = f"x 1 360 3\nx.dat 212 {gain:g} 11 {baseline} 0 0 0 L\n"
        return wfdbio.read_header(text)

    def test_zero(self):
        h = self._header()
        out = wfdbio.to_millivolts(np.array([[1024], [1224], [824]]), h)
        assert out[0].samples.tolist() == [0.0, 1.0, -1.0]

    def test_record_in_physiologic_range(self, data_root):
        from ecgdenoise import bench

        sig, _ = bench.load_record(data_root, "118", 0)
        assert np.abs(sig.samples).max() < 5.0


class TestAssembleRecord:
    def test_checksum_mismatch_raises(self, data_root):
        header = wfdbio.read_header((data_root / "118.hea").read_text())
        dat = bytearray((data_root / "118.dat").read_bytes())
        dat[0] ^= 0x01  # corrupt one sample
        with pytest.raises(wfdbio.ChecksumError):
            wfdbio.assemble_record(header, bytes(dat))

    def test_all_channels_decoded(self, data_root):
        header = wfdbio.read_header((data_root / "118.hea").read_text())
        rec = wfdbio.assemble_record(
            header, (data_root / "118.dat").read_bytes(), (data_root / "118.atr").read_bytes()
        )
        assert len(rec.channels) == 2
        assert all(len(c) == header.n_samples for c in rec.channels)
        assert len(rec.r_peaks) > 10

    def test_no_samples_is_a_signal_data_error(self):
        # A count of 0 means "as many as the data holds": here none.
        header = wfdbio.read_header("x 1 360 0\nx.dat 212\n")
        for dat in (b"", b"\0"):
            with pytest.raises(wfdbio.SignalDataError, match=f"^no samples in {len(dat)} bytes of signal data$"):
                wfdbio.assemble_record(header, dat)

    def test_negative_sample_count_names_its_line(self):
        with pytest.raises(wfdbio.HeaderParseError, match="^line 1: sample count must be non-negative$"):
            wfdbio.read_header("x 1 360 -4\nx.dat 212\n")

    @pytest.mark.parametrize(
        "atr, outside",
        [
            (wfdbgen.write_annotations([(1, 1), (3, 1), (4, 1)]), 4),
            (wfdbgen.write_annotations([(2, 1), (900, 1)]), 900),
            # A SKIP of -2 samples, then a beat: the stream puts it at sample -2.
            (bytes([0, 59 << 2, 0xFF, 0xFF, 0xFE, 0xFF, 0, 1 << 2, 0, 0]), -2),
        ],
    )
    def test_beat_outside_the_samples_is_an_annotation_error(self, atr, outside):
        header = wfdbio.read_header("x 1 360 4\nx.dat 212\n")
        dat = wfdbgen.encode_212(np.zeros((4, 1), dtype=np.int64))
        inside = wfdbgen.write_annotations([(0, 1), (3, 1)])
        assert wfdbio.assemble_record(header, dat, inside).r_peaks.indices.tolist() == [0, 3]
        message = f"^beat at sample {outside} lies outside samples 0 to 3$"
        with pytest.raises(wfdbio.AnnotationParseError, match=message):
            wfdbio.assemble_record(header, dat, atr)

    def test_every_reader_error_is_an_input_error(self):
        own = {k: v for k, v in vars(wfdbio).items() if isinstance(v, type) and v.__module__ == wfdbio.__name__}
        errors = {k for k in own if k.endswith("Error")}
        assert errors == {"HeaderParseError", "SignalDataError", "AnnotationParseError", "ChecksumError", "CsvParseError"}
        assert all(issubclass(own[k], InputError) for k in errors)


class TestCsv:
    def test_read_mv_only(self):
        sig = wfdbio.read_csv(b"mv\n0.0\n1.5\n", fs=360.0)
        assert sig.samples.tolist() == [0.0, 1.5]
        assert sig.fs == 360.0

    def test_round_trip_exact(self):
        rng = np.random.default_rng(4)
        sig = Signal(rng.normal(size=40) * 2.3, 360.0)
        for data in (wfdbio.write_csv(sig), wfdbio.format_rows(sig.samples, head=b"mv\n")):
            back = wfdbio.read_csv(data, fs=360.0)
            assert np.array_equal(back.samples, sig.samples)

    def test_wrong_rate_rejected(self):
        data = wfdbio.write_csv(Signal(np.arange(20.0), 250.0))
        with pytest.raises(wfdbio.CsvParseError, match=r"row 2: .* 360 Hz; the t column runs at 250 Hz"):
            wfdbio.read_csv(data, fs=360.0)

    def test_non_numeric_cell(self):
        with pytest.raises(wfdbio.CsvParseError, match="row 1"):
            wfdbio.read_csv(b"mv\nabc\n", fs=360.0)

    @pytest.mark.parametrize("data", [b"mv\n1\n\xff\n", b"mv\n\n1\n\n2\xc3\n"])
    def test_non_utf8_row_named(self, data):
        with pytest.raises(wfdbio.CsvParseError, match=r"^row 2: invalid UTF-8 in "):
            wfdbio.read_csv(data, fs=360.0)

    @pytest.mark.parametrize(
        "data, row",
        [
            (b"t,mv\n1e400,1\n1e400,2\n", 1),
            (b"t,mv\n0,1\nnan,2\n", 2),
            (b"t,mv\n0,1\n-inf,2\n", 2),
            (b"t,mv\n0,1\n0.5,2\nnan,3\n", 3),  # named before the off-rate row 2
        ],
    )
    def test_non_finite_time_named_by_row(self, data, row):
        with pytest.raises(wfdbio.CsvParseError, match=rf"^row {row}: t = \S+ is not a finite time$"):
            wfdbio.read_csv(data, fs=360.0)

    @pytest.mark.parametrize(
        "data, row, value",
        [
            (b"mv\n1\nnan\n", 2, "nan"),
            (b"mv\n1e400\n2\n", 1, "inf"),  # the plain path: np.loadtxt reads inf
            (b"t,mv\n0,1\n0.002777778,-inf\n", 2, "-inf"),
        ],
    )
    def test_non_finite_sample_named_by_row(self, data, row, value):
        with pytest.raises(wfdbio.CsvParseError, match=rf"^row {row}: mv = {value} is not a finite sample$"):
            wfdbio.read_csv(data, fs=360.0)

    def test_time_span_overflow_is_a_bad_row(self):
        with pytest.raises(wfdbio.CsvParseError, match=r"^row 2: .* the t column runs at 0 Hz$"):
            wfdbio.read_csv(b"t,mv\n-1.7e308,1\n1.7e308,2\n", fs=360.0)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r", b"\x0c"], ids=["lf", "crlf", "cr", "ff"])
    def test_timed_read_needs_a_t_column(self, newline):
        data = newline.join([b"mv", b"1", b"2", b"3"]) + newline
        assert wfdbio.read_csv(data, fs=360.0).samples.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(wfdbio.CsvParseError, match=r"^no t column, so its rate cannot be checked against 360 Hz$"):
            wfdbio.read_csv(data, fs=360.0, timed=True)
        timed = wfdbio.write_csv(Signal(np.arange(3.0), 360.0))
        assert wfdbio.read_csv(timed, fs=360.0, timed=True).samples.tolist() == [0.0, 1.0, 2.0]

    def test_bad_header(self):
        with pytest.raises(wfdbio.CsvParseError, match="header"):
            wfdbio.read_csv(b"volts\n1.0\n", fs=360.0)


BLOCK = wfdbio.CSV_BLOCK_ROWS
# Extremes a float's text must survive: signed zero, subnormals, the smallest
# normal, the largest magnitudes.
EXTREME = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7e308, -1.7e308]


def _outcome(read, data, fs=360.0):
    try:
        sig = read(data, fs)
    except Exception as exc:  # the exact type and message are what is compared
        return type(exc), str(exc)
    return sig.samples.tobytes(), sig.samples.flags.c_contiguous


def _assert_reads_like_rows(data, fs=360.0):
    assert _outcome(wfdbio.read_csv, data, fs) == _outcome(read_csv_rows, data, fs)


class TestCsvCodec:
    """write_csv and read_csv against the one-row-at-a-time references."""

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 2 * BLOCK + 2),  # a Signal holds at least one sample
        pool=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16),
        seed=st.integers(0, 2**32 - 1),
        fs=st.sampled_from([360.0, 250.0, 128.0, 1000.0, 0.3]),
    )
    @example(n=BLOCK, pool=[], seed=0, fs=360.0)
    @example(n=BLOCK + 1, pool=[], seed=1, fs=0.3)
    @example(n=2 * BLOCK, pool=[], seed=2, fs=128.0)
    @example(n=2 * BLOCK + 1, pool=[1e300], seed=3, fs=1000.0)
    def test_write_matches_reference_bytes(self, n, pool, seed, fs):
        rng = np.random.default_rng(seed)
        choices = np.array(pool + EXTREME + rng.normal(size=8).tolist())
        samples = np.where(rng.random(n) < 0.5, rng.choice(choices, n), rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n))
        sig = Signal(samples, fs)
        assert wfdbio.write_csv(sig) == write_csv_rows(sig)
        assert wfdbio.format_rows(sig.samples, head=b"mv\n") == write_csv_rows(sig, with_time=False)
        head = sig.samples[:50].tolist()
        if head:  # the list form the fit trace uses
            assert wfdbio.format_rows(head) == ("\n".join(f"{v:.17g}" for v in head) + "\n").encode()

    def test_write_keeps_non_finite_text(self):
        # No Signal holds these; format_rows writes any array, as the fit trace needs.
        values = np.array([np.nan, np.inf, -np.inf, 1.0])
        assert wfdbio.format_rows(values, head=b"mv\n") == b"mv\nnan\ninf\n-inf\n1\n"
        timed = b"0.000000000,nan\n0.002777778,inf\n0.005555556,-inf\n0.008333333,1\n"
        assert wfdbio.format_rows(values, 360.0) == timed
        assert wfdbio.format_rows([]) == b""

    @pytest.mark.parametrize(
        "data",
        [
            # cells Python's float accepts and a strtod may not
            b"mv\n1_0\n",
            b"mv\n inf\n",
            b"mv\nnan\n",
            b"mv\n-Infinity\n",
            b"mv\n1e400\n",
            b"mv\n-1e400\n",
            b"mv\n1e-400\n",
            b"mv\n0x10\n",
            "mv\n\uff11\n".encode(),  # a full-width digit one
            "mv\n\u00a01\n".encode(),  # a no-break space
            b"mv\n1\x00\n",
            b"mv\n\xff\n",
            b"t,mv\n0, 1\n",
            b"t,mv\n0 ,1\n",
            # line breaks and blank lines
            b"t,mv\r\n0,1\r\n0.002777778,2\r\n",
            b"mv\r1\r2\r",
            b"mv\n1\x0c2\x0c",
            b"mv\n1\x0b2\n",
            b"mv\n1\x1c2\n",
            b"\n\nmv\n\n1\n\n\n2\n\n",
            b"mv\n1\n   \n2\n",
            # headers
            b"T , MV\n0,1\n",
            b"MV\n1\n",
            b"t,mv\n",
            b"mv",
            b"t,mv\r",
            b"\n \n",
            b"",
            b"volts\n1\n",
            b"t,mv,x\n0,1,2\n",
            # cell counts: the comma total of the first file is right, its rows are not
            b"t,mv\n0\n0,1,2\n",
            b"t,mv\n0,1,2\n0\n",
            b"mv\n1,2\n3,4\n",
            b"t,mv\n0\n",
            b"t,mv\n0,1\n1\n",
            # empty and malformed cells
            b"mv\n,\n",
            b"t,mv\n0,\n",
            b"t,mv\n,1\n",
            b"mv\n-\n",
            b"mv\n.\n",
            b"mv\n1e\n",
            b"mv\n1.5e+\n",
            b"mv\n--1\n",
            b"mv\n1-\n",
            b"mv\n1.2.3\n",
            b"mv\n+1\n.5\n1.\n1E5\n",
            b"mv\n1\n2\nx\n",
            # the t column
            b"t,mv\n0,1\n0.5,2\n",
            b"t,mv\n0,1\nnan,2\n",
            b"t,mv\n5,1\n5,2\n",
            b"t,mv\n1e400,1\n1e400,2\n",
            b"t,mv\n-1.7e308,1\n1.7e308,2\n",
            b"t,mv\n0,1\n0.5,2\n1e400,3\n",
        ],
    )
    def test_read_matches_reference_on_edge_table(self, data):
        _assert_reads_like_rows(data)

    @settings(max_examples=300)
    @given(
        head=st.sampled_from(["t,mv\n", "mv\n", "t,mv\r\n", "mv\r", "T,MV\n", "\nmv\n"]),
        body=st.text(alphabet="0123456789.eE+-,\r\n", max_size=60),
    )
    def test_read_matches_reference_on_plain_text(self, head, body):
        _assert_reads_like_rows((head + body).encode("ascii"), fs=1.0)

    @pytest.mark.parametrize("data", [b"t,mv\n", b"mv\n\r\n\n"])
    def test_header_only_is_rejected_without_warning(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(wfdbio.CsvParseError, match="^no data rows after the header$"):
                wfdbio.read_csv(data, fs=360.0)

    def test_written_files_take_the_plain_path(self):
        sig = Signal(np.array(EXTREME + [1.5, -2.25]), 360.0)
        for data in (wfdbio.write_csv(sig), wfdbio.format_rows(sig.samples, head=b"mv\n")):
            table = wfdbio._read_plain(data)
            assert table is not None and np.array_equal(table[:, -1], sig.samples)

    def test_full_length_round_trip(self):
        n = 30 * 60 * 360
        rng = np.random.default_rng(30)
        sig = Signal(np.cumsum(rng.normal(size=n)) * 1e-3 + rng.normal(size=n) * 0.05, 360.0)
        data = wfdbio.write_csv(sig)
        assert data.startswith(b"t,mv\n0.000000000,") and data.count(b"\n") == n + 1
        back = wfdbio.read_csv(data, fs=360.0)  # its t check passes
        assert back.samples.tobytes() == sig.samples.tobytes()
        with pytest.raises(wfdbio.CsvParseError, match=r"row 2: .* at 250 Hz; the t column runs at 360 Hz"):
            wfdbio.read_csv(data, fs=250.0)
