import csv
import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest

from kashin import cli, conversion, formats, frames, linalg, uncertainty
from kashin.errors import FormatError, InvalidParams

from conftest import run_with_memory_cap


def _sample_rep(frame_8x16):
    cfg = conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=0.97, delta=2 / 16),
        truncation=conversion.TruncationSpec(),
        iterations=3,
    )
    g = linalg.rng_from_seed(77)
    x = g.standard_normal(8) + 1j * g.standard_normal(8)
    return conversion.kashin_encode(frame_8x16, x, cfg)


def _frame_bytes(tmp_path, frame) -> bytes:
    """The bytes :func:`formats.write_frame` writes for ``frame``."""
    path = tmp_path / "written.kfrm"
    formats.write_frame(path, frame)
    return path.read_bytes()


def _read_blob(tmp_path, blob: bytes) -> frames.FrameMatrix:
    """Read ``blob`` as a frame file."""
    path = tmp_path / "blob.kfrm"
    path.write_bytes(blob)
    return formats.read_frame(path)


class TestFrameFiles:
    def test_dense_round_trip_bit_identical(self, tmp_path, frame_8x16):
        path = tmp_path / "f.kfrm"
        formats.write_frame(path, frame_8x16)
        back = formats.read_frame(path)
        assert (back.n, back.N, back.kind) == (8, 16, frames.DENSE)
        assert np.array_equal(back.matrix, frame_8x16.matrix)
        assert back.tightness_eps == pytest.approx(
            frame_8x16.tightness_eps, abs=1e-12
        )
        # writing the frame read back reproduces the exact bytes
        assert _frame_bytes(tmp_path, back) == path.read_bytes()

    def test_fourier_round_trip(self, tmp_path):
        f = frames.gen_partial_fourier(16, 8, 3, mode=frames.EXACT_N)
        path = tmp_path / "pf.kfrm"
        formats.write_frame(path, f)
        back = formats.read_frame(path)
        assert back.kind == frames.PARTIAL_FOURIER
        assert np.array_equal(back.omega, f.omega)
        assert _frame_bytes(tmp_path, back) == path.read_bytes()
        assert path.read_bytes() == (
            struct.pack("<4sHBII", b"KFRM", 1, 1, 8, 16)
            + f.omega.astype("<u4").tobytes()
        )

    @pytest.mark.parametrize("io", ["write", "read"])
    def test_dense_io_peak_memory(self, tmp_path, io):
        # writing may copy the matrix once into row-major order; reading
        # fills the frame's own array from the file, and holds no other
        # copy of the payload
        f = frames.gen_random_orthogonal(256, 1024, 1)
        path = tmp_path / "f.kfrm"
        formats.write_frame(path, f)
        tracemalloc.start()
        try:
            if io == "write":
                formats.write_frame(path, f)
            else:
                back = formats.read_frame(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # slack for file buffers and the parsed header
        assert peak <= f.matrix.nbytes + (1 << 16)
        assert path.read_bytes() == (
            struct.pack("<4sHBII", b"KFRM", 1, 2, 256, 1024)
            + f.matrix.astype("<f8").tobytes()
        )
        if io == "read":
            assert np.array_equal(back.matrix, f.matrix)

    def test_bad_magic(self, tmp_path, frame_8x16):
        blob = bytearray(_frame_bytes(tmp_path, frame_8x16))
        blob[:4] = b"JUNK"
        with pytest.raises(FormatError):
            _read_blob(tmp_path, bytes(blob))

    def test_bad_version(self, tmp_path, frame_8x16):
        blob = bytearray(_frame_bytes(tmp_path, frame_8x16))
        blob[4:6] = struct.pack("<H", 9)
        with pytest.raises(FormatError):
            _read_blob(tmp_path, bytes(blob))

    def test_bad_kind_code(self, tmp_path, frame_8x16):
        blob = bytearray(_frame_bytes(tmp_path, frame_8x16))
        blob[6] = 7
        with pytest.raises(FormatError):
            _read_blob(tmp_path, bytes(blob))

    def test_truncated_everywhere(self, tmp_path, frame_8x16):
        blob = _frame_bytes(tmp_path, frame_8x16)
        with pytest.raises(FormatError):
            _read_blob(tmp_path, blob[:5])
        with pytest.raises(FormatError):
            _read_blob(tmp_path, blob[:-8])
        with pytest.raises(FormatError):
            _read_blob(tmp_path, blob + b"\x00" * 4)

    def test_length_checked_before_payload_is_allocated(self, tmp_path):
        # the header claims a 2^20 x 2^20 dense matrix, 16 TiB
        blob = struct.pack("<4sHBII", b"KFRM", 1, 0, 1 << 20, 1 << 20) + bytes(16)
        with pytest.raises(FormatError):
            _read_blob(tmp_path, blob)

    def test_inconsistent_dimensions(self, tmp_path):
        blob = struct.pack("<4sHBII", b"KFRM", 1, 0, 4, 2)
        with pytest.raises(FormatError):
            _read_blob(tmp_path, blob)

    @pytest.mark.parametrize("code, n, N, payload", [
        (2, 0, 8, b""), (1, 0, 8, b""), (1, 0, 0, b""), (2, 3, 2, bytes(48)),
        (1, 3, 2, np.arange(3, dtype="<u4").tobytes()),
    ])
    def test_dimensions_without_n_at_most_N_are_refused_by_the_frame(
            self, tmp_path, code, n, N, payload):
        # the payload holds what the header declares, an empty one included,
        # so it is the frame's own rule 1 <= n <= N that refuses the file
        blob = struct.pack("<4sHBII", b"KFRM", 1, code, n, N) + payload
        with pytest.raises(FormatError, match="must be a whole number >= "):
            _read_blob(tmp_path, blob)

    def test_unsorted_indices_rejected(self, tmp_path):
        header = struct.pack("<4sHBII", b"KFRM", 1, 1, 2, 8)
        payload = np.array([5, 3], dtype="<u4").tobytes()
        with pytest.raises(FormatError):
            _read_blob(tmp_path, header + payload)
        payload = np.array([3, 8], dtype="<u4").tobytes()  # out of range
        with pytest.raises(FormatError):
            _read_blob(tmp_path, header + payload)


class TestOversizedFourierFiles:
    """A partial Fourier file stores n indices, not N, so 19 bytes can
    declare N = 2^31; N above the cap of 2^24 is a malformed file."""

    REFUSAL = "partial Fourier frames need N <= 2^24, got N=2147483648"

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "huge.kfrm"
        header = struct.pack("<4sHBII", b"KFRM", 1, 1, 1, 1 << 31)
        path.write_bytes(header + np.array([7], dtype="<u4").tobytes())
        assert path.stat().st_size == 19
        return path

    def test_read_frame_refuses_it(self, path):
        with pytest.raises(FormatError, match=r"N <= 2\^24"):
            formats.read_frame(path)

    def test_info_exits_one(self, path, capsys):
        assert cli.run(["info", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {self.REFUSAL}\n"

    @pytest.mark.parametrize("command", ["encode", "up-check"])
    def test_commands_exit_one_before_allocating(self, path, tmp_path, command):
        vec = tmp_path / "x.vec"
        formats.write_vector(vec, np.array([1.0]))
        argv = {
            "encode": ["encode", str(path), "--in", str(vec), "--eta", "0.9",
                       "--delta", "0.05", "--iters", "3",
                       "--out", str(tmp_path / "a.kcof")],
            "up-check": ["up-check", str(path), "--delta", "0.05", "--trials", "2"],
        }[command]
        done = run_with_memory_cap(
            f"import sys\nfrom kashin import cli\nsys.exit(cli.run({argv!r}))\n")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {self.REFUSAL}\n"


class TestNonFiniteFrameFiles:
    @staticmethod
    def _blob(frame_8x16, code, bad):
        dtype = "<f8" if code == 2 else "<c16"
        m = np.array(frame_8x16.matrix, dtype=dtype)
        m[2, 3] = bad if code == 2 else complex(0.5, bad)
        header = struct.pack("<4sHBII", b"KFRM", 1, code, 8, 16)
        return header + m.tobytes()

    @pytest.mark.parametrize("code", [2, 0], ids=["real", "complex"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_entry_is_a_format_error(self, tmp_path, capsys,
                                                  frame_8x16, code, bad):
        blob = self._blob(frame_8x16, code, bad)
        with pytest.raises(FormatError, match="NaN or infinite"):
            _read_blob(tmp_path, blob)
        path = tmp_path / "bad.kfrm"
        path.write_bytes(blob)
        assert cli.run(["info", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NaN or infinite" in captured.err

    @pytest.mark.parametrize("code", [2, 0], ids=["real", "complex"])
    def test_a_gram_matrix_that_overflows_is_refused(self, tmp_path, capsys,
                                                     frame_8x16, code):
        # finite entries whose products overflow U U*: numpy's eigensolver
        # would fail to converge on the infinite Gram matrix
        blob = self._blob(frame_8x16, code, 1e200)
        frame = _read_blob(tmp_path, blob)
        with pytest.raises(InvalidParams, match="not finite"):
            frame.tightness_eps
        path = tmp_path / "big.kfrm"
        path.write_bytes(blob)
        assert cli.run(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: the frame's Gram matrix U U* is not finite\n"


class TestRealFrameFiles:
    def test_kind_code_follows_the_matrix_dtype(self, tmp_path, frame_8x16):
        blob = _frame_bytes(tmp_path, frame_8x16)
        assert blob[6] == 2
        assert len(blob) == 15 + 8 * 8 * 16
        g = linalg.rng_from_seed(3)
        u = np.linalg.qr(g.standard_normal((16, 8)) + 1j * g.standard_normal((16, 8)))[0]
        f = frames.FrameMatrix(n=8, N=16, kind=frames.DENSE, matrix=u.conj().T)
        blob = _frame_bytes(tmp_path, f)
        assert blob[6] == 0
        back = _read_blob(tmp_path, blob)
        assert back.matrix.dtype == np.complex128
        assert np.array_equal(back.matrix, f.matrix)

    def test_kind_zero_file_of_a_real_matrix_reads_as_float64(self, tmp_path,
                                                              frame_8x16):
        header = struct.pack("<4sHBII", b"KFRM", 1, 0, 8, 16)
        payload = np.ascontiguousarray(frame_8x16.matrix, dtype="<c16").tobytes()
        back = _read_blob(tmp_path, header + payload)
        assert back.matrix.dtype == np.float64
        assert np.array_equal(back.matrix, frame_8x16.matrix)

    def test_kind_two_payload_length_checked(self, tmp_path, frame_8x16):
        blob = _frame_bytes(tmp_path, frame_8x16)
        for bad in (blob[:-8], blob[:-1], blob + bytes(8)):
            with pytest.raises(FormatError, match="dense payload"):
                _read_blob(tmp_path, bad)

    def test_read_back_coefficients_decode_bit_identically(self, tmp_path,
                                                           frame_64x128):
        # a real frame and real data give float64 coefficients; the file
        # holds them as complex128, and decoding either runs the same GEMV
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.9, delta=0.05),
            truncation=conversion.TruncationSpec(),
            iterations=6,
            frame_epsilon=frame_64x128.tightness_eps + 1e-12,
        )
        x = linalg.rng_from_seed(9).standard_normal(64)
        rep = conversion.kashin_encode(frame_64x128, x, cfg)
        assert rep.coefficients.dtype == np.float64
        path = tmp_path / "c.kcof"
        formats.write_representation(path, rep)
        back = formats.read_representation(path)
        assert back.coefficients.dtype == np.complex128
        decoded = conversion.kashin_decode(frame_64x128, back)
        assert decoded.tobytes() == conversion.kashin_decode(frame_64x128, rep).tobytes()


class TestCoefficientFiles:
    def test_round_trip(self, tmp_path, frame_8x16):
        rep = _sample_rep(frame_8x16)
        path = tmp_path / "c.kcof"
        formats.write_representation(path, rep)
        back = formats.read_representation(path)
        assert np.array_equal(back.coefficients, rep.coefficients)
        assert back.level_K == rep.level_K
        assert back.input_norm == rep.input_norm
        assert back.residual_bound == rep.residual_bound
        assert back.iterations_used == 0  # not serialized
        assert formats.representation_to_bytes(back) == path.read_bytes()

    def test_bad_magic_and_version(self, frame_8x16):
        rep = _sample_rep(frame_8x16)
        blob = bytearray(formats.representation_to_bytes(rep))
        tampered = blob.copy()
        tampered[:4] = b"XXXX"
        with pytest.raises(FormatError):
            formats.representation_from_bytes(bytes(tampered))
        tampered = blob.copy()
        tampered[4:6] = struct.pack("<H", 2)
        with pytest.raises(FormatError):
            formats.representation_from_bytes(bytes(tampered))

    def test_bad_certificate_fields(self):
        payload = np.zeros(4, dtype="<c16").tobytes()
        for level, norm, bound in (
            (math.nan, 1.0, 0.0),
            (1.0, -1.0, 0.0),
            (1.0, 1.0, math.inf),
        ):
            header = struct.pack(
                "<4sHIddd", b"KCOF", 1, 4, level, norm, bound
            )
            with pytest.raises(FormatError):
                formats.representation_from_bytes(header + payload)

    def test_zero_count_and_length_mismatch(self, frame_8x16):
        header = struct.pack("<4sHIddd", b"KCOF", 1, 0, 1.0, 1.0, 0.0)
        with pytest.raises(FormatError):
            formats.representation_from_bytes(header)
        rep = _sample_rep(frame_8x16)
        blob = formats.representation_to_bytes(rep)
        with pytest.raises(FormatError):
            formats.representation_from_bytes(blob[:-16])

    def test_level_certificate_revalidated_on_read(self):
        # a file claiming a tiny level over large coefficients must not
        # deserialize into a trusted container
        header = struct.pack("<4sHIddd", b"KCOF", 1, 4, 0.1, 1.0, 0.0)
        payload = np.array([1.0, 0, 0, 0], dtype="<c16").tobytes()
        with pytest.raises(FormatError):
            formats.representation_from_bytes(header + payload)

    @pytest.mark.parametrize("bad", [
        complex(math.nan, 0.0), complex(0.0, math.nan),
        complex(math.inf, 0.0), complex(0.0, -math.inf),
    ])
    def test_non_finite_coefficient_fails_the_level_check(self, bad):
        # NaN compares False against any cap, so the check must be written
        # to fail unless the peak is provably within it
        header = struct.pack("<4sHIddd", b"KCOF", 1, 4, 10.0, 1.0, 0.0)
        payload = np.array([bad, 0.1, 0, 0], dtype="<c16").tobytes()
        with pytest.raises(FormatError, match="certified level bound"):
            formats.representation_from_bytes(header + payload)


class TestVectorFiles:
    def test_ascii_round_trip_exact(self, tmp_path):
        v = np.array(
            [0.1 + 1 / 3 * 1j, -2.5e-300 + 0j, 7.0 - math.pi * 1j, 0.0 + 0.0j]
        )
        path = tmp_path / "x.vec"
        formats.write_vector(path, v)
        assert np.array_equal(formats.read_vector(path), v)

    def test_ascii_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.vec"
        path.write_text("1 2\n\n3 4\n")
        assert np.array_equal(
            formats.read_vector(path), np.array([1 + 2j, 3 + 4j])
        )

    def test_binary_round_trip_bit_identical(self, tmp_path):
        g = linalg.rng_from_seed(13)
        v = g.standard_normal(32) + 1j * g.standard_normal(32)
        path = tmp_path / "x.vec"
        formats.write_vector(path, v, fmt=formats.BINARY)
        assert np.array_equal(formats.read_vector(path, fmt=formats.BINARY), v)

    def test_ascii_malformed(self, tmp_path):
        path = tmp_path / "x.vec"
        path.write_text("1 2 3\n")
        with pytest.raises(FormatError):
            formats.read_vector(path)
        path.write_text("1 banana\n")
        with pytest.raises(FormatError):
            formats.read_vector(path)
        path.write_text("\n")
        with pytest.raises(FormatError):
            formats.read_vector(path)

    def test_ascii_text_is_seventeen_digit_pairs(self, tmp_path):
        path = tmp_path / "x.vec"
        formats.write_vector(path, np.array([0.1 + 1 / 3 * 1j, -0.0 - 2e-300j, 5.0]))
        assert path.read_text() == (
            "0.10000000000000001 0.33333333333333331\n"
            "-0 -2.0000000000000001e-300\n"
            "5 0\n"
        )
        assert np.array_equal(
            formats.read_vector(path).view(np.float64),
            np.array([0.1, 1 / 3, -0.0, -2e-300, 5.0, 0.0]),
        )
        assert np.signbit(formats.read_vector(path)[1].real)

    def test_ascii_error_names_the_first_bad_line(self, tmp_path):
        path = tmp_path / "x.vec"
        path.write_text("1 2\n\n3 4 5\n6 x\n")
        with pytest.raises(FormatError, match=r"^line 3: expected `re im`, got '3 4 5'$"):
            formats.read_vector(path)
        path.write_text("1 2\n\n3 x\n4 5 6\n")
        with pytest.raises(FormatError, match=r"^line 3: could not convert string to float: 'x'$"):
            formats.read_vector(path)

    @pytest.mark.parametrize("fmt", [formats.ASCII, formats.BINARY])
    @pytest.mark.parametrize("bad", [
        complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0),
    ])
    def test_a_non_finite_entry_is_a_format_error(self, tmp_path, fmt, bad):
        path = tmp_path / "x.vec"
        formats.write_vector(path, np.array([1.0, 2.0, bad, 4.0]), fmt=fmt)
        with pytest.raises(FormatError, match=r"^vector entry 3 is NaN or infinite$"):
            formats.read_vector(path, fmt=fmt)

    def test_binary_bad_length(self, tmp_path):
        path = tmp_path / "x.vec"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(FormatError):
            formats.read_vector(path, fmt=formats.BINARY)
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            formats.read_vector(path, fmt=formats.BINARY)

    def test_unknown_format_tag(self, tmp_path):
        path = tmp_path / "x.vec"
        with pytest.raises(FormatError):
            formats.write_vector(path, np.ones(2), fmt="json")
        formats.write_vector(path, np.ones(2))
        with pytest.raises(FormatError):
            formats.read_vector(path, fmt="json")


class TestExperimentCsv:
    @staticmethod
    def _rows():
        return [
            formats.ExperimentRow(
                family="orthogonal", n=64, N=128, up_eta=0.1 + 0.2,
                up_delta=1 / 3, K=math.pi, L=64, model="quantize-only",
                damage_fraction=0.0, seed=7, l2_error=1e-17,
                bound=2.5, bound_ok=True,
            ),
            formats.ExperimentRow(
                family="fourier", n=8, N=16, up_eta=0.9646048100037904,
                up_delta=0.125, K=4.83, L=16, model="erasure",
                damage_fraction=4 / 128, seed=8, l2_error=0.25,
                bound=0.2, bound_ok=False,
            ),
        ]

    def test_round_trip_exact(self, tmp_path):
        # every float cell parses back to the value written
        path = tmp_path / "rows.csv"
        rows = self._rows()
        formats.write_experiment_csv(path, rows)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        floats = [f.name for f in dataclasses.fields(formats.ExperimentRow)
                  if f.type == "float"]
        assert floats == ["up_eta", "up_delta", "K", "damage_fraction",
                          "l2_error", "bound"]
        assert len(records) == len(rows)
        for record, row in zip(records, rows):
            for name in floats:
                assert float(record[name]) == getattr(row, name)

    def test_header_written(self, tmp_path):
        path = tmp_path / "rows.csv"
        formats.write_experiment_csv(path, self._rows())
        text = path.read_text().splitlines()
        assert text[0].split(",") == formats.CSV_HEADER == [
            "family", "n", "N", "up_eta", "up_delta", "K", "L", "model",
            "damage_fraction", "seed", "l2_error", "bound", "bound_ok",
        ]

    def test_cells_keep_their_text(self, tmp_path):
        path = tmp_path / "rows.csv"
        formats.write_experiment_csv(path, self._rows())
        assert path.read_bytes().split(b"\r\n")[1:] == [
            b"orthogonal,64,128,0.30000000000000004,0.33333333333333331,"
            b"3.1415926535897931,64,quantize-only,0,7,1.0000000000000001e-17,2.5,true",
            b"fourier,8,16,0.96460481000379039,0.125,4.8300000000000001,16,erasure,"
            b"0.03125,8,0.25,0.20000000000000001,false",
            b"",
        ]

    def test_true_false_spelling(self, tmp_path):
        path = tmp_path / "rows.csv"
        formats.write_experiment_csv(path, self._rows())
        body = path.read_text().splitlines()[1:]
        assert body[0].endswith(",true")
        assert body[1].endswith(",false")
