"""Binary and text serialization: frames, coefficient files, vectors,
experiment CSV.

Everything binary is little-endian with float64 payloads.  Frame files
(magic ``KFRM``) store either the dense matrix row-major (complex (re, im)
pairs, or float64 for a real matrix) or the sorted row-index set of a
Fourier row selection; coefficient files (magic
``KCOF``) store the certified level, input norm and residual bound next
to the coefficients, and readers re-check the level bound so a corrupt
file cannot smuggle an invalid certificate.  Measured tightness and the
iteration count are recomputable/diagnostic and are not serialized.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import frames
from .conversion import KashinRepresentation
from .errors import ContractViolation, FormatError, InvalidParams

FRAME_MAGIC = b"KFRM"
COEFF_MAGIC = b"KCOF"
FORMAT_VERSION = 1

_FRAME_HEADER = struct.Struct("<4sHBII")
_COEFF_HEADER = struct.Struct("<4sHIddd")

# kind code -> (frame kind, payload dtype); a dense frame's code follows
# its matrix dtype
_KINDS = {
    0: (frames.DENSE, "<c16"),
    1: (frames.PARTIAL_FOURIER, "<u4"),
    2: (frames.DENSE, "<f8"),
}

ASCII = "ascii"
BINARY = "bin"

CSV_HEADER = [
    "family", "n", "N", "up_eta", "up_delta", "K", "L", "model",
    "damage_fraction", "seed", "l2_error", "bound", "bound_ok",
]


def _frame_parts(frame: frames.FrameMatrix) -> tuple[bytes, np.ndarray]:
    """Header and payload array of a frame file.

    Dense matrices are row-major, as (re, im) float64 pairs under kind
    code 0, or as float64 under kind code 2 when the frame stores a real
    matrix; row selections (kind code 1) are sorted u32 indices.
    """
    if frame.kind == frames.PARTIAL_FOURIER:
        code, payload = 1, frame.omega.astype("<u4")
    elif np.iscomplexobj(frame.matrix):
        code, payload = 0, np.ascontiguousarray(frame.matrix, dtype="<c16")
    else:
        code, payload = 2, np.ascontiguousarray(frame.matrix, dtype="<f8")
    header = _FRAME_HEADER.pack(FRAME_MAGIC, FORMAT_VERSION, code, frame.n, frame.N)
    return header, payload


def frame_to_bytes(frame: frames.FrameMatrix) -> bytes:
    """Serialize a frame (see :func:`_frame_parts` for the layout)."""
    header, payload = _frame_parts(frame)
    return header + payload.tobytes()


def frame_from_bytes(blob: bytes) -> frames.FrameMatrix:
    """Parse a frame file held in memory (see :func:`_read_frame`)."""
    return _read_frame(io.BytesIO(blob))


def _read_frame(fh) -> frames.FrameMatrix:
    """Parse a frame file from a seekable binary stream.

    The payload is read straight into the frame's own array, its only
    copy, once the header and the stream's length agree.  A kind-0
    (complex) payload whose imaginary part is exactly zero becomes a
    float64 frame, as every real matrix does (see
    :class:`frames.FrameMatrix`), which also refuses row indices that are
    unsorted, repeated or out of range and a matrix with a NaN or infinite
    entry; its errors surface as :class:`FormatError`.  The format does
    not carry the tightness defect; the frame measures it on first read of
    ``tightness_eps``.
    """
    head = fh.read(_FRAME_HEADER.size)
    if len(head) < _FRAME_HEADER.size:
        raise FormatError("frame file shorter than its header")
    magic, version, kind_code, n, N = _FRAME_HEADER.unpack(head)
    if magic != FRAME_MAGIC:
        raise FormatError(f"bad magic {magic!r}; expected {FRAME_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported frame format version {version}")
    if kind_code not in _KINDS:
        raise FormatError(f"unknown frame kind code {kind_code}")
    if not 1 <= n <= N:
        raise FormatError(f"inconsistent header dimensions n={n} N={N}")
    size = fh.seek(0, io.SEEK_END) - _FRAME_HEADER.size
    fh.seek(_FRAME_HEADER.size)
    kind, dtype = _KINDS[kind_code]
    try:
        if kind == frames.DENSE:
            matrix = _read_payload(fh, size, "dense", dtype, (n, N))
            return frames.FrameMatrix(n=n, N=N, kind=kind, matrix=matrix)
        omega = _read_payload(fh, size, "index", dtype, (n,)).astype(np.int64)
        return frames.FrameMatrix(n=n, N=N, kind=kind, omega=omega)
    except InvalidParams as exc:
        raise FormatError(str(exc)) from exc


def _read_payload(fh, size: int, what: str, dtype: str, shape) -> np.ndarray:
    """The rest of ``fh``, ``size`` bytes long, read into a new array of
    ``dtype`` and ``shape`` and returned in native byte order (a copy only
    on big-endian hosts); the array is allocated only once ``size`` is
    what the shape needs, so a corrupt header cannot ask for more memory
    than the file holds."""
    expected = np.dtype(dtype).itemsize * math.prod(shape)
    if size != expected:
        raise FormatError(f"{what} payload holds {size} bytes; expected {expected}")
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(out.data.cast("B")) != expected:
        raise FormatError(f"{what} payload ended while it was read")
    return out.astype(out.dtype.newbyteorder("="), copy=False)


def representation_to_bytes(rep: KashinRepresentation) -> bytes:
    """Serialize coefficients with their certificate (level, input norm,
    residual bound); the iteration count is diagnostic and dropped."""
    header = _COEFF_HEADER.pack(
        COEFF_MAGIC,
        FORMAT_VERSION,
        rep.coefficients.size,
        rep.level_K,
        rep.input_norm,
        rep.residual_bound,
    )
    return header + np.ascontiguousarray(
        rep.coefficients, dtype="<c16"
    ).tobytes()


def representation_from_bytes(blob: bytes) -> KashinRepresentation:
    """Parse a coefficient file; :class:`KashinRepresentation` re-validates
    the certificate, and its errors surface as :class:`FormatError`."""
    if len(blob) < _COEFF_HEADER.size:
        raise FormatError("coefficient file shorter than its header")
    magic, version, N, level_K, input_norm, residual_bound = (
        _COEFF_HEADER.unpack_from(blob)
    )
    if magic != COEFF_MAGIC:
        raise FormatError(f"bad magic {magic!r}; expected {COEFF_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported coefficient format version {version}")
    if N < 1:
        raise FormatError(f"coefficient count must be positive, got {N}")
    payload = blob[_COEFF_HEADER.size:]
    if len(payload) != 16 * N:
        raise FormatError(
            f"coefficient payload holds {len(payload)} bytes; expected {16 * N}"
        )
    try:
        return KashinRepresentation(
            coefficients=np.frombuffer(payload, dtype="<c16").astype(np.complex128),
            level_K=level_K,
            input_norm=input_norm,
            residual_bound=residual_bound,
            iterations_used=0,
        )
    except (InvalidParams, ContractViolation) as exc:
        raise FormatError(str(exc)) from exc


def write_frame(path, frame: frames.FrameMatrix) -> None:
    """Write the bytes of :func:`frame_to_bytes` without joining them in
    memory: the header, then the payload array's own buffer."""
    header, payload = _frame_parts(frame)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)


def read_frame(path) -> frames.FrameMatrix:
    with open(path, "rb") as fh:
        return _read_frame(fh)


def write_representation(path, rep: KashinRepresentation) -> None:
    Path(path).write_bytes(representation_to_bytes(rep))


def read_representation(path) -> KashinRepresentation:
    return representation_from_bytes(Path(path).read_bytes())


def write_vector(path, v: np.ndarray, fmt: str = ASCII) -> None:
    """Write a complex vector: one ``re im`` pair per line (ascii, 17
    significant digits) or raw little-endian float64 pairs (bin)."""
    arr = np.asarray(v, dtype=np.complex128).reshape(-1)
    if fmt == ASCII:
        parts = np.ascontiguousarray(arr).view(np.float64).tolist()
        Path(path).write_text("%.17g %.17g\n" * arr.size % tuple(parts))
    elif fmt == BINARY:
        Path(path).write_bytes(arr.astype("<c16").tobytes())
    else:
        raise FormatError(f"unknown vector format {fmt!r}")


def _parse_lines(lines) -> np.ndarray:
    """Parse ascii vector lines one at a time, raising for the first
    malformed line with its number."""
    entries = []
    for lineno, line in enumerate(lines, 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected `re im`, got {line!r}")
        try:
            entries.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return np.asarray(entries, dtype=np.complex128)


def read_vector(path, fmt: str = ASCII) -> np.ndarray:
    """Read a complex vector written by :func:`write_vector`."""
    if fmt == ASCII:
        lines = Path(path).read_text().splitlines()
        rows = list(map(str.split, lines))
        # blank lines are skipped and every other line holds one `re im`
        # pair; a file that breaks this goes to the line-by-line parser,
        # which names the line
        if not set(map(len, rows)) <= {0, 2}:
            return _parse_lines(lines)
        try:
            parts = np.array(list(map(float, itertools.chain.from_iterable(rows))))
        except ValueError:
            return _parse_lines(lines)
        if parts.size == 0:
            raise FormatError("vector file holds no entries")
        return parts.view(np.complex128)
    if fmt == BINARY:
        blob = Path(path).read_bytes()
        if len(blob) == 0 or len(blob) % 16:
            raise FormatError(
                f"binary vector length {len(blob)} is not a positive multiple of 16"
            )
        return np.frombuffer(blob, dtype="<c16").astype(np.complex128)
    raise FormatError(f"unknown vector format {fmt!r}")


@dataclass(frozen=True)
class ExperimentRow:
    """One CSV row of an experiment sweep."""

    family: str
    n: int
    N: int
    up_eta: float
    up_delta: float
    K: float
    L: int
    model: str
    damage_fraction: float
    seed: int
    l2_error: float
    bound: float
    bound_ok: bool


def _cell_formatter(kind: str):
    """Formatter of a CSV column from its :class:`ExperimentRow` type."""
    if kind == "bool":
        return lambda value: "true" if value else "false"
    if kind == "float":
        return lambda value: format(value, ".17g")
    return str


_COLUMN_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentRow)}
_CSV_FORMATTERS = tuple(_cell_formatter(_COLUMN_TYPES[name]) for name in CSV_HEADER)
_CSV_CELLS = operator.attrgetter(*CSV_HEADER)


def write_experiment_csv(path, rows) -> None:
    """Write rows with the fixed header; floats keep 17 significant
    digits so they parse back exactly.  Each column is formatted by its
    declared :class:`ExperimentRow` type."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(
            [fmt(value) for fmt, value in zip(_CSV_FORMATTERS, _CSV_CELLS(row))]
            for row in rows
        )


def read_experiment_csv(path) -> list[ExperimentRow]:
    """Read back an experiment CSV, validating the header."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise FormatError(f"unexpected CSV header {header}")
        for record in reader:
            if len(record) != len(CSV_HEADER):
                raise FormatError(f"row has {len(record)} cells: {record}")
            kwargs = {}
            try:
                for name, cell in zip(CSV_HEADER, record):
                    kind = _COLUMN_TYPES[name]
                    if kind == "bool":
                        if cell not in ("true", "false"):
                            raise ValueError(f"bad boolean {cell!r}")
                        kwargs[name] = cell == "true"
                    elif kind == "int":
                        kwargs[name] = int(cell)
                    elif kind == "float":
                        kwargs[name] = float(cell)
                    else:
                        kwargs[name] = cell
            except ValueError as exc:
                raise FormatError(f"malformed row {record}: {exc}") from exc
            rows.append(ExperimentRow(**kwargs))
    return rows
