"""Binary and text serialization, one writer and one reader per format:
frames (``.kfrm``), coefficient files (``.kcof``) and vectors (``.vec``);
experiment CSV has a writer only, and any CSV reader reads it back.

Everything binary is little-endian with float64 payloads.  Frame files
(magic ``KFRM``) store either the dense matrix row-major (complex (re, im)
pairs, or float64 for a real matrix) or the sorted row-index set of a
Fourier row selection; coefficient files (magic
``KCOF``) store the certified level, input norm and residual bound next
to the coefficients, and readers re-check the level bound so a corrupt
file cannot smuggle an invalid certificate.  Measured tightness and the
iteration count are recomputable/diagnostic and are not serialized.

Coefficients and vectors are written as complex (re, im) pairs whatever
their dtype.  Every reader of complex pairs, a kind-0 frame's included,
returns float64 when all imaginary parts are exactly zero and complex128
otherwise (see :func:`linalg.real_if_exact`), so real data written as
float64 reads back as float64 with the same bits.
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
from typing import NoReturn

import numpy as np

from . import frames, linalg
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


def write_frame(path, frame: frames.FrameMatrix) -> None:
    """Write a frame file: the header, then the payload array's own
    buffer, so the file's bytes are never joined in memory.

    Dense matrices are row-major, as (re, im) float64 pairs under kind
    code 0, or as float64 under kind code 2 when the frame stores a real
    matrix; row selections (kind code 1) are sorted u32 indices.
    """
    if frame.kind == frames.PARTIAL_FOURIER:
        code, payload = 1, frame.omega
    else:
        code, payload = (0 if np.iscomplexobj(frame.matrix) else 2), frame.matrix
    payload = np.ascontiguousarray(payload, dtype=_KINDS[code][1])
    with open(path, "wb") as fh:
        fh.write(_FRAME_HEADER.pack(FRAME_MAGIC, FORMAT_VERSION, code, frame.n, frame.N))
        fh.write(payload.data)


def read_frame(path) -> frames.FrameMatrix:
    """Read a frame file written by :func:`write_frame`.

    The payload is read straight into the frame's own array, its only
    copy, once the header and the file's length agree.  A kind-0
    (complex) payload whose imaginary part is exactly zero becomes a
    float64 frame, as every real matrix does (see
    :class:`frames.FrameMatrix`), which also refuses n < 1 or n > N, row
    indices that are unsorted, repeated or out of range, a partial Fourier
    N above ``frames.FOURIER_MAX_N`` and a matrix with a NaN or infinite entry;
    its errors surface as :class:`FormatError`.  The format does
    not carry the tightness defect; the frame measures it on first read of
    ``tightness_eps``.
    """
    with open(path, "rb") as fh:
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
    than the file holds.  A partial Fourier frame's operators take O(N)
    memory for an N its n indices do not bound; the frame's cap on N
    bounds that."""
    expected = np.dtype(dtype).itemsize * math.prod(shape)
    if size != expected:
        raise FormatError(f"{what} payload holds {size} bytes; expected {expected}")
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(out.reshape(-1).view(np.uint8)) != expected:
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


def _pairs(blob: bytes, offset: int = 0) -> np.ndarray:
    """The little-endian complex pairs of ``blob`` past ``offset``, as a
    new array: float64 when every imaginary part is exactly zero (see
    :func:`linalg.real_if_exact`), complex128 otherwise.  The bytes are
    read in place, never sliced, and copied once."""
    view = np.frombuffer(blob, dtype="<c16", offset=offset)
    a = linalg.real_if_exact(view)
    return a.astype(a.dtype.newbyteorder("="), copy=a is view)


def representation_from_bytes(blob: bytes) -> KashinRepresentation:
    """Parse a coefficient file; :class:`KashinRepresentation` re-validates
    the certificate, and its errors surface as :class:`FormatError`.

    Coefficients whose imaginary parts are all exactly zero come back as
    float64, so a real frame's coefficients keep their dtype and bits
    across the round trip and decode in real arithmetic."""
    if len(blob) < _COEFF_HEADER.size:
        raise FormatError("coefficient file shorter than its header")
    magic, version, N, level_K, input_norm, residual_bound = (
        _COEFF_HEADER.unpack_from(blob)
    )
    if magic != COEFF_MAGIC:
        raise FormatError(f"bad magic {magic!r}; expected {COEFF_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported coefficient format version {version}")
    size = len(blob) - _COEFF_HEADER.size
    if size != 16 * N:
        raise FormatError(
            f"coefficient payload holds {size} bytes; expected {16 * N}"
        )
    try:
        return KashinRepresentation(
            coefficients=_pairs(blob, _COEFF_HEADER.size),
            level_K=level_K,
            input_norm=input_norm,
            residual_bound=residual_bound,
            iterations_used=0,
        )
    except (InvalidParams, ContractViolation) as exc:
        raise FormatError(str(exc)) from exc


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


def _raise_for_bad_line(lines) -> NoReturn:
    """Raise :class:`FormatError` for the first malformed line of an ascii
    vector file, with its number.  :func:`read_vector` calls it once its
    fast parse has failed, which happens only on a file with such a line:
    both make the same ``float`` calls on the same fields."""
    for lineno, line in enumerate(lines, 1):
        parts = line.split()
        if parts and len(parts) != 2:
            raise FormatError(f"line {lineno}: expected `re im`, got {line!r}")
        try:
            for part in parts:
                float(part)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc


def _finite(v: np.ndarray) -> np.ndarray:
    """``v``, unless an entry is NaN or infinite: such a file is malformed."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise FormatError(f"vector entry {bad[0] + 1} is NaN or infinite")
    return v


def read_vector(path, fmt: str = ASCII) -> np.ndarray:
    """Read a vector written by :func:`write_vector`; every entry must be
    finite.  It is float64 when every imaginary part is exactly zero (see
    :func:`linalg.real_if_exact`), so a real vector reads back as written,
    and complex128 otherwise."""
    if fmt == ASCII:
        lines = Path(path).read_text().splitlines()
        rows = list(map(str.split, lines))
        # blank lines are skipped and every other line holds one `re im`
        # pair; a file that breaks this has its first bad line named
        if not set(map(len, rows)) <= {0, 2}:
            _raise_for_bad_line(lines)
        try:
            parts = np.array(list(map(float, itertools.chain.from_iterable(rows))))
        except ValueError:
            _raise_for_bad_line(lines)
        if parts.size == 0:
            raise FormatError("vector file holds no entries")
        return _finite(linalg.real_if_exact(parts.view(np.complex128)))
    if fmt == BINARY:
        blob = Path(path).read_bytes()
        if len(blob) == 0 or len(blob) % 16:
            raise FormatError(
                f"binary vector length {len(blob)} is not a positive multiple of 16"
            )
        return _finite(_pairs(blob))
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


CSV_HEADER = [f.name for f in dataclasses.fields(ExperimentRow)]
_CSV_FORMATTERS = tuple(_cell_formatter(f.type) for f in dataclasses.fields(ExperimentRow))
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
