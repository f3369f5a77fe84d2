"""Linear-algebra kernels shared by the rest of the package.

Provides the unitary discrete Fourier transform (numpy's FFT at every
length), row orthonormalization with a fixed sign convention (LAPACK's
``dgeqrf`` and ``dorgqr``, or ``zgeqrf`` and ``zungqr`` for complex rows,
run in place through ``numpy.linalg.lapack_lite``), seeded matrix
sampling, strictly checked vectors, and the checks of every count and
real argument of the package (:func:`count`, :func:`real`).  Real data
stays real: arrays are float64 when their input is real and complex128
otherwise, and real-family samples are float64.

Randomness policy: every sampler takes an unsigned 64-bit seed and feeds it
to numpy's default PCG64 generator via :func:`rng_from_seed`.  The generator
family is part of the contract, so identical (seed, shape) calls return
bit-identical results across runs and platforms.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.linalg import lapack_lite

from .errors import DimensionMismatch, InvalidParams, RankDeficient

_RANK_TOL = 1e-12
# entries of a Bernoulli sample drawn at a time, so the int64 draw is a
# small temporary next to the float64 matrix it fills (128 KiB)
_DRAW_BLOCK = 1 << 14


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for a whole number seed in [0, 2^64)."""
    seed = count(seed, "seed", 0)
    if seed >= 2**64:
        raise InvalidParams(f"seed must fit in 64 unsigned bits, got {seed}")
    return np.random.default_rng(seed)


def count(value, name: str, minimum: int, error=InvalidParams) -> int:
    """``value`` as an int, when it is a whole number of at least
    ``minimum``: 3, 3.0 and ``np.int64(3)`` give 3.  Anything else, 2.5,
    NaN, infinity, a string or a 0-d array among them, raises ``error``,
    as :func:`real` does."""
    try:
        whole = None if isinstance(value, np.ndarray) else int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < minimum:
        raise error(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return whole


def real(value, name: str, high: float = math.inf, zero=False, error=InvalidParams) -> float:
    """``value`` as a float, when it is a real number in (0, high), or in
    [0, high) with ``zero``; ``True`` is 1.0.  Anything else, NaN,
    infinity, a string, None or a 0-d array among them, raises ``error``."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int past the float64 range
        x = math.nan
    if not ((0.0 <= x if zero else 0.0 < x) and x < high):  # NaN fails both
        raise error(f"{name} must lie in {'[' if zero else '('}0, {high:g}), got {value!r}")
    return x


def float_or_complex(x) -> np.ndarray:
    """``x`` as a float64 array when its entries are real (bool, integer or
    floating), as a complex128 array otherwise; no copy when it already is
    one.  Entries that are not numbers raise :class:`InvalidParams`."""
    a = np.asarray(x)
    try:
        return np.asarray(a, dtype=np.float64 if a.dtype.kind in "biuf" else np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"entries must be numbers: {exc}") from None


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a nonempty, finite 1-d array, float64 for real
    input and complex128 otherwise."""
    v = float_or_complex(x)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(f"expected a nonempty 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidParams("vector contains NaN or Inf entries")
    return v


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a nonempty, finite 2-d array, float64 for real
    input and complex128 otherwise."""
    a = float_or_complex(m)
    if a.ndim != 2 or min(a.shape) < 1:
        raise DimensionMismatch(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidParams("matrix contains NaN or Inf entries")
    return a


def dft(x) -> np.ndarray:
    """Unitary discrete Fourier transform.

    Entry ``j`` of the result equals ``sum_k x_k exp(-2 pi i j k / N) /
    sqrt(N)``, computed by numpy's FFT at every length.
    """
    return np.fft.fft(as_vector(x), norm="ortho")


def idft(y) -> np.ndarray:
    """Inverse unitary transform, the exact adjoint of :func:`dft`."""
    return np.fft.ifft(as_vector(y), norm="ortho")


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is real or has a nonzero imaginary part, else a
    contiguous float64 copy of its real part.

    Real arithmetic does a quarter of the flops of complex arithmetic on
    the same data.  The copy is contiguous because a strided ``.real`` view
    makes ``matmul`` skip BLAS.
    """
    if not np.iscomplexobj(a) or np.any(a.imag):
        return a
    return np.ascontiguousarray(a.real)


def qr_orthonormalize_rows(m) -> np.ndarray:
    """Orthonormal rows spanning the same row space as ``m`` (rows <= cols).

    Computed as the thin QR factorization of the conjugate transpose with
    the triangular factor's diagonal rotated to be real positive.  The sign
    convention makes the output unique, and it is exactly the convention
    under which iid Gaussian input rows become uniformly (Haar) distributed
    orthonormal rows.  When the imaginary part of ``m`` is exactly zero
    (every Gaussian or Bernoulli sample), the factorization runs in real
    arithmetic on the real part (see :func:`real_if_exact`) and the result
    is float64; otherwise it is complex128.

    The factorization is LAPACK's ``dgeqrf`` then ``dorgqr`` (``zgeqrf``
    then ``zungqr`` for complex rows), the routines behind
    ``np.linalg.qr``, with the same bits as its result.  They run in place
    on one C-ordered working copy of ``m``, conjugated when complex: a
    (rows, cols) C-ordered buffer is the column-major (cols, rows) matrix
    of its transpose, so LAPACK factors ``m^H = Q R`` there and leaves
    ``Q^T`` in it, the result up to conjugation and the phases of R's
    diagonal.  So the result is C-ordered, ``m`` is never written, and the
    factorization needs no memory beyond the copy and LAPACK's workspace.

    Raises
    ------
    RankDeficient
        when any pivot magnitude falls below 1e-12 times the largest input
        row norm.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if rows > cols:
        raise DimensionMismatch(f"need rows <= cols to orthonormalize, got {rows}x{cols}")
    a = real_if_exact(a)
    # before the copy, so the row norms' temporary and the copy never coexist
    tol = _RANK_TOL * float(np.linalg.norm(a, axis=1).max())
    complex_rows = np.iscomplexobj(a)
    if complex_rows:
        w = np.conjugate(a, order="C")
        geqrf, orgqr = lapack_lite.zgeqrf, lapack_lite.zungqr
    else:
        w = a.copy(order="C")
        geqrf, orgqr = lapack_lite.dgeqrf, lapack_lite.dorgqr
    tau = np.empty(rows, w.dtype)
    _run_lapack(geqrf, cols, rows, w, cols, tau)
    diag = w.diagonal().copy()  # R's diagonal, which orgqr overwrites
    pivots = np.abs(diag)
    if np.any(pivots < tol):
        raise RankDeficient(
            f"numerical rank below {rows}: pivot {pivots.min():.3e} under tolerance {tol:.3e}"
        )
    _run_lapack(orgqr, cols, rows, rows, w, cols, tau)
    w *= (diag / pivots)[:, None]
    return np.conjugate(w, out=w) if complex_rows else w


def _run_lapack(routine, *args) -> None:
    """Call the ``lapack_lite`` ``routine`` on ``args``, which end with
    ``tau``, with the workspace its own size query asks for."""
    query = np.empty(1, args[-1].dtype)
    routine(*args, query, -1, 0)
    work = np.empty(max(1, int(query[0].real)), query.dtype)
    routine(*args, work, work.size, 0)


def _sample_shape(rows: int, cols: int) -> tuple[int, int]:
    return count(rows, "rows", 1), count(cols, "columns", 1)


def sample_gaussian(rows: int, cols: int, seed: int) -> np.ndarray:
    """float64 matrix of iid N(0, 1) entries."""
    shape = _sample_shape(rows, cols)
    g = rng_from_seed(seed)
    return g.standard_normal(shape)


def sample_bernoulli(rows: int, cols: int, seed: int) -> np.ndarray:
    """float64 matrix of iid symmetric +/-1 entries, ``2 b - 1`` for the
    bits ``b`` of ``integers(0, 2)``.

    The bits are drawn ``_DRAW_BLOCK`` entries at a time, in row-major
    order, and mapped into the result as they come, so the matrix is the
    only large allocation.  Consecutive draws continue the generator's
    stream, so the matrix is the one a single draw of the whole shape
    gives.
    """
    shape = _sample_shape(rows, cols)
    g = rng_from_seed(seed)
    out = np.empty(shape)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _DRAW_BLOCK):
        block = flat[start:start + _DRAW_BLOCK]
        block[...] = g.integers(0, 2, size=block.size)
        block *= 2.0
        block -= 1.0
    return out


def sqrt_inner(a: np.ndarray, b: np.ndarray) -> float:
    """``sqrt(max(Re <a, b>, 0))`` for arrays ``a`` and ``b`` of one size.

    Both are taken as float64 (real, imaginary) pairs, whose dot product is
    ``Re <a, b>``, and divided by the largest real or imaginary magnitude
    of ``a`` before the product.  So a finite ``a`` of any scale, and a
    ``b`` linear in it, neither overflow nor underflow on the way, and a
    subnormal peak divides no complex number.  Real input is taken as
    complex with zero imaginary parts, so a real array and its complex copy
    give the same bits.
    """
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    peak = float(np.abs(parts).max())
    if peak == 0.0:
        return 0.0
    scaled = parts / peak
    other = scaled if b is a else (
        np.ascontiguousarray(b, dtype=np.complex128).view(np.float64) / peak)
    return peak * math.sqrt(max(scaled @ other, 0.0))


def norm2(x) -> float:
    """Euclidean norm, :func:`sqrt_inner` of the checked vector with
    itself: a finite vector never overflows on the way, and the result is
    ``inf`` only when the norm itself exceeds the float64 range."""
    v = as_vector(x)
    return sqrt_inner(v, v)
