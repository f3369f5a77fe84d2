"""Complex linear-algebra kernels shared by the rest of the package.

Provides the unitary discrete Fourier transform (numpy's FFT at every
length), row orthonormalization with a fixed sign convention, seeded matrix
sampling, and small vector helpers with strict shape checking.

Randomness policy: every sampler takes an unsigned 64-bit seed and feeds it
to numpy's default PCG64 generator via :func:`rng_from_seed`.  The generator
family is part of the contract, so identical (seed, shape) calls return
bit-identical results across runs and platforms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvalidParams, RankDeficient

_RANK_TOL = 1e-12


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for an unsigned 64-bit seed."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise InvalidParams(f"seed must fit in 64 unsigned bits, got {seed}")
    return np.random.default_rng(seed)


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a nonempty, finite complex128 1-d array."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(f"expected a nonempty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidParams("vector contains NaN or Inf entries")
    return v


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a nonempty, finite complex128 2-d array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or min(a.shape) < 1:
        raise DimensionMismatch(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
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
    """``a`` itself, or a contiguous float64 copy of its real part when its
    imaginary part is exactly zero.

    Real arithmetic does a quarter of the flops of complex arithmetic on
    the same data.  The copy is contiguous because a strided ``.real`` view
    makes ``matmul`` skip BLAS.
    """
    if np.any(a.imag):
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
    arithmetic on the real part (see :func:`real_if_exact`); the result is
    complex128 either way.

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
    q, r = np.linalg.qr(a.conj().T, mode="reduced")
    diag = np.diagonal(r)
    pivots = np.abs(diag)
    tol = _RANK_TOL * float(np.linalg.norm(a, axis=1).max())
    if np.any(pivots < tol):
        raise RankDeficient(
            f"numerical rank below {rows}: pivot {pivots.min():.3e} under tolerance {tol:.3e}"
        )
    phase = diag / pivots
    return np.asarray((q * phase).conj().T, dtype=np.complex128)


def _check_sample_shape(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise InvalidParams(f"sample shape must be positive, got {rows}x{cols}")


def sample_gaussian(rows: int, cols: int, seed: int) -> np.ndarray:
    """Matrix of iid real N(0, 1) entries in complex storage."""
    _check_sample_shape(rows, cols)
    g = rng_from_seed(seed)
    return g.standard_normal((rows, cols)).astype(np.complex128)


def sample_bernoulli(rows: int, cols: int, seed: int) -> np.ndarray:
    """Matrix of iid symmetric +/-1 entries in complex storage."""
    _check_sample_shape(rows, cols)
    g = rng_from_seed(seed)
    signs = g.integers(0, 2, size=(rows, cols)).astype(np.float64)
    return (2.0 * signs - 1.0).astype(np.complex128)


def norm2(x) -> float:
    """Euclidean norm.

    Components are divided by the largest real or imaginary magnitude
    before squaring, so a finite vector never overflows on the way; the
    result is ``inf`` only when the norm itself exceeds the float64 range.
    """
    parts = np.ascontiguousarray(as_vector(x)).view(np.float64)
    peak = float(np.abs(parts).max())
    if peak == 0.0:
        return 0.0
    scaled = parts / peak
    return peak * math.sqrt(scaled @ scaled)
