"""Frame families and their operators.

A frame is stored as the (n, N) matrix whose columns are the frame vectors,
float64 when its imaginary part is exactly zero and complex128 otherwise.
Orthonormal rows mean the columns form a Parseval (tight) frame: analysis
followed by synthesis reproduces the input exactly.  Partial Fourier frames
never materialize their matrix; both operators are routed through the
unitary DFT and a row selection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, EmptySelection, InvalidParams

DENSE = "dense"
PARTIAL_FOURIER = "partial-fourier"

RANDOM_ORTHOGONAL = "random-orthogonal"
GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
FAMILY_TAGS = (RANDOM_ORTHOGONAL, PARTIAL_FOURIER, GAUSSIAN, BERNOULLI)

BERNOULLI_SELECTORS = "bernoulli-selectors"
EXACT_N = "exact-n"

# materialization cap for implicit frames (entries, ~64 MB of complex128)
_DENSE_CAP = 1 << 22

# Gershgorin radius of U U* - I up to which measure_tightness returns its
# upper bound instead of solving for the eigenvalues; the same slack
# kashin_encode allows between a config's frame_epsilon and the frame's
_GERSHGORIN_CERT = 1e-9
# rows of |U U* - I| summed at a time, so no second n x n array is formed
_ROW_BLOCK = 64
# a dense synthesis given a support of at most N / this many columns
# multiplies only those columns
_SPARSE_SYNTHESIS = 8


@dataclass(frozen=True)
class FrameMatrix:
    """A frame of N vectors in C^n, dense or as a DFT row selection.

    A dense matrix whose imaginary part is exactly zero is stored as
    float64 (see :func:`linalg.real_if_exact`), so real frames read and
    multiply half the bytes of complex storage.

    ``tightness_eps`` is the deviation of the frame operator's singular
    values from 1, measured by :func:`measure_tightness` on first read and
    cached, so every instance carries its defect (exact, or for nearly
    tight dense frames a certified upper bound within 5e-10) and frames
    that never consult it never pay for it.
    """

    n: int
    N: int
    kind: str
    matrix: np.ndarray | None = None
    omega: np.ndarray | None = None

    def __post_init__(self):
        if not 1 <= self.n <= self.N:
            raise InvalidParams(f"need 1 <= n <= N, got n={self.n} N={self.N}")
        if self.kind == DENSE:
            if self.matrix is None or self.matrix.shape != (self.n, self.N):
                raise InvalidParams("dense frame needs an (n, N) coefficient matrix")
            object.__setattr__(self, "matrix", linalg.real_if_exact(self.matrix))
        elif self.kind == PARTIAL_FOURIER:
            om = self.omega
            if om is None or om.shape != (self.n,):
                raise InvalidParams("partial Fourier frame needs exactly n row indices")
            if om.size and (om[0] < 0 or om[-1] >= self.N or np.any(np.diff(om) <= 0)):
                raise InvalidParams("row indices must be sorted, distinct, and in [0, N)")
        else:
            raise InvalidParams(f"unknown frame kind {self.kind!r}")

    @functools.cached_property
    def tightness_eps(self) -> float:
        return measure_tightness(self)


@dataclass(frozen=True)
class FrameFamily:
    """Recipe (family tag, shape, seed) for a reproducible frame draw."""

    tag: str
    n: int
    N: int
    seed: int

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise InvalidParams(f"unknown family tag {self.tag!r}")
        if not 1 <= self.n <= self.N:
            raise InvalidParams(f"need 1 <= n <= N, got n={self.n} N={self.N}")


def columns(frame: FrameMatrix, support) -> np.ndarray:
    """The frame vectors listed in ``support``: an (n, k) matrix for a
    1-d support, an (n, B, k) block for a (B, k) array of supports.

    Partial Fourier frames gather only the requested entries
    ``exp(-2 pi i (w * j mod N) / N) / sqrt(N)`` for row ``w`` and column
    ``j`` from a table of the N roots of unity, built per call; reducing
    ``w * j`` mod N keeps the phase argument below 2 pi, so its rounding
    does not grow with N.  The table is not cached on the frame: a
    long-lived array allocated at the first gather lands wherever the heap
    has a hole, splits it, and makes a process's peak memory depend on
    when that gather ran.
    """
    support = np.asarray(support, dtype=np.int64)
    if frame.kind == DENSE:
        return frame.matrix[:, support]
    N = frame.N
    roots = np.exp((-2j * np.pi / N) * np.arange(N)) / np.sqrt(N)
    return roots[np.multiply.outer(frame.omega, support) % N]


def dense(frame: FrameMatrix) -> np.ndarray:
    """The materialized (n, N) frame matrix."""
    if frame.kind == PARTIAL_FOURIER and frame.n * frame.N > _DENSE_CAP:
        raise InvalidParams(f"refusing to materialize a {frame.n}x{frame.N} frame")
    return columns(frame, np.arange(frame.N))


def measure_tightness(frame: FrameMatrix) -> float:
    """Largest deviation of the frame operator's singular values from 1.

    Returns ``max(1 - sigma_min, sigma_max - 1)``, which is 0 exactly when
    the rows are orthonormal.  Dense frames work on the n x n Gram matrix
    ``E = U U* - I`` (n <= N, so it is the smaller side), formed in real
    arithmetic for real (float64) frames.  By Gershgorin every eigenvalue
    mu of E lies in [-r, r] for the largest absolute row sum r, so
    ``sigma^2 = 1 + mu`` lies in [1 - r, 1 + r] and the defect is at most
    ``1 - sqrt(1 - r) = r / (1 + sqrt(1 - r))``.  When r <= 1e-9 that
    certified upper bound is returned, and it exceeds the exact defect by
    about 5e-10 at most.  Otherwise the value is exact, from the
    eigenvalues of E: ``sigma = sqrt(max(1 + mu, 0))``.  DFT row
    selections are orthonormal by construction, so partial Fourier frames
    record 0 at every size without materializing.
    """
    if frame.kind == PARTIAL_FOURIER:
        return 0.0
    u = frame.matrix
    gram = u @ u.conj().T
    gram[np.diag_indices_from(gram)] -= 1.0
    r = max(
        float(np.abs(gram[i:i + _ROW_BLOCK]).sum(axis=1).max())
        for i in range(0, frame.n, _ROW_BLOCK)
    )
    if r <= _GERSHGORIN_CERT:
        return r / (1.0 + math.sqrt(1.0 - r))
    # sigma^2 = 1 + mu; rounding can push 1 + mu just below 0 when a row is
    # dependent, and sigma is 0 there
    s = np.sqrt(np.maximum(1.0 + np.linalg.eigvalsh(gram), 0.0))
    return float(max(1.0 - s.min(), s.max() - 1.0))


def gen_random_orthogonal(n: int, N: int, seed: int) -> FrameMatrix:
    """Frame with exactly orthonormal rows, uniformly (Haar) distributed.

    Draws an iid Gaussian matrix and orthonormalizes its rows; the
    positive-diagonal QR convention in :func:`linalg.qr_orthonormalize_rows`
    is what makes the row distribution uniform.
    """
    g = linalg.sample_gaussian(n, N, seed)
    u = linalg.qr_orthonormalize_rows(g)
    return FrameMatrix(n=n, N=N, kind=DENSE, matrix=u)


def gen_partial_fourier(
    N: int, n: int, seed: int, mode: str = BERNOULLI_SELECTORS
) -> FrameMatrix:
    """Rows of the unitary N-point DFT matrix, randomly selected.

    ``bernoulli-selectors`` keeps each row independently with probability
    n/N, so the realized row count is random (an empty draw raises
    :class:`EmptySelection`).  ``exact-n`` draws a uniform random subset of
    exactly n rows.  Either way the resulting rows are exactly orthonormal.
    """
    if not 1 <= n <= N:
        raise InvalidParams(f"need 1 <= n <= N, got n={n} N={N}")
    g = linalg.rng_from_seed(seed)
    if mode == BERNOULLI_SELECTORS:
        keep = g.random(N) < n / N
        omega = np.flatnonzero(keep).astype(np.int64)
        if omega.size == 0:
            raise EmptySelection("selector draw kept zero rows; retry with a new seed")
    elif mode == EXACT_N:
        omega = np.sort(g.permutation(N)[:n]).astype(np.int64)
    else:
        raise InvalidParams(f"unknown selection mode {mode!r}")
    return FrameMatrix(n=int(omega.size), N=N, kind=PARTIAL_FOURIER, omega=omega)


def gen_subgaussian(n: int, N: int, dist: str, seed: int) -> FrameMatrix:
    """Nearly tight frame ``Phi / sqrt(N)`` with iid subgaussian entries.

    ``dist`` selects the entry law: ``gaussian`` for N(0, 1) or
    ``bernoulli`` for symmetric +/-1.  Rows are only approximately
    orthonormal; ``tightness_eps`` measures the defect.
    """
    if dist == GAUSSIAN:
        phi = linalg.sample_gaussian(n, N, seed)
    elif dist == BERNOULLI:
        phi = linalg.sample_bernoulli(n, N, seed)
    else:
        raise InvalidParams(f"unknown entry distribution {dist!r}")
    u = phi * (1.0 / math.sqrt(N))
    return FrameMatrix(n=n, N=N, kind=DENSE, matrix=u)


def generate(family: FrameFamily) -> FrameMatrix:
    """Draw the frame a :class:`FrameFamily` recipe describes."""
    if family.tag == RANDOM_ORTHOGONAL:
        return gen_random_orthogonal(family.n, family.N, family.seed)
    if family.tag == PARTIAL_FOURIER:
        # families carry a fixed n, so use the exact-subset mode
        return gen_partial_fourier(family.N, family.n, family.seed, mode=EXACT_N)
    return gen_subgaussian(family.n, family.N, family.tag, family.seed)


def _dense_product(u: np.ndarray, v: np.ndarray, gemv) -> np.ndarray:
    """``gemv(v)``, a product with the frame matrix ``u``, kept in BLAS.

    Same-dtype operands go straight through, and a complex matrix takes
    the vector as complex128.  A real matrix applies to complex data as two
    real products, real part and imaginary part, and skips the imaginary
    one when it is exactly zero (the result is then float64): numpy's
    mixed ``float64 @ complex128`` would copy the whole matrix to complex
    and multiply it outside BLAS.  The parts are copied contiguous, so the
    real product is the same GEMV, with the same bits, as on a float64
    vector holding them.
    """
    if np.iscomplexobj(u):
        return gemv(v.astype(np.complex128, copy=False))
    if not np.iscomplexobj(v):
        return gemv(v)
    re = gemv(np.ascontiguousarray(v.real))
    if not np.any(v.imag):
        return re
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = gemv(np.ascontiguousarray(v.imag))
    return out


def analysis(frame: FrameMatrix, x) -> np.ndarray:
    """Coefficients ``<x, u_i>`` against every frame vector (length N).

    Real frames give float64 coefficients for real data (see
    :func:`_dense_product`).  For partial Fourier frames this is the
    inverse unitary DFT of ``x`` zero-extended onto the selected row
    positions, so no matrix is formed.
    """
    v = linalg.as_vector(x)
    if v.shape[0] != frame.n:
        raise DimensionMismatch(f"frame lives in C^{frame.n}, vector has length {v.shape[0]}")
    if frame.kind == DENSE:
        u = frame.matrix
        return _dense_product(u, v, lambda w: (w.conj() @ u).conj())
    z = np.zeros(frame.N, dtype=np.complex128)
    z[frame.omega] = v
    return linalg.idft(z)


def synthesis(frame: FrameMatrix, coeffs, support=None) -> np.ndarray:
    """Weighted sum of frame vectors (length n), the adjoint of analysis;
    float64 for a real frame and real coefficients.

    ``support``, when given, lists indices outside which ``coeffs`` are
    zero.  A dense frame then multiplies only those columns if there are
    at most N/8 of them; a partial Fourier frame keeps the FFT.  The
    caller vouches for the zeros: they are not checked.
    """
    a = linalg.as_vector(coeffs)
    if a.shape[0] != frame.N:
        raise DimensionMismatch(f"frame has {frame.N} vectors, got {a.shape[0]} coefficients")
    if frame.kind == DENSE:
        u = frame.matrix
        if support is not None and len(support) <= frame.N // _SPARSE_SYNTHESIS:
            u, a = u[:, support], a[support]
        return _dense_product(u, a, u.__matmul__)
    return linalg.dft(a)[frame.omega]


def frame_norm_sum(frame: FrameMatrix) -> float:
    """Sum of squared frame-vector norms; equals n for tight frames."""
    if frame.kind == PARTIAL_FOURIER:
        return float(frame.n)
    return float(np.sum(np.abs(frame.matrix) ** 2))

