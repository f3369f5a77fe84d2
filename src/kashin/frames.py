"""Frame families and their operators.

A frame is stored as the (n, N) matrix whose columns are the frame vectors.
Orthonormal rows mean the columns form a Parseval (tight) frame: analysis
followed by synthesis reproduces the input exactly.  Partial Fourier frames
never materialize their matrix; both operators are routed through the
unitary DFT and a row selection.
"""

from __future__ import annotations

import dataclasses
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


@dataclass(frozen=True)
class FrameMatrix:
    """A frame of N vectors in C^n, dense or as a DFT row selection.

    ``tightness_eps`` is the measured deviation of the frame operator's
    singular values from 1; generators fill it in, hand-built instances
    should call :func:`measure_tightness` themselves.
    """

    n: int
    N: int
    kind: str
    matrix: np.ndarray | None = None
    omega: np.ndarray | None = None
    tightness_eps: float = 0.0

    def __post_init__(self):
        if not 1 <= self.n <= self.N:
            raise InvalidParams(f"need 1 <= n <= N, got n={self.n} N={self.N}")
        if self.kind == DENSE:
            if self.matrix is None or self.matrix.shape != (self.n, self.N):
                raise InvalidParams("dense frame needs an (n, N) coefficient matrix")
        elif self.kind == PARTIAL_FOURIER:
            om = self.omega
            if om is None or om.shape != (self.n,):
                raise InvalidParams("partial Fourier frame needs exactly n row indices")
            if om.size and (om[0] < 0 or om[-1] >= self.N or np.any(np.diff(om) <= 0)):
                raise InvalidParams("row indices must be sorted, distinct, and in [0, N)")
        else:
            raise InvalidParams(f"unknown frame kind {self.kind!r}")
        if not np.isfinite(self.tightness_eps) or self.tightness_eps < 0.0:
            raise InvalidParams("tightness_eps must be finite and >= 0")


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


def _eps_from_matrix(u: np.ndarray) -> float:
    u = linalg.real_if_exact(u)
    gram = u @ u.conj().T
    gram[np.diag_indices_from(gram)] -= 1.0
    # sigma^2 = 1 + mu; rounding can push 1 + mu just below 0 when a row is
    # dependent, and sigma is 0 there
    s = np.sqrt(np.maximum(1.0 + np.linalg.eigvalsh(gram), 0.0))
    return float(max(1.0 - s.min(), s.max() - 1.0))


def columns(frame: FrameMatrix, support) -> np.ndarray:
    """The (n, k) matrix of frame vectors listed in ``support``.

    Partial Fourier frames build only the requested columns, entry
    ``exp(-2 pi i (w * j mod N) / N) / sqrt(N)`` for row ``w`` and column
    ``j``; reducing ``w * j`` mod N keeps the phase argument below 2 pi,
    so its rounding does not grow with N.
    """
    support = np.asarray(support, dtype=np.int64)
    if frame.kind == DENSE:
        return frame.matrix[:, support]
    phase = np.outer(frame.omega, support) % frame.N
    return np.exp((-2j * np.pi / frame.N) * phase) / np.sqrt(frame.N)


def dense(frame: FrameMatrix) -> np.ndarray:
    """The materialized (n, N) frame matrix."""
    if frame.kind == PARTIAL_FOURIER and frame.n * frame.N > _DENSE_CAP:
        raise InvalidParams(f"refusing to materialize a {frame.n}x{frame.N} frame")
    return columns(frame, np.arange(frame.N))


def measure_tightness(frame: FrameMatrix) -> float:
    """Largest deviation of the frame operator's singular values from 1.

    Returns ``max(1 - sigma_min, sigma_max - 1)``, which is 0 exactly when
    the rows are orthonormal.  Dense frames take the singular values from
    the eigenvalues mu of the n x n Gram matrix ``U U* - I`` (n <= N, so it
    is the smaller side): ``sigma = sqrt(max(1 + mu, 0))``.  When the
    matrix's imaginary part is exactly zero, the Gram matrix is formed in
    real arithmetic (see :func:`linalg.real_if_exact`).  DFT row selections
    are orthonormal by construction, so partial Fourier frames record 0 at
    every size without materializing.
    """
    if frame.kind == PARTIAL_FOURIER:
        return 0.0
    return _eps_from_matrix(frame.matrix)


def gen_random_orthogonal(n: int, N: int, seed: int) -> FrameMatrix:
    """Frame with exactly orthonormal rows, uniformly (Haar) distributed.

    Draws an iid Gaussian matrix and orthonormalizes its rows; the
    positive-diagonal QR convention in :func:`linalg.qr_orthonormalize_rows`
    is what makes the row distribution uniform.
    """
    g = linalg.sample_gaussian(n, N, seed)
    u = linalg.qr_orthonormalize_rows(g)
    return FrameMatrix(n=n, N=N, kind=DENSE, matrix=u, tightness_eps=_eps_from_matrix(u))


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
    orthonormal; the measured defect is recorded in ``tightness_eps``.
    """
    if dist == GAUSSIAN:
        phi = linalg.sample_gaussian(n, N, seed)
    elif dist == BERNOULLI:
        phi = linalg.sample_bernoulli(n, N, seed)
    else:
        raise InvalidParams(f"unknown entry distribution {dist!r}")
    u = phi / np.sqrt(N)
    return FrameMatrix(n=n, N=N, kind=DENSE, matrix=u, tightness_eps=_eps_from_matrix(u))


def generate(family: FrameFamily) -> FrameMatrix:
    """Draw the frame a :class:`FrameFamily` recipe describes."""
    if family.tag == RANDOM_ORTHOGONAL:
        return gen_random_orthogonal(family.n, family.N, family.seed)
    if family.tag == PARTIAL_FOURIER:
        # families carry a fixed n, so use the exact-subset mode
        return gen_partial_fourier(family.N, family.n, family.seed, mode=EXACT_N)
    return gen_subgaussian(family.n, family.N, family.tag, family.seed)


def analysis(frame: FrameMatrix, x) -> np.ndarray:
    """Coefficients ``<x, u_i>`` against every frame vector (length N).

    For partial Fourier frames this is the inverse unitary DFT of ``x``
    zero-extended onto the selected row positions, so no matrix is formed.
    """
    v = linalg.as_vector(x)
    if v.shape[0] != frame.n:
        raise DimensionMismatch(f"frame lives in C^{frame.n}, vector has length {v.shape[0]}")
    if frame.kind == DENSE:
        return (v.conj() @ frame.matrix).conj()
    z = np.zeros(frame.N, dtype=np.complex128)
    z[frame.omega] = v
    return linalg.idft(z)


def synthesis(frame: FrameMatrix, coeffs) -> np.ndarray:
    """Weighted sum of frame vectors (length n), the adjoint of analysis."""
    a = linalg.as_vector(coeffs)
    if a.shape[0] != frame.N:
        raise DimensionMismatch(f"frame has {frame.N} vectors, got {a.shape[0]} coefficients")
    if frame.kind == DENSE:
        return frame.matrix @ a
    return linalg.dft(a)[frame.omega]


def frame_norm_sum(frame: FrameMatrix) -> float:
    """Sum of squared frame-vector norms; equals n for tight frames."""
    if frame.kind == PARTIAL_FOURIER:
        return float(frame.n)
    return float(np.sum(np.abs(frame.matrix) ** 2))


def with_tightness(frame: FrameMatrix, eps: float) -> FrameMatrix:
    """Copy of ``frame`` with a replaced tightness record."""
    return dataclasses.replace(frame, tightness_eps=eps)
