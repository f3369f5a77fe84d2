"""Frame families and their operators.

A frame is stored as the (n, N) matrix whose columns are the frame vectors,
float64 when its imaginary part is exactly zero and complex128 otherwise.
Orthonormal rows mean the columns form a Parseval (tight) frame: analysis
followed by synthesis reproduces the input exactly.  Partial Fourier frames
never materialize their matrix; both operators are routed through the
unitary DFT and a row selection, and their Gram operator U* U is
circulant, which :class:`GramStep` uses on small supports and for the
Gram blocks that calibration scores.  On a dense frame :class:`GramStep`
keeps each Gram column U* u_t it computes for as long as it lives, one
encode, so a clipping pass whose support it has seen reads no matrix.
Every clipping pass of a Parseval encode, the last one included, takes
one Gram step.
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
# largest N of a partial Fourier frame.  Its n row indices do not bound N,
# and an encode takes about 105 bytes per index of N (measured at N = 2^18
# and 2^20), so 1.8 GB at the cap
FOURIER_MAX_N = 1 << 24

# Gershgorin radius of U U* - I up to which measure_tightness returns its
# upper bound instead of solving for the eigenvalues; the same slack
# kashin_encode allows between a config's frame_epsilon and the frame's
_GERSHGORIN_CERT = 1e-9
# rows of |U U* - I| summed at a time, so no second n x n array is formed
_ROW_BLOCK = 64
# a dense synthesis given a support of at most N / this many columns
# multiplies only those columns
_SPARSE_SYNTHESIS = 8
# a partial Fourier Gram step on a support of at most this many indices
# sums rotated copies of the circulant's first column instead of running
# an FFT pair.  On a two-core x86 VM, one thread, numpy's pocketfft, three
# runs of 15-repeat minima: each rotation past the first costs 1.9-3.3 us
# at N = 480 and 6.3-7.4 us at N = 4096, an FFT pair 41-62 and 184-243 us,
# so the sum stays cheaper up to 18-21 and 28-32 rotations.  Timing each
# width on its own gave crossovers as low as 8 at N = 480, because single
# minima on that host spread by up to 2x; the fit above did not move
# between runs.  16 lies below the crossover at both sizes.  The same
# cut-off bounds the dense sum of kept Gram columns (see GramStep).
_GRAM_ROTATIONS = 16


@dataclass(frozen=True)
class FrameMatrix:
    """A frame of N vectors in C^n, dense or as a DFT row selection.

    A dense matrix whose imaginary part is exactly zero is stored as
    float64 (see :func:`linalg.real_if_exact`), so real frames read and
    multiply half the bytes of complex storage.  A dense matrix is stored
    C-ordered (copied only when it is not), so a frame's products, and the
    bits of every encode against it, depend on its values alone: a frame
    and its ``.kfrm`` read-back encode alike.

    A dense matrix is taken as float64 or complex128 (see
    :func:`linalg.float_or_complex`); one with a NaN or infinite entry
    raises :class:`InvalidParams`.  Row indices must have an integer
    dtype, and a partial Fourier frame has N <= ``FOURIER_MAX_N`` = 2^24.

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
        object.__setattr__(self, "n", linalg.count(self.n, "n", 1))
        object.__setattr__(self, "N", linalg.count(self.N, "N", self.n))
        if self.kind == DENSE:
            u = linalg.float_or_complex(self.matrix)
            if u.shape != (self.n, self.N):
                raise InvalidParams("dense frame needs an (n, N) coefficient matrix")
            object.__setattr__(self, "matrix", np.ascontiguousarray(linalg.real_if_exact(u)))
            if not _finite(self.matrix):
                raise InvalidParams("frame matrix has a NaN or infinite entry")
        elif self.kind == PARTIAL_FOURIER:
            _check_fourier_size(self.N)
            om = np.asarray(self.omega)
            if om.dtype.kind not in "iu" or om.shape != (self.n,):
                raise InvalidParams("partial Fourier frame needs exactly n integer row indices")
            om = om.astype(np.int64, copy=False)
            object.__setattr__(self, "omega", om)
            if om[0] < 0 or om[-1] >= self.N or np.any(np.diff(om) <= 0):
                raise InvalidParams("row indices must be sorted, distinct, and in [0, N)")
        else:
            raise InvalidParams(f"unknown frame kind {self.kind!r}")

    @functools.cached_property
    def tightness_eps(self) -> float:
        return measure_tightness(self)


@dataclass(frozen=True)
class FrameFamily:
    """Recipe (family tag, shape, seed) for a reproducible frame draw.
    A shape outside 1 <= n <= N, or a partial Fourier N above
    ``FOURIER_MAX_N`` = 2^24, raises :class:`InvalidParams`."""

    tag: str
    n: int
    N: int
    seed: int

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise InvalidParams(f"unknown family tag {self.tag!r}")
        object.__setattr__(self, "n", linalg.count(self.n, "n", 1))
        object.__setattr__(self, "N", linalg.count(self.N, "N", self.n))
        if self.tag == PARTIAL_FOURIER:
            _check_fourier_size(self.N)
        object.__setattr__(self, "seed", linalg.count(self.seed, "seed", 0))


def _check_fourier_size(N: int) -> None:
    if N > FOURIER_MAX_N:
        raise InvalidParams(f"partial Fourier frames need N <= 2^24, got N={N}")


def _finite(m: np.ndarray) -> bool:
    """Whether every entry of ``m`` is finite.  The extremes of each real
    part propagate a NaN and hold any infinity, and unlike
    ``np.isfinite(m)`` they form no temporary the size of ``m``."""
    parts = (m.real, m.imag) if np.iscomplexobj(m) else (m,)
    return all(math.isfinite(p.max()) and math.isfinite(p.min()) for p in parts)


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
    record 0 at every size without materializing.  Raises
    :class:`InvalidParams` when ``U U*`` overflows, as it does for finite
    entries near 1e200.
    """
    if frame.kind == PARTIAL_FOURIER:
        return 0.0
    u = frame.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        gram = u @ u.conj().T
        gram[np.diag_indices_from(gram)] -= 1.0
        # np.max, not the built-in, which drops a NaN depending on where
        # it stands; r is finite exactly when E and its row sums are
        r = float(np.max([
            np.abs(gram[i:i + _ROW_BLOCK]).sum(axis=1).max()
            for i in range(0, frame.n, _ROW_BLOCK)
        ]))
    if not math.isfinite(r):
        raise InvalidParams("the frame's Gram matrix U U* is not finite")
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
    N above ``FOURIER_MAX_N`` raises :class:`InvalidParams` before the draw.
    """
    n = linalg.count(n, "n", 1)
    N = linalg.count(N, "N", n)
    _check_fourier_size(N)
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
    phi *= 1.0 / math.sqrt(N)
    return FrameMatrix(n=n, N=N, kind=DENSE, matrix=phi)


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
    at most N/8 of them; a partial Fourier frame keeps the FFT here, and
    :class:`GramStep` is what skips the operator pair for a small
    support.  The caller vouches for the zeros: they are not checked.
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


class GramStep:
    """The Gram operator ``G = U* U`` of one frame, applied to
    coefficients ``a`` that are zero outside ``support``.

    ``step(a, support)`` returns ``(G a, norm(U a))``: the analysis
    coefficients of the synthesis of ``a`` (length N) and the norm of that
    synthesis, ``sqrt(Re <a, G a>)`` summed over the support alone by
    :func:`linalg.sqrt_inner`.  The encoder takes it on every pass that
    clips.  ``step.block(supports)`` returns the Gram block ``G[S, S]``:
    (k, k) for a support of k indices, (B, k, k) for a (B, k) array of
    them.

    A support of at most ``_GRAM_ROTATIONS`` indices gives ``G a`` as the
    sum of ``a_t`` times column t of G, at O(N) per index.  On a partial
    Fourier frame G is circulant, so column t is ``c = ifft(1_Omega)``
    rotated by t, and a block is a gather from c.  On a dense frame column
    t is ``U* u_t``, made by one full :func:`analysis` of frame vector t
    on first use and kept, so the sum applies there only when at most one
    index of the support is new: the step then reads the matrix at most
    once, as the operator pair does, and not at all when every column is
    kept.  The same cut-off bounds the dense sum, O(N |S|) against the
    O(n N) analysis it replaces.  Any other support takes :func:`synthesis`
    on the support, which multiplies only the support's columns of a
    dense frame, and a full :func:`analysis`.  A dense block is formed
    from the gathered columns, in real arithmetic for a real frame.

    The kernel ``[c, c]`` and the dense columns are built at the first
    step or block that needs them and live as long as the object, so make
    one per encode or calibration and let it go with it: arrays cached on
    the frame would be long-lived mid-run allocations (see
    :func:`columns`).  An encode keeps at most one dense column per pass.
    """

    def __init__(self, frame: FrameMatrix):
        self.frame = frame
        self._kernel = None
        # dense columns G[:, t], by t
        self._columns: dict[int, np.ndarray] = {}

    def _summable(self, support) -> bool:
        """Whether ``G a`` on ``support`` is the sum of Gram columns."""
        if len(support) > _GRAM_ROTATIONS:
            return False
        return (
            self.frame.kind == PARTIAL_FOURIER
            or sum(t not in self._columns for t in support) <= 1
        )

    def _circulant(self) -> np.ndarray:
        """``[c, c]``, so column t of G, c rotated by t, is
        ``kernel[N - t:2N - t]`` and ``G[s, t] = kernel[N + s - t]``."""
        if self._kernel is None:
            N = self.frame.N
            z = np.zeros(N, dtype=np.complex128)
            z[self.frame.omega] = 1.0 / math.sqrt(N)
            c = linalg.idft(z)
            self._kernel = np.concatenate([c, c])
        return self._kernel

    def _column(self, t: int) -> np.ndarray:
        """Column t of G, a view the caller must not write."""
        if self.frame.kind == PARTIAL_FOURIER:
            N = self.frame.N
            return self._circulant()[N - t:2 * N - t]
        col = self._columns.get(t)
        if col is None:
            col = self._columns[t] = analysis(self.frame, self.frame.matrix[:, t])
        return col

    def __call__(self, coeffs, support) -> tuple[np.ndarray, float]:
        if not self._summable(support):
            ga = analysis(self.frame, synthesis(self.frame, coeffs, support=support))
        else:
            first, *rest = np.asarray(support).tolist()
            ga = coeffs[first] * self._column(first)
            for t in rest:
                ga += coeffs[t] * self._column(t)
        return ga, linalg.sqrt_inner(coeffs[support], ga[support])

    def block(self, supports) -> np.ndarray:
        s = np.asarray(supports, dtype=np.int64)
        if self.frame.kind == PARTIAL_FOURIER:
            return self._circulant()[self.frame.N + s[..., :, None] - s[..., None, :]]
        sub = np.moveaxis(columns(self.frame, s), 0, -2)
        # an entry near 1e200 overflows the block, which its caller refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return np.swapaxes(sub.conj(), -1, -2) @ sub


def frame_norm_sum(frame: FrameMatrix) -> float:
    """Sum of squared frame-vector norms; equals n for tight frames."""
    if frame.kind == PARTIAL_FOURIER:
        return float(frame.n)
    return float(np.sum(np.abs(frame.matrix) ** 2))

