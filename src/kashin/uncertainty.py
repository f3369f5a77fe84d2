"""Uncertainty-principle calibration for frames.

A frame satisfies an uncertainty principle with parameters (eta, delta)
when every coefficient vector supported on at most delta*N entries has
synthesis norm at most eta times its own norm.  The constant eta drives
the geometric decay of the spreading iteration and, together with delta,
fixes the achievable spreading level K.  This module measures eta for
concrete frames (exactly for small problems, by random search otherwise)
and converts calibrations into levels.

A support S is scored by the top singular value of the column submatrix
U_S.  Supports are scored in chunks: one gather builds a (B, n, k) block of
submatrices, one batched matmul their k x k Gram matrices, and one stacked
Hermitian eigen-solve their top eigenvectors v; the score is ``||U_S v||``.
Random supports wider than ``_EXACT_SVD_WIDTH`` are scored one at a time by
power iteration instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .errors import BudgetExceeded, InvalidParams

# up_estimate scores supports at most this wide exactly, wider ones by
# power iteration
_EXACT_SVD_WIDTH = 32
# entries of one gathered block of column submatrices in a stacked solve
_CHUNK_ENTRIES = 1 << 16
# support-enumeration budget for the exhaustive check
_EXACT_BUDGET = 1_000_000

_POWER_ITERS = 50
_POWER_TOL = 1e-8


@dataclass(frozen=True)
class UPParams:
    """Uncertainty-principle parameters: synthesis-operator bound eta
    over supports of size at most delta*N."""

    eta: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise InvalidParams(f"eta must lie in (0, 1), got {self.eta}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidParams(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class UPWitness:
    """Worst support found during calibration.

    ``vector`` is a unit coefficient vector of full length N vanishing off
    ``support``; ``ratio`` is the synthesis norm it realizes, recomputable
    as ``norm(synthesis(frame, vector))``.
    """

    support: tuple[int, ...]
    vector: np.ndarray
    ratio: float


def support_width(delta: float, N: int) -> int:
    """Largest support size allowed by a fraction delta of N entries.

    floor(delta * N), with a tiny nudge so fractions exact in decimal
    (0.05 * 1280 = 64) are not pushed down by binary rounding.  A width
    below 1 is a caller error.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidParams(f"delta must lie in (0, 1), got {delta}")
    if N < 1:
        raise InvalidParams(f"N must be positive, got {N}")
    width = int(math.floor(delta * N + 1e-9))
    if width < 1:
        raise InvalidParams(f"support width floor({delta}*{N}) < 1")
    return width


def _top_singular(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest singular value of each matrix in a (B, n, k) stack, with a
    right singular vector.

    One batched matmul forms the k x k Gram matrices, in real arithmetic
    for a real (float64) block, and one stacked ``eigh`` gives each
    Gram matrix's top unit eigenvector v.  The value is computed as
    ``norm(sub @ v)``, so it is a genuine lower bound on the operator norm,
    equal to it up to rounding.  Returns the (B,) values and the (B, k)
    vectors.
    """
    gram = block.conj().transpose(0, 2, 1) @ block
    v = np.linalg.eigh(gram)[1][..., -1]
    return np.linalg.norm(block @ v[..., None], axis=(1, 2)), v


def _power_top(sub: np.ndarray, scratch_rng) -> tuple[float, np.ndarray]:
    """Largest singular value of ``sub`` by power iteration on its Gram
    matrix, with the final unit iterate v.  The value is ``norm(sub @ v)``,
    a genuine lower bound on the operator norm that may undershoot it."""
    k = sub.shape[1]
    gram = sub.conj().T @ sub
    v = scratch_rng.standard_normal(k) + 1j * scratch_rng.standard_normal(k)
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(_POWER_ITERS):
        w = gram @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        v = w / nw
        if abs(nw - prev) <= _POWER_TOL * max(nw, 1.0):
            break
        prev = nw
    return float(np.linalg.norm(sub @ v)), v


def _witness(N: int, support: np.ndarray, vec: np.ndarray, ratio) -> UPWitness:
    full = np.zeros(N, dtype=vec.dtype)
    full[support] = vec
    return UPWitness(
        support=tuple(int(i) for i in support), vector=full, ratio=float(ratio)
    )


def _chunk(frame: frames.FrameMatrix, k: int) -> int:
    """Supports per stacked solve, so one gathered block stays within
    ``_CHUNK_ENTRIES`` entries."""
    return max(1, _CHUNK_ENTRIES // (frame.n * k))


def _score(
    frame: frames.FrameMatrix, supports: np.ndarray, best: UPWitness | None
) -> UPWitness:
    """Score a (B, k) array of supports in one stacked solve.

    Returns the witness of the first maximum in ``supports`` when it
    beats ``best`` strictly, and ``best`` otherwise.
    """
    ratios, vecs = _top_singular(frames.columns(frame, supports).transpose(1, 0, 2))
    i = int(np.argmax(ratios))
    if best is not None and ratios[i] <= best.ratio:
        return best
    return _witness(frame.N, supports[i], vecs[i], ratios[i])


def up_check_exact(
    frame: frames.FrameMatrix, delta: float
) -> tuple[float, UPWitness]:
    """Exact worst-case synthesis norm over supports of width delta*N.

    Enumerates every support of exactly the allowed width (smaller
    supports are dominated by larger ones containing them), in
    lexicographic order and in chunks scored by one stacked Gram
    eigen-solve each, and returns the largest top singular value with its
    witness.  Every width is solved exactly, not by power iteration.  Ties
    keep the lexicographically first support.  Raises
    :class:`BudgetExceeded` once the support count passes a fixed budget;
    use :func:`up_estimate` then.
    """
    k = support_width(delta, frame.N)
    total = math.comb(frame.N, k)
    if total > _EXACT_BUDGET:
        raise BudgetExceeded(
            f"C({frame.N}, {k}) = {total} supports exceeds the exact budget"
        )
    combos = itertools.combinations(range(frame.N), k)
    chunk = _chunk(frame, k)
    best = None
    while batch := list(itertools.islice(combos, chunk)):
        best = _score(frame, np.asarray(batch, dtype=np.int64), best)
    return best.ratio, best


def up_estimate(
    frame: frames.FrameMatrix, delta: float, trials: int, seed: int
) -> tuple[float, UPWitness]:
    """Randomized lower estimate of the worst-case synthesis norm.

    Draws ``trials`` uniform supports of the allowed width and keeps the
    largest top singular value seen (ties keep the first draw).  Always a
    lower bound on the exact answer.  Supports up to ``_EXACT_SVD_WIDTH``
    wide are scored exactly, in chunks of one stacked Gram eigen-solve
    each; wider ones by power iteration, whose start vectors come from the
    same generator as the supports.  The witness is captured at each
    improvement, so the reported (support, vector, ratio) triple is
    self-consistent.
    """
    if trials < 1:
        raise InvalidParams(f"trials must be positive, got {trials}")
    k = support_width(delta, frame.N)
    g = linalg.rng_from_seed(seed)
    best = None
    if k <= _EXACT_SVD_WIDTH:
        chunk = _chunk(frame, k)
        for start in range(0, trials, chunk):
            draws = [
                np.sort(g.permutation(frame.N)[:k])
                for _ in range(min(chunk, trials - start))
            ]
            best = _score(frame, np.asarray(draws, dtype=np.int64), best)
        return best.ratio, best
    for _ in range(trials):
        support = np.sort(g.permutation(frame.N)[:k]).astype(np.int64)
        value, vec = _power_top(frames.columns(frame, support), g)
        if best is None or value > best.ratio:
            best = _witness(frame.N, support, vec, value)
    return best.ratio, best


def uup_to_up(epsilon: float, delta: float, n: int, N: int) -> UPParams:
    """Uncertainty-principle parameters implied by a two-sided isometry.

    A frame whose delta-sparse restrictions preserve norms within
    (1 +/- epsilon) satisfies the one-sided principle with
    ``eta = (1 + epsilon) / (1 - epsilon) * sqrt(n / N)`` at the same
    delta.  Raises :class:`InvalidParams` when that eta reaches 1.
    """
    if not 0.0 <= epsilon < 1.0:
        raise InvalidParams(f"epsilon must lie in [0, 1), got {epsilon}")
    if not 1 <= n <= N:
        raise InvalidParams(f"need 1 <= n <= N, got n={n} N={N}")
    eta = (1.0 + epsilon) / (1.0 - epsilon) * math.sqrt(n / N)
    if eta >= 1.0:
        raise InvalidParams(
            f"implied eta = {eta} >= 1; the two-sided bound is too loose"
        )
    return UPParams(eta=eta, delta=delta)


def theoretical_eta(family: frames.FrameFamily) -> float | None:
    """A-priori eta for families with a known spreading guarantee.

    Random orthogonal and Fourier-row frames satisfy the principle with
    ``eta = 1 - mu/4`` where ``mu = N/n - 1``, for sufficiently small
    delta (the admissible delta involves constants not pinned down here,
    so treat the value as advisory and calibrate with
    :func:`up_estimate`).  Subgaussian families carry no usable constant:
    returns ``None``.
    """
    if family.tag in (frames.RANDOM_ORTHOGONAL, frames.PARTIAL_FOURIER):
        mu = family.N / family.n - 1.0
        return 1.0 - mu / 4.0
    return None
