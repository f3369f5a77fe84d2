"""Uncertainty-principle calibration for frames.

A frame satisfies an uncertainty principle with parameters (eta, delta)
when every coefficient vector supported on at most delta*N entries has
synthesis norm at most eta times its own norm.  The constant eta drives
the geometric decay of the spreading iteration and, together with delta,
fixes the achievable spreading level K.  This module measures eta for
concrete frames (exactly for small problems, by random search otherwise)
and converts calibrations into levels.

A support S is scored by the top eigenvalue lambda of its Gram block
``G[S, S] = U_S* U_S``, whose square root is the top singular value of the
column submatrix U_S.  Supports are scored in chunks at every width: one
gather builds a (B, k, k) stack of blocks (see
:meth:`frames.GramStep.block`) and one stacked Hermitian eigen-solve gives
their eigenvalues.  The first support with the largest lambda wins, and
one eigen-solve of its block gives the witness vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .errors import BudgetExceeded, InvalidParams

# a chunk of supports holds at most this many entries of gathered dense
# columns, n per support index; partial Fourier chunks gather only the
# Gram entries, k per support index, so theirs are smaller
_CHUNK_ENTRIES = 1 << 16
# support-enumeration budget for the exhaustive check
_EXACT_BUDGET = 1_000_000


@dataclass(frozen=True)
class UPParams:
    """Uncertainty-principle parameters in (0, 1): synthesis-operator
    bound eta over supports of size at most delta*N."""

    eta: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "eta", linalg.real(self.eta, "eta", 1.0))
        object.__setattr__(self, "delta", linalg.real(self.delta, "delta", 1.0))


@dataclass(frozen=True)
class UPWitness:
    """Worst support found during calibration.

    ``vector`` is a unit coefficient vector of full length N vanishing off
    ``support``, a top eigenvector of the support's Gram block; ``ratio``
    is the top singular value of ``U_S``, the synthesis norm ``vector``
    realizes up to rounding (``norm(synthesis(frame, vector))``).
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
    delta = linalg.real(delta, "delta", 1.0)
    width = int(math.floor(delta * N + 1e-9))
    if width < 1:
        raise InvalidParams(f"support width floor({delta}*{N}) < 1")
    return width


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


def _worst(frame: frames.FrameMatrix, chunks) -> UPWitness:
    """Witness of the first support with the largest top Gram eigenvalue
    over an iterable of (B, k) support arrays, each scored in one stacked
    ``eigvalsh``.  Raises :class:`InvalidParams` for a non-finite
    eigenvalue, as a frame entry that is not finite gives."""
    gram = frames.GramStep(frame)
    top, worst = -math.inf, None
    for supports in chunks:
        lam = np.linalg.eigvalsh(gram.block(supports))[:, -1]
        if not np.all(np.isfinite(lam)):
            raise InvalidParams("a Gram block of the frame is not finite")
        i = int(np.argmax(lam))
        if lam[i] > top:
            top, worst = float(lam[i]), supports[i]
    vec = np.linalg.eigh(gram.block(worst))[1][:, -1]
    return _witness(frame.N, worst, vec, math.sqrt(max(top, 0.0)))


def up_check_exact(
    frame: frames.FrameMatrix, delta: float
) -> tuple[float, UPWitness]:
    """Exact worst-case synthesis norm over supports of width delta*N.

    Enumerates every support of exactly the allowed width (smaller
    supports are dominated by larger ones containing them), in
    lexicographic order and in chunks scored by one stacked Gram
    eigen-solve each, and returns the largest top singular value with its
    witness.  Ties keep the lexicographically first support.  Raises
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
    worst = _worst(frame, (
        np.asarray(batch, dtype=np.int64)
        for batch in iter(lambda: list(itertools.islice(combos, chunk)), [])
    ))
    return worst.ratio, worst


def up_estimate(
    frame: frames.FrameMatrix, delta: float, trials: int, seed: int
) -> tuple[float, UPWitness]:
    """Randomized lower estimate of the worst-case synthesis norm.

    Draws ``trials`` uniform supports of the allowed width, one
    permutation of the seeded generator each, and returns the largest top
    singular value among them with its witness (ties keep the first
    draw).  Each support is scored exactly, in chunks of one stacked Gram
    eigen-solve each, so the value is the exact worst case over the drawn
    supports and a lower bound on the answer of :func:`up_check_exact`.
    """
    trials = linalg.count(trials, "trials", 1)
    k = support_width(delta, frame.N)
    g = linalg.rng_from_seed(seed)
    chunk = _chunk(frame, k)
    worst = _worst(frame, (
        np.asarray([
            np.sort(g.permutation(frame.N)[:k])
            for _ in range(min(chunk, trials - start))
        ], dtype=np.int64)
        for start in range(0, trials, chunk)
    ))
    return worst.ratio, worst


def uup_to_up(epsilon: float, delta: float, n: int, N: int) -> UPParams:
    """Uncertainty-principle parameters implied by a two-sided isometry.

    A frame whose delta-sparse restrictions preserve norms within
    (1 +/- epsilon) satisfies the one-sided principle with
    ``eta = (1 + epsilon) / (1 - epsilon) * sqrt(n / N)`` at the same
    delta.  Raises :class:`InvalidParams` when that eta reaches 1.
    """
    epsilon = linalg.real(epsilon, "epsilon", 1.0, zero=True)
    n = linalg.count(n, "n", 1)
    N = linalg.count(N, "N", n)
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
    :func:`up_estimate`).  Returns ``None`` where no usable constant
    exists: for subgaussian families, and where ``1 - mu/4`` leaves
    (0, 1), as it does once N >= 5n.
    """
    if family.tag in (frames.RANDOM_ORTHOGONAL, frames.PARTIAL_FOURIER):
        eta = 1.0 - (family.N / family.n - 1.0) / 4.0
        if 0.0 < eta < 1.0:
            return eta
    return None
