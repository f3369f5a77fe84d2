"""Uncertainty-principle calibration for frames.

A frame satisfies an uncertainty principle with parameters (eta, delta)
when every coefficient vector supported on at most delta*N entries has
synthesis norm at most eta times its own norm.  The constant eta drives
the geometric decay of the spreading iteration and, together with delta,
fixes the achievable spreading level K.  This module measures eta for
concrete frames (exactly for small problems, by random search otherwise)
and converts calibrations into levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .errors import BudgetExceeded, InvalidParams

# supports at most this wide get an exact SVD instead of power iteration
_EXACT_SVD_WIDTH = 32
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


def _top_singular(sub: np.ndarray, scratch_rng) -> tuple[float, np.ndarray]:
    """Largest singular value of ``sub`` with a right singular vector.

    Supports up to ``_EXACT_SVD_WIDTH`` columns get a full SVD; wider ones
    power iteration on the Gram matrix.  The power-path value is computed
    as ``norm(sub @ v)`` for the final unit iterate v, so it is a genuine
    lower bound on the true operator norm.
    """
    k = sub.shape[1]
    if k <= _EXACT_SVD_WIDTH:
        s, vh = np.linalg.svd(sub, full_matrices=False)[1:]
        return float(s[0]), vh[0].conj()
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


def _embed(N: int, support: np.ndarray, vec: np.ndarray) -> np.ndarray:
    full = np.zeros(N, dtype=np.complex128)
    full[support] = vec
    return full


def up_check_exact(
    frame: frames.FrameMatrix, delta: float
) -> tuple[float, UPWitness]:
    """Exact worst-case synthesis norm over supports of width delta*N.

    Enumerates every support of exactly the allowed width (smaller
    supports are dominated by larger ones containing them) and returns
    the largest top singular value with its witness.  Ties keep the
    lexicographically first support.  Raises :class:`BudgetExceeded` once
    the support count passes a fixed budget; use :func:`up_estimate` then.
    """
    k = support_width(delta, frame.N)
    total = math.comb(frame.N, k)
    if total > _EXACT_BUDGET:
        raise BudgetExceeded(
            f"C({frame.N}, {k}) = {total} supports exceeds the exact budget"
        )
    g = linalg.rng_from_seed(0)
    best_ratio = -1.0
    best = None
    for combo in itertools.combinations(range(frame.N), k):
        support = np.asarray(combo, dtype=np.int64)
        value, vec = _top_singular(frames.columns(frame, support), g)
        if value > best_ratio:
            best_ratio = value
            best = UPWitness(
                support=combo, vector=_embed(frame.N, support, vec), ratio=value
            )
    return best_ratio, best


def up_estimate(
    frame: frames.FrameMatrix, delta: float, trials: int, seed: int
) -> tuple[float, UPWitness]:
    """Randomized lower estimate of the worst-case synthesis norm.

    Draws ``trials`` uniform supports of the allowed width and keeps the
    largest top singular value seen.  Always a lower bound on the exact
    answer.  The witness is captured at each improvement, so the reported
    (support, vector, ratio) triple is self-consistent.
    """
    if trials < 1:
        raise InvalidParams(f"trials must be positive, got {trials}")
    k = support_width(delta, frame.N)
    g = linalg.rng_from_seed(seed)
    best_ratio = -1.0
    best = None
    for _ in range(trials):
        support = np.sort(g.permutation(frame.N)[:k]).astype(np.int64)
        value, vec = _top_singular(frames.columns(frame, support), g)
        if value > best_ratio:
            best_ratio = value
            best = UPWitness(
                support=tuple(int(i) for i in support),
                vector=_embed(frame.N, support, vec),
                ratio=value,
            )
    return best_ratio, best


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


def kashin_level(p: UPParams) -> float:
    """Spreading level K = (1 - eta)^-1 * delta^-1/2 certified by UP(eta,
    delta): coefficients can be driven below (K/sqrt(N)) times the input
    norm."""
    return 1.0 / ((1.0 - p.eta) * math.sqrt(p.delta))


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
