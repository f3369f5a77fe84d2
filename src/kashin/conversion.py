"""Conversion of frame expansions into uniformly spread representations.

The core algorithm: repeatedly analyze the residual, clip each
coefficient at a level that shrinks geometrically, synthesize the clipped
coefficients back and subtract; the loop carries the analysis
coefficients of the residual from one pass to the next.  On a Parseval
frame (U U* = I) the new residual r - U clip(U* r) equals U e for the
excess e = U* r - clip(U* r), which lives on the few clipped
coefficients, so the loop keeps no residual: the next pass clips
U* U e = G e, one Gram step on the clipped support.  Under an
uncertainty principle with parameters (eta, delta) each pass contracts
the residual by eta, and the accumulated coefficients stay below
(K/sqrt(N)) times the input norm with K = (1 - eta)^-1 * delta^-1/2.
Two algorithm variants adjust (eta, K): approximate clipping certified
for parameters (nu, tau), and running against a frame that is only tight
up to a factor (1 +/- eps).  A third variant skips clipping on one final
pass to make the expansion exact at the cost of a doubled level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .errors import (
    ContractViolation,
    InvalidConfig,
    InvalidParams,
    NonConvergence,
)
from .uncertainty import UPParams

EXACT = "exact"
APPROXIMATE = "approximate"

# multiplicative slack on the stored level bound (float accumulation noise)
_LEVEL_SLACK = 1e-10
# additive cushion on certified residual bounds, relative to the input norm
_RESIDUAL_CUSHION = 1e-13
# residual this small (relative) stops the iteration early
_EARLY_STOP = 1e-14
# measured tightness defect up to which a frame counts as Parseval and the
# encoder carries coefficients instead of residuals
_PARSEVAL_EPS = 1e-12


@dataclass(frozen=True)
class TruncationSpec:
    """How coefficients are clipped inside the conversion loop.

    ``exact`` mode clips magnitudes hard at the running level.
    ``approximate`` mode certifies the run for any unit-scale map t
    obeying the contract ``|t(z)| <= 1``, ``|z - t(z)| <= nu*|z|`` for
    ``|z| <= tau`` and ``|z - t(z)| <= |z|`` everywhere, applied at scale
    M as ``M * t(z/M)``: :func:`adjusted_parameters` inflates eta and the
    level for (nu, tau).  Both modes clip with the built-in radial clip,
    which meets that contract with nu = 0 for every tau, so the general
    form of the theorem (any map obeying the contract) is exercised only
    by that clip.
    """

    mode: str = EXACT
    nu: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        if self.mode not in (EXACT, APPROXIMATE):
            raise InvalidParams(f"unknown truncation mode {self.mode!r}")
        if self.mode == APPROXIMATE:
            object.__setattr__(self, "nu", linalg.real(self.nu, "nu", 1.0))
            object.__setattr__(self, "tau", linalg.real(self.tau, "tau", 1.0))


@dataclass(frozen=True)
class ConversionConfig:
    """Parameters of one conversion run.

    ``iterations`` is the pass count, a whole number of at least 1
    (stored as an int); the residual bound decays like eta'^iterations.
    ``frame_epsilon``, a real >= 0, is the tightness defect the run is
    certified against; it must dominate the frame's measured defect.
    ``exact_last_iteration`` appends one unclipped completion pass,
    trading level for an exact expansion.
    """

    up: UPParams
    truncation: TruncationSpec
    iterations: int
    exact_last_iteration: bool = False
    frame_epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "iterations", linalg.count(
            self.iterations, "iterations", 1, InvalidConfig))
        object.__setattr__(self, "frame_epsilon", linalg.real(
            self.frame_epsilon, "frame_epsilon", zero=True, error=InvalidConfig))


@dataclass(frozen=True)
class KashinRepresentation:
    """Coefficients of a uniformly spread expansion x = sum a_i u_i.

    ``level_K`` certifies ``max |a_i| <= (level_K/sqrt(N)) * input_norm``
    and ``residual_bound`` certifies the synthesis error — both are
    checked or rechecked by consumers.  Two diagnostics, not serialized,
    hold one entry per pass: ``residual_norms`` the norm of the residual
    the encoder carried after the pass, and ``clip_counts`` the number of
    coefficients the pass clipped.  On a frame that is not Parseval the
    carried residual is ``x - U a_k``.  On a Parseval frame it is the
    modeled ``U e_k`` for the pass's clipped excess ``e_k`` (see
    :func:`kashin_encode`), whose norm is recorded as
    ``sqrt(Re <e_k, G e_k>)`` with ``G = U* U``; a pass that clips
    nothing, and an exact completion pass, record 0.  It differs from
    ``norm(x - U a_k)`` by at most ``(2 eps + eps^2)`` times the summed
    norms of the residuals entering the passes, plus rounding.
    """

    coefficients: np.ndarray
    level_K: float
    input_norm: float
    residual_bound: float
    iterations_used: int
    residual_norms: tuple[float, ...] = ()
    clip_counts: tuple[int, ...] = ()

    def __post_init__(self):
        a = self.coefficients
        if a.ndim != 1 or a.size == 0:
            raise InvalidParams("coefficients must form a nonempty vector")
        linalg.real(self.level_K, "level_K", zero=True)
        linalg.real(self.input_norm, "input_norm", zero=True)
        linalg.real(self.residual_bound, "residual_bound", zero=True)
        object.__setattr__(self, "iterations_used", linalg.count(
            self.iterations_used, "iterations_used", 0))
        cap = self.level_K / math.sqrt(a.size) * self.input_norm
        # written so that a NaN coefficient fails it too
        if not float(np.max(np.abs(a))) <= cap * (1.0 + _LEVEL_SLACK):
            raise ContractViolation(
                "coefficients exceed the certified level bound"
            )


def _truncate_block(b: np.ndarray, M: float) -> tuple[np.ndarray, np.ndarray]:
    """The radial clip at level M: clipped coefficients and the indices
    of those it changed, the only ones written, so the rest keep their
    exact bits.  Raises :class:`InvalidParams` unless M is positive, as it
    stops being when a long run of passes on an input of tiny norm
    underflows it.
    """
    if not M > 0.0:
        raise InvalidParams(f"clip level must be positive, got {M}")
    mags = np.abs(b)
    over = np.flatnonzero(mags > M)
    out = b.copy()
    out[over] *= M / mags[over]
    return out, over


def truncation_operator(
    f: frames.FrameMatrix, x, M: float, spec: TruncationSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's truncation operator T: analyze, clip every coefficient
    at level M, synthesize.

    Returns ``(Tx, b_hat)`` with ``Tx = U b_hat``.  When the frame
    satisfies the uncertainty principle at (eta, delta) and
    ``M = norm(x)/sqrt(delta*N)``, the residual obeys
    ``norm(x - Tx) <= eta * norm(x)``.  Every ``spec`` clips with the
    built-in radial clip; the spec no longer changes it.
    :func:`kashin_encode` runs the same clip, :func:`_truncate_block`, on
    coefficients it carries from pass to pass, and does not call this.
    """
    b_hat, _ = _truncate_block(frames.analysis(f, x), M)
    return frames.synthesis(f, b_hat), b_hat


def adjusted_parameters(cfg: ConversionConfig) -> tuple[float, float, float]:
    """Effective (eta, level multiplier, level K) after variant
    adjustments.

    Approximate clipping inflates eta to sqrt(eta^2 + nu^2) and the
    starting level by 1/tau; a tightness defect eps further maps eta to
    sqrt(1+eps)*eta + eps and multiplies the level by sqrt(1+eps) — in
    that order.  The certified level is
    ``mult / ((1 - eta_adj) * sqrt(delta))``.  Raises
    :class:`InvalidConfig` when the adjusted eta reaches 1.
    """
    eta = cfg.up.eta
    mult = 1.0
    if cfg.truncation.mode == APPROXIMATE:
        eta = math.sqrt(eta * eta + cfg.truncation.nu**2)
        mult /= cfg.truncation.tau
    eps = cfg.frame_epsilon
    if eps > 0.0:
        eta = math.sqrt(1.0 + eps) * eta + eps
        mult *= math.sqrt(1.0 + eps)
    if eta >= 1.0:
        raise InvalidConfig(
            f"adjusted eta = {eta} >= 1; conversion cannot contract"
        )
    return eta, mult, mult / ((1.0 - eta) * math.sqrt(cfg.up.delta))


def kashin_encode(
    f: frames.FrameMatrix, x, cfg: ConversionConfig
) -> KashinRepresentation:
    """Convert ``x`` into a uniformly spread representation against
    ``f``.

    Runs the clip-and-subtract iteration with the variant-adjusted
    (eta', M multiplier, K') from :func:`adjusted_parameters`.  It runs
    ``cfg.iterations`` passes, and stops early once the residual is
    negligible.  With ``exact_last_iteration`` one extra unclipped pass
    zeroes the residual (up to the frame's tightness defect), and both the
    certified level and residual bound account for it.  A real (float64)
    frame keeps real data real: the coefficients are float64 unless the
    data has a nonzero imaginary part; a complex frame works in complex
    arithmetic throughout.  Every pass clips with the
    built-in radial clip.  An approximate :class:`TruncationSpec` changes
    only eta' and the level, which are then certified for any clip that
    obeys its (nu, tau) contract; the general form of that theorem is
    exercised only by the radial clip, which obeys it with nu = 0.
    Raises :class:`NonConvergence`, naming the pass, its clip level M and
    the measured ratio, when a per-pass contraction exceeds eta' + 0.05 —
    the supplied (eta, delta) do not hold for this frame — and
    :class:`InvalidParams` when the norm of a finite input exceeds the
    float64 range or, for a nonzero input, lies below its normal range
    (``np.finfo(np.float64).tiny``), where the bounds' margins underflow.

    The loop has one pass body.  Every frame carries ``b = U* r``, the
    analysis coefficients of the residual r, from ``b_1 = U* x``.  The
    coefficients start as zeros of ``b_1``'s dtype, which a zero input
    returns; every later b has that dtype.  Pass k clips ``b_k`` once and
    adds ``clip(b_k)`` to the coefficients in place.  A frame that is not
    Parseval then subtracts ``U clip(b_k)`` from r and analyzes the new r
    when another pass or the completion needs it.  On a Parseval frame
    (measured defect at most 1e-12) the pass carries ``b_{k+1} = G e_k``
    for the clipped excess ``e_k = b_k - clip(b_k)`` and ``G = U* U``:
    the analysis coefficients of the modeled residual
    ``U e_k``, whose norm ``sqrt(Re <e_k, G e_k>)`` is summed over the
    clipped support ``S_k`` alone and scaled so that no finite input
    overflows or underflows.  :class:`frames.GramStep` computes both on
    every pass that clips.  When ``|S_k|`` is small, ``G e_k`` is the sum
    over ``S_k`` of columns of G: on a partial Fourier frame rotated
    copies of the circulant's first column, so the pass runs no FFT; on a
    dense frame columns ``U* u_t`` kept from earlier passes of the
    encode, plus at most one new one, made by a full analysis.  A dense
    pass that clips two or more new indices, or a wide support, takes a
    synthesis of the clipped columns and a full analysis, so a column
    input whose passes re-clip one index reads the matrix twice: for
    ``b_1`` and for its Gram column.  A pass that clips nothing ends the
    loop with a zero residual.
    An exact completion adds the carried ``b``; a frame that is not
    Parseval also subtracts ``U b`` from r.  On a Parseval frame the
    modeled residual ``U e - U U* U e`` is 0, and the residual bound adds
    ``(2 eps + eps^2)`` times the summed norms of the residuals entering
    the passes, completion included, with
    ``eps = max(cfg.frame_epsilon, f.tightness_eps)``: the most by which
    the modeled residual can stray from ``x - U a``.
    """
    v = linalg.as_vector(x)
    if v.shape[0] != f.n:
        raise InvalidParams(
            f"frame lives in C^{f.n}, vector has length {v.shape[0]}"
        )
    if cfg.frame_epsilon < f.tightness_eps - 1e-9:
        raise InvalidConfig(
            f"config certifies tightness defect {cfg.frame_epsilon} but the "
            f"frame measures {f.tightness_eps}"
        )
    eta_adj, mult, level = adjusted_parameters(cfg)
    norm = linalg.norm2(v)
    if not math.isfinite(norm):
        raise InvalidParams("input norm exceeds the float64 range")
    if 0.0 < norm < np.finfo(np.float64).tiny:
        raise InvalidParams("input norm lies below the normal float64 range")
    # the analysis coefficients of the residual the next pass clips, None
    # once there is no residual left to carry
    b = frames.analysis(f, v)
    a = np.zeros_like(b)
    if norm == 0.0:
        return KashinRepresentation(
            coefficients=a, level_K=level, input_norm=0.0,
            residual_bound=0.0, iterations_used=0,
        )

    M = mult * norm / math.sqrt(cfg.up.delta * f.N)
    parseval = f.tightness_eps <= _PARSEVAL_EPS
    # the residual x - U a, kept on frames that are not Parseval
    gram, residual = frames.GramStep(f), v
    prev = norm
    norms: list[float] = []
    clip_counts: list[int] = []
    entering_sum = 0.0
    for k in range(1, cfg.iterations + 1):
        entering_sum += prev
        b_hat, clipped = _truncate_block(b, M)
        clip_counts.append(clipped.size)
        a += b_hat
        if not parseval:
            residual = residual - frames.synthesis(f, b_hat)
            rn = linalg.norm2(residual)
        elif clipped.size:
            b, rn = gram(b - b_hat, clipped)
        else:
            b, rn = None, 0.0
        norms.append(rn)
        if rn > (eta_adj + 0.05) * prev + 1e-12 * norm:
            raise NonConvergence(
                f"pass {k} at clip level M = {M:.6g}: residual contracted by "
                f"{rn / prev:.6f} > eta' + 0.05 = {eta_adj + 0.05:.6f}; the "
                "supplied (eta, delta) do not hold for this frame"
            )
        prev = rn
        M *= eta_adj
        last = k == cfg.iterations or rn <= _EARLY_STOP * norm
        if not parseval:
            # analyzed only for a pass or a completion that clips or adds it
            needed = not last or (cfg.exact_last_iteration and rn > 0.0)
            b = frames.analysis(f, residual) if needed else None
        if last:
            break

    eps = cfg.frame_epsilon
    if cfg.exact_last_iteration:
        # adding b = U* r leaves r - U U* r, which is 0 on a Parseval frame
        # and measured on any other; with no b the pass is counted, and
        # records 0, without running the frame operators.  On a Parseval
        # frame b is tested rather than the entering norm, which can round
        # to 0 while the excess carried into b does not
        entering_sum += prev
        rn = 0.0
        if b is not None:
            a += b
            if not parseval:
                residual = residual - frames.synthesis(f, b)
                rn = linalg.norm2(residual)
        norms.append(rn)
        clip_counts.append(0)
        level_cert = level + (1.0 + eps + 1e-9) * (prev / norm) * math.sqrt(f.N)
        bound = max(((1.0 + eps) ** 2 - 1.0) * prev, rn)
    else:
        level_cert = level
        bound = max(eta_adj ** len(norms) * norm, prev)
    if parseval:
        # the modeled residual strays from x - U a by (U U* - I) times
        # each residual entering a pass
        eps_max = max(eps, f.tightness_eps)
        bound += (2.0 * eps_max + eps_max * eps_max) * entering_sum

    return KashinRepresentation(
        coefficients=a,
        level_K=level_cert,
        input_norm=norm,
        residual_bound=bound + _RESIDUAL_CUSHION * norm,
        iterations_used=len(norms),
        residual_norms=tuple(norms),
        clip_counts=tuple(clip_counts),
    )


def kashin_decode(f: frames.FrameMatrix, rep: KashinRepresentation) -> np.ndarray:
    """Synthesize a representation back into a vector (within
    ``rep.residual_bound`` of the encoded input)."""
    return frames.synthesis(f, rep.coefficients)


def effective_level(rep: KashinRepresentation) -> float:
    """Measured spreading level: ``sqrt(N) * max|a_i| / input_norm``.

    Always at most ``rep.level_K`` (up to float noise); usually far
    smaller, which makes it the practical choice for sizing quantizer
    ranges.  Zero input maps to level 0.
    """
    if rep.input_norm == 0.0:
        return 0.0
    peak = float(np.max(np.abs(rep.coefficients)))
    return math.sqrt(rep.coefficients.size) * peak / rep.input_norm
