"""Conversion of frame expansions into uniformly spread representations.

The core algorithm: repeatedly analyze the residual, clip each
coefficient at a level that shrinks geometrically, synthesize the clipped
coefficients back and subtract.  On a Parseval frame (U U* = I) the new
residual r - U clip(U* r) equals U e for the excess e = U* r - clip(U* r),
which lives on the few clipped coefficients, so only those are
synthesized.  Under an uncertainty principle with parameters (eta, delta)
each pass contracts the residual by eta, and the accumulated coefficients
stay below (K/sqrt(N)) times the input norm with
K = (1 - eta)^-1 * delta^-1/2.  Two algorithm variants adjust (eta, K):
clipping through an approximate scalar map with parameters (nu, tau), and
running against a frame that is only tight up to a factor (1 +/- eps).
A third variant skips clipping on one final pass to make the expansion
exact at the cost of a doubled level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
# sample count for scalar-map contract verification
_MAP_SAMPLES = 1000
_MAP_SLACK = 1e-9
# measured tightness defect up to which a frame counts as Parseval and a
# pass synthesizes only its clipped excess
_PARSEVAL_EPS = 1e-12


@dataclass(frozen=True)
class TruncationSpec:
    """How coefficients are clipped inside the conversion loop.

    ``exact`` mode clips magnitudes hard at the running level.
    ``approximate`` mode routes each coefficient through a scalar map
    obeying the contract ``|t(z)| <= 1``, ``|z - t(z)| <= nu*|z|`` for
    ``|z| <= tau`` and ``|z - t(z)| <= |z|`` everywhere, applied at scale
    M as ``M * t(z/M)``.  A user-supplied ``scalar_map`` is verified by
    sampling before use; ``None`` selects the built-in radial clip.
    """

    mode: str = EXACT
    nu: float = 0.0
    tau: float = 1.0
    scalar_map: Callable[[complex], complex] | None = None

    def __post_init__(self):
        if self.mode not in (EXACT, APPROXIMATE):
            raise InvalidParams(f"unknown truncation mode {self.mode!r}")
        if self.mode == APPROXIMATE:
            if not 0.0 < self.nu < 1.0:
                raise InvalidParams(f"nu must lie in (0, 1), got {self.nu}")
            if not 0.0 < self.tau < 1.0:
                raise InvalidParams(f"tau must lie in (0, 1), got {self.tau}")


@dataclass(frozen=True)
class ConversionConfig:
    """Parameters of one conversion run.

    Exactly one of ``iterations`` (explicit pass count) and
    ``target_accuracy`` (residual factor to reach, converted to a pass
    count) must be given.  ``frame_epsilon`` is the tightness defect the
    run is certified against; it must dominate the frame's measured
    defect.  ``exact_last_iteration`` appends one unclipped completion
    pass, trading level for an exact expansion.
    """

    up: UPParams
    truncation: TruncationSpec
    iterations: int | None = None
    target_accuracy: float | None = None
    exact_last_iteration: bool = False
    frame_epsilon: float = 0.0

    def __post_init__(self):
        if (self.iterations is None) == (self.target_accuracy is None):
            raise InvalidConfig(
                "exactly one of iterations and target_accuracy must be set"
            )
        if self.iterations is not None and self.iterations < 1:
            raise InvalidConfig(f"iterations must be >= 1, got {self.iterations}")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy < 1.0:
            raise InvalidConfig(
                f"target_accuracy must lie in (0, 1), got {self.target_accuracy}"
            )
        if not (math.isfinite(self.frame_epsilon) and self.frame_epsilon >= 0.0):
            raise InvalidConfig(
                f"frame_epsilon must be finite and >= 0, got {self.frame_epsilon}"
            )


@dataclass(frozen=True)
class KashinRepresentation:
    """Coefficients of a uniformly spread expansion x = sum a_i u_i.

    ``level_K`` certifies ``max |a_i| <= (level_K/sqrt(N)) * input_norm``
    and ``residual_bound`` certifies the synthesis error — both are
    checked or rechecked by consumers.  Two diagnostics, not serialized,
    hold one entry per pass: ``residual_norms`` the norm of the residual
    the encoder carried after the pass, and ``clip_counts`` the number of
    coefficients the pass clipped.  On a frame that is not Parseval the
    carried residual is ``x - U a_k``; on a Parseval frame it is the
    modeled ``U e_k`` (see :func:`truncation_operator`), which differs
    from ``norm(x - U a_k)`` by at most ``(2 eps + eps^2)`` times the
    summed norms of the residuals entering the passes, plus rounding.
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
        for name in ("level_K", "input_norm", "residual_bound"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise InvalidParams(f"{name} must be finite and >= 0, got {v}")
        if self.iterations_used < 0:
            raise InvalidParams("iterations_used must be >= 0")
        cap = self.level_K / math.sqrt(a.size) * self.input_norm
        # written so that a NaN coefficient fails it too
        if not float(np.max(np.abs(a))) <= cap * (1.0 + _LEVEL_SLACK) + 1e-12:
            raise ContractViolation(
                "coefficients exceed the certified level bound"
            )


def default_scalar_map(z: complex) -> complex:
    """Built-in unit-scale clipping map: identity on the closed unit
    disk, radial projection onto it outside.

    Satisfies the approximate-truncation contract with nu = 0 for every
    tau, so it is also the exact-mode clip at scale 1.
    """
    m = abs(z)
    if m <= 1.0:
        return z
    return z / m


def verify_truncation_map(
    scalar_map: Callable[[complex], complex], nu: float, tau: float
) -> None:
    """Check a unit-scale scalar map against the clipping contract.

    Samples roughly a thousand points — magnitudes sweeping [0, 3] with
    0, tau and 1 hit exactly, random phases — and requires
    ``|t(z)| <= 1``, ``|z - t(z)| <= nu*|z|`` on ``|z| <= tau`` and
    ``|z - t(z)| <= |z|`` everywhere, each within 1e-9.  Raises
    :class:`ContractViolation` on the first offending sample.
    """
    if not 0.0 < nu < 1.0 or not 0.0 < tau < 1.0:
        raise InvalidParams("nu and tau must lie in (0, 1)")
    g = linalg.rng_from_seed(12345)
    mags = np.concatenate(
        [
            np.array([0.0, tau, 1.0]),
            np.linspace(0.0, tau, 400, endpoint=False),
            np.linspace(tau, 3.0, _MAP_SAMPLES - 403),
        ]
    )
    phases = np.exp(2j * np.pi * g.random(mags.size))
    for z in mags * phases:
        t = complex(scalar_map(complex(z)))
        if abs(t) > 1.0 + _MAP_SLACK:
            raise ContractViolation(f"|t({z})| = {abs(t)} exceeds 1")
        err = abs(z - t)
        if err > abs(z) + _MAP_SLACK:
            raise ContractViolation(f"|z - t(z)| = {err} exceeds |z| at z = {z}")
        if abs(z) <= tau and err > nu * abs(z) + _MAP_SLACK:
            raise ContractViolation(
                f"|z - t(z)| = {err} exceeds nu|z| at z = {z} inside tau"
            )


def _truncate_block(
    b: np.ndarray, M: float, spec: TruncationSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Clipped coefficients and the indices of those the clip changed."""
    if spec.mode == APPROXIMATE and spec.scalar_map is not None:
        out = np.array(
            [M * complex(spec.scalar_map(complex(z / M))) for z in b],
            dtype=np.complex128,
        )
        # a map that keeps real coefficients real keeps them float64
        out = out if np.iscomplexobj(b) else linalg.real_if_exact(out)
        return out, np.flatnonzero(out != b)
    mags = np.abs(b)
    scale = np.ones_like(mags)
    over = np.flatnonzero(mags > M)
    scale[over] = M / mags[over]
    return b * scale, over


def _is_parseval(f: frames.FrameMatrix) -> bool:
    return f.tightness_eps <= _PARSEVAL_EPS


def truncation_operator(
    f: frames.FrameMatrix, x, M: float, spec: TruncationSpec,
    clip_counts: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One clipping pass: analyze, clip every coefficient at level M,
    synthesize.

    Returns ``(Tx, b_hat)``.  When the frame satisfies the uncertainty
    principle at (eta, delta) and ``M = norm(x)/sqrt(delta*N)``, the
    residual obeys ``norm(x - Tx) <= eta * norm(x)``.  When
    ``clip_counts`` is a list, the number of coefficients the clip changed
    is appended to it.

    A frame whose measured tightness defect is at most 1e-12 counts as
    Parseval, and there ``Tx = x - U e`` for the excess
    ``e = b - b_hat``: the residual ``x - Tx`` is ``U e``, which equals
    ``x - U b_hat`` up to the skipped ``(U U* - I) x``, of norm at most
    ``(2 eps + eps^2) norm(x)``.  ``e`` is zero off the clipped
    coefficients, so a pass that clips nothing runs no synthesis and one
    that clips a few multiplies only their frame vectors.  Other frames
    compute ``Tx = U b_hat``.
    """
    if not M > 0.0:
        raise InvalidParams(f"clip level must be positive, got {M}")
    b = frames.analysis(f, x)
    b_hat, clipped = _truncate_block(b, M, spec)
    if clip_counts is not None:
        clip_counts.append(clipped.size)
    if not _is_parseval(f):
        return frames.synthesis(f, b_hat), b_hat
    v = linalg.as_vector(x)
    if clipped.size == 0:
        return v.copy(), b_hat
    return v - frames.synthesis(f, b - b_hat, support=clipped), b_hat


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


def _zero_representation(N: int, level: float, dtype) -> KashinRepresentation:
    return KashinRepresentation(
        coefficients=np.zeros(N, dtype=dtype),
        level_K=level,
        input_norm=0.0,
        residual_bound=0.0,
        iterations_used=0,
    )


def _accumulate(a: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """``a + b``, added in place when ``a`` can hold the sum.

    ``a`` is None before the first pass, and the sum starts from zeros of
    ``b``'s dtype, so coefficients stay float64 until a pass adds complex
    ones.
    """
    if a is None:
        a = np.zeros(b.shape, dtype=b.dtype)
    elif np.iscomplexobj(b) and not np.iscomplexobj(a):
        return a + b
    a += b
    return a


def kashin_encode(
    f: frames.FrameMatrix, x, cfg: ConversionConfig
) -> KashinRepresentation:
    """Convert ``x`` into a uniformly spread representation against
    ``f``.

    Runs the clip-and-subtract iteration with the variant-adjusted
    (eta', M multiplier, K') from :func:`adjusted_parameters`.  The pass
    count is ``cfg.iterations``, or derived from ``target_accuracy`` as
    the smallest r with eta'^r below it; the loop also stops early once
    the residual is negligible.  With ``exact_last_iteration`` one extra
    unclipped pass zeroes the residual (up to the frame's tightness
    defect), and both the certified level and residual bound account for
    it.  A real (float64) frame keeps real data real: the coefficients are
    float64 unless the data has a nonzero imaginary part or a scalar map
    returns complex values; a complex frame works in complex arithmetic
    throughout.  Raises :class:`NonConvergence` when a measured per-pass
    contraction exceeds eta' + 0.05 — the supplied (eta, delta) do not
    hold for this frame — and :class:`InvalidParams` when the norm of a
    finite input exceeds the float64 range.

    On a Parseval frame (measured defect at most 1e-12) each pass carries
    the modeled residual ``U e`` of :func:`truncation_operator`, so it
    costs one analysis plus a synthesis of only the clipped coefficients,
    and none when nothing clipped, which ends the loop with a zero
    residual.  The residual bound then adds ``(2 eps + eps^2)`` times the
    summed norms of the residuals entering the clipping passes, with
    ``eps = max(cfg.frame_epsilon, f.tightness_eps)``: the most by which
    the modeled residual can stray from ``x - U a``.  Other frames run a
    full synthesis per pass.
    """
    v = linalg.as_vector(x)
    if v.shape[0] != f.n:
        raise InvalidParams(
            f"frame lives in C^{f.n}, vector has length {v.shape[0]}"
        )
    # a complex frame's residual is complex from the first pass on, so the
    # input is taken as complex up front
    if f.kind == frames.PARTIAL_FOURIER or np.iscomplexobj(f.matrix):
        v = v.astype(np.complex128, copy=False)
    if cfg.frame_epsilon < f.tightness_eps - 1e-9:
        raise InvalidConfig(
            f"config certifies tightness defect {cfg.frame_epsilon} but the "
            f"frame measures {f.tightness_eps}"
        )
    eta_adj, mult, level = adjusted_parameters(cfg)
    if (
        cfg.truncation.mode == APPROXIMATE
        and cfg.truncation.scalar_map is not None
    ):
        verify_truncation_map(
            cfg.truncation.scalar_map, cfg.truncation.nu, cfg.truncation.tau
        )
    norm = linalg.norm2(v)
    if not math.isfinite(norm):
        raise InvalidParams("input norm exceeds the float64 range")
    if norm == 0.0:
        return _zero_representation(f.N, level, v.dtype)
    if cfg.iterations is not None:
        r = cfg.iterations
    else:
        r = max(
            1,
            math.ceil(
                math.log(cfg.target_accuracy) / math.log(eta_adj) - 1e-12
            ),
        )

    M = mult * norm / math.sqrt(cfg.up.delta * f.N)
    a = None
    residual = v.copy()
    prev = norm
    norms: list[float] = []
    clip_counts: list[int] = []
    entering_sum = 0.0
    passes = 0
    for _ in range(r):
        entering_sum += prev
        tx, b_hat = truncation_operator(f, residual, M, cfg.truncation, clip_counts)
        residual = residual - tx
        a = _accumulate(a, b_hat)
        rn = linalg.norm2(residual)
        norms.append(rn)
        passes += 1
        if rn > (eta_adj + 0.05) * prev + 1e-12 * norm:
            raise NonConvergence(
                f"residual contracted by {rn / prev:.6f} > eta' + 0.05 = "
                f"{eta_adj + 0.05:.6f}; the supplied (eta, delta) do not hold "
                "for this frame"
            )
        prev = rn
        M *= eta_adj
        if rn <= _EARLY_STOP * norm:
            break

    eps = cfg.frame_epsilon
    if cfg.exact_last_iteration:
        entering = prev
        b = frames.analysis(f, residual)
        a = _accumulate(a, b)
        residual = residual - frames.synthesis(f, b)
        rn = linalg.norm2(residual)
        norms.append(rn)
        clip_counts.append(0)
        passes += 1
        level_cert = level + (1.0 + eps + 1e-9) * (entering / norm) * math.sqrt(f.N)
        bound = max(((1.0 + eps) ** 2 - 1.0) * entering, rn)
    else:
        level_cert = level
        bound = max(eta_adj**passes * norm, prev)
    if _is_parseval(f):
        # the modeled residual strays from x - U a by (U U* - I) times
        # each residual entering a clipping pass
        eps_max = max(eps, f.tightness_eps)
        bound += (2.0 * eps_max + eps_max * eps_max) * entering_sum

    return KashinRepresentation(
        coefficients=a,
        level_K=level_cert,
        input_norm=norm,
        residual_bound=bound + _RESIDUAL_CUSHION * norm,
        iterations_used=passes,
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
