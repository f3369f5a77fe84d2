"""Uniform scalar quantization of spread coefficients and channel
error models.

The point of a spread representation is its tiny dynamic range: a
mid-rise uniform quantizer over [-W, W] with W = (K/sqrt(N)) * norm(x)
costs at most W/L per real component, so the reconstruction error stays
O(K/L) regardless of dimension, and damaging a delta-fraction of
coefficients costs only O(K*sqrt(delta)).  This module implements the
quantizer, the damage models (erasure, adversarial replacement, bit
flips in the code stream), and end-to-end distortion experiments with
their certified bounds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .conversion import KashinRepresentation, effective_level
from .errors import CodeOutOfRange, DimensionMismatch, InvalidParams

_log = logging.getLogger(__name__)

QUANTIZE_ONLY = "quantize-only"
ERASURE = "erasure"
ADVERSARIAL = "adversarial"
BIT_FLIP = "bit-flip"
MODEL_TAGS = (QUANTIZE_ONLY, ERASURE, ADVERSARIAL, BIT_FLIP)

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class QuantizerSpec:
    """Mid-rise uniform quantizer: L cells over [-W, W] per real
    component.

    ``complex_mode`` quantizes real and imaginary parts independently
    (codes per coefficient become a pair); otherwise only the real part
    is kept.  Cell midpoints are the reconstruction values, so each
    in-range component moves by at most ``step/2 = W/L``.
    """

    levels_L: int
    range_half_width: float
    complex_mode: bool = False

    def __post_init__(self):
        if self.levels_L < 2:
            raise InvalidParams(f"need at least 2 levels, got {self.levels_L}")
        if not (math.isfinite(self.range_half_width) and self.range_half_width > 0.0):
            raise InvalidParams(
                f"range half-width must be positive, got {self.range_half_width}"
            )

    @property
    def step(self) -> float:
        return 2.0 * self.range_half_width / self.levels_L

    @classmethod
    def from_representation(
        cls,
        rep: KashinRepresentation,
        levels_L: int,
        complex_mode: bool = False,
        level: float | None = None,
    ) -> "QuantizerSpec":
        """Quantizer sized to a representation's certified dynamic range.

        ``level`` overrides the certified level — pass
        :func:`~kashin.conversion.effective_level` (plus a little
        headroom) for the tighter empirical range.  A zero input norm
        falls back to a unit range so the step stays positive.
        """
        k = rep.level_K if level is None else level
        w = k / math.sqrt(rep.coefficients.size) * rep.input_norm
        return cls(
            levels_L=levels_L,
            range_half_width=w if w > 0.0 else 1.0,
            complex_mode=complex_mode,
        )


def has_imaginary_mass(a, input_norm: float) -> bool:
    """Whether coefficients need complex mode: ``max|Im a|`` exceeds
    ``1e-12 * max(input_norm, 1)``, so a real-mode quantizer would drop
    more than rounding noise."""
    return bool(np.abs(np.imag(a)).max() > 1e-12 * max(input_norm, 1.0))


def _components(a: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    if spec.complex_mode:
        return np.column_stack([a.real, a.imag])
    return a.real.copy()


def _assemble(mid: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    if spec.complex_mode:
        return (mid[:, 0] + 1j * mid[:, 1]).astype(np.complex128)
    return mid.astype(np.complex128)


def _midpoints(codes: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    return -spec.range_half_width + (codes + 0.5) * spec.step


def quantize_coeffs(
    a, spec: QuantizerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize a coefficient vector; returns ``(codes, a_hat)``.

    Codes are cell indices in [0, L); ``a_hat`` holds the corresponding
    midpoints.  Components outside [-W, W] are clamped to the edge cells
    (counted and logged — a correctly sized range never clamps).
    """
    v = _components(linalg.as_vector(a), spec)
    raw = np.floor((v + spec.range_half_width) / spec.step).astype(np.int64)
    codes = np.clip(raw, 0, spec.levels_L - 1)
    clamped = int(np.count_nonzero(raw != codes))
    if clamped:
        _log.warning(
            "clamped %d of %d components to the quantizer range", clamped, v.size
        )
    return codes, _assemble(_midpoints(codes, spec), spec)


def dequantize(codes, spec: QuantizerSpec) -> np.ndarray:
    """Map cell indices back to midpoints (exact inverse of the codes
    half of :func:`quantize_coeffs`)."""
    c = np.asarray(codes)
    if not np.issubdtype(c.dtype, np.integer):
        raise CodeOutOfRange("codes must be integers")
    want = 2 if spec.complex_mode else 1
    if c.ndim != want or (spec.complex_mode and c.shape[1] != 2) or c.size == 0:
        raise CodeOutOfRange(
            f"codes must form a nonempty {'(N, 2)' if spec.complex_mode else '(N,)'}"
            " array"
        )
    if c.min() < 0 or c.max() >= spec.levels_L:
        raise CodeOutOfRange(
            f"codes must lie in [0, {spec.levels_L}), got range "
            f"[{c.min()}, {c.max()}]"
        )
    return _assemble(_midpoints(c, spec), spec)


@dataclass(frozen=True)
class ErrorModel:
    """A channel damage model applied after encoding.

    ``damage_fraction`` caps the touched coefficients at
    floor(damage_fraction * N) for the erasure and adversarial models;
    ``flip_count`` counts single-bit flips in the bit-flip model.
    ``worst_direction`` makes the adversary replace each touched
    coefficient with the full-magnitude value opposing it instead of a
    uniform draw from the allowed disk.
    """

    tag: str
    damage_fraction: float = 0.0
    flip_count: int = 0
    seed: int = 0
    worst_direction: bool = False

    def __post_init__(self):
        if self.tag not in MODEL_TAGS:
            raise InvalidParams(f"unknown error model {self.tag!r}")
        if not 0.0 <= self.damage_fraction < 1.0:
            raise InvalidParams(
                f"damage_fraction must lie in [0, 1), got {self.damage_fraction}"
            )
        if self.flip_count < 0:
            raise InvalidParams(f"flip_count must be >= 0, got {self.flip_count}")


def _damage_indices(g, N: int, fraction: float) -> np.ndarray:
    count = int(math.floor(fraction * N + 1e-9))
    return np.sort(g.permutation(N)[:count])


def _phases(values: np.ndarray) -> np.ndarray:
    mags = np.abs(values)
    out = np.ones_like(values)
    nz = mags > 0.0
    out[nz] = values[nz] / mags[nz]
    return out


def _bit_flip_damage(
    a: np.ndarray, model: ErrorModel, clamp_W: float, quantizer: QuantizerSpec
) -> tuple[np.ndarray, np.ndarray]:
    codes, _ = quantize_coeffs(a, quantizer)
    flat = codes.ravel().copy()
    bits = max(1, (quantizer.levels_L - 1).bit_length())
    g = linalg.rng_from_seed(model.seed)
    pos = g.integers(0, flat.size, model.flip_count)
    bit = g.integers(0, bits, model.flip_count)
    for p, b in zip(pos, bit):
        flat[p] ^= np.int64(1) << np.int64(b)
    per_coeff = 2 if quantizer.complex_mode else 1
    touched = np.unique(pos // per_coeff)
    # flipped codes may leave [0, L); extrapolate the midpoint grid, then
    # pull only the touched coefficients back to the allowed magnitude
    mid = _midpoints(flat.reshape(codes.shape), quantizer)
    damaged = _assemble(mid, quantizer)
    if touched.size:
        over = np.abs(damaged[touched]) > clamp_W
        idx = touched[over]
        damaged[idx] = clamp_W * _phases(damaged[idx])
    return damaged, touched


def _apply_damage(
    a: np.ndarray,
    model: ErrorModel,
    clamp_W: float,
    quantizer: QuantizerSpec | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damaged copy of ``a`` plus the touched index set."""
    if model.tag == QUANTIZE_ONLY:
        return a.copy(), np.empty(0, dtype=np.int64)
    if model.tag == BIT_FLIP:
        if quantizer is None:
            raise InvalidParams("the bit-flip model needs a quantizer spec")
        return _bit_flip_damage(a, model, clamp_W, quantizer)
    g = linalg.rng_from_seed(model.seed)
    idx = _damage_indices(g, a.size, model.damage_fraction)
    damaged = a.copy()
    if idx.size == 0:
        return damaged, idx
    if model.tag == ERASURE:
        damaged[idx] = 0.0
    elif model.worst_direction:
        damaged[idx] = -clamp_W * _phases(a[idx])
    else:
        radius = clamp_W * np.sqrt(g.random(idx.size))
        angle = 2.0 * np.pi * g.random(idx.size)
        damaged[idx] = radius * np.exp(1j * angle)
    return damaged, idx


def apply_error_model(
    a, model: ErrorModel, clamp_W: float, quantizer: QuantizerSpec | None = None
) -> np.ndarray:
    """Damaged copy of a coefficient vector.

    Erasure zeroes the chosen indices; the adversary replaces them with
    values of magnitude at most ``clamp_W``; bit flips corrupt the
    quantized code stream (``quantizer`` required) and clamp only the
    touched coefficients back to ``clamp_W``.  Untouched coefficients
    come through bit-identical.
    """
    if not clamp_W > 0.0:
        raise InvalidParams(f"clamp_W must be positive, got {clamp_W}")
    return _apply_damage(linalg.as_vector(a), model, clamp_W, quantizer)[0]


@dataclass(frozen=True)
class DistortionReport:
    """Outcome of one end-to-end trial: measured error against the
    certified bound."""

    l2_error: float
    theoretical_bound: float
    bound_satisfied: bool
    damaged_count: int

    def __post_init__(self):
        if self.bound_satisfied != (
            self.l2_error <= self.theoretical_bound + _BOUND_SLACK
        ):
            raise InvalidParams("bound_satisfied contradicts the recorded numbers")


def _report(l2: float, bound: float, damaged: int) -> DistortionReport:
    return DistortionReport(
        l2_error=l2,
        theoretical_bound=bound,
        bound_satisfied=l2 <= bound + _BOUND_SLACK,
        damaged_count=damaged,
    )


def distortion_experiment(
    f: frames.FrameMatrix,
    x,
    rep: KashinRepresentation,
    spec: QuantizerSpec,
    model: ErrorModel,
) -> DistortionReport:
    """Push a representation through quantization plus channel damage
    and compare against the certified bound.

    Bounds (W = quantizer half-width, c = sqrt(2) in complex mode else
    1, d = touched count): quantize-only ``c*W*sqrt(N)/L``; erasure and
    adversarial ``2*W*sqrt(damage_fraction*N)`` applied to the raw
    coefficients; bit-flip the sum ``c*W*sqrt(N)/L + 2*W*sqrt(d)``.  The
    representation's residual bound is always added, since its
    coefficients only reproduce the input up to that much.  Raises
    :class:`InvalidParams` when ``spec`` is real but the coefficients
    carry imaginary mass (:func:`has_imaginary_mass`), which the bound
    does not cover.
    """
    v = linalg.as_vector(x)
    if v.shape[0] != f.n or rep.coefficients.size != f.N:
        raise DimensionMismatch(
            f"expected a length-{f.n} vector and {f.N} coefficients"
        )
    if not spec.complex_mode and has_imaginary_mass(rep.coefficients, rep.input_norm):
        raise InvalidParams(
            "coefficients carry imaginary mass; quantize them in complex mode"
        )
    w = spec.range_half_width
    cfac = math.sqrt(2.0) if spec.complex_mode else 1.0
    qbound = cfac * w * math.sqrt(f.N) / spec.levels_L
    if model.tag == QUANTIZE_ONLY:
        damaged = quantize_coeffs(rep.coefficients, spec)[1]
        count = 0
        bound = qbound + rep.residual_bound
    elif model.tag == BIT_FLIP:
        damaged, touched = _apply_damage(rep.coefficients, model, w, spec)
        count = int(touched.size)
        bound = qbound + 2.0 * w * math.sqrt(count) + rep.residual_bound
    else:
        damaged, touched = _apply_damage(rep.coefficients, model, w, None)
        count = int(touched.size)
        bound = (
            2.0 * w * math.sqrt(model.damage_fraction * f.N) + rep.residual_bound
        )
    l2 = linalg.norm2(v - frames.synthesis(f, damaged))
    return _report(l2, bound, count)


def frame_baseline_quantize(f: frames.FrameMatrix, x, levels_L: int) -> DistortionReport:
    """Quantize the raw frame coefficients of ``x`` — the comparison
    baseline a spread representation beats.

    Raw coefficients can individually reach norm(x), so the quantizer
    range is [-norm(x), norm(x)] and the reported budget bound is
    ``sqrt(n)/L * norm(x)``.  Requires a tight frame.  Complex mode
    switches on automatically when the coefficients carry imaginary
    mass.
    """
    if f.tightness_eps > 1e-6:
        raise InvalidParams(
            f"baseline needs a tight frame; measured defect {f.tightness_eps}"
        )
    v = linalg.as_vector(x)
    if v.shape[0] != f.n:
        raise DimensionMismatch(f"expected a length-{f.n} vector")
    norm = linalg.norm2(v)
    bound = math.sqrt(f.n) / levels_L * norm
    if norm == 0.0:
        return _report(0.0, 0.0, 0)
    b = frames.analysis(f, v)
    spec = QuantizerSpec(
        levels_L=levels_L,
        range_half_width=norm,
        complex_mode=has_imaginary_mass(b, norm),
    )
    b_hat = quantize_coeffs(b, spec)[1]
    l2 = linalg.norm2(v - frames.synthesis(f, b_hat))
    return _report(l2, bound, 0)


def separation_experiment(
    f: frames.FrameMatrix,
    x,
    rep: KashinRepresentation,
    levels_L: int,
) -> tuple[DistortionReport, DistortionReport]:
    """Paired comparison on one input: spread-coefficient quantization
    (range sized by the measured level, with a hair of headroom) versus
    the raw-frame baseline at the same L.  Returns (spread, baseline)."""
    level = effective_level(rep) * (1.0 + 1e-9)
    spec = QuantizerSpec.from_representation(
        rep,
        levels_L,
        complex_mode=has_imaginary_mass(rep.coefficients, rep.input_norm),
        level=level,
    )
    kashin = distortion_experiment(
        f, x, rep, spec, ErrorModel(tag=QUANTIZE_ONLY)
    )
    return kashin, frame_baseline_quantize(f, x, levels_L)
