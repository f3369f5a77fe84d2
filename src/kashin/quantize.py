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

One policy covers every caller.  :meth:`QuantizerSpec.from_representation`
picks complex mode exactly when the coefficients carry imaginary mass
(:func:`has_imaginary_mass`), and :meth:`QuantizerSpec.error_bound` is the
one formula for what quantization costs.  The raw-frame baseline is a
representation too: :func:`frame_baseline_quantize` runs it as a
quantize-only trial.
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

# relative slack on a trial's bound: l2 <= bound * (1 + _BOUND_SLACK)
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class QuantizerSpec:
    """Mid-rise uniform quantizer: L cells over [-W, W] per real
    component.

    ``complex_mode`` quantizes real and imaginary parts independently
    (codes per coefficient become a pair) and reconstructs complex128;
    otherwise only the real part is kept and reconstructed as float64.
    Cell midpoints are the reconstruction values, so each
    in-range component moves by at most ``step/2 = W/L``
    (see :meth:`error_bound`).
    """

    levels_L: int
    range_half_width: float
    complex_mode: bool = False

    def __post_init__(self):
        object.__setattr__(self, "levels_L", linalg.count(self.levels_L, "levels_L", 2))
        object.__setattr__(self, "range_half_width", linalg.real(
            self.range_half_width, "range_half_width"))

    @property
    def step(self) -> float:
        return 2.0 * self.range_half_width / self.levels_L

    def error_bound(self, a) -> float:
        """Most by which quantizing the in-range coefficients ``a`` moves
        them in norm: ``c*W*sqrt(N)/L`` with c = sqrt(2) in complex mode
        else 1, plus ``norm(Im a)`` for the imaginary parts that real mode
        drops."""
        cfac = math.sqrt(2.0) if self.complex_mode else 1.0
        bound = cfac * self.range_half_width * math.sqrt(a.size) / self.levels_L
        if not self.complex_mode and np.iscomplexobj(a):
            bound += linalg.norm2(a.imag)
        return bound

    @classmethod
    def from_representation(
        cls,
        rep: KashinRepresentation,
        levels_L: int,
        complex_mode: bool | None = None,
        level: float | None = None,
    ) -> "QuantizerSpec":
        """Quantizer sized to a representation's certified dynamic range.

        ``complex_mode`` left unset is complex mode exactly when the
        coefficients carry imaginary mass (:func:`has_imaginary_mass`).
        ``level`` overrides the certified level — pass
        :func:`~kashin.conversion.effective_level` (plus a little
        headroom) for the tighter empirical range.  A zero input norm
        falls back to a unit range so the step stays positive.
        """
        if complex_mode is None:
            complex_mode = has_imaginary_mass(rep.coefficients, rep.input_norm)
        k = rep.level_K if level is None else level
        w = k / math.sqrt(rep.coefficients.size) * rep.input_norm
        return cls(
            levels_L=levels_L,
            range_half_width=w if w > 0.0 else 1.0,
            complex_mode=complex_mode,
        )


def has_imaginary_mass(a, input_norm: float) -> bool:
    """Whether coefficients need complex mode: ``max|Im a|`` exceeds
    ``1e-12 * input_norm``, so a real-mode quantizer would drop more than
    rounding noise.  The threshold is relative, so the rule decides alike
    at every input norm."""
    if not np.iscomplexobj(a):
        return False
    return bool(np.abs(np.imag(a)).max() > 1e-12 * input_norm)


def _midpoints(cells: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Midpoints of the cells indexed by ``cells``, a C-contiguous float64
    array (one entry per component, so real and imaginary parts alternate
    in complex mode) that is overwritten with them; returned as complex128
    pairs in complex mode."""
    cells += 0.5
    cells *= spec.step
    cells += -spec.range_half_width
    return cells.reshape(-1).view(np.complex128) if spec.complex_mode else cells


def quantize_coeffs(
    a, spec: QuantizerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize a coefficient vector; returns ``(codes, a_hat)``.

    Codes are cell indices in [0, L), of shape (N, 2) in complex mode;
    ``a_hat`` holds the corresponding midpoints, complex128 in complex
    mode and float64 in real mode.  Components outside [-W, W] are clamped
    to the edge cells (counted and logged — a correctly sized range never
    clamps).
    """
    a = linalg.as_vector(a)
    if spec.complex_mode:
        v = np.ascontiguousarray(a, np.complex128).view(np.float64).reshape(-1, 2)
    else:
        v = a.real
    cells = v + spec.range_half_width
    cells /= spec.step
    np.floor(cells, out=cells)
    # clamp before the integer cast: a cell index past int64's range would
    # otherwise wrap to INT64_MIN and land in cell 0
    top = spec.levels_L - 1
    clamped = int(np.count_nonzero(cells < 0)) + int(np.count_nonzero(cells > top))
    if clamped:
        np.clip(cells, 0, top, out=cells)
        _log.warning(
            "clamped %d of %d components to the quantizer range", clamped, v.size
        )
    codes = cells.astype(np.int64)
    return codes, _midpoints(cells, spec)


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
    return _midpoints(c.astype(np.float64, order="C"), spec)


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
        object.__setattr__(self, "damage_fraction", linalg.real(
            self.damage_fraction, "damage_fraction", 1.0, zero=True))
        object.__setattr__(self, "flip_count", linalg.count(self.flip_count, "flip_count", 0))
        object.__setattr__(self, "seed", linalg.count(self.seed, "seed", 0))


def _damage_indices(g, N: int, fraction: float) -> np.ndarray:
    count = int(math.floor(fraction * N + 1e-9))
    return np.sort(g.permutation(N)[:count])


def _phases(values: np.ndarray) -> np.ndarray:
    mags = np.abs(values)
    out = np.ones_like(values)
    nz = mags > 0.0
    out[nz] = values[nz] / mags[nz]
    return out


def _flip_codes(
    codes: np.ndarray, model: ErrorModel, clamp_W: float, quantizer: QuantizerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of ``codes`` (from :func:`quantize_coeffs`, left intact)
    after the model's bit flips, plus the touched coefficient indices."""
    flat = codes.reshape(-1).copy()
    bits = max(1, (quantizer.levels_L - 1).bit_length())
    g = linalg.rng_from_seed(model.seed)
    pos = g.integers(0, flat.size, model.flip_count)
    bit = g.integers(0, bits, model.flip_count)
    # unbuffered, so a position drawn twice flips twice
    np.bitwise_xor.at(flat, pos, np.left_shift(np.int64(1), bit))
    per_coeff = 2 if quantizer.complex_mode else 1
    touched = np.unique(pos // per_coeff)
    # flipped codes may leave [0, L); extrapolate the midpoint grid, then
    # pull only the touched coefficients back to the allowed magnitude
    damaged = _midpoints(flat.astype(np.float64), quantizer)
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
    codes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damaged copy of ``a`` plus the touched index set.  Bit flips act
    on ``codes``, the quantized ``a``, which are computed when not given."""
    if model.tag == QUANTIZE_ONLY:
        return a.copy(), np.empty(0, dtype=np.int64)
    if model.tag == BIT_FLIP:
        if quantizer is None:
            raise InvalidParams("the bit-flip model needs a quantizer spec")
        codes = quantize_coeffs(a, quantizer)[0] if codes is None else codes
        return _flip_codes(codes, model, clamp_W, quantizer)
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
        # real coefficients get the real part of the same draw
        damaged[idx] = (
            radius * np.exp(1j * angle) if np.iscomplexobj(a)
            else radius * np.cos(angle)
        )
    return damaged, idx


def apply_error_model(
    a, model: ErrorModel, clamp_W: float, quantizer: QuantizerSpec | None = None
) -> np.ndarray:
    """Damaged copy of a coefficient vector.

    Erasure zeroes the chosen indices; the adversary replaces them with
    values of magnitude at most ``clamp_W`` (real values for a float64
    ``a``); bit flips corrupt the
    quantized code stream (``quantizer`` required) and clamp only the
    touched coefficients back to ``clamp_W``.  Untouched coefficients
    come through bit-identical.
    """
    clamp_W = linalg.real(clamp_W, "clamp_W")
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
            self.l2_error <= self.theoretical_bound * (1.0 + _BOUND_SLACK)
        ):
            raise InvalidParams("bound_satisfied contradicts the recorded numbers")


def _report(l2: float, bound: float, damaged: int) -> DistortionReport:
    return DistortionReport(
        l2_error=l2,
        theoretical_bound=bound,
        bound_satisfied=l2 <= bound * (1.0 + _BOUND_SLACK),
        damaged_count=damaged,
    )


def distortion_experiment(
    f: frames.FrameMatrix,
    x,
    rep: KashinRepresentation,
    spec: QuantizerSpec,
    model: ErrorModel,
) -> DistortionReport:
    """One trial of :func:`distortion_trials`."""
    return _trials(f, x, rep, spec, [model])[0]


def distortion_trials(
    f: frames.FrameMatrix,
    x,
    rep: KashinRepresentation,
    spec: QuantizerSpec,
    models,
) -> list[DistortionReport]:
    """Push a representation through quantization plus channel damage,
    once per model, and compare each outcome against the certified bound.

    Bounds (W = quantizer half-width, Q = ``spec.error_bound(a)``, which
    is ``c*W*sqrt(N)/L`` with c = sqrt(2) in complex mode else 1 for
    float64 coefficients, d = touched count, s = 1 + ``f.tightness_eps``):
    quantize-only ``s*Q``; erasure and adversarial
    ``s*2*W*sqrt(damage_fraction*N)`` applied to the raw coefficients;
    bit-flip the sum ``s*(Q + 2*W*sqrt(d))``.  The factor s
    bounds the synthesis norm ||U||, which exceeds 1 on frames that are
    not tight.  The representation's residual bound is always added,
    since its coefficients only reproduce the input up to that much.  Raises
    :class:`InvalidParams` when ``spec`` is real but the coefficients
    carry imaginary mass (:func:`has_imaginary_mass`), which the bound
    does not cover.

    The trials run as one block: inputs are validated and the
    coefficients quantized once, every quantize-only model shares one
    report (the trial is deterministic), and each bit-flip trial flips a
    copy of the shared codes.  Each other report's ``l2_error`` is
    ``norm(x - U damaged)`` over that trial's full damaged vector.
    """
    return _trials(f, x, rep, spec, models)


# the one implementation behind distortion_experiment, distortion_trials and
# frame_baseline_quantize, so that a traced distortion_experiment keeps the
# trial's own work in its span
def _trials(f, x, rep, spec, models) -> list[DistortionReport]:
    v = linalg.as_vector(x)
    a = linalg.as_vector(rep.coefficients)
    if v.shape[0] != f.n or a.size != f.N:
        raise DimensionMismatch(
            f"expected a length-{f.n} vector and {f.N} coefficients"
        )
    if not spec.complex_mode and has_imaginary_mass(a, rep.input_norm):
        raise InvalidParams(
            "coefficients carry imaginary mass; quantize them in complex mode"
        )
    w = spec.range_half_width
    scale = 1.0 + f.tightness_eps
    codes = quantized = None
    if any(m.tag in (QUANTIZE_ONLY, BIT_FLIP) for m in models):
        codes, quantized = quantize_coeffs(a, spec)
        qbound = spec.error_bound(a)

    def trial(damaged, count: int, coeff_bound: float) -> DistortionReport:
        l2 = linalg.norm2(v - frames.synthesis(f, damaged))
        return _report(l2, scale * coeff_bound + rep.residual_bound, count)

    quantize_only = None
    reports = []
    for model in models:
        if model.tag == QUANTIZE_ONLY:
            if quantize_only is None:
                quantize_only = trial(quantized, 0, qbound)
            reports.append(quantize_only)
            continue
        damaged, touched = _apply_damage(a, model, w, spec, codes)
        if model.tag == BIT_FLIP:
            coeff_bound = qbound + 2.0 * w * math.sqrt(touched.size)
        else:
            coeff_bound = 2.0 * w * math.sqrt(model.damage_fraction * f.N)
        reports.append(trial(damaged, int(touched.size), coeff_bound))
    return reports


def frame_baseline_quantize(f: frames.FrameMatrix, x, levels_L: int) -> DistortionReport:
    """Quantize the raw frame coefficients of ``x`` — the comparison
    baseline a spread representation beats.

    Requires a tight frame (defect eps <= 1e-6).  The raw representation
    has coefficients ``b = U* x``, each of magnitude at most
    ``(1+eps)*norm(x)``, so its level is ``(1+eps)*sqrt(N)`` and the
    quantizer range [-(1+eps)*norm(x), (1+eps)*norm(x)] covers every
    coefficient.  Its residual bound ``(2*eps + eps**2)*norm(x)`` is the
    most by which U U* x can stray from x.  The report is that
    representation's quantize-only trial (:func:`distortion_trials`), with
    the mode picked from the coefficients, so its bound is
    ``(1+eps)**2*c*sqrt(N)*norm(x)/L + (2*eps + eps**2)*norm(x)``.
    """
    if f.tightness_eps > 1e-6:
        raise InvalidParams(
            f"baseline needs a tight frame; measured defect {f.tightness_eps}"
        )
    b = frames.analysis(f, x)
    norm = linalg.norm2(x)
    if norm == 0.0:
        return _report(0.0, 0.0, 0)
    eps = f.tightness_eps
    raw = KashinRepresentation(
        coefficients=b, level_K=(1.0 + eps) * math.sqrt(f.N), input_norm=norm,
        residual_bound=(2.0 * eps + eps * eps) * norm, iterations_used=0,
    )
    spec = QuantizerSpec.from_representation(raw, levels_L)
    return _trials(f, x, raw, spec, [ErrorModel(tag=QUANTIZE_ONLY)])[0]


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
    spec = QuantizerSpec.from_representation(rep, levels_L, level=level)
    kashin = distortion_experiment(
        f, x, rep, spec, ErrorModel(tag=QUANTIZE_ONLY)
    )
    return kashin, frame_baseline_quantize(f, x, levels_L)
