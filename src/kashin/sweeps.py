"""Experiment sweeps behind ``kashin bench`` and the scripts in ``scripts/``.

Each sweep draws its frame from a :class:`~kashin.frames.FrameFamily`,
calibrates eta on it with :func:`calibrate`, and returns rows of the
experiment CSV whose ``family`` column is the family tag.

Input draws: a sweep draws its unit inputs from ``rng_from_seed(seed + 1)``
and trial t carries seed ``seed + t`` (also the channel model's seed), with
``seed`` the family's.  Channel sweeps draw Gaussian inputs, and every
channel cell sees the same inputs and model seeds, so cells are paired trial
by trial.  Decay sweeps draw frame columns, normalized: inputs that clip,
where random Gaussian ones often leave every coefficient below the clip
level and stop after one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conversion, frames, linalg, quantize, uncertainty
from .formats import ExperimentRow

# added to the sampled eta, which is only a lower bound on the true constant
ETA_MARGIN = 0.02
_CALIBRATION_TRIALS = 2000


def calibrate(frame: frames.FrameMatrix, delta: float, passes: int, seed: int
              ) -> tuple[float, conversion.ConversionConfig]:
    """eta = min(sampled estimate + ``ETA_MARGIN``, 1 - 1e-6), and the
    exact-clipping config of ``passes`` passes at (eta, delta), certified
    against the frame's measured tightness defect."""
    eta_hat = uncertainty.up_estimate(frame, delta, _CALIBRATION_TRIALS, seed)[0]
    eta = min(eta_hat + ETA_MARGIN, 1.0 - 1e-6)
    return eta, conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=eta, delta=delta),
        truncation=conversion.TruncationSpec(),
        iterations=passes,
        frame_epsilon=frame.tightness_eps + 1e-12,
    )


def _unit_inputs(n: int, seed: int, count: int) -> list[np.ndarray]:
    g = linalg.rng_from_seed(seed + 1)
    inputs = []
    for _ in range(count):
        x = g.standard_normal(n)
        inputs.append(x / np.linalg.norm(x))
    return inputs


def _column_inputs(frame: frames.FrameMatrix, seed: int, count: int
                   ) -> list[np.ndarray]:
    g = linalg.rng_from_seed(seed + 1)
    cols = frames.columns(frame, g.integers(frame.N, size=count))
    return list((cols / np.linalg.norm(cols, axis=0)).T)


def trial_row(family: str, frame: frames.FrameMatrix, x,
              rep: conversion.KashinRepresentation, spec: quantize.QuantizerSpec,
              model: quantize.ErrorModel, up: uncertainty.UPParams) -> ExperimentRow:
    """Run one :func:`~kashin.quantize.distortion_experiment` trial and
    record it as a CSV row."""
    report = quantize.distortion_experiment(frame, x, rep, spec, model)
    return ExperimentRow(
        family=family, n=frame.n, N=frame.N, up_eta=up.eta, up_delta=up.delta,
        K=rep.level_K, L=spec.levels_L, model=model.tag,
        damage_fraction=model.damage_fraction, seed=model.seed,
        l2_error=report.l2_error, bound=report.theoretical_bound,
        bound_ok=report.bound_satisfied,
    )


@dataclass(frozen=True)
class DecaySweep:
    """Rows of one decay configuration and the numbers its summary
    quotes: calibrated eta, adjusted eta', certified level, and the
    largest per-pass contraction ratio seen."""

    rows: list[ExperimentRow]
    eta: float
    eta_adjusted: float
    level: float
    worst_ratio: float


def decay_sweep(family: frames.FrameFamily, delta: float, passes: int,
                trials: int) -> DecaySweep:
    """Encode ``trials`` normalized frame columns, drawn at random, with
    ``passes`` passes and check each final error ``norm(x - U a)`` against
    ``eta'^passes + 1e-13``.  Raises :class:`~kashin.errors.InvalidConfig`
    when the frame's tightness defect pushes eta' to 1 or beyond."""
    frame = frames.generate(family)
    eta, cfg = calibrate(frame, delta, passes, family.seed)
    eta_adj, _, level = conversion.adjusted_parameters(cfg)
    bound = eta_adj**passes + 1e-13
    rows = []
    worst = 0.0
    for t, x in enumerate(_column_inputs(frame, family.seed, trials)):
        rep = conversion.kashin_encode(frame, x, cfg)
        norms = rep.residual_norms
        worst = max(worst, *(b / a for a, b in zip((1.0,) + norms, norms)))
        # the last recorded norm is the encoder's carried residual, which on
        # a Parseval frame is often exactly 0, so the error is recomputed
        l2 = linalg.norm2(x - conversion.kashin_decode(frame, rep))
        rows.append(ExperimentRow(
            family=family.tag, n=frame.n, N=frame.N, up_eta=eta,
            up_delta=delta, K=rep.level_K, L=0, model="decay",
            damage_fraction=0.0, seed=family.seed + t, l2_error=l2, bound=bound,
            bound_ok=l2 <= bound + 1e-9,
        ))
    return DecaySweep(rows, eta, eta_adj, level, worst)


def channel_sweep(family: frames.FrameFamily, delta: float, passes: int,
                  cells, trials: int, baseline: bool = False
                  ) -> list[list[ExperimentRow]]:
    """Quantization and channel trials over ``cells`` of (model tag,
    damage fraction, levels L); returns one row list per cell.

    Each input is encoded once and reused by every cell.  The quantizer
    covers the certified coefficient range, in complex mode exactly when
    the coefficients carry imaginary mass.  With ``baseline``,
    quantize-only cells also quantize the raw frame coefficients of each
    input (model tag ``baseline``, K = 0).
    """
    frame = frames.generate(family)
    eta, cfg = calibrate(frame, delta, passes, family.seed)
    inputs = _unit_inputs(frame.n, family.seed, trials)
    reps = [conversion.kashin_encode(frame, x, cfg) for x in inputs]
    out = []
    for tag, fraction, levels in cells:
        rows = []
        for t, (x, rep) in enumerate(zip(inputs, reps)):
            complex_mode = quantize.has_imaginary_mass(rep.coefficients, rep.input_norm)
            spec = quantize.QuantizerSpec.from_representation(
                rep, levels, complex_mode=complex_mode
            )
            model = quantize.ErrorModel(tag=tag, damage_fraction=fraction,
                                        seed=family.seed + t)
            rows.append(trial_row(family.tag, frame, x, rep, spec, model, cfg.up))
            if baseline and tag == quantize.QUANTIZE_ONLY:
                base = quantize.frame_baseline_quantize(frame, x, levels)
                rows.append(ExperimentRow(
                    family=family.tag, n=frame.n, N=frame.N, up_eta=eta,
                    up_delta=delta, K=0.0, L=levels, model="baseline",
                    damage_fraction=0.0, seed=family.seed + t,
                    l2_error=base.l2_error, bound=base.theoretical_bound,
                    bound_ok=base.bound_satisfied,
                ))
        out.append(rows)
    return out
