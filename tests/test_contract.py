"""The argument contract of the public API: every numeric parameter of the
public constructors and functions, given any of a fixed set of values,
gives a result or raises a ``KashinError``.  A count or seed refuses every
value that is not a whole number, a real range every value that is not a
finite real, and a sweep never returns an empty row list."""

import math

import numpy as np
import pytest

from kashin import conversion, frames, linalg, quantize, sweeps, uncertainty
from kashin.errors import KashinError

# the largest whole number here is 8, so no call allocates much memory
# because of its arguments
VALUES = [
    0, 1, 2, 3, 8, -1, 2.0, 2.5, 0.5, 1e-300, math.nan, math.inf, -math.inf,
    True, False, "3", "0.5", None, np.float64(0.5), np.int64(3), np.array(0.5),
    [1],
]

COUNT = "count"
REAL = "real"

FRAME = frames.gen_random_orthogonal(8, 16, 11)
X = FRAME.matrix[:, 0] / np.linalg.norm(FRAME.matrix[:, 0])
UP = uncertainty.UPParams(eta=0.9, delta=2 / 16)
REP = conversion.kashin_encode(FRAME, X, conversion.ConversionConfig(
    up=UP, truncation=conversion.TruncationSpec(), iterations=4))
FAMILY = frames.FrameFamily(frames.RANDOM_ORTHOGONAL, 8, 16, 11)
CELLS = [(quantize.QUANTIZE_ONLY, 0.0, 16)]


def _config(iterations=2, frame_epsilon=0.0):
    return conversion.ConversionConfig(
        up=UP, truncation=conversion.TruncationSpec(), iterations=iterations,
        frame_epsilon=frame_epsilon)


def _rep(level_K=20.0, input_norm=1.0, residual_bound=0.0, iterations_used=0):
    return conversion.KashinRepresentation(
        coefficients=np.full(16, 0.01), level_K=level_K, input_norm=input_norm,
        residual_bound=residual_bound, iterations_used=iterations_used)


def _dense(n=3, N=8):
    return frames.FrameMatrix(n=n, N=N, kind=frames.DENSE, matrix=np.eye(3, 8))


def _family(n=4, N=8, seed=0):
    return frames.FrameFamily(frames.RANDOM_ORTHOGONAL, n, N, seed)


def _decay(delta=2 / 16, passes=4, trials=2):
    return sweeps.decay_sweep(FAMILY, delta, passes, trials).rows


def _channel(delta=2 / 16, passes=4, trials=2):
    return [row for rows in sweeps.channel_sweep(FAMILY, delta, passes, CELLS, trials)
            for row in rows]


# (function, parameter) -> (rule, call with the value); a sweep's call
# returns its rows
PAIRS = {
    "UPParams.eta": (REAL, lambda v: uncertainty.UPParams(eta=v, delta=0.25)),
    "UPParams.delta": (REAL, lambda v: uncertainty.UPParams(eta=0.5, delta=v)),
    "TruncationSpec.nu": (REAL, lambda v: conversion.TruncationSpec(
        mode=conversion.APPROXIMATE, nu=v, tau=0.8)),
    "TruncationSpec.tau": (REAL, lambda v: conversion.TruncationSpec(
        mode=conversion.APPROXIMATE, nu=0.1, tau=v)),
    "ConversionConfig.iterations": (COUNT, lambda v: _config(iterations=v)),
    "ConversionConfig.frame_epsilon": (REAL, lambda v: _config(frame_epsilon=v)),
    "KashinRepresentation.level_K": (REAL, lambda v: _rep(level_K=v)),
    "KashinRepresentation.input_norm": (REAL, lambda v: _rep(input_norm=v)),
    "KashinRepresentation.residual_bound": (REAL, lambda v: _rep(residual_bound=v)),
    "KashinRepresentation.iterations_used": (COUNT, lambda v: _rep(iterations_used=v)),
    "QuantizerSpec.levels_L": (COUNT, lambda v: quantize.QuantizerSpec(
        levels_L=v, range_half_width=1.0)),
    "QuantizerSpec.range_half_width": (REAL, lambda v: quantize.QuantizerSpec(
        levels_L=4, range_half_width=v)),
    "QuantizerSpec.from_representation.levels_L": (
        COUNT, lambda v: quantize.QuantizerSpec.from_representation(REP, v)),
    "ErrorModel.damage_fraction": (REAL, lambda v: quantize.ErrorModel(
        tag=quantize.ERASURE, damage_fraction=v)),
    "ErrorModel.flip_count": (COUNT, lambda v: quantize.ErrorModel(
        tag=quantize.BIT_FLIP, flip_count=v)),
    "ErrorModel.seed": (COUNT, lambda v: quantize.ErrorModel(
        tag=quantize.ADVERSARIAL, damage_fraction=0.25, seed=v)),
    "apply_error_model.clamp_W": (REAL, lambda v: quantize.apply_error_model(
        REP.coefficients, quantize.ErrorModel(
            tag=quantize.ADVERSARIAL, damage_fraction=0.25, seed=1), v)),
    "frame_baseline_quantize.levels_L": (
        COUNT, lambda v: quantize.frame_baseline_quantize(FRAME, X, v)),
    "separation_experiment.levels_L": (
        COUNT, lambda v: quantize.separation_experiment(FRAME, X, REP, v)),
    "FrameFamily.n": (COUNT, lambda v: _family(n=v)),
    "FrameFamily.N": (COUNT, lambda v: _family(N=v)),
    "FrameFamily.seed": (COUNT, lambda v: _family(seed=v)),
    "FrameMatrix.n": (COUNT, lambda v: _dense(n=v)),
    "FrameMatrix.N": (COUNT, lambda v: _dense(N=v)),
    "gen_random_orthogonal.n": (COUNT, lambda v: frames.gen_random_orthogonal(v, 8, 0)),
    "gen_random_orthogonal.N": (COUNT, lambda v: frames.gen_random_orthogonal(4, v, 0)),
    "gen_random_orthogonal.seed": (
        COUNT, lambda v: frames.gen_random_orthogonal(4, 8, v)),
    "gen_subgaussian.n": (
        COUNT, lambda v: frames.gen_subgaussian(v, 8, frames.GAUSSIAN, 0)),
    "gen_subgaussian.N": (
        COUNT, lambda v: frames.gen_subgaussian(4, v, frames.GAUSSIAN, 0)),
    "gen_subgaussian.seed": (
        COUNT, lambda v: frames.gen_subgaussian(4, 8, frames.BERNOULLI, v)),
    "gen_partial_fourier.n": (COUNT, lambda v: frames.gen_partial_fourier(8, v, 0)),
    "gen_partial_fourier.N": (COUNT, lambda v: frames.gen_partial_fourier(v, 4, 0)),
    "gen_partial_fourier.seed": (COUNT, lambda v: frames.gen_partial_fourier(8, 4, v)),
    "up_estimate.delta": (REAL, lambda v: uncertainty.up_estimate(FRAME, v, 4, 0)),
    "up_estimate.trials": (COUNT, lambda v: uncertainty.up_estimate(FRAME, 0.125, v, 0)),
    "up_estimate.seed": (COUNT, lambda v: uncertainty.up_estimate(FRAME, 0.125, 4, v)),
    "up_check_exact.delta": (REAL, lambda v: uncertainty.up_check_exact(FRAME, v)),
    "support_width.delta": (REAL, lambda v: uncertainty.support_width(v, 16)),
    "uup_to_up.epsilon": (REAL, lambda v: uncertainty.uup_to_up(v, 0.25, 4, 64)),
    "uup_to_up.delta": (REAL, lambda v: uncertainty.uup_to_up(0.1, v, 4, 64)),
    "uup_to_up.n": (COUNT, lambda v: uncertainty.uup_to_up(0.1, 0.25, v, 64)),
    "uup_to_up.N": (COUNT, lambda v: uncertainty.uup_to_up(0.1, 0.25, 4, v)),
    "rng_from_seed.seed": (COUNT, linalg.rng_from_seed),
    "calibrate.delta": (REAL, lambda v: sweeps.calibrate(FRAME, v, 4, 0)),
    "calibrate.passes": (COUNT, lambda v: sweeps.calibrate(FRAME, 0.125, v, 0)),
    "calibrate.seed": (COUNT, lambda v: sweeps.calibrate(FRAME, 0.125, 4, v)),
    "decay_sweep.delta": (REAL, lambda v: _decay(delta=v)),
    "decay_sweep.passes": (COUNT, lambda v: _decay(passes=v)),
    "decay_sweep.trials": (COUNT, lambda v: _decay(trials=v)),
    "channel_sweep.delta": (REAL, lambda v: _channel(delta=v)),
    "channel_sweep.passes": (COUNT, lambda v: _channel(passes=v)),
    "channel_sweep.trials": (COUNT, lambda v: _channel(trials=v)),
}

SWEEPS = ("decay_sweep.", "channel_sweep.")


def _whole(value) -> bool:
    return isinstance(value, (int, np.integer)) or (
        isinstance(value, float) and value.is_integer())


def _finite_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and math.isfinite(value)


@pytest.mark.parametrize("pair", PAIRS)
def test_every_value_gives_a_result_or_a_kashin_error(pair):
    rule, call = PAIRS[pair]
    allowed = _whole if rule == COUNT else _finite_real
    faults = []
    for value in VALUES:
        try:
            result = call(value)
        except KashinError:
            continue
        except Exception as exc:  # any other error breaks the contract
            faults.append(f"{value!r}: raw {type(exc).__name__}: {exc}")
            continue
        if not allowed(value):
            faults.append(f"{value!r}: accepted, but it is not a "
                          f"{'whole number' if rule == COUNT else 'finite real'}")
        if pair.startswith(SWEEPS) and not result:
            faults.append(f"{value!r}: the sweep returned no rows")
    assert not faults, f"{pair}:\n" + "\n".join(faults)

