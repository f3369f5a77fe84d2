"""Every certificate holds: the measured error never exceeds the reported
bound, on tight, nearly tight and loose frames, at coarse and odd quantizer
levels and at input norms far from 1.  The encoder's own certificates,
``level_K`` and ``residual_bound``, hold on inputs that clip, with hard
and approximate clipping, at every pass count.

The bounds must also mean something: at unit norm and L <= 4 the worst
quantize-only and baseline errors reach at least half their bounds.  And
the checks that judge them are relative, so at input norms 1e-100 and
1e-300 a report over its bound, a sweep row over its bound and a
``.kcof`` over its level are refused, and complex coefficients keep
their complex quantizer.
"""

import dataclasses
import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kashin import conversion, formats, frames, linalg, quantize, sweeps
from kashin.errors import ContractViolation, FormatError, InvalidParams

LEVELS = (2, 3, 4, 8, 64)
SCALES = (1e-100, 1.0, 1e100)
TINY = (1e-100, 1e-300)
PASSES = 12


@functools.cache
def _case(name: str):
    """(frame, encoder config) of one named frame, calibrated as
    ``kashin bench`` calibrates it."""
    if name == "orthogonal":
        frame = frames.gen_random_orthogonal(64, 128, 3)
    elif name == "fourier":
        frame = frames.gen_partial_fourier(128, 64, 3, mode=frames.EXACT_N)
    elif name == "near-tight":
        # every singular value 1 + 1e-8, so eps is 1e-8, measured exactly
        u = frames.gen_random_orthogonal(64, 128, 3).matrix * (1.0 + 1e-8)
        frame = frames.FrameMatrix(n=64, N=128, kind=frames.DENSE, matrix=u)
    else:
        frame = frames.gen_subgaussian(16, 256, name, 0)
    # every Bernoulli column has norm 1/4, below the clip level 0.31 that
    # delta = 0.05 sets for a unit column input; at 0.1 it is 0.22
    delta = 0.1 if name == frames.BERNOULLI else 0.05
    return frame, sweeps.calibrate(frame, delta, PASSES, 0)[1]


TIGHT = ("orthogonal", "fourier", "near-tight")
LOOSE = (frames.GAUSSIAN, frames.BERNOULLI)
ALL = TIGHT + LOOSE
APPROX = conversion.TruncationSpec(mode=conversion.APPROXIMATE, nu=0.1, tau=0.8)


def _input(frame, seed: int, complex_valued: bool, scale: float) -> np.ndarray:
    g = linalg.rng_from_seed(seed)
    x = g.standard_normal(frame.n)
    if complex_valued:
        x = x + 1j * g.standard_normal(frame.n)
    return x * (scale / np.linalg.norm(x))


def _clipping_input(frame, seed: int, k: int, scale: float) -> np.ndarray:
    """A normalized frame column (k = 1) or a weighted sum of k columns,
    scaled to norm ``scale``: inputs that clip.  The columns come from the
    longest eighth, ties broken at random, since on a loose frame only
    the longer columns reach the clip level."""
    g = linalg.rng_from_seed(seed)
    order = g.permutation(frame.N)
    lengths = np.linalg.norm(frames.columns(frame, order), axis=0)
    longest = order[np.argsort(-lengths, kind="stable")[:frame.N // 8]]
    cols = frames.columns(frame, g.choice(longest, k, replace=False))
    cols = cols / np.linalg.norm(cols, axis=0)
    x = cols @ (g.standard_normal(k) if k > 1 else np.ones(1))
    return x * (scale / np.linalg.norm(x))


def _models(seed: int, damage: float, flips: int) -> list[quantize.ErrorModel]:
    return [
        quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY),
        quantize.ErrorModel(tag=quantize.ERASURE, damage_fraction=damage,
                            seed=seed),
        quantize.ErrorModel(tag=quantize.ADVERSARIAL, damage_fraction=damage,
                            seed=seed),
        quantize.ErrorModel(tag=quantize.ADVERSARIAL, damage_fraction=damage,
                            seed=seed, worst_direction=True),
        quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=flips, seed=seed),
    ]


def test_cases_span_tight_near_tight_and_loose_frames():
    eps = {name: _case(name)[0].tightness_eps for name in ALL}
    assert eps["orthogonal"] <= 1e-14 and eps["fourier"] == 0.0
    assert eps["near-tight"] == pytest.approx(1e-8, rel=1e-6)
    assert min(eps[name] for name in LOOSE) >= 0.1


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ALL),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    complex_valued=st.booleans(),
    levels=st.sampled_from(LEVELS),
    scale=st.sampled_from(SCALES),
    damage=st.sampled_from([1 / 128, 4 / 128, 0.2]),
    flips=st.integers(min_value=1, max_value=8),
)
def test_every_trial_stays_within_its_bound(name, seed, complex_valued, levels,
                                            scale, damage, flips):
    frame, cfg = _case(name)
    x = _input(frame, seed, complex_valued, scale)
    rep = conversion.kashin_encode(frame, x, cfg)
    spec = quantize.QuantizerSpec.from_representation(rep, levels)
    models = _models(seed, damage, flips)
    for model, report in zip(
            models, quantize.distortion_trials(frame, x, rep, spec, models)):
        assert report.l2_error <= report.theoretical_bound, model


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(ALL),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=8),
    scale=st.sampled_from(SCALES),
    last=st.booleans(),
    approximate=st.booleans(),
    passes=st.sampled_from([1, 2, 3, 20]),
)
def test_encode_certificates_hold_on_clipping_inputs(name, seed, k, scale, last,
                                                     approximate, passes):
    # one to three passes end on a pass that still clips
    frame, cfg = _case(name)
    cfg = dataclasses.replace(cfg, exact_last_iteration=last, iterations=passes,
                              truncation=APPROX if approximate else cfg.truncation)
    x = _clipping_input(frame, seed, k, scale)
    rep = conversion.kashin_encode(frame, x, cfg)
    err = linalg.norm2(x - frames.synthesis(frame, rep.coefficients))
    assert err <= rep.residual_bound
    cap = rep.level_K * linalg.norm2(x) / np.sqrt(frame.N)
    assert np.max(np.abs(rep.coefficients)) <= cap


@pytest.mark.parametrize("name", ALL)
def test_clipping_inputs_clip(name):
    # sums of many columns mostly stay under a loose frame's clip level;
    # on the tight frames nearly every input clips
    frame, cfg = _case(name)
    clipped = sum(
        conversion.kashin_encode(frame, _clipping_input(frame, seed, k, 1.0),
                                 cfg).clip_counts[0] > 0
        for seed in range(8) for k in range(1, 9))
    assert clipped >= (12 if name in LOOSE else 56)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(TIGHT),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    complex_valued=st.booleans(),
    levels=st.sampled_from(LEVELS),
    scale=st.sampled_from(SCALES),
)
def test_baseline_stays_within_its_bound(name, seed, complex_valued, levels,
                                         scale):
    frame = _case(name)[0]
    x = _input(frame, seed, complex_valued, scale)
    report = quantize.frame_baseline_quantize(frame, x, levels)
    assert report.l2_error <= report.theoretical_bound


@pytest.mark.parametrize("name, complex_valued", [
    ("orthogonal", False), ("orthogonal", True), ("fourier", False),
    ("near-tight", False), ("gaussian", False),
])
def test_coarse_bounds_are_not_vacuous(name, complex_valued):
    frame, cfg = _case(name)
    worst = {"trial": 0.0, "baseline": 0.0}
    for seed in range(6):
        x = _input(frame, seed, complex_valued, 1.0)
        rep = conversion.kashin_encode(frame, x, cfg)
        for levels in (2, 3, 4):
            spec = quantize.QuantizerSpec.from_representation(rep, levels)
            reports = {"trial": quantize.distortion_experiment(
                frame, x, rep, spec, quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY))}
            if name in TIGHT:
                reports["baseline"] = quantize.frame_baseline_quantize(
                    frame, x, levels)
            for kind, report in reports.items():
                assert report.l2_error <= report.theoretical_bound
                worst[kind] = max(worst[kind],
                                  report.l2_error / report.theoretical_bound)
    assert worst["trial"] >= 0.5
    if name in TIGHT:
        assert worst["baseline"] >= 0.5


@pytest.mark.parametrize("l2, bound", [(2e-100, 1e-100), (2e-300, 1e-300),
                                       (5e-10, 1e-90)])
def test_a_report_over_a_tiny_bound_is_refused(l2, bound):
    with pytest.raises(InvalidParams, match="contradicts"):
        quantize.DistortionReport(l2_error=l2, theoretical_bound=bound,
                                  bound_satisfied=True, damaged_count=0)
    assert not quantize.DistortionReport(
        l2_error=l2, theoretical_bound=bound, bound_satisfied=False,
        damaged_count=0).bound_satisfied


@pytest.mark.parametrize("norm, peak", [(1e-100, 1e-100), (1e-300, 1e-300),
                                        (1e-100, 9e-13)])
def test_a_kcof_over_its_level_is_refused_at_tiny_norms(tmp_path, norm, peak):
    # level 1 caps each of 4 coefficients at norm/2; every one is at least
    # twice that (the last case measures level 1.8e88)
    header = struct.pack("<4sHIddd", b"KCOF", 1, 4, 1.0, norm, 0.0)
    path = tmp_path / "c.kcof"
    path.write_bytes(header + np.full(4, peak, dtype="<c16").tobytes())
    with pytest.raises(FormatError, match="certified level bound"):
        formats.read_representation(path)
    with pytest.raises(ContractViolation):
        conversion.KashinRepresentation(
            coefficients=np.full(4, peak), level_K=1.0, input_norm=norm,
            residual_bound=0.0, iterations_used=1)


def test_a_decay_row_over_a_tiny_bound_fails(monkeypatch):
    # 300 passes bring the bound below 1e-11, and the decoded vector is
    # moved by 5e-10, which an absolute 1e-9 slack would forgive
    decode = conversion.kashin_decode
    family = frames.FrameFamily(frames.RANDOM_ORTHOGONAL, 64, 128, 0)
    sweep = sweeps.decay_sweep(family, 0.05, 300, 2)
    assert all(row.bound_ok for row in sweep.rows)
    assert sweep.rows[0].bound <= 1e-11

    def moved(f, rep):
        x = decode(f, rep)
        return x + 5e-10 / math.sqrt(x.size)

    monkeypatch.setattr(conversion, "kashin_decode", moved)
    sweep = sweeps.decay_sweep(family, 0.05, 300, 2)
    assert not any(row.bound_ok for row in sweep.rows)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("scale", TINY)
def test_certificates_at_tiny_norms_are_accepted(tmp_path, name, scale):
    frame, cfg = _case(name)
    path = tmp_path / "c.kcof"
    for seed, complex_valued in ((0, False), (1, True)):
        for x in (_input(frame, seed, complex_valued, scale),
                  _clipping_input(frame, seed, 1, scale)):
            rep = conversion.kashin_encode(frame, x, cfg)
            formats.write_representation(path, rep)
            back = formats.read_representation(path)
            assert np.array_equal(back.coefficients, rep.coefficients)
            spec = quantize.QuantizerSpec.from_representation(rep, 4)
            models = _models(seed, 4 / 128, 3)
            for model, report in zip(
                    models, quantize.distortion_trials(frame, x, rep, spec, models)):
                assert report.bound_satisfied, model


@pytest.mark.parametrize("name", ["orthogonal", "fourier"])
@pytest.mark.parametrize("scale", (1e-13,) + TINY)
def test_complex_mode_is_picked_at_every_norm(name, scale):
    """The imaginary-mass rule is relative: a complex input far below norm
    1 is quantized in complex mode, with the error it has at norm 1."""
    frame, cfg = _case(name)
    only = [quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY)]

    def relative_error(norm: float) -> float:
        x = _input(frame, 2, True, norm)
        rep = conversion.kashin_encode(frame, x, cfg)
        spec = quantize.QuantizerSpec.from_representation(rep, 64)
        assert spec.complex_mode
        report = quantize.distortion_trials(frame, x, rep, spec, only)[0]
        assert report.bound_satisfied
        return report.l2_error / norm

    assert relative_error(scale) <= 1.5 * relative_error(1.0)
