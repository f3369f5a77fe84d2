import logging
import math

import numpy as np
import pytest

from kashin import conversion, frames, linalg, quantize, uncertainty
from kashin.errors import (
    CodeOutOfRange,
    DimensionMismatch,
    InvalidParams,
)

from conftest import unit_vectors


def _rep_for(frame, x, eta, delta, r=8, **kw):
    cfg = conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=eta, delta=delta),
        truncation=conversion.TruncationSpec(),
        iterations=r,
        **kw,
    )
    return conversion.kashin_encode(frame, x, cfg)


@pytest.fixture(scope="module")
def calibrated_64x128(frame_64x128):
    eta_hat, _ = uncertainty.up_estimate(frame_64x128, 0.05, trials=300, seed=1)
    return eta_hat + 0.03


class TestQuantizerSpec:
    def test_step_by_hand(self):
        assert quantize.QuantizerSpec(levels_L=4, range_half_width=1.0).step == 0.5
        assert quantize.QuantizerSpec(levels_L=10, range_half_width=2.5).step == 0.5

    def test_validation(self):
        with pytest.raises(InvalidParams):
            quantize.QuantizerSpec(levels_L=1, range_half_width=1.0)
        with pytest.raises(InvalidParams):
            quantize.QuantizerSpec(levels_L=4, range_half_width=0.0)
        with pytest.raises(InvalidParams):
            quantize.QuantizerSpec(levels_L=4, range_half_width=math.inf)

    def test_range_from_representation(self):
        rep = conversion.KashinRepresentation(
            coefficients=np.full(16, 0.1, dtype=np.complex128),
            level_K=4.0, input_norm=2.0, residual_bound=0.0, iterations_used=1,
        )
        spec = quantize.QuantizerSpec.from_representation(rep, 8)
        assert spec.range_half_width == pytest.approx(2.0)
        tighter = quantize.QuantizerSpec.from_representation(rep, 8, level=1.0)
        assert tighter.range_half_width == pytest.approx(0.5)

    def test_zero_norm_falls_back_to_unit_range(self):
        rep = conversion.KashinRepresentation(
            coefficients=np.zeros(4, dtype=np.complex128),
            level_K=1.0, input_norm=0.0, residual_bound=0.0, iterations_used=0,
        )
        spec = quantize.QuantizerSpec.from_representation(rep, 8)
        assert spec.range_half_width == 1.0


class TestQuantizeHandValues:
    # W = 1, L = 4: cells [-1,-0.5, 0, 0.5, 1], midpoints -0.75 .. 0.75

    def test_cell_assignment_and_midpoints(self):
        spec = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0)
        codes, a_hat = quantize.quantize_coeffs(
            np.array([0.6, -0.8, 0.1, -0.2]), spec
        )
        assert codes.tolist() == [3, 0, 2, 1]
        assert a_hat == pytest.approx(np.array([0.75, -0.75, 0.25, -0.25]))

    def test_no_zero_cell_in_mid_rise(self):
        spec = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0)
        codes, a_hat = quantize.quantize_coeffs(np.array([0.0]), spec)
        assert codes.tolist() == [2]
        assert a_hat[0] == pytest.approx(0.25)  # error exactly W/L

    def test_edges_clamped_to_extreme_cells(self, caplog):
        spec = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0)
        with caplog.at_level(logging.WARNING, logger="kashin.quantize"):
            codes, a_hat = quantize.quantize_coeffs(np.array([1.0, -1.0, 7.0]),
                                                    spec)
        assert codes.tolist() == [3, 0, 3]
        assert a_hat == pytest.approx(np.array([0.75, -0.75, 0.75]))
        assert "clamped" in caplog.text

    def test_in_range_values_stay_silent(self, caplog):
        spec = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0)
        with caplog.at_level(logging.WARNING, logger="kashin.quantize"):
            quantize.quantize_coeffs(np.array([0.3, -0.3]), spec)
        assert caplog.text == ""

    def test_per_component_error_bound_massive_sweep(self):
        spec = quantize.QuantizerSpec(levels_L=7, range_half_width=1.3)
        g = linalg.rng_from_seed(3)
        v = (2 * g.random(100_000) - 1) * 1.3
        _, a_hat = quantize.quantize_coeffs(v, spec)
        assert np.max(np.abs(v - a_hat.real)) <= 1.3 / 7 + 1e-12

    def test_real_mode_drops_imaginary_mass(self):
        spec = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0)
        codes, a_hat = quantize.quantize_coeffs(np.array([0.6 + 0.9j]), spec)
        assert codes.shape == (1,)
        assert a_hat[0] == pytest.approx(0.75)

    def test_complex_mode_quantizes_both_parts(self):
        spec = quantize.QuantizerSpec(
            levels_L=4, range_half_width=1.0, complex_mode=True
        )
        codes, a_hat = quantize.quantize_coeffs(np.array([0.6 - 0.8j, 0.1j]),
                                                spec)
        assert codes.shape == (2, 2)
        assert codes.tolist() == [[3, 0], [2, 2]]
        assert a_hat == pytest.approx(np.array([0.75 - 0.75j, 0.25 + 0.25j]))


class TestDequantize:
    def test_exact_inverse_of_code_assignment(self):
        spec = quantize.QuantizerSpec(
            levels_L=16, range_half_width=2.0, complex_mode=True
        )
        g = linalg.rng_from_seed(5)
        a = (2 * g.random(64) - 1) * 2 + 1j * (2 * g.random(64) - 1) * 2
        codes, a_hat = quantize.quantize_coeffs(a, spec)
        assert np.array_equal(quantize.dequantize(codes, spec), a_hat)

    def test_rejects_bad_codes(self):
        spec = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0)
        with pytest.raises(CodeOutOfRange):
            quantize.dequantize(np.array([0.5, 1.5]), spec)
        with pytest.raises(CodeOutOfRange):
            quantize.dequantize(np.array([0, 4]), spec)
        with pytest.raises(CodeOutOfRange):
            quantize.dequantize(np.array([-1, 0]), spec)
        with pytest.raises(CodeOutOfRange):
            quantize.dequantize(np.array([], dtype=np.int64), spec)
        with pytest.raises(CodeOutOfRange):
            quantize.dequantize(np.array([[0, 1]]), spec)  # real-mode shape

    def test_complex_mode_shape_enforced(self):
        spec = quantize.QuantizerSpec(
            levels_L=4, range_half_width=1.0, complex_mode=True
        )
        with pytest.raises(CodeOutOfRange):
            quantize.dequantize(np.array([0, 1, 2]), spec)


class TestErrorModels:
    def test_model_validation(self):
        with pytest.raises(InvalidParams):
            quantize.ErrorModel(tag="gaussian-noise")
        with pytest.raises(InvalidParams):
            quantize.ErrorModel(tag=quantize.ERASURE, damage_fraction=1.0)
        with pytest.raises(InvalidParams):
            quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=-1)

    def test_zero_fraction_is_identity(self):
        a = np.array([0.1, -0.2, 0.3j])
        model = quantize.ErrorModel(tag=quantize.ERASURE, damage_fraction=0.0)
        out = quantize.apply_error_model(a, model, clamp_W=1.0)
        assert np.array_equal(out, a)
        assert out is not a

    def test_erasure_zeroes_exact_count(self):
        g = linalg.rng_from_seed(9)
        a = g.standard_normal(128) + 1j * g.standard_normal(128)
        model = quantize.ErrorModel(
            tag=quantize.ERASURE, damage_fraction=4 / 128, seed=7
        )
        out = quantize.apply_error_model(a, model, clamp_W=1.0)
        zeroed = np.flatnonzero(out == 0)
        assert zeroed.size == 4
        untouched = np.setdiff1d(np.arange(128), zeroed)
        assert np.array_equal(out[untouched], a[untouched])

    def test_erasure_deterministic_per_seed(self):
        a = np.arange(1, 33, dtype=np.complex128)
        model = quantize.ErrorModel(
            tag=quantize.ERASURE, damage_fraction=0.25, seed=3
        )
        one = quantize.apply_error_model(a, model, clamp_W=1.0)
        two = quantize.apply_error_model(a, model, clamp_W=1.0)
        assert np.array_equal(one, two)

    def test_adversary_stays_inside_clamp_disk(self):
        g = linalg.rng_from_seed(11)
        a = g.standard_normal(64) + 1j * g.standard_normal(64)
        model = quantize.ErrorModel(
            tag=quantize.ADVERSARIAL, damage_fraction=0.5, seed=13
        )
        out = quantize.apply_error_model(a, model, clamp_W=0.3)
        changed = np.flatnonzero(out != a)
        assert changed.size == 32
        assert np.max(np.abs(out[changed])) <= 0.3 * (1 + 1e-12)

    def test_worst_direction_opposes_each_coefficient(self):
        a = np.array([3.0, -4.0j, 1.0 + 1.0j, 2.0])
        model = quantize.ErrorModel(
            tag=quantize.ADVERSARIAL, damage_fraction=0.999, seed=0,
            worst_direction=True,
        )
        out = quantize.apply_error_model(a, model, clamp_W=0.5)
        changed = np.flatnonzero(out != a)
        for i in changed:
            assert out[i] == pytest.approx(-0.5 * a[i] / abs(a[i]), abs=1e-14)

    def test_bit_flips_touch_only_hit_coefficients(self):
        spec = quantize.QuantizerSpec(
            levels_L=16, range_half_width=1.0, complex_mode=True
        )
        g = linalg.rng_from_seed(17)
        a = 0.5 * (g.standard_normal(64) + 1j * g.standard_normal(64))
        a = np.clip(np.abs(a), 0, 0.99) * np.exp(1j * np.angle(a))
        a_hat = quantize.quantize_coeffs(a, spec)[1]
        model = quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=5, seed=19)
        out = quantize.apply_error_model(a, model, clamp_W=1.0, quantizer=spec)
        diff = np.flatnonzero(out != a_hat)
        assert 1 <= diff.size <= 5
        untouched = np.setdiff1d(np.arange(64), diff)
        assert np.array_equal(out[untouched], a_hat[untouched])
        assert np.max(np.abs(out[diff])) <= 1.0 * (1 + 1e-12)

    def test_bit_flip_needs_quantizer(self):
        model = quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=1)
        with pytest.raises(InvalidParams):
            quantize.apply_error_model(np.ones(4), model, clamp_W=1.0)

    def test_clamp_must_be_positive(self):
        model = quantize.ErrorModel(tag=quantize.ERASURE, damage_fraction=0.5)
        with pytest.raises(InvalidParams):
            quantize.apply_error_model(np.ones(4), model, clamp_W=0.0)

    def test_synthesis_error_controlled_by_coefficient_error(self, frame_8x16):
        g = linalg.rng_from_seed(23)
        for _ in range(20):
            a = g.standard_normal(16) + 1j * g.standard_normal(16)
            d = 0.01 * (g.standard_normal(16) + 1j * g.standard_normal(16))
            gap = np.linalg.norm(
                frames.synthesis(frame_8x16, a + d)
                - frames.synthesis(frame_8x16, a)
            )
            assert gap <= np.linalg.norm(d) * (1 + 1e-9)


class TestDistortionExperiment:
    def test_quantize_only_bound_holds(self, frame_64x128, calibrated_64x128):
        for levels in (16, 64):
            for x in unit_vectors(64, 20, 80 + levels, complex_valued=True):
                rep = _rep_for(frame_64x128, x, calibrated_64x128, 0.05)
                spec = quantize.QuantizerSpec.from_representation(
                    rep, levels, complex_mode=True
                )
                report = quantize.distortion_experiment(
                    frame_64x128, x, rep, spec,
                    quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY),
                )
                assert report.bound_satisfied
                assert report.damaged_count == 0

    def test_erasure_and_adversary_bounds_hold(self, frame_64x128,
                                               calibrated_64x128):
        models = [
            quantize.ErrorModel(tag=quantize.ERASURE, damage_fraction=4 / 128,
                                seed=5),
            quantize.ErrorModel(tag=quantize.ADVERSARIAL,
                                damage_fraction=8 / 128, seed=6),
            quantize.ErrorModel(tag=quantize.ADVERSARIAL,
                                damage_fraction=8 / 128, seed=7,
                                worst_direction=True),
        ]
        for x in unit_vectors(64, 10, 97, complex_valued=True):
            rep = _rep_for(frame_64x128, x, calibrated_64x128, 0.05)
            spec = quantize.QuantizerSpec.from_representation(
                rep, 64, complex_mode=True
            )
            for model in models:
                report = quantize.distortion_experiment(
                    frame_64x128, x, rep, spec, model
                )
                assert report.bound_satisfied
                assert report.damaged_count == int(
                    model.damage_fraction * 128
                )

    def test_bit_flip_bound_holds(self, frame_64x128, calibrated_64x128):
        for x in unit_vectors(64, 10, 101, complex_valued=True):
            rep = _rep_for(frame_64x128, x, calibrated_64x128, 0.05)
            spec = quantize.QuantizerSpec.from_representation(
                rep, 64, complex_mode=True
            )
            model = quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=6,
                                        seed=11)
            report = quantize.distortion_experiment(
                frame_64x128, x, rep, spec, model
            )
            assert report.bound_satisfied
            assert 1 <= report.damaged_count <= 6

    def test_error_shrinks_as_levels_grow(self, frame_64x128,
                                          calibrated_64x128):
        errors = {16: [], 64: [], 256: []}
        qterms = {}
        for x in unit_vectors(64, 15, 103, complex_valued=True):
            rep = _rep_for(frame_64x128, x, calibrated_64x128, 0.05, r=25)
            for levels in (16, 64, 256):
                spec = quantize.QuantizerSpec.from_representation(
                    rep, levels, complex_mode=True
                )
                report = quantize.distortion_experiment(
                    frame_64x128, x, rep, spec,
                    quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY),
                )
                errors[levels].append(report.l2_error)
                qterms[levels] = report.theoretical_bound - rep.residual_bound
        assert np.median(errors[64]) <= np.median(errors[16])
        assert np.median(errors[256]) <= np.median(errors[64])
        # the quantizer term of the bound scales exactly as 1/L
        assert qterms[64] == pytest.approx(qterms[16] / 4, rel=1e-9)
        assert qterms[256] == pytest.approx(qterms[64] / 4, rel=1e-9)

    def test_real_spec_refused_on_imaginary_coefficients(self):
        # partial Fourier coefficients of a real input are complex; a real
        # quantizer drops their imaginary parts (l2 error 3.13 for
        # ||x|| = 6.87 at L = 65536) and must not certify the result
        f = frames.gen_partial_fourier(128, 64, 3, mode=frames.EXACT_N)
        x = np.random.default_rng(1).standard_normal(64)
        rep = _rep_for(f, x, 0.9, 0.05, frame_epsilon=1e-12)
        model = quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY)
        real = quantize.QuantizerSpec.from_representation(rep, 65536)
        with pytest.raises(InvalidParams):
            quantize.distortion_experiment(f, x, rep, real, model)
        both = quantize.QuantizerSpec.from_representation(
            rep, 65536, complex_mode=True
        )
        report = quantize.distortion_experiment(f, x, rep, both, model)
        assert report.bound_satisfied
        assert report.l2_error <= 1e-2

    def test_dimension_checks(self, frame_8x16):
        rep = conversion.KashinRepresentation(
            coefficients=np.full(10, 0.01, dtype=np.complex128),
            level_K=1.0, input_norm=1.0, residual_bound=0.0, iterations_used=1,
        )
        spec = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0)
        with pytest.raises(DimensionMismatch):
            quantize.distortion_experiment(
                frame_8x16, np.ones(8), rep, spec,
                quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY),
            )

    def test_report_consistency_enforced(self):
        with pytest.raises(InvalidParams):
            quantize.DistortionReport(
                l2_error=2.0, theoretical_bound=1.0,
                bound_satisfied=True, damaged_count=0,
            )


class TestBaseline:
    def test_zero_input(self, frame_8x16):
        report = quantize.frame_baseline_quantize(frame_8x16, np.zeros(8), 16)
        assert report.l2_error == 0.0
        assert report.bound_satisfied

    def test_requires_tight_frame(self):
        loose = frames.gen_subgaussian(16, 512, frames.GAUSSIAN, 3)
        with pytest.raises(InvalidParams):
            quantize.frame_baseline_quantize(loose, np.ones(16), 16)

    def test_budget_bound_holds_for_random_inputs(self, frame_64x128):
        for x in unit_vectors(64, 50, 107, complex_valued=True):
            report = quantize.frame_baseline_quantize(frame_64x128, x, 64)
            assert report.bound_satisfied

    def test_wrong_length_rejected(self, frame_8x16):
        with pytest.raises(DimensionMismatch):
            quantize.frame_baseline_quantize(frame_8x16, np.ones(9), 16)


class TestSeparation:
    def test_spread_quantization_beats_raw_frame(self):
        f = frames.gen_random_orthogonal(128, 256, 21)
        eta_hat, _ = uncertainty.up_estimate(f, 0.05, trials=200, seed=2)
        eta = eta_hat + 0.03
        spread, base = [], []
        for x in unit_vectors(128, 10, 109, complex_valued=True):
            rep = _rep_for(f, x, eta, 0.05, r=25)
            k_rep, b_rep = quantize.separation_experiment(f, x, rep, 64)
            assert k_rep.bound_satisfied
            assert b_rep.bound_satisfied
            spread.append(k_rep.l2_error)
            base.append(b_rep.l2_error)
        assert np.median(spread) < np.median(base)
