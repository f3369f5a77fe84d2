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

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "64"])
    def test_levels_must_be_a_whole_number(self, bad):
        with pytest.raises(InvalidParams, match="whole number"):
            quantize.QuantizerSpec(levels_L=bad, range_half_width=1.0)

    def test_whole_float_levels_keep_every_trial(self, frame_64x128):
        x = unit_vectors(64, 1, 5)[0]
        rep = _rep_for(frame_64x128, x, 0.9, 0.05)
        models = [quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY),
                  quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=3.0, seed=1)]
        want = quantize.distortion_trials(
            frame_64x128, x, rep, quantize.QuantizerSpec.from_representation(rep, 64), models)
        spec = quantize.QuantizerSpec.from_representation(rep, 64.0)
        assert type(spec.levels_L) is int and type(models[1].flip_count) is int
        assert quantize.distortion_trials(frame_64x128, x, rep, spec, models) == want

    def test_range_from_representation(self):
        rep = conversion.KashinRepresentation(
            coefficients=np.full(16, 0.1, dtype=np.complex128),
            level_K=4.0, input_norm=2.0, residual_bound=0.0, iterations_used=1,
        )
        spec = quantize.QuantizerSpec.from_representation(rep, 8)
        assert spec.range_half_width == pytest.approx(2.0)
        tighter = quantize.QuantizerSpec.from_representation(rep, 8, level=1.0)
        assert tighter.range_half_width == pytest.approx(0.5)

    @pytest.mark.parametrize("coefficients, complex_mode", [
        (np.full(16, 0.1), False),
        (np.full(16, 0.1 + 0j), False),
        (np.full(16, 0.1 + 1e-13j), False),
        (np.full(16, 0.1 + 1e-11j), True),
    ], ids=["float64", "zero-imaginary", "rounding-noise", "imaginary-mass"])
    def test_unset_complex_mode_follows_imaginary_mass(self, coefficients,
                                                       complex_mode):
        rep = conversion.KashinRepresentation(
            coefficients=coefficients, level_K=4.0, input_norm=1.0,
            residual_bound=0.0, iterations_used=1,
        )
        assert quantize.has_imaginary_mass(rep.coefficients, 1.0) == complex_mode
        spec = quantize.QuantizerSpec.from_representation(rep, 8)
        assert spec.complex_mode == complex_mode
        for explicit in (False, True):
            assert quantize.QuantizerSpec.from_representation(
                rep, 8, complex_mode=explicit).complex_mode == explicit

    def test_error_bound_by_hand(self):
        # W = 1, L = 4, N = 16: sqrt(16) * W/L = 1 per unit of c
        real = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0)
        both = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0,
                                      complex_mode=True)
        assert real.error_bound(np.zeros(16)) == 1.0
        assert both.error_bound(np.zeros(16)) == math.sqrt(2.0)
        # real mode drops imaginary parts, norm 0.3 * 4 here
        a = np.full(16, 0.1 + 0.3j)
        assert real.error_bound(a) == pytest.approx(1.0 + 1.2, rel=1e-15)
        assert both.error_bound(a) == math.sqrt(2.0)

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

    def test_huge_components_clamp_to_edge_cells(self, caplog):
        # 1e10 / W is about 5e19 cells, past int64's range: the index must
        # be clamped before the integer cast, not wrap to cell 0
        spec = quantize.QuantizerSpec(levels_L=4, range_half_width=1e-10)
        with caplog.at_level(logging.WARNING, logger="kashin.quantize"):
            codes, a_hat = quantize.quantize_coeffs(np.array([1e10, -1e10]),
                                                    spec)
        assert codes.tolist() == [3, 0]
        assert a_hat.real == pytest.approx([7.5e-11, -7.5e-11], rel=1e-12)
        assert "clamped 2 of 2" in caplog.text

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


class TestRealMode:
    def test_real_mode_returns_float64(self):
        spec = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0)
        codes, a_hat = quantize.quantize_coeffs(np.array([0.6, -0.8]), spec)
        assert a_hat.dtype == np.float64
        assert quantize.dequantize(codes, spec).dtype == np.float64
        both = quantize.QuantizerSpec(levels_L=4, range_half_width=1.0,
                                      complex_mode=True)
        codes, a_hat = quantize.quantize_coeffs(np.array([0.6, -0.8]), both)
        assert a_hat.dtype == np.complex128
        assert quantize.dequantize(codes, both).dtype == np.complex128

    def test_real_frame_and_real_input_stay_real(self, frame_64x128,
                                                 calibrated_64x128):
        x = unit_vectors(64, 1, 41)[0]
        rep = _rep_for(frame_64x128, x, calibrated_64x128, 0.05,
                       frame_epsilon=frame_64x128.tightness_eps + 1e-12)
        assert rep.coefficients.dtype == np.float64
        assert not quantize.has_imaginary_mass(rep.coefficients, rep.input_norm)
        spec = quantize.QuantizerSpec.from_representation(rep, 64)
        for tag in quantize.MODEL_TAGS:
            model = quantize.ErrorModel(tag=tag, damage_fraction=0.05,
                                        flip_count=4, seed=3)
            assert quantize.distortion_experiment(
                frame_64x128, x, rep, spec, model).bound_satisfied


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

    @pytest.mark.parametrize("bad", [2.5, math.nan, "1"])
    def test_flip_count_must_be_a_whole_number(self, bad):
        with pytest.raises(InvalidParams, match="whole number"):
            quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=bad)

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

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_repeated_flip_positions_flip_twice(self, complex_mode):
        # far more flips than code bits, so positions (and bits) repeat;
        # the result must match flipping one bit at a time in draw order
        spec = quantize.QuantizerSpec(
            levels_L=16, range_half_width=1.0, complex_mode=complex_mode
        )
        g = linalg.rng_from_seed(23)
        a = 0.4 * (g.standard_normal(8) + 1j * g.standard_normal(8))
        flips = 50 * 8 * 2 * 4
        model = quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=flips,
                                    seed=29)
        out = quantize.apply_error_model(a, model, clamp_W=1.0, quantizer=spec)

        codes, _ = quantize.quantize_coeffs(a, spec)
        flat = codes.ravel().copy()
        r = linalg.rng_from_seed(29)
        pos = r.integers(0, flat.size, flips)
        bit = r.integers(0, 4, flips)
        assert np.unique(pos).size < pos.size
        for p_, b in zip(pos, bit):
            flat[p_] ^= 1 << int(b)
        mid = -1.0 + (flat.reshape(codes.shape) + 0.5) * spec.step
        want = mid[:, 0] + 1j * mid[:, 1] if complex_mode else mid + 0j
        over = np.abs(want) > 1.0
        want[over] = want[over] / np.abs(want[over])
        assert np.array_equal(out, want)

    def test_real_adversary_writes_real_values_from_the_same_draws(self):
        g = linalg.rng_from_seed(31)
        a = g.standard_normal(64)
        model = quantize.ErrorModel(
            tag=quantize.ADVERSARIAL, damage_fraction=0.25, seed=37
        )
        out = quantize.apply_error_model(a, model, clamp_W=0.3)
        assert out.dtype == np.float64
        r = linalg.rng_from_seed(37)
        idx = np.sort(r.permutation(64)[:16])
        radius = 0.3 * np.sqrt(r.random(16))
        angle = 2.0 * np.pi * r.random(16)
        assert np.array_equal(out[idx], radius * np.cos(angle))
        assert np.max(np.abs(out[idx])) <= 0.3
        keep = np.setdiff1d(np.arange(64), idx)
        assert np.array_equal(out[keep], a[keep])
        # complex coefficients get the full draw, as before
        c = a + 1j * g.standard_normal(64)
        out = quantize.apply_error_model(c, model, clamp_W=0.3)
        assert out.dtype == np.complex128
        assert np.array_equal(out[idx], radius * np.exp(1j * angle))
        assert np.array_equal(out[keep], c[keep])

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

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_block_equals_per_model_calls(self, frame_64x128, calibrated_64x128,
                                          complex_valued):
        x = unit_vectors(64, 1, 107, complex_valued=complex_valued)[0]
        rep = _rep_for(frame_64x128, x, calibrated_64x128, 0.05)
        spec = quantize.QuantizerSpec.from_representation(
            rep, 32, complex_mode=complex_valued
        )
        models = [
            quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY, seed=1),
            quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=4, seed=2),
            quantize.ErrorModel(tag=quantize.ERASURE, damage_fraction=0.05, seed=3),
            quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY, seed=4),
            quantize.ErrorModel(tag=quantize.ADVERSARIAL, damage_fraction=0.05,
                                seed=5, worst_direction=True),
            quantize.ErrorModel(tag=quantize.ADVERSARIAL, damage_fraction=0.03,
                                seed=6),
            quantize.ErrorModel(tag=quantize.BIT_FLIP, flip_count=9, seed=7),
            quantize.ErrorModel(tag=quantize.ERASURE, damage_fraction=0.0, seed=8),
        ]
        block = quantize.distortion_trials(frame_64x128, x, rep, spec, models)
        single = [quantize.distortion_experiment(frame_64x128, x, rep, spec, m)
                  for m in models]
        assert block == single
        assert len({r.l2_error for r in block}) >= 6

    def test_block_quantizes_and_synthesizes_once_per_need(
            self, frame_64x128, calibrated_64x128, monkeypatch):
        x = unit_vectors(64, 1, 109)[0]
        rep = _rep_for(frame_64x128, x, calibrated_64x128, 0.05)
        spec = quantize.QuantizerSpec.from_representation(rep, 64)
        calls = {"quantize_coeffs": 0, "synthesis": 0}
        for module, name in ((quantize, "quantize_coeffs"), (frames, "synthesis")):
            def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)

        def run(tag, **kw):
            for key in calls:
                calls[key] = 0
            models = [quantize.ErrorModel(tag=tag, seed=t, **kw) for t in range(25)]
            return quantize.distortion_trials(frame_64x128, x, rep, spec, models)

        reports = run(quantize.QUANTIZE_ONLY)
        assert calls == {"quantize_coeffs": 1, "synthesis": 1}
        assert len(reports) == 25 and all(r is reports[0] for r in reports)
        run(quantize.BIT_FLIP, flip_count=3)
        assert calls == {"quantize_coeffs": 1, "synthesis": 25}
        run(quantize.ERASURE, damage_fraction=0.05)
        assert calls == {"quantize_coeffs": 0, "synthesis": 25}

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

    @staticmethod
    def _coefficient_terms(f, rep, spec, model):
        """Each model's quantizer-plus-damage term before the 1 + eps factor."""
        w = spec.range_half_width
        cfac = math.sqrt(2.0) if spec.complex_mode else 1.0
        qbound = cfac * w * math.sqrt(f.N) / spec.levels_L
        if model.tag == quantize.QUANTIZE_ONLY:
            return qbound
        if model.tag == quantize.BIT_FLIP:
            _, touched = quantize._apply_damage(rep.coefficients, model, w, spec)
            return qbound + 2.0 * w * math.sqrt(touched.size)
        return 2.0 * w * math.sqrt(model.damage_fraction * f.N)

    @pytest.mark.parametrize("tag", quantize.MODEL_TAGS)
    def test_bound_scales_by_the_synthesis_norm(self, tag):
        # ||U|| <= 1 + eps; a Gaussian frame is far from tight
        f = frames.gen_subgaussian(32, 64, frames.GAUSSIAN, 5)
        eps = f.tightness_eps
        assert 0.4 <= eps <= 0.8
        x = unit_vectors(32, 1, 43)[0]
        a = frames.analysis(f, x)
        residual = float(np.linalg.norm(x - frames.synthesis(f, a)))
        rep = conversion.KashinRepresentation(
            coefficients=a, level_K=math.sqrt(f.N) * 1.01 * float(np.max(np.abs(a))),
            input_norm=1.0, residual_bound=residual, iterations_used=0,
        )
        spec = quantize.QuantizerSpec.from_representation(rep, 16)
        model = quantize.ErrorModel(tag=tag, damage_fraction=0.1,
                                    flip_count=5, seed=2)
        report = quantize.distortion_experiment(f, x, rep, spec, model)
        term = self._coefficient_terms(f, rep, spec, model)
        assert report.theoretical_bound == (1.0 + eps) * term + residual
        assert report.bound_satisfied

    @pytest.mark.parametrize("tag", quantize.MODEL_TAGS)
    def test_bound_on_tight_frames_barely_moves(self, tag, frame_64x128,
                                                calibrated_64x128):
        x = unit_vectors(64, 1, 47, complex_valued=True)[0]
        rep = _rep_for(frame_64x128, x, calibrated_64x128, 0.05)
        spec = quantize.QuantizerSpec.from_representation(
            rep, 64, complex_mode=True
        )
        model = quantize.ErrorModel(tag=tag, damage_fraction=4 / 128,
                                    flip_count=5, seed=9)
        report = quantize.distortion_experiment(
            frame_64x128, x, rep, spec, model
        )
        unscaled = self._coefficient_terms(frame_64x128, rep, spec, model)
        unscaled += rep.residual_bound
        assert abs(report.theoretical_bound - unscaled) < 1e-12 * unscaled

    def test_real_spec_refused_on_imaginary_coefficients(self):
        # partial Fourier coefficients of a real input are complex; a real
        # quantizer drops their imaginary parts (l2 error 3.13 for
        # ||x|| = 6.87 at L = 65536) and must not certify the result
        f = frames.gen_partial_fourier(128, 64, 3, mode=frames.EXACT_N)
        x = np.random.default_rng(1).standard_normal(64)
        rep = _rep_for(f, x, 0.9, 0.05, frame_epsilon=1e-12)
        model = quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY)
        real = quantize.QuantizerSpec.from_representation(
            rep, 65536, complex_mode=False
        )
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

    @pytest.mark.parametrize("frame, complex_valued", [
        (frames.gen_random_orthogonal(64, 128, 5), False),
        (frames.gen_random_orthogonal(64, 128, 5), True),
        (frames.gen_partial_fourier(128, 64, 5, mode=frames.EXACT_N), False),
        (frames.FrameMatrix(
            n=64, N=128, kind=frames.DENSE,
            matrix=frames.gen_random_orthogonal(64, 128, 5).matrix * (1 + 1e-8)),
         False),
    ], ids=["orthogonal-real", "orthogonal-complex", "fourier", "near-tight"])
    def test_is_the_quantize_only_trial_of_the_raw_representation(
            self, frame, complex_valued):
        eps = frame.tightness_eps
        for levels in (2, 3, 16):
            for x in unit_vectors(64, 4, 120 + levels, complex_valued):
                x = 3.0 * x
                norm = linalg.norm2(x)
                raw = conversion.KashinRepresentation(
                    coefficients=frames.analysis(frame, x),
                    level_K=(1.0 + eps) * math.sqrt(frame.N), input_norm=norm,
                    residual_bound=(2.0 * eps + eps * eps) * norm,
                    iterations_used=0,
                )
                spec = quantize.QuantizerSpec.from_representation(raw, levels)
                trial = quantize.distortion_trials(
                    frame, x, raw, spec,
                    [quantize.ErrorModel(tag=quantize.QUANTIZE_ONLY)])[0]
                assert quantize.frame_baseline_quantize(frame, x, levels) == trial

    def test_wrong_length_rejected(self, frame_8x16):
        with pytest.raises(DimensionMismatch):
            quantize.frame_baseline_quantize(frame_8x16, np.ones(9), 16)

    @pytest.mark.parametrize("frame, complex_valued", [
        (frames.gen_random_orthogonal(64, 256, 5), False),
        (frames.gen_partial_fourier(128, 64, 5, mode=frames.EXACT_N), True),
    ], ids=["orthogonal-real", "fourier-complex"])
    def test_bound_holds_and_is_tight_at_coarse_levels(self, frame,
                                                       complex_valued):
        # each of the N coefficients moves by up to norm(x)/L per real
        # component, so a bound of sqrt(n)/L * norm(x) fails at coarse L
        worst = 0.0
        for levels in (2, 3, 4, 8):
            for x in unit_vectors(64, 30, 110 + levels, complex_valued):
                report = quantize.frame_baseline_quantize(frame, x, levels)
                assert report.bound_satisfied
                worst = max(worst, report.l2_error / report.theoretical_bound)
        assert worst >= 0.5


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
