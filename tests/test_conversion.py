import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kashin import conversion, frames, linalg, uncertainty
from kashin.errors import (
    ContractViolation,
    DimensionMismatch,
    InvalidConfig,
    InvalidParams,
    NonConvergence,
)

from conftest import column_unit, unit_vectors


def _exact_cfg(eta, delta, **kw):
    return conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=eta, delta=delta),
        truncation=conversion.TruncationSpec(),
        **kw,
    )


@pytest.fixture(scope="module")
def eps_tight_frame():
    """A genuinely non-tight frame whose reconstruction defect keeps the
    residual alive for many passes."""
    return frames.gen_subgaussian(16, 512, frames.GAUSSIAN, 3)


def _clip(z, M):
    """The encoder's exact-mode clip at level M, on one coefficient."""
    b = np.array([z], dtype=np.complex128)
    clipped, _ = conversion._truncate_block(b, M, conversion.TruncationSpec())
    return complex(clipped[0])


class TestScalarClip:
    def test_hand_values(self):
        assert _clip(0.5, 1.0) == 0.5
        assert _clip(-3 + 4j, 1.0) == pytest.approx(-0.6 + 0.8j, abs=1e-15)
        assert _clip(-3 + 4j, 5.0) == -3 + 4j
        assert _clip(6j, 2.0) == pytest.approx(2j)
        assert _clip(0.0, 3.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        mag=st.floats(min_value=0.0, max_value=10.0),
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
        level=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_phase_equivariant_and_bounded(self, mag, angle, level):
        phase = complex(math.cos(angle), math.sin(angle))
        z = mag * phase
        t = _clip(z, level)
        assert abs(t) <= level * (1 + 1e-12)
        assert abs(t - phase * _clip(mag, level)) <= 1e-12 * max(mag, 1.0)
        if mag <= level:
            assert abs(t - z) <= 1e-15 * mag + 1e-300


class TestMapVerification:
    def test_default_map_passes_many_parameterizations(self):
        for nu, tau in ((0.1, 0.8), (0.5, 0.5), (0.9, 0.1)):
            conversion.verify_truncation_map(conversion.default_scalar_map, nu, tau)

    def test_inflating_map_rejected(self):
        def inflate(z):
            return 1.2 * z / abs(z) if z != 0 else 0.0

        with pytest.raises(ContractViolation):
            conversion.verify_truncation_map(inflate, 0.1, 0.8)

    def test_zero_map_rejected_below_tau(self):
        with pytest.raises(ContractViolation):
            conversion.verify_truncation_map(lambda z: 0.0, 0.1, 0.8)

    def test_overscaling_map_rejected(self):
        with pytest.raises(ContractViolation):
            conversion.verify_truncation_map(lambda z: 1.5 * z, 0.1, 0.8)

    def test_parameter_domain(self):
        with pytest.raises(InvalidParams):
            conversion.verify_truncation_map(conversion.default_scalar_map, 0.0, 0.8)


class TestTruncationOperator:
    def test_hand_example_on_two_copies(self, two_copies_frame):
        tx, b_hat = conversion.truncation_operator(
            two_copies_frame, [2.0], 0.5, conversion.TruncationSpec()
        )
        assert b_hat == pytest.approx(np.array([0.5, 0.5]), abs=1e-14)
        assert tx == pytest.approx(np.array([math.sqrt(0.5)]), abs=1e-14)

    def test_zero_input_untouched(self, frame_8x16):
        tx, b_hat = conversion.truncation_operator(
            frame_8x16, np.zeros(8), 1.0, conversion.TruncationSpec()
        )
        assert np.all(tx == 0) and np.all(b_hat == 0)

    def test_residual_contraction_at_calibrated_eta(self, frame_8x16,
                                                    exact_up_8x16):
        # level norm/sqrt(delta*N) makes a single pass contract by the
        # exactly enumerated eta
        eta, _ = exact_up_8x16
        spec = conversion.TruncationSpec()
        for x in unit_vectors(8, 100, 41, complex_valued=True):
            M = 1.0 / math.sqrt((2 / 16) * 16)
            tx, _ = conversion.truncation_operator(frame_8x16, x, M, spec)
            assert np.linalg.norm(x - tx) <= eta * (1 + 1e-9)

    def test_clip_level_bounds_coefficients(self, frame_8x16):
        x = column_unit(frame_8x16, 0)
        _, b_hat = conversion.truncation_operator(
            frame_8x16, x, 0.1, conversion.TruncationSpec()
        )
        assert np.max(np.abs(b_hat)) <= 0.1 * (1 + 1e-12)

    def test_rejects_bad_level_and_shape(self, frame_8x16):
        with pytest.raises(InvalidParams):
            conversion.truncation_operator(
                frame_8x16, np.ones(8), 0.0, conversion.TruncationSpec()
            )
        with pytest.raises(DimensionMismatch):
            conversion.truncation_operator(
                frame_8x16, np.ones(9), 1.0, conversion.TruncationSpec()
            )


class TestAdjustedParameters:
    def test_plain_mode_round_numbers(self):
        cfg = _exact_cfg(0.5, 0.25, iterations=1)
        eta, mult, level = conversion.adjusted_parameters(cfg)
        assert (eta, mult) == (0.5, 1.0)
        assert level == pytest.approx(4.0, abs=1e-12)

    def test_approximate_clipping_inflation(self):
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.5, delta=0.25),
            truncation=conversion.TruncationSpec(
                mode=conversion.APPROXIMATE, nu=0.1, tau=0.8
            ),
            iterations=1,
        )
        eta, mult, level = conversion.adjusted_parameters(cfg)
        assert eta == pytest.approx(math.sqrt(0.26), abs=1e-12)
        assert mult == pytest.approx(1.25, abs=1e-12)
        assert level == pytest.approx(1.25 / ((1 - eta) * 0.5), abs=1e-9)

    def test_tightness_defect_inflation(self):
        cfg = _exact_cfg(0.5, 0.25, iterations=1, frame_epsilon=0.2)
        eta, mult, level = conversion.adjusted_parameters(cfg)
        assert eta == pytest.approx(math.sqrt(1.2) * 0.5 + 0.2, abs=1e-12)
        assert mult == pytest.approx(math.sqrt(1.2), abs=1e-12)

    def test_composition_order_clip_then_defect(self):
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.5, delta=0.25),
            truncation=conversion.TruncationSpec(
                mode=conversion.APPROXIMATE, nu=0.1, tau=0.8
            ),
            iterations=1,
            frame_epsilon=0.2,
        )
        eta, mult, _ = conversion.adjusted_parameters(cfg)
        inner = math.sqrt(0.26)
        assert eta == pytest.approx(math.sqrt(1.2) * inner + 0.2, abs=1e-12)
        assert mult == pytest.approx(1.25 * math.sqrt(1.2), abs=1e-12)

    def test_uncontractive_combination_refused(self):
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.8, delta=0.25),
            truncation=conversion.TruncationSpec(
                mode=conversion.APPROXIMATE, nu=0.7, tau=0.8
            ),
            iterations=1,
        )
        with pytest.raises(InvalidConfig):
            conversion.adjusted_parameters(cfg)


class TestConfigValidation:
    def test_exactly_one_stopping_rule(self):
        with pytest.raises(InvalidConfig):
            _exact_cfg(0.5, 0.25)
        with pytest.raises(InvalidConfig):
            _exact_cfg(0.5, 0.25, iterations=3, target_accuracy=0.5)

    def test_field_domains(self):
        with pytest.raises(InvalidConfig):
            _exact_cfg(0.5, 0.25, iterations=0)
        with pytest.raises(InvalidConfig):
            _exact_cfg(0.5, 0.25, target_accuracy=1.0)
        with pytest.raises(InvalidConfig):
            _exact_cfg(0.5, 0.25, iterations=1, frame_epsilon=-0.1)

    def test_truncation_spec_domains(self):
        with pytest.raises(InvalidParams):
            conversion.TruncationSpec(mode="soft")
        with pytest.raises(InvalidParams):
            conversion.TruncationSpec(mode=conversion.APPROXIMATE, nu=0.0, tau=0.5)


class TestEncode:
    def test_hand_example_on_two_copies(self, two_copies_frame):
        cfg = _exact_cfg(math.sqrt(0.5), 0.5, iterations=4)
        rep = conversion.kashin_encode(two_copies_frame, [1.0], cfg)
        root_half = math.sqrt(0.5)
        assert rep.coefficients == pytest.approx(
            np.array([root_half, root_half]), abs=1e-14
        )
        assert rep.iterations_used == 1  # residual vanishes immediately
        assert rep.input_norm == pytest.approx(1.0)
        back = conversion.kashin_decode(two_copies_frame, rep)
        assert np.linalg.norm(back - np.array([1.0])) <= 1e-12
        assert np.linalg.norm(back - np.array([1.0])) <= rep.residual_bound

    def test_decay_schedule_on_concentrated_input(self, frame_8x16,
                                                  exact_up_8x16):
        eta, _ = exact_up_8x16
        x = column_unit(frame_8x16, 0)
        rep = conversion.kashin_encode(
            frame_8x16, x, _exact_cfg(eta, 2 / 16, iterations=6)
        )
        assert rep.residual_norms[0] > 1e-3  # clipping genuinely fired
        for k, rn in enumerate(rep.residual_norms):
            assert rn <= eta ** (k + 1) * (1 + 1e-9)

    def test_per_pass_ratio_on_random_inputs(self, frame_8x16, exact_up_8x16):
        eta, _ = exact_up_8x16
        cfg = _exact_cfg(eta, 2 / 16, iterations=6)
        for x in unit_vectors(8, 30, 47, complex_valued=True):
            rep = conversion.kashin_encode(frame_8x16, x, cfg)
            prev = 1.0
            for rn in rep.residual_norms:
                assert rn <= eta * prev + 1e-12
                prev = rn

    def test_level_bound_and_certificate(self, frame_64x128):
        eta_hat, _ = uncertainty.up_estimate(frame_64x128, 0.05, trials=300,
                                             seed=1)
        eta = eta_hat + 0.03
        cfg = _exact_cfg(eta, 0.05, iterations=8)
        K = 1.0 / ((1.0 - eta) * math.sqrt(0.05))
        for x in unit_vectors(64, 20, 53, complex_valued=True):
            rep = conversion.kashin_encode(frame_64x128, x, cfg)
            assert rep.level_K == pytest.approx(K, abs=1e-12)
            peak = np.max(np.abs(rep.coefficients))
            assert peak <= K / math.sqrt(128) * (1 + 1e-9)
            assert conversion.effective_level(rep) <= K * (1 + 1e-9)

    def test_unreachable_contraction_detected(self, frame_8x16):
        # claiming a strong contraction at a clip level too low to realize
        # it must abort rather than return a bogus certificate
        x = unit_vectors(8, 1, 2, complex_valued=True)[0]
        with pytest.raises(NonConvergence):
            conversion.kashin_encode(
                frame_8x16, x, _exact_cfg(0.05, 0.9, iterations=5)
            )

    def test_round_trip_within_certificate(self, frame_8x16, exact_up_8x16):
        eta, _ = exact_up_8x16
        for r in (1, 2, 5):
            cfg = _exact_cfg(eta, 2 / 16, iterations=r)
            for x in unit_vectors(8, 10, 59 + r, complex_valued=True):
                rep = conversion.kashin_encode(frame_8x16, x, cfg)
                err = np.linalg.norm(
                    x - conversion.kashin_decode(frame_8x16, rep)
                )
                assert err <= rep.residual_bound + 1e-12

    def test_zero_vector_short_circuits(self, frame_8x16):
        rep = conversion.kashin_encode(
            frame_8x16, np.zeros(8), _exact_cfg(0.9, 2 / 16, iterations=3)
        )
        assert rep.input_norm == 0.0
        assert rep.iterations_used == 0
        assert np.all(rep.coefficients == 0)
        assert rep.residual_bound == 0.0
        assert conversion.effective_level(rep) == 0.0

    def test_coefficients_real_exactly_for_real_frame_and_data(self, frame_8x16,
                                                               exact_up_8x16):
        eta, _ = exact_up_8x16
        cfg = _exact_cfg(eta, 2 / 16, iterations=6)
        approx = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=eta, delta=2 / 16),
            truncation=conversion.TruncationSpec(
                mode=conversion.APPROXIMATE, nu=0.1, tau=0.9,
                scalar_map=conversion.default_scalar_map),
            iterations=6,
        )
        fourier = frames.gen_partial_fourier(16, 8, 2, mode=frames.EXACT_N)
        x = column_unit(frame_8x16, 0)
        z = x + 1j * unit_vectors(8, 1, 3)[0]
        for f, v, config, dtype in (
            (frame_8x16, x, cfg, np.float64),
            (frame_8x16, x, approx, np.float64),
            (frame_8x16, x.astype(np.complex128), cfg, np.float64),
            (frame_8x16, np.zeros(8), cfg, np.float64),
            (frame_8x16, z, cfg, np.complex128),
            (fourier, x, cfg, np.complex128),
            (fourier, np.zeros(8), cfg, np.complex128),
        ):
            rep = conversion.kashin_encode(f, v, config)
            assert rep.coefficients.dtype == dtype
        # the real path gives the values of the complex reference
        rep = conversion.kashin_encode(frame_8x16, x, cfg)
        ref = frame_8x16.matrix.astype(np.complex128) @ rep.coefficients.astype(np.complex128)
        assert np.max(np.abs(conversion.kashin_decode(frame_8x16, rep) - ref)) <= 1e-15

    def test_wrong_length_and_stale_epsilon_refused(self, frame_8x16,
                                                    eps_tight_frame):
        with pytest.raises(InvalidParams):
            conversion.kashin_encode(
                frame_8x16, np.ones(9), _exact_cfg(0.9, 2 / 16, iterations=1)
            )
        # certifying a smaller defect than the frame actually has is a
        # config error, not a silent weakening of the certificate
        with pytest.raises(InvalidConfig):
            conversion.kashin_encode(
                eps_tight_frame, np.ones(16),
                _exact_cfg(0.45, 0.05, iterations=1, frame_epsilon=0.0),
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_input_near_float_range_round_trips(self):
        f = frames.gen_random_orthogonal(16, 32, 5)
        eta, _ = uncertainty.up_check_exact(f, 1 / 32)
        x = unit_vectors(16, 1, 61)[0]
        x *= 1e200 / np.max(np.abs(x))
        rep = conversion.kashin_encode(f, x, _exact_cfg(eta, 1 / 32, iterations=5))
        assert rep.input_norm == pytest.approx(1e200 * np.linalg.norm(x / 1e200))
        err = linalg.norm2(x - conversion.kashin_decode(f, rep))
        assert err <= rep.residual_bound

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norm_past_float_range_refused_up_front(self):
        f = frames.gen_random_orthogonal(16, 32, 5)
        x = np.full(16, 1e308)    # finite entries, norm 4e308
        with pytest.raises(InvalidParams, match="float64 range"):
            conversion.kashin_encode(f, x, _exact_cfg(0.9, 1 / 32, iterations=5))


class TestExactCompletion:
    def test_completion_pass_zeroes_residual(self, frame_8x16, exact_up_8x16):
        eta, _ = exact_up_8x16
        cfg = _exact_cfg(eta, 2 / 16, iterations=1, exact_last_iteration=True)
        x = column_unit(frame_8x16, 0)
        rep = conversion.kashin_encode(frame_8x16, x, cfg)
        assert rep.iterations_used == 2  # one clipped pass, one completion
        err = np.linalg.norm(x - conversion.kashin_decode(frame_8x16, rep))
        assert err <= 1e-10
        assert err <= rep.residual_bound

    def test_level_certificate_accounts_for_completion(self, frame_8x16,
                                                       exact_up_8x16):
        eta, _ = exact_up_8x16
        K = 1.0 / ((1.0 - eta) * math.sqrt(2 / 16))
        cfg = _exact_cfg(eta, 2 / 16, iterations=1, exact_last_iteration=True)
        x = column_unit(frame_8x16, 0)
        rep = conversion.kashin_encode(frame_8x16, x, cfg)
        assert rep.level_K > K  # the completion pass costs level headroom
        assert rep.level_K <= 2 * K + 1e-9
        peak = np.max(np.abs(rep.coefficients))
        assert peak <= rep.level_K / 4.0 * (1 + 1e-10) + 1e-12

    def test_exact_expansions_cannot_be_flatter_than_root_n(self, frame_8x16,
                                                            exact_up_8x16):
        # an exact expansion always has some coefficient at least
        # norm/sqrt(N): equality in Cauchy-Schwarz against the analysis
        # coefficients
        eta, _ = exact_up_8x16
        cfg = _exact_cfg(eta, 2 / 16, iterations=2, exact_last_iteration=True)
        for x in unit_vectors(8, 20, 61, complex_valued=True):
            rep = conversion.kashin_encode(frame_8x16, x, cfg)
            assert conversion.effective_level(rep) >= 1.0 - 1e-10


class TestApproximateClipVariant:
    def test_level_certificate_with_inflated_constant(self, frame_8x16,
                                                      exact_up_8x16):
        eta, _ = exact_up_8x16
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=eta, delta=2 / 16),
            truncation=conversion.TruncationSpec(
                mode=conversion.APPROXIMATE, nu=0.1, tau=0.8
            ),
            iterations=4,
        )
        eta_adj, mult, level = conversion.adjusted_parameters(cfg)
        assert eta_adj == pytest.approx(math.sqrt(eta**2 + 0.01), abs=1e-12)
        x = column_unit(frame_8x16, 0)
        rep = conversion.kashin_encode(frame_8x16, x, cfg)
        assert rep.level_K == pytest.approx(level, abs=1e-12)
        assert np.max(np.abs(rep.coefficients)) <= level / 4.0 * (1 + 1e-9)
        for k, rn in enumerate(rep.residual_norms):
            assert rn <= eta_adj ** (k + 1) * (1 + 1e-9)

    def test_degenerate_parameters_match_hard_clip(self, frame_8x16,
                                                   exact_up_8x16):
        eta, _ = exact_up_8x16
        x = column_unit(frame_8x16, 0)
        hard = conversion.kashin_encode(
            frame_8x16, x, _exact_cfg(eta, 2 / 16, iterations=1)
        )
        soft_cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=eta, delta=2 / 16),
            truncation=conversion.TruncationSpec(
                mode=conversion.APPROXIMATE, nu=1e-9, tau=1.0 - 1e-9
            ),
            iterations=1,
        )
        soft = conversion.kashin_encode(frame_8x16, x, soft_cfg)
        assert np.max(np.abs(soft.coefficients - hard.coefficients)) <= 1e-8

    def test_custom_map_goes_through_verification(self, frame_8x16,
                                                  exact_up_8x16):
        eta, _ = exact_up_8x16
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=eta, delta=2 / 16),
            truncation=conversion.TruncationSpec(
                mode=conversion.APPROXIMATE, nu=0.1, tau=0.8,
                scalar_map=lambda z: 1.5 * z,
            ),
            iterations=1,
        )
        with pytest.raises(ContractViolation):
            conversion.kashin_encode(frame_8x16, np.ones(8), cfg)

    def test_accepted_custom_map_is_used(self, frame_8x16, exact_up_8x16):
        eta, _ = exact_up_8x16
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=eta, delta=2 / 16),
            truncation=conversion.TruncationSpec(
                mode=conversion.APPROXIMATE, nu=0.1, tau=0.8,
                scalar_map=conversion.default_scalar_map,
            ),
            iterations=2,
        )
        x = column_unit(frame_8x16, 0)
        rep = conversion.kashin_encode(frame_8x16, x, cfg)
        err = np.linalg.norm(x - conversion.kashin_decode(frame_8x16, rep))
        assert err <= rep.residual_bound + 1e-12


class TestTightnessDefectVariant:
    def test_per_pass_ratio_stays_under_adjusted_eta(self, eps_tight_frame):
        cfg = _exact_cfg(0.45, 0.05, iterations=6,
                         frame_epsilon=eps_tight_frame.tightness_eps)
        eta_adj, _, _ = conversion.adjusted_parameters(cfg)
        for x in unit_vectors(16, 10, 67, complex_valued=True):
            rep = conversion.kashin_encode(eps_tight_frame, x, cfg)
            prev = 1.0
            for rn in rep.residual_norms:
                assert rn <= (eta_adj + 1e-6) * prev
                prev = rn

    def test_accuracy_stopping_rule_counts_passes(self, eps_tight_frame):
        eps = eps_tight_frame.tightness_eps
        probe = _exact_cfg(0.45, 0.05, iterations=1, frame_epsilon=eps)
        eta_adj, _, _ = conversion.adjusted_parameters(probe)
        x = unit_vectors(16, 1, 5, complex_valued=True)[0]

        cfg = _exact_cfg(0.45, 0.05, target_accuracy=0.3, frame_epsilon=eps)
        rep = conversion.kashin_encode(eps_tight_frame, x, cfg)
        want = max(1, math.ceil(math.log(0.3) / math.log(eta_adj) - 1e-12))
        assert rep.iterations_used == want

        # a target hit exactly at a power of the contraction factor must
        # not round up to an extra pass
        tie = _exact_cfg(0.45, 0.05, target_accuracy=eta_adj * eta_adj,
                         frame_epsilon=eps)
        rep2 = conversion.kashin_encode(eps_tight_frame, x, tie)
        assert rep2.iterations_used == 2

    def test_certificate_still_valid_off_tightness(self, eps_tight_frame):
        cfg = _exact_cfg(0.45, 0.05, iterations=8,
                         frame_epsilon=eps_tight_frame.tightness_eps)
        for x in unit_vectors(16, 10, 71, complex_valued=True):
            rep = conversion.kashin_encode(eps_tight_frame, x, cfg)
            err = np.linalg.norm(
                x - conversion.kashin_decode(eps_tight_frame, rep)
            )
            assert err <= rep.residual_bound + 1e-12
            peak = np.max(np.abs(rep.coefficients))
            assert peak <= rep.level_K / math.sqrt(512) * (1 + 1e-9) + 1e-12


class TestRepresentationContainer:
    def test_level_certificate_is_enforced(self):
        with pytest.raises(ContractViolation):
            conversion.KashinRepresentation(
                coefficients=np.array([1.0, 0.0], dtype=np.complex128),
                level_K=0.1, input_norm=1.0, residual_bound=0.0,
                iterations_used=1,
            )

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan),
                                     math.inf, -math.inf])
    def test_non_finite_coefficient_breaks_the_certificate(self, bad):
        with pytest.raises(ContractViolation):
            conversion.KashinRepresentation(
                coefficients=np.array([bad, 0.1], dtype=np.complex128),
                level_K=10.0, input_norm=1.0, residual_bound=0.0,
                iterations_used=1,
            )

    def test_field_validation(self):
        good = np.array([0.1, 0.1], dtype=np.complex128)
        with pytest.raises(InvalidParams):
            conversion.KashinRepresentation(
                coefficients=np.zeros((2, 2), dtype=np.complex128),
                level_K=1.0, input_norm=1.0, residual_bound=0.0,
                iterations_used=1,
            )
        with pytest.raises(InvalidParams):
            conversion.KashinRepresentation(
                coefficients=good, level_K=math.nan, input_norm=1.0,
                residual_bound=0.0, iterations_used=1,
            )
        with pytest.raises(InvalidParams):
            conversion.KashinRepresentation(
                coefficients=good, level_K=1.0, input_norm=-1.0,
                residual_bound=0.0, iterations_used=1,
            )
        with pytest.raises(InvalidParams):
            conversion.KashinRepresentation(
                coefficients=good, level_K=1.0, input_norm=1.0,
                residual_bound=0.0, iterations_used=-1,
            )

    def test_effective_level_by_hand(self):
        rep = conversion.KashinRepresentation(
            coefficients=np.array([0.5, 0.0], dtype=np.complex128),
            level_K=1.0, input_norm=1.0, residual_bound=0.0,
            iterations_used=1,
        )
        assert conversion.effective_level(rep) == pytest.approx(
            math.sqrt(2) * 0.5, abs=1e-15
        )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    r=st.integers(min_value=1, max_value=4),
)
def test_encode_certificates_hold_for_random_inputs(frame_8x16, exact_up_8x16,
                                                    seed, r):
    frame = frame_8x16
    eta = exact_up_8x16[0]
    g = linalg.rng_from_seed(seed)
    x = g.standard_normal(8) + 1j * g.standard_normal(8)
    x /= np.linalg.norm(x)
    cfg = conversion.ConversionConfig(
        up=uncertainty.UPParams(eta=eta, delta=2 / 16),
        truncation=conversion.TruncationSpec(),
        iterations=r,
    )
    rep = conversion.kashin_encode(frame, x, cfg)
    err = np.linalg.norm(x - conversion.kashin_decode(frame, rep))
    assert err <= rep.residual_bound + 1e-12
    cap = rep.level_K / 4.0 * rep.input_norm
    assert np.max(np.abs(rep.coefficients)) <= cap * (1 + 1e-9) + 1e-12


def _reference_encode(f, x, cfg):
    """``kashin_encode`` written as r - U clip(U* r) with a full synthesis
    every pass: coefficients, pass count, residual norms and clip counts."""
    v = linalg.as_vector(x)
    if f.kind == frames.PARTIAL_FOURIER or np.iscomplexobj(f.matrix):
        v = v.astype(np.complex128)
    eta_adj, mult, _ = conversion.adjusted_parameters(cfg)
    norm = linalg.norm2(v)
    M = mult * norm / math.sqrt(cfg.up.delta * f.N)
    scalar_map = cfg.truncation.scalar_map
    residual, a, norms, counts = v.copy(), 0.0, [], []
    for _ in range(cfg.iterations):
        b = frames.analysis(f, residual)
        if scalar_map is None:
            mags = np.abs(b)
            scale = np.ones_like(mags)
            over = mags > M
            scale[over] = M / mags[over]
            b_hat = b * scale
        else:
            b_hat = np.array([M * complex(scalar_map(complex(z / M))) for z in b])
            if not np.iscomplexobj(b):
                b_hat = linalg.real_if_exact(b_hat)
        counts.append(int(np.count_nonzero(b_hat != b)))
        a = a + b_hat
        residual = residual - frames.synthesis(f, b_hat)
        norms.append(linalg.norm2(residual))
        M *= eta_adj
        if norms[-1] <= 1e-14 * norm:
            break
    if cfg.exact_last_iteration:
        b = frames.analysis(f, residual)
        a = a + b
        norms.append(linalg.norm2(residual - frames.synthesis(f, b)))
        counts.append(0)
    return a, norms, counts


def _complex_tight_frame(n, N, seed):
    g = linalg.rng_from_seed(seed)
    q, _ = np.linalg.qr(g.standard_normal((N, n)) + 1j * g.standard_normal((N, n)))
    return frames.FrameMatrix(n=n, N=N, kind=frames.DENSE, matrix=q.conj().T)


_PARSEVAL_FRAMES = {
    "real": lambda: frames.gen_random_orthogonal(64, 128, 7),
    "complex": lambda: _complex_tight_frame(64, 128, 8),
    "fourier-128": lambda: frames.gen_partial_fourier(128, 64, 9, mode=frames.EXACT_N),
    "fourier-480": lambda: frames.gen_partial_fourier(480, 240, 10, mode=frames.EXACT_N),
}
_TRUNCATIONS = {
    "hard": conversion.TruncationSpec(),
    "approximate": conversion.TruncationSpec(mode=conversion.APPROXIMATE, nu=0.1, tau=0.8),
    "map": conversion.TruncationSpec(mode=conversion.APPROXIMATE, nu=0.1, tau=0.8,
                                     scalar_map=conversion.default_scalar_map),
}


def _inputs(f, seed):
    g = linalg.rng_from_seed(seed)
    cols = frames.columns(f, g.integers(f.N, size=3))
    out = [c / np.linalg.norm(c) for c in cols.T]
    for _ in range(3):
        x = g.standard_normal(f.n) + 1j * g.standard_normal(f.n)
        out += [x.real, x]
    return out


class TestParsevalPasses:
    """On Parseval frames each pass carries U e instead of r - U clip(U* r)."""

    @pytest.mark.parametrize("name", sorted(_PARSEVAL_FRAMES))
    @pytest.mark.parametrize("truncation", sorted(_TRUNCATIONS))
    @pytest.mark.parametrize("last", [False, True])
    def test_matches_the_full_synthesis_loop(self, name, truncation, last):
        f = _PARSEVAL_FRAMES[name]()
        assert f.tightness_eps <= 1e-12
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.9, delta=0.05),
            truncation=_TRUNCATIONS[truncation], iterations=20,
            exact_last_iteration=last, frame_epsilon=f.tightness_eps)
        clipped = 0
        for x in _inputs(f, 3):
            rep = conversion.kashin_encode(f, x, cfg)
            a, norms, counts = _reference_encode(f, x, cfg)
            assert rep.iterations_used == len(norms)
            assert np.linalg.norm(rep.coefficients - a) <= 1e-12 * np.linalg.norm(a)
            assert rep.coefficients.dtype == np.asarray(a).dtype
            if truncation != "map":
                assert rep.clip_counts == tuple(counts)
            clipped += rep.clip_counts[0] > 0
        assert clipped >= 3  # every column input clips

    def test_gaussian_frames_keep_the_full_synthesis_bits(self, eps_tight_frame):
        inputs = unit_vectors(16, 2, 73, complex_valued=True) + unit_vectors(16, 2, 79)
        for spec in _TRUNCATIONS.values():
            for last in (False, True):
                cfg = conversion.ConversionConfig(
                    up=uncertainty.UPParams(eta=0.45, delta=0.05), truncation=spec,
                    iterations=8, exact_last_iteration=last,
                    frame_epsilon=eps_tight_frame.tightness_eps)
                for x in inputs:
                    rep = conversion.kashin_encode(eps_tight_frame, x, cfg)
                    a, norms, counts = _reference_encode(eps_tight_frame, x, cfg)
                    assert np.array_equal(rep.coefficients, a)
                    assert rep.residual_norms == tuple(norms)
                    assert rep.clip_counts == tuple(counts)

    @staticmethod
    def _spy(monkeypatch):
        widths = []
        synthesis = frames.synthesis

        def spy(frame, coeffs, support=None):
            widths.append(frame.N if support is None else len(support))
            return synthesis(frame, coeffs, support=support)

        monkeypatch.setattr(frames, "synthesis", spy)
        return widths

    def test_a_pass_that_clips_nothing_synthesizes_nothing(self, frame_64x128,
                                                           monkeypatch):
        widths = self._spy(monkeypatch)
        x = unit_vectors(64, 1, 83)[0]
        rep = conversion.kashin_encode(frame_64x128, x, _exact_cfg(0.9, 0.05, iterations=20))
        assert rep.clip_counts == (0,)
        assert rep.residual_norms == (0.0,)
        assert widths == []

    def test_a_column_input_synthesizes_only_clipped_columns(self, frame_64x128,
                                                             monkeypatch):
        widths = self._spy(monkeypatch)
        x = column_unit(frame_64x128, 5)
        rep = conversion.kashin_encode(frame_64x128, x, _exact_cfg(0.9, 0.05, iterations=20))
        assert rep.iterations_used >= 2 and rep.residual_norms[-1] == 0.0
        assert widths == [c for c in rep.clip_counts if c]
        assert 0 < max(widths) <= 128 // 8

    @pytest.mark.parametrize("last", [False, True])
    def test_certificate_covers_a_slightly_loose_frame(self, frame_64x128, last):
        # row 0 scaled by 1 + 1e-13: U U* - I = (2e-13 + 1e-26) e0 e0*, and
        # the input e0 clips nothing, so the carried residual is exactly 0
        # while x - U a is -(2e-13) e0, twice the additive cushion
        m = frame_64x128.matrix.copy()
        m[0] *= 1.0 + 1e-13
        f = frames.FrameMatrix(n=64, N=128, kind=frames.DENSE, matrix=m)
        assert 5e-14 <= f.tightness_eps <= 1e-12
        cfg = _exact_cfg(0.9, 0.05, iterations=20, exact_last_iteration=last,
                         frame_epsilon=f.tightness_eps)
        e0 = np.eye(64)[0]
        for x in (e0, column_unit(f, 9), unit_vectors(64, 1, 89)[0]):
            rep = conversion.kashin_encode(f, x, cfg)
            err = np.linalg.norm(x - frames.synthesis(f, rep.coefficients))
            assert err <= rep.residual_bound
            assert abs(rep.residual_norms[-1] - err) <= 1e-10
        rep = conversion.kashin_encode(f, e0, cfg)
        assert rep.residual_norms[-1] == 0.0
        assert np.linalg.norm(e0 - frames.synthesis(f, rep.coefficients)) > 1.5e-13
