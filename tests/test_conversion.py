import itertools
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
    clipped, _ = conversion._truncate_block(b, M)
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


class TestInputTypes:
    @pytest.mark.parametrize("x", [np.array(["a"] * 8), [1.0] * 7 + [object()]])
    def test_non_numeric_input_is_refused(self, frame_8x16, x):
        cfg = _exact_cfg(0.9, 2 / 16, iterations=3)
        with pytest.raises(InvalidParams, match="must be numbers"):
            conversion.kashin_encode(frame_8x16, x, cfg)


class TestConfigValidation:
    def test_field_domains(self):
        with pytest.raises(InvalidConfig):
            _exact_cfg(0.5, 0.25, iterations=0)
        with pytest.raises(InvalidConfig):
            _exact_cfg(0.5, 0.25, iterations=1, frame_epsilon=-0.1)

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "3", None])
    def test_iterations_must_be_a_whole_number(self, bad):
        with pytest.raises(InvalidConfig, match="whole number"):
            _exact_cfg(0.5, 0.25, iterations=bad)

    def test_a_whole_float_pass_count_encodes_as_its_int(self, frame_8x16):
        as_float = _exact_cfg(0.9, 2 / 16, iterations=3.0)
        assert type(as_float.iterations) is int
        x = column_unit(frame_8x16, 5)
        got = conversion.kashin_encode(frame_8x16, x, as_float)
        want = conversion.kashin_encode(frame_8x16, x, _exact_cfg(0.9, 2 / 16, iterations=3))
        assert np.array_equal(got.coefficients, want.coefficients)
        assert got.residual_bound == want.residual_bound

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
        # the message names the pass, its clip level and the measured ratio
        M = 1.0 / math.sqrt(0.9 * 16)
        tx, _ = conversion.truncation_operator(frame_8x16, x, M, conversion.TruncationSpec())
        ratio = np.linalg.norm(x - tx)
        assert ratio > 0.1
        match = (rf"^pass 1 at clip level M = {M:.6g}: residual contracted by "
                 rf"{ratio:.6f} > eta' \+ 0\.05 = 0\.100000; ")
        with pytest.raises(NonConvergence, match=match):
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
                mode=conversion.APPROXIMATE, nu=0.1, tau=0.9),
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

    def test_completion_after_a_zero_residual_runs_no_operator(self, frame_64x128,
                                                               monkeypatch):
        # a random input clips nothing on its first pass, so the completion
        # pass receives an exactly zero residual
        x = unit_vectors(64, 1, 83)[0]
        plain = conversion.kashin_encode(
            frame_64x128, x, _exact_cfg(0.9, 0.05, iterations=20))
        assert plain.residual_norms == (0.0,)
        calls = []
        for name in ("analysis", "synthesis"):
            def spy(*args, _fn=getattr(frames, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(frames, name, spy)
        rep = conversion.kashin_encode(
            frame_64x128, x,
            _exact_cfg(0.9, 0.05, iterations=20, exact_last_iteration=True))
        assert calls == ["analysis"]  # the clipping pass only
        assert rep.iterations_used == 2
        assert rep.residual_norms == (0.0, 0.0)
        assert rep.clip_counts == (0, 0)
        assert np.array_equal(rep.coefficients, plain.coefficients)
        assert rep.level_K == plain.level_K

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

    @pytest.mark.parametrize("M", [1e-200, 0.3, 1e200])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_built_in_clip_meets_the_contract_with_nu_zero(self, M, complex_valued):
        # approximate mode certifies M * t(b/M) for any t with |t| <= 1,
        # |z - t(z)| <= nu*|z| inside tau and |z - t(z)| <= |z| everywhere;
        # the radial clip it runs keeps every |b| <= M bit for bit, so it
        # meets the contract with nu = 0 for every tau < 1
        g = linalg.rng_from_seed(37)
        mags = np.concatenate([np.linspace(0.0, 4.0, 2001), g.exponential(2.0, 2000)])
        if complex_valued:
            b = M * mags * np.exp(2j * np.pi * g.random(mags.size))
        else:
            b = M * mags * g.choice((-1.0, 1.0), mags.size)
        clipped, over = conversion._truncate_block(b, M)
        assert clipped.dtype == b.dtype
        assert np.array_equal(over, np.flatnonzero(np.abs(b) > M))
        inside = np.abs(b) <= M
        assert np.array_equal(clipped[inside], b[inside])
        assert np.all(np.abs(clipped) <= M * (1 + 1e-15))
        assert np.all(np.abs(b - clipped) <= np.abs(b))
        assert over.size > 1000

    # clipping fires on a column input only while the first level,
    # sqrt(8)/(4*tau), stays under the largest column norm, 0.883
    @pytest.mark.parametrize("nu,tau", [(0.05, 0.95), (0.1, 0.9), (0.2, 0.85), (0.25, 0.95)])
    @pytest.mark.parametrize("last", [False, True])
    def test_certificates_hold_across_parameters(self, frame_8x16, exact_up_8x16,
                                                 nu, tau, last):
        eta, _ = exact_up_8x16
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=eta, delta=2 / 16),
            truncation=conversion.TruncationSpec(
                mode=conversion.APPROXIMATE, nu=nu, tau=tau
            ),
            iterations=5,
            exact_last_iteration=last,
        )
        eta_adj, _, level = conversion.adjusted_parameters(cfg)
        assert eta_adj == pytest.approx(math.sqrt(eta**2 + nu**2), abs=1e-12)
        inputs = unit_vectors(8, 10, 83, complex_valued=True)
        inputs += [column_unit(frame_8x16, j) for j in range(16)]
        clipped = 0
        for x in inputs:
            rep = conversion.kashin_encode(frame_8x16, x, cfg)
            assert rep.level_K == pytest.approx(level, abs=1e-12)
            prev = 1.0
            for rn in rep.residual_norms:
                assert rn <= eta_adj * prev + 1e-12
                prev = rn
            assert np.max(np.abs(rep.coefficients)) <= level / 4.0 * (1 + 1e-9)
            err = np.linalg.norm(x - conversion.kashin_decode(frame_8x16, rep))
            assert err <= rep.residual_bound + 1e-12
            clipped += sum(rep.clip_counts)
        assert clipped > 0


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
    residual, a, norms, counts = v.copy(), 0.0, [], []
    for _ in range(cfg.iterations):
        b = frames.analysis(f, residual)
        mags = np.abs(b)
        scale = np.ones_like(mags)
        over = mags > M
        scale[over] = M / mags[over]
        b_hat = b * scale
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
    """On Parseval frames the loop carries G e, the analysis coefficients of
    U e, instead of the residual r - U clip(U* r)."""

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
            assert rep.clip_counts == tuple(counts)
            clipped += rep.clip_counts[0] > 0
        assert clipped >= 3  # every column input clips

    def test_gaussian_frames_keep_the_full_synthesis_bits(self, eps_tight_frame):
        inputs = unit_vectors(16, 2, 73, complex_valued=True) + unit_vectors(16, 2, 79)
        inputs.append(column_unit(eps_tight_frame, 5))
        clipped = 0
        # nothing clips at delta = 0.05; at 0.3 first passes do
        for spec, last, delta in itertools.product(_TRUNCATIONS.values(), (False, True),
                                                   (0.05, 0.3)):
            cfg = conversion.ConversionConfig(
                up=uncertainty.UPParams(eta=0.45, delta=delta), truncation=spec,
                iterations=8, exact_last_iteration=last,
                frame_epsilon=eps_tight_frame.tightness_eps)
            for x in inputs:
                rep = conversion.kashin_encode(eps_tight_frame, x, cfg)
                a, norms, counts = _reference_encode(eps_tight_frame, x, cfg)
                assert np.array_equal(rep.coefficients, a)
                assert rep.residual_norms == tuple(norms)
                assert rep.clip_counts == tuple(counts)
                clipped += sum(counts)
        assert clipped > 0

    @staticmethod
    def _spy(monkeypatch, module, name):
        """Wrap ``module.name`` and record the width of each call: the
        length of its ``support`` when one is given, else of its last
        positional argument (N for a full synthesis or a DFT)."""
        widths = []
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            support = kwargs.get("support")
            widths.append(len(args[-1]) if support is None else len(support))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return widths

    def test_a_pass_that_clips_nothing_synthesizes_nothing(self, frame_64x128,
                                                           monkeypatch):
        widths = self._spy(monkeypatch, frames, "synthesis")
        x = unit_vectors(64, 1, 83)[0]
        rep = conversion.kashin_encode(frame_64x128, x, _exact_cfg(0.9, 0.05, iterations=20))
        assert rep.clip_counts == (0,)
        assert rep.residual_norms == (0.0,)
        assert widths == []

    @pytest.mark.parametrize("name", ["real", "complex"])
    def test_a_dense_column_input_reads_the_matrix_twice(self, name, monkeypatch):
        # both clipping passes clip one index, the same one: the first Gram
        # step analyzes that frame vector for its Gram column and the second
        # reuses it, so only b_1 = U* x and that column read the matrix
        f = _PARSEVAL_FRAMES[name]()
        x = column_unit(f, 9)
        cfg = _exact_cfg(0.9, 0.2, iterations=20)
        synthesis_calls = self._spy(monkeypatch, frames, "synthesis")
        analysis_calls = self._spy(monkeypatch, frames, "analysis")
        rep = conversion.kashin_encode(f, x, cfg)
        assert rep.clip_counts == (1, 1, 0)
        assert analysis_calls == [64, 64]
        assert synthesis_calls == []
        monkeypatch.undo()
        a, norms, counts = _reference_encode(f, x, cfg)
        assert rep.clip_counts == tuple(counts)
        assert np.linalg.norm(rep.coefficients - a) <= 1e-12 * np.linalg.norm(a)
        np.testing.assert_allclose(rep.residual_norms[:2], norms[:2], rtol=1e-12)

    def test_a_pass_with_two_new_indices_takes_the_operator_pair(self, monkeypatch):
        # the first pass clips two indices no Gram step has seen, so it
        # synthesizes them and runs one full analysis; the second clips one
        # new index and analyzes its frame vector instead.  Each Gram step
        # reads the matrix once, as when every step took the operator pair
        f = _PARSEVAL_FRAMES["real"]()
        g = linalg.rng_from_seed(3)
        x = frames.columns(f, g.choice(f.N, 2, replace=False)) @ g.standard_normal(2)
        cfg = _exact_cfg(0.9, 0.2, iterations=20)
        synthesis_calls = self._spy(monkeypatch, frames, "synthesis")
        analysis_calls = self._spy(monkeypatch, frames, "analysis")
        rep = conversion.kashin_encode(f, x, cfg)
        assert rep.clip_counts == (2, 1, 0)
        assert synthesis_calls == [2]
        assert len(analysis_calls) == 1 + sum(c > 0 for c in rep.clip_counts)
        monkeypatch.undo()
        a, norms, counts = _reference_encode(f, x, cfg)
        assert rep.clip_counts == tuple(counts)
        assert np.linalg.norm(rep.coefficients - a) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize("name", ["real", "complex"])
    def test_dense_gram_columns_are_analyzed_once(self, name, monkeypatch):
        # the reads each support costs: one for a new index, none once all
        # are kept, and the operator pair for two new indices at once
        f = _PARSEVAL_FRAMES[name]()
        u = frames.dense(f)
        gram = frames.GramStep(f)
        g = linalg.rng_from_seed(11)
        analysis_calls = self._spy(monkeypatch, frames, "analysis")
        synthesis_calls = self._spy(monkeypatch, frames, "synthesis")
        for support, reads, pair in (([3], 1, False), ([3, 40], 1, False),
                                     ([40, 3], 0, False), ([7, 3, 8], 1, True),
                                     ([7], 1, False), ([3, 7, 40], 0, False)):
            del analysis_calls[:], synthesis_calls[:]
            e = np.zeros(f.N, dtype=u.dtype)
            e[support] = g.standard_normal(len(support))
            ga, rn = gram(e, np.array(support))
            assert len(analysis_calls) == reads
            assert synthesis_calls == ([len(support)] if pair else [])
            expected = u.conj().T @ (u[:, support] @ e[support])
            assert np.linalg.norm(ga - expected) <= 1e-14 * np.linalg.norm(e)
            assert rn == pytest.approx(np.linalg.norm(u @ e), rel=1e-14)

    @pytest.mark.parametrize("name", ["real", "complex"])
    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("last", [False, True])
    def test_dense_column_sums_match_the_full_synthesis_loop(self, name, k, scale, last):
        f = _PARSEVAL_FRAMES[name]()
        g = linalg.rng_from_seed(k)
        reclipped = 0
        for delta in (0.2, 0.5):
            cfg = _exact_cfg(0.9, delta, iterations=20, exact_last_iteration=last)
            for _ in range(3):
                w = g.standard_normal(k)
                x = scale * (frames.columns(f, g.choice(f.N, k, replace=False)) @ w)
                rep = conversion.kashin_encode(f, x, cfg)
                a, norms, counts = _reference_encode(f, x, cfg)
                assert rep.clip_counts == tuple(counts) and counts[0] > 0
                assert linalg.norm2(rep.coefficients - a) <= 1e-12 * linalg.norm2(a)
                err = linalg.norm2(x - frames.synthesis(f, rep.coefficients))
                assert err <= rep.residual_bound
                reclipped += counts[1] > 0
        assert reclipped >= 3

    @pytest.mark.parametrize("name", ["real", "complex", "fourier-480"])
    def test_a_last_pass_by_count_that_clips_takes_the_gram_step(self, name, monkeypatch):
        # no pass follows the second, which clips one index and records
        # norm(U e) from the Gram step every clipping pass takes: the
        # dense frame analyzes that index's frame vector for its Gram
        # column, the Fourier frame sums one rotated kernel
        f = _PARSEVAL_FRAMES[name]()
        x = column_unit(f, 9)
        cfg = _exact_cfg(0.9, 0.2, iterations=2)
        synthesis_calls = self._spy(monkeypatch, frames, "synthesis")
        analysis_calls = self._spy(monkeypatch, frames, "analysis")
        dft_calls = self._spy(monkeypatch, linalg, "dft")
        rep = conversion.kashin_encode(f, x, cfg)
        assert rep.clip_counts == (1, 1)
        assert analysis_calls == [f.n] * (1 if f.kind == frames.PARTIAL_FOURIER else 2)
        assert synthesis_calls == dft_calls == []
        monkeypatch.undo()
        a, norms, counts = _reference_encode(f, x, cfg)
        assert rep.clip_counts == tuple(counts)
        assert np.linalg.norm(rep.coefficients - a) <= 1e-12 * np.linalg.norm(a)
        # the second pass's excess, clipped from the analysis of the
        # residual the first pass leaves
        eta_adj, mult, _ = conversion.adjusted_parameters(cfg)
        b_hat_1, _ = conversion._truncate_block(
            frames.analysis(f, x), mult / math.sqrt(0.2 * f.N))
        b = frames.analysis(f, x - frames.synthesis(f, b_hat_1))
        M = eta_adj * mult / math.sqrt(0.2 * f.N)
        e = b - conversion._truncate_block(b, M)[0]
        ue = np.linalg.norm(frames.synthesis(f, e))
        assert abs(rep.residual_norms[-1] - ue) <= 1e-14 * ue
        err = np.linalg.norm(x - frames.synthesis(f, rep.coefficients))
        assert err <= rep.residual_bound

    @pytest.mark.parametrize("dist", [frames.GAUSSIAN, frames.BERNOULLI])
    @pytest.mark.parametrize("last", [False, True])
    def test_a_frame_that_is_not_parseval_analyzes_once_per_pass(self, dist, last,
                                                                  monkeypatch):
        # every pass clips U* r and subtracts U b_hat; the analysis of the
        # new residual feeds the next pass, or the completion, which adds
        # it and subtracts its synthesis
        f = frames.gen_subgaussian(32, 1024, dist, 3)
        r = 8
        cfg = _exact_cfg(0.45, 0.1, iterations=r, exact_last_iteration=last,
                         frame_epsilon=f.tightness_eps)
        x = column_unit(f, 9)
        synthesis_calls = self._spy(monkeypatch, frames, "synthesis")
        analysis_calls = self._spy(monkeypatch, frames, "analysis")
        rep = conversion.kashin_encode(f, x, cfg)
        assert rep.iterations_used == r + last and rep.clip_counts[0] > 0
        assert analysis_calls == [f.n] * (r + last)
        assert synthesis_calls == [f.N] * (r + last)
        monkeypatch.undo()
        a, norms, counts = _reference_encode(f, x, cfg)
        assert np.array_equal(rep.coefficients, a)
        assert rep.residual_norms == tuple(norms)
        assert rep.clip_counts == tuple(counts)

    @pytest.mark.parametrize("last", [False, True])
    def test_fourier_gram_steps_on_both_sides_of_the_cutoff(self, last, monkeypatch):
        # at delta = 0.9 this input's second pass clips more coefficients
        # than the rotation cut-off and its third pass fewer, so the Gram
        # steps run the FFT pair and the rotated-kernel sum in one encode
        f = _PARSEVAL_FRAMES["fourier-480"]()
        g = linalg.rng_from_seed(7)
        x = frames.columns(f, g.choice(f.N, 40, replace=False)) @ (
            g.standard_normal(40) + 1j * g.standard_normal(40))
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.9, delta=0.9),
            truncation=conversion.TruncationSpec(), iterations=20,
            exact_last_iteration=last)
        dft_calls = self._spy(monkeypatch, linalg, "dft")
        rep = conversion.kashin_encode(f, x, cfg)
        cut = frames._GRAM_ROTATIONS
        assert rep.clip_counts[1] > cut >= rep.clip_counts[2] > 0
        # one synthesis per Gram step above the cut-off, none below it
        assert len(dft_calls) == sum(c > cut for c in rep.clip_counts)
        a, norms, counts = _reference_encode(f, x, cfg)
        assert rep.iterations_used == len(norms)
        assert rep.clip_counts == tuple(counts)
        assert np.linalg.norm(rep.coefficients - a) <= 1e-12 * np.linalg.norm(a)
        clipping = sum(c > 0 for c in counts)
        np.testing.assert_allclose(rep.residual_norms[:clipping], norms[:clipping], rtol=1e-12)
        err = np.linalg.norm(x - conversion.kashin_decode(f, rep))
        assert err <= rep.residual_bound

    def test_a_fourier_column_encode_runs_one_analysis_and_no_dft(self, monkeypatch):
        f = frames.gen_partial_fourier(4096, 2048, 12, mode=frames.EXACT_N)
        x = frames.columns(f, [5])[:, 0]
        cfg = _exact_cfg(0.9, 0.02, iterations=20)
        analysis_calls = self._spy(monkeypatch, frames, "analysis")
        dft_calls = self._spy(monkeypatch, linalg, "dft")
        rep = conversion.kashin_encode(f, x, cfg)
        assert rep.clip_counts == (1, 1, 1, 0)
        assert analysis_calls == [2048]
        assert dft_calls == []
        monkeypatch.undo()
        a, norms, counts = _reference_encode(f, x, cfg)
        assert rep.iterations_used == len(norms)
        assert np.linalg.norm(rep.coefficients - a) <= 1e-12 * np.linalg.norm(a)

    def test_a_fourier_last_pass_by_count_sums_the_rotated_kernel(self, monkeypatch):
        # the second pass clips one coefficient and no pass follows it; its
        # Gram step is one rotated copy of the kernel, so the encode runs
        # two inverse DFTs, for b_1 and the kernel, and no DFT
        f = frames.gen_partial_fourier(4096, 2048, 12, mode=frames.EXACT_N)
        x = frames.columns(f, [5])[:, 0]
        cfg = _exact_cfg(0.9, 0.02, iterations=2)
        synthesis_calls = self._spy(monkeypatch, frames, "synthesis")
        analysis_calls = self._spy(monkeypatch, frames, "analysis")
        dft_calls = self._spy(monkeypatch, linalg, "dft")
        idft_calls = self._spy(monkeypatch, linalg, "idft")
        rep = conversion.kashin_encode(f, x, cfg)
        assert rep.clip_counts == (1, 1)
        assert analysis_calls == [2048]
        assert idft_calls == [4096, 4096]
        assert synthesis_calls == dft_calls == []
        monkeypatch.undo()
        a, norms, counts = _reference_encode(f, x, cfg)
        assert np.linalg.norm(rep.coefficients - a) <= 1e-12 * np.linalg.norm(a)
        err = np.linalg.norm(x - frames.synthesis(f, rep.coefficients))
        assert abs(rep.residual_norms[-1] - err) <= 1e-14
        assert err <= rep.residual_bound

    @pytest.mark.parametrize("name", ["real", "complex", "fourier-480"])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("last", [False, True])
    def test_inputs_far_from_unit_norm(self, name, scale, last):
        # sqrt(Re <e, G e>) squares coefficients of the input's scale, which
        # would overflow at 1e200 and underflow at 1e-200 unscaled
        f = _PARSEVAL_FRAMES[name]()
        cfg = _exact_cfg(0.9, 0.05, iterations=20, exact_last_iteration=last)
        x = scale * column_unit(f, 5)
        rep = conversion.kashin_encode(f, x, cfg)
        a, norms, counts = _reference_encode(f, x, cfg)
        assert rep.clip_counts == tuple(counts) and counts[0] > 0
        assert linalg.norm2(rep.coefficients - a) <= 1e-12 * linalg.norm2(a)
        np.testing.assert_allclose(rep.residual_norms, norms, rtol=1e-12,
                                   atol=1e-14 * scale)
        err = linalg.norm2(x - frames.synthesis(f, rep.coefficients))
        assert err <= rep.residual_bound

    @pytest.mark.parametrize("name", ["real", "fourier-128"])
    def test_an_underflowing_clip_level_is_rejected(self, name):
        f = _PARSEVAL_FRAMES[name]()
        x = np.zeros(f.n)
        # M = norm / sqrt(delta N) would round to 0; the subnormal input
        # norm is refused before any pass
        x[0] = 5e-324
        with pytest.raises(InvalidParams, match="below the normal float64 range"):
            conversion.kashin_encode(f, x, _exact_cfg(0.9, 0.05, iterations=20))

    @pytest.mark.parametrize("name", ["real", "fourier-480"])
    @pytest.mark.parametrize("scale", [1e-310, 1e-320])
    def test_a_subnormal_input_norm_is_refused(self, name, scale):
        # below the normal range the bound's margins underflow: completed
        # encodes certified 0.0 against an error near 1e-322
        f = _PARSEVAL_FRAMES[name]()
        cfg = _exact_cfg(0.9, 0.05, iterations=20, exact_last_iteration=True)
        for x in (column_unit(f, 3), unit_vectors(f.n, 1, 61)[0]):
            with pytest.raises(InvalidParams, match="below the normal float64 range"):
                conversion.kashin_encode(f, scale * x, cfg)
        rep = conversion.kashin_encode(f, np.zeros(f.n), cfg)
        assert not np.any(rep.coefficients) and rep.residual_bound == 0.0

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
