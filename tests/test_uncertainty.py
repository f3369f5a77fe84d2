import math

import numpy as np
import pytest

from kashin import frames, uncertainty
from kashin.errors import BudgetExceeded, InvalidParams

from conftest import unit_vectors


class TestSupportWidth:
    def test_plain_floor(self):
        assert uncertainty.support_width(2 / 16, 16) == 2
        assert uncertainty.support_width(0.3, 10) == 3

    def test_decimal_fraction_not_rounded_down(self):
        # 0.05 * 1280 is exactly 64 in decimal; binary rounding must not
        # push it to 63.
        assert uncertainty.support_width(0.05, 1280) == 64

    def test_subunit_width_is_an_error(self):
        with pytest.raises(InvalidParams):
            uncertainty.support_width(0.05, 10)

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidParams):
                uncertainty.support_width(bad, 16)

    def test_params_domain(self):
        with pytest.raises(InvalidParams):
            uncertainty.UPParams(eta=1.0, delta=0.5)
        with pytest.raises(InvalidParams):
            uncertainty.UPParams(eta=0.5, delta=0.0)


class TestExactCheck:
    def test_two_copies_frame_by_hand(self, two_copies_frame):
        # Row (1, 1)/sqrt(2): any single coefficient synthesizes to a
        # vector of norm exactly 1/sqrt(2).
        eta, w = uncertainty.up_check_exact(two_copies_frame, 0.5)
        assert eta == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert w.support == (0,)

    def test_duplicated_basis_by_hand(self):
        mat = np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.complex128
        ) / math.sqrt(2)
        f = frames.FrameMatrix(n=2, N=4, kind=frames.DENSE, matrix=mat)
        eta1, _ = uncertainty.up_check_exact(f, 0.25)
        assert eta1 == pytest.approx(math.sqrt(0.5), abs=1e-12)
        # width 2 admits the support {0, 2} holding two copies of e_0,
        # which aligned coefficients synthesize at full norm
        eta2, w2 = uncertainty.up_check_exact(f, 0.5)
        assert eta2 == pytest.approx(1.0, abs=1e-12)
        assert w2.support == (0, 2)

    def test_regression_pin_8x16(self, frame_8x16, exact_up_8x16):
        eta, w = exact_up_8x16
        assert eta == pytest.approx(0.9646048100037904, abs=1e-12)
        assert w.support == (0, 13)

    def test_witness_is_self_consistent(self, frame_8x16, exact_up_8x16):
        eta, w = exact_up_8x16
        assert eta == w.ratio
        assert len(w.support) == 2
        assert w.vector.shape == (16,)
        assert np.linalg.norm(w.vector) == pytest.approx(1.0, abs=1e-9)
        off = np.setdiff1d(np.arange(16), np.asarray(w.support))
        assert np.all(w.vector[off] == 0)
        realized = np.linalg.norm(frames.synthesis(frame_8x16, w.vector))
        assert realized == pytest.approx(eta, abs=1e-9)

    def test_monotone_in_delta(self, frame_8x16):
        etas = [
            uncertainty.up_check_exact(frame_8x16, k / 16)[0]
            for k in (1, 2, 3)
        ]
        assert etas[0] <= etas[1] + 1e-12
        assert etas[1] <= etas[2] + 1e-12

    def test_scale_homogeneity(self, frame_8x16):
        scaled = frames.FrameMatrix(
            n=8, N=16, kind=frames.DENSE,
            matrix=1.7 * frame_8x16.matrix, tightness_eps=0.7,
        )
        base, _ = uncertainty.up_check_exact(frame_8x16, 2 / 16)
        big, _ = uncertainty.up_check_exact(scaled, 2 / 16)
        assert big == pytest.approx(1.7 * base, abs=1e-10)

    def test_budget_guard(self, frame_64x128):
        with pytest.raises(BudgetExceeded):
            uncertainty.up_check_exact(frame_64x128, 6 / 128)


class TestEstimate:
    def test_saturating_sampler_recovers_exact_answer(self, frame_8x16,
                                                      exact_up_8x16):
        # 120 supports of width 2; 3000 draws cover them all, and each
        # support is scored identically in both code paths.
        eta_exact, w_exact = exact_up_8x16
        eta_est, w_est = uncertainty.up_estimate(frame_8x16, 2 / 16,
                                                 trials=3000, seed=99)
        assert abs(eta_est - eta_exact) <= 1e-8
        assert w_est.support == w_exact.support

    def test_always_a_lower_bound(self, frame_8x16, exact_up_8x16):
        eta_exact, _ = exact_up_8x16
        for seed in range(5):
            eta_est, _ = uncertainty.up_estimate(frame_8x16, 2 / 16,
                                                 trials=40, seed=seed)
            assert eta_est <= eta_exact + 1e-12

    def test_deterministic_per_seed(self, frame_8x16):
        a = uncertainty.up_estimate(frame_8x16, 2 / 16, trials=25, seed=5)
        b = uncertainty.up_estimate(frame_8x16, 2 / 16, trials=25, seed=5)
        assert a[0] == b[0]
        assert a[1].support == b[1].support

    def test_trials_must_be_positive(self, frame_8x16):
        with pytest.raises(InvalidParams):
            uncertainty.up_estimate(frame_8x16, 2 / 16, trials=0, seed=0)

    def test_wide_support_path_against_direct_svd(self):
        f = frames.gen_random_orthogonal(16, 64, 3)
        _check_wide_support(f, f.matrix)

    def test_wide_support_path_against_direct_svd_fourier(self):
        f = frames.gen_partial_fourier(64, 16, 3, mode=frames.EXACT_N)
        dft_rows = np.fft.fft(np.eye(64), norm="ortho")[f.omega]
        _check_wide_support(f, dft_rows)


def _check_wide_support(f, matrix):
    # widths past the exact-SVD cutoff go through power iteration; check
    # the reported value against a full decomposition of the same
    # submatrix, which it may undershoot but never exceed.
    eta, w = uncertainty.up_estimate(f, 38 / 64, trials=5, seed=1)
    assert len(w.support) == 38
    sub = matrix[:, np.asarray(w.support)]
    top = np.linalg.svd(sub, compute_uv=False)[0]
    assert eta <= top + 1e-9
    assert eta >= 0.98 * top
    realized = np.linalg.norm(frames.synthesis(f, w.vector))
    assert realized == pytest.approx(eta, abs=1e-9)


class TestConversions:
    def test_isometry_defect_to_eta_hand_value(self):
        p = uncertainty.uup_to_up(0.1, 0.25, 64, 128)
        assert p.eta == pytest.approx((1.1 / 0.9) * math.sqrt(0.5), abs=1e-15)
        assert p.eta == pytest.approx(0.8642, abs=5e-5)
        assert p.delta == 0.25

    def test_zero_defect_limit(self):
        p = uncertainty.uup_to_up(0.0, 0.25, 1, 2)
        assert p.eta == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_vacuous_bound_refused(self):
        with pytest.raises(InvalidParams):
            uncertainty.uup_to_up(0.35, 0.25, 1, 4)    # eta ~ 1.04
        with pytest.raises(InvalidParams):
            uncertainty.uup_to_up(0.2, 0.25, 3, 4)     # eta ~ 1.3

    def test_epsilon_domain(self):
        with pytest.raises(InvalidParams):
            uncertainty.uup_to_up(-0.1, 0.25, 1, 2)
        with pytest.raises(InvalidParams):
            uncertainty.uup_to_up(1.0, 0.25, 1, 2)

    def test_level_round_numbers(self):
        assert uncertainty.kashin_level(
            uncertainty.UPParams(eta=0.5, delta=0.25)
        ) == pytest.approx(4.0, abs=1e-12)
        assert uncertainty.kashin_level(
            uncertainty.UPParams(eta=math.sqrt(0.5), delta=0.5)
        ) == pytest.approx(2 * (math.sqrt(2) + 1), abs=1e-12)

    def test_a_priori_eta_values(self):
        assert uncertainty.theoretical_eta(
            frames.FrameFamily(tag=frames.RANDOM_ORTHOGONAL, n=8, N=16, seed=0)
        ) == pytest.approx(0.75)
        assert uncertainty.theoretical_eta(
            frames.FrameFamily(tag=frames.PARTIAL_FOURIER, n=4, N=6, seed=0)
        ) == pytest.approx(0.875)
        assert uncertainty.theoretical_eta(
            frames.FrameFamily(tag=frames.GAUSSIAN, n=8, N=16, seed=0)
        ) is None
        assert uncertainty.theoretical_eta(
            frames.FrameFamily(tag=frames.BERNOULLI, n=8, N=16, seed=0)
        ) is None


class TestIsometryToUncertaintyConsistency:
    def test_fourier_width_one_is_an_equality_instance(self):
        # Fourier-row frames have columns of norm exactly sqrt(n/N) and a
        # zero isometry defect, so the converted eta is attained exactly
        # by width-1 supports.
        f = frames.gen_partial_fourier(16, 8, 4, mode=frames.EXACT_N)
        assert frames.measure_tightness(f) <= 1e-12
        predicted = uncertainty.uup_to_up(0.0, 1 / 16, 8, 16).eta
        actual, _ = uncertainty.up_check_exact(f, 1 / 16)
        assert actual <= predicted + 1e-12
        assert actual == pytest.approx(predicted, abs=1e-12)

    def test_bound_respected_on_synthesized_sparse_vectors(self):
        f = frames.gen_partial_fourier(16, 8, 4, mode=frames.EXACT_N)
        p = uncertainty.uup_to_up(0.0, 1 / 16, 8, 16)
        for x in unit_vectors(16, 50, 31, complex_valued=True):
            a = np.zeros(16, dtype=np.complex128)
            a[7] = x[7] if x[7] != 0 else 1.0
            a /= np.linalg.norm(a)
            assert np.linalg.norm(frames.synthesis(f, a)) <= p.eta + 1e-12
