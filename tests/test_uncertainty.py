import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kashin import conversion, frames, linalg, uncertainty
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
            matrix=1.7 * frame_8x16.matrix,
        )
        base, _ = uncertainty.up_check_exact(frame_8x16, 2 / 16)
        big, _ = uncertainty.up_check_exact(scaled, 2 / 16)
        assert big == pytest.approx(1.7 * base, abs=1e-10)

    @pytest.mark.parametrize("n, N, k", [(4, 36, 33), (8, 35, 34)])
    def test_exact_at_every_width(self, n, N, k):
        f = frames.gen_random_orthogonal(n, N, 2)
        eta, w = uncertainty.up_check_exact(f, k / N)
        supports = np.array(list(itertools.combinations(range(N), k)))
        subs = f.matrix[:, supports].transpose(1, 0, 2)
        top = np.linalg.svd(subs, compute_uv=False)[:, 0].max()
        assert abs(eta - top) <= 1e-12 * top
        assert len(w.support) == k

    @pytest.mark.parametrize("bad", [1e200, -1e200])
    def test_a_non_finite_gram_block_is_refused(self, frame_8x16, bad):
        # a frame refuses NaN and infinite entries, but a finite entry
        # near 1e200 still overflows every Gram block that holds it
        m = frame_8x16.matrix.copy()
        m[2, 3] = bad
        f = frames.FrameMatrix(n=8, N=16, kind=frames.DENSE, matrix=m)
        with pytest.raises(InvalidParams, match="not finite"):
            uncertainty.up_check_exact(f, 2 / 16)
        with pytest.raises(InvalidParams, match="not finite"):
            uncertainty.up_estimate(f, 2 / 16, trials=20, seed=1)

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

    @pytest.mark.parametrize("bad", [2.5, math.nan, 0, "10"])
    def test_trials_must_be_a_whole_number(self, frame_8x16, bad):
        with pytest.raises(InvalidParams, match="whole number"):
            uncertainty.up_estimate(frame_8x16, 2 / 16, trials=bad, seed=0)

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

    @pytest.mark.parametrize("delta", [2 / 16, 5 / 16])
    def test_scores_the_supports_drawn_one_by_one(self, frame_8x16, delta):
        # the stacked path draws the same supports, in the same order, as
        # one permutation per trial, and keeps the first best one
        k = uncertainty.support_width(delta, 16)
        g = linalg.rng_from_seed(8)
        draws = [np.sort(g.permutation(16)[:k]) for _ in range(30)]
        tops = [np.linalg.svd(frame_8x16.matrix[:, s], compute_uv=False)[0]
                for s in draws]
        eta, w = uncertainty.up_estimate(frame_8x16, delta, trials=30, seed=8)
        assert abs(eta - max(tops)) <= 1e-12 * max(tops)
        assert w.support in {tuple(int(i) for i in s) for s in draws}

    @pytest.mark.parametrize("family", ["dense", "fourier"])
    def test_wide_supports_score_every_draw_exactly(self, family):
        # width 38: each drawn support is scored by its exact sigma_max, and
        # the draws are one permutation per trial at every width
        f = (frames.gen_random_orthogonal(16, 64, 3) if family == "dense"
             else frames.gen_partial_fourier(64, 16, 3, mode=frames.EXACT_N))
        matrix = frames.dense(f)
        g = linalg.rng_from_seed(12)
        draws = [np.sort(g.permutation(64)[:38]) for _ in range(10)]
        tops = [np.linalg.svd(matrix[:, s], compute_uv=False)[0] for s in draws]
        eta, w = uncertainty.up_estimate(f, 38 / 64, trials=10, seed=12)
        assert abs(eta - max(tops)) <= 1e-12 * max(tops)
        assert w.support == tuple(int(i) for i in draws[int(np.argmax(tops))])

    def test_wide_support_path_against_direct_svd(self):
        f = frames.gen_random_orthogonal(16, 64, 3)
        _check_wide_support(f, f.matrix)

    def test_wide_support_path_against_direct_svd_fourier(self):
        f = frames.gen_partial_fourier(64, 16, 3, mode=frames.EXACT_N)
        dft_rows = np.fft.fft(np.eye(64), norm="ortho")[f.omega]
        _check_wide_support(f, dft_rows)


def _check_wide_support(f, matrix):
    # a wide support's value equals a full decomposition of the same
    # submatrix, and its witness vector realizes it
    eta, w = uncertainty.up_estimate(f, 38 / 64, trials=5, seed=1)
    assert len(w.support) == 38
    sub = matrix[:, np.asarray(w.support)]
    top = np.linalg.svd(sub, compute_uv=False)[0]
    assert abs(eta - top) <= 1e-12 * top
    realized = np.linalg.norm(frames.synthesis(f, w.vector))
    assert realized == pytest.approx(eta, abs=1e-9)


class TestStackedSolve:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["dense-real", "dense-complex", "fourier"]),
        batch=st.one_of(st.none(), st.integers(1, 4)),
        k=st.integers(1, 7),
    )
    def test_gram_block_matches_a_dense_oracle(self, seed, kind, batch, k):
        g = linalg.rng_from_seed(seed)
        if kind == "fourier":
            f = frames.gen_partial_fourier(24, 10, seed % 1000, mode=frames.EXACT_N)
        else:
            m = g.standard_normal((6, 24))
            if kind == "dense-complex":
                m = m + 1j * g.standard_normal((6, 24))
            f = frames.FrameMatrix(n=6, N=24, kind=frames.DENSE, matrix=m)
        shape = (k,) if batch is None else (batch, k)
        supports = np.sort(g.integers(0, 24, size=shape), axis=-1)
        block = frames.GramStep(f).block(supports)
        d = frames.dense(f)
        oracle = (d.conj().T @ d)[supports[..., :, None], supports[..., None, :]]
        assert block.shape == shape + (k,)
        assert np.iscomplexobj(block) == (kind != "dense-real")
        assert np.max(np.abs(block - oracle), initial=0.0) <= 1e-12 * max(1.0, np.abs(oracle).max())

    @pytest.mark.parametrize("frame", [
        frames.gen_random_orthogonal(8, 16, 11),
        frames.gen_partial_fourier(16, 8, 4, mode=frames.EXACT_N),
    ], ids=["dense", "fourier"])
    def test_chunk_size_does_not_change_the_answer(self, frame, monkeypatch):
        def run():
            exact = uncertainty.up_check_exact(frame, 3 / 16)
            sampled = uncertainty.up_estimate(frame, 3 / 16, trials=200, seed=6)
            return [(eta, w.support) for eta, w in (exact, sampled)]

        whole = run()
        monkeypatch.setattr(uncertainty, "_CHUNK_ENTRIES", 1)
        assert run() == whole


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
        # K = (1 - eta)^-1 delta^-1/2, the level conversion certifies
        for eta, delta, K in ((0.5, 0.25, 4.0),
                              (math.sqrt(0.5), 0.5, 2 * (math.sqrt(2) + 1))):
            cfg = conversion.ConversionConfig(
                up=uncertainty.UPParams(eta=eta, delta=delta),
                truncation=conversion.TruncationSpec(), iterations=1,
            )
            assert conversion.adjusted_parameters(cfg)[2] == pytest.approx(K, abs=1e-12)

    @pytest.mark.parametrize("tag", [frames.RANDOM_ORTHOGONAL, frames.PARTIAL_FOURIER])
    @pytest.mark.parametrize("n, N", [(8, 40), (8, 64), (8, 8)])
    def test_no_a_priori_eta_outside_the_unit_interval(self, tag, n, N):
        # 1 - mu/4 is 0 at N = 5n, -0.75 at N = 8n and 1 at N = n, none of
        # which UPParams accepts
        fam = frames.FrameFamily(tag=tag, n=n, N=N, seed=0)
        assert uncertainty.theoretical_eta(fam) is None

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
