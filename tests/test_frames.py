import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kashin import conversion, formats, frames, linalg, quantize, uncertainty
from kashin.errors import DimensionMismatch, EmptySelection, InvalidConfig, InvalidParams

from conftest import run_with_memory_cap, unit_vectors


def _svd_eps(u):
    s = np.linalg.svd(u, compute_uv=False)
    return max(1.0 - s.min(), s.max() - 1.0)


class TestRandomOrthogonal:
    def test_square_case_is_unitary(self):
        f = frames.gen_random_orthogonal(3, 3, 1)
        assert f.tightness_eps <= 1e-9
        u = f.matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-12

    def test_rows_orthonormal_and_eps_tiny(self, frame_8x16):
        u = frame_8x16.matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-10
        assert frame_8x16.tightness_eps <= 1e-9

    def test_parseval_100_random_vectors(self):
        f = frames.gen_random_orthogonal(2, 4, 9)
        for x in unit_vectors(2, 100, 17, complex_valued=True):
            b = frames.analysis(f, x)
            assert abs(np.sum(np.abs(b) ** 2) - 1.0) <= 1e-9

    def test_deterministic_per_seed(self):
        a = frames.gen_random_orthogonal(4, 8, 5)
        b = frames.gen_random_orthogonal(4, 8, 5)
        assert np.array_equal(a.matrix, b.matrix)


class TestPartialFourier:
    def test_single_row_frame_is_flat(self):
        f = frames.FrameMatrix(
            n=1, N=4, kind=frames.PARTIAL_FOURIER,
            omega=np.array([0], dtype=np.int64),
        )
        assert frames.dense(f) == pytest.approx(np.full((1, 4), 0.5 + 0j))
        x = np.array([1.3 - 0.4j])
        b = frames.analysis(f, x)
        assert np.sum(np.abs(b) ** 2) == pytest.approx(np.abs(x[0]) ** 2)

    def test_exact_n_mode_has_exact_cardinality(self):
        f = frames.gen_partial_fourier(8, 4, 3, mode=frames.EXACT_N)
        assert f.n == 4
        assert f.omega.shape == (4,)
        assert np.all(np.diff(f.omega) > 0)

    def test_bernoulli_mode_varies_and_can_come_up_empty(self):
        sizes = set()
        empties = 0
        for seed in range(120):
            try:
                sizes.add(frames.gen_partial_fourier(6, 1, seed).n)
            except EmptySelection:
                empties += 1
        assert empties > 0          # the zero draw is a real outcome
        assert len(sizes) > 1       # and the kept count genuinely varies

    def test_fast_path_matches_dense_oracle(self):
        f = frames.gen_partial_fourier(64, 32, 2, mode=frames.EXACT_N)
        dense = frames.dense(f)
        g = linalg.rng_from_seed(8)
        for _ in range(20):
            x = g.standard_normal(32) + 1j * g.standard_normal(32)
            a = g.standard_normal(64) + 1j * g.standard_normal(64)
            assert np.max(np.abs(
                frames.analysis(f, x) - dense.conj().T @ x
            )) <= 1e-10
            assert np.max(np.abs(
                frames.synthesis(f, a) - dense @ a
            )) <= 1e-10

    def test_rows_exactly_orthonormal(self):
        f = frames.gen_partial_fourier(1024, 512, 4, mode=frames.EXACT_N)
        assert f.tightness_eps == 0.0
        x = unit_vectors(512, 1, 5, complex_valued=True)[0]
        b = frames.analysis(f, x)
        assert abs(np.linalg.norm(b) - 1.0) <= 1e-10
        assert np.linalg.norm(frames.synthesis(f, b) - x) <= 1e-10

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParams):
            frames.gen_partial_fourier(8, 4, 0, mode="resample")


class TestSubgaussian:
    def test_single_bernoulli_row_has_unit_norm(self):
        f = frames.gen_subgaussian(1, 4, frames.BERNOULLI, 0)
        assert np.linalg.norm(f.matrix) == pytest.approx(1.0)
        assert set(np.unique(np.abs(f.matrix))) == {0.5}

    def test_gaussian_tightness_sane(self):
        f = frames.gen_subgaussian(32, 512, frames.GAUSSIAN, 1)
        assert 0.0 < f.tightness_eps <= 0.5

    def test_wide_gaussian_tightness_small(self):
        f = frames.gen_subgaussian(32, 2048, frames.GAUSSIAN, 2)
        assert f.tightness_eps <= 0.25

    def test_epsilon_sandwich_on_analysis_norms(self):
        f = frames.gen_subgaussian(16, 128, frames.GAUSSIAN, 3)
        eps = f.tightness_eps
        for x in unit_vectors(16, 50, 21):
            nb = np.linalg.norm(frames.analysis(f, x))
            assert (1 - eps - 1e-9) <= nb <= (1 + eps + 1e-9)

    def test_reconstruction_defect_bounded_by_eps(self):
        f = frames.gen_subgaussian(16, 128, frames.GAUSSIAN, 3)
        eps = f.tightness_eps
        cap = (1 + eps) ** 2 - 1 + 1e-9
        for x in unit_vectors(16, 20, 22):
            y = frames.synthesis(f, frames.analysis(f, x))
            assert np.linalg.norm(y - x) <= cap

    def test_determinism_and_distinct_dists(self):
        a = frames.gen_subgaussian(4, 16, frames.GAUSSIAN, 7)
        b = frames.gen_subgaussian(4, 16, frames.GAUSSIAN, 7)
        c = frames.gen_subgaussian(4, 16, frames.BERNOULLI, 7)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(InvalidParams):
            frames.gen_subgaussian(4, 16, "uniform", 0)


class TestOperators:
    def test_identity_frame_analysis_is_coordinate_read(self):
        f = frames.FrameMatrix(
            n=3, N=3, kind=frames.DENSE,
            matrix=np.eye(3, dtype=np.complex128),
        )
        x = np.array([1 + 2j, -1.0, 0.5j])
        assert frames.analysis(f, x) == pytest.approx(x)

    def test_synthesis_of_basis_vector_is_frame_vector(self, frame_8x16):
        e3 = np.zeros(16, dtype=np.complex128)
        e3[3] = 1.0
        assert frames.synthesis(frame_8x16, e3) == pytest.approx(
            frame_8x16.matrix[:, 3]
        )

    def test_tight_frame_reconstruction(self, frame_8x16):
        for x in unit_vectors(8, 100, 23, complex_valued=True):
            y = frames.synthesis(frame_8x16, frames.analysis(frame_8x16, x))
            assert np.linalg.norm(y - x) <= 1e-10

    def test_adjointness(self, frame_64x128):
        g = linalg.rng_from_seed(31)
        for _ in range(20):
            x = g.standard_normal(64) + 1j * g.standard_normal(64)
            a = g.standard_normal(128) + 1j * g.standard_normal(128)
            lhs = np.vdot(a, frames.analysis(frame_64x128, x))
            rhs = np.vdot(frames.synthesis(frame_64x128, a), x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_columns_match_dense_slice(self, frame_8x16):
        fourier = frames.gen_partial_fourier(64, 32, 2, mode=frames.EXACT_N)
        for f in (frame_8x16, fourier):
            s = np.array([f.N - 1, 0, 3, 5])
            assert np.array_equal(frames.columns(f, s), frames.dense(f)[:, s])
        dft_rows = np.fft.fft(np.eye(64), norm="ortho")[fourier.omega]
        assert np.max(np.abs(frames.dense(fourier) - dft_rows)) <= 1e-14

    @pytest.mark.parametrize("N", [7, 12, 480, 1024])
    def test_fourier_columns_equal_direct_exponentials(self, N):
        # gathering from the table of N roots of unity gives the same bits
        # as evaluating every entry's exponential
        f = frames.gen_partial_fourier(N, N // 2, 5, mode=frames.EXACT_N)
        s = np.arange(N)
        phase = np.outer(f.omega, s) % N
        direct = np.exp((-2j * np.pi / N) * phase) / np.sqrt(N)
        assert np.array_equal(frames.columns(f, s).view(np.uint64),
                              direct.view(np.uint64))

    def test_columns_of_a_support_block(self, frame_8x16):
        fourier = frames.gen_partial_fourier(64, 32, 2, mode=frames.EXACT_N)
        for f in (frame_8x16, fourier):
            supports = np.array([[0, 3, 5], [1, 2, f.N - 1]])
            block = frames.columns(f, supports)
            assert block.shape == (f.n, 2, 3)
            for b, s in enumerate(supports):
                assert np.array_equal(block[:, b], frames.columns(f, s))

    def test_synthesis_on_a_support(self, frame_64x128):
        # a support of at most N/8 columns multiplies only them, a wider one
        # the whole matrix, and Fourier frames ignore it; all agree with the
        # full synthesis of the zero-filled coefficients
        g = linalg.rng_from_seed(37)
        fourier = frames.gen_partial_fourier(128, 64, 2, mode=frames.EXACT_N)
        z = frames.FrameMatrix(n=64, N=128, kind=frames.DENSE,
                               matrix=frame_64x128.matrix * np.exp(0.3j))
        for f in (frame_64x128, z, fourier):
            for width in (1, 16, 17, 128):
                support = np.sort(g.choice(128, size=width, replace=False))
                for a_s in (g.standard_normal(width),
                            g.standard_normal(width) + 1j * g.standard_normal(width)):
                    a = np.zeros(128, dtype=a_s.dtype)
                    a[support] = a_s
                    full = frames.synthesis(f, a)
                    got = frames.synthesis(f, a, support=support)
                    assert got.dtype == full.dtype
                    assert np.max(np.abs(got - full)) <= 1e-14
        assert np.array_equal(frames.synthesis(frame_64x128, np.zeros(128), support=[]),
                              np.zeros(64))

    def test_narrow_support_reads_only_its_columns(self, frame_64x128):
        # coefficients off the support, which the caller vouches are zero,
        # are left out of a narrow product together with their columns,
        # and a full product, which reads every column, keeps them
        u = frame_64x128.matrix
        a = linalg.rng_from_seed(5).standard_normal(128)
        support = np.arange(16)
        narrow = frames.synthesis(frame_64x128, a, support=support)
        assert np.array_equal(narrow, u[:, support] @ a[support])
        full = frames.synthesis(frame_64x128, a, support=np.arange(17))
        assert np.array_equal(full, frames.synthesis(frame_64x128, a))
        assert np.linalg.norm(full - narrow) > 1.0

    def test_zero_maps_to_zero(self, frame_8x16):
        assert np.all(frames.analysis(frame_8x16, np.zeros(8)) == 0)
        assert np.all(frames.synthesis(frame_8x16, np.zeros(16)) == 0)
        with pytest.raises(InvalidParams):
            frames.analysis(frame_8x16, np.full(8, np.nan))

    def test_dimension_mismatch(self, frame_8x16):
        with pytest.raises(DimensionMismatch):
            frames.analysis(frame_8x16, np.ones(9))
        with pytest.raises(DimensionMismatch):
            frames.synthesis(frame_8x16, np.ones(15))


class TestMeasurements:
    def test_inflated_single_row_measures_its_excess(self):
        f = frames.FrameMatrix(
            n=1, N=3, kind=frames.DENSE,
            matrix=np.array([[1.2, 0, 0]], dtype=np.complex128),
        )
        assert frames.measure_tightness(f) == pytest.approx(0.2)
        assert f.tightness_eps == pytest.approx(0.2)

    def test_hand_built_frame_cannot_understate_its_defect(self):
        # a scaled tight frame carries its measured defect 0.3, so checks
        # that need a (nearly) tight frame refuse it
        u = frames.gen_random_orthogonal(64, 128, 3).matrix
        f = frames.FrameMatrix(n=64, N=128, kind=frames.DENSE, matrix=1.3 * u)
        assert f.tightness_eps == pytest.approx(0.3)
        x = linalg.rng_from_seed(1).standard_normal(64)
        with pytest.raises(InvalidParams, match="tight frame"):
            quantize.frame_baseline_quantize(f, x, 64)
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.5, delta=0.05),
            truncation=conversion.TruncationSpec(), iterations=4,
            frame_epsilon=0.0,
        )
        with pytest.raises(InvalidConfig, match="tightness defect"):
            conversion.kashin_encode(f, x, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan),
                                     complex(0.5, -np.inf)])
    def test_a_non_finite_entry_is_refused(self, frame_8x16, bad):
        m = frame_8x16.matrix.astype(np.result_type(frame_8x16.matrix, np.asarray(bad)))
        m[2, 3] = bad
        with pytest.raises(InvalidParams, match="NaN or infinite"):
            frames.FrameMatrix(n=8, N=16, kind=frames.DENSE, matrix=m)

    def test_overflow_in_the_gram_matrix_is_refused(self, frame_8x16):
        # 1e154 squared still fits in float64, 1e200 squared does not
        m = frame_8x16.matrix.copy()
        m[2, 3] = 1e154
        f = frames.FrameMatrix(n=8, N=16, kind=frames.DENSE, matrix=m)
        assert f.tightness_eps == pytest.approx(1e154, rel=1e-9)
        m[2, 3] = 1e200
        f = frames.FrameMatrix(n=8, N=16, kind=frames.DENSE, matrix=m)
        with pytest.raises(InvalidParams, match="not finite"):
            frames.measure_tightness(f)

    def test_stored_eps_consistent_with_measurement(self, frame_8x16):
        assert abs(
            frames.measure_tightness(frame_8x16) - frame_8x16.tightness_eps
        ) <= 1e-10

    def test_dense_frames_match_svd_oracle(self):
        g = linalg.rng_from_seed(41)
        z = g.standard_normal((40, 24)) + 1j * g.standard_normal((40, 24))
        complex_tight = np.linalg.qr(z)[0].conj().T
        real_tight = np.linalg.qr(g.standard_normal((40, 24)))[0].T
        for u in (complex_tight, real_tight):
            f = frames.FrameMatrix(n=24, N=40, kind=frames.DENSE,
                                   matrix=u.astype(np.complex128))
            assert abs(frames.measure_tightness(f) - _svd_eps(u)) <= 1e-12
        for dist in (frames.GAUSSIAN, frames.BERNOULLI):
            for n, N in ((32, 64), (64, 128)):
                f = frames.gen_subgaussian(n, N, dist, 5)
                eps, oracle = frames.measure_tightness(f), _svd_eps(f.matrix)
                assert 0.4 <= oracle <= 0.8
                assert abs(eps - oracle) <= 1e-12 * oracle
                assert f.tightness_eps == eps

    @pytest.mark.parametrize("n, N", [(64, 128), (256, 512)])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_tight_frames_certified_without_eigen_solve(
            self, monkeypatch, n, N, complex_valued):
        g = linalg.rng_from_seed(n + complex_valued)
        z = g.standard_normal((N, n))
        if complex_valued:
            z = z + 1j * g.standard_normal((N, n))
        u = np.linalg.qr(z)[0].conj().T.astype(np.complex128)
        oracle = _svd_eps(u)
        f = frames.FrameMatrix(n=n, N=N, kind=frames.DENSE, matrix=u)

        def refuse(a):
            raise AssertionError("measured a tight frame by eigen-solve")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        eps = frames.measure_tightness(f)
        # an upper bound on the defect, above it by 5e-10 at most
        assert oracle <= eps <= 5e-10

    def test_duplicated_row_measures_defect_one(self):
        # a repeated row makes sigma_min = 0; rounding can put 1 + mu just
        # below zero, which must clamp to sigma = 0 rather than give NaN
        u = frames.gen_subgaussian(16, 256, frames.GAUSSIAN, 1).matrix.copy()
        u[1] = u[0]
        f = frames.FrameMatrix(n=16, N=256, kind=frames.DENSE, matrix=u)
        eps = frames.measure_tightness(f)
        assert np.isfinite(eps)
        assert abs(eps - 1.0) <= 1e-7

    def test_oversized_fourier_selection_short_circuits(self):
        f = frames.FrameMatrix(
            n=2048, N=1 << 12, kind=frames.PARTIAL_FOURIER,
            omega=np.arange(2048, dtype=np.int64) * 2,
        )
        assert frames.measure_tightness(f) == 0.0

    def test_frame_norm_sum_is_n_for_tight_frames(self, frame_8x16):
        assert frames.frame_norm_sum(frame_8x16) == pytest.approx(8.0, abs=1e-8)
        pf = frames.gen_partial_fourier(16, 8, 1, mode=frames.EXACT_N)
        assert frames.frame_norm_sum(pf) == 8.0


class TestValidation:
    def test_bad_dimensions_rejected(self):
        with pytest.raises(InvalidParams):
            frames.FrameMatrix(n=4, N=2, kind=frames.DENSE,
                               matrix=np.zeros((4, 2), dtype=np.complex128))

    def test_dense_needs_matching_matrix(self):
        with pytest.raises(InvalidParams):
            frames.FrameMatrix(n=2, N=4, kind=frames.DENSE,
                               matrix=np.zeros((2, 3), dtype=np.complex128))

    def test_fourier_indices_must_be_sorted_distinct(self):
        with pytest.raises(InvalidParams):
            frames.FrameMatrix(n=2, N=4, kind=frames.PARTIAL_FOURIER,
                               omega=np.array([3, 1], dtype=np.int64))
        with pytest.raises(InvalidParams):
            frames.FrameMatrix(n=2, N=4, kind=frames.PARTIAL_FOURIER,
                               omega=np.array([1, 4], dtype=np.int64))

    def test_unknown_kind_and_family(self):
        with pytest.raises(InvalidParams):
            frames.FrameMatrix(n=1, N=2, kind="sparse")
        with pytest.raises(InvalidParams):
            frames.FrameFamily(tag="wavelet", n=2, N=4, seed=0)

    def test_family_generate_matches_direct_calls(self):
        fam = frames.FrameFamily(tag=frames.RANDOM_ORTHOGONAL, n=4, N=8, seed=2)
        assert np.array_equal(
            frames.generate(fam).matrix,
            frames.gen_random_orthogonal(4, 8, 2).matrix,
        )
        fam = frames.FrameFamily(tag=frames.PARTIAL_FOURIER, n=4, N=8, seed=2)
        assert np.array_equal(
            frames.generate(fam).omega,
            frames.gen_partial_fourier(8, 4, 2, mode=frames.EXACT_N).omega,
        )


class TestInputContract:
    """Inputs of the wrong type or size raise a KashinError, not a raw
    Python or numpy error, and never allocate by N."""

    def test_fourier_n_above_the_cap_is_refused(self):
        # one index declares N = 2^31; the constructor allocates nothing by N
        with pytest.raises(InvalidParams, match=r"N <= 2\^24"):
            frames.FrameMatrix(n=1, N=2**31, kind=frames.PARTIAL_FOURIER,
                               omega=np.array([0]))
        f = frames.FrameMatrix(n=1, N=frames.FOURIER_MAX_N,
                               kind=frames.PARTIAL_FOURIER, omega=np.array([3]))
        assert f.N == 1 << 24

    def test_fourier_family_above_the_cap_is_refused(self):
        with pytest.raises(InvalidParams, match=r"N <= 2\^24"):
            frames.FrameFamily(frames.PARTIAL_FOURIER, 1, 2**25, 0)
        # the cap is the Fourier family's alone
        assert frames.FrameFamily(frames.GAUSSIAN, 1, 2**25, 0).N == 2**25

    @pytest.mark.parametrize("mode", [frames.EXACT_N, frames.BERNOULLI_SELECTORS])
    def test_generator_refuses_n_above_the_cap_before_the_draw(self, mode):
        done = run_with_memory_cap(
            "from kashin import frames\n"
            "from kashin.errors import InvalidParams\n"
            "try:\n"
            f"    frames.gen_partial_fourier(2**31, 1, 0, mode={mode!r})\n"
            "except InvalidParams as exc:\n"
            "    print('refused:', exc)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("refused: partial Fourier frames need N <= 2^24")

    def test_dense_matrix_is_coerced(self):
        ints = [[1, 0, 0], [0, 1, 0]]
        for given in (ints, np.array(ints), np.array(ints, dtype=bool)):
            f = frames.FrameMatrix(n=2, N=3, kind=frames.DENSE, matrix=given)
            assert f.matrix.dtype == np.float64
            assert f.tightness_eps == 0.0
        u = frames.gen_random_orthogonal(4, 8, 1).matrix
        assert frames.FrameMatrix(n=4, N=8, kind=frames.DENSE, matrix=u).matrix is u

    @pytest.mark.parametrize("matrix", [[["a", "b"]], np.array([[None, 1]]), None])
    def test_non_numeric_matrix_is_refused(self, matrix):
        with pytest.raises(InvalidParams):
            frames.FrameMatrix(n=1, N=2, kind=frames.DENSE, matrix=matrix)

    @pytest.mark.parametrize("omega", [np.array([1.0, 3.0]), np.array([True, False]),
                                       ["1", "3"], None])
    def test_row_indices_need_an_integer_dtype(self, omega):
        with pytest.raises(InvalidParams, match="integer row indices"):
            frames.FrameMatrix(n=2, N=8, kind=frames.PARTIAL_FOURIER, omega=omega)

    @pytest.mark.parametrize("omega", [[1, 3], np.array([1, 3], dtype=np.uint64)])
    def test_integer_row_indices_are_stored_as_int64(self, omega):
        f = frames.FrameMatrix(n=2, N=8, kind=frames.PARTIAL_FOURIER, omega=omega)
        assert f.omega.dtype == np.int64
        assert np.array_equal(frames.columns(f, [0, 5]), frames.dense(f)[:, [0, 5]])

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), "4"])
    def test_sizes_must_be_whole_numbers(self, bad):
        with pytest.raises(InvalidParams, match="whole number"):
            frames.gen_random_orthogonal(bad, 16, 0)
        with pytest.raises(InvalidParams, match="whole number"):
            frames.gen_subgaussian(4, bad, frames.GAUSSIAN, 0)
        with pytest.raises(InvalidParams, match="whole number"):
            frames.gen_partial_fourier(bad, 2, 0, mode=frames.EXACT_N)
        with pytest.raises(InvalidParams, match="whole number"):
            frames.FrameMatrix(n=bad, N=8, kind=frames.PARTIAL_FOURIER,
                               omega=np.array([1, 3]))

    def test_whole_float_sizes_are_stored_as_int(self):
        f = frames.gen_random_orthogonal(4.0, 8.0, 2)
        assert (type(f.n), type(f.N)) == (int, int)
        assert np.array_equal(f.matrix, frames.gen_random_orthogonal(4, 8, 2).matrix)
        pf = frames.gen_partial_fourier(16.0, 4.0, 1, mode=frames.EXACT_N)
        same = frames.gen_partial_fourier(16, 4, 1, mode=frames.EXACT_N)
        assert np.array_equal(pf.omega, same.omega)


def _real_frame_inputs(g, n):
    """Real, complex, and complex-typed with a zero imaginary part."""
    x = g.standard_normal(n)
    return {
        "real": x,
        "complex": x + 1j * g.standard_normal(n),
        "zero-imaginary": x.astype(np.complex128),
    }


class TestRealStorage:
    def test_real_families_are_float64(self):
        assert linalg.sample_gaussian(4, 9, 1).dtype == np.float64
        assert linalg.sample_bernoulli(4, 9, 1).dtype == np.float64
        assert frames.gen_random_orthogonal(4, 8, 1).matrix.dtype == np.float64
        for dist in (frames.GAUSSIAN, frames.BERNOULLI):
            assert frames.gen_subgaussian(4, 8, dist, 1).matrix.dtype == np.float64
        for tag in (frames.RANDOM_ORTHOGONAL, frames.GAUSSIAN, frames.BERNOULLI):
            f = frames.generate(frames.FrameFamily(tag=tag, n=4, N=8, seed=1))
            assert f.matrix.dtype == np.float64

    def test_zero_imaginary_matrix_is_stored_real(self):
        u = frames.gen_random_orthogonal(4, 8, 2).matrix
        f = frames.FrameMatrix(n=4, N=8, kind=frames.DENSE,
                               matrix=u.astype(np.complex128))
        assert f.matrix.dtype == np.float64
        assert np.array_equal(f.matrix, u)
        c = u + 1e-300j
        assert frames.FrameMatrix(n=4, N=8, kind=frames.DENSE,
                                  matrix=c).matrix is c

    @pytest.mark.parametrize("kind", ["real", "complex", "zero-imaginary"])
    def test_operators_match_complex_reference(self, kind):
        f = frames.gen_random_orthogonal(64, 128, 3)
        ref = f.matrix.astype(np.complex128)
        g = linalg.rng_from_seed(4)
        x = _real_frame_inputs(g, 64)[kind]
        a = _real_frame_inputs(g, 128)[kind]
        for got, want in ((frames.analysis(f, x), ref.conj().T @ x),
                          (frames.synthesis(f, a), ref @ a)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            # real data stays real; an exactly zero imaginary part counts
            assert got.dtype == (np.complex128 if kind == "complex" else np.float64)

    def test_zero_imaginary_part_uses_the_real_product(self):
        # the same GEMV, so the same bits as on the float64 vector
        f = frames.gen_random_orthogonal(64, 128, 3)
        g = linalg.rng_from_seed(5)
        x, a = g.standard_normal(64), g.standard_normal(128)
        assert np.array_equal(frames.analysis(f, x.astype(np.complex128)),
                              frames.analysis(f, x))
        assert np.array_equal(frames.synthesis(f, a.astype(np.complex128)),
                              frames.synthesis(f, a))

    @pytest.mark.parametrize("op", ["analysis", "synthesis"])
    def test_complex_data_never_promotes_the_matrix(self, op):
        # numpy's float64 @ complex128 would copy the whole matrix to
        # complex128, four times the budget here
        f = frames.gen_random_orthogonal(256, 512, 6)
        g = linalg.rng_from_seed(7)
        size = f.n if op == "analysis" else f.N
        v = g.standard_normal(size) + 1j * g.standard_normal(size)
        tracemalloc.start()
        try:
            getattr(frames, op)(f, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f.matrix.nbytes / 4

    def test_real_frame_file_reads_without_promotion(self, tmp_path):
        f = frames.gen_random_orthogonal(256, 512, 8)
        path = tmp_path / "f.kfrm"
        formats.write_frame(path, f)
        tracemalloc.start()
        try:
            back = formats.read_frame(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.matrix.dtype == np.float64
        assert peak <= f.matrix.nbytes + (1 << 16)



class TestStorageOrder:
    @pytest.mark.parametrize("n, N", [(64, 128), (256, 1024)])
    def test_encode_bits_depend_on_the_values_alone(self, tmp_path, n, N):
        # the same values stored F-ordered, or read back from their file,
        # run the same products and so give the same bytes
        f = frames.gen_random_orthogonal(n, N, 4)
        path = tmp_path / "f.kfrm"
        formats.write_frame(path, f)
        same = [formats.read_frame(path),
                frames.FrameMatrix(n=n, N=N, kind=frames.DENSE,
                                   matrix=np.asfortranarray(f.matrix))]
        assert f.matrix.flags.c_contiguous
        assert all(g.matrix.flags.c_contiguous for g in same)
        cfg = conversion.ConversionConfig(
            up=uncertainty.UPParams(eta=0.9, delta=0.05),
            truncation=conversion.TruncationSpec(), iterations=6,
            frame_epsilon=f.tightness_eps + 1e-12)
        inputs = [f.matrix[:, t] / np.linalg.norm(f.matrix[:, t]) for t in range(5)]
        inputs += unit_vectors(n, 5, 9, complex_valued=True)
        for x in inputs:
            want = formats.representation_to_bytes(conversion.kashin_encode(f, x, cfg))
            for g in same:
                got = conversion.kashin_encode(g, x, cfg)
                assert formats.representation_to_bytes(got) == want

    def test_gaussian_frame_is_scaled_in_place(self):
        frames.gen_subgaussian(256, 1024, frames.GAUSSIAN, 1)
        tracemalloc.start()
        try:
            f = frames.gen_subgaussian(256, 1024, frames.GAUSSIAN, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * f.matrix.nbytes


class TestBernoulliDraw:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (256, 1024), (5, 9001)])
    def test_the_frame_is_one_whole_draw_of_bits(self, seed, shape):
        # the sampler draws in blocks; the stream is the single draw's
        bits = np.random.default_rng(seed).integers(0, 2, shape)
        want = 2 * bits - 1
        assert np.array_equal(linalg.sample_bernoulli(*shape, seed), want)
        f = frames.gen_subgaussian(*shape, frames.BERNOULLI, seed)
        assert np.array_equal(f.matrix, want * (1.0 / math.sqrt(shape[1])))

    def test_the_frame_is_the_only_large_allocation(self):
        frames.gen_subgaussian(256, 1024, frames.BERNOULLI, 1)
        tracemalloc.start()
        try:
            f = frames.gen_subgaussian(256, 1024, frames.BERNOULLI, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * f.matrix.nbytes


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dims=st.sampled_from([(2, 4), (3, 7), (8, 16)]),
)
def test_generated_tight_frames_satisfy_parseval(seed, dims):
    n, N = dims
    f = frames.gen_random_orthogonal(n, N, seed)
    g = linalg.rng_from_seed(seed ^ 0xA5A5)
    x = g.standard_normal(n) + 1j * g.standard_normal(n)
    b = frames.analysis(f, x)
    energy = np.linalg.norm(x) ** 2
    assert abs(np.sum(np.abs(b) ** 2) - energy) <= 1e-9 * max(energy, 1.0)
