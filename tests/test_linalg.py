import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kashin import frames, linalg
from kashin.errors import DimensionMismatch, InvalidParams, RankDeficient


def naive_dft(x):
    """Direct double-loop unitary transform — the oracle every fast
    path is judged against."""
    n = len(x)
    out = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        for j in range(n):
            out[k] += x[j] * np.exp(-2j * np.pi * k * j / n)
    return out / np.sqrt(n)


class TestDft:
    def test_matches_naive_oracle_all_sizes_to_32(self):
        g = linalg.rng_from_seed(1)
        for n in range(1, 33):
            x = g.standard_normal(n) + 1j * g.standard_normal(n)
            assert np.max(np.abs(linalg.dft(x) - naive_dft(x))) <= 1e-11

    def test_basis_vector_spreads_flat(self):
        e0 = np.array([1, 0, 0, 0], dtype=np.complex128)
        assert linalg.dft(e0) == pytest.approx(np.full(4, 0.5 + 0j))

    def test_constant_vector_concentrates(self):
        out = linalg.dft(np.ones(4, dtype=np.complex128))
        assert out == pytest.approx(np.array([2, 0, 0, 0], dtype=np.complex128))

    def test_unitary_up_to_4096(self):
        g = linalg.rng_from_seed(2)
        for n in (2, 16, 256, 1000, 4096):
            x = g.standard_normal(n) + 1j * g.standard_normal(n)
            nx = np.linalg.norm(x)
            assert abs(np.linalg.norm(linalg.dft(x)) - nx) <= 1e-10 * nx
            assert np.linalg.norm(linalg.idft(linalg.dft(x)) - x) <= 1e-10 * nx

    def test_non_power_of_two_sizes_use_same_definition(self):
        g = linalg.rng_from_seed(3)
        for n in (3, 6, 12, 17):
            x = g.standard_normal(n) + 1j * g.standard_normal(n)
            assert np.max(np.abs(linalg.dft(x) - naive_dft(x))) <= 1e-11
            assert np.linalg.norm(linalg.idft(linalg.dft(x)) - x) <= 1e-12

    def test_idft_is_conjugate_transform(self):
        g = linalg.rng_from_seed(4)
        x = g.standard_normal(8) + 1j * g.standard_normal(8)
        expected = np.conj(naive_dft(np.conj(x)))
        assert np.max(np.abs(linalg.idft(x) - expected)) <= 1e-12


class TestQrOrthonormalizeRows:
    def test_single_row_gets_positive_real_pivot(self):
        q = linalg.qr_orthonormalize_rows(np.array([[3.0, 4.0j]]))
        assert q[0] == pytest.approx(np.array([0.6, 0.8j]))

    def test_rows_orthonormal(self):
        g = linalg.rng_from_seed(5)
        m = g.standard_normal((6, 12)) + 1j * g.standard_normal((6, 12))
        q = linalg.qr_orthonormalize_rows(m)
        assert q.shape == (6, 12)
        assert np.max(np.abs(q @ q.conj().T - np.eye(6))) <= 1e-12

    def test_preserves_row_span(self):
        g = linalg.rng_from_seed(6)
        m = g.standard_normal((3, 7))
        q = linalg.qr_orthonormalize_rows(m)
        # every original row must lie in the span of the output rows
        proj = m @ q.conj().T @ q
        assert np.max(np.abs(proj - m)) <= 1e-10

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_real_input_matches_complex_reference(self, dtype):
        g = linalg.rng_from_seed(7)
        m = g.standard_normal((6, 12)).astype(dtype)
        q = linalg.qr_orthonormalize_rows(m)
        # a zero imaginary part factors in real arithmetic and stays real
        assert q.dtype == np.float64
        assert np.max(np.abs(q @ q.conj().T - np.eye(6))) <= 1e-12
        # m^H = q^H R, so R = q m^H
        pivots = np.diagonal(q @ m.conj().T)
        assert np.all(pivots.imag == 0.0)
        assert np.all(pivots.real > 0.0)
        qc, rc = np.linalg.qr(m.astype(np.complex128).conj().T)
        phase = np.diagonal(rc) / np.abs(np.diagonal(rc))
        assert np.max(np.abs(q - (qc * phase).conj().T)) <= 1e-13

    def test_rank_deficient_rows_rejected(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormalize_rows(m)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_a_dependent_row_among_others_is_rejected(self, dtype):
        g = linalg.rng_from_seed(8)
        m = g.standard_normal((4, 9)).astype(dtype)
        if dtype == np.complex128:
            m += 1j * g.standard_normal((4, 9))
        m[2] = 0.5 * m[0] - (2.0 - 1.5j if dtype == np.complex128 else 2.0) * m[1]
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormalize_rows(m)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 5), (8, 16), (64, 64),
                                       (17, 40), (96, 256)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_same_bits_as_numpys_positive_diagonal_qr(self, shape, kind, layout):
        g = linalg.rng_from_seed(shape[0] * 1000 + shape[1])
        m = g.standard_normal(shape)
        if kind == "complex":
            m = m + 1j * g.standard_normal(shape)
        given = {
            "C": m,
            "F": np.asfortranarray(m),
            "strided": np.repeat(m, 2, axis=1)[:, ::2],
        }[layout]
        kept = given.copy()
        q = linalg.qr_orthonormalize_rows(given)
        # the reference: m^H = Q R with R's diagonal rotated real positive
        qn, rn = np.linalg.qr(m.conj().T)
        diag = np.diagonal(rn)
        want = (qn * (diag / np.abs(diag))).conj().T
        assert q.dtype == want.dtype
        assert np.array_equal(q, want)
        assert q.flags.c_contiguous
        assert np.array_equal(given, kept)

    def test_transient_memory_is_about_twice_the_frame(self):
        frames.gen_random_orthogonal(256, 1024, 1)
        tracemalloc.start()
        try:
            f = frames.gen_random_orthogonal(256, 1024, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the Gaussian sample and the one working copy factored in place
        assert peak <= 2.1 * f.matrix.nbytes


def test_numpy_ships_the_lapack_routines_the_factorization_calls():
    try:
        from numpy.linalg import lapack_lite
    except ImportError:
        lapack_lite = None
    missing = [name for name in ("dgeqrf", "dorgqr", "zgeqrf", "zungqr")
               if not hasattr(lapack_lite, name)]
    assert not missing, (
        f"linalg.qr_orthonormalize_rows calls numpy.linalg.lapack_lite."
        f"{{dgeqrf, dorgqr, zgeqrf, zungqr}}; this numpy lacks {missing}")


class TestSampling:
    def test_gaussian_deterministic_and_real(self):
        a = linalg.sample_gaussian(4, 9, 42)
        b = linalg.sample_gaussian(4, 9, 42)
        assert np.array_equal(a, b)
        assert a.dtype == np.float64
        assert np.all(a.imag == 0.0)

    def test_bernoulli_entries_are_signs(self):
        m = linalg.sample_bernoulli(5, 20, 3)
        assert set(np.unique(m.real)) == {-1.0, 1.0}
        assert np.all(m.imag == 0.0)

    def test_seed_validation(self):
        with pytest.raises(InvalidParams):
            linalg.rng_from_seed(-1)
        with pytest.raises(InvalidParams):
            linalg.rng_from_seed(2**64)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(
            linalg.sample_gaussian(3, 3, 0), linalg.sample_gaussian(3, 3, 1)
        )


class TestCount:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), True])
    def test_whole_numbers_become_ints(self, value):
        got = linalg.count(value, "count", 1)
        assert got == value and type(got) is int

    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), -float("inf"),
                                       "3", None, 1 + 0j, 0, -1, False,
                                       np.array(3), np.array(3.0)])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(InvalidParams, match="count must be a whole number >= 1"):
            linalg.count(value, "count", 1)

    def test_the_error_class_is_the_callers(self):
        with pytest.raises(RankDeficient):
            linalg.count(0.5, "count", 0, RankDeficient)


class TestVectorPlumbing:
    def test_as_vector_rejects_bad_shapes_and_values(self):
        with pytest.raises(DimensionMismatch):
            linalg.as_vector(np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            linalg.as_vector(np.zeros(0))
        with pytest.raises(InvalidParams):
            linalg.as_vector(np.array([1.0, np.nan]))
        with pytest.raises(InvalidParams):
            linalg.as_vector(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("bad", [["a", "b"], np.array([object(), 1.0]), [1.0, "x"]])
    def test_non_numeric_entries_are_refused(self, bad):
        with pytest.raises(InvalidParams, match="must be numbers"):
            linalg.as_vector(bad)

    def test_numeric_input_is_not_copied(self):
        for x in (np.arange(3.0), np.arange(3.0) + 1j):
            assert linalg.float_or_complex(x) is x

    def test_norm2_matches_numpy(self):
        x = np.array([3.0, 4.0j])
        assert linalg.norm2(x) == pytest.approx(5.0)
        # squaring 1e200 would overflow; the scaled sum does not
        assert linalg.norm2(1e200 * x) == pytest.approx(5e200)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.sampled_from([2, 4, 8, 16]),
)
def test_dft_parseval_property(seed, n):
    g = linalg.rng_from_seed(seed)
    x = g.standard_normal(n) + 1j * g.standard_normal(n)
    assert np.linalg.norm(linalg.dft(x)) == pytest.approx(
        np.linalg.norm(x), rel=1e-12
    )
