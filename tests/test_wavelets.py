import numpy as np
import pytest

from driftwave.errors import LengthMismatch, NonPowerOfTwo
from driftwave.wavelets import (
    FAMILY_NAMES,
    CoefficientVector,
    build_matrix,
    cached_matrix,
    finest_level_coeffs,
    forward,
    get_family,
    inverse,
    last_column_support,
)

S8 = 1.0 / np.sqrt(8.0)
S4 = 0.5
S2 = 1.0 / np.sqrt(2.0)

# Orthonormal Haar matrix for n = 8: global average row, then difference
# rows at progressively finer scales, positions left to right.
HAAR_8 = np.array(
    [
        [S8, S8, S8, S8, S8, S8, S8, S8],
        [S8, S8, S8, S8, -S8, -S8, -S8, -S8],
        [S4, S4, -S4, -S4, 0, 0, 0, 0],
        [0, 0, 0, 0, S4, S4, -S4, -S4],
        [S2, -S2, 0, 0, 0, 0, 0, 0],
        [0, 0, S2, -S2, 0, 0, 0, 0],
        [0, 0, 0, 0, S2, -S2, 0, 0],
        [0, 0, 0, 0, 0, 0, S2, -S2],
    ]
)


class TestFilters:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_taps_sum_to_sqrt2(self, name):
        fam = get_family(name)
        assert abs(fam.filter.sum() - np.sqrt(2.0)) < 1e-10

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_orthonormal_to_even_shifts(self, name):
        h = get_family(name).filter
        L = len(h)
        for m in range(L // 2):
            want = 1.0 if m == 0 else 0.0
            got = sum(h[i] * h[i + 2 * m] for i in range(L - 2 * m))
            assert abs(got - want) < 1e-10, (name, m)

    def test_db2_matches_published_values(self):
        h = get_family("db2").filter
        np.testing.assert_allclose(
            h,
            [0.4829629131445341, 0.8365163037378079, 0.2241438680420134, -0.1294095225512604],
            atol=1e-15,
        )

    def test_db1_aliases_haar(self):
        assert get_family("db1").name == "haar"

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_family_built_once_with_read_only_quadrature_mirror(self, name):
        fam = get_family(name)
        assert get_family(name.upper()) is fam
        h, L = fam.filter, len(fam.filter)
        np.testing.assert_array_equal(fam.highpass, [(-1.0) ** l * h[L - 1 - l] for l in range(L)])
        for taps in (fam.filter, fam.highpass):
            with pytest.raises(ValueError):
                taps[0] = 0.0

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            get_family("sym4")


class TestBuildMatrix:
    def test_haar_8_matches_reference_layout(self):
        W = build_matrix(get_family("haar"), 8)
        np.testing.assert_allclose(W.rows, HAAR_8, atol=1e-12)

    def test_haar_8_row_5(self):
        W = build_matrix(get_family("haar"), 8)
        np.testing.assert_allclose(W.rows[4], [S2, -S2, 0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_haar_2(self):
        W = build_matrix(get_family("haar"), 2)
        np.testing.assert_allclose(W.rows, [[S2, S2], [S2, -S2]], atol=1e-12)

    def test_db8_256_orthonormal(self):
        W = build_matrix(get_family("db8"), 256)
        err = np.abs(W.rows @ W.rows.T - np.eye(256)).max()
        assert err <= 1e-9

    def test_index_map_layout(self):
        W = build_matrix(get_family("haar"), 8)
        assert W.index_map[0] == ("approx", -1, 0)
        assert W.index_map[1] == ("detail", 0, 0)
        assert W.index_map[4] == ("detail", 2, 0)
        assert W.index_map[7] == ("detail", 2, 3)

    @pytest.mark.parametrize("n", [0, 1, 3, 12, 100])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(NonPowerOfTwo):
            build_matrix(get_family("haar"), n)

    def test_wrapped_long_filter_still_orthonormal(self):
        W = build_matrix(get_family("db8"), 8)
        err = np.abs(W.rows @ W.rows.T - np.eye(8)).max()
        assert err <= 1e-9

    def test_rows_immutable(self):
        W = cached_matrix("haar", 16)
        with pytest.raises(ValueError):
            W.rows[0, 0] = 1.0


class TestTransforms:
    def test_forward_constant_signal(self):
        W = cached_matrix("haar", 4)
        c = 0.7
        beta = forward(W, np.full(4, c))
        assert abs(beta.values[0] - 2 * c) < 1e-12
        np.testing.assert_allclose(beta.values[1:], 0.0, atol=1e-12)

    def test_forward_hand_computed(self):
        W = cached_matrix("haar", 2)
        beta = forward(W, np.array([1.0, 0.0]))
        np.testing.assert_allclose(beta.values, [S2, S2], atol=1e-12)

    def test_parseval_db8(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=256)
        beta = forward(cached_matrix("db8", 256), y)
        assert abs(np.linalg.norm(y) - np.linalg.norm(beta.values)) <= 1e-9

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        W = cached_matrix("db4", 64)
        y = rng.normal(size=64)
        np.testing.assert_allclose(inverse(W, forward(W, y)), y, atol=1e-9)

    def test_inverse_zeros(self):
        W = cached_matrix("haar", 8)
        np.testing.assert_allclose(inverse(W, np.zeros(8)), 0.0, atol=0)

    def test_inverse_first_basis_vector(self):
        W = cached_matrix("haar", 4)
        e1 = np.zeros(4)
        e1[0] = 1.0
        np.testing.assert_allclose(inverse(W, e1), [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_length_mismatch(self):
        W = cached_matrix("haar", 8)
        with pytest.raises(LengthMismatch):
            forward(W, np.zeros(7))
        with pytest.raises(LengthMismatch):
            inverse(W, np.zeros(9))


class TestLastColumnSupport:
    def test_haar_8(self):
        support = last_column_support(cached_matrix("haar", 8))
        assert [i for i, _ in support] == [0, 1, 3, 7]
        np.testing.assert_allclose(
            sorted(w for _, w in support), sorted([S8, S8, S4, S2]), atol=1e-12
        )

    def test_haar_2(self):
        support = last_column_support(cached_matrix("haar", 2))
        assert len(support) == 2
        np.testing.assert_allclose([w for _, w in support], [S2, S2], atol=1e-12)

    def test_db2_64_matches_direct_column_scan(self):
        W = cached_matrix("db2", 64)
        support = last_column_support(W)
        col = W.rows[:, 63]
        direct = [(i, abs(col[i])) for i in range(64) if abs(col[i]) > 1e-12]
        assert support == direct

    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    def test_haar_support_size_is_log2n_plus_1(self, n):
        assert len(last_column_support(cached_matrix("haar", n))) == int(np.log2(n)) + 1


class TestFinestLevel:
    def test_constant_signal(self):
        beta = forward(cached_matrix("haar", 4), np.full(4, 0.3))
        np.testing.assert_allclose(finest_level_coeffs(beta), [0.0, 0.0], atol=1e-12)

    def test_hand_computed(self):
        beta = forward(cached_matrix("haar", 4), np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(finest_level_coeffs(beta), [S2, 0.0], atol=1e-12)

    def test_noise_std_preserved(self):
        # orthonormal rows keep unit-variance noise at unit variance
        stds = []
        W = cached_matrix("haar", 1024)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            beta = forward(W, rng.normal(0.0, 1.0, 1024))
            stds.append(finest_level_coeffs(beta).std())
        assert 0.9 <= np.median(stds) <= 1.1


class TestInvariants:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @pytest.mark.parametrize("n", [2, 4, 16, 64, 256, 1024])
    def test_orthonormality(self, name, n):
        W = cached_matrix(name, n)
        assert np.abs(W.rows @ W.rows.T - np.eye(n)).max() <= 1e-9

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_perfect_reconstruction_100_signals(self, name):
        W = cached_matrix(name, 64)
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(64, 100))
        back = W.rows.T @ (W.rows @ Y)
        assert np.abs(back - Y).max() <= 1e-9

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_parseval(self, name):
        rng = np.random.default_rng(4)
        y = rng.normal(size=128)
        beta = forward(cached_matrix(name, 128), y)
        assert abs(np.linalg.norm(y) - np.linalg.norm(beta.values)) <= 1e-9 * np.linalg.norm(y)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_detail_rows_annihilate_constants(self, name):
        W = cached_matrix(name, 128)
        beta = W.rows @ np.ones(128)
        assert np.abs(beta[1:]).max() <= 1e-9

    @pytest.mark.parametrize("name,k", [("db2", 2), ("db4", 4), ("db8", 8)])
    def test_polynomial_annihilation_interior_rows(self, name, k):
        n = 128
        fam = get_family(name)
        W = cached_matrix(name, n)
        x = np.arange(1.0, n + 1)
        signal = sum(((-1.0) ** p) * x**p / n**p for p in range(k))
        fin = finest_level_coeffs(forward(W, signal))
        interior = [j for j in range(n // 2) if 2 * j + len(fam.filter) <= n]
        assert np.abs(np.asarray(fin)[interior]).max() <= 1e-6 * np.linalg.norm(signal)

    def test_coefficient_vector_shares_index_map(self):
        W = cached_matrix("haar", 16)
        beta = forward(W, np.zeros(16))
        assert isinstance(beta, CoefficientVector)
        assert beta.index_map is W.index_map
