import numpy as np
import pytest

from preimage.dataset import PointCloud, sample_sphere
from preimage.evaluation import ConditioningConfig, conditioning_sweep
from preimage.kernels import (
    KernelMatrix,
    KernelSpec,
    condition_number,
    cubic,
    degree_vector,
    eval_kernel,
    gaussian,
    kernel_matrix,
    radial_power,
    sparsify,
    thin_plate,
)


class TestKernelSpec:
    def test_gaussian_requires_positive_epsilon(self):
        for bad in (None, 0.0, -1.0):
            with pytest.raises(ValueError):
                KernelSpec("gaussian", epsilon=bad)

    def test_radial_power_requires_odd_rho(self):
        for bad in (None, 0, 2, -3):
            with pytest.raises(ValueError):
                KernelSpec("radial_power", rho=bad)
        assert radial_power(5).rho == 5

    def test_thin_plate_requires_even_rho(self):
        for bad in (None, 1, 3, 0):
            with pytest.raises(ValueError):
                KernelSpec("thin_plate", rho=bad)
        assert thin_plate().rho == 2

    def test_cubic_is_radial_power_three(self):
        assert cubic() == KernelSpec("radial_power", rho=3)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            KernelSpec("sinc")

    def test_dict_round_trip(self):
        for spec in (gaussian(0.7), cubic(), thin_plate(4)):
            assert KernelSpec.from_dict(spec.to_dict()) == spec


class TestEvalKernel:
    def test_gaussian_at_zero(self):
        for eps in (0.1, 1.0, 50.0):
            assert eval_kernel(gaussian(eps), 0.0) == 1.0

    def test_cubic_value(self):
        assert eval_kernel(cubic(), 2.0) == 8.0

    def test_thin_plate_zero_limit(self):
        assert eval_kernel(thin_plate(), 0.0) == 0.0

    def test_thin_plate_value(self):
        # r^2 log r at r=2: 4 log 2
        assert eval_kernel(thin_plate(), 2.0) == pytest.approx(4.0 * np.log(2.0), rel=1e-15)

    def test_vectorized(self):
        out = eval_kernel(cubic(), np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(out, [0.0, 1.0, 8.0])

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            eval_kernel(cubic(), -0.5)


class TestKernelMatrix:
    def test_single_point(self):
        c = PointCloud([[1.0, 2.0]])
        assert kernel_matrix(gaussian(3.0), c).entries.tolist() == [[1.0]]
        assert kernel_matrix(cubic(), c).entries.tolist() == [[0.0]]

    def test_two_points_cubic(self):
        m = kernel_matrix(cubic(), PointCloud([[0.0], [1.0]]))
        assert m.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_gaussian_random_cloud(self, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)))
        m = kernel_matrix(gaussian(0.8), cloud)
        assert np.array_equal(m.entries, m.entries.T)  # mirrored assembly is exact
        assert np.array_equal(np.diag(m.entries), np.ones(5))


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(KernelMatrix(np.eye(3))) == 1.0

    def test_diagonal_ratio(self):
        assert condition_number(KernelMatrix(np.diag([10.0, 1.0]))) == pytest.approx(10.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            condition_number(KernelMatrix(np.ones((2, 3))))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            condition_number(KernelMatrix(np.array([[2.0, 1.0], [0.0, 1.0]])))

    @pytest.mark.parametrize("mode", ["vs_fill", "vs_epsilon"])
    def test_matches_svd_reference(self, mode):
        # the sweep's node sets rebuilt, against the full SVD condition_number
        # used before; past cond 1e12 both read rounding noise in sigma_min
        config = ConditioningConfig()
        rows = conditioning_sweep(mode, config).rows
        for r in rows:
            cloud = sample_sphere(r.n, config.ambient_dim - 1, config.quadrant_only, config.seed)
            spec = cubic() if r.method == "cubic" else gaussian(config.epsilon if mode == "vs_fill" else r.parameter)
            s = np.linalg.svd(kernel_matrix(spec, cloud).entries, compute_uv=False)
            ref = s[0] / s[-1]
            if ref <= 1e12:
                assert abs(r.cond - ref) <= 64 * np.finfo(float).eps * ref * ref
            else:
                assert r.cond > 1e9
        if mode == "vs_epsilon":  # paper criterion 3
            gauss = [r.cond for r in rows if r.method == "gaussian"]
            cub = [r.cond for r in rows if r.method == "cubic"]
            assert gauss[0] / gauss[-1] >= 1e6 and cub[0] <= max(gauss) / 1e3

    def test_singular_returns_inf(self):
        assert condition_number(KernelMatrix(np.zeros((2, 2)))) == np.inf

    def test_small_scale_gaussian_dwarfs_cubic(self):
        # 200 quadrant-sphere points: the epsilon=1e-2 gaussian matrix is
        # numerically rank deficient while the cubic stays workable
        cloud = sample_sphere(200, 4, quadrant_only=True, seed=0)
        cond_g = condition_number(kernel_matrix(gaussian(1e-2), cloud))
        cond_c = condition_number(kernel_matrix(cubic(), cloud))
        assert cond_g >= 1e3 * cond_c

    def test_cubic_condition_scale_invariant(self, rng):
        pts = rng.normal(size=(40, 3))
        base_m = kernel_matrix(cubic(), PointCloud(pts))
        base = condition_number(base_m)
        for c in (0.01, 7.0, 1e4):
            scaled_m = kernel_matrix(cubic(), PointCloud(c * pts))
            assert np.allclose(scaled_m.entries, c**3 * base_m.entries, rtol=1e-12)
            assert condition_number(scaled_m) == pytest.approx(base, rel=1e-8)

    def test_gaussian_condition_nonincreasing_in_epsilon(self):
        # decade sweep; values beyond ~1e16 sit at float64's resolving limit
        # (the saturation plateau), so saturated pairs count as ties
        cloud = sample_sphere(100, 4, quadrant_only=True, seed=3)
        conds = [condition_number(kernel_matrix(gaussian(e), cloud)) for e in (1e-2, 1e-1, 1.0, 10.0)]
        for a, b in zip(conds, conds[1:]):
            assert b <= a or min(a, b) >= 1e16


class TestDegreeVector:
    def test_all_ones(self):
        d = degree_vector(KernelMatrix(np.ones((2, 2))))
        assert d.tolist() == [2.0, 2.0]

    def test_gaussian_rows_at_least_one(self, rng):
        m = kernel_matrix(gaussian(2.0), PointCloud(rng.normal(size=(8, 2))))
        assert np.all(degree_vector(m) >= 1.0)

    def test_isolated_node(self):
        e = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="isolated node"):
            degree_vector(KernelMatrix(e))

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            degree_vector(KernelMatrix(np.ones((2, 3))))


class TestSparsify:
    def make(self, rng, n=10, eps=1.0):
        return kernel_matrix(gaussian(eps), PointCloud(rng.normal(size=(n, 3))))

    def test_zero_threshold_is_noop(self, rng):
        m = self.make(rng)
        assert np.array_equal(sparsify(m, threshold=0.0).entries, m.entries)

    def test_threshold_above_offdiagonal_keeps_diagonal_only(self, rng):
        m = self.make(rng, eps=3.0)
        tau = m.entries[~np.eye(m.n, dtype=bool)].max() + 1e-9
        out = sparsify(m, threshold=min(tau, 1.0)).entries
        assert np.array_equal(np.diag(out), np.ones(m.n))
        assert np.all(out[~np.eye(m.n, dtype=bool)] == 0.0)

    def test_knn_full_is_noop(self, rng):
        m = self.make(rng, n=7)
        assert np.array_equal(sparsify(m, knn=6).entries, m.entries)

    def test_knn_too_large(self, rng):
        with pytest.raises(ValueError, match="knn"):
            sparsify(self.make(rng, n=5), knn=5)

    def test_exactly_one_mode(self, rng):
        m = self.make(rng, n=5)
        with pytest.raises(ValueError, match="exactly one"):
            sparsify(m)
        with pytest.raises(ValueError, match="exactly one"):
            sparsify(m, threshold=0.1, knn=2)

    def test_idempotent(self, rng):
        for seed in range(6):
            local = np.random.default_rng(seed)
            m = kernel_matrix(gaussian(1.2), PointCloud(local.normal(size=(int(local.integers(6, 20)), 3))))
            once = sparsify(m, threshold=0.4)
            assert np.array_equal(sparsify(once, threshold=0.4).entries, once.entries)
            k = int(local.integers(1, m.n - 1))
            once = sparsify(m, knn=k)
            assert np.array_equal(sparsify(once, knn=k).entries, once.entries)

    def test_knn_output_symmetric(self, rng):
        out = sparsify(self.make(rng, n=12), knn=3).entries
        assert np.array_equal(out, out.T)

    def test_requires_symmetric(self, rng):
        m = KernelMatrix(rng.normal(size=(4, 4)))
        with pytest.raises(ValueError, match="symmetric"):
            sparsify(m, threshold=0.1)


def sparsify_knn_row_loop(e: np.ndarray, k: int) -> np.ndarray:
    """Reference knn sparsification: one lexsort per row, the diagonal restored."""
    n = e.shape[0]
    kept = np.zeros_like(e)
    cols = np.arange(n)
    for i in range(n):
        row = e[i].copy()
        row[i] = -np.inf
        order = np.lexsort((cols, -row))[:k]
        kept[i, order] = e[i, order]
    out = np.maximum(kept, kept.T)
    np.fill_diagonal(out, np.diag(e))
    return out


class TestSparsifyReference:
    def test_knn_matches_row_loop_on_random_matrices(self):
        for seed in range(20):
            local = np.random.default_rng(seed)
            n = int(local.integers(2, 30))
            m = kernel_matrix(gaussian(float(local.uniform(0.3, 3.0))), PointCloud(local.normal(size=(n, 3))))
            for k in {1, int(local.integers(1, n)), n - 1}:
                assert np.array_equal(sparsify(m, knn=k).entries, sparsify_knn_row_loop(m.entries, k))

    def test_knn_matches_row_loop_on_exact_ties(self):
        # entries on a coarse grid: most rows hold many equal off-diagonal values
        for seed in range(20):
            local = np.random.default_rng(100 + seed)
            n = int(local.integers(3, 25))
            a = local.integers(0, 4, size=(n, n)) / 4.0
            e = np.triu(a, 1) + np.triu(a, 1).T + np.eye(n)
            m = KernelMatrix(e)
            for k in range(1, n):
                assert np.array_equal(sparsify(m, knn=k).entries, sparsify_knn_row_loop(e, k))

    def test_tie_keeps_lower_column(self):
        e = np.array([[1.0, 0.5, 0.5, 0.5], [0.5, 1.0, 0.0, 0.0], [0.5, 0.0, 1.0, 0.0], [0.5, 0.0, 0.0, 1.0]])
        out = sparsify(KernelMatrix(e), knn=1).entries
        # row 0 keeps column 1 of three equal entries; rows 1-3 keep column 0
        assert out[0].tolist() == [1.0, 0.5, 0.5, 0.5]
        assert out[1].tolist() == [0.5, 1.0, 0.0, 0.0]
