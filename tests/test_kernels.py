import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from conftest import traced_peak
from preimage import dataset, inverse, kernels
from preimage.dataset import PointCloud, local_fill_distance, random_unitary_embed, sample_sphere
from preimage.evaluation import ConditioningConfig, conditioning_sweep
from preimage.inverse import SingularSystemError, UnisolvencyError
from preimage.kernels import (
    GAUSSIAN,
    KernelSpec,
    _profile,
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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_gaussian_requires_finite_epsilon(self, bad):
        # an infinite scale gives a NaN diagonal (inf * 0), which a fit would report as a singular system
        for make in (lambda: gaussian(bad), lambda: KernelSpec.from_dict({"family": "gaussian", "epsilon": bad})):
            with pytest.raises(ValueError, match="finite epsilon"):
                make()

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

    @pytest.mark.parametrize("family,rho", [("radial_power", 3.5), ("radial_power", 3.0), ("radial_power", True),
                                            ("radial_power", "3"), ("thin_plate", 2.0), ("thin_plate", np.True_)])
    def test_rho_must_be_an_integer(self, family, rho):
        for make in (lambda: KernelSpec(family, rho=rho), lambda: KernelSpec.from_dict({"family": family, "rho": rho})):
            with pytest.raises(ValueError, match="rho must be an integer"):
                make()
        with pytest.raises(ValueError, match="rho must be an integer"):
            (radial_power if family == "radial_power" else thin_plate)(rho)  # never rounded to a valid rho

    @pytest.mark.parametrize("epsilon", ["2", True, np.False_, 1j, [2.0]])
    def test_epsilon_must_be_a_real_number(self, epsilon):
        for make in (lambda: KernelSpec("gaussian", epsilon=epsilon),
                     lambda: KernelSpec.from_dict({"family": "gaussian", "epsilon": epsilon})):
            with pytest.raises(ValueError, match="epsilon must be a real number"):
                make()

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        spec = KernelSpec("radial_power", rho=np.int64(5))
        assert spec == radial_power(5) and type(spec.rho) is int
        assert type(gaussian(np.float64(0.5)).epsilon) is float and gaussian(2).epsilon == 2.0
        spec = KernelSpec.from_dict({"family": "gaussian", "epsilon": 2})
        assert spec.to_dict() == {"family": "gaussian", "epsilon": 2.0} and type(spec.epsilon) is float

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


class TestNodeMatrix:
    def test_single_point(self):
        c = PointCloud([[1.0, 2.0]])
        assert kernel_matrix(gaussian(3.0), c).tolist() == [[1.0]]
        assert kernel_matrix(cubic(), c).tolist() == [[0.0]]

    def test_two_points_cubic(self):
        m = kernel_matrix(cubic(), PointCloud([[0.0], [1.0]]))
        assert m.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_gaussian_random_cloud(self, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)))
        m = kernel_matrix(gaussian(0.8), cloud)
        assert np.array_equal(m, m.T)  # mirrored assembly is exact
        assert np.array_equal(np.diag(m), np.ones(5))


def reference_profile(spec, r):
    """The kernel profile as one allocating expression per family."""
    if spec.family == "gaussian":
        return np.exp(-(spec.epsilon**2) * r * r)
    if spec.family == "radial_power":
        return r**spec.rho
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, safe**spec.rho * np.log(safe), 0.0)


def reference_system(y, spec, tail):
    """The kernel matrix from condensed distances, each pair evaluated once and mirrored, copied into
    the bordered system with tail="linear"; duplicates are named as the first pair in pdist order."""
    n, d = y.shape
    dists = pdist(y)
    if np.any(dists == 0.0):
        i, j = np.argwhere(squareform(dists == 0.0))[0]
        raise SingularSystemError(f"duplicate nodes at indices {i} and {j}")
    k = squareform(reference_profile(spec, dists))
    np.fill_diagonal(k, reference_profile(spec, np.zeros(())))
    if tail == "none":
        return k
    m = np.zeros((n + d + 1, n + d + 1))
    m[:n, :n] = k
    m[:n, n] = m[n, :n] = 1.0
    m[:n, n + 1 :] = y
    m[n + 1 :, :n] = y.T
    return m


SPECS = [gaussian(0.8), radial_power(1), cubic(), radial_power(5), thin_plate(2), thin_plate(4)]
PAIRS = [(KernelSpec(family, epsilon=2.0 if family == GAUSSIAN else None, rho=rho), tail)
         for (family, rho), tails in inverse._TAILS.items() for tail in tails]


class TestProfile:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-{s.rho}")
    def test_in_place_has_the_reference_bits(self, rng, spec):
        r = np.concatenate([[0.0, 1e-300, 1.0], rng.uniform(0.0, 5.0, size=997)]).reshape(50, 20)
        want = reference_profile(spec, r)
        assert np.array_equal(_profile(spec, r), want)
        out = np.full((50, 23), np.nan)[:, :20]  # a strided view, as a matrix's rows with a tail are
        assert _profile(spec, r, out=out) is out and np.array_equal(out, want)
        for x in (0.0, 1.5):
            zero_d = np.array(x)
            assert float(_profile(spec, zero_d)) == float(reference_profile(spec, zero_d))
            out = np.empty(())
            assert float(_profile(spec, zero_d, out=out)) == float(reference_profile(spec, zero_d))
            assert eval_kernel(spec, x) == float(reference_profile(spec, zero_d))


class TestAssemblyReference:
    """kernel_matrix and inverse._system against reference_system, bit for bit. 1 to 40 points are
    filled in one block, 300 points in blocks of 148 and 152 rows and 1,100 points in 20 blocks of
    52 or 56 rows (dataset._row_blocks). With the fill cap (dataset._BLOCK_TEMPORARY) at 64 and
    700 distances, 40 points are filled 4 rows at a time and in blocks of 12, 12 and 16 rows."""

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 300, 1100])
    def test_pairs_of_the_tail_rule(self, n):
        cloud = random_unitary_embed(sample_sphere(n, 4, seed=n), 10, seed=1)
        y = cloud.points[:, :5].copy()
        for spec, tail in PAIRS:
            if tail == "linear" and n <= 5:  # too few nodes for a linear tail in R^5: compare the kernel block
                with pytest.raises(UnisolvencyError):
                    inverse._system(y, spec, tail)
                block = kernels._assemble(spec, y, n + 6, SingularSystemError)[:n, :n]
                assert np.array_equal(block, reference_system(y, spec, "none"))
            else:
                assert np.array_equal(inverse._system(y, spec, tail), reference_system(y, spec, tail))
            if tail == "none":
                assert np.array_equal(kernel_matrix(spec, cloud), reference_system(cloud.points, spec, tail))

    @pytest.mark.parametrize("block", [None, 64, 700])
    def test_exactly_symmetric_so_diagnostics_accept_it(self, rng, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", block)
            monkeypatch.setattr(dataset, "_BLOCK_TEMPORARY", block)
            assert len(dataset._row_blocks(40, 40)) in (3, 10)
        cloud = PointCloud(rng.uniform(size=(40, 3)))
        for spec in SPECS:
            m = kernel_matrix(spec, cloud)
            assert np.array_equal(m, m.T)
            assert np.array_equal(m, reference_system(cloud.points, spec, "none"))
        m = kernel_matrix(gaussian(3.0), cloud)
        assert np.isfinite(condition_number(m))
        assert np.array_equal(sparsify(m, knn=5), sparsify(m.copy(), knn=5))
        sparsify(m, threshold=0.5)

    @pytest.mark.parametrize("pairs,named", [
        ([(3, 30)], (3, 30)),  # one pair across blocks
        ([(25, 31), (2, 38)], (2, 38)),  # a pair within a later block loses to one from the first
        ([(5, 6), (1, 39), (1, 20)], (1, 20)),  # of one node's partners, the lowest
        ([(30, 8)], (8, 30)),  # listed high to low
        ([(33, 17), (36, 39)], (17, 33)),  # both pairs start past the first block
    ])
    @pytest.mark.parametrize("block", [None, 64, 700])
    def test_duplicates_in_different_row_blocks(self, rng, monkeypatch, pairs, named, block):
        y = rng.uniform(size=(40, 3))
        for i, j in pairs:
            y[j] = y[i]
        with pytest.raises(SingularSystemError) as want:
            reference_system(y, cubic(), "linear")
        assert str(want.value) == f"duplicate nodes at indices {named[0]} and {named[1]}"
        if block is not None:
            monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", block)
            monkeypatch.setattr(dataset, "_BLOCK_TEMPORARY", block)
        for spec, tail in PAIRS:
            with pytest.raises(SingularSystemError) as got:
                inverse._system(y, spec, tail)
            assert str(got.value) == str(want.value)


class TestNodeMatrixMemory:
    @pytest.mark.parametrize("n", [1000, 2000])
    def test_holds_one_matrix(self, n):
        # the matrix plus one buffer of dataset._BLOCK_TEMPORARY distances
        cloud = random_unitary_embed(sample_sphere(n, 4, seed=7), 10, seed=8)
        spec = gaussian(0.25 / local_fill_distance(cloud))
        peak = traced_peak(lambda: kernel_matrix(spec, cloud))
        assert peak < n * n * 8 + 2**20


# a non-square matrix, a vector and a 2 x 2 x 2 array, which has equal first two sides and equals
# its own transpose when its entries are all equal
NOT_SQUARE = [(2, 3), (3,), (2, 2, 2)]


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(3)) == 1.0

    def test_diagonal_ratio(self):
        assert condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_non_square_rejected(self):
        for shape in NOT_SQUARE:
            with pytest.raises(ValueError, match="square"):
                condition_number(np.ones(shape))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            condition_number(np.array([[2.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("mode", ["vs_fill", "vs_epsilon"])
    def test_matches_svd_reference(self, mode):
        # the sweep's node sets rebuilt, against the full SVD condition_number
        # used before; past cond 1e12 both read rounding noise in sigma_min
        config = ConditioningConfig()
        rows = conditioning_sweep(mode, config).rows
        for r in rows:
            cloud = sample_sphere(r.n, config.ambient_dim - 1, config.quadrant_only, config.seed)
            spec = cubic() if r.method == "cubic" else gaussian(config.epsilon if mode == "vs_fill" else r.parameter)
            s = np.linalg.svd(kernel_matrix(spec, cloud), compute_uv=False)
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
        assert condition_number(np.zeros((2, 2))) == np.inf

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_named(self, bad):
        e = np.eye(4)
        e[2, 1] = e[1, 2] = bad
        with pytest.raises(ValueError, match=rf"finite entries: entry \(1, 2\) is {bad}"):
            condition_number(e)

    def test_argument_unchanged(self, rng):
        e = kernel_matrix(cubic(), PointCloud(rng.normal(size=(30, 3))))
        # C-contiguous, neither, and F-contiguous like the copy that LAPACK overwrites
        for m in (e, e[::-1, ::-1], np.asfortranarray(e)):
            kept = m.copy()
            condition_number(m)
            assert np.array_equal(m, kept)

    @pytest.mark.parametrize("mode", ["vs_fill", "vs_epsilon"])
    def test_sweep_has_the_bits_of_eigvalsh(self, mode):
        # the sweep's syevd, run in place on each assembled matrix, against numpy's eigvalsh of a copy
        config = ConditioningConfig(seed=3)
        for r in conditioning_sweep(mode, config).rows:
            cloud = sample_sphere(r.n, config.ambient_dim - 1, config.quadrant_only, config.seed)
            spec = cubic() if r.method == "cubic" else gaussian(config.epsilon if mode == "vs_fill" else r.parameter)
            s = np.abs(np.linalg.eigvalsh(kernel_matrix(spec, cloud)))
            assert r.cond == (np.inf if s.min() == 0.0 else float(s.max() / s.min()))

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
            assert np.allclose(scaled_m, c**3 * base_m, rtol=1e-12)
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
        d = degree_vector(np.ones((2, 2)))
        assert d.tolist() == [2.0, 2.0]

    def test_gaussian_rows_at_least_one(self, rng):
        m = kernel_matrix(gaussian(2.0), PointCloud(rng.normal(size=(8, 2))))
        assert np.all(degree_vector(m) >= 1.0)

    def test_isolated_node(self):
        e = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="isolated node"):
            degree_vector(e)

    def test_non_square(self):
        for shape in NOT_SQUARE:
            with pytest.raises(ValueError, match="square"):
                degree_vector(np.ones(shape))


class TestSparsify:
    def make(self, rng, n=10, eps=1.0):
        return kernel_matrix(gaussian(eps), PointCloud(rng.normal(size=(n, 3))))

    def test_zero_threshold_is_noop(self, rng):
        m = self.make(rng)
        assert np.array_equal(sparsify(m, threshold=0.0), m)

    def test_threshold_above_offdiagonal_keeps_diagonal_only(self, rng):
        m = self.make(rng, eps=3.0)
        tau = m[~np.eye(len(m), dtype=bool)].max() + 1e-9
        out = sparsify(m, threshold=min(tau, 1.0))
        assert np.array_equal(np.diag(out), np.ones(len(m)))
        assert np.all(out[~np.eye(len(m), dtype=bool)] == 0.0)

    def test_knn_full_is_noop(self, rng):
        m = self.make(rng, n=7)
        assert np.array_equal(sparsify(m, knn=6), m)

    def test_knn_too_large(self, rng):
        with pytest.raises(ValueError, match="knn"):
            sparsify(self.make(rng, n=5), knn=5)

    @pytest.mark.parametrize("knn", [2.5, 2.0, True, np.bool_(True), "2"])
    def test_knn_must_be_an_integer(self, rng, knn):
        # a fractional or boolean knn was truncated by int(): 2.5 kept 2 entries and True kept 1
        m = self.make(rng, n=6)
        with pytest.raises(ValueError, match="knn must be an integer"):
            sparsify(m, knn=knn)
        assert np.array_equal(sparsify(m, knn=np.int64(2)), sparsify(m, knn=2))

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, True, "0.5"])
    def test_threshold_must_be_a_finite_real_number(self, rng, threshold):
        # a NaN threshold zeroed nothing, so the "sparse" matrix was the full one
        with pytest.raises(ValueError, match="threshold must be a finite real number"):
            sparsify(self.make(rng), threshold=threshold)

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
            assert np.array_equal(sparsify(once, threshold=0.4), once)
            k = int(local.integers(1, len(m) - 1))
            once = sparsify(m, knn=k)
            assert np.array_equal(sparsify(once, knn=k), once)

    def test_knn_output_symmetric(self, rng):
        out = sparsify(self.make(rng, n=12), knn=3)
        assert np.array_equal(out, out.T)

    def test_requires_symmetric(self, rng):
        m = rng.normal(size=(4, 4))
        with pytest.raises(ValueError, match="symmetric"):
            sparsify(m, threshold=0.1)

    @pytest.mark.parametrize("mode", [{"threshold": 0.1}, {"knn": 1}])
    def test_requires_square(self, mode):
        for shape in NOT_SQUARE:
            with pytest.raises(ValueError, match="square"):
                sparsify(np.ones(shape), **mode)


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
                assert np.array_equal(sparsify(m, knn=k), sparsify_knn_row_loop(m, k))

    def test_knn_matches_row_loop_on_exact_ties(self):
        # entries on a coarse grid: most rows hold many equal off-diagonal values
        for seed in range(20):
            local = np.random.default_rng(100 + seed)
            n = int(local.integers(3, 25))
            a = local.integers(0, 4, size=(n, n)) / 4.0
            e = np.triu(a, 1) + np.triu(a, 1).T + np.eye(n)
            m = e
            for k in range(1, n):
                assert np.array_equal(sparsify(m, knn=k), sparsify_knn_row_loop(e, k))

    def test_tie_keeps_lower_column(self):
        e = np.array([[1.0, 0.5, 0.5, 0.5], [0.5, 1.0, 0.0, 0.0], [0.5, 0.0, 1.0, 0.0], [0.5, 0.0, 0.0, 1.0]])
        out = sparsify(e, knn=1)
        # row 0 keeps column 1 of three equal entries; rows 1-3 keep column 0
        assert out[0].tolist() == [1.0, 0.5, 0.5, 0.5]
        assert out[1].tolist() == [0.5, 1.0, 0.0, 0.0]
