import json

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from conftest import traced_peak
from preimage import embedding
from preimage.dataset import PointCloud, local_fill_distance, sample_sphere, random_unitary_embed, save_cloud
from preimage.embedding import (
    LANCZOS_RESTARTS,
    _fix_signs,
    embedding_from_kernel,
    laplacian_eigenmaps,
    load_embedding,
    save_embedding,
    unisolvency_rank,
)
from preimage.evaluation import SphereConfig, sphere_pipeline
from preimage.kernels import cubic, gaussian, kernel_matrix, sparsify


def normalized_kernel(cloud, spec):
    k = kernel_matrix(spec, cloud).entries
    deg = k.sum(axis=1)
    half = 1.0 / np.sqrt(deg)
    return k * half[:, None] * half[None, :], deg


class TestLaplacianEigenmaps:
    def test_two_point_closed_form(self):
        # K = [[1, b], [b, 1]] normalizes to [[a, c], [c, a]] whose
        # eigenpairs are (1, (1,1)/sqrt2) and ((1-b)/(1+b), (1,-1)/sqrt2)
        cloud = PointCloud([[0.0], [0.75]])
        spec = gaussian(1.3)
        b = np.exp(-(1.3**2) * 0.75**2)
        emb = laplacian_eigenmaps(cloud, spec, d=1)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(emb.eigvals, [1.0, (1 - b) / (1 + b)], atol=1e-12)
        assert np.allclose(emb.eigvecs[:, 0], [s, s], atol=1e-12)
        assert np.allclose(emb.coords[:, 0], [s, -s], atol=1e-12)

    def test_top_eigenvalue_is_one(self, rng):
        # oracle: power iteration on the normalized kernel, which shares its
        # spectrum with the row-stochastic D^-1 K whose top eigenvalue is 1
        cloud = PointCloud(rng.normal(size=(30, 3)))
        spec = gaussian(0.6)
        emb = laplacian_eigenmaps(cloud, spec, d=4)
        ktilde, _ = normalized_kernel(cloud, spec)
        v = np.ones(30)
        for _ in range(200):
            v = ktilde @ v
            v /= np.linalg.norm(v)
        rayleigh = v @ ktilde @ v
        assert abs(rayleigh - 1.0) < 1e-10
        assert abs(emb.eigvals[0] - 1.0) < 1e-10

    def test_eigenvector_residuals_and_orthonormality(self, rng):
        cloud = PointCloud(rng.normal(size=(40, 4)))
        spec = gaussian(0.5)
        emb = laplacian_eigenmaps(cloud, spec, d=5)
        ktilde, deg = normalized_kernel(cloud, spec)
        for l in range(6):
            res = np.linalg.norm(ktilde @ emb.eigvecs[:, l] - emb.eigvals[l] * emb.eigvecs[:, l])
            assert res <= 1e-8
        gram = emb.eigvecs.T @ emb.eigvecs
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10
        assert np.allclose(emb.degrees, deg, rtol=1e-14)

    def test_trivial_eigenvector_constant_sign(self, rng):
        cloud = PointCloud(rng.normal(size=(25, 2)))
        emb = laplacian_eigenmaps(cloud, gaussian(0.8), d=3)
        signs = np.sign(emb.eigvecs[:, 0])
        assert np.all(signs == signs[0])

    def test_coords_are_nontrivial_columns(self, rng):
        cloud = PointCloud(rng.normal(size=(12, 2)))
        emb = laplacian_eigenmaps(cloud, gaussian(1.0), d=4)
        assert np.array_equal(emb.coords, emb.eigvecs[:, 1:])
        assert emb.d == 4 and emb.n == 12

    def test_eigvals_sorted_nonincreasing(self, rng):
        cloud = PointCloud(rng.normal(size=(20, 3)))
        emb = laplacian_eigenmaps(cloud, gaussian(0.9), d=6)
        assert np.all(np.diff(emb.eigvals) <= 1e-14)

    def test_deterministic(self, rng):
        pts = rng.normal(size=(18, 3))
        a = laplacian_eigenmaps(PointCloud(pts), gaussian(0.7), d=3)
        b = laplacian_eigenmaps(PointCloud(pts.copy()), gaussian(0.7), d=3)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.eigvals, b.eigvals)

    def test_default_scale_matches_local_fill(self, rng):
        cloud = PointCloud(rng.normal(size=(15, 2)))
        emb = laplacian_eigenmaps(cloud, d=2)
        assert emb.spec.epsilon == pytest.approx(1.0 / local_fill_distance(cloud))

    def test_rank_bound(self, rng):
        cloud = PointCloud(rng.normal(size=(6, 2)))
        with pytest.raises(ValueError, match="embedding dimension"):
            laplacian_eigenmaps(cloud, gaussian(1.0), d=6)
        laplacian_eigenmaps(cloud, gaussian(1.0), d=5)

    def test_rejects_non_gaussian(self, rng):
        with pytest.raises(ValueError, match="gaussian"):
            laplacian_eigenmaps(PointCloud(rng.normal(size=(8, 2))), cubic(), d=2)

    def test_embedding_from_sparsified_kernel(self, rng):
        cloud = PointCloud(rng.uniform(size=(30, 2)))
        spec = gaussian(2.0)
        kmat = sparsify(kernel_matrix(spec, cloud), threshold=0.2)
        emb = embedding_from_kernel(kmat, 2, spec=spec, source=cloud)
        assert emb.degrees.tolist() == kmat.entries.sum(axis=1).tolist()

    @pytest.mark.parametrize("threshold", [None, 0.2])
    def test_embedding_from_kernel_leaves_its_matrix_unchanged(self, rng, threshold):
        cloud = PointCloud(rng.uniform(size=(60, 2)))
        spec = gaussian(2.0)
        kmat = kernel_matrix(spec, cloud)
        if threshold is not None:
            kmat = sparsify(kmat, threshold=threshold)
        kept = kmat.entries.copy()
        emb = embedding_from_kernel(kmat, 3, spec=spec, source=cloud)
        assert np.array_equal(kmat.entries, kept)
        if threshold is None:  # laplacian_eigenmaps normalizes its own kernel matrix in place, to the same bits
            own = laplacian_eigenmaps(cloud, spec, d=3)
            for field in ("eigvals", "eigvecs", "degrees", "coords", "solver"):
                assert np.array_equal(getattr(own, field), getattr(emb, field))


class TestEmbeddingMemory:
    def test_embed_holds_one_kernel_matrix(self):
        # 2,000 points take the row path: the kernel matrix, normalized in place, plus the assembly's
        # buffer of kernels._CHUNK distances and the Lanczos vectors
        n = 2000
        cloud = random_unitary_embed(sample_sphere(n, 4, seed=7), 10, seed=8)
        spec = gaussian(0.25 / local_fill_distance(cloud))
        solver = []
        peak = traced_peak(lambda: solver.append(laplacian_eigenmaps(cloud, spec, d=5).solver))
        assert solver == ["lanczos"]  # the full eigh would add its own n x n workspace and eigenvectors
        assert peak < n * n * 8 + 2**20


def eigh_embedding(kmat, d):
    """The full-eigh embedding written out: the eigenpairs every refused Lanczos result falls back to."""
    e = kmat.entries
    half = 1.0 / np.sqrt(e.sum(axis=1))
    w, v = np.linalg.eigh(e * half[:, None] * half[None, :])
    return w[::-1][: d + 1], _fix_signs(v[:, ::-1][:, : d + 1])


def spacing_kernel(points, multiple=1.0):
    cloud = PointCloud(points)
    return kernel_matrix(gaussian(multiple / local_fill_distance(cloud)), cloud)


def thresholded_cloud_kernel(seed):
    # the nystrom-scan recipe: 150 uniform points of [0,1]^2, epsilon 0.5/h, threshold 0.4
    cloud = PointCloud(np.random.default_rng([seed, 1, 0]).uniform(0.0, 1.0, size=(150, 2)))
    return sparsify(kernel_matrix(gaussian(0.5 / local_fill_distance(cloud)), cloud), threshold=0.4)


def regular_polygon(n):
    t = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(t), np.sin(t)])


def square_grid(k):
    return np.stack(np.meshgrid(np.arange(float(k)), np.arange(float(k))), -1).reshape(-1, 2)


class TestEigensolverGuard:
    @pytest.mark.parametrize(
        "build,d",
        [
            # thresholded graphs: eigenvalue 1 once per component
            pytest.param(lambda: thresholded_cloud_kernel(0), 2, id="threshold-seed0"),
            pytest.param(lambda: thresholded_cloud_kernel(1), 2, id="threshold-seed1"),
            pytest.param(lambda: thresholded_cloud_kernel(2), 5, id="threshold-seed2-d5"),
            # exactly symmetric node sets: rotations and reflections pair up eigenvalues
            pytest.param(lambda: spacing_kernel(regular_polygon(300)), 2, id="300-gon"),
            pytest.param(lambda: spacing_kernel(regular_polygon(300)), 5, id="300-gon-d5"),
            pytest.param(lambda: spacing_kernel(square_grid(12)), 2, id="12x12-grid"),
            pytest.param(lambda: spacing_kernel(square_grid(12)), 5, id="12x12-grid-d5"),
            # too small for Lanczos to find d+2 pairs
            pytest.param(lambda: spacing_kernel(np.random.default_rng(3).normal(size=(4, 2))), 3, id="n=d+1"),
            pytest.param(lambda: spacing_kernel(np.random.default_rng(3).normal(size=(5, 2))), 3, id="n=d+2"),
        ],
    )
    def test_refused_inputs_get_full_eigh_bits(self, build, d):
        kmat = build()
        emb = embedding_from_kernel(kmat, d)
        w, v = eigh_embedding(kmat, d)
        assert emb.solver == "eigh"
        assert np.array_equal(emb.eigvals, w)
        assert np.array_equal(emb.eigvecs, v)
        assert np.array_equal(emb.coords, v[:, 1:])

    @pytest.mark.parametrize("n", [10, 30, 100, 300, 1000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lanczos_matches_eigh_on_sphere_pipeline(self, n, seed):
        ambient, emb = sphere_pipeline(n, SphereConfig(), seed)
        w, v = eigh_embedding(kernel_matrix(emb.spec, ambient), emb.d)
        assert emb.solver == "lanczos"
        assert np.abs(emb.eigvals - w).max() <= 1e-12
        assert np.abs(emb.eigvecs - v).max() <= 1e-10

    def test_lanczos_matches_eigh_at_roundtrip_size(self):
        # 2,000 points of S^4 in R^10 at affinity 0.25/h, embedded in d = 5
        cloud = random_unitary_embed(sample_sphere(2000, 4, seed=7), 10, seed=8)
        kmat = spacing_kernel(cloud.points, 0.25)
        emb = embedding_from_kernel(kmat, 5)
        w, v = eigh_embedding(kmat, 5)
        assert emb.solver == "lanczos"
        assert np.abs(emb.eigvals - w).max() <= 1e-12
        assert np.abs(emb.eigvecs - v).max() <= 1e-10


def counting_eigsh(log):
    """embedding.eigsh through a LinearOperator that counts matrix-vector products: the same products,
    so the same eigenpairs. Appends (products, exception class or None) to log per call."""

    def run(a, k, **kwargs):
        products = [0]

        def matvec(x):
            products[0] += 1
            return a @ x

        try:
            result = eigsh(LinearOperator(a.shape, matvec=matvec, dtype=a.dtype), k, **kwargs)
        except Exception as e:
            log.append((products[0], type(e)))
            raise
        log.append((products[0], None))
        return result

    return run


class TestLanczosRestarts:
    def test_clustered_spectrum_hits_the_cap_then_eigh_decides(self, monkeypatch):
        # a uniform square at spacing 1/h, the nystrom-scan default: with ARPACK's own cap of
        # 10n restarts this input ran 21,495 products before the guard refused it
        kmat = spacing_kernel(np.random.default_rng(0).uniform(size=(300, 2)))
        log = []
        monkeypatch.setattr(embedding, "eigsh", counting_eigsh(log))
        emb = embedding_from_kernel(kmat, 2)
        [(products, error)] = log
        assert error is ArpackNoConvergence
        ncv = 20  # ARPACK's default Krylov dimension for 4 pairs: at most that many products per restart
        assert LANCZOS_RESTARTS <= products <= ncv * (LANCZOS_RESTARTS + 1)
        w, v = eigh_embedding(kmat, 2)
        assert emb.solver == "eigh"
        assert np.array_equal(emb.eigvals, w) and np.array_equal(emb.eigvecs, v)

    @pytest.mark.parametrize(
        "build,d",
        [
            # the knn-scan recipe, a uniform square at epsilon 0.5/h: 13 restarts at n = 150, 32 at n = 600
            pytest.param(lambda: spacing_kernel(np.random.default_rng([5, 1, 5]).uniform(size=(150, 2)), 0.5), 2,
                         id="knn-scan-cloud"),
            pytest.param(lambda: spacing_kernel(np.random.default_rng(8).uniform(size=(600, 2)), 0.5), 2,
                         id="knn-scan-600"),
            pytest.param(lambda: spacing_kernel(random_unitary_embed(sample_sphere(1000, 4, seed=3), 10, seed=4).points,
                                                0.25), 5, id="sphere-1000"),
        ],
    )
    def test_accepted_inputs_keep_their_uncapped_eigenpairs(self, monkeypatch, build, d):
        kmat = build()
        log = []
        monkeypatch.setattr(embedding, "eigsh", counting_eigsh(log))
        capped = embedding_from_kernel(kmat, d)
        monkeypatch.setattr(embedding, "LANCZOS_RESTARTS", None)  # ARPACK's own cap
        uncapped = embedding_from_kernel(kmat, d)
        assert capped.solver == uncapped.solver == "lanczos"
        assert log[0] == log[1] and log[0][1] is None
        assert np.array_equal(capped.eigvals, uncapped.eigvals) and np.array_equal(capped.eigvecs, uncapped.eigvecs)


def two_cluster_kernel():
    # two uniform squares 5 apart, thresholded at 0.1: no entry joins them
    rng = np.random.default_rng(4)
    points = np.vstack([rng.uniform(size=(60, 2)), rng.uniform(size=(40, 2)) + [5.0, 0.0]])
    return sparsify(spacing_kernel(points, 0.5), threshold=0.1)


class TestDisconnectedGraph:
    @pytest.mark.parametrize(
        "build,d",
        [
            pytest.param(two_cluster_kernel, 2, id="two-clusters"),
            pytest.param(lambda: thresholded_cloud_kernel(0), 2, id="threshold-seed0"),
            pytest.param(lambda: thresholded_cloud_kernel(2), 5, id="threshold-seed2-d5"),
        ],
    )
    def test_disconnected_graph_never_runs_lanczos(self, monkeypatch, build, d):
        kmat = build()
        assert not embedding._connected(kmat.entries)
        log = []
        monkeypatch.setattr(embedding, "eigsh", counting_eigsh(log))
        emb = embedding_from_kernel(kmat, d)
        assert log == []
        w, v = eigh_embedding(kmat, d)
        assert emb.solver == "eigh"
        assert np.array_equal(emb.eigvals, w) and np.array_equal(emb.eigvecs, v)

    def test_connected_sparse_graph_still_runs_lanczos(self, monkeypatch):
        kmat = sparsify(spacing_kernel(np.random.default_rng(4).uniform(size=(150, 2)), 0.5), threshold=1e-3)
        assert np.count_nonzero(kmat.entries == 0.0) > 0 and embedding._connected(kmat.entries)
        log = []
        monkeypatch.setattr(embedding, "eigsh", counting_eigsh(log))
        emb = embedding_from_kernel(kmat, 2)
        assert len(log) == 1
        assert emb.solver == "lanczos"

    def test_connected_agrees_with_scipy_components(self):
        rng = np.random.default_rng(9)
        for trial in range(60):
            n = int(rng.integers(1, 40))
            a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.2))
            a = np.maximum(a, a.T)
            if trial % 3 == 0:
                a[np.diag_indices(n)] = 1.0  # kernel matrices carry their diagonal
            components = connected_components(a, directed=False)[0]
            assert embedding._connected(a) == (components == 1), (trial, n, components)


class TestRankCheck:
    def test_distinct_line_nodes(self):
        assert unisolvency_rank([[0.0], [1.0], [2.5]]) == 2

    def test_degenerate_identical_coords(self):
        assert unisolvency_rank(np.full((5, 2), 3.0)) == 1

    def test_sphere_pipeline_full_rank(self):
        cloud = random_unitary_embed(sample_sphere(100, 4, seed=0), 10, seed=1)
        emb = laplacian_eigenmaps(cloud, gaussian(0.25 / local_fill_distance(cloud)), d=5)
        assert unisolvency_rank(emb.coords) == 6

    def test_agrees_with_qr_oracle(self, rng):
        # oracle: column-pivoted QR rank of the same certificate matrix
        for trial in range(25):
            local = np.random.default_rng(trial)
            d = int(local.integers(1, 5))
            n = int(local.integers(d + 1, 12))
            kind = trial % 3
            if kind == 0:
                pts = local.normal(size=(n, d))
            elif kind == 1:  # confined to a lower-dimensional affine subspace
                sub = int(local.integers(0, d))
                basis = local.normal(size=(sub, d))
                pts = local.normal(size=(n, sub)) @ basis + local.normal(size=d)
            else:  # duplicated rows
                pts = np.repeat(local.normal(size=(1, d)), n, axis=0)
            p = np.vstack([np.ones(n), pts.T])
            r = scipy.linalg.qr(p, mode="r", pivoting=True)[0]
            diag = np.abs(np.diag(r))
            tol = max(p.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
            assert unisolvency_rank(pts) == int(np.count_nonzero(diag > tol))


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        cloud = PointCloud(rng.normal(size=(14, 3)))
        emb = laplacian_eigenmaps(cloud, gaussian(0.8), d=3)
        save_embedding(emb, tmp_path / "emb")
        back = load_embedding(tmp_path / "emb")
        assert np.array_equal(back.coords, emb.coords)
        assert np.array_equal(back.eigvecs, emb.eigvecs)
        assert np.array_equal(back.eigvals, emb.eigvals)
        assert np.array_equal(back.degrees, emb.degrees)
        assert back.spec == emb.spec
        assert back.solver == emb.solver == "lanczos"

    def test_sidecar_without_solver_reads_as_eigh(self, rng, tmp_path):
        # bundles written before the solver was recorded all came from the full eigh
        emb = laplacian_eigenmaps(PointCloud(rng.normal(size=(14, 3))), gaussian(0.8), d=3)
        save_embedding(emb, tmp_path)
        meta = json.loads((tmp_path / "embedding.json").read_text())
        del meta["solver"]
        (tmp_path / "embedding.json").write_text(json.dumps(meta))
        assert load_embedding(tmp_path).solver == "eigh"

    @pytest.mark.parametrize("block,shape", [("coords", (14, 2)), ("coords", (13, 3)), ("eigvecs", (14, 3))])
    def test_corrupted_block_rejected(self, rng, tmp_path, block, shape):
        # a 14-point embedding with d=3; each block is replaced by one of the wrong shape
        emb = laplacian_eigenmaps(PointCloud(rng.normal(size=(14, 3))), gaussian(0.8), d=3)
        save_embedding(emb, tmp_path)
        save_cloud(PointCloud(rng.normal(size=shape)), tmp_path / f"{block}.pcld")
        with pytest.raises(ValueError, match=f"{block} block"):
            load_embedding(tmp_path)
