import dataclasses
import os
import sys
import threading

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from preimage import dataset, nystrom
from preimage.dataset import PointCloud, local_fill_distance
from preimage.embedding import Embedding, embedding_from_kernel, laplacian_eigenmaps
from preimage.kernels import _truncate_rows, eval_kernel, gaussian, kernel_matrix, sparsify
from preimage.nystrom import (
    ZeroDegreeError,
    discontinuity_scan,
    nystrom_extend,
    nystrom_via_rbf,
    scan_to_csv,
)

from conftest import traced_peak


def scan_step_loop(emb, cloud, spec, segment, steps, threshold=None, knn=None, l=1):
    """Reference scan: each step's kernel vector truncated and extended on its own."""
    a, b = (np.asarray(p, dtype=float) for p in segment)
    ts = np.linspace(0.0, 1.0, steps)
    kall = eval_kernel(spec, cdist(a[None, :] + ts[:, None] * (b - a)[None, :], cloud.points))
    full, sparse, failures = np.full(steps, np.nan), np.full(steps, np.nan), []
    for i in range(steps):
        kept = kall[i].copy()
        if threshold is not None:
            kept[kept < threshold] = 0.0
        else:
            order = np.lexsort((np.arange(kept.size), -kept))[:knn]
            kept = np.zeros_like(kept)
            kept[order] = kall[i][order]
        for kind, kvec, out in (("full", kall[i], full), ("sparse", kept, sparse)):
            dq = kvec.sum()
            if dq <= 0.0:
                failures.append((i, kind, "zero degree at query"))
            else:
                out[i] = (kvec / np.sqrt(dq * emb.degrees)) @ emb.eigvecs[:, l] / emb.eigvals[l]
    return full, sparse, tuple(failures)


def unblocked_extension(emb, kvecs, ls):
    """The extension as it was before row blocks, kept as the reference: one product over every
    query row of kvecs; a row of zero degree gets an infinite degree, so it scales to 0, then NaN."""
    ls = np.atleast_1d(ls)
    dq = kvecs.sum(axis=1)
    zero = dq <= 0.0
    values = (kvecs / np.sqrt(np.where(zero, np.inf, dq)[:, None] * emb.degrees)) @ emb.eigvecs[:, ls] / emb.eigvals[ls]
    values[zero] = np.nan
    return values, dq


def unblocked_extend(emb, cloud, spec, query, l):
    """nystrom_extend before row blocks: values and degrees shaped as it returned them."""
    q = np.asarray(query, dtype=float)
    values, dq = unblocked_extension(emb, eval_kernel(spec, cdist(np.atleast_2d(q), cloud.points)), l)
    values = values.reshape(q.shape[:-1] + np.shape(l))
    return (float(values) if values.ndim == 0 else values), (float(dq[0]) if q.ndim == 1 else dq)


def unblocked_scan(emb, cloud, spec, segment, steps, threshold=None, knn=None, l=1):
    """discontinuity_scan before row blocks: both profiles and the failure tuples."""
    a, b = (np.asarray(p, dtype=float) for p in segment)
    ts = np.linspace(0.0, 1.0, steps)
    kall = eval_kernel(spec, cdist(a[None, :] + ts[:, None] * (b - a)[None, :], cloud.points))
    full, dq_full = unblocked_extension(emb, kall, [l])
    sparse, dq_sparse = unblocked_extension(emb, _truncate_rows(kall, threshold, knn), [l])
    zero = {"full": dq_full <= 0.0, "sparse": dq_sparse <= 0.0}
    failures = [(int(i), kind, "zero degree at query") for i in np.flatnonzero(zero["full"] | zero["sparse"])
                for kind in ("full", "sparse") if zero[kind][i]]
    return full[:, 0], sparse[:, 0], tuple(failures)


def no_kernel(*args, **kwargs):
    """Stands in for kernel code that a refused call must not reach."""
    raise AssertionError("kernel built before the eigenvector index was checked")


def small_setup(rng, n=30, dim=3, d=3, eps=None):
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(n, dim)))
    spec = gaussian(eps if eps is not None else 1.0 / local_fill_distance(cloud))
    emb = laplacian_eigenmaps(cloud, spec, d=d)
    return cloud, spec, emb


class TestExtend:
    def test_reproduces_training_values(self, rng):
        cloud, spec, emb = small_setup(rng)
        for l in range(4):
            for i in (0, 7, 29):
                res = nystrom_extend(emb, cloud, spec, cloud.points[i], l)
                assert abs(res.value - emb.eigvecs[i, l]) < 1e-8
                assert res.degree_at_query == pytest.approx(emb.degrees[i])

    def test_two_point_hand_formula(self):
        # two nodes at distance r: quadrature terms written out by hand
        r, eps = 0.8, 1.1
        cloud = PointCloud([[0.0], [r]])
        spec = gaussian(eps)
        emb = laplacian_eigenmaps(cloud, spec, d=1)
        b = np.exp(-(eps * r) ** 2)
        lam1 = (1.0 - b) / (1.0 + b)
        query = np.array([0.25 * r])
        k1 = np.exp(-(eps * 0.25 * r) ** 2)
        k2 = np.exp(-(eps * 0.75 * r) ** 2)
        dq = k1 + k2
        s = 1.0 / np.sqrt(2.0)
        hand = (k1 * s - k2 * s) / np.sqrt(dq * (1.0 + b)) / lam1
        got = nystrom_extend(emb, cloud, spec, query, 1)
        assert got.value == pytest.approx(hand, rel=1e-12)
        # midway the antisymmetric eigenvector must extend to zero
        mid = nystrom_extend(emb, cloud, spec, np.array([0.5 * r]), 1)
        assert abs(mid.value) < 1e-12

    def test_trivial_eigenvector_extension_keeps_sign(self, rng):
        cloud, spec, emb = small_setup(rng)
        sign = np.sign(emb.eigvecs[0, 0])
        for _ in range(20):
            q = rng.uniform(-0.2, 1.2, size=3)
            assert np.sign(nystrom_extend(emb, cloud, spec, q, 0).value) == sign

    def test_zero_eigenvalue_rejected(self, rng):
        cloud, spec, emb = small_setup(rng, d=2)
        broken = Embedding(
            coords=emb.coords,
            eigvals=np.array([1.0, 0.5, 0.0]),
            eigvecs=emb.eigvecs,
            degrees=emb.degrees,
            spec=spec,
            source=cloud,
        )
        with pytest.raises(ValueError, match="zero"):
            nystrom_extend(broken, cloud, spec, np.zeros(3), 2)

    def test_eigenvector_index_outside_range_rejected(self, rng):
        cloud, spec, emb = small_setup(rng, d=3)
        q = cloud.points[0]
        for l in (-1, 4, [1, 4], [-1, 2], range(-1, 2)):
            with pytest.raises(ValueError, match=r"outside \[0, 3\]"):
                nystrom_extend(emb, cloud, spec, q, l)
            with pytest.raises(ValueError, match=r"outside \[0, 3\]"):
                nystrom_extend(emb, cloud, spec, cloud.points[:5], l)
        with pytest.raises(ValueError, match=r"outside \[0, 3\]"):
            nystrom_via_rbf(emb, cloud, spec, q, -1)
        assert nystrom_extend(emb, cloud, spec, q, 3).value == pytest.approx(emb.eigvecs[0, 3])

    @pytest.mark.parametrize(
        "l", [[], np.array([], dtype=int), 1.0, [1, 2.5], True, np.bool_(False), [True, 2], [2, np.bool_(True)]],
        ids=["empty", "empty-int-array", "float", "float-in-list", "bool", "numpy-bool", "bool-in-list",
             "numpy-bool-in-list"])
    def test_eigenvector_index_type_rejected_before_any_kernel(self, rng, monkeypatch, l):
        cloud, spec, emb = small_setup(rng, d=3)
        monkeypatch.setattr(nystrom, "_profile", no_kernel)
        for query in (cloud.points[0], cloud.points[:5]):
            with pytest.raises(ValueError, match=r"eigenvector index must be one or more integers in \[0, 3\]"):
                nystrom_extend(emb, cloud, spec, query, l)
        with pytest.raises(ValueError, match="eigenvector index"):
            discontinuity_scan(emb, cloud, spec, (cloud.points[0], cloud.points[1]), 5, threshold=0.1, l=l)

    def test_numpy_integers_accepted_by_extension_and_scan(self, rng):
        cloud, spec, emb = small_setup(rng, d=3)
        for query in (cloud.points[0], cloud.points[:5]):
            want = nystrom_extend(emb, cloud, spec, query, [1, 2]).value
            for l in ([np.int64(1), 2], np.array([1, 2], dtype=np.int32), [np.uint8(1), np.int16(2)]):
                assert np.array_equal(nystrom_extend(emb, cloud, spec, query, l).value, want)
            assert np.array_equal(nystrom_extend(emb, cloud, spec, query, np.int64(2)).value,
                                  nystrom_extend(emb, cloud, spec, query, 2).value)
        segment = (cloud.points[0], cloud.points[1])
        want = discontinuity_scan(emb, cloud, spec, segment, 5, threshold=0.1, l=1)
        for l in (np.int64(1), np.int32(1), np.array(1)):
            got = discontinuity_scan(emb, cloud, spec, segment, 5, threshold=0.1, l=l)
            assert np.array_equal(got.values_full, want.values_full, equal_nan=True)
            assert np.array_equal(got.values_sparse, want.values_sparse, equal_nan=True)
        with pytest.raises(ValueError, match="eigenvector index must be a single integer"):
            discontinuity_scan(emb, cloud, spec, segment, 5, threshold=0.1, l=[1])

    @pytest.mark.parametrize("l", [[1], [1, 2], range(1, 3), np.array([2])])
    def test_rbf_form_takes_one_index(self, rng, monkeypatch, l):
        cloud, spec, emb = small_setup(rng, d=3)
        monkeypatch.setattr(nystrom, "_profile", no_kernel)
        monkeypatch.setattr(nystrom, "fit_rbf", no_kernel)
        with pytest.raises(ValueError, match="eigenvector index must be a single integer"):
            nystrom_via_rbf(emb, cloud, spec, cloud.points[0], l)

    def test_rbf_form_takes_one_point(self, rng, monkeypatch):
        # dataset._query with block=False, before any kernel is built; one point keeps its value
        cloud, spec, emb = small_setup(rng, dim=2, d=3)
        q = cloud.points[0] + 0.01
        got, want = nystrom_via_rbf(emb, cloud, spec, q, 1), nystrom_extend(emb, cloud, spec, q, 1)
        assert abs(got.value - want.value) <= 1e-8 * abs(want.value) and got.degree_at_query == want.degree_at_query
        monkeypatch.setattr(nystrom, "_profile", no_kernel)
        monkeypatch.setattr(nystrom, "fit_rbf", no_kernel)
        for block in (cloud.points[:3], cloud.points[:1]):
            with pytest.raises(ValueError, match=rf"^query must be a point in R\^2, got shape \({len(block)}, 2\)$"):
                nystrom_via_rbf(emb, cloud, spec, block, 1)

    def test_rbf_form_index_rule(self, rng, monkeypatch):
        # nystrom_via_rbf takes the one index _scan_checks takes (nystrom._index)
        cloud, spec, emb = small_setup(rng, d=3)
        q = cloud.points[0] + 0.01
        assert nystrom_via_rbf(emb, cloud, spec, q, np.int64(1)).value == nystrom_via_rbf(emb, cloud, spec, q, 1).value
        monkeypatch.setattr(nystrom, "_profile", no_kernel)
        monkeypatch.setattr(nystrom, "fit_rbf", no_kernel)
        for l in ([1], True, 1.0):
            with pytest.raises(ValueError, match="eigenvector index"):
                nystrom_via_rbf(emb, cloud, spec, q, l)

    def test_zero_degree_at_faraway_query(self, rng):
        cloud, spec, emb = small_setup(rng, eps=40.0)
        with pytest.raises(ZeroDegreeError, match="zero degree"):
            nystrom_extend(emb, cloud, spec, np.full(3, 1e6), 1)

    def test_defaults_from_embedding(self, rng):
        cloud, spec, emb = small_setup(rng)
        q = rng.uniform(size=3)
        a = nystrom_extend(emb, None, None, q, 1)
        b = nystrom_extend(emb, cloud, spec, q, 1)
        assert a.value == b.value


class TestBlockExtension:
    def test_block_matches_per_point_calls(self, rng):
        cloud, spec, emb = small_setup(rng, d=3)
        queries = np.vstack([rng.uniform(-0.2, 1.2, size=(25, 3)), cloud.points[:5]])
        ls = list(range(1, emb.d + 1))
        block = nystrom_extend(emb, cloud, spec, queries, ls)
        assert block.value.shape == (30, 3) and block.degree_at_query.shape == (30,)
        one_l = nystrom_extend(emb, cloud, spec, queries, 2).value
        assert one_l.shape == (30,)
        # a matrix product and a per-call product may sum in another order; each
        # is within n eps sum_j |w_j phi_l(x_j)| / lambda_l of the exact sum
        weights = eval_kernel(spec, cdist(queries, cloud.points))
        weights /= np.sqrt(weights.sum(axis=1)[:, None] * emb.degrees)
        tol = 2 * cloud.n * np.finfo(float).eps * (weights @ np.abs(emb.eigvecs[:, ls])) / emb.eigvals[ls]
        for i, q in enumerate(queries):
            per_l = nystrom_extend(emb, cloud, spec, q, ls)
            assert per_l.value.shape == (3,)
            for j, l in enumerate(ls):
                one = nystrom_extend(emb, cloud, spec, q, l)
                assert block.degree_at_query[i] == per_l.degree_at_query == one.degree_at_query
                assert abs(block.value[i, j] - one.value) <= tol[i, j]
                assert abs(per_l.value[j] - one.value) <= tol[i, j]
        assert np.all(np.abs(one_l - block.value[:, 1]) <= tol[:, 1])

    def test_zero_degree_row_raises(self, rng):
        cloud, spec, emb = small_setup(rng, eps=40.0)
        queries = np.vstack([cloud.points[:3], np.full((1, 3), 1e6), cloud.points[3:5]])
        with pytest.raises(ZeroDegreeError, match="row 3"):
            nystrom_extend(emb, cloud, spec, queries, [1, 2])
        nystrom_extend(emb, cloud, spec, np.delete(queries, 3, axis=0), [1, 2])

    def test_query_shape_checked(self, rng):
        cloud, spec, emb = small_setup(rng)
        for bad in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3))):
            with pytest.raises(ValueError, match="query"):
                nystrom_extend(emb, cloud, spec, bad, 1)


class TestRbfForm:
    def test_agrees_with_direct_on_random_draws(self):
        for draw in range(20):
            rng = np.random.default_rng(500 + draw)
            cloud = PointCloud(rng.uniform(size=(40, 3)))
            spec = gaussian(1.0 / local_fill_distance(cloud))
            emb = laplacian_eigenmaps(cloud, spec, d=4)
            l = int(rng.integers(0, 5))
            q = rng.uniform(0.1, 0.9, size=3)
            a = nystrom_extend(emb, cloud, spec, q, l)
            b = nystrom_via_rbf(emb, cloud, spec, q, l)
            assert abs(a.value - b.value) <= 1e-8 * max(abs(a.value), abs(b.value))
            assert a.degree_at_query == pytest.approx(b.degree_at_query)

    def test_reproduces_training_values(self, rng):
        cloud, spec, emb = small_setup(rng)
        for l in (0, 2):
            res = nystrom_via_rbf(emb, cloud, spec, cloud.points[4], l)
            assert abs(res.value - emb.eigvecs[4, l]) < 1e-8


class TestDiscontinuityScan:
    def segment(self):
        return (np.array([0.05, 0.05]), np.array([0.95, 0.95]))

    def test_zero_threshold_matches_full(self, rng):
        cloud, spec, emb = small_setup(rng, n=40, dim=2, d=2)
        profile = discontinuity_scan(emb, cloud, spec, self.segment(), 50, threshold=0.0)
        assert np.array_equal(profile.values_full, profile.values_sparse)
        assert profile.delta_max_full == profile.delta_max_sparse
        assert not profile.failures

    def test_two_steps(self, rng):
        cloud, spec, emb = small_setup(rng, n=40, dim=2, d=2)
        profile = discontinuity_scan(emb, cloud, spec, self.segment(), 2, threshold=0.0)
        assert profile.ts.tolist() == [0.0, 1.0]
        assert profile.delta_max_full == pytest.approx(abs(profile.values_full[1] - profile.values_full[0]))

    def test_steps_validation(self, rng):
        cloud, spec, emb = small_setup(rng, n=20, dim=2, d=2)
        with pytest.raises(ValueError, match="steps"):
            discontinuity_scan(emb, cloud, spec, self.segment(), 1, threshold=0.0)
        with pytest.raises(ValueError, match="exactly one"):
            discontinuity_scan(emb, cloud, spec, self.segment(), 5)

    @pytest.mark.parametrize("steps,sparsifier,match", [
        (10.0, dict(threshold=0.1), "steps must be an integer"),
        (True, dict(knn=5), "steps must be an integer"),
        (5, dict(knn=2.5), "knn must be an integer"),
        (5, dict(knn=True), "knn must be an integer"),
        (5, dict(threshold=np.nan), "threshold must be a finite real number"),
        (5, dict(threshold=np.inf), "threshold must be a finite real number"),
    ])
    def test_counts_and_threshold_refused_before_any_kernel(self, rng, monkeypatch, steps, sparsifier, match):
        cloud, spec, emb = small_setup(rng, n=20, dim=2, d=2)
        monkeypatch.setattr(nystrom, "_profile", no_kernel)
        with pytest.raises(ValueError, match=match):
            discontinuity_scan(emb, cloud, spec, self.segment(), steps, **sparsifier)

    def test_numpy_integer_counts_accepted(self, rng):
        cloud, spec, emb = small_setup(rng, n=20, dim=2, d=2)
        want = discontinuity_scan(emb, cloud, spec, self.segment(), 7, knn=5)
        got = discontinuity_scan(emb, cloud, spec, self.segment(), np.int64(7), knn=np.int32(5))
        assert np.array_equal(got.values_sparse, want.values_sparse, equal_nan=True)

    def test_endpoints_must_be_points_of_the_cloud_space(self, rng):
        cloud, spec, emb = small_setup(rng, n=20, dim=2, d=2)
        a, b = self.segment()
        for segment in ((np.array([0.5]), b), (a, np.array([0.9, 0.9, 0.9])), (0.5, b), (a[None, :], b[None, :])):
            with pytest.raises(ValueError, match=r"points in R\^2"):
                discontinuity_scan(emb, cloud, spec, segment, 5, threshold=0.1)

    def test_eigenvector_index_outside_range_rejected(self, rng):
        cloud, spec, emb = small_setup(rng, n=20, dim=2, d=2)
        for l in (-1, 3):
            for kw in (dict(threshold=0.1), dict(knn=5)):
                with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
                    discontinuity_scan(emb, cloud, spec, self.segment(), 5, l=l, **kw)

    def test_thresholded_profile_jumps(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(rng.uniform(size=(120, 2)))
        spec = gaussian(0.5 / local_fill_distance(cloud))
        kmat = sparsify(kernel_matrix(spec, cloud), threshold=0.4)
        emb = embedding_from_kernel(kmat, 2, spec=spec, source=cloud)
        profile = discontinuity_scan(emb, cloud, spec, self.segment(), 400, threshold=0.4)
        assert profile.delta_max_sparse > 3.0 * profile.delta_max_full
        assert not profile.diagnostic_only

    def test_knn_truncation_flagged_diagnostic(self, rng):
        cloud, spec, emb = small_setup(rng, n=40, dim=2, d=2)
        profile = discontinuity_scan(emb, cloud, spec, self.segment(), 30, knn=5)
        assert profile.diagnostic_only

    def test_zero_degree_recorded_not_fatal(self, rng):
        cloud, spec, emb = small_setup(rng, n=40, dim=2, d=2)
        # a threshold above the kernel maximum empties every query vector
        profile = discontinuity_scan(emb, cloud, spec, self.segment(), 10, threshold=1.5)
        assert len(profile.failures) == 10
        assert np.all(np.isnan(profile.values_sparse))
        assert np.isnan(profile.delta_max_sparse)
        assert np.all(np.isfinite(profile.values_full))

    def test_csv_schema(self, rng, tmp_path):
        cloud, spec, emb = small_setup(rng, n=30, dim=2, d=2)
        profile = discontinuity_scan(emb, cloud, spec, self.segment(), 5, threshold=0.1)
        path = tmp_path / "scan.csv"
        scan_to_csv(profile, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,t,value_full,value_sparse"
        assert len(lines) == 6

    def test_full_profile_refines_with_steps(self, rng):
        cloud, spec, emb = small_setup(rng, n=50, dim=2, d=2)
        coarse = discontinuity_scan(emb, cloud, spec, self.segment(), 200, threshold=0.0)
        fine = discontinuity_scan(emb, cloud, spec, self.segment(), 400, threshold=0.0)
        assert fine.delta_max_full <= coarse.delta_max_full / 1.5

    def test_matches_step_loop_reference(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(size=(80, 2)))
        spec = gaussian(1.0 / local_fill_distance(cloud))
        emb = laplacian_eigenmaps(cloud, spec, d=2)
        # the segment runs far outside the cloud: its ends have zero degree even
        # untruncated, and thresholds empty further steps near the cloud
        segment = (np.array([-2.0, 0.1]), np.array([3.0, 0.9]))
        kinds = set()
        for mode in ({"threshold": 0.05}, {"threshold": 0.3}, {"threshold": 1.5}, {"knn": 1}, {"knn": 7}, {"knn": 80}):
            profile = discontinuity_scan(emb, cloud, spec, segment, 300, **mode)
            full, sparse, failures = scan_step_loop(emb, cloud, spec, segment, 300, **mode)
            assert profile.failures == failures
            kinds.update(kind for _, kind, _ in failures)
            for got, want in ((profile.values_full, full), (profile.values_sparse, sparse)):
                assert np.array_equal(np.isnan(got), np.isnan(want))
                ok = ~np.isnan(want)
                if np.any(ok):
                    assert np.abs(got[ok] - want[ok]).max() <= 1e-14 * np.abs(want[ok]).max()
        assert kinds == {"full", "sparse"}


# distances per block against 30 nodes: 23 queries go in blocks of 4 x 5 + 3, 8 + 8 + 7 and 12 + 11 rows
BLOCKS = [200, 240, 360]


class TestQueryLayerReference:
    """nystrom_extend and discontinuity_scan against their unblocked formula, bit for bit."""

    @pytest.mark.parametrize("block", [None] + BLOCKS)
    def test_block_and_scalar_calls(self, rng, monkeypatch, block):
        cloud, spec, emb = small_setup(rng, d=3)
        queries = np.vstack([rng.uniform(-0.2, 1.2, size=(20, 3)), cloud.points[:3]])
        if block is not None:
            monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", block)
            assert len(dataset._row_blocks(23, cloud.n)) > 1
        for l in (2, [1, 2, 3], range(0, 4), np.int64(3), [3, 0]):
            got = nystrom_extend(emb, cloud, spec, queries, l)
            want_values, want_dq = unblocked_extend(emb, cloud, spec, queries, l)
            assert np.array_equal(got.value, want_values) and np.array_equal(got.degree_at_query, want_dq)
            for q in queries[[0, 9, 22]]:
                got = nystrom_extend(emb, cloud, spec, q, l)
                want_value, want_degree = unblocked_extend(emb, cloud, spec, q, l)
                assert np.array_equal(got.value, want_value) and got.degree_at_query == want_degree
                assert type(got.value) is type(want_value) and type(got.degree_at_query) is float

    @pytest.mark.parametrize("block", [None] + BLOCKS)
    @pytest.mark.parametrize("mode", [{"threshold": 0.05}, {"threshold": 0.3}, {"knn": 1}, {"knn": 7}])
    def test_scan_profiles(self, monkeypatch, block, mode):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(size=(30, 2)))
        spec = gaussian(1.0 / local_fill_distance(cloud))
        emb = laplacian_eigenmaps(cloud, spec, d=2)
        # the segment runs far outside the cloud: steps at its ends have zero degree
        segment = (np.array([-4.0, 0.1]), np.array([5.0, 0.9]))
        if block is not None:
            monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", block)
        profile = discontinuity_scan(emb, cloud, spec, segment, 23, **mode)
        full, sparse, failures = unblocked_scan(emb, cloud, spec, segment, 23, **mode)
        assert np.array_equal(profile.values_full, full, equal_nan=True)
        assert np.array_equal(profile.values_sparse, sparse, equal_nan=True)
        assert profile.failures == failures
        assert {kind for _, kind, _ in failures} == {"full", "sparse"}
        assert np.isnan(profile.values_full[0]) and np.isnan(profile.values_full[-1])

    def test_at_the_real_cap(self, rng):
        # 1,048 rows fit under the cap against 1,000 nodes; 1,088 queries in one block of 1,048 and
        # one of 40 would send the 40 to another dgemm kernel than the unblocked product
        n, d = 1000, 5
        cloud = PointCloud(rng.uniform(size=(n, 3)))
        eigvecs = rng.normal(size=(n, d + 1))
        emb = Embedding(coords=eigvecs[:, 1:], eigvals=np.linspace(1.0, 0.5, d + 1), eigvecs=eigvecs,
                        degrees=rng.uniform(1.0, 2.0, size=n), spec=gaussian(2.0), source=cloud)
        queries = rng.uniform(size=(1088, 3))
        assert [s.stop - s.start for s in dataset._row_blocks(1088, n)] == [544, 544]
        got = nystrom_extend(emb, None, None, queries, range(1, d + 1))
        want_values, want_dq = unblocked_extend(emb, cloud, emb.spec, queries, range(1, d + 1))
        assert np.array_equal(got.value, want_values) and np.array_equal(got.degree_at_query, want_dq)

    def test_zero_degree_names_the_row_in_a_later_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        cloud, spec, emb = small_setup(rng, eps=40.0)
        monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", 240)  # blocks of 8, 8 and 7 rows
        queries = np.vstack([cloud.points[:19], np.full((1, 3), 1e6), cloud.points[19:22]])
        with pytest.raises(ZeroDegreeError, match=r"row 19$"):
            nystrom_extend(emb, cloud, spec, queries, [1, 2])

    def test_index_and_eigenvalue_refused_before_zero_degree(self, rng):
        cloud, spec, emb = small_setup(rng, eps=40.0, d=2)
        far = np.full(3, 1e6)
        for query in (far, np.vstack([cloud.points[:2], far])):
            with pytest.raises(ValueError, match=r"outside \[0, 2\]") as exc:
                nystrom_extend(emb, cloud, spec, query, 3)
            assert not isinstance(exc.value, ZeroDegreeError)
            broken = Embedding(coords=emb.coords, eigvals=np.array([1.0, 0.5, 0.0]), eigvecs=emb.eigvecs,
                               degrees=emb.degrees, spec=spec, source=cloud)
            with pytest.raises(ValueError, match="eigenvalue 2 is zero") as exc:
                nystrom_extend(broken, cloud, spec, query, [1, 2])
            assert not isinstance(exc.value, ZeroDegreeError)
            with pytest.raises(ZeroDegreeError):
                nystrom_extend(emb, cloud, spec, query, 2)

    def test_nan_query_extends_to_nan(self, rng):
        cloud, spec, emb = small_setup(rng)
        nan = np.array([0.5, np.nan, 0.5])
        one = nystrom_extend(emb, cloud, spec, nan, 1)
        assert np.isnan(one.value) and np.isnan(one.degree_at_query)
        block = nystrom_extend(emb, cloud, spec, np.vstack([cloud.points[:2], nan]), [1, 2])
        assert np.all(np.isnan(block.value[2])) and np.isnan(block.degree_at_query[2])
        assert np.all(np.isfinite(block.value[:2]))

    def test_block_memory_grows_with_the_block_not_the_queries(self, monkeypatch):
        block = 1 << 14  # distances: 128 KB
        monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", block)
        rng = np.random.default_rng(5)
        cloud, spec, emb = small_setup(rng, n=400, d=3)
        extra = {}
        for m in (200, 4000):
            q = rng.uniform(0.0, 1.0, size=(m, 3))
            # beyond the result: 3 values and a degree per query
            extra[m] = traced_peak(lambda: nystrom_extend(emb, cloud, spec, q, [1, 2, 3])) - m * 4 * 8
        # unblocked, 3,800 more queries would take 12 MB more of distances alone
        assert extra[4000] - extra[200] < block * 8

    # the query slot: a single query's normalized kernel row is reused across eigenvectors, and
    # every value must still be the unsplit formula's, computed afresh

    def test_reuse_across_interleaved_queries_and_eigenvector_orders(self, rng):
        cloud, spec, emb = small_setup(rng, d=5)
        a, b, c = rng.uniform(-0.2, 1.2, size=(3, 3))
        for order in ([3, 1, 5, 2, 4], [5, 4, 3, 2, 1, 0], [2, 2, 1, 2]):
            for q in (a, a, b, a, c, c, b):
                for l in order:
                    got = nystrom_extend(emb, cloud, spec, q, l)
                    assert (got.value, got.degree_at_query) == unblocked_extend(emb, cloud, spec, q, l)
            # a sequence of indices after scalar calls on the same query
            got = nystrom_extend(emb, cloud, spec, b, order)
            assert np.array_equal(got.value, unblocked_extend(emb, cloud, spec, b, order)[0])

    def test_two_embeddings_share_one_cloud(self, rng):
        cloud, spec, emb3 = small_setup(rng, d=3)
        emb5 = laplacian_eigenmaps(cloud, gaussian(0.7 * spec.epsilon), d=5)
        queries = rng.uniform(-0.2, 1.2, size=(4, 3))
        for q in queries[[0, 0, 1, 2, 1, 3]]:
            for l in (1, 3, 2):
                for emb in (emb3, emb5, emb3):
                    got = nystrom_extend(emb, None, None, q, l)
                    assert (got.value, got.degree_at_query) == unblocked_extend(emb, cloud, emb.spec, q, l)
        assert emb3._query_slot[1] == spec and emb5._query_slot[1] == emb5.spec

    def test_two_specs(self, rng):
        cloud, spec, emb = small_setup(rng, d=3)
        other = gaussian(2.0 * spec.epsilon)
        q = rng.uniform(size=3)
        for l in (1, 2, 3, 1):
            for s in (spec, other, gaussian(spec.epsilon)):  # the last equals spec: it may reuse its row
                got = nystrom_extend(emb, cloud, s, q, l)
                assert (got.value, got.degree_at_query) == unblocked_extend(emb, cloud, s, q, l)

    def test_each_cloud_object_gets_its_own_row(self, rng):
        cloud, spec, emb = small_setup(rng, d=3)
        same = PointCloud(cloud.points.copy())
        moved = PointCloud(cloud.points + 0.05)
        q = rng.uniform(size=3)
        for l in (1, 2, 3):
            for c in (cloud, same, moved, cloud):
                got = nystrom_extend(emb, c, spec, q, l)
                assert (got.value, got.degree_at_query) == unblocked_extend(emb, c, spec, q, l)
                assert emb._query_slot[0] is c

    def test_nan_query_extends_to_nan_on_every_call(self, rng):
        cloud, spec, emb = small_setup(rng, d=3)
        nan = np.array([0.5, np.nan, 0.5])
        for l in (1, 3, 1, [1, 2]):
            got = nystrom_extend(emb, cloud, spec, nan, l)
            assert np.all(np.isnan(got.value)) and np.isnan(got.degree_at_query)
            got = nystrom_extend(emb, cloud, spec, cloud.points[4], l)
            assert np.array_equal(got.value, unblocked_extend(emb, cloud, spec, cloud.points[4], l)[0])

    def test_zero_degree_query_raises_on_every_call(self, rng):
        cloud, spec, emb = small_setup(rng, eps=40.0, d=3)
        far, near = np.full(3, 1e6), cloud.points[2]
        nystrom_extend(emb, cloud, spec, near, 1)
        kept = emb._query_slot
        for l in (1, 2, 1, 3):
            with pytest.raises(ZeroDegreeError, match="zero degree"):
                nystrom_extend(emb, cloud, spec, far, l)
            assert emb._query_slot is kept  # never stored: the slot still holds the last good query
            got = nystrom_extend(emb, cloud, spec, near, l)
            assert (got.value, got.degree_at_query) == unblocked_extend(emb, cloud, spec, near, l)

    def test_replaced_embedding_starts_with_an_empty_slot(self, rng):
        cloud, spec, emb = small_setup(rng, d=3)
        q = rng.uniform(size=3)
        nystrom_extend(emb, cloud, spec, q, 1)
        assert emb._query_slot is not None
        for changes in ({"degrees": 2.0 * emb.degrees}, {"eigvals": 0.5 * emb.eigvals}, {}):
            other = dataclasses.replace(emb, **changes)
            assert other._query_slot is None
            for l in (1, 2):
                got = nystrom_extend(other, cloud, spec, q, l)
                assert (got.value, got.degree_at_query) == unblocked_extend(other, cloud, spec, q, l)
        assert "_query_slot" not in repr(emb)

    def test_threads_sharing_one_embedding(self, rng):
        cloud, spec, emb = small_setup(rng, n=60, d=5)
        queries = rng.uniform(-0.2, 1.2, size=(12, 3))
        want = {(i, l): unblocked_extend(emb, cloud, spec, q, l) for i, q in enumerate(queries) for l in range(6)}
        workers = 2 * (os.cpu_count() or 1) + 2
        wrong, errors = [], []

        def work(seed):
            # each thread takes the queries in its own order and each query's indices in a shuffled
            # order, so the slot keeps being replaced under other threads' hits
            local = np.random.default_rng(seed)
            try:
                for _ in range(150):
                    for i in local.permutation(len(queries)):
                        for l in local.permutation(6).tolist():
                            got = nystrom_extend(emb, cloud, spec, queries[i], l)
                            if (got.value, got.degree_at_query) != want[i, l]:
                                wrong.append((seed, int(i), l))
            except Exception as exc:  # reported below: an exception in a thread would pass silently
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and wrong == []

    def test_slot_holds_one_row(self, rng):
        cloud, spec, emb = small_setup(rng, n=400, d=3)
        row = cloud.n * 8

        def extend_all(queries):
            for q in queries:
                for l in (1, 2, 3):
                    nystrom_extend(emb, cloud, spec, q, l)

        queries = {m: rng.uniform(size=(m, 3)) for m in (10, 1000)}
        peak = {m: traced_peak(lambda: extend_all(queries[m])) for m in queries}
        # 990 more rows kept would take 3 MB more
        assert peak[1000] - peak[10] < 2 * row
        assert emb._query_slot[3].shape == (1, cloud.n)
