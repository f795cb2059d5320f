import csv
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist, pdist, squareform

from preimage import dataset
from preimage.dataset import (
    PointCloud,
    _top_k,
    fill_distance,
    load_cloud,
    local_fill_distance,
    nearest,
    random_unitary_embed,
    sample_sphere,
    save_cloud,
    write_table,
)
from preimage.embedding import laplacian_eigenmaps
from preimage.evaluation import ConditioningConfig, conditioning_sweep, loo_error
from preimage.inverse import NeighborhoodPolicy, eval_rbf, fit_local_rbf, fit_rbf, shepard_eval
from preimage.kernels import cubic, eval_kernel, gaussian
from preimage.nystrom import nystrom_extend

from conftest import _assert_within_cond, random_rotation, traced_peak


class TestPointCloud:
    def test_shape_accessors(self):
        c = PointCloud([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert (c.n, c.dim) == (3, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no points"):
            PointCloud(np.empty((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PointCloud([[1.0, np.nan]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-d"):
            PointCloud(np.zeros(4))


class TestSampleSphere:
    def test_single_point_unit_norm(self):
        c = sample_sphere(1, 4, seed=5)
        assert abs(np.linalg.norm(c.points[0]) - 1.0) < 1e-12

    def test_unit_norms_property(self):
        for seed in range(5):
            for dim in (1, 2, 4, 7):
                c = sample_sphere(40, dim, quadrant_only=seed % 2 == 0, seed=seed)
                assert c.dim == dim + 1
                assert np.max(np.abs(np.linalg.norm(c.points, axis=1) - 1.0)) < 1e-12

    def test_quadrant_nonnegative(self):
        c = sample_sphere(10, 4, quadrant_only=True, seed=1)
        assert c.points.shape == (10, 5)
        assert np.all(c.points >= 0.0)

    def test_uniform_law_monte_carlo(self):
        # coordinates of a uniform point on the circle have mean 0; 5/sqrt(n)
        # is a ~7 sigma envelope for the empirical mean
        c = sample_sphere(1000, 1, seed=11)
        assert np.all(np.abs(c.points.mean(axis=0)) < 5.0 / np.sqrt(1000))

    def test_deterministic_for_seed(self):
        a = sample_sphere(25, 3, seed=42)
        b = sample_sphere(25, 3, seed=42)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, sample_sphere(25, 3, seed=43).points)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            sample_sphere(0, 4)
        with pytest.raises(ValueError):
            sample_sphere(5, 0)


@pytest.mark.parametrize("call,name", [
    (lambda: sample_sphere(2.5, 2), "n"),
    (lambda: sample_sphere(True, 2), "n"),
    (lambda: sample_sphere("3", 2), "n"),
    (lambda: sample_sphere(3, 2.0), "sphere_dim"),
    (lambda: sample_sphere(3, True), "sphere_dim"),
    (lambda: random_unitary_embed(sample_sphere(5, 1), 3.0), "target_dim"),
    (lambda: conditioning_sweep("vs_fill", ConditioningConfig(n_values=(10.5, 20))), "n"),
], ids=["n-float", "n-bool", "n-str", "dim-float", "dim-bool", "target-float", "vs-fill-float"])
def test_sampling_counts_follow_the_integer_rule(call, name):
    # dataset._check_int: an int or numpy integer, never a bool, a float or a string
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


class TestRandomUnitaryEmbed:
    def test_identity_dim_preserves_pairwise_distances(self, rng):
        cloud = PointCloud(rng.normal(size=(12, 6)))
        out = random_unitary_embed(cloud, 6, seed=3)
        da = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2)
        db = np.linalg.norm(out.points[:, None] - out.points[None, :], axis=2)
        assert np.max(np.abs(da - db)) < 1e-12

    def test_sphere_rows_stay_unit(self):
        cloud = sample_sphere(30, 4, seed=0)
        out = random_unitary_embed(cloud, 10, seed=1)
        assert out.dim == 10
        assert np.max(np.abs(np.linalg.norm(out.points, axis=1) - 1.0)) < 1e-12

    def test_gram_matrix_preserved(self, rng):
        cloud = PointCloud(rng.normal(size=(15, 4)))
        out = random_unitary_embed(cloud, 9, seed=2)
        gram_in = cloud.points @ cloud.points.T
        gram_out = out.points @ out.points.T
        assert np.max(np.abs(gram_in - gram_out)) < 1e-10

    def test_distance_preservation_property(self, rng):
        for seed in range(4):
            n, d, t = rng.integers(3, 20), rng.integers(1, 5), 0
            d = int(d)
            t = int(d + rng.integers(0, 6))
            cloud = PointCloud(rng.normal(size=(int(n), d)))
            out = random_unitary_embed(cloud, t, seed=seed)
            da = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2)
            db = np.linalg.norm(out.points[:, None] - out.points[None, :], axis=2)
            assert np.max(np.abs(da - db)) <= 1e-10 * max(1.0, da.max())

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError, match="target_dim"):
            random_unitary_embed(PointCloud(np.eye(3)), 2, seed=0)


def _cdist_blocks(call):
    """call()'s result and the number of cdist calls dataset made in it, one per row block."""
    with mock.patch.object(dataset, "cdist", wraps=cdist) as spy:
        out = call()
    return out, spy.call_count


def _brute_nearest(points, queries, k, exclude_self=False):
    d = cdist(queries, points)
    if exclude_self:
        np.fill_diagonal(d, np.inf)
    idx = np.sort(np.argsort(d, axis=1, kind="stable")[:, :k], axis=1)
    return idx, np.take_along_axis(d, idx, axis=1)


class TestNearest:
    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_matches_brute_force_across_blocks(self, rng, monkeypatch, k):
        # 100 distances per block of 20 points: one 4-row group per block, 23 = 4+4+4+4+4+3
        monkeypatch.setattr(dataset, "_BLOCK_TEMPORARY", 100)
        points = rng.normal(size=(20, 4))
        queries = rng.normal(size=(23, 4))
        (idx, dist), blocks = _cdist_blocks(lambda: nearest(points, queries, k))
        assert blocks == 6
        want_idx, want_dist = _brute_nearest(points, queries, k)
        assert idx.shape == dist.shape == (23, k)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    def test_exclude_self_across_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(dataset, "_BLOCK_TEMPORARY", 70)  # blocks of one 4-row group (the least), the last of 3
        points = rng.normal(size=(23, 3))
        for k in (1, 4, 22):
            (idx, dist), blocks = _cdist_blocks(lambda: nearest(points, points, k, exclude_self=True))
            assert blocks == 6
            want_idx, want_dist = _brute_nearest(points, points, k, exclude_self=True)
            assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)
            assert not np.any(idx == np.arange(23)[:, None])

    def test_ties_go_to_lower_index(self):
        line = np.arange(5.0)[:, None]
        assert nearest(line, np.array([[2.0]]), 2)[0].tolist() == [[1, 2]]  # 1 and 3 tie at distance 1
        assert nearest(line, np.array([[2.0]]), 4)[0].tolist() == [[0, 1, 2, 3]]  # 0 and 4 tie at 2
        assert nearest(np.array([[-1.0], [1.0]]), np.array([[0.0]]), 1)[0].tolist() == [[0]]

    def test_exclude_self_keeps_a_duplicate(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        idx, dist = nearest(points, points, 1, exclude_self=True)
        # the twins 0 and 2 find each other; point 1 is 1 from both and takes 0
        assert idx[:, 0].tolist() == [2, 0, 0, 1]
        assert dist[0, 0] == dist[2, 0] == 0.0
        idx, _ = nearest(points, points, 2, exclude_self=True)
        assert idx[0].tolist() == [1, 2] and idx[2].tolist() == [0, 1]

    def test_k_one_path_equals_stable_argsort(self, rng):
        keys = rng.integers(0, 4, size=(50, 9)).astype(float)  # many exact ties per row
        assert np.array_equal(_top_k(keys, 1), np.argsort(keys, axis=-1, kind="stable")[..., :1])

    @settings(max_examples=150, deadline=None)
    @given(
        keys=st.integers(1, 12).flatmap(
            lambda n: arrays(
                float,
                st.sampled_from([(n,), (1, n), (3, n), (7, n)]),
                elements=st.sampled_from([-np.inf, np.inf]) | st.integers(-3, 3).map(float),
            )
        ),
        block=st.sampled_from([1, 13, 1 << 16]),
    )
    def test_top_k_is_the_stable_sort_set(self, keys, block):
        # tie-heavy integer keys and +-inf, 1-d and 2-d, every k; `block` varies how many keys
        # of tied rows are settled at once
        want = np.argsort(keys, axis=-1, kind="stable")
        with mock.patch.object(dataset, "_BLOCK_TEMPORARY", block):
            for k in range(1, keys.shape[-1] + 1):
                got = _top_k(keys, k)
                assert got.shape == keys.shape[:-1] + (k,)
                assert np.array_equal(got, np.sort(want[..., :k], axis=-1))

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.integers(2, 10).flatmap(
            lambda n: arrays(float, (4, n), elements=st.sampled_from([np.nan, np.inf, 0.0, 1.0]))
        )
    )
    def test_top_k_puts_nan_last(self, keys):
        # for k > 1 as in a stable sort; k = 1 is argmin, which stops at the first NaN
        want = np.argsort(keys, axis=-1, kind="stable")
        for k in range(2, keys.shape[-1] + 1):
            assert np.array_equal(_top_k(keys, k), np.sort(want[:, :k], axis=-1))

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.integers(2, 10).flatmap(lambda n: arrays(float, (n, 2), elements=st.integers(-2, 2).map(float))),
        queries=arrays(float, st.tuples(st.integers(1, 9), st.just(2)), elements=st.integers(-2, 2).map(float)),
        block=st.sampled_from([1, 7, 30, 1 << 20]),
    )
    def test_nearest_is_the_stable_sort_set(self, points, queries, block):
        # integer lattice coordinates make many exact distance ties; `block` varies the query
        # blocking: under the small caps more than one 4-row group of queries spans several blocks
        n = points.shape[0]
        with mock.patch.object(dataset, "_BLOCK_TEMPORARY", block):
            for exclude_self in (False, True):
                q = points if exclude_self else queries
                d = cdist(q, points)
                if exclude_self:
                    np.fill_diagonal(d, np.inf)
                order = np.argsort(d, axis=1, kind="stable")
                want_blocks = len(dataset._row_blocks(len(q), n, block))  # more than one unless q fits one
                for k in range(1, n - exclude_self + 1):
                    (idx, dist), blocks = _cdist_blocks(lambda: nearest(points, q, k, exclude_self=exclude_self))
                    assert blocks == want_blocks
                    assert np.array_equal(idx, np.sort(order[:, :k], axis=1))
                    assert np.array_equal(dist, np.take_along_axis(d, idx, axis=1))

    def test_k_out_of_range(self, rng):
        points = rng.normal(size=(5, 2))
        with pytest.raises(ValueError, match="k must be"):
            nearest(points, points, 5, exclude_self=True)
        with pytest.raises(ValueError, match="k must be"):
            nearest(points, points, 0)


class TestDistances:
    """dataset._distances, the one distance layer: its blocks join to one unblocked cdist, bit for bit."""

    @pytest.mark.parametrize("cap", [1, 70, 500, 2**20])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_blocks_join_to_one_cdist(self, monkeypatch, cap, exclude_self):
        rng = np.random.default_rng(21)
        points = rng.normal(size=(57, 3))
        points[9] = points[30]  # a duplicate keeps its zero distance under exclude_self
        queries = points if exclude_self else rng.normal(size=(23, 3))
        want = cdist(queries, points)
        if exclude_self:
            np.fill_diagonal(want, np.inf)
        monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", cap)  # the default cap is read at each call
        for given in (cap, None):
            blocks, bases = [], []
            for rows, r in dataset._distances(queries, points, given, exclude_self):
                blocks.append((rows, r.copy()))
                bases.append(r.base)
            assert [rows for rows, _ in blocks] == dataset._row_blocks(len(queries), len(points), cap)
            assert (len(blocks) == 1) == (cap == 2**20)
            assert all(base is bases[0] for base in bases)  # one buffer, reused
            assert np.array_equal(np.vstack([r for _, r in blocks]), want)


class TestNearestMemory:
    def test_search_holds_its_table_and_blocks(self):
        # idx and dist (1000 x 200 each) plus one block of at most _BLOCK_TEMPORARY distances and
        # its top-k temporaries; an 8 MB cdist block and its argpartition table would add 16 MB
        points = np.random.default_rng(5).normal(size=(1000, 5))
        peak = traced_peak(lambda: nearest(points, points, 200, exclude_self=True))
        assert peak <= 1000 * 200 * 16 + 2 * 2**20


class TestRowBlocks:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(0, 300), n=st.integers(1, 50), cap=st.integers(1, 3000))
    def test_whole_groups_under_the_cap(self, m, n, cap):
        blocks = dataset._row_blocks(m, n, cap)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(m))
        sizes = [b.stop - b.start for b in blocks]
        assert all(size > 0 and size * n <= max(cap, 4 * n) for size in sizes)
        assert all(size % 4 == 0 for size in sizes[:-1])
        if len(sizes) > 2:
            assert max(sizes[:-1]) - min(sizes[:-1]) <= 4  # as equal as whole groups allow

    def test_default_cap_is_read_at_each_call(self, monkeypatch):
        assert dataset._row_blocks(40, 10) == [slice(0, 40)]
        monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", 100)
        want = [slice(i, i + 8) for i in range(0, 40, 8)]
        assert dataset._row_blocks(40, 10) == dataset._row_blocks(40, 10, 100) == want


class TestLocalFillDistance:
    def test_equals_dense_matrix_value_across_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(dataset, "_BLOCK_TEMPORARY", 500)  # blocks of 4 or 8 of the 57 rows
        pts = rng.normal(size=(57, 5))
        d = squareform(pdist(pts))
        np.fill_diagonal(d, np.inf)
        h, blocks = _cdist_blocks(lambda: local_fill_distance(PointCloud(pts)))
        assert blocks == 8
        assert h == float(d.min(axis=1).mean())

    def test_equispaced_line(self):
        assert local_fill_distance(PointCloud([[0.0], [1.0], [2.0]])) == 1.0

    def test_uneven_line(self):
        # nearest-neighbor distances are 1, 1, 2 -> mean 4/3
        v = local_fill_distance(PointCloud([[0.0], [1.0], [3.0]]))
        assert abs(v - 4.0 / 3.0) < 1e-15

    def test_duplicates_warn_and_return_zero(self):
        with pytest.warns(UserWarning, match="duplicate"):
            assert local_fill_distance(PointCloud([[2.0, 2.0], [2.0, 2.0]])) == 0.0

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            local_fill_distance(PointCloud([[1.0]]))

    def test_permutation_and_rigid_motion_invariant(self, rng):
        pts = rng.normal(size=(14, 3))
        base = local_fill_distance(PointCloud(pts))
        perm = rng.permutation(14)
        assert local_fill_distance(PointCloud(pts[perm])) == pytest.approx(base, rel=1e-12)
        q = random_rotation(3, seed=9)
        moved = pts @ q + np.array([5.0, -2.0, 0.5])
        assert local_fill_distance(PointCloud(moved)) == pytest.approx(base, rel=1e-9)

    def test_scales_linearly(self, rng):
        pts = rng.normal(size=(10, 2))
        base = local_fill_distance(PointCloud(pts))
        for c in (0.25, 3.0, 1e6):
            assert local_fill_distance(PointCloud(c * pts)) == pytest.approx(c * base, rel=1e-12)


class TestFillDistance:
    def test_farthest_sample(self):
        v = fill_distance(PointCloud([[0.0]]), PointCloud([[0.0], [1.0], [2.0]]))
        assert v == 2.0

    def test_nodes_cover_themselves(self, rng):
        nodes = PointCloud(rng.normal(size=(9, 4)))
        assert fill_distance(nodes, nodes) == 0.0

    def test_integer_line(self):
        # brute force: min over nodes {0, 10} peaks at sample 5
        nodes = PointCloud([[0.0], [10.0]])
        domain = PointCloud(np.arange(11.0)[:, None])
        assert fill_distance(nodes, domain) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fill_distance(PointCloud([[0.0]]), PointCloud([[0.0, 1.0]]))

    def test_fill_and_local_fill_of_one_node_set(self):
        nodes = PointCloud([[0.0], [1.0], [2.0]])
        domain = PointCloud([[0.0], [0.5], [2.0], [3.0]])
        assert fill_distance(nodes, domain) == 1.0
        assert local_fill_distance(nodes) == 1.0


class TestCloudIO:
    def test_binary_round_trip_bitwise(self, rng, tmp_path):
        cloud = PointCloud(rng.normal(size=(3, 2)))
        path = tmp_path / "c.pcld"
        save_cloud(cloud, path)
        back = load_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert back.points.dtype == np.float64

    def test_csv_round_trip(self, rng, tmp_path):
        cloud = PointCloud(rng.normal(size=(5, 3)) * 1e-7)
        path = tmp_path / "c.csv"
        save_cloud(cloud, path)
        back = load_cloud(path)
        assert np.allclose(back.points, cloud.points, rtol=1e-15, atol=0.0)

    def test_csv_header_comment_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# header\n1.0,2.0\n3.0,4.0\n")
        assert load_cloud(path).n == 2

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged table"):
            load_cloud(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0,fish\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_cloud(path)

    def test_empty_file(self, tmp_path):
        csv = tmp_path / "c.csv"
        csv.write_text("")
        with pytest.raises(ValueError, match="no points"):
            load_cloud(csv)
        binary = tmp_path / "c.pcld"
        binary.write_bytes(b"")
        with pytest.raises(ValueError):
            load_cloud(binary)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.pcld"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_cloud(path)

    def test_truncated_binary(self, rng, tmp_path):
        path = tmp_path / "c.pcld"
        save_cloud(PointCloud(rng.normal(size=(4, 2))), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_cloud(path)

    @pytest.mark.parametrize("change,kind,found", [
        (-8, "truncated", 24),  # one value short
        (-3, "truncated", 29),  # cut mid-value
        (8, "overlong", 40),  # one value too many
        (3, "overlong", 35),  # a partial value too many
    ])
    def test_payload_must_match_its_header(self, tmp_path, change, kind, found):
        path = tmp_path / "c.pcld"
        save_cloud(PointCloud([[1.0, 2.0], [3.0, 4.0]]), path)
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + b"\x01" * change)
        message = f"{kind} point-cloud file: its 2 x 2 header needs 32 payload bytes, found {found}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_cloud(path)

    def test_exact_payload_reads_every_bit(self, tmp_path):
        path = tmp_path / "c.pcld"
        pts = np.array([[1.0, -0.0], [np.pi, 5e-324], [-1e308, 2.0 / 3.0]])
        save_cloud(PointCloud(pts), path)
        got = load_cloud(path).points
        assert got.tobytes() == pts.tobytes() and got.shape == (3, 2)
        assert got.dtype == float and got.flags.writeable and got.flags.c_contiguous


class TestWriteTable:
    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        x = 0.1 + 0.2  # needs all 17 significant digits
        write_table(path, ["a", "b", "c", "d"], [[None, x, 7, "cubic"], [np.float64(2.5e-7), None, np.int64(-3), ""]])
        assert path.read_bytes() == b"a,b,c,d\r\n,0.30000000000000004,7,cubic\r\n2.4999999999999999e-07,,-3,\r\n"
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert float(rows[1][1]) == x
        assert float(rows[2][0]) == 2.5e-7


QUERY_FUNCTIONS = ["eval_rbf", "nystrom_extend", "fit_local_rbf", "shepard_eval"]


@pytest.fixture(scope="module")
def query_functions():
    """Each function that takes query points, in R^3, as (whether it takes (m, 3) blocks, the call
    on a query, a reference formula on an (m, 3) block, and None where the reference has the call's
    bits, or else the condition estimates of the systems whose rounding separates them)."""
    rng = np.random.default_rng(5)
    nodes, values = PointCloud(rng.uniform(size=(30, 3))), PointCloud(rng.normal(size=(30, 2)))
    spec, policy = gaussian(1.0 / local_fill_distance(nodes)), NeighborhoodPolicy(12)
    model = fit_rbf(nodes, values, cubic())
    emb = laplacian_eigenmaps(nodes, spec, d=2)

    def rbf(qs):
        return eval_kernel(cubic(), cdist(qs, nodes.points)) @ model.weights + model.poly[0] + qs @ model.poly[1:]

    def extension(qs):
        k = eval_kernel(spec, cdist(qs, nodes.points))
        return (k / np.sqrt(k.sum(axis=1)[:, None] * emb.degrees)) @ emb.eigvecs[:, [1, 2]] / emb.eigvals[[1, 2]]

    def local_models(qs):
        idx = nearest(nodes.points, qs, 12)[0]
        return [fit_rbf(PointCloud(nodes.points[i]), PointCloud(values.points[i]), cubic()) for i in idx]

    def local(qs):
        return np.array([eval_rbf(model, q) for model, q in zip(local_models(qs), qs)])

    def moving_average(qs):
        idx, dist = nearest(nodes.points, qs, 12)
        w = np.exp(-(2.0**2) * dist * dist)  # the Shepard weights as written before they were the Gaussian kernel
        return np.array([(w[j] @ values.points[i]) / w[j].sum() for j, i in enumerate(idx)])

    return {
        "eval_rbf": (True, lambda q: eval_rbf(model, q), rbf, None),
        "nystrom_extend": (True, lambda q: nystrom_extend(emb, nodes, spec, q, [1, 2]).value, extension, None),
        # the Lagrange form solves for the query, fit_rbf for the values: they differ by rounding
        "fit_local_rbf": (False, lambda q: fit_local_rbf(nodes, values, cubic(), "linear", policy, q), local,
                          lambda qs: np.array([model.condition for model in local_models(qs)])),
        "shepard_eval": (False, lambda q: shepard_eval(nodes, values, q, 2.0, policy), moving_average, None),
    }


class TestQueryRule:
    """dataset._query is the one query rule: a point in R^dim, or an (m, dim) block where blocks
    are taken, and one message for any other shape."""

    @pytest.mark.parametrize("name", QUERY_FUNCTIONS)
    @pytest.mark.parametrize("bad", [np.float64(0.5), 0.5, np.zeros((2, 1, 3)), np.zeros(2), np.zeros((4, 2)),
                                     np.zeros((1, 4)), [[]]],
                             ids=["0-d", "float", "3-d", "short-point", "narrow-block", "wide-block", "empty"])
    def test_other_shapes_raise_the_one_message(self, query_functions, name, bad):
        blocks, call, _, _ = query_functions[name]
        also = r" or an \(m, 3\) block of points" if blocks else ""
        shape = re.escape(str(np.shape(bad)))
        with pytest.raises(ValueError, match=rf"^query must be a point in R\^3{also}, got shape {shape}$"):
            call(bad)

    @pytest.mark.parametrize("name", QUERY_FUNCTIONS)
    def test_blocks_taken_only_where_documented(self, query_functions, name):
        blocks, call, reference, _ = query_functions[name]
        queries = np.random.default_rng(6).uniform(size=(5, 3))
        if blocks:
            assert np.array_equal(call(queries), reference(queries))
            assert np.array_equal(call(queries[:1]), reference(queries[:1]))
        else:
            for block in (queries, queries[:1]):
                with pytest.raises(ValueError, match=rf"^query must be a point in R\^3, got shape \({len(block)}, 3\)$"):
                    call(block)

    @pytest.mark.parametrize("name", QUERY_FUNCTIONS)
    def test_one_point_in_any_array_form(self, query_functions, name):
        _, call, reference, conds = query_functions[name]
        q = np.array([0.25, 0.5, 0.75])
        for same in (q.tolist(), tuple(q), np.array([[0.25, 0.0], [0.5, 0.0], [0.75, 0.0]])[:, 0]):
            assert np.array_equal(call(same), call(q))  # every form of one point, bit for bit
        assert np.array_equal(call([1, 0, 1]), call(np.array([1.0, 0.0, 1.0])))
        for point in (q, np.array([1.0, 0.0, 1.0])):
            got, want = call(point), reference(point[None, :])[0]
            assert got.shape == (2,)
            if conds is None:
                assert np.array_equal(got, want)
            else:
                _assert_within_cond(got, want, np.full(2, conds(point[None, :])[0]))


def test_every_count_check_raises_the_one_message():
    # dataset._paired: fit_rbf, fit_local_rbf, shepard_eval and loo_error (whose coords are the nodes)
    rng = np.random.default_rng(7)
    nodes, values = PointCloud(rng.normal(size=(6, 2))), PointCloud(rng.normal(size=(5, 1)))
    calls = [lambda: fit_rbf(nodes, values, cubic()),
             lambda: fit_local_rbf(nodes, values, cubic(), "linear", NeighborhoodPolicy(4), np.zeros(2)),
             lambda: shepard_eval(nodes, values, np.zeros(2), 1.0),
             lambda: loo_error(values, nodes, "cubic")]
    for call in calls:
        with pytest.raises(ValueError, match=r"^nodes \(6\) and values \(5\) must have the same point count$"):
            call()
