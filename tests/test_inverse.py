import dataclasses
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs
from scipy.spatial.distance import cdist, pdist, squareform

from preimage import dataset, inverse, kernels
from preimage.dataset import PointCloud, load_cloud, random_unitary_embed, sample_sphere, save_cloud
from preimage.inverse import (
    NeighborhoodPolicy,
    ScaleUnderflowError,
    SingularSystemError,
    UnisolvencyError,
    _solve_with_cond,
    _system,
    eval_rbf,
    fit_local_rbf,
    fit_rbf,
    load_model,
    save_model,
    shepard_eval,
)
from preimage.kernels import (
    GAUSSIAN,
    RADIAL_POWER,
    THIN_PLATE,
    KernelSpec,
    cubic,
    eval_kernel,
    gaussian,
    radial_power,
    thin_plate,
)

from conftest import _assert_within_cond, random_rotation, traced_peak


def lange_1(m):
    """The 1-norm _solve_with_cond hands to gecon: LAPACK lange on the F-contiguous view m.T."""
    (lange,) = get_lapack_funcs(("lange",), (m,))
    return lange("1", m.T)


def well_separated_nodes(rng, n, d):
    """Random nodes with spacing bounded away from zero (grid + jitter)."""
    grid = rng.choice(np.arange(-(n), n, 2.0), size=(n, d)) if d > 1 else np.arange(n, dtype=float)[:, None] * 2.0
    return PointCloud(grid + rng.uniform(-0.5, 0.5, size=(n, d)))


class TestFitRbf:
    def test_two_node_hand_solve(self):
        # r^1 on nodes 0 and 1: [[0, 1], [1, 0]] alpha = (0, 1)^T  =>  alpha = (1, 0)^T
        model = fit_rbf(PointCloud([[0.0], [1.0]]), PointCloud([[0.0], [1.0]]), radial_power(1), tail="none")
        assert np.allclose(model.weights.ravel(), [1.0, 0.0], atol=1e-14)
        assert model.condition == pytest.approx(1.0)

    def test_single_node_is_singular(self):
        with pytest.raises(SingularSystemError, match="singular system"):
            fit_rbf(PointCloud([[0.0]]), PointCloud([[1.0]]), radial_power(1), tail="none")

    def test_duplicate_nodes_named(self):
        nodes = PointCloud([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        values = PointCloud([[1.0], [2.0], [3.0]])
        with pytest.raises(SingularSystemError, match="indices 0 and 2"):
            fit_rbf(nodes, values, radial_power(1), tail="none")
        # two duplicate pairs: the one first in row-major pair order is named
        nodes = PointCloud([[0.0], [1.0], [2.0], [1.0], [0.0]])
        with pytest.raises(SingularSystemError, match="indices 0 and 4"):
            fit_rbf(nodes, PointCloud(np.ones((5, 1))), radial_power(1), tail="none")

    def test_affine_reproduction_coefficients(self, rng):
        nodes = PointCloud(rng.normal(size=(20, 3)))
        b = rng.normal(size=(3, 4))
        c = rng.normal(size=4)
        model = fit_rbf(nodes, PointCloud(nodes.points @ b + c), cubic(), tail="linear")
        assert np.abs(model.weights).max() < 1e-8
        assert np.allclose(model.poly[1:], b, atol=1e-8)
        assert np.allclose(model.poly[0], c, atol=1e-8)
        queries = rng.normal(size=(7, 3))
        assert np.abs(eval_rbf(model, queries) - (queries @ b + c)).max() < 1e-8

    def test_moment_conditions(self, rng):
        nodes = PointCloud(rng.normal(size=(15, 2)))
        values = PointCloud(rng.normal(size=(15, 5)))
        model = fit_rbf(nodes, values, cubic(), tail="linear")
        assert np.abs(model.weights.sum(axis=0)).max() < 1e-8
        assert np.abs(nodes.points.T @ model.weights).max() < 1e-8

    def test_exactness_at_nodes(self, rng):
        nodes = well_separated_nodes(rng, 12, 2)
        values = PointCloud(rng.normal(size=(12, 3)))
        for spec, tail in ((radial_power(1), "none"), (cubic(), "linear")):
            model = fit_rbf(nodes, values, spec, tail=tail)
            rel = np.abs(eval_rbf(model, nodes.points) - values.points).max() / np.abs(values.points).max()
            assert rel < 1e-6

    def test_matches_closed_form(self, rng):
        # eq-(10) route: k(y, .)^T K^-1 X computed with an independent solve
        nodes = PointCloud(rng.normal(size=(10, 2)))
        values = PointCloud(rng.normal(size=(10, 4)))
        spec = gaussian(0.9)
        model = fit_rbf(nodes, values, spec, tail="none")
        queries = rng.normal(size=(6, 2))
        k = eval_kernel(spec, np.linalg.norm(nodes.points[:, None] - nodes.points[None, :], axis=2))
        kq = eval_kernel(spec, np.linalg.norm(queries[:, None] - nodes.points[None, :], axis=2))
        closed = kq @ np.linalg.solve(k, values.points)
        assert np.abs(eval_rbf(model, queries) - closed).max() < 1e-10

    def test_unisolvency_failure(self, rng):
        # collinear nodes in the plane cannot pin down a full linear polynomial
        t = np.linspace(0.0, 1.0, 8)
        nodes = PointCloud(np.column_stack([t, 2.0 * t + 1.0]))
        with pytest.raises(UnisolvencyError, match="unisolvency"):
            fit_rbf(nodes, PointCloud(rng.normal(size=(8, 1))), cubic(), tail="linear")

    def test_count_mismatch(self, rng):
        with pytest.raises(ValueError, match="point count"):
            fit_rbf(PointCloud(rng.normal(size=(4, 2))), PointCloud(rng.normal(size=(5, 2))), cubic())

    def test_condition_recorded(self, rng):
        nodes = PointCloud(rng.normal(size=(9, 2)))
        model = fit_rbf(nodes, PointCloud(rng.normal(size=(9, 1))), cubic(), tail="linear")
        assert np.isfinite(model.condition) and model.condition >= 1.0


    def test_weights_match_dense_assembly(self, rng):
        # reference: the kernel evaluated on the full square distance matrix
        nodes = PointCloud(rng.normal(size=(40, 3)))
        values = PointCloud(rng.normal(size=(40, 2)))
        y, x = nodes.points, values.points
        for spec, tail in ((cubic(), "linear"), (gaussian(0.9), "none"), (thin_plate(), "linear")):
            k = eval_kernel(spec, squareform(pdist(y)))
            if tail == "linear":
                p = np.hstack([np.ones((40, 1)), y])
                k = np.block([[k, p], [p.T, np.zeros((4, 4))]])
                rhs = np.vstack([x, np.zeros((4, 2))])
            else:
                rhs = x
            sol = scipy.linalg.lu_solve(scipy.linalg.lu_factor(k, check_finite=False), rhs, check_finite=False)
            model = fit_rbf(nodes, values, spec, tail)
            assert np.array_equal(model.weights, sol[:40])
            if tail == "linear":
                assert np.array_equal(model.poly, sol[40:])
            else:
                assert model.poly is None


# The (family, rho) -> tails that are solvable on every 1-unisolvent set of distinct nodes (Wendland
# 2005, ch. 8; Micchelli 1986): written out here independently of inverse._TAILS.
SOLVABLE = {(GAUSSIAN, None): {"none", "linear"}, (RADIAL_POWER, 1): {"none", "linear"},
            (RADIAL_POWER, 3): {"linear"}, (THIN_PLATE, 2): {"linear"}}
TAIL_NODES = PointCloud(np.random.default_rng(5).uniform(-1.0, 1.0, size=(8, 2)))
TAIL_VALUES = PointCloud(np.random.default_rng(6).normal(size=(8, 3)))


class TestTailRule:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from([GAUSSIAN, RADIAL_POWER, THIN_PLATE]),
        rho=st.integers(1, 9),
        epsilon=st.floats(1.0, 10.0),
        tail=st.sampled_from(["none", "linear", "quadratic", "cubic", ""]) | st.text(max_size=6),
    )
    def test_fit_and_load_accept_exactly_the_solvable_pairs(self, family, rho, epsilon, tail):
        rho, epsilon = (None, epsilon) if family == GAUSSIAN else (rho, None)
        solvable = tail in SOLVABLE.get((family, rho), ())
        with mock.patch.object(inverse, "_system", wraps=inverse._system) as system, mock.patch.object(
            inverse, "_solve_with_cond", wraps=inverse._solve_with_cond
        ) as solve:
            if solvable:
                model = fit_rbf(TAIL_NODES, TAIL_VALUES, KernelSpec(family, epsilon=epsilon, rho=rho), tail)
                assert np.abs(eval_rbf(model, TAIL_NODES.points) - TAIL_VALUES.points).max() < 1e-6
                assert solve.call_count == 1
            else:
                # a (family, rho) KernelSpec itself refuses, such as an even radial power, counts too
                with pytest.raises(ValueError):
                    fit_rbf(TAIL_NODES, TAIL_VALUES, KernelSpec(family, epsilon=epsilon, rho=rho), tail)
                assert system.call_count == solve.call_count == 0
        with tempfile.TemporaryDirectory() as tmp:
            save_model(fit_rbf(TAIL_NODES, TAIL_VALUES, cubic(), "linear"), tmp)
            meta = json.loads((Path(tmp) / "model.json").read_text())
            meta["spec"] = {"family": family, "epsilon": epsilon, "rho": rho}
            meta["tail"] = tail
            (Path(tmp) / "model.json").write_text(json.dumps(meta))
            if solvable:
                assert load_model(tmp).tail == tail
            else:
                with pytest.raises(ValueError):
                    load_model(tmp)

    @pytest.mark.parametrize(
        "spec,tail,reason",
        [(cubic(), "none", "needs 'linear'"), (thin_plate(), "none", "needs 'linear'"),
         (radial_power(5), "linear", "degree >= 2"), (thin_plate(4), "linear", "degree >= 2"),
         (gaussian(1.0), "quadratic", "needs 'none' or 'linear'")],
    )
    def test_refusal_names_tail_and_reason(self, spec, tail, reason):
        with pytest.raises(ValueError, match=f"tail '{tail}'.*{reason}"):
            fit_rbf(TAIL_NODES, TAIL_VALUES, spec, tail)

    def test_edited_sidecar_tail_refused(self, tmp_path):
        save_model(fit_rbf(TAIL_NODES, TAIL_VALUES, cubic(), "linear"), tmp_path)
        meta = json.loads((tmp_path / "model.json").read_text())
        meta["tail"] = "quadratic"
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="tail 'quadratic'"):
            load_model(tmp_path)


class TestSolveWithCond:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["symmetric", "bordered-cubic"])
    def test_same_bits_as_scipy_lu(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "symmetric":
            a = rng.normal(size=(40, 40))
            m = a + a.T
        else:
            m = _system(rng.uniform(-1.0, 1.0, size=(60, 3)), cubic(), "linear")
        rhs = rng.normal(size=(m.shape[0], 3))
        lu, piv = scipy.linalg.lu_factor(m)
        (gecon,) = get_lapack_funcs(("gecon",), (lu,))
        rcond, _ = gecon(lu, np.linalg.norm(m, 1))
        want = scipy.linalg.lu_solve((lu, piv), rhs)
        sol, cond = _solve_with_cond(m.copy(), rhs)
        assert np.array_equal(sol, want)
        assert cond == 1.0 / rcond

    @pytest.mark.parametrize("block", [None, 64, 1000])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 7), (50, 50), (206, 206)])
    def test_norm_1_same_bits_as_numpy(self, rng, monkeypatch, block, shape):
        # _solve_with_cond's lange("1", m.T) on exactly symmetric matrices: a random one with entries
        # over six decades, and kernel matrices assembled from one buffer of distances or, with the
        # fill cap (dataset._BLOCK_TEMPORARY) at 64 or 1,000 distances, from several
        if block is not None:
            monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", block)
            monkeypatch.setattr(dataset, "_BLOCK_TEMPORARY", block)
        a = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=shape)
        n = shape[0]
        y = rng.normal(size=(n, 3)) * rng.uniform(1e-2, 1e2, size=(n, 1))
        for m in (a + a.T, kernels._assemble(cubic(), y), kernels._assemble(gaussian(0.3), y)):
            assert lange_1(m) == np.linalg.norm(m, 1)

    def test_norm_1_same_bits_at_the_real_cap(self, rng):
        m = _system(rng.uniform(-1.0, 1.0, size=(2000, 5)), cubic(), "linear")
        assert m.shape == (2006, 2006)
        assert lange_1(m) == np.linalg.norm(m, 1)

    def test_exactly_singular_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # scipy's lu_factor would warn LinAlgWarning here
            with pytest.raises(SingularSystemError, match="singular"):
                _solve_with_cond(np.ones((3, 3)), np.ones((3, 1)))

    @pytest.mark.parametrize("spec,tail", [(cubic(), "linear"), (gaussian(1.0), "none")])
    def test_fit_rbf_leaves_inputs_untouched(self, rng, spec, tail):
        nodes, values = rng.normal(size=(30, 3)), rng.normal(size=(30, 2))
        kept = nodes.copy(), values.copy()
        fit_rbf(PointCloud(nodes), PointCloud(values), spec, tail)
        assert np.array_equal(nodes, kept[0]) and np.array_equal(values, kept[1])


class TestEvalRbf:
    def test_query_shapes(self, rng):
        nodes = PointCloud(rng.normal(size=(8, 3)))
        model = fit_rbf(nodes, PointCloud(rng.normal(size=(8, 2))), cubic(), tail="linear")
        single = eval_rbf(model, np.zeros(3))
        batch = eval_rbf(model, np.zeros((4, 3)))
        assert single.shape == (2,)
        assert batch.shape == (4, 2)
        assert np.allclose(batch[0], single, rtol=1e-14)

    def test_dimension_mismatch(self, rng):
        nodes = PointCloud(rng.normal(size=(8, 3)))
        model = fit_rbf(nodes, PointCloud(rng.normal(size=(8, 2))), cubic(), tail="linear")
        with pytest.raises(ValueError, match=r"query must be a point in R\^3 or an \(m, 3\) block"):
            eval_rbf(model, np.zeros(2))

    def test_rigid_motion_invariance(self, rng):
        nodes = PointCloud(rng.normal(size=(14, 3)))
        values = PointCloud(rng.normal(size=(14, 2)))
        queries = rng.normal(size=(5, 3))
        q = random_rotation(3, seed=4)
        shift = np.array([2.0, -1.0, 0.25])
        for spec, tail in ((radial_power(1), "none"), (cubic(), "linear")):
            base = eval_rbf(fit_rbf(nodes, values, spec, tail=tail), queries)
            moved = eval_rbf(
                fit_rbf(PointCloud(nodes.points @ q + shift), values, spec, tail=tail), queries @ q + shift
            )
            assert np.abs(base - moved).max() < 1e-8

    def test_cubic_scale_equivariance(self, rng):
        nodes = PointCloud(rng.normal(size=(12, 2)))
        values = PointCloud(rng.normal(size=(12, 3)))
        queries = rng.normal(size=(5, 2))
        base_model = fit_rbf(nodes, values, cubic(), tail="linear")
        base = eval_rbf(base_model, queries)
        for c in (0.2, 5.0):
            scaled_model = fit_rbf(PointCloud(c * nodes.points), values, cubic(), tail="linear")
            assert np.abs(eval_rbf(scaled_model, c * queries) - base).max() < 1e-8
            assert np.allclose(scaled_model.weights, base_model.weights / c**3, atol=1e-8)
            assert np.allclose(scaled_model.poly[1:], base_model.poly[1:] / c, atol=1e-8)


def unblocked_eval(model, q):
    """eval_rbf as it was before row blocks, kept as the reference: one product over the whole
    query x node block, through eval_kernel."""
    out = eval_kernel(model.spec, cdist(q, model.nodes)) @ model.weights
    if model.poly is not None:
        out = out + model.poly[0] + q @ model.poly[1:]
    return out


class TestEvalRbfRowBlocks:
    @pytest.mark.parametrize("spec,tail", [(cubic(), "linear"), (gaussian(0.3), "none"), (thin_plate(), "linear")])
    @pytest.mark.parametrize("dim_out", [1, 3])
    def test_same_bits_as_one_unblocked_product(self, rng, monkeypatch, spec, tail, dim_out):
        nodes = well_separated_nodes(rng, 30, 3)
        model = fit_rbf(nodes, PointCloud(rng.normal(size=(30, dim_out))), spec, tail)
        q = rng.uniform(-30.0, 30.0, size=(23, 3))
        want = unblocked_eval(model, q)
        # distances per block against 30 nodes: the 23 queries go in blocks of 4 x 5 + 3, 8 + 8 + 7 and 12 + 11 rows
        for block in (200, 240, 360):
            monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", block)
            assert np.array_equal(eval_rbf(model, q), want)
        for i in (0, 22):
            assert np.array_equal(eval_rbf(model, q[i]), unblocked_eval(model, q[i : i + 1])[0])

    def test_same_bits_at_the_real_cap(self, rng):
        # 1,048 rows fit under the cap against 1,000 nodes; 1,088 queries in one block of 1,048 and
        # one of 40 would send the 40 to another dgemm kernel than the unblocked product
        n = 1000
        model = inverse.RbfModel(nodes=rng.uniform(size=(n, 5)), weights=rng.normal(size=(n, 10)),
                                 poly=rng.normal(size=(6, 10)),
                                 spec=cubic(), tail="linear", condition=1.0)
        q = rng.uniform(size=(1088, 5))
        assert [s.stop - s.start for s in dataset._row_blocks(1088, n)] == [544, 544]
        assert np.array_equal(eval_rbf(model, q), unblocked_eval(model, q))

    def test_memory_grows_with_the_block_not_the_queries(self, rng, monkeypatch):
        block = 1 << 14  # distances: 128 KB
        monkeypatch.setattr(dataset, "_BLOCK_DISTANCES", block)
        model = fit_rbf(well_separated_nodes(rng, 400, 3), PointCloud(rng.normal(size=(400, 2))), cubic())
        extra = {}
        for m in (200, 4000):
            q = rng.uniform(-400.0, 400.0, size=(m, 3))
            extra[m] = traced_peak(lambda: eval_rbf(model, q)) - m * model.dim_out * 8  # beyond the result
        # unblocked, 3,800 more queries would take 12 MB more of distances alone
        assert extra[4000] - extra[200] < block * 8


class TestSystemMemory:
    @pytest.mark.parametrize("n", [1000, 2000])
    def test_fit_holds_one_system_matrix(self, n):
        # the (n + 6)^2 system, factored in place, plus the assembly's buffer of
        # dataset._BLOCK_TEMPORARY distances; the 1-norm takes no temporary
        y = random_unitary_embed(sample_sphere(n, 4, seed=3), 5, seed=4)
        x = PointCloud(np.random.default_rng(5).normal(size=(n, 10)))
        peak = traced_peak(lambda: fit_rbf(y, x, cubic(), "linear"))
        assert peak < (n + 6) ** 2 * 8 + 2**20


class TestFitLocalRbf:
    def test_no_truncation_matches_global(self, rng):
        nodes = PointCloud(rng.normal(size=(20, 2)))
        values = PointCloud(rng.normal(size=(20, 3)))
        query = rng.normal(size=2)
        policy = NeighborhoodPolicy(max_neighbors=50)
        local = fit_local_rbf(nodes, values, cubic(), "linear", policy, query)
        together = eval_rbf(fit_rbf(nodes, values, cubic(), "linear"), query)
        assert np.abs(local - together).max() < 1e-10

    def test_neighbor_subset_is_nearest(self, rng):
        # the prediction is fit_rbf then eval_rbf on the k nearest nodes, up to rounding (the Lagrange
        # form solves for the query, not the values): far nodes play no part, and equidistant nodes
        # go to the lower index
        random_nodes = rng.normal(size=(30, 2))
        lattice = np.array([[x, y] for x in range(6) for y in range(6)], dtype=float)
        cases = [
            (random_nodes, rng.normal(size=2), cubic(), "linear", 20),
            (random_nodes, rng.normal(size=2), gaussian(1.0), "none", 20),
            (lattice, np.array([2.5, 2.5]), cubic(), "linear", 10),  # cuts through 8 nodes at one distance
            (random_nodes, rng.normal(size=2), cubic(), "linear", 30),  # k = n
            (random_nodes, rng.normal(size=2), gaussian(1.0), "none", 50),  # k > n: every node
        ]
        for nodes_pts, query, spec, tail, k in cases:
            values_pts = rng.normal(size=(len(nodes_pts), 2))
            dist = cdist(query[None, :], nodes_pts)[0]
            keep = np.sort(np.argsort(dist, kind="stable")[:k])
            got = fit_local_rbf(PointCloud(nodes_pts), PointCloud(values_pts), spec, tail, NeighborhoodPolicy(k), query)
            model = fit_rbf(PointCloud(nodes_pts[keep]), PointCloud(values_pts[keep]), spec, tail)
            _assert_within_cond(got, eval_rbf(model, query), np.full(got.shape, model.condition))
            if k < len(nodes_pts):
                assert dist[keep].max() <= np.delete(dist, keep).min()

    def test_distance_tie_keeps_lower_index(self):
        # nodes at +-1 are equidistant from the origin; index 0 wins the tie
        nodes = PointCloud([[1.0], [-1.0], [2.0], [-2.0]])
        values = PointCloud([[10.0], [20.0], [30.0], [40.0]])
        policy = NeighborhoodPolicy(max_neighbors=1)
        got = fit_local_rbf(nodes, values, gaussian(1.0), "none", policy, np.array([0.0]))
        assert got[0] == pytest.approx(np.exp(-1.0) * 10.0)

    def test_policy_floor_for_linear_tail(self, rng):
        nodes = PointCloud(rng.normal(size=(10, 4)))
        values = PointCloud(rng.normal(size=(10, 1)))
        with pytest.raises(ValueError, match="max_neighbors"):
            fit_local_rbf(nodes, values, cubic(), "linear", NeighborhoodPolicy(max_neighbors=4), np.zeros(4))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            NeighborhoodPolicy(max_neighbors=0)

    @pytest.mark.parametrize("max_neighbors", [10.5, 10.0, True, "10"])
    def test_max_neighbors_must_be_an_integer(self, max_neighbors):
        # 10.5 and True were accepted, and loo_error then raised TypeError inside the neighbour search
        with pytest.raises(ValueError, match="max_neighbors must be an integer"):
            NeighborhoodPolicy(max_neighbors=max_neighbors)
        assert NeighborhoodPolicy(max_neighbors=np.int64(10)) == NeighborhoodPolicy(10)

    @pytest.mark.parametrize("spec,tail,n_values,match", [
        (cubic(), "linear", 25, "point count"),
        (cubic(), "linear", 15, "point count"),
        (cubic(), "none", 20, "does not take tail"),
        (thin_plate(4), "linear", 20, "does not take tail"),
    ])
    def test_inputs_checked_before_neighbour_search(self, rng, monkeypatch, spec, tail, n_values, match):
        # fit_rbf's checks: more or fewer values than nodes, or a kernel/tail pair that may be singular
        def never(*args, **kwargs):
            raise AssertionError("neighbour search ran")

        monkeypatch.setattr(inverse, "nearest", never)
        nodes, values = PointCloud(rng.normal(size=(20, 2))), PointCloud(rng.normal(size=(n_values, 3)))
        with pytest.raises(ValueError, match=match):
            fit_local_rbf(nodes, values, spec, tail, NeighborhoodPolicy(10), np.zeros(2))


    @pytest.mark.parametrize("spec,tail,size", [(cubic(), "linear", 12 + 3), (gaussian(1.0), "none", 12)])
    def test_one_solve_for_the_query(self, rng, spec, tail, size):
        # one right-hand side, m's column for the query, however many value columns there are
        nodes, values = PointCloud(rng.normal(size=(30, 2))), PointCloud(rng.normal(size=(30, 7)))
        with mock.patch.object(inverse, "_solve_with_cond", wraps=inverse._solve_with_cond) as solve:
            fit_local_rbf(nodes, values, spec, tail, NeighborhoodPolicy(12), rng.normal(size=2))
        assert solve.call_count == 1
        assert solve.call_args.args[1].shape == (size,)

    def test_failures_raise_as_fit_rbf_raises(self):
        values = PointCloud(np.arange(10.0).reshape(5, 2))
        # the four nodes nearest (0.5, 0.5) are equidistant from it, and two of them are equal
        duplicated = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        with pytest.raises(SingularSystemError, match="duplicate nodes at indices 1 and 2"):
            fit_local_rbf(duplicated, values, cubic(), "linear", NeighborhoodPolicy(4), np.array([0.5, 0.5]))
        # the four nodes nearest (1.5, 1.5) lie on one line
        collinear = PointCloud([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [9.0, 0.0]])
        with pytest.raises(UnisolvencyError):
            fit_local_rbf(collinear, values, cubic(), "linear", NeighborhoodPolicy(4), np.array([1.5, 1.5]))


class TestLocalQuery:
    """fit_local_rbf and shepard_eval refuse a query that has no nearest nodes."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["fit_local_rbf", "shepard_eval"])
    def test_non_finite_query_refused_before_neighbour_search(self, rng, monkeypatch, name, bad):
        # unchecked, a NaN Shepard query reported a scale underflow and a Gaussian local fit at an
        # infinite one returned zeros
        def never(*args, **kwargs):
            raise AssertionError("neighbour search ran")

        monkeypatch.setattr(inverse, "nearest", never)
        nodes, values = PointCloud(rng.normal(size=(20, 2))), PointCloud(rng.normal(size=(20, 3)))
        call = {
            "fit_local_rbf": lambda q: fit_local_rbf(nodes, values, gaussian(1.0), "none", NeighborhoodPolicy(5), q),
            "shepard_eval": lambda q: shepard_eval(nodes, values, q, 1.0, NeighborhoodPolicy(5)),
        }[name]
        for query in ([bad, 0.0], np.array([0.5, bad])):
            with pytest.raises(ValueError, match=rf"^query must be finite, got \[.*{bad}.*\]$"):
                call(query)


class TestShepard:
    def test_single_neighbor_exact(self, rng):
        nodes = PointCloud([[0.0], [4.0]])
        values = PointCloud([[3.0, 1.0], [9.0, 9.0]])
        got = shepard_eval(nodes, values, np.array([0.5]), epsilon=1.0, policy=NeighborhoodPolicy(max_neighbors=1))
        assert np.array_equal(got, [3.0, 1.0])

    def test_equidistant_average(self):
        nodes = PointCloud([[1.0], [-1.0]])
        values = PointCloud([[4.0], [10.0]])
        got = shepard_eval(nodes, values, np.array([0.0]), epsilon=0.7)
        assert got[0] == pytest.approx(7.0)

    def test_epsilon_to_zero_gives_mean(self, rng):
        nodes = PointCloud(rng.normal(size=(9, 2)))
        values = PointCloud(rng.normal(size=(9, 3)))
        from preimage.dataset import local_fill_distance

        eps = 1e-8 / local_fill_distance(nodes)
        got = shepard_eval(nodes, values, rng.normal(size=2), epsilon=eps)
        assert np.abs(got - values.points.mean(axis=0)).max() < 1e-10

    def test_convex_hull_containment(self, rng):
        for _ in range(10):
            nodes = PointCloud(rng.normal(size=(12, 3)))
            values = PointCloud(rng.normal(size=(12, 4)))
            got = shepard_eval(nodes, values, rng.normal(size=3), epsilon=float(rng.uniform(0.1, 5.0)))
            assert np.all(got >= values.points.min(axis=0) - 1e-12)
            assert np.all(got <= values.points.max(axis=0) + 1e-12)

    def test_underflow_error(self):
        nodes = PointCloud([[0.0], [1.0]])
        values = PointCloud([[5.0], [6.0]])
        with pytest.raises(ScaleUnderflowError, match="scale too large"):
            shepard_eval(nodes, values, np.array([50.0]), epsilon=10.0)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            shepard_eval(PointCloud([[0.0]]), PointCloud([[1.0]]), np.array([0.0]), epsilon=0.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_epsilon_finite(self, bad):
        # unchecked, a NaN scale gives NaN values and an infinite one reports an underflow
        with pytest.raises(ValueError, match="gaussian kernel requires a finite epsilon > 0"):
            shepard_eval(PointCloud([[0.0], [1.0]]), PointCloud([[1.0], [2.0]]), np.array([0.5]), epsilon=bad)


class TestShepardAverage:
    """inverse._shepard_average is the one Shepard body, for one query row or many."""

    @pytest.mark.parametrize("m", [1, 4, 33, 1000])
    def test_rows_match_the_per_row_average(self, m):
        rng = np.random.default_rng(m)
        nodes, values = rng.normal(size=(300, 3)), rng.normal(size=(300, 20))
        queries = rng.normal(size=(m, 3))
        queries[3::7] += 200.0  # far from every node: all weights underflow
        idx, dist = dataset.nearest(nodes, queries, 40)
        scales = (3.0, 0.7)  # one gather per row block serves every spec
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            averages = inverse._shepard_average(dist, idx, values, [gaussian(eps) for eps in scales])
        assert len(dataset._row_blocks(1000, 40 * 20, dataset._BLOCK_TEMPORARY)) > 1  # 1000 rows span blocks
        assert len(averages) == len(scales)
        for eps, got in zip(scales, averages):
            for i in range(m):
                w = np.exp(-(eps**2) * dist[i] * dist[i])
                if w.sum() == 0.0:
                    assert i % 7 == 3 and np.isnan(got[i]).all()
                else:
                    assert np.array_equal(got[i], (w @ values[idx[i]]) / w.sum())
            assert np.isnan(got[3::7]).all()


class TestModelSerialization:
    def test_round_trip(self, rng, tmp_path):
        nodes = PointCloud(rng.normal(size=(11, 2)))
        values = PointCloud(rng.normal(size=(11, 3)))
        for spec, tail in ((radial_power(1), "none"), (cubic(), "linear")):
            model = fit_rbf(nodes, values, spec, tail=tail)
            save_model(model, tmp_path / tail)
            back = load_model(tmp_path / tail)
            queries = rng.normal(size=(6, 2))
            assert np.array_equal(eval_rbf(back, queries), eval_rbf(model, queries))
            assert back.spec == model.spec
            assert back.condition == model.condition

    @pytest.mark.parametrize("spec,tail", [(cubic(), "linear"), (gaussian(0.9), "none")])
    def test_every_field_comes_back_bitwise(self, rng, tmp_path, spec, tail):
        model = fit_rbf(PointCloud(rng.normal(size=(11, 2))), PointCloud(rng.normal(size=(11, 3))), spec, tail)
        save_model(model, tmp_path)
        back = load_model(tmp_path)
        for field in dataclasses.fields(model):
            got, want = getattr(back, field.name), getattr(model, field.name)
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, field.name
        if tail == "linear":
            assert model.poly.shape == (3, 3)
            assert np.array_equal(load_cloud(tmp_path / "poly.pcld").points, model.poly)
        else:
            assert model.poly is None
            assert not (tmp_path / "poly.pcld").exists()

    @pytest.mark.parametrize("block,shape", [("nodes", (11, 3)), ("weights", (10, 3)), ("poly", (3, 2))])
    def test_corrupted_block_rejected(self, rng, tmp_path, block, shape):
        # a fitted 11-node model R^2 -> R^3; each block is replaced by one of the wrong shape
        model = fit_rbf(PointCloud(rng.normal(size=(11, 2))), PointCloud(rng.normal(size=(11, 3))), cubic(), "linear")
        save_model(model, tmp_path)
        save_cloud(PointCloud(rng.normal(size=shape)), tmp_path / f"{block}.pcld")
        with pytest.raises(ValueError, match=f"{block} block"):
            load_model(tmp_path)
