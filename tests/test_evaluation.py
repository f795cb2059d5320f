import dataclasses
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage import dataset, evaluation, inverse
from preimage.dataset import PointCloud, _row_blocks, local_fill_distance, nearest, spacing_scale
from preimage.evaluation import (
    ConditioningConfig,
    SphereConfig,
    SweepRow,
    conditioning_sweep,
    conditioning_to_csv,
    convergence_sweep,
    loglog_slope,
    loo_error,
    loo_folds,
    median_rows,
    scale_table,
    sphere_pipeline,
    sweep_to_csv,
    table_to_csv,
)
from preimage.inverse import (
    InterpolationError,
    NeighborhoodPolicy,
    SingularSystemError,
    eval_rbf,
    fit_local_rbf,
    fit_rbf,
    shepard_eval,
)
from preimage.kernels import cubic, gaussian

from conftest import _assert_within_cond, traced_peak


class TestLooError:
    def test_constant_values_reconstruct_exactly(self, rng):
        coords = PointCloud(rng.normal(size=(12, 2)))
        values = PointCloud(np.tile([2.0, -1.0, 0.5], (12, 1)))
        shep = loo_error(values, coords, "shepard", scale_multiple=1.0)
        assert shep.e_avg < 1e-12
        cub = loo_error(values, coords, "cubic")
        assert cub.e_avg < 1e-8

    def test_linear_tail_needs_enough_points(self):
        coords = PointCloud([[0.0], [1.0], [2.0]])
        values = PointCloud([[0.0], [1.0], [4.0]])
        with pytest.raises(ValueError, match="d\\+3"):
            loo_error(values, coords, "cubic")

    def test_linear_tail_needs_enough_neighbours_up_front(self, rng, monkeypatch):
        coords = PointCloud(rng.normal(size=(20, 3)))
        values = PointCloud(rng.normal(size=(20, 2)))

        def no_fit(*args, **kwargs):
            raise AssertionError("a fold was fitted before the neighbour cap was checked")

        monkeypatch.setattr(inverse, "_solve_with_cond", no_fit)  # every refit's one solve
        with pytest.raises(ValueError, match="d\\+2"):
            loo_error(values, coords, "cubic", policy=NeighborhoodPolicy(max_neighbors=4))

    def test_report_aggregation_contract(self, rng):
        coords = PointCloud(rng.normal(size=(15, 2)))
        values = PointCloud(rng.normal(size=(15, 3)))
        rep = loo_error(values, coords, "gaussian", scale_multiple=1.0, seed=9)
        assert rep.n == 15 and rep.seed == 9 and rep.method == "gaussian"
        assert rep.h_local == local_fill_distance(coords)
        ok = np.isfinite(rep.per_point_errors)
        assert rep.e_avg == float(rep.per_point_errors[ok].mean())
        assert np.all(rep.per_point_errors[ok] >= 0.0)

    def test_permutation_invariance(self, rng):
        coords_pts = rng.normal(size=(20, 3))
        values_pts = rng.normal(size=(20, 4))
        base = loo_error(PointCloud(values_pts), PointCloud(coords_pts), "cubic")
        perm = rng.permutation(20)
        shuffled = loo_error(PointCloud(values_pts[perm]), PointCloud(coords_pts[perm]), "cubic")
        assert np.allclose(np.sort(base.per_point_errors), np.sort(shuffled.per_point_errors), atol=1e-10)

    def test_duplicate_training_point_interpolates(self, rng):
        coords_pts = rng.normal(size=(12, 2))
        values_pts = rng.normal(size=(12, 3))
        coords_pts[5] = coords_pts[11]
        values_pts[5] = values_pts[11]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # duplicates show as failed folds, not as a warning
            rep = loo_error(PointCloud(values_pts), PointCloud(coords_pts), "cubic")
        # the duplicated pair reconstructs through its twin; every other fold
        # sees both twins among its nodes and fails as a singular system
        assert rep.per_point_errors[5] <= 1e-6
        assert rep.per_point_errors[11] <= 1e-6
        assert len(rep.failures) == 10
        assert not rep.valid

    def test_honors_neighbor_cap(self, rng):
        coords = PointCloud(rng.normal(size=(30, 2)))
        values = PointCloud(rng.normal(size=(30, 3)))
        capped = loo_error(values, coords, "cubic", policy=NeighborhoodPolicy(max_neighbors=12))
        uncapped = loo_error(values, coords, "cubic")
        assert not np.allclose(capped.per_point_errors, uncapped.per_point_errors)

    def test_scale_required_for_scaled_methods(self, rng):
        coords = PointCloud(rng.normal(size=(10, 2)))
        values = PointCloud(rng.normal(size=(10, 2)))
        for method in ("gaussian", "shepard"):
            with pytest.raises(ValueError, match="scale multiple"):
                loo_error(values, coords, method)

    @pytest.mark.parametrize("multiple", [0.5, -1.0, 1, np.nan])
    def test_cubic_takes_no_scale_multiple(self, rng, monkeypatch, multiple):
        # the cubic is scale-free: a multiple used to be ignored and copied into the report
        coords = PointCloud(rng.normal(size=(10, 2)))
        values = PointCloud(rng.normal(size=(10, 2)))
        assert loo_error(values, coords, "cubic", None).scale_multiple is None
        monkeypatch.setattr(evaluation, "nearest", lambda *args, **kwargs: pytest.fail("neighbour search ran"))
        with pytest.raises(ValueError, match="cubic is scale-free"):
            loo_error(values, coords, "cubic", multiple)

    def test_unknown_method(self, rng):
        coords = PointCloud(rng.normal(size=(10, 2)))
        with pytest.raises(ValueError, match="unknown method"):
            loo_error(coords, coords, "kriging")

    @pytest.mark.parametrize("method", ["gaussian", "shepard"])
    def test_zero_spacing_names_duplicates(self, rng, method):
        # 4 points each repeated twice: every nearest other point is a twin, so h_local = 0
        pts = np.repeat(rng.normal(size=(4, 2)), 2, axis=0)
        with pytest.raises(ValueError, match="duplicate"):
            loo_error(PointCloud(pts), PointCloud(pts), method, scale_multiple=1.0)


def _reference_loo(values, coords, method, scale_multiple, policy):
    """The per-fold loop of the first loo_error: every fold copies the n-1 remaining points, then
    fits globally or, above the cap, on its nearest max_neighbors. Also returns each fitted fold's
    condition estimate (1 for Shepard and failed folds)."""
    n = coords.n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # local_fill_distance warns on duplicates
        h = local_fill_distance(coords)
    errors = np.full(n, np.nan)
    conds = np.ones(n)
    failures = []
    for j in range(n):
        rest = np.arange(n) != j
        train_nodes = PointCloud(coords.points[rest])
        train_values = PointCloud(values.points[rest])
        query = coords.points[j]
        try:
            if method == "shepard":
                pred = shepard_eval(train_nodes, train_values, query, scale_multiple / h, policy)
            else:
                spec, fit_tail = (cubic(), "linear") if method == "cubic" else (gaussian(scale_multiple / h), "none")
                if train_nodes.n > policy.max_neighbors:
                    # the first local fit: copies of the nearest rows, then fit_rbf and eval_rbf
                    near = nearest(train_nodes.points, query[None, :], policy.max_neighbors)[0][0]
                    model = fit_rbf(PointCloud(train_nodes.points[near]), PointCloud(train_values.points[near]), spec, fit_tail)
                else:
                    model = fit_rbf(train_nodes, train_values, spec, fit_tail)
                conds[j] = model.condition
                pred = eval_rbf(model, query)
            errors[j] = np.linalg.norm(values.points[j] - pred)
        except InterpolationError:
            failures.append(j)
    return h, errors, tuple(failures), conds


def _assert_same_report(got, want, case=None):
    """Every LooReport field bitwise equal, NaN where NaN."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, (np.ndarray, float)):
            assert np.array_equal(a, b, equal_nan=True), (case, f.name)
        else:
            assert a == b, (case, f.name)


def _fold_clouds(kind):
    rng = np.random.default_rng(4)
    if kind == "ties":
        # a unit lattice: every interior point has four neighbours at exactly distance 1
        g = np.arange(6.0)
        coords = np.array([[x, y] for x in g for y in g])
    elif kind == "plane":
        # 20 points of R^3 on the plane z = 0 except point 4: without it the linear tail is undetermined
        coords = rng.normal(size=(20, 3))
        coords[:, 2] = 0.0
        coords[4, 2] = 1.0
    elif kind == "odd":
        coords = rng.normal(size=(43, 3))  # no worker count of TestFoldWorkers divides 43
    else:
        coords = rng.normal(size=(30, 3))
        if kind == "duplicate":
            coords[7] = coords[22]
    values = rng.normal(size=(len(coords), 4))
    return PointCloud(values), PointCloud(coords)


class TestFoldPathReference:
    @pytest.mark.parametrize("kind", ["random", "ties", "duplicate", "plane"])
    @pytest.mark.parametrize("method,scale", [("cubic", None), ("gaussian", 1.0), ("shepard", 0.5)])
    @pytest.mark.parametrize("max_neighbors", [200, 10])
    def test_matches_per_fold_loop(self, kind, method, scale, max_neighbors):
        values, coords = _fold_clouds(kind)
        policy = NeighborhoodPolicy(max_neighbors=max_neighbors)
        h, errors, failures, conds = _reference_loo(values, coords, method, scale, policy)
        rep = loo_error(values, coords, method, scale, policy=policy)
        assert rep.h_local == h
        if method == "shepard":
            assert np.array_equal(rep.per_point_errors, errors, equal_nan=True)
        else:
            # one factorization of the full system (Rippa's identity), or one solve per refitted fold
            # for the left-out point instead of for the values: equal to rounding
            _assert_within_cond(rep.per_point_errors, errors, conds)
        assert rep.failures == failures
        if kind == "duplicate" and method != "shepard":
            assert failures  # the clouds do reach the failed-fold path
        if kind == "plane" and method == "cubic" and max_neighbors == 200:
            assert failures == (4,)  # fold 4's nodes lie on a plane: no linear tail is determined

    @pytest.mark.parametrize("kind", ["random", "duplicate", "plane"])
    @pytest.mark.parametrize("max_neighbors", [200, 10])
    def test_fold_condition(self, kind, max_neighbors):
        values, coords = _fold_clouds(kind)
        policy = NeighborhoodPolicy(max_neighbors=max_neighbors)
        assert np.all(np.isnan(loo_error(values, coords, "shepard", 0.5, policy=policy).fold_condition))
        rep = loo_error(values, coords, "cubic", policy=policy)
        want = np.full(coords.n, np.nan)
        if max_neighbors >= coords.n - 1 and kind != "duplicate":
            # closed form: every fold reports the full system's estimate
            want[:] = fit_rbf(coords, values, cubic()).condition
        else:
            idx = nearest(coords.points, coords.points, min(coords.n - 1, max_neighbors), exclude_self=True)[0]
            for j in range(coords.n):
                try:
                    want[j] = fit_rbf(PointCloud(coords.points[idx[j]]), PointCloud(values.points[idx[j]]), cubic()).condition
                except InterpolationError:
                    pass
        want[list(rep.failures)] = np.nan
        assert np.array_equal(rep.fold_condition, want, equal_nan=True)
        assert np.array_equal(np.isnan(rep.fold_condition), np.isnan(rep.per_point_errors))

    def test_fold_systems_at_400_neighbours(self, monkeypatch):
        # 400 neighbours: 160,000 distances per fold, more than _BLOCK_TEMPORARY (2^16), so
        # kernels._assemble takes them in several row blocks, and so does each fold
        rng = np.random.default_rng(7)
        coords, values = PointCloud(rng.normal(size=(402, 3))), PointCloud(rng.normal(size=(402, 2)))
        assert len(_row_blocks(400, 400, dataset._BLOCK_TEMPORARY)) > 1
        idx = nearest(coords.points, coords.points, 400, exclude_self=True)[0]
        nodes_of = {values.points[i].tobytes(): i for i in idx}  # two folds may share their nodes
        checked = []
        solve = evaluation._lagrange_predict

        def fit_rbf_system(m, spec, tail, r, q, x):
            i = nodes_of[x.tobytes()]
            assert np.array_equal(m, inverse._system(coords.points[i], cubic(), "linear"))
            checked.append(x.tobytes())
            return solve(m, spec, tail, r, q, x)

        monkeypatch.setattr(evaluation, "_lagrange_predict", fit_rbf_system)
        rep = loo_error(values, coords, "cubic", policy=NeighborhoodPolicy(max_neighbors=400))
        assert sorted(checked) == sorted(values.points[i].tobytes() for i in idx) and rep.failures == ()
        models = [fit_rbf(PointCloud(coords.points[i]), PointCloud(values.points[i]), cubic()) for i in idx]
        conds = np.array([model.condition for model in models])
        # the same matrices give the same LU; gecon's estimate from it can still move in its last
        # bits with the alignment of its work arrays at this size (README, numerics policy)
        assert np.allclose(rep.fold_condition, conds, rtol=16 * np.finfo(float).eps, atol=0.0)
        errors = np.linalg.norm(values.points - [eval_rbf(model, q) for model, q in zip(models, coords.points)], axis=1)
        _assert_within_cond(rep.per_point_errors, errors, conds)

    def test_global_folds_skip_refits(self, monkeypatch):
        values, coords = _fold_clouds("random")
        factored = []

        def counted(m):
            factored.append(m.shape)
            return factor(m)

        factor = inverse._factor
        for module in (evaluation, inverse):  # the closed-form folds' factorization and every refit's
            monkeypatch.setattr(module, "_factor", counted)
        for method, scale in [("cubic", None), ("gaussian", 1.0)]:
            assert loo_error(values, coords, method, scale).failures == ()
        assert factored == [(34, 34), (30, 30)]  # one full system per call, no per-fold refit

    @pytest.mark.parametrize("spec,tail", [(cubic(), "linear"), (gaussian(1.0), "none")])
    def test_global_folds_refuse_a_non_finite_solution(self, spec, tail):
        # values near the largest float overflow c = M^-1 [X; 0]: a singular system, as for a solve
        values, coords = _fold_clouds("random")
        errors, _ = evaluation._global_folds(coords.points, values.points, spec, tail)
        assert np.all(np.isfinite(errors))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="singular system"):
                evaluation._global_folds(coords.points, values.points * (np.finfo(float).max / 4), spec, tail)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 24),
        d=st.integers(1, 3),
        method=st.sampled_from(["cubic", "gaussian"]),
    )
    def test_closed_form_matches_refits(self, seed, n, d, method):
        rng = np.random.default_rng(seed)
        coords = PointCloud(rng.uniform(-1.0, 1.0, size=(n, d)))
        values = PointCloud(rng.normal(size=(n, 2)))
        scale = 1.0 if method == "gaussian" else None
        policy = NeighborhoodPolicy()
        h, errors, failures, conds = _reference_loo(values, coords, method, scale, policy)
        rep = loo_error(values, coords, method, scale, policy=policy)
        assert rep.failures == failures
        _assert_within_cond(rep.per_point_errors, errors, conds)


class TestFoldWorkers:
    @pytest.mark.parametrize("kind", ["odd", "duplicate", "plane", "ties"])
    @pytest.mark.parametrize("method,scale", [("cubic", None), ("gaussian", 1.0), ("shepard", 0.5)])
    @pytest.mark.parametrize("max_neighbors", [200, 10])
    def test_reports_do_not_depend_on_worker_count(self, monkeypatch, kind, method, scale, max_neighbors):
        values, coords = _fold_clouds(kind)
        policy = NeighborhoodPolicy(max_neighbors=max_neighbors)
        threads = set()

        def on_thread(fn):
            def run(*args, **kwargs):
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)

            return run

        for name in ("_refit_folds", "_shepard_average"):
            monkeypatch.setattr(evaluation, name, on_thread(getattr(evaluation, name)))
        reports = {}
        for workers in (1, 2, 3, 7):
            monkeypatch.setattr(evaluation, "_fold_workers", lambda workers=workers: workers)
            threads.clear()
            reports[workers] = loo_error(values, coords, method, scale, policy=policy)
            if method == "shepard" or workers == 1:
                assert threads <= {threading.get_ident()}
            elif max_neighbors < coords.n - 1 or threads:  # the closed-form path refits no fold
                assert len(threads) > 1  # the chunks did run on the pool
        want = reports[1]
        if kind == "duplicate" and method != "shepard":
            assert min(want.failures) < coords.n // 2 <= max(want.failures)  # failed folds in both halves
        for workers in (2, 3, 7):
            _assert_same_report(reports[workers], want, workers)


class TestLooFoldsContract:
    """A sweep computes each dataset's folds once (loo_folds) and still reports every (method, scale) pair
    through one evaluation.loo_error call, the module attribute a caller can wrap to read each report."""

    @pytest.fixture
    def reports(self, monkeypatch):
        reports = []
        plain = evaluation.loo_error

        def recorded(*args, **kwargs):
            reports.append(plain(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(evaluation, "loo_error", recorded)
        return reports

    def test_sweep_reports_every_pair_through_loo_error(self, reports):
        # n = 10 folds are global (Rippa's identity), n = 16 folds are refitted on 12 neighbours
        cfg = SphereConfig(gaussian_multiples=(0.5, 1.0), shepard_multiples=(1.0,), max_neighbors=12)
        res = convergence_sweep([10, 16], cfg, seeds=[0, 1])
        grid = evaluation.method_grid(cfg)
        assert [(r.n, r.seed, r.method, r.scale_multiple) for r in reports] == [
            (n, seed, method, mult) for n in (10, 16) for seed in (0, 1) for method, mult in grid
        ]
        assert res.rows == [
            SweepRow(n=r.n, seed=r.seed, h_local=r.h_local, method=r.method, scale_multiple=r.scale_multiple,
                     e_avg=r.e_avg, failures=len(r.failures), valid=r.valid)
            for r in reports
        ]

    def test_table_reports_every_pair_through_loo_error(self, rng, reports):
        coords, values = PointCloud(rng.normal(size=(25, 3))), PointCloud(rng.normal(size=(25, 2)))
        rows = scale_table(values, coords, (0.5, 1.0), (1.0,), NeighborhoodPolicy(max_neighbors=10))
        assert [(r.method, r.scale_multiple) for r in reports] == evaluation._grid((0.5, 1.0), (1.0,))
        assert [(row.method, row.scale_multiple, row.e_avg, row.failures) for row in rows] == [
            (r.method, r.scale_multiple, r.e_avg, len(r.failures)) for r in reports
        ]

    @pytest.mark.parametrize("kind", ["random", "duplicate", "plane", "ties"])
    @pytest.mark.parametrize("max_neighbors", [200, 10])
    def test_precomputed_folds_give_the_plain_reports(self, kind, max_neighbors):
        values, coords = _fold_clouds(kind)
        policy = NeighborhoodPolicy(max_neighbors=max_neighbors)
        grid = evaluation._grid((0.5, 1.0), (0.5, 1.0))
        folds = loo_folds(values, coords, grid, policy=policy)
        for method, scale in grid:
            want = loo_error(values, coords, method, scale, policy=policy, seed=3)
            _assert_same_report(loo_error(values, coords, method, scale, policy=policy, seed=3, folds=folds), want)

    def test_folds_of_other_inputs_are_refused(self):
        values, coords = _fold_clouds("random")
        policy = NeighborhoodPolicy(max_neighbors=10)
        folds = loo_folds(values, coords, [("cubic", None), ("shepard", 1.0)], policy=policy)
        same_values, same_coords = PointCloud(values.points.copy()), PointCloud(coords.points.copy())
        for args, other_policy in [
            ((same_values, coords, "cubic"), policy),
            ((values, same_coords, "cubic"), policy),
            ((values, coords, "cubic"), None),
            ((values, coords, "cubic"), NeighborhoodPolicy(max_neighbors=11)),
        ]:
            with pytest.raises(ValueError, match="other point clouds or another neighbourhood policy"):
                loo_error(*args, policy=other_policy, folds=folds)
        for method, scale in [("gaussian", 1.0), ("shepard", 0.5), ("cubic", 1.0)]:
            with pytest.raises(ValueError, match="folds hold no"):
                loo_error(values, coords, method, scale, policy=policy, folds=folds)
        rep = loo_error(values, coords, "shepard", 1.0, policy=NeighborhoodPolicy(max_neighbors=10), folds=folds)
        _assert_same_report(rep, loo_error(values, coords, "shepard", 1.0, policy=policy))

    def test_every_pair_checked_before_the_neighbour_search(self, rng, monkeypatch):
        coords, values = PointCloud(rng.normal(size=(20, 3))), PointCloud(rng.normal(size=(20, 2)))
        monkeypatch.setattr(evaluation, "nearest", lambda *args, **kwargs: pytest.fail("neighbour search ran"))
        for pairs, max_neighbors, reason in [
            ([("cubic", None), ("shepard", 0.0)], 10, "shepard needs a finite positive scale multiple"),
            ([("gaussian", True)], 10, "gaussian needs a finite positive scale multiple"),
            ([("shepard", "1.0")], 10, "shepard needs a finite positive scale multiple"),
            ([("gaussian", 1.0), ("kriging", None)], 10, "unknown method"),
            ([("shepard", 1.0), ("cubic", None)], 4, "d\\+2"),
        ]:
            with pytest.raises(ValueError, match=reason):
                loo_folds(values, coords, pairs, policy=NeighborhoodPolicy(max_neighbors=max_neighbors))


class TestShepardFoldMemory:
    def test_values_are_gathered_one_row_block_at_a_time(self):
        # the neighbour table's cdist and argpartition blocks dominate; all of values[idx] at once
        # (1000 x 200 x 40 floats, 61 MiB) would triple the peak
        rng = np.random.default_rng(11)
        coords, values = PointCloud(rng.normal(size=(1000, 5))), PointCloud(rng.normal(size=(1000, 40)))
        policy = NeighborhoodPolicy(max_neighbors=200)
        peak = traced_peak(lambda: loo_error(values, coords, "shepard", 1.0, policy=policy))
        assert peak < 21 * 2**20


class TestRefittedFoldIsLocalFit:
    """A refitted fold is inverse.fit_local_rbf on the other points at the left-out one, bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "ties", "duplicate", "plane"])
    @pytest.mark.parametrize("method,scale", [("cubic", None), ("gaussian", 1.0)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_fold_is_fit_local_rbf(self, monkeypatch, kind, method, scale, workers):
        values, coords = _fold_clouds(kind)
        policy = NeighborhoodPolicy(max_neighbors=10)  # k < n-1: every fold is refitted
        monkeypatch.setattr(evaluation, "_fold_workers", lambda: workers)
        rep = loo_error(values, coords, method, scale, policy=policy)
        spec, tail = (cubic(), "linear") if method == "cubic" else (gaussian(spacing_scale(scale, rep.h_local)), "none")
        for j in range(coords.n):
            rest = np.arange(coords.n) != j
            try:
                pred = fit_local_rbf(PointCloud(coords.points[rest]), PointCloud(values.points[rest]), spec, tail,
                                     policy, coords.points[j])
            except InterpolationError:  # duplicate nodes, lost unisolvency or a singular system
                assert np.isnan(rep.per_point_errors[j])
                continue
            r = values.points[j] - pred
            assert rep.per_point_errors[j] == np.sqrt(r @ r)


class TestFailedFoldRule:
    """A fold failed exactly where its error is not finite, whichever path computed it."""

    BAD = 3

    def _check(self, plain, rep, n):
        assert plain.failures == ()
        assert rep.failures == (self.BAD,)
        assert len(rep.failures) == (~np.isfinite(rep.per_point_errors)).sum()
        assert np.isnan(rep.per_point_errors[self.BAD]) and np.isnan(rep.fold_condition[self.BAD])
        others = np.arange(n) != self.BAD
        assert np.array_equal(rep.per_point_errors[others], plain.per_point_errors[others], equal_nan=True)
        assert np.array_equal(rep.fold_condition[others], plain.fold_condition[others], equal_nan=True)
        assert rep.e_avg == float(plain.per_point_errors[others].mean())
        assert rep.valid == (len(rep.failures) <= 0.01 * n)

    @pytest.mark.parametrize("method,scale", [("cubic", None), ("gaussian", 1.0)])
    @pytest.mark.parametrize("max_neighbors", [200, 10])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_refitted_fold_with_an_infinite_prediction(self, monkeypatch, method, scale, max_neighbors, workers):
        # every fold is refitted: on all other points (global folds) at max_neighbors 200, where the
        # full system is made to fail as a singular one would, and on the 10 nearest (local folds) at 10
        values, coords = _fold_clouds("random")
        policy = NeighborhoodPolicy(max_neighbors=max_neighbors)

        def singular(*args):
            raise SingularSystemError("singular system")

        monkeypatch.setattr(evaluation, "_global_folds", singular)
        monkeypatch.setattr(evaluation, "_fold_workers", lambda: workers)
        plain = loo_error(values, coords, method, scale, policy=policy)
        bad_nodes = nearest(coords.points, coords.points, min(coords.n - 1, max_neighbors), exclude_self=True)[0][self.BAD]
        solve = evaluation._lagrange_predict

        def infinite_at_bad(m, spec, tail, r, q, x):  # returns inf instead of raising
            pred, cond = solve(m, spec, tail, r, q, x)
            return (np.full_like(pred, np.inf) if np.array_equal(x, values.points[bad_nodes]) else pred), cond

        monkeypatch.setattr(evaluation, "_lagrange_predict", infinite_at_bad)
        self._check(plain, loo_error(values, coords, method, scale, policy=policy), coords.n)

    @pytest.mark.parametrize("method,scale", [("cubic", None), ("gaussian", 1.0)])
    def test_closed_form_fold_with_an_infinite_error(self, monkeypatch, method, scale):
        values, coords = _fold_clouds("random")
        plain = loo_error(values, coords, method, scale)
        global_folds = evaluation._global_folds

        def infinite_at_bad(*args):
            errors, conds = global_folds(*args)
            errors[self.BAD] = np.inf
            return errors, conds

        monkeypatch.setattr(evaluation, "_global_folds", infinite_at_bad)
        self._check(plain, loo_error(values, coords, method, scale), coords.n)


class TestFoldWorkerRule:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        for var in evaluation.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_no_variable_is_serial(self):
        assert evaluation._fold_workers() == 1

    @pytest.mark.parametrize(
        "env,want",
        [({"OPENBLAS_NUM_THREADS": "1"}, 2),
         ({"OPENBLAS_NUM_THREADS": "2"}, 1),
         ({"OMP_NUM_THREADS": "1"}, 2),
         ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
         ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
         ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
         ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2),
         ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 2)],
    )
    def test_first_positive_variable_in_openblas_order(self, monkeypatch, env, want):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert evaluation._fold_workers() == want

    @pytest.mark.parametrize("value", ["0", "", "abc", "-2", "1.5"])
    def test_unusable_values_are_ignored(self, monkeypatch, value):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert evaluation._fold_workers() == 1

    def test_never_more_than_the_cpus(self, monkeypatch):
        for cpus in range(1, 9):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            for threads in range(1, 12):
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(threads))
                assert 1 <= evaluation._fold_workers() <= cpus

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert evaluation._fold_workers() == 3

    def test_default_starts_no_thread(self, monkeypatch):
        values, coords = _fold_clouds("odd")

        def no_pool(*args, **kwargs):
            raise AssertionError("a fold thread pool was started")

        monkeypatch.setattr(evaluation, "ThreadPoolExecutor", no_pool)
        rep = loo_error(values, coords, "cubic", policy=NeighborhoodPolicy(max_neighbors=10))
        assert np.all(np.isfinite(rep.per_point_errors))


class TestConvergenceSweep:
    @pytest.mark.parametrize("config,reason", [
        (SphereConfig(gaussian_multiples=(0.5, -1.0)), "gaussian needs a finite positive scale multiple"),
        (SphereConfig(shepard_multiples=(0.0,)), "shepard needs a finite positive scale multiple"),
        (SphereConfig(gaussian_multiples=(float("nan"),)), "gaussian needs a finite positive scale multiple"),
        (SphereConfig(shepard_multiples=(float("inf"),)), "shepard needs a finite positive scale multiple"),
        (SphereConfig(gaussian_multiples=(1.0, 1.0), shepard_multiples=(0.5,)), "gaussian scale multiple 1.0 is repeated"),
        (SphereConfig(shepard_multiples=(0.5, 1, 0.5)), "shepard scale multiple 0.5 is repeated"),
    ])
    def test_scale_multiples_refused_before_sampling(self, monkeypatch, config, reason):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a sphere before refusing a scale multiple")

        monkeypatch.setattr(evaluation, "sample_sphere", no_sampling)
        with pytest.raises(ValueError, match=reason):
            convergence_sweep([10, 12], config)

    @pytest.mark.parametrize("n_values,seeds,name", [([], (0,), "n_values"), ([20], (), "seeds"), ([], (), "n_values")])
    def test_empty_sweep_refused_before_sampling(self, monkeypatch, n_values, seeds, name):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a sphere for an empty sweep")

        monkeypatch.setattr(evaluation, "sample_sphere", no_sampling)
        with pytest.raises(ValueError, match=f"^empty sphere sweep: no {name}$"):
            convergence_sweep(n_values, SphereConfig(), seeds=seeds)

    def test_repeated_seed_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a sphere for a sweep with a repeated seed")

        monkeypatch.setattr(evaluation, "sample_sphere", no_sampling)
        with pytest.raises(ValueError, match="^seeds must be distinct$"):
            convergence_sweep([12], SphereConfig(gaussian_multiples=(), shepard_multiples=()), seeds=[0, 0])

    def test_two_seeds_single_n_no_slope(self):
        cfg = SphereConfig(gaussian_multiples=(), shepard_multiples=())
        res = convergence_sweep([12], cfg, seeds=[0, 1])
        assert len(res.rows) == 2
        assert res.fitted_slope is None

    def test_three_n_values_give_slope(self):
        cfg = SphereConfig(gaussian_multiples=(), shepard_multiples=())
        res = convergence_sweep([10, 16, 26], cfg, seeds=[0])
        assert res.fitted_slope is not None and np.isfinite(res.fitted_slope)
        assert res.slope_residual >= 0.0

    def test_slope_skips_invalid_rows(self, monkeypatch):
        real = evaluation.loo_error

        def flaky(values, coords, method, *args, seed=None, **kwargs):
            rep = real(values, coords, method, *args, seed=seed, **kwargs)
            if coords.n == 16 and seed == 1:
                # 2 of 16 folds failed, above the 1% validity limit, and the error is off
                return dataclasses.replace(rep, e_avg=1e3 * rep.e_avg, failures=(0, 1), valid=False)
            return rep

        monkeypatch.setattr(evaluation, "loo_error", flaky)
        cfg = SphereConfig(gaussian_multiples=(), shepard_multiples=())
        res = convergence_sweep([10, 16, 26], cfg, seeds=[0, 1])
        assert [(r.n, r.seed, r.failures) for r in res.rows if not r.valid] == [(16, 1, 2)]
        good = [r for r in res.rows if r.valid]
        assert len(good) == 5
        assert res.fitted_slope == loglog_slope([r.h_local for r in good], [r.e_avg for r in good])[0]

    def test_rows_cover_method_grid_and_sort(self):
        cfg = SphereConfig(gaussian_multiples=(0.5,), shepard_multiples=(1.0,))
        res = convergence_sweep([10, 14], cfg, seeds=[0, 1])
        assert len(res.rows) == 2 * 2 * 3
        assert [r.n for r in res.rows] == sorted(r.n for r in res.rows)
        methods = {(r.method, r.scale_multiple) for r in res.rows}
        assert methods == {("cubic", None), ("gaussian", 0.5), ("shepard", 1.0)}

    def test_cubic_beats_shepard_on_sphere(self):
        cfg = SphereConfig(gaussian_multiples=(), shepard_multiples=(1.0,))
        res = convergence_sweep([40], cfg, seeds=[0])
        by_method = {r.method: r.e_avg for r in res.rows}
        assert by_method["cubic"] < by_method["shepard"]

    def test_n_values_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            convergence_sweep([30, 10], SphereConfig(), seeds=[0])
        with pytest.raises(ValueError, match="embed_dim"):
            convergence_sweep([6], SphereConfig(), seeds=[0])

    def test_deterministic(self):
        cfg = SphereConfig(gaussian_multiples=(), shepard_multiples=())
        a = convergence_sweep([12], cfg, seeds=[3])
        b = convergence_sweep([12], cfg, seeds=[3])
        assert a.rows == b.rows


class TestScaleGrid:
    """evaluation._grid, the one owner of a sweep's (method, multiple) pairs."""

    @pytest.mark.parametrize("gaussian_multiples,shepard_multiples,reason", [
        ((1.0, 1.0), (0.5,), "gaussian scale multiple 1.0 is repeated"),
        ((2, 2.0), (), "gaussian scale multiple 2.0 is repeated"),
        ((0.5,), (0.25, 1.0, 0.25), "shepard scale multiple 0.25 is repeated"),
    ])
    def test_repeated_multiple_refused(self, gaussian_multiples, shepard_multiples, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            evaluation._grid(gaussian_multiples, shepard_multiples)

    def test_one_multiple_for_two_methods_is_two_pairs(self):
        assert evaluation._grid((1.0,), (1.0,)) == [("cubic", None), ("gaussian", 1.0), ("shepard", 1.0)]

    def test_scale_table_refuses_a_repeat_before_any_fold(self, rng, monkeypatch):
        monkeypatch.setattr(evaluation, "nearest", lambda *args, **kwargs: pytest.fail("neighbour search ran"))
        cloud = PointCloud(rng.normal(size=(12, 2)))
        with pytest.raises(ValueError, match="gaussian scale multiple 1.0 is repeated"):
            scale_table(cloud, cloud, (1.0, 1.0), (0.5,))


class TestGlobalFoldMemory:
    @pytest.mark.parametrize("spec,tail", [(cubic(), "linear"), (gaussian(3.0), "none")])
    def test_global_folds_hold_one_system(self, spec, tail):
        # the full system, factored and inverted in place, plus small buffers: no n x n temporary
        n = 1500
        rng = np.random.default_rng(12)
        y, x = rng.normal(size=(n, 5)), rng.normal(size=(n, 10))
        size = n + 6 if tail == "linear" else n
        peak = traced_peak(lambda: evaluation._global_folds(y, x, spec, tail))
        assert peak <= size**2 * 8 + 2 * 2**20


class TestConditioningSweep:
    def test_vs_fill_gaussian_grows_as_nodes_densify(self):
        cfg = ConditioningConfig(n_values=(10, 100, 1000))
        res = conditioning_sweep("vs_fill", cfg)
        gauss = {r.n: r.cond for r in res.rows if r.method == "gaussian"}
        hs = {r.n: r.h_local for r in res.rows if r.method == "gaussian"}
        assert hs[10] > hs[100] > hs[1000]
        assert gauss[10] < gauss[100] < gauss[1000]

    def test_vs_epsilon_flat_cubic_row(self):
        cfg = ConditioningConfig(n=60, epsilon_values=(1e-2, 1e-1, 1.0, 10.0))
        res = conditioning_sweep("vs_epsilon", cfg)
        cubic_rows = [r for r in res.rows if r.method == "cubic"]
        assert len(cubic_rows) == 1
        assert cubic_rows[0].parameter is None
        gauss = [r for r in res.rows if r.method == "gaussian"]
        assert [r.parameter for r in gauss] == sorted(r.parameter for r in gauss)
        assert gauss[0].cond > gauss[-1].cond

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            conditioning_sweep("vs_time")

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="ambient_dim"):
            conditioning_sweep("vs_fill", ConditioningConfig(ambient_dim=1))

    @pytest.mark.parametrize("mode,config,swept", [
        ("vs_fill", ConditioningConfig(n_values=(10, 10)), "n_values"),
        ("vs_fill", ConditioningConfig(n_values=(50, 10, 50)), "n_values"),
        ("vs_epsilon", ConditioningConfig(epsilon_values=(1.0, 1.0)), "epsilon_values"),
    ])
    def test_repeated_values_refused_before_sampling(self, monkeypatch, mode, config, swept):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled nodes for a sweep with a repeated value")

        monkeypatch.setattr(evaluation, "sample_sphere", no_sampling)
        with pytest.raises(ValueError, match=f"^{swept} must be distinct$"):
            conditioning_sweep(mode, config)

    @pytest.mark.parametrize("mode,config", [
        ("vs_fill", ConditioningConfig(n_values=())),
        ("vs_epsilon", ConditioningConfig(epsilon_values=())),
    ])
    def test_empty_sweep_refused_before_sampling(self, monkeypatch, mode, config):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled nodes for an empty sweep")

        monkeypatch.setattr(evaluation, "sample_sphere", no_sampling)
        with pytest.raises(ValueError, match=f"empty {mode} sweep"):
            conditioning_sweep(mode, config)


class TestScaleTable:
    def test_scale_multiples_refused_before_any_fold(self, rng, monkeypatch):
        def no_fold(*args, **kwargs):
            raise AssertionError("ran a leave-one-out pair before refusing a scale multiple")

        monkeypatch.setattr(evaluation, "loo_error", no_fold)
        cloud = PointCloud(rng.normal(size=(12, 2)))
        with pytest.raises(ValueError, match="shepard needs a finite positive scale multiple"):
            scale_table(cloud, cloud, (1.0,), (1.0, 0.0))

    def test_constant_values_reconstruct(self, rng):
        # constants are reproduced exactly by the tail and by any convex
        # combination; the pure gaussian system is only exact at its nodes
        coords = PointCloud(rng.normal(size=(12, 2)))
        values = PointCloud(np.ones((12, 3)))
        rows = scale_table(values, coords, gaussian_multiples=(1.0,), shepard_multiples=(1.0,))
        by_method = {r.method: r.e_avg for r in rows}
        assert by_method["cubic"] < 1e-8
        assert by_method["shepard"] < 1e-12
        assert np.isfinite(by_method["gaussian"])

    def test_marks_single_minimum(self, rng):
        ambient, emb = sphere_pipeline(40, SphereConfig(), seed=2)
        rows = scale_table(ambient, PointCloud(emb.coords), gaussian_multiples=(0.5, 1.0), shepard_multiples=(1.0,))
        mins = [r for r in rows if r.is_min]
        assert len(mins) == 1
        assert mins[0].e_avg == min(r.e_avg for r in rows)
        assert mins[0].method == "cubic"


class TestCsvWriters:
    def test_sweep_schema(self, tmp_path):
        cfg = SphereConfig(gaussian_multiples=(), shepard_multiples=())
        res = convergence_sweep([10], cfg, seeds=[0])
        path = tmp_path / "rows.csv"
        sweep_to_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,seed,h_local,method,scale_multiple,e_avg,failures"
        assert len(lines) == 2

    def test_conditioning_schema(self, tmp_path):
        res = conditioning_sweep("vs_epsilon", ConditioningConfig(n=30, epsilon_values=(0.5, 2.0)))
        path = tmp_path / "cond.csv"
        conditioning_to_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "parameter,n,h_local,method,cond"
        assert len(lines) == 4
        assert lines[-1].startswith(",30,")  # the flat cubic row has no parameter

    def test_table_schema(self, rng, tmp_path):
        coords = PointCloud(rng.normal(size=(12, 2)))
        values = PointCloud(np.ones((12, 2)))
        rows = scale_table(values, coords, gaussian_multiples=(1.0,), shepard_multiples=())
        path = tmp_path / "table.csv"
        table_to_csv(rows, path, dataset="toy")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dataset,method,scale_multiple,e_avg,failures,is_min"
        assert all(line.startswith("toy,") for line in lines[1:])

    def test_median_rows(self):
        cfg = SphereConfig(gaussian_multiples=(), shepard_multiples=())
        res = convergence_sweep([10, 14], cfg, seeds=[0, 1, 2])
        med = median_rows(res.rows)
        assert [m["n"] for m in med] == [10, 14]
        assert all(m["seeds"] == 3 for m in med)
