import dataclasses
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage import evaluation, inverse
from preimage.dataset import PointCloud, local_fill_distance, nearest
from preimage.evaluation import (
    ConditioningConfig,
    SphereConfig,
    conditioning_sweep,
    conditioning_to_csv,
    convergence_sweep,
    loglog_slope,
    loo_error,
    median_rows,
    scale_table,
    sphere_pipeline,
    sweep_to_csv,
    table_to_csv,
)
from preimage.inverse import (
    InterpolationError,
    NeighborhoodPolicy,
    eval_rbf,
    fit_local_rbf,
    fit_rbf,
    shepard_eval,
)
from preimage.kernels import cubic, gaussian


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

        for module in (evaluation, inverse):  # the closed-form folds' solve and every refit's
            monkeypatch.setattr(module, "_solve_with_cond", no_fit)
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
    fits globally or, above the cap, through fit_local_rbf. Also returns each global fold's
    condition estimate (1 elsewhere)."""
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
                    pred = fit_local_rbf(train_nodes, train_values, spec, fit_tail, policy, query)
                else:
                    model = fit_rbf(train_nodes, train_values, spec, fit_tail)
                    conds[j] = model.condition
                    pred = eval_rbf(model, query)
            errors[j] = np.linalg.norm(values.points[j] - pred)
        except InterpolationError:
            failures.append(j)
    return h, errors, tuple(failures), conds


def _assert_within_cond(got, want, conds):
    """Equal NaN positions; finite errors within 64 eps cond of the explicit fold's condition
    estimate, relative to the error where it exceeds 1."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    tol = 64 * np.finfo(float).eps * conds[ok] * np.maximum(1.0, want[ok])
    assert np.all(np.abs(got[ok] - want[ok]) <= tol), np.max(np.abs(got[ok] - want[ok]) / tol)


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
        if method != "shepard" and max_neighbors >= coords.n - 1:
            # one factorization of the full system (Rippa's identity), not n refits: equal to rounding
            _assert_within_cond(rep.per_point_errors, errors, conds)
        else:
            assert np.array_equal(rep.per_point_errors, errors, equal_nan=True)
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

    def test_global_folds_skip_refits(self, monkeypatch):
        values, coords = _fold_clouds("random")
        solves = []

        def counted(m, rhs):
            solves.append(m.shape)
            return solve(m, rhs)

        solve = inverse._solve_with_cond
        for module in (evaluation, inverse):  # the closed-form folds' solve and every refit's
            monkeypatch.setattr(module, "_solve_with_cond", counted)
        for method, scale in [("cubic", None), ("gaussian", 1.0)]:
            assert loo_error(values, coords, method, scale).failures == ()
        assert solves == [(34, 34), (30, 30)]  # one full system per call, no per-fold refit

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

        for name in ("_fit", "_shepard_average"):
            monkeypatch.setattr(evaluation, name, on_thread(getattr(evaluation, name)))
        reports = {}
        for workers in (1, 2, 3, 7):
            monkeypatch.setattr(evaluation, "_fold_workers", lambda workers=workers: workers)
            threads.clear()
            reports[workers] = loo_error(values, coords, method, scale, policy=policy)
            refitted = bool(threads)  # the closed-form path fits no fold
            if method == "shepard" or workers == 1:
                assert threads <= {threading.get_ident()}
            elif refitted:
                assert len(threads) > 1  # the chunks did run on the pool
        want = reports[1]
        if kind == "duplicate" and method != "shepard":
            assert min(want.failures) < coords.n // 2 <= max(want.failures)  # failed folds in both halves
        for workers in (2, 3, 7):
            for f in dataclasses.fields(want):
                a, b = getattr(reports[workers], f.name), getattr(want, f.name)
                if isinstance(b, (np.ndarray, float)):
                    assert np.array_equal(a, b, equal_nan=True), (workers, f.name)
                else:
                    assert a == b, (workers, f.name)


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
