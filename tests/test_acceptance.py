"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. The sphere sweep (criteria 1-2) is the slow part, roughly a minute;
everything else is seconds. Criterion 7 needs user-supplied digit/face vectors
and is skipped unless the corresponding environment variables are set.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from preimage.dataset import PointCloud, load_cloud, local_fill_distance, sample_sphere
from preimage.embedding import embedding_from_kernel, laplacian_eigenmaps, unisolvency_rank
from preimage.evaluation import (
    ConditioningConfig,
    SphereConfig,
    conditioning_sweep,
    convergence_sweep,
    loglog_slope,
    scale_table,
)
from preimage.inverse import NeighborhoodPolicy, eval_rbf, fit_rbf, shepard_eval
from preimage.kernels import condition_number, cubic, gaussian, kernel_matrix, radial_power, sparsify
from preimage.nystrom import discontinuity_scan, nystrom_extend, nystrom_via_rbf

from conftest import random_rotation

N_GRID = (10, 30, 100, 300, 1000)
SEEDS = (0, 1, 2, 3, 4)
SCALE_MULTIPLES = (0.25, 0.5, 1.0, 2.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sphere_sweep():
    config = SphereConfig(gaussian_multiples=SCALE_MULTIPLES, shepard_multiples=SCALE_MULTIPLES)
    return convergence_sweep(N_GRID, config, seeds=SEEDS)


def test_criterion_1_convergence_rate(sphere_sweep):
    rows = [r for r in sphere_sweep.rows if r.method == "cubic"]
    assert len(rows) == len(N_GRID) * len(SEEDS)
    assert all(r.failures == 0 for r in rows)
    slope, resid = loglog_slope([r.h_local for r in rows], [r.e_avg for r in rows])
    assert slope == pytest.approx(sphere_sweep.fitted_slope)
    report(
        "1 convergence-rate",
        1.5 <= slope <= 2.5,
        f"cubic log-log slope {slope:.3f} (residual {resid:.3f}) in [1.5, 2.5]",
    )


def test_criterion_2_method_ordering(sphere_sweep):
    med = {}
    for r in sphere_sweep.rows:
        med.setdefault((r.n, r.method, r.scale_multiple), []).append(r.e_avg)
    lines = []
    ok = True
    for n in N_GRID:
        cub = float(np.median(med[(n, "cubic", None)]))
        best_g = min(float(np.median(med[(n, "gaussian", m)])) for m in SCALE_MULTIPLES)
        best_s = min(float(np.median(med[(n, "shepard", m)])) for m in SCALE_MULTIPLES)
        ok &= cub < best_g and cub < best_s
        lines.append(f"n={n}: cubic {cub:.2e} < gaussian {best_g:.2e}, shepard {best_s:.2e}")
    report("2 method-ordering", ok, "; ".join(lines))


def test_criterion_3_conditioning_vs_epsilon():
    config = ConditioningConfig(ambient_dim=5, n=200)
    sweep = conditioning_sweep("vs_epsilon", config)
    gauss = {r.parameter: r.cond for r in sweep.rows if r.method == "gaussian"}
    cubic_rows = [r for r in sweep.rows if r.method == "cubic"]
    assert len(cubic_rows) == 1
    ratio = gauss[1e-2] / gauss[10.0]
    worst = max(gauss.values())
    # the cubic matrix carries no scale parameter at all, so rebuilding it for
    # any point of the sweep yields the identical matrix and condition number
    cloud = sample_sphere(config.n, config.ambient_dim - 1, config.quadrant_only, config.seed)
    rebuilt = [condition_number(kernel_matrix(cubic(), cloud)) for _ in range(3)]
    flat = all(c == cubic_rows[0].cond for c in rebuilt)
    ok = ratio >= 1e6 and flat and cubic_rows[0].cond <= worst / 1e3
    report(
        "3 conditioning-vs-epsilon",
        ok,
        f"gaussian cond 1e-2/1e1 ratio {ratio:.2e} >= 1e6; cubic flat at {cubic_rows[0].cond:.2e} "
        f"<= worst gaussian {worst:.2e} / 1e3",
    )


def test_criterion_4_nystrom_identity():
    worst_rel = 0.0
    worst_train = 0.0
    for draw in range(100):
        rng = np.random.default_rng(1000 + draw)
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(50, 3)))
        spec = gaussian(1.0 / local_fill_distance(cloud))
        emb = laplacian_eigenmaps(cloud, spec, d=4)
        l = int(rng.integers(0, 5))
        diffs, mags = [], []
        for _ in range(2):
            q = rng.uniform(0.1, 0.9, size=3)
            a = nystrom_extend(emb, cloud, spec, q, l).value
            b = nystrom_via_rbf(emb, cloud, spec, q, l).value
            diffs.append(abs(a - b))
            mags.append(max(abs(a), abs(b)))
        # relative to the draw's own extension magnitude
        worst_rel = max(worst_rel, max(diffs) / max(mags))
        i = int(rng.integers(0, 50))
        xt = cloud.points[i]
        at = nystrom_extend(emb, cloud, spec, xt, l).value
        bt = nystrom_via_rbf(emb, cloud, spec, xt, l).value
        worst_train = max(worst_train, abs(at - emb.eigvecs[i, l]), abs(bt - emb.eigvecs[i, l]))
    ok = worst_rel <= 1e-8 and worst_train <= 1e-8
    report(
        "4 nystrom-identity",
        ok,
        f"100 draws: worst relative gap {worst_rel:.2e} <= 1e-8; worst training-point error {worst_train:.2e} <= 1e-8",
    )


def test_criterion_5_discontinuity():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(150, 2)))
    spec = gaussian(0.5 / local_fill_distance(cloud))
    tau = 0.4
    kmat = sparsify(kernel_matrix(spec, cloud), threshold=tau)
    emb = embedding_from_kernel(kmat, 2, spec=spec, source=cloud)
    segment = (np.array([0.05, 0.05]), np.array([0.95, 0.95]))
    p1000 = discontinuity_scan(emb, cloud, spec, segment, 1000, threshold=tau)
    p2000 = discontinuity_scan(emb, cloud, spec, segment, 2000, threshold=tau)
    jump_ratio = p1000.delta_max_sparse / p1000.delta_max_full
    shrink = p1000.delta_max_full / p2000.delta_max_full
    ok = jump_ratio >= 10.0 and shrink >= 1.5
    report(
        "5 discontinuity",
        ok,
        f"sparse/full jump ratio {jump_ratio:.1f} >= 10 at 1000 steps; "
        f"full jump shrinks {shrink:.2f}x >= 1.5x when steps double",
    )


def test_criterion_6_property_suites():
    rng = np.random.default_rng(99)
    checks = []

    # node exactness <= 1e-6 relative (r^1 with no tail, cubic with the linear tail)
    nodes = PointCloud(np.arange(24, dtype=float).reshape(12, 2) + rng.uniform(-0.3, 0.3, size=(12, 2)))
    values = PointCloud(rng.normal(size=(12, 3)))
    exact = max(
        np.abs(eval_rbf(fit_rbf(nodes, values, spec, tail=t), nodes.points) - values.points).max()
        / np.abs(values.points).max()
        for spec, t in ((radial_power(1), "none"), (cubic(), "linear"))
    )
    checks.append(("node exactness", exact, 1e-6))

    # affine reproduction <= 1e-8 over random affine maps and node sets
    worst_affine = 0.0
    for s in range(10):
        local = np.random.default_rng(s)
        d, out_dim = int(local.integers(1, 5)), int(local.integers(1, 6))
        pts = PointCloud(local.normal(size=(d + 6, d)))
        b, c = local.normal(size=(d, out_dim)), local.normal(size=out_dim)
        model = fit_rbf(pts, PointCloud(pts.points @ b + c), cubic(), tail="linear")
        q = local.normal(size=(5, d))
        worst_affine = max(worst_affine, np.abs(eval_rbf(model, q) - (q @ b + c)).max())
    checks.append(("affine reproduction", worst_affine, 1e-8))

    # rigid-motion invariance <= 1e-8
    nodes = PointCloud(rng.normal(size=(15, 3)))
    values = PointCloud(rng.normal(size=(15, 2)))
    queries = rng.normal(size=(6, 3))
    q = random_rotation(3, seed=12)
    shift = np.array([1.5, -0.5, 2.0])
    base = eval_rbf(fit_rbf(nodes, values, cubic(), tail="linear"), queries)
    moved = eval_rbf(fit_rbf(PointCloud(nodes.points @ q + shift), values, cubic(), tail="linear"), queries @ q + shift)
    checks.append(("rigid-motion invariance", np.abs(base - moved).max(), 1e-8))

    # cubic scale equivariance <= 1e-8
    for c in (0.1, 10.0):
        scaled = eval_rbf(fit_rbf(PointCloud(c * nodes.points), values, cubic(), tail="linear"), c * queries)
        checks.append((f"scale equivariance x{c}", np.abs(base - scaled).max(), 1e-8))

    # shepard convex-hull containment
    hull_violation = 0.0
    for _ in range(25):
        pts = PointCloud(rng.normal(size=(10, 2)))
        vals = PointCloud(rng.normal(size=(10, 3)))
        got = shepard_eval(pts, vals, rng.normal(size=2), epsilon=float(rng.uniform(0.2, 3.0)))
        hull_violation = max(
            hull_violation,
            float(np.max(vals.points.min(axis=0) - got)),
            float(np.max(got - vals.points.max(axis=0))),
        )
    checks.append(("shepard hull containment", hull_violation, 1e-12))

    # unisolvency rank agrees with an SVD oracle on 100 constructed node sets
    mismatches = 0
    for trial in range(100):
        local = np.random.default_rng(trial)
        d = int(local.integers(1, 6))
        n = int(local.integers(d + 1, 15))
        kind = trial % 4
        if kind == 0:
            pts = local.normal(size=(n, d))
        elif kind == 1:
            sub = int(local.integers(0, d))
            pts = local.normal(size=(n, sub)) @ local.normal(size=(sub, d)) + local.normal(size=d)
        elif kind == 2:
            pts = np.repeat(local.normal(size=(1, d)), n, axis=0)
        else:
            pts = local.normal(size=(n, d))
            pts[n // 2 :] = pts[0]
        p = np.vstack([np.ones(n), pts.T])
        if unisolvency_rank(pts) != np.linalg.matrix_rank(p):
            mismatches += 1
    checks.append(("unisolvency vs SVD oracle", float(mismatches), 0.5))

    bad = [f"{name} {value:.2e} > {tol}" for name, value, tol in checks if value > tol]
    detail = "; ".join(f"{name} {value:.2e} <= {tol}" for name, value, tol in checks)
    report("6 property-suites", not bad, "; ".join(bad) if bad else detail)


MNIST_DIR = os.environ.get("PREIMAGE_MNIST_DIR")
FREY_FILE = os.environ.get("PREIMAGE_FREY_FILE")

# reference reconstruction errors the data-gated reruns are expected to land
# near (+-0.05; embedding seeds and neighbor details may differ)
DIGIT_CUBIC = (0.248, 0.135, 0.349, 0.334, 0.299, 0.350, 0.259, 0.261, 0.354, 0.262)
FREY_CUBIC = 0.0361


@pytest.mark.skipif(MNIST_DIR is None, reason="set PREIMAGE_MNIST_DIR to digit0..digit9 vector files to enable")
def test_criterion_7_digit_tables():
    lines = []
    ok = True
    for digit in range(10):
        path = next(Path(MNIST_DIR).glob(f"digit{digit}.*"))
        values = load_cloud(path)
        emb = laplacian_eigenmaps(values, gaussian(0.25 / local_fill_distance(values)), d=10)
        rows = scale_table(
            values,
            PointCloud(emb.coords),
            gaussian_multiples=(0.5, 1.0, 2.0),
            shepard_multiples=(0.5, 1.0, 2.0),
            policy=NeighborhoodPolicy(max_neighbors=200),
        )
        best = [r for r in rows if r.is_min][0]
        cub = [r for r in rows if r.method == "cubic"][0]
        within = abs(cub.e_avg - DIGIT_CUBIC[digit]) <= 0.05
        ok &= best.method == "cubic" and within
        lines.append(f"digit {digit}: cubic {cub.e_avg:.3f} (reference {DIGIT_CUBIC[digit]:.3f}), min={best.method}")
    report("7 digit-tables", ok, "; ".join(lines))


@pytest.mark.skipif(FREY_FILE is None, reason="set PREIMAGE_FREY_FILE to the face vector file to enable")
def test_criterion_7_face_table():
    values = load_cloud(Path(FREY_FILE))
    emb = laplacian_eigenmaps(values, gaussian(0.25 / local_fill_distance(values)), d=15)
    rows = scale_table(
        values,
        PointCloud(emb.coords),
        gaussian_multiples=(0.25, 0.5, 1.0),
        shepard_multiples=(1.0, 2.0, 4.0),
        policy=NeighborhoodPolicy(max_neighbors=200),
    )
    best = [r for r in rows if r.is_min][0]
    cub = [r for r in rows if r.method == "cubic"][0]
    ok = best.method == "cubic" and abs(cub.e_avg - FREY_CUBIC) <= 0.05
    report("7 face-table", ok, f"cubic {cub.e_avg:.4f} (reference {FREY_CUBIC}), min={best.method}")
