"""Leave-one-out harness, parameter sweeps, and convergence-rate estimation."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    PointCloud,
    local_fill_distance,
    nearest,
    random_unitary_embed,
    sample_sphere,
    spacing_scale,
    write_table,
)
from .embedding import laplacian_eigenmaps, unisolvency_rank
from .inverse import (
    TAIL_LINEAR,
    TAIL_NONE,
    InterpolationError,
    NeighborhoodPolicy,
    _fit,
    _predict,
    _shepard_average,
    _solve_with_cond,
    _system,
)
from .kernels import _condition, cubic, gaussian, kernel_matrix

METHOD_CUBIC = "cubic"
METHOD_GAUSSIAN = "gaussian"
METHOD_SHEPARD = "shepard"

LOO_CSV_COLUMNS = ["n", "seed", "h_local", "method", "scale_multiple", "e_avg", "failures"]
COND_CSV_COLUMNS = ["parameter", "n", "h_local", "method", "cond"]

# default gaussian and shepard scale multiples of a one-dataset scale table
TABLE_SCALE_MULTIPLES = (0.5, 1.0, 2.0)

# the thread-count variables OpenBLAS reads, in the order it reads them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True, eq=False)
class LooReport:
    """Per-point and average leave-one-out reconstruction errors.

    per_point_errors has one slot per point; folds whose fit failed hold NaN
    and their indices are listed in failures. e_avg averages the successful
    folds only; valid is False when more than 1% of folds failed.

    fold_condition holds, per fold, the 1-norm condition estimate (LAPACK
    gecon) of the system that fold was solved from: its own system when it was
    refitted, and the full n-point system, shared by every fold, when the folds
    came from one factorization of it (Rippa's identity). Shepard folds, which
    solve nothing, and failed folds hold NaN.
    """

    per_point_errors: np.ndarray
    e_avg: float
    h_local: float
    method: str
    scale_multiple: float | None
    n: int
    seed: int | None
    failures: tuple
    valid: bool
    fold_condition: np.ndarray


@dataclass(frozen=True)
class SweepRow:
    n: int
    seed: int | None
    h_local: float
    method: str
    scale_multiple: float | None
    e_avg: float
    failures: int
    valid: bool  # LooReport.valid: at most 1% of the folds failed


@dataclass(frozen=True)
class CondRow:
    parameter: float | None  # swept value; None for the scale-free flat reference
    n: int
    h_local: float
    method: str
    cond: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    rows: list
    fitted_slope: float | None = None
    slope_residual: float | None = None


@dataclass(frozen=True)
class SphereConfig:
    """Synthetic-sphere pipeline: sample S^sphere_dim, rotate into R^ambient_dim,
    embed with Laplacian eigenmaps, then reconstruct by leave-one-out.

    The default affinity kernel is deliberately broad (0.25/h_local): it keeps
    the top nontrivial eigenvectors close to the sphere's linear harmonics, so
    the inverse map is smooth and near-affine. Tighter kernels distort the
    coordinates and every reconstruction method degrades sharply.
    """

    sphere_dim: int = 4
    ambient_dim: int = 10
    embed_dim: int = 5
    affinity_multiple: float = 0.25  # affinity scale = multiple / h_local of the ambient cloud
    gaussian_multiples: tuple = (0.25, 0.5, 1.0, 2.0)
    shepard_multiples: tuple = (0.25, 0.5, 1.0, 2.0)
    max_neighbors: int = NeighborhoodPolicy().max_neighbors


@dataclass(frozen=True)
class ConditioningConfig:
    """Node sets for conditioning sweeps: the first quadrant of the unit sphere
    in R^ambient_dim, matching the kernel-matrix diagnostics protocol."""

    ambient_dim: int = 5
    quadrant_only: bool = True
    seed: int = 0
    epsilon: float = 1e-2  # fixed gaussian scale for the vs_fill sweep
    n_values: tuple = (10, 20, 50, 100, 200, 500, 1000)
    n: int = 200  # fixed size for the vs_epsilon sweep
    epsilon_values: tuple = field(default_factory=lambda: tuple(np.logspace(-2.0, 1.0, 13)))


def loo_error(
    values: PointCloud,
    coords: PointCloud,
    method: str,
    scale_multiple: float | None = None,
    *,
    policy: NeighborhoodPolicy | None = None,
    seed: int | None = None,
) -> LooReport:
    """Reconstruct each point from its k = min(n-1, max_neighbors) nearest others.

    One dataset.nearest table gives every fold its nodes (all the other points when
    n-1 <= max_neighbors) and gives h_local; gaussian and shepard scales are multiples of
    1/h_local (ValueError when h_local is 0). The cubic (with the linear tail, its one solvable
    tail, so every fold needs d+2 nodes) and the gaussian (plain system) interpolate a fold's
    nodes, shepard averages their values, and a fold whose fit fails, e.g. on duplicate nodes,
    holds NaN.

    When every fold is global (k = n-1), the cubic and gaussian folds come from one pivoted LU
    of the full system M by Rippa's identity (Rippa 1999, Adv. Comput. Math. 11:193; Fasshauer
    2007, Meshfree Approximation Methods with MATLAB, ch. 17): fold j's error is
    |c_j| / |(M^-1)_jj| with c = M^-1 [X; 0], and a fold fails where (M^-1)_jj is 0, the error
    is not finite or its nodes lose unisolvency. Each fold is refitted on its own nodes when
    k < n-1, for shepard, and when the full system has duplicate nodes or is singular.

    A refitted fold is inverse._fit (fit_rbf's body, one in-place getrf/gecon/getrs) and
    inverse._predict (eval_rbf's formula) at the left-out point from the table's own distances.
    The report carries each fold's condition estimate.

    Refitted cubic and gaussian folds run in w contiguous chunks, one per thread, where w is the
    CPU count divided by the BLAS thread count read from OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS (the first positive one), and w = 1, the serial loop, when none is set, since
    OpenBLAS then already uses every core. Pin OPENBLAS_NUM_THREADS=1 to run folds in parallel.
    Shepard folds always run inline. Each fold does the same arithmetic on any thread, so the
    report does not depend on w, bit for bit, except where gecon's estimate varies in the last
    bit between any two runs (fold systems above about 300 nodes; see RbfModel).
    """
    policy = policy if policy is not None else NeighborhoodPolicy()
    if values.n != coords.n:
        raise ValueError("values and coords must have the same point count")
    n, d = coords.n, coords.dim
    if n < 3:
        raise ValueError("leave-one-out needs at least 3 points")
    k = min(n - 1, policy.max_neighbors)
    if method == METHOD_CUBIC and k < d + 2:
        raise ValueError(f"cubic with linear tail needs d+2 = {d + 2} nodes per fold (n >= d+3, max_neighbors >= d+2)")
    idx, dist = nearest(coords.points, coords.points, k, exclude_self=True)
    h = float(dist.min(axis=1).mean())
    if method in (METHOD_GAUSSIAN, METHOD_SHEPARD):
        if scale_multiple is None or scale_multiple <= 0:
            raise ValueError(f"{method} needs a positive scale multiple of 1/h_local")
        epsilon = spacing_scale(scale_multiple, h)
        spec, fit_tail = gaussian(epsilon), TAIL_NONE
    elif method == METHOD_CUBIC:
        spec, fit_tail = cubic(), TAIL_LINEAR
    else:
        raise ValueError(f"unknown method {method!r}")

    errors = None
    if method != METHOD_SHEPARD and k == n - 1:
        try:
            errors, conds, failures = _global_folds(coords.points, values.points, spec, fit_tail)
        except InterpolationError:
            pass  # duplicate nodes or a singular full system: every fold is refitted below
    if errors is None:
        errors, conds = np.full(n, np.nan), np.full(n, np.nan)

        def refit(folds) -> list:
            """Fill the folds' slots of errors and conds; return the folds that failed."""
            failed = []
            for j in folds:
                try:
                    if method == METHOD_SHEPARD:
                        pred = _shepard_average(dist[j], values.points[idx[j]], epsilon)
                    else:
                        model = _fit(coords.points[idx[j]], values.points[idx[j]], spec, fit_tail)
                        conds[j] = model.condition
                        pred = _predict(model, dist[j : j + 1], coords.points[j : j + 1])[0]
                    errors[j] = np.linalg.norm(values.points[j] - pred)
                except InterpolationError:
                    failed.append(j)
            return failed

        # shepard folds factor nothing and hold the GIL: threads would only add switching
        failures = _run_chunked(refit, n, 1 if method == METHOD_SHEPARD else _fold_workers())
    ok = np.isfinite(errors)
    e_avg = float(errors[ok].mean()) if np.any(ok) else float("nan")
    return LooReport(
        per_point_errors=errors,
        e_avg=e_avg,
        h_local=h,
        method=method,
        scale_multiple=scale_multiple,
        n=n,
        seed=seed,
        failures=tuple(failures),
        valid=len(failures) <= 0.01 * n,
        fold_condition=conds,
    )


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fold_workers() -> int:
    """Threads for refitted folds: _cpu_count() divided by the BLAS thread count, the first positive
    integer among BLAS_THREAD_VARS. With none set OpenBLAS already runs on every core, so the folds
    run serially (1).
    """
    for var in BLAS_THREAD_VARS:
        try:
            blas_threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas_threads > 0:
            return max(1, _cpu_count() // blas_threads)
    return 1


def _run_chunked(run, n: int, workers: int) -> list:
    """run(folds) over range(n) split into `workers` contiguous chunks, each returning a list;
    the lists joined in chunk order.

    The calling thread runs chunk 0 and a pool of workers - 1 threads, closed before return, the
    rest; with one worker the whole range runs inline and no thread starts. The folds' LAPACK
    calls release the GIL, so chunks overlap there.
    """
    workers = min(workers, n)
    bounds = [n * i // workers for i in range(workers + 1)]
    chunks = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    if workers == 1:
        return run(chunks[0])
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(run, c) for c in chunks[1:]]
        first = run(chunks[0])
        return first + [j for future in rest for j in future.result()]


def _global_folds(y: np.ndarray, x: np.ndarray, spec, tail: str):
    """Every leave-one-out fold of a global fit from one factorization of the full system M.

    Rippa's identity: with c = M^-1 [X; 0], fold j's residual x_j - s_j(y_j) is
    c_j / (M^-1)_jj, so one solve against [X; 0 | I[:, :n]] gives every fold. A fold is a
    failure where (M^-1)_jj is 0 (its system is singular), where the error is not finite, and,
    with the linear tail, where its n-1 nodes fail unisolvency_rank. Returns the errors, each
    fold's condition estimate (M's, NaN where the fold failed) and the failed folds. Raises what
    fit_rbf raises on the full node set (duplicates, a singular system, lost unisolvency).
    """
    n = y.shape[0]
    m = _system(y, spec, tail)
    rhs = np.zeros((m.shape[0], x.shape[1] + n))
    rhs[:n, : x.shape[1]] = x
    rhs[:n, x.shape[1] :] = np.eye(n)
    sol, cond = _solve_with_cond(m, rhs)
    diag = np.abs(np.diagonal(sol[:n, x.shape[1] :]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        errors = np.linalg.norm(sol[:n, : x.shape[1]], axis=1) / diag
    failed = ~np.isfinite(errors)
    if tail == TAIL_LINEAR:
        failed |= ~_folds_unisolvent(y)
    errors[failed] = np.nan
    conds = np.where(failed, np.nan, cond)
    return errors, conds, np.flatnonzero(failed).tolist()


def _folds_unisolvent(y: np.ndarray) -> np.ndarray:
    """Whether each fold's nodes (y without row j) pass unisolvency_rank, calling it only on the
    folds a bound cannot clear.

    With P = [1; y^T] = U S V^T, dropping column j leaves sigma_min^2 >= s_min^2 (1 - h_j), where
    h_j = |V^T e_j|^2 is the leverage of node j (1 exactly when the fold loses rank), and
    sigma_max <= s_max. A fold is cleared when its bound exceeds four times unisolvency_rank's
    threshold max(d+1, n-1) sigma_max eps and 1 - h_j > 1e-8, far above the rounding in h_j.
    """
    n, d = y.shape
    _, s, vt = np.linalg.svd(np.vstack([np.ones(n), y.T]), full_matrices=False)
    room = 1.0 - np.sum(vt * vt, axis=0)
    tol = max(d + 1, n) * s[0] * np.finfo(float).eps
    ok = (room > 1e-8) & (s[-1] ** 2 * room > (4.0 * tol) ** 2)
    for j in np.flatnonzero(~ok):
        ok[j] = unisolvency_rank(np.delete(y, j, axis=0)) == d + 1
    return ok


def sphere_pipeline(n: int, config: SphereConfig, seed: int):
    """Sample, rotate, and embed one synthetic dataset; returns (ambient cloud, embedding)."""
    sphere = sample_sphere(n, config.sphere_dim, seed=seed)
    ambient = random_unitary_embed(sphere, config.ambient_dim, seed=seed + 1)
    spec = gaussian(spacing_scale(config.affinity_multiple, local_fill_distance(ambient)))
    emb = laplacian_eigenmaps(ambient, spec, d=config.embed_dim)
    return ambient, emb


def method_grid(config: SphereConfig):
    """(method, scale_multiple) pairs a sweep evaluates, cubic first."""
    return _grid(config.gaussian_multiples, config.shepard_multiples)


def _grid(gaussian_multiples, shepard_multiples) -> list:
    gaussians = [(METHOD_GAUSSIAN, m) for m in gaussian_multiples]
    return [(METHOD_CUBIC, None)] + gaussians + [(METHOD_SHEPARD, m) for m in shepard_multiples]


def loglog_slope(x, y):
    """Least-squares slope of log y against log x, with the RMS fit residual."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((slope * lx + intercept - ly) ** 2)))
    return float(slope), resid


def convergence_sweep(n_values, config: SphereConfig = SphereConfig(), seeds=(0,)) -> SweepResult:
    """Run the sphere pipeline over a grid of sample counts and seeds.

    Each (n, seed, method, scale) gives one row pairing the coordinate-domain
    h_local with the leave-one-out average error. The slope of log e_avg
    against log h_local is fitted on the valid cubic rows once they cover at
    least three distinct n values.
    """
    n_values = list(n_values)
    if n_values != sorted(n_values) or len(set(n_values)) != len(n_values):
        raise ValueError("n_values must be strictly increasing")
    if n_values[0] < config.embed_dim + 3:
        raise ValueError(f"every n must be >= embed_dim+3 = {config.embed_dim + 3}")
    policy = NeighborhoodPolicy(max_neighbors=config.max_neighbors)
    rows = []
    for n in n_values:
        for seed in seeds:
            ambient, emb = sphere_pipeline(n, config, seed)
            coords = PointCloud(emb.coords)
            for method, mult in method_grid(config):
                # h_local is the coordinate-domain spacing: interpolation
                # happens there, and it is what the scale multiples divide
                rep = loo_error(ambient, coords, method, mult, policy=policy, seed=seed)
                rows.append(
                    SweepRow(
                        n=n,
                        seed=seed,
                        h_local=rep.h_local,
                        method=method,
                        scale_multiple=mult,
                        e_avg=rep.e_avg,
                        failures=len(rep.failures),
                        valid=rep.valid,
                    )
                )
    slope = resid = None
    cubic_rows = [r for r in rows if r.method == METHOD_CUBIC and r.valid and np.isfinite(r.e_avg)]
    if len({r.n for r in cubic_rows}) >= 3:
        slope, resid = loglog_slope([r.h_local for r in cubic_rows], [r.e_avg for r in cubic_rows])
    return SweepResult(rows=rows, fitted_slope=slope, slope_residual=resid)


def conditioning_sweep(mode: str, config: ConditioningConfig = ConditioningConfig()) -> SweepResult:
    """Condition numbers of the interpolation matrix on quadrant-sphere nodes.

    vs_fill sweeps the sample count at a fixed gaussian scale, recording
    cond(K) against h_local for the gaussian and the cubic. vs_epsilon fixes
    one node set and sweeps the gaussian scale; the cubic is scale-free, so it
    contributes a single flat reference row. Each matrix goes to kernels._condition
    as it was assembled (its view .T), so the sweep holds one matrix at a time.
    Raises ValueError on an empty sweep (no n_values, or no epsilon_values) before sampling.
    """
    if config.ambient_dim < 2:
        raise ValueError("ambient_dim must be >= 2")
    if mode not in ("vs_fill", "vs_epsilon"):
        raise ValueError(f"unknown mode {mode!r}; expected vs_fill or vs_epsilon")
    swept = "n_values" if mode == "vs_fill" else "epsilon_values"
    if len(getattr(config, swept)) == 0:
        raise ValueError(f"empty {mode} sweep: no {swept}")
    sphere_dim = config.ambient_dim - 1

    def cond(spec, cloud):
        return _condition(kernel_matrix(spec, cloud).entries.T)

    rows = []
    if mode == "vs_fill":
        for n in sorted(config.n_values):
            cloud = sample_sphere(n, sphere_dim, config.quadrant_only, config.seed)
            h = local_fill_distance(cloud)
            for name, spec in ((METHOD_GAUSSIAN, gaussian(config.epsilon)), (METHOD_CUBIC, cubic())):
                rows.append(CondRow(parameter=float(n), n=n, h_local=h, method=name, cond=cond(spec, cloud)))
    else:
        cloud = sample_sphere(config.n, sphere_dim, config.quadrant_only, config.seed)
        h = local_fill_distance(cloud)
        for eps in sorted(config.epsilon_values):
            cond_eps = cond(gaussian(eps), cloud)
            rows.append(CondRow(parameter=float(eps), n=config.n, h_local=h, method=METHOD_GAUSSIAN, cond=cond_eps))
        rows.append(CondRow(parameter=None, n=config.n, h_local=h, method=METHOD_CUBIC, cond=cond(cubic(), cloud)))
    return SweepResult(rows=rows)


@dataclass(frozen=True)
class TableRow:
    method: str
    scale_multiple: float | None
    e_avg: float
    failures: int
    is_min: bool


def scale_table(
    values: PointCloud,
    coords: PointCloud,
    gaussian_multiples=TABLE_SCALE_MULTIPLES,
    shepard_multiples=TABLE_SCALE_MULTIPLES,
    policy: NeighborhoodPolicy | None = None,
) -> list:
    """Leave-one-out error for the cubic and every gaussian/shepard scale on one dataset,
    with the lowest entry marked."""
    entries = []
    for method, mult in _grid(gaussian_multiples, shepard_multiples):
        rep = loo_error(values, coords, method, mult, policy=policy)
        entries.append((method, mult, rep.e_avg, len(rep.failures)))
    finite = [e for _, _, e, _ in entries if np.isfinite(e)]
    best = min(finite) if finite else float("nan")
    return [TableRow(method, mult, e, fails, bool(np.isfinite(e) and e == best)) for method, mult, e, fails in entries]


def sweep_to_csv(result: SweepResult, path) -> None:
    """LOO sweep rows with the fixed schema n, seed, h_local, method, scale_multiple, e_avg, failures."""
    write_table(
        path,
        LOO_CSV_COLUMNS,
        [[r.n, r.seed, r.h_local, r.method, r.scale_multiple, r.e_avg, r.failures] for r in result.rows],
    )


def conditioning_to_csv(result: SweepResult, path) -> None:
    """Conditioning rows with the fixed schema parameter, n, h_local, method, cond."""
    write_table(path, COND_CSV_COLUMNS, [[r.parameter, r.n, r.h_local, r.method, r.cond] for r in result.rows])


def table_to_csv(rows, path, dataset: str | None = None) -> None:
    """Scale-table rows; the is_min column marks the lowest error per dataset."""
    write_table(
        path,
        ["dataset", "method", "scale_multiple", "e_avg", "failures", "is_min"],
        [[dataset, r.method, r.scale_multiple, r.e_avg, r.failures, int(r.is_min)] for r in rows],
    )


def median_rows(rows):
    """Median e_avg over seeds per (n, method, scale_multiple), sorted by n."""
    groups = {}
    for r in rows:
        groups.setdefault((r.n, r.method, r.scale_multiple), []).append(r.e_avg)
    out = []
    for (n, method, mult), vals in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or 0.0)):
        finite = [v for v in vals if np.isfinite(v)]
        med = float(np.median(finite)) if finite else float("nan")
        out.append({"n": n, "method": method, "scale_multiple": mult, "median_e_avg": med, "seeds": len(vals)})
    return out
