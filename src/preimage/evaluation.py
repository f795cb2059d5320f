"""Leave-one-out harness, parameter sweeps, and convergence-rate estimation."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.spatial.distance import cdist

from . import dataset
from .dataset import (
    PointCloud,
    _paired,
    _row_blocks,
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
    SingularSystemError,
    _border,
    _factor,
    _lagrange_predict,
    _shepard_average,
    _system,
)
from .kernels import _condition, _is_real, _profile, cubic, gaussian, kernel_matrix

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

    per_point_errors has one slot per point; a fold failed exactly where its
    error is not finite, and then holds NaN and is listed in failures. e_avg
    averages the other folds only; valid is False when more than 1% failed.

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


@dataclass(frozen=True, eq=False)
class LooFolds:
    """Every leave-one-out fold of some (method, scale_multiple) pairs on one dataset (loo_folds).

    values, coords and policy are what the folds were computed from: loo_error takes them only with
    the same two PointCloud objects and an equal policy. pairs maps each (method, scale_multiple)
    to its per-fold errors and condition estimates, as computed: loo_error applies the failed-fold
    rule to a copy.
    """

    values: PointCloud
    coords: PointCloud
    policy: NeighborhoodPolicy
    h_local: float
    pairs: dict


def loo_error(
    values: PointCloud,
    coords: PointCloud,
    method: str,
    scale_multiple: float | None = None,
    *,
    policy: NeighborhoodPolicy | None = None,
    seed: int | None = None,
    folds: LooFolds | None = None,
) -> LooReport:
    """Reconstruct each point from its k = min(n-1, max_neighbors) nearest others.

    The folds come from loo_folds: the one-pair call loo_folds(values, coords, [(method,
    scale_multiple)], policy=policy), or folds computed before for several pairs, which must hold
    this pair and come from these very values and coords objects and an equal policy (ValueError
    otherwise). A sweep over a (method, scale) grid computes its folds once and calls loo_error once
    per pair; every report field is bitwise the one-pair call's.

    Failed folds have one rule on every path: a fold failed exactly where its error is not finite.
    Those errors and condition estimates become NaN, and failures, valid and e_avg follow from them.
    See loo_folds for how each fold is computed.
    """
    policy = policy if policy is not None else NeighborhoodPolicy()
    if folds is None:
        folds = loo_folds(values, coords, [(method, scale_multiple)], policy=policy)
    elif folds.values is not values or folds.coords is not coords or folds.policy != policy:
        raise ValueError("folds were computed from other point clouds or another neighbourhood policy")
    if (method, scale_multiple) not in folds.pairs:
        raise ValueError(f"folds hold no ({method!r}, {scale_multiple!r}) pair")
    errors, conds = (a.copy() for a in folds.pairs[(method, scale_multiple)])
    failed = ~np.isfinite(errors)  # the one failed-fold rule
    errors[failed] = conds[failed] = np.nan
    n = coords.n
    failures = tuple(np.flatnonzero(failed).tolist())
    e_avg = float(errors[~failed].mean()) if len(failures) < n else float("nan")
    return LooReport(per_point_errors=errors, e_avg=e_avg, h_local=folds.h_local, method=method,
                     scale_multiple=scale_multiple, n=n, seed=seed, failures=failures,
                     valid=len(failures) <= 0.01 * n, fold_condition=conds)


def loo_folds(values: PointCloud, coords: PointCloud, pairs, *, policy: NeighborhoodPolicy | None = None) -> LooFolds:
    """Every leave-one-out fold of each (method, scale_multiple) pair on one dataset, in one pass.

    Every pair is checked before any work: the cubic takes no multiple and the gaussian and shepard
    a finite positive one (_check_multiple), and the cubic (with the linear tail, its one solvable
    tail) needs d+2 nodes per fold. One dataset.nearest table gives every fold of every pair its k
    nodes (all the other points when n-1 <= max_neighbors) and gives h_local; gaussian and shepard
    scales are multiples of 1/h_local (ValueError when h_local is 0). The cubic and the gaussian
    (plain system) interpolate a fold's nodes, and shepard averages their values.

    When every fold is global (k = n-1), a cubic or gaussian pair's folds come from one pivoted LU
    of the full system M, inverted in place, by Rippa's identity (Rippa 1999, Adv. Comput. Math.
    11:193; Fasshauer 2007, Meshfree Approximation Methods with MATLAB, ch. 17): fold j's error is
    |c_j| / |(M^-1)_jj| with c = M^-1 [X; 0] (see _global_folds). A pair's folds are refitted when
    k < n-1, and when its full system has duplicate nodes or is singular. Shepard folds refit
    nothing: one inverse._shepard_average call, shepard_eval's body, predicts the folds of every
    shepard pair, gathering each block of neighbour values once for all their scales, NaN where
    every weight underflowed.

    Every refitted pair goes through one pass over the folds (_refit_folds). A refitted fold j is
    inverse.fit_local_rbf on the other points at y_j, bit for bit: the same k nodes, the same
    system and the same one solve for the left-out point (inverse._lagrange_predict). Both differ
    from fit_rbf then eval_rbf on the fold's nodes by rounding only, within 64 eps cond. A fold
    whose system is singular, or whose nodes are duplicated or, with the linear tail, fail
    unisolvency_rank, keeps a NaN error.

    The refitted folds run in w contiguous chunks, one per thread (_run_chunked), where w is the
    CPU count divided by the BLAS thread count (_fold_workers), and w = 1, the serial loop, when no
    BLAS thread variable is set, since OpenBLAS then already uses every core. Pin
    OPENBLAS_NUM_THREADS=1 to run folds in parallel. Each fold does the same arithmetic on any
    thread, so the folds do not depend on w, bit for bit, except where gecon's estimate varies in
    the last bit between any two runs (fold systems above about 300 nodes; see RbfModel).
    """
    policy = policy if policy is not None else NeighborhoodPolicy()
    _paired(coords, values)
    n, d = coords.n, coords.dim
    if n < 3:
        raise ValueError("leave-one-out needs at least 3 points")
    k = min(n - 1, policy.max_neighbors)
    pairs = list(dict.fromkeys(pairs))
    for method, multiple in pairs:
        if method == METHOD_CUBIC and k < d + 2:
            raise ValueError(f"cubic with linear tail needs d+2 = {d + 2} nodes per fold (n >= d+3, max_neighbors >= d+2)")
        if method not in (METHOD_CUBIC, METHOD_GAUSSIAN, METHOD_SHEPARD):
            raise ValueError(f"unknown method {method!r}")
        _check_multiple(method, multiple)
    y, x = coords.points, values.points
    idx, dist = nearest(y, y, k, exclude_self=True)
    h = float(dist.min(axis=1).mean())
    folds, refits = {}, []
    shepard = [pair for pair in pairs if pair[0] == METHOD_SHEPARD]
    if shepard:
        specs = [gaussian(spacing_scale(multiple, h)) for _, multiple in shepard]
        for pair, avg in zip(shepard, _shepard_average(dist, idx, x, specs)):
            r = x - avg  # per row, the sqrt of one ddot: np.linalg.norm's bits
            folds[pair] = np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]), np.full(n, np.nan)
    for method, multiple in pairs:
        if method == METHOD_CUBIC:
            spec, tail = cubic(), TAIL_LINEAR
        elif method == METHOD_GAUSSIAN:
            spec, tail = gaussian(spacing_scale(multiple, h)), TAIL_NONE
        else:
            continue
        if k == n - 1:
            try:
                folds[method, multiple] = _global_folds(y, x, spec, tail)
                continue
            except InterpolationError:
                pass  # duplicate nodes or a singular full system: every fold is refitted below
        folds[method, multiple] = np.full(n, np.nan), np.full(n, np.nan)
        refits.append((spec, tail, *folds[method, multiple]))
    if refits:
        _run_chunked(lambda chunk: _refit_folds(chunk, y, x, idx, dist, refits), n, _fold_workers())
    return LooFolds(values=values, coords=coords, policy=policy, h_local=h, pairs=folds)


def _refit_folds(chunk, y: np.ndarray, x: np.ndarray, idx: np.ndarray, dist: np.ndarray, refits) -> None:
    """Refit every fold j of chunk for each (spec, tail, errors, conds) of refits, filling slot j of
    its errors and conds; a fold that fails keeps its NaN.

    Each fold is fit_local_rbf on the other points at y_j, bit for bit, sharing per fold: the
    nodes' distances (the cdist row blocks of kernels._assemble, hence its bits), the duplicate
    check (a second zero among them fails every pair) and unisolvency_rank (the linear tail's
    pairs). Each pair's system is filled from them, as inverse._system fills it, into one buffer
    the chunk reuses, and _lagrange_predict solves it for y_j from the table's distances dist[j].
    """
    k, d = idx.shape[1], y.shape[1]
    linear = any(tail == TAIL_LINEAR for _, tail, _, _ in refits)
    r = np.empty((k, k))
    system = np.empty((k + d + 1) ** 2 if linear else k * k)  # every pair's system, in turn
    blocks = _row_blocks(k, k, dataset._BLOCK_TEMPORARY)
    for j in chunk:
        nodes, node_values = y[idx[j]], x[idx[j]]
        for rows in blocks:
            cdist(nodes[rows], nodes, out=r[rows])
        if np.count_nonzero(r == 0.0) > k:
            continue
        unisolvent = linear and unisolvency_rank(nodes) == d + 1
        for spec, tail, errors, conds in refits:
            if tail == TAIL_LINEAR and not unisolvent:
                continue
            size = k + d + 1 if tail == TAIL_LINEAR else k
            m = system[: size * size].reshape(size, size)
            _profile(spec, r, out=m[:k, :k])
            if tail == TAIL_LINEAR:
                _border(m, nodes)
            try:
                pred, cond = _lagrange_predict(m, spec, tail, dist[j], y[j], node_values)
            except InterpolationError:
                continue
            res = x[j] - pred
            errors[j], conds[j] = np.sqrt(res @ res), cond


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


def _run_chunked(run, n: int, workers: int) -> None:
    """run(folds) over range(n) split into `workers` contiguous chunks; each chunk fills its own
    folds' slots and returns nothing.

    The calling thread runs chunk 0 and a pool of workers - 1 threads, closed before return, the
    rest; with one worker the whole range runs inline and no thread starts. The folds' LAPACK
    calls release the GIL, so chunks overlap there. An exception a chunk raises is raised here.
    """
    workers = min(workers, n)
    bounds = [n * i // workers for i in range(workers + 1)]
    chunks = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    if workers == 1:
        return run(chunks[0])
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = pool.map(run, chunks[1:])
        run(chunks[0])
        list(rest)  # raises what a chunk raised


def _global_folds(y: np.ndarray, x: np.ndarray, spec, tail: str):
    """Every leave-one-out fold of a global fit from one factorization of the full system M.

    Rippa's identity: with c = M^-1 [X; 0], fold j's residual x_j - s_j(y_j) is c_j / (M^-1)_jj.
    M is factored once (inverse._factor) and inverted in place by LAPACK getri, so the path holds
    one system and no n x n temporary; c = M^-1[:, :n] X (every row) and the diagonal of M^-1 give
    every fold. Returns the errors and each fold's condition estimate, M's. An error is not finite
    where (M^-1)_jj is 0 (the fold's system is singular) and NaN, with the linear tail, where the
    fold's n-1 nodes fail unisolvency_rank: loo_error counts those folds as failed. Raises what
    fit_rbf raises on the full node set (duplicates, a singular system, lost unisolvency), and
    SingularSystemError where c is not finite, which every non-finite entry of M^-1[:, :n] makes it.
    """
    n = y.shape[0]
    lu, piv, cond = _factor(_system(y, spec, tail))
    getri, getri_lwork = get_lapack_funcs(("getri", "getri_lwork"), (lu,))
    inv, _ = getri(lu, piv, lwork=int(getri_lwork(lu.shape[0])[0]), overwrite_lu=True)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite c raises below, as a solve's does
        c = inv[:, :n] @ x
    if not np.all(np.isfinite(c)):
        raise SingularSystemError("singular system")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        errors = np.linalg.norm(c[:n], axis=1) / np.abs(np.diagonal(inv)[:n])
    if tail == TAIL_LINEAR:
        errors[~_folds_unisolvent(y)] = np.nan
    return errors, np.full(n, cond)


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
    """The cubic, then one (method, multiple) pair per gaussian and shepard multiple; ValueError,
    as loo_error would raise it, on the first multiple that _check_multiple refuses, and on a
    multiple repeated within a method, which would report one pair twice."""
    pairs = [(METHOD_GAUSSIAN, m) for m in gaussian_multiples] + [(METHOD_SHEPARD, m) for m in shepard_multiples]
    for i, (method, m) in enumerate(pairs):
        _check_multiple(method, m)
        if (method, m) in pairs[:i]:
            raise ValueError(f"{method} scale multiple {m!r} is repeated")
    return [(METHOD_CUBIC, None)] + pairs


def _check_multiple(method: str, multiple) -> None:
    """ValueError unless multiple suits method: None for the scale-free cubic, and for gaussian and
    shepard, whose scale is a multiple of 1/h_local, a finite positive real number (kernels._is_real:
    not a bool or a str)."""
    if method == METHOD_CUBIC:
        if multiple is not None:
            raise ValueError(f"cubic is scale-free and takes no scale multiple, got {multiple!r}")
    elif not (_is_real(multiple) and 0 < multiple < np.inf):
        raise ValueError(f"{method} needs a finite positive scale multiple of 1/h_local")


def loglog_slope(x, y):
    """Least-squares slope of log y against log x, with the RMS fit residual."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((slope * lx + intercept - ly) ** 2)))
    return float(slope), resid


def convergence_sweep(n_values, config: SphereConfig = SphereConfig(), seeds=(0,)) -> SweepResult:
    """Run the sphere pipeline over a grid of sample counts and seeds.

    Each (n, seed, method, scale) gives one row pairing the coordinate-domain
    h_local with the leave-one-out average error: one loo_folds pass per (n, seed)
    computes every pair's folds, and one loo_error call per pair reports them. The slope of log e_avg
    against log h_local is fitted on the valid cubic rows once they cover at
    least three distinct n values. Raises ValueError on an empty sweep (no n_values, or no seeds)
    or a repeated seed before sampling.
    """
    n_values, seeds = list(n_values), list(seeds)
    for name, swept in (("n_values", n_values), ("seeds", seeds)):
        if not swept:
            raise ValueError(f"empty sphere sweep: no {name}")
    if n_values != sorted(n_values) or len(set(n_values)) != len(n_values):
        raise ValueError("n_values must be strictly increasing")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if n_values[0] < config.embed_dim + 3:
        raise ValueError(f"every n must be >= embed_dim+3 = {config.embed_dim + 3}")
    policy = NeighborhoodPolicy(max_neighbors=config.max_neighbors)
    grid = method_grid(config)
    rows = []
    for n in n_values:
        for seed in seeds:
            ambient, emb = sphere_pipeline(n, config, seed)
            coords = PointCloud(emb.coords)
            # h_local is the coordinate-domain spacing: interpolation
            # happens there, and it is what the scale multiples divide
            folds = loo_folds(ambient, coords, grid, policy=policy)
            for method, mult in grid:
                rep = loo_error(ambient, coords, method, mult, policy=policy, seed=seed, folds=folds)
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
    Raises ValueError on an empty sweep (no n_values, or no epsilon_values) or a repeated swept
    value before sampling.
    """
    if config.ambient_dim < 2:
        raise ValueError("ambient_dim must be >= 2")
    if mode not in ("vs_fill", "vs_epsilon"):
        raise ValueError(f"unknown mode {mode!r}; expected vs_fill or vs_epsilon")
    swept = "n_values" if mode == "vs_fill" else "epsilon_values"
    values = list(getattr(config, swept))
    if not values:
        raise ValueError(f"empty {mode} sweep: no {swept}")
    if len(set(values)) != len(values):
        raise ValueError(f"{swept} must be distinct")
    sphere_dim = config.ambient_dim - 1

    def cond(spec, cloud):
        return _condition(kernel_matrix(spec, cloud).T)

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
    with the lowest entry marked: one loo_folds pass, then one loo_error report per pair."""
    grid = _grid(gaussian_multiples, shepard_multiples)
    folds = loo_folds(values, coords, grid, policy=policy)
    entries = []
    for method, mult in grid:
        rep = loo_error(values, coords, method, mult, policy=policy, folds=folds)
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
