"""Nystrom extension of normalized-kernel eigenvectors, its rescaled-RBF
reformulation, and discontinuity diagnostics under kernel sparsification."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import PointCloud, write_table
from .embedding import Embedding
from .inverse import TAIL_NONE, eval_rbf, fit_rbf
from .kernels import KernelSpec, _truncate_rows, eval_kernel


class ZeroDegreeError(ValueError):
    """The query point has no kernel mass on the training set."""


_ZERO_DEGREE = "zero degree at query"


@dataclass(frozen=True, eq=False)
class ExtensionResult:
    """Extended values and query degrees: floats for one point, arrays for a block.

    value has one entry per query row of a block and one per eigenvector of a
    sequence l, in that order; degree_at_query has one per query row.
    """

    value: float | np.ndarray
    degree_at_query: float | np.ndarray


@dataclass(frozen=True, eq=False)
class ScanProfile:
    """Extension values along a segment, with and without query-side sparsification."""

    ts: np.ndarray
    values_full: np.ndarray
    values_sparse: np.ndarray
    delta_max_full: float
    delta_max_sparse: float
    failures: tuple
    diagnostic_only: bool = False


def _resolve(emb: Embedding, cloud, spec):
    cloud = cloud if cloud is not None else emb.source
    spec = spec if spec is not None else emb.spec
    if cloud is None or spec is None:
        raise ValueError("embedding carries no source/spec; pass cloud and spec explicitly")
    return cloud, spec


def _extend_rows(emb: Embedding, kvecs: np.ndarray, ls):
    """Extend eigenvectors ls from query-kernel vectors, one query per row of kvecs.

    Returns the values, one row per query and one column per entry of ls, and
    the query degrees; a row whose degree is not positive has no extension
    and gets NaN. Every index must lie in [0, d].
    """
    ls = np.asarray(ls)
    # checked on a list: two numpy reductions would add about 4% to a scalar extension
    indices = ls.tolist()
    if min(indices) < 0 or max(indices) >= len(emb.eigvals):
        raise ValueError(f"eigenvector index outside [0, {len(emb.eigvals) - 1}]: {indices}")
    lam = emb.eigvals[ls]
    if np.any(lam == 0.0):
        raise ValueError(f"eigenvalue {ls[lam == 0.0][0]} is zero; extension undefined")
    dq = kvecs.sum(axis=1)
    zero = dq <= 0.0
    # an infinite degree scales those rows to 0 instead of dividing by 0
    values = (kvecs / np.sqrt(np.where(zero, np.inf, dq)[:, None] * emb.degrees)) @ emb.eigvecs[:, ls] / lam
    values[zero] = np.nan
    return values, dq


def nystrom_extend(emb: Embedding, cloud: PointCloud | None, spec: KernelSpec | None, query, l) -> ExtensionResult:
    """Extend eigenvector l to arbitrary queries by the normalized-kernel sum
    (1/lambda_l) sum_j k(query, x_j) / sqrt(d(query) d_j) * phi_l(x_j).

    query is one point or an (m, dim) block of points, and l one index or a
    sequence of them, each in [0, d]; see ExtensionResult for the shapes
    returned. Raises ZeroDegreeError when any query has no kernel mass on the
    training set.
    """
    cloud, spec = _resolve(emb, cloud, spec)
    q = np.asarray(query, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != cloud.dim:
        raise ValueError(f"query must be a point in R^{cloud.dim} or an (m, {cloud.dim}) block of points")
    values, dq = _extend_rows(emb, eval_kernel(spec, cdist(np.atleast_2d(q), cloud.points)), np.atleast_1d(l))
    zero = np.flatnonzero(dq <= 0.0)
    if zero.size:
        raise ZeroDegreeError(_ZERO_DEGREE if q.ndim == 1 else f"{_ZERO_DEGREE} row {zero[0]}")
    values = values.reshape(q.shape[:-1] + np.shape(l))
    return ExtensionResult(float(values) if values.ndim == 0 else values, float(dq[0]) if q.ndim == 1 else dq)


def nystrom_via_rbf(emb: Embedding, cloud: PointCloud | None, spec: KernelSpec | None, query, l: int) -> ExtensionResult:
    """Same extension through the plain-kernel interpolation route: fit the
    kernel system to sqrt(D) phi_l, evaluate, and rescale by 1/sqrt(d(query)).

    Takes one point and one l. Agrees with nystrom_extend whenever the kernel
    matrix is nonsingular.
    """
    cloud, spec = _resolve(emb, cloud, spec)
    dq = nystrom_extend(emb, cloud, spec, query, l).degree_at_query
    rescaled = np.sqrt(emb.degrees) * emb.eigvecs[:, l]
    model = fit_rbf(cloud, PointCloud(rescaled[:, None]), spec, tail=TAIL_NONE)
    value = float(eval_rbf(model, np.asarray(query, dtype=float))[0]) / np.sqrt(dq)
    return ExtensionResult(value, dq)


def _delta_max(values: np.ndarray) -> float:
    """Largest jump between consecutive finite profile values."""
    a, b = values[:-1], values[1:]
    ok = np.isfinite(a) & np.isfinite(b)
    if not np.any(ok):
        return float("nan")
    return float(np.abs(b[ok] - a[ok]).max())


def discontinuity_scan(
    emb: Embedding,
    cloud: PointCloud | None,
    spec: KernelSpec | None,
    segment,
    steps: int,
    threshold: float | None = None,
    knn: int | None = None,
    l: int = 1,
) -> ScanProfile:
    """Profile the extension of eigenvector l along a segment, comparing the
    untouched query-side kernel vector with a sparsified one.

    Thresholding zeroes query-kernel entries below the cutoff (the same rule a
    thresholded training matrix applies), which makes both k(query, .) and the
    query degree discontinuous in the query. knn truncation keeps the knn
    largest entries; that extension is poorly defined for new points, so the
    profile is flagged diagnostic_only. Zero-degree queries are recorded as
    per-point failures and the scan continues. segment is a pair of points
    in R^cloud.dim.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if (threshold is None) == (knn is None):
        raise ValueError("specify exactly one of threshold, knn")
    cloud, spec = _resolve(emb, cloud, spec)
    a, b = (np.asarray(p, dtype=float) for p in segment)
    if a.shape != (cloud.dim,) or b.shape != (cloud.dim,):
        raise ValueError(f"segment endpoints must be points in R^{cloud.dim}, got shapes {a.shape} and {b.shape}")
    ts = np.linspace(0.0, 1.0, steps)
    queries = a[None, :] + ts[:, None] * (b - a)[None, :]
    kall = eval_kernel(spec, cdist(queries, cloud.points))
    full, dq_full = _extend_rows(emb, kall, [l])
    sparse, dq_sparse = _extend_rows(emb, _truncate_rows(kall, threshold, knn), [l])
    full, sparse = full[:, 0], sparse[:, 0]
    zero = {"full": dq_full <= 0.0, "sparse": dq_sparse <= 0.0}
    failures = [
        (int(i), kind, _ZERO_DEGREE)
        for i in np.flatnonzero(zero["full"] | zero["sparse"])
        for kind in ("full", "sparse")
        if zero[kind][i]
    ]
    return ScanProfile(
        ts=ts,
        values_full=full,
        values_sparse=sparse,
        delta_max_full=_delta_max(full),
        delta_max_sparse=_delta_max(sparse),
        failures=tuple(failures),
        diagnostic_only=knn is not None,
    )


def scan_to_csv(profile: ScanProfile, path) -> None:
    """Emit a scan as CSV with columns step, t, value_full, value_sparse."""
    rows = zip(range(len(profile.ts)), profile.ts, profile.values_full, profile.values_sparse)
    write_table(path, ["step", "t", "value_full", "value_sparse"], rows)
