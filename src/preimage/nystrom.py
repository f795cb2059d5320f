"""Nystrom extension of normalized-kernel eigenvectors, its rescaled-RBF
reformulation, and discontinuity diagnostics under kernel sparsification."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import PointCloud, _row_blocks, write_table
from .embedding import Embedding
from .inverse import TAIL_NONE, eval_rbf, fit_rbf
from .kernels import KernelSpec, _profile, _truncate_rows


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


def _eigenvalues(emb: Embedding, indices: list) -> np.ndarray:
    """The eigenvalues of the eigenvector indices; ValueError for no index, an index that is not an
    integer (a bool included) or outside [0, d], or a zero eigenvalue, where no extension is
    defined. Checked on Python scalars, which on one or a few entries cost less than numpy
    reductions."""
    d = len(emb.eigvals) - 1
    if not indices or any(type(i) is not int for i in indices):
        raise ValueError(f"eigenvector index must be one or more integers in [0, {d}]: {indices}")
    if min(indices) < 0 or max(indices) > d:
        raise ValueError(f"eigenvector index outside [0, {d}]: {indices}")
    lam = emb.eigvals[indices]
    for i, value in zip(indices, lam.tolist()):
        if value == 0.0:
            raise ValueError(f"eigenvalue {i} is zero; extension undefined")
    return lam


def _normalized(emb: Embedding, k: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """The normalized kernel rows k / sqrt(d(q) d), one per query row of k: the part of the
    extension that every eigenvector shares."""
    return k / np.sqrt(dq[:, None] * emb.degrees)


def _extension(emb: Embedding, knorm: np.ndarray, indices: list, lam: np.ndarray) -> np.ndarray:
    """The one extension formula on normalized rows, knorm @ phi[:, indices] / lambda: one row per
    row of knorm, one column per index."""
    return knorm @ emb.eigvecs[:, indices] / lam


def nystrom_extend(emb: Embedding, cloud: PointCloud | None, spec: KernelSpec | None, query, l) -> ExtensionResult:
    """Extend eigenvector l to arbitrary queries by the normalized-kernel sum
    (1/lambda_l) sum_j k(query, x_j) / sqrt(d(query) d_j) * phi_l(x_j).

    query is one point or an (m, dim) block of points, taken one row block at a time
    (dataset._row_blocks), and l one index or a sequence of them, each an integer in [0, d]; see
    ExtensionResult for the shapes returned. Raises ZeroDegreeError when a query has no kernel
    mass on the training set (for a block, naming the first such row); a query with a NaN
    coordinate extends to NaN.

    The normalized row k(query, .) / sqrt(d(query) d) is the same for every eigenvector, so a
    single query keeps its row and degree in emb's query slot (see Embedding): the next single
    query with the same bytes, against the same cloud object and an equal spec, computes only the
    product with the eigenvector, with the same bits. The slot treats cloud and emb as fixed after
    embedding, as emb.degrees already does: changing cloud.points or emb's arrays in place later
    leaves a stale row there. Blocks of queries do not use it.
    """
    cloud, spec = _resolve(emb, cloud, spec)
    q = np.asarray(query, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != cloud.dim:
        raise ValueError(f"query must be a point in R^{cloud.dim} or an (m, {cloud.dim}) block of points")
    ls = np.asarray(l)
    indices = ls.ravel().tolist()
    lam = _eigenvalues(emb, indices)
    # cdist distances are never negative, so they go to the kernel profile unchecked
    if q.ndim == 1:
        key = q.tobytes()
        slot = emb._query_slot  # read once: another thread may replace it meanwhile
        if slot is not None and slot[0] is cloud and slot[1] == spec and slot[2] == key:
            knorm, dq = slot[3], slot[4]
        else:
            k = _profile(spec, cdist(q[None, :], cloud.points))
            dq = k.sum(axis=1)
            if dq[0] <= 0.0:
                raise ZeroDegreeError(_ZERO_DEGREE)
            knorm = _normalized(emb, k, dq)
            object.__setattr__(emb, "_query_slot", (cloud, spec, key, knorm, dq))
        value = _extension(emb, knorm, indices, lam)[0]
        return ExtensionResult(float(value[0]) if ls.ndim == 0 else value, float(dq[0]))
    values, degrees = np.empty((len(q), len(indices))), np.empty(len(q))
    for rows in _row_blocks(len(q), cloud.n):
        k = _profile(spec, cdist(q[rows], cloud.points))
        dq = k.sum(axis=1)
        zero = np.flatnonzero(dq <= 0.0)
        if zero.size:
            raise ZeroDegreeError(f"{_ZERO_DEGREE} row {rows.start + zero[0]}")
        values[rows], degrees[rows] = _extension(emb, _normalized(emb, k, dq), indices, lam), dq
    return ExtensionResult(values[:, 0] if ls.ndim == 0 else values, degrees)


def nystrom_via_rbf(emb: Embedding, cloud: PointCloud | None, spec: KernelSpec | None, query, l: int) -> ExtensionResult:
    """Same extension through the plain-kernel interpolation route: fit the
    kernel system to sqrt(D) phi_l, evaluate, and rescale by 1/sqrt(d(query)).

    Takes one point and one l. Agrees with nystrom_extend whenever the kernel
    matrix is nonsingular.
    """
    if np.ndim(l) != 0:
        raise ValueError(f"eigenvector index must be a single integer, got {l!r}")
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


def _scan_rows(emb: Embedding, k: np.ndarray, indices: list, lam: np.ndarray):
    """The extension of eigenvector indices[0] from each row of k, and which rows have zero degree.
    Those rows get NaN: an infinite degree scales them to 0 instead of dividing by 0."""
    dq = k.sum(axis=1)
    zero = dq <= 0.0
    values = _extension(emb, _normalized(emb, k, np.where(zero, np.inf, dq)), indices, lam)[:, 0]
    values[zero] = np.nan
    return values, zero


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
    indices = [l]
    lam = _eigenvalues(emb, indices)
    ts = np.linspace(0.0, 1.0, steps)
    queries = a[None, :] + ts[:, None] * (b - a)[None, :]
    full, sparse = np.empty(steps), np.empty(steps)
    zero = {"full": np.empty(steps, dtype=bool), "sparse": np.empty(steps, dtype=bool)}
    for rows in _row_blocks(steps, cloud.n):
        kall = _profile(spec, cdist(queries[rows], cloud.points))
        full[rows], zero["full"][rows] = _scan_rows(emb, kall, indices, lam)
        sparse[rows], zero["sparse"][rows] = _scan_rows(emb, _truncate_rows(kall, threshold, knn), indices, lam)
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
