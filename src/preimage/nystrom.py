"""Nystrom extension of normalized-kernel eigenvectors, its rescaled-RBF
reformulation, and discontinuity diagnostics under kernel sparsification."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import PointCloud, _check_int, _is_int, _query, _row_blocks, write_table
from .embedding import Embedding
from .inverse import TAIL_NONE, eval_rbf, fit_rbf
from .kernels import KernelSpec, _check_sparsifier, _profile, _truncate_rows


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


def _indices(l, d: int):
    """The eigenvector indices of l (one index or a sequence of them) as a list of Python ints, and
    whether l is one index. ValueError for no index, an entry that is not an integer (dataset._is_int:
    a bool is refused also inside a sequence, where np.asarray would read True as 1) or outside
    [0, d]. Python scalars cost less than numpy reductions on one or a few entries."""
    given = np.asarray(l, dtype=object)  # each entry keeps its own type
    items = given.ravel().tolist()
    if not items or not all(map(_is_int, items)):
        raise ValueError(f"eigenvector index must be one or more integers in [0, {d}]: {items}")
    indices = [int(i) for i in items]
    if min(indices) < 0 or max(indices) > d:
        raise ValueError(f"eigenvector index outside [0, {d}]: {indices}")
    return indices, given.ndim == 0


def _index(l, d: int) -> int:
    """The one eigenvector index l in [0, d] (_indices); ValueError for a sequence of them."""
    indices, single = _indices(l, d)
    if not single:
        raise ValueError(f"eigenvector index must be a single integer, got {l!r}")
    return indices[0]


def _eigenvalues(emb: Embedding, l):
    """_indices(l, d) and their eigenvalues; ValueError also for a zero one (no extension)."""
    indices, single = _indices(l, len(emb.eigvals) - 1)
    lam = emb.eigvals[indices]
    for i, value in zip(indices, lam.tolist()):
        if value == 0.0:
            raise ValueError(f"eigenvalue {i} is zero; extension undefined")
    return indices, single, lam


def _normalized(emb: Embedding, k: np.ndarray):
    """(knorm, dq): the normalized kernel rows k / sqrt(d(q) d), one per query row of k, which every
    eigenvector shares, and the query degrees d(q), the row sums of k. A row of zero degree is
    scaled by an infinite degree instead, giving 0; callers decide what such a query means."""
    dq = k.sum(axis=1)
    return k / np.sqrt(np.where(dq <= 0.0, np.inf, dq)[:, None] * emb.degrees), dq


def _extension(emb: Embedding, knorm: np.ndarray, indices: list, lam: np.ndarray) -> np.ndarray:
    """The one extension formula on normalized rows, knorm @ phi[:, indices] / lambda: one row per
    row of knorm, one column per index."""
    return knorm @ emb.eigvecs[:, indices] / lam


def nystrom_extend(emb: Embedding, cloud: PointCloud | None, spec: KernelSpec | None, query, l) -> ExtensionResult:
    """Extend eigenvector l to arbitrary queries by the normalized-kernel sum
    (1/lambda_l) sum_j k(query, x_j) / sqrt(d(query) d_j) * phi_l(x_j).

    query is one point or an (m, dim) block of points (dataset._query), taken one row block at a
    time (dataset._row_blocks), and l one index or a sequence of them, each an int or numpy integer
    (never a bool) in [0, d]; see ExtensionResult for the shapes returned. Raises ZeroDegreeError
    when a query has no kernel mass on the training set (for a block, naming the first such row);
    a query with a NaN coordinate extends to NaN.

    The normalized row k(query, .) / sqrt(d(query) d) is the same for every eigenvector, so a
    single query keeps its row and degree in emb's query slot (see Embedding): the next single
    query with the same bytes, against the same cloud object and an equal spec, computes only the
    product with the eigenvector, with the same bits. The slot treats cloud and emb as fixed after
    embedding, as emb.degrees already does: changing cloud.points or emb's arrays in place later
    leaves a stale row there. Blocks of queries do not use it.
    """
    cloud, spec = _resolve(emb, cloud, spec)
    q, one_point = _query(query, cloud.dim)
    indices, single, lam = _eigenvalues(emb, l)
    # cdist distances are never negative, so they go to the kernel profile unchecked
    if one_point:
        key = q.tobytes()
        slot = emb._query_slot  # read once: another thread may replace it meanwhile
        if slot is not None and slot[0] is cloud and slot[1] == spec and slot[2] == key:
            knorm, dq = slot[3], slot[4]
        else:
            knorm, dq = _normalized(emb, _profile(spec, cdist(q, cloud.points)))
            if dq[0] <= 0.0:
                raise ZeroDegreeError(_ZERO_DEGREE)
            object.__setattr__(emb, "_query_slot", (cloud, spec, key, knorm, dq))
        value = _extension(emb, knorm, indices, lam)[0]
        return ExtensionResult(float(value[0]) if single else value, float(dq[0]))
    values, degrees = np.empty((len(q), len(indices))), np.empty(len(q))
    for rows in _row_blocks(len(q), cloud.n):
        knorm, degrees[rows] = _normalized(emb, _profile(spec, cdist(q[rows], cloud.points)))
        zero = np.flatnonzero(degrees[rows] <= 0.0)
        if zero.size:
            raise ZeroDegreeError(f"{_ZERO_DEGREE} row {rows.start + zero[0]}")
        values[rows] = _extension(emb, knorm, indices, lam)
    return ExtensionResult(values[:, 0] if single else values, degrees)


def nystrom_via_rbf(emb: Embedding, cloud: PointCloud | None, spec: KernelSpec | None, query, l: int) -> ExtensionResult:
    """Same extension through the plain-kernel interpolation route: fit the
    kernel system to sqrt(D) phi_l, evaluate, and rescale by 1/sqrt(d(query)).

    Takes one point (dataset._query) and one index l (_index), both checked before any kernel is
    built. Agrees with nystrom_extend whenever the kernel matrix is nonsingular.
    """
    l = _index(l, len(emb.eigvals) - 1)
    cloud, spec = _resolve(emb, cloud, spec)
    _query(query, cloud.dim, block=False)
    dq = nystrom_extend(emb, cloud, spec, query, l).degree_at_query
    rescaled = np.sqrt(emb.degrees) * emb.eigvecs[:, l]
    model = fit_rbf(cloud, PointCloud(rescaled[:, None]), spec, tail=TAIL_NONE)
    value = float(eval_rbf(model, query)[0]) / np.sqrt(dq)
    return ExtensionResult(value, dq)


def _delta_max(values: np.ndarray) -> float:
    """Largest jump between consecutive finite profile values."""
    a, b = values[:-1], values[1:]
    ok = np.isfinite(a) & np.isfinite(b)
    if not np.any(ok):
        return float("nan")
    return float(np.abs(b[ok] - a[ok]).max())


def _scan_checks(cloud: PointCloud, d: int, segment, steps: int, threshold, knn, l):
    """discontinuity_scan's checks that need no embedding, for one of cloud with eigenvectors 0..d:
    an integer steps >= 2 (dataset._is_int), the sparsifier (_check_sparsifier), two segment
    endpoints in R^cloud.dim and one eigenvector index in [0, d] (_index). Returns the endpoints as
    float arrays."""
    if _check_int("steps", steps) < 2:
        raise ValueError("steps must be >= 2")
    _check_sparsifier(threshold, knn, cloud.n)
    a, b = (np.asarray(p, dtype=float) for p in segment)
    if a.shape != (cloud.dim,) or b.shape != (cloud.dim,):
        raise ValueError(f"segment endpoints must be points in R^{cloud.dim}, got shapes {a.shape} and {b.shape}")
    _index(l, d)
    return a, b


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
    per-point failures and the scan continues. _scan_checks checks the arguments.
    """
    cloud, spec = _resolve(emb, cloud, spec)
    a, b = _scan_checks(cloud, len(emb.eigvals) - 1, segment, steps, threshold, knn, l)
    indices, _, lam = _eigenvalues(emb, l)
    ts = np.linspace(0.0, 1.0, steps)
    queries = a[None, :] + ts[:, None] * (b - a)[None, :]
    values = {"full": np.empty(steps), "sparse": np.empty(steps)}
    degrees = {"full": np.empty(steps), "sparse": np.empty(steps)}
    for rows in _row_blocks(steps, cloud.n):
        kall = _profile(spec, cdist(queries[rows], cloud.points))
        for kind in ("full", "sparse"):
            k = kall if kind == "full" else _truncate_rows(kall, threshold, knn)
            knorm, degrees[kind][rows] = _normalized(emb, k)
            values[kind][rows] = _extension(emb, knorm, indices, lam)[:, 0]
            del k, knorm  # one normalized block at a time
    zero = {kind: dq <= 0.0 for kind, dq in degrees.items()}
    for kind, v in values.items():
        v[zero[kind]] = np.nan  # a zero-degree query has no extension
    failures = tuple((int(i), kind, _ZERO_DEGREE) for i in np.flatnonzero(zero["full"] | zero["sparse"])
                     for kind in ("full", "sparse") if zero[kind][i])
    full, sparse = values["full"], values["sparse"]
    return ScanProfile(ts=ts, values_full=full, values_sparse=sparse, delta_max_full=_delta_max(full),
                       delta_max_sparse=_delta_max(sparse), failures=failures, diagnostic_only=knn is not None)


def scan_to_csv(profile: ScanProfile, path) -> None:
    """Emit a scan as CSV with columns step, t, value_full, value_sparse."""
    rows = zip(range(len(profile.ts)), profile.ts, profile.values_full, profile.values_sparse)
    write_table(path, ["step", "t", "value_full", "value_sparse"], rows)
