"""Nystrom extension of normalized-kernel eigenvectors, its rescaled-RBF
reformulation, and discontinuity diagnostics under kernel sparsification."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import PointCloud, write_table
from .embedding import Embedding
from .inverse import TAIL_NONE, eval_rbf, fit_rbf
from .kernels import KernelSpec, _truncate_rows, eval_kernel

NYSTROM_DIRECT = "nystrom_direct"
RBF_FORM = "rbf_form"


class ZeroDegreeError(ValueError):
    """The query point has no kernel mass on the training set."""


_ZERO_DEGREE = "zero degree at query"


@dataclass(frozen=True)
class ExtensionResult:
    value: float
    degree_at_query: float
    path: str


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


def _extend_rows(emb: Embedding, kvecs: np.ndarray, l: int):
    """Extend eigenvector l from query-kernel vectors, one per row of kvecs.

    Returns the values and the query degrees; a row whose degree is not
    positive has no extension and gets NaN.
    """
    lam = float(emb.eigvals[l])
    if lam == 0.0:
        raise ValueError(f"eigenvalue {l} is zero; extension undefined")
    dq = kvecs.sum(axis=1)
    zero = dq <= 0.0
    # an infinite degree scales those rows to 0 instead of dividing by 0
    values = (kvecs / np.sqrt(np.where(zero, np.inf, dq)[:, None] * emb.degrees)) @ emb.eigvecs[:, l] / lam
    values[zero] = np.nan
    return values, dq


def _extend_query(emb: Embedding, cloud: PointCloud, spec: KernelSpec, query, l: int) -> ExtensionResult:
    q = np.asarray(query, dtype=float)
    if q.ndim != 1 or q.shape[0] != cloud.dim:
        raise ValueError(f"query must be a single point in R^{cloud.dim}")
    kvec = eval_kernel(spec, np.linalg.norm(cloud.points - q[None, :], axis=1))
    values, dq = _extend_rows(emb, kvec[None, :], l)
    if dq[0] <= 0.0:
        raise ZeroDegreeError(_ZERO_DEGREE)
    return ExtensionResult(float(values[0]), float(dq[0]), NYSTROM_DIRECT)


def nystrom_extend(emb: Embedding, cloud: PointCloud | None, spec: KernelSpec | None, query, l: int) -> ExtensionResult:
    """Extend eigenvector l to an arbitrary query by the normalized-kernel sum
    (1/lambda_l) sum_j k(query, x_j) / sqrt(d(query) d_j) * phi_l(x_j)."""
    cloud, spec = _resolve(emb, cloud, spec)
    return _extend_query(emb, cloud, spec, query, l)


def nystrom_via_rbf(emb: Embedding, cloud: PointCloud | None, spec: KernelSpec | None, query, l: int) -> ExtensionResult:
    """Same extension through the plain-kernel interpolation route: fit the
    kernel system to sqrt(D) phi_l, evaluate, and rescale by 1/sqrt(d(query)).

    Agrees with nystrom_extend whenever the kernel matrix is nonsingular.
    """
    cloud, spec = _resolve(emb, cloud, spec)
    dq = _extend_query(emb, cloud, spec, query, l).degree_at_query
    rescaled = np.sqrt(emb.degrees) * emb.eigvecs[:, l]
    model = fit_rbf(cloud, PointCloud(rescaled[:, None]), spec, tail=TAIL_NONE)
    value = float(eval_rbf(model, np.asarray(query, dtype=float))[0]) / np.sqrt(dq)
    return ExtensionResult(value, dq, RBF_FORM)


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
    per-point failures and the scan continues.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if (threshold is None) == (knn is None):
        raise ValueError("specify exactly one of threshold, knn")
    cloud, spec = _resolve(emb, cloud, spec)
    a, b = (np.asarray(p, dtype=float) for p in segment)
    ts = np.linspace(0.0, 1.0, steps)
    queries = a[None, :] + ts[:, None] * (b - a)[None, :]
    kall = eval_kernel(spec, cdist(queries, cloud.points))
    full, dq_full = _extend_rows(emb, kall, l)
    sparse, dq_sparse = _extend_rows(emb, _truncate_rows(kall, threshold, knn), l)
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
