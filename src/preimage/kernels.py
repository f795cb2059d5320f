"""Radial kernels, kernel-matrix assembly, sparsification, and conditioning diagnostics."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .dataset import PointCloud, _top_k

GAUSSIAN = "gaussian"
RADIAL_POWER = "radial_power"
THIN_PLATE = "thin_plate"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its shape parameters.

    gaussian:      exp(-epsilon^2 r^2) with epsilon > 0
    radial_power:  r^rho with odd rho >= 1 (rho=3 is the cubic)
    thin_plate:    r^rho log r with even rho >= 2
    """

    family: str
    epsilon: float | None = None
    rho: int | None = None

    def __post_init__(self):
        if self.family == GAUSSIAN:
            if self.epsilon is None or not self.epsilon > 0:
                raise ValueError("gaussian kernel requires epsilon > 0")
            if self.rho is not None:
                raise ValueError("rho is not a gaussian parameter")
        elif self.family == RADIAL_POWER:
            if self.rho is None or self.rho < 1 or self.rho % 2 == 0:
                raise ValueError("radial_power requires odd rho >= 1")
            if self.epsilon is not None:
                raise ValueError("radial powers are scale-free; epsilon not allowed")
        elif self.family == THIN_PLATE:
            if self.rho is None or self.rho < 2 or self.rho % 2 == 1:
                raise ValueError("thin_plate requires even rho >= 2")
            if self.epsilon is not None:
                raise ValueError("thin plate splines are scale-free; epsilon not allowed")
        else:
            raise ValueError(f"unknown kernel family {self.family!r}")

    def to_dict(self) -> dict:
        d = {"family": self.family}
        if self.epsilon is not None:
            d["epsilon"] = float(self.epsilon)
        if self.rho is not None:
            d["rho"] = int(self.rho)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(d["family"], epsilon=d.get("epsilon"), rho=d.get("rho"))


def gaussian(epsilon: float) -> KernelSpec:
    return KernelSpec(GAUSSIAN, epsilon=float(epsilon))


def radial_power(rho: int) -> KernelSpec:
    return KernelSpec(RADIAL_POWER, rho=int(rho))


def cubic() -> KernelSpec:
    return radial_power(3)


def thin_plate(rho: int = 2) -> KernelSpec:
    return KernelSpec(THIN_PLATE, rho=int(rho))


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Matrix of kernel values; exactly symmetric when assembled on one node set."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def eval_kernel(spec: KernelSpec, r):
    """Evaluate the radial profile g(r) elementwise; r may be a scalar or array."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("negative distance")
    out = _profile(spec, arr)
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def _profile(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """g(r) elementwise on a float array of distances the caller knows to be non-negative."""
    if spec.family == GAUSSIAN:
        return np.exp(-(spec.epsilon**2) * r * r)
    if spec.family == RADIAL_POWER:
        return r**spec.rho
    # continuous extension: r^rho log r -> 0 as r -> 0
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, safe**spec.rho * np.log(safe), 0.0)


def _node_kernel(spec: KernelSpec, dists: np.ndarray) -> np.ndarray:
    """Exactly symmetric kernel matrix of a node set from its condensed
    pairwise distances (pdist order, so never negative): each unordered pair
    is evaluated once and mirrored."""
    m = squareform(_profile(spec, dists))
    diag = float(_profile(spec, np.zeros(())))
    if diag != 0.0:
        np.fill_diagonal(m, diag)
    return m


def kernel_matrix(spec: KernelSpec, cloud: PointCloud) -> KernelMatrix:
    """Assemble the symmetric node matrix k(x_i, x_j) of one cloud."""
    return KernelMatrix(_node_kernel(spec, pdist(cloud.points)))


def condition_number(m: KernelMatrix) -> float:
    """sigma_max / sigma_min of a symmetric matrix, whose singular values are
    its |eigenvalues| (from eigvalsh); +inf when sigma_min is 0."""
    e = m.entries
    if e.ndim != 2 or e.shape[0] != e.shape[1] or not np.array_equal(e, e.T):
        raise ValueError("condition number requires a symmetric square matrix")
    s = np.abs(np.linalg.eigvalsh(e))
    if s.min() == 0.0:
        return float("inf")
    return float(s.max() / s.min())


def degree_vector(m: KernelMatrix) -> np.ndarray:
    """Row sums d_i of a square kernel matrix."""
    e = m.entries
    if e.shape[0] != e.shape[1]:
        raise ValueError("degree vector requires a square matrix")
    d = e.sum(axis=1)
    if np.any(d <= 0):
        i = int(np.argmin(d))
        raise ValueError(f"isolated node: row {i} has nonpositive degree {d[i]}")
    return d


def _truncate_rows(values: np.ndarray, threshold: float | None, knn: int | None) -> np.ndarray:
    """The one sparsification rule, applied to each row of values.

    threshold zeroes every entry below the cutoff; knn keeps the knn largest
    entries of each row (ties to the lower column, see _top_k) and zeroes the
    rest. Callers check that exactly one of the two is given.
    """
    if threshold is not None:
        return np.where(values < threshold, 0.0, values)
    k = int(knn)
    if not 1 <= k <= values.shape[-1]:
        raise ValueError(f"knn must be in [1, {values.shape[-1]}]")
    idx = _top_k(-values, k)
    out = np.zeros_like(values)
    np.put_along_axis(out, idx, np.take_along_axis(values, idx, axis=-1), axis=-1)
    return out


def sparsify(m: KernelMatrix, threshold: float | None = None, knn: int | None = None) -> KernelMatrix:
    """Sparsify a symmetric kernel matrix.

    threshold mode zeroes every entry below the cutoff. knn mode keeps, per
    row, the knn largest off-diagonal entries (ties broken toward the lower
    column index) plus the diagonal, then symmetrizes with an elementwise max.
    """
    if (threshold is None) == (knn is None):
        raise ValueError("specify exactly one of threshold, knn")
    e = m.entries
    n = e.shape[0]
    if e.shape[0] != e.shape[1] or not np.array_equal(e, e.T):
        raise ValueError("sparsify requires a symmetric square kernel matrix")
    if threshold is not None:
        return KernelMatrix(_truncate_rows(e, threshold, None))
    if int(knn) >= n:
        raise ValueError(f"knn must be < n = {n}")
    off = e.copy()
    np.fill_diagonal(off, -np.inf)  # the diagonal is restored separately
    kept = _truncate_rows(off, None, knn)
    out = np.maximum(kept, kept.T)
    np.fill_diagonal(out, np.diag(e))
    return KernelMatrix(out)
