"""Radial kernels, kernel-matrix assembly, sparsification, and conditioning diagnostics."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.spatial.distance import cdist, pdist, squareform

from .dataset import _ROW_GROUP, PointCloud, _row_blocks, _top_k

GAUSSIAN = "gaussian"
RADIAL_POWER = "radial_power"
THIN_PLATE = "thin_plate"
# _assemble takes at most this many distances at a time: a one-block assembly overwrites its condensed
# distances with their profile in parts of this size, so it holds one condensed vector (holding two,
# in the C heap or in one mapped block, read 1.5-3 MB (2-3%) more peak RSS on the loo-local or the
# cli-diagnostics benchmark), and the row path fills its rows through one buffer of this size
_CHUNK = 1 << 16


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


def _profile(spec: KernelSpec, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """g(r) elementwise on a float array of distances the caller knows to be non-negative, written
    into out when it is given (never r itself: the Gaussian reads r twice) and returned. In place
    or not, every value has the bits of the one expression per family below."""
    if out is None:
        out = np.empty_like(r)
    if spec.family == GAUSSIAN:  # exp(-(epsilon^2) * r * r)
        np.multiply(-(spec.epsilon**2), r, out=out)
        np.multiply(out, r, out=out)
        return np.exp(out, out=out)
    if spec.family == RADIAL_POWER:  # r**rho
        return np.power(r, spec.rho, out=out)
    # continuous extension r^rho log r -> 0 as r -> 0: at r = 0 it takes 1^rho log 1 = 0
    safe = np.where(r > 0, r, 1.0)
    np.power(safe, spec.rho, out=out)
    out *= np.log(safe, out=safe)
    return out


def _assemble(spec: KernelSpec, points: np.ndarray, size: int | None = None, duplicates=None) -> np.ndarray:
    """A new size x size matrix (size defaults to n) whose top-left n x n block is the exactly
    symmetric kernel matrix g(|x_i - x_j|) of the n rows of points; the caller fills the rest.

    When dataset._row_blocks(n, n) gives one block (every n up to 1,024) each unordered pair is
    evaluated once, from condensed pdist distances that the profile overwrites (_CHUNK), and
    mirrored by squareform, which is copied into the matrix only when size > n. Otherwise the
    matrix is the only n x n array: cdist fills one buffer of at most _CHUNK distances (whole
    groups of 4 rows, at least one group) at a time, and its kernel values go straight into the
    matrix rows. cdist's rows equal squareform(pdist)'s bit for bit (zero diagonal included), so
    both give the same matrix.

    duplicates, an exception class, is raised naming the first pair of equal points in pdist order.
    """
    n = points.shape[0]
    size = n if size is None else size
    if len(_row_blocks(n, n)) == 1:
        dists = pdist(points)
        if duplicates is not None and np.any(dists == 0.0):
            _refuse_duplicates(duplicates, squareform(dists == 0.0), 0)
        for a in range(0, dists.size, _CHUNK):
            part = dists[a : a + _CHUNK]
            part[...] = _profile(spec, part)
        k = squareform(dists)
        diag = float(_profile(spec, np.zeros(())))
        if diag != 0.0:
            np.fill_diagonal(k, diag)
        if size == n:
            return k
        m = np.empty((size, size))
        m[:n, :n] = k
        return m
    m = np.empty((size, size))
    step = _ROW_GROUP * max(1, _CHUNK // (n * _ROW_GROUP))
    buffer = np.empty((min(step, n), n))  # the one block of distances, reused
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        r = cdist(points[rows], points, out=buffer[: rows.stop - start])
        if duplicates is not None:
            equal = r == 0.0
            equal[np.arange(len(r)), np.arange(start, rows.stop)] = False
            if equal.any():
                _refuse_duplicates(duplicates, equal, start)
        _profile(spec, r, out=m[rows, :n])
    return m


def _refuse_duplicates(error, equal: np.ndarray, first_row: int):
    """Raise error naming the first True of equal (rows from first_row on) in row-major order: with
    the rows taken in order, that is the first pair of equal points in pdist order."""
    i, j = np.argwhere(equal)[0]
    raise error(f"duplicate nodes at indices {first_row + i} and {j}")


def kernel_matrix(spec: KernelSpec, cloud: PointCloud) -> KernelMatrix:
    """Assemble the exactly symmetric node matrix k(x_i, x_j) of one cloud (see _assemble: above
    1,024 points the matrix itself plus one buffer of _CHUNK distances)."""
    return KernelMatrix(_assemble(spec, cloud.points))


def condition_number(m: KernelMatrix) -> float:
    """sigma_max / sigma_min of a finite symmetric matrix, whose singular values are its
    |eigenvalues|; +inf when sigma_min is 0. m is left unchanged: _condition runs on one copy.

    Raises ValueError naming the first non-finite entry, or on a non-square or non-symmetric matrix.
    """
    e = m.entries
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValueError("condition number requires a symmetric square matrix")
    finite = np.isfinite(e)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"condition number requires finite entries: entry ({i}, {j}) is {e[i, j]}")
    if not np.array_equal(e, e.T):
        raise ValueError("condition number requires a symmetric square matrix")
    return _condition(np.array(e, order="F"))


def _condition(a: np.ndarray) -> float:
    """condition_number of the finite, exactly symmetric, F-contiguous a, which it overwrites: LAPACK
    syevd's eigenvalues from scipy's eigh, in place (a C-contiguous matrix passes its view .T). They
    have the bits of np.linalg.eigvalsh, which runs syevd on its own copy of the lower triangle."""
    s = np.abs(eigh(a, eigvals_only=True, driver="evd", overwrite_a=True, check_finite=False))
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
