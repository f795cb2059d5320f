"""Radial kernels, kernel-matrix assembly, sparsification, and conditioning diagnostics."""

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.linalg import eigh

from . import dataset
from .dataset import PointCloud, _check_int, _distances, _top_k

GAUSSIAN = "gaussian"
RADIAL_POWER = "radial_power"
THIN_PLATE = "thin_plate"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its shape parameters.

    gaussian:      exp(-epsilon^2 r^2) with finite epsilon > 0
    radial_power:  r^rho with odd rho >= 1 (rho=3 is the cubic)
    thin_plate:    r^rho log r with even rho >= 2

    epsilon must be a real number (_is_real) and rho an integer (dataset._is_int); they are stored as
    float and int.
    """

    family: str
    epsilon: float | None = None
    rho: int | None = None

    def __post_init__(self):
        if self.epsilon is not None:
            if not _is_real(self.epsilon):
                raise ValueError(f"epsilon must be a real number, got {self.epsilon!r}")
            object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.rho is not None:
            object.__setattr__(self, "rho", _check_int("rho", self.rho))
        if self.family == GAUSSIAN:
            if self.epsilon is None or not 0 < self.epsilon < np.inf:
                raise ValueError(f"gaussian kernel requires a finite epsilon > 0, got {self.epsilon}")
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
        return {name: value for name, value in vars(self).items() if value is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(d["family"], epsilon=d.get("epsilon"), rho=d.get("rho"))


def _is_real(value) -> bool:
    """A real number, numpy's included, but not a bool (nor a str)."""
    return isinstance(value, Real) and not isinstance(value, bool)


def gaussian(epsilon: float) -> KernelSpec:
    return KernelSpec(GAUSSIAN, epsilon=epsilon)


def radial_power(rho: int) -> KernelSpec:
    return KernelSpec(RADIAL_POWER, rho=rho)


def cubic() -> KernelSpec:
    return radial_power(3)


def thin_plate(rho: int = 2) -> KernelSpec:
    return KernelSpec(THIN_PLATE, rho=rho)


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


def kernel_matrix(spec: KernelSpec, cloud: PointCloud) -> np.ndarray:
    """The exactly symmetric node matrix k(x_i, x_j) of one cloud, filled from dataset._distances'
    blocks (cap dataset._BLOCK_TEMPORARY): the matrix itself plus one buffer of distances. cdist gives
    |x_i - x_j| and |x_j - x_i| the same bits and a zero diagonal, so the matrix is exactly symmetric."""
    m = np.empty((cloud.n, cloud.n))
    for rows, r in _distances(cloud.points, cloud.points, dataset._BLOCK_TEMPORARY):
        _profile(spec, r, out=m[rows])
    return m


def _square(m, name: str) -> np.ndarray:
    """m as an array, which must be 2-d and square; otherwise ValueError naming the caller."""
    e = np.asarray(m)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValueError(f"{name} requires a square matrix, got shape {e.shape}")
    return e


def condition_number(m: np.ndarray) -> float:
    """sigma_max / sigma_min of a finite symmetric matrix, whose singular values are its
    |eigenvalues|; +inf when sigma_min is 0. m is left unchanged: _condition runs on one copy.

    Raises ValueError naming the first non-finite entry, or on a non-square or non-symmetric matrix.
    """
    e = _square(m, "condition number")
    finite = np.isfinite(e)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"condition number requires finite entries: entry ({i}, {j}) is {e[i, j]}")
    if not np.array_equal(e, e.T):
        raise ValueError("condition number requires a symmetric matrix")
    return _condition(np.array(e, order="F"))


def _condition(a: np.ndarray) -> float:
    """condition_number of the finite, exactly symmetric, F-contiguous a, which it overwrites: LAPACK
    syevd's eigenvalues from scipy's eigh, in place (a C-contiguous matrix passes its view .T). They
    have the bits of np.linalg.eigvalsh, which runs syevd on its own copy of the lower triangle."""
    s = np.abs(eigh(a, eigvals_only=True, driver="evd", overwrite_a=True, check_finite=False))
    if s.min() == 0.0:
        return float("inf")
    return float(s.max() / s.min())


def degree_vector(m: np.ndarray) -> np.ndarray:
    """Row sums d_i of a square kernel matrix."""
    d = _square(m, "degree vector").sum(axis=1)
    if np.any(d <= 0):
        i = int(np.argmin(d))
        raise ValueError(f"isolated node: row {i} has nonpositive degree {d[i]}")
    return d


def _check_sparsifier(threshold: float | None, knn: int | None, n: int) -> None:
    """ValueError unless exactly one of threshold and knn is given: a threshold that is a finite real
    number, or a knn that is an integer (dataset._is_int) keeping 1 to n entries."""
    if (threshold is None) == (knn is None):
        raise ValueError("specify exactly one of threshold, knn")
    if threshold is not None and not (_is_real(threshold) and np.isfinite(threshold)):
        raise ValueError(f"threshold must be a finite real number, got {threshold!r}")
    if knn is not None and not 1 <= _check_int("knn", knn) <= n:
        raise ValueError(f"knn must be in [1, {n}]")


def _truncate_rows(values: np.ndarray, threshold: float | None, knn: int | None) -> np.ndarray:
    """The one sparsification rule, applied to each row of values.

    threshold zeroes every entry below the cutoff; knn keeps the knn largest
    entries of each row (ties to the lower column, see _top_k) and zeroes the
    rest. Callers check the two with _check_sparsifier.
    """
    if threshold is not None:
        return np.where(values < threshold, 0.0, values)
    idx = _top_k(-values, knn)
    out = np.zeros_like(values)
    np.put_along_axis(out, idx, np.take_along_axis(values, idx, axis=-1), axis=-1)
    return out


def sparsify(m: np.ndarray, threshold: float | None = None, knn: int | None = None) -> np.ndarray:
    """A sparsified copy of a symmetric kernel matrix.

    threshold mode zeroes every entry below the cutoff. knn mode keeps, per
    row, the knn largest off-diagonal entries (ties broken toward the lower
    column index) plus the diagonal, then symmetrizes with an elementwise max.
    """
    e = _square(m, "sparsify")
    _check_sparsifier(threshold, knn, e.shape[0] - 1)  # knn counts off-diagonal entries
    if not np.array_equal(e, e.T):
        raise ValueError("sparsify requires a symmetric kernel matrix")
    if threshold is not None:
        return _truncate_rows(e, threshold, None)
    off = e.copy()
    np.fill_diagonal(off, -np.inf)  # the diagonal is restored separately
    kept = _truncate_rows(off, None, knn)
    out = np.maximum(kept, kept.T)
    np.fill_diagonal(out, np.diag(e))
    return out
