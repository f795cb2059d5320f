"""Approximate inverse of an embedding: RBF interpolation of each coordinate
function, plus the Shepard moving-least-squares baseline."""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.spatial.distance import cdist

from .dataset import PointCloud, _row_blocks, load_block, nearest, save_bundle
from .embedding import unisolvency_rank
from .kernels import GAUSSIAN, RADIAL_POWER, THIN_PLATE, KernelSpec, _assemble, _profile

TAIL_NONE = "none"
TAIL_LINEAR = "linear"

# The tails each (family, rho) may take: the pairs nonsingular on every n >= 2 distinct (and, with the
# tail, 1-unisolvent) nodes. Order-m conditionally positive definite kernels need a tail of degree m-1
# (Wendland 2005, Scattered Data Approximation, ch. 8): the Gaussian (positive definite) and r (Micchelli
# 1986, Constr. Approx. 2:11) need none, r^3 and r^2 log r the linear, any other power degree >= 2.
_TAILS = {(GAUSSIAN, None): (TAIL_NONE, TAIL_LINEAR), (RADIAL_POWER, 1): (TAIL_NONE, TAIL_LINEAR),
          (RADIAL_POWER, 3): (TAIL_LINEAR,), (THIN_PLATE, 2): (TAIL_LINEAR,)}


class InterpolationError(Exception):
    """Fit or evaluation failure that a harness may record per point and skip."""


class SingularSystemError(InterpolationError):
    pass


class UnisolvencyError(InterpolationError):
    pass


class ScaleUnderflowError(InterpolationError):
    pass


@dataclass(frozen=True)
class NeighborhoodPolicy:
    """Cap on how many nearest nodes participate in a local fit."""

    max_neighbors: int = 200

    def __post_init__(self):
        if self.max_neighbors < 1:
            raise ValueError("max_neighbors must be >= 1")


@dataclass(frozen=True, eq=False)
class RbfModel:
    """Fitted interpolant mapping R^d node coordinates to R^D values.

    weights column i holds the kernel weights of output coordinate i; with the
    linear tail, poly_gamma and poly_beta hold the constant and linear
    coefficients and the weights satisfy the moment conditions
    sum_j w[j] = 0 and nodes^T w = 0 per column.

    condition is LAPACK gecon's 1-norm estimate; above about 300 nodes it can differ in
    the last bit between runs, the one field (also in model.json) not reproducible bit for bit.
    """

    nodes: np.ndarray
    weights: np.ndarray
    poly_gamma: np.ndarray | None
    poly_beta: np.ndarray | None
    spec: KernelSpec
    tail: str
    condition: float

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim_in(self) -> int:
        return self.nodes.shape[1]

    @property
    def dim_out(self) -> int:
        return self.weights.shape[1]


def _solve_with_cond(m: np.ndarray, rhs: np.ndarray):
    """Pivoted-LU solve of m x = rhs, returning x and a 1-norm condition estimate of m.

    m must be exactly symmetric, and it is consumed: LAPACK's getrf factors its F-contiguous
    view m.T, which equals m, in place, so callers pass a matrix they own and do not read it
    afterwards. The 1-norm is LAPACK lange's on the same view, with no temporary: its column j is
    row j of m, whose entries it adds in the order np.linalg.norm(m, 1) adds column j's, so the
    symmetric m gets numpy's bits. Raises SingularSystemError on an exactly zero pivot (getrf's
    info > 0) or a non-finite solution; no regularization is ever added, so ill-conditioning
    stays observable in the returned estimate.
    """
    lange, getrf, gecon, getrs = get_lapack_funcs(("lange", "getrf", "gecon", "getrs"), (m,))
    anorm = lange("1", m.T)
    lu, piv, info = getrf(m.T, overwrite_a=True)
    if info > 0:
        raise SingularSystemError("singular system")
    rcond, _ = gecon(lu, anorm)
    sol, _ = getrs(lu, piv, rhs)
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("singular system")
    cond = float("inf") if rcond == 0.0 else 1.0 / float(rcond)
    return sol, cond


def _system(y: np.ndarray, spec: KernelSpec, tail: str) -> np.ndarray:
    """Interpolation matrix of the nodes y (n x d), exactly symmetric: the kernel matrix K for
    tail="none", the bordered [[K, P], [P^T, 0]] with P rows (1, y^(j)) for tail="linear".
    Allocated once at its final size (kernels._assemble writes K into it).

    Raises SingularSystemError on duplicate nodes and UnisolvencyError when the nodes do not
    determine a degree-1 polynomial.
    """
    n, d = y.shape
    if tail == TAIL_NONE:
        return _assemble(spec, y, n, SingularSystemError)
    m = _assemble(spec, y, n + d + 1, SingularSystemError)
    if unisolvency_rank(y) != d + 1:
        raise UnisolvencyError("unisolvency failure: nodes do not determine a degree-1 polynomial")
    m[:n, n] = 1.0
    m[:n, n + 1 :] = y
    m[n:, :n] = m[:n, n:].T
    m[n:, n:] = 0.0
    return m


def fit_rbf(nodes: PointCloud, values: PointCloud, spec: KernelSpec, tail: str = TAIL_LINEAR) -> RbfModel:
    """Interpolate values (n x D) at nodes (n x d), one RBF per output coordinate.

    tail="none" solves the plain kernel system K A = X by pivoted LU.
    tail="linear" augments with a constant-plus-linear polynomial and the
    matching moment constraints, giving the bordered system
    [[K, P], [P^T, 0]] [A; c] = [X; 0] with P rows (1, y^(j)).

    Only the (kernel, tail) pairs of _TAILS, solvable on every 1-unisolvent set of distinct nodes,
    are fitted; any other raises ValueError before a matrix is built.
    """
    _check_tail(spec, tail)
    if nodes.n != values.n:
        raise ValueError(f"nodes ({nodes.n}) and values ({values.n}) must have the same point count")
    return _fit(nodes.points, values.points, spec, tail)


def _check_tail(spec: KernelSpec, tail: str) -> None:
    takes = _TAILS.get((spec.family, spec.rho), ())
    if tail not in takes:
        need = " or ".join(map(repr, takes)) or "a tail of degree >= 2, which is not implemented"
        raise ValueError(f"kernel {spec.to_dict()} does not take tail {tail!r}; it needs {need}")


def _fit(y: np.ndarray, x: np.ndarray, spec: KernelSpec, tail: str) -> RbfModel:
    """fit_rbf on the node (n x d) and value (n x D) arrays, which it does not check; the model
    keeps y itself as its nodes."""
    n = y.shape[0]
    m = _system(y, spec, tail)
    rhs = np.zeros((m.shape[0], x.shape[1]))
    rhs[:n] = x
    sol, cond = _solve_with_cond(m, rhs)
    if tail == TAIL_NONE:
        return RbfModel(y, sol, None, None, spec, tail, cond)
    return RbfModel(y, sol[:n], sol[n], sol[n + 1 :], spec, tail, cond)


def eval_rbf(model: RbfModel, query) -> np.ndarray:
    """Evaluate the interpolant at one query point (d,) or a batch (m, d), one row block of
    queries at a time (dataset._row_blocks)."""
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    q2 = np.atleast_2d(q)
    if q2.shape[1] != model.dim_in:
        raise ValueError(f"query dimension {q2.shape[1]} does not match nodes in R^{model.dim_in}")
    out = np.empty((q2.shape[0], model.dim_out))
    for rows in _row_blocks(q2.shape[0], model.n):
        out[rows] = _predict(model, cdist(q2[rows], model.nodes), q2[rows])
    return out[0] if single else out


def _predict(model: RbfModel, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The model's values at the queries q (m x d) from their distances r (m x n, never negative)
    to its nodes: g(r) weights, plus gamma + q beta with the linear tail."""
    out = _profile(model.spec, r) @ model.weights
    if model.poly_gamma is not None:
        out = out + model.poly_gamma[None, :] + q @ model.poly_beta
    return out


def fit_local_rbf(
    nodes: PointCloud,
    values: PointCloud,
    spec: KernelSpec,
    tail: str,
    policy: NeighborhoodPolicy,
    query,
) -> np.ndarray:
    """Fit on the policy-capped nearest nodes to the query, then evaluate there."""
    q = np.asarray(query, dtype=float)
    if q.ndim != 1 or q.shape[0] != nodes.dim:
        raise ValueError(f"query must be a single point in R^{nodes.dim}")
    if tail == TAIL_LINEAR and policy.max_neighbors < nodes.dim + 2:
        raise ValueError(f"max_neighbors must be >= d+2 = {nodes.dim + 2} for the linear tail")
    idx = nearest(nodes.points, q[None, :], min(nodes.n, policy.max_neighbors))[0][0]
    model = fit_rbf(PointCloud(nodes.points[idx]), PointCloud(values.points[idx]), spec, tail)
    return eval_rbf(model, q)


def shepard_eval(
    nodes: PointCloud,
    values: PointCloud,
    query,
    epsilon: float,
    policy: NeighborhoodPolicy = NeighborhoodPolicy(),
) -> np.ndarray:
    """Gaussian-weighted moving average of the neighborhood's values.

    The output is a convex combination of neighbor values, so it always lies
    in their coordinatewise hull.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if nodes.n != values.n:
        raise ValueError("nodes and values must have the same point count")
    q = np.asarray(query, dtype=float)
    if q.ndim != 1 or q.shape[0] != nodes.dim:
        raise ValueError(f"query must be a single point in R^{nodes.dim}")
    idx, dist = nearest(nodes.points, q[None, :], min(nodes.n, policy.max_neighbors))
    return _shepard_average(dist[0], values.points[idx[0]], epsilon)


def _shepard_average(dist: np.ndarray, values: np.ndarray, epsilon: float) -> np.ndarray:
    """Average of the neighbours' values rows, weighted by exp(-epsilon^2 dist^2)."""
    w = np.exp(-(epsilon**2) * dist * dist)
    total = w.sum()
    if total == 0.0:
        raise ScaleUnderflowError("scale too large for spacing: all weights underflowed to 0")
    return (w @ values) / total


def save_model(model: RbfModel, directory) -> list:
    """Write a fitted model as a bundle: model.json plus nodes, weights and (linear tail) poly blocks.
    Returns the paths written."""
    blocks = {"nodes": model.nodes, "weights": model.weights}
    if model.tail == TAIL_LINEAR:
        blocks["poly"] = np.vstack([model.poly_gamma[None, :], model.poly_beta])
    meta = {
        "spec": model.spec.to_dict(),
        "tail": model.tail,
        "n": model.n,
        "dim_in": model.dim_in,
        "dim_out": model.dim_out,
        "condition": model.condition,
    }
    return save_bundle(directory, "model.json", meta, blocks)


def load_model(directory) -> RbfModel:
    """Read a model written by save_model, checking its (spec, tail) pair as fit_rbf does and each
    block's shape against model.json."""
    meta = json.loads((Path(directory) / "model.json").read_text())
    spec = KernelSpec.from_dict(meta["spec"])
    _check_tail(spec, meta["tail"])
    n, dim_in, dim_out = int(meta["n"]), int(meta["dim_in"]), int(meta["dim_out"])
    nodes = load_block(directory, "nodes", (n, dim_in))
    weights = load_block(directory, "weights", (n, dim_out))
    gamma = beta = None
    if meta["tail"] == TAIL_LINEAR:
        poly = load_block(directory, "poly", (dim_in + 1, dim_out))
        gamma, beta = poly[0], poly[1:]
    return RbfModel(
        nodes=nodes,
        weights=weights,
        poly_gamma=gamma,
        poly_beta=beta,
        spec=spec,
        tail=meta["tail"],
        condition=float(meta["condition"]),
    )
