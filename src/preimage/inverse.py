"""Approximate inverse of an embedding: RBF interpolation of each coordinate
function, plus the Shepard moving-least-squares baseline."""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.linalg import get_lapack_funcs
from scipy.spatial.distance import cdist, pdist, squareform

from .dataset import PointCloud, load_block, nearest, save_bundle
from .embedding import unisolvency_rank
from .kernels import KernelSpec, _node_kernel, eval_kernel

TAIL_NONE = "none"
TAIL_LINEAR = "linear"


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
    """Pivoted-LU solve returning the solution and a 1-norm condition estimate.

    Raises SingularSystemError on an exactly singular factorization; no
    regularization is ever added, so ill-conditioning stays observable in the
    returned estimate.
    """
    anorm = np.linalg.norm(m, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lu_factor warns on exact zero pivots; we raise instead
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    if np.any(np.diag(lu) == 0.0):
        raise SingularSystemError("singular system")
    (gecon,) = get_lapack_funcs(("gecon",), (lu,))
    rcond, _ = gecon(lu, anorm)
    sol = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("singular system")
    cond = float("inf") if rcond == 0.0 else 1.0 / float(rcond)
    return sol, cond


def _system(y: np.ndarray, spec: KernelSpec, tail: str) -> np.ndarray:
    """Interpolation matrix of the nodes y (n x d): the kernel matrix K for tail="none", the
    bordered [[K, P], [P^T, 0]] with P rows (1, y^(j)) for tail="linear".

    Raises SingularSystemError on duplicate nodes and UnisolvencyError when the nodes do not
    determine a degree-1 polynomial.
    """
    n, d = y.shape
    dists = pdist(y)
    if np.any(dists == 0.0):
        i, j = np.argwhere(squareform(dists == 0.0))[0]  # first pair in pdist order
        raise SingularSystemError(f"duplicate nodes at indices {i} and {j}")
    k = _node_kernel(spec, dists)
    if tail == TAIL_NONE:
        return k
    if tail != TAIL_LINEAR:
        raise ValueError(f"unknown tail {tail!r}")
    if unisolvency_rank(y) != d + 1:
        raise UnisolvencyError("unisolvency failure: nodes do not determine a degree-1 polynomial")
    p = np.hstack([np.ones((n, 1)), y])
    m = np.zeros((n + d + 1, n + d + 1))
    m[:n, :n] = k
    m[:n, n:] = p
    m[n:, :n] = p.T
    return m


def fit_rbf(nodes: PointCloud, values: PointCloud, spec: KernelSpec, tail: str = TAIL_LINEAR) -> RbfModel:
    """Interpolate values (n x D) at nodes (n x d), one RBF per output coordinate.

    tail="none" solves the plain kernel system K A = X by pivoted LU.
    tail="linear" augments with a constant-plus-linear polynomial and the
    matching moment constraints, giving the bordered system
    [[K, P], [P^T, 0]] [A; c] = [X; 0] with P rows (1, y^(j)); this is
    nonsingular for the cubic kernel on any 1-unisolvent node set.
    """
    if nodes.n != values.n:
        raise ValueError(f"nodes ({nodes.n}) and values ({values.n}) must have the same point count")
    y, x = nodes.points, values.points
    n = y.shape[0]
    m = _system(y, spec, tail)
    sol, cond = _solve_with_cond(m, np.vstack([x, np.zeros((m.shape[0] - n, x.shape[1]))]))
    if tail == TAIL_NONE:
        return RbfModel(y, sol, None, None, spec, tail, cond)
    return RbfModel(y, sol[:n], sol[n], sol[n + 1 :], spec, tail, cond)


def eval_rbf(model: RbfModel, query) -> np.ndarray:
    """Evaluate the interpolant at one query point (d,) or a batch (m, d)."""
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    q2 = np.atleast_2d(q)
    if q2.shape[1] != model.dim_in:
        raise ValueError(f"query dimension {q2.shape[1]} does not match nodes in R^{model.dim_in}")
    g = eval_kernel(model.spec, cdist(q2, model.nodes))
    out = g @ model.weights
    if model.tail == TAIL_LINEAR:
        out = out + model.poly_gamma[None, :] + q2 @ model.poly_beta
    return out[0] if single else out


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
    """Read a model written by save_model, checking each block's shape against model.json."""
    meta = json.loads((Path(directory) / "model.json").read_text())
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
        spec=KernelSpec.from_dict(meta["spec"]),
        tail=meta["tail"],
        condition=float(meta["condition"]),
    )
