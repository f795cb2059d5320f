"""Approximate inverse of an embedding: RBF interpolation of each coordinate
function, plus the Shepard moving-least-squares baseline."""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.spatial.distance import cdist

from . import dataset
from .dataset import PointCloud, _check_int, _paired, _query, _row_blocks, load_block, nearest, save_bundle
from .embedding import unisolvency_rank
from .kernels import GAUSSIAN, RADIAL_POWER, THIN_PLATE, KernelSpec, _assemble, _profile, gaussian

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
    """Cap on how many nearest nodes participate in a local fit: an integer (dataset._is_int) >= 1."""

    max_neighbors: int = 200

    def __post_init__(self):
        if _check_int("max_neighbors", self.max_neighbors) < 1:
            raise ValueError("max_neighbors must be >= 1")


@dataclass(frozen=True, eq=False)
class RbfModel:
    """Fitted interpolant mapping R^d node coordinates to R^D values.

    weights (n x D) column i holds the kernel weights of output coordinate i. With the linear
    tail, poly is the (d+1) x D tail block [gamma; beta] of the bordered system's solution:
    row 0 the constant and rows 1..d the linear coefficients, so a query q maps to
    g(|q - nodes|) weights + poly[0] + q poly[1:]; the weights then satisfy the moment
    conditions sum_j w[j] = 0 and nodes^T w = 0 per column. With tail "none" poly is None.

    condition is LAPACK gecon's 1-norm estimate; above about 300 nodes it can differ in
    the last bit between runs, the one field (also in model.json) not reproducible bit for bit.
    """

    nodes: np.ndarray
    weights: np.ndarray
    poly: np.ndarray | None
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


def _factor(m: np.ndarray):
    """Pivoted LU of the exactly symmetric m, with a 1-norm condition estimate of m: (lu, piv, cond).

    m is consumed: LAPACK's getrf factors its F-contiguous view m.T, which equals m, in place, and
    lu is that view, so callers pass a matrix they own and read only lu afterwards. The 1-norm is
    LAPACK lange's on the same view, with no temporary: its column j is row j of m, whose entries it
    adds in the order np.linalg.norm(m, 1) adds column j's, so the symmetric m gets numpy's bits.
    Raises SingularSystemError on an exactly zero pivot (getrf's info > 0); no regularization is
    ever added, so ill-conditioning stays observable in the returned estimate (gecon's).
    """
    lange, getrf, gecon = get_lapack_funcs(("lange", "getrf", "gecon"), (m,))
    anorm = lange("1", m.T)
    lu, piv, info = getrf(m.T, overwrite_a=True)
    if info > 0:
        raise SingularSystemError("singular system")
    rcond, _ = gecon(lu, anorm)
    return lu, piv, float("inf") if rcond == 0.0 else 1.0 / float(rcond)


def _solve_with_cond(m: np.ndarray, rhs: np.ndarray):
    """Solve m x = rhs from _factor's LU of m (which it consumes) by getrs, returning x and m's
    condition estimate. Raises SingularSystemError as _factor does, and on a non-finite solution."""
    lu, piv, cond = _factor(m)
    sol, _ = get_lapack_funcs("getrs", (lu,))(lu, piv, rhs)
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("singular system")
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
    return _border(m, y)


def _border(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fill the linear tail's border of the (n+d+1) x (n+d+1) m around its kernel block: P with rows
    (1, y^(j)), P^T and the zero corner. Returns m."""
    n = y.shape[0]
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
    _paired(nodes, values)
    m, n = _system(nodes.points, spec, tail), nodes.n
    rhs = np.zeros((m.shape[0], values.dim))
    rhs[:n] = values.points
    sol, cond = _solve_with_cond(m, rhs)
    return RbfModel(nodes.points, sol[:n], sol[n:] if tail == TAIL_LINEAR else None, spec, tail, cond)


def _check_tail(spec: KernelSpec, tail: str) -> None:
    takes = _TAILS.get((spec.family, spec.rho), ())
    if tail not in takes:
        need = " or ".join(map(repr, takes)) or "a tail of degree >= 2, which is not implemented"
        raise ValueError(f"kernel {spec.to_dict()} does not take tail {tail!r}; it needs {need}")


def eval_rbf(model: RbfModel, query) -> np.ndarray:
    """Evaluate the interpolant at one query point (d,) as a (D,) vector, or at an (m, d) block
    (dataset._query) as (m, D), one row block of queries at a time (dataset._row_blocks): g(|q -
    nodes|) weights, plus poly[0] + q poly[1:] with the linear tail."""
    q, single = _query(query, model.dim_in)
    out = np.empty((q.shape[0], model.dim_out))
    for rows in _row_blocks(q.shape[0], model.n):
        out[rows] = _profile(model.spec, cdist(q[rows], model.nodes)) @ model.weights
        if model.poly is not None:
            out[rows] = out[rows] + model.poly[0] + q[rows] @ model.poly[1:]
    return out[0] if single else out


def _lagrange_predict(m: np.ndarray, spec: KernelSpec, tail: str, r: np.ndarray, q: np.ndarray, x: np.ndarray):
    """The interpolant of the values x (k x D) on the k nodes of _system's matrix m (consumed) at the
    query q, whose distances to the nodes are r (k,): (m^-1 b)[:k] @ x, with b m's column for q (g(r),
    then 1 and q with the linear tail), the Lagrange form (Wendland 2005, Scattered Data Approximation)
    of the symmetric m. Returns it and m's condition estimate; raises as _solve_with_cond does."""
    k = x.shape[0]
    b = np.empty(m.shape[0])
    _profile(spec, r, out=b[:k])
    if tail == TAIL_LINEAR:
        b[k] = 1.0
        b[k + 1 :] = q
    sol, cond = _solve_with_cond(m, b)
    return sol[:k] @ x, cond


def _local_query(query, dim: int) -> np.ndarray:
    """The one point (dataset._query) of a local fit or Shepard average as a (1, dim) block; ValueError
    on a NaN or infinite coordinate, since such a query has no nearest nodes."""
    q = _query(query, dim, block=False)[0]
    if not np.isfinite(q).all():
        raise ValueError(f"query must be finite, got {q[0].tolist()}")
    return q


def fit_local_rbf(
    nodes: PointCloud,
    values: PointCloud,
    spec: KernelSpec,
    tail: str,
    policy: NeighborhoodPolicy,
    query,
) -> np.ndarray:
    """The interpolant of the policy-capped nearest nodes to the query (dataset.nearest) at the query:
    _system on those rows, solved once for it from the table's distances (_lagrange_predict). A
    refitted fold of evaluation.loo_folds is fit_local_rbf on the other points, bit for bit; both
    differ from fit_rbf then eval_rbf on the same rows by rounding only, within 64 eps cond.
    Inputs are checked as fit_rbf and _local_query check them, before the neighbour search; the fit
    raises as fit_rbf does (duplicate nodes, a singular system, lost unisolvency)."""
    _check_tail(spec, tail)
    _paired(nodes, values)
    q = _local_query(query, nodes.dim)
    if tail == TAIL_LINEAR and policy.max_neighbors < nodes.dim + 2:
        raise ValueError(f"max_neighbors must be >= d+2 = {nodes.dim + 2} for the linear tail")
    idx, dist = nearest(nodes.points, q, min(nodes.n, policy.max_neighbors))
    m = _system(nodes.points[idx[0]], spec, tail)
    return _lagrange_predict(m, spec, tail, dist[0], q[0], values.points[idx[0]])[0]


def shepard_eval(
    nodes: PointCloud,
    values: PointCloud,
    query,
    epsilon: float,
    policy: NeighborhoodPolicy = NeighborhoodPolicy(),
) -> np.ndarray:
    """Moving average of the neighborhood's values at one point (dataset._query), weighted by gaussian(epsilon):
    _shepard_average with that one spec on the one row of the query's nearest nodes. The query is checked as
    _local_query checks it, before the neighbour search. Raises ScaleUnderflowError where every weight underflowed to 0.

    The output is a convex combination of neighbor values, so it always lies
    in their coordinatewise hull.
    """
    spec = gaussian(epsilon)
    _paired(nodes, values)
    q = _local_query(query, nodes.dim)
    idx, dist = nearest(nodes.points, q, min(nodes.n, policy.max_neighbors))
    pred = _shepard_average(dist, idx, values.points, [spec])[0][0]
    if np.isnan(pred).any():
        raise ScaleUnderflowError("scale too large for spacing: all weights underflowed to 0")
    return pred


def _shepard_average(dist: np.ndarray, idx: np.ndarray, values: np.ndarray, specs) -> list:
    """The one Shepard body: for each Gaussian kernel spec of specs, and each of m rows of a neighbour
    table (dist, idx, both m x k), the average of the values rows idx names, weighted by the spec at
    dist (kernels._profile); one (m, D) array per spec. A row whose weights all underflowed to 0 is
    NaN (0/0). Rows go in _row_blocks of at most dataset._BLOCK_TEMPORARY gathered values, and each
    block of values[idx] is gathered once for every spec, so values[idx] is never built whole; each
    row has the bits of w @ values[idx[i]] / w.sum() (the batched matmul takes the same gemv per row)."""
    outs = [np.empty((idx.shape[0], values.shape[1])) for _ in specs]
    for rows in _row_blocks(idx.shape[0], idx.shape[1] * values.shape[1], dataset._BLOCK_TEMPORARY):
        gathered = values[idx[rows]]
        for spec, out in zip(specs, outs):
            w = _profile(spec, dist[rows])
            with np.errstate(invalid="ignore"):
                out[rows] = np.matmul(w[:, None, :], gathered)[:, 0] / w.sum(axis=1)[:, None]
    return outs


def save_model(model: RbfModel, directory) -> list:
    """Write a fitted model as a bundle: model.json plus the nodes and weights blocks and, with the
    linear tail, model.poly as the poly block. Returns the paths written."""
    blocks = {"nodes": model.nodes, "weights": model.weights}
    if model.poly is not None:
        blocks["poly"] = model.poly
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
    block's shape against model.json; the poly block, present with the linear tail only, becomes
    model.poly as it is stored."""
    meta = json.loads((Path(directory) / "model.json").read_text())
    spec = KernelSpec.from_dict(meta["spec"])
    _check_tail(spec, meta["tail"])
    n, dim_in, dim_out = int(meta["n"]), int(meta["dim_in"]), int(meta["dim_out"])
    nodes = load_block(directory, "nodes", (n, dim_in))
    weights = load_block(directory, "weights", (n, dim_out))
    poly = load_block(directory, "poly", (dim_in + 1, dim_out)) if meta["tail"] == TAIL_LINEAR else None
    return RbfModel(
        nodes=nodes,
        weights=weights,
        poly=poly,
        spec=spec,
        tail=meta["tail"],
        condition=float(meta["condition"]),
    )
