"""Forward nonlinear map: Laplacian eigenmaps on the symmetric normalized kernel."""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from .dataset import PointCloud, _check_int, load_block, local_fill_distance, save_bundle, spacing_scale
from .kernels import GAUSSIAN, KernelSpec, degree_vector, gaussian, kernel_matrix

LANCZOS = "lanczos"
EIGH = "eigh"
# Lanczos eigenpairs are kept only when the d+2 eigenvalues found are pairwise
# farther apart than this share of the largest; closer ones may be copies of a
# repeated eigenvalue, of which Lanczos can miss some.
SEPARATION_RTOL = 1e-6
LANCZOS_SEED = 0
# ARPACK restarts before Lanczos gives up and eigh decides (the counts inputs need are in the README)
LANCZOS_RESTARTS = 60


@dataclass(frozen=True, eq=False)
class Embedding:
    """Spectral embedding of a point cloud.

    coords holds the embedded points y^(i) (one per row); eigvecs holds the
    top d+1 orthonormal eigenvectors of D^(-1/2) K D^(-1/2) including the
    trivial constant-sign one, and coords is exactly its nontrivial columns.
    solver names the eigensolver that produced them: "lanczos" or "eigh".

    An embedding also holds one private slot for nystrom_extend: the cloud, spec and query bytes
    of the last single query extended, with its normalized kernel row and degree, so that the
    same query extended again, to another eigenvector, costs only the product. A miss replaces
    the whole tuple in one assignment, so the slot needs no lock and never holds more than one
    row; a new embedding, dataclasses.replace included, starts with it empty. Like degrees, the
    slot treats the embedding and its cloud as fixed once embedded.
    """

    coords: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    degrees: np.ndarray
    spec: KernelSpec | None = None
    source: PointCloud | None = None
    solver: str = EIGH
    _query_slot: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.eigvecs.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def laplacian_eigenmaps(cloud: PointCloud, spec: KernelSpec | None = None, d: int = 2) -> Embedding:
    """Embed a cloud with the top d nontrivial eigenvectors of the normalized kernel.

    These are exactly the bottom eigenvectors of the symmetric normalized
    graph Laplacian I - D^(-1/2) K D^(-1/2), with eigenvalues reflected.
    spec must be a Gaussian affinity; it defaults to scale 1/local_fill_distance
    of the cloud, the usual spacing-matched heuristic. d is checked (_check_dim) before any kernel.
    """
    _check_dim(d, cloud.n)
    if spec is None:
        spec = gaussian(spacing_scale(1.0, local_fill_distance(cloud)))
    if spec.family != GAUSSIAN:
        raise ValueError("similarity kernel must be gaussian (positive affinities)")
    # the kernel matrix has no other owner, so it is normalized in place
    return _embed(kernel_matrix(spec, cloud), d, spec, cloud, overwrite=True)


def embedding_from_kernel(
    kmat: np.ndarray, d: int, spec: KernelSpec | None = None, source: PointCloud | None = None
) -> Embedding:
    """Eigen-embedding of an explicit (possibly sparsified) affinity matrix. kmat is left
    unchanged: its normalized copy is one more n x n matrix."""
    _check_dim(d, kmat.shape[0])
    return _embed(kmat, d, spec, source, overwrite=False)


def _check_dim(d, n: int) -> None:
    """ValueError unless the embedding dimension d is an integer (dataset._is_int) in [1, n-1]."""
    if not 1 <= _check_int("embedding dimension d", d) <= n - 1:
        raise ValueError(f"embedding dimension d={d} must satisfy 1 <= d <= n-1 = {n - 1}")


def _embed(kmat: np.ndarray, d: int, spec: KernelSpec | None, source: PointCloud | None, overwrite: bool):
    """embedding_from_kernel on a d already checked; with overwrite, D^(-1/2) K D^(-1/2) is formed
    in kmat itself."""
    deg = degree_vector(kmat)
    half = 1.0 / np.sqrt(deg)
    ktilde = np.multiply(kmat, half[:, None], out=kmat if overwrite else None)
    ktilde *= half[None, :]
    w, v, solver = _top_eigenpairs(ktilde, d + 1)
    v = _fix_signs(v)
    return Embedding(
        coords=v[:, 1:].copy(), eigvals=w, eigvecs=v, degrees=deg, spec=spec, source=source, solver=solver
    )


def _top_eigenpairs(ktilde: np.ndarray, k: int):
    """The k largest eigenpairs of a symmetric matrix, largest first, and the solver that found them.

    Implicitly restarted Lanczos (ARPACK, at most LANCZOS_RESTARTS restarts) computes the top k+1
    pairs from a fixed-seed Gaussian start vector; sqrt(degrees) would be a poor start, as
    it is an exact eigenvector and the Krylov space breaks down on it. Its
    result is kept only when every residual |K v - lambda v| is at rounding
    level (n eps times the largest |lambda|) and the k+1 eigenvalues, the one
    past the cut included, are pairwise separated by SEPARATION_RTOL. Anything
    else, including k+1 >= n, runs the full np.linalg.eigh, so every input
    the guard refuses gets exactly the eigenpairs a full eigh gives. A disconnected affinity graph
    goes to eigh without Lanczos: with c >= 2 components eigenvalue 1 repeats c times, so the
    guard could only refuse the Lanczos pairs or accept them with a copy missing.
    """
    n = ktilde.shape[0]
    if k + 1 < n and _connected(ktilde):
        v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
        try:
            w, v = eigsh(ktilde, k=k + 1, which="LA", tol=0, v0=v0, maxiter=LANCZOS_RESTARTS)
        except ArpackError:  # no convergence within the restarts, or no Krylov factorization: eigh decides
            pass
        else:
            order = np.argsort(w)[::-1]
            w, v = w[order], v[:, order]
            scale = np.abs(w).max()
            residual = np.linalg.norm(ktilde @ v - v * w, axis=0)
            separation = -np.diff(w)
            if np.all(residual <= n * np.finfo(float).eps * scale) and np.all(separation > SEPARATION_RTOL * scale):
                return w[:k].copy(), v[:, :k], LANCZOS
    w, v = np.linalg.eigh(ktilde)
    return w[::-1][:k].copy(), v[:, ::-1][:, :k], EIGH


def _connected(a: np.ndarray) -> bool:
    """Whether the nonzero pattern of a symmetric matrix is one connected graph: a breadth-first
    search from node 0 that reads each row it reaches once, and stops when every node is reached
    (after one row on a matrix without zeros); dense input costs it no conversion, unlike scipy's
    connected_components (BENCH_query_reuse.json)."""
    seen = np.zeros(a.shape[0], dtype=bool)
    seen[0] = True
    frontier = [0]
    while len(frontier) and not seen.all():
        reach = np.zeros_like(seen)
        for i in frontier:
            reach |= a[i] != 0
        frontier = np.flatnonzero(reach & ~seen)
        seen |= reach
    return bool(seen.all())


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry (first on ties) is positive."""
    v = np.ascontiguousarray(v)
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


def unisolvency_rank(points: np.ndarray) -> int:
    """Numerical rank (np.linalg.matrix_rank) of the 1-unisolvency certificate matrix [ones; points^T].

    Rank d+1 certifies that constants plus linear polynomials are determined
    by their values on the node set.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return int(np.linalg.matrix_rank(np.vstack([np.ones(pts.shape[0]), pts.T])))


def save_embedding(emb: Embedding, directory) -> None:
    """Write an embedding as a bundle: embedding.json plus coords and eigvecs blocks."""
    meta = {
        "eigvals": [float(v) for v in emb.eigvals],
        "degrees": [float(v) for v in emb.degrees],
        "spec": emb.spec.to_dict() if emb.spec is not None else None,
        "solver": emb.solver,
    }
    save_bundle(directory, "embedding.json", meta, {"coords": emb.coords, "eigvecs": emb.eigvecs})


def load_embedding(directory) -> Embedding:
    """Read an embedding written by save_embedding; with n = len(degrees) and d+1 = len(eigvals)
    in embedding.json, coords must be n x d and eigvecs n x (d+1), and coords must equal
    eigvecs[:, 1:]. A sidecar written before solver was recorded came from the full eigh."""
    meta = json.loads((Path(directory) / "embedding.json").read_text())
    eigvals, degrees = np.array(meta["eigvals"]), np.array(meta["degrees"])
    n, d = degrees.size, eigvals.size - 1
    spec = KernelSpec.from_dict(meta["spec"]) if meta["spec"] is not None else None
    coords, eigvecs = load_block(directory, "coords", (n, d)), load_block(directory, "eigvecs", (n, d + 1))
    if not np.array_equal(coords, eigvecs[:, 1:]):
        raise ValueError("coords block is not eigvecs[:, 1:], the nontrivial eigenvectors")
    return Embedding(
        coords=coords,
        eigvals=eigvals,
        eigvecs=eigvecs,
        degrees=degrees,
        spec=spec,
        solver=meta.get("solver", EIGH),
    )
