"""Forward nonlinear map: Laplacian eigenmaps on the symmetric normalized kernel."""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import PointCloud, load_block, local_fill_distance, save_bundle
from .kernels import GAUSSIAN, KernelMatrix, KernelSpec, degree_vector, gaussian, kernel_matrix


@dataclass(frozen=True, eq=False)
class Embedding:
    """Spectral embedding of a point cloud.

    coords holds the embedded points y^(i) (one per row); eigvecs holds the
    top d+1 orthonormal eigenvectors of D^(-1/2) K D^(-1/2) including the
    trivial constant-sign one, and coords is exactly its nontrivial columns.
    """

    coords: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    degrees: np.ndarray
    spec: KernelSpec | None = None
    source: PointCloud | None = None

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
    of the cloud, the usual spacing-matched heuristic.
    """
    if spec is None:
        spec = gaussian(1.0 / local_fill_distance(cloud))
    if spec.family != GAUSSIAN:
        raise ValueError("similarity kernel must be gaussian (positive affinities)")
    kmat = kernel_matrix(spec, cloud)
    return embedding_from_kernel(kmat, d, spec=spec, source=cloud)


def embedding_from_kernel(
    kmat: KernelMatrix, d: int, spec: KernelSpec | None = None, source: PointCloud | None = None
) -> Embedding:
    """Eigen-embedding of an explicit (possibly sparsified) affinity matrix."""
    n = kmat.n
    if not 1 <= d <= n - 1:
        raise ValueError(f"embedding dimension d={d} must satisfy 1 <= d <= n-1 = {n - 1}")
    deg = degree_vector(kmat)
    half = 1.0 / np.sqrt(deg)
    ktilde = kmat.entries * half[:, None] * half[None, :]
    w, v = np.linalg.eigh(ktilde)
    w = w[::-1][: d + 1].copy()
    v = _fix_signs(v[:, ::-1][:, : d + 1])
    return Embedding(coords=v[:, 1:].copy(), eigvals=w, eigvecs=v, degrees=deg, spec=spec, source=source)


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry (first on ties) is positive."""
    v = np.ascontiguousarray(v)
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


def unisolvency_rank(points: np.ndarray) -> int:
    """Numerical rank of the 1-unisolvency certificate matrix [ones; points^T].

    Rank d+1 certifies that constants plus linear polynomials are determined
    by their values on the node set.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = np.vstack([np.ones(pts.shape[0]), pts.T])
    s = np.linalg.svd(p, compute_uv=False)
    tol = max(p.shape) * s[0] * np.finfo(float).eps
    return int(np.count_nonzero(s > tol))


def save_embedding(emb: Embedding, directory) -> None:
    """Write an embedding as a bundle: embedding.json plus coords and eigvecs blocks."""
    meta = {
        "eigvals": [float(v) for v in emb.eigvals],
        "degrees": [float(v) for v in emb.degrees],
        "spec": emb.spec.to_dict() if emb.spec is not None else None,
    }
    save_bundle(directory, "embedding.json", meta, {"coords": emb.coords, "eigvecs": emb.eigvecs})


def load_embedding(directory) -> Embedding:
    """Read an embedding written by save_embedding; with n = len(degrees) and d+1 = len(eigvals)
    in embedding.json, coords must be n x d and eigvecs n x (d+1)."""
    meta = json.loads((Path(directory) / "embedding.json").read_text())
    eigvals, degrees = np.array(meta["eigvals"]), np.array(meta["degrees"])
    n, d = degrees.size, eigvals.size - 1
    spec = KernelSpec.from_dict(meta["spec"]) if meta["spec"] is not None else None
    return Embedding(
        coords=load_block(directory, "coords", (n, d)),
        eigvals=eigvals,
        eigvecs=load_block(directory, "eigvecs", (n, d + 1)),
        degrees=degrees,
        spec=spec,
    )
