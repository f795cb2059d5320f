"""Reference computations made apart from the program, with numpy alone.

Each function re-derives one output of `preimage` from its definition in the
paper (kernel formulas, bordered interpolation system, Shepard weights,
Nystrom sum) so the benchmark can check the program without trusting any of
its code paths. Distances are formed directly, neighbours are chosen by an
explicit (distance, index) sort, and systems are solved with
`np.linalg.solve`.
"""

import numpy as np

EPS = np.finfo(float).eps


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of a and b, in row blocks
    that keep the differences array near 16 MB."""
    out = np.empty((a.shape[0], b.shape[0]))
    step = max(1, 2_000_000 // max(1, b.shape[0] * a.shape[1]))
    for lo in range(0, a.shape[0], step):
        diff = a[lo : lo + step, None, :] - b[None, :, :]
        out[lo : lo + step] = np.sqrt((diff * diff).sum(axis=2))
    return out


def mean_nearest_distance(points: np.ndarray) -> float:
    """Mean distance from each point to its nearest other point."""
    d = distances(points, points)
    np.fill_diagonal(d, np.inf)
    return float(d.min(axis=1).mean())


def nearest(points: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k points nearest to query, the lower index first on ties, in index order."""
    dist = np.sqrt(((points - query) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(points.shape[0]), dist))
    return np.sort(order[:k])


def cubic_linear_predict(nodes: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cubic RBF with a constant-plus-linear tail, from the bordered system
    [[K, P], [P^T, 0]] [w; c] = [values; 0]."""
    n, d = nodes.shape
    p = np.hstack([np.ones((n, 1)), nodes])
    m = np.zeros((n + d + 1, n + d + 1))
    m[:n, :n] = distances(nodes, nodes) ** 3
    m[:n, n:] = p
    m[n:, :n] = p.T
    rhs = np.vstack([values, np.zeros((d + 1, values.shape[1]))])
    sol = np.linalg.solve(m, rhs)
    r = np.sqrt(((nodes - query) ** 2).sum(axis=1))
    return r**3 @ sol[:n] + sol[n] + query @ sol[n + 1 :]


def gaussian_predict(nodes: np.ndarray, values: np.ndarray, query: np.ndarray, eps: float) -> np.ndarray:
    """Plain Gaussian RBF interpolant exp(-eps^2 r^2), no polynomial tail."""
    k = np.exp(-(eps**2) * distances(nodes, nodes) ** 2)
    w = np.linalg.solve(k, values)
    r2 = ((nodes - query) ** 2).sum(axis=1)
    return np.exp(-(eps**2) * r2) @ w


def shepard_predict(nodes: np.ndarray, values: np.ndarray, query: np.ndarray, eps: float) -> np.ndarray:
    """Gaussian-weighted average sum_i w_i x_i / sum_i w_i with w_i = exp(-eps^2 |y_i - q|^2)."""
    w = np.exp(-(eps**2) * ((nodes - query) ** 2).sum(axis=1))
    return (w @ values) / w.sum()


def loo_fold(coords: np.ndarray, values: np.ndarray, j: int, k: int):
    """Training nodes and values of leave-one-out fold j: the k nodes nearest
    to point j among the other n-1 (all of them when k >= n-1)."""
    rest = np.flatnonzero(np.arange(coords.shape[0]) != j)
    idx = rest[nearest(coords[rest], coords[j], min(k, rest.size))]
    return coords[idx], values[idx]


def gaussian_kernel(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    return np.exp(-(eps**2) * distances(a, b) ** 2)


def cubic_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return distances(a, b) ** 3


def cond(m: np.ndarray) -> float:
    """2-norm condition number; +inf when the smallest singular value is 0."""
    s = np.linalg.svd(m, compute_uv=False)
    return float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])


def eigenspace(k: np.ndarray, index: int, tol: float = 1e-9):
    """Eigenvalue `index` (counting down from the largest) of D^-1/2 K D^-1/2,
    an orthonormal basis of its whole eigenspace, and the degrees D.

    A graph that thresholding split into components has eigenvalue 1 once per
    component, and any unit vector of that space is a valid eigenvector, so
    the basis is returned rather than one vector."""
    deg = k.sum(axis=1)
    half = 1.0 / np.sqrt(deg)
    w, v = np.linalg.eigh(k * half[:, None] * half[None, :])
    lam = w[::-1][index]
    return lam, v[:, np.abs(w - lam) <= tol * max(1.0, abs(lam))], deg


def nystrom(kvec: np.ndarray, eigval: float, eigvec: np.ndarray, degrees: np.ndarray):
    """Nystrom extension (1/lambda) sum_j k_j / sqrt(d_q d_j) phi_j, with d_q = sum_j k_j.

    kvec may hold one query per row, and eigvec one eigenvector per column
    with its eigenvalue in the matching entry of eigval."""
    kvec = np.atleast_2d(kvec)
    return (kvec / np.sqrt(kvec.sum(axis=1)[:, None] * degrees[None, :])) @ eigvec / eigval


def sphere_points(rng: np.random.Generator, n: int, sphere_dim: int) -> np.ndarray:
    """n uniform points on the unit sphere S^sphere_dim (normalized Gaussians)."""
    g = rng.standard_normal((n, sphere_dim + 1))
    return g / np.linalg.norm(g, axis=1)[:, None]


def haar_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed orthogonal dim x dim matrix (QR with R's diagonal made positive)."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)[None, :]


def write_pcld(path, points: np.ndarray) -> None:
    """Binary point-cloud file: b'PCLD', n and dim as little-endian u64, then f8 rows."""
    pts = np.ascontiguousarray(points, dtype="<f8")
    with open(path, "wb") as f:
        f.write(b"PCLD")
        f.write(np.array(pts.shape, dtype="<u8").tobytes())
        f.write(pts.tobytes())


def read_pcld(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"PCLD":
        raise ValueError(f"{path}: not a point-cloud file")
    n, dim = (int(v) for v in np.frombuffer(raw[4:20], dtype="<u8"))
    data = np.frombuffer(raw[20:], dtype="<f8")
    if data.size != n * dim:
        raise ValueError(f"{path}: expected {n * dim} values, found {data.size}")
    return data.reshape(n, dim).copy()
