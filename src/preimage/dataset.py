"""Point clouds: synthetic samples, the one distance layer and neighbour lookup, node spacing, and every file format."""

import csv
import json
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

_MAGIC = b"PCLD"
_BLOCK_DISTANCES = 1 << 20  # _row_blocks' default cap, for query blocks that feed a product: at most 8 MB of distances
_ROW_GROUP = 4  # rows OpenBLAS's dgemm and dgemv kernels take at a time on x86-64 (see _row_blocks)
_BLOCK_TEMPORARY = 1 << 16  # _row_blocks' cap where blocks bound only temporaries, never a product's bits: 512 KiB


@dataclass(frozen=True, eq=False)
class PointCloud:
    """n points in R^dim, one per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("no points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite coordinates in point cloud")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_sphere(n: int, sphere_dim: int, quadrant_only: bool = False, seed: int = 0) -> PointCloud:
    """Draw n points uniformly from the unit sphere S^sphere_dim in R^(sphere_dim+1); n and sphere_dim
    are integers (_check_int).

    Sampling normalizes standard Gaussian vectors, which is rejection-free and
    exactly uniform. With quadrant_only the points are folded into the
    nonnegative orthant by taking absolute values; the fold preserves
    uniformity on that patch.
    """
    if _check_int("n", n) < 1:
        raise ValueError("n must be >= 1")
    if _check_int("sphere_dim", sphere_dim) < 1:
        raise ValueError("sphere_dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, sphere_dim + 1))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms == 0.0):  # essentially impossible; keeps rows exactly unit
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), sphere_dim + 1))
        norms = np.linalg.norm(g, axis=1)
    pts = g / norms[:, None]
    if quadrant_only:
        pts = np.abs(pts)
    return PointCloud(pts)


def random_unitary_embed(cloud: PointCloud, target_dim: int, seed: int = 0) -> PointCloud:
    """Embed a cloud isometrically into R^target_dim (an integer, _check_int) with a Haar orthogonal map.

    The map is the first cloud.dim rows of a target_dim x target_dim orthogonal
    matrix drawn from the Haar distribution (QR of a Gaussian matrix with the
    sign of R's diagonal fixed), so pairwise distances are preserved.
    """
    if _check_int("target_dim", target_dim) < cloud.dim:
        raise ValueError(f"target_dim {target_dim} < cloud dimension {cloud.dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((target_dim, target_dim))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs[None, :]
    return PointCloud(cloud.points @ q[: cloud.dim, :])


def _top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest keys along the last axis, listed in increasing index order.

    For k > 1 the set is the first k of a stable sort (NaN last): of keys equal to the k-th
    smallest, the lower indices are kept; k = 1 is argmin. argpartition at places k-1 and k
    finds the k-th and (k+1)-th smallest keys; where they are strictly increasing its first k
    places are the set. Other rows (a tie at the k-th key, or NaN) keep every key before the
    k-th and the lowest-index keys equal to it, in _row_blocks of at most _BLOCK_TEMPORARY keys, so
    no temporary outgrows argpartition's index table.
    """
    n = keys.shape[-1]
    if k == 1:
        return np.argmin(keys, axis=-1)[..., None]
    if k == n:
        return np.broadcast_to(np.arange(n), keys.shape).copy()
    flat = keys.reshape(-1, n)
    part = np.argpartition(flat, (k - 1, k), axis=-1)
    edge = np.take_along_axis(flat, part[:, k - 1 : k + 1], axis=-1)
    chosen = part[:, :k].copy()
    del part  # the n-wide index table goes before any tied row is settled
    tied = np.flatnonzero(~(edge[:, 0] < edge[:, 1]))
    for rows in _row_blocks(tied.size, n, _BLOCK_TEMPORARY):
        t = tied[rows]
        block, kth = flat[t], edge[t, :1]
        nan = np.isnan(kth)  # a NaN k-th key: every number comes before it
        before = (block < kth) | (nan & ~np.isnan(block))
        equal = (block == kth) | (nan & np.isnan(block))
        need = k - np.count_nonzero(before, axis=1)
        before |= equal & (np.cumsum(equal, axis=1) <= need[:, None])
        chosen[t] = np.nonzero(before)[1].reshape(-1, k)
    chosen.sort(axis=-1)
    return chosen.reshape(keys.shape[:-1] + (k,))


def nearest(points: np.ndarray, queries: np.ndarray, k: int, exclude_self: bool = False):
    """(indices, distances) of the k points nearest to each query, both m x k.

    Rows list their points in increasing point index; equidistant points go to the lower index
    (_top_k). exclude_self means the queries are the points: row i leaves out point i but not
    its duplicates. _top_k runs on one block of queries at a time, of at most _BLOCK_TEMPORARY
    distances (_distances), so the search holds its m x k table and O(n) more.
    """
    n, m = points.shape[0], queries.shape[0]
    if not 1 <= k <= n - exclude_self:
        raise ValueError(f"k must be in [1, {n - exclude_self}]")
    idx = np.empty((m, k), dtype=np.intp)
    dist = np.empty((m, k))
    for rows, d in _distances(queries, points, _BLOCK_TEMPORARY, exclude_self):
        idx[rows] = _top_k(d, k)
        dist[rows] = np.take_along_axis(d, idx[rows], axis=1)
    return idx, dist


def _distances(queries: np.ndarray, points: np.ndarray, cap: int | None = None, exclude_self: bool = False):
    """The one distance layer: yields (rows, r) for each block of _row_blocks(m, n, cap), r the cdist
    distances of queries[rows] to every point. r is a view of one buffer sized to the largest block,
    which the next block overwrites. exclude_self means the queries are the points: row i's own
    distance is set to inf, here and nowhere else in the package.
    """
    m, n = queries.shape[0], points.shape[0]
    blocks = _row_blocks(m, n, cap)
    buffer = np.empty((max((b.stop - b.start for b in blocks), default=0), n))
    for rows in blocks:
        r = cdist(queries[rows], points, out=buffer[: rows.stop - rows.start])
        if exclude_self:
            r[np.arange(len(r)), np.arange(rows.start, rows.stop)] = np.inf
        yield rows, r


def _is_int(value) -> bool:
    """The one rule for counts and indices: an int or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value) -> int:
    """value as a Python int when _is_int(value), otherwise ValueError naming the argument."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _query(query, dim: int, block: bool = True):
    """The one query rule: query as a float (m, dim) block and whether it was one point (dim,);
    ValueError for any other shape, an (m, dim) block included when block is False."""
    q = np.asarray(query, dtype=float)
    if q.shape[-1:] != (dim,) or not 1 <= q.ndim <= 1 + block:
        also = f" or an (m, {dim}) block of points" if block else ""
        raise ValueError(f"query must be a point in R^{dim}{also}, got shape {q.shape}")
    return np.atleast_2d(q), q.ndim == 1


def _paired(nodes: PointCloud, values: PointCloud) -> None:
    """ValueError unless there is one value row per node."""
    if nodes.n != values.n:
        raise ValueError(f"nodes ({nodes.n}) and values ({values.n}) must have the same point count")


def _row_blocks(m: int, n: int, cap: int | None = None) -> list:
    """The one row-block rule: the blocks in which m rows meet n columns, as consecutive slices of
    range(m), each of at most cap entries (one group of _ROW_GROUP rows at least), so memory grows
    with n, not m x n. Both caps are read at each call. cap defaults to _BLOCK_DISTANCES, which is
    only for row blocks that feed a product (eval_rbf, the Nystrom sums, global Shepard folds).
    Blocks that bound only temporaries pass _BLOCK_TEMPORARY: _distances for the neighbour search,
    kernel_matrix and inverse._system, _top_k's tied rows and the gathers of table Shepard averages.

    Blocks are whole row groups, the last one excepted, and as equal in size as the cap allows,
    so a product taken block by block gives each row the bits of one unblocked product (README,
    preimage.dataset; BENCH_query_layer.json).
    """
    cap = _BLOCK_DISTANCES if cap is None else cap
    groups = -(-m // _ROW_GROUP)
    count = -(-groups // max(1, cap // (n * _ROW_GROUP)))
    bounds = [min(m, _ROW_GROUP * (groups * i // count)) for i in range(count)] + [m]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def local_fill_distance(nodes: PointCloud) -> float:
    """Mean distance from each node to its nearest other node.

    Well defined for duplicate points (their nearest-neighbor distance is 0);
    duplicates only trigger a warning because downstream scale heuristics
    divide by this value.
    """
    if nodes.n < 2:
        raise ValueError("local fill distance needs at least 2 nodes")
    d = nearest(nodes.points, nodes.points, 1, exclude_self=True)[1][:, 0]
    if np.any(d == 0.0):
        warnings.warn("duplicate points in node set; local fill distance includes zeros")
    return float(d.mean())


def spacing_scale(multiple: float, h_local: float) -> float:
    """The scale multiple / h_local; ValueError when h_local is 0, i.e. every point has a duplicate."""
    if h_local == 0.0:
        raise ValueError("h_local is 0: every point has a duplicate, so no scale is a multiple of 1/h_local")
    return multiple / h_local


def fill_distance(nodes: PointCloud, domain_samples: PointCloud) -> float:
    """Largest distance from any domain sample to its nearest node.

    Discrete proxy for the sup over the continuous domain; tight only when the
    samples cover the domain well.
    """
    if nodes.dim != domain_samples.dim:
        raise ValueError(f"dimension mismatch: nodes in R^{nodes.dim}, domain samples in R^{domain_samples.dim}")
    return float(nearest(nodes.points, domain_samples.points, 1)[1].max())


def save_cloud(cloud: PointCloud, path) -> None:
    """Write a cloud to `path`: csv for a .csv suffix, binary otherwise."""
    path = Path(path)
    if path.suffix != ".csv":
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<QQ", cloud.n, cloud.dim))
            f.write(np.ascontiguousarray(cloud.points, dtype="<f8").tobytes())
    else:
        with open(path, "w") as f:
            f.write(f"# {cloud.n} points in R^{cloud.dim}\n")
            for row in cloud.points:
                f.write(",".join(repr(float(v)) for v in row) + "\n")


def load_cloud(path) -> PointCloud:
    """Read a cloud written by save_cloud; the suffix selects the format as there."""
    path = Path(path)
    return _load_csv(path) if path.suffix == ".csv" else _load_binary(path)


def save_bundle(directory, sidecar: str, meta: dict, blocks: dict) -> list:
    """Write a bundle: JSON sidecar `sidecar` holding meta, plus one `<name>.pcld` block per 2-d array.

    Returns the paths written; a write that fails removes the files it had written.
    """
    p = Path(directory)
    p.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for name, array in blocks.items():
            written.append(p / f"{name}.pcld")
            save_cloud(PointCloud(array), written[-1])
        written.append(p / sidecar)
        written[-1].write_text(json.dumps(meta, indent=2))
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def load_block(directory, name: str, shape: tuple) -> np.ndarray:
    """Read block `name` of a bundle; ValueError unless it has the `shape` its sidecar implies."""
    points = load_cloud(Path(directory) / f"{name}.pcld").points
    if points.shape != shape:
        rows, cols = points.shape
        raise ValueError(f"{name} block is {rows}x{cols}; the sidecar expects {shape[0]}x{shape[1]}")
    return points


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_table(path, header, rows) -> None:
    """Write a CSV table, every cell by one rule: empty for None, .17g for a float, str() otherwise."""
    with open(Path(path), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _load_binary(path: Path) -> PointCloud:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}: not a point-cloud file")
        header = f.read(16)
        if len(header) < 16:
            raise ValueError("no points")
        n, dim = struct.unpack("<QQ", header)
        if n < 1 or dim < 1:
            raise ValueError("no points")
        found, need = os.fstat(f.fileno()).st_size - f.tell(), 8 * n * dim
        if found != need:
            kind = "truncated" if found < need else "overlong"
            raise ValueError(f"{kind} point-cloud file: its {n} x {dim} header needs {need} payload bytes, found {found}")
        data = np.fromfile(f, dtype="<f8", count=n * dim)
    return PointCloud(data.reshape(n, dim))


def _load_csv(path: Path) -> PointCloud:
    rows = []
    width = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            try:
                row = [float(v) for v in fields]
            except ValueError:
                raise ValueError(f"non-numeric field at line {lineno}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"ragged table: line {lineno} has {len(row)} fields, expected {width}")
            rows.append(row)
    if not rows:
        raise ValueError("no points")
    return PointCloud(np.array(rows))
