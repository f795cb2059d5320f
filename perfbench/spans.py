"""Per-layer tracing of `preimage` from outside the program.

The tracer wraps the public functions of each module. Because the modules
import each other with `from .x import f`, one function object is bound
under its name in several module namespaces; every such binding in every
loaded `preimage` module is replaced, so calls between layers are seen too.
Each call records a span (name, start, end, parent) in memory. Work and waste
counts are derived from the arguments and results the wrappers see.
"""

import hashlib
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# layer -> public functions that get a span
LAYERS = {
    "dataset": ["sample_sphere", "random_unitary_embed", "local_fill_distance", "load_cloud", "save_cloud"],
    "kernels": ["eval_kernel", "kernel_matrix", "condition_number", "sparsify"],
    "embedding": ["laplacian_eigenmaps", "embedding_from_kernel", "unisolvency_rank"],
    "inverse": ["fit_rbf", "eval_rbf", "fit_local_rbf", "shepard_eval", "save_model", "load_model"],
    "nystrom": ["nystrom_extend", "discontinuity_scan"],
    "evaluation": ["loo_error", "sphere_pipeline", "convergence_sweep", "conditioning_sweep"],
    "cli": ["main"],
}
ROOT = "bench.round"
FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _key(points) -> bytes:
    a = np.ascontiguousarray(getattr(points, "points", points), dtype=float)
    return hashlib.blake2b(a.tobytes() + repr(a.shape).encode(), digest_size=16).digest()


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Counts:
    """Work and waste tallies, fed by the wrappers before each call runs."""

    def __init__(self):
        self.lu_flop = 0.0
        self.svd_flop = 0.0
        self.fold_keys = set()  # (cloud, left-out index) pairs seen by loo_error
        self.cloud_keys = set()  # distinct clouds passed to local_fill_distance
        self.query_keys = set()  # distinct query points passed to nystrom_extend
        self.failed_folds = 0

    def before(self, name, args, kwargs):
        if name == "inverse.fit_rbf":
            nodes = _arg(args, kwargs, 0, "nodes")
            tail = _arg(args, kwargs, 3, "tail", "linear")
            size = nodes.n + (nodes.dim + 1 if tail == "linear" else 0)
            self.lu_flop += 2.0 / 3.0 * size**3
        elif name == "kernels.condition_number":
            size = _arg(args, kwargs, 0, "m").entries.shape[0]
            self.svd_flop += 8.0 / 3.0 * size**3  # singular values only of a square matrix
        elif name == "evaluation.loo_error":
            coords = _arg(args, kwargs, 1, "coords")
            key = _key(coords)
            self.fold_keys.update((key, j) for j in range(coords.n))
        elif name == "dataset.local_fill_distance":
            self.cloud_keys.add(_key(_arg(args, kwargs, 0, "nodes")))
        elif name == "nystrom.nystrom_extend":
            self.query_keys.add(_key(_arg(args, kwargs, 3, "query")))

    def after(self, name, result):
        if name == "evaluation.loo_error":
            self.failed_folds += len(result.failures)


class Tracer:
    """Spans kept in parallel lists; `install` swaps every binding, `uninstall` restores them."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self._saved = []
        self.counts = Counts()
        self.calls = defaultdict(int)

    def _open(self, name) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """The benchmark's own span around one round."""
        i = self._open(ROOT)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.counts.before(name, args, kwargs)
            self.calls[name] += 1
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            self.counts.after(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if m is not None and (k == "preimage" or k.startswith("preimage."))]
        for layer, fns in LAYERS.items():
            mod = importlib.import_module(f"preimage.{layer}")
            for fn_name in fns:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._saved.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def self_times(self):
        """Self seconds per name, the summed root durations and the smallest self time."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=int)
        child = np.zeros(len(dur))
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        own = dur - child
        per = defaultdict(float)
        for name, t in zip(self.names, own):
            per[name] += float(t)
        root_total = float(dur[~has].sum())
        return per, root_total, float(own.min()) if own.size else 0.0

    def write(self, path):
        """Write every span as one row: name, start, end, parent index."""
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name_id=np.array([ids[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
        )

    def layer_metrics(self, rounds: int, traced_wall: float) -> dict:
        """Per-round calls and self time for every wrapped function, plus the
        work and waste counts; `traced_wall` is the summed wall time of the
        traced rounds as the benchmark measured it."""
        per, root_total, _ = self.self_times()
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls.get(name, 0) / rounds, "count")
            out[f"{name}.self_s"] = (per.get(name, 0.0) / rounds, "s")
        c = self.counts
        folds = len(c.fold_keys)

        # every round repeats the same inputs, so distinct keys are per round
        def per_round(*names):
            return sum(self.calls.get(n, 0) for n in names) / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        out["inverse.fit_rbf.lu_gflop"] = (c.lu_flop / 1e9 / rounds, "GFLOP")
        out["inverse.fit_rbf.calls_per_fold"] = (ratio(per_round("inverse.fit_rbf"), folds), "calls/fold")
        out["inverse.neighbour_searches_per_fold"] = (
            ratio(per_round("inverse.fit_local_rbf", "inverse.shepard_eval"), folds),
            "calls/fold",
        )
        out["dataset.local_fill_distance.calls_per_cloud"] = (
            ratio(per_round("dataset.local_fill_distance"), len(c.cloud_keys)),
            "calls/cloud",
        )
        out["nystrom.nystrom_extend.calls_per_query"] = (
            ratio(per_round("nystrom.nystrom_extend"), len(c.query_keys)),
            "calls/query",
        )
        out["kernels.condition_number.svd_gflop"] = (c.svd_flop / 1e9 / rounds, "GFLOP")
        out["evaluation.loo_error.failed_folds"] = (c.failed_folds / rounds, "count")
        out["bench.self_s"] = (per.get(ROOT, 0.0) / rounds, "s")
        out["trace.unaccounted_s"] = ((traced_wall - root_total) / rounds, "s")
        return out

    def accounting(self, traced_wall: float):
        """The self times of all spans, the benchmark's own included, must add
        up to the wall time measured around the traced rounds, and no span's
        children may outlast it."""
        per, _, min_self = self.self_times()
        gap = traced_wall - sum(per.values())
        ok = min_self >= -1e-9 and abs(gap) <= 0.01 * traced_wall
        return ok, f"self times sum to {traced_wall - gap:.4f} s of {traced_wall:.4f} s traced; smallest self time {min_self:.1e} s"
