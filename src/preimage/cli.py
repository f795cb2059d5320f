"""Command-line frontend for datasets, fits, and the experiment sweeps."""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dataset import PointCloud, load_cloud, local_fill_distance, save_cloud, spacing_scale, write_table
from .embedding import embedding_from_kernel, laplacian_eigenmaps
from .evaluation import (
    BLAS_THREAD_VARS,
    TABLE_SCALE_MULTIPLES,
    ConditioningConfig,
    SphereConfig,
    conditioning_sweep,
    conditioning_to_csv,
    convergence_sweep,
    median_rows,
    scale_table,
    sweep_to_csv,
    table_to_csv,
    _cpu_count,
    _fold_workers,
    _grid,
)
from .inverse import TAIL_LINEAR, TAIL_NONE, NeighborhoodPolicy, eval_rbf, fit_rbf, load_model, save_model
from .kernels import GAUSSIAN, RADIAL_POWER, THIN_PLATE, KernelSpec, gaussian, kernel_matrix, sparsify
from .nystrom import _scan_checks, discontinuity_scan, scan_to_csv


class _Outputs:
    """Tracks files written by one run so a failing run leaves nothing behind."""

    def __init__(self):
        self.paths = []

    def path(self, p) -> Path:
        p = Path(p)
        p.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(p)
        return p

    def discard(self):
        for p in self.paths:
            if p.exists():
                p.unlink()


def _int_list(text: str):
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v != ""]


def _point(text: str):
    return np.array([float(v) for v in text.split(",")])


def _write_json(out: _Outputs, path, doc: dict) -> None:
    out.path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _machine() -> dict:
    """CPUs, BLAS build, BLAS thread variables as set and the leave-one-out fold workers they give;
    the layout of the machine block of the BENCH_*.json records."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 only prints its build configuration
        deps = {}
    libs = {lib: {key: deps.get(lib, {}).get(key) for key in ("name", "version")} for lib in ("blas", "lapack")}
    return {
        "nproc": _cpu_count(),
        "blas": {**libs, "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ}},
        "fold_workers": _fold_workers(),
    }


def _write_manifest(out: _Outputs, path, args: argparse.Namespace, seeds, **extra) -> None:
    config = {k: str(v) if isinstance(v, Path) else v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.command,
        "config": config,
        "seeds": list(seeds),
        "machine": _machine(),
        "versions": {
            "preimage": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        **extra,
    }
    _write_json(out, path, manifest)


# --kernel choice -> (KernelSpec family, default rho)
_KERNELS = {"cubic": (RADIAL_POWER, 3), "gaussian": (GAUSSIAN, None), "radial-power": (RADIAL_POWER, 3),
            "thin-plate": (THIN_PLATE, 2)}


def cmd_sphere(args, out: _Outputs) -> int:
    config = SphereConfig(
        sphere_dim=args.sphere_dim,
        ambient_dim=args.ambient_dim,
        embed_dim=args.embed_dim,
        affinity_multiple=args.affinity_multiple,
        gaussian_multiples=() if args.cubic_only else tuple(args.gaussian_scales),
        shepard_multiples=() if args.cubic_only else tuple(args.shepard_scales),
        max_neighbors=args.max_neighbors,
    )
    result = convergence_sweep(args.n, config, args.seed_list)
    sweep_to_csv(result, out.path(args.out / "rows.csv"))
    columns = ["n", "method", "scale_multiple", "median_e_avg", "seeds"]
    medians = [[m[c] for c in columns] for m in median_rows(result.rows)]
    write_table(out.path(args.out / "medians.csv"), columns, medians)
    summary = {"n_values": args.n, "seeds": args.seed_list, "methods": sorted({r.method for r in result.rows})}
    if result.fitted_slope is not None:
        summary["slope"] = result.fitted_slope
        summary["slope_residual"] = result.slope_residual
    _write_json(out, args.out / "summary.json", summary)
    _write_manifest(out, args.out / "manifest.json", args, args.seed_list)
    return 0


def cmd_conditioning(args, out: _Outputs) -> int:
    config = ConditioningConfig(
        ambient_dim=args.dim,
        quadrant_only=not args.full_sphere,
        seed=args.seed,
        epsilon=args.epsilon,
        n_values=tuple(args.n_values),
        n=args.n,
        epsilon_values=tuple(args.epsilon_values),
    )
    result = conditioning_sweep(args.mode, config)
    conditioning_to_csv(result, out.path(args.out / "conditioning.csv"))
    _write_manifest(out, args.out / "manifest.json", args, [args.seed])
    return 0


def cmd_fit(args, out: _Outputs) -> int:
    # every --epsilon and --rho given goes to KernelSpec, which refuses those --kernel's family does not take
    family, rho = _KERNELS[args.kernel]
    if args.kernel == "cubic" and args.rho is not None:
        raise ValueError("--rho is not a cubic parameter: the cubic is r^3 (see --kernel radial-power)")
    spec = KernelSpec(family, epsilon=args.epsilon, rho=rho if args.rho is None else args.rho)
    model = fit_rbf(load_cloud(args.nodes), load_cloud(args.values), spec, tail=args.tail)
    for path in save_model(model, args.out):
        out.path(path)
    _write_manifest(out, args.out / "manifest.json", args, [])
    return 0


def cmd_invert(args, out: _Outputs) -> int:
    model = load_model(args.model)
    predictions = eval_rbf(model, load_cloud(args.queries).points)
    save_cloud(PointCloud(predictions), out.path(args.out))
    manifest = Path(str(args.out) + ".manifest.json")
    _write_manifest(out, manifest, args, [], model={"spec": model.spec.to_dict(), "tail": model.tail})
    return 0


def cmd_nystrom_scan(args, out: _Outputs) -> int:
    if args.cloud is not None:
        cloud = load_cloud(args.cloud)
    else:
        rng = np.random.default_rng(args.seed)
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(args.n, args.dim)))
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    start = _point(args.start) if args.start is not None else lo
    stop = _point(args.stop) if args.stop is not None else hi
    # refuse what discontinuity_scan would before building a kernel: the embedding has eigenvectors 0..--embed-dim
    segment = _scan_checks(cloud, args.embed_dim, (start, stop), args.steps, args.threshold, args.knn, args.eigvec)
    spec = gaussian(spacing_scale(args.epsilon_multiple, local_fill_distance(cloud)))
    # a thresholded scan embeds the thresholded matrix; a knn scan embeds the full kernel and truncates only the queries
    if args.threshold is not None:
        kmat = sparsify(kernel_matrix(spec, cloud), threshold=args.threshold)
        emb = embedding_from_kernel(kmat, args.embed_dim, spec=spec, source=cloud)
    else:
        emb = laplacian_eigenmaps(cloud, spec, d=args.embed_dim)
    profile = discontinuity_scan(
        emb, cloud, spec, segment, args.steps, threshold=args.threshold, knn=args.knn, l=args.eigvec
    )
    scan_to_csv(profile, out.path(args.out / "scan.csv"))
    # a gap near 0 means eigenvalue --eigvec is repeated, so its eigenvector is not determined by the inputs;
    # solver says whether the embedding came from Lanczos or, for such inputs, the full eigh
    others = np.delete(emb.eigvals, args.eigvec)
    summary = {
        "delta_max_full": profile.delta_max_full,
        "delta_max_sparse": profile.delta_max_sparse,
        "failures": len(profile.failures),
        "diagnostic_only": profile.diagnostic_only,
        "eigval_gap": float(np.abs(others - emb.eigvals[args.eigvec]).min()),
        "solver": emb.solver,
    }
    # strict JSON has no NaN: a profile without two consecutive finite steps has a null jump
    summary.update({k: None for k in ("delta_max_full", "delta_max_sparse") if not np.isfinite(summary[k])})
    _write_json(out, args.out / "scan_summary.json", summary)
    _write_manifest(out, args.out / "manifest.json", args, [] if args.cloud is not None else [args.seed])
    return 0


def cmd_loo_table(args, out: _Outputs) -> int:
    # refuse a scale multiple or --max-neighbors that scale_table would before embedding
    _grid(args.gaussian_scales, args.shepard_scales)
    policy = NeighborhoodPolicy(max_neighbors=args.max_neighbors)
    values = load_cloud(args.values)
    if args.coords is not None:
        coords = load_cloud(args.coords)
    else:
        spec = gaussian(spacing_scale(args.affinity_multiple, local_fill_distance(values)))
        coords = PointCloud(laplacian_eigenmaps(values, spec, d=args.embed_dim).coords)
    rows = scale_table(values, coords, args.gaussian_scales, args.shepard_scales, policy)
    table_to_csv(rows, out.path(args.out / "table.csv"), dataset=Path(args.values).stem)
    _write_manifest(out, args.out / "manifest.json", args, [])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="preimage", description="Invert embeddings by RBF interpolation.")
    sub = parser.add_subparsers(dest="command", required=True)
    sphere_defaults, cond_defaults = SphereConfig(), ConditioningConfig()

    p = sub.add_parser("sphere", help="synthetic-sphere convergence experiment")
    p.add_argument("--n", type=_int_list, default=[10, 30, 100, 300, 1000], help="comma list of sample counts")
    p.add_argument("--seed-list", type=_int_list, default=[0, 1, 2, 3, 4], help="comma list of seeds")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--sphere-dim", type=int, default=sphere_defaults.sphere_dim)
    p.add_argument("--ambient-dim", type=int, default=sphere_defaults.ambient_dim)
    p.add_argument("--embed-dim", type=int, default=sphere_defaults.embed_dim)
    p.add_argument("--affinity-multiple", type=float, default=sphere_defaults.affinity_multiple)
    p.add_argument("--gaussian-scales", type=_float_list, default=list(sphere_defaults.gaussian_multiples))
    p.add_argument("--shepard-scales", type=_float_list, default=list(sphere_defaults.shepard_multiples))
    p.add_argument("--cubic-only", action="store_true")
    p.add_argument("--max-neighbors", type=int, default=sphere_defaults.max_neighbors)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("conditioning", help="condition-number sweeps of the kernel matrix")
    p.add_argument("--mode", choices=["vs_fill", "vs_epsilon"], required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--dim", type=int, default=cond_defaults.ambient_dim)
    p.add_argument("--n-values", type=_int_list, default=list(cond_defaults.n_values))
    p.add_argument("--epsilon", type=float, default=cond_defaults.epsilon)
    p.add_argument("--n", type=int, default=cond_defaults.n)
    p.add_argument("--epsilon-values", type=_float_list, default=[float(v) for v in cond_defaults.epsilon_values])
    p.add_argument("--seed", type=int, default=cond_defaults.seed)
    p.add_argument("--full-sphere", action="store_true")
    p.set_defaults(func=cmd_conditioning)

    p = sub.add_parser("fit", help="fit an interpolant and save the model")
    p.add_argument("--nodes", type=Path, required=True)
    p.add_argument("--values", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--kernel", choices=list(_KERNELS), default="cubic")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--tail", choices=[TAIL_LINEAR, TAIL_NONE], default=TAIL_LINEAR)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("invert", help="evaluate a saved model at query points")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--queries", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("nystrom-scan", help="extension profile along a segment under sparsification")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--cloud", type=Path, default=None)
    p.add_argument("--n", type=int, default=150)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embed-dim", type=int, default=2)
    p.add_argument("--epsilon-multiple", type=float, default=1.0)
    sparsifier = p.add_mutually_exclusive_group(required=True)
    sparsifier.add_argument("--threshold", type=float, help="zero kernel entries below this value")
    sparsifier.add_argument("--knn", type=int, help="keep each query's knn largest kernel entries")
    p.add_argument("--eigvec", type=int, default=1)
    p.add_argument("--start", type=str, default=None, help="comma-separated point")
    p.add_argument("--stop", type=str, default=None, help="comma-separated point")
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=cmd_nystrom_scan)

    p = sub.add_parser("loo-table", help="leave-one-out error table over methods and scales")
    p.add_argument("--values", type=Path, required=True)
    coords = p.add_mutually_exclusive_group(required=True)
    coords.add_argument("--coords", type=Path, help="embedded coordinates of --values")
    coords.add_argument("--embed-dim", type=int, help="embed --values with Laplacian eigenmaps in this many dimensions")
    p.add_argument("--affinity-multiple", type=float, default=sphere_defaults.affinity_multiple)
    p.add_argument("--gaussian-scales", type=_float_list, default=list(TABLE_SCALE_MULTIPLES))
    p.add_argument("--shepard-scales", type=_float_list, default=list(TABLE_SCALE_MULTIPLES))
    p.add_argument("--max-neighbors", type=int, default=NeighborhoodPolicy().max_neighbors)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_loo_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Outputs()
    try:
        return args.func(args, out)
    except Exception as e:  # noqa: BLE001 - CLI boundary: report and clean up
        out.discard()
        print(f"preimage: error: {e}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
