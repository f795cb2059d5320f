"""Command-line frontend for datasets, fits, and the experiment sweeps."""

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dataset import PointCloud, load_cloud, local_fill_distance, save_cloud, spacing_scale, write_table
from .embedding import embedding_from_kernel, laplacian_eigenmaps
from .evaluation import (
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
)
from .inverse import NeighborhoodPolicy, TAIL_LINEAR, eval_rbf, fit_rbf, load_model, save_model
from .kernels import cubic, gaussian, kernel_matrix, radial_power, sparsify, thin_plate
from .nystrom import discontinuity_scan, scan_to_csv


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


def _write_manifest(out: _Outputs, path, args: argparse.Namespace, seeds) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    for k, v in config.items():
        if isinstance(v, Path):
            config[k] = str(v)
        elif isinstance(v, np.ndarray):
            config[k] = [float(x) for x in v]
    manifest = {
        "command": args.command,
        "config": config,
        "seeds": list(seeds),
        "versions": {
            "preimage": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    _write_json(out, path, manifest)


def _kernel_from_args(args) -> "object":
    if args.kernel == "cubic":
        return cubic()
    if args.kernel == "gaussian":
        if args.epsilon is None:
            raise ValueError("--epsilon is required for the gaussian kernel")
        return gaussian(args.epsilon)
    if args.kernel == "radial-power":
        return radial_power(args.rho if args.rho is not None else 3)
    if args.kernel == "thin-plate":
        return thin_plate(args.rho if args.rho is not None else 2)
    raise ValueError(f"unknown kernel {args.kernel!r}")


def cmd_sphere(args, out: _Outputs) -> int:
    seeds = list(range(args.seeds)) if args.seed_list is None else args.seed_list
    config = SphereConfig(
        sphere_dim=args.sphere_dim,
        ambient_dim=args.ambient_dim,
        embed_dim=args.embed_dim,
        affinity_multiple=args.affinity_multiple,
        gaussian_multiples=() if args.cubic_only else tuple(args.gaussian_scales),
        shepard_multiples=() if args.cubic_only else tuple(args.shepard_scales),
        cubic_tail=args.tail,
        max_neighbors=args.max_neighbors,
    )
    result = convergence_sweep(args.n, config, seeds)
    sweep_to_csv(result, out.path(args.out / "rows.csv"))
    columns = ["n", "method", "scale_multiple", "median_e_avg", "seeds"]
    medians = [[m[c] for c in columns] for m in median_rows(result.rows)]
    write_table(out.path(args.out / "medians.csv"), columns, medians)
    summary = {"n_values": args.n, "seeds": seeds, "methods": sorted({r.method for r in result.rows})}
    if result.fitted_slope is not None:
        summary["slope"] = result.fitted_slope
        summary["slope_residual"] = result.slope_residual
    _write_json(out, args.out / "summary.json", summary)
    _write_manifest(out, args.out / "manifest.json", args, seeds)
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
    nodes = load_cloud(args.nodes)
    values = load_cloud(args.values)
    spec = _kernel_from_args(args)
    model = fit_rbf(nodes, values, spec, tail=args.tail)
    for path in save_model(model, args.out):
        out.path(path)
    _write_manifest(out, args.out / "manifest.json", args, [])
    return 0


def cmd_invert(args, out: _Outputs) -> int:
    if args.model is not None:
        model = load_model(args.model)
    else:
        if args.nodes is None or args.values is None:
            raise ValueError("either --model or both --nodes and --values are required")
        spec = _kernel_from_args(args)
        model = fit_rbf(load_cloud(args.nodes), load_cloud(args.values), spec, tail=args.tail)
    queries = load_cloud(args.queries)
    predictions = eval_rbf(model, queries.points)
    save_cloud(PointCloud(predictions), out.path(args.out))
    _write_manifest(out, Path(str(args.out) + ".manifest.json"), args, [])
    return 0


def cmd_nystrom_scan(args, out: _Outputs) -> int:
    if args.cloud is not None:
        cloud = load_cloud(args.cloud)
    else:
        rng = np.random.default_rng(args.seed)
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(args.n, args.dim)))
    spec = gaussian(spacing_scale(args.epsilon_multiple, local_fill_distance(cloud)))
    if args.threshold is not None and args.embed_on == "sparse":
        kmat = sparsify(kernel_matrix(spec, cloud), threshold=args.threshold)
        emb = embedding_from_kernel(kmat, args.embed_dim, spec=spec, source=cloud)
    else:
        emb = laplacian_eigenmaps(cloud, spec, d=args.embed_dim)
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    start = _point(args.start) if args.start is not None else lo
    stop = _point(args.stop) if args.stop is not None else hi
    profile = discontinuity_scan(
        emb, cloud, spec, (start, stop), args.steps, threshold=args.threshold, knn=args.knn, l=args.eigvec
    )
    scan_to_csv(profile, out.path(args.out / "scan.csv"))
    # a gap near 0 means eigenvalue --eigvec is repeated, so its eigenvector is not determined by the inputs
    others = np.delete(emb.eigvals, args.eigvec)
    summary = {
        "delta_max_full": profile.delta_max_full,
        "delta_max_sparse": profile.delta_max_sparse,
        "failures": len(profile.failures),
        "diagnostic_only": profile.diagnostic_only,
        "eigval_gap": float(np.abs(others - emb.eigvals[args.eigvec]).min()),
    }
    # strict JSON has no NaN: a profile without two consecutive finite steps has a null jump
    summary.update({k: None for k in ("delta_max_full", "delta_max_sparse") if not np.isfinite(summary[k])})
    _write_json(out, args.out / "scan_summary.json", summary)
    _write_manifest(out, args.out / "manifest.json", args, [args.seed])
    return 0


def cmd_loo_table(args, out: _Outputs) -> int:
    values = load_cloud(args.values)
    if args.coords is not None:
        coords = load_cloud(args.coords)
    else:
        if args.embed_dim is None:
            raise ValueError("either --coords or --embed-dim is required")
        spec = gaussian(spacing_scale(args.affinity_multiple, local_fill_distance(values)))
        coords = PointCloud(laplacian_eigenmaps(values, spec, d=args.embed_dim).coords)
    rows = scale_table(
        values,
        coords,
        gaussian_multiples=args.gaussian_scales,
        shepard_multiples=args.shepard_scales,
        tail=args.tail,
        policy=NeighborhoodPolicy(max_neighbors=args.max_neighbors),
    )
    table_to_csv(rows, out.path(args.out / "table.csv"), dataset=Path(args.values).stem)
    _write_manifest(out, args.out / "manifest.json", args, [])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="preimage", description="Invert embeddings by RBF interpolation.")
    sub = parser.add_subparsers(dest="command", required=True)
    sphere_defaults, cond_defaults = SphereConfig(), ConditioningConfig()

    p = sub.add_parser("sphere", help="synthetic-sphere convergence experiment")
    p.add_argument("--n", type=_int_list, default=[10, 30, 100, 300, 1000], help="comma list of sample counts")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds (0..k-1)")
    p.add_argument("--seed-list", type=_int_list, default=None, help="explicit comma list of seeds")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--sphere-dim", type=int, default=sphere_defaults.sphere_dim)
    p.add_argument("--ambient-dim", type=int, default=sphere_defaults.ambient_dim)
    p.add_argument("--embed-dim", type=int, default=sphere_defaults.embed_dim)
    p.add_argument("--affinity-multiple", type=float, default=sphere_defaults.affinity_multiple)
    p.add_argument("--gaussian-scales", type=_float_list, default=list(sphere_defaults.gaussian_multiples))
    p.add_argument("--shepard-scales", type=_float_list, default=list(sphere_defaults.shepard_multiples))
    p.add_argument("--cubic-only", action="store_true")
    p.add_argument("--tail", choices=["linear", "none"], default=sphere_defaults.cubic_tail)
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

    kernel_flags = {
        "--kernel": dict(choices=["cubic", "gaussian", "radial-power", "thin-plate"], default="cubic"),
        "--epsilon": dict(type=float, default=None),
        "--rho": dict(type=int, default=None),
        "--tail": dict(choices=["linear", "none"], default=TAIL_LINEAR),
    }

    p = sub.add_parser("fit", help="fit an interpolant and save the model")
    p.add_argument("--nodes", type=Path, required=True)
    p.add_argument("--values", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    for flag, kw in kernel_flags.items():
        p.add_argument(flag, **kw)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("invert", help="evaluate an interpolant at query points")
    p.add_argument("--model", type=Path, default=None)
    p.add_argument("--nodes", type=Path, default=None)
    p.add_argument("--values", type=Path, default=None)
    p.add_argument("--queries", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    for flag, kw in kernel_flags.items():
        p.add_argument(flag, **kw)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("nystrom-scan", help="extension profile along a segment under sparsification")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--cloud", type=Path, default=None)
    p.add_argument("--n", type=int, default=150)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embed-dim", type=int, default=2)
    p.add_argument("--epsilon-multiple", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--knn", type=int, default=None)
    p.add_argument("--eigvec", type=int, default=1)
    p.add_argument("--start", type=str, default=None, help="comma-separated point")
    p.add_argument("--stop", type=str, default=None, help="comma-separated point")
    p.add_argument("--steps", type=int, default=1000)
    embed_on_help = "applies to --threshold only; --knn always embeds the full kernel"
    p.add_argument("--embed-on", choices=["sparse", "full"], default="sparse", help=embed_on_help)
    p.set_defaults(func=cmd_nystrom_scan)

    p = sub.add_parser("loo-table", help="leave-one-out error table over methods and scales")
    p.add_argument("--values", type=Path, required=True)
    p.add_argument("--coords", type=Path, default=None)
    p.add_argument("--embed-dim", type=int, default=None)
    p.add_argument("--affinity-multiple", type=float, default=sphere_defaults.affinity_multiple)
    p.add_argument("--gaussian-scales", type=_float_list, default=list(TABLE_SCALE_MULTIPLES))
    p.add_argument("--shepard-scales", type=_float_list, default=list(TABLE_SCALE_MULTIPLES))
    p.add_argument("--tail", choices=["linear", "none"], default=TAIL_LINEAR)
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
