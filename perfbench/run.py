"""Benchmark of the `preimage` package: one workload per run, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload loo-local --seed 3 --seconds 15 --trace 0

Run from the repository root. The package is imported from `src/` next to
this directory. A run sets up (imports, inputs, warm-up) nine times, then
repeats whole rounds of the workload in one closed loop until the rounds have
taken `--seconds`, checks the outputs, and prints the result as the last line.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports per-layer calls and self time per round, the work
and waste counts, the stage figures of the untraced rounds and the tracing
overhead; the spans are written to `.perfbench-spans/`.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the systems solved per fold are about 200 x 200, where a
# second OpenBLAS thread only spins. On a shared 2-core machine it doubled CPU
# time for no wall-time gain and widened the run-to-run spread of loo-local.
BLAS_THREADS = 1
SETUPS = 9
# glibc serves allocations below its mmap threshold from the heap and, by
# default, raises that threshold to the size of each large block freed (up to
# 32 MiB). The 2000 x 2000 matrices of roundtrip then land in the heap, where
# the heap's layout decides whether a freed block is reused or the heap grows;
# with that default, peak RSS of roundtrip read 329 MB instead of 283 MB in
# 2 of 10 runs.
# A fixed threshold sends every block of 4 MiB or more to mmap and back to the
# system when freed, so peak RSS is the program's peak of live large arrays;
# the per-fold systems (~0.3 MB) stay in the heap as before. Fixing the mmap
# threshold also stops glibc from raising its trim threshold, so that is set
# to twice the mmap threshold, as the default raise would set it; left at
# 128 KiB, the heap would shrink and regrow around the per-fold systems.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 4 << 20
IMPORT_PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import preimage; print(time.perf_counter() - t)"


def limit_blas_threads():
    """Pin the BLAS thread count; must run before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def fix_mmap_threshold():
    """Fix the C allocator's mmap and trim thresholds; a C library without
    `mallopt` keeps its own policy."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user's first call pays it."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def end_to_end(setups, walls, peak_rss_mb) -> dict:
    """name -> (value, unit) of the untraced run."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, walls, stages) -> dict:
    """name -> (value, unit) of the traced run; `walls` maps traced -> round
    wall times, `stages` holds the stage figures of each untraced round."""
    import workloads

    metrics = tracer.layer_metrics(len(walls[True]), sum(walls[True]))
    metrics["trace.overhead_s"] = (statistics.median(walls[True]) - statistics.median(walls[False]), "s")
    for name, unit in workloads.STAGES.items():
        vals = [s[name] for s in stages if name in s]
        metrics[name] = (statistics.median(vals) if vals else 0.0, unit)
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> int:
    if not (ROOT / "src" / "preimage" / "__init__.py").is_file():
        print(f"perfbench: no preimage sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    limit_blas_threads()
    fix_mmap_threshold()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import preimage
    import workloads
    from spans import Tracer

    if Path(preimage.__file__).resolve().parent != ROOT / "src" / "preimage":
        print(f"perfbench: imported preimage from {preimage.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_info()))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        setups = []
        for _ in range(SETUPS):
            imported = import_seconds()
            t = time.perf_counter()
            wl.setup()
            setups.append(imported + time.perf_counter() - t)

        checks = workloads.Checks()
        tracer = Tracer() if args.trace else None
        walls = {False: [], True: []}
        stages = []
        first = None
        attempted = failed = 0
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            rdir = Path(tmp) / f"round{k}"
            if traced:
                tracer.install()
                t = time.perf_counter()
                with tracer.root():
                    out = wl.run_round(rdir)
                wall = time.perf_counter() - t
                tracer.uninstall()
            else:
                t = time.perf_counter()
                out = wl.run_round(rdir)
                wall = time.perf_counter() - t
            wl.collect(out)
            walls[traced].append(wall)
            attempted += wl.ops_per_round
            failed += wl.failed(out)
            if first is None:
                first = out
            else:
                wl.same(first, out, checks)
            if args.trace and not traced:
                stages.append(wl.stages(out, wall))
            k += 1
            if sum(walls[False]) + sum(walls[True]) >= args.seconds and (not args.trace or k % 2 == 0):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        wl.observe(first)
        wl.check(first, checks)

    if args.trace:
        spans_dir = ROOT / ".perfbench-spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.npz")
        checks.add("trace-accounts-for-wall", *tracer.accounting(sum(walls[True])))
        metrics = per_layer(tracer, walls, stages)
    else:
        metrics = end_to_end(setups, walls[False], peak_rss_mb)
    for name, ok, detail in checks.results:
        if not ok or args.trace:
            print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print("setups (import, inputs, warm-up) " + ", ".join(f"{t:.4f}" for t in setups) + " s")
    print("round walls (s) " + ", ".join(f"{t:.3f}" for t in walls[False]) + (" | traced " + ", ".join(f"{t:.3f}" for t in walls[True]) if args.trace else ""))
    print(f"rounds {len(walls[False])} untraced, {len(walls[True])} traced; "
          f"checks {len(checks.results)}, failed {', '.join(checks.failed()) or 'none'}")

    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
