"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Runs one untraced and one traced round of every workload, requires every
check to pass and the metrics to be exactly those BENCHMARK.json declares, then
corrupts one output at a time and requires the check that guards it to fail.
"""

import copy
import json
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    run.limit_blas_threads()
    sys.path[:0] = [str(run.ROOT / "src"), str(run.HERE)]
    import spans
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        for name, cls in workloads.WORKLOADS.items():
            wdir = Path(tmp) / name
            wdir.mkdir()
            wl = cls(0, wdir, tiny=True)
            wl.setup()
            first = wl.run_round(wdir / "round0")
            wl.collect(first)
            tracer = spans.Tracer()
            tracer.install()
            t = time.perf_counter()
            with tracer.root():
                second = wl.run_round(wdir / "round1")
            wall = time.perf_counter() - t
            tracer.uninstall()
            wl.collect(second)
            wl.observe(first)

            checks = workloads.Checks()
            wl.check(first, checks)
            wl.same(first, second, checks)
            checks.add("trace-accounts-for-wall", *tracer.accounting(wall))
            layer = run.per_layer(tracer, {False: [wall], True: [wall]}, [wl.stages(second, wall)])
            e2e = run.end_to_end([0.1], [wall], 1.0)
            for kind, got in (("per_layer", layer), ("end_to_end", e2e)):
                declared = {m["name"]: m["unit"] for m in spec[kind]}
                emitted = {name: unit for name, (_, unit) in got.items()}
                checks.add("metrics-match-benchmark-json", declared == emitted,
                           f"{kind}: undeclared {sorted(emitted.keys() - declared.keys())}, "
                           f"not emitted {sorted(declared.keys() - emitted.keys())}")
            print(f"{name}: {len(checks.results)} checks on clean output, failed: {checks.failed() or 'none'}")
            if not checks.ok:
                failures.append(f"{name}: clean output failed {checks.failed()}")

            guarded = {"trace-accounts-for-wall"}
            bad_ok, _ = tracer.accounting(wall * 0.5)
            if bad_ok:
                failures.append(f"{name}: trace-accounts-for-wall passed with half the wall time")
            for check, corrupt in wl.perturbations():
                guarded.add(check)
                c = workloads.Checks()
                if check == "rounds-agree":
                    bad = copy.deepcopy(second)
                    corrupt(bad)
                    wl.same(first, bad, c)
                else:
                    bad = copy.deepcopy(first)
                    corrupt(bad)
                    wl.check(bad, c)
                caught = check in c.failed()
                print(f"  corrupt for {check}: {'caught' if caught else 'NOT CAUGHT'}")
                if not caught:
                    failures.append(f"{name}: corrupting the output for {check} went unnoticed")
            unguarded = sorted({n for n, _, _ in checks.results} - guarded - {"metrics-match-benchmark-json"})
            if unguarded:
                failures.append(f"{name}: no corruption exercises {unguarded}")
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("passed" if not failures else "failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
