"""The benchmark reads named public objects of the package: the functions its tracer wraps
(perfbench/spans.py LAYERS) and every <module>.<name> its scripts use. A name deleted or renamed
here fails these tests instead of a benchmark run."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = ["workloads.py", "oracle.py", "run.py", "selftest.py"]


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def _reads(path: Path) -> set:
    """(module, name) for every <module>.<name> the script reads, where <module> is preimage or one of
    its submodules imported by `import preimage` or `from preimage import ...`, and for every
    capture(<module>, "<name>", ...) call, which replaces that attribute while a round runs."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "preimage":
            modules.update({a.asname or a.name: f"preimage.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names if a.name == "preimage"})
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "capture"
              and len(node.args) >= 2 and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
              and isinstance(node.args[1], ast.Constant)):
            reads.add((modules[node.args[0].id], node.args[1].value))
    return reads


@pytest.mark.parametrize("layer,fns", sorted(_layers().items()))
def test_traced_functions_exist(layer, fns):
    module = importlib.import_module(f"preimage.{layer}")
    missing = [fn for fn in fns if not callable(getattr(module, fn, None))]
    assert not missing, f"perfbench traces {', '.join(missing)} in preimage.{layer}, which has no such function"


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_reads_exist(script):
    missing = [f"{m}.{name}" for m, name in sorted(_reads(PERFBENCH / script))
               if not hasattr(importlib.import_module(m), name)]
    assert not missing, f"perfbench/{script} reads {', '.join(missing)}, which the package does not define"


def test_reads_are_found():
    # the parse sees attribute reads, constants and capture targets, so the check above is not vacuous
    reads = set().union(*(_reads(PERFBENCH / s) for s in SCRIPTS))
    assert {("preimage.evaluation", "method_grid"), ("preimage.evaluation", "METHOD_CUBIC"),
            ("preimage.evaluation", "SphereConfig"), ("preimage.inverse", "NeighborhoodPolicy"),
            ("preimage.evaluation", "loo_error")} <= reads


def test_benchmark_selftest_passes():
    # the benchmark's own check of its checks, on tiny inputs: a change to what the program reports
    # that the benchmark's checks reject fails here instead of in a benchmark run
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
