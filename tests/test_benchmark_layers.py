"""The benchmark's tracer wraps named public functions of the package (perfbench/spans.py LAYERS);
a function deleted or renamed here fails this test instead of a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("layer,fns", sorted(_layers().items()))
def test_traced_functions_exist(layer, fns):
    module = importlib.import_module(f"preimage.{layer}")
    missing = [fn for fn in fns if not callable(getattr(module, fn, None))]
    assert not missing, f"perfbench traces {', '.join(missing)} in preimage.{layer}, which has no such function"
