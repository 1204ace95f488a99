"""The private callables that ``perfbench/spans.py`` traces by name must
exist: a rename would otherwise surface only when the tracer runs."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_named_private_callable_exists():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "_traced_spans", PERFBENCH / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
    finally:
        sys.path.remove(str(PERFBENCH))
    names = {**spans.PRIVATE, **spans.OUTCOME_ONLY}
    assert names
    for layer, cls, attr in names:
        owner = importlib.import_module(f"arglue.{layer}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (layer, cls, attr)
