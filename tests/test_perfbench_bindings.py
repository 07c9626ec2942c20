"""The benchmark's tracer (perfbench/spans.py) rebinds named functions of
the package from outside; a name that moved would fail its traced runs
with a KeyError.  This reads the tracer's binding table and edits nothing."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_in_place():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans._BINDINGS
    missing = [
        (owner.__name__, attr)
        for owner, attr, *_ in spans._BINDINGS
        if attr not in owner.__dict__
    ]
    assert missing == []
