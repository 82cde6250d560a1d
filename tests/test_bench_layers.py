"""The benchmark's traced mode (``bench/spans.py``) wraps program functions
by module and name.  A rename or deletion in the package would only show
as an ``AttributeError`` in a traced run, so every listed name is checked
here."""

import importlib
import importlib.util
from pathlib import Path

import lefschetz

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, function, _ in spans.LAYERS:
        importlib.import_module(f"lefschetz.{module}")
        if not callable(getattr(getattr(lefschetz, module), function, None)):
            missing.append(f"{module}.{function}")
    assert spans.LAYERS and not missing
