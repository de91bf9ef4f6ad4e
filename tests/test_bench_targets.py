"""The traced benchmark wraps dagmix attributes by name; each must still exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{path}.{attr}"
        for path, attr, _ in spans.TARGETS
        if not hasattr(spans._resolve(path), attr)
    ]
    assert spans.TARGETS
    assert not missing
