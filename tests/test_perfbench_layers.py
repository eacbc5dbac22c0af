"""Every qsmooth attribute that the benchmark's tracer wraps still exists.

`perfbench/spans.py` replaces (module, attribute) pairs of qsmooth with
timing wrappers; a renamed or removed attribute would otherwise surface
only in the slow benchmark self-test.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}"
               for _, targets, _ in spans.LAYERS for module, attr in targets
               if not callable(getattr(importlib.import_module(f"qsmooth.{module}"),
                                       attr, None))]
    assert not missing, f"perfbench/spans.py wraps missing attributes: {missing}"
